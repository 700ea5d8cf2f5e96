"""Tests for the estimation daemon: engine, coalescer, JSON AST, HTTP.

Everything runs in-process (``asyncio.run`` + a server bound to an
ephemeral localhost port), so the suite exercises the real wire
protocol without external processes.  The recurring assertion is
*bit-exact parity*: whatever path a query takes into the daemon —
XPath text, JSON AST, coalesced batch, ``/batch`` — the float coming
back must equal ``CompiledEstimator.estimate`` on the same synopsis.
"""

import asyncio

import pytest

from repro.core import build_xcluster
from repro.core.builder import BuildConfig
from repro.core.estimation import CompiledEstimator
from repro.query import parse_twig
from repro.query.jsonast import (
    QueryFormatError,
    twig_from_dict,
    twig_to_dict,
)
from repro.serve import (
    PlanCoalescer,
    ServeClient,
    ServeEngine,
    ServingStats,
    SynopsisServer,
)
from repro.serve.engine import LATENCY_WINDOW


@pytest.fixture(scope="module")
def synopsis(request):
    imdb_small = request.getfixturevalue("imdb_small")
    return build_xcluster(
        imdb_small.tree,
        structural_budget=3000,
        value_budget=20000,
        value_paths=imdb_small.value_paths,
        config=BuildConfig(pool_max=500, pool_min=250),
    )


PROBES = (
    "//movie/title",
    "//movie[./year >= 1990]/cast/actor",
    "//movie/title[. contains(St)]",
    "//movie/plot[. ftcontains(be)]",
    "//show/season/episode",
    "//movie[./year in [1985, 1999]]/title",
)


class TestJsonAst:
    @pytest.mark.parametrize("text", PROBES)
    def test_roundtrip_preserves_estimates(self, synopsis, text):
        query = parse_twig(text)
        restored = twig_from_dict(twig_to_dict(query))
        estimator = CompiledEstimator(synopsis)
        assert estimator.estimate(restored) == estimator.estimate(query)

    @pytest.mark.parametrize("text", PROBES)
    def test_roundtrip_is_json_plain(self, text):
        import json

        data = twig_to_dict(parse_twig(text))
        assert json.loads(json.dumps(data)) == data

    def test_atleast_roundtrip(self):
        query = parse_twig("//movie/plot[. ftatleast(2, be, star, war)]")
        restored = twig_from_dict(twig_to_dict(query))
        assert twig_to_dict(restored) == twig_to_dict(query)

    @pytest.mark.parametrize(
        "data",
        [
            "not a dict",
            {},
            {"name": 7},
            {"name": "a", "predicate": {"kind": "mystery"}},
            {"name": "a", "edge": [["child", "b"]]},  # root takes no edge
            {"name": "a", "children": [{"name": "b"}]},  # child needs edge
            {"name": "a", "predicate": {"kind": "range"}},
        ],
    )
    def test_malformed_ast_rejected(self, data):
        with pytest.raises(QueryFormatError):
            twig_from_dict(data)

    def test_depth_bomb_rejected(self):
        deep = {"name": "x"}
        for _ in range(100):
            deep = {
                "name": "x",
                "children": [
                    dict(deep, edge=[["child", "x"]])
                ],
            }
        with pytest.raises(QueryFormatError):
            twig_from_dict(deep)


class TestServeEngine:
    def test_parse_xpath_request(self, synopsis):
        engine = ServeEngine(synopsis)
        query = engine.parse_request_query({"query": PROBES[0]})
        assert query.to_xpath() == parse_twig(PROBES[0]).to_xpath()

    def test_parse_ast_request(self, synopsis):
        engine = ServeEngine(synopsis)
        ast = twig_to_dict(parse_twig(PROBES[1]))
        query = engine.parse_request_query({"ast": ast})
        assert twig_to_dict(query) == ast

    @pytest.mark.parametrize(
        "payload",
        [{}, {"query": 5}, {"query": "//a", "ast": {"name": "a"}}],
    )
    def test_bad_request_payloads_rejected(self, synopsis, payload):
        engine = ServeEngine(synopsis)
        with pytest.raises(ValueError):
            engine.parse_request_query(payload)

    def test_batch_parity(self, synopsis):
        engine = ServeEngine(synopsis)
        queries = [parse_twig(text) for text in PROBES]
        estimator = CompiledEstimator(synopsis)
        expected = [estimator.estimate(query) for query in queries]
        assert engine.estimate_batch(queries) == expected

    def test_coalesced_estimate_parity(self, synopsis):
        engine = ServeEngine(synopsis)
        estimator = CompiledEstimator(synopsis)

        async def run():
            return await asyncio.gather(
                *(engine.estimate(parse_twig(text)) for text in PROBES)
            )

        results = asyncio.run(run())
        assert results == [estimator.estimate(parse_twig(t)) for t in PROBES]

    def test_identical_inflight_plans_coalesce(self, synopsis):
        engine = ServeEngine(synopsis)
        query = parse_twig(PROBES[0])

        async def run():
            return await asyncio.gather(
                *(engine.estimate(query) for _ in range(8))
            )

        results = asyncio.run(run())
        assert len(set(results)) == 1
        stats = engine.stats.snapshot()
        # 8 identical requests must not dispatch 8 plans.
        assert stats["coalescing"]["coalesced_requests"] > 0
        assert (
            stats["coalescing"]["batched_plans_total"]
            < stats["requests_total"]
        )

    def test_plan_cache_is_shared_across_requests(self, synopsis):
        engine = ServeEngine(synopsis)
        query = parse_twig(PROBES[0])

        async def run():
            await engine.estimate(query)
            await engine.estimate(query)

        asyncio.run(run())
        stats = engine.stats.snapshot()
        assert stats["estimator"]["plan_cache_hits"] >= 1


class TestServingStats:
    def test_percentiles_from_known_samples(self):
        stats = ServingStats(None)
        for ms in range(1, 101):  # 1ms .. 100ms
            stats.observe_latency(ms / 1000.0)
        assert stats.p50_ms == pytest.approx(50.0)
        assert stats.p99_ms == pytest.approx(99.0)

    def test_empty_window_reports_zero(self):
        stats = ServingStats(None)
        assert stats.p50_ms == 0.0
        assert stats.p99_ms == 0.0

    def test_window_is_bounded(self):
        stats = ServingStats(None)
        for _ in range(LATENCY_WINDOW + 100):
            stats.observe_latency(0.001)
        assert len(stats._latencies) == LATENCY_WINDOW
        assert stats.requests_total == LATENCY_WINDOW + 100

    def test_batch_occupancy_is_requests_per_batch(self):
        stats = ServingStats(None)
        stats.record_batch(requests=6, plans=2)
        stats.record_batch(requests=2, plans=2)
        assert stats.mean_batch_occupancy == pytest.approx(4.0)


class TestHttpServer:
    def _run(self, synopsis, scenario):
        async def main():
            engine = ServeEngine(synopsis)
            async with SynopsisServer(engine) as server:
                client = ServeClient(server.host, server.port)
                try:
                    return await scenario(server, client)
                finally:
                    await client.close()

        return asyncio.run(main())

    def test_healthz(self, synopsis):
        async def scenario(server, client):
            return await client.request("GET", "/healthz")

        status, body = self._run(synopsis, scenario)
        assert status == 200
        assert body == {"status": "ok"}

    def test_estimate_parity_over_http(self, synopsis):
        estimator = CompiledEstimator(synopsis)

        async def scenario(server, client):
            results = []
            for text in PROBES:
                status, body = await client.estimate({"query": text})
                assert status == 200
                results.append(body["estimate"])
            return results

        results = self._run(synopsis, scenario)
        expected = [estimator.estimate(parse_twig(t)) for t in PROBES]
        assert results == expected

    def test_single_estimate_compiles_its_twig_once(
        self, synopsis, monkeypatch
    ):
        import repro.core.estimation.engine as engine_module

        compiled = []
        real_compile = engine_module.compile_query

        def counting_compile(query):
            compiled.append(query)
            return real_compile(query)

        monkeypatch.setattr(engine_module, "compile_query", counting_compile)

        async def scenario(server, client):
            return await client.estimate({"query": PROBES[1]})

        status, body = self._run(synopsis, scenario)
        assert status == 200
        assert len(compiled) == 1
        assert body["estimate"] == CompiledEstimator(synopsis).estimate(
            parse_twig(PROBES[1])
        )

    def test_ast_and_xpath_agree(self, synopsis):
        async def scenario(server, client):
            _, by_text = await client.estimate({"query": PROBES[1]})
            ast = twig_to_dict(parse_twig(PROBES[1]))
            _, by_ast = await client.estimate({"ast": ast})
            return by_text["estimate"], by_ast["estimate"]

        text_estimate, ast_estimate = self._run(synopsis, scenario)
        assert text_estimate == ast_estimate

    def test_user_tag_is_echoed(self, synopsis):
        async def scenario(server, client):
            return await client.estimate(
                {"query": PROBES[0], "user": "alice"}
            )

        _status, body = self._run(synopsis, scenario)
        assert body["user"] == "alice"

    def test_batch_endpoint_parity(self, synopsis):
        estimator = CompiledEstimator(synopsis)

        async def scenario(server, client):
            body = {"queries": [{"query": text} for text in PROBES]}
            return await client.request("POST", "/batch", body)

        status, body = self._run(synopsis, scenario)
        assert status == 200
        expected = [estimator.estimate(parse_twig(t)) for t in PROBES]
        assert body["estimates"] == expected

    def test_malformed_query_is_400(self, synopsis):
        async def scenario(server, client):
            return await client.estimate({"query": "///[[["})

        status, body = self._run(synopsis, scenario)
        assert status == 400
        assert "error" in body

    def test_bad_ast_is_400(self, synopsis):
        async def scenario(server, client):
            return await client.estimate({"ast": {"kind": "nope"}})

        status, _body = self._run(synopsis, scenario)
        assert status == 400

    def test_unknown_route_is_404(self, synopsis):
        async def scenario(server, client):
            return await client.request("GET", "/nope")

        status, _body = self._run(synopsis, scenario)
        assert status == 404

    def test_stats_endpoint_shape(self, synopsis):
        async def scenario(server, client):
            await client.estimate({"query": PROBES[0]})
            return await client.stats()

        stats = self._run(synopsis, scenario)
        assert stats["requests_total"] >= 1
        assert {"p50_ms", "p99_ms", "window"} <= set(stats["latency"])
        assert "plan_cache_hit_rate" in stats["estimator"]
        assert "mean_batch_occupancy" in stats["coalescing"]

    def test_shutdown_endpoint_stops_server(self, synopsis):
        async def main():
            engine = ServeEngine(synopsis)
            server = SynopsisServer(engine)
            await server.start()
            runner = asyncio.ensure_future(server.serve_until_shutdown())
            client = ServeClient(server.host, server.port)
            status, _body = await client.request("POST", "/shutdown")
            await client.close()
            await asyncio.wait_for(runner, timeout=5.0)
            return status

        assert asyncio.run(main()) == 200

    def test_concurrent_clients_coalesce(self, synopsis):
        async def main():
            engine = ServeEngine(synopsis)
            async with SynopsisServer(engine) as server:

                async def one_client():
                    client = ServeClient(server.host, server.port)
                    try:
                        _, body = await client.estimate({"query": PROBES[0]})
                        return body["estimate"]
                    finally:
                        await client.close()

                results = await asyncio.gather(
                    *(one_client() for _ in range(6))
                )
                return results, engine.stats.snapshot()

        results, stats = asyncio.run(main())
        assert len(set(results)) == 1
        assert stats["requests_total"] == 6
