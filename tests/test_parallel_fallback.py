"""Start-method fallback for the collection build's process pool.

``build_collection(..., workers > 1)`` — the one process-pool caller —
prefers the ``fork`` start method but must degrade gracefully: to
``spawn`` (task arguments pickled instead of inherited) where fork is
unavailable, and to the serial path where no start method works at all.
The fallback order lives in :mod:`repro.core.parallel`; these tests
force each rung by monkeypatching ``START_METHODS`` and assert that
every rung writes the serial build's payload bytes.
"""

from __future__ import annotations

import os

import pytest

import repro.core.parallel
from repro.collection import CollectionConfig, build_collection
from repro.collection.manifest import REFS_DIRNAME, SHARD_DIRNAME
from repro.core.parallel import pool_context


@pytest.fixture
def force_methods(monkeypatch):
    """Monkeypatch the start-method preference list."""

    def _force(*methods):
        monkeypatch.setattr(
            repro.core.parallel, "START_METHODS", tuple(methods)
        )

    return _force


class TestPoolContext:
    def test_returns_a_preferred_context(self):
        context = pool_context()
        assert context is not None
        assert context.get_start_method() in repro.core.parallel.START_METHODS

    def test_skips_unknown_methods(self, force_methods):
        force_methods("definitely-not-a-start-method", "fork")
        context = pool_context()
        assert context is not None
        assert context.get_start_method() == "fork"

    def test_none_when_no_method_available(self, force_methods):
        force_methods("definitely-not-a-start-method")
        assert pool_context() is None


def _document(variant: int) -> str:
    items = "".join(
        f"<item><name>v{variant}-{i % 3}</name><price>{i * 7 % 50}</price></item>"
        for i in range(4 + 3 * variant)
    )
    return f"<site><region>r{variant}</region>{items}</site>"


#: Eight documents over three distinct structures, so the build fans
#: more than one payload task out to the pool.
DOCUMENTS = [(f"doc-{i}", _document(i % 3)) for i in range(8)]


def _build(root: str, workers: int):
    """Build the corpus; return the report and every payload file's bytes."""
    config = CollectionConfig(
        shard_count=3, total_budget=1 << 14, workers=workers
    )
    _manifest, report = build_collection(root, DOCUMENTS, config)
    payloads = {}
    for dirname in (SHARD_DIRNAME, REFS_DIRNAME):
        for name in sorted(os.listdir(os.path.join(root, dirname))):
            with open(os.path.join(root, dirname, name), "rb") as handle:
                payloads[os.path.join(dirname, name)] = handle.read()
    return report, payloads


class TestCollectionBuildFallback:
    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        report, payloads = _build(str(tmp_path_factory.mktemp("serial")), 1)
        assert report.distinct_structures == 3
        assert report.workers_effective == 1
        return payloads

    def test_spawn_fallback_matches_serial(
        self, serial, force_methods, tmp_path
    ):
        """Without fork, the pool pickles its tasks through spawn and
        still writes the serial build's bytes."""
        force_methods("spawn")
        report, payloads = _build(str(tmp_path), 2)
        assert report.workers_effective == 2
        assert payloads == serial

    def test_serial_fallback_when_no_start_method(
        self, serial, force_methods, tmp_path
    ):
        force_methods()
        report, payloads = _build(str(tmp_path), 2)
        assert report.workers_requested == 2
        assert report.workers_effective == 1
        assert payloads == serial
