"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main
from repro.datasets import bibliography_tree
from repro.xmltree import serialize


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "bib.xml"
    path.write_text(serialize(bibliography_tree().tree), encoding="utf-8")
    return str(path)


@pytest.fixture
def deep_chain_file(tmp_path):
    """A 3000-deep chain of ``<a>`` elements (deeper than the recursion
    limit of a recursive-descent parser)."""
    path = tmp_path / "deep.xml"
    path.write_text("<a>" * 3000 + "</a>" * 3000, encoding="utf-8")
    return str(path)


class TestCli:
    def test_summarize_then_estimate(self, xml_file, tmp_path, capsys):
        synopsis_path = str(tmp_path / "syn.json")
        assert main(["summarize", xml_file, "-o", synopsis_path]) == 0
        summary_output = capsys.readouterr().out
        assert "clusters" in summary_output

        assert main(["estimate", synopsis_path, "//paper"]) == 0
        estimate = float(capsys.readouterr().out.strip())
        assert estimate == pytest.approx(2.0)

    def test_evaluate(self, xml_file, capsys):
        assert main(["evaluate", xml_file, "//paper[./year > 2000]"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_estimate_with_predicates(self, xml_file, tmp_path, capsys):
        synopsis_path = str(tmp_path / "syn.json")
        main(["summarize", xml_file, "-o", synopsis_path,
              "--structural-budget", "100000", "--value-budget", "100000"])
        capsys.readouterr()
        assert main(["estimate", synopsis_path, "//paper/year[. >= 2001]"]) == 0
        estimate = float(capsys.readouterr().out.strip())
        assert estimate == pytest.approx(1.0, abs=0.5)

    def test_ingest_reports_shape(self, xml_file, capsys):
        assert main(["ingest", xml_file]) == 0
        output = capsys.readouterr().out
        assert "elements" in output
        assert "column bytes" in output
        assert "MB/s" in output  # throughput line

    def test_ingest_honors_chunk_size(self, xml_file, capsys):
        assert main(["ingest", xml_file, "--chunk-size", "7"]) == 0
        output = capsys.readouterr().out
        assert "7-byte chunks" in output

    def test_ingest_chunk_size_compare_parity(self, xml_file, capsys):
        """A tiny chunk size splits markup mid-token; parity must hold."""
        assert main(
            ["ingest", xml_file, "--chunk-size", "3", "--compare"]
        ) == 0
        output = capsys.readouterr().out
        assert "reference synopsis parity: ok" in output

    def test_ingest_compare_verifies_parity(self, xml_file, capsys):
        assert main(["ingest", xml_file, "--compare"]) == 0
        output = capsys.readouterr().out
        assert "reference synopsis parity: ok" in output
        assert "statistics parity: ok" in output

    def test_summarize_snapshot_format_estimates_identically(
        self, xml_file, tmp_path, capsys
    ):
        json_path = str(tmp_path / "syn.json")
        snap_path = str(tmp_path / "syn.snap")
        assert main(["summarize", xml_file, "-o", json_path]) == 0
        assert main(
            ["summarize", xml_file, "-o", snap_path, "--format", "snapshot"]
        ) == 0
        assert "[snapshot]" in capsys.readouterr().out

        # estimate auto-detects the format by magic bytes.
        assert main(["estimate", json_path, "//paper"]) == 0
        from_json = float(capsys.readouterr().out.strip())
        assert main(["estimate", snap_path, "//paper"]) == 0
        from_snap = float(capsys.readouterr().out.strip())
        assert from_snap == from_json

    def test_convert_roundtrip_is_stable(self, xml_file, tmp_path, capsys):
        json_path = str(tmp_path / "syn.json")
        snap_path = str(tmp_path / "syn.snap")
        back_path = str(tmp_path / "back.snap")
        main(["summarize", xml_file, "-o", json_path])
        capsys.readouterr()
        assert main(
            ["convert", json_path, snap_path, "--format", "snapshot"]
        ) == 0
        assert "snapshot" in capsys.readouterr().out
        # snapshot -> json -> snapshot is byte-identical.
        json2 = str(tmp_path / "again.json")
        assert main(["convert", snap_path, json2, "--format", "json"]) == 0
        assert main(["convert", json2, back_path, "--format", "snapshot"]) == 0
        with open(snap_path, "rb") as a, open(back_path, "rb") as b:
            assert a.read() == b.read()

    def test_summarize_deep_document(self, deep_chain_file, tmp_path, capsys):
        synopsis_path = str(tmp_path / "deep.json")
        assert main(["summarize", deep_chain_file, "-o", synopsis_path]) == 0
        assert "3000 elements" in capsys.readouterr().out

    def test_evaluate_deep_document(self, deep_chain_file, capsys):
        assert main(["evaluate", deep_chain_file, "//a"]) == 0
        assert capsys.readouterr().out.strip() == "3000"

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--window-ms", "1"], ["--max-batch", "8"]]
    )
    def test_serve_has_no_batching_knobs(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", *flag, "x.snap"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_evaluate_has_no_engine_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "x.xml", "//a", "--engine", "treewalk"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
