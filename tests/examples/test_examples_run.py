"""Smoke tests: every example script runs cleanly and prints its headline
artifacts.  The examples are documentation; broken documentation fails CI.
"""

import io
import pathlib
import runpy
from contextlib import redirect_stdout

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


class TestExamples:
    def test_examples_directory_contents(self):
        scripts = sorted(path.name for path in EXAMPLES.glob("*.py"))
        assert scripts == [
            "ceo_report.py",
            "credibility_ranking.py",
            "federation_at_scale.py",
            "federation_service.py",
            "heterogeneous_sources.py",
            "lineage_audit.py",
            "observability.py",
            "polystore.py",
            "quickstart.py",
            "remote_federation.py",
            "streaming_pipeline.py",
        ]

    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "Genentech, {AD, CD}, {AD, CD}" in output
        assert "R(10)" in output  # the Table 3 plan
        assert "Intermediate Source Tagging" in output

    def test_ceo_report(self):
        output = run_example("ceo_report.py")
        assert "Bob Swanson" in output and "John Reed" in output and "Stu Madnick" in output
        assert "Retrieve" in output  # both-sides-local plan is printed

    def test_credibility_ranking(self):
        output = run_example("credibility_ranking.py")
        assert "Credibility ranking" in output
        assert "0.95" in output or "0.9" in output
        assert "Plain polygen Merge keeps 0 tuple(s)" in output
        assert "Oracle" in output

    def test_federation_at_scale(self):
        output = run_example("federation_at_scale.py")
        assert "12 databases" in output
        assert "Corroboration profile" in output
        assert "local queries:" in output

    def test_lineage_audit(self):
        output = run_example("lineage_audit.py")
        assert "(AD, BUSINESS, BNAME)" in output
        assert "(CD, FIRM, FNAME)" in output
        assert "MIT" in output and "BP" in output  # dangling references

    def test_heterogeneous_sources(self):
        output = run_example("heterogeneous_sources.py")
        assert "Identical" in output
        assert "Genentech, {AD, CD}, {AD, CD}" in output

    def test_observability(self):
        output = run_example("observability.py")
        assert "Stitched trace:" in output
        assert "[remote]" in output  # server-side spans in the same tree
        assert "Slow-query log entry:" in output
        assert "polygen_query_seconds_bucket" in output
        assert "polygen_source_consulted_total" in output
        assert "Genentech, {AD, CD}, {AD, CD}" in output  # still the paper's answer

    def test_remote_federation(self):
        output = run_example("remote_federation.py")
        assert "polygen://" in output  # sources registered by URL
        assert "Genentech, {AD, CD}, {AD, CD}" in output  # paper answer, tagged
        assert "tag-identical to the in-process federation: True" in output
        assert "remote transports: 3" in output  # per-transport counters
        assert "first rows usable after" in output  # streamed vs batch

    def test_polystore(self):
        output = run_example("polystore.py")
        assert "AD: sqlite file" in output and "PD: jsonl log" in output
        assert "native_select" in output  # the capability matrix
        assert "Genentech, {AD, CD}, {AD, CD}" in output  # paper answer, tagged
        assert "Tag-identical to the all-in-memory baseline" in output
        assert "tuples shipped" in output  # per-backend transfer counters

    def test_streaming_pipeline(self, monkeypatch):
        # The documented demo scans 10^6 tuples; CI runs a scaled-down
        # relation — the pipeline layers exercised are identical.
        monkeypatch.setenv("STREAMING_PIPELINE_ROWS", "50000")
        output = run_example("streaming_pipeline.py")
        assert "Remote source serving 50,000 tuples" in output
        assert "First-row latency improvement" in output
        assert "binary v3 scan" in output and "JSON v1" in output
        assert "Bytes-on-wire reduction from the v3 format" in output

    def test_federation_service(self):
        output = run_example("federation_service.py")
        assert "Genentech, CEO Bob Swanson" in output  # the paper's Table 9
        assert "IBM (origins ['AD', 'PD'])" in output  # streamed with tags
        assert "executed by ['serial']" in output  # per-session override
        assert "3 submitted, 3 completed, 0 failed" in output
        assert "worker thread(s)" in output
