"""Self-check of the end-to-end benchmark (opt-in, like all of ``benchmarks/``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selfcheck.py -q

Runs every workload in ``--smoke`` mode (1 s each, both passes) and checks
that the benchmark emits exactly what ``BENCHMARK.json`` declares, that
its inputs are a function of the seed alone, and that the counts it calls
exact really repeat.  Takes about two minutes.
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import check
import compare
from tracing import Recorder, Shims
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((HERE / "metrics.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Counts that must repeat exactly across two traced runs of one seed.
#: ``cache_churn`` runs at the cache's entry bound, and which entry the
#: cache evicts follows *measured* recompute cost: what is resident, hence
#: its evictions, splices and shipped tuples, differs by a few from run to
#: run.  Whole-query hits (a shape repeated between two writes) do not.
EXACT = {
    "scan_remote": ("lqp.tuples_shipped_per_query", "net.bytes_per_tuple"),
    "join_equi": ("lqp.tuples_shipped_per_query", "kernels.join_pairs_per_result"),
    "cache_churn": ("cache.hit_fraction",),
}


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    completed = _run("--smoke", "--out", str(out))
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-4000:]
    return json.loads(out.read_text())


def test_oracle_flags_dropped_tag_and_stale_row():
    check.self_test()


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_declared_metric_and_workload_is_emitted_and_nothing_else(smoke):
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    seen = set()
    for run in smoke["runs"]:
        seen.add((run["workload"], run["trace"]))
        assert run["correct"] and run["failed"] == 0, run["detail"]
        assert run["detail"]["stale_reads"] == 0
        units = {name: metric["unit"] for name, metric in run["metrics"].items()}
        assert units == declared[run["trace"]]
        if run["trace"] == 0:
            assert all(metric["value"] > 0 for metric in run["metrics"].values())
    assert seen == {(name, trace) for name in WORKLOADS for trace in (0, 1)}
    environment = smoke["environment"]
    assert {"nproc", "python", "git_sha", "loadavg_start", "loadavg_end"} <= set(environment)


def test_metrics_json_annotates_every_metric():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert end_to_end <= set(NOTES["end_to_end"])
    for name, note in NOTES["end_to_end"].items():
        assert set(note["workloads"]) <= set(WORKLOADS) and note["workloads"], name
        if name not in end_to_end:  # what BENCHMARK.json cannot hold is whole here
            assert {"unit", "better", "bound", "not_in_BENCHMARK.json"} <= set(note), name
    assert list(NOTES["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, note in NOTES["per_layer"].items():
        assert note["layer"], name
        for move in note["moves"]:
            assert move["metric"] in NOTES["end_to_end"], name
            assert move["workload"] in NOTES["end_to_end"][move["metric"]]["workloads"], name
        assert set(note["flat_on"]) <= set(WORKLOADS), name


def test_a_slower_host_reports_the_same_times():
    """Blocks that take twice the CPU time between yardsticks that take
    twice as long are the same blocks on a host at half the speed."""
    sys.path.insert(0, str(ROOT / "src"))
    from harness import YARDSTICK_REFERENCE_S, Mark, Phase, block_means

    def run(slowness: float) -> dict:
        marks, clock = [], 0.0
        for block in range(6):
            ended = clock
            clock += 0.5  # the yardstick and the wait at the barrier
            marks.append(
                Mark(ended, ended, 1000 * block, YARDSTICK_REFERENCE_S * slowness, clock, clock)
            )
            clock += 0.2 * slowness
        phase = Phase(latencies=[0.05 * slowness] * 20, first_batches=[0.01 * slowness] * 20)
        phase.block_samples = [0, 4, 8, 12, 16, 20]
        return block_means([phase], marks, 4)

    reference = run(1.0)
    assert reference["queries_per_s"] == pytest.approx(4 / 0.2)
    assert reference["tuples_per_s"] == pytest.approx(1000 / 0.2)
    assert reference["query_ms"] == pytest.approx(50.0)
    assert run(2.0) == pytest.approx(reference)


def test_cache_churn_reaches_the_entry_bound(smoke):
    run = next(r for r in smoke["runs"] if r["workload"] == "cache_churn" and r["trace"] == 1)
    assert run["metrics"]["cache.evictions"]["value"] > 0


def test_compare_fails_on_a_missing_workload_and_on_a_failed_op(smoke, tmp_path):
    def compared(mutate) -> int:
        other = json.loads(json.dumps(smoke))
        mutate(other["runs"])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(smoke))
        b.write_text(json.dumps(other))
        return compare.main([str(a), str(b)])

    def crash(runs):  # what run.py records for a child that died
        for run in runs:
            if run["workload"] == "join_equi":
                run.update(correct=False, attempted=1, failed=1, metrics={})

    def fail_one(runs):
        next(r for r in runs if r["workload"] == "small_sql" and r["trace"] == 0)["failed"] = 1

    assert compared(lambda runs: None) == 0
    assert compared(crash) == 1
    assert compared(fail_one) == 1


def test_a_function_that_moved_is_skipped_not_fatal(monkeypatch):
    import tracing

    monkeypatch.setattr(
        tracing, "_SHIM_TARGETS",
        tracing._SHIM_TARGETS + (("repro.no_such_module", None, "gone", "gone", None),),
    )
    shims = Shims(Recorder())
    shims.install()
    try:
        assert shims.missing == ["repro.no_such_module.gone"]
    finally:
        shims.remove()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_op_sequence(name):
    workload = WORKLOADS[name]

    def prefix(seed, client):
        dataset = workload.dataset(seed)
        return list(itertools.islice(workload.client_ops(seed, client, dataset), 200))

    assert prefix(7, 0) == prefix(7, 0)
    if name not in ("scan_local", "scan_remote", "join_equi"):  # one query, one order
        assert prefix(7, 0) != prefix(8, 0)
    if workload.clients > 1:
        assert prefix(7, 0) != prefix(7, 1)


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_counts_repeat(smoke, name):
    first = next(r for r in smoke["runs"] if r["workload"] == name and r["trace"] == 1)
    again = _run("--workload", name, "--seed", str(smoke["seed"]), "--seconds", "1", "--trace", "1")
    assert again.returncode == 0, again.stdout[-4000:] + again.stderr[-4000:]
    second = json.loads(again.stdout.splitlines()[-1])
    for metric in EXACT[name]:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric


def test_no_sleeps_or_injected_latency():
    banned = ("time." + "sleep", "Latency" + "LQP")  # spelled so this file passes too
    for path in HERE.iterdir():
        if path.is_file():
            text = path.read_text()
            assert not any(word in text for word in banned), path.name
