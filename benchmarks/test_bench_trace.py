"""Tracing-overhead benchmark: what does an ambient span cost a scan?

Row and chunk spans throughout the PQP/LQP pipeline are created only when
a coordinator span is ambient (``current_span()``); with nobody looking
the tracing machinery must stay off the hot path entirely.  This bench
scans a ~100k-tuple synthetic federation through the full PQP pipeline
in ``REPEATS`` pairs — bare, and under a root span, the order alternating
from pair to pair — and asserts that the median of the per-pair ratios
puts the traced run under 5% extra wall-clock.  A scan takes ~50 ms, so
a pair's ratio is noisy; many pairs keep the median robust to scheduler
noise.

``test_traced_scan_overhead_under_5_percent`` fails outright on a breach,
and also holds the best traced scan within an absolute 8 s budget.
"""

import time

from repro.datasets.generators import FederationSpec, generate_federation
from repro.obs.trace import Tracer, current_span
from repro.pqp.executor import Executor

REPEATS = 31  # odd: the median is one pair's ratio
OVERHEAD_BUDGET = 0.05  # traced may cost at most 5% over untraced

# 3 databases x 55k-organization universe at 62% coverage ~= 102k tuples
# retrieved and merged per scan.
SPEC = FederationSpec(
    databases=3,
    organizations=55_000,
    coverage=0.62,
    people_per_database=10,
    seed=7,
)

SCAN = "GORGANIZATION [NAME, INDUSTRY, HEADQUARTERS]"


def _timed(callable_):
    began = time.perf_counter()
    result = callable_()
    return time.perf_counter() - began, result


def test_traced_scan_overhead_under_5_percent():
    federation = generate_federation(SPEC)
    pqp = federation.processor()

    scanned = sum(
        database.relation("ORG").cardinality
        for database in federation.databases.values()
    )
    assert scanned > 100_000  # tuples retrieved per scan, pre-merge

    # Run the plan through a bare Executor: row/chunk spans there hinge on
    # an ambient span, which is exactly the machinery whose cost this
    # bench guards.  (The federation facade always traces its own root.)
    _, pom = pqp.analyze(SCAN)
    iom, _ = pqp.optimize(pqp.plan(pom))
    executor = Executor(federation.schema, federation.registry())

    expected_tuples = len(executor.execute(iom).relation)  # warm every cache

    def untraced():
        assert current_span() is None
        return executor.execute(iom)

    def traced():
        tracer = Tracer("bench")  # fresh book per run: no accumulation
        with tracer.span("query") as root:
            result = executor.execute(iom)
        return result, root

    # Paired runs, order alternated each round, judged by the *median*
    # per-pair ratio: machine drift (turbo, background load) moves both
    # sides of a pair together and outlier rounds drop out of the median,
    # so the statistic isolates the tracing cost itself.
    ratios, bare_times, traced_times = [], [], []
    for round_ in range(REPEATS):
        if round_ % 2 == 0:
            bare_s, result = _timed(untraced)
            traced_s, (traced_result, root) = _timed(traced)
        else:
            traced_s, (traced_result, root) = _timed(traced)
            bare_s, result = _timed(untraced)
        assert len(result.relation) == expected_tuples
        assert len(traced_result.relation) == expected_tuples
        # The span actually captured the scan: row spans joined the trace.
        assert any(
            span.name.startswith("row ") for span in root.trace_spans()
        )
        ratios.append(traced_s / bare_s)
        bare_times.append(bare_s)
        traced_times.append(traced_s)

    ratios.sort()
    bare, with_trace = min(bare_times), min(traced_times)
    overhead = ratios[len(ratios) // 2] - 1.0
    assert overhead < OVERHEAD_BUDGET, (
        f"tracing cost {overhead:.1%} on a {expected_tuples}-tuple scan "
        f"(budget {OVERHEAD_BUDGET:.0%}): {bare:.4f}s -> {with_trace:.4f}s"
    )
    assert with_trace <= 8.0
