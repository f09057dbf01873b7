"""Calibration properties.

The fitting math behind :class:`~repro.lqp.cost.CalibratedCostModel` must
*recover* the model that generated its evidence: a trace whose timings obey
a known :class:`~repro.lqp.cost.LatencyLQP` cost model ``(per_query,
per_tuple)`` — the wall-clock realization the runtime bench measures —
must fit back to those parameters within tolerance.  Hypothesis drives the
parameters and the observed cardinalities; traces are synthesized exactly
(no sleeping) so the property runs thousands of cases in milliseconds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lqp.cost import CalibratedCostModel
from repro.pqp.calibrate import CostCalibrator
from repro.pqp.executor import ExecutionTrace, RowTiming
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)

per_queries = st.floats(1e-4, 0.5, allow_nan=False, allow_infinity=False)
per_tuples = st.floats(0.0, 0.01, allow_nan=False, allow_infinity=False)
cardinality_runs = st.lists(
    st.integers(min_value=1, max_value=5000), min_size=2, max_size=12, unique=True
)


class _Sized:
    def __init__(self, cardinality):
        self.cardinality = cardinality


def _single_retrieve_plan():
    return IntermediateOperationMatrix(
        [
            MatrixRow(
                ResultOperand(1),
                Operation.RETRIEVE,
                LocalOperand("ORG"),
                el="DB",
                scheme="G",
            )
        ]
    )


def _trace(iom, cardinality, duration):
    return ExecutionTrace(
        _Sized(cardinality),
        {1: _Sized(cardinality)},
        {},
        {1: RowTiming(start=0.0, finish=duration, location="DB")},
    )


@settings(max_examples=200, deadline=None)
@given(per_query=per_queries, per_tuple=per_tuples, cards=cardinality_runs)
def test_fit_recovers_generating_parameters(per_query, per_tuple, cards):
    """Exact least-squares recovery from noiseless linear observations."""
    samples = [(t, per_query + per_tuple * t) for t in cards]
    model = CalibratedCostModel.fit(samples)
    assert model.per_query == pytest.approx(per_query, rel=1e-6, abs=1e-7)
    assert model.per_tuple == pytest.approx(per_tuple, rel=1e-6, abs=1e-9)
    assert model.observations == len(cards)


@settings(max_examples=100, deadline=None)
@given(per_query=per_queries, per_tuple=per_tuples, cards=cardinality_runs)
def test_calibrator_recovers_latency_lqp_model(per_query, per_tuple, cards):
    """End-to-end through :class:`CostCalibrator`: traces generated by a
    known LatencyLQP-style delay model fit back to its parameters."""
    calibrator = CostCalibrator()
    iom = _single_retrieve_plan()
    for cardinality in cards:
        duration = per_query + per_tuple * cardinality
        calibrator.observe(iom, _trace(iom, cardinality, duration))
    model = calibrator.model_for("DB")
    assert model is not None
    assert model.per_query == pytest.approx(per_query, rel=1e-6, abs=1e-7)
    assert model.per_tuple == pytest.approx(per_tuple, rel=1e-6, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    per_query=per_queries,
    per_tuple=per_tuples,
    cards=cardinality_runs,
    noise=st.floats(0.0, 0.2),
)
def test_fit_is_robust_to_bounded_noise(per_query, per_tuple, cards, noise):
    """Multiplicative timing noise perturbs the fit proportionally, never
    catastrophically (and never below zero)."""
    samples = [
        (t, (per_query + per_tuple * t) * (1.0 + noise * (-1) ** position))
        for position, t in enumerate(cards)
    ]
    model = CalibratedCostModel.fit(samples)
    assert model.per_query >= 0.0
    assert model.per_tuple >= 0.0
    ceiling = max(per_query + per_tuple * t for t in cards) * (1.0 + noise)
    assert model.per_query <= ceiling + 1e-9


# -- running sums against the least-squares oracle ---------------------------
#
# The calibrator refits from running sums kept per window (O(1) per
# database); ``CalibratedCostModel.fit`` over the window's samples is the
# oracle.  Windows are small so most cases evict, and long runs cross the
# periodic exact re-summation.

seconds = st.floats(
    0.0, 0.5, allow_nan=False, allow_infinity=False, allow_subnormal=False
)
generic_runs = st.lists(
    st.tuples(st.integers(0, 5000), seconds), min_size=1, max_size=40
)
single_count_runs = st.integers(0, 5000).flatmap(
    lambda t: st.lists(st.tuples(st.just(t), seconds), min_size=1, max_size=40)
)
#: Slower for more tuples: the fit clamps the slope at zero.
negative_slope_runs = st.lists(
    st.integers(0, 5000), min_size=2, max_size=40, unique=True
).map(lambda cards: [(t, 0.5 - 1e-4 * t) for t in cards])
#: A line through a negative intercept: the fit refits through the origin.
negative_intercept_runs = st.lists(
    st.integers(100, 5000), min_size=2, max_size=40, unique=True
).map(lambda cards: [(t, 1e-4 * t - 0.005) for t in cards])
observation_runs = st.one_of(
    generic_runs, single_count_runs, negative_slope_runs, negative_intercept_runs
)
windows = st.integers(2, 12)


def _two_row_plan():
    """A local Retrieve feeding one PQP row, so both windows fill."""
    return IntermediateOperationMatrix(
        [
            MatrixRow(
                ResultOperand(1), Operation.RETRIEVE, LocalOperand("ORG"),
                el="DB", scheme="G",
            ),
            MatrixRow(
                ResultOperand(2), Operation.PROJECT, ResultOperand(1),
                lha=("NAME",), el="PQP",
            ),
        ]
    )


def _two_row_trace(cardinality, duration):
    return ExecutionTrace(
        _Sized(cardinality),
        {1: _Sized(cardinality), 2: _Sized(cardinality)},
        {},
        {
            1: RowTiming(start=0.0, finish=duration, location="DB"),
            2: RowTiming(start=0.0, finish=duration / 2, location="PQP"),
        },
    )


def _assert_matches_oracle(calibrator, window, observations):
    recent = tuple(observations[-window:])
    oracle = CalibratedCostModel.fit(recent)
    model = calibrator.model_for("DB")
    assert model.observations == oracle.observations == len(recent)
    assert model.per_query == pytest.approx(oracle.per_query, rel=1e-6, abs=1e-9)
    assert model.per_tuple == pytest.approx(oracle.per_tuple, rel=1e-6, abs=1e-12)
    # Compared squared: a square root turns the sums' last-bit rounding on
    # a perfect fit (mean square ~1e-17 s²) into a visible ~1e-9 s.
    assert model.residual**2 == pytest.approx(oracle.residual**2, rel=1e-6, abs=1e-13)


def _oracle_pqp_rate(recent):
    work = sum(t * t for t, _ in recent)
    return sum(t * d for t, d in recent) / work if work else 0.0


@settings(max_examples=300, deadline=None)
@given(window=windows, observations=observation_runs)
def test_running_sums_match_the_refit_oracle(window, observations):
    calibrator = CostCalibrator(window=window)
    iom = _two_row_plan()
    for cardinality, duration in observations:
        calibrator.observe(iom, _two_row_trace(cardinality, duration))
    _assert_matches_oracle(calibrator, window, observations)
    recent = [(t, d / 2) for t, d in observations[-window:]]
    assert calibrator.pqp_cost_per_tuple() == pytest.approx(
        _oracle_pqp_rate(recent), rel=1e-6, abs=1e-12
    )
