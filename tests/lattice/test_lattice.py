"""Every configuration of the lattice answers as the oracle does: the same
heading, lineage and rows, tags included, or the same type of error.

See :mod:`tests.lattice.harness` for the axes, the two federations and
the oracle.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.lattice.harness import (
    AXES,
    LATTICE,
    check,
    generated_data,
    generated_dataset,
    paper_dataset,
    paper_queries,
)


def test_the_lattice_covers_every_pair_of_axis_values():
    for a, b in combinations(AXES, 2):
        held = {(getattr(c, a), getattr(c, b)) for c in LATTICE}
        missing = {(x, y) for x in AXES[a] for y in AXES[b]} - held
        assert not missing, f"no configuration holds {a} x {b} = {sorted(map(str, missing))}"


@pytest.mark.parametrize("config", LATTICE, ids=str)
@settings(max_examples=2, deadline=None)
@given(
    queries=st.lists(paper_queries(), min_size=1, max_size=2, unique=True),
    generated=generated_data(),
    chunk_size=st.integers(min_value=1, max_value=2),
)
def test_every_configuration_answers_as_the_oracle(config, queries, generated, chunk_size):
    check(config, paper_dataset(queries), chunk_size)
    check(config, generated_dataset(config.kinds(3), **generated), chunk_size)
