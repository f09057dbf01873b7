"""Unit tests for the tag-interning pool."""

import pytest

from repro.core.predicate import Literal, Theta
from repro.core.relation import PolygenRelation
from repro.core import algebra
from repro.core.tags import sources
from repro.storage.tag_pool import GLOBAL_TAG_POOL, TagPool


def test_empty_pair_preinterned():
    pool = TagPool()
    assert pool.EMPTY_ID == 0
    assert pool.pair(0) == (frozenset(), frozenset())
    assert pool.intern(frozenset(), frozenset()) == 0


def test_same_pair_same_id():
    pool = TagPool()
    a = pool.intern(sources("AD"), sources("PD"))
    b = pool.intern(sources("AD"), sources("PD"))
    assert a == b
    assert len(pool) == 2  # empty pair + this one


def test_distinct_pairs_distinct_ids():
    pool = TagPool()
    a = pool.intern(sources("AD"), frozenset())
    b = pool.intern(frozenset(), sources("AD"))
    assert a != b
    assert pool.origins(a) == sources("AD")
    assert pool.intermediates(a) == frozenset()
    assert pool.origins(b) == frozenset()
    assert pool.intermediates(b) == sources("AD")


def test_merge_is_componentwise_union_and_memoized():
    pool = TagPool()
    a = pool.intern(sources("AD"), sources("PD"))
    b = pool.intern(sources("CD"), frozenset())
    merged = pool.merge(a, b)
    assert pool.pair(merged) == (sources("AD", "CD"), sources("PD"))
    # Commutative and stable.
    assert pool.merge(b, a) == merged
    assert pool.merge(a, a) == a


def test_add_intermediates_noop_cases():
    pool = TagPool()
    a = pool.intern(sources("AD"), sources("PD"))
    assert pool.add_intermediates(a, frozenset()) == a
    assert pool.add_intermediates(a, sources("PD")) == a
    grown = pool.add_intermediates(a, sources("CD"))
    assert pool.pair(grown) == (sources("AD"), sources("PD", "CD"))


def test_absorb_matches_prefer_policy_rule():
    pool = TagPool()
    winner = pool.intern(sources("AD"), sources("PD"))
    loser = pool.intern(sources("CD"), sources("BD"))
    absorbed = pool.absorb(winner, loser)
    assert pool.pair(absorbed) == (sources("AD"), sources("PD", "BD", "CD"))


def test_pool_survives_operator_chains():
    """A chain of algebra operators keeps every relation on the global pool
    and re-interns nothing: the same logical pair always has the same id."""
    r = PolygenRelation.from_data(
        ["A", "B"], [["x", 1], ["y", 2], ["x", 3]], origins=["AD"]
    )
    s = PolygenRelation.from_data(["A", "B"], [["x", 1], ["z", 9]], origins=["PD"])
    out = algebra.project(
        algebra.union(algebra.restrict(r, "B", Theta.GE, Literal(0)), s), ["A"]
    )
    assert out.store.pool is GLOBAL_TAG_POOL
    assert r.store.pool is out.store.pool
    tagged_id = GLOBAL_TAG_POOL.intern(sources("AD"), frozenset())
    assert GLOBAL_TAG_POOL.intern(sources("AD"), frozenset()) == tagged_id
    # The base relation stores that id once per cell, by reference.
    assert set(r.store.tags[0]) == {tagged_id}


def test_relation_stores_share_interned_ids():
    """The extremely common tag ``({AD}, {})`` occupies one pool slot no
    matter how many relations or cells carry it."""
    before = len(GLOBAL_TAG_POOL)
    relations = [
        PolygenRelation.from_data(["A"], [[f"v{i}{j}"] for j in range(50)], origins=["XQ"])
        for i in range(10)
    ]
    after = len(GLOBAL_TAG_POOL)
    # At most one new pair (({XQ}, {})) regardless of 500 cells.
    assert after - before <= 1
    first = relations[0].store.tags[0][0]
    assert all(rel.store.tags[0][0] == first for rel in relations)


def test_translated_moves_ids_between_pools():
    private = TagPool()
    r = PolygenRelation.from_data(["A"], [["x"]], origins=["AD"])
    moved = r.store.translated(private)
    assert moved.pool is private
    assert moved.to_tuples() == r.store.to_tuples()
    assert r.store.translated(r.store.pool) is r.store


def test_pool_repr_and_contains():
    pool = TagPool()
    pair = (sources("AD"), frozenset())
    assert pair not in pool
    pool.intern(*pair)
    assert pair in pool
    assert "TagPool" in repr(pool)


@pytest.mark.parametrize("n", [1, 7])
def test_ids_are_dense_and_stable(n):
    pool = TagPool()
    ids = [pool.intern(frozenset({f"S{i}"}), frozenset()) for i in range(n)]
    assert ids == list(range(1, n + 1))
    # Re-interning changes nothing.
    assert [pool.intern(frozenset({f"S{i}"}), frozenset()) for i in range(n)] == ids


def test_concurrent_interning_is_consistent():
    """The concurrent runtime interns from per-database worker threads;
    racing allocations must never hand two pairs the same id (or one pair
    two ids)."""
    import threading

    pool = TagPool()
    pairs = [
        (frozenset({f"D{i:02d}"}), frozenset(sample))
        for i in range(40)
        for sample in ((), ("AD",), ("AD", "PD"))
    ]
    results: dict = {}
    barrier = threading.Barrier(8)

    def worker(worker_id: int) -> None:
        barrier.wait()
        local = {}
        for pair in pairs:
            local[pair] = pool.intern(*pair)
        results[worker_id] = local

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    reference = results[0]
    for worker_id, local in results.items():
        assert local == reference, f"worker {worker_id} saw different ids"
    for pair, tag_id in reference.items():
        assert pool.pair(tag_id) == pair
    assert len(pool) == len(pairs) + 1  # plus the preinterned empty pair
