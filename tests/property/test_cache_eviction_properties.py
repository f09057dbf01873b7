"""GreedyDual eviction properties of the semantic result cache.

The federation weighs each entry by its subtree's measured recompute
time, and :class:`~repro.service.cache.ResultCache` evicts by GreedyDual
on that weight.  Hypothesis drives random interleavings of fills, whole
query hits, splice hits and invalidations against a small capacity, and
checks the cache against a plain-list reference model of GreedyDual
(priority ``clock + cost``; evict the lowest, oldest first among ties; the
clock advances to the evicted priority; a hit re-prices to ``clock +
cost``) together with the algorithm's invariants.  Costs are small
integers, so priorities are exact and ties really happen.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.relation import Relation
from repro.service.cache import ResultCache

KEYS = [f"k{i}" for i in range(6)]


def _sources(key):
    return {"AD"} if int(key[1:]) % 2 == 0 else {"CD"}


operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 12)),
        st.tuples(st.just("lookup"), st.sampled_from(KEYS)),
        st.tuples(st.just("splice"), st.sampled_from(KEYS)),
        st.tuples(st.just("invalidate"), st.sampled_from(["AD", "CD"])),
    ),
    max_size=60,
)
capacities = st.integers(min_value=1, max_value=4)


class _GreedyDualModel:
    """Reference GreedyDual: a list of ``[key, cost, priority]`` in fill order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.clock = 0.0
        self.evicted = []

    def _find(self, key):
        return next((entry for entry in self.entries if entry[0] == key), None)

    def put(self, key, cost):
        self.entries = [entry for entry in self.entries if entry[0] != key]
        self.entries.append([key, cost, self.clock + cost])
        while len(self.entries) > self.capacity:
            victim = min(self.entries, key=lambda entry: entry[2])
            self.entries.remove(victim)
            self.clock = max(self.clock, victim[2])
            self.evicted.append(victim[0])

    def touch(self, key):
        entry = self._find(key)
        if entry is not None:
            entry[2] = self.clock + entry[1]
        return entry is not None

    def invalidate(self, database):
        self.entries = [e for e in self.entries if database not in _sources(e[0])]


def _apply(cache, op):
    kind = op[0]
    if kind == "put":
        _, key, cost = op
        return cache.put(key, Relation(["A"], [(1,)]), {}, _sources(key), cost=float(cost))
    if kind == "lookup":
        return cache.lookup(op[1]) is not None
    if kind == "splice":
        return cache.splice_probe(op[1]) is not None
    return cache.invalidate(op[1])


@settings(max_examples=200, deadline=None)
@given(capacity=capacities, ops=operations)
def test_cache_matches_the_greedy_dual_reference(capacity, ops):
    cache = ResultCache(max_entries=capacity)
    model = _GreedyDualModel(capacity)
    for op in ops:
        outcome = _apply(cache, op)
        if op[0] == "put":
            model.put(op[1], float(op[2]))
            assert outcome == (model._find(op[1]) is not None)
        elif op[0] == "invalidate":
            model.invalidate(op[1])
        else:
            assert outcome == model.touch(op[1])
        assert {fp: e.priority for fp, e in cache._entries.items()} == {
            key: priority for key, _, priority in model.entries
        }
        assert cache._clock == model.clock
    assert cache.stats().evictions == len(model.evicted)


@settings(max_examples=200, deadline=None)
@given(capacity=capacities, ops=operations)
def test_clock_is_monotone_and_no_priority_falls_below_it(capacity, ops):
    cache = ResultCache(max_entries=capacity)
    clock = cache._clock
    for op in ops:
        _apply(cache, op)
        assert cache._clock >= clock
        clock = cache._clock
        assert len(cache) <= capacity
        for entry in cache._entries.values():
            assert clock <= entry.priority <= clock + entry.cost


@settings(max_examples=200, deadline=None)
@given(capacity=capacities, ops=operations)
def test_every_victim_had_the_lowest_priority(capacity, ops):
    cache = ResultCache(max_entries=capacity)
    for op in ops:
        before = {fp: e.priority for fp, e in cache._entries.items()}
        clock, evictions = cache._clock, cache.stats().evictions
        _apply(cache, op)
        if cache.stats().evictions == evictions:
            continue
        assert op[0] == "put" and cache.stats().evictions == evictions + 1
        survivors = {fp: e.priority for fp, e in cache._entries.items()}
        (victim,) = (set(before) | {op[1]}) - set(survivors)
        # A fill is priced at the clock it arrived at; everyone else kept
        # the priority they had.
        priority = clock + op[2] if victim == op[1] else before[victim]
        assert all(survivor >= priority for survivor in survivors.values())
        assert cache._clock == max(clock, priority)
