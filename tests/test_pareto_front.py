"""pareto_front must keep what sequential Pareto insertion kept.

The run archive, SAG's front and the test front were once decided by
inserting models one by one into a mutually nondominated list
(`sequential_insert` below, as canonsr shipped it, then sorted by
complexity).  pareto_front takes the first front of the nondominated sort
instead.  Exports stay byte-identical only if both keep the same models in
the same order, so the objective values come from a small pool with repeats,
both signed zeros and +inf.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from canonsr.evolve import ParetoArchive, dominates, pareto_front
from canonsr.expr import Model


def sequential_insert(models, objective):
    kept = []
    for candidate in models:
        obj = objective(candidate)
        survivors = []
        for m in kept:
            other = objective(m)
            if other == obj or dominates(other, obj):
                break                       # refused: the first model wins
            if not dominates(obj, other):
                survivors.append(m)
        else:
            kept = survivors + [candidate]
    return sorted(kept, key=lambda m: m.complexity)


_pool = st.sampled_from([0.0, -0.0, 1.0, 2.5, 2.5000000000000004, 7.0, math.inf])
_models = st.lists(
    st.builds(lambda e, t, c, valid: Model(train_error=e, test_error=t, complexity=c,
                                           valid=valid),
              _pool, _pool, _pool, st.booleans()),
    max_size=40)


def _train_objective(m):
    return (m.train_error, m.complexity)


def _test_objective(m):
    return (m.test_error, m.complexity)


def _ids(models):
    return [id(m) for m in models]


@settings(max_examples=300, deadline=None)
@given(_models)
def test_front_is_sequential_insertion_sorted_by_complexity(models):
    assert _ids(pareto_front(models)) == _ids(sequential_insert(models, _train_objective))
    assert _ids(pareto_front(models, _test_objective)) == _ids(
        sequential_insert(models, _test_objective))


@settings(max_examples=200, deadline=None)
@given(st.lists(_models, max_size=6))
def test_archive_merged_batch_by_batch_equals_one_merge(batches):
    one_by_one, at_once = ParetoArchive(), ParetoArchive()
    for batch in batches:
        one_by_one.merge(batch)
    every = [m for batch in batches for m in batch]
    at_once.merge(every)
    assert _ids(one_by_one.models) == _ids(at_once.models)
    usable = [m for m in every if m.valid and math.isfinite(m.train_error)]
    assert _ids(at_once.models) == _ids(sequential_insert(usable, _train_objective))
