"""nondominated_sort must return the classic peeling loop's fronts, in order.

The order of indices inside each front feeds the stable crowding-distance
tie-breaks of NSGA-II selection, so a sort that found the same fronts in a
different order would still change the search.  The oracle below is the
all-pairs peeling algorithm (Deb et al. 2002) as canonsr first shipped it.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from canonsr.evolve import dominates, nondominated_sort


def peeling_oracle(points):
    n = len(points)
    dominated_by = [[] for _ in range(n)]
    dom_count = [0] * n
    fronts = [[]]
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if dominates(points[p], points[q]):
                dominated_by[p].append(q)
            elif dominates(points[q], points[p]):
                dom_count[p] += 1
        if dom_count[p] == 0:
            fronts[0].append(p)
    i = 0
    while fronts[i]:
        nxt = []
        for p in fronts[i]:
            for q in dominated_by[p]:
                dom_count[q] -= 1
                if dom_count[q] == 0:
                    nxt.append(q)
        fronts.append(nxt)
        i += 1
    fronts.pop()
    return fronts


def _points(values, max_size=120):
    return st.lists(st.tuples(values, values), max_size=max_size)


_tie_heavy = st.integers(0, 5).map(float)
_floats = st.floats(-1e6, 1e6, allow_nan=False)
_with_inf = st.one_of(st.integers(0, 6).map(float), st.just(math.inf))


@settings(max_examples=200, deadline=None)
@given(_points(_tie_heavy))
def test_same_order_on_tie_heavy_points(points):
    assert nondominated_sort(points) == peeling_oracle(points)


@settings(max_examples=200, deadline=None)
@given(_points(_floats))
def test_same_order_on_float_points(points):
    assert nondominated_sort(points) == peeling_oracle(points)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_with_inf, _tie_heavy), max_size=120))
def test_same_order_with_infinite_errors(points):
    assert nondominated_sort(points) == peeling_oracle(points)


@settings(max_examples=50, deadline=None)
@given(st.tuples(_floats, _floats), st.integers(1, 60))
def test_identical_points_share_front_zero(point, n):
    points = [point] * n
    assert nondominated_sort(points) == peeling_oracle(points) == [list(range(n))]


def test_empty_and_single_point():
    assert nondominated_sort([]) == peeling_oracle([]) == []
    assert nondominated_sort([(1.0, 2.0)]) == peeling_oracle([(1.0, 2.0)]) == [[0]]
