"""Property tests for the sorted-set intersection kernels.

``intersect_slices`` must agree with naive set intersection for every
kernel it dispatches to (linear merge, galloping, leapfrog k-way), and
``range_bounds`` must narrow a sorted slice to exactly the requested
``[lower, upper)`` window.  Both must meter their work into
``Metrics.intersect_comparisons`` / ``Metrics.gallop_steps``.  The
two-slice merge computes its comparison count in closed form; it is
checked against a two-pointer loop kept in this file.
"""

from __future__ import annotations

from array import array

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.intersect import (
    GALLOP_CROSSOVER,
    intersect_slices,
    range_bounds,
)
from repro.runtime.metrics import Metrics


def _sorted_unique(draw_list):
    return sorted(set(draw_list))


sorted_arrays = st.lists(
    st.integers(min_value=0, max_value=200), max_size=60
).map(_sorted_unique)


def _slice(arr):
    return (arr, 0, len(arr))


class TestIntersectSlices:
    @given(st.lists(sorted_arrays, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_set_intersection(self, arrays):
        metrics = Metrics()
        result = intersect_slices([_slice(a) for a in arrays], metrics)
        expected = set(arrays[0])
        for a in arrays[1:]:
            expected &= set(a)
        assert result == sorted(expected)

    @given(sorted_arrays, sorted_arrays)
    @settings(max_examples=60, deadline=None)
    def test_two_way(self, a, b):
        metrics = Metrics()
        result = intersect_slices([_slice(a), _slice(b)], metrics)
        assert result == sorted(set(a) & set(b))

    def test_gallop_path_taken_when_skewed(self):
        small = [10, 500, 900]
        big = list(range(1000))
        assert len(big) >= GALLOP_CROSSOVER * len(small)
        metrics = Metrics()
        result = intersect_slices([_slice(small), _slice(big)], metrics)
        assert result == [10, 500, 900]
        # Galloping does binary-search work, not per-element merging.
        assert metrics.gallop_steps > 0
        assert metrics.intersect_comparisons == 0

    def test_merge_path_taken_when_balanced(self):
        a = [1, 3, 5, 7, 9]
        b = [2, 3, 6, 7, 10]
        metrics = Metrics()
        result = intersect_slices([_slice(a), _slice(b)], metrics)
        assert result == [3, 7]
        assert metrics.intersect_comparisons > 0
        assert metrics.gallop_steps == 0

    def test_leapfrog_path_taken_for_three_slices(self):
        a = [1, 2, 3, 4, 5]
        b = [2, 4, 5, 9]
        c = [0, 2, 5, 11]
        metrics = Metrics()
        result = intersect_slices([_slice(a), _slice(b), _slice(c)], metrics)
        assert result == [2, 5]
        assert metrics.gallop_steps > 0

    def test_empty_slice_short_circuits(self):
        metrics = Metrics()
        assert intersect_slices([_slice([]), _slice([1, 2])], metrics) == []
        assert metrics.intersect_comparisons == 0
        assert metrics.gallop_steps == 0

    def test_single_slice_copies(self):
        metrics = Metrics()
        arr = [4, 8, 15]
        result = intersect_slices([_slice(arr)], metrics)
        assert result == arr
        assert result is not arr  # callers may mutate the result

    @given(st.lists(sorted_arrays, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_subslices_respected(self, arrays):
        # Intersection over interior [lo, hi) windows, as the enumerator
        # passes them from the labeled-adjacency index.
        metrics = Metrics()
        slices = []
        windows = []
        for arr in arrays:
            lo = min(1, len(arr))
            hi = max(lo, len(arr) - 1)
            slices.append((arr, lo, hi))
            windows.append(set(arr[lo:hi]))
        result = intersect_slices(slices, metrics)
        expected = windows[0]
        for w in windows[1:]:
            expected &= w
        assert result == sorted(expected)


def _reference_merge(a, alo, ahi, b, blo, bhi):
    """The two-pointer merge: ``(members, loop iterations)``."""
    out = []
    comparisons = 0
    i, j = alo, blo
    while i < ahi and j < bhi:
        comparisons += 1
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out, comparisons


def _as_array(values):
    return array("q", values)


def _as_memoryview(values):
    # What a graph attached to a shared-memory segment hands out.
    return memoryview(array("q", values))


@st.composite
def slice_pairs(draw):
    """Two sorted slices ``(arr, lo, hi)`` in one of the tricky shapes."""
    shape = draw(
        st.sampled_from(
            ["random", "equal-last", "disjoint", "one-element", "empty-side"]
        )
    )
    values = st.integers(min_value=0, max_value=120)
    a = sorted(draw(st.sets(values, max_size=40)))
    b = sorted(draw(st.sets(values, max_size=40)))
    if shape == "equal-last" and a and b:
        last = max(a[-1], b[-1])
        a = sorted(set(a) | {last})
        b = sorted(set(b) | {last})
    elif shape == "disjoint":
        b = [x + 200 for x in b]
        if draw(st.booleans()):
            a, b = b, a
    elif shape == "one-element":
        a = a[:1] or [draw(values)]
    elif shape == "empty-side":
        a = []
    # Embed each slice in a longer array so that lo > 0 and hi < len.
    slices = []
    for members in (a, b):
        before = draw(st.integers(min_value=0, max_value=3))
        after = draw(st.integers(min_value=0, max_value=3))
        padded = list(range(-before, 0)) + members + [1000 + k for k in range(after)]
        storage = draw(st.sampled_from([list, _as_array, _as_memoryview]))
        slices.append((storage(padded), before, before + len(members)))
    if draw(st.booleans()):
        slices.reverse()
    return slices


class TestMergeMetering:
    """The closed-form comparison count equals the loop it replaced."""

    @given(slice_pairs())
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_two_pointer_loop(self, slices):
        # A crossover no size ratio reaches: always the merge.
        metrics = Metrics()
        result = intersect_slices(list(slices), metrics, crossover=10**9)
        (a, alo, ahi), (b, blo, bhi) = slices
        expected, comparisons = _reference_merge(a, alo, ahi, b, blo, bhi)
        assert result == expected
        assert all(type(v) is int for v in result)
        assert metrics.intersect_comparisons == comparisons
        assert metrics.gallop_steps == 0

    @given(slice_pairs(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_kernel_choice_and_members(self, slices, crossover):
        metrics = Metrics()
        result = intersect_slices(list(slices), metrics, crossover=crossover)
        small, large = sorted(slices, key=lambda s: s[2] - s[1])
        expected, comparisons = _reference_merge(*small, *large)
        assert result == expected
        small_size = small[2] - small[1]
        if small_size == 0:
            assert metrics.intersect_comparisons == metrics.gallop_steps == 0
        elif large[2] - large[1] >= crossover * small_size:
            assert metrics.intersect_comparisons == 0  # galloped
        else:
            assert metrics.intersect_comparisons == comparisons
            assert metrics.gallop_steps == 0


class TestRangeBounds:
    @given(
        sorted_arrays,
        st.integers(min_value=-5, max_value=210),
        st.integers(min_value=-5, max_value=210),
    )
    @settings(max_examples=80, deadline=None)
    def test_window(self, arr, lower, upper):
        metrics = Metrics()
        lo, hi = range_bounds(arr, 0, len(arr), lower, upper, metrics)
        assert arr[lo:hi] == [x for x in arr if lower <= x < upper]

    def test_meters_binary_search_steps(self):
        arr = list(range(100))
        metrics = Metrics()
        range_bounds(arr, 0, len(arr), 10, 20, metrics)
        assert metrics.gallop_steps > 0

    def test_noop_window_is_free(self):
        arr = [1, 2, 3]
        metrics = Metrics()
        lo, hi = range_bounds(arr, 0, 3, 0, 10, metrics)
        assert (lo, hi) == (0, 3)
        assert metrics.gallop_steps == 0
