"""Property tests for the sorted-set intersection kernels.

``intersect_slices`` must agree with naive set intersection for every
kernel it dispatches to (linear merge, galloping, leapfrog k-way), and
``range_bounds`` must narrow a sorted slice to exactly the requested
``[lower, upper)`` window.  Both must meter their work into
``Metrics.intersect_comparisons`` / ``Metrics.gallop_steps``.  The
two-slice merge computes its comparison count in closed form, and so do
the galloping seeks of ``_gallop`` and ``_leapfrog``; each is checked
against the loop it replaced, kept in this file.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.intersect import (
    GALLOP_CROSSOVER,
    _gallop,
    _leapfrog,
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


def _embedded(draw, members):
    """``members`` as a slice of a longer array, so that lo > 0, hi < len."""
    before = draw(st.integers(min_value=0, max_value=3))
    after = draw(st.integers(min_value=0, max_value=3))
    padded = list(range(-before, 0)) + members + [1000 + k for k in range(after)]
    storage = draw(st.sampled_from([list, _as_array, _as_memoryview]))
    return (storage(padded), before, before + len(members))


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
    slices = [_embedded(draw, a), _embedded(draw, b)]
    if draw(st.booleans()):
        slices.reverse()
    return slices


@st.composite
def slice_lists(draw):
    """Three to five sorted slices, some short, empty or past the rest."""
    slices = []
    for _ in range(draw(st.integers(min_value=3, max_value=5))):
        shape = draw(st.sampled_from(["random", "one-element", "empty", "high"]))
        members = sorted(
            draw(st.sets(st.integers(min_value=0, max_value=120), max_size=60))
        )
        if shape == "one-element":
            members = members[:1]
        elif shape == "empty":
            members = []
        elif shape == "high":
            # Every seek in the others runs off their end (j reaches hi).
            members = [x + 100 for x in members]
        slices.append(_embedded(draw, members))
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


def _reference_gallop(a, alo, ahi, b, blo, bhi):
    """``_gallop`` with its doubling loop: ``(members, gallop steps)``."""
    out = []
    steps = 0
    j = blo
    for i in range(alo, ahi):
        x = a[i]
        if j >= bhi:
            break
        if b[j] < x:
            bound = 1
            while j + bound < bhi and b[j + bound] < x:
                bound <<= 1
                steps += 1
            end = j + bound
            if end > bhi:
                end = bhi
            steps += (end - j).bit_length()
            j = bisect_left(b, x, j, end)
            if j >= bhi:
                break
        if b[j] == x:
            out.append(x)
            j += 1
    return out, steps


def _reference_leapfrog(slices):
    """``_leapfrog`` with its doubling loop: ``(members, gallop steps)``."""
    k = len(slices)
    arrs = [s[0] for s in slices]
    pos = [s[1] for s in slices]
    his = [s[2] for s in slices]
    out = []
    steps = 0
    for i in range(k):
        if pos[i] >= his[i]:
            return out, steps
    x = arrs[0][pos[0]]
    agree = 1
    idx = 1
    while True:
        arr = arrs[idx]
        hi = his[idx]
        j = pos[idx]
        if j < hi and arr[j] < x:
            bound = 1
            while j + bound < hi and arr[j + bound] < x:
                bound <<= 1
                steps += 1
            end = j + bound
            if end > hi:
                end = hi
            steps += (end - j).bit_length()
            j = bisect_left(arr, x, j, end)
            pos[idx] = j
        if j >= hi:
            break
        y = arr[j]
        if y == x:
            agree += 1
            if agree == k:
                out.append(x)
                j += 1
                pos[idx] = j
                if j >= hi:
                    break
                x = arr[j]
                agree = 1
        else:
            x = y
            agree = 1
        idx += 1
        if idx == k:
            idx = 0
    return out, steps


class TestGallopMetering:
    """The closed-form seek equals the doubling loop it replaced."""

    @given(slice_pairs())
    @settings(max_examples=300, deadline=None)
    def test_gallop_equals_doubling_loop(self, slices):
        (a, alo, ahi), (b, blo, bhi) = slices
        metrics = Metrics()
        result = _gallop(a, alo, ahi, b, blo, bhi, metrics)
        expected, steps = _reference_gallop(a, alo, ahi, b, blo, bhi)
        assert result == expected
        assert metrics.gallop_steps == steps

    @given(slice_lists())
    @settings(max_examples=300, deadline=None)
    def test_leapfrog_equals_doubling_loop(self, slices):
        metrics = Metrics()
        result = _leapfrog(list(slices), metrics)
        expected, steps = _reference_leapfrog(slices)
        assert result == expected
        assert metrics.gallop_steps == steps

    def test_every_gap_and_cut(self):
        # One seek from j = 0 to answer g in a slice of n, for every
        # 1 <= g <= n <= 70: every doubling count, bracket cut at hi or not.
        for n in range(1, 71):
            b = list(range(0, 2 * n, 2))
            for g in range(1, n + 1):
                metrics = Metrics()
                x = 2 * g - 1  # b[g - 1] < x < b[g]
                _gallop([x], 0, 1, b, 0, n, metrics)
                assert metrics.gallop_steps == _reference_gallop(
                    [x], 0, 1, b, 0, n
                )[1], (n, g)

    @pytest.mark.parametrize(
        "a,b",
        [
            ([], [1, 2, 3]),  # empty driver
            ([5], []),  # empty target
            ([5], [1]),  # one element, seek lands at hi
            ([1], [1]),  # one element, no seek
            ([7, 9], [1, 2, 3, 4, 5, 6, 7, 8]),  # a power-of-two gap
            ([50, 60], [1, 2, 3]),  # j reaches hi, the rest is skipped
        ],
    )
    def test_edges(self, a, b):
        metrics = Metrics()
        result = _gallop(a, 0, len(a), b, 0, len(b), metrics)
        assert (result, metrics.gallop_steps) == _reference_gallop(
            a, 0, len(a), b, 0, len(b)
        )
        three = [(a, 0, len(a)), (b, 0, len(b)), (b, 0, len(b))]
        metrics = Metrics()
        result = _leapfrog(three, metrics)
        assert (result, metrics.gallop_steps) == _reference_leapfrog(three)


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
