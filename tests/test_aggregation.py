"""Tests for aggregation storage and MNI DomainSupport."""

from hypothesis import given, settings, strategies as st

from repro.core import AggregationStorage, AggregationView, DomainSupport


class TestAggregationStorage:
    def test_add_and_reduce(self):
        storage = AggregationStorage("s", lambda a, b: a + b)
        storage.add("x", 1)
        storage.add("x", 2)
        storage.add("y", 5)
        view = storage.finalize()
        assert view.get("x") == 3
        assert view.get("y") == 5
        assert len(view) == 2

    def test_merge(self):
        s1 = AggregationStorage("s", lambda a, b: a + b)
        s2 = AggregationStorage("s", lambda a, b: a + b)
        s1.add("x", 1)
        s2.add("x", 2)
        s2.add("z", 7)
        s1.merge(s2)
        view = s1.finalize()
        assert view.get("x") == 3
        assert view.get("z") == 7

    def test_final_filter(self):
        storage = AggregationStorage(
            "s", lambda a, b: a + b, agg_filter=lambda k, v: v >= 3
        )
        storage.add("x", 1)
        storage.add("x", 2)
        storage.add("y", 1)
        view = storage.finalize()
        assert "x" in view
        assert "y" not in view

    def test_len(self):
        storage = AggregationStorage("s", lambda a, b: a + b)
        storage.add("x", 1)
        assert len(storage) == 1


class TestAggregationView:
    def test_read_interface(self):
        view = AggregationView({"a": 1, "b": 2})
        assert view.contains("a")
        assert "b" in view
        assert view.get("c", 9) == 9
        assert set(view.keys()) == {"a", "b"}
        assert dict(view.items()) == {"a": 1, "b": 2}
        assert view.to_dict() == {"a": 1, "b": 2}
        assert sorted(view) == ["a", "b"]

    def test_to_dict_is_copy(self):
        view = AggregationView({"a": 1})
        copy = view.to_dict()
        copy["a"] = 99
        assert view.get("a") == 1


class TestDomainSupport:
    def test_single_embedding(self):
        support = DomainSupport(2, n_positions=2)
        support.add_embedding([10, 11], [0, 1])
        assert support.support == 1
        assert not support.has_enough_support()

    def test_support_is_min_over_slots(self):
        support = DomainSupport(3, n_positions=2)
        support.add_embedding([1, 2], [0, 1])
        support.add_embedding([1, 3], [0, 1])
        support.add_embedding([1, 4], [0, 1])
        # Slot 0 saw only vertex 1; slot 1 saw three vertices.
        assert support.domain_sizes() == (1, 3)
        assert support.support == 1

    def test_orbit_sharing_via_slots(self):
        # Automorphic positions share a slot: both endpoints of an edge
        # feed one domain.
        support = DomainSupport(2, n_positions=1)
        support.add_embedding([5, 6], [0, 0])
        assert support.support == 2
        assert support.has_enough_support()

    def test_aggregate_unions(self):
        s1 = DomainSupport(2, n_positions=2)
        s1.add_embedding([1, 2], [0, 1])
        s2 = DomainSupport(2, n_positions=2)
        s2.add_embedding([3, 4], [0, 1])
        s1.aggregate(s2)
        assert s1.domain_sizes() == (2, 2)
        assert s1.has_enough_support()

    def test_aggregate_returns_self(self):
        s1 = DomainSupport(1, n_positions=1)
        s2 = DomainSupport(1, n_positions=1)
        assert s1.aggregate(s2) is s1

    def test_capped_mode_keeps_decision_exact(self):
        exact = DomainSupport(2, n_positions=1, exact=True)
        capped = DomainSupport(2, n_positions=1, exact=False)
        for v in range(10):
            exact.add_embedding([v], [0])
            capped.add_embedding([v], [0])
        assert exact.support == 10
        assert capped.has_enough_support()
        assert exact.has_enough_support()
        # Capped domains stop growing at the threshold.
        assert capped.domain_sizes()[0] <= 2

    def test_grows_slots_on_demand(self):
        support = DomainSupport(1)
        support.add_embedding([7, 8, 9], [0, 1, 2])
        assert len(support.domain_sizes()) == 3

    def test_empty_support_zero(self):
        assert DomainSupport(1).support == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 2)),
            min_size=1,
            max_size=40,
        )
    )
    def test_anti_monotone_in_embeddings(self, pairs):
        """Adding embeddings never decreases the support."""
        support = DomainSupport(5, n_positions=3)
        last = 0
        for vertex, slot in pairs:
            support.add_embedding([vertex], [slot])
            current = min(support.domain_sizes())
            assert current >= 0
            assert support.support <= max(support.domain_sizes())
            last = current

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=30))
    def test_aggregate_equals_bulk_add(self, vertices):
        """Reducing singletons equals adding everything to one instance."""
        bulk = DomainSupport(3, n_positions=1)
        reduced = DomainSupport(3, n_positions=1)
        for v in vertices:
            bulk.add_embedding([v], [0])
            single = DomainSupport(3, n_positions=1)
            single.add_embedding([v], [0])
            reduced.aggregate(single)
        assert bulk.support == reduced.support


class _ScanningDomainSupport:
    """``DomainSupport`` as it was before saturation checks stopped at
    the first short domain and saturated supports stopped checking:
    the reference :class:`TestDomainSupportEquivalence` compares to."""

    def __init__(self, min_support, n_positions=0, exact=True):
        self.min_support = min_support
        self.exact = exact
        self._domains = [set() for _ in range(n_positions)]
        self._saturated = False

    def add_embedding(self, vertices, positions):
        n = max(positions) + 1 if positions else 0
        while len(self._domains) < n:
            self._domains.append(set())
        if self._saturated and not self.exact:
            return
        for vertex, position in zip(vertices, positions):
            self._domains[position].add(vertex)
        self._update_saturation()

    def aggregate(self, other):
        while len(self._domains) < len(other._domains):
            self._domains.append(set())
        if not (self._saturated and not self.exact):
            for mine, theirs in zip(self._domains, other._domains):
                mine.update(theirs)
            self._update_saturation()
        return self

    def _update_saturation(self):
        if not self._saturated:
            self._saturated = bool(self._domains) and all(
                len(domain) >= self.min_support for domain in self._domains
            )
            if self._saturated and not self.exact:
                self._domains = [
                    set(list(domain)[: self.min_support]) for domain in self._domains
                ]

    @property
    def support(self):
        if not self._domains:
            return 0
        return min(len(domain) for domain in self._domains)

    def has_enough_support(self):
        return self._saturated or self.support >= self.min_support

    def domain_sizes(self):
        return tuple(len(domain) for domain in self._domains)

    def image_vertices(self):
        return set().union(*self._domains)

    def ship_words(self):
        return 1 + sum(len(domain) for domain in self._domains)


_embeddings = st.lists(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 3)), min_size=0, max_size=4
    ),
    max_size=6,
)


class TestDomainSupportEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        min_support=st.integers(1, 4),
        exact=st.booleans(),
        n_positions=st.integers(0, 3),
        # Each step adds one embedding, or aggregates a support built
        # from a few embeddings.
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("add"), _embeddings.map(lambda e: e[:1])),
                st.tuples(st.just("aggregate"), _embeddings),
            ),
            max_size=30,
        ),
    )
    def test_matches_the_scanning_implementation(
        self, min_support, exact, n_positions, steps
    ):
        def observe(support):
            return (
                support.support,
                support.domain_sizes(),
                support.has_enough_support(),
                support.image_vertices(),
                support.ship_words(),
            )

        def build(cls, embeddings):
            support = cls(min_support, n_positions=n_positions, exact=exact)
            for embedding in embeddings:
                support.add_embedding(
                    [v for v, _ in embedding], [p for _, p in embedding]
                )
            return support

        new = build(DomainSupport, [])
        old = build(_ScanningDomainSupport, [])
        for kind, embeddings in steps:
            if kind == "add":
                for embedding in embeddings:
                    vertices = [v for v, _ in embedding]
                    positions = [p for _, p in embedding]
                    new.add_embedding(vertices, positions)
                    old.add_embedding(vertices, positions)
            else:
                new.aggregate(build(DomainSupport, embeddings))
                old.aggregate(build(_ScanningDomainSupport, embeddings))
            assert observe(new) == observe(old)
