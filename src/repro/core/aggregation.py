"""Aggregation storage, map-side combining and the MNI support.

The aggregation primitive reduces ``(key, value)`` pairs extracted from
subgraphs.  :class:`AggregationStorage` is the mutable reducer used while a
step runs — it doubles as the *map-side combiner* of the two-level
aggregation pipeline (local per-core combine, then a metered shuffle to
the driver; see ``docs/internals.md`` §9).  :class:`AggregationView` is
the read-only finalized mapping that aggregation filters and output
operators consume.

:func:`merge_storages_streaming` is the driver-side reduce: a streaming
merge over the worker-combined storages that completes each key's
reduction before moving on, which lets a provably per-key-monotone
``agg_filter`` (FSM's MNI threshold) prune entries during the merge
instead of materializing the full unfiltered mapping first.

:func:`encode_entries` / :func:`decode_entries` are the wire format of a
storage's entries between processes: pattern keys travel as the flat
canonical codes they hold, laid end to end in one integer array
(DIMSpan's point: integer-array codes and cheap (de)serialization before
the shuffle are what let pattern-keyed aggregation scale), and the
receiver slices one ``Pattern`` per distinct code back out.

:class:`DomainSupport` implements the *minimum image-based support*
[Bringmann & Nijssen 2008] adopted by the paper for FSM: for each canonical
position of a pattern, the set of distinct graph vertices mapped there; the
support is the minimum set size over positions.  MNI is anti-monotonic,
which is what lets FSM prune with an aggregation filter.
"""

from __future__ import annotations

import pickle
import zlib
from array import array
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..pattern.dfscode import nested_code
from ..pattern.pattern import Pattern

__all__ = [
    "AggregationStorage",
    "AggregationView",
    "DomainSupport",
    "merge_storages_streaming",
    "encode_entries",
    "decode_entries",
    "ship_words",
    "stable_partition",
]


class AggregationStorage:
    """Mutable key/value reducer for one :class:`Aggregate` primitive.

    ``filter_monotone`` declares that ``agg_filter``'s verdict for a key,
    once its value is fully reduced, is what matters — and that the filter
    is *per-key-monotone*: adding further contributions can only keep a
    passing key passing (FSM's MNI support threshold is the canonical
    example).  The driver's streaming merge uses it to prune entries as
    soon as their reduction completes.
    """

    __slots__ = ("name", "reduce_fn", "agg_filter", "filter_monotone", "_data", "_prefiltered")

    def __init__(
        self,
        name: str,
        reduce_fn: Callable[[Any, Any], Any],
        agg_filter: Optional[Callable[[Any, Any], bool]] = None,
        filter_monotone: bool = False,
    ):
        self.name = name
        self.reduce_fn = reduce_fn
        self.agg_filter = agg_filter
        self.filter_monotone = filter_monotone
        self._data: Dict[Any, Any] = {}
        # Set by merge_storages_streaming when agg_filter was already
        # applied during the merge; finalize() then skips the second pass.
        self._prefiltered = False

    def add(self, key: Any, value: Any) -> None:
        """Reduce ``value`` into the entry for ``key``."""
        existing = self._data.get(key)
        if existing is None:
            self._data[key] = value
        else:
            self._data[key] = self.reduce_fn(existing, value)

    def add_inplace(
        self,
        key: Any,
        subgraph: Any,
        computation: Any,
        value_fn: Callable,
        update_fn: Callable,
    ) -> None:
        """Map-side combining without materializing a per-record value.

        On first sight of ``key`` the value is built with ``value_fn``;
        afterwards ``update_fn(existing, subgraph, computation)`` folds the
        record directly into the stored value (DIMSpan-style pre-shuffle
        combining).  Must be equivalent to
        ``add(key, value_fn(subgraph, computation))`` — the hypothesis
        equivalence suite asserts it for the shipped applications.
        """
        data = self._data
        existing = data.get(key)
        if existing is None:
            data[key] = value_fn(subgraph, computation)
        else:
            replacement = update_fn(existing, subgraph, computation)
            if replacement is not existing:
                data[key] = replacement

    def merge(self, other: "AggregationStorage") -> None:
        """Reduce another storage into this one (worker-level combine)."""
        for key, value in other._data.items():
            self.add(key, value)

    def merge_pairs(self, pairs: Iterable[Tuple[Any, Any]]) -> None:
        """Reduce a stream of ``(key, value)`` pairs (shipped entries)."""
        for key, value in pairs:
            self.add(key, value)

    def entries(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate the live ``(key, value)`` entries in insertion order."""
        return iter(self._data.items())

    def __len__(self) -> int:
        return len(self._data)

    def prefilter(self) -> None:
        """Apply a per-key-monotone ``agg_filter`` to the reduced entries.

        For callers that have folded in every contribution: no key can
        change its verdict any more, so failing entries are dropped here
        and ``finalize`` skips its filter pass.  A no-op for filters not
        declared monotone.
        """
        if self.agg_filter is not None and self.filter_monotone:
            agg_filter = self.agg_filter
            self._data = {
                key: value
                for key, value in self._data.items()
                if agg_filter(key, value)
            }
            self._prefiltered = True

    def finalize(self) -> "AggregationView":
        """Apply the post-reduction filter and freeze."""
        if self.agg_filter is None or self._prefiltered:
            return AggregationView(dict(self._data))
        kept = {
            key: value
            for key, value in self._data.items()
            if self.agg_filter(key, value)
        }
        return AggregationView(kept)


def merge_storages_streaming(
    storages: Sequence[AggregationStorage],
) -> AggregationStorage:
    """Streaming k-way merge of (worker-combined) storages at the driver.

    Walks keys in first-appearance order across ``storages`` — the same
    order the seed's sequential ``merge()`` loop produced, so finalized
    views stay byte-identical — but completes each key's reduction across
    all sources before moving on.  When the template storage declares its
    ``agg_filter`` per-key-monotone, the filter is applied right there:
    failing keys are dropped during the merge instead of surviving into an
    unfiltered intermediate mapping that ``finalize`` would copy and prune
    (FSM prunes the vast infrequent tail this way).

    The reduce order per key is a fold in source order, which equals the
    seed's flat loop for associative reduce functions; sources must not be
    mutated afterwards.
    """
    if not storages:
        raise ValueError("merge_storages_streaming needs at least one storage")
    template = storages[0]
    reduce_fn = template.reduce_fn
    agg_filter = template.agg_filter
    early = agg_filter is not None and template.filter_monotone
    maps = [storage._data for storage in storages]
    n = len(maps)
    out: Dict[Any, Any] = {}
    if n == 1:
        if early:
            for key, value in maps[0].items():
                if agg_filter(key, value):
                    out[key] = value
        else:
            out = dict(maps[0])
    else:
        done: set = set()
        for i, source in enumerate(maps):
            rest = maps[i + 1 :]
            for key, value in source.items():
                if key in done:
                    continue
                done.add(key)
                acc = value
                for other in rest:
                    contribution = other.get(key)
                    if contribution is not None:
                        acc = reduce_fn(acc, contribution)
                if not early or agg_filter(key, acc):
                    out[key] = acc
    merged = AggregationStorage(
        template.name, reduce_fn, agg_filter, template.filter_monotone
    )
    merged._data = out
    merged._prefiltered = early
    return merged


def _int_array(values: List[int]) -> array:
    """``values`` in the narrowest signed array type that holds them."""
    for typecode in "bhiq":
        try:
            return array(typecode, values)
        except OverflowError:
            pass
    raise OverflowError("pattern label does not fit in 64 bits")


def encode_entries(pairs: Iterable[Tuple[Any, Any]]) -> bytes:
    """Wire form of ``(key, value)`` entries crossing a process boundary.

    A :class:`Pattern` key ships as its flat canonical code — the tuple
    of ints it already holds, five per DFS-code tuple — and nothing else:
    the codes of all keys are concatenated into one integer array next to
    an array of their lengths in ints, each in the narrowest signed type
    that fits, so a labeled 4-vertex pattern costs ~20 bytes instead of
    the ~140 its pickled slots took.  Keys of any other type (length 0 in
    the lengths array) and all values are pickled as they are.
    """
    pairs = list(pairs)
    codes: List[Tuple[int, ...]] = []
    lengths: List[int] = []
    others: List[Any] = []
    for key, _ in pairs:
        if type(key) is Pattern:
            code = key._flat
            codes.append(code)
            lengths.append(len(code))
        else:
            others.append(key)
            lengths.append(0)
    return pickle.dumps(
        (
            _int_array(lengths),
            _int_array(list(chain.from_iterable(codes))),
            others,
            [value for _, value in pairs],
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_entries(
    buffer: bytes, patterns: Dict[Tuple[int, ...], Pattern]
) -> List[Tuple[Any, Any]]:
    """Inverse of :func:`encode_entries`; entry order is preserved.

    ``patterns`` is the receiver's flat code -> ``Pattern`` table, shared
    across payloads: each entry's code is one slice of the integer array,
    a pattern is built (by :meth:`Pattern.from_flat_code` — no structure,
    no minimum DFS-code search) only the first time its code is seen, and
    every later entry with that code gets the same object.  Only decode
    bytes this program's own workers produced — the buffer is a pickle.
    """
    lengths, flat, others, values = pickle.loads(buffer)
    ints = tuple(flat)  # so that a slice is the code itself, not a copy of one
    other_keys = iter(others)
    keys: List[Any] = []
    start = 0
    for length in lengths:
        if not length:
            keys.append(next(other_keys))
            continue
        end = start + length
        code = ints[start:end]
        start = end
        pattern = patterns.get(code)
        if pattern is None:
            pattern = patterns[code] = Pattern.from_flat_code(code)
        keys.append(pattern)
    return list(zip(keys, values))


def ship_words(obj: Any) -> int:
    """Serialized size of an aggregation key or value, in words.

    Drives the metered aggregation shuffle: objects may provide their own
    ``ship_words()`` (``Pattern`` and ``DomainSupport`` do); common
    containers are sized by length; scalars count as one word.
    """
    sizer = getattr(obj, "ship_words", None)
    if sizer is not None:
        return sizer()
    if isinstance(obj, (tuple, list, set, frozenset, str, bytes, dict)):
        return max(1, len(obj))
    return 1


def _stable_hash(obj: Any) -> int:
    """Deterministic (cross-process) hash for shuffle partitioning.

    ``hash()`` is randomized for str/bytes-bearing keys, which would make
    partition message counts differ run to run; this folds common key
    shapes into a stable 64-bit value instead.
    """
    if isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, int):
        return obj
    if isinstance(obj, Pattern):
        # Folding a canonical code recurses through every code tuple and
        # a key is partitioned at every shuffle hop: fold once per pattern
        # (over a throwaway nested view — the pattern need not keep one).
        folded = obj._shuffle_hash
        if folded is None:
            folded = obj._shuffle_hash = _stable_hash(nested_code(obj._flat))
        return folded
    if isinstance(obj, str):
        return zlib.crc32(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return zlib.crc32(obj)
    if isinstance(obj, (tuple, list)):
        h = 0x345678
        for item in obj:
            h = ((h * 1000003) ^ _stable_hash(item)) & 0xFFFFFFFFFFFFFFFF
        return h
    if isinstance(obj, (set, frozenset)):
        return sum(_stable_hash(item) for item in obj) & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(repr(obj).encode("utf-8"))


def stable_partition(key: Any, n_partitions: int) -> int:
    """Hash partition of an aggregation key, deterministic across runs."""
    if n_partitions <= 1:
        return 0
    return _stable_hash(key) % n_partitions


class AggregationView:
    """Read-only finalized aggregation mapping."""

    __slots__ = ("_data",)

    def __init__(self, data: Dict[Any, Any]):
        self._data = data

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def contains(self, key: Any) -> bool:
        """Whether ``key`` survived the final reduction/filter."""
        return key in self._data

    def get(self, key: Any, default: Any = None) -> Any:
        """Value for ``key`` or ``default``."""
        return self._data.get(key, default)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs."""
        return iter(self._data.items())

    def keys(self):
        """Iterate keys."""
        return self._data.keys()

    def to_dict(self) -> Dict[Any, Any]:
        """Copy as a plain dict."""
        return dict(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def __repr__(self) -> str:
        return f"AggregationView({len(self._data)} entries)"


class DomainSupport:
    """Minimum image-based (MNI) support of a pattern.

    One instance is the aggregation *value* for a pattern key; reducing two
    instances unions their per-position vertex domains.  ``support`` is
    ``min(|domain_p|)`` over canonical positions — exactly the metric the
    paper's FSM application thresholds (Listing 3's ``DomainSupport``).

    With ``exact=False`` the domains stop growing once every position
    reached ``min_support`` (the classic GRAMI optimization): the boolean
    ``has_enough_support`` stays exact while memory is bounded.
    """

    __slots__ = ("min_support", "exact", "_domains", "_saturated")

    def __init__(self, min_support: int, n_positions: int = 0, exact: bool = True):
        self.min_support = min_support
        self.exact = exact
        self._domains: List[set] = [set() for _ in range(n_positions)]
        self._saturated = False

    def add_embedding(self, vertices: Sequence[int], positions: Sequence[int]) -> None:
        """Record one embedding: ``vertices[i]`` sits at ``positions[i]``."""
        domains = self._domains
        n = max(positions) + 1 if positions else 0
        while len(domains) < n:
            domains.append(set())
        if self._saturated and not self.exact:
            return
        for vertex, position in zip(vertices, positions):
            domains[position].add(vertex)
        self._update_saturation()

    def aggregate(self, other: "DomainSupport") -> "DomainSupport":
        """Union domains position-wise (the reduction function)."""
        while len(self._domains) < len(other._domains):
            self._domains.append(set())
        if not (self._saturated and not self.exact):
            for mine, theirs in zip(self._domains, other._domains):
                mine.update(theirs)
            self._update_saturation()
        return self

    def _update_saturation(self) -> None:
        if self._saturated or not self._domains:
            return
        min_support = self.min_support
        for domain in self._domains:
            if len(domain) < min_support:
                return
        self._saturated = True
        if not self.exact:
            # Keep only min_support witnesses per position.
            self._domains = [
                set(list(domain)[:min_support]) for domain in self._domains
            ]

    @property
    def support(self) -> int:
        """The MNI support: minimum domain size across positions."""
        if not self._domains:
            return 0
        return min(len(domain) for domain in self._domains)

    def has_enough_support(self) -> bool:
        """Whether ``support >= min_support`` (exact even when capped)."""
        return self._saturated or self.support >= self.min_support

    def domain_sizes(self) -> Tuple[int, ...]:
        """Per-position domain sizes."""
        return tuple(len(domain) for domain in self._domains)

    def image_vertices(self) -> set:
        """Every vertex in some position's domain.

        Exact mode: the vertices of the aggregated embeddings, as ids of
        the graph they were enumerated on.  Capped mode keeps only
        ``min_support`` witnesses per position, so the set is partial.
        """
        return set().union(*self._domains)

    def ship_words(self) -> int:
        """Serialized size in words when shipped as an aggregation value.

        One word per domain vertex plus one header word — the quantity the
        metered aggregation shuffle charges ``agg_ship_units_per_word``
        for.  Capped domains (``exact=False``) ship fewer words, the
        memory/communication win GRAMI-style saturation buys.
        """
        return 1 + sum(len(domain) for domain in self._domains)

    def __repr__(self) -> str:
        return (
            f"DomainSupport(support={self.support}, "
            f"min_support={self.min_support})"
        )
