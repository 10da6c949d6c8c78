"""The paper's GPM applications, expressed on the Fractal API (Appendix A)."""

from .motifs import (
    motif_census_by_pattern,
    motif_counts_ignoring_labels,
    motifs,
    motifs_fractoid,
)
from .cliques import (
    KClistStrategy,
    clique_filter,
    cliques,
    cliques_fractoid,
    cliques_optimized_fractoid,
    count_cliques,
    degeneracy_order,
)
from .fsm import FSMResult, GraphReduction, fsm
from .queries import (
    QUERY_PATTERNS,
    count_query_matches,
    query_fractoid,
    query_subgraphs,
)
from .keyword_search import (
    KeywordSearchResult,
    build_inverted_index,
    keyword_fractoid,
    keyword_search,
)
from .graphlets import (
    gdv_similarity,
    graphlet_degree_vectors,
    graphlet_frequency_profile,
)
from .sampling import SamplingStrategy, approximate_motifs, sampled_vfractoid
from .triangles import (
    count_triangles,
    triangles_fractoid,
    triangles_optimized_fractoid,
)

__all__ = [
    "motif_census_by_pattern",
    "motif_counts_ignoring_labels",
    "motifs",
    "motifs_fractoid",
    "KClistStrategy",
    "clique_filter",
    "cliques",
    "cliques_fractoid",
    "cliques_optimized_fractoid",
    "count_cliques",
    "degeneracy_order",
    "FSMResult",
    "GraphReduction",
    "fsm",
    "QUERY_PATTERNS",
    "count_query_matches",
    "query_fractoid",
    "query_subgraphs",
    "KeywordSearchResult",
    "build_inverted_index",
    "keyword_fractoid",
    "keyword_search",
    "gdv_similarity",
    "graphlet_frequency_profile",
    "graphlet_degree_vectors",
    "SamplingStrategy",
    "approximate_motifs",
    "sampled_vfractoid",
    "count_triangles",
    "triangles_fractoid",
    "triangles_optimized_fractoid",
]
