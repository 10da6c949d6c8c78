"""Pattern machinery: canonical codes, isomorphism, symmetry breaking."""

from .pattern import Pattern, PatternInterner
from .catalog import all_connected_patterns, named_patterns
from .dfscode import code_to_edges, minimum_dfs_code
from .isomorphism import (
    are_isomorphic,
    automorphisms,
    count_pattern_matches,
    match_pattern,
)
from .symmetry import (
    SymmetryPlan,
    conditions_by_position,
    heuristic_symmetry_breaking_conditions,
    minimal_restriction_set,
    restriction_conditions_for_group,
    satisfies_conditions,
    symmetry_breaking_conditions,
    symmetry_plan,
)
from .canonical import edge_adjacency, is_canonical_extension, vertex_adjacency

__all__ = [
    "Pattern",
    "PatternInterner",
    "all_connected_patterns",
    "named_patterns",
    "code_to_edges",
    "minimum_dfs_code",
    "are_isomorphic",
    "automorphisms",
    "count_pattern_matches",
    "match_pattern",
    "SymmetryPlan",
    "conditions_by_position",
    "heuristic_symmetry_breaking_conditions",
    "minimal_restriction_set",
    "restriction_conditions_for_group",
    "satisfies_conditions",
    "symmetry_breaking_conditions",
    "symmetry_plan",
    "edge_adjacency",
    "is_canonical_extension",
    "vertex_adjacency",
]
