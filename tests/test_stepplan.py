"""The step planner, directly: one table of (step, kernel) -> decision.

Every backend plans its steps through :func:`repro.runtime.stepplan.plan_step`,
so this table is the whole decompose -> orbit -> list -> enumerate ladder:
what the step runs as, and what ``kernel_info`` says about it.
"""

import pytest

from repro.apps import QUERY_PATTERNS
from repro.core.enumerator import PatternInducedStrategy, VertexInducedStrategy
from repro.core.primitives import Aggregate, Expand, Filter
from repro.graph import erdos_renyi_graph
from repro.pattern.pattern import PatternInterner
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.metrics import Metrics
from repro.runtime.stepplan import plan_step

# The reasons the backends state when they need real enumerators.
SIM_FAULTS = "fault injection configured (recovery needs enumerators)"
MP_FAULTS = "mp fault plan configured (fault injection needs worker enumeration)"
SIM_LISTS = "simulated cluster enumerates listings on its per-core clocks"

# The one shape test's reasons (repro.runtime.stepplan.walk_blockers): a
# count's, shared by the decomposition and orbit records, and a listing's.
NOT_COUNT = "collect='subgraphs' needs embeddings, not counts"
ROOTED = "root-restricted step (resumed/partial work)"
PARTIAL = "partial-pattern step (multi-step exploration)"
READS = "workflow needs embeddings (non-extension primitives present)"
NOT_LISTING = "collect='count' is not a listing"
LEGACY = "kernel has no level walk"
CHOOSER = "chooser picked enumeration"

# On this graph the chooser decomposes q7 and declines q1 (a triangle's
# cover leaves a single fringe vertex).
GRAPH = erdos_renyi_graph(200, 2400, seed=5)


def _primitives(shape, pattern):
    expands = [Expand() for _ in range(pattern.n_vertices)]
    if shape == "partial":
        return expands[:-1]
    if shape == "aggregating":
        return expands + [
            Aggregate("support", lambda s, c: 0, lambda s, c: 1, lambda a, b: a + b)
        ]
    if shape == "filtered":
        return expands + [Filter(lambda s, c: True)]
    return expands


# (kernel, query, shape, collect, root_words, needs_enumerators[,
#  enumerates_listings])
#   -> (mode, decomposition (executed, reason prefix) or None,
#       orbit_count (executed, reason) or None,
#       list_walk reason, or None when it executed)
CASES = [
    # The legacy kernel has no shortcut: only the listing record says so.
    (("legacy", "q7", "pure", "count", None, None), ("enumerate", None, None, LEGACY)),
    (
        ("legacy", "q7", "pure", "count", None, SIM_FAULTS),
        ("enumerate", None, None, LEGACY),
    ),
    # Indexed: the orbit count, whenever the step is a pure count.
    (
        ("indexed", "q7", "pure", "count", None, None),
        ("orbit", None, (True, None), NOT_LISTING),
    ),
    # ... and the listing walk, whenever it is a pure listing.
    (
        ("indexed", "q7", "pure", "subgraphs", None, None),
        ("list", None, (False, NOT_COUNT), None),
    ),
    (
        ("indexed", "q7", "pure", None, None, None),
        (
            "enumerate",
            None,
            (False, "collect=None needs embeddings, not counts"),
            "collect=None is not a listing",
        ),
    ),
    (
        ("indexed", "q7", "pure", "count", [0, 1], None),
        ("enumerate", None, (False, ROOTED), NOT_LISTING),
    ),
    (
        ("indexed", "q7", "partial", "count", None, None),
        ("enumerate", None, (False, PARTIAL), PARTIAL),
    ),
    (
        ("indexed", "q7", "aggregating", "count", None, None),
        ("enumerate", None, (False, READS), READS),
    ),
    (
        ("indexed", "q7", "pure", "count", None, SIM_FAULTS),
        ("enumerate", None, None, SIM_FAULTS),
    ),
    # Decomposed: the chooser's plan, else the orbit count, else the walk.
    (
        ("decomposed", "q7", "pure", "count", None, None),
        ("decomposed", ("count", None), None, NOT_LISTING),
    ),
    (
        ("decomposed", "q1", "pure", "count", None, None),
        ("orbit", ("enumeration", CHOOSER), (True, None), NOT_LISTING),
    ),
    (
        ("decomposed", "q7", "pure", "subgraphs", None, None),
        ("list", ("enumeration", NOT_COUNT), (False, NOT_COUNT), None),
    ),
    (
        ("decomposed", "q7", "pure", "count", [0, 1], None),
        ("enumerate", ("enumeration", ROOTED), (False, ROOTED), NOT_LISTING),
    ),
    (
        ("decomposed", "q7", "partial", "count", None, None),
        ("enumerate", ("enumeration", PARTIAL), (False, PARTIAL), PARTIAL),
    ),
    (
        ("decomposed", "q7", "aggregating", "count", None, None),
        ("enumerate", ("enumeration", READS), (False, READS), READS),
    ),
    # A backend that needs enumerators gets them, and its reason back,
    # whether or not the chooser would have decomposed.
    (
        ("decomposed", "q7", "pure", "count", None, SIM_FAULTS),
        ("enumerate", ("enumeration", SIM_FAULTS), None, SIM_FAULTS),
    ),
    (
        ("decomposed", "q1", "pure", "count", None, SIM_FAULTS),
        ("enumerate", ("enumeration", SIM_FAULTS), None, SIM_FAULTS),
    ),
    (
        ("decomposed", "q7", "pure", "count", None, MP_FAULTS),
        ("enumerate", ("enumeration", MP_FAULTS), None, MP_FAULTS),
    ),
    (
        ("decomposed", "q7", "pure", "subgraphs", None, MP_FAULTS),
        ("enumerate", ("enumeration", MP_FAULTS), None, MP_FAULTS),
    ),
    # A listing takes roots as its level 0; a filter, a partial expansion,
    # the legacy kernel and the simulated cluster keep it enumerated.
    (
        ("indexed", "q7", "pure", "subgraphs", [0, 1], None),
        ("list", None, (False, NOT_COUNT), None),
    ),
    (
        ("indexed", "q7", "filtered", "subgraphs", None, None),
        ("enumerate", None, (False, READS), READS),
    ),
    (
        ("indexed", "q7", "partial", "subgraphs", None, None),
        ("enumerate", None, (False, PARTIAL), PARTIAL),
    ),
    (
        ("legacy", "q7", "pure", "subgraphs", None, None),
        ("enumerate", None, None, LEGACY),
    ),
    (
        ("indexed", "q7", "pure", "subgraphs", None, None, SIM_LISTS),
        ("enumerate", None, (False, NOT_COUNT), SIM_LISTS),
    ),
    (
        ("indexed", "q7", "pure", "count", None, None, SIM_LISTS),
        ("orbit", None, (True, None), SIM_LISTS),
    ),
]


@pytest.mark.parametrize("case,expected", CASES)
def test_plan_step_table(case, expected):
    kernel, query, shape, collect, root_words, needs_enumerators = case[:6]
    mode, decomposition, orbit, listing = expected
    pattern = QUERY_PATTERNS[query]
    probe = PatternInducedStrategy(
        GRAPH, Metrics(), PatternInterner(), pattern, kernel=kernel
    )
    step = plan_step(
        probe,
        GRAPH,
        _primitives(shape, pattern),
        collect,
        root_words,
        DEFAULT_COST_MODEL,
        needs_enumerators,
        *case[6:],
    )
    assert step.mode == mode
    assert (step.decomposition is not None) == (mode == "decomposed")
    info = step.kernel_info
    assert info["kernel"] == kernel
    if decomposition is None:
        assert "decomposition" not in info
        assert step.fallbacks == 0
    else:
        executed, reason = decomposition
        record = info["decomposition"]
        assert record["requested"] is True
        assert record["executed"] == executed
        if reason is None:
            assert record["reason"] is None
            assert record["plan"] == step.decomposition.describe()
        else:
            assert record["reason"].startswith(reason)
        assert step.fallbacks == (0 if executed == "count" else 1)
    if orbit is None:
        assert "orbit_count" not in info
    elif orbit[0]:
        tail, arrangements = probe.orbit_tail()
        assert info["orbit_count"] == {
            "executed": True,
            "tail": tail,
            "arrangements": arrangements,
        }
    else:
        assert info["orbit_count"] == {"executed": False, "reason": orbit[1]}
    if listing is None:
        assert info["list_walk"] == {"executed": True}
    else:
        assert info["list_walk"] == {"executed": False, "reason": listing}


def test_strategies_without_a_kernel_plan_to_enumeration():
    probe = VertexInducedStrategy(GRAPH, Metrics(), PatternInterner())
    step = plan_step(
        probe, GRAPH, [Expand(), Expand()], "count", None, DEFAULT_COST_MODEL
    )
    assert (step.mode, step.decomposition, step.kernel_info, step.fallbacks) == (
        "enumerate",
        None,
        None,
        0,
    )
