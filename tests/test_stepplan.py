"""The step planner, directly: one table of (step, kernel) -> decision.

Every backend plans its steps through :func:`repro.runtime.stepplan.plan_step`,
so this table is the whole decompose -> orbit-count -> enumerate ladder:
what the step runs as, and what ``kernel_info`` says about it.
"""

import pytest

from repro.apps import QUERY_PATTERNS
from repro.core.enumerator import PatternInducedStrategy, VertexInducedStrategy
from repro.core.primitives import Aggregate, Expand
from repro.graph import erdos_renyi_graph
from repro.pattern.pattern import PatternInterner
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.metrics import Metrics
from repro.runtime.stepplan import plan_step

# The reasons the backends state when they need real enumerators.
SIM_FAULTS = "fault injection configured (recovery needs enumerators)"
PARTITION = "partitioned storage configured (fetch metering needs per-word pushes)"
MP_FAULTS = "mp fault plan configured (fault injection needs worker enumeration)"

NOT_COUNT = "step is not a pure count"
ROOTED = "step has explicit roots"
NOT_FULL = "step is not a pure full-pattern expansion"
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
    return expands


# (kernel, query, shape, collect, root_words, needs_enumerators)
#   -> (mode, decomposition (executed, reason prefix) or None,
#       orbit_count (executed, reason) or None)
CASES = [
    # The legacy kernel has no counting shortcut: no records at all.
    (("legacy", "q7", "pure", "count", None, None), ("enumerate", None, None)),
    (("legacy", "q7", "pure", "count", None, SIM_FAULTS), ("enumerate", None, None)),
    # Indexed: the orbit count, whenever the step is a pure count.
    (("indexed", "q7", "pure", "count", None, None), ("orbit", None, (True, None))),
    (
        ("indexed", "q7", "pure", "subgraphs", None, None),
        ("enumerate", None, (False, NOT_COUNT)),
    ),
    (
        ("indexed", "q7", "pure", None, None, None),
        ("enumerate", None, (False, NOT_COUNT)),
    ),
    (
        ("indexed", "q7", "pure", "count", [0, 1], None),
        ("enumerate", None, (False, ROOTED)),
    ),
    (
        ("indexed", "q7", "partial", "count", None, None),
        ("enumerate", None, (False, NOT_FULL)),
    ),
    (
        ("indexed", "q7", "aggregating", "count", None, None),
        ("enumerate", None, (False, NOT_FULL)),
    ),
    (("indexed", "q7", "pure", "count", None, PARTITION), ("enumerate", None, None)),
    # Decomposed: the chooser's plan, else the orbit count, else the walk.
    (
        ("decomposed", "q7", "pure", "count", None, None),
        ("decomposed", ("count", None), None),
    ),
    (
        ("decomposed", "q1", "pure", "count", None, None),
        ("orbit", ("enumeration", CHOOSER), (True, None)),
    ),
    (
        ("decomposed", "q7", "pure", "subgraphs", None, None),
        (
            "enumerate",
            ("enumeration", "collect='subgraphs' needs embeddings"),
            (False, NOT_COUNT),
        ),
    ),
    (
        ("decomposed", "q7", "pure", "count", [0, 1], None),
        ("enumerate", ("enumeration", "root-restricted step"), (False, ROOTED)),
    ),
    (
        ("decomposed", "q7", "partial", "count", None, None),
        ("enumerate", ("enumeration", "partial-pattern step"), (False, NOT_FULL)),
    ),
    (
        ("decomposed", "q7", "aggregating", "count", None, None),
        ("enumerate", ("enumeration", "workflow needs embeddings"), (False, NOT_FULL)),
    ),
    # A backend that needs enumerators gets them, and its reason back.
    (
        ("decomposed", "q7", "pure", "count", None, SIM_FAULTS),
        ("enumerate", ("enumeration", SIM_FAULTS), None),
    ),
    (
        ("decomposed", "q7", "pure", "count", None, PARTITION),
        ("enumerate", ("enumeration", PARTITION), None),
    ),
    (
        ("decomposed", "q7", "pure", "count", None, MP_FAULTS),
        ("enumerate", ("enumeration", MP_FAULTS), None),
    ),
    (
        ("decomposed", "q7", "pure", "subgraphs", None, MP_FAULTS),
        ("enumerate", ("enumeration", MP_FAULTS), None),
    ),
]


@pytest.mark.parametrize("case,expected", CASES)
def test_plan_step_table(case, expected):
    kernel, query, shape, collect, root_words, needs_enumerators = case
    mode, decomposition, orbit = expected
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
