"""The tracer: self-time arithmetic, seam resolution, missing seams."""

import layers
import spans
from spans import SEAMS, Seam, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_call_tree(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    tracer = Tracer(seams=())

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        hot_leaf()
        hot_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        coarse_middle()
        hot_leaf()

    hot_leaf = tracer.wrap("leaf", leaf, hot=True)
    coarse_middle = tracer.wrap("middle", middle)
    tracer.tag = "w/rep-0"
    with tracer.span("root"):
        outer()
        clock.now += 0.25

    rows = {(name, parent): (calls, total, self_s)
            for name, parent, calls, total, self_s in tracer.rows("w/")}
    # middle: 2.0 + two 1.0 leaves + 0.5 = 4.5 total, 2.5 self.
    assert rows[("middle", "root")] == (1, 4.5, 2.5)
    assert rows[("leaf", "middle")] == (2, 2.0, 2.0)
    assert rows[("leaf", "root")] == (1, 1.0, 1.0)
    # root: 3.0 + 4.5 + 1.0 + 0.25 = 8.75 total; self excludes both children.
    assert rows[("root", None)] == (1, 8.75, 3.25)
    # Self times telescope to the root's duration.
    assert sum(r[2] for r in rows.values()) == 8.75
    assert layers.self_time_share(tracer, "w/", 8.75) == 1.0
    # Another repetition's id does not match the prefix.
    assert list(tracer.rows("other/")) == []


def test_exception_still_closes_the_span(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    tracer = Tracer(seams=())

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    wrapped = tracer.wrap("boom", boom, hot=True)
    with tracer.span("root"):
        try:
            wrapped()
        except ValueError:
            pass
        clock.now += 1.0
    rows = {name: self_s for name, _, _, _, self_s in tracer.rows()}
    assert rows == {"root": 1.0, "boom": 1.0}


def test_every_seam_resolves_at_head_and_uninstall_restores():
    import repro.apps  # noqa: F401  (loads every module that aliases a seam)
    import repro.core.fractoid as fractoid
    import repro.runtime.driver as driver

    original = driver.execute_plan
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
        assert driver.execute_plan is not original
        # The ``from ..runtime.driver import execute_plan`` copy is rebound too.
        assert fractoid.execute_plan is driver.execute_plan
    finally:
        tracer.uninstall()
    assert driver.execute_plan is original
    assert fractoid.execute_plan is original


def test_traced_run_counts_calls_through_the_public_path():
    from repro import FractalContext
    from repro.apps import motifs
    from repro.graph import mico_like

    graph = mico_like(scale=0.1)
    plain = motifs(FractalContext().from_graph(graph), 3)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.tag = "t/0"
        with tracer.span("apps.motifs"):
            traced = motifs(FractalContext().from_graph(graph), 3)
    finally:
        tracer.uninstall()
    assert traced == plain
    calls = {}
    for name, _, n, _, _ in tracer.rows("t/"):
        calls[name] = calls.get(name, 0) + n
    assert calls["runtime.driver.execute_plan"] == 1
    assert calls["runtime.backend.run_step"] == 1
    assert calls["pattern.interner.intern"] == sum(plain.values())
    assert calls["core.aggregation.add"] == sum(plain.values())
    assert "core.intersect.intersect_slices" not in calls


def _collected(tracer):
    return layers.Collected(
        engine="sequential", num_procs=2, tracer=tracer,
        traced_reps=[{"tag": "w/0", "wall": 1.0, "host_factor": 1.0,
                      "reports": [], "interner": (0, 0), "op_records": []}],
        untraced_walls=[1.0], untraced_cpu_s=1.0,
        setup={"load_s": 0.1, "index_build_s": 0.1, "vertices": 1, "edges": 1},
        shm=None, sequential_run=None, worker_peak_rss_mb=0.0,
    )


def test_missing_seam_is_unavailable_never_zero():
    broken = Seam("core.enumerator.plan_matching_order",
                  "repro.core.enumerator", "no_such_function")
    tracer = Tracer(seams=SEAMS + (broken,))
    tracer.install()
    tracer.uninstall()
    assert list(tracer.missing) == ["core.enumerator.plan_matching_order"]
    metrics = layers.compute(_collected(tracer))
    value = metrics["pattern.plan_order_s"]
    assert isinstance(value, layers.Unavailable)
    assert "no_such_function" in value
    # A seam that resolved and was never called is a measured zero.
    assert metrics["pattern.symmetry_plan_s"] == 0.0


def test_compute_names_every_declared_metric():
    from names import PER_LAYER

    tracer = Tracer(seams=())
    assert set(layers.compute(_collected(tracer))) == {m.name for m in PER_LAYER}
