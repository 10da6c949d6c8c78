"""Fault tolerance of the real-parallelism backend.

The invariant under test is the multiprocess analogue of the paper's
from-scratch recovery claim: under any *survivable* fault schedule —
worker processes SIGKILLed mid-step, frozen with SIGSTOP, sleeping past
the supervision deadline, result messages dropped, chunks that kill
every worker that leases them — aggregate results are byte-identical to
a fault-free run, and the step finishes within a bounded wall-clock
deadline instead of hanging.  Faults here are *real* (signals delivered
to live processes), driven by the same declarative ``FaultPlan`` the
simulator uses.
"""

import multiprocessing
import signal
import warnings
from contextlib import contextmanager

import pytest

from repro import ClusterConfig, FractalContext, MultiprocessConfig
from repro.apps import motifs
from repro.graph import erdos_renyi_graph, mico_like
from repro.runtime.faults import (
    FaultPlan,
    MpDropResult,
    MpPoisonChunk,
    MpWorkerKill,
    MpWorkerStall,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="multiprocess backend requires fork start method"
)

# Every schedule must finish well within this bound; a hang here means
# the supervision loop lost a chunk or a join blocked forever.
DEADLINE_SECONDS = 90


@contextmanager
def deadline(seconds=DEADLINE_SECONDS):
    def on_alarm(signum, frame):
        raise TimeoutError(
            f"chaos schedule exceeded the {seconds}s wall-clock deadline"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(40, 110, n_labels=2, seed=3)


def _census(graph, engine):
    """Motif census keyed by canonical code; returns (counts, report)."""
    context = FractalContext(engine=engine)
    fg = context.from_graph(graph)
    view = (
        fg.vfractoid()
        .expand(3)
        .aggregate(
            "motifs",
            key_fn=lambda s, c: s.pattern(),
            value_fn=lambda s, c: 1,
            reduce_fn=lambda a, b: a + b,
        )
        .aggregation("motifs")
    )
    counts = {k.canonical_code(): v for k, v in view.items()}
    return counts, context.last_report


@pytest.fixture(scope="module")
def baseline(graph):
    """Fault-free simulator run — the byte-identity reference."""
    counts, _ = _census(graph, ClusterConfig(workers=2, cores_per_worker=2))
    return counts


# ---------------------------------------------------------------------------
# The chaos matrix: (name, num_procs, worker_timeout, plan).
# Timeouts are tight (~1 s) so hang/straggler detection fires fast; the
# injected sleeps either fit under the deadline (recovered straggler,
# no kill) or deliberately blow past it.
# ---------------------------------------------------------------------------
CHAOS_MATRIX = [
    (
        "kill_first_chunk",
        2, 5.0,
        FaultPlan(mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=0),)),
    ),
    (
        "kill_after_two_chunks",
        2, 5.0,
        FaultPlan(mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=2),)),
    ),
    (
        "kill_two_of_three_workers",
        3, 5.0,
        FaultPlan(mp_worker_kills=(
            MpWorkerKill(worker_id=0, after_chunks=0),
            MpWorkerKill(worker_id=1, after_chunks=1),
        )),
    ),
    (
        "stall_below_timeout",
        2, 5.0,
        FaultPlan(mp_worker_stalls=(
            MpWorkerStall(worker_id=0, after_chunks=1, seconds=0.3),
        )),
    ),
    (
        "stall_past_timeout",
        2, 1.0,
        FaultPlan(mp_worker_stalls=(
            MpWorkerStall(worker_id=0, after_chunks=1, seconds=4.0),
        )),
    ),
    (
        "freeze_sigstop",
        2, 1.0,
        FaultPlan(mp_worker_stalls=(
            MpWorkerStall(worker_id=1, after_chunks=0, seconds=600.0,
                          freeze=True),
        )),
    ),
    (
        "drop_first_result",
        2, 1.0,
        FaultPlan(mp_drop_results=(
            MpDropResult(worker_id=1, chunk_number=0),
        )),
    ),
    (
        "drop_two_results",
        2, 1.0,
        FaultPlan(mp_drop_results=(
            MpDropResult(worker_id=0, chunk_number=1),
            MpDropResult(worker_id=1, chunk_number=0),
        )),
    ),
    (
        "poison_chunk",
        2, 2.0,
        FaultPlan(mp_poison_chunks=(MpPoisonChunk(chunk_index=2),)),
    ),
    (
        "poison_plus_kill",
        3, 2.0,
        FaultPlan(
            mp_poison_chunks=(MpPoisonChunk(chunk_index=0),),
            mp_worker_kills=(MpWorkerKill(worker_id=2, after_chunks=1),),
        ),
    ),
    (
        "kill_stall_drop_mixed",
        3, 1.0,
        FaultPlan(
            mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=1),),
            mp_worker_stalls=(
                MpWorkerStall(worker_id=1, after_chunks=2, seconds=4.0),
            ),
            mp_drop_results=(MpDropResult(worker_id=2, chunk_number=0),),
        ),
    ),
    (
        "seeded_plan",
        2, 2.0,
        FaultPlan.from_seed_mp(11, 2, stall_seconds=0.2),
    ),
]


@needs_fork
class TestChaosMatrix:
    @pytest.mark.parametrize(
        "name,num_procs,timeout,plan",
        CHAOS_MATRIX,
        ids=[case[0] for case in CHAOS_MATRIX],
    )
    def test_counts_identical_under_faults(
        self, graph, baseline, name, num_procs, timeout, plan
    ):
        config = MultiprocessConfig(
            num_procs=num_procs,
            worker_timeout=timeout,
            fault_plan=plan,
        )
        with deadline():
            counts, report = _census(graph, config)
        assert counts == baseline
        summary = report.backend_summary()
        assert summary["backend"] == "multiprocess"
        # Recovery ledger mirrors the metrics counters exactly.
        assert summary["workers_lost"] == report.metrics.workers_lost
        assert summary["chunks_reexecuted"] == report.metrics.chunks_reexecuted
        assert summary["chunks_quarantined"] == (
            report.metrics.chunks_quarantined
        )

    def test_fault_free_run_reports_zero_recovery(self, graph, baseline):
        with deadline():
            counts, report = _census(graph, MultiprocessConfig(num_procs=2))
        assert counts == baseline
        summary = report.backend_summary()
        assert summary["workers_lost"] == 0
        assert summary["workers_respawned"] == 0
        assert summary["chunks_reexecuted"] == 0
        assert summary["chunks_quarantined"] == 0
        assert "degraded_to" not in summary

    def test_kill_is_detected_and_respawned(self, graph, baseline):
        plan = FaultPlan(
            mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=0),)
        )
        with deadline():
            counts, report = _census(
                graph,
                MultiprocessConfig(
                    num_procs=2, worker_timeout=5.0, fault_plan=plan
                ),
            )
        assert counts == baseline
        assert report.metrics.workers_lost >= 1
        assert report.metrics.workers_respawned >= 1
        assert report.metrics.chunks_reexecuted >= 1

    def test_short_stall_recovers_without_kill(self, graph, baseline):
        plan = FaultPlan(
            mp_worker_stalls=(
                MpWorkerStall(worker_id=0, after_chunks=0, seconds=0.2),
            )
        )
        with deadline():
            counts, report = _census(
                graph,
                MultiprocessConfig(
                    num_procs=2, worker_timeout=10.0, fault_plan=plan
                ),
            )
        assert counts == baseline
        # The stall fit inside the lease deadline: a straggler that
        # catches up is not a fault.
        assert report.metrics.workers_lost == 0
        assert report.metrics.chunks_reexecuted == 0

    def test_poison_chunk_is_quarantined(self, graph, baseline):
        plan = FaultPlan(mp_poison_chunks=(MpPoisonChunk(chunk_index=1),))
        with deadline():
            counts, report = _census(
                graph,
                MultiprocessConfig(
                    num_procs=2,
                    worker_timeout=2.0,
                    max_chunk_retries=1,
                    fault_plan=plan,
                ),
            )
        assert counts == baseline
        assert report.metrics.chunks_quarantined >= 1
        # The poison chunk killed a worker per lease attempt.
        assert report.metrics.workers_lost >= 2


@needs_fork
class TestInjectedKillFlushesResults:
    """An injected kill lets the result queue's feeder thread flush before
    SIGKILL.  Killed mid-write, a worker left the queue's cross-process
    lock held: the survivor stalled until its lease timed out and the
    step degraded — about 1 run in 12-24 of this loop without the flush.
    """

    RUNS = 24
    # A clean run takes ~0.15 s on 2 cpus; one wedge costs seconds.
    WALL_SECONDS = 30

    def test_poison_chunk_loop_never_wedges(self):
        graph = mico_like(0.5)
        reference = motifs(FractalContext().from_graph(graph), 3)
        plan = FaultPlan(mp_poison_chunks=(MpPoisonChunk(chunk_index=2),))
        with deadline(self.WALL_SECONDS):
            for run in range(self.RUNS):
                context = FractalContext(
                    engine=MultiprocessConfig(
                        num_procs=2, worker_timeout=1.0, fault_plan=plan
                    )
                )
                assert motifs(context.from_graph(graph), 3) == reference, run
                summary = context.last_report.backend_summary()
                assert "degraded_to" not in summary, (run, summary)


@needs_fork
class TestDegradationLadder:
    def test_total_worker_loss_degrades_to_sequential(self, graph, baseline):
        # One slot, no respawn budget, a poison chunk: the slot dies,
        # cannot be replaced, and the whole remainder of the step must
        # run in-driver — with a warning, not an exception.
        plan = FaultPlan(mp_poison_chunks=(MpPoisonChunk(chunk_index=0),))
        config = MultiprocessConfig(
            num_procs=1,
            worker_timeout=2.0,
            max_worker_retries=0,
            max_chunk_retries=0,
            fault_plan=plan,
        )
        with deadline():
            with pytest.warns(RuntimeWarning, match="respawn") as caught:
                counts, report = _census(graph, config)
        assert counts == baseline
        summary = report.backend_summary()
        assert summary["degraded_to"] == "sequential"
        warning = str(caught.pop(RuntimeWarning).message)
        assert warning.startswith(summary["degraded_reason"])
        assert report.metrics.workers_lost >= 1

    def test_degrade_never_raises_instead(self, graph):
        plan = FaultPlan(mp_poison_chunks=(MpPoisonChunk(chunk_index=0),))
        config = MultiprocessConfig(
            num_procs=1,
            worker_timeout=2.0,
            max_worker_retries=0,
            max_chunk_retries=0,
            degrade="never",
            fault_plan=plan,
        )
        with deadline():
            with pytest.raises(RuntimeError, match="respawn"):
                _census(graph, config)

    def test_quarantine_alone_is_not_degradation(self, graph, baseline):
        # Survivable poison with respawn budget left: the step stays on
        # real workers, only the poison chunk moves in-driver.
        plan = FaultPlan(mp_poison_chunks=(MpPoisonChunk(chunk_index=0),))
        config = MultiprocessConfig(
            num_procs=2,
            worker_timeout=2.0,
            max_chunk_retries=0,
            fault_plan=plan,
        )
        with deadline():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                counts, report = _census(graph, config)
        assert counts == baseline
        assert "degraded_to" not in report.backend_summary()
        assert report.metrics.chunks_quarantined == 1
