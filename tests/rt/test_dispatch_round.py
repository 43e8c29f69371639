"""One ranking per dispatch round: equivalence with per-processor ``min``.

The executor ranks the ready queue once per round and lets each free
processor take the first job of that ranking it is eligible for.  The
property test pins that this hands out exactly the jobs the per-processor
rule ``min((j for j in queue if eligible(j, p)), key=rank)`` would, with
ties broken toward the earlier release.  The counting test pins the rank
contract: one ``rank`` call per queued job per round, after
``on_dispatch_round``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt import ConstantExecTime, Job, ReadyQueue, RTExecutor, SimConfig, TaskSpec
from repro.rt.view import ProcessorState
from repro.schedulers import EDFScheduler
from tests.conftest import build_diamond_graph

UNIT_TYPES = ("CPU", "GPU")

queued_job = st.tuples(
    st.integers(0, 3),  # rank key: a small range, so ties are common
    st.sampled_from((None, None, 0, 1, 2)),  # static binding
    st.sampled_from((None, None, ("CPU",), ("GPU",), ("CPU", "GPU"))),  # affinity
)
free_processor = st.tuples(st.integers(0, 2), st.sampled_from(UNIT_TYPES))


def _job(i: int, binding, affinity) -> Job:
    spec = TaskSpec(
        f"t{i}",
        priority=1,
        relative_deadline=1.0,
        exec_model=ConstantExecTime(0.01),
        processor_binding=binding,
        affinity=affinity,
    )
    return Job(task=spec, release_time=0.0, exec_time=0.01)


@settings(max_examples=300, deadline=None)
@given(
    jobs=st.lists(queued_job, max_size=12),
    procs=st.lists(free_processor, min_size=1, max_size=3, unique_by=lambda p: p[0]),
)
def test_ranked_round_matches_per_processor_min(jobs, procs):
    queue = ReadyQueue()
    key = {}
    for i, (k, binding, affinity) in enumerate(jobs):
        job = _job(i, binding, affinity)
        key[job.job_id] = k
        queue.push(job)
    free = [ProcessorState(index, unit_type=unit) for index, unit in procs]

    def rank(j: Job) -> int:
        return key[j.job_id]

    # Reference: the per-processor rule over the remaining queue.
    remaining = queue.jobs()
    expected = []
    for proc in free:
        if not remaining:
            break
        candidates = [j for j in remaining if proc.can_run(j.task)]
        best = min(candidates, key=rank) if candidates else None
        if best is not None:
            remaining.remove(best)
        expected.append(best)

    # The executor's round: rank once, walk the ranking per processor.
    ranking = queue.ranked(rank)
    picked = []
    for proc in free:
        if not queue:
            break
        picked.append(queue.pop_best(ranking, lambda j: proc.can_run(j.task)))

    assert picked == expected
    assert queue.jobs() == remaining
    assert ranking == sorted(remaining, key=rank)


class CountingEDF(EDFScheduler):
    """EDF that checks the rank contract on every dispatch round."""

    def __init__(self) -> None:
        super().__init__()
        self.rounds = 0
        self.expected = 0
        self.calls = 0
        self.max_depth = 0
        self.mismatches = []

    def _close_round(self) -> None:
        if self.calls != self.expected:
            self.mismatches.append((self.rounds, self.expected, self.calls))

    def on_dispatch_round(self, now, view):
        self._close_round()
        self.rounds += 1
        self.expected = len(view.ready)
        self.max_depth = max(self.max_depth, self.expected)
        self.calls = 0

    def rank(self, job, now, view):
        assert self.rounds > 0, "rank called before on_dispatch_round"
        self.calls += 1
        return super().rank(job, now, view)


def test_rank_called_once_per_queued_job_per_round():
    scheduler = CountingEDF()
    executor = RTExecutor(
        build_diamond_graph(rate=20.0),
        scheduler,
        SimConfig(n_processors=1, horizon=2.0, seed=3),
    )
    executor.run()
    scheduler._close_round()
    assert scheduler.rounds > 0 and scheduler.max_depth > 1
    assert scheduler.mismatches == []
