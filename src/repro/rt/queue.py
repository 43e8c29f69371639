"""Ready queue shared by all schedulers.

The ready queue holds released-but-not-yet-dispatched jobs.  Jobs from
different control cycles coexist (paper Fig. 3), so the queue is an unordered
pool that schedulers rank at dispatch time with their own key functions — a
static heap would be wrong, because HCPerf's dynamic priority depends on
``now`` and on the current ``γ``.

Rank contract: the executor calls ``Scheduler.rank`` once per queued job
per dispatch round, after ``Scheduler.on_dispatch_round``, and sorts the
queue by it stably (:meth:`ReadyQueue.ranked`; ties keep release order).
Each free processor then takes the first job of that ranking it is
eligible for (:meth:`ReadyQueue.pop_best`).  A rank must therefore not
depend on processor state that changes within a round.

Jobs live in an insertion-ordered dict keyed by ``job_id`` plus one such
dict per task, so removal is O(1), iteration stays in release order, and
the executor's bounded-channel eviction reads a task's queued count and
oldest job without scanning the queue.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from .task import Job

__all__ = ["ReadyQueue"]


class ReadyQueue:
    """Pool of ready jobs, iterated in release order.

    The queue preserves insertion (release) order for determinism: when two
    jobs tie under a scheduler's key, the earlier-released job wins.
    """

    def __init__(self) -> None:
        self._jobs: Dict[int, Job] = {}
        self._by_task: Dict[str, Dict[int, Job]] = {}

    def push(self, job: Job) -> None:
        """Add a released job to the pool."""
        self._jobs[job.job_id] = job
        bucket = self._by_task.get(job.task.name)
        if bucket is None:
            bucket = self._by_task[job.task.name] = {}
        bucket[job.job_id] = job

    def remove(self, job: Job) -> None:
        """Remove a specific job (after dispatch or drop)."""
        del self._jobs[job.job_id]
        del self._by_task[job.task.name][job.job_id]

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._jobs

    def jobs(self) -> List[Job]:
        """Snapshot of queued jobs in release order."""
        return list(self._jobs.values())

    def count(self, task_name: str) -> int:
        """Number of queued jobs of one task."""
        bucket = self._by_task.get(task_name)
        return len(bucket) if bucket else 0

    def oldest(self, task_name: str) -> Optional[Job]:
        """The earliest-released queued job of one task, or ``None``."""
        bucket = self._by_task.get(task_name)
        return next(iter(bucket.values())) if bucket else None

    def ranked(self, key: Callable[[Job], float]) -> List[Job]:
        """Queued jobs sorted by ``key``, one call per job; ties keep release order."""
        return sorted(self._jobs.values(), key=key)

    def pop_best(
        self, ranking: List[Job], eligible: Callable[[Job], bool]
    ) -> Optional[Job]:
        """Remove and return the first job of ``ranking`` that ``eligible`` admits.

        ``ranking`` is this round's :meth:`ranked` queue (see the module
        docstring); the chosen job is deleted from it too, so one ranking
        serves every free processor of the round.
        ``eligible`` is the scheduler's check for one processor (static
        binding + typed-unit affinity), called lazily in rank order.
        Returns ``None`` when no job is eligible.
        """
        for i, job in enumerate(ranking):
            if eligible(job):
                del ranking[i]
                self.remove(job)
                return job
        return None

    def drop_expired(self, now: float) -> List[Job]:
        """Remove and return jobs whose absolute deadline already passed.

        The paper discards the output of a task that cannot complete within
        its deadline; dropping such jobs before they occupy a processor is
        what keeps the queue bounded under overload (DESIGN.md §2).
        """
        expired = [j for j in self._jobs.values() if j.is_expired(now)]
        for job in expired:
            self.remove(job)
        return expired

    def total_exec_time(self) -> float:
        """Sum of the sampled execution times of all queued jobs."""
        return sum(j.exec_time for j in self._jobs.values())

    def clear(self) -> List[Job]:
        """Empty the queue, returning the removed jobs."""
        jobs = list(self._jobs.values())
        self._jobs.clear()
        self._by_task.clear()
        return jobs
