"""Unit tests for the ready queue."""

import pytest

from repro.rt import ConstantExecTime, Job, ReadyQueue, TaskSpec
from repro.rt.view import ProcessorState


def job(name="t", priority=1, release=0.0, exec_time=0.01, deadline=0.1, binding=None):
    spec = TaskSpec(
        name=name,
        priority=priority,
        relative_deadline=deadline,
        exec_model=ConstantExecTime(exec_time),
        processor_binding=binding,
    )
    return Job(task=spec, release_time=release, exec_time=exec_time)


def can_run_on(index):
    """The executor's dispatch filter for one processor (binding + affinity)."""
    processor = ProcessorState(index)
    return lambda j: processor.can_run(j.task)


class TestBasicOps:
    def test_push_len_iter(self):
        q = ReadyQueue()
        assert not q and len(q) == 0
        a, b = job("a"), job("b")
        q.push(a)
        q.push(b)
        assert len(q) == 2 and list(q) == [a, b]
        assert a in q

    def test_remove(self):
        q = ReadyQueue()
        a = job("a")
        q.push(a)
        q.remove(a)
        assert a not in q and len(q) == 0

    def test_jobs_snapshot_is_copy(self):
        q = ReadyQueue()
        q.push(job("a"))
        snapshot = q.jobs()
        snapshot.clear()
        assert len(q) == 1

    def test_clear_returns_jobs(self):
        q = ReadyQueue()
        a, b = job("a"), job("b")
        q.push(a)
        q.push(b)
        removed = q.clear()
        assert removed == [a, b] and len(q) == 0

    def test_total_exec_time(self):
        q = ReadyQueue()
        q.push(job("a", exec_time=0.01))
        q.push(job("b", exec_time=0.02))
        assert q.total_exec_time() == pytest.approx(0.03)


def everywhere(j):
    return True


class TestPopBest:
    def test_pop_best_minimizes_key(self):
        q = ReadyQueue()
        lo = job("lo", priority=1)
        hi = job("hi", priority=5)
        q.push(hi)
        q.push(lo)
        ranking = q.ranked(lambda j: j.task.priority)
        picked = q.pop_best(ranking, everywhere)
        assert picked is lo
        assert hi in q and ranking == [hi]

    def test_pop_best_tie_breaks_by_insertion(self):
        q = ReadyQueue()
        first = job("first", priority=2)
        second = job("second", priority=2)
        q.push(first)
        q.push(second)
        ranking = q.ranked(lambda j: j.task.priority)
        assert q.pop_best(ranking, everywhere) is first

    def test_pop_best_empty_returns_none(self):
        assert ReadyQueue().pop_best([], everywhere) is None

    def test_pop_best_respects_binding(self):
        q = ReadyQueue()
        bound = job("bound", priority=1, binding=0)
        free = job("free", priority=5)
        q.push(bound)
        q.push(free)
        ranking = q.ranked(lambda j: j.task.priority)
        # Processor 1 cannot run the bound job even though it ranks better.
        picked = q.pop_best(ranking, can_run_on(1))
        assert picked is free
        # Processor 0 may run it, from the same round's ranking.
        picked0 = q.pop_best(ranking, can_run_on(0))
        assert picked0 is bound
        assert not q and ranking == []

    def test_pop_best_no_eligible_returns_none(self):
        q = ReadyQueue()
        q.push(job("bound", binding=0))
        assert q.pop_best(list(q), can_run_on(3)) is None
        assert len(q) == 1

    def test_pop_best_checks_eligibility_lazily(self):
        q = ReadyQueue()
        jobs = [job(f"t{i}", priority=i) for i in range(5)]
        for j in reversed(jobs):
            q.push(j)
        checked = []

        def eligible(j):
            checked.append(j)
            return j.task.priority >= 1

        ranking = q.ranked(lambda j: j.task.priority)
        assert q.pop_best(ranking, eligible) is jobs[1]
        assert checked == jobs[:2]


class TestTaskIndex:
    def test_release_order_after_removing_from_the_middle(self):
        q = ReadyQueue()
        jobs = [job(f"t{i % 2}") for i in range(6)]
        for j in jobs:
            q.push(j)
        q.remove(jobs[2])
        q.remove(jobs[3])
        assert list(q) == [jobs[0], jobs[1], jobs[4], jobs[5]]
        assert q.jobs() == list(q)
        late = job("t0")
        q.push(late)
        assert list(q)[-1] is late
        assert q.oldest("t0") is jobs[0]

    def test_count_and_oldest_through_eviction(self):
        q = ReadyQueue()
        a = [job("a") for _ in range(3)]
        b = job("b")
        for j in (a[0], b, a[1], a[2]):
            q.push(j)
        assert q.count("a") == 3 and q.count("b") == 1
        assert q.oldest("a") is a[0]
        # Bounded-channel eviction as the executor does it.
        q.remove(q.oldest("a"))
        assert q.count("a") == 2 and q.oldest("a") is a[1]
        q.remove(a[2])
        assert q.count("a") == 1 and q.oldest("a") is a[1]
        q.remove(a[1])
        assert q.count("a") == 0 and q.oldest("a") is None
        assert q.count("missing") == 0 and q.oldest("missing") is None

    def test_count_and_oldest_through_drop_expired(self):
        q = ReadyQueue()
        stale = job("a", release=0.0, deadline=0.05)
        fresh = job("a", release=0.4, deadline=1.0)
        q.push(stale)
        q.push(fresh)
        assert q.drop_expired(now=0.5) == [stale]
        assert q.count("a") == 1 and q.oldest("a") is fresh

    def test_count_and_oldest_after_clear(self):
        q = ReadyQueue()
        a, b = job("a"), job("b")
        q.push(a)
        q.push(b)
        assert q.clear() == [a, b]
        assert q.count("a") == 0 and q.oldest("b") is None
        q.push(a)
        assert q.count("a") == 1 and list(q) == [a]

    def test_contains(self):
        q = ReadyQueue()
        a, b = job("a"), job("a")
        q.push(a)
        assert a in q and b not in q
        q.push(b)
        q.remove(a)
        assert a not in q and b in q
        assert q.pop_best(list(q), everywhere) is b
        assert b not in q


class TestDropExpired:
    def test_drop_expired_removes_and_returns(self):
        q = ReadyQueue()
        fresh = job("fresh", release=1.0, deadline=1.0)
        stale = job("stale", release=0.0, deadline=0.05)
        q.push(fresh)
        q.push(stale)
        dropped = q.drop_expired(now=0.5)
        assert dropped == [stale]
        assert list(q) == [fresh]

    def test_drop_expired_boundary_is_inclusive(self):
        q = ReadyQueue()
        edge = job("edge", release=0.0, deadline=0.5)
        q.push(edge)
        assert q.drop_expired(now=0.5) == [edge]

    def test_drop_expired_none(self):
        q = ReadyQueue()
        q.push(job("a", release=0.0, deadline=10.0))
        assert q.drop_expired(now=0.1) == []
