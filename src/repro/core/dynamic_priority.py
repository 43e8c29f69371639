"""Dynamic Priority Scheduler core (paper §V).

Every ready job gets a *dynamic scheduling priority*

    P_i = γ · p_i + d_i                                        (Eq. 10)

where ``p_i`` is the configured priority and ``d_i`` the scheduling deadline
``D_i − c_i`` (Eq. 9) — realized here as the absolute latest-start slack
``release_i + D_i − c_i − now`` so that jobs from different control cycles
are comparable (DESIGN.md §2).  Small γ ≈ deadline-driven (EDF-like); large
γ ≈ priority-driven (HPF-like).

γ is bounded by the largest value for which the ready queue remains
schedulable under the workload-conservation test of Eq. (11):

    c_j + ΣT_p/n_p + Σ_{P_i < P_j} c_i / n_p  <  D_j  (remaining)

``γ_max`` is the largest point of a ``resolution``-point grid over
``[0, gamma_cap]`` that passes the test.  The search computes each job's
``(p_i, slack_i, c_i, remaining_i)`` once and tests the top grid point with
the scalar rule; the queues the coordinator sees are short and almost always
feasible there, so that one test usually settles it.  Only when the top
point fails is the whole grid tested at once in numpy (one stable argsort
per γ row, prefix sums for the backlog).  Both paths perform the same float
operations, in the same order, as the reference :meth:`is_feasible`, so the
result equals a top-down walk of the grid with it bit for bit.

The nominal parameter ``u`` from the MFC controller is finally clamped into
``[0, γ_max]`` (Eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..rt.task import Job

__all__ = [
    "DynamicPriorityConfig",
    "GammaSearchResult",
    "DynamicPriorityPolicy",
]

_PRIORITY = itemgetter(0)


@dataclass
class DynamicPriorityConfig:
    """Tuning of the γ search.

    Attributes
    ----------
    gamma_cap:
        Upper end of the γ search grid (``γ^max`` of constraint (1b)).
        γ multiplies the dimensionless priority ``p_i`` and is added to a
        *seconds*-scale slack, so the meaningful range is of order
        ``D_typical / p_spread`` — a few milliseconds of bias per priority
        level.  The default 0.02 spans from pure deadline-driven to fully
        priority-driven for deadlines up to ~100 ms and priorities up to 10.
    resolution:
        Number of grid points over ``[0, gamma_cap]``.
    """

    gamma_cap: float = 0.02
    resolution: int = 64

    def __post_init__(self) -> None:
        if self.gamma_cap < 0:
            raise ValueError("gamma_cap must be >= 0")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")


@dataclass
class GammaSearchResult:
    """Outcome of one γ_max search."""

    gamma_max: Optional[float]  # None => even γ = 0 is infeasible (overload)
    gamma: float  # the applied coefficient after Eq. (12)
    overloaded: bool

    @property
    def feasible(self) -> bool:
        return self.gamma_max is not None


class DynamicPriorityPolicy:
    """Computes dynamic priorities and the bounded coefficient γ."""

    def __init__(self, config: Optional[DynamicPriorityConfig] = None) -> None:
        self.config = config or DynamicPriorityConfig()

    # ------------------------------------------------------------------
    # Priority arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def scheduling_slack(job: Job, now: float, exec_estimate: float) -> float:
        """Absolute form of the scheduling deadline ``d_i = D_i − c_i``.

        Time remaining until the job's latest feasible start; negative when
        the job can no longer finish on time.
        """
        return job.latest_start(exec_estimate) - now

    def dynamic_priority(
        self, job: Job, gamma: float, now: float, exec_estimate: float
    ) -> float:
        """``P_i = γ·p_i + d_i`` (Eq. 10); smaller runs first."""
        return gamma * job.task.priority + self.scheduling_slack(job, now, exec_estimate)

    # ------------------------------------------------------------------
    # Schedulability test (Eq. 11) — scalar reference
    # ------------------------------------------------------------------
    def is_feasible(
        self,
        gamma: float,
        jobs: Sequence[Job],
        now: float,
        exec_estimate: Callable[[Job], float],
        busy_remaining: float,
        n_processors: int,
    ) -> bool:
        """Check the Eq. (11) constraint set for a candidate γ.

        ``busy_remaining`` is ``ΣT_p`` — the total remaining processing time
        of jobs currently running; ``exec_estimate`` maps each queued job to
        its observed execution time ``c_i``.

        This is the reference implementation that :meth:`gamma_max` is
        tested against.  Both of its paths replay exactly these float
        operations (the backlog ``ahead`` accumulates one job at a time in
        priority order, matching an elementwise prefix sum).
        """
        if not jobs:
            return True
        n_p = max(1, n_processors)
        base = busy_remaining / n_p
        ranked = [
            (self.dynamic_priority(j, gamma, now, exec_estimate(j)), exec_estimate(j), j)
            for j in jobs
        ]
        # Sort once by P_i: the higher-priority workload ahead of job j is a
        # prefix sum, making the whole test O(n log n).
        ranked.sort(key=lambda item: item[0])
        ahead = 0.0
        i = 0
        n = len(ranked)
        while i < n:
            # Jobs with equal P_i do not count toward each other's backlog
            # (Eq. 11 uses a strict inequality P_i < P_j).
            j = i
            while j < n and ranked[j][0] == ranked[i][0]:
                j += 1
            for k in range(i, j):
                _, c_k, job_k = ranked[k]
                remaining_budget = job_k.absolute_deadline - now
                if c_k + base + ahead / n_p >= remaining_budget:
                    return False
            for k in range(i, j):
                ahead += ranked[k][1]
            i = j
        return True

    # ------------------------------------------------------------------
    # γ_max search
    # ------------------------------------------------------------------
    @staticmethod
    def _feasible_at(
        gamma: float,
        rows: List[Tuple[float, float, float, float]],
        base: float,
        n_p: int,
    ) -> bool:
        """Eq. (11) at one γ over prepared ``(p, slack, c, remaining)`` rows.

        The same float operations as :meth:`is_feasible`: a stable sort by
        ``P_i``, and a job's backlog is the running sum of ``c`` up to the
        start of its equal-``P_i`` group.
        """
        ranked = sorted(
            [(gamma * p + slack, c, rem) for p, slack, c, rem in rows], key=_PRIORITY
        )
        ahead = 0.0
        group_ahead = 0.0
        group_key = None
        for key, c, rem in ranked:
            if key != group_key:
                group_key = key
                group_ahead = ahead
            if c + base + group_ahead / n_p >= rem:
                return False
            ahead += c
        return True

    @staticmethod
    def _feasible_rows(
        priority_matrix: np.ndarray,
        order: np.ndarray,
        c: np.ndarray,
        rem: np.ndarray,
        base: float,
        n_p: int,
    ) -> np.ndarray:
        """Vectorized Eq. (11) over every row (γ point) of ``priority_matrix``.

        ``order`` is the stable ascending sort permutation of each row.  The
        backlog ahead of a job is the exclusive prefix sum of sorted ``c_i``
        gathered at the first index of the job's equal-``P_i`` group — the
        same one-at-a-time accumulation the scalar rule performs, so the
        comparison below is bit-identical to it.
        """
        shape = priority_matrix.shape
        rows = np.arange(shape[0])[:, None]
        p_sorted = priority_matrix[rows, order]
        c_sorted = c[order]
        rem_sorted = rem[order]
        ecum = np.zeros(shape)
        np.cumsum(c_sorted[:, :-1], axis=1, out=ecum[:, 1:])
        # First index of each equal-P_i group, per row.
        new_group = np.empty(shape, dtype=bool)
        new_group[:, 0] = True
        np.not_equal(p_sorted[:, 1:], p_sorted[:, :-1], out=new_group[:, 1:])
        cols = np.arange(shape[1])
        group_start = np.maximum.accumulate(np.where(new_group, cols, 0), axis=1)
        ahead = ecum[rows, group_start]
        infeasible = (c_sorted + base + ahead / n_p >= rem_sorted).any(axis=1)
        return ~infeasible

    def gamma_max(
        self,
        jobs: Sequence[Job],
        now: float,
        exec_estimate: Callable[[Job], float],
        busy_remaining: float,
        n_processors: int,
    ) -> Optional[float]:
        """Largest grid γ satisfying Eq. (11), or ``None`` when overloaded.

        Feasibility is *not* monotone in γ in general, but taking the
        largest feasible grid point implements the paper's "allowable range
        [0, γ_max]" faithfully for practical queues.  Equal to walking the
        grid from the top with :meth:`is_feasible` (property-tested).
        """
        cfg = self.config
        if not jobs:
            return cfg.gamma_cap
        n_p = max(1, n_processors)
        base = busy_remaining / n_p
        rows = []
        for job in jobs:
            est = exec_estimate(job)
            ad = job.absolute_deadline
            # slack replays latest_start(est) - now: ((release + D) - est) - now.
            rows.append((job.task.priority, (ad - est) - now, est, ad - now))
        # Grid points are i · step, the same floats the reference walk tests.
        step = cfg.gamma_cap / (cfg.resolution - 1)
        top = (cfg.resolution - 1) * step
        if self._feasible_at(top, rows, base, n_p):
            return top
        p, slack, c, rem = (np.array(col) for col in zip(*rows))
        gammas = np.arange(cfg.resolution) * step
        priority_matrix = gammas[:, None] * p + slack
        order = np.argsort(priority_matrix, axis=1, kind="stable")
        indices = np.nonzero(self._feasible_rows(priority_matrix, order, c, rem, base, n_p))[0]
        if indices.size == 0:
            return None
        return float(gammas[indices[-1]])

    # ------------------------------------------------------------------
    # Eq. (12): map nominal u to actual γ
    # ------------------------------------------------------------------
    @staticmethod
    def clamp_gamma(u: float, gamma_max: Optional[float]) -> float:
        """Clamp the nominal parameter into ``[0, γ_max]``.

        With no feasible γ (overload) the paper sets γ to zero — pure
        deadline-driven scheduling — and defers to the external coordinator.
        """
        if gamma_max is None:
            return 0.0
        if u < 0.0:
            return 0.0
        if u > gamma_max:
            return gamma_max
        return u

    def resolve(
        self,
        u: float,
        jobs: Sequence[Job],
        now: float,
        exec_estimate: Callable[[Job], float],
        busy_remaining: float,
        n_processors: int,
    ) -> GammaSearchResult:
        """Full §V pipeline: search γ_max, clamp u, flag overload."""
        gmax = self.gamma_max(jobs, now, exec_estimate, busy_remaining, n_processors)
        gamma = self.clamp_gamma(u, gmax)
        return GammaSearchResult(gamma_max=gmax, gamma=gamma, overloaded=gmax is None)
