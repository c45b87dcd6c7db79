"""Exact mode: the walker's cycle structure with closed-form line minimization
on a quadratic ``f(x) = 0.5 (x - x*)^T H (x - x*)``.

This is Powell's (1964, *Computer Journal* 7(2)) construction, the oracle
behind criterion 4's conjugacy check and `tests/test_rsp.py`.  Neither route
runs it.  It takes the slot map and the determinant guard from
`directseek.core`, as both routes do: the newest direction is walked first
and last, and the cycle's candidate drops the opening line minimization's
travel, measuring the displacement between the two minima found along the
re-explored direction.  That is the parallel-subspace construction that
makes accepted candidates mutually conjugate on quadratics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from directseek.core import active_slot, passes_determinant_guard


def spd_hessian(n: int, seed: int, eig_range=(1.0, 10.0)) -> np.ndarray:
    """The ``H`` of ``core.make_random_spd_quadratic(n, seed, eig_range)``,
    rebuilt bit for bit from its seeded construction."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(eig_range[0], eig_range[1], size=n)
    H = q @ np.diag(eigs) @ q.T
    return 0.5 * (H + H.T)


def exact_line_search(H, x_star, x, direction) -> float:
    """Closed-form step ``t* = -(H (x - x*))^T d / (d^T H d)`` to the minimum
    along ``direction``; raises ``ValueError`` unless the quadratic is
    strictly convex along it."""
    d = np.asarray(direction, dtype=float)
    den = float(d @ H @ d)
    if den <= 0.0:
        raise ValueError(
            f"objective is not strictly convex along the direction (d^T H d = {den})"
        )
    r = np.asarray(x, dtype=float) - x_star
    return -float((H @ r) @ d) / den


@dataclass
class CandidateRecord:
    """One cycle-end direction candidate."""

    cycle: int
    candidate: np.ndarray
    accepted: bool
    re_explored: np.ndarray
    prior_accepted: list[np.ndarray]


@dataclass
class ExactCycleReport:
    """Trace of `exact_cycles`: the iterate after each line minimization,
    the cycle-end candidates, and the final point."""

    positions: list[np.ndarray]
    candidates: list[CandidateRecord]
    final_x: np.ndarray
    line_minimizations: int


def exact_cycles(
    H, x_star, x0, directions, cycles: int = 1, extra_lms: int = 0,
    delta_det: float = 1e-3,
) -> ExactCycleReport:
    """Run ``cycles`` cycles of ``n + 1`` exact line minimizations from
    ``x0``, then ``extra_lms`` more into the next cycle."""
    x = np.asarray(x0, dtype=float)
    dirs = [np.asarray(d, dtype=float).copy() for d in directions]
    n = len(dirs)
    positions: list[np.ndarray] = []
    candidates: list[CandidateRecord] = []
    accepted_hist: list[np.ndarray] = []
    alpha = np.zeros(n)
    total = cycles * (n + 1) + extra_lms
    lm = 0
    cyc = 0
    while lm < total:
        for c in range(n + 1):
            if lm >= total:
                break
            v = dirs[active_slot(c, n)]
            t = exact_line_search(H, x_star, x, v)
            x = x + t * v
            positions.append(x.copy())
            lm += 1
            if c == 0:
                alpha = np.zeros(n)
            elif c < n:
                alpha = alpha + t * v
            else:
                candidate = alpha + t * v
                accept = passes_determinant_guard(dirs[1:], candidate, delta_det)
                candidates.append(
                    CandidateRecord(
                        cycle=cyc,
                        candidate=candidate.copy(),
                        accepted=accept,
                        re_explored=dirs[n - 1].copy(),
                        prior_accepted=[a.copy() for a in accepted_hist],
                    )
                )
                new_dir = candidate if accept else dirs[0].copy()
                if accept:
                    accepted_hist.append(candidate.copy())
                dirs = [d.copy() for d in dirs[1:]] + [new_dir]
                alpha = np.zeros(n)
        cyc += 1
    return ExactCycleReport(
        positions=positions,
        candidates=candidates,
        final_x=x.copy(),
        line_minimizations=lm,
    )
