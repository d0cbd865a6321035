"""Pointwise oracles of primeavg.multiplier's grid paths.

a_hat, l_hat and the approximant evaluated one frequency at a time, straight
from their defining sums.  No command runs them; the tests pin every grid
and transform path to them.
"""

from __future__ import annotations

import numpy as np

from primeavg.expsums import FareyPoint
from primeavg.multiplier import CUTOFF_OUTER, _warn_qcut, _weighted_support, cutoff, farey_points, m_hat
from primeavg.tables import Progression, phi


def a_hat(theta: float, N: int, prog: Progression) -> complex:
    """(phi(y)/N) sum over n < N, n = b mod y, of Lambda(n) e(-n theta)."""
    n, w = _weighted_support(N, prog)
    phi_y = phi(prog.y)
    return complex((phi_y / N) * np.sum(w * np.exp(-2j * np.pi * theta * n)))


def _torus_offset(xi: float, center: float) -> float:
    return (xi - center + 0.5) % 1.0 - 0.5


def l_hat(
    xi: float,
    point: FareyPoint,
    N: int,
    prog: Progression,
) -> complex:
    """One major-arc term: Upsilon * average at lcm spacing * cutoff at scale lcm^2."""
    if point.y != prog.y or point.b != prog.b:
        raise ValueError("FareyPoint built for a different progression context")
    if point.height == 0:
        return 0j
    ell = point.ell
    d = _torus_offset(xi, point.center)
    if abs(d) >= CUTOFF_OUTER / ell**2:
        return 0j
    return complex(point.upsilon * m_hat(ell * d, N / ell) * cutoff(ell * ell * d))


def approximant_hat(
    xi: float,
    N: int,
    prog: Progression,
    q_cut: int,
    points: list[FareyPoint] | None = None,
) -> complex:
    """Sum of l_hat over Farey points with q < q_cut (warn when q_cut > N^{1/10})."""
    _warn_qcut(q_cut, N)
    if points is None:
        points = farey_points(q_cut - 1, prog) if q_cut > 1 else []
    total = 0j
    for p in points:
        if p.q < q_cut and p.height > 0:
            total += l_hat(xi, p, N, prog)
    return total
