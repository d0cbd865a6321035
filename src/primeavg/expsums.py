"""Ramanujan sums, their progression-restricted variants, Gauss sums and heights.

Two routes exist for every identity: a direct complex summation over reduced
residues, and a closed form.  The direct sums are treated as ground truth;
verification sweeps compare the two, vectorised, and report the worst
discrepancy.  The one, vectorised closed form of the progression Ramanujan
sum that the sweeps check also gives every Farey point its Upsilon.  The
pointwise sums and the identity checks that only tests call are the sweeps'
oracles, in tests/oracles.py.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tables import ArithTables, Progression, build_tables, reduced_residues

TWO_PI_I = 2j * math.pi


def _e(x):
    """e(x) = exp(2 pi i x)."""
    return np.exp(TWO_PI_I * x)


# ---------------------------------------------------------------------------
# Ramanujan sums


def _divisors(n: int) -> list[int]:
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


@functools.cache
def ramanujan_table(q: int) -> np.ndarray:
    """tau_q(x) for x in [0, q) as sum over d | q of d mu(q/d) [d | x]; index by x mod q.

    The closed form of ramanujan_sum_closed (tests/oracles.py), over the
    whole x array at once; mu comes from the cached tables, a view of any
    larger table sieved.
    """
    mobius, x = build_tables(q).mobius, np.arange(q)
    table = np.zeros(q, dtype=np.int64)
    for d in _divisors(q):
        table += d * int(mobius[q // d]) * (x % d == 0)
    table.setflags(write=False)
    return table


def verify_divisor_identity(rmax: int) -> tuple[int, int]:
    """(failures, pairs checked) of sum over d | r of tau_d(x) = r [r | x], over r <= rmax, x < 2r.

    Each r is one array sum of ramanujan_table rows over its divisors;
    divisor_tau_check in tests/oracles.py is the pointwise oracle.
    """
    bad = count = 0
    for r in range(1, rmax + 1):
        x = np.arange(2 * r)
        lhs = sum(ramanujan_table(d)[x % d] for d in _divisors(r))
        bad += int(np.count_nonzero(lhs != np.where(x % r == 0, r, 0)))
        count += 2 * r
    return bad, count


# ---------------------------------------------------------------------------
# Progression-restricted sums and Gauss sums


def _progression_residues(q: int, y: int, b: int) -> np.ndarray:
    """Reduced residues r mod q with r = b mod gcd(q, y)."""
    g = math.gcd(q, y)
    r = reduced_residues(q)
    return r[r % g == b % g]


def _cofactor_shift(g: int, q: int) -> int:
    """t with 1 - g*gbar = (q/g) t, gbar the inverse of g mod q/g (t = 1 at g = q)."""
    m = q // g
    gbar = pow(g, -1, m)
    return (1 - g * gbar) // m


def _degenerate(q, g):
    """Whether g = gcd(q, y) < q shares a factor with q/g, which zeroes the progression sums; ints or arrays."""
    gcd = np.gcd if isinstance(g, np.ndarray) else math.gcd  # a scalar np.gcd costs about 30 math.gcd calls
    return (g < q) & (gcd(g, q // g) > 1)


def progression_ramanujan_direct_batch(q: int, y: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Sums of e(ra/q) over r in A_q with r = b mod gcd(q, y), for valid tuples (q, y[i], b[i], a[i]) sharing q.

    The e(ra/q) matrix over A_q summed over the columns of each distinct class b mod gcd(q, y);
    progression_ramanujan_direct (tests/oracles.py) is the pointwise oracle.
    """
    g = np.gcd(q, y)
    r = reduced_residues(q)
    # one integer g*q + (b mod g) per class; b mod g < g <= q, so both parts decode
    classes, which = np.unique(g * q + b % g, return_inverse=True)
    terms = _e(np.outer(np.arange(q), r) / q)
    in_class = r % (classes // q)[:, None] == (classes % q)[:, None]
    return np.stack([terms[:, mask].sum(axis=1) for mask in in_class], axis=1)[a, which]


def progression_ramanujan_closed(q: int, y: np.ndarray, b: np.ndarray, a: np.ndarray, tables: ArithTables):
    """Three-case closed form of the sums of progression_ramanujan_direct_batch, one array expression per g.

    With g = gcd(q, y): e(ab/q) when g = q; 0 when g and q/g share a factor;
    otherwise mu(q/g) e(abt/g), t the cofactor shift.
    progression_ramanujan_closed_pointwise (tests/oracles.py) is the oracle.
    """
    g = np.gcd(q, y)
    closed = np.zeros(len(a), dtype=np.complex128)
    for gv in set(g.tolist()):  # each distinct gcd once, as a Python int, so _degenerate takes math.gcd
        sel = g == gv
        ab = a[sel] * b[sel]
        if gv == q:
            closed[sel] = _e((ab % q) / q)
        elif not _degenerate(q, gv):
            mu = int(tables.mobius[q // gv])
            closed[sel] = mu * _e((ab * _cofactor_shift(gv, q) % gv) / gv)
    return closed


def _upsilon(q: int, y: np.ndarray, sums: np.ndarray, tables: ArithTables) -> np.ndarray:
    """Upsilon(a, q) of tuples from their progression sums: phi(y)/phi(lcm(y, q)) times the conjugate."""
    # phi(y) / phi(l) is exactly 1 when q | y, so those sums keep their values
    ratio = tables.totient[y] / tables.totient[np.lcm(y, q)]
    return ratio * sums.conj()


# ---------------------------------------------------------------------------
# Heights and Farey bookkeeping


def height(q: int, y: int) -> int:
    """Ramanujan height h_y(q): lcm(y,q)/y, or 0 in the degenerate gcd case."""
    if q < 1 or y < 1:
        raise ValueError("q, y must be >= 1")
    return 0 if _degenerate(q, math.gcd(q, y)) else math.lcm(y, q) // y


@dataclass(frozen=True)
class FareyPoint:
    """Reduced a/q with its progression context and cached spectral data."""

    a: int
    q: int
    y: int
    b: int
    ell: int
    height: int
    upsilon: complex

    @property
    def center(self) -> float:
        return self.a / self.q


def farey_points(Qmax: int, prog: Progression) -> list[FareyPoint]:
    """All reduced a/q in [0, 1) with q <= Qmax, each q's Upsilon one closed-form call over A_q."""
    if Qmax < 1:
        raise ValueError("Qmax must be >= 1")
    y, b = prog.y, prog.b
    tables = build_tables(y * Qmax)  # lcm(y, q) <= y * Qmax
    points = []
    for q in range(1, Qmax + 1):
        a = reduced_residues(q)
        ys, bs = np.full_like(a, y), np.full_like(a, b)
        ups = _upsilon(q, ys, progression_ramanujan_closed(q, ys, bs, a, tables), tables)
        ell, h = math.lcm(q, y), height(q, y)
        points += [FareyPoint(ai, q, y, b, ell, h, u) for ai, u in zip(a.tolist(), ups.tolist())]
    return points


def height_class_counts(y: int, rmax: int, tables: ArithTables) -> np.ndarray:
    """Enumerated counts of a/q with h_y(q) = r for r = 1..rmax (entry r - 1).

    h_y(q) = r forces q <= y*r, so the heights of every q <= y*rmax are taken
    at once and phi(q) is summed per height.  count_height_class in
    tests/oracles.py is the pointwise oracle.
    """
    q = np.arange(1, y * rmax + 1)
    g = np.gcd(q, y)
    h = np.where(_degenerate(q, g), 0, q // g)
    counts = np.bincount(h, weights=tables.totient[q], minlength=rmax + 1)
    return counts[1 : rmax + 1].astype(np.int64)


def verify_height_classes(ymax: int, rmax: int, tables: ArithTables) -> tuple[int, int, int]:
    """(corrected mismatches, stated mismatches, pairs) over y <= ymax, r <= rmax.

    The stated closed-form count phi(r) y / gcd(y, r) is wrong off the coprime
    pairs (nonzero heights are always coprime to y); the corrected count is
    phi(r) y on coprime pairs and 0 otherwise.
    """
    r = np.arange(1, rmax + 1)
    phi_r = tables.totient[r]
    corrected_bad = stated_bad = 0
    for y in range(1, ymax + 1):
        enum = height_class_counts(y, rmax, tables)
        g = np.gcd(y, r)
        corrected_bad += int(np.count_nonzero(enum != np.where(g == 1, phi_r * y, 0)))
        stated_bad += int(np.count_nonzero(enum != phi_r * y // g))
    return corrected_bad, stated_bad, ymax * rmax


# ---------------------------------------------------------------------------
# Bourgain-type averages


def bourgain_average(Q: int, M: int, prog: Progression, t: int) -> float:
    """[(y/M) sum over n <= M in the progression of (sum_{q<=Q, (q,y)=1} |tau_q(n)|)^t]^(1/t)."""
    y = prog.y
    if Q**t * y >= M:
        warnings.warn(
            f"average length M={M} does not exceed y*Q^t={y * Q ** t}", stacklevel=2
        )
    if Q**t > 2**62:
        raise OverflowError(f"Q^t = {Q}^{t} too large")
    n = prog.indices(M + 1)
    inner = np.zeros(n.shape, dtype=np.float64)
    for q in range(1, Q + 1):
        if math.gcd(q, y) != 1:
            continue
        tau = ramanujan_table(q)
        inner += np.abs(tau[n % q])
    return float(((y / M) * (inner**t).sum()) ** (1.0 / t))


# ---------------------------------------------------------------------------
# Verification sweeps (dual-route identity checks)


def verify_progression_ramanujan(
    qmax: int, ymax: int, max_tuples: int = 100_000, seed: int = 0
) -> tuple[float, int]:
    """Max |direct - closed| / q over sampled (q, y, b, a) tuples.

    Returns (max scaled error, number of tuples checked).  The grid is
    exhaustive until it would exceed max_tuples, then sampled deterministically.
    """
    return _verify_sampled(qmax, ymax, max_tuples, seed)[0]


def verify_gauss_upsilon(
    qmax: int, ymax: int, max_tuples: int = 100_000, seed: int = 0
) -> tuple[float, int]:
    """Max |direct - closed| / q for Upsilon over the tuples of verify_progression_ramanujan."""
    return _verify_sampled(qmax, ymax, max_tuples, seed)[1]


@functools.lru_cache(maxsize=1)
def _verify_sampled(
    qmax: int, ymax: int, max_tuples: int, seed: int
) -> tuple[tuple[float, int], tuple[float, int]]:
    """(max error, tuples) of the progression Ramanujan and the Upsilon suites.

    Both suites check the same sampled tuples, and Upsilon's sums are the
    progression sums conjugated and scaled, so one batch serves both; the
    cache lets the second suite of a run reuse the first one's pass.
    """
    rng = np.random.default_rng(seed)
    tables = build_tables(qmax * ymax)
    worst_r = worst_u = 0.0
    count = 0
    for q, (y, b, a) in _sample_tuples(qmax, ymax, max_tuples, rng).items():
        direct = progression_ramanujan_direct_batch(q, y, b, a)
        closed = progression_ramanujan_closed(q, y, b, a, tables)
        worst_r = max(worst_r, float(np.abs(direct - closed).max()) / q)
        ups_gap = _upsilon(q, y, direct, tables) - _upsilon(q, y, closed, tables)
        worst_u = max(worst_u, float(np.abs(ups_gap).max()) / q)
        count += len(a)
    return (worst_r, count), (worst_u, count)


def _sample_tuples(
    qmax: int, ymax: int, max_tuples: int, rng
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """q -> (y, b, a) arrays of the tuples with b in A_y and a in A_q.

    Every tuple is kept while the grid holds at most max_tuples; beyond that
    each is kept with probability max_tuples / total, one uniform draw per
    tuple in (y, q, b, a) order.
    """
    residues = {n: reduced_residues(n) for n in range(1, max(qmax, ymax) + 1)}
    total = sum(len(residues[y]) for y in range(1, ymax + 1)) * sum(
        len(residues[q]) for q in range(1, qmax + 1)
    )
    keep = min(1.0, max_tuples / total)
    parts: dict[int, list] = {}
    for y in range(1, ymax + 1):
        bs = residues[y]
        for q in range(1, qmax + 1):
            aa = residues[q]
            shape = (len(bs), len(aa))
            chosen = rng.random(shape) < keep if keep < 1.0 else np.ones(shape, dtype=bool)
            bi, ai = np.nonzero(chosen)
            if len(ai):
                parts.setdefault(q, []).append((np.full(len(ai), y), bs[bi], aa[ai]))
    return {
        q: tuple(np.concatenate(col) for col in zip(*groups)) for q, groups in sorted(parts.items())
    }


def verify_cohen_progression(
    qmax: int, ymax: int, tables: ArithTables
) -> tuple[float, int]:
    """Max |lhs - rhs| / q for the progression Cohen identity, exhaustive grid.

    Covers every q <= qmax, y <= ymax, b in A_y and x in [0, q), with both
    sides evaluated over the full x range at once.  Both sides depend on (y, b)
    only through g = gcd(q, y) and the class b mod g, which runs over all of
    A_g as b runs over A_y; so each (q, g, class) is evaluated once, and each
    (q, y, b) still counts its q cases.  cohen_progression_check in
    tests/oracles.py is the pointwise oracle.
    """
    worst = 0.0
    for q in range(1, qmax + 1):
        tau_q = ramanujan_table(q)
        x = np.arange(q)
        for g in sorted({math.gcd(q, y) for y in range(1, ymax + 1)}):
            degenerate = _degenerate(q, g)
            if not degenerate:
                mu_qg = int(tables.mobius[q // g])
                tau_qg = ramanujan_table(q // g)
                tau_g = ramanujan_table(g)
            for c in reduced_residues(g).tolist():
                t = _progression_residues(q, g, c)
                lhs = tau_q[(x[:, None] + t[None, :]) % q].sum(axis=1)
                if degenerate:
                    rhs = np.zeros(q)
                else:
                    rhs = mu_qg * tau_qg[x % (q // g)] * tau_g[(x + c) % g]
                worst = max(worst, float(np.abs(lhs - rhs).max()) / q)
    cases_per_q = sum(len(reduced_residues(y)) for y in range(1, ymax + 1))
    return worst, cases_per_q * qmax * (qmax + 1) // 2
