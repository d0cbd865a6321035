"""Ramanujan sums, their progression-restricted variants, Gauss sums and heights.

Two routes exist for every identity: a direct complex summation over reduced
residues, and a closed form.  The direct sums are treated as ground truth;
verification sweeps compare the two and report the worst discrepancy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tables import ArithTables, Progression, reduced_residues

TWO_PI_I = 2j * math.pi


def _e(x):
    """e(x) = exp(2 pi i x)."""
    return np.exp(TWO_PI_I * x)


# ---------------------------------------------------------------------------
# Ramanujan sums


def ramanujan_sum(q: int, x: int) -> float:
    """tau_q(x) by direct summation over the reduced residues mod q.

    The imaginary part must vanish (tau is a rational integer); it is checked
    at tolerance 1e-9 * q before being dropped.
    """
    a = reduced_residues(q)
    val = _e(a * (x % q) / q).sum()
    if abs(val.imag) > 1e-9 * q:
        raise ArithmeticError(f"tau_{q}({x}) has imaginary part {val.imag:g}")
    return float(val.real)


def _divisors(n: int) -> list[int]:
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def ramanujan_sum_closed(q: int, x: int, tables: ArithTables) -> int:
    """tau_q(x) = sum over d | gcd(q, x) of d * mu(q/d), with gcd(q, 0) = q."""
    g = math.gcd(q, x)
    return int(sum(d * int(tables.mobius[q // d]) for d in _divisors(g)))


_TAU_TABLE_CACHE: dict[int, np.ndarray] = {}


def ramanujan_table(q: int, tables: ArithTables) -> np.ndarray:
    """tau_q(x) for x in [0, q), closed form; index by x mod q."""
    cached = _TAU_TABLE_CACHE.get(q)
    if cached is None:
        cached = np.array(
            [ramanujan_sum_closed(q, x, tables) for x in range(q)], dtype=np.int64
        )
        cached.setflags(write=False)
        _TAU_TABLE_CACHE[q] = cached
    return cached


def divisor_tau_check(r: int, x: int, tables: ArithTables) -> int:
    """sum over d | r of tau_d(x); equals r when r | x and 0 otherwise."""
    return sum(ramanujan_sum_closed(d, x, tables) for d in _divisors(r))


# ---------------------------------------------------------------------------
# Progression-restricted sums and Gauss sums


def _progression_residues(q: int, y: int, b: int) -> np.ndarray:
    """Reduced residues r mod q with r = b mod gcd(q, y)."""
    g = math.gcd(q, y)
    r = reduced_residues(q)
    return r[r % g == b % g]


def progression_ramanujan_direct(q: int, y: int, b: int, a: int) -> complex:
    """sum of e(ra/q) over r in A_q with r = b mod gcd(q, y)."""
    g = math.gcd(q, y)
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd(a, q) must be 1, got a={a}, q={q}")
    if math.gcd(b, g) != 1:
        raise ValueError(f"gcd(b, g) must be 1, got b={b}, g={g}")
    r = _progression_residues(q, y, b)
    return complex(_e(r * (a % q) / q).sum())


def _cofactor_shift(g: int, q: int) -> int:
    """t with 1 - g*gbar = (q/g) t, gbar the inverse of g mod q/g; t=1 if g=q."""
    if g == q:
        return 1
    m = q // g
    gbar = pow(g, -1, m)
    return (1 - g * gbar) // m


def progression_ramanujan_closed(q: int, y: int, b: int, a: int) -> complex:
    """Three-case closed form of the progression-restricted Ramanujan sum."""
    g = math.gcd(q, y)
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd(a, q) must be 1, got a={a}, q={q}")
    if math.gcd(b, g) != 1:
        raise ValueError(f"gcd(b, g) must be 1, got b={b}, g={g}")
    if g == q:
        return complex(_e((a * b % q) / q))
    if math.gcd(g, q // g) > 1:
        return 0j
    t = _cofactor_shift(g, q)
    mu = _mobius_int(q // g)
    return complex(mu * _e((a * b * t % g) / g))


def _mobius_int(n: int) -> int:
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


def cohen_progression_check(
    q: int, y: int, b: int, x: int, tables: ArithTables
) -> tuple[complex, complex]:
    """Both sides of the progression version of Cohen's identity.

    lhs = sum over t in A_q, t = b mod g, of tau_q(x + t);
    rhs = 0 if gcd(g, q/g) > 1, else mu(q/g) tau_{q/g}(x) tau_g(x + b).
    """
    g = math.gcd(q, y)
    if math.gcd(b, g) != 1:
        raise ValueError(f"gcd(b, g) must be 1, got b={b}, g={g}")
    tau_q = ramanujan_table(q, tables)
    t = _progression_residues(q, y, b)
    lhs = complex(tau_q[(x + t) % q].sum())
    if g < q and math.gcd(g, q // g) > 1:
        rhs = 0j
    else:
        rhs = complex(
            int(tables.mobius[q // g])
            * ramanujan_sum_closed(q // g, x, tables)
            * ramanujan_sum_closed(g, x + b, tables)
        )
    return lhs, rhs


def gauss_upsilon_direct(a: int, q: int, y: int, b: int) -> complex:
    """Upsilon(a, q) = (phi(y)/phi(l)) sum of e(-ra/q) over r in A_q, r = b mod g."""
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd(a, q) must be 1, got a={a}, q={q}")
    if math.gcd(b, y) != 1:
        raise ValueError(f"gcd(b, y) must be 1, got b={b}, y={y}")
    ell = math.lcm(y, q)
    r = _progression_residues(q, y, b)
    phi_ratio = _phi(y) / _phi(ell)
    return complex(phi_ratio * _e(-(r * (a % q)) / q).sum())


def gauss_upsilon_closed(a: int, q: int, y: int, b: int) -> complex:
    """Closed form of Upsilon via the three-case evaluation (conjugate phase)."""
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd(a, q) must be 1, got a={a}, q={q}")
    if math.gcd(b, y) != 1:
        raise ValueError(f"gcd(b, y) must be 1, got b={b}, y={y}")
    g = math.gcd(q, y)
    ell = math.lcm(y, q)
    if g == q:
        return complex(_e(-((a * b) % q) / q))
    if math.gcd(g, q // g) > 1:
        return 0j
    t = _cofactor_shift(g, q)
    mu = _mobius_int(q // g)
    return complex(_phi(y) / _phi(ell) * mu * _e(-((a * b * t) % g) / g))


def _phi(n: int) -> int:
    out = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            out -= out // d
        d += 1
    if n > 1:
        out -= out // n
    return out


# ---------------------------------------------------------------------------
# Heights and Farey bookkeeping


def height(q: int, y: int) -> int:
    """Ramanujan height h_y(q): lcm(y,q)/y, or 0 in the degenerate gcd case."""
    if q < 1 or y < 1:
        raise ValueError("q, y must be >= 1")
    g = math.gcd(q, y)
    if 1 < g < q and math.gcd(g, q // g) > 1:
        return 0
    return math.lcm(y, q) // y


@dataclass(frozen=True)
class FareyPoint:
    """Reduced a/q with its progression context and cached spectral data."""

    a: int
    q: int
    y: int
    b: int
    g: int
    ell: int
    height: int
    upsilon: complex

    @classmethod
    def build(cls, a: int, q: int, prog: Progression) -> "FareyPoint":
        g = math.gcd(q, prog.y)
        ell = math.lcm(q, prog.y)
        h = height(q, prog.y)
        ups = gauss_upsilon_closed(a, q, prog.y, prog.b) if h > 0 else 0j
        return cls(a=a, q=q, y=prog.y, b=prog.b, g=g, ell=ell, height=h, upsilon=ups)

    @property
    def center(self) -> float:
        return self.a / self.q


def count_height_class(y: int, r: int) -> tuple[int, int]:
    """(enumerated, formula) count of rationals a/q with h_y(q) = r.

    Enumeration scans all q <= y*r and filters on the height; the formula is
    phi(r) * y / gcd(y, r).
    """
    if y < 1 or r < 1:
        raise ValueError("y, r must be >= 1")
    enumerated = sum(_phi(q) for q in range(1, y * r + 1) if height(q, y) == r)
    formula = _phi(r) * y // math.gcd(y, r)
    return enumerated, formula


# ---------------------------------------------------------------------------
# Bourgain-type averages


def bourgain_average(
    Q: int, M: int, prog: Progression, t: int, tables: ArithTables
) -> float:
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
        tau = ramanujan_table(q, tables)
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
    rng = np.random.default_rng(seed)
    tuples = _sample_tuples(qmax, ymax, max_tuples, rng)
    worst = 0.0
    for q, y, b, a in tuples:
        d = progression_ramanujan_direct(q, y, b, a)
        c = progression_ramanujan_closed(q, y, b, a)
        worst = max(worst, abs(d - c) / q)
    return worst, len(tuples)


def verify_gauss_upsilon(
    qmax: int, ymax: int, max_tuples: int = 100_000, seed: int = 0
) -> tuple[float, int]:
    """Max |direct - closed| / q for Upsilon over sampled (q, y, b, a) tuples."""
    rng = np.random.default_rng(seed)
    tuples = _sample_tuples(qmax, ymax, max_tuples, rng)
    worst = 0.0
    for q, y, b, a in tuples:
        d = gauss_upsilon_direct(a, q, y, b)
        c = gauss_upsilon_closed(a, q, y, b)
        worst = max(worst, abs(d - c) / q)
    return worst, len(tuples)


def _sample_tuples(qmax: int, ymax: int, max_tuples: int, rng) -> list[tuple[int, int, int, int]]:
    groups = []
    total = 0
    for y in range(1, ymax + 1):
        bs = reduced_residues(y)
        for q in range(1, qmax + 1):
            a_count = _phi(q)
            groups.append((q, y, bs, a_count))
            total += len(bs) * a_count
    keep = min(1.0, max_tuples / total)
    tuples = []
    for q, y, bs, _ in groups:
        aa = reduced_residues(q)
        for b in bs:
            if keep >= 1.0:
                chosen = aa
            else:
                mask = rng.random(len(aa)) < keep
                chosen = aa[mask]
            tuples.extend((q, y, int(b), int(a)) for a in chosen)
    return tuples


def verify_cohen_progression(
    qmax: int, ymax: int, tables: ArithTables
) -> tuple[float, int]:
    """Max |lhs - rhs| / q for the progression Cohen identity, exhaustive grid.

    Covers every q <= qmax, y <= ymax, b in A_y and x in [0, q), with both
    sides evaluated over the full x range at once.
    """
    worst = 0.0
    count = 0
    for q in range(1, qmax + 1):
        tau_q = ramanujan_table(q, tables)
        x = np.arange(q)
        for y in range(1, ymax + 1):
            g = math.gcd(q, y)
            degenerate = g < q and math.gcd(g, q // g) > 1
            if not degenerate:
                mu_qg = int(tables.mobius[q // g])
                tau_qg = ramanujan_table(q // g, tables)
                tau_g = ramanujan_table(g, tables)
            for b in reduced_residues(y):
                b = int(b)
                t = _progression_residues(q, y, b)
                lhs = tau_q[(x[:, None] + t[None, :]) % q].sum(axis=1)
                if degenerate:
                    rhs = np.zeros(q)
                else:
                    rhs = mu_qg * tau_qg[x % (q // g)] * tau_g[(x + b) % g]
                worst = max(worst, float(np.abs(lhs - rhs).max()) / q)
                count += q
    return worst, count
