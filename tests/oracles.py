"""Pointwise oracles of primeavg's vectorised, grid and transform paths.

Ramanujan and Gauss sums, the identity checks and the height-class counts of
primeavg.expsums one case at a time; a_hat, l_hat and the approximant of
primeavg.multiplier one frequency at a time; and highlow's closed-form Low
kernel one Q at a time.  Each comes straight from its defining sum.  The
prime-power support and the residual's classes are also kept as multiplier
built them before their lean paths: a gather and a mask, and fresh arrays
per class; and a command's CSV as cli built it before it streamed rows, as
one text in memory.  No command runs them; the tests pin every fast path to
them.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import math

import numpy as np

from primeavg.expsums import (
    FareyPoint,
    _cofactor_shift,
    _divisors,
    _e,
    _progression_residues,
    farey_points,
    height,
    ramanujan_table,
)
from primeavg.highlow import DecompositionConfig, phi_kernel
from primeavg import multiplier
from primeavg.multiplier import (
    CUTOFF_OUTER,
    _warn_qcut,
    _weighted_support,
    _window_points,
    cutoff,
    m_hat,
    major_arc_window,
)
from primeavg.tables import ArithTables, Progression, phi, reduced_residues, von_mangoldt

# ---------------------------------------------------------------------------
# primeavg.expsums


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


def ramanujan_sum_closed(q: int, x: int, tables: ArithTables) -> int:
    """tau_q(x) = sum over d | gcd(q, x) of d * mu(q/d), with gcd(q, 0) = q."""
    g = math.gcd(q, x)
    return int(sum(d * int(tables.mobius[q // d]) for d in _divisors(g)))


def divisor_tau_check(r: int, x: int, tables: ArithTables) -> int:
    """sum over d | r of tau_d(x); equals r when r | x and 0 otherwise."""
    return sum(ramanujan_sum_closed(d, x, tables) for d in _divisors(r))


def progression_ramanujan_direct(q: int, y: int, b: int, a: int) -> complex:
    """sum of e(ra/q) over r in A_q with r = b mod gcd(q, y)."""
    g = math.gcd(q, y)
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd(a, q) must be 1, got a={a}, q={q}")
    if math.gcd(b, g) != 1:
        raise ValueError(f"gcd(b, g) must be 1, got b={b}, g={g}")
    r = _progression_residues(q, y, b)
    return complex(_e(r * (a % q) / q).sum())


def progression_ramanujan_closed_pointwise(q: int, y: int, b: int, a: int, tables: ArithTables) -> complex:
    """Three-case closed form of the progression-restricted Ramanujan sum at one tuple."""
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
    mu = int(tables.mobius[q // g])
    return complex(mu * _e((a * b * t % g) / g))


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
    tau_q = ramanujan_table(q)
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


def gauss_upsilon_direct(a: int, q: int, y: int, b: int, tables: ArithTables) -> complex:
    """Upsilon(a, q) = (phi(y)/phi(l)) sum of e(-ra/q) over r in A_q, r = b mod g."""
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd(a, q) must be 1, got a={a}, q={q}")
    if math.gcd(b, y) != 1:
        raise ValueError(f"gcd(b, y) must be 1, got b={b}, y={y}")
    ell = math.lcm(y, q)
    r = _progression_residues(q, y, b)
    phi_ratio = tables.totient[y] / tables.totient[ell]
    return complex(phi_ratio * _e(-(r * (a % q)) / q).sum())


def gauss_upsilon_closed_pointwise(a: int, q: int, y: int, b: int, tables: ArithTables) -> complex:
    """Upsilon(a, q) = (phi(y)/phi(l)) times the conjugate of progression_ramanujan_closed_pointwise."""
    if math.gcd(b, y) != 1:
        raise ValueError(f"gcd(b, y) must be 1, got b={b}, y={y}")
    ratio = tables.totient[y] / tables.totient[math.lcm(y, q)]
    return complex(ratio * progression_ramanujan_closed_pointwise(q, y, b, a, tables).conjugate())


# y -> (bound, height -> sum of phi(q) over q <= bound of that height)
_HEIGHT_SCANS: dict[int, tuple[int, collections.Counter]] = {}


def count_height_class(y: int, r: int, tables: ArithTables) -> tuple[int, int]:
    """(enumerated, formula) count of rationals a/q with h_y(q) = r.

    Enumeration takes the height of every q <= y*r (h_y(q) = r needs
    q <= y*r) and sums phi(q) by height, once per y: a later call only
    extends the scan past the q already counted.  The formula is
    phi(r) * y / gcd(y, r).
    """
    if y < 1 or r < 1:
        raise ValueError("y, r must be >= 1")
    bound, phi_sums = _HEIGHT_SCANS.get(y, (0, collections.Counter()))
    for q in range(bound + 1, y * r + 1):
        phi_sums[height(q, y)] += int(tables.totient[q])
    _HEIGHT_SCANS[y] = (max(bound, y * r), phi_sums)
    formula = int(tables.totient[r]) * y // math.gcd(y, r)
    return phi_sums[r], formula


# ---------------------------------------------------------------------------
# primeavg.multiplier


def _cutoff_offset(u, dtype):
    """s = (|u| - 5/32) / (3/32) clipped to [-1, 1]: where the cutoff reads the mollifier's tail."""
    return np.clip((np.abs(np.asarray(u, dtype=dtype)) - dtype(5) / 32) / (dtype(3) / 32), -1, 1)


@functools.cache
def _linear_mollifier_tail() -> np.ndarray:
    """The tail on the 2^20 + 1 nodes -1 + j/2^19, by the trapezoid rule: the cutoff's former table."""
    v = np.linspace(-1.0, 1.0, (1 << 20) + 1)
    rho = np.zeros_like(v)
    inner = np.abs(v) < 1.0
    rho[inner] = np.exp(1.0 - 1.0 / (1.0 - v[inner] ** 2))
    steps = (rho[1:] + rho[:-1]) * (0.5 * (v[1] - v[0]))
    mass = np.concatenate(([0.0], np.cumsum(steps)))
    return 1.0 - mass / mass[-1]


def cutoff_linear(u) -> np.ndarray:
    """The cutoff as it was read before its cubic-Hermite table: linearly, at node spacing 2^-19."""
    tail = _linear_mollifier_tail()
    return np.interp(_cutoff_offset(u, np.float64), np.linspace(-1.0, 1.0, len(tail)), tail)


def cutoff_reference(u) -> np.ndarray:
    """The cutoff in long double: the bump's mass on (s, 1) over its mass on (-1, 1).

    Each mass is a tanh-sinh sum (Takahasi and Mori 1974): v = 1 - (1 - s)(1 - x)/2
    maps x = tanh(pi/2 sinh t) in (-1, 1) onto (s, 1), and t runs over [-4, 4] at
    step 1/32.  The bump is exp(1 - 1/((1 - v)(1 + v))), with 1 - v taken without
    cancellation.
    """
    L = np.longdouble
    s = _cutoff_offset(u, L)
    t = np.arange(-128, 129, dtype=L) / 32
    x = np.tanh(np.pi / 2 * np.sinh(t))
    w = (np.pi / 2 / 32) * np.cosh(t) / np.cosh(np.pi / 2 * np.sinh(t)) ** 2

    def mass(half):  # half = (1 - s)/2
        total = np.zeros_like(half)
        with np.errstate(divide="ignore"):
            for xi, wi in zip(x, w):
                gap = half * (1 - xi)  # 1 - v
                total += wi * np.exp(1 - 1 / (gap * (2 - gap)))
        return total * half

    return mass((1 - s) / 2) / mass(np.ones(1, dtype=L))


def a_hat(theta: float, N: int, prog: Progression) -> complex:
    """(phi(y)/N) sum over n < N, n = b mod y, of Lambda(n) e(-n theta)."""
    n, w = _weighted_support(N, prog)  # w carries the scale phi(y)/N
    return complex(np.sum(w * np.exp(-2j * np.pi * theta * n)))


def weighted_support_gather(N: int, prog: Progression):
    """_weighted_support as it was: every member of the progression gathered, masked to Lambda(n) > 0, then scaled."""
    n = prog.indices(N)
    w = von_mangoldt(N)[n]
    nz = w > 0
    return n[nz], (phi(prog.y) / N) * w[nz]


def residual_classes_fresh(N: int, prog: Progression, q_cut: int, M: int):
    """multiplier._residual_classes as it was before its one class buffer: fresh arrays for every class."""
    L = min(M, multiplier.CLASS_LENGTH)
    D = M // L
    n, w = _weighted_support(N, prog)
    folded = n % L
    points = _window_points(prog, q_cut)
    for r in range(D // 2 + 1):
        twiddled = w * np.exp(-2j * np.pi * ((n * r) % M / M))
        spectrum = np.fft.fft(np.bincount(folded, twiddled.real, L) + 1j * np.bincount(folded, twiddled.imag, L))
        # the conjugated reversal of class r is class D - r on k <= M/2
        classes = [(r, spectrum), (D - r, np.conj(spectrum[::-1]))] if 0 < r < D - r else [(r, spectrum)]
        for c, values in classes:
            values = values[: (M // 2 - c) // D + 1]
            for p in points:
                j0, vals = major_arc_window(p.a, p.q, p.ell, p.upsilon, N, M, D, c)
                values[j0 : j0 + len(vals)] -= vals
            yield c, values


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


# ---------------------------------------------------------------------------
# primeavg.highlow


def lo_kernel_closed(cfg: DecompositionConfig, tables: ArithTables) -> np.ndarray:
    """Low kernel via the closed-form resummation.

    Lo(x) = y 1_{y | x-b} sum over q' < Q coprime to y of
    Phi_{N,q'}(x) mu(q')/phi(q') tau_{q'}(x), with x in a centered window.
    """
    y, b = cfg.prog.y, cfg.prog.b
    x = np.arange(cfg.M, dtype=np.int64)
    x[cfg.M // 2 :] -= cfg.M
    out = np.zeros(cfg.M, dtype=np.float64)
    for qp in range(1, cfg.Q):
        if math.gcd(qp, y) != 1:
            continue
        mu = int(tables.mobius[qp])
        if mu == 0:
            continue
        phi_vals = phi_kernel(cfg, qp)
        tau_vals = ramanujan_table(qp)[x % qp]
        out += phi_vals * (mu / int(tables.totient[qp])) * tau_vals
    mask = (x - b) % y == 0
    return y * mask * out


# ---------------------------------------------------------------------------
# primeavg.cli


def csv_text(rows: list[dict]) -> str:
    """Rows as CSV, columns in the first row's key order; floats to 12 digits."""
    if not rows:
        return ""
    fmt = lambda v: format(v, ".12g") if isinstance(v, float) else str(v)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: fmt(v) for k, v in row.items()})
    return buf.getvalue()
