"""Fourier multipliers of the prime-progression averages and their approximants.

The weighted average over primes in a progression has multiplier a_hat; the
smooth major-arc approximant attaches to each reduced rational a/q a Gauss
sum, a plain average at the lcm spacing, and a compactly supported cutoff at
scale lcm^2.  This module evaluates all of them pointwise and on dyadic grids
of the torus, and measures the approximation error.

A SpectralProfile holds a multiplier on Z_M as the Hermitian half of a real
kernel's spectrum, M//2 + 1 values, and convolves by real transforms
(Sorensen, Jones, Heideman and Burrus 1987).  a_hat is the spectrum of the
real kernel phi(y)/N Lambda(n) on the progression.  The approximant is
Hermitian too: height depends only on q, and Upsilon at (q - a)/q is the
conjugate of Upsilon at a/q.  So approximant_profile builds each height band
on k <= M/2 alone, every window clipped there, and approx_error_profile
subtracts the same windows from a_hat's half.  Bands that share the windows
of approximant_windows evaluate each window once.

Every window is filled into its preallocated output WINDOW_BLOCK points at a
time (fill_window), so its temporaries are O(WINDOW_BLOCK) however wide it
is: the y = 1 window of 0/1 covers M/4 points.  The peak memory of approx is
then a_hat_profile's length-M rfft.

The major-arc errors sweep a_hat over a short uniform grid near a rational.
That sweep is a blocked Bluestein chirp-z transform (Rabiner, Schafer and
Rader 1969; Bluestein 1970): two length-P transforms per block of about P/2
consecutive n, P the power of two at least twice the grid, and O(P) memory
besides the prime-power support.  The pointwise a_hat stays as its oracle.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expsums import FareyPoint
from .tables import Progression, build_tables, memory_cap, phi, reduced_residues, von_mangoldt

# The sup errors sweep |theta| < (log N)^ARC_J / N with POINTS_PER_UNIT grid
# points per 1/N.
ARC_J = 2
POINTS_PER_UNIT = 64
# Compact-support windows are evaluated WINDOW_BLOCK grid points at a time.
WINDOW_BLOCK = 1 << 15


# ---------------------------------------------------------------------------
# Smooth cutoff


@functools.cache
def _mollifier_tail() -> tuple[np.ndarray, np.ndarray]:
    """Upper-tail mass of the normalized bump exp(1 - 1/(1 - v^2)) on [-1, 1].

    Tabulated once on a dense grid; the integrand is smooth with all
    derivatives vanishing at the endpoints, so the trapezoid sums converge
    faster than any power of the spacing.
    """
    v = np.linspace(-1.0, 1.0, (1 << 20) + 1)
    rho = np.zeros_like(v)
    inner = np.abs(v) < 1.0
    rho[inner] = np.exp(1.0 - 1.0 / (1.0 - v[inner] ** 2))
    steps = (rho[1:] + rho[:-1]) * (0.5 * (v[1] - v[0]))
    mass = np.concatenate(([0.0], np.cumsum(steps)))
    return v, 1.0 - mass / mass[-1]


# The cutoff vanishes for |u| >= CUTOFF_OUTER.
CUTOFF_OUTER = 1.0 / 4.0


def cutoff(u) -> np.ndarray:
    """Smooth even cutoff: 1 on [-1/16, 1/16], 0 outside (-1/4, 1/4)."""
    # indicator of [-5/32, 5/32] mollified by the bump at half-width 3/32:
    # identically 1 for |u| <= 1/16, identically 0 for |u| >= 1/4, C-infinity
    a = np.abs(np.asarray(u, dtype=np.float64))
    s = np.clip((a - 5.0 / 32.0) / (3.0 / 32.0), -1.0, 1.0)
    grid, tail = _mollifier_tail()
    return np.interp(s, grid, tail)


# ---------------------------------------------------------------------------
# Fourier multipliers on Z_M


@dataclass
class SpectralProfile:
    """A real kernel's multiplier on the grid {k/M : 0 <= k < M}, stored as its Hermitian half.

    values holds the M//2 + 1 values at k <= M/2, as np.fft.rfft returns
    them; the value at k > M/2 is the conjugate of that at M - k.
    Convolution with the kernel is multiplication by the values between a
    forward and an inverse real transform of length M.
    """

    grid_size: int
    values: np.ndarray

    def __post_init__(self):
        half = self.grid_size // 2 + 1
        if len(self.values) != half:
            raise ValueError(f"a profile on Z_{self.grid_size} holds {half} values, got {len(self.values)}")

    def sup(self) -> float:
        # a Hermitian spectrum takes its sup over k <= M/2
        return float(np.abs(self.values).max())

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Cyclic convolution of the real f with the kernel, a real array."""
        if len(f) != self.grid_size:
            raise ValueError(f"size mismatch: {len(f)} vs {self.grid_size}")
        return np.fft.irfft(self.values * np.fft.rfft(f), self.grid_size)

    def kernel(self) -> np.ndarray:
        """The real kernel on Z_M: the inverse real transform of the values."""
        return np.fft.irfft(self.values, self.grid_size)


def sup_abs(profiles, f: np.ndarray) -> np.ndarray:
    """Pointwise sup of |P f| over an iterable of profiles on one grid, transforming the real f once."""
    fhat = np.fft.rfft(f)
    sup = np.zeros(len(f))
    for p in profiles:
        sup = np.maximum(sup, np.abs(np.fft.irfft(p.values * fhat, p.grid_size)))
    return sup


def indicator(F, M: int) -> np.ndarray:
    """1_F on Z_M, with the entries of F read modulo M."""
    f = np.zeros(M, dtype=np.float64)
    f[np.asarray(F, dtype=np.int64) % M] = 1.0
    return f


def pow2_at_least(n: int) -> int:
    return 1 << (n - 1).bit_length()


# ---------------------------------------------------------------------------
# Plain averages


def geometric_sum(K: int, theta):
    """sum_{n=0}^{K-1} e(-n theta), stable near every integer theta."""
    th = np.asarray(theta, dtype=np.float64)
    tr = th - np.round(th)
    den = np.sin(np.pi * tr)
    small = np.abs(den) < 1e-14
    safe = np.where(small, 1.0, den)
    out = np.exp(-1j * np.pi * (K - 1) * tr) * np.sin(np.pi * K * tr) / safe
    out = np.where(small, complex(K), out)
    return out if th.ndim else complex(out)


def m_hat(theta, length: float):
    """Multiplier of the uniform average: (1/length) sum_{0 <= n < length} e(-n theta).

    length may be a non-integer real; the sum runs over the ceil(length)
    integers below it.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    K = math.ceil(length - 1e-9)
    return geometric_sum(K, theta) / length


# ---------------------------------------------------------------------------
# The prime multiplier


def _weighted_support(N: int, prog: Progression):
    """Indices n < N in the progression with Lambda(n) > 0, and their weights."""
    n = prog.indices(N)
    w = von_mangoldt(N)[n]
    nz = w > 0
    return n[nz], w[nz]


def a_hat(theta: float, N: int, prog: Progression) -> complex:
    """(phi(y)/N) sum over n < N, n = b mod y, of Lambda(n) e(-n theta)."""
    n, w = _weighted_support(N, prog)
    phi_y = phi(prog.y)
    return complex((phi_y / N) * np.sum(w * np.exp(-2j * np.pi * theta * n)))


def a_kernel(N: int, prog: Progression, M: int) -> np.ndarray:
    """Kernel of the average on Z_M: phi(y)/N * Lambda(n) on the progression, n < N."""
    n, w = _weighted_support(N, prog)
    kernel = np.zeros(M, dtype=np.float64)
    kernel[n] = (phi(prog.y) / N) * w
    return kernel


def a_hat_profile(N: int, prog: Progression, M: int) -> SpectralProfile:
    """a_hat on the grid {k/M}, M >= N: the rfft of the padded real kernel."""
    if M < N:
        raise ValueError(f"grid M={M} smaller than N={N}")
    _guard_grid(M)
    return SpectralProfile(M, np.fft.rfft(a_kernel(N, prog, M)))


def a_hat_uniform_grid(
    N: int,
    prog: Progression,
    theta0: float,
    dtheta: float,
    count: int,
) -> np.ndarray:
    """a_hat on the uniform grid theta0 + j*dtheta, j < count.

    Bluestein's chirp-z transform: with nj = (n^2 + j^2 - (j-n)^2)/2 and the
    chirp C(k) = e(-dtheta k^2/2), the sweep is C(j) times the linear
    convolution of the chirped support z_n C(n) with conj(C).  The convolution
    runs by overlap-save over blocks of K = P - count + 1 consecutive n, with
    P = pow2_at_least(2 count): each block's length-P spectrum product is
    accumulated, and one inverse transform gives every output, in positions
    K-1 .. K-2+count.  Only O(P) buffers are held besides the support, never a
    length-N array; blocks holding no prime power are skipped.  The chirp
    phase k^2 dtheta/2 is rounded once in float64, an error near
    (N + count)^2 dtheta 2^-53; for the sweeps' dyadic dtheta = 1/(64 N),
    N a power of two, it is exact.
    """
    n, w = _weighted_support(N, prog)
    phi_y = phi(prog.y)
    P = pow2_at_least(2 * count)
    K = P - count + 1

    def chirp(k, sign):
        # reduced mod 1 before the 2 pi scaling, so a dyadic dtheta loses no bits
        return np.exp(sign * 2j * np.pi * np.mod(k * k * (dtheta / 2), 1.0))

    u = w * np.exp(-2j * np.pi * theta0 * n) * chirp(n, -1)
    lags = np.arange(P) - (K - 1)  # j - n over a block starting at n = 0
    spectrum = np.zeros(P, dtype=np.complex128)
    starts = np.arange(0, N, K)
    bounds = np.searchsorted(n, np.append(starts, N))
    for s, lo, hi in zip(starts, bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        block = np.zeros(P, dtype=np.complex128)
        block[n[lo:hi] - s] = u[lo:hi]
        spectrum += np.fft.fft(block) * np.fft.fft(chirp(lags - s, 1))
    return (phi_y / N) * chirp(np.arange(count), -1) * np.fft.ifft(spectrum)[K - 1 : K - 1 + count]


# ---------------------------------------------------------------------------
# Farey points and the approximant


def farey_points(Qmax: int, prog: Progression) -> list[FareyPoint]:
    """All reduced a/q in [0, 1) with q <= Qmax."""
    if Qmax < 1:
        raise ValueError("Qmax must be >= 1")
    tables = build_tables(max(2, prog.y * Qmax))  # lcm(y, q) <= y * Qmax
    points = []
    for q in range(1, Qmax + 1):
        for a in reduced_residues(q):
            points.append(FareyPoint.build(int(a), q, prog, tables))
    return points


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


def fill_window(out: np.ndarray, k0: int, value) -> np.ndarray:
    """out[i] = value(k0 + i) for every i < len(out), evaluated WINDOW_BLOCK indices at a time.

    value maps an int64 array of grid indices to their values element by
    element (ufuncs, np.where, np.interp), so out is the same bit for bit
    wherever the blocks break, and the temporaries are O(WINDOW_BLOCK).
    """
    for s in range(0, len(out), WINDOW_BLOCK):
        e = min(s + WINDOW_BLOCK, len(out))
        out[s:e] = value(np.arange(k0 + s, k0 + e))
    return out


def _l_hat_window(point: FareyPoint, N: int, M: int):
    """(k0, values): l_hat at this point on the grid indices k0, k0 + 1, ... <= M/2 inside its support."""
    ell = point.ell
    radius = CUTOFF_OUTER / ell**2
    c = point.center
    k0 = max(math.floor((c - radius) * M) + 1, 0)
    k1 = min(math.ceil((c + radius) * M) - 1, M // 2)

    def value(k):
        d = (k * point.q - point.a * M) / (point.q * M)  # k/M - a/q from one exact numerator
        return point.upsilon * m_hat(ell * d, N / ell) * cutoff(ell * ell * d)

    return k0, fill_window(np.empty(max(k1 + 1 - k0, 0), dtype=np.complex128), k0, value)


def _l_hat_windows(N, prog, q_cut, M, held=lambda p: True):
    """(point, k0, values) of the l_hat windows on k <= M/2, in Farey order.

    One per held Farey point with q < q_cut and positive height, except
    those centred above 1/2: a/q - 1/2 >= 1/(2q) exceeds the radius
    1/(4 lcm^2), so they lie wholly above M/2.
    """
    for p in farey_points(max(q_cut - 1, 1), prog):
        if p.q < q_cut and p.height > 0 and 2 * p.a <= p.q and held(p):
            yield (p, *_l_hat_window(p, N, M))


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


def approximant_windows(N: int, prog: Progression, q_cut: int, M: int) -> list:
    """Every window of _l_hat_windows, evaluated once for the bands that share them."""
    _guard_grid(M)
    return list(_l_hat_windows(N, prog, q_cut, M))


def approximant_profile(
    N: int, prog: Progression, q_cut: int, M: int, height_min: int = 1, height_max=None, windows=None
) -> SpectralProfile:
    """Approximant restricted to a height band, as the profile of its values on k <= M/2.

    Given windows from approximant_windows, it evaluates none of them again
    and adds the same windows in the same order, so it is the same bit for bit.
    """
    _guard_grid(M)
    top = math.inf if height_max is None else height_max
    held = lambda p: p.q < q_cut and height_min <= p.height <= top
    if windows is None:
        windows = _l_hat_windows(N, prog, q_cut, M, held)
    values = np.zeros(M // 2 + 1, dtype=np.complex128)
    for p, k0, vals in windows:
        if held(p):
            values[k0 : k0 + len(vals)] += vals
    return SpectralProfile(M, values)


def _warn_qcut(q_cut: int, N: int) -> None:
    if q_cut > N ** (1.0 / 10.0):
        warnings.warn(
            f"q_cut={q_cut} exceeds N^(1/10)={N ** 0.1:.2f}; desk-scale override",
            stacklevel=3,
        )


def _guard_grid(M: int) -> None:
    if M > memory_cap():
        raise MemoryError(f"grid size {M} exceeds memory cap")
    if M & (M - 1):
        raise ValueError(f"grid size {M} must be a power of two")


# ---------------------------------------------------------------------------
# Error measurements


def near_zero_error(
    N: int,
    prog: Progression,
) -> float:
    """sup over |theta| < (log N)^ARC_J / N of |a_hat(theta) - m_hat(N/y, y theta)|.

    The error is even in theta (both multipliers conjugate under negation), so
    only theta >= 0 is swept.
    """
    y = prog.y
    if y >= math.log(N) ** ARC_J:
        warnings.warn(f"y={y} not below (log N)^J = {math.log(N) ** ARC_J:.3g}", stacklevel=2)
    T = math.log(N) ** ARC_J / N
    dtheta = 1.0 / (POINTS_PER_UNIT * N)
    count = int(T / dtheta) + 1
    avals = a_hat_uniform_grid(N, prog, 0.0, dtheta, count)
    thetas = dtheta * np.arange(count)
    mvals = m_hat(y * thetas, N / y)
    return float(np.abs(avals - mvals).max())


def major_arc_error(
    N: int,
    prog: Progression,
    point: FareyPoint,
) -> float:
    """sup over |xi - a/q| < (log N)^ARC_J / N of |a_hat(xi) - Upsilon * m_hat(N/l, l(xi - a/q))|."""
    y, q = prog.y, point.q
    if max(y, q) >= math.log(N) ** ARC_J:
        warnings.warn(
            f"y={y}, q={q} not below (log N)^J = {math.log(N) ** ARC_J:.3g}", stacklevel=2
        )
    ell = point.ell
    T = math.log(N) ** ARC_J / N
    dtheta = 1.0 / (POINTS_PER_UNIT * N)
    half = int(T / dtheta)
    count = 2 * half + 1
    avals = a_hat_uniform_grid(N, prog, -half * dtheta + point.center, dtheta, count)
    thetas = dtheta * (np.arange(count) - half)
    mvals = point.upsilon * m_hat(ell * thetas, N / ell)
    return float(np.abs(avals - mvals).max())


def approx_error_profile(
    N: int,
    prog: Progression,
    q_cut: int,
    M: int,
) -> tuple[float, SpectralProfile]:
    """Residual a_hat - approximant as a profile; returns (sup error, profile).

    Both a_hat and the approximant are spectra of real kernels, so the
    residual is Hermitian and its M//2 + 1 values at k <= M/2 determine it.
    """
    _warn_qcut(q_cut, N)
    prof = a_hat_profile(N, prog, M)
    # In place, window by window, each clipped to k <= M/2: at y = 1 the window
    # of 0/1 overlaps those of a/q for q >= 4, so subtracting a pre-summed
    # approximant changes last bits.
    for _, k0, vals in _l_hat_windows(N, prog, q_cut, M):
        prof.values[k0 : k0 + len(vals)] -= vals
    return prof.sup(), prof
