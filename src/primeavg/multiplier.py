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
on k <= M/2 alone, every window clipped there.  Bands that share the
windows of approximant_windows evaluate each window once.  Every window is
filled into its preallocated output WINDOW_BLOCK points at a time
(fill_window), so its temporaries are O(WINDOW_BLOCK) however wide it is.

approx_residual streams the residual a_hat - approximant one residue class
k = D m + r at a time, D = M/L, in one buffer of L = min(M, CLASS_LENGTH)
points: the in-place DFT at m of the prime-power weights twiddled by
e(-n r/M) and folded to n mod L, less the windows at those k in Farey order.
Only r <= D/2 is transformed; for 0 < r < D - r, class r is the lower half,
and class D - r on k <= M/2 the upper half conjugated and reversed in place.

The major-arc errors sweep a_hat over a short uniform grid near a rational.
That sweep is a blocked Bluestein chirp-z transform (Rabiner, Schafer and
Rader 1969; Bluestein 1970): two length-P transforms per block of about P/2
consecutive n, P the power of two at least twice the grid, and O(P) memory
besides the prime-power support.  The pointwise a_hat, l_hat and
approximant, straight from their sums, are the tests' oracles.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expsums import FareyPoint, farey_points
from .tables import ARC_J, Progression, memory_cap, phi, von_mangoldt

# The sup errors sweep |theta| < (log N)^ARC_J / N, POINTS_PER_UNIT grid points per 1/N.
POINTS_PER_UNIT = 64
# Compact-support windows are evaluated WINDOW_BLOCK grid points at a time.
WINDOW_BLOCK = 1 << 15
# approx's residual is transformed in residue classes of k, of CLASS_LENGTH points at most.
CLASS_LENGTH = 1 << 18


# ---------------------------------------------------------------------------
# Smooth cutoff


# The mollifier's tail is tabulated at the nodes -1 + j / NODES_PER_UNIT, j <= 2 NODES_PER_UNIT.
NODES_PER_UNIT = 1 << 12


@functools.cache
def _mollifier_tail() -> tuple[np.ndarray, np.ndarray]:
    """(T, T'): the upper-tail mass of the normalized bump exp(1 - 1/(1 - v^2)) on [-1, 1], and -bump/Z, at the nodes.

    Each cell's mass is its 3-point Gauss-Legendre sum (error h^7 |bump^(6)| / 2016000
    at width h), summed from the right in long double: T is 1 at -1, 0 at 1, and
    within a float64 rounding elsewhere.
    """
    h = np.longdouble(1) / NODES_PER_UNIT
    bump = lambda v: np.exp(1.0 - 1.0 / ((1.0 - v) * (1.0 + v)))
    mid = (np.arange(2 * NODES_PER_UNIT, dtype=h.dtype) + 0.5) * h - 1.0
    r = np.sqrt(3 * h * h / 20)  # sqrt(3/5) h/2
    mass = (8 * bump(mid) + 5 * (bump(mid - r) + bump(mid + r))) * (h / 18)
    tail = np.append(np.cumsum(mass[::-1])[::-1], 0.0)
    with np.errstate(divide="ignore"):  # exp(-inf) = 0 at the ends
        slope = -bump(np.arange(len(tail), dtype=h.dtype) * h - 1.0) / tail[0]
    return (tail / tail[0]).astype(np.float64), slope.astype(np.float64)


# The cutoff vanishes for |u| >= CUTOFF_OUTER.
CUTOFF_OUTER = 1.0 / 4.0


def cutoff(u) -> np.ndarray:
    """Smooth even cutoff: 1 on [-1/16, 1/16], 0 outside (-1/4, 1/4)."""
    # indicator of [-5/32, 5/32] mollified by the bump at half-width 3/32:
    # identically 1 for |u| <= 1/16, identically 0 for |u| >= 1/4, C-infinity.
    # Cubic Hermite in place, error h^4/384 |T''''| at h = 1/NODES_PER_UNIT: on the cell j
    # holding s = (|u| - 5/32)/(3/32), with t = (s - s_j)/h, m = h T' and d = T_j+1 - T_j,
    # it is T_j + t (m_j + t (c2 + t c3)), c3 = m_j + m_j+1 - 2 d and c2 = d - m_j - c3
    value, slope = _mollifier_tail()
    u = np.asarray(u, dtype=np.float64)
    t = np.abs(u.ravel())
    t -= 1.0 / 16.0
    t *= NODES_PER_UNIT / (3.0 / 32.0)  # s + 1, in cells
    np.clip(t, 0.0, 2.0 * NODES_PER_UNIT, out=t)
    j = np.minimum(t.astype(np.intp), 2 * NODES_PER_UNIT - 1)
    t -= j
    t0 = value[j]
    m0 = slope[j] / NODES_PER_UNIT
    j += 1
    c2 = value[j] - t0
    c3 = slope[j]
    c3 /= NODES_PER_UNIT
    c3 += m0
    c3 -= c2
    c3 -= c2
    c2 -= m0
    c2 -= c3
    c3 *= t
    c3 += c2
    c3 *= t
    c3 += m0
    c3 *= t
    c3 += t0
    np.clip(c3, 0.0, 1.0, out=c3)  # the flat ends' interpolant can round a hair outside [0, 1]
    return c3.reshape(u.shape) if u.ndim else c3[0]


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

    def apply(self, fhat: np.ndarray) -> np.ndarray:
        """Cyclic convolution of the real f with the kernel, a real array, from fhat = np.fft.rfft(f)."""
        if len(fhat) != len(self.values) or not np.iscomplexobj(fhat):  # a real f of length M = 2 is no spectrum
            raise ValueError(f"size mismatch: {len(fhat)} vs {len(self.values)} complex values on Z_{self.grid_size}")
        return np.fft.irfft(self.values * fhat, self.grid_size)

    def kernel(self) -> np.ndarray:
        """The real kernel on Z_M: the inverse real transform of the values."""
        return np.fft.irfft(self.values, self.grid_size)


def sup_abs(profiles, fhat: np.ndarray) -> np.ndarray:
    """Pointwise sup of |P f| over a nonempty iterable of profiles on one grid, from fhat = np.fft.rfft(f), in place."""
    sup = None
    for p in profiles:
        conv = p.apply(fhat)
        np.abs(conv, out=conv)
        sup = conv if sup is None else np.maximum(sup, conv, out=sup)
        del conv  # freed before the next profile transforms
    return sup


def indicator(F, M: int) -> np.ndarray:
    """1_F on Z_M, with the entries of F read modulo M."""
    f = np.zeros(M, dtype=np.float64)
    f[np.asarray(F, dtype=np.int64) % M] = 1.0
    return f


def pow2_at_least(n: int) -> int:
    return 1 << (n - 1).bit_length()


def check_grid(N: int, M: int) -> None:
    """Reject a grid Z_M above the memory cap, not a power of two, or smaller than N."""
    if M > memory_cap():
        raise ValueError(f"grid size M={M} exceeds memory cap {memory_cap()}")
    if M < 1 or M & (M - 1):
        raise ValueError(f"grid size M={M} must be a power of two")
    if M < N:
        raise ValueError(f"grid size M={M} smaller than N={N}")


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
    """Indices n < N in the progression with Lambda(n) > 0, and the average's weights phi(y)/N Lambda(n) there."""
    view = von_mangoldt(N)[prog.start : N : prog.y]
    j = np.flatnonzero(view)
    return prog.start + prog.y * j, (phi(prog.y) / N) * view[j]


def a_kernel(N: int, prog: Progression, M: int) -> np.ndarray:
    """Kernel of the average on Z_M: phi(y)/N * Lambda(n) on the progression, n < N."""
    n, w = _weighted_support(N, prog)
    kernel = np.zeros(M, dtype=np.float64)
    kernel[n] = w
    return kernel


def a_hat_profile(N: int, prog: Progression, M: int) -> SpectralProfile:
    """a_hat on the grid {k/M}, M >= N: the rfft of the padded real kernel."""
    check_grid(N, M)
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
    return chirp(np.arange(count), -1) * np.fft.ifft(spectrum)[K - 1 : K - 1 + count]


# ---------------------------------------------------------------------------
# Farey points and the approximant


def fill_window(out: np.ndarray, k0: int, value, stride: int = 1) -> np.ndarray:
    """out[i] = value(k0 + i stride) for every i < len(out), evaluated WINDOW_BLOCK indices at a time.

    value maps an int64 array of grid indices to their values element by
    element (ufuncs, np.where, table lookups), so out is the same bit for
    bit wherever the blocks break, and the temporaries are O(WINDOW_BLOCK).
    """
    for s in range(0, len(out), WINDOW_BLOCK):
        e = min(s + WINDOW_BLOCK, len(out))
        out[s:e] = value(np.arange(k0 + s * stride, k0 + e * stride, stride))
    return out


def major_arc_window(a: int, q: int, ell: int, weight: complex, N: int, M: int, stride: int = 1, residue: int = 0):
    """(j0, values): the major-arc term at a/q, value(k) below, on k = residue + j stride <= M/2 in its support."""
    radius = CUTOFF_OUTER / ell**2
    c = a / q
    k0 = max(math.floor((c - radius) * M) + 1, 0)
    k1 = min(math.ceil((c + radius) * M) - 1, M // 2)
    j0 = -((residue - k0) // stride)  # the least j with residue + j stride >= k0
    j1 = (k1 - residue) // stride

    def value(k):
        d = (k * q - a * M) / (q * M)  # k/M - a/q from one exact numerator
        return weight * m_hat(ell * d, N / ell) * cutoff(ell * ell * d)

    return j0, fill_window(np.empty(max(j1 + 1 - j0, 0), dtype=np.complex128), residue + j0 * stride, value, stride)


def _window_points(prog: Progression, q_cut: int) -> list[FareyPoint]:
    """The Farey points with q < q_cut and positive height, in Farey order, but those centred above 1/2.

    a/q - 1/2 >= 1/(2q) exceeds the radius 1/(4 lcm^2), so their windows lie wholly above M/2.
    """
    points = farey_points(max(q_cut - 1, 1), prog)
    return [p for p in points if p.q < q_cut and p.height > 0 and p.center <= 0.5]


def approximant_windows(N: int, prog: Progression, q_cut: int, M: int) -> list:
    """(point, k0, values) of the l_hat windows on k <= M/2 at _window_points, each evaluated once."""
    check_grid(N, M)
    return [(p, *major_arc_window(p.a, p.q, p.ell, p.upsilon, N, M)) for p in _window_points(prog, q_cut)]


def approximant_profile(
    N: int, prog: Progression, q_cut: int, M: int, height_min: int = 1, height_max=None, windows=None
) -> SpectralProfile:
    """Approximant restricted to a height band, as the profile of its values on k <= M/2.

    The band adds, in Farey order, the windows of approximant_windows whose
    point lies in it.  Bands given one shared list evaluate no window again,
    and each equals the band built alone bit for bit.
    """
    check_grid(N, M)
    if windows is None:
        windows = approximant_windows(N, prog, q_cut, M)
    top = math.inf if height_max is None else height_max
    values = np.zeros(M // 2 + 1, dtype=np.complex128)
    for p, k0, vals in windows:
        if p.q < q_cut and height_min <= p.height <= top:
            values[k0 : k0 + len(vals)] += vals
    return SpectralProfile(M, values)


def _warn_qcut(q_cut: int, N: int) -> None:
    if q_cut > N ** (1.0 / 10.0):
        warnings.warn(
            f"q_cut={q_cut} exceeds N^(1/10)={N ** 0.1:.2f}; desk-scale override",
            stacklevel=3,
        )


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


def _residual_classes(N: int, prog: Progression, q_cut: int, M: int):
    """(r, a_hat - approximant at k = r, r + D, ... <= M/2) per class r < D, a view the next class overwrites."""
    L = min(M, CLASS_LENGTH)
    D = M // L
    n, w = _weighted_support(N, prog)
    folded = n % L
    points = _window_points(prog, q_cut)
    grid = np.empty(L, dtype=np.complex128)
    for r in range(D // 2 + 1):
        twiddled = w * np.exp(-2j * np.pi * ((n * r) % M / M))
        grid.real = np.bincount(folded, twiddled.real, L)
        grid.imag = np.bincount(folded, twiddled.imag, L)
        np.fft.fft(grid, out=grid)
        classes = [(r, grid[: (M // 2 - r) // D + 1])]  # grid[:L/2] when 0 < r < D - r
        if 0 < r < D - r:  # class D - r stored contiguous: np.abs rounds differently on a negative stride
            grid[L // 2 :] = np.conj(grid[L // 2 :][::-1])
            classes.append((D - r, grid[L // 2 :]))
        for c, values in classes:
            # window by window, in place: at y = 1 the window of 0/1 overlaps
            # those of a/q for q >= 4, so a pre-summed approximant changes last bits
            for p in points:
                j0, vals = major_arc_window(p.a, p.q, p.ell, p.upsilon, N, M, D, c)
                values[j0 : j0 + len(vals)] -= vals
            yield c, values


def approx_residual(N: int, prog: Progression, q_cut: int, M: int, stride: int) -> tuple[float, np.ndarray]:
    """(sup over k of |a_hat - approximant| at k/M, that modulus at k = 0, stride, ... < M), class by class.

    The residual is Hermitian: its sup is taken on k <= M/2, and its modulus
    at k > M/2 is that at M - k.
    """
    _warn_qcut(q_cut, N)
    check_grid(N, M)
    D = M // min(M, CLASS_LENGTH)
    k = np.arange(0, M, stride)
    half = np.minimum(k, M - k)
    rows = np.empty(len(k))
    sup = 0.0
    for r, values in _residual_classes(N, prog, q_cut, M):
        mags = np.abs(values)
        sup = max(sup, float(mags.max()))
        at = np.flatnonzero(half % D == r)
        rows[at] = mags[half[at] // D]
    return sup, rows
