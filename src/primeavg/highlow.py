"""High/Low decomposition of the approximant by Ramanujan height.

The approximant splits into a Low part (heights below the threshold Q,
controlled in physical space through a closed-form kernel built from
Ramanujan sums) and a High part (heights at or above Q, controlled in
frequency space through Gauss-sum decay).  Everything lives on a cyclic
embedding Z_M so convolution and inversion are exact finite transforms.
Both parts are Hermitian half profiles, run through real transforms; the
multifrequency multiplier, not even in xi, is a plain length-M array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expsums import ramanujan_table
from .multiplier import (
    SpectralProfile,
    approximant_profile,
    check_grid,
    cutoff,
    indicator,
    major_arc_window,
)
from .tables import ArithTables, Progression


@dataclass(frozen=True)
class DecompositionConfig:
    """Parameters steering one High/Low split."""

    N: int
    prog: Progression
    Q: int
    M: int
    q_cut: int | None = None  # denominator ceiling; defaults to y * Q + 1

    def __post_init__(self):
        if self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")
        if self.q_cut is None:
            object.__setattr__(self, "q_cut", self.prog.y * self.Q + 1)
        check_grid(self.N, self.M)
        if self.M < 4 * self.N:
            raise ValueError(f"M={self.M} must be at least 4N={4 * self.N}")
        if not (self.Q <= self.q_cut and self.q_cut <= self.N ** 0.1):
            warnings.warn(
                f"Q={self.Q} <= q_cut={self.q_cut} <= N^(1/10)={self.N ** 0.1:.2f} "
                "violated; desk-scale override",
                stacklevel=3,
            )


# ---------------------------------------------------------------------------
# Spectral profiles of the two parts


def lo_hat_profile(cfg: DecompositionConfig, windows: list | None = None) -> SpectralProfile:
    """l_hat summed over the Farey points with 0 < height < Q; see approximant_profile."""
    return approximant_profile(cfg.N, cfg.prog, cfg.q_cut, cfg.M, 1, cfg.Q - 1, windows)


def hi_hat_profile(cfg: DecompositionConfig, windows: list | None = None) -> SpectralProfile:
    """l_hat summed over the Farey points with height >= Q; see approximant_profile."""
    return approximant_profile(cfg.N, cfg.prog, cfg.q_cut, cfg.M, cfg.Q, None, windows)


# ---------------------------------------------------------------------------
# Kernels


def _phi_hat(cfg: DecompositionConfig, q: int) -> np.ndarray:
    """m_hat(l xi, N/l) cutoff(l^2 xi), l = lcm(y, q), on k <= M/2: the major-arc window at 0/1 of weight 1.

    Both factors are conjugate under xi -> -xi, so this half determines the spectrum.
    """
    ell = math.lcm(cfg.prog.y, q)
    if ell * ell > cfg.M // 4:
        raise ValueError(f"lcm^2 = {ell * ell} exceeds M/4 = {cfg.M // 4}")
    spectrum = np.zeros(cfg.M // 2 + 1, dtype=np.complex128)
    k0, values = major_arc_window(0, 1, ell, 1.0, cfg.N, cfg.M)
    spectrum[k0 : k0 + len(values)] = values
    return spectrum


def phi_kernel(cfg: DecompositionConfig, q: int) -> np.ndarray:
    """Real kernel on Z_M of the spacing-lcm average times the scale-lcm^2 cutoff: irfft(_phi_hat)."""
    return np.fft.irfft(_phi_hat(cfg, q), cfg.M)


def lo_kernels_closed(cfgs: list[DecompositionConfig], tables: ArithTables):
    """Low kernel of each cfg in turn, a generator, via the closed-form resummation in one pass over q' < max Q.

    Lo(x) = y 1_{y | x-b} sum over q' < Q coprime to y of
    Phi_{N,q'}(x) mu(q')/phi(q') tau_{q'}(x), with x in a centered window.
    The cfgs differ only in Q.  Each kernel is yielded once the running sum
    over q' reaches its Q, so each q' term is built once; the sum is copied
    only at a Q that the pass leaves before that Q's turn, and cfgs in
    increasing Q hold none.  The per-Q lo_kernel_closed of tests/oracles.py
    forms each sum in the same order.
    """
    cfg = cfgs[0]
    y, b = cfg.prog.y, cfg.prog.b
    x = np.arange(cfg.M, dtype=np.int64)
    x[cfg.M // 2 :] -= cfg.M  # centered: -M/2 <= x < M/2
    mask = (x - b) % y == 0
    passed = {c.Q for i, c in enumerate(cfgs) if any(d.Q > c.Q for d in cfgs[:i])}
    copies, out, qp = {}, np.zeros(cfg.M, dtype=np.float64), 1  # out sums the terms q' < qp
    for c in cfgs:
        while qp < c.Q:
            if qp in passed:
                copies[qp] = out.copy()
            mu = int(tables.mobius[qp]) if math.gcd(qp, y) == 1 else 0
            if mu:
                term = phi_kernel(cfg, qp)
                term *= mu / int(tables.totient[qp])
                term *= ramanujan_table(qp)[x % qp]
                out += term
            qp += 1
        yield y * mask * (out if c.Q == qp else copies[c.Q])


def dual_path_rel(lo: SpectralProfile, closed: np.ndarray) -> float:
    """Largest gap between the spectral Low kernel of lo and closed, relative to the peak."""
    ks = lo.kernel()
    peak = float(np.abs(ks).max())
    return float(np.abs(ks - closed).max()) / peak if peak else 0.0


# ---------------------------------------------------------------------------
# Ratios


def indicator_spectrum(F, M: int) -> tuple[np.ndarray, int]:
    """(np.fft.rfft of 1_F on Z_M, |F|): the input set F as hi_l2_ratios and lo_linf_ratio read it."""
    F = np.asarray(F)
    if len(F) == 0:
        raise ValueError("empty F")
    return np.fft.rfft(indicator(F, M)), len(F)


def hi_l2_ratios(his, sets) -> np.ndarray:
    """l2 norm of Hi * 1_F over |F|^(1/2): input sets (rows, from indicator_spectrum) by High profiles (columns).

    By Parseval ||Hi * 1_F||_2^2 = sum over all k of |hi|^2 |fhat|^2 / M.  Both
    spectra are Hermitian, so the sum runs over k <= M/2, k = 0 and k = M/2
    weighted once and every other k twice: no inverse transform.
    """
    powers = [hi.values.real**2 + hi.values.imag**2 for hi in his]
    for p in powers:
        p[1:-1] *= 2.0
    M = his[0].grid_size
    out = []
    for fhat, size in sets:
        fpower = fhat.real**2 + fhat.imag**2
        out.append([math.sqrt(float(np.einsum("i,i->", p, fpower)) / (M * size)) for p in powers])
    return np.array(out)


def lo_linf_ratio(lo: SpectralProfile, cfg: DecompositionConfig, F: tuple[np.ndarray, int], r: float) -> float:
    """sup norm of Lo * 1_F over ((y/N)|F|)^(1/r): lo the Low profile of cfg, F from indicator_spectrum."""
    if not 1.0 < r < 2.0:
        raise ValueError(f"r must lie in (1, 2), got {r}")
    fhat, size = F
    scale = (cfg.prog.y / cfg.N * size) ** (1.0 / r)
    return float(np.abs(lo.apply(fhat)).max() / scale)


# ---------------------------------------------------------------------------
# Common-denominator multifrequency maximal harness


def multifrequency_profile(D: int, k: int, n: int, M: int) -> np.ndarray:
    """Sum over the first k rationals j/D of the cutoff at spatial scale 2^n around j/D.

    Each cutoff vanishes at offsets of 1/2^(n+2) or more, so it is evaluated
    only within that of j/D, plus one point each side, at most M points.
    """
    radius = M / (1 << (n + 2))
    mult = np.zeros(M)
    for j in range(k):
        k0 = math.floor(j * M / D - radius) - 1
        idx = np.arange(k0, min(math.ceil(j * M / D + radius) + 1, k0 + M - 1) + 1) % M
        xi = idx / M
        xi[xi >= 0.5] -= 1.0  # the frequency in [-1/2, 1/2)
        offset = (xi - j / D + 0.5) % 1.0 - 0.5
        mult[idx] += cutoff((1 << n) * offset)
    return mult


def multifrequency_max_ratio(
    D: int,
    num_points: int,
    M: int,
    f: np.ndarray,
) -> float:
    """l2 ratio of the maximal function over smooth projections at {j/D}, by complex transforms.

    Takes the first num_points rationals j/D, cutoffs at dyadic spatial
    scales 2^n with n > 2*log2(D), and measures
    || sup_n |F^{-1}[ sum_j eta(2^n (theta - j/D)) f_hat] | ||_2 / ||f||_2.
    """
    if not 1 <= num_points <= D:
        raise ValueError("num_points must lie in [1, D]")
    d = math.ceil(math.log2(D))
    scales = range(2 * d + 1, int(math.log2(M)) - 1)
    fhat = np.fft.fft(f)
    sup = np.zeros(len(f))
    for n in scales:
        sup = np.maximum(sup, np.abs(np.fft.ifft(multifrequency_profile(D, num_points, n, M) * fhat)))
    # numpy's pairwise sums, not BLAS: within 2 ulp of the exact sum, where einsum's running sum can stray by tens
    return float(np.sqrt(np.sum(sup * sup)) / np.sqrt(np.sum(f * f)))
