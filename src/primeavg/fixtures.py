"""Versioned measured constants and their comparison rules.

Fixtures freeze quantities measured at bring-up (decay errors, ratio
ceilings, fitted exponents).  Each entry carries a comparison kind:
"upper"  -> measured <= value * (1 + tol)
"close"  -> |measured - value| <= tol * |value|
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from importlib import resources

import numpy as np

from .expsums import bourgain_average
from .highlow import (
    DecompositionConfig,
    dual_path_rel,
    hi_hat_profile,
    hi_l2_ratios,
    lo_hat_profile,
    lo_kernels_closed,
    lo_linf_ratio,
    multifrequency_max_ratio,
    multifrequency_profile,
)
from .multiplier import approx_residual, approximant_windows, near_zero_error
from .scans import IMPROVING_DENSITIES, _improving_cell, fit_exponent, maximal_scan
from .tables import Progression, build_tables, default_residue, sw_error_report


def _raw() -> bytes:
    return resources.files("primeavg").joinpath("fixtures.json").read_bytes()


def load_fixtures() -> dict:
    return json.loads(_raw())


def fixture_hash() -> str:
    return hashlib.sha256(_raw()).hexdigest()[:16]


def check_fixture(name: str, measured: float, fixtures: dict | None = None) -> bool:
    fx = (fixtures or load_fixtures())[name]
    value, tol, kind = fx["value"], fx["tol"], fx["kind"]
    if kind == "upper":
        return measured <= value * (1.0 + tol)
    if kind == "close":
        return abs(measured - value) <= tol * abs(value)
    raise ValueError(f"unknown fixture kind {kind!r} for {name}")


# ---------------------------------------------------------------------------
# Re-measurement recipes
#
# Each fixture can be reproduced from scratch; `verify --fixtures` and the
# acceptance suite both go through this registry so the frozen constants and
# the measurement procedure can never drift apart.  Shared sweeps are cached
# per process.


def _measure_near_zero(y: int, b: int, N: int) -> float:
    return near_zero_error(N, Progression(y, b))


def _measure_residual_sup(y: int, b: int, N: int) -> float:
    M = 4 * N
    return approx_residual(N, Progression(y, b), 16, M, M)[0]


def _measure_dual_path_worst() -> float:
    N, M = 1 << 12, 1 << 16
    tables = build_tables(N)
    worst = 0.0
    for y in range(1, 7):
        prog = Progression(y, default_residue(y))
        cfgs = [DecompositionConfig(N=N, prog=prog, Q=Q, M=M) for Q in (2, 4, 8)]
        windows = approximant_windows(N, prog, cfgs[-1].q_cut, M)
        closed = lo_kernels_closed(cfgs, tables)
        worst = max(worst, *(dual_path_rel(lo_hat_profile(c, windows), k) for c, k in zip(cfgs, closed)))
    return worst


@functools.cache
def _bourgain_sweep(y: int, b: int) -> list[float]:
    return [bourgain_average(Q, 16 * y * Q * Q, Progression(y, b), 2) for Q in (4, 8, 16, 32)]


def _measure_bourgain_exponent(y: int, b: int) -> float:
    return fit_exponent([4.0, 8.0, 16.0, 32.0], _bourgain_sweep(y, b))


def _measure_bourgain_ceiling() -> float:
    return max(
        v / Q**1.25
        for y, b in ((1, 0), (5, 1), (12, 1))
        for v, Q in zip(_bourgain_sweep(y, b), (4, 8, 16, 32))
    )


def hi_decay_family(N: int) -> list:
    """Inputs probing the High operator norm: interval, Bernoulli set, and
    progressions of every modulus below the denominator ceiling (the sharp
    class: their spectra spike exactly on the Farey points)."""
    rng = np.random.default_rng(7)
    fams = [np.arange(N // 8), np.flatnonzero(rng.random(N) < 0.125)]
    fams += [np.arange(0, N, qp) for qp in range(2, 32)]
    return fams


def _measure_hi_decay_slope(y: int, b: int) -> float:
    N, M, prog = 1 << 16, 1 << 18, Progression(y, b)
    fams = hi_decay_family(N)
    cfgs = [DecompositionConfig(N=N, prog=prog, Q=Q, M=M, q_cut=32) for Q in (2, 4, 8, 16)]
    windows = approximant_windows(N, prog, 32, M)
    his = [hi_hat_profile(cfg, windows) for cfg in cfgs]
    return fit_exponent([2.0, 4.0, 8.0, 16.0], hi_l2_ratios(his, fams).max(axis=0))


def _measure_improving_max(y: int, b: int) -> float:
    rows = _improving_cell((1 << 16, y, b, [1.5], IMPROVING_DENSITIES, 0))
    return max(row["ratio"] for row in rows)


@functools.cache
def _maximal_summary() -> dict:
    return maximal_scan(
        N_list=[1 << k for k in range(10, 17)],
        y_list=[1, 5],
        r=2.0,
        lambda_grid=[2.0**-k for k in range(1, 7)],
        seed=0,
        b_sweep=True,
        n_floor_factor=128,
    )[1]["summary"]


@functools.cache
def multifrequency_adapted_ratios(D: int = 12, M: int = 1 << 18) -> list[float]:
    """Per point count, the maximal-projection ratio on an input whose
    spectrum fills exactly the bands in play (the operator-norm probe)."""
    n0 = 2 * math.ceil(math.log2(D)) + 1
    out = []
    for k in (1, 2, 4, 8, 12):
        # the bands at j/D, j < k, are not symmetric under xi -> -xi, so the
        # inverse transform is complex; the probe input keeps its real part
        f = np.fft.ifft(multifrequency_profile(D, k, n0, M)).real
        out.append(multifrequency_max_ratio(D, k, M, f))
    return out


def _measure_lo_linf(y: int, b: int) -> float:
    N = 1 << 14
    cfg = DecompositionConfig(N=N, prog=Progression(y, b), Q=4, M=1 << 16)
    if y == 1:
        F = np.arange(N // 8)
    else:
        F = np.arange(b, N, y)
    return lo_linf_ratio(lo_hat_profile(cfg), cfg, F, 1.5)


def _measure_sw_rel_error(y: int, b: int) -> float:
    rows = sw_error_report([10**6], Progression(y, b))
    return rows[0]["rel_error"]


MEASUREMENTS = {
    "near_zero_y1_N12": lambda: _measure_near_zero(1, 0, 1 << 12),
    "near_zero_y1_N16": lambda: _measure_near_zero(1, 0, 1 << 16),
    "near_zero_y1_N20": lambda: _measure_near_zero(1, 0, 1 << 20),
    "near_zero_y3_N12": lambda: _measure_near_zero(3, 1, 1 << 12),
    "near_zero_y3_N16": lambda: _measure_near_zero(3, 1, 1 << 16),
    "near_zero_y3_N20": lambda: _measure_near_zero(3, 1, 1 << 20),
    "residual_sup_y1_N12": lambda: _measure_residual_sup(1, 0, 1 << 12),
    "residual_sup_y1_N20": lambda: _measure_residual_sup(1, 0, 1 << 20),
    "residual_sup_y3_N12": lambda: _measure_residual_sup(3, 1, 1 << 12),
    "residual_sup_y3_N20": lambda: _measure_residual_sup(3, 1, 1 << 20),
    "dual_path_worst_rel": _measure_dual_path_worst,
    "bourgain_ratio_ceiling_t2": _measure_bourgain_ceiling,
    "bourgain_exponent_y1": lambda: _measure_bourgain_exponent(1, 0),
    "bourgain_exponent_y5": lambda: _measure_bourgain_exponent(5, 1),
    "bourgain_exponent_y12": lambda: _measure_bourgain_exponent(12, 1),
    "hi_decay_slope_y1": lambda: _measure_hi_decay_slope(1, 0),
    "hi_decay_slope_y3": lambda: _measure_hi_decay_slope(3, 1),
    "improving_max_y1_r15": lambda: _measure_improving_max(1, 0),
    "improving_max_y3_r15": lambda: _measure_improving_max(3, 1),
    "improving_max_y5_r15": lambda: _measure_improving_max(5, 1),
    "maximal_weak_ceiling": lambda: _maximal_summary()["max_weak_ratio"],
    "maximal_b_variation_y5": lambda: _maximal_summary()["b_variation"]["5"],
    "multifrequency_d12_constant": lambda: max(multifrequency_adapted_ratios()),
    "multifrequency_d12_spread": lambda: (
        lambda r: max(r) / min(r)
    )(multifrequency_adapted_ratios()),
    "lo_linf_interval_y1": lambda: _measure_lo_linf(1, 0),
    "lo_linf_progression_y3": lambda: _measure_lo_linf(3, 1),
    "sw_rel_error_1e6_y1": lambda: _measure_sw_rel_error(1, 0),
    "sw_rel_error_1e6_y3": lambda: _measure_sw_rel_error(3, 1),
}


# Recipes that read one per-process cached sweep, by sweep: `verify` runs each
# group as one task, so the sweep runs once.
SHARED_SWEEPS = {
    "_bourgain_sweep": (
        "bourgain_ratio_ceiling_t2",
        "bourgain_exponent_y1",
        "bourgain_exponent_y5",
        "bourgain_exponent_y12",
    ),
    "_maximal_summary": ("maximal_weak_ceiling", "maximal_b_variation_y5"),
    "multifrequency_adapted_ratios": ("multifrequency_d12_constant", "multifrequency_d12_spread"),
}


def measure_fixture(name: str) -> float:
    return float(MEASUREMENTS[name]())


def recipe_groups(names: list[str]) -> list[list[int]]:
    """Indices into names, one list per task: the recipes of one shared sweep
    together, every other recipe alone; each list in name order."""
    sweep = {name: key for key, members in SHARED_SWEEPS.items() for name in members}
    groups: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        groups.setdefault(sweep.get(name, name), []).append(i)
    return list(groups.values())
