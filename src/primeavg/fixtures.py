"""Versioned measured constants, their comparison rules, and their recipes.

Fixtures freeze quantities measured at bring-up (decay errors, ratio
ceilings, fitted exponents).  Each entry carries a comparison kind:
"upper"  -> measured <= value * (1 + tol)
"close"  -> |measured - value| <= tol * |value|
RECIPES re-measures each one: by a sweep, its arguments, and a read of its result.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from importlib import resources

import numpy as np

from .expsums import bourgain_average
from .highlow import (
    DecompositionConfig,
    dual_path_rel,
    hi_hat_profile,
    hi_l2_ratios,
    indicator_spectrum,
    lo_hat_profile,
    lo_kernels_closed,
    lo_linf_ratio,
    multifrequency_max_ratio,
    multifrequency_profile,
)
from .multiplier import approx_residual, approximant_windows, near_zero_error
from .scans import fit_exponent, improving_scan, maximal_scan
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
# `verify --fixtures` and the acceptance suite both measure through RECIPES,
# so the frozen constants and their procedure cannot drift apart.  A row
# name: (sweep, args, read) measures read(sweep(*args)); rows with one sweep
# and args share a `verify` task (recipe_groups), so a sweep cached per
# process runs once.  Each sweep is a function of this module calling the
# library by its module-global name, where a tracer can rebind it.


def _measure_near_zero(N: int, prog: Progression) -> float:
    return near_zero_error(N, prog)


def _measure_residual_sup(N: int, prog: Progression) -> float:
    return approx_residual(N, prog, 16, 4 * N, 4 * N)[0]


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


BOURGAIN_Q = (4, 8, 16, 32)


@functools.cache
def _bourgain_sweeps() -> dict[int, list[float]]:
    """The t = 2 averages over M = 16 y Q^2 at each Q of BOURGAIN_Q, by y, at b = default_residue(y)."""
    return {
        y: [bourgain_average(Q, 16 * y * Q * Q, Progression(y, default_residue(y)), 2) for Q in BOURGAIN_Q]
        for y in (1, 5, 12)
    }


def _bourgain_exponent(y: int, sweeps: dict) -> float:
    return fit_exponent(BOURGAIN_Q, sweeps[y])


def _bourgain_ceiling(sweeps: dict) -> float:
    return max(v / Q**1.25 for values in sweeps.values() for v, Q in zip(values, BOURGAIN_Q))


def _measure_hi_decay_slope(prog: Progression) -> float:
    N, M = 1 << 16, 1 << 18
    # inputs probing the High operator norm: interval, Bernoulli set, and
    # progressions of every modulus below the denominator ceiling (the sharp
    # class: their spectra spike exactly on the Farey points)
    rng = np.random.default_rng(7)
    fams = [np.arange(N // 8), np.flatnonzero(rng.random(N) < 0.125)]
    fams += [np.arange(0, N, qp) for qp in range(2, 32)]
    cfgs = [DecompositionConfig(N=N, prog=prog, Q=Q, M=M, q_cut=32) for Q in (2, 4, 8, 16)]
    windows = approximant_windows(N, prog, 32, M)
    his = [hi_hat_profile(cfg, windows) for cfg in cfgs]
    return fit_exponent([2.0, 4.0, 8.0, 16.0], hi_l2_ratios(his, (indicator_spectrum(F, M) for F in fams)).max(axis=0))


def _measure_improving_max(y: int) -> float:
    rows, _ = improving_scan(N_list=[1 << 16], y_list=[y], r_list=[1.5], seed=0)
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


def _measure_lo_linf(prog: Progression) -> float:
    N = 1 << 14
    cfg = DecompositionConfig(N=N, prog=prog, Q=4, M=1 << 16)
    F = np.arange(N // 8) if prog.y == 1 else np.arange(prog.b, N, prog.y)
    return lo_linf_ratio(lo_hat_profile(cfg), cfg, indicator_spectrum(F, cfg.M), 1.5)


def _measure_sw_rel_error(prog: Progression) -> float:
    return sw_error_report([10**6], prog)[0]["rel_error"]


_Y1, _Y3, _Y5 = Progression(1, 0), Progression(3, 1), Progression(5, 1)

RECIPES = {
    "near_zero_y1_N12": (_measure_near_zero, (1 << 12, _Y1), float),
    "near_zero_y1_N16": (_measure_near_zero, (1 << 16, _Y1), float),
    "near_zero_y1_N20": (_measure_near_zero, (1 << 20, _Y1), float),
    "near_zero_y3_N12": (_measure_near_zero, (1 << 12, _Y3), float),
    "near_zero_y3_N16": (_measure_near_zero, (1 << 16, _Y3), float),
    "near_zero_y3_N20": (_measure_near_zero, (1 << 20, _Y3), float),
    "residual_sup_y1_N12": (_measure_residual_sup, (1 << 12, _Y1), float),
    "residual_sup_y1_N20": (_measure_residual_sup, (1 << 20, _Y1), float),
    "residual_sup_y3_N12": (_measure_residual_sup, (1 << 12, _Y3), float),
    "residual_sup_y3_N20": (_measure_residual_sup, (1 << 20, _Y3), float),
    "dual_path_worst_rel": (_measure_dual_path_worst, (), float),
    "bourgain_ratio_ceiling_t2": (_bourgain_sweeps, (), _bourgain_ceiling),
    "bourgain_exponent_y1": (_bourgain_sweeps, (), functools.partial(_bourgain_exponent, 1)),
    "bourgain_exponent_y5": (_bourgain_sweeps, (), functools.partial(_bourgain_exponent, 5)),
    "bourgain_exponent_y12": (_bourgain_sweeps, (), functools.partial(_bourgain_exponent, 12)),
    "hi_decay_slope_y1": (_measure_hi_decay_slope, (_Y1,), float),
    "hi_decay_slope_y3": (_measure_hi_decay_slope, (_Y3,), float),
    "improving_max_y1_r15": (_measure_improving_max, (1,), float),
    "improving_max_y3_r15": (_measure_improving_max, (3,), float),
    "improving_max_y5_r15": (_measure_improving_max, (5,), float),
    "maximal_weak_ceiling": (_maximal_summary, (), operator.itemgetter("max_weak_ratio")),
    "maximal_b_variation_y5": (_maximal_summary, (), lambda summary: summary["b_variation"]["5"]),
    "multifrequency_d12_constant": (multifrequency_adapted_ratios, (), max),
    "multifrequency_d12_spread": (multifrequency_adapted_ratios, (), lambda r: max(r) / min(r)),
    "lo_linf_interval_y1": (_measure_lo_linf, (_Y1,), float),
    "lo_linf_progression_y3": (_measure_lo_linf, (_Y3,), float),
    "sw_rel_error_1e6_y1": (_measure_sw_rel_error, (_Y1,), float),
    "sw_rel_error_1e6_y3": (_measure_sw_rel_error, (_Y3,), float),
}


def measure_fixture(name: str) -> float:
    sweep, args, read = RECIPES[name]
    return float(read(sweep(*args)))


def recipe_groups(names: list[str]) -> list[list[str]]:
    """names grouped by their recipe's (sweep, args), one list per `verify` task, each in name order."""
    groups: dict[tuple, list[str]] = {}
    for name in names:
        sweep, args, _ = RECIPES[name]
        groups.setdefault((sweep, args), []).append(name)
    return list(groups.values())
