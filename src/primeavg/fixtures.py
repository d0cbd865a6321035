"""Versioned measured constants, their comparison rules, and their recipes.

Fixtures freeze quantities measured at bring-up (decay errors, ratio
ceilings, fitted exponents).  Each entry carries a comparison kind:
"upper"  -> measured <= value * (1 + tol)
"close"  -> |measured - value| <= tol * |value|
RECIPES re-measures each one, most by the command that prints it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from importlib import resources

import numpy as np

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
from .multiplier import approximant_windows
from .scans import fit_exponent
from .tables import Progression, build_tables, default_residue


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
# process runs once.  A value a command prints is measured by that command
# (_command); the other sweeps call the library by its module-global name
# in this module, where a tracer can rebind it.


@functools.cache
def _command(*argv: str) -> tuple:
    """(rows, summary) of `primeavg *argv` as `main` runs it, less files and stamps; approx's rows stay an iterator."""
    from . import cli  # cli imports this module
    _, run, cfg = cli.parse_argv(list(argv))
    return run(cfg)[:2]


def _printed(line: str, *path) -> tuple:
    """The row measuring the value `primeavg line` prints at path in its JSON summary."""
    return _command, tuple(line.split()), lambda run: functools.reduce(operator.getitem, path, run[1])


def _bourgain_runs() -> dict:
    """The (rows, summary) of `ramanujan-avg --t 2` at each y in (1, 5, 12), by y: one task for all four rows."""
    return {y: _command("ramanujan-avg", "--y", str(y), "--t", "2") for y in (1, 5, 12)}


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
    his = (hi_hat_profile(cfg, windows) for cfg in cfgs)
    return fit_exponent([2.0, 4.0, 8.0, 16.0], hi_l2_ratios(his, (indicator_spectrum(F, M) for F in fams)).max(axis=0))


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


# one worker: the scans default to one per CPU, a pool in each fresh `verify` task
_MAXIMAL = ("maximal --N-list 1024 2048 4096 8192 16384 32768 65536 --y-list 1 5 --b-sweep "
            "--n-floor-factor 128 --workers 1")

RECIPES = {
    "near_zero_y1_N12": _printed("approx --N 4096 --y 1 --b 0", "near_zero_error"),
    "near_zero_y1_N16": _printed("approx --N 65536 --y 1 --b 0", "near_zero_error"),
    "near_zero_y1_N20": _printed("approx --N 1048576 --y 1 --b 0", "near_zero_error"),
    "near_zero_y3_N12": _printed("approx --N 4096 --y 3 --b 1", "near_zero_error"),
    "near_zero_y3_N16": _printed("approx --N 65536 --y 3 --b 1", "near_zero_error"),
    "near_zero_y3_N20": _printed("approx --N 1048576 --y 3 --b 1", "near_zero_error"),
    "residual_sup_y1_N12": _printed("approx --N 4096 --y 1 --b 0", "sup_residual"),
    "residual_sup_y1_N20": _printed("approx --N 1048576 --y 1 --b 0", "sup_residual"),
    "residual_sup_y3_N12": _printed("approx --N 4096 --y 3 --b 1", "sup_residual"),
    "residual_sup_y3_N20": _printed("approx --N 1048576 --y 3 --b 1", "sup_residual"),
    "dual_path_worst_rel": (_measure_dual_path_worst, (), float),
    "bourgain_ratio_ceiling_t2": (_bourgain_runs, (), lambda runs: max(
        row["lhs_over_Q125"] for rows, _ in runs.values() for row in rows)),
    "bourgain_exponent_y1": (_bourgain_runs, (), lambda runs: runs[1][1]["fitted_exponent"]),
    "bourgain_exponent_y5": (_bourgain_runs, (), lambda runs: runs[5][1]["fitted_exponent"]),
    "bourgain_exponent_y12": (_bourgain_runs, (), lambda runs: runs[12][1]["fitted_exponent"]),
    "hi_decay_slope_y1": (_measure_hi_decay_slope, (Progression(1, 0),), float),
    "hi_decay_slope_y3": (_measure_hi_decay_slope, (Progression(3, 1),), float),
    "improving_max_y1_r15": _printed("improving --N-list 65536 --y-list 1 --r-list 1.5 --workers 1",
                                     "summary", "stability", "y=1,r=1.5", "max_ratio_by_N", "65536"),
    "improving_max_y3_r15": _printed("improving --N-list 65536 --y-list 3 --r-list 1.5 --workers 1",
                                     "summary", "stability", "y=3,r=1.5", "max_ratio_by_N", "65536"),
    "improving_max_y5_r15": _printed("improving --N-list 65536 --y-list 5 --r-list 1.5 --workers 1",
                                     "summary", "stability", "y=5,r=1.5", "max_ratio_by_N", "65536"),
    "maximal_weak_ceiling": _printed(_MAXIMAL, "summary", "max_weak_ratio"),
    "maximal_b_variation_y5": _printed(_MAXIMAL, "summary", "b_variation", "5"),
    "multifrequency_d12_constant": (multifrequency_adapted_ratios, (), max),
    "multifrequency_d12_spread": (multifrequency_adapted_ratios, (), lambda r: max(r) / min(r)),
    "lo_linf_interval_y1": (_measure_lo_linf, (Progression(1, 0),), float),
    "lo_linf_progression_y3": (_measure_lo_linf, (Progression(3, 1),), float),
    "sw_rel_error_1e6_y1": _printed("sw --y 1 --b 0 --x-grid 1000000", "final_rel_error"),
    "sw_rel_error_1e6_y3": _printed("sw --y 3 --b 1 --x-grid 1000000", "final_rel_error"),
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
