"""Command-line entry point: verification suites and reproducible reports.

Every subcommand reads an optional JSON config file, lets explicit flags
override it, and returns (rows, summary, ok), its rows a list or an iterator
that only reads computed results: `main` drains it after it has caught the
warnings and config errors, so making a row must neither warn nor raise.
`main` alone stamps the seed, version, fixture hash and the distinct warning
messages the command raised (the desk-scale overrides that fired) on the
summary, streams the rows into a CSV artifact, writes the summary as JSON,
and maps ok to the exit code.  Exit codes: 0 on pass, 1 when an assertion
or stability verdict fails, 2 on config errors.  All randomness flows from
the single echoed seed.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
import warnings
from collections.abc import Iterator

import numpy as np

from . import __version__
from .expsums import (
    bourgain_average,
    height,
    verify_cohen_progression,
    verify_divisor_identity,
    verify_gauss_upsilon,
    verify_height_classes,
    verify_progression_ramanujan,
)
from .fixtures import RECIPES, check_fixture, fixture_hash, load_fixtures, measure_fixture, recipe_groups
from .highlow import (
    DecompositionConfig,
    dual_path_rel,
    hi_hat_profile,
    hi_l2_ratios,
    indicator_spectrum,
    lo_hat_profile,
    lo_kernels_closed,
    lo_linf_ratio,
)
from .multiplier import approx_residual, approximant_profile, approximant_windows, near_zero_error
from .scans import fit_exponent, improving_scan, maximal_scan, run_cells
from .tables import ARC_J, Progression, build_tables, default_residue, memory_cap, sw_error_report

APPROX_ROWS = 1 << 14  # approx writes the residual at every max(1, M // APPROX_ROWS)-th k


class ConfigError(Exception):
    pass


def _fmt(v) -> str:
    return format(v, ".12g") if isinstance(v, float) else str(v)


def _write_csv(fh, rows) -> None:
    """Rows, dicts from a list or an iterator, into fh one at a time as CSV, keyed as the first; floats to 12 digits."""
    writer = None
    for row in rows:
        if writer is None:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
        writer.writerow({k: _fmt(v) for k, v in row.items()})


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_fmt)


def _merge_config(args: argparse.Namespace, keys: set[str]) -> dict:
    """File config overridden by explicit flags; unknown or ill-typed file keys rejected."""
    merged: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - keys
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update({key: _typed(key, value) for key, value in file_cfg.items()})
    merged.update({key: value for key, value in vars(args).items() if key in keys and value is not None})
    for key, least in LEAST.items():
        if merged.get(key, least) < least:
            raise ConfigError(f"{_flag(key)} must be >= {least}, got {merged[key]}")
    return merged


def _typed(key: str, value):
    """A config-file value parsed as the flag of key would parse it."""
    kind = KEYS[key]
    where = f"config key {key} (flag {_flag(key)})"
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
        return value
    if not isinstance(kind, list):
        return _parsed(where, kind, value)
    # a flag taking nargs="+" cannot give an empty list
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
    return [_parsed(where, kind[0], v) for v in value]


def _parsed(where: str, kind: type, value):
    """kind applied to the text of a JSON string or number, as argparse applies it to a flag's text."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return kind(str(value))
        except ValueError:
            pass
    raise ConfigError(f"{where} cannot parse {value!r} as {kind.__name__}")


def _prog_from(cfg: dict) -> Progression:
    y = cfg.get("y", 1)
    b = cfg.get("b", default_residue(y))
    return Progression(y, b)


def _check_qcut(N: int, y: int, q_cut: int) -> None:
    """Reject a q_cut that admits a window averaging over N/lcm(y, q) < 1 terms."""
    for q in range(1, q_cut):
        if math.lcm(y, q) > N and height(q, y) > 0:
            raise ConfigError(f"q_cut={q_cut} admits q={q} with lcm(y, q)={math.lcm(y, q)} > N={N}")


def _check_phi(y: int, M: int, Q: int, mobius) -> None:
    """Reject a Q whose Low kernel needs Phi at lcm(y, q')^2 > M/4 (q' < Q, (q', y) = 1, mu(q') != 0)."""
    for qp in range(1, Q):
        if math.gcd(qp, y) == 1 and mobius[qp] and (y * qp) ** 2 > M // 4:
            raise ConfigError(f"--Q-list {Q} needs Phi at q'={qp}, lcm(y, q')^2 > M/4={M // 4}")


# ---------------------------------------------------------------------------
# Subcommands


def _identity_suites(
    qmax: int, ymax: int, max_tuples: int, seed: int, cohen_qmax: int, cohen_ymax: int
) -> list[dict]:
    """One row per exact identity suite, then the stated height-class formula's row."""
    # the Cohen suite indexes the tables up to cohen_qmax, the height-class
    # suite up to 60 * 60 and the divisor suite up to 200
    tables = build_tables(max(3600, cohen_qmax))
    height_bad, stated_bad, height_cases = verify_height_classes(60, 60, tables)
    suites = {
        "progression_ramanujan": verify_progression_ramanujan(qmax, ymax, max_tuples=max_tuples, seed=seed),
        "gauss_upsilon": verify_gauss_upsilon(qmax, ymax, max_tuples=max_tuples, seed=seed),
        "cohen_progression": verify_cohen_progression(cohen_qmax, cohen_ymax, tables),
        "divisor_identity": verify_divisor_identity(200),
        "height_class_count": (height_bad, height_cases),
    }
    rows = [
        {"suite": suite, "cases": count, "max_scaled_err": float(err), "pass": err < 1e-8}
        for suite, (err, count) in suites.items()
    ]
    rows.append({"suite": "height_class_stated_formula", "cases": height_cases,
                 "max_scaled_err": float(stated_bad), "pass": ""})
    return rows


def _verify_cell(cell: tuple) -> list[dict]:
    """The rows of one verify cell: ("suites", sizes), or ("fixtures", names of recipes sharing a sweep)."""
    kind, arg = cell
    if kind == "suites":
        return _identity_suites(**arg)
    fx = load_fixtures()
    rows = []
    for name in arg:
        measured = measure_fixture(name)
        frozen = {key: fx[name][key] for key in ("value", "tol", "kind")}
        rows.append({"suite": "fixture", "name": name, "measured": measured, **frozen,
                     "pass": check_fixture(name, measured, fx)})
    return rows


def cmd_verify(cfg: dict) -> tuple[list[dict], dict, bool]:
    names = cfg.get("fixture_names", sorted(RECIPES))
    for name in names:
        if name not in RECIPES:
            raise ConfigError(f"unknown fixture name: {name}")
    defaults = {"qmax": 96, "ymax": 36, "max_tuples": 100_000, "cohen_qmax": 64, "cohen_ymax": 24, "seed": 0}
    sizes = {key: cfg.get(key, default) for key, default in defaults.items()}
    cells = [("suites", sizes)]
    if cfg.get("fixtures", True):
        cells += [("fixtures", group) for group in recipe_groups(list(dict.fromkeys(names)))]
    # the suites and the recipes are independent: one fresh process for the suites
    # and one per group of recipes sharing a sweep, each name measured once;
    # the fixture rows go back in the order of names, a repeated name at each place
    rows = run_cells(_verify_cell, cells, os.cpu_count() or 1, fresh=True)
    suite_rows = [r for r in rows if r["suite"] != "fixture"]
    by_name = {r["name"]: r for r in rows if r["suite"] == "fixture"}
    fixture_rows = [by_name[name] for name in names if name in by_name]
    rows = suite_rows + fixture_rows

    columns = ("suite", "name", "cases", "max_scaled_err", "measured", "value", "tol", "kind", "pass")
    ok = all(r["pass"] for r in rows if r["pass"] != "")
    summary = {
        "suites": {r["suite"]: bool(r["pass"]) for r in suite_rows if r["pass"] != ""},
        "height_class_stated_formula_mismatches": int(suite_rows[-1]["max_scaled_err"]),
        "fixtures_checked": len(fixture_rows),
        "fixtures_passed": sum(bool(r["pass"]) for r in fixture_rows),
        "pass": ok,
    }
    return [{k: r.get(k, "") for k in columns} for r in rows], summary, ok


def cmd_approx(cfg: dict) -> tuple[Iterator[dict], dict, bool]:
    N = cfg.get("N", 4096)
    prog = _prog_from(cfg)
    q_cut = cfg.get("qcut", 16)
    M = cfg.get("M", 4 * N)
    _check_qcut(N, prog.y, q_cut)
    stride = max(1, M // APPROX_ROWS)
    sup, residuals = approx_residual(N, prog, q_cut, M, stride)
    near = near_zero_error(N, prog)
    rows = ({"xi": k / M, "abs_residual": float(v)} for k, v in zip(range(0, M, stride), residuals))
    summary = {"N": N, "y": prog.y, "b": prog.b, "q_cut": q_cut, "M": M, "sup_residual": sup, "near_zero_error": near}
    return rows, summary, True


def _highlow_row(d: DecompositionConfig, closed: np.ndarray, windows: list, F: tuple, r: float) -> dict:
    """The row of one Q: its Hi, Lo and total bands are built from the shared windows and dropped on return."""
    hi, lo = hi_hat_profile(d, windows), lo_hat_profile(d, windows)
    gap = hi.values + lo.values
    gap -= approximant_profile(d.N, d.prog, d.q_cut, d.M, windows=windows).values
    return {"Q": d.Q, "q_cut": d.q_cut, "partition_err": float(np.abs(gap).max()),
            "dual_path_rel": dual_path_rel(lo, closed), "hi_l2_ratio_interval": float(hi_l2_ratios([hi], [F])[0, 0]),
            "lo_linf_ratio_interval": lo_linf_ratio(lo, d, F, r)}


def cmd_highlow(cfg: dict) -> tuple[list[dict], dict, bool]:
    N = cfg.get("N", 4096)
    prog = _prog_from(cfg)
    M = cfg.get("M", 16 * N)
    Q_list = cfg.get("Q_list", [4])
    r = cfg.get("r", 1.5)
    if not 1.0 < r < 2.0:
        raise ConfigError(f"r must lie in (1, 2), got {r}")
    dcfgs = [DecompositionConfig(N=N, prog=prog, Q=Q, M=M) for Q in Q_list]
    _check_qcut(N, prog.y, max(d.q_cut for d in dcfgs))
    tables = build_tables(N)  # after _check_qcut, every q' < Q coprime to y is at most N / y
    _check_phi(prog.y, M, max(Q_list), tables.mobius)
    # every Q shares one evaluation of the Farey windows and one transform of 1_F
    windows = approximant_windows(N, prog, max(d.q_cut for d in dcfgs), M)
    F = indicator_spectrum(np.arange(N // 8), M)
    rows = [_highlow_row(d, closed, windows, F, r) for d, closed in zip(dcfgs, lo_kernels_closed(dcfgs, tables))]
    worst_partition = max(row["partition_err"] for row in rows)
    ok = worst_partition < 1e-10
    summary = {"N": N, "y": prog.y, "b": prog.b, "M": M, "Q_list": Q_list, "r": r,
               "max_partition_err": worst_partition, "partition_pass": ok}
    return rows, summary, ok


def _run_scan(scan, cfg: dict, verdict: str) -> tuple[list[dict], dict, bool]:
    """One scan with the keys of cfg it takes, and its summary's verdict; workers default to the cpu count."""
    taken = inspect.signature(scan).parameters
    kwargs = {key: value for key, value in cfg.items() if key in taken}
    kwargs["workers"] = cfg.get("workers", os.cpu_count() or 1)
    rows, report = scan(**kwargs)
    return rows, report, report["summary"][verdict]


def cmd_improving(cfg: dict) -> tuple[list[dict], dict, bool]:
    return _run_scan(improving_scan, cfg, "stable")


def cmd_maximal(cfg: dict) -> tuple[list[dict], dict, bool]:
    return _run_scan(maximal_scan, cfg, "pass")


def cmd_ramanujan_avg(cfg: dict) -> tuple[list[dict], dict, bool]:
    prog = _prog_from(cfg)
    t = cfg.get("t", 2)
    Q_list = cfg.get("Q_list", [4, 8, 16, 32])
    if min(Q_list) < 1:
        raise ConfigError(f"Q must be >= 1, got {min(Q_list)}")
    if len(set(Q_list)) < 2:
        raise ConfigError(f"fitting an exponent needs at least two distinct Q values, got {Q_list}")
    grids = [(Q, 16 * prog.y * Q**t) for Q in Q_list]
    for Q, M in grids:
        # bourgain_average holds up to M // y + 1 points n <= M of the progression
        if M // prog.y + 1 > memory_cap():
            raise ConfigError(f"--Q-list {Q} averages to M={M}, {M // prog.y + 1} entries above memory cap {memory_cap()}")
    build_tables(max(Q_list))  # one sieve; every tau_q row reads mu from it as a view
    rows = []
    for Q, M in grids:
        lhs = bourgain_average(Q, M, prog, t)
        rows.append({"Q": Q, "M": M, "t": t, "lhs": lhs, "lhs_over_Q125": lhs / Q**1.25})
    exponent = fit_exponent([r["Q"] for r in rows], [r["lhs"] for r in rows])
    cap = cfg.get("exponent_cap")
    ok = True if cap is None else exponent <= cap
    summary = {"y": prog.y, "b": prog.b, "t": t, "Q_list": Q_list, "fitted_exponent": exponent,
               "exponent_cap": cap, "pass": ok}
    return rows, summary, ok


def cmd_sw(cfg: dict) -> tuple[list[dict], dict, bool]:
    prog = _prog_from(cfg)
    x_grid = cfg.get("x_grid", [10**4, 10**5, 10**6])
    rows = sw_error_report(x_grid, prog)
    summary = {"y": prog.y, "b": prog.b, "J": ARC_J, "x_grid": x_grid, "final_rel_error": rows[-1]["rel_error"]}
    return rows, summary, True


# ---------------------------------------------------------------------------
# Argument parsing


def finite_float(text: str) -> float:
    """A float flag's value; nan and inf are rejected, as no float key has a use for them."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


# Every config key once, by the type its flag parses.  A list [type] is a
# flag taking nargs="+"; a bool is a switch.  The flag of a key is "--" + key
# with "_" written "-", except those in FLAGS.
KEYS = {
    **dict.fromkeys("seed qmax ymax cohen_qmax cohen_ymax max_tuples N y b qcut M".split(), int),
    **dict.fromkeys("workers n_floor_factor t".split(), int),
    **dict.fromkeys("r weak_ceiling exponent_cap".split(), finite_float),
    **dict.fromkeys("Q_list N_list y_list x_grid".split(), [int]),
    **dict.fromkeys("r_list lambda_grid".split(), [finite_float]),
    "out_dir": str, "fixture_names": [str], "fixtures": bool, "b_sweep": bool,
}
FLAGS = {"fixtures": "--no-fixtures"}  # a "--no-" switch stores False
# The least value of the int keys that have one.  Below 2, qcut subtracts no
# Farey point and leaves a_hat itself as the residual; n_floor_factor 0 is no floor
LEAST = {"seed": 0, "n_floor_factor": 0, "workers": 1, "t": 1, "N": 2, "qcut": 2,
         **dict.fromkeys("qmax ymax cohen_qmax cohen_ymax max_tuples".split(), 1)}
COMMON = "seed out_dir"

# subcommand: (help, cmd_*, the keys it takes besides COMMON, in flag order)
COMMANDS = {
    "verify": ("exact identity suites and fixture comparisons", cmd_verify,
               "qmax ymax cohen_qmax cohen_ymax max_tuples fixtures fixture_names"),
    "approx": ("approximation-error residual profile", cmd_approx, "N y b qcut M"),
    "highlow": ("High/Low split diagnostics", cmd_highlow, "N y b Q_list M r"),
    "improving": ("improving-inequality stability scan", cmd_improving,
                  "N_list y_list r_list workers n_floor_factor"),
    "maximal": ("weak-type maximal-function scan", cmd_maximal,
                "N_list y_list r lambda_grid b_sweep weak_ceiling workers n_floor_factor"),
    "ramanujan-avg": ("Ramanujan-sum moment sweep", cmd_ramanujan_avg, "y b t Q_list exponent_cap"),
    "sw": ("prime-counting error along a progression", cmd_sw, "y b x_grid"),
}


def _keys(command: str) -> list[str]:
    """The config keys a subcommand takes, in flag order."""
    return f"{COMMON} {COMMANDS[command][2]}".split()


def _flag(key: str) -> str:
    return FLAGS.get(key, "--" + key.replace("_", "-"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="primeavg",
                                     description="Laboratory for prime averages along arithmetic progressions")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, _) in COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key in _keys(command):
            kind, flag = KEYS[key], _flag(key)
            if kind is bool:
                action = "store_false" if flag.startswith("--no-") else "store_true"
                p.add_argument(flag, dest=key, action=action, default=None)
            elif isinstance(kind, list):
                p.add_argument(flag, dest=key, type=kind[0], nargs="+", default=None)
            else:
                p.add_argument(flag, dest=key, type=kind, default=None)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    # freeing an untouched, mmapped 8 MiB block lifts glibc malloc's dynamic mmap
    # threshold to its size: numpy's per-call FFT scratch of a few MB then reuses
    # heap pages, not a fresh mapping faulted in on every call; forked workers inherit it
    np.empty(1 << 20)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, set(_keys(args.command)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows, summary, ok = args.func(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    summary.update(
        seed=cfg.get("seed", 0),
        version=__version__,
        fixture_hash=fixture_hash(),
        warnings=list(dict.fromkeys(str(w.message) for w in caught)),
    )
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    text = _json_text(summary)
    with open(os.path.join(out_dir, f"{args.command}.csv"), "w", newline="") as fh:
        _write_csv(fh, rows)
    with open(os.path.join(out_dir, f"{args.command}.json"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
