"""The benchmark's workloads: primeavg commands and the oracles that check them.

Each workload is a list of steps.  A step is one ``primeavg`` command line,
run as a fresh process, and an oracle that turns the process's exit code and
artifacts into named pass/fail checks.  An oracle always returns the same
check names for a step, so a crash or a missing artifact counts as failed
checks rather than as a dropped sample.

Why each workload exists, and which layers it should and should not stress:

verify
    ``primeavg verify`` is the regression gate users run after every change.
    It is the only workload that runs ``expsums`` (the two tuple-sampling
    suites, ``--seed`` picks the tuples) and the fixture recipes.  The full
    command takes 20-30 s, too long for several samples per run, so the
    tuple budget is cut to 20k and the fixtures to one recipe per family:
    the N = 2^20 multiplier recipes (``a_hat_uniform_grid`` and full-grid
    profiles), the High-part decay slope (Parseval target), and the cheap
    Bourgain, improving, Low-kernel and Chebyshev recipes.
spectral
    ``approx`` at N = 2^20 (M = 2^22) then ``highlow`` at N = 2^14 (M = 2^18)
    over Q = 2, 4, 8, 16: ``multiplier`` and ``highlow`` on full grids.  The
    ``approx`` outputs must reproduce the frozen ``residual_sup_y1_N20`` and
    ``near_zero_y1_N20`` fixtures.  ``expsums`` and ``scans`` stay near zero.
    The commands are deterministic; ``--seed`` is only echoed.
scan
    ``improving`` and ``maximal`` through the ``scans`` process pool with two
    workers; ``--seed`` draws the Bernoulli input families.  Most of the CPU
    is FFTs issued by ``scans`` and per-worker table sieves.  It bypasses
    ``multiplier``, ``highlow`` and ``expsums``, so fast paths there should
    leave it unchanged.  ``maximal`` gets an explicit ``--N-list``: its
    default list starts at N = 4096, below the desk-scale floor 1024*y for
    y = 5, so the default command exits 2 (a known defect, not fixed here).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

Checks = dict[str, bool]


@dataclass(frozen=True)
class Step:
    """One primeavg command line and the oracle for its outputs."""

    argv: list[str]
    oracle: Callable[[int, str], Checks]  # (exit code, out dir) -> checks


def load_fixtures(root: str) -> tuple[dict, str]:
    """Committed fixtures and their hash, as primeavg computes it."""
    with open(os.path.join(root, "src", "primeavg", "fixtures.json"), "rb") as fh:
        raw = fh.read()
    return json.loads(raw), hashlib.sha256(raw).hexdigest()[:16]


def fixture_ok(measured: float, fixture: dict) -> bool:
    """The comparison rule of primeavg.fixtures for the kinds the oracles use."""
    value, tol, kind = fixture["value"], fixture["tol"], fixture["kind"]
    if kind == "upper":
        return measured <= value * (1.0 + tol)
    if kind == "close":
        return abs(measured - value) <= tol * abs(value)
    raise ValueError(f"unsupported fixture kind {kind!r}")


def _checks(names: list[str], rc: int, evaluate: Callable[[], Checks]) -> Checks:
    """Every named check; an exit code other than 0 or unreadable output fails them."""
    try:
        found = evaluate() if rc == 0 else {}
    except (OSError, ValueError, KeyError, TypeError):
        found = {}
    return {"exit": rc == 0, **{name: bool(found.get(name, False)) for name in names}}


def _summary(out_dir: str, command: str) -> dict:
    with open(os.path.join(out_dir, f"{command}.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify

VERIFY_SUITES = (
    "progression_ramanujan",
    "gauss_upsilon",
    "cohen_progression",
    "divisor_identity",
    "height_class_count",
)

VERIFY_FIXTURES = (
    "near_zero_y3_N20",
    "residual_sup_y3_N20",
    "hi_decay_slope_y3",
    "bourgain_exponent_y5",
    "improving_max_y3_r15",
    "lo_linf_progression_y3",
    "sw_rel_error_1e6_y3",
)

SMALL_VERIFY_FIXTURES = ("near_zero_y3_N12", "residual_sup_y3_N12", "lo_linf_progression_y3")


def verify_oracle(fixture_names, fixture_hash: str):
    names = [f"suite.{s}" for s in VERIFY_SUITES]
    names += [f"fixture.{f}" for f in fixture_names]
    names += ["pass", "fixtures_checked", "fixture_hash"]

    def oracle(rc: int, out_dir: str) -> Checks:
        def evaluate():
            summary = _summary(out_dir, "verify")
            with open(os.path.join(out_dir, "verify.csv"), newline="") as fh:
                rows = {r["name"]: r for r in csv.DictReader(fh) if r["suite"] == "fixture"}
            found = {f"suite.{s}": summary["suites"][s] is True for s in VERIFY_SUITES}
            found.update({f"fixture.{f}": rows[f]["pass"] == "True" for f in fixture_names})
            found["pass"] = summary["pass"] is True
            found["fixtures_checked"] = (
                summary["fixtures_checked"] == summary["fixtures_passed"] == len(fixture_names)
            )
            found["fixture_hash"] = summary["fixture_hash"] == fixture_hash
            return found

        return _checks(names, rc, evaluate)

    return oracle


def verify(seed: int, fixtures: dict, fixture_hash: str, small: bool = False) -> list[Step]:
    if small:
        names = SMALL_VERIFY_FIXTURES
        sizes = ["--max-tuples", "2000", "--qmax", "24", "--ymax", "12",
                 "--cohen-qmax", "16", "--cohen-ymax", "8"]
    else:
        names, sizes = VERIFY_FIXTURES, ["--max-tuples", "20000"]
    argv = ["verify", "--seed", str(seed), *sizes, "--fixture-names", *names]
    return [Step(argv, verify_oracle(names, fixture_hash))]


# ---------------------------------------------------------------------------
# spectral


def approx_oracle(fixtures: dict, suffix: str):
    residual, near = fixtures[f"residual_sup_y1_{suffix}"], fixtures[f"near_zero_y1_{suffix}"]

    def oracle(rc: int, out_dir: str) -> Checks:
        def evaluate():
            summary = _summary(out_dir, "approx")
            return {
                "sup_residual": fixture_ok(summary["sup_residual"], residual),
                "near_zero_error": fixture_ok(summary["near_zero_error"], near),
            }

        return _checks(["sup_residual", "near_zero_error"], rc, evaluate)

    return oracle


def highlow_oracle(rc: int, out_dir: str) -> Checks:
    def evaluate():
        return {"partition_pass": _summary(out_dir, "highlow")["partition_pass"] is True}

    return _checks(["partition_pass"], rc, evaluate)


def spectral(seed: int, fixtures: dict, fixture_hash: str, small: bool = False) -> list[Step]:
    log_n, hl_n, q_list = (12, 4096, ["2", "4"]) if small else (20, 16384, ["2", "4", "8", "16"])
    approx = ["approx", "--seed", str(seed), "--N", str(1 << log_n), "--y", "1", "--b", "0", "--qcut", "16"]
    highlow = ["highlow", "--seed", str(seed), "--N", str(hl_n), "--y", "3", "--b", "1", "--Q-list", *q_list]
    return [Step(approx, approx_oracle(fixtures, f"N{log_n}")), Step(highlow, highlow_oracle)]


# ---------------------------------------------------------------------------
# scan

WEAK_CEILING = 1.0


def improving_oracle(fixture_hash: str):
    def oracle(rc: int, out_dir: str) -> Checks:
        def evaluate():
            report = _summary(out_dir, "improving")
            return {
                "stable": report["summary"]["stable"] is True,
                "fixture_hash": report["fixture_hash"] == fixture_hash,
            }

        return _checks(["stable", "fixture_hash"], rc, evaluate)

    return oracle


def maximal_oracle(fixture_hash: str):
    def oracle(rc: int, out_dir: str) -> Checks:
        def evaluate():
            report = _summary(out_dir, "maximal")
            return {
                "max_weak_ratio": report["summary"]["max_weak_ratio"] <= WEAK_CEILING,
                "pass": report["summary"]["pass"] is True,
                "fixture_hash": report["fixture_hash"] == fixture_hash,
            }

        return _checks(["max_weak_ratio", "pass", "fixture_hash"], rc, evaluate)

    return oracle


def scan(seed: int, fixtures: dict, fixture_hash: str, small: bool = False) -> list[Step]:
    workers = str(min(2, os.cpu_count() or 1))
    if small:
        improving_n, maximal_n = ["8192", "32768"], ["8192", "16384"]
    else:
        improving_n, maximal_n = ["65536", "262144"], ["8192", "32768", "131072"]
    improving = ["improving", "--seed", str(seed), "--N-list", *improving_n,
                 "--y-list", "1", "3", "5", "--workers", workers]
    maximal = ["maximal", "--seed", str(seed), "--N-list", *maximal_n, "--y-list", "1", "5",
               "--b-sweep", "--weak-ceiling", str(WEAK_CEILING), "--workers", workers]
    return [Step(improving, improving_oracle(fixture_hash)), Step(maximal, maximal_oracle(fixture_hash))]


WORKLOADS = {"verify": verify, "spectral": spectral, "scan": scan}
