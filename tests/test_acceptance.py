"""Acceptance criteria for the full laboratory, one test per criterion.

Each test prints a single PASS/FAIL line (run with pytest -s to see them)
and then asserts the criterion as stated.  Two criteria are expected to
fail honestly: the height-class closed-form count is wrong off coprime
(y, r) pairs, and the Bourgain-average fitted exponent at y=12 measures a
transition-regime onset rather than growth.  Both are asserted as stated
anyway; the companion identity/trend content is covered by passing tests
elsewhere in the suite.
"""

import math
import time

import numpy as np
import pytest

from primeavg import fixtures as fx
from primeavg.expsums import (
    verify_cohen_progression,
    verify_gauss_upsilon,
    verify_progression_ramanujan,
)
from primeavg.tables import Progression, build_tables

from oracles import count_height_class, divisor_tau_check, lo_kernel_closed


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {verdict} {title}: {detail}")


def test_criterion_01_exact_identity_suite(tables):
    t0 = time.monotonic()
    err_r, count_r = verify_progression_ramanujan(96, 36, max_tuples=100_000, seed=0)
    err_u, count_u = verify_gauss_upsilon(96, 36, max_tuples=100_000, seed=0)
    elapsed = time.monotonic() - t0
    ok = err_r < 1e-8 and err_u < 1e-8 and elapsed < 300
    _report(
        1,
        "exact identity suite",
        ok,
        f"scaled errs {err_r:.2e}/{err_u:.2e} over {count_r}+{count_u} tuples "
        f"in {elapsed:.1f}s",
    )
    assert err_r < 1e-8
    assert err_u < 1e-8
    assert elapsed < 300


def test_criterion_02_cohen_progression_identity(tables):
    err, count = verify_cohen_progression(64, 24, tables)
    ok = err < 1e-8
    _report(2, "Cohen progression identity", ok, f"max scaled err {err:.2e} over {count} cases")
    assert ok


def test_criterion_03_divisor_identity(tables):
    failures = sum(
        divisor_tau_check(r, x, tables) != (r if x % r == 0 else 0)
        for r in range(1, 201)
        for x in range(2 * r)
    )
    ok = failures == 0
    _report(3, "divisor identity", ok, f"{failures} failures over r <= 200")
    assert ok


def test_criterion_04_height_class_count(tables):
    # stated closed form: phi(r) * y / gcd(y, r); expected to fail off the
    # coprime pairs, where the enumerated count is zero
    mismatches = 0
    for y in range(1, 61):
        for r in range(1, 61):
            enum, _ = count_height_class(y, r, tables)
            stated = int(tables.totient[r]) * y // math.gcd(y, r)
            mismatches += enum != stated
    ok = mismatches == 0
    _report(4, "height-class count", ok, f"{mismatches}/3600 pairs off the stated formula")
    assert ok, f"stated count formula fails on {mismatches} non-coprime pairs"


def test_criterion_05_bourgain_progression_average():
    t0 = time.monotonic()
    exponents = {
        y: fx.measure_fixture(f"bourgain_exponent_y{y}") for y in (1, 5, 12)
    }
    ceiling = fx.measure_fixture("bourgain_ratio_ceiling_t2")
    elapsed = time.monotonic() - t0
    ceiling_ok = fx.check_fixture("bourgain_ratio_ceiling_t2", ceiling)
    exp_ok = all(e <= 1.25 for e in exponents.values())
    ok = ceiling_ok and exp_ok and elapsed < 600
    _report(
        5,
        "Bourgain progression average",
        ok,
        f"exponents {exponents}, ceiling {ceiling:.4f}, {elapsed:.1f}s",
    )
    assert ceiling_ok
    assert elapsed < 600
    for y, e in exponents.items():
        assert e <= 1.25, f"fitted exponent {e:.4f} > 1.25 at y={y}"


def test_criterion_06_approximation_decay():
    names = [
        ("residual_sup_y1_N12", "residual_sup_y1_N20"),
        ("residual_sup_y3_N12", "residual_sup_y3_N20"),
    ]
    ok = True
    details = []
    for small, large in names:
        v_small = fx.measure_fixture(small)
        v_large = fx.measure_fixture(large)
        ok &= v_large < v_small
        ok &= fx.check_fixture(small, v_small) and fx.check_fixture(large, v_large)
        details.append(f"{small.split('_')[2]}: {v_small:.5f} -> {v_large:.5f}")
    for y in (1, 3):
        seq = [fx.measure_fixture(f"near_zero_y{y}_N{k}") for k in (12, 16, 20)]
        ok &= seq[0] > seq[1] > seq[2]
        ok &= all(
            fx.check_fixture(f"near_zero_y{y}_N{k}", v) for k, v in zip((12, 16, 20), seq)
        )
        details.append(f"near_zero y={y}: " + "/".join(f"{v:.4f}" for v in seq))
    _report(6, "approximation decay", ok, "; ".join(details))
    assert ok


def _dual_path_rel(y: int, b: int, Q: int, M: int, tables) -> float:
    from primeavg.highlow import DecompositionConfig, lo_hat_profile

    cfg = DecompositionConfig(N=1 << 12, prog=Progression(y, b), Q=Q, M=M)
    ks = lo_hat_profile(cfg).kernel()
    kc = lo_kernel_closed(cfg, tables)
    peak = float(np.abs(ks).max())
    if peak == 0.0:
        return 0.0
    return float(np.abs(ks - kc).max()) / peak


def test_criterion_07_dual_path_low_kernel(tables):
    worst = 0.0
    worst_shrink_violation = None
    for y in range(1, 7):
        b = 0 if y == 1 else 1
        for Q in (2, 4, 8):
            rel = _dual_path_rel(y, b, Q, 1 << 16, tables)
            worst = max(worst, rel)
            if rel > 1e-10:
                # discretization-dominated: doubling M must shrink it 2x
                rel2 = _dual_path_rel(y, b, Q, 1 << 17, tables)
                if rel2 > rel / 2:
                    worst_shrink_violation = (y, Q, rel, rel2)
    ok = worst <= 1e-3 and worst_shrink_violation is None
    _report(
        7,
        "dual-path Low kernel",
        ok,
        f"worst rel discrepancy {worst:.2e}, shrink violation {worst_shrink_violation}",
    )
    assert worst <= 1e-3
    assert worst_shrink_violation is None


def test_criterion_08_highlow_partition(tables):
    from primeavg.highlow import DecompositionConfig, hi_hat_profile, lo_hat_profile
    from primeavg.multiplier import approximant_profile

    worst = 0.0
    for N, y, b, Q in (
        (1 << 12, 1, 0, 2),
        (1 << 12, 3, 1, 4),
        (1 << 14, 3, 1, 8),
        (1 << 12, 5, 1, 4),
        (1 << 12, 6, 1, 8),
    ):
        cfg = DecompositionConfig(N=N, prog=Progression(y, b), Q=Q, M=4 * N)
        total = approximant_profile(N, cfg.prog, cfg.q_cut, cfg.M)
        split = hi_hat_profile(cfg).values + lo_hat_profile(cfg).values
        worst = max(worst, float(np.abs(split - total.values).max()))
    ok = worst < 1e-10
    _report(8, "High/Low partition", ok, f"worst pointwise gap {worst:.2e}")
    assert ok


def test_criterion_09_high_part_decay():
    slopes = {y: fx.measure_fixture(f"hi_decay_slope_y{y}") for y in (1, 3)}
    ok = all(s <= -0.7 for s in slopes.values())
    _report(9, "High-part decay", ok, f"fitted exponents {slopes}")
    for y, s in slopes.items():
        assert s <= -0.7, f"slope {s:.3f} > -0.7 at y={y}"


def test_criterion_10_improving_stability():
    from primeavg.scans import improving_scan

    t0 = time.monotonic()
    _, report = improving_scan(
        N_list=[1 << 16, 1 << 18],
        y_list=[1, 3, 5],
        r_list=[1.5],
        seed=0,
        workers=8,
    )
    elapsed = time.monotonic() - t0
    ok = report["summary"]["stable"] and elapsed < 900
    factors = {
        k: [f"{f:.3f}" for f in v["step_factors"]]
        for k, v in report["summary"]["stability"].items()
    }
    _report(10, "improving stability", ok, f"step factors {factors} in {elapsed:.1f}s")
    assert report["summary"]["stable"]
    assert elapsed < 900


def test_criterion_11_maximal_weak_type():
    weak = fx.measure_fixture("maximal_weak_ceiling")
    variation = fx.measure_fixture("maximal_b_variation_y5")
    weak_ok = fx.check_fixture("maximal_weak_ceiling", weak)
    var_ok = variation < 1.5
    ok = weak_ok and var_ok
    _report(
        11,
        "maximal weak-type",
        ok,
        f"max weak ratio {weak:.4f} (fixture check {weak_ok}), b-variation {variation:.4f}",
    )
    assert weak_ok
    assert var_ok


def test_criterion_12_convolution_oracle():
    from primeavg.multiplier import SpectralProfile, indicator

    rng = np.random.default_rng(12)
    worst, parities = 0.0, set()  # irfft rebuilds k > M/2 differently at odd and even M
    for _ in range(1000):
        M = int(rng.integers(4, 1 << 10))
        k = rng.standard_normal(M)
        F = rng.choice(M, size=int(rng.integers(1, min(33, M + 1))), replace=False)
        f = indicator(F, M)
        via_fft = SpectralProfile(M, np.fft.rfft(k)).apply(np.fft.rfft(f))
        direct = np.zeros(M)
        for u in F:
            direct += np.roll(k, u)
        worst = max(worst, float(np.abs(via_fft - direct).max()))
        parities.add(M % 2)
    ok = worst < 1e-8 and parities == {0, 1}
    _report(12, "convolution oracle", ok, f"worst discrepancy {worst:.2e} over 1000 draws")
    assert ok
