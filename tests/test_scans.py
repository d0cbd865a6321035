import multiprocessing

import numpy as np
import pytest

from primeavg.cli import _csv_text
from primeavg.multiplier import a_hat_profile, a_kernel, indicator, pow2_at_least
from primeavg.scans import (
    _improving_value,
    fit_exponent,
    improving_scan,
    input_families,
    maximal_scan,
)
from primeavg.tables import Progression


# ---------------------------------------------------------------------------
# Kernel and single-case ratios


def test_a_kernel_mass(tables):
    from primeavg.tables import psi_progression

    N, prog = 1 << 12, Progression(3, 1)
    kern = a_kernel(N, prog, 1 << 14, tables)
    assert kern.sum() == pytest.approx(2 / N * psi_progression(N, prog, tables))
    assert kern[0] == 0.0 and kern[N:].sum() == 0.0


def test_improving_ratio_single_point_closed_form(tables):
    # F = {0}: A 1_F(x) = phi(y)/N Lambda(x) 1_{x = b mod y}, so the r'-norm
    # is computable directly from the table
    N, prog, r = 1 << 12, Progression(3, 1), 1.5
    rp = r / (r - 1.0)
    n = np.arange(1, N, 3)
    num = ((2 / N * tables.von_mangoldt[n]) ** rp).sum() ** (1 / rp)
    den = (3 / N) ** (1 / r - 1 / rp)
    expected = num / den
    M = pow2_at_least(4 * N)
    conv = a_hat_profile(N, prog, M, tables).apply(indicator([0], M))
    assert _improving_value(conv, r, prog.y, N, 1) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# Input families


def test_input_families_deterministic(tables):
    prog = Progression(3, 1)
    a = input_families(1 << 10, prog, np.random.default_rng(5), tables=tables)
    b = input_families(1 << 10, prog, np.random.default_rng(5), tables=tables)
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_input_families_contents(tables):
    prog = Progression(3, 1)
    fams = input_families(1 << 10, prog, np.random.default_rng(0), tables=tables)
    assert fams["interval"][-1] == (1 << 9) - 1
    assert all(v % 3 == 1 for v in fams["progression_segment"])
    assert "bernoulli_2^-3" in fams and "bernoulli_2^-5" in fams
    assert all(tables.von_mangoldt[v] > 0 for v in fams["greedy_lambda"])


# ---------------------------------------------------------------------------
# Improving scan


def _small_improving_config(**kw):
    cfg = {
        "N_list": [1 << 10, 1 << 11],
        "y_list": [1, 3],
        "r_list": [1.5],
        "seed": 0,
        "n_floor_factor": 256,
    }
    cfg.update(kw)
    return cfg


def test_improving_scan_unknown_key():
    with pytest.raises(TypeError):
        improving_scan(**_small_improving_config(bogus=1))


def test_improving_scan_floor_violation():
    with pytest.raises(ValueError):
        improving_scan(**_small_improving_config(y_list=[5]))


def test_improving_scan_report_shape():
    rows, report = improving_scan(**_small_improving_config())
    assert set(report) == {"parameters", "summary"}
    assert {r["family"] for r in rows} >= {"interval", "progression_segment"}
    key = "y=3,r=1.5"
    assert key in report["summary"]["stability"]
    assert isinstance(report["summary"]["stable"], bool)


def test_improving_scan_workers_deterministic():
    serial = improving_scan(**_small_improving_config())
    parallel = improving_scan(**_small_improving_config(), workers=4)
    assert serial == parallel


def test_improving_scan_stable_at_small_scale():
    _, report = improving_scan(**_small_improving_config())
    assert report["summary"]["stable"] is True


# ---------------------------------------------------------------------------
# Maximal scan


def _small_maximal_config(**kw):
    cfg = {
        "N_list": [1 << 10, 1 << 11],
        "y_list": [1, 3],
        "r": 2.0,
        "lambda_grid": [0.5, 0.25],
        "seed": 0,
        "b_sweep": True,
        "n_floor_factor": 256,
    }
    cfg.update(kw)
    return cfg


def test_maximal_scan_unknown_key():
    with pytest.raises(TypeError):
        maximal_scan(**_small_maximal_config(nope=True))


def test_maximal_scan_floor_violation():
    with pytest.raises(ValueError):
        maximal_scan(**_small_maximal_config(y_list=[7]))


def test_maximal_scan_b_sweep_covers_residues():
    _, report = maximal_scan(**_small_maximal_config())
    keys = set(report["summary"]["max_weak_by_yb"])
    assert {"y=3,b=1", "y=3,b=2", "y=1,b=0"} <= keys
    assert "3" in report["summary"]["b_variation"]
    assert report["summary"]["b_variation"]["3"] >= 1.0


def test_maximal_scan_q_policy_column():
    rows, _ = maximal_scan(**_small_maximal_config())
    for row in rows:
        assert row["q_policy"] == pytest.approx(row["lambda"] ** (-1.0 + row["r"] / 2.0))


def test_maximal_scan_weak_below_strong():
    # weak-type ratio never exceeds the strong-type norm ratio
    rows, _ = maximal_scan(**_small_maximal_config())
    for row in rows:
        assert row["weak_ratio"] <= row["strong_ratio"] + 1e-12


def test_maximal_scan_workers_deterministic():
    serial = maximal_scan(**_small_maximal_config())
    parallel = maximal_scan(**_small_maximal_config(), workers=4)
    assert serial == parallel


@pytest.mark.parametrize("scan", ["improving", "maximal"])
def test_scan_sieves_once(monkeypatch, scan):
    # one sieve up to max(N_list) serves every cell as a cached view
    from primeavg import tables as tables_mod

    monkeypatch.setattr(tables_mod, "_TABLE_CACHE", {})
    sieved = []
    sieve = tables_mod._sieve
    monkeypatch.setattr(tables_mod, "_sieve", lambda n: sieved.append(n) or sieve(n))
    if scan == "improving":
        improving_scan(**_small_improving_config(), workers=1)
    else:
        maximal_scan(**_small_maximal_config(), workers=1)
    assert sieved == [1 << 11]  # max(N_list)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers inherit only by fork"
)
@pytest.mark.parametrize("scan", ["improving", "maximal"])
def test_scan_workers_reuse_parent_sieve(monkeypatch, scan):
    # the forked workers inherit the parent's table and this patched sieve,
    # so a worker that sieved again would raise through the pool
    from primeavg import tables as tables_mod

    monkeypatch.setattr(tables_mod, "_TABLE_CACHE", {})
    sieved = []
    sieve = tables_mod._sieve

    def sieve_once(n):
        if sieved:
            raise AssertionError(f"second sieve up to {n}")
        sieved.append(n)
        return sieve(n)

    monkeypatch.setattr(tables_mod, "_sieve", sieve_once)
    if scan == "improving":
        improving_scan(**_small_improving_config(), workers=2)
    else:
        maximal_scan(**_small_maximal_config(), workers=2)
    assert sieved == [1 << 11]


# ---------------------------------------------------------------------------
# Report plumbing


def test_report_csv_formats_12_sig_digits():
    rows, _ = improving_scan(**_small_improving_config(y_list=[1], N_list=[1 << 10]))
    line = _csv_text(rows).splitlines()[1]
    ratio_field = line.split(",")[-1]
    mantissa = ratio_field.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa.split("e")[0]) <= 12
    assert float(ratio_field) > 0


def test_report_json_carries_provenance(tmp_path):
    import json

    from primeavg.cli import main

    rc = main(["maximal", "--N-list", "1024", "2048", "--y-list", "1", "--r", "2.0",
               "--workers", "1", "--out-dir", str(tmp_path)])
    assert rc in (0, 1)
    payload = json.loads((tmp_path / "maximal.json").read_text())
    assert payload["seed"] == 0
    assert payload["fixture_hash"]
    assert payload["parameters"]["r"] == 2.0


def test_fit_exponent_exact_power_law():
    x = np.array([2.0, 4.0, 8.0, 16.0])
    assert fit_exponent(x, 3.0 * x**-1.25) == pytest.approx(-1.25, abs=1e-12)
    assert fit_exponent(x, x**0.5) == pytest.approx(0.5, abs=1e-12)
