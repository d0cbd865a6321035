import math
import multiprocessing
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from primeavg import scans
from primeavg.multiplier import a_hat_profile, a_kernel, indicator, pow2_at_least, sup_abs
from primeavg.scans import (
    _class_sums,
    _improving_cell,
    _improving_value,
    _maximal_cell,
    fit_exponent,
    improving_scan,
    input_families,
    maximal_scan,
    run_averages,
    run_cells,
)
from primeavg.tables import Progression, reduced_residues, von_mangoldt

from oracles import csv_text

# ---------------------------------------------------------------------------
# Kernel and single-case ratios


def test_a_kernel_mass():
    from primeavg.tables import psi_progression

    N, prog = 1 << 12, Progression(3, 1)
    kern = a_kernel(N, prog, 1 << 14)
    assert kern.sum() == pytest.approx(2 / N * psi_progression(N, prog))
    assert kern[0] == 0.0 and kern[N:].sum() == 0.0


def test_improving_ratio_single_point_closed_form():
    # F = {0}: A 1_F(x) = phi(y)/N Lambda(x) 1_{x = b mod y}, so the r'-norm
    # is computable directly from the table
    N, prog, r = 1 << 12, Progression(3, 1), 1.5
    rp = r / (r - 1.0)
    n = np.arange(1, N, 3)
    num = ((2 / N * von_mangoldt(N)[n]) ** rp).sum() ** (1 / rp)
    den = (3 / N) ** (1 / r - 1 / rp)
    expected = num / den
    for M in (pow2_at_least(2 * N), pow2_at_least(4 * N)):  # the scans' grid, and twice it
        conv = a_hat_profile(N, prog, M).apply(np.fft.rfft(indicator([0], M)))
        assert _improving_value(conv, r, prog.y, N, 1) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# Scan grids: the cell's cyclic convolution against one on twice the grid


def _run_cell_recording_grids(cell, payload):
    """The cell's rows and the set of grid sizes it built its profiles on."""
    grids = set()

    def spy(N, prog, M):
        grids.add(M)
        return a_hat_profile(N, prog, M)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scans, "a_hat_profile", spy)
        rows = cell(payload)
    return rows, grids


@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(64, 3000),
    y=st.sampled_from([1, 3, 5]),
    pick=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(N=3000, y=3, pick=1, seed=0)  # N not a power of two
@example(N=2048, y=5, pick=3, seed=1)  # the conv fills [0, 2N - 1) of M = 2N
def test_improving_cell_grid_holds_linear_convolution(N, y, pick, seed):
    residues = reduced_residues(y)
    b = int(residues[pick % len(residues)])
    prog = Progression(y, b)
    rows, grids = _run_cell_recording_grids(_improving_cell, (N, y, b, [1.25, 1.5], (3, 5), seed))
    (M,) = grids
    big = pow2_at_least(4 * N)
    assert M < big
    fams = input_families(N, prog, np.random.default_rng(seed), (3, 5), greedy=True)
    small_prof, big_prof = a_hat_profile(N, prog, M), a_hat_profile(N, prog, big)
    expected = []
    for F in fams.values():
        conv = small_prof.apply(np.fft.rfft(indicator(F, M)))
        oracle = big_prof.apply(np.fft.rfft(indicator(F, big)))
        peak = np.abs(oracle).max()
        # the cell's grid holds the first M >= 2N entries of the twice-longer conv ...
        assert np.abs(conv - oracle[:M]).max() <= 1e-14 * peak
        # ... and past 2N the conv is zero, so there is nothing to wrap
        assert np.abs(oracle[2 * N :]).max() <= 1e-14 * peak
        expected += [_improving_value(oracle, r, y, N, len(F)) for r in (1.25, 1.5)]
    assert [row["ratio"] for row in rows] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("y", [1, 3, 5])
def test_maximal_cell_grid_keeps_weak_counts(y):
    N_list, lambdas, r = [1000, 2048, 3000], [2.0**-k for k in range(1, 7)], 2.0
    for b in reduced_residues(y):
        prog = Progression(y, int(b))
        rows, grids = _run_cell_recording_grids(
            _maximal_cell, (N_list, y, int(b), r, lambdas, (3,), 0)
        )
        (M,) = grids
        big = pow2_at_least(4 * max(N_list))
        assert M < big
        fams = input_families(max(N_list), prog, np.random.default_rng(0), (3,))
        strong, weak = {}, {}
        for name, F in fams.items():
            sups = [
                sup_abs([a_hat_profile(N, prog, m) for N in N_list], np.fft.rfft(indicator(F, m)))
                for m in (M, big)
            ]
            for lam in lambdas:
                exceed = int((sups[1] > lam).sum())
                assert (sups[0] > lam).sum() == exceed
                weak[name, lam] = lam * exceed ** (1.0 / r) / len(F) ** (1.0 / r)
            strong[name] = (sups[1] ** r).sum() ** (1 / r) / len(F) ** (1 / r)
        for row in rows:
            assert row["weak_ratio"] == weak[row["family"], row["lambda"]]
            assert row["strong_ratio"] == pytest.approx(strong[row["family"]], rel=1e-14)


# ---------------------------------------------------------------------------
# Running sums for the two arithmetic-run families, against the transform


def _exact_average(N, prog, F, step, M):
    """A_N 1_F on Z_M for the run F, summed exactly and rounded once.

    The float64 kernel is taken in integer units of its least exponent; the
    run's window is a difference of exact running sums along classes mod step.
    """
    kernel = a_kernel(N, prog, M)
    E = int(np.frexp(kernel[kernel > 0])[1].min()) - 53
    sums = np.zeros(-(-M // step) * step, dtype=object)
    support = np.flatnonzero(kernel)
    sums[support] = [int(v) for v in np.ldexp(kernel[support], -E)]
    sums = sums.reshape(-1, step).cumsum(axis=0).ravel()[:M]
    s, span = int(F[0]), step * len(F)
    exact = np.zeros(M, dtype=object)
    exact[s:] = sums[: M - s]
    exact[s + span :] -= sums[: M - s - span]
    return exact.astype(np.float64) * 2.0**E  # float(int) rounds once


@pytest.mark.parametrize("N", [3000, 1 << 12, 1 << 16])
@pytest.mark.parametrize("y", [1, 3, 5])
def test_run_averages_match_transform_and_exact_sum(N, y):
    # both run families at every b, and the maximal cell's shorter kernels
    # (N/4 has fewer class points than the run): the running sums err at most
    # the transform's error plus one unit in the last place of the peak
    M = pow2_at_least(2 * N)
    Ns = [N // 4, N // 2, N]
    for b in reduced_residues(y):
        prog = Progression(y, int(b))
        fams = input_families(N, prog, np.random.default_rng(0), ())
        for name, step in (("interval", 1), ("progression_segment", y)):
            F = fams[name]
            for n, avg in zip(Ns, run_averages(Ns, prog, F, step)):
                runs = np.zeros(M)
                runs[F[0] + int(b) % step :: step][: len(avg)] = avg
                exact = _exact_average(n, prog, F, step, M)
                fft = a_hat_profile(n, prog, M).apply(np.fft.rfft(indicator(F, M)))
                peak = exact.max()
                assert np.abs(runs - fft).max() <= 1e-14 * peak
                assert np.abs(runs - exact).max() <= np.abs(fft - exact).max() + np.spacing(peak)
                # the exact sum is the direct one, correctly rounded
                kernel = a_kernel(n, prog, M)
                for x in (int(exact.argmax()), int(F[0]) + n - 1, n + len(F) // 2):
                    f = x - F
                    assert exact[x] == math.fsum(kernel[f[f >= 0]])


def _count_transforms(monkeypatch) -> list:
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, t=transform, **k: calls.append(t) or t(*a, **k))
    return calls


def test_run_families_take_no_transform(monkeypatch):
    calls = _count_transforms(monkeypatch)
    # a_hat's rfft, then an rfft/irfft pair for each Bernoulli set and the greedy set
    _improving_cell((1 << 12, 3, 1, [1.5], (3, 5), 0))
    assert len(calls) == 7
    calls.clear()
    # a_hat's rfft per N, then the Bernoulli set's rfft and an irfft per N
    _maximal_cell(([1024, 2048, 4096], 5, 1, 2.0, [0.5, 0.25], (3,), 0))
    assert len(calls) == 7
    calls.clear()
    # no family needs a_hat: no profile is built
    _maximal_cell(([1024, 2048, 4096], 5, 1, 2.0, [0.5, 0.25], (), 0))
    assert calls == []


def test_run_average_holds_less_than_transform():
    N, prog = 1 << 16, Progression(1, 0)
    M, F = pow2_at_least(2 * N), np.arange(N // 2)
    hi, lo = _class_sums(N, prog, 1)
    assert hi.nbytes + lo.nbytes <= 8 * M  # one float64 array of length M
    profile = a_hat_profile(N, prog, M)  # shared by a cell's families, built before either trace
    peaks = []
    for average in (lambda: list(run_averages([N], prog, F, 1)),
                    lambda: profile.apply(np.fft.rfft(indicator(F, M)))):
        tracemalloc.start()
        average()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_sup_abs_of_one_profile_holds_no_more_than_apply():
    # sup_abs takes the input's transform, so the indicator is freed before
    # the profile runs, and takes |.| in place
    N, prog = 1 << 16, Progression(3, 1)
    M, F = pow2_at_least(2 * N), np.flatnonzero(np.random.default_rng(0).random(N) < 0.125)
    profiles = [a_hat_profile(N, prog, M)]
    peaks = []
    for transform in (lambda: sup_abs(profiles, np.fft.rfft(indicator(F, M))),
                      lambda: profiles[0].apply(np.fft.rfft(indicator(F, M)))):
        tracemalloc.start()
        transform()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # each holds three arrays of 8 M bytes; sup_abs adds its loop's iterator, well under 1 kB
    assert peaks[0] <= peaks[1] + 1024


# ---------------------------------------------------------------------------
# Input families


def test_input_families_deterministic():
    prog = Progression(3, 1)
    a = input_families(1 << 10, prog, np.random.default_rng(5), (3, 5), greedy=True)
    b = input_families(1 << 10, prog, np.random.default_rng(5), (3, 5), greedy=True)
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_input_families_contents():
    prog = Progression(3, 1)
    fams = input_families(1 << 10, prog, np.random.default_rng(0), (3, 5), greedy=True)
    assert fams["interval"][-1] == (1 << 9) - 1
    assert all(v % 3 == 1 for v in fams["progression_segment"])
    assert "bernoulli_2^-3" in fams and "bernoulli_2^-5" in fams
    assert all(von_mangoldt(1 << 10)[v] > 0 for v in fams["greedy_lambda"])


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


@pytest.mark.parametrize("scan", ["improving", "maximal"])
def test_scan_floor_violation_names_the_least_N(scan):
    # one admission rule, one message: the least N is checked against floor*y
    run, config = (improving_scan, _small_improving_config) if scan == "improving" else (maximal_scan, _small_maximal_config)
    with pytest.raises(ValueError, match=r"^N=1024 below desk-scale floor 256\*y for y=5$"):
        run(**config(y_list=[1, 5]))


def test_maximal_scan_owns_its_verdict():
    # pass: the max weak ratio at most weak_ceiling, each variation over b below VARIATION_CAP
    _, report = maximal_scan(**_small_maximal_config())
    summary = report["summary"]
    assert summary["pass"] is (
        summary["max_weak_ratio"] <= 1.0 and all(v < scans.VARIATION_CAP for v in summary["b_variation"].values())
    )
    _, low = maximal_scan(**_small_maximal_config(weak_ceiling=summary["max_weak_ratio"] / 2))
    assert low["summary"]["pass"] is False
    assert {k: v for k, v in low["summary"].items() if k != "pass"} == {k: v for k, v in summary.items() if k != "pass"}


@pytest.mark.parametrize("lambdas", [(0.5, 0.0), (-0.25,)])
def test_maximal_scan_rejects_nonpositive_lambda_before_any_cell(monkeypatch, lambdas):
    def must_not_run(*args, **kwargs):
        pytest.fail("a scan cell ran before the lambda grid was checked")

    monkeypatch.setattr(scans, "run_cells", must_not_run)
    with pytest.raises(ValueError, match=r"^--lambda-grid needs positive values, got \["):
        maximal_scan(**_small_maximal_config(lambda_grid=lambdas))


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


def _record_sieves(monkeypatch, once=False):
    """Empty both table caches and record each sieve's bound, by table; with once, a second sieve of a table raises."""
    from primeavg import tables as tables_mod

    sieved = {"lambda": [], "mu_phi": []}
    for kind, name, cache in (("lambda", "_lambda_sieve", "_LAMBDA_CACHE"), ("mu_phi", "_sieve", "_TABLE_CACHE")):
        monkeypatch.setattr(tables_mod, cache, {})

        def record(n, kind=kind, sieve=getattr(tables_mod, name)):
            if once and sieved[kind]:
                raise AssertionError(f"second {kind} sieve up to {n}")
            sieved[kind].append(n)
            return sieve(n)

        monkeypatch.setattr(tables_mod, name, record)
    return sieved


@pytest.mark.parametrize("scan", ["improving", "maximal"])
def test_scan_sieves_once(monkeypatch, scan):
    # one sieve of each table, Lambda up to max(N_list) and mu/phi up to
    # max(y_list), serves every cell as a cached view
    sieved = _record_sieves(monkeypatch)
    if scan == "improving":
        improving_scan(**_small_improving_config(), workers=1)
    else:
        maximal_scan(**_small_maximal_config(), workers=1)
    assert sieved == {"lambda": [1 << 11], "mu_phi": [3]}  # max(N_list), max(y_list)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers inherit only by fork"
)
@pytest.mark.parametrize("scan", ["improving", "maximal"])
def test_scan_workers_reuse_parent_sieve(monkeypatch, scan):
    # the forked workers inherit the parent's tables and these patched sieves,
    # so a worker that sieved again would raise through the pool
    sieved = _record_sieves(monkeypatch, once=True)
    if scan == "improving":
        improving_scan(**_small_improving_config(), workers=2)
    else:
        maximal_scan(**_small_maximal_config(), workers=2)
    assert sieved == {"lambda": [1 << 11], "mu_phi": [3]}


def _warning_cell(cell):
    warnings.warn(f"cell {cell}")
    return [cell]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_cells_returns_rows_and_warnings_in_cell_order(workers):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_cells(_warning_cell, list("abcde"), workers)
    assert rows == list("abcde")
    assert [str(w.message) for w in caught] == [f"cell {c}" for c in "abcde"]


def _pid_cell(cell):
    return [os.getpid()]


@pytest.mark.parametrize("workers, cells, in_pool", [(1, 3, False), (2, 1, False), (2, 3, True)])
def test_run_cells_uses_a_pool_only_for_two_tasks_and_workers(workers, cells, in_pool):
    pids = run_cells(_pid_cell, list(range(cells)), workers)
    assert len(pids) == cells
    assert all((pid != os.getpid()) == in_pool for pid in pids)


def _fresh_cell(cell):
    if cell == "raise":
        raise KeyError(cell)
    if cell == "die":
        os._exit(3)
    if cell == "big":
        np.ones(1 << 23)  # 64 MiB, touched and freed
    return [(os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if resource else 0)]


@pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_run_cells_fresh_gives_each_cell_its_own_process_and_peak():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cells(_warning_cell, list("abcde"), 2, fresh=True) == list("abcde")
    assert [str(w.message) for w in caught] == [f"cell {c}" for c in "abcde"]
    # a persistent worker would carry the big cell's 64 MiB high-water mark into the next cell
    (big_pid, big_peak), *probes = run_cells(_fresh_cell, ["big", "probe", "probe", "probe"], 2, fresh=True)
    assert len({big_pid, os.getpid(), *(pid for pid, _ in probes)}) == 5
    assert all(peak < big_peak - 32 * 1024 for _, peak in probes)


def test_run_cells_fresh_raises_a_cells_error_and_a_lost_process():
    with pytest.raises(KeyError):
        run_cells(_fresh_cell, ["probe", "raise", "probe"], 2, fresh=True)
    with pytest.raises(EOFError):
        run_cells(_fresh_cell, ["probe", "die", "probe"], 2, fresh=True)


# ---------------------------------------------------------------------------
# Report plumbing


def test_report_csv_formats_12_sig_digits():
    rows, _ = improving_scan(**_small_improving_config(y_list=[1], N_list=[1 << 10]))
    line = csv_text(rows).splitlines()[1]
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


def test_fit_exponent_closed_form_matches_polyfit_and_exact_slope():
    # fit_exponent is the closed-form slope sum lx ly / sum lx^2 over centred
    # log x, which calls no LAPACK; it was np.polyfit.  The scale of the slope's
    # rounding is sum |lx ly| / sum lx^2.  Against the exact slope of the same
    # float logs (rational arithmetic) the closed form is within 4 ulp of that
    # scale; polyfit, through lstsq, is within 16
    from fractions import Fraction

    eps = np.finfo(float).eps
    rng = np.random.default_rng(13)
    for _ in range(500):
        k = int(rng.integers(2, 6))
        x = 2.0 ** np.sort(rng.choice(np.arange(1, 8), k, replace=False))
        yvals = rng.uniform(0.1, 3.0) * x ** rng.uniform(-2.0, 2.0) * np.exp(rng.normal(0.0, 0.3, k))
        lx, ly = np.log(x), np.log(yvals)
        centred = lx - lx.mean()
        scale = float(np.abs(centred * ly).sum() / (centred**2).sum())
        X, Y = [Fraction(v) for v in lx], [Fraction(v) for v in ly]
        mx, my = sum(X) / k, sum(Y) / k
        exact = float(sum((u - mx) * (v - my) for u, v in zip(X, Y)) / sum((u - mx) ** 2 for u in X))
        slope = fit_exponent(x, yvals)
        assert abs(slope - exact) <= 4 * eps * scale
        assert abs(slope - np.polyfit(lx, ly, 1)[0]) <= 16 * eps * scale


def test_fit_exponent_exact_power_law():
    x = np.array([2.0, 4.0, 8.0, 16.0])
    assert fit_exponent(x, 3.0 * x**-1.25) == pytest.approx(-1.25, abs=1e-12)
    assert fit_exponent(x, x**0.5) == pytest.approx(0.5, abs=1e-12)
