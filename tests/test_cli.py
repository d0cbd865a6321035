import csv
import json
import os
import platform
import runpy
import subprocess
import sys
import warnings

import pytest

import primeavg
from primeavg import __version__, fixtures, scans
from primeavg.cli import main
from primeavg.fixtures import fixture_hash

from oracles import csv_text


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_provenance(summary_path):
    summary = json.loads(summary_path.read_text())
    assert summary["seed"] == 0
    assert summary["version"] == __version__
    assert summary["fixture_hash"] == fixture_hash()


def test_sw_runs_and_writes_artifacts(tmp_path, capsys):
    rc = main(
        ["sw", "--y", "3", "--b", "1", "--x-grid", "10000", "100000",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    rows = _read_csv(tmp_path / "sw.csv")
    assert len(rows) == 2
    summary = json.loads((tmp_path / "sw.json").read_text())
    assert summary["y"] == 3
    out = json.loads(capsys.readouterr().out)
    assert out["final_rel_error"] == summary["final_rel_error"]


def test_approx_summary_and_csv(tmp_path):
    rc = main(
        ["approx", "--N", "4096", "--y", "3", "--b", "1", "--qcut", "8",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "approx.json").read_text())
    assert 0.0 < summary["sup_residual"] < 1.0
    rows = _read_csv(tmp_path / "approx.csv")
    assert {"xi", "abs_residual"} <= set(rows[0])


@pytest.mark.parametrize(
    "argv, message",
    [
        # q_cut = 8 exceeds N^(1/10) = 2.30 at N = 4096
        (["approx", "--N", "4096", "--y", "3", "--b", "1", "--qcut", "8"],
         "q_cut=8 exceeds N^(1/10)=2.30; desk-scale override"),
        # the same split twice warns twice and is listed once
        (["highlow", "--N", "4096", "--Q-list", "2", "2"],
         "Q=2 <= q_cut=3 <= N^(1/10)=2.30 violated; desk-scale override"),
    ],
    ids=["approx_qcut", "highlow_repeated"],
)
def test_summary_lists_each_override_once(tmp_path, argv, message):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert summary["warnings"] == [message]


def test_highlow_partition_gate(tmp_path):
    rc = main(
        ["highlow", "--N", "4096", "--y", "3", "--b", "1",
         "--Q-list", "2", "4", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "highlow.json").read_text())
    assert summary["max_partition_err"] < 1e-10
    assert summary["partition_pass"] is True


def test_improving_small_scan_exit_zero(tmp_path):
    rc = main(
        ["improving", "--N-list", "1024", "2048", "--y-list", "1",
         "--workers", "1", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "improving.json").read_text())
    assert report["summary"]["stable"] is True


def test_maximal_small_scan(tmp_path):
    rc = main(
        ["maximal", "--N-list", "1024", "2048", "--y-list", "1",
         "--weak-ceiling", "1.0", "--workers", "1", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "maximal.json").read_text())
    assert report["summary"]["pass"] is True


def test_ramanujan_avg_exponent_cap_failure(tmp_path):
    # a cap below any plausible fit forces the failure exit code
    rc = main(
        ["ramanujan-avg", "--y", "1", "--b", "0", "--Q-list", "4", "8", "16",
         "--exponent-cap", "0.1", "--out-dir", str(tmp_path)]
    )
    assert rc == 1


def test_verify_no_fixtures(tmp_path):
    rc = main(
        ["verify", "--no-fixtures", "--qmax", "24", "--ymax", "8",
         "--cohen-qmax", "16", "--cohen-ymax", "6", "--max-tuples", "2000",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    rows = _read_csv(tmp_path / "verify.csv")
    suites = {r["suite"] for r in rows}
    assert "progression_ramanujan" in suites and "divisor_identity" in suites
    assert "fixture" not in suites
    _assert_provenance(tmp_path / "verify.json")


def test_verify_selected_fixture(tmp_path):
    rc = main(
        ["verify", "--qmax", "12", "--ymax", "4", "--cohen-qmax", "8",
         "--cohen-ymax", "4", "--max-tuples", "500",
         "--fixture-names", "near_zero_y1_N12", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    rows = _read_csv(tmp_path / "verify.csv")
    fix = [r for r in rows if r["suite"] == "fixture"]
    assert [r["name"] for r in fix] == ["near_zero_y1_N12"]
    assert fix[0]["pass"] == "True"


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"y": 3, "b": 1, "bogus_knob": 7}))
    rc = main(["sw", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_floor_violation_exits_two(tmp_path, capsys):
    rc = main(
        ["maximal", "--N-list", "1024", "--y-list", "5",
         "--workers", "1", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "floor" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"y": 3, "b": 1, "x_grid": [10000]}))
    rc = main(["sw", "--config", str(cfg), "--y", "5", "--b", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "sw.json").read_text())
    assert summary["y"] == 5 and summary["b"] == 2
    assert summary["x_grid"] == [10000]


def test_improving_workers_csv_identical(tmp_path):
    args = ["improving", "--N-list", "1024", "2048", "--y-list", "1"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert main(args + ["--workers", "1", "--out-dir", str(d1)]) == 0
    assert main(args + ["--workers", "4", "--out-dir", str(d2)]) == 0
    assert (d1 / "improving.csv").read_bytes() == (d2 / "improving.csv").read_bytes()


def test_maximal_b_sweep_workers_artifacts_identical(tmp_path):
    args = ["maximal", "--N-list", "8192", "16384", "--y-list", "1", "5", "--b-sweep"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert main(args + ["--workers", "1", "--out-dir", str(d1)]) == 0
    assert main(args + ["--workers", "2", "--out-dir", str(d2)]) == 0
    for name in ("maximal.csv", "maximal.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_csv_values_use_12_sig_digits(tmp_path):
    main(["sw", "--y", "1", "--b", "0", "--x-grid", "10000",
          "--out-dir", str(tmp_path)])
    row = _read_csv(tmp_path / "sw.csv")[0]
    digits = row["rel_error"].split("e")[0].replace("-", "").replace(".", "").lstrip("0")
    assert 0 < len(digits) <= 12


def test_memory_cap_env_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", "1000")
    rc = main(["sw", "--y", "1", "--b", "0", "--x-grid", "1000000",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error")


def test_memory_cap_env_not_an_integer_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", "abc")
    rc = main(["sw", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "config error: PRIMEAVG_MEMORY_CAP must be an integer, got 'abc'\n"


def _readme_commands():
    """The command lines of the sh block under README's "Command line"."""
    import pathlib
    import shlex

    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("primeavg ")]


def test_readme_commands_run(tmp_path):
    from primeavg.cli import build_parser

    commands = _readme_commands()
    assert len(commands) == 9
    for i, argv in enumerate(commands):
        if argv[0] == "verify":
            build_parser().parse_args(argv)
            continue
        rc = main(argv + ["--out-dir", str(tmp_path / str(i))])
        assert rc in (0, 1), f"{' '.join(argv)} exited {rc}"
        _assert_provenance(tmp_path / str(i) / f"{argv[0]}.json")


def test_config_key_not_taken_by_command_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    rc = main(["verify", "--config", str(cfg), "--no-fixtures", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["0", "-5"])
def test_sw_x_below_one_exits_two(tmp_path, capsys, x):
    rc = main(["sw", "--x-grid", x, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "x must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sw.json").exists()


@pytest.mark.parametrize("qcut", ["0", "1"])
def test_approx_qcut_below_two_exits_two(tmp_path, capsys, qcut):
    # below 2 no Farey point is subtracted: the residual would be a_hat itself
    rc = main(["approx", "--N", "1024", "--qcut", qcut, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "qcut must be >= 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _forbid_verify_suites(monkeypatch, why):
    import primeavg.cli as cli

    def must_not_run(*args, **kwargs):
        pytest.fail(why)

    for suite in ("verify_progression_ramanujan", "verify_gauss_upsilon", "verify_cohen_progression",
                  "verify_divisor_identity", "verify_height_classes", "measure_fixture"):
        monkeypatch.setattr(cli, suite, must_not_run)


@pytest.mark.parametrize("extra", [[], ["--no-fixtures"]])
def test_unknown_fixture_name_exits_two_before_any_suite(tmp_path, capsys, monkeypatch, extra):
    _forbid_verify_suites(monkeypatch, "a suite ran before the fixture names were checked")
    rc = main(["verify", "--fixture-names", "near_zero_y1_N12", "no_such_fixture", *extra,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "no_such_fixture" in capsys.readouterr().err


def test_verify_divisor_identity_reports_pairs_checked(tmp_path):
    rc = main(["verify", "--no-fixtures", "--qmax", "8", "--ymax", "4", "--cohen-qmax", "8",
               "--cohen-ymax", "4", "--max-tuples", "200", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = {r["suite"]: r for r in _read_csv(tmp_path / "verify.csv")}
    # r <= 200 and x < 2r
    assert int(rows["divisor_identity"]["cases"]) == sum(2 * r for r in range(1, 201))
    assert int(rows["height_class_count"]["cases"]) == 60 * 60


@pytest.mark.parametrize(
    "bad, cap",
    [
        (["--t", "0", "--Q-list", "4", "8"], None),
        (["--Q-list", "4"], None),
        # M = 16 y Q^t: 16 * 4^40 points would overflow the average's int64 indices
        (["--t", "40", "--Q-list", "4", "8"], None),
        # M = 256 at Q = 4, so the average would hold 257 entries
        (["--Q-list", "4", "8"], "100"),
        # Q = 0 divides by zero in the average, and a negative Q breaks the fit
        (["--Q-list", "0", "4"], None),
        (["--Q-list", "-4", "4"], None),
    ],
    ids=["t_zero", "one_Q", "t_forty", "above_cap", "Q_zero", "Q_negative"],
)
def test_ramanujan_avg_bad_input_exits_two_before_sieving(tmp_path, capsys, monkeypatch, forbid_sieves, bad, cap):
    if cap is not None:
        monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", cap)
    rc = main(["ramanujan-avg", *bad, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "ramanujan-avg.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["improving", "--r-list", "2.5"], "r must lie in (1, 2)"),
        (["maximal", "--r", "0"], "r must be >= 1"),
        (["maximal", "--r", "-1"], "r must be >= 1"),
    ],
    ids=["improving", "maximal_r0", "maximal_r-1"],
)
def test_improving_r_outside_range_exits_two_before_pool(tmp_path, capsys, monkeypatch, argv, message):
    import primeavg.scans as scans

    def must_not_run(*args, **kwargs):
        pytest.fail("the scan started before r was checked")

    monkeypatch.setattr(scans, "run_cells", must_not_run)
    rc = main([*argv, "--N-list", "1024", "--y-list", "1",
               "--n-floor-factor", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--qmax", "--ymax", "--max-tuples", "--cohen-qmax", "--cohen-ymax"])
def test_verify_size_below_one_exits_two_before_any_suite(tmp_path, capsys, monkeypatch, flag):
    _forbid_verify_suites(monkeypatch, "a suite ran before the sizes were checked")
    rc = main(["verify", flag, "0", "--no-fixtures", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_highlow_Q_below_one_exits_two(tmp_path, capsys):
    rc = main(["highlow", "--N", "1024", "--Q-list", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "Q must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "highlow.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # from q = 1025 on, a window would average N/lcm(y, q) < 1 terms
        (["approx", "--N", "1024", "--y", "1", "--b", "0", "--qcut", "1500"],
         "q_cut=1500 admits q=1025 with lcm(y, q)=1025 > N=1024"),
        # Q = 200 at y = 6 sets q_cut = 1201
        (["highlow", "--N", "4096", "--y", "6", "--b", "1", "--Q-list", "200"],
         "q_cut=1201 admits q=683 with lcm(y, q)=4098 > N=4096"),
        (["highlow", "--N", "1024", "--r", "2.5"], "r must lie in (1, 2), got 2.5"),
        (["highlow", "--N", "1024", "--Q-list", "4", "0"], "Q must be >= 1"),
        # the Low kernel's Phi at q' = 129 = 3 * 43 needs 129^2 <= M/4 = 16384
        (["highlow", "--N", "4096", "--Q-list", "200"],
         "--Q-list 200 needs Phi at q'=129, lcm(y, q')^2 > M/4=16384"),
    ],
    ids=["approx_qcut_above_N", "highlow_qcut_above_N", "highlow_r", "highlow_late_Q", "highlow_phi"],
)
def test_bad_input_exits_two_before_any_window(tmp_path, capsys, monkeypatch, argv, message):
    from primeavg import multiplier

    def must_not_run(*args, **kwargs):
        raise AssertionError("a window was evaluated before the input was checked")

    monkeypatch.setattr(multiplier, "major_arc_window", must_not_run)
    rc = main(argv + ["--out-dir", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, cap, message",
    [
        # M defaults to 4N for approx and 16N for highlow
        (["approx", "--N", "65536"], "100000", "grid size M=262144 exceeds memory cap 100000"),
        (["approx", "--N", "4096", "--M", "3000"], None, "grid size M=3000 must be a power of two"),
        (["approx", "--N", "4096", "--M", "2048"], None, "grid size M=2048 smaller than N=4096"),
        (["highlow", "--N", "16384"], "100000", "grid size M=262144 exceeds memory cap 100000"),
        (["highlow", "--N", "1024", "--M", "20000"], None, "grid size M=20000 must be a power of two"),
    ],
    ids=["approx_cap", "approx_not_pow2", "approx_below_N", "highlow_cap", "highlow_not_pow2"],
)
def test_bad_grid_exits_two_before_sieving(tmp_path, capsys, monkeypatch, forbid_sieves, argv, cap, message):
    if cap is not None:
        monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", cap)
    rc = main(argv + ["--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("y", ["0", "-3"])
@pytest.mark.parametrize("command", ["improving", "maximal"])
def test_nonpositive_y_exits_two_before_sieving(tmp_path, capsys, forbid_sieves, command, y):
    # admission reads each progression's least member, Progression(y, b).start,
    # so a bad y is rejected before Lambda is sieved to N_max
    rc = main([command, "--N-list", "2048", "--y-list", y, "--workers", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: spacing y must be positive, got {y}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["improving", "maximal"])
def test_scan_grid_above_memory_cap_exits_two_before_sieving(tmp_path, capsys, monkeypatch, forbid_sieves, command):
    # the cells' grid pow2_at_least(2 N_max) = 131072 is checked before any sieve
    monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", "100000")
    rc = main([command, "--N-list", "65536", "--y-list", "1", "--workers", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "grid size M=131072 exceeds memory cap 100000" in err
    assert not list(tmp_path.iterdir())


def test_verify_recipe_grid_above_memory_cap_exits_two(tmp_path, capsys, monkeypatch):
    # the recipe's approx grid is M = 4N = 2^22; the library's check surfaces
    # from the pool as a config error, not as a failed property.  A run cached
    # by an earlier test would skip the check: a fresh `primeavg verify` has
    # measured nothing when it forks, so the test starts from a cold cache
    fixtures._command.cache_clear()
    monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", "2000000")
    rc = main(["verify", "--qmax", "8", "--ymax", "4", "--cohen-qmax", "8", "--cohen-ymax", "4",
               "--max-tuples", "200", "--fixture-names", "residual_sup_y1_N20", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "config error: grid size M=4194304 exceeds memory cap 2000000\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore:'primeavg.cli' found in sys.modules")
def test_verify_run_as_module_exits_two_on_a_recipes_config_error(tmp_path, capsys, monkeypatch):
    # with primeavg.cli imported, `python -m primeavg.cli` runs its main, so a
    # command recipe raises the ConfigError that main catches
    fixtures._command.cache_clear()
    monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", "16000")
    monkeypatch.setattr(sys, "argv", ["primeavg", "verify", "--qmax", "4", "--ymax", "2", "--cohen-qmax", "4",
                                      "--cohen-ymax", "2", "--max-tuples", "10",
                                      "--fixture-names", "bourgain_exponent_y1", "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("primeavg.cli", run_name="__main__")
    assert done.value.code == 2
    err = "config error: --Q-list 32 averages to M=16384, 16385 entries above memory cap 16000\n"
    assert capsys.readouterr().err == err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore:'primeavg.cli' found in sys.modules")
def test_run_as_module_calls_primeavg_cli_main(monkeypatch):
    # with primeavg.cli imported, the __main__ copy hands over to its main, so a
    # command recipe's `from . import cli` reads the ConfigError, COMMANDS and parser main uses
    import primeavg.cli as cli

    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("primeavg.cli") or 0)
    with pytest.raises(SystemExit) as done:
        runpy.run_module("primeavg.cli", run_name="__main__")
    assert done.value.code == 0 and calls == ["primeavg.cli"]


def test_run_as_module_registers_itself_as_primeavg_cli(tmp_path, monkeypatch):
    # a fresh `python -m primeavg.cli` has imported no primeavg.cli: the
    # __main__ module takes that name, so no recipe imports a second copy
    monkeypatch.delitem(sys.modules, "primeavg.cli")
    monkeypatch.setattr(sys, "argv", ["primeavg", "sw", "--x-grid", "1000", "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("primeavg.cli", run_name="__main__", alter_sys=True)
    assert done.value.code == 0
    assert sys.modules["primeavg.cli"].__name__ == "__main__"


def test_approx_sieves_mu_and_phi_only_to_its_moduli(tmp_path, monkeypatch):
    # approx reads mu and phi at y and lcm(y, q) <= y q_cut alone; Lambda is
    # sieved on its own up to N
    from primeavg import tables

    bounds = []
    sieve = tables._sieve
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})
    monkeypatch.setattr(tables, "_sieve", lambda n: bounds.append(n) or sieve(n))
    rc = main(["approx", "--N", "65536", "--y", "3", "--b", "1", "--qcut", "16", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert bounds and max(bounds) <= 3 * 16


def test_highlow_evaluates_each_window_once(tmp_path, monkeypatch):
    # Hi, Lo and the total of both Q share one pass: one window per Farey point
    # with q < max q_cut = 13, positive height and centre <= 1/2, in Farey order
    from primeavg import multiplier
    from primeavg.tables import Progression

    seen = []
    window = multiplier.major_arc_window

    def spy(a, q, ell, weight, N, M):
        seen.append((a, q))
        return window(a, q, ell, weight, N, M)

    monkeypatch.setattr(multiplier, "major_arc_window", spy)
    rc = main(["highlow", "--N", "4096", "--y", "3", "--b", "1", "--Q-list", "2", "4",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    points = multiplier.farey_points(12, Progression(3, 1))
    assert seen == [(p.a, p.q) for p in points if p.height > 0 and 2 * p.a <= p.q]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--lambda-grid", "0", "-0.5"], None),
        (["--r", "1.5", "--lambda-grid", "0"], None),
        ([], {"lambda_grid": []}),
    ],
    ids=["nonpositive", "zero_with_r_below_2", "empty_in_config"],
)
def test_bad_lambda_grid_exits_two_before_any_cell(tmp_path, capsys, monkeypatch, argv, config):
    def must_not_run(*args, **kwargs):
        pytest.fail("a scan cell ran before the lambda grid was checked")

    monkeypatch.setattr(scans, "run_cells", must_not_run)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    rc = main(["maximal", "--N-list", "1024", "--y-list", "1", *argv, "--out-dir", str(out)])
    assert rc == 2
    assert "--lambda-grid" in capsys.readouterr().err
    assert not out.exists()


_IMPROVING_CELL = scans._improving_cell


def _warning_improving_cell(payload):
    # module level, so the pool can pickle it by reference
    warnings.warn(f"cell N={payload[0]} y={payload[1]}")
    return _IMPROVING_CELL(payload)


def test_pool_worker_warnings_reach_summary(tmp_path, monkeypatch):
    monkeypatch.setattr(scans, "_improving_cell", _warning_improving_cell)
    rc = main(["improving", "--N-list", "1024", "2048", "--y-list", "1", "3",
               "--n-floor-factor", "256", "--workers", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "improving.json").read_text())
    # raised again in cell order: y outer, N inner
    assert summary["warnings"] == ["cell N=1024 y=1", "cell N=2048 y=1",
                                   "cell N=1024 y=3", "cell N=2048 y=3"]


def test_verify_artifacts_equal_serial_run(tmp_path, monkeypatch):
    # the bourgain recipes share a cached sweep and are not adjacent; the
    # residual and lo_linf recipes raise desk-scale warnings
    import primeavg.cli as cli

    names = ["residual_sup_y1_N12", "bourgain_exponent_y1", "lo_linf_interval_y1",
             "bourgain_ratio_ceiling_t2"]
    groups = []
    run_cells = cli.run_cells

    def spy(cell_fn, cells, workers, **kwargs):
        groups.append([group for _, group in cells[1:]])
        return run_cells(cell_fn, cells, workers, **kwargs)

    monkeypatch.setattr(cli, "run_cells", spy)
    outputs = []
    for workers in (2, 1):
        for sweep in (fixtures._command, fixtures.multifrequency_adapted_ratios):
            sweep.cache_clear()
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        out = tmp_path / str(workers)
        rc = main(["verify", "--qmax", "12", "--ymax", "4", "--cohen-qmax", "8", "--cohen-ymax", "4",
                   "--max-tuples", "500", "--fixture-names", *names, "--out-dir", str(out)])
        assert rc == 0
        outputs.append([(out / f"verify.{ext}").read_bytes() for ext in ("csv", "json")])
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[1][1])["warnings"]) >= 2
    # one fixture cell per task: the two bourgain recipes share one; the rows
    # go back in the order the names were given
    assert groups == [[["residual_sup_y1_N12"], ["bourgain_exponent_y1", "bourgain_ratio_ceiling_t2"],
                       ["lo_linf_interval_y1"]]] * 2
    rows = _read_csv(tmp_path / "1" / "verify.csv")
    assert [row["name"] for row in rows if row["suite"] == "fixture"] == names


def test_verify_lists_repeated_fixture_names_in_given_order(tmp_path):
    # a repeated name shares its group's task with its first occurrence, but
    # its row stays where it was given
    names = ["sw_rel_error_1e6_y1", "sw_rel_error_1e6_y3", "sw_rel_error_1e6_y1"]
    rc = main(["verify", "--qmax", "4", "--ymax", "2", "--cohen-qmax", "4", "--cohen-ymax", "2",
               "--max-tuples", "10", "--fixture-names", *names, "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "verify.csv")
    assert [row["name"] for row in rows if row["suite"] == "fixture"] == names
    assert json.loads((tmp_path / "verify.json").read_text())["fixtures_checked"] == 3


def test_verify_measures_a_repeated_fixture_name_once(tmp_path, monkeypatch):
    # a name given twice is measured once, and its row is written at both
    # places: the csv is the one of the distinct names with that row repeated
    import primeavg.cli as cli

    measured = []
    measure = cli.measure_fixture
    monkeypatch.setattr(cli, "measure_fixture", lambda name: measured.append(name) or measure(name))
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    lines = {}
    for names in (["sw_rel_error_1e6_y1", "sw_rel_error_1e6_y3"],
                  ["sw_rel_error_1e6_y1", "sw_rel_error_1e6_y3", "sw_rel_error_1e6_y1"]):
        measured.clear()
        out = tmp_path / str(len(names))
        rc = main(["verify", "--qmax", "4", "--ymax", "2", "--cohen-qmax", "4", "--cohen-ymax", "2",
                   "--max-tuples", "10", "--fixture-names", *names, "--out-dir", str(out)])
        assert rc == 0
        assert measured == names[:2]
        lines[len(names)] = (out / "verify.csv").read_text().splitlines()
    once = lines[2]
    y1_row = next(line for line in once if ",sw_rel_error_1e6_y1," in line)
    assert lines[3] == once + [y1_row]


@pytest.fixture
def _forbid_work(monkeypatch, forbid_sieves):
    """Every sieve fails the test (forbid_sieves); _forbid_work(why) makes verify's pool fail it with why."""
    from primeavg import cli

    def forbid(why):
        def must_not_run(*args, **kwargs):
            pytest.fail(why)

        monkeypatch.setattr(cli, "run_cells", must_not_run)

    return forbid


@pytest.mark.parametrize(
    "command, config, flag",
    [
        ("highlow", {"Q_list": 4}, "--Q-list"),
        ("maximal", {"lambda_grid": 0.5}, "--lambda-grid"),
        ("sw", {"x_grid": []}, "--x-grid"),
        ("improving", {"N_list": []}, "--N-list"),
        ("highlow", {"Q_list": []}, "--Q-list"),
        ("verify", {"fixture_names": []}, "--fixture-names"),
        ("maximal", {"b_sweep": "yes"}, "--b-sweep"),
        ("approx", {"N": "4096x"}, "--N"),
    ],
    ids=["scalar_for_int_list", "scalar_for_float_list", "empty_x_grid", "empty_N_list",
         "empty_Q_list", "empty_fixture_names", "string_for_switch", "bad_int_text"],
)
def test_config_value_of_wrong_type_exits_two_before_sieving(tmp_path, capsys, _forbid_work, command, config, flag):
    # a config-file value is parsed as its flag would parse it, before any work
    _forbid_work("work started before the config file's values were checked")
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main([command, "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and flag in err
    assert not out.exists()


def test_config_values_parse_as_their_flags(tmp_path):
    # JSON numbers and strings are read as the text of their flags
    (tmp_path / "cfg.json").write_text(json.dumps({"N_list": ["1024", 2048]}))
    rc = main(["improving", "--config", str(tmp_path / "cfg.json"), "--y-list", "1", "--workers", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "improving.json").read_text())
    assert report["parameters"]["N_list"] == [1024, 2048]


def _exit_code(argv):
    """main's exit code, also when argparse rejects a flag by raising SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key",
    [("maximal", "r"), ("improving", "r_list"), ("maximal", "lambda_grid"), ("maximal", "weak_ceiling"),
     ("ramanujan-avg", "exponent_cap")],
)
def test_non_finite_float_exits_two_before_sieving(tmp_path, capsys, _forbid_work, command, key, source, value):
    # nan passed every comparison of the checks as false, so maximal --r nan
    # passed with NaN in its JSON; every float key now takes finite values only
    _forbid_work("work started before the float values were checked")
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        argv = [flag, value]
    else:
        # json writes the floats nan and inf as NaN and Infinity, which json.load reads back
        number = float(value)
        config = {key: [number] if key.endswith(("list", "grid")) else number}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json")]
    scan = ["--N-list", "8192", "--y-list", "1", "--workers", "1"] if command != "ramanujan-avg" else []
    out = tmp_path / "out"
    assert _exit_code([command, *scan, *argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        ("improving", "seed", -1), ("maximal", "seed", -1), ("verify", "seed", -1), ("approx", "seed", -1),
        ("improving", "workers", 0), ("improving", "workers", -1),
        ("maximal", "workers", 0), ("maximal", "workers", -1),
        ("improving", "n_floor_factor", -3), ("maximal", "n_floor_factor", -1),
        ("approx", "N", 0), ("approx", "N", 1), ("highlow", "N", 0), ("highlow", "N", 1),
    ],
)
def test_out_of_range_int_exits_two_naming_its_flag(tmp_path, capsys, _forbid_work, command, key, value, source):
    # a negative seed failed inside numpy's generator with a message naming no
    # flag (approx, which only echoes it, passed); workers below 1 ran serially,
    # a negative floor factor reported "stable", and an N below 2 was blamed
    # on q_cut or the grid.  The floor factor 0, no floor, stays legal
    _forbid_work("work started before the int values were checked")
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        argv = [flag, str(value)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        argv = ["--config", str(tmp_path / "cfg.json")]
    scan = ["--N-list", "8192", "--y-list", "1"] if command in ("improving", "maximal") else []
    out = tmp_path / "out"
    assert _exit_code([command, *scan, *argv, "--out-dir", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["improving", "--N-list", "2", "--y-list", "1"],
         "N=2 leaves the progression segment of y=1, b=0 below N/2 empty"),
        (["maximal", "--N-list", "2", "8192", "--y-list", "5", "--b-sweep"],
         "N=2 leaves the progression segment of y=5, b=1 below N/2 empty"),
    ],
    ids=["improving", "maximal"],
)
def test_empty_progression_segment_exits_two_before_sieving(tmp_path, capsys, _forbid_work, argv, message):
    # the segment {1 <= n < N/2 : n = b mod y} is an input family of both
    # scans; empty, it broke their running sums with a numpy message
    _forbid_work("tables were sieved before the segment was checked")
    rc = main([*argv, "--n-floor-factor", "0", "--workers", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not list(tmp_path.iterdir())


def test_maximal_overflowing_q_policy_exits_two_before_sieving(tmp_path, capsys, _forbid_work):
    # q_policy = lambda^(r/2 - 1) = (1e10)^49 overflows a float, and the cell's
    # float power raised OverflowError: exit 1 with a traceback
    _forbid_work("work started before the q_policy was checked")
    out = tmp_path / "out"
    rc = main(["maximal", "--N-list", "1024", "--y-list", "1", "--r", "100", "--lambda-grid", "1e10",
               "--n-floor-factor", "1", "--workers", "1", "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "--lambda-grid" in err and "--r" in err
    assert not out.exists()


@pytest.mark.parametrize("y", ["0", "-3"])
def test_nonpositive_y_with_b_sweep_exits_two_before_sieving(tmp_path, capsys, _forbid_work, y):
    # the residue sweep enumerates A_y only after Progression has checked y, so
    # the message names y as it does without --b-sweep, not a q never given
    _forbid_work("tables were sieved before y was checked")
    rc = main(["maximal", "--N-list", "2048", "--y-list", y, "--b-sweep", "--workers", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: spacing y must be positive, got {y}\n"
    assert not list(tmp_path.iterdir())


def _stub_rows(monkeypatch, rows):
    """Make `primeavg sw` return rows as its rows."""
    from primeavg import cli

    help_text, _, keys = cli.COMMANDS["sw"]
    monkeypatch.setitem(cli.COMMANDS, "sw", (help_text, lambda cfg: (rows, {}, True), keys))


STREAMED_ROWS = [
    {"name": "a,b", "x": 1 / 3, "n": 7, "pass": True, "note": ""},
    {"name": 'q"uote', "x": 2.5e-300, "n": -1, "pass": False, "note": "line\nbreak"},
    {"name": "c", "x": float("inf"), "n": 0, "pass": "", "note": None},
]


@pytest.mark.parametrize("make", [list, lambda rows: (row for row in rows), lambda rows: []],
                         ids=["list", "generator", "empty"])
def test_streamed_csv_equals_in_memory_text(tmp_path, monkeypatch, make):
    # main writes the rows one at a time through one csv writer, whether the
    # command returns a list or an iterator; the bytes are those of the CSV
    # text built whole in memory, and no rows make an empty file
    rows = make(STREAMED_ROWS)
    _stub_rows(monkeypatch, rows)
    assert main(["sw", "--out-dir", str(tmp_path)]) == 0
    expected = csv_text(list(make(STREAMED_ROWS))).encode()
    assert (tmp_path / "sw.csv").read_bytes() == expected
    assert expected == b"" or expected.count(b"\r\n") == 1 + len(STREAMED_ROWS)


def test_approx_returns_its_rows_as_an_iterator():
    # the rows are made one at a time from the residual array as main writes them
    from collections.abc import Iterator

    from primeavg.cli import cmd_approx

    rows, summary, ok = cmd_approx({"N": 4096, "y": 3, "b": 1, "qcut": 2})
    assert isinstance(rows, Iterator) and not isinstance(rows, list)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # main drains the rows after it has recorded the warnings
        rows = list(rows)
    assert len(rows) == 1 << 14 and rows[1] == {"xi": 1 / (1 << 14), "abs_residual": rows[1]["abs_residual"]}
    assert max(row["abs_residual"] for row in rows) <= summary["sup_residual"]


def test_approx_sieves_no_dense_lambda_table(monkeypatch):
    # the average weights only the prime powers: approx caches Lambda's support
    # up to N, never the dense table of N + 1 entries
    from primeavg import tables
    from primeavg.cli import cmd_approx

    monkeypatch.setattr(tables, "_SUPPORT_CACHE", {})
    rows, summary, ok = cmd_approx({"N": 4096})
    list(rows)
    assert list(tables._SUPPORT_CACHE) == [4096]


@pytest.mark.parametrize("command", ["improving", "maximal"])
def test_scan_parameters_echo_the_floor_factor(tmp_path, command):
    rc = main([command, "--N-list", "1024", "--y-list", "1", "--n-floor-factor", "3", "--workers", "1",
               "--out-dir", str(tmp_path)])
    assert rc in (0, 1)
    assert json.loads((tmp_path / f"{command}.json").read_text())["parameters"]["n_floor_factor"] == 3


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the warm-up lifts glibc malloc's dynamic mmap threshold",
)
def test_main_warm_up_keeps_fft_scratch_off_fresh_mappings():
    # main lifts the threshold before it reads its input, here a bad --N;
    # without that each transform's scratch of a few MB is a fresh mapping,
    # faulted in page by page: about 48k minor faults under glibc 2.36
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from primeavg.cli import main\n"
        "assert main(['approx', '--N', '0']) == 2\n"
        "x = np.random.default_rng(0).standard_normal(1 << 18)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(16):\n"
        "    np.fft.irfft(np.fft.rfft(x), len(x))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    # malloc tunables in the caller's environment would fix the threshold
    env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    src = os.path.dirname(os.path.dirname(primeavg.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert int(done.stdout) < 10_000
