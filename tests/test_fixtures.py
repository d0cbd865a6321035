import concurrent.futures
import functools
import itertools
import json
import os

import pytest

from primeavg import fixtures, scans
from primeavg.cli import main
from primeavg.fixtures import RECIPES, check_fixture, load_fixtures, measure_fixture, recipe_groups
from primeavg.scans import run_cells

# The recipes that no other test runs; each must reproduce its frozen value, so
# that `primeavg verify` cannot fail while the suite stays green.
UNCOVERED_RECIPES = [
    "dual_path_worst_rel",
    "improving_max_y1_r15",
    "improving_max_y3_r15",
    "improving_max_y5_r15",
    "lo_linf_interval_y1",
    "lo_linf_progression_y3",
    "multifrequency_d12_constant",
    "multifrequency_d12_spread",
    "sw_rel_error_1e6_y1",
    "sw_rel_error_1e6_y3",
]


@pytest.mark.parametrize("name", UNCOVERED_RECIPES)
def test_fixture_recipe_reproduces_frozen_value(name):
    assert check_fixture(name, measure_fixture(name), load_fixtures())


def _cached_sweeps() -> dict:
    return {
        name: fn for name, fn in vars(fixtures).items()
        if hasattr(fn, "cache_clear") and fn.__module__ == fixtures.__name__
    }


def _runs_missed(name: str) -> list[set[tuple]]:
    """The runs, (cached sweep, its args), that recipe name computes when it runs alone from cold caches."""
    sweeps, missed = _cached_sweeps(), set()

    def spy(sweep, *args):
        missed.add((sweep, args))
        return sweeps[sweep].__wrapped__(*args)

    spies = {sweep: functools.cache(functools.partial(spy, sweep)) for sweep in sweeps}
    sweep, args, read = RECIPES[name]
    with pytest.MonkeyPatch.context() as mp:
        # a row holds its sweep itself; a sweep calls the others by their global names
        mp.setitem(RECIPES, name, (spies.get(sweep.__name__, sweep), args, read))
        for each, fn in spies.items():
            mp.setattr(fixtures, each, fn)
        measure_fixture(name)
    return [missed]


def test_recipes_missing_on_one_sweep_share_a_task():
    # a command run (_command and its argv) or another cached sweep that two
    # recipes compute must be computed once, in one task
    names = sorted(RECIPES)
    missed = dict(zip(names, run_cells(_runs_missed, names, os.cpu_count() or 1)))
    task = {name: k for k, group in enumerate(recipe_groups(names)) for name in group}
    shared = [(a, b) for a, b in itertools.combinations(names, 2) if missed[a] & missed[b]]
    assert shared
    for a, b in shared:
        assert task[a] == task[b], f"{a} and {b} both compute a cached run in separate tasks"


# the command recipes cheap enough to run twice
PRINTED = ["near_zero_y1_N12", "near_zero_y3_N12", "residual_sup_y1_N12", "residual_sup_y3_N12",
           "bourgain_exponent_y1", "bourgain_exponent_y5", "bourgain_exponent_y12",
           "sw_rel_error_1e6_y1", "sw_rel_error_1e6_y3"]


def test_command_recipes_check_the_value_the_command_prints(tmp_path, monkeypatch):
    # each recipe read applied to the JSON that `primeavg` writes for its
    # command line gives the value `verify` checks
    checked = {name: repr(measure_fixture(name)) for name in PRINTED}

    @functools.cache
    def printed(*argv):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert main([*argv, "--out-dir", str(out)]) == 0
        return None, json.loads((out / f"{argv[0]}.json").read_text())

    # a row holds its sweep itself; _bourgain_runs calls _command by its global name
    for name in PRINTED:
        sweep, args, read = RECIPES[name]
        if sweep is fixtures._command:
            monkeypatch.setitem(RECIPES, name, (printed, args, read))
    monkeypatch.setattr(fixtures, "_command", printed)
    assert {name: repr(measure_fixture(name)) for name in PRINTED} == checked


def test_command_recipes_start_no_pool(monkeypatch):
    # the scans default to one worker per CPU; a recipe pins one, so a
    # `verify` task does not start a pool of its own
    def no_pool(*args, **kwargs):
        pytest.fail("a command recipe started a pool")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(scans, "_run_fresh", no_pool)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    fixtures._command.cache_clear()
    assert check_fixture("improving_max_y1_r15", measure_fixture("improving_max_y1_r15"), load_fixtures())
