import itertools
import os

import pytest

from primeavg import fixtures
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


def _sweeps_missed(name: str) -> list[set[str]]:
    """The cached sweeps that recipe name computes when it runs alone from cold caches."""
    sweeps = _cached_sweeps()
    for fn in sweeps.values():
        fn.cache_clear()
    measure_fixture(name)
    return [{sweep for sweep, fn in sweeps.items() if fn.cache_info().misses}]


def test_recipes_missing_on_one_sweep_share_a_task():
    names = sorted(RECIPES)
    missed = dict(zip(names, run_cells(_sweeps_missed, names, os.cpu_count() or 1)))
    task = {name: k for k, group in enumerate(recipe_groups(names)) for name in group}
    shared = [(a, b) for a, b in itertools.combinations(names, 2) if missed[a] & missed[b]]
    assert shared
    for a, b in shared:
        assert task[a] == task[b], f"{a} and {b} both compute a cached sweep in separate tasks"
