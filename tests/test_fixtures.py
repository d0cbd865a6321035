import pytest

from primeavg.fixtures import check_fixture, load_fixtures, measure_fixture

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
