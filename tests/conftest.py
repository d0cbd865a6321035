import warnings

import pytest

from primeavg import tables as tables_module
from primeavg.tables import build_tables


@pytest.fixture(scope="session")
def tables():
    return build_tables(1 << 20)


@pytest.fixture(autouse=True)
def _quiet_desk_scale_warnings():
    # desk-scale parameter overrides warn by design; tests assert them explicitly
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


@pytest.fixture
def forbid_sieves(monkeypatch):
    """Empty both table caches and make every sieve fail the test, whichever reader calls it."""

    def must_not_run(n):
        pytest.fail(f"a table was sieved up to {n} before the input was checked")

    for cache in ("_TABLE_CACHE", "_SUPPORT_CACHE"):
        monkeypatch.setattr(tables_module, cache, {})
    for sieve in ("_sieve", "_lambda_sieve"):
        monkeypatch.setattr(tables_module, sieve, must_not_run)
