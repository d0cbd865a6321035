import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeavg import tables as tables_module
from primeavg.tables import (
    ARC_J,
    ArithTables,
    Progression,
    build_tables,
    prime_powers,
    psi_progression,
    reduced_residues,
    sw_error_report,
    von_mangoldt,
)

from oracles import loop_lambda


def _primes_below(n):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def _loop_sieve(n):
    """The sieve as a Python loop over every prime up to n: the oracle of tables._lambda_sieve and _sieve."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    mobius = np.ones(n + 1, dtype=np.int8)
    mobius[0] = 0
    totient = np.arange(n + 1, dtype=np.int64)
    for p in np.flatnonzero(is_prime).tolist():
        mobius[p::p] *= -1
        if p * p <= n:
            mobius[p * p :: p * p] = 0
        totient[p::p] -= totient[p::p] // p
    return {
        "von_mangoldt": loop_lambda(n),
        "mobius": mobius,
        "totient": totient,
    }


def _assert_sieve_matches_loop(n):
    # each sieve fresh at bound n, not a cached slice of a larger one
    fast, oracle = tables_module._sieve(n), _loop_sieve(n)
    assert fast.bound == n
    lam = np.bincount(*tables_module._lambda_sieve(n), minlength=n + 1)
    for name, expected in oracle.items():
        got = getattr(fast, name, lam)  # Lambda is no field of ArithTables
        assert got.dtype == expected.dtype, (n, name)
        assert np.array_equal(got, expected), (n, name)


@pytest.mark.parametrize("n", [2, 3, 4, 24, 25, 48, 49, 97**2 - 1, 97**2, 10**5])
def test_sieve_bitwise_equals_loop_oracle(n):
    # squares of primes and their neighbours move the small/large prime split
    _assert_sieve_matches_loop(n)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 20_000))
def test_sieve_bitwise_equals_loop_oracle_random_bounds(n):
    _assert_sieve_matches_loop(n)


def test_von_mangoldt_against_prime_power_oracle():
    # Lambda(n) = log p on prime powers p^k, else 0, checked up to 10^4
    lam = np.zeros(10_000)
    for p in _primes_below(10_000):
        pk = p
        while pk < 10_000:
            lam[pk] = math.log(p)
            pk *= p
    assert np.allclose(von_mangoldt(10_000)[:10_000], lam, atol=1e-12)


def test_mobius_divisor_sum_identity(tables):
    # sum over d | n of mu(d) is 1 at n=1 and 0 otherwise
    for n in range(1, 2000):
        s = sum(int(tables.mobius[d]) for d in range(1, n + 1) if n % d == 0)
        assert s == (1 if n == 1 else 0)


def test_totient_divisor_sum_identity(tables):
    # sum over d | n of phi(d) = n
    for n in range(1, 2000):
        s = sum(int(tables.totient[d]) for d in range(1, n + 1) if n % d == 0)
        assert s == n


def test_psi_strict_upper_limit():
    # n < x convention: Psi(8) excludes Lambda(8) = log 2
    p8 = psi_progression(8, Progression(1, 0))
    p9 = psi_progression(9, Progression(1, 0))
    assert p9 - p8 == pytest.approx(math.log(2), abs=1e-12)
    assert psi_progression(3, Progression(1, 0)) == pytest.approx(math.log(2), abs=1e-12)


def test_bounds_below_two_are_served_by_the_bound_two_table(monkeypatch):
    # _cached floors every bound at 2, so no caller pads its own; psi below
    # x = 3 sums an empty slice or Lambda(1) = 0 of that table
    monkeypatch.setattr(tables_module, "_TABLE_CACHE", {})
    monkeypatch.setattr(tables_module, "_SUPPORT_CACHE", {})
    two = build_tables(2)
    assert build_tables(0) is two and build_tables(1) is two and two.bound == 2
    for prog in (Progression(1, 0), Progression(3, 1), Progression(3, 2)):
        assert [psi_progression(x, prog) for x in (0, 1, 2)] == [0.0, 0.0, 0.0]
    assert list(tables_module._SUPPORT_CACHE) == [2]


@pytest.mark.parametrize("y, b", [(1, 0), (3, 1)])
def test_psi_progression_sums_a_strided_view(y, b):
    # Lambda along the progression is a view of the dense table, summed as the
    # gathered copy is, bit for bit.  The table is scattered afresh for each
    # call, 8 (x + 1) bytes; the gather peaked at 16.0 MB at y = 1
    prog, x = Progression(y, b), 10**6
    gathered = float(von_mangoldt(x)[prog.indices(x)].sum())  # sieves Lambda to x before tracing
    tracemalloc.start()
    try:
        psi = psi_progression(x, prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi == gathered
    assert peak < 8 * (x + 1) + (2 << 20)


def test_psi_million_within_asymptotic_band():
    x = 10**6
    assert abs(psi_progression(x, Progression(1, 0)) - x) / x < 0.003


def test_psi_progression_splits_psi():
    x = 50_000
    total = sum(
        psi_progression(x, Progression(3, b)) for b in (1, 2)
    ) + float(von_mangoldt(x)[3:x:3].sum())
    assert total == pytest.approx(psi_progression(x, Progression(1, 0)), rel=1e-12)


def test_reduced_residues_basics():
    assert reduced_residues(1).tolist() == [0]
    assert reduced_residues(12).tolist() == [1, 5, 7, 11]
    assert len(reduced_residues(97)) == 96


def test_progression_validation():
    with pytest.raises(ValueError):
        Progression(4, 2)
    with pytest.raises(ValueError):
        Progression(3, 3)
    with pytest.raises(ValueError):
        Progression(0, 0)
    assert Progression(1, 0).y == 1


def test_build_tables_cached():
    a = build_tables(1 << 14)
    b = build_tables(1 << 14)
    assert a is b


def test_arith_tables_hold_mu_and_phi_alone():
    # Lambda is sieved by prime_powers alone, to the bound its readers index
    assert [f.name for f in fields(ArithTables)] == ["bound", "mobius", "totient"]


def test_smaller_bound_is_read_only_view_of_largest_table():
    saved = dict(tables_module._TABLE_CACHE)
    tables_module._TABLE_CACHE.clear()
    try:
        large = build_tables(1 << 16)
        small = build_tables(1 << 12)
        tables_module._TABLE_CACHE.clear()
        fresh = build_tables(1 << 12)
    finally:
        tables_module._TABLE_CACHE.clear()
        tables_module._TABLE_CACHE.update(saved)
    assert small.bound == fresh.bound == 1 << 12
    for f in fields(ArithTables)[1:]:
        view = getattr(small, f.name)
        assert np.shares_memory(view, getattr(large, f.name)), f.name
        assert not view.flags.writeable, f.name
        assert view.dtype == getattr(fresh, f.name).dtype, f.name
        assert np.array_equal(view, getattr(fresh, f.name)), f.name


def test_larger_sieve_repoints_smaller_cached_table():
    # the cache holds one copy: sieving 2^16 after 2^12 turns the 2^12 entry into views
    saved = dict(tables_module._TABLE_CACHE)
    tables_module._TABLE_CACHE.clear()
    try:
        build_tables(1 << 12)
        large = build_tables(1 << 16)
        small = tables_module._TABLE_CACHE[1 << 12]
        assert build_tables(1 << 12) is small
        fresh = tables_module._sieve(1 << 12)
    finally:
        tables_module._TABLE_CACHE.clear()
        tables_module._TABLE_CACHE.update(saved)
    assert small.bound == 1 << 12
    for f in fields(ArithTables)[1:]:
        view = getattr(small, f.name)
        assert np.shares_memory(view, getattr(large, f.name)), f.name
        assert not view.flags.writeable, f.name
        assert np.array_equal(view, getattr(fresh, f.name)), f.name


@pytest.fixture
def no_lambda_caches(monkeypatch):
    monkeypatch.setattr(tables_module, "_SUPPORT_CACHE", {})


@pytest.mark.parametrize("bound", [2, 3, 1000, 1 << 12, (1 << 16) + 1])
def test_prime_powers_are_the_support_of_the_dense_table(no_lambda_caches, bound):
    # flatnonzero of the loop oracle's dense Lambda and its values, bit for
    # bit, sieved once and then served from the one cache
    lam = loop_lambda(bound)
    n = np.flatnonzero(lam)
    for got in (prime_powers(bound), prime_powers(bound)):
        assert got[0].dtype == n.dtype and got[1].dtype == np.float64
        assert np.array_equal(got[0], n) and got[1].tobytes() == lam[n].tobytes()
        assert not got[0].flags.writeable and not got[1].flags.writeable
    assert list(tables_module._SUPPORT_CACHE) == [bound]


def test_smaller_support_bound_is_read_only_prefix_of_largest(no_lambda_caches):
    large = prime_powers(1 << 16)
    small = prime_powers(1 << 12)
    assert prime_powers(1) is prime_powers(2)  # floored at 2, as every table is
    for view, whole, fresh in zip(small, large, tables_module._lambda_sieve(1 << 12), strict=True):
        assert np.shares_memory(view, whole)
        assert not view.flags.writeable
        assert view.dtype == fresh.dtype and np.array_equal(view, fresh)


def test_larger_support_sieve_repoints_smaller_cached_support(no_lambda_caches):
    # the cache holds one copy: sieving 2^16 after 2^12 turns the 2^12 entry into prefix views
    prime_powers(1 << 12)
    large = prime_powers(1 << 16)
    small = tables_module._SUPPORT_CACHE[1 << 12]
    assert prime_powers(1 << 12) is small
    for view, whole, fresh in zip(small, large, tables_module._lambda_sieve(1 << 12), strict=True):
        assert np.shares_memory(view, whole)
        assert not view.flags.writeable
        assert np.array_equal(view, fresh)


def test_support_is_write_protected(no_lambda_caches):
    n, logs = prime_powers(100)
    with pytest.raises(ValueError):
        n[0] = 1
    with pytest.raises(ValueError):
        logs[0] = 1.0


def test_support_memory_cap_guard(no_lambda_caches, monkeypatch):
    # bound + 1 is checked against the cap, as for every table, although the
    # support holds only the prime powers; von_mangoldt checks it through the support
    monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", "1000")
    for bound in (1000, 1 << 22):
        with pytest.raises(ValueError, match="memory cap"):
            prime_powers(bound)
        with pytest.raises(ValueError, match="memory cap"):
            von_mangoldt(bound)
    assert prime_powers(999)[0][-1] == 997


def test_tables_are_write_protected(tables):
    with pytest.raises(ValueError):
        tables.totient[0] = 1


def test_memory_cap_guard(monkeypatch):
    monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", "1000")
    with pytest.raises(ValueError):
        build_tables(1 << 22)
    with pytest.raises(ValueError, match="memory cap"):
        von_mangoldt(1 << 22)


def test_psi_progression_sizes_its_own_table(monkeypatch):
    # no caller passes a table: psi at x above every cached bound sieves Lambda to x
    monkeypatch.setattr(tables_module, "_SUPPORT_CACHE", {1000: tables_module._lambda_sieve(1000)})
    x = 5000
    expected = _loop_sieve(x)["von_mangoldt"][np.arange(1, x, 3)].sum()
    assert psi_progression(x, Progression(3, 1)) == float(expected)
    assert max(tables_module._SUPPORT_CACHE) == x


def test_sw_error_report_trend():
    rows = sw_error_report([10**4, 10**5, 10**6], Progression(3, 1))
    errs = [r["rel_error"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(r["main_term"] == r["x"] / 2 for r in rows)


def test_sw_error_report_warns_on_large_modulus():
    with pytest.warns(UserWarning):
        sw_error_report([1000], Progression(97, 1))


def test_sw_error_report_warns_with_the_threshold_it_tested():
    # y is compared with (log max(x, 3))^J, and that bound is the one printed
    with pytest.warns(UserWarning) as record:
        sw_error_report([1, 2, 3], Progression(2, 1))
    bound = math.log(3) ** ARC_J  # 1.21
    assert [str(w.message) for w in record] == [f"y=2 exceeds (log x)^J = {bound:.3g} at x={x}" for x in (1, 2, 3)]


def test_arith_tables_type(tables):
    assert isinstance(tables, ArithTables)
    assert tables.mobius.dtype == np.int8
    # phi(n) = n - 1 exactly when n is prime
    assert tables.totient[2] == 1 and tables.totient[97] == 96 and tables.totient[91] != 90
