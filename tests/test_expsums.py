import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeavg.expsums import (
    _upsilon,
    bourgain_average,
    farey_points,
    height,
    height_class_counts,
    progression_ramanujan_closed,
    progression_ramanujan_direct_batch,
    ramanujan_table,
    verify_cohen_progression,
    verify_gauss_upsilon,
    verify_progression_ramanujan,
)
from primeavg.tables import Progression, build_tables, reduced_residues

from oracles import (
    cohen_progression_check,
    count_height_class,
    divisor_tau_check,
    gauss_upsilon_closed_pointwise,
    gauss_upsilon_direct,
    progression_ramanujan_closed_pointwise,
    progression_ramanujan_direct,
    ramanujan_sum,
    ramanujan_sum_closed,
)


def progression_batch(q, y, b, a, tables):
    """Direct and closed progression Ramanujan sums of the tuples (q, y[i], b[i], a[i])."""
    return progression_ramanujan_direct_batch(q, y, b, a), progression_ramanujan_closed(q, y, b, a, tables)


def gauss_upsilon_batch(q, y, b, a, tables):
    """Direct and closed Upsilon of the tuples (q, y[i], b[i], a[i]), as the tuple suites form them."""
    return tuple(_upsilon(q, y, sums, tables) for sums in progression_batch(q, y, b, a, tables))


# ---------------------------------------------------------------------------
# Plain Ramanujan sums


def test_ramanujan_direct_equals_closed_exhaustive():
    for q in range(1, 129):
        tau = ramanujan_table(q)
        for x in range(2 * q):
            assert abs(ramanujan_sum(q, x) - tau[x % q]) < 1e-8


def test_ramanujan_spot_values(tables):
    # tau_q(0) = phi(q); tau_q(1) = mu(q)
    for q in (1, 2, 6, 9, 12, 30):
        assert ramanujan_sum_closed(q, 0, tables) == (int(tables.totient[max(q, 1)]) if q > 1 else 1)
        assert ramanujan_sum_closed(q, 1, tables) == int(tables.mobius[q])


def test_ramanujan_multiplicative_closed_form(tables):
    # tau_q(x) = mu(q/g) phi(q) / phi(q/g) with g = gcd(q, x)
    for q in range(1, 100):
        for x in range(q):
            g = math.gcd(q, x) if x else q
            phi_q = int(tables.totient[q]) if q > 1 else 1
            phi_cof = int(tables.totient[q // g]) if q // g > 1 else 1
            expected = int(tables.mobius[q // g]) * phi_q // phi_cof
            assert ramanujan_sum_closed(q, x, tables) == expected


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 512), x=st.integers(-1000, 1000))
def test_ramanujan_periodicity_and_integrality(q, x):
    from primeavg.tables import build_tables

    tables = build_tables(1 << 14)
    v = ramanujan_sum_closed(q, x, tables)
    assert isinstance(v, int)
    assert v == ramanujan_sum_closed(q, x + q, tables)


def test_divisor_identity_examples(tables):
    assert divisor_tau_check(12, 24, tables) == 12
    assert divisor_tau_check(12, 5, tables) == 0


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 400))
def test_ramanujan_table_matches_closed_form(q):
    tables = build_tables(1 << 12)
    tau = ramanujan_table(q)
    assert tau.tolist() == [ramanujan_sum_closed(q, x, tables) for x in range(q)]


def test_divisor_identity_exhaustive(tables):
    for r in range(1, 201):
        for x in range(2 * r):
            assert divisor_tau_check(r, x, tables) == (r if x % r == 0 else 0)


# ---------------------------------------------------------------------------
# Progression-restricted sums


def test_progression_ramanujan_reduces_to_plain(tables):
    # y = 1 leaves the residue class unconstrained
    for q in range(1, 40):
        for a in reduced_residues(q):
            v = progression_ramanujan_direct(q, 1, 0, int(a))
            tau = ramanujan_table(q)
            # direct sum over all units of e(ax/q) with x = r a... here it is
            # sum_{r in A_q} e(r a / q) = tau_q(a) = mu(q) for (a, q) = 1
            assert abs(v - int(tables.mobius[q])) < 1e-8


def test_progression_ramanujan_closed_matches_direct_sampled():
    err, count = verify_progression_ramanujan(48, 18, max_tuples=20_000, seed=1)
    assert err < 1e-8
    assert count > 1000


def test_gauss_upsilon_closed_matches_direct_sampled():
    err, count = verify_gauss_upsilon(48, 18, max_tuples=20_000, seed=1)
    assert err < 1e-8


def test_tuple_suites_one_pass_equals_each_batch_alone():
    # the shared pass gives each suite exactly the (err, count) of its own batch
    # function run over the same sample, asked first (a pass) or second (cached)
    from primeavg.expsums import _sample_tuples, _verify_sampled

    tables = build_tables(48 * 18)
    expected = {}
    for batch in (progression_batch, gauss_upsilon_batch):
        worst, count = 0.0, 0
        for q, (y, b, a) in _sample_tuples(48, 18, 20_000, np.random.default_rng(1)).items():
            direct, closed = batch(q, y, b, a, tables)
            worst = max(worst, float(np.abs(direct - closed).max()) / q)
            count += len(a)
        expected[batch] = (worst, count)
    suites = [(progression_batch, verify_progression_ramanujan),
              (gauss_upsilon_batch, verify_gauss_upsilon)]
    for order in (suites, suites[::-1]):
        _verify_sampled.cache_clear()
        for batch, suite in order:
            assert suite(48, 18, max_tuples=20_000, seed=1) == expected[batch]


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(1, 96),
    picks=st.lists(st.tuples(st.integers(1, 36), st.integers(0, 10**6), st.integers(0, 10**6)),
                   min_size=1, max_size=8),
)
def test_batch_sums_match_pointwise(q, picks):
    # tuples sharing q, each (y, b in A_y, a in A_q) picked by index
    tables = build_tables(96 * 36)
    aa = reduced_residues(q)
    y = np.array([yy for yy, _, _ in picks])
    b = np.array([reduced_residues(yy)[i % len(reduced_residues(yy))] for yy, i, _ in picks])
    a = np.array([aa[j % len(aa)] for _, _, j in picks])
    direct, closed = progression_batch(q, y, b, a, tables)
    ups_direct, ups_closed = gauss_upsilon_batch(q, y, b, a, tables)
    for i, (yy, bb, a_) in enumerate(zip(y.tolist(), b.tolist(), a.tolist())):
        assert abs(direct[i] - progression_ramanujan_direct(q, yy, bb, a_)) < 1e-12
        assert abs(closed[i] - progression_ramanujan_closed_pointwise(q, yy, bb, a_, tables)) < 1e-12
        assert abs(ups_direct[i] - gauss_upsilon_direct(a_, q, yy, bb, tables)) < 1e-12
        assert abs(ups_closed[i] - gauss_upsilon_closed_pointwise(a_, q, yy, bb, tables)) < 1e-12


def test_batch_class_sums_match_blas_product():
    # progression_ramanujan_direct_batch sums each class's columns of the
    # e(ra/q) matrix, which calls no BLAS; it was the product of that matrix
    # with the class masks.  Both add the same unit terms, so over verify's
    # default sample they agree to a few ulp of the largest sum, phi(q)
    from primeavg.expsums import _e, _sample_tuples

    eps = np.finfo(float).eps
    for q, (y, b, a) in _sample_tuples(96, 36, 100_000, np.random.default_rng(0)).items():
        r = reduced_residues(q)
        g = np.gcd(q, y)
        classes, which = np.unique(g * q + b % g, return_inverse=True)
        in_class = r % (classes // q)[:, None] == (classes % q)[:, None]
        product = (_e(np.outer(np.arange(q), r) / q) @ in_class.T)[a, which]
        assert np.abs(progression_ramanujan_direct_batch(q, y, b, a) - product).max() <= 2 * eps * len(r)


def test_cohen_progression_exhaustive_small(tables):
    err, count = verify_cohen_progression(32, 12, tables)
    assert err == 0.0
    assert count > 10_000


def test_cohen_progression_matches_pointwise_loop(tables):
    # one evaluation per (q, gcd(q, y), class) against every (q, y, b, x) case
    # through the pointwise oracle
    worst, count = 0.0, 0
    for q in range(1, 19):
        for y in range(1, 10):
            for b in reduced_residues(y).tolist():
                for x in range(q):
                    lhs, rhs = cohen_progression_check(q, y, b, x, tables)
                    worst = max(worst, abs(lhs - rhs) / q)
                    count += 1
    assert verify_cohen_progression(18, 9, tables) == (worst, count)


def test_cohen_progression_single_case(tables):
    lhs, rhs = cohen_progression_check(12, 9, 2, 5, tables)
    assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# Gauss sums and heights


def test_upsilon_y1_specialization(tables):
    # no progression: |Upsilon| = 1/phi(q) on squarefree q, zero otherwise
    for p in farey_points(59, Progression(1, 0)):
        mag = abs(p.upsilon)
        if int(tables.mobius[p.q]) == 0:
            assert mag == 0.0
        else:
            assert mag == pytest.approx(1.0 / int(tables.totient[p.q]), abs=1e-12)


def test_upsilon_height_decay_bound(tables):
    # sharp bound |Upsilon| <= 1/phi(h) for positive height (equality occurs,
    # e.g. y=9, q=6 where |Upsilon| = 1 at h = 2), which gives the epsilon
    # form h^(-0.7) with implied constant 2; zero height kills the sum
    for q in range(1, 97):
        for y in (1, 2, 3, 5, 12, 36):
            h = height(q, y)
            for b in reduced_residues(y)[:2]:
                a = int(reduced_residues(q)[0])
                mag = abs(gauss_upsilon_direct(a, q, y, int(b), tables))
                if h == 0:
                    assert mag < 1e-10
                else:
                    assert mag <= 1.0 / int(tables.totient[h]) + 1e-9
                    assert mag <= 2.0 * h ** (-0.7) + 1e-9


def test_height_examples():
    assert height(1, 6) == 1
    assert height(4, 2) == 0  # excluded case: g=2, q/g=2 share a factor
    assert height(6, 9) == 2
    assert height(5, 1) == 5


def test_nonzero_height_coprime_to_modulus():
    for y in range(1, 40):
        for q in range(1, 6 * y + 1):
            h = height(q, y)
            if h > 0:
                assert math.gcd(h, y) == 1


def test_count_height_class_spec_examples(tables):
    assert count_height_class(6, 1, tables) == (6, 6)
    assert count_height_class(4, 3, tables) == (8, 8)
    assert count_height_class(1, 5, tables) == (4, 4)


def test_count_height_class_corrected_formula(tables):
    # enumerated count equals phi(r) * y on coprime (y, r) and vanishes
    # otherwise; the uncorrected r-denominator form over-counts off-coprime
    for y in range(1, 61):
        for r in range(1, 61):
            enum, _ = count_height_class(y, r, tables)
            expected = int(tables.totient[r]) * y if math.gcd(y, r) == 1 else 0
            assert enum == expected


@settings(max_examples=100, deadline=None)
@given(y=st.integers(1, 60), r=st.integers(1, 60), extra=st.integers(0, 20))
def test_height_class_counts_match_enumeration(y, r, extra):
    tables = build_tables(60 * 80)
    counts = height_class_counts(y, r + extra, tables)
    assert len(counts) == r + extra
    assert counts[r - 1] == count_height_class(y, r, tables)[0]


def test_farey_point_build(tables):
    prog = Progression(3, 1)
    p = next(p for p in farey_points(4, prog) if (p.a, p.q) == (1, 4))
    assert p.ell == 12
    assert p.center == pytest.approx(0.25)
    assert p.height == height(4, 3)
    assert abs(p.upsilon - gauss_upsilon_closed_pointwise(1, 4, 3, 1, tables)) < 1e-12


@pytest.mark.parametrize("y", [1, 3, 12, 36])
def test_farey_points_match_direct_oracle(tables, y):
    # every point, in Farey order: Upsilon against its direct sum, zero
    # height included, and the height and spacing of its q
    Qmax = 30
    for b in reduced_residues(y)[:2].tolist():
        points = farey_points(Qmax, Progression(y, b))
        expected = [(q, a) for q in range(1, Qmax + 1) for a in reduced_residues(q).tolist()]
        assert [(p.q, p.a) for p in points] == expected
        for p in points:
            assert (p.y, p.b, p.ell, p.height) == (y, b, math.lcm(p.q, y), height(p.q, y))
            assert abs(p.upsilon - gauss_upsilon_direct(p.a, p.q, y, b, tables)) < 1e-12


# ---------------------------------------------------------------------------
# Moment averages


def test_bourgain_average_trivial_Q1():
    # exactly 1 when the term count matches M/y; off by O(y/M) otherwise
    assert bourgain_average(1, 501, Progression(3, 1), 2) == pytest.approx(1.0)
    assert bourgain_average(1, 500, Progression(3, 1), 2) == pytest.approx(1.0, abs=3 / 500)


def test_bourgain_average_bruteforce_t1():
    # (1/200) sum_{n<=200} (1 + |tau_2| + |tau_3| + |tau_4|)
    n = np.arange(1, 201)
    inner = np.ones(200)
    for q in (2, 3, 4):
        tau = ramanujan_table(q)
        inner += np.abs(tau[n % q])
    expected = inner.sum() / 200
    assert bourgain_average(4, 200, Progression(1, 0), 1) == pytest.approx(expected)


def test_bourgain_average_warns_on_short_average():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning):
            bourgain_average(8, 50, Progression(1, 0), 2)


def test_bourgain_average_overflow_guard():
    with pytest.raises(OverflowError):
        bourgain_average(4, 100, Progression(1, 0), 40)
