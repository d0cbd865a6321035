import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeavg import multiplier
from primeavg.highlow import DecompositionConfig
from primeavg.multiplier import (
    _mollifier_tail,
    _residual_classes,
    _weighted_support,
    CLASS_LENGTH,
    CUTOFF_OUTER,
    WINDOW_BLOCK,
    SpectralProfile,
    a_kernel,
    a_hat_profile,
    a_hat_uniform_grid,
    approx_residual,
    approximant_profile,
    approximant_windows,
    cutoff,
    farey_points,
    geometric_sum,
    indicator,
    m_hat,
    major_arc_window,
    near_zero_error,
    pow2_at_least,
    sup_abs,
)
from primeavg.scans import improving_scan, maximal_scan
from primeavg.tables import Progression, default_residue, reduced_residues, von_mangoldt

from oracles import (
    a_hat,
    approximant_hat,
    cutoff_linear,
    cutoff_reference,
    l_hat,
    residual_classes_fresh,
    weighted_support_gather,
)


# ---------------------------------------------------------------------------
# Cutoff


def test_cutoff_plateau_and_support():
    assert cutoff(0.0) == 1.0
    assert cutoff(1 / 16) == 1.0
    assert cutoff(-1 / 16) == 1.0
    assert cutoff(0.25) == 0.0
    assert cutoff(0.3) == 0.0
    assert cutoff(5 / 32) == pytest.approx(0.5, abs=1e-9)


def test_cutoff_range_and_evenness():
    u = np.linspace(-0.5, 0.5, 4001)
    v = cutoff(u)
    assert v.min() >= 0.0 and v.max() <= 1.0
    assert np.allclose(v, cutoff(-u))


def test_cutoff_finite_difference_smoothness():
    # divided differences up to order 4 stay bounded as the step shrinks
    x = np.linspace(0.0, 0.3, 601)
    for k in range(1, 5):
        vals = []
        for h in (1e-2, 5e-3, 2.5e-3):
            acc = np.zeros_like(x)
            for j in range(k + 1):
                acc += (-1) ** j * math.comb(k, j) * cutoff(x + (k / 2 - j) * h)
            vals.append(np.abs(acc).max() / h**k)
        # divided differences stay bounded as h shrinks (they converge to the
        # sup of the k-th derivative; a mere C^(k-1) kink would blow up like 1/h)
        assert max(vals) < 2e7
        assert vals[2] < 8.0 * vals[0] + 1.0


def test_cutoff_spec_defaults():
    assert CUTOFF_OUTER == 1 / 4


def test_cutoff_matches_long_double_reference():
    # within 1e-14 of the long-double quadrature at random points, and at
    # every 16th node of the table and both float neighbours of each
    u = np.random.default_rng(5).uniform(-0.3, 0.3, 1 << 11)
    assert np.abs(cutoff(u) - cutoff_reference(u)).max() < 1e-14
    nodes = np.arange(0, 2 * multiplier.NODES_PER_UNIT + 1, 16) / multiplier.NODES_PER_UNIT - 1.0
    s = np.concatenate((nodes, np.nextafter(nodes, 2.0), np.nextafter(nodes, -2.0)))
    u = 5.0 / 32.0 + (3.0 / 32.0) * s
    assert np.abs(cutoff(u) - cutoff_reference(u)).max() < 1e-14
    ends = np.array([1.0 / 16.0, 0.25, -0.25, 0.0, 1.0])  # s = -1, 1, 1, -1, 1
    assert np.array_equal(cutoff(ends), [1.0, 0.0, 0.0, 1.0, 0.0])
    for x in (0.0, 1.0 / 16.0, 0.1, 5.0 / 32.0, 0.25, 0.3):
        value = cutoff(x)
        assert np.ndim(value) == 0 and abs(value - cutoff_reference([x])[0]) < 1e-14


def test_cutoff_reference_matches_mpmath():
    # the long-double reference against mpmath's quadrature at 30 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    bump = lambda v: mpmath.exp(1 - 1 / (1 - v * v)) if abs(v) < 1 else mpmath.mpf(0)
    total = mpmath.quad(bump, [-1, 0, 1])
    u = np.array([0.07, 0.1, 0.13, 5.0 / 32.0, 0.2, 0.24])
    reference = cutoff_reference(u)
    for x, r in zip(u, reference):
        s = (mpmath.mpf(float(x)) - mpmath.mpf(5) / 32) / (mpmath.mpf(3) / 32)
        exact = mpmath.quad(bump, [s, 1]) / total
        assert abs(mpmath.mpf(np.format_float_scientific(r, unique=True)) - exact) < 1e-18


def test_cutoff_within_2e12_of_the_linear_read():
    # the former read, linear on 2^20 + 1 nodes, erred by up to 1.4e-12
    u = np.random.default_rng(5).uniform(-0.3, 0.3, 1 << 16)
    assert np.abs(cutoff(u) - cutoff_linear(u)).max() < 2e-12


def test_mollifier_tail_nodes_match_reference():
    # 2^12 nodes per unit, every third value within one float64 rounding of
    # the reference, the slopes -bump/Z, and the ends exactly 1 and 0
    value, slope = _mollifier_tail()
    assert len(value) == len(slope) == 2 * multiplier.NODES_PER_UNIT + 1 == 8193
    s = np.arange(len(value)) / multiplier.NODES_PER_UNIT - 1.0
    reference = cutoff_reference(5.0 / 32.0 + (3.0 / 32.0) * s[::3])
    assert np.abs(value[::3] - reference).max() <= 2.0**-53
    assert value[0] == 1.0 and value[-1] == 0.0 and slope[0] == slope[-1] == 0.0
    bump = np.exp(1.0 - 1.0 / ((1.0 - s[1:-1]) * (1.0 + s[1:-1])))
    assert np.allclose(slope[1:-1], -bump / 1.2069003224378761753, rtol=1e-12, atol=0.0)  # Z by mpmath


def test_mollifier_tail_temporaries_stay_within_a_few_blocks():
    # the two tables plus their long-double build, within a few window blocks
    _mollifier_tail.cache_clear()
    tracemalloc.start()
    try:
        value, slope = _mollifier_tail()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= value.nbytes + slope.nbytes + 8 * WINDOW_BLOCK * value.itemsize


# ---------------------------------------------------------------------------
# Plain averages


def test_geometric_sum_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        K = int(rng.integers(1, 200))
        theta = float(rng.uniform(-3, 3))
        naive = sum(np.exp(-2j * np.pi * n * theta) for n in range(K))
        assert abs(geometric_sum(K, theta) - naive) < 1e-9 * K


def test_geometric_sum_at_integers():
    assert geometric_sum(37, 0.0) == 37
    assert geometric_sum(12, 5.0) == pytest.approx(12)


def test_m_hat_closed_form():
    # (1 - e(-N theta)) / (N (1 - e(-theta))) off the integers
    rng = np.random.default_rng(1)
    for _ in range(50):
        N = int(rng.integers(2, 300))
        theta = float(rng.uniform(0.01, 0.99))
        e = lambda t: np.exp(-2j * np.pi * t)
        closed = (1 - e(N * theta)) / (N * (1 - e(theta)))
        assert abs(m_hat(theta, N) - closed) < 1e-10


def test_m_hat_dirichlet_example():
    N, theta = 64, 1 / 128
    e = lambda t: np.exp(-2j * np.pi * t)
    closed = (1 - e(N * theta)) / (N * (1 - e(theta)))
    assert abs(m_hat(theta, N) - closed) < 1e-12
    assert m_hat(0.0, N) == pytest.approx(1.0)


def test_m_hat_rejects_short_lengths():
    with pytest.raises(ValueError):
        m_hat(0.1, 0.5)


# ---------------------------------------------------------------------------
# Prime multiplier


def test_a_hat_bruteforce():
    prog = Progression(3, 1)
    N = 64
    for theta in (0.0, 0.07, 0.5):
        direct = (2 / N) * sum(
            von_mangoldt(N)[n] * np.exp(-2j * np.pi * n * theta)
            for n in range(1, N, 3)
        )
        assert abs(a_hat(theta, N, prog) - direct) < 1e-10


def test_a_hat_at_zero_is_normalized_psi():
    from primeavg.tables import psi_progression

    prog = Progression(5, 2)
    N = 4096
    expected = 4 * psi_progression(N, prog) / N
    assert a_hat(0.0, N, prog) == pytest.approx(expected, rel=1e-12)


def test_a_hat_profile_matches_pointwise():
    prog = Progression(3, 1)
    N, M = 512, 2048
    prof = a_hat_profile(N, prog, M)
    for k in (0, 1, 100, 1024, 2047):
        # the half profile holds k <= M/2; above, a_hat is the conjugate at M - k
        value = prof.values[k] if k <= M // 2 else np.conj(prof.values[M - k])
        assert abs(value - a_hat(k / M, N, prog)) < 1e-9


def _full_a_hat_profile(N, prog, M):
    """All M values of a_hat on the grid, by the complex fft: the oracle of the real path."""
    return np.fft.fft(a_kernel(N, prog, M))


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(5, 3000),
    y=st.sampled_from([1, 3, 5]),
    pad=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@example(N=2999, y=3, pad=0, seed=0)  # M = 4096 < 2N: the cyclic wrap is exercised
@example(N=1024, y=5, pad=1, seed=1)  # N a power of two, M = 2N as in the scans
def test_a_hat_profile_real_apply_matches_full_spectrum(N, y, pad, seed):
    # the rfft/irfft path against the complex fft/ifft path on random real f
    prog = Progression(y, default_residue(y))
    M = pow2_at_least(N) << pad
    f = np.random.default_rng(seed).standard_normal(M)
    out = a_hat_profile(N, prog, M).apply(np.fft.rfft(f))
    oracle = np.fft.ifft(_full_a_hat_profile(N, prog, M) * np.fft.fft(f)).real
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (M,)
    assert np.abs(out - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("y", [1, 3, 5])
def test_a_hat_profile_kernel_and_sup_match_full_spectrum(y):
    prog, N, M = Progression(y, default_residue(y)), 3000, 1 << 13
    prof = a_hat_profile(N, prog, M)
    assert len(prof.values) == M // 2 + 1
    kernel = a_kernel(N, prog, M)
    assert np.abs(prof.kernel() - kernel).max() <= 1e-12 * np.abs(kernel).max()
    full_sup = float(np.abs(_full_a_hat_profile(N, prog, M)).max())
    assert np.abs(prof.values).max() == pytest.approx(full_sup, rel=1e-12)


@pytest.mark.parametrize("M", [1, 2, 7, 8, 1 << 10, (1 << 10) + 1])
def test_profile_holds_exactly_the_hermitian_half(M):
    SpectralProfile(M, np.zeros(M // 2 + 1))
    for n in {M // 2, M // 2 + 2, M} - {M // 2 + 1}:
        with pytest.raises(ValueError, match="holds"):
            SpectralProfile(M, np.zeros(n))


def test_profile_rejects_a_full_spectrum():
    # the complex fft of a real kernel, all M values, is not a profile's storage
    kernel = np.random.default_rng(2).standard_normal(64)
    with pytest.raises(ValueError, match="holds 33 values, got 64"):
        SpectralProfile(64, np.fft.fft(kernel))


def test_sup_abs_over_a_generator_of_profiles():
    # two profiles of different N on one grid, passed as a generator
    prog, M = Progression(3, 1), 1 << 12
    f = indicator(np.random.default_rng(5).integers(0, 2000, 300), M)
    short, long_ = a_hat_profile(500, prog, M), a_hat_profile(2000, prog, M)
    sup = sup_abs((p for p in (short, long_)), np.fft.rfft(f))
    fhat = np.fft.rfft(f)
    expected = np.maximum(np.abs(short.apply(fhat)), np.abs(long_.apply(fhat)))
    assert np.array_equal(sup, expected)


def test_a_hat_uniform_grid_matches_pointwise():
    prog = Progression(1, 0)
    N = 512
    grid = a_hat_uniform_grid(N, prog, 0.01, 0.003, 5)
    for j in range(5):
        assert abs(grid[j] - a_hat(0.01 + 0.003 * j, N, prog)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(2, 3000),
    y=st.sampled_from([1, 3, 5]),
    theta0=st.floats(-1.0, 1.0),
    scale=st.floats(0.01, 1.0),
    count=st.integers(1, 6000),
)
@example(N=3000, y=1, theta0=0.25, scale=1 / 64, count=1)  # count = 1: blocks of 2 n
@example(N=2999, y=3, theta0=-0.4, scale=0.3, count=37)  # K = 28: support over 100+ blocks
@example(N=1000, y=5, theta0=0.1, scale=1.0, count=2500)  # count >= N: one block
def test_a_hat_uniform_grid_chirp_matches_pointwise(N, y, theta0, scale, count):
    # the blocked chirp-z sweep against pointwise a_hat at up to 50 grid points,
    # first and last included; dtheta = scale / N, the sweeps' regime of spacing below 1/N
    prog = Progression(y, default_residue(y))
    dtheta = scale / N
    grid = a_hat_uniform_grid(N, prog, theta0, dtheta, count)
    assert grid.shape == (count,)
    for j in np.unique(np.linspace(0, count - 1, min(count, 50)).astype(int)).tolist():
        assert abs(grid[j] - a_hat(theta0 + dtheta * j, N, prog)) < 1e-9


def test_a_hat_profile_requires_power_of_two():
    with pytest.raises(ValueError):
        a_hat_profile(512, Progression(1, 0), 1500)


@pytest.mark.parametrize(
    "build",
    [
        lambda: a_hat_profile(1024, Progression(1, 0), 4096),
        lambda: approximant_windows(1024, Progression(1, 0), 16, 4096),
        lambda: approx_residual(1024, Progression(1, 0), 16, 4096, 1),
        lambda: DecompositionConfig(N=1024, prog=Progression(1, 0), Q=4, M=4096),
        # the scans' cells share the grid pow2_at_least(2 N_max) = 2048
        lambda: improving_scan(N_list=[1024], y_list=[1]),
        lambda: maximal_scan(N_list=[1024], y_list=[1]),
    ],
    ids=["a_hat_profile", "approximant_windows", "approx_residual", "DecompositionConfig",
         "improving_scan", "maximal_scan"],
)
def test_grid_above_memory_cap_raises_value_error_before_sieving(monkeypatch, forbid_sieves, build):
    # the cap sits above every table bound here, so only the grid can exceed it
    monkeypatch.setenv("PRIMEAVG_MEMORY_CAP", "2000")
    with pytest.raises(ValueError, match=r"grid size M=\d+ exceeds memory cap 2000"):
        build()


# ---------------------------------------------------------------------------
# Farey points and major-arc terms


def test_farey_denominator_mode_count():
    # order 5 on the half-open circle [0, 1): sum of phi(q) = 10
    pts = farey_points(5, Progression(1, 0))
    assert len(pts) == 10
    assert {p.center for p in pts} == {
        0.0, 1 / 2, 1 / 3, 2 / 3, 1 / 4, 3 / 4, 1 / 5, 2 / 5, 3 / 5, 4 / 5,
    }


def test_l_hat_support_and_center():
    prog = Progression(3, 1)
    p = farey_points(2, prog)[-1]  # 1/2
    ell = p.ell
    expected = p.upsilon * m_hat(0.0, (1 << 12) / ell)
    assert l_hat(0.5, p, 1 << 12, prog) == pytest.approx(expected)
    assert l_hat(0.5 + 1 / (2 * ell**2), p, 1 << 12, prog) == 0j
    assert l_hat(0.5 + 0.3, p, 1 << 12, prog) == 0j


def test_l_hat_progression_mismatch():
    p = farey_points(2, Progression(3, 1))[-1]  # 1/2
    with pytest.raises(ValueError):
        l_hat(0.5, p, 1 << 12, Progression(5, 1))


def test_major_arc_supports_disjoint_within_scale():
    # cutoff supports at scale lcm^2 never overlap for distinct points whose
    # denominators agree within a factor of 2
    prog = Progression(3, 1)
    pts = [p for p in farey_points(16, prog) if p.height > 0]
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if not 0.5 <= p.q / q.q <= 2.0:
                continue
            lo1 = p.center - 0.25 / p.ell**2
            hi1 = p.center + 0.25 / p.ell**2
            lo2 = q.center - 0.25 / q.ell**2
            hi2 = q.center + 0.25 / q.ell**2
            assert hi1 <= lo2 or hi2 <= lo1


def test_approximant_profile_matches_pointwise():
    prog = Progression(3, 1)
    N, M = 1 << 10, 1 << 12
    prof = approximant_profile(N, prog, 8, M)
    assert len(prof.values) == M // 2 + 1
    for k in (0, 3, 341, 1365, 2048, 4095):
        value = prof.values[k] if k <= M // 2 else np.conj(prof.values[M - k])
        assert abs(value - approximant_hat(k / M, N, prog, 8)) < 1e-9


def _full_windows(N, prog, q_cut, M, held=lambda p: True):
    """The l_hat windows on all of Z_M, unclipped, in Farey order: the oracle of the half windows.

    The offset k/M - a/q is formed as in multiplier.major_arc_window, so on
    k <= M/2 the values agree bit for bit.
    """
    for p in farey_points(max(q_cut - 1, 1), prog):
        if p.q < q_cut and p.height > 0 and held(p):
            radius = CUTOFF_OUTER / p.ell**2
            k = np.arange(math.floor((p.center - radius) * M) + 1, math.ceil((p.center + radius) * M))
            d = (k * p.q - p.a * M) / (p.q * M)
            yield k % M, p.upsilon * m_hat(p.ell * d, N / p.ell) * cutoff(p.ell * p.ell * d)


def _full_approximant(N, prog, q_cut, M, held=lambda p: True):
    """The approximant on all M values, every window unclipped: the oracle of the half bands."""
    values = np.zeros(M, dtype=np.complex128)
    for idx, vals in _full_windows(N, prog, q_cut, M, held):
        values[idx] += vals
    return values


@pytest.mark.parametrize("y, b", [(1, 0), (3, 1), (5, 1)])
def test_approximant_profile_hermitian_to_rounding(y, b):
    # the window offsets k/M - a/q come from one exact integer numerator, so
    # the windows at a/q and (q - a)/q are conjugate up to Upsilon's rounding;
    # this is what lets approximant_profile keep k <= M/2 alone
    M = 1 << 18
    v = _full_approximant(1 << 16, Progression(y, b), 32, M)
    asymmetry = np.abs(v[1:] - np.conj(v[:0:-1])).max()  # v[k] against conj v[M - k]
    assert asymmetry <= 1e-15 * np.abs(v).max()


@settings(max_examples=25, deadline=None)
@given(
    y=st.sampled_from([1, 3, 5, 6]),
    pick=st.integers(0, 3),
    log_m=st.integers(10, 13),
    bands=st.lists(
        st.tuples(st.integers(1, 14), st.integers(0, 12), st.one_of(st.none(), st.integers(0, 12))),
        min_size=1, max_size=5,
    ),
)
def test_shared_windows_match_full_grid_builds(y, pick, log_m, bands):
    # several bands built from one evaluation of the windows, and each built
    # alone, against a full-grid build of the band, bit for bit on k <= M/2
    residues = reduced_residues(y)
    prog = Progression(y, int(residues[pick % len(residues)]))
    M = 1 << log_m
    N = M // 4
    windows = approximant_windows(N, prog, max(q for q, _, _ in bands), M)
    for q_cut, lo, hi in bands:
        top = math.inf if hi is None else hi
        full = _full_approximant(N, prog, q_cut, M, lambda p: lo <= p.height <= top)
        for prof in (
            approximant_profile(N, prog, q_cut, M, lo, hi, windows),
            approximant_profile(N, prog, q_cut, M, lo, hi),
        ):
            assert prof.grid_size == M and len(prof.values) == M // 2 + 1
            assert np.array_equal(prof.values, full[: M // 2 + 1])


def test_approximant_minor_arc_vanishes():
    # deep minor arc: far from every rational with denominator < 8
    val = approximant_hat(0.46194, 1 << 10, Progression(1, 0), 8)
    assert abs(val) < 1e-3


def test_near_zero_error_shrinks():
    prog = Progression(3, 1)
    e_small = near_zero_error(1 << 10, prog)
    e_large = near_zero_error(1 << 14, prog)
    assert e_large < e_small


def _full_residual(N, prog, q_cut, M):
    """The residual on all M values, every window unclipped: the oracle of the half path."""
    values = _full_a_hat_profile(N, prog, M)
    for idx, vals in _full_windows(N, prog, q_cut, M):
        values[idx] -= vals
    return values


def _streamed_half(N, prog, q_cut, M):
    """The residual on k <= M/2, reassembled from the classes of _residual_classes."""
    D = M // min(M, multiplier.CLASS_LENGTH)
    half = np.full(M // 2 + 1, np.nan, dtype=np.complex128)
    seen = []
    for r, values in _residual_classes(N, prog, q_cut, M):
        assert len(values) == len(half[r::D])
        half[r::D] = values
        seen.append(r)
    assert sorted(seen) == list(range(D))
    return half


def test_approx_error_profile_residual():
    # the streamed half residual against the full-grid oracle, at every y of the scans
    N = 1 << 12
    M = 4 * N
    for y in (1, 3, 5):
        prog = Progression(y, default_residue(y))
        sup, rows = approx_residual(N, prog, 16, M, 1)
        half = _streamed_half(N, prog, 16, M)
        assert sup == float(np.abs(half).max())
        assert np.array_equal(rows[: M // 2 + 1], np.abs(half))
        v = _full_residual(N, prog, 16, M)
        # hermitian symmetry of a real-kernel residual
        assert np.allclose(v[1:], np.conj(v[1:][::-1]), atol=1e-9)
        # the class transforms and fft round differently, on the scale of
        # a_hat's peak, not the residual's
        peak = np.abs(a_hat_profile(N, prog, M).values).max()
        assert np.abs(half - v[: M // 2 + 1]).max() <= 1e-15 * peak
        assert sup == pytest.approx(float(np.abs(v).max()), rel=1e-14)


# M = N, 2N, 4N and 16N: D = M / min(M, L) is 1, 1, 1, 2 at the module's
# L = 2^18, and 4, 8, 16, 64 at L = 2^10; N = 3000 is no power of two
CLASS_CASES = (
    [(CLASS_LENGTH, 1 << 15, (1 << 15) * f) for f in (1, 2, 4, 16)]
    + [(1 << 10, 1 << 12, (1 << 12) * f) for f in (1, 2, 4, 16)]
    + [(CLASS_LENGTH, 3000, 1 << 14), (1 << 10, 3000, 1 << 14)]
)


@pytest.mark.parametrize("class_length, N, M", CLASS_CASES)
def test_residual_classes_match_full_residual(monkeypatch, class_length, N, M):
    # rows at strides 1, 3 and M/16 read |residual| at min(k, M - k) from every class
    monkeypatch.setattr(multiplier, "CLASS_LENGTH", class_length)
    for y in (1, 3, 5):
        prog = Progression(y, default_residue(y))
        half = _streamed_half(N, prog, 16, M)
        v = _full_residual(N, prog, 16, M)
        peak = np.abs(a_hat_profile(N, prog, M).values).max()
        assert np.abs(half - v[: M // 2 + 1]).max() <= 1e-15 * peak
        for stride in (1, 3, M // 16):
            sup, rows = approx_residual(N, prog, 16, M, stride)
            k = np.arange(0, M, stride)
            assert sup == float(np.abs(half).max())
            assert np.array_equal(rows, np.abs(half[np.minimum(k, M - k)]))


def test_streamed_residual_holds_no_grid_array(monkeypatch):
    # the traced peak of the streamed residual follows the class length, not M:
    # at N = 2^16, M = 2^18 and L = 2^14 it stays below the M float64 values
    # that the length-M kernel of a full-grid residual holds by itself
    N, M = 1 << 16, 1 << 18
    prog = Progression(1, 0)
    monkeypatch.setattr(multiplier, "CLASS_LENGTH", 1 << 14)
    approx_residual(N, prog, 16, M, M)  # sieve and tabulate before tracing
    tracemalloc.start()
    try:
        approx_residual(N, prog, 16, M, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * M


@pytest.mark.parametrize("class_length, N, M", CLASS_CASES)
def test_residual_classes_match_fresh_array_oracle(monkeypatch, class_length, N, M):
    # the one reused class buffer yields every class bit for bit as the loop
    # that built fresh arrays per class, each on contiguous data, where np.abs
    # rounds as on a fresh array; each class is copied before the generator
    # resumes and overwrites it
    monkeypatch.setattr(multiplier, "CLASS_LENGTH", class_length)
    for y in (1, 3, 5):
        prog = Progression(y, default_residue(y))
        reused = []
        for r, values in _residual_classes(N, prog, 16, M):
            assert values.flags.c_contiguous
            reused.append((r, values.copy()))
        fresh = list(residual_classes_fresh(N, prog, 16, M))
        assert [r for r, _ in reused] == [r for r, _ in fresh]
        for (_, got), (_, want) in zip(reused, fresh):
            assert np.array_equal(got, want)


def test_residual_classes_reuse_one_class_buffer(monkeypatch):
    # at N = 2^16, M = 2^18 and L = 2^14 the traced peak is 4.2 class buffers
    # of 16 L bytes; fresh arrays per class peaked at 6.2
    N, M, L = 1 << 16, 1 << 18, 1 << 14
    prog = Progression(1, 0)
    monkeypatch.setattr(multiplier, "CLASS_LENGTH", L)
    approx_residual(N, prog, 16, M, M)  # sieve and tabulate before tracing
    tracemalloc.start()
    try:
        approx_residual(N, prog, 16, M, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 16 * L


@pytest.mark.parametrize("N", [3000, 1 << 12])
@pytest.mark.parametrize("y", [1, 3, 5])
def test_weighted_support_matches_gather(N, y):
    # the strided view of Lambda gives the gathered and masked support bit for bit
    for b in reduced_residues(y):
        prog = Progression(y, int(b))
        n, w = _weighted_support(N, prog)
        n_old, w_old = weighted_support_gather(N, prog)
        assert n.dtype == n_old.dtype and w.dtype == w_old.dtype
        assert np.array_equal(n, n_old) and np.array_equal(w, w_old)


@settings(max_examples=30, deadline=None)
@given(
    y=st.sampled_from([1, 3, 5]),
    pick=st.integers(0, 3),
    q_cut=st.integers(2, 12),
    log_m=st.integers(10, 13),
)
def test_half_windows_cover_full_windows_on_half(y, pick, q_cut, log_m):
    # clipping to k <= M/2 drops no nonzero value there, and keeps each value
    # bit for bit
    residues = reduced_residues(y)
    prog = Progression(y, int(residues[pick % len(residues)]))
    M = 1 << log_m
    N, half = M // 4, M // 2
    full = np.zeros(half + 1, dtype=np.complex128)
    for idx, vals in _full_windows(N, prog, q_cut, M):
        keep = idx <= half
        full[idx[keep]] += vals[keep]
    clipped = np.zeros(half + 1, dtype=np.complex128)
    covered = np.zeros(half + 1, dtype=bool)
    for _, k0, vals in approximant_windows(N, prog, q_cut, M):
        assert len(vals) == 0 or (k0 >= 0 and k0 + len(vals) - 1 <= half)
        clipped[k0 : k0 + len(vals)] += vals
        covered[k0 : k0 + len(vals)] = True
    assert covered[full != 0].all()
    assert np.array_equal(clipped, full)


def _zero_point():
    # at y = 1 the window of 0/1 is the widest: M/4 points on k <= M/2
    return farey_points(1, Progression(1, 0))[0]


@pytest.mark.parametrize("block", [WINDOW_BLOCK, 1000])
def test_blocked_window_matches_one_shot(monkeypatch, block):
    # M/4 = 40960 points: one block of 2^15 and a ragged 8192, or 40 blocks
    # of 1000 and a ragged 960; the values do not depend on where blocks break
    monkeypatch.setattr(multiplier, "WINDOW_BLOCK", block)
    p = _zero_point()
    N, M = 1 << 15, 5 << 15
    k0, vals = major_arc_window(p.a, p.q, p.ell, p.upsilon, N, M)
    assert k0 == 0 and len(vals) == M // 4
    k = np.arange(M // 4)
    d = (k * p.q - p.a * M) / (p.q * M)
    assert np.array_equal(vals, p.upsilon * m_hat(p.ell * d, N / p.ell) * cutoff(p.ell * p.ell * d))


@pytest.mark.parametrize("stride", [1, 3, 16])
def test_strided_window_is_every_stride_th_value(stride):
    # the class windows of approx_residual are the stride-1 windows of
    # approximant_profile and highlow read at k = r mod stride, bit for bit
    prog = Progression(1, 0)
    N, M = 1 << 12, 1 << 14
    for p in farey_points(5, prog):
        if 2 * p.a > p.q:
            continue
        k0, full = major_arc_window(p.a, p.q, p.ell, p.upsilon, N, M)
        for r in range(stride):
            j0, vals = major_arc_window(p.a, p.q, p.ell, p.upsilon, N, M, stride, r)
            k = r + stride * (j0 + np.arange(len(vals)))
            kept = np.arange(k0, k0 + len(full))
            assert np.array_equal(k, kept[kept % stride == r])
            assert np.array_equal(vals, full[k - k0])


def test_window_temporaries_stay_within_a_few_blocks():
    # numpy reports its buffers to tracemalloc: the traced peak of the widest
    # window is its values plus the temporaries of one block; evaluated at
    # once, its 2^18 points would peak above 20 MB
    p = _zero_point()
    cutoff(0.0)  # tabulate the mollifier before tracing
    tracemalloc.start()
    try:
        k0, vals = major_arc_window(p.a, p.q, p.ell, p.upsilon, 1 << 18, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k0 == 0 and len(vals) == 1 << 18
    assert peak <= vals.nbytes + 8 * WINDOW_BLOCK * vals.itemsize


@pytest.mark.parametrize("y, b", [(1, 0), (3, 1)])
def test_approx_error_profile_matches_pointwise_oracles(y, b):
    # the residual, streamed class by class, against the pointwise
    # oracles at every Farey centre, a point inside each window, and uniform draws
    N, q_cut = 1 << 12, 16
    M = 4 * N
    prog = Progression(y, b)
    half = _streamed_half(N, prog, q_cut, M)
    points = farey_points(q_cut - 1, prog)
    centres = [round(p.center * M) for p in points]
    draws = np.random.default_rng(11).integers(0, M, 32).tolist()
    ks = sorted({k % M for c in centres for k in (c, c + 7)} | set(draws))
    # the half holds k <= M/2; above, the residual is the conjugate at M - k
    values = np.concatenate((half, np.conj(half[-2:0:-1])))
    worst = max(
        abs(
            values[k]
            - (a_hat(k / M, N, prog) - approximant_hat(k / M, N, prog, q_cut, points=points))
        )
        for k in ks
    )
    assert worst < 1e-9


@pytest.mark.parametrize("y, b", [(1, 0), (3, 1)])
def test_window_start_index_matches_index_array_build(y, b):
    # each window carries its start k0, and callers add into the slice
    # k0 : k0 + len(values); adding at the index array k0 .. k1 instead gives
    # the same bands bit for bit, and the streamed residual to the rounding
    # of its class transforms
    N, q_cut = 1 << 12, 16
    M = 4 * N
    prog = Progression(y, b)
    windows = approximant_windows(N, prog, q_cut, M)
    band = np.zeros(M // 2 + 1, dtype=np.complex128)
    residual = a_hat_profile(N, prog, M).values
    for _, k0, vals in windows:
        idx = np.arange(k0, k0 + len(vals))
        band[idx] += vals
        residual[idx] -= vals
    assert np.array_equal(approximant_profile(N, prog, q_cut, M).values, band)
    assert np.array_equal(approximant_profile(N, prog, q_cut, M, windows=windows).values, band)
    peak = np.abs(a_hat_profile(N, prog, M).values).max()
    assert np.abs(_streamed_half(N, prog, q_cut, M) - residual).max() <= 1e-15 * peak
