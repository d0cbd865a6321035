import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeavg.cli import cmd_highlow
from primeavg.highlow import (
    DecompositionConfig,
    dual_path_rel,
    hi_hat_profile,
    hi_l2_ratios,
    indicator_spectrum,
    lo_hat_profile,
    lo_kernels_closed,
    lo_linf_ratio,
    multifrequency_max_ratio,
    multifrequency_profile,
    phi_kernel,
)
from primeavg.multiplier import SpectralProfile, approximant_profile, cutoff, indicator
from primeavg.tables import Progression

from oracles import lo_kernel_closed


def _wrapped_grid(M: int) -> np.ndarray:
    """Every frequency k/M of Z_M, wrapped into [-1/2, 1/2)."""
    k = np.arange(M, dtype=np.float64) / M
    return np.where(k < 0.5, k, k - 1.0)


def _cfg(N=1 << 12, y=3, b=1, Q=4, M=None, **kw):
    return DecompositionConfig(N, Progression(y, b), Q, M or 4 * N, **kw)


# ---------------------------------------------------------------------------
# Config validation


def test_config_default_q_cut():
    cfg = _cfg(y=3, Q=4)
    assert cfg.q_cut == 13


def test_config_rejects_small_M():
    with pytest.raises(ValueError):
        DecompositionConfig(1 << 12, Progression(1, 0), 4, 1 << 12)


def test_config_rejects_non_power_of_two_M():
    with pytest.raises(ValueError):
        DecompositionConfig(1 << 12, Progression(1, 0), 4, 3 * (1 << 12))


def test_config_warns_on_desk_scale_override():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning):
            DecompositionConfig(1 << 12, Progression(1, 0), 4, 1 << 14, q_cut=64)


# ---------------------------------------------------------------------------
# Partition


def test_hi_plus_lo_partitions_approximant(tables):
    cfg = _cfg(N=1 << 14, y=3, b=1, Q=4)
    total = approximant_profile(cfg.N, cfg.prog, cfg.q_cut, cfg.M)
    split = lo_hat_profile(cfg).values + hi_hat_profile(cfg).values
    assert np.abs(split - total.values).max() < 1e-10


def test_lo_vanishes_at_Q1(tables):
    # Q = 1 leaves no heights below the threshold
    cfg = _cfg(Q=1)
    assert np.abs(lo_hat_profile(cfg).values).max() == 0.0


# ---------------------------------------------------------------------------
# Kernels


def test_phi_kernel_real_and_round_trips(tables):
    cfg = _cfg(N=1 << 12, y=3, b=1, Q=4)
    ker = phi_kernel(cfg, 2)
    assert ker.dtype == np.float64
    ell = math.lcm(3, 2)
    from primeavg.multiplier import m_hat

    xi = _wrapped_grid(cfg.M)
    expected = m_hat(ell * xi, cfg.N / ell) * cutoff(ell * ell * xi)
    back = np.fft.fft(ker)
    assert np.abs(back - expected).max() < 1e-9


@pytest.mark.parametrize(
    "N, y, b, q, M",
    [
        (1 << 12, 1, 0, 1, 1 << 14),
        (1 << 12, 3, 1, 2, 1 << 14),
        (1 << 10, 5, 2, 3, 1 << 16),
        (1 << 12, 6, 5, 5, 1 << 15),
    ],
)
def test_phi_kernel_window_matches_full_grid(N, y, b, q, M):
    # the half spectrum evaluated on its support equals the full-grid product
    # on k <= M/2, whose values outside the window are exactly 0; the irfft
    # kernel matches the complex inverse transform of the full product
    from primeavg.highlow import _phi_hat
    from primeavg.multiplier import m_hat

    cfg = _cfg(N=N, y=y, b=b, Q=2, M=M)
    ell = math.lcm(y, q)
    xi = _wrapped_grid(M)
    full = m_hat(ell * xi, N / ell) * cutoff(ell * ell * xi)
    assert np.array_equal(_phi_hat(cfg, q), full[: M // 2 + 1])
    oracle = np.fft.ifft(full).real
    assert np.abs(phi_kernel(cfg, q) - oracle).max() <= 1e-15 * np.abs(oracle).max()


@pytest.mark.parametrize("block", [None, 1000])
def test_phi_hat_blocked_matches_one_shot(monkeypatch, block):
    # at y = 1, q = 1 the support k <= M/4 holds 2^15 + 1 points: one block
    # of 2^15 and a ragged single point, or 32 blocks of 1000 and a ragged 769
    from primeavg import multiplier
    from primeavg.highlow import _phi_hat
    from primeavg.multiplier import m_hat

    if block is not None:
        monkeypatch.setattr(multiplier, "WINDOW_BLOCK", block)
    N, M = 1 << 15, 1 << 17
    cfg = _cfg(N=N, y=1, b=0, Q=2, M=M)
    k = np.arange(M // 4 + 1)
    oracle = np.zeros(M // 2 + 1, dtype=np.complex128)
    oracle[k] = m_hat(k / M, N) * cutoff(k / M)
    assert np.array_equal(_phi_hat(cfg, 1), oracle)


def test_phi_kernel_decay_envelope(tables):
    # the kernel concentrates on the one-sided window [0, N); the smooth
    # cutoff forces superpolynomial decay outside it
    cfg = _cfg(N=1 << 12, y=1, b=0, Q=2, M=1 << 15)
    ker = phi_kernel(cfg, 1)
    x = np.arange(cfg.M, dtype=np.int64)
    x[cfg.M // 2 :] -= cfg.M
    far = np.abs(ker[(x < -cfg.N // 2) | (x > 3 * cfg.N // 2)])
    assert far.max() < 1e-5 * np.abs(ker).max()


def test_phi_kernel_lcm_guard():
    cfg = _cfg(N=1 << 12, y=6, b=1, Q=8, M=1 << 14)
    with pytest.raises(ValueError):
        phi_kernel(cfg, 35)  # lcm(6, 35) = 210, 210^2 > M/4


def test_dual_path_low_kernels_agree(tables):
    cfg = _cfg(N=1 << 12, y=3, b=1, Q=4, M=1 << 16)
    spec = lo_hat_profile(cfg).kernel()
    closed = lo_kernel_closed(cfg, tables)
    peak = np.abs(spec).max()
    assert np.abs(spec - closed).max() < 1e-3 * peak


@pytest.mark.parametrize("y, b, Qs", [(3, 1, [8, 2, 4, 2]), (1, 0, [1, 6, 3]), (6, 5, [5])])
def test_low_kernels_one_pass_match_per_Q(tables, y, b, Qs):
    # unsorted, repeated and empty (Q = 1) sums each equal the per-Q oracle bit for bit
    cfgs = [_cfg(N=1 << 12, y=y, b=b, Q=Q, M=1 << 16) for Q in Qs]
    for cfg, kernel in zip(cfgs, lo_kernels_closed(cfgs, tables), strict=True):
        assert np.array_equal(kernel, lo_kernel_closed(cfg, tables))


@pytest.mark.parametrize("y, b", [(3, 1), (1, 0)])
def test_low_kernel_pass_holds_no_coordinate_array(tables, y, b):
    # tau_{q'}(x) and the class x = b mod y are periodic, so the pass holds no
    # length-M coordinates, residues, gather or mask: draining it traced 5.0-5.3
    # float64 arrays of length M at its peak, against 6.3-6.4 with them
    M = 1 << 16
    cfgs = [_cfg(N=1 << 12, y=y, b=b, Q=Q, M=M) for Q in (2, 4, 8, 16)]
    list(lo_kernels_closed(cfgs, tables))  # the Ramanujan tables it reads, before tracing
    tracemalloc.start()
    try:
        for _ in lo_kernels_closed(cfgs, tables):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.75 * 8 * M


def test_highlow_rows_match_per_Q_oracles_in_Q_list_order(tables):
    # the command takes --Q-list in its order: the one pass over q' reaches 8
    # first, so 2, 4 and the repeated 2 read copies of its running sum, and each
    # row equals, bit for bit, that of its Q built alone with the per-Q Low kernel
    N, M, r, Q_list = 1 << 12, 1 << 16, 1.5, [8, 2, 4, 2]
    rows, summary, ok = cmd_highlow({"N": N, "y": 3, "b": 1, "Q_list": Q_list, "r": r})
    F = np.arange(N // 8)
    expected = []
    for Q in Q_list:
        cfg = _cfg(N=N, y=3, b=1, Q=Q, M=M)
        hi, lo = hi_hat_profile(cfg), lo_hat_profile(cfg)
        total = approximant_profile(N, cfg.prog, cfg.q_cut, M)
        expected.append({
            "Q": Q,
            "q_cut": cfg.q_cut,
            "partition_err": float(np.abs(hi.values + lo.values - total.values).max()),
            "dual_path_rel": dual_path_rel(lo, lo_kernel_closed(cfg, tables)),
            "hi_l2_ratio_interval": float(hi_l2_ratios([hi], [indicator_spectrum(F, M)])[0, 0]),
            "lo_linf_ratio_interval": float(np.abs(lo.apply(np.fft.rfft(indicator(F, M)))).max()
                                            / (3 / N * len(F)) ** (1 / r)),
        })
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected]
    assert ok and summary["max_partition_err"] == max(row["partition_err"] for row in expected)


def test_low_kernel_envelope_invariant(tables):
    # |Lo(x)| stays under a multiple of y Q^2 / N uniformly
    cfg = _cfg(N=1 << 12, y=3, b=1, Q=4, M=1 << 15)
    ker = lo_kernel_closed(cfg, tables)
    bound = cfg.prog.y * cfg.Q**2 / cfg.N
    assert np.abs(ker).max() <= 10.0 * bound


# ---------------------------------------------------------------------------
# Convolution plumbing


def test_convolve_with_delta_is_identity():
    M = 256
    rng = np.random.default_rng(3)
    f = rng.standard_normal(M)
    delta = np.zeros(M)
    delta[0] = 1.0
    out = SpectralProfile(M, np.fft.rfft(delta)).apply(np.fft.rfft(f))
    assert np.allclose(out, f, atol=1e-12)


def test_convolve_matches_direct_sum():
    M = 64
    rng = np.random.default_rng(4)
    k = rng.standard_normal(M)
    f = rng.standard_normal(M)
    direct = np.array(
        [sum(k[(x - u) % M] * f[u] for u in range(M)) for x in range(M)]
    )
    out = SpectralProfile(M, np.fft.rfft(k)).apply(np.fft.rfft(f))
    assert np.allclose(out, direct, atol=1e-10)


def test_convolve_is_linear():
    M = 128
    rng = np.random.default_rng(5)
    k = SpectralProfile(M, np.fft.rfft(rng.standard_normal(M)))
    f = rng.standard_normal(M)
    g = rng.standard_normal(M)
    lhs = k.apply(np.fft.rfft(2 * f - 3 * g))
    rhs = 2 * k.apply(np.fft.rfft(f)) - 3 * k.apply(np.fft.rfft(g))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_convolve_size_mismatch():
    with pytest.raises(ValueError):
        SpectralProfile(64, np.fft.rfft(np.zeros(64))).apply(np.fft.rfft(np.zeros(128)))
    with pytest.raises(ValueError):  # on Z_2 a real f has as many entries as its rfft
        SpectralProfile(2, np.fft.rfft(np.array([1.0, 0.0]))).apply(np.array([1.0, 0.0]))


def test_apply_profile_size_mismatch(tables):
    cfg = _cfg()
    with pytest.raises(ValueError):
        lo_hat_profile(cfg).apply(np.fft.rfft(np.zeros(cfg.M // 2)))


def test_indicator_wraps_modulo():
    f = indicator([1, 5, 5 + 8], 8)
    assert f.tolist() == [0, 1, 0, 0, 0, 1, 0, 0]


# ---------------------------------------------------------------------------
# Ratios


def test_hi_l2_ratio_rejects_empty(tables):
    with pytest.raises(ValueError):
        hi_l2_ratios([hi_hat_profile(_cfg())], [indicator_spectrum([], _cfg().M)])


@settings(max_examples=40, deadline=None)
@given(
    families=st.lists(
        st.lists(st.integers(-(1 << 13), 1 << 13), min_size=1, max_size=300, unique=True),
        min_size=1, max_size=3,
    ),
)
def test_hi_l2_ratios_match_inverse_transform(families):
    # the weighted half-spectrum Parseval sum against ||Hi * 1_F||_2 / |F|^(1/2)
    # through the complex inverse FFT of the full spectrum, k > M/2 read as
    # the conjugate at M - k
    his = [hi_hat_profile(_cfg(N=1 << 10, y=3, b=1, Q=Q, M=1 << 12, q_cut=12)) for Q in (2, 4)]
    ratios = hi_l2_ratios(his, [indicator_spectrum(F, 1 << 12) for F in families])
    assert ratios.shape == (len(families), len(his))
    for i, F in enumerate(families):
        for j, hi in enumerate(his):
            full = np.concatenate((hi.values, np.conj(hi.values[-2:0:-1])))
            g = np.fft.ifft(full * np.fft.fft(indicator(F, hi.grid_size)))
            oracle = np.linalg.norm(g) / math.sqrt(len(F))
            assert ratios[i, j] == pytest.approx(oracle, rel=1e-12, abs=1e-15)
        assert hi_l2_ratios([his[0]], [indicator_spectrum(F, 1 << 12)])[0, 0] == ratios[i, 0]


def test_hi_l2_ratios_take_profiles_one_at_a_time():
    # only each profile's power is kept, so the profiles may come from a
    # generator, as the hi_decay_slope recipe passes them
    his = [hi_hat_profile(_cfg(N=1 << 10, y=3, b=1, Q=Q, M=1 << 12, q_cut=12)) for Q in (2, 4)]
    sets = [indicator_spectrum(F, 1 << 12) for F in (np.arange(128), np.arange(1, 1 << 10, 3))]
    assert np.array_equal(hi_l2_ratios((hi for hi in his), sets), hi_l2_ratios(his, sets))


def test_hi_l2_ratios_einsum_matches_blas_dot():
    # the Parseval sum is an einsum without optimize, which calls no BLAS; it
    # was the BLAS dot p @ fpower.  Both add the same positive terms, so the
    # ratios agree to a few ulp
    N, M = 1 << 13, 1 << 16
    his = [hi_hat_profile(_cfg(N=N, y=3, b=1, Q=Q, M=M, q_cut=25)) for Q in (2, 4, 8)]
    rng = np.random.default_rng(11)
    families = [np.arange(N // 8), np.arange(1, N, 3), rng.choice(N, N // 4, replace=False)]
    ratios = hi_l2_ratios(his, (indicator_spectrum(F, M) for F in families))
    for i, F in enumerate(families):
        fhat = np.fft.rfft(indicator(F, M))
        fpower = fhat.real**2 + fhat.imag**2
        for j, hi in enumerate(his):
            p = hi.values.real**2 + hi.values.imag**2
            p[1:-1] *= 2.0
            dot = math.sqrt(float(p @ fpower) / (M * len(F)))
            assert abs(ratios[i, j] - dot) <= 4 * np.finfo(float).eps * dot


def test_lo_linf_ratio_r_range(tables):
    cfg = _cfg()
    lo = lo_hat_profile(cfg)
    with pytest.raises(ValueError):
        lo_linf_ratio(lo, cfg, indicator_spectrum([0, 1], cfg.M), 2.5)
    with pytest.raises(ValueError):
        lo_linf_ratio(lo, cfg, indicator_spectrum([0, 1], cfg.M), 1.0)
    with pytest.raises(ValueError):
        indicator_spectrum([], cfg.M)


def test_hi_ratio_decreases_in_Q(tables):
    # at a fixed denominator ceiling, larger Q strips more Farey points into
    # Low, shrinking the High norm
    N = 1 << 14
    F = np.arange(0, N, 3) + 1
    vals = [
        hi_l2_ratios([hi_hat_profile(_cfg(N=N, y=3, b=1, Q=Q, M=4 * N, q_cut=25))],
                     [indicator_spectrum(F, 4 * N)])[0, 0]
        for Q in (2, 8)
    ]
    assert vals[1] < vals[0]


def test_lo_linf_ratio_progression_order_one(tables):
    # input on the progression itself: Low sees nearly all its mass
    N = 1 << 12
    cfg = _cfg(N=N, y=3, b=1, Q=4, M=1 << 14)
    F = np.arange(1, N, 3)
    ratio = lo_linf_ratio(lo_hat_profile(cfg), cfg, indicator_spectrum(F, cfg.M), 1.5)
    assert 0.5 < ratio < 2.0


# ---------------------------------------------------------------------------
# Multifrequency


def test_multifrequency_validation():
    f = np.zeros(1 << 12)
    with pytest.raises(ValueError):
        multifrequency_max_ratio(4, 0, 1 << 12, f)
    with pytest.raises(ValueError):
        multifrequency_max_ratio(4, 5, 1 << 12, f)


def test_multifrequency_single_point_bounded():
    # one smooth projection at frequency 0: ratio stays order one
    M = 1 << 12
    rng = np.random.default_rng(9)
    f = rng.standard_normal(M)
    ratio = multifrequency_max_ratio(4, 1, M, f)
    assert 0.0 < ratio < 3.0


def test_multifrequency_max_ratio_matches_direct_convolution():
    # the bands at j/D, j < 3 of 4, are not even in xi: each smooth projection
    # is a complex kernel, applied here as a direct cyclic sum
    D, k, M = 4, 3, 1 << 10
    f = np.random.default_rng(10).standard_normal(M)
    x = np.arange(M)
    sup = np.zeros(M)
    for n in range(5, 9):  # the scales 2^n, 2 log2(D) < n < log2(M) - 1
        kernel = np.fft.ifft(multifrequency_profile(D, k, n, M))
        sup = np.maximum(sup, np.abs(kernel[(x[:, None] - x[None, :]) % M] @ f))
    expected = np.linalg.norm(sup) / np.linalg.norm(f)
    assert multifrequency_max_ratio(D, k, M, f) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("D, k", [(4, 3), (12, 1), (12, 12)])
def test_multifrequency_pairwise_norms_match_blas_norms(D, k):
    # the two l2 norms are square roots of numpy's pairwise sums of squares,
    # which call no BLAS; they were np.linalg.norm.  The ratios agree to a few
    # ulp, on white noise too, where an einsum self-dot strays by 25 at k = 1
    M = 1 << 14
    f = np.random.default_rng(12).standard_normal(M)
    fhat = np.fft.fft(f)
    sup = np.zeros(M)
    for n in range(2 * math.ceil(math.log2(D)) + 1, int(math.log2(M)) - 1):
        sup = np.maximum(sup, np.abs(np.fft.ifft(multifrequency_profile(D, k, n, M) * fhat)))
    norms = np.linalg.norm(sup) / np.linalg.norm(f)
    assert abs(multifrequency_max_ratio(D, k, M, f) - norms) <= 4 * np.finfo(float).eps * norms


@pytest.mark.parametrize(
    "D, k, n, M",
    [(12, 12, 9, 1 << 18), (12, 5, 16, 1 << 18), (4, 3, 5, 1 << 12), (7, 7, 3, 1 << 10), (3, 2, 1, 64),
     (12, 12, 7, 1 << 18), (12, 1, 7, 1 << 18)],
)
def test_multifrequency_windows_match_full_grid(D, k, n, M):
    # each cutoff evaluated on its window only, against every grid point
    xi = _wrapped_grid(M)
    full = np.zeros(M)
    for j in range(k):
        full += cutoff((1 << n) * ((xi - j / D + 0.5) % 1.0 - 0.5))
    assert np.array_equal(multifrequency_profile(D, k, n, M), full)
