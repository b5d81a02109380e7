import io

import numpy as np
import pytest

from bruteforce import floquet_moduli
from dichospec.dichotomy import (
    DichotomyAnalyzer,
    DichotomyParams,
    SpectralInterval,
    estimate_spectrum,
    fit_decay_constants,
    periodic_spectrum_oracle,
    scalar_spectrum,
    test_dichotomy as dichotomy_verdict,
)
from dichospec.errors import DecayFitError, ParameterError, ValidationError
from dichospec.linalg import frame_sweep
from dichospec.sequences import MatrixSequence, ScalarSequence
from systems import random_periodic

# pytest would otherwise try to collect the library function
dichotomy_verdict.__test__ = False

REFINE_TOL = 1e-3


def diag_2_half():
    return MatrixSequence.constant(np.diag([2.0, 0.5]))


def quarter_turn():
    return MatrixSequence.constant([[0.0, -1.0], [1.0, 0.0]])


def piecewise_scalar():
    return MatrixSequence.piecewise(MatrixSequence.constant([[0.5]]),
                                    MatrixSequence.constant([[2.0]]))


def symmetric_containment(points, intervals, tol):
    """Every point inside an inflated interval, every interval near a point."""
    for q in points:
        if not any(iv.a - tol <= q <= iv.b + tol for iv in intervals):
            return False
    for iv in intervals:
        if not any(abs(iv.a - q) <= tol for q in points):
            return False
        if not any(abs(iv.b - q) <= tol for q in points):
            return False
    return True


# -- decay fits --------------------------------------------------------------


def test_fit_pure_geometric_decay():
    samples = {(k, 0): k * np.log(0.5) for k in range(0, 40, 4)}
    fit = fit_decay_constants(samples)
    assert fit.K == pytest.approx(1.0, abs=1e-12)
    assert fit.rho == pytest.approx(0.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert not fit.failed


def test_fit_recovers_scale_and_rate():
    samples = [(g, np.log(3.0) + g * np.log(0.8)) for g in range(2, 50, 3)]
    fit = fit_decay_constants(samples)
    assert fit.K == pytest.approx(3.0, rel=1e-10)
    assert fit.rho == pytest.approx(0.8, rel=1e-10)


def test_fit_flags_growth_instead_of_raising():
    samples = [(g, 0.1 * g) for g in range(0, 30, 2)]
    fit = fit_decay_constants(samples)
    assert fit.failed
    assert fit.rho > 1.0


def test_fit_with_noise_brackets_the_rate():
    rng = np.random.default_rng(2)
    gaps = np.arange(8, 72, 4)
    values = gaps * np.log(0.5) + rng.uniform(-0.05, 0.05, size=len(gaps))
    fit = fit_decay_constants(list(zip(gaps, values)))
    assert 0.49 <= fit.rho <= 0.51
    assert fit.residual <= 0.12
    # intercept is raised until the line dominates every sample
    assert all(v <= np.log(fit.K) + g * np.log(fit.rho) + 1e-12
               for g, v in zip(gaps, values))


def test_fit_input_validation():
    with pytest.raises(DecayFitError):
        fit_decay_constants([(g, -float(g)) for g in range(5)])
    with pytest.raises(DecayFitError):
        fit_decay_constants([(3, -1.0)] * 10)
    with pytest.raises(ParameterError):
        fit_decay_constants([((0, 5), -1.0)] + [(g, -float(g)) for g in range(10)])


# -- single-gamma verdicts ---------------------------------------------------


def test_autonomous_diagonal_verdicts():
    seq = diag_2_half()
    v = dichotomy_verdict(seq, 1.0)
    assert v.is_certificate
    assert v.rank == 1
    assert v.rho == pytest.approx(0.5, abs=0.02)
    assert v.K <= 1.5
    assert v.residual <= 0.75
    # stable direction is the second axis, unstable the first
    assert abs(v.stable_basis[:, 0] @ np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-8)
    assert abs(v.unstable_basis[:, 0] @ np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-8)

    assert dichotomy_verdict(seq, 2.0).outcome == "in_spectrum"
    assert dichotomy_verdict(seq, 0.5).outcome == "in_spectrum"
    assert dichotomy_verdict(seq, 3.0).rank == 2
    assert dichotomy_verdict(seq, 0.3).rank == 0


def test_rotation_verdicts():
    seq = quarter_turn()
    assert dichotomy_verdict(seq, 1.0).outcome == "in_spectrum"
    assert dichotomy_verdict(seq, 0.9).rank == 0
    assert dichotomy_verdict(seq, 1.1).rank == 2


def test_piecewise_verdicts():
    seq = piecewise_scalar()
    assert dichotomy_verdict(seq, 0.4).rank == 0
    assert dichotomy_verdict(seq, 1.0).outcome == "in_spectrum"
    assert dichotomy_verdict(seq, 2.5).rank == 1


def test_gamma_validation():
    with pytest.raises(ParameterError):
        dichotomy_verdict(diag_2_half(), 0.0)
    with pytest.raises(ParameterError):
        dichotomy_verdict(diag_2_half(), -1.5)


# -- full spectrum estimation -------------------------------------------------


def test_autonomous_diagonal_spectrum():
    est = estimate_spectrum(diag_2_half(), refine_tol=REFINE_TOL)
    assert len(est.intervals) == 2
    assert est.gap_ranks == (0, 1, 2)
    for iv, point in zip(est.intervals, (0.5, 2.0)):
        assert iv.width <= 2 * REFINE_TOL
        assert iv.a - REFINE_TOL <= point <= iv.b + REFINE_TOL
    assert est.dimension == 2
    assert not est.degenerate
    assert len(est.gap_certificates) == 3


def test_rotation_spectrum_is_a_point():
    est = estimate_spectrum(quarter_turn(), refine_tol=REFINE_TOL)
    assert len(est.intervals) == 1
    assert est.gap_ranks == (0, 2)
    iv = est.intervals[0]
    assert iv.a == pytest.approx(1.0, abs=2 * REFINE_TOL)
    assert iv.b == pytest.approx(1.0, abs=2 * REFINE_TOL)


def test_piecewise_spectrum_spans_both_rates():
    est = estimate_spectrum(piecewise_scalar(), refine_tol=REFINE_TOL)
    assert len(est.intervals) == 1
    iv = est.intervals[0]
    assert iv.a == pytest.approx(0.5, abs=5e-3)
    assert iv.b == pytest.approx(2.0, abs=5e-3)
    assert est.gap_ranks == (0, 1)


def test_periodic_scalar_spectrum_contains_one():
    seq = MatrixSequence.diagonal([ScalarSequence.periodic([2.0, 0.5])])
    est = estimate_spectrum(seq, refine_tol=REFINE_TOL)
    assert len(est.intervals) == 1
    assert est.covering_interval(1.0, tol=2 * REFINE_TOL) is not None


def test_floquet_oracle_against_dense_eigenvalues():
    cases = [
        (MatrixSequence.periodic([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])]), 2),
        (random_periodic(17, d=2, p=3), 3),
        (random_periodic(23, d=3, p=2), 2),
        (random_periodic(31, d=3, p=4), 4),
        (diag_2_half(), 1),
    ]
    for seq, p in cases:
        got = periodic_spectrum_oracle(seq)
        want = floquet_moduli(seq, p)
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=1e-10)


def test_periodic_estimates_contain_floquet_points():
    for seed in (40, 41, 42, 43):
        seq = random_periodic(seed, d=2, p=2, spread=0.6)
        est = estimate_spectrum(seq, refine_tol=REFINE_TOL)
        points = periodic_spectrum_oracle(seq)
        assert symmetric_containment(points, est.intervals, 5e-3)


def test_resolvent_is_open():
    # gamma in the middle of a gap stays a certificate under small scaling,
    # with the same rank
    seq = diag_2_half()
    for gamma, rank in ((1.0, 1), (3.0, 2), (0.3, 0)):
        base = dichotomy_verdict(seq, gamma)
        assert base.rank == rank
        for factor in (1.0 - REFINE_TOL / 2, 1.0 + REFINE_TOL / 2):
            v = dichotomy_verdict(seq, gamma * factor)
            assert v.is_certificate
            assert v.rank == rank


def test_gap_ranks_increase_with_gamma():
    seq = diag_2_half()
    ranks = [dichotomy_verdict(seq, g).rank for g in (0.3, 1.0, 3.0)]
    assert ranks == sorted(ranks)


def test_analyzer_reuse_matches_fresh_run():
    seq = diag_2_half()
    analyzer = DichotomyAnalyzer(seq)
    est_fresh = estimate_spectrum(seq, refine_tol=REFINE_TOL)
    est_reused = estimate_spectrum(seq, refine_tol=REFINE_TOL, analyzer=analyzer)
    assert [(iv.a, iv.b) for iv in est_fresh.intervals] == \
        [(iv.a, iv.b) for iv in est_reused.intervals]
    assert est_fresh.gap_ranks == est_reused.gap_ranks
    # the analyzer answers further queries consistently
    assert analyzer.verdict(1.0).rank == 1


def test_direction_rates_equal_two_separate_sweeps():
    # the two rate sweeps run lock-stepped; each is still its own sweep
    seq = MatrixSequence.seeded(3, bands=((0.5, 0.7), (1.2, 1.8)))
    analyzer = DichotomyAnalyzer(seq)
    ext = analyzer.params.extent
    factors = seq.window(-ext, ext - 1)
    for r, want in ((frame_sweep(factors[ext:], np.eye(2))[1], analyzer._forward_rates),
                    (frame_sweep(np.linalg.inv(factors)[ext - 1::-1], np.eye(2))[1],
                     analyzer._backward_rates)):
        rates = np.log(np.diagonal(r[ext // 2:], axis1=1, axis2=2)).mean(axis=0)
        assert np.array_equal(rates, want)


def test_low_confidence_gap_certificates_flag_their_intervals():
    # the Jordan block's middle gap certificate sits in the boundary band
    est = estimate_spectrum(MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]))
    flags = [v.low_confidence for v in est.gap_certificates]
    assert flags == [False, True, False]
    for i, iv in enumerate(est.intervals):
        assert iv.low_confidence == any(flags[i: i + 2])
    # clean gaps leave the intervals unflagged
    est = estimate_spectrum(diag_2_half())
    assert not any(v.low_confidence for v in est.gap_certificates)
    assert not any(iv.low_confidence for iv in est.intervals)


# Known certificate defects: each test states the correct answer and fails
# today; strict xfail turns a fix into a loud XPASS.


@pytest.mark.xfail(strict=True, reason="the gap between these bands is lost at window 896")
@pytest.mark.parametrize("seed", [3, 5])
def test_seeded_bands_keep_their_gap_at_window_896(seed):
    seq = MatrixSequence.seeded(seed, ((0.3, 0.375), (0.6, 0.75)))
    est = estimate_spectrum(seq, params=DichotomyParams(window=896))
    assert est.gap_ranks == (0, 1, 2)


@pytest.mark.xfail(strict=True, reason="polynomial growth passes the decay fit (rho 0.99782)")
def test_jordan_block_has_no_certificate_at_its_eigenvalue():
    # the spectrum of [[1, 1], [0, 1]] is {1}, so gamma = 1 is in it
    assert not dichotomy_verdict(MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]),
                                 1.0).is_certificate


def test_scalar_spectrum_piecewise():
    iv = scalar_spectrum(ScalarSequence.piecewise(negative=[0.5], nonnegative=[2.0]))
    assert iv.a == pytest.approx(0.5, abs=5e-3)
    assert iv.b == pytest.approx(2.0, abs=5e-3)


def test_spectral_interval_validation():
    with pytest.raises(ValidationError):
        SpectralInterval(2.0, 1.0)
    with pytest.raises(ValidationError):
        SpectralInterval(-1.0, 1.0)
    iv = SpectralInterval(0.5, 2.0)
    assert iv.contains(0.5) and iv.contains(2.0)
    assert not iv.contains(2.001)
    assert iv.contains(2.001, tol=0.01)


def test_estimate_stays_inside_norm_bounds():
    seq = MatrixSequence.seeded(77, bands=((0.6, 0.8), (1.3, 1.6)))
    est = estimate_spectrum(seq, refine_tol=REFINE_TOL)
    report = seq.validate((-384, 384))
    for iv in est.intervals:
        assert iv.a >= 1.0 / report.m_hat - 1e-9
        assert iv.b <= report.m_hat + 1e-9


def test_verdict_csv_header():
    est = estimate_spectrum(piecewise_scalar(), refine_tol=REFINE_TOL)
    buf = io.StringIO()
    est.verdicts_to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "gamma,outcome,rank,rho,K"
    assert len(lines) == len(est.grid) + 1
    gammas = [float(line.split(",")[0]) for line in lines[1:]]
    assert gammas == sorted(gammas)
