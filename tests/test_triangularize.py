import numpy as np
import pytest

from dichospec.bohl import BohlParams, bohl_exponents
from dichospec.dichotomy import estimate_spectrum
from dichospec.errors import ParameterError, SingularMatrixError, ValidationError
from dichospec.linalg import frame_sweep
from dichospec.sequences import MatrixSequence, ScalarSequence
from dichospec.triangularize import diagonal_significance, qr_triangularize
from bruteforce import qr_walk
from systems import random_periodic


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return MatrixSequence.constant([[c, -s], [s, c]])


def test_positive_triangular_input_is_a_fixed_point():
    seq = MatrixSequence.constant(np.array([[2.0, 1.0], [0.0, 0.5]]))
    pair = qr_triangularize(seq, window=(-20, 20))
    for n in (-20, -3, 0, 7, 20):
        assert np.allclose(pair.frame(n), np.eye(2), atol=1e-12)
    for n in (-5, 0, 5):
        assert np.allclose(pair.upper.evaluate(n), seq.evaluate(n), atol=1e-12)


def test_rotation_moves_into_the_frames():
    theta = 0.7
    seq = rotation(theta)
    pair = qr_triangularize(seq, window=(-16, 16))
    # the triangular factor is trivial; the frames carry the turning
    for n in (-8, 0, 9):
        assert np.allclose(pair.upper.evaluate(n), np.eye(2), atol=1e-12)
    assert np.allclose(pair.frame(1), seq.evaluate(0), atol=1e-12)
    want = np.linalg.matrix_power(seq.evaluate(0), 5)
    assert np.allclose(pair.frame(5), want, atol=1e-12)


def test_default_window_covers_spectrum_estimation():
    pair = qr_triangularize(MatrixSequence.constant(np.diag([2.0, 0.5])))
    # factors on [-385, 384]; the frames extend one step further
    assert pair.window == (-385, 384)
    pair.frame(385)
    with pytest.raises(ParameterError):
        pair.frame(386)


def test_sweep_identity_and_orthogonality_on_seeded_systems():
    for seed in (1, 2, 3):
        seq = MatrixSequence.seeded(seed, bands=((0.5, 0.7), (1.2, 1.8)))
        pair = qr_triangularize(seq, window=(-64, 64))
        assert pair.residual_max(seq) <= 1e-10
        assert pair.orthogonality_max() <= 1e-12
        # U is genuinely upper triangular with positive diagonal
        for n in (-30, 0, 30):
            u = pair.upper.evaluate(n)
            assert abs(u[1, 0]) <= 1e-14
            assert u[0, 0] > 0 and u[1, 1] > 0


@pytest.mark.parametrize("build", [
    lambda: MatrixSequence.seeded(1, bands=((0.5, 0.7), (1.2, 1.8))),
    lambda: random_periodic(4, 3, 5),
    lambda: MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]),
    lambda: MatrixSequence.constant([[2.0, 1e4], [0.0, 0.5]]),
], ids=["seeded", "periodic", "jordan", "nonnormal"])
def test_sweep_matches_the_reference_walk(build):
    seq = build()
    pair = qr_triangularize(seq)
    lo, last = pair.window
    frames, factors = qr_walk(seq, lo, last + 1)
    assert np.max(np.abs(pair.frames - frames)) <= 1e-12
    scale = max(1.0, float(np.max(np.abs(factors))))
    assert np.max(np.abs(pair.upper.table - factors)) <= 1e-12 * scale


@pytest.mark.parametrize("window", [(-40, 5), (-5, 40), (-1, 1), (-30, 30)])
def test_lock_stepped_halves_equal_two_separate_sweeps(window):
    # both halves run in one batched sweep, the shorter padded with
    # identity maps; each must still be its own sweep bit for bit
    seq = random_periodic(4, 3, 5)
    lo, hi = window
    pair = qr_triangularize(seq, window=window)
    factors = seq.window(lo, hi - 1)
    forward, r_forward = frame_sweep(factors[-lo:], np.eye(3))
    backward, r_backward = frame_sweep(np.linalg.inv(factors[:-lo])[::-1], np.eye(3))
    assert np.array_equal(pair.frames, np.concatenate([backward[:0:-1], forward]))
    assert np.array_equal(pair.upper.table,
                          np.concatenate([np.linalg.inv(r_backward[::-1]), r_forward]))


# the second factor passes the determinant check and fails only the
# inverse residual check; the third passes it too, and A @ A^-1 overflows
@pytest.mark.parametrize("bad", [
    [[1.0, 1.0], [1.0, 1.0]],
    [[1e10, 1e10], [1e-10, 1.000001e-10]],
    [[1e300, 1e300], [0.0, 1e-300]],
], ids=["singular", "inverse-residual", "overflow"])
def test_backward_half_validates_its_factors(bad):
    table = np.stack([np.eye(2)] * 20)
    table[5] = bad  # n = -5
    seq = MatrixSequence.tabulated(table, start=-10)
    with pytest.raises(SingularMatrixError) as err:
        qr_triangularize(seq, window=(-10, 10))
    assert err.value.n == -5


@pytest.mark.parametrize("window", [(-10.5, 10), (-10, 10.9), (-3, True), (-3, "4")], ids=repr)
def test_window_refuses_non_integer_bounds(window):
    # int() once ran the first two as (-10, 10) and the third as (-3, 1)
    with pytest.raises(ParameterError, match="integer bounds"):
        qr_triangularize(rotation(0.3), window=window)


def test_window_accepts_integral_floats_and_numpy_integers():
    seq = rotation(0.3)
    want = qr_triangularize(seq, window=(-10, 10))
    got = qr_triangularize(seq, window=(-10.0, np.int64(10)))
    assert got.start == -10 and np.array_equal(got.frames, want.frames)


def test_spectrum_is_invariant_under_the_sweep():
    seq = random_periodic(51, d=2, p=2, spread=0.7)
    pair = qr_triangularize(seq)
    est_a = estimate_spectrum(seq)
    est_u = estimate_spectrum(pair.upper)
    assert len(est_a.intervals) == len(est_u.intervals)
    for iva, ivu in zip(est_a.intervals, est_u.intervals):
        assert iva.a == pytest.approx(ivu.a, abs=5e-3)
        assert iva.b == pytest.approx(ivu.b, abs=5e-3)


def test_solution_rates_survive_the_sweep():
    # frames are orthogonal and F(0) = I, so each solution keeps its norms
    seq = MatrixSequence.seeded(6, bands=((0.6, 0.8), (1.3, 1.7)))
    pair = qr_triangularize(seq, window=(-96, 96))
    params = BohlParams(window=96, two_sided=True)
    for xi in ([1.0, 0.0], [0.3, -1.0]):
        original = bohl_exponents(seq, xi, params)
        swept = bohl_exponents(pair.upper, xi, params)
        assert swept.lower == pytest.approx(original.lower, rel=1e-10)
        assert swept.upper == pytest.approx(original.upper, rel=1e-10)


def test_diagonal_sequences_expose_the_growth_rates():
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    pair = qr_triangularize(seq, window=(-32, 32))
    diags = pair.diagonal_sequences()
    assert len(diags) == 2
    assert diags[0].value_at(-5) == pytest.approx(2.0, abs=1e-12)
    assert diags[1].value_at(7) == pytest.approx(0.5, abs=1e-12)
    csv = pair.diagonal_to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "n,u11,u22"
    assert len(lines) == 64 + 1  # one factor per step of [-32, 31]


def test_significance_of_diagonal_and_constant_triangular():
    diag = MatrixSequence.diagonal([ScalarSequence.constant(2.0),
                                    ScalarSequence.constant(0.5)])
    report = diagonal_significance(diag)
    assert report.significant
    assert len(report.union) == 2

    tri = MatrixSequence.upper_triangular(
        diagonal=[ScalarSequence.constant(2.0), ScalarSequence.constant(0.5)],
        offdiagonal={(0, 1): ScalarSequence.constant(1.0)})
    report = diagonal_significance(tri)
    assert report.significant
    assert report.symmetric_difference <= 5e-3
    assert any("coordinate" in line for line in report.rows())


def test_significance_report_on_coupled_piecewise_diagonal():
    # whole-line triangular systems may or may not be diagonally
    # significant; the report must be well formed either way
    tri = MatrixSequence.upper_triangular(
        diagonal=[ScalarSequence.piecewise(negative=[2.0], nonnegative=[0.5]),
                  ScalarSequence.piecewise(negative=[0.5], nonnegative=[2.0])],
        offdiagonal={(0, 1): ScalarSequence.constant(1.0)})
    report = diagonal_significance(tri)
    assert isinstance(report.significant, bool)
    assert len(report.coordinate_intervals) == 2
    assert report.union
    assert report.symmetric_difference >= 0.0
    for iv in report.coordinate_intervals:
        assert iv.a == pytest.approx(0.5, abs=5e-3)
        assert iv.b == pytest.approx(2.0, abs=5e-3)


def test_significance_through_a_fresh_sweep():
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    pair = qr_triangularize(seq)
    report = diagonal_significance(pair)
    assert report.significant


def test_full_matrix_kind_must_be_swept_first():
    with pytest.raises(ParameterError, match="qr_triangularize"):
        diagonal_significance(rotation(0.3))


def test_significance_refuses_a_spectrum_of_another_system():
    # such a spectrum was once reported as not significant
    est = estimate_spectrum(MatrixSequence.constant(np.diag([0.5, 1.0, 2.0])))
    diag = MatrixSequence.diagonal([ScalarSequence.constant(0.5), ScalarSequence.constant(2.0)])
    with pytest.raises(ParameterError, match="3-dimensional system, not this 2-dimensional"):
        diagonal_significance(diag, spectrum=est)


def test_residual_refuses_a_sequence_of_another_dimension():
    # a bare numpy ValueError before
    pair = qr_triangularize(rotation(0.4), window=(-12, 12))
    with pytest.raises(ParameterError, match="2-dimensional system, not this 3-dimensional"):
        pair.residual_max(MatrixSequence.constant(np.diag([0.5, 1.0, 2.0])))


def test_vanishing_diagonal_entry_is_named():
    table = [1.0] * 1024
    table[600] = 0.0  # n = 88 for start = -512
    tri = MatrixSequence.upper_triangular(
        diagonal=[ScalarSequence.constant(2.0),
                  ScalarSequence.tabulated(table, start=-512)],
        offdiagonal={})
    with pytest.raises(ValidationError, match="coordinate 2") as err:
        diagonal_significance(tri)
    assert "u22(88)" in str(err.value)


def test_triangular_factors_are_aperiodic_views():
    pair = qr_triangularize(rotation(0.4), window=(-12, 12))
    assert pair.upper.period is None
    with pytest.raises(ParameterError):
        qr_triangularize(rotation(0.4), window=(5, 20))
