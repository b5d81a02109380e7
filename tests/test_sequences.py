import numpy as np
import pytest

from bruteforce import norm_scan
from dichospec.errors import ParameterError, SingularMatrixError, ValidationError
from dichospec.sequences import MatrixSequence, ScalarSequence

RESIDUAL_TOL = 1e-12


def test_constant_identity_evaluates_everywhere():
    seq = MatrixSequence.constant(np.eye(3))
    assert np.array_equal(seq.evaluate(5), np.eye(3))
    assert np.array_equal(seq.evaluate(-17), np.eye(3))


def test_periodic_indexing_wraps():
    a0 = np.diag([2.0, 0.5])
    a1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    seq = MatrixSequence.periodic([a0, a1])
    assert np.array_equal(seq.evaluate(3), a1)  # 3 mod 2 = 1
    assert np.array_equal(seq.evaluate(-1), a1)
    for n in (-7, -2, 0, 5, 11):
        assert np.array_equal(seq.evaluate(n + 2), seq.evaluate(n))


def test_piecewise_scalar_joins_at_zero():
    u = ScalarSequence.piecewise(negative=[0.5], nonnegative=[2.0])
    assert u.value_at(-1) == 0.5
    assert u.value_at(0) == 2.0
    seq = MatrixSequence.diagonal([u])
    assert seq.evaluate(-1)[0, 0] == 0.5
    assert seq.evaluate(0)[0, 0] == 2.0


def test_validate_constant_diagonal_exact():
    seq = MatrixSequence.diagonal([ScalarSequence.constant(2.0),
                                   ScalarSequence.constant(0.5)])
    report = seq.validate((-10, 10))
    assert report.m_hat == 2.0
    assert report.exact


def test_validate_periodic_scalar():
    seq = MatrixSequence.diagonal([ScalarSequence.periodic([2.0, 0.5])])
    report = seq.validate((0, 3))
    assert report.m_hat == 2.0
    assert report.exact


def test_validate_matches_dense_norm_scan():
    seq = MatrixSequence.seeded(7, bands=((0.5, 0.7), (1.2, 1.5), (2.0, 2.4)))
    report = seq.validate((-40, 40))
    oracle, worst_n = norm_scan(seq, -40, 40)
    assert report.m_hat == pytest.approx(oracle, rel=1e-10)
    assert report.worst_n == worst_n


def test_inverse_examples():
    diag = MatrixSequence.diagonal([ScalarSequence.constant(2.0),
                                    ScalarSequence.constant(0.5)])
    assert np.allclose(diag.inverse_at(3), np.diag([0.5, 2.0]))
    rot = MatrixSequence.constant(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(rot.inverse_at(0), rot.evaluate(0).T)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inverse_residual_seeded(seed):
    seq = MatrixSequence.seeded(seed, bands=((0.4, 0.6), (1.5, 2.0)))
    for n in (-9, 0, 4, 33):
        residual = seq.evaluate(n) @ seq.inverse_at(n) - np.eye(2)
        assert np.abs(residual).max() < RESIDUAL_TOL


def test_seeded_diagonal_band_structure():
    # the noise term can push diagonal entries out of the raw band, but
    # never by more than the noise amplitude
    bands = ((0.3, 0.33), (0.9, 0.99), (2.7, 2.97))
    seq = MatrixSequence.seeded(5, bands=bands)
    for n in (-12, 0, 7):
        a = seq.evaluate(n)
        diag = np.abs(np.diag(a))
        for value, (lo, hi) in zip(diag, bands):
            assert lo - seq.eps <= value <= hi + seq.eps
    # repeated evaluation is bit-identical
    assert np.array_equal(seq.evaluate(123), seq.evaluate(123))


def test_singular_matrix_names_the_index():
    table = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    seq = MatrixSequence.tabulated(table, start=-1)
    with pytest.raises(SingularMatrixError) as err:
        seq.evaluate(0)
    assert "0" in str(err.value)
    with pytest.raises(SingularMatrixError):
        seq.window(-1, 1)


def test_overflowing_inverse_names_the_index():
    # passes the determinant check, but A @ A^-1 overflows to nan
    seq = MatrixSequence.tabulated([[[1e300, 1e300], [0.0, 1e-300]]], start=3)
    with pytest.raises(SingularMatrixError) as err:
        seq.inverse_at(3)
    assert err.value.n == 3


def test_zero_scalar_rejected():
    with pytest.raises(ValidationError) as err:
        ScalarSequence.constant(0.0).require_nonzero(-4, 4)
    assert "u(0)" in str(err.value)
    # a vanishing diagonal entry surfaces as a singular matrix at that index
    diag = MatrixSequence.diagonal([
        ScalarSequence.tabulated([1.0, 0.0, 1.0], start=-1),
        ScalarSequence.constant(2.0),
    ])
    with pytest.raises(SingularMatrixError):
        diag.evaluate(0)


def test_scalar_payload_round_trip():
    for u in (ScalarSequence.constant(3.0),
              ScalarSequence.periodic([2.0, 0.5]),
              ScalarSequence.piecewise(negative=[0.5], nonnegative=[2.0]),
              ScalarSequence.seeded(9, (0.6, 0.8))):
        assert ScalarSequence.from_payload(u.to_payload()) == u


def test_matrix_payload_round_trip():
    systems = [
        MatrixSequence.constant([[0.0, -1.0], [1.0, 0.0]]),
        MatrixSequence.periodic([np.diag([2.0, 0.5]), np.eye(2)]),
        MatrixSequence.piecewise(MatrixSequence.constant(np.diag([0.5, 0.5])),
                                 MatrixSequence.constant(np.diag([2.0, 2.0]))),
        MatrixSequence.diagonal([ScalarSequence.periodic([2.0, 0.5])]),
        MatrixSequence.upper_triangular(
            [ScalarSequence.constant(2.0), ScalarSequence.constant(0.5)],
            {(0, 1): ScalarSequence.constant(1.0)}),
        MatrixSequence.seeded(11, bands=((0.4, 0.5), (1.6, 2.0))),
    ]
    for seq in systems:
        again = MatrixSequence.from_payload(seq.to_payload())
        assert again == seq
        assert again.to_payload() == seq.to_payload()


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        MatrixSequence.from_payload({"kind": "wormhole"})


def test_window_agrees_with_evaluate():
    seq = MatrixSequence.seeded(21, bands=((0.5, 0.8), (1.3, 1.9)))
    stack = seq.window(-5, 4)
    for k, n in enumerate(range(-5, 5)):
        assert np.array_equal(stack[k], seq.evaluate(n))


def test_mhat_bounds_every_norm():
    seq = MatrixSequence.seeded(33, bands=((0.4, 0.7), (1.1, 1.6), (2.2, 2.6)))
    report = seq.validate((-30, 30))
    for n in range(-30, 31):
        a = seq.evaluate(n)
        assert np.linalg.norm(a, 2) <= report.m_hat + 1e-12
        assert np.linalg.norm(np.linalg.inv(a), 2) <= report.m_hat + 1e-12
