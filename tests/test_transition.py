import importlib

import numpy as np
import pytest

from bruteforce import dense_transition, max_log_norm_of_every_offset, orbit_lognorm_table
from dichospec.bohl import BohlParams, general_exponents
from dichospec.errors import ParameterError, SingularMatrixError, WindowCapError
from dichospec.sequences import MatrixSequence, ScalarSequence
from dichospec.transition import (
    ScaledMatrix,
    WindowProducts,
    orbit_lognorms,
    transition,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return MatrixSequence.constant([[c, -s], [s, c]])


def seeded_example():
    return MatrixSequence.seeded(42, bands=((0.4, 0.6), (1.5, 2.0)))


def test_equal_times_give_identity():
    for seq in (rotation(0.7), seeded_example()):
        for n in (-9, 0, 4):
            x = transition(seq, n, n)
            assert np.array_equal(x.to_matrix(), np.eye(seq.dimension))
            assert x.log_scale == 0.0


def test_autonomous_diagonal_powers():
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    assert np.allclose(transition(seq, 3, 0).to_matrix(), np.diag([8.0, 0.125]), rtol=1e-12)
    assert np.allclose(transition(seq, 0, 3).to_matrix(), np.diag([0.125, 8.0]), rtol=1e-12)
    assert np.allclose(transition(seq, -2, 0).to_matrix(), np.diag([0.25, 4.0]), rtol=1e-12)


def test_quarter_turn_has_period_four():
    seq = rotation(np.pi / 2)
    assert np.allclose(transition(seq, 4, 0).to_matrix(), np.eye(2), atol=1e-12)
    assert np.allclose(transition(seq, -4, 0).to_matrix(), np.eye(2), atol=1e-12)
    assert np.allclose(transition(seq, 2, 0).to_matrix(), -np.eye(2), atol=1e-12)


def test_matches_dense_products():
    systems = [
        MatrixSequence.periodic([np.diag([2.0, 0.5]),
                                 np.array([[0.0, 1.0], [-1.0, 0.0]])]),
        MatrixSequence.piecewise(MatrixSequence.constant([[0.5]]),
                                 MatrixSequence.constant([[2.0]])),
        seeded_example(),
    ]
    for seq in systems:
        for m in (-40, -13, -1, 0, 2, 17, 40):
            got = transition(seq, m, 0).to_matrix()
            want = dense_transition(seq, m, 0)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-13 * np.abs(want).max())
        # a base time away from zero
        got = transition(seq, 7, -5).to_matrix()
        want = dense_transition(seq, 7, -5)
        assert np.allclose(got, want, rtol=1e-10)


def test_cocycle_composition():
    seq = seeded_example()
    # l inside [j, k] keeps the two routes cancellation-free; the short
    # overhang in the third triple stays well conditioned
    triples = [(30, 10, -20), (-15, 5, 25), (0, -8, 12), (18, 18, -6)]
    for k, l, j in triples:
        composed = transition(seq, k, l).compose(transition(seq, l, j))
        direct = transition(seq, k, j)
        assert composed.relative_distance(direct) <= 1e-9


def test_inversion_round_trip():
    # orthogonal factors: perfectly conditioned, long spans are exact
    rot = rotation(0.9)
    prod = transition(rot, 40, -40).compose(transition(rot, -40, 40))
    assert prod.relative_distance(ScaledMatrix.identity(2)) <= 1e-12
    # expanding/contracting factors: keep the span short enough that the
    # condition number of the window product does not eat the tolerance
    seq = seeded_example()
    for m, n in ((8, 0), (-3, 5)):
        prod = transition(seq, m, n).compose(transition(seq, n, m))
        assert prod.relative_distance(ScaledMatrix.identity(2)) <= 1e-8


def test_scaled_matrix_stays_normalized():
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    x = transition(seq, 200, 0)
    core_norm = np.linalg.norm(x.core, 2)
    assert 0.5 <= core_norm <= 2.0
    assert x.log_norm() == pytest.approx(200 * np.log(2.0), rel=1e-12)


def test_orbit_lognorms_match_stepwise_enumeration():
    seq = seeded_example()
    xi = np.array([0.3, -1.1])
    log = orbit_lognorms(seq, xi, (-40, 60))
    table = orbit_lognorm_table(seq, xi, -40, 60)
    assert log.start == -40
    assert np.allclose(log.lognorms, table, atol=1e-10)
    # spot-check one backward value against a scaled transition product
    x = transition(seq, -25, 0)
    want = x.log_scale + np.log(np.linalg.norm(x.core @ (xi / np.linalg.norm(xi))))
    want += np.log(np.linalg.norm(xi))
    assert log.lognorm_at(-25) == pytest.approx(want, abs=1e-9)


def test_window_products_match_dense_enumeration():
    rng = np.random.default_rng(7)
    m, k = 24, 2
    factors = rng.normal(size=(m, k, k)) + 0.2 * np.eye(k)
    wp = WindowProducts(factors)
    for g in (1, 2, 3, 5, 8, 13, 24):
        cores, logs = wp.products(g)
        assert cores.shape[0] == m - g + 1
        for l in range(m - g + 1):
            dense = np.eye(k)
            for j in range(l, l + g):
                dense = factors[j] @ dense
            got = cores[l] * np.exp(logs[l])
            assert np.allclose(got, dense, rtol=1e-10, atol=1e-12)
        best, pos = wp.max_log_norm(g)
        dense_vals = []
        for l in range(m - g + 1):
            dense = np.eye(k)
            for j in range(l, l + g):
                dense = factors[j] @ dense
            dense_vals.append(np.log(np.linalg.norm(dense, 2)))
        assert best == pytest.approx(max(dense_vals), abs=1e-10)
        assert pos == int(np.argmax(dense_vals))


def test_window_cap_enforced():
    seq = MatrixSequence.constant(np.eye(2))
    with pytest.raises(WindowCapError):
        transition(seq, 11, 0, window_cap=10)
    with pytest.raises(WindowCapError):
        orbit_lognorms(seq, [1.0, 0.0], (0, 11), window_cap=10)


def test_orbit_rejects_bad_input():
    seq = MatrixSequence.constant(np.eye(2))
    with pytest.raises(ParameterError):
        orbit_lognorms(seq, [1.0, 0.0], (5, 10))  # span misses 0
    with pytest.raises(ParameterError):
        orbit_lognorms(seq, [0.0, 0.0], (-5, 5))
    with pytest.raises(ParameterError):
        orbit_lognorms(seq, [1.0, 0.0, 0.0], (-5, 5))


def test_diagonal_scalar_systems_agree_with_matrix_route():
    u = ScalarSequence.periodic([2.0, 0.5])
    seq = MatrixSequence.diagonal([u])
    x = transition(seq, 8, 0).to_matrix()
    assert x[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_overflowing_inverses_raise_naming_the_index():
    # passes the determinant check, but its inverse overflows
    bad = [[1e300, 1e300], [0.0, 1e-300]]
    seq = MatrixSequence.tabulated([np.eye(2), bad, np.eye(2), bad], start=-2)
    with pytest.raises(SingularMatrixError) as err:
        transition(seq, 0, 2)
    assert err.value.n == 1
    with pytest.raises(SingularMatrixError) as err:
        orbit_lognorms(seq, [1.0, 0.0], (-2, 0))
    assert err.value.n == -1
    with pytest.raises(SingularMatrixError) as err:
        general_exponents(seq, BohlParams(window=2, gap_min=1, two_sided=True))
    assert err.value.n == -1


def _nonnormal_stack(rng, m, k, coupling):
    diag = np.exp(rng.uniform(-0.5, 0.5, size=(m, k)))
    upper = np.triu(coupling * rng.uniform(-1.0, 1.0, size=(m, k, k)), 1)
    return upper + diag[:, :, None] * np.eye(k)


MAX_LOG_NORM_STACKS = {
    "constant": lambda rng: np.stack([[[2.0, 1.0], [0.0, 0.5]]] * 40),
    "k1": lambda rng: np.exp(rng.uniform(-1.0, 1.0, size=(60, 1, 1))),
    "nonnormal-2x2": lambda rng: _nonnormal_stack(rng, 80, 2, 1e4),
    "nonnormal-6x6": lambda rng: _nonnormal_stack(rng, 80, 6, 1e3),
    "log-scale-1e4": lambda rng: np.exp(50.0) * (rng.normal(size=(300, 3, 3)) + 2.0 * np.eye(3)),
    # spectral and Frobenius norms agree to rounding, so the bound can
    # round below the exact value it bounds
    "near-rank-one": lambda rng: (np.einsum("li,lj->lij", rng.normal(size=(80, 3)),
                                            rng.normal(size=(80, 3)))
                                  + 1e-9 * rng.normal(size=(80, 3, 3))),
}


@pytest.mark.parametrize("case", sorted(MAX_LOG_NORM_STACKS))
def test_max_log_norm_equals_an_svd_of_every_offset(case):
    factors = MAX_LOG_NORM_STACKS[case](np.random.default_rng(5))
    wp = WindowProducts(factors)
    gaps = sorted({1, 2, 3, 5, 8, 13, 31, 32, 33, len(factors) // 2, len(factors)})
    for g in gaps:
        got = wp.max_log_norm(g)
        assert got == max_log_norm_of_every_offset(wp, g), g
        if case == "constant":
            assert got[1] == 0
    if case == "log-scale-1e4":
        assert wp.max_log_norm(200)[0] > 1e4


def test_max_log_norm_takes_svds_only_near_its_bound(monkeypatch):
    items = []
    module = importlib.import_module("dichospec.transition")
    real = module.batched_spectral_norm

    def spy(stack):
        items.append(len(stack))
        return real(stack)

    monkeypatch.setattr(module, "batched_spectral_norm", spy)
    rng = np.random.default_rng(11)
    wp = WindowProducts(rng.normal(size=(400, 3, 3)) + 0.5 * np.eye(3))
    for g in (1, 7, 64):
        items.clear()
        wp.max_log_norm(g)
        assert items[0] == 1 and sum(items) < (400 - g + 1) // 2, (g, items)


def test_frobenius_norms_neither_overflow_nor_vanish(recwarn):
    seq = MatrixSequence.constant(np.diag([1e200, 1e-200]))
    est = general_exponents(seq, BohlParams(window=4, gap_min=1))
    assert est.senior == pytest.approx(1e200, rel=1e-12)
    assert est.junior == pytest.approx(1e-200, rel=1e-12)
    assert transition(seq, 3, 0).log_norm() == pytest.approx(3 * np.log(1e200), rel=1e-14)
    assert transition(seq, 0, 3).log_norm() == pytest.approx(3 * np.log(1e200), rel=1e-14)
    tiny = ScaledMatrix.from_matrix(np.diag([1e-170, 1e-171]))
    assert tiny.log_norm() == pytest.approx(np.log(1e-170), rel=1e-14)
    assert len(recwarn) == 0
