import importlib
import math
import warnings

import numpy as np
import pytest

from bruteforce import (dense_transition, max_log_norm_of_every_offset, orbit_lognorm_table,
                        orbit_chunk_walk, orbit_walk, orbit_walk_decimal)
from dichospec import linalg
from dichospec.bohl import BohlParams, general_exponents
from dichospec.errors import ParameterError, SingularMatrixError, WindowCapError
from dichospec.sequences import MatrixSequence, ScalarSequence
from systems import SEEDED_BANDS, separated_banded_diagonal
from dichospec.transition import (
    WINDOW_CAP,
    ScaledMatrix,
    WindowProducts,
    _chunk_length,
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


@pytest.mark.parametrize("d", [1, 2, 6])
@pytest.mark.parametrize("span", [(0, 300), (-300, 0), (-200, 250)],
                         ids=["forward", "backward", "both"])
@pytest.mark.parametrize("shape", ["vector", "block"])
def test_orbit_lognorms_equal_the_allocating_walk_bit_for_bit(d, span, shape):
    # the sweep builds every chunk's prefixes in lock-step and writes into
    # shared buffers; the arithmetic is that of a walk that goes one chunk
    # and one step at a time, allocating every product and norm
    bands = {1: ((0.8, 1.3),), **SEEDED_BANDS}[d]
    seq = MatrixSequence.seeded(d, bands=bands)
    rng = np.random.default_rng(d)
    xi = rng.standard_normal(d) if shape == "vector" else rng.standard_normal((d, 5))
    got = orbit_lognorms(seq, xi, span).lognorms
    want = orbit_chunk_walk(seq, xi, span)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 6])
@pytest.mark.parametrize("span", [(0, 300), (-300, 0), (-200, 250)],
                         ids=["forward", "backward", "both"])
@pytest.mark.parametrize("shape", ["vector", "block"])
def test_orbit_lognorms_agree_with_the_per_step_walk(d, span, shape):
    # the sweep carries the block through chunks of prefix products, so it
    # rounds differently from a walk that renormalizes after every step
    bands = {1: ((0.8, 1.3),), **SEEDED_BANDS}[d]
    seq = MatrixSequence.seeded(d, bands=bands)
    rng = np.random.default_rng(d)
    xi = rng.standard_normal(d) if shape == "vector" else rng.standard_normal((d, 5))
    got = orbit_lognorms(seq, xi, span).lognorms
    want = orbit_walk(seq, xi, span)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


DECIMAL_SYSTEMS = {
    "seeded-d1": lambda: MatrixSequence.seeded(1, bands=((0.8, 1.3),)),
    "seeded-d2": lambda: MatrixSequence.seeded(2, bands=SEEDED_BANDS[2]),
    "seeded-d6": lambda: MatrixSequence.seeded(6, bands=SEEDED_BANDS[6]),
    "nonnormal": lambda: MatrixSequence.constant([[2.0, 1e4], [0.0, 0.5]]),
    "jordan": lambda: MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]),
    "diagonal": lambda: separated_banded_diagonal(3),
}


@pytest.mark.parametrize("name", list(DECIMAL_SYSTEMS))
def test_orbit_lognorms_match_a_decimal_walk(name):
    seq = DECIMAL_SYSTEMS[name]()
    xi = np.random.default_rng(5).standard_normal(seq.dimension)
    span = (-400, 400)
    got = orbit_lognorms(seq, xi, span).lognorms
    want = orbit_walk_decimal(seq, xi, span)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("a", [1e10, 1e100, 1e200])
@pytest.mark.parametrize("xi", [(0.0, 1.0), (1.0, 1.0)], ids=["e2", "diagonal"])
@pytest.mark.parametrize("span", [(0, 2048), (-2048, 0)], ids=["forward", "backward"])
def test_orbits_of_a_wide_diagonal_keep_every_digit(a, xi, span):
    # n steps of diag(a, 1/a) spread its singular values by a^(2n), so
    # chunks of isqrt(2048) = 45 steps would underflow and are cut short;
    # a single step spreads them by 1e200 at a = 1e100 and by 1e400, past
    # the float range, at a = 1e200.  e2 rides the contracting axis
    # forward and the expanding one backward
    seq = MatrixSequence.constant(np.diag([a, 1.0 / a]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orbit_lognorms(seq, xi, span).lognorms
    n = np.arange(span[0], span[1] + 1)
    want = (-n if xi == (0.0, 1.0) else np.abs(n)) * np.log(a)
    # X(n, 0)(1, 1) = (a^n, a^-n) has log-norm |n| log a + O(a^-4|n|)
    moved = n != 0
    assert np.all(np.abs(got[moved] - want[moved]) <= 1e-13 * np.abs(want[moved]))
    assert got[~moved] == pytest.approx(np.log(np.hypot(*xi)), rel=1e-15)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 97, 100, 101, 2025, 2026])
def test_chunk_edges_agree_with_the_per_step_walk(m):
    # 97 is prime (one short last chunk), 100 and 2025 are K^2 chunks of K
    # steps, and 101 and 2026 leave a last chunk of a single step
    seq = MatrixSequence.seeded(3, bands=SEEDED_BANDS[2])
    if m >= 4:
        assert _chunk_length(seq.window(0, m - 1)) == math.isqrt(m)
    xi = np.random.default_rng(m).standard_normal((2, 3))
    for span in ((0, m), (-m, 0)):
        got = orbit_lognorms(seq, xi, span).lognorms
        want = orbit_walk(seq, xi, span)
        assert got.shape == want.shape == (m + 1, 3)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_axis_orbits_of_a_diagonal_system_never_leave_their_axis():
    # rates differ by factors of 1.7 and more, so any rounding that moved
    # mass onto a faster axis would take over the log-norm within a few
    # hundred steps; each axis must follow its own scalar sums instead
    seq = separated_banded_diagonal(11)
    span = (-2048, 2048)
    got = orbit_lognorms(seq, np.eye(3), span).lognorms
    entries = seq.window(span[0], span[1] - 1)[:, np.arange(3), np.arange(3)]
    logs = np.log(np.abs(entries))
    want = np.zeros((span[1] - span[0] + 1, 3))
    want[-span[0] + 1:] = np.cumsum(logs[-span[0]:], axis=0)
    want[:-span[0]] = -np.cumsum(logs[:-span[0]][::-1], axis=0)[::-1]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


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
        transition(seq, WINDOW_CAP + 1, 0)
    with pytest.raises(WindowCapError):
        orbit_lognorms(seq, [1.0, 0.0], (0, WINDOW_CAP + 1))


def test_orbit_rejects_bad_input():
    seq = MatrixSequence.constant(np.eye(2))
    with pytest.raises(ParameterError):
        orbit_lognorms(seq, [1.0, 0.0], (5, 10))  # span misses 0
    with pytest.raises(ParameterError):
        orbit_lognorms(seq, [0.0, 0.0], (-5, 5))
    with pytest.raises(ParameterError):
        orbit_lognorms(seq, [1.0, 0.0, 0.0], (-5, 5))
    for span in ((0, 10.7), (-3.9, 4), (0.5, 2)):  # once truncated to integers
        with pytest.raises(ParameterError, match="integer bounds"):
            orbit_lognorms(seq, [1.0, 0.0], span)
    assert orbit_lognorms(seq, [1.0, 0.0], (-3.0, np.int64(4))).span == (-3, 4)


@pytest.mark.parametrize("bad", [3.9, -0.5, True, np.bool_(False), "x", "3", None, math.nan, math.inf],
                         ids=repr)
def test_transition_refuses_non_integral_times(bad):
    # int() once truncated 3.9 to 3 and read True as 1
    seq = seeded_example()
    for times in ((bad, 0), (0, bad)):
        with pytest.raises(ParameterError, match="integer bounds"):
            transition(seq, *times)


def test_orbit_span_refuses_boolean_bounds():
    # the span goes through the same check as the times of transition()
    with pytest.raises(ParameterError, match="integer bounds"):
        orbit_lognorms(MatrixSequence.constant(np.eye(2)), [1.0, 0.0], (False, True))


def test_transition_accepts_integral_floats_and_numpy_integers():
    seq = seeded_example()
    want = transition(seq, 7, -5)
    got = transition(seq, 7.0, np.int64(-5))
    assert np.array_equal(got.core, want.core) and got.log_scale == want.log_scale


@pytest.mark.parametrize("m", [0, 1, 2, 3, 97, 100, 101, 2025, 2026])
def test_transition_chunk_edges_match_dense_products(m):
    # 97 is prime (one short last chunk), 100 and 2025 are K^2 chunks of K
    # steps, and 101 and 2026 leave a last chunk of a single step.  Log-rates
    # within +-0.16 of 0 keep X(m, 0) in the float range over 2,026 steps, so
    # the dense product is a fair reference, and each step's log-condition
    # term of about 2 keeps K = isqrt(m)
    seq = MatrixSequence.seeded(5, bands=((0.85, 0.95), (0.97, 1.03), (1.05, 1.15)))
    if m >= 4:
        assert _chunk_length(seq.window(0, m - 1)) == math.isqrt(m)
    for target in (m, -m):
        got = transition(seq, target, 0).to_matrix()
        want = dense_transition(seq, target, 0)
        assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2), target


@pytest.mark.parametrize("m", [2048, -2048], ids=["forward", "backward"])
def test_transition_of_a_wide_diagonal_keeps_every_digit(m):
    # one step spreads the singular values by 1e400, past the float range,
    # so the sweep takes one-step chunks and keeps each column's scale as
    # an integer power of two; the slow column drops out of the core
    seq = MatrixSequence.constant(np.diag([1e200, 1e-200]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transition(seq, m, 0).log_norm()
    assert got == pytest.approx(2048 * np.log(1e200), rel=1e-13)


def test_transition_is_one_sweep(monkeypatch):
    module = importlib.import_module("dichospec.transition")
    real = module._sweep
    calls = []

    def spy(maps, u, out):
        calls.append(len(maps))
        return real(maps, u, out)

    monkeypatch.setattr(module, "_sweep", spy)
    seq = seeded_example()
    for m, n in ((300, 0), (-300, 0), (7, -5), (-5, 7), (4, 4)):
        calls.clear()
        transition(seq, m, n)
        assert calls == [abs(m - n)], (m, n)


@pytest.mark.parametrize("xi", [[1e200, 0.0], [1e-200, 0.0],
                                [[1e200, 1e-200, 1.0], [0.0, 0.0, 1.0]]],
                         ids=["huge", "tiny", "mixed-block"])
def test_orbits_start_from_vectors_whose_squares_leave_the_float_range(xi):
    # the plain root of summed squares of these vectors is inf or 0
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orbit_lognorms(seq, xi, (-5, 5)).lognorms
    n = np.arange(-5, 6)[:, None]
    block = np.asarray(xi).reshape(2, -1)
    # X(n, 0) = diag(2^n, 2^-n); hypot neither overflows nor underflows
    want = np.log(np.hypot(block[0] * 2.0 ** n, block[1] * 2.0 ** -n))
    assert np.all(np.abs(got.reshape(want.shape) - want) <= 1e-13 * np.abs(want))


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
    # the same four factors inside identities, as the smallest Bohl window is 32
    wide = MatrixSequence.tabulated([np.eye(2)] * 30 + [np.eye(2), bad, np.eye(2), bad]
                                    + [np.eye(2)] * 30, start=-32)
    with pytest.raises(SingularMatrixError) as err:
        general_exponents(wide, BohlParams(window=32, two_sided=True))
    assert err.value.n == -1


def _nonnormal_stack(rng, m, k, coupling):
    diag = np.exp(rng.uniform(-0.5, 0.5, size=(m, k)))
    upper = np.triu(coupling * rng.uniform(-1.0, 1.0, size=(m, k, k)), 1)
    return upper + diag[:, :, None] * np.eye(k)


def _near_orthogonal_stack():
    """400 random orthogonal 3 x 3 factors, each column scaled by
    exp(U(-0.05, 0.05)): every Frobenius bound sits about sqrt(3) above
    its spectral norm, so that bound alone keeps every offset."""
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.normal(size=(400, 3, 3)))[0]
    return q * np.exp(rng.uniform(-0.05, 0.05, size=(400, 1, 3)))


def _period_three_stack(rng):
    """A period-3 sequence of 3 x 3 factors whose entries move by a few
    units in the last place: equal offsets mod 3 tie to rounding."""
    base = np.array([[[1.5, 0.7, 0.0], [0.0, 0.8, 0.3], [0.2, 0.0, 1.1]],
                     [[0.9, 0.0, 0.4], [0.5, 1.2, 0.0], [0.0, 0.6, 0.7]],
                     [[1.1, 0.3, 0.2], [0.0, 0.9, 0.5], [0.4, 0.0, 1.3]]])
    stack = np.tile(base, (60, 1, 1))
    return stack * (1.0 + 2.0**-52 * rng.integers(-2, 3, size=stack.shape))


def _repeating_from(rng, lead, cycle, m, k=3):
    """``lead`` random k x k factors, then a cycle of ``cycle`` random ones
    repeated up to m factors in all."""
    head, period = (rng.normal(size=(n, k, k)) + 2.0 * np.eye(k) for n in (lead, cycle))
    return np.concatenate([head, np.tile(period, ((m - lead) // cycle + 1, 1, 1))[: m - lead]])


def _broken_last_period(rng):
    stack = _repeating_from(rng, 0, 3, 90)
    stack[-2:] *= 1.5
    return stack


def _negative_zero_last_period(rng):
    # the last period equals the others as floats, not as bits
    stack = np.triu(_repeating_from(rng, 0, 3, 90))
    last = stack[-3:]
    last[last == 0] = -0.0
    assert np.array_equal(stack[-3:], stack[-6:-3])
    return stack


def _nan_cycle(rng):
    stack = _repeating_from(rng, 5, 4, 70, k=1)
    stack[6::4] = np.nan
    return stack


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
    "near-orthogonal-3x3": lambda rng: _near_orthogonal_stack(),
    "period-3-near-ties": _period_three_stack,
    # stacks that repeat bit for bit from an offset on (the NaN one as
    # bits only, not under ==), and two whose last period breaks the cycle:
    # scaled, or holding -0.0 where the others hold +0.0
    "period-3-from-30": lambda rng: _repeating_from(rng, 30, 3, 120),
    "constant-from-40": lambda rng: _repeating_from(rng, 40, 1, 100, k=2),
    "broken-last-period": _broken_last_period,
    "negative-zero-last-period": _negative_zero_last_period,
    "nan-in-period-4": _nan_cycle,
}
# the stacks whose factors repeat bit for bit up to their last one
REPEATING_STACKS = {"constant", "period-3-from-30", "constant-from-40", "nan-in-period-4"}


def _bits(products, best):
    """The bits of a products(g) pair and of a max_log_norm(g) pair."""
    return [a.tobytes() for a in products], np.float64(best[0]).tobytes(), best[1]


@pytest.mark.parametrize("case", sorted(MAX_LOG_NORM_STACKS))
def test_max_log_norm_equals_an_svd_of_every_offset(monkeypatch, case):
    factors = MAX_LOG_NORM_STACKS[case](np.random.default_rng(5))
    wp = WindowProducts(factors)
    gaps = sorted({1, 2, 3, 5, 8, 13, 31, 32, 33, len(factors) // 2, len(factors)})
    for g in gaps:
        got = wp.max_log_norm(g)
        assert _bits((), got) == _bits((), max_log_norm_of_every_offset(wp, g)), g
        if case == "constant":
            assert got[1] == 0
    if case == "log-scale-1e4":
        assert wp.max_log_norm(200)[0] > 1e4
    # a stack that repeats stores each level only up to its cycle; every
    # product and maximum equals that of a build whose lag finder finds no
    # lag and so stores every row, bit for bit
    stored = [len(cores) for cores, _ in wp._levels]
    assert (stored[0] < len(factors)) == (case in REPEATING_STACKS)
    got = [_bits(wp.products(g), wp.max_log_norm(g)) for g in range(1, len(factors) + 1)]
    monkeypatch.setattr(linalg, "_map_period", lambda stacks: None)
    uncut = WindowProducts(factors)
    assert [len(cores) for cores, _ in uncut._levels] == [len(factors) - (1 << j) + 1
                                                         for j in range(len(stored))]
    assert got == [_bits(uncut.products(g), uncut.max_log_norm(g))
                   for g in range(1, len(factors) + 1)]


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
    # the Frobenius bound alone keeps every offset here; the Gram bound
    # leaves at most a quarter of them to an SVD
    wp = WindowProducts(_near_orthogonal_stack())
    for g in (1, 2, 4, 8):
        items.clear()
        wp.max_log_norm(g)
        assert items[0] == 1 and sum(items) <= (400 - g + 1) // 4, (g, items)
    # a constant stack stores one offset, so the floor is the only SVD
    wp = WindowProducts(MAX_LOG_NORM_STACKS["constant"](rng))
    for g in (1, 2, 3, 5):
        items.clear()
        assert wp.max_log_norm(g) == max_log_norm_of_every_offset(wp, g)
        assert items == [1], (g, items)


@pytest.mark.parametrize("gap", [2.5, True, np.bool_(True), "3", None])
def test_window_products_refuse_a_non_integer_gap(gap):
    # int() once truncated the gap, so 2.5 read the products of length 2
    wp = WindowProducts(np.random.default_rng(3).normal(size=(40, 2, 2)) + 2.0 * np.eye(2))
    for method in (wp.products, wp.max_log_norm):
        with pytest.raises(ParameterError, match="integer bounds"):
            method(gap)
    for integral in (4.0, np.int64(4), np.int32(4)):
        assert wp.max_log_norm(integral) == wp.max_log_norm(4)


def test_frobenius_norms_neither_overflow_nor_vanish(recwarn):
    seq = MatrixSequence.constant(np.diag([1e200, 1e-200]))
    est = general_exponents(seq, BohlParams(window=32))
    assert est.senior == pytest.approx(1e200, rel=1e-12)
    assert est.junior == pytest.approx(1e-200, rel=1e-12)
    assert transition(seq, 3, 0).log_norm() == pytest.approx(3 * np.log(1e200), rel=1e-14)
    assert transition(seq, 0, 3).log_norm() == pytest.approx(3 * np.log(1e200), rel=1e-14)
    tiny = ScaledMatrix.from_matrix(np.diag([1e-170, 1e-171]))
    assert tiny.log_norm() == pytest.approx(np.log(1e-170), rel=1e-14)
    assert len(recwarn) == 0
