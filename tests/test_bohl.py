import warnings

import numpy as np
import pytest

from bruteforce import (
    bohl_enumerate,
    envelopes_by_gap,
    general_exponents_enumerate,
    orbit_lognorm_table,
    scalar_bohl_enumerate,
)
from dichospec.bohl import (
    GAP_MIN,
    TAIL_FRACTION,
    BohlParams,
    _bohl_block,
    _envelopes,
    _scalar_tail,
    bohl_exponents,
    general_exponents,
    scalar_bohl,
    scalar_bohl_estimate,
)
from dichospec.errors import ParameterError, ValidationError, WindowCapError
from dichospec.sequences import MatrixSequence, ScalarSequence

SMALL = BohlParams(window=96)
SMALL_TWO_SIDED = BohlParams(window=96, two_sided=True)


def seeded_2d():
    return MatrixSequence.seeded(3, bands=((0.5, 0.7), (1.4, 1.9)))


def test_axis_solution_of_constant_diagonal():
    # geometric orbit: both exponents equal the diagonal rate, up to
    # rounding
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    est = bohl_exponents(seq, [1.0, 0.0])
    assert est.lower == pytest.approx(2.0, rel=1e-12)
    assert est.upper == pytest.approx(2.0, rel=1e-12)
    est = bohl_exponents(seq, [0.0, 1.0])
    assert est.lower == pytest.approx(0.5, rel=1e-12)
    assert est.upper == pytest.approx(0.5, rel=1e-12)


def test_constant_scalar_rate():
    lower, upper = scalar_bohl(ScalarSequence.constant(3.0))
    assert lower == pytest.approx(3.0, rel=1e-12)
    assert upper == pytest.approx(3.0, rel=1e-12)


def test_periodic_scalar_averages_to_one():
    n = BohlParams().window
    lower, upper = scalar_bohl(ScalarSequence.periodic([2.0, 0.5]))
    assert abs(upper - 1.0) <= 2.0 / n
    assert abs(lower - 1.0) <= 2.0 / n


def test_piecewise_scalar_sees_both_rates_only_two_sided():
    u = ScalarSequence.piecewise(negative=[0.5], nonnegative=[2.0])
    n = BohlParams().window
    lower, upper = scalar_bohl(u)  # default offsets stay on [0, window]
    assert abs(lower - 2.0) <= 2.0 / n
    assert abs(upper - 2.0) <= 2.0 / n
    lower, upper = scalar_bohl(u, BohlParams(two_sided=True))
    assert abs(lower - 0.5) <= 2.0 / n
    assert abs(upper - 2.0) <= 2.0 / n


def test_estimator_matches_direct_enumeration():
    seq = seeded_2d()
    xi = np.array([1.0, -0.7])
    for params in (SMALL, SMALL_TWO_SIDED):
        est = bohl_exponents(seq, xi, params)
        lo, hi = params.orbit_span()
        table = orbit_lognorm_table(seq, xi / np.linalg.norm(xi), lo, hi)
        want_lower, want_upper = bohl_enumerate(
            table, -lo, params.window, GAP_MIN,
            TAIL_FRACTION, params.two_sided)
        assert est.lower == pytest.approx(want_lower, rel=1e-12)
        assert est.upper == pytest.approx(want_upper, rel=1e-12)


def test_scalar_estimator_matches_direct_enumeration():
    sequences = [
        ScalarSequence.piecewise(negative=[0.5, 0.6], nonnegative=[2.0, 1.5]),
        ScalarSequence.seeded(8, (0.8, 1.3)),
    ]
    for u in sequences:
        for params in (SMALL, SMALL_TWO_SIDED):
            got = scalar_bohl(u, params)
            want = scalar_bohl_enumerate(u, params.window, GAP_MIN,
                                         TAIL_FRACTION, params.two_sided)
            assert got == pytest.approx(want, rel=1e-12)


def test_general_exponents_match_dense_svd_enumeration():
    seq = seeded_2d()
    params = BohlParams(window=48)
    ge = general_exponents(seq, params)
    want_junior, want_senior = general_exponents_enumerate(
        seq, 48, GAP_MIN, TAIL_FRACTION)
    assert ge.senior == pytest.approx(want_senior, rel=1e-10)
    assert ge.junior == pytest.approx(want_junior, rel=1e-10)


def test_general_exponents_on_contract_systems():
    n = BohlParams().window
    ge = general_exponents(MatrixSequence.constant(np.diag([2.0, 0.5])))
    assert ge.senior == pytest.approx(2.0, rel=1e-12)
    assert ge.junior == pytest.approx(0.5, rel=1e-12)
    ge = general_exponents(MatrixSequence.diagonal([ScalarSequence.periodic([2.0, 0.5])]))
    assert abs(ge.senior - 1.0) <= 2.0 / n
    assert abs(ge.junior - 1.0) <= 2.0 / n
    piecewise = MatrixSequence.piecewise(MatrixSequence.constant([[0.5]]),
                                         MatrixSequence.constant([[2.0]]))
    ge = general_exponents(piecewise, BohlParams(two_sided=True))
    assert ge.senior == pytest.approx(2.0, rel=1e-12)
    assert ge.junior == pytest.approx(0.5, rel=1e-12)


def test_initial_vector_scaling_invariance():
    seq = seeded_2d()
    xi = np.array([0.6, 1.0])
    base = bohl_exponents(seq, xi, SMALL)
    for c in (4.0, -0.125, 2.0 ** -30):
        scaled = bohl_exponents(seq, c * xi, SMALL)
        # powers of two rescale the vector without rounding
        assert scaled.lower == base.lower
        assert scaled.upper == base.upper
    general = bohl_exponents(seq, 3.7 * xi, SMALL)
    assert general.lower == pytest.approx(base.lower, rel=1e-12)
    assert general.upper == pytest.approx(base.upper, rel=1e-12)


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_vectors_past_the_square_range_keep_power_of_two_homogeneity(size):
    # the squares of 1e200 overflow and those of 1e-200 underflow; the norm
    # is still exact, so the normalized vector is (1, 0) bit for bit
    seq = seeded_2d()
    unit = bohl_exponents(seq, [1.0, 0.0], SMALL)
    block = np.array([[size, 1.0, -size], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bohl_exponents(seq, [size, 0.0], SMALL)
        lower, upper, spread = _bohl_block(seq, block, SMALL)
    assert got.lower == unit.lower and got.upper == unit.upper
    assert np.array_equal(got.min_rates, unit.min_rates)
    assert np.array_equal(got.max_rates, unit.max_rates)
    assert np.all(lower == unit.lower) and np.all(upper == unit.upper)
    assert np.all(spread == unit.spread)


def test_system_scaling_shifts_rates():
    seq = seeded_2d()
    lo, hi = SMALL_TWO_SIDED.orbit_span()
    stack = 2.0 * seq.window(lo, hi - 1)
    doubled = MatrixSequence.tabulated(stack, start=lo)
    xi = [1.0, 0.3]
    base = bohl_exponents(seq, xi, SMALL_TWO_SIDED)
    scaled = bohl_exponents(doubled, xi, SMALL_TWO_SIDED)
    assert scaled.lower == pytest.approx(2.0 * base.lower, rel=1e-12)
    assert scaled.upper == pytest.approx(2.0 * base.upper, rel=1e-12)


def test_scalar_route_consistent_with_matrix_route():
    u = ScalarSequence.seeded(21, (0.7, 1.1))
    got = scalar_bohl(u, SMALL)
    est = bohl_exponents(MatrixSequence.diagonal([u]), [1.0], SMALL)
    assert got[0] == pytest.approx(est.lower, abs=1e-10)
    assert got[1] == pytest.approx(est.upper, abs=1e-10)


def test_solution_rates_bounded_by_general_exponents():
    seq = seeded_2d()
    params = BohlParams(window=64)
    ge = general_exponents(seq, params)
    rng = np.random.default_rng(0)
    for _ in range(6):
        xi = rng.normal(size=2)
        est = bohl_exponents(seq, xi, params)
        assert est.lower >= ge.junior - 1e-9
        assert est.upper <= ge.senior + 1e-9


def test_distinct_upper_rates_of_diagonal_system():
    # d = 3 with distinct diagonal rates: the upper exponent only depends on
    # which coordinates of xi are nonzero, so at most 2^3 - 1 values appear
    seq = MatrixSequence.constant(np.diag([2.0, 1.0, 0.5]))
    rng = np.random.default_rng(5)
    vectors = [np.eye(3)[i] for i in range(3)]
    vectors += [np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])]
    vectors += [rng.normal(size=3) for _ in range(20)]
    uppers = {round(bohl_exponents(seq, v, SMALL).upper, 9) for v in vectors}
    assert len(uppers) <= 7
    assert uppers <= {2.0, 1.0, 0.5}


def test_spread_reflects_tail_convergence():
    # an axis solution has converged envelopes; a mixed solution at this
    # window still carries visible transient, which spread must report
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    axis = bohl_exponents(seq, [1.0, 0.0], SMALL)
    assert 0.0 <= axis.spread <= 1e-12
    mixed = bohl_exponents(seq, [1.0, 1.0], SMALL)
    assert mixed.spread > 1e-4
    assert mixed.upper <= 2.0 + 1e-12


def test_envelope_csv_and_lookup():
    est = scalar_bohl_estimate(ScalarSequence.constant(2.0), SMALL)
    lines = est.envelopes_to_csv().strip().splitlines()
    assert lines[0] == "g,min_rate,max_rate"
    assert len(lines) == len(est.gaps) + 1
    lo, hi = est.envelope_at(16)
    assert lo == pytest.approx(2.0, rel=1e-12)
    assert hi == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ParameterError):
        est.envelope_at(97)


@pytest.mark.parametrize("flag", ["no", "yes", 0, 1, None], ids=repr)
def test_two_sided_must_be_a_bool(flag):
    # "no" once read as true, so offsets ran over the negative half-line
    with pytest.raises(ParameterError, match="two_sided must be True or False"):
        BohlParams(window=64, two_sided=flag)


def test_parameter_and_input_validation():
    with pytest.raises(ParameterError, match="need window >= 2 \\* GAP_MIN = 32"):
        BohlParams(window=2 * GAP_MIN - 1)
    assert BohlParams(window=2 * GAP_MIN).gaps()[0] == GAP_MIN == 16
    with pytest.raises(TypeError):  # a constant now, not a setting
        BohlParams(window=96, gap_min=8)
    for bad in ({"window": 64.5}, {"window": 64.0}, {"window": True}):
        with pytest.raises(ParameterError, match="must be an integer"):
            BohlParams(**bad)
    numpy_ints = BohlParams(window=np.int64(96))
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    assert bohl_exponents(seq, [1.0, 1.0], numpy_ints).upper == \
        bohl_exponents(seq, [1.0, 1.0], SMALL).upper
    assert BohlParams(window=64, two_sided=np.bool_(True)).orbit_span() == (-64, 64)
    with pytest.raises(ParameterError):
        bohl_exponents(MatrixSequence.constant(np.eye(2)), [0.0, 0.0], SMALL)
    with pytest.raises(ValidationError):
        scalar_bohl(ScalarSequence.tabulated([1.0, 0.0] + [1.0] * 200, start=0), SMALL)


@pytest.mark.parametrize("xi", [[np.inf, 0.0], [1.0, -np.inf], [np.nan, 1.0], [np.inf, np.nan]],
                         ids=["inf", "-inf", "nan", "inf-nan"])
def test_non_finite_initial_vectors_are_refused_before_dividing(xi):
    # the norm was divided out first: inf / inf warned "invalid value
    # encountered in divide", which the suite turns into an error
    with pytest.raises(ParameterError, match="finite initial vector"):
        bohl_exponents(MatrixSequence.constant(np.eye(2)), xi, SMALL)


# -- batched estimator ---------------------------------------------------------


def _assert_columns_match_single(seq, block, params):
    lower, upper, spread = _bohl_block(seq, block, params)
    assert lower.shape == upper.shape == spread.shape == (block.shape[1],)
    for j in range(block.shape[1]):
        single = bohl_exponents(seq, block[:, j], params)
        assert abs(lower[j] - single.lower) <= 1e-12
        assert abs(upper[j] - single.upper) <= 1e-12
        assert abs(spread[j] - single.spread) <= 1e-12


def test_batch_columns_match_single_vectors_on_diagonal_d3():
    seq = MatrixSequence.diagonal([ScalarSequence.seeded(5, (0.4, 0.5)),
                                   ScalarSequence.constant(1.0),
                                   ScalarSequence.seeded(6, (1.8, 2.2))])
    block = np.random.default_rng(0).standard_normal((3, 7))
    block[:, 0] = [0.0, 1.0, 0.0]  # an axis: the middle rate alone
    _assert_columns_match_single(seq, block, SMALL)
    _assert_columns_match_single(seq, block, SMALL_TWO_SIDED)


@pytest.mark.parametrize("params", [SMALL, SMALL_TWO_SIDED])
def test_batch_columns_match_single_vectors_on_seeded_full_d2(params):
    block = np.random.default_rng(1).standard_normal((2, 5))
    _assert_columns_match_single(seeded_2d(), block, params)


def test_batch_columns_match_single_vectors_on_restricted_fiber():
    from dichospec.bundles import restricted_fiber_system
    from dichospec.dichotomy import estimate_spectrum

    # modulus-2 rotation pair on a 2-d fiber next to a 0.5 direction,
    # conjugated to a non-normal frame
    c, s = np.cos(0.7), np.sin(0.7)
    core = np.array([[2 * c, -2 * s, 0.0], [2 * s, 2 * c, 0.0], [0.0, 0.0, 0.5]])
    frame = np.array([[1.0, 0.4, 0.2], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]])
    seq = MatrixSequence.constant(frame @ core @ np.linalg.inv(frame))
    est = estimate_spectrum(seq)
    assert [round(iv.b, 2) for iv in est.intervals] == [0.5, 2.0]
    _, fiber_system = restricted_fiber_system(seq, est, 2, window=SMALL.window)
    assert fiber_system.kind == "tabulated" and fiber_system.dimension == 2
    block = np.random.default_rng(2).standard_normal((2, 4))
    _assert_columns_match_single(fiber_system, block, SMALL_TWO_SIDED)


def test_batch_input_errors_keep_their_types():
    seq = seeded_2d()
    with pytest.raises(ParameterError):
        _bohl_block(seq, np.array([[1.0, 0.0], [0.0, 0.0]]), SMALL)  # zero column
    with pytest.raises(ParameterError):
        _bohl_block(seq, np.ones((3, 2)), SMALL)  # wrong dimension
    wide = BohlParams(window=600_000, two_sided=True)  # span 1.2e6 > cap 1e6
    with pytest.raises(WindowCapError):
        _bohl_block(seq, np.ones((2, 2)), wide)


def test_tail_rates_equal_the_full_estimate_fields():
    u = ScalarSequence.seeded(9, (0.6, 1.3))
    est = scalar_bohl_estimate(u, SMALL_TWO_SIDED)
    assert _scalar_tail(u, SMALL_TWO_SIDED) == (est.lower, est.upper, est.spread)


def _walks(length, columns, seed=0):
    """Random-walk log-norms, (length,) or (length, columns), starting at 0;
    the integer steps of the last column make many differences tie."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=0.3, size=(length - 1, columns)) + rng.uniform(-0.2, 0.2, columns)
    steps[:, -1] = rng.integers(-1, 2, size=length - 1)
    return np.concatenate([np.zeros((1, columns)), np.cumsum(steps, axis=0)])


@pytest.mark.parametrize("params",
                         [BohlParams(), BohlParams(window=300, two_sided=True)],
                         ids=["one-sided", "two-sided"])
@pytest.mark.parametrize("which", ["tail_gaps", "gaps"])
def test_envelopes_equal_the_per_gap_loop(params, which):
    lo, hi = params.orbit_span()
    gaps = getattr(params, which)()
    block = _walks(hi - lo + 1, 20)
    for lognorms in (block, block[:, 0], block[:, -1]):
        got = _envelopes(lognorms, gaps)
        want = envelopes_by_gap(lognorms, gaps)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("length, first, last", [
    (2049, 1642, 2048),  # the default one-sided tail: 407 offsets of gap 1642, 407 gaps
    (2050, 1642, 2048),  # one more offset than gaps
    (2049, 1642, 2047),  # one gap fewer
    (2049, 1641, 2048),  # one gap more at the bottom: 408 offsets and 408 gaps
])
def test_envelopes_equal_the_per_gap_loop_at_the_switch_point(length, first, last):
    # one offset fewer than gaps would need a gap of ``length``, which has no offset
    gaps = np.arange(first, last + 1)
    block = _walks(length, 20, seed=1)
    for lognorms in (block, block[:, 0]):
        got = _envelopes(lognorms, gaps)
        want = envelopes_by_gap(lognorms, gaps)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
