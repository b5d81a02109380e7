import numpy as np
import pytest

from bruteforce import matrix_window_by_index, norm_scan, scalar_value_by_index
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


@pytest.mark.parametrize("matrix", [1e-310 * np.eye(2), np.diag([1e300, 1e-300])])
def test_validate_refuses_norm_bounds_that_overflow(matrix):
    # both pass the row-scaled determinant check; 1/sigma_min overflows
    seq = MatrixSequence.constant(matrix)
    with pytest.raises(SingularMatrixError, match="n=0"):
        seq.validate((-4, 4))
    tab = MatrixSequence.tabulated(np.stack([np.eye(2), np.eye(2), matrix]), start=-1)
    with pytest.raises(SingularMatrixError, match="n=1"):
        tab.validate((-1, 1))


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


SPAN_KINDS = {
    "constant": lambda: MatrixSequence.constant([[2.0, 1.0], [0.0, 0.5]]),
    "periodic": lambda: MatrixSequence.periodic([np.diag([2.0, 0.5]), [[0.0, 1.0], [-1.0, 0.0]]]),
    "piecewise": lambda: MatrixSequence.piecewise(
        MatrixSequence.constant(np.diag([0.5, 2.0])),
        MatrixSequence.periodic([np.diag([2.0, 0.5]), [[1.0, 1.0], [0.0, 1.0]]])),
    "diagonal": lambda: MatrixSequence.diagonal([ScalarSequence.seeded(4, (0.5, 0.8)),
                                                 ScalarSequence.periodic([2.0, 3.0])]),
    "upper-triangular": lambda: MatrixSequence.upper_triangular(
        [ScalarSequence.constant(2.0), ScalarSequence.seeded(5, (0.4, 0.6))],
        {(0, 1): ScalarSequence.periodic([1.0, -1.0, 0.0])}),
    "seeded-random": lambda: MatrixSequence.seeded(6, bands=((0.4, 0.5), (1.6, 2.0))),
    "tabulated": lambda: MatrixSequence.tabulated(
        np.stack([[[1.0 + k, 0.5], [0.0, 0.5]] for k in range(40)]), start=-20),
}


@pytest.fixture
def assembled(monkeypatch):
    """(sequence, lo, hi) of every _assemble_window call."""
    calls = []
    real = MatrixSequence._assemble_window

    def spy(self, lo, hi):
        calls.append((self, lo, hi))
        return real(self, lo, hi)

    monkeypatch.setattr(MatrixSequence, "_assemble_window", spy)
    return calls


def _built(calls, seq):
    out = [(lo, hi) for s, lo, hi in calls if s is seq]
    calls.clear()
    return out


@pytest.mark.parametrize("kind", sorted(SPAN_KINDS))
def test_factor_span_assembles_only_missing_ends(kind, assembled):
    seq = SPAN_KINDS[kind]()
    assert seq.kind == kind
    requests = [
        ((-5, 5), [(-5, 5)]),              # first request starts the span
        ((-3, 2), []),                     # inside
        ((0, 9), [(6, 9)]),                # overlaps the right end
        ((10, 12), [(10, 12)]),            # touches the right end
        ((-8, 14), [(-8, -6), (13, 14)]),  # covers the span: both ends
        ((-9, -9), [(-9, -9)]),            # touches the left end
        ((-9, 14), []),                    # the whole span
    ]
    for (lo, hi), missing in requests:
        stack = seq.window(lo, hi)
        assert _built(assembled, seq) == missing, (lo, hi)
        assert not stack.flags.writeable
        assert np.array_equal(stack, SPAN_KINDS[kind]().window(lo, hi))
    assert np.array_equal(seq.evaluate(7), SPAN_KINDS[kind]().evaluate(7))
    assert _built(assembled, seq) == []
    a = seq.evaluate(-15)                  # outside: built alone, span unchanged
    assert not a.flags.writeable
    assert _built(assembled, seq) == [(-15, -15)]
    seq.window(-9, 14)
    assert _built(assembled, seq) == []
    seq.window(16, 18)                     # apart from the span: a new span
    seq.window(17, 17)
    assert _built(assembled, seq) == [(16, 18)]
    seq.window(0, 0)
    assert _built(assembled, seq) == [(0, 0)]


def test_failed_check_keeps_the_span_and_long_results_are_not_kept(assembled, monkeypatch):
    table = np.stack([np.eye(2)] * 20)
    table[1] = [[1.0, 1.0], [1.0, 1.0]]    # n = -5, rank one
    table[10] = 0.0                        # n = 4, zero rows
    seq = MatrixSequence.tabulated(table, start=-6)
    seq.window(-4, 3)
    with pytest.raises(SingularMatrixError) as err:
        seq.window(-6, 5)
    assert err.value.n == -5
    assembled.clear()
    assert np.array_equal(seq.window(-4, 3), table[2:10])
    assert assembled == []

    monkeypatch.setattr(MatrixSequence, "_SPAN_CAP", 4)
    long = seq.window(5, 13)
    assert np.array_equal(long, table[11:])
    assert not long.flags.writeable
    assembled.clear()
    seq.window(-4, 3)
    assert assembled == []
    with pytest.raises(SingularMatrixError) as err:
        seq.window(-2, 12)
    assert err.value.n == 4


# zigzag(n) needs a second 32-bit key word for n >= 2**31 and n <= -2**31 - 1
STREAM_SEEDS = [0, 1, 2**31 - 1, 2**32 + 5, 2**130 + 17]
STREAM_WINDOWS = [(-6, 5), (2**31 - 2, 2**31 + 2), (-2**31 - 2, -2**31 + 2)]
SEEDED_SYSTEMS = {
    "seeded-d1": lambda seed: MatrixSequence.seeded(seed, bands=((0.5, 0.8),)),
    "seeded-d2": lambda seed: MatrixSequence.seeded(seed, bands=((0.4, 0.55), (1.6, 1.9))),
    "seeded-d3": lambda seed: MatrixSequence.seeded(
        seed, bands=((0.3, 0.4), (0.8, 1.0), (1.8, 2.2))),
    "seeded-d6": lambda seed: MatrixSequence.seeded(
        seed, bands=((0.2, 0.25), (0.35, 0.42), (0.6, 0.7), (1.0, 1.15), (1.6, 1.8), (2.6, 3.0))),
    "diagonal": lambda seed: MatrixSequence.diagonal(
        [ScalarSequence.seeded(seed, (0.5, 0.8)), ScalarSequence.periodic([2.0, 3.0]),
         ScalarSequence.seeded(seed + 1, (1.1, 1.3))]),
    "upper-triangular": lambda seed: MatrixSequence.upper_triangular(
        [ScalarSequence.constant(2.0), ScalarSequence.seeded(seed, (0.4, 0.6))],
        {(0, 1): ScalarSequence.seeded(seed + 2, (0.1, 5.0))}),
}


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("system", sorted(SEEDED_SYSTEMS))
def test_seeded_windows_equal_numpy_generators_per_index(system, seed):
    for lo, hi in STREAM_WINDOWS:
        seq = SEEDED_SYSTEMS[system](seed)
        assert np.array_equal(seq.window(lo, hi), matrix_window_by_index(seq, lo, hi)), (lo, hi)


SCALAR_KINDS = {
    "constant": ScalarSequence.constant(-1.5),
    "periodic": ScalarSequence.periodic([2.0, 0.5, -3.0]),
    "piecewise": ScalarSequence.piecewise(negative=[0.5, 0.25], nonnegative=[2.0, 4.0, 8.0]),
    "tabulated": ScalarSequence.tabulated([float(k) - 9.5 for k in range(20)], start=-10),
    **{f"seeded-{seed}": ScalarSequence.seeded(seed, (0.3, 1.7)) for seed in STREAM_SEEDS},
}


@pytest.mark.parametrize("kind", sorted(SCALAR_KINDS))
def test_scalar_windows_equal_per_index_values(kind):
    u = SCALAR_KINDS[kind]
    windows = [(-10, 9), (-3, -3), (0, 0), (4, 9)]
    if u.kind == "seeded-random":
        windows += STREAM_WINDOWS
    for lo, hi in windows:
        want = np.array([scalar_value_by_index(u, n) for n in range(lo, hi + 1)])
        got = u.window(lo, hi)
        assert got.dtype == np.float64 and np.array_equal(got, want), (lo, hi)
        assert [u.value_at(n) for n in range(lo, hi + 1)] == want.tolist()
        assert all(type(u.value_at(n)) is float for n in (lo, hi))


def test_tabulated_scalar_window_names_the_first_missing_index():
    u = SCALAR_KINDS["tabulated"]
    for (lo, hi), n in (((-12, 0), -12), ((5, 11), 10), ((-11, 14), -11), ((12, 14), 12)):
        with pytest.raises(ValidationError, match=f"no value at n={n} "):
            u.window(lo, hi)
    with pytest.raises(ValidationError, match="n=10 "):
        u.value_at(10)


def test_integral_float_offdiagonal_index_loads():
    seq = MatrixSequence.from_payload({
        "kind": "upper-triangular",
        "diagonal": [{"kind": "constant", "value": 2.0}, {"kind": "constant", "value": 0.5}],
        "offdiagonal": [{"row": 0.0, "col": 1.0, "entry": {"kind": "constant", "value": 3.0}}]})
    assert seq.offdiagonal[0][:2] == (0, 1)
    assert np.array_equal(seq.evaluate(0), [[2.0, 3.0], [0.0, 0.5]])


def test_negative_seeds_are_rejected():
    with pytest.raises(ParameterError):
        ScalarSequence.seeded(-1, (0.5, 0.8))
    with pytest.raises(ParameterError):
        MatrixSequence.seeded(-3, bands=((0.4, 0.5), (1.6, 2.0)))
    with pytest.raises(ParameterError):
        ScalarSequence.from_payload({"kind": "seeded-random", "seed": -1, "band": [0.5, 0.8]})
    with pytest.raises(ParameterError):
        MatrixSequence.from_payload({"kind": "seeded-random", "seed": -3,
                                     "bands": [[0.4, 0.5], [1.6, 2.0]]})
    with pytest.raises(ParameterError):
        MatrixSequence.from_payload({"kind": "diagonal", "entries": [
            {"kind": "seeded-random", "seed": -2, "band": [0.5, 0.8]}]})
    assert ScalarSequence.seeded(0, (0.5, 0.8)).seed == 0


@pytest.mark.parametrize("build", [
    lambda: ScalarSequence.constant(float("nan")),
    lambda: ScalarSequence.constant(float("inf")),
    lambda: ScalarSequence.tabulated([1.0, float("nan"), 1.0], start=0),
    lambda: MatrixSequence.seeded(1, bands=((0.4, 0.5), (1.6, 2.0)), eps=float("nan")),
    lambda: ScalarSequence.seeded(1.5, (0.5, 0.8)),
    lambda: MatrixSequence.seeded(True, bands=((0.4, 0.5), (1.6, 2.0))),
    lambda: MatrixSequence.upper_triangular(
        [ScalarSequence.constant(2.0), ScalarSequence.constant(0.5)],
        {(0.5, 1.9): ScalarSequence.constant(1.0)}),
], ids=["constant-nan", "constant-inf", "tabulated-nan", "eps-nan", "seed-1.5", "seed-true",
        "offdiagonal-index-0.5"])
def test_non_finite_values_and_non_integer_seeds_are_refused(build):
    with pytest.raises(ParameterError):
        build()
