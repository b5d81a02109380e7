import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bruteforce import dense_transition
from dichospec.bohl import BohlParams, bohl_exponents, scalar_bohl
from dichospec.bundles import projector_family
from dichospec.dichotomy import estimate_spectrum
from dichospec.dichotomy import test_dichotomy as dichotomy_verdict
from dichospec.linalg import spectral_norm
from dichospec.sequences import MatrixSequence, ScalarSequence
from dichospec.transition import transition
from systems import separated_banded_diagonal

dichotomy_verdict.__test__ = False

SMALL = BohlParams(window=96)

relaxed = settings(deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])

seeds = st.integers(min_value=0, max_value=10_000)


def seeded_system(seed):
    return MatrixSequence.seeded(seed, bands=((0.6, 0.9), (1.1, 1.6)))


@st.composite
def cocycle_triples(draw):
    k = draw(st.integers(-30, 30))
    j = draw(st.integers(-30, 30))
    lo, hi = min(k, j), max(k, j)
    l = draw(st.integers(lo, hi))
    return k, l, j


@settings(relaxed, max_examples=25)
@given(seed=seeds, triple=cocycle_triples())
def test_cocycle_property(seed, triple):
    seq = seeded_system(seed)
    k, l, j = triple
    composed = transition(seq, k, l).compose(transition(seq, l, j))
    assert composed.relative_distance(transition(seq, k, j)) <= 1e-9


@settings(relaxed, max_examples=25)
@given(seed=seeds, m=st.integers(-25, 25), n=st.integers(-25, 25))
def test_transition_matches_dense_products(seed, m, n):
    seq = seeded_system(seed)
    got = transition(seq, m, n).to_matrix()
    want = dense_transition(seq, m, n)
    scale = max(1e-300, float(np.abs(want).max()))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


@settings(relaxed, max_examples=25)
@given(seed=seeds, n=st.integers(-64, 64))
def test_norm_bound_covers_every_factor(seed, n):
    seq = seeded_system(seed)
    report = seq.validate((-64, 64))
    assert spectral_norm(seq.evaluate(n)) <= report.m_hat + 1e-12
    assert spectral_norm(seq.inverse_at(n)) <= report.m_hat + 1e-12


@settings(relaxed, max_examples=15)
@given(seed=seeds,
       x=st.floats(-2.0, 2.0, allow_nan=False),
       y=st.floats(-2.0, 2.0, allow_nan=False),
       c=st.floats(0.05, 20.0, allow_nan=False))
def test_bohl_order_and_scaling_invariance(seed, x, y, c):
    xi = np.array([x, y])
    assume(np.linalg.norm(xi) > 1e-3)
    seq = seeded_system(seed)
    est = bohl_exponents(seq, xi, SMALL)
    assert est.lower <= est.upper
    scaled = bohl_exponents(seq, c * xi, SMALL)
    assert scaled.lower == np.float64(est.lower).item() or \
        abs(scaled.lower - est.lower) <= 1e-12 * abs(est.lower)
    assert abs(scaled.upper - est.upper) <= 1e-12 * abs(est.upper)
    exact = bohl_exponents(seq, 0.25 * xi, SMALL)
    assert (exact.lower, exact.upper) == (est.lower, est.upper)


@settings(relaxed, max_examples=15)
@given(seed=seeds, lo=st.floats(0.2, 1.0), width=st.floats(1.01, 1.5))
def test_scalar_route_matches_matrix_route(seed, lo, width):
    u = ScalarSequence.seeded(seed, (lo, lo * width))
    got = scalar_bohl(u, SMALL)
    est = bohl_exponents(MatrixSequence.diagonal([u]), [1.0], SMALL)
    assert abs(got[0] - est.lower) <= 1e-10
    assert abs(got[1] - est.upper) <= 1e-10


@settings(relaxed, max_examples=5)
@given(seed=seeds, d=st.integers(1, 3))
def test_spectrum_has_at_most_d_intervals(seed, d):
    seq = separated_banded_diagonal(seed, d=d)
    est = estimate_spectrum(seq)
    assert 1 <= len(est.intervals) <= d
    assert est.gap_ranks[0] == 0 and est.gap_ranks[-1] == d
    report = seq.validate((-384, 384))
    for iv in est.intervals:
        assert 1.0 / report.m_hat - 1e-9 <= iv.a <= iv.b <= report.m_hat + 1e-9


@settings(relaxed, max_examples=5)
@given(seed=seeds)
def test_orthogonal_change_of_variables_preserves_spectrum(seed):
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    q2, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    a = q1 @ np.diag([0.5, 1.7]) @ q1.T
    b = q2.T @ a @ q2
    est_a = estimate_spectrum(MatrixSequence.constant(a))
    est_b = estimate_spectrum(MatrixSequence.constant(b))
    assert len(est_a.intervals) == len(est_b.intervals) == 2
    for iva, ivb in zip(est_a.intervals, est_b.intervals):
        assert abs(iva.a - ivb.a) <= 5e-3
        assert abs(iva.b - ivb.b) <= 5e-3


@settings(relaxed, max_examples=8)
@given(seed=seeds, n=st.integers(-10, 10))
def test_certified_projector_commutes_near_time_zero(seed, n):
    seq = MatrixSequence.seeded(seed, bands=((0.4, 0.6), (1.5, 2.0)))
    verdict = dichotomy_verdict(seq, 1.0)
    assert verdict.is_certificate
    assert verdict.rank == 1
    fam = projector_family(seq, verdict)
    assert fam.commutation_residual(n) <= 1e-8
