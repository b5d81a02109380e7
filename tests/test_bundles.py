import functools
import json

import numpy as np
import pytest

from dichospec import dichotomy
from dichospec.bundles import (
    ProjectorFamily,
    SpectralBundleFiber,
    bundle_fibers,
    projector_family,
    restricted_fiber_system,
    whitney_sum_check,
)
from dichospec.cli import spectrum_payload
from dichospec.dichotomy import (DichotomyAnalyzer, DichotomyParams, SpectralInterval,
                                 SpectrumEstimate, estimate_spectrum)
from dichospec.dichotomy import test_dichotomy as dichotomy_verdict
from dichospec.errors import (ParameterError, SingularMatrixError, SubspaceError,
                              ValidationError)
from dichospec.linalg import (NULLSPACE_RTOL, _nullspace, canonical_basis, frame_sweep,
                              min_principal_angle, principal_angles)
from dichospec.sequences import MatrixSequence
from bruteforce import restricted_by_intersection
from systems import SEEDED_BANDS, random_periodic, separated_banded_diagonal

dichotomy_verdict.__test__ = False


def diag_2_half():
    return MatrixSequence.constant(np.diag([2.0, 0.5]))


def quarter_turn():
    return MatrixSequence.constant([[0.0, -1.0], [1.0, 0.0]])


def axis(i, d=2):
    return np.eye(d)[:, [i]]


# -- projector families ------------------------------------------------------


def test_autonomous_projector_is_constant_diagonal():
    seq = diag_2_half()
    fam = projector_family(seq, dichotomy_verdict(seq, 1.0))
    assert fam.rank == 1
    want = np.diag([0.0, 1.0])  # projects onto the decaying axis
    for n in (-40, -3, 0, 5, 60):
        assert np.allclose(fam.at(n), want, atol=1e-9)
    assert np.allclose(fam.at(7), want, atol=1e-9)


def test_projector_commutes_with_the_dynamics():
    diag = diag_2_half()
    fam = projector_family(diag, dichotomy_verdict(diag, 1.0))
    assert fam.window == 256
    for n in range(-fam.window, fam.window):
        assert fam.commutation_residual(n) <= 1e-8
    systems = [MatrixSequence.seeded(0, SEEDED_BANDS[d]) for d in (2, 3, 6)]
    systems.append(MatrixSequence.seeded(12, bands=((0.4, 0.55), (1.6, 1.9))))
    for seq in systems:
        for cert in estimate_spectrum(seq).gap_certificates:
            if cert is None:
                continue
            fam = projector_family(seq, cert)
            # P(0) is the certificate's splitting
            assert np.allclose(fam.at(0) @ cert.stable_basis, cert.stable_basis, atol=1e-8)
            assert np.allclose(fam.at(0) @ cert.unstable_basis, 0.0, atol=1e-8)
            for n in range(-fam.window, fam.window):
                assert fam.commutation_residual(n) <= 1e-8, (seq.dimension, cert.rank, n)


def test_projector_image_is_gamma_independent_within_a_gap():
    seq = MatrixSequence.seeded(12, bands=((0.4, 0.55), (1.6, 1.9)))
    analyzer = DichotomyAnalyzer(seq)
    base = projector_family(seq, analyzer.verdict(1.0))
    shifted = projector_family(seq, analyzer.verdict(1.05))
    for n in (-15, 0, 15):
        assert np.linalg.norm(base.at(n) - shifted.at(n), 2) <= 1e-8


def test_projector_rejects_non_certificate():
    seq = diag_2_half()
    with pytest.raises(ValidationError):
        projector_family(seq, dichotomy_verdict(seq, 2.0))


def test_projector_refuses_times_outside_its_window():
    seq = diag_2_half()
    fam = projector_family(seq, dichotomy_verdict(seq, 1.0))
    w = fam.window
    for n in (-w - 1, w + 1):
        with pytest.raises(ParameterError, match="outside the projector window"):
            fam.at(n)
    with pytest.raises(ParameterError, match="outside the projector window"):
        fam.commutation_residual(w)


def test_projector_stack_must_be_idempotent():
    seq = diag_2_half()
    fam = projector_family(seq, dichotomy_verdict(seq, 1.0))
    stack = fam.projectors.copy()
    stack[3] = [[0.5, 0.0], [0.0, 0.5]]
    with pytest.raises(ValidationError):
        ProjectorFamily(gamma=1.0, rank=1, projectors=stack, factors=fam.factors)


# -- fibers -------------------------------------------------------------------


def test_autonomous_diagonal_fibers_align_with_axes():
    seq = diag_2_half()
    est = estimate_spectrum(seq)
    fibers = bundle_fibers(est)
    assert [f.dimension for f in fibers] == [1, 1]
    # interval order is ascending: first 0.5 (second axis), then 2 (first)
    assert min_principal_angle(fibers[0].basis, axis(1)) <= 1e-9
    assert min_principal_angle(fibers[1].basis, axis(0)) <= 1e-9
    # canonical bases: the largest entry of a line's basis is positive
    assert fibers[0].basis[1, 0] > 0 and fibers[1].basis[0, 0] > 0
    assert fibers[0].contains(np.array([0.0, 3.0]))
    assert not fibers[0].contains(np.array([1.0, 1.0]))


@pytest.mark.parametrize("v", [[1.0, 1e-5], [1.0, 0.1], [1.0, 1e-7], [1.0, 1e-9],
                               [-3.0, 2e-12], [0.5, 0.0], [0.0, 0.0]], ids=repr)
def test_fiber_membership_ignores_power_of_two_scaling(v):
    # the norms once overflowed or vanished (and warned), so [1e200, 1e195]
    # and [1e-170, 1e-171] read as lying in span(e1) while [1, 1e-5] did not
    fiber = SpectralBundleFiber(index=1, basis=np.eye(2)[:, [0]], dimension=1)
    v = np.array(v)
    for k in (-1000, -600, 600, 1000):
        assert fiber.contains(2.0 ** k * v) == fiber.contains(v)
    assert not fiber.contains(np.array([1e200, 1e195]))
    assert not fiber.contains(np.array([1e-170, 1e-171]))


@pytest.mark.parametrize("basis", [[[np.nan], [0.0]], [[np.inf], [0.0]], [[-np.inf], [0.0]],
                                   [[1.0, 0.0], [0.0, np.nan]]], ids=repr)
def test_fiber_refuses_a_non_finite_basis(basis):
    # a NaN basis raised numpy's "SVD did not converge", and [[inf], [0]]
    # passed as orthonormal
    basis = np.array(basis)
    with pytest.raises(ValidationError, match="fiber basis is not finite"):
        SpectralBundleFiber(index=1, basis=basis, dimension=basis.shape[1])


@pytest.mark.parametrize("v", [[np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0], [1.0, np.nan],
                               [1.0, 0.0, 0.0], [1.0], []], ids=repr)
def test_fiber_membership_refuses_non_finite_or_misshapen_vectors(v):
    # [inf, 0] warned "invalid value encountered in matmul", [nan, 0] read
    # as not in the fiber, and a length-3 vector raised numpy's ValueError
    fiber = SpectralBundleFiber(index=1, basis=np.eye(2)[:, [0]], dimension=1)
    with pytest.raises(ParameterError, match="need a finite vector of length 2"):
        fiber.contains(np.array(v))
    assert fiber.contains([3.0, 0.0]) and not fiber.contains([0.0, 1.0])


def test_rotation_fiber_is_the_whole_plane():
    est = estimate_spectrum(quarter_turn())
    fibers = bundle_fibers(est)
    assert len(fibers) == 1
    assert fibers[0].dimension == 2
    assert fibers[0].ambient_dimension == 2


def test_seeded_diagonal_fibers_recover_coordinate_axes():
    seq = separated_banded_diagonal(7)
    est = estimate_spectrum(seq)
    assert len(est.intervals) == 3
    fibers = bundle_fibers(est)
    for i, fiber in enumerate(fibers):
        assert fiber.dimension == 1
        assert min_principal_angle(fiber.basis, axis(i, d=3)) <= 1e-6


def test_fibers_are_gamma_independent():
    # rebuilding each fiber from certificates at perturbed gap points moves
    # it by a negligible principal angle
    seq = separated_banded_diagonal(7)
    analyzer = DichotomyAnalyzer(seq)
    est = estimate_spectrum(seq, analyzer=analyzer)
    base = bundle_fibers(est)
    perturbed_certs = []
    for cert in est.gap_certificates:
        v = analyzer.verdict(cert.gamma * 1.01)
        perturbed_certs.append(v if v.is_certificate else cert)
    moved = bundle_fibers(est, tuple(perturbed_certs))
    for f0, f1 in zip(base, moved):
        assert float(principal_angles(f0.basis, f1.basis).max()) <= 1e-6


def test_whitney_sum_passes_on_clean_splitting():
    est = estimate_spectrum(diag_2_half())
    report = whitney_sum_check(bundle_fibers(est))
    assert report.passed
    assert report.dimension_sum == 2
    assert report.smallest_singular_value == pytest.approx(1.0, abs=1e-9)
    assert len(report.rows()) >= 1


def test_whitney_sum_rejects_duplicated_fiber():
    fiber = SpectralBundleFiber(index=1, basis=axis(0), dimension=1)
    twin = SpectralBundleFiber(index=2, basis=axis(0), dimension=1)
    report = whitney_sum_check([fiber, twin])
    assert not report.passed
    assert report.dimension_sum == 2
    assert report.smallest_singular_value <= 1e-12


def test_whitney_sum_rejects_missing_dimension():
    fiber = SpectralBundleFiber(index=1, basis=axis(0, d=3), dimension=1)
    report = whitney_sum_check([fiber])
    assert not report.passed


def test_fiber_count_must_match_gaps():
    est = estimate_spectrum(diag_2_half())
    with pytest.raises(SubspaceError):
        bundle_fibers(est, est.gap_certificates[:2])


def test_gap_without_certificate_is_refused_by_name(monkeypatch):
    # the top probe is in-spectrum, so the grid edge stands in for rank 2
    monkeypatch.setattr(dichotomy, "RESID_MAX", 0.2)
    seq = MatrixSequence.seeded(2, ((0.3, 0.5), (1.2, 2.0)))
    est = estimate_spectrum(seq, params=DichotomyParams(window=64, burn_in=32))
    assert est.gap_ranks == (0, 1, 2)
    assert est.gap_certificates[-1] is None
    with pytest.raises(SubspaceError, match=r"gap 2 \(rank 2\) holds no certificate"):
        bundle_fibers(est)
    payload = spectrum_payload("seeded", est)
    assert payload["gap_certificates"][-1] is None
    assert json.loads(json.dumps(payload))["gap_certificates"][-1] is None


def test_fiber_basis_must_be_orthonormal():
    with pytest.raises(ValidationError):
        SpectralBundleFiber(index=1, basis=np.array([[2.0], [0.0]]), dimension=1)


@pytest.mark.parametrize("index", [1.5, True, -1, 0])
def test_fiber_index_must_be_a_positive_integer(index):
    with pytest.raises(ValidationError, match="fiber index"):
        SpectralBundleFiber(index=index, basis=axis(0), dimension=1)
    assert SpectralBundleFiber(index=np.int64(2), basis=axis(0), dimension=1).index == 2


def test_restricted_system_recovers_exact_fiber_rates():
    # [[2,1],[0,1/2]] has the slow eigendirection (-2/3, 1); a forward
    # product from any float approximation of it drifts onto the fast
    # direction, while the tracked restriction stays exactly at rate 1/2
    seq = MatrixSequence.constant([[2.0, 1.0], [0.0, 0.5]])
    est = estimate_spectrum(seq)
    basis1, slow = restricted_fiber_system(seq, est, 1, window=64)
    basis2, fast = restricted_fiber_system(seq, est, 2, window=64)
    direction = np.array([-2.0 / 3.0, 1.0])
    direction /= np.linalg.norm(direction)
    assert min_principal_angle(basis1, direction.reshape(2, 1)) <= 1e-12
    # canonical frames keep their sign along the orbit, so even the signed
    # one-step factors are the eigenvalues
    assert np.max(np.abs(slow.window(-64, 63) - 0.5)) <= 1e-12
    assert np.max(np.abs(fast.window(-64, 63) - 2.0)) <= 1e-12
    assert slow.dimension == fast.dimension == 1


def _nonnormal_with_its_spectrum(c=1e4):
    # the estimate merges {0.5, 2} into one interval at c = 1e4
    # (transversality is refuted at splitting angle 1.5e-4), so the
    # restriction is checked against the true gap ranks
    seq = MatrixSequence.constant([[2.0, c], [0.0, 0.5]])
    est = SpectrumEstimate(intervals=(SpectralInterval(0.5, 0.5), SpectralInterval(2.0, 2.0)),
                           gap_ranks=(0, 1, 2), gap_certificates=(), grid=(),
                           refine_tol=1e-3, m_hat=c, window=256, dimension=2)
    return seq, est


def _rotation_block_with_its_spectrum():
    # rates 1/2, a turning plane at rate 1 and 2, coupled upward: the
    # middle fiber is a plane (k = 2) between gap ranks 1 and 3
    c, s = np.cos(1.0), np.sin(1.0)
    seq = MatrixSequence.constant([[0.5, 0.3, 0.1, 0.2], [0.0, c, -s, 0.3],
                                   [0.0, s, c, 0.1], [0.0, 0.0, 0.0, 2.0]])
    est = SpectrumEstimate(intervals=tuple(SpectralInterval(r, r) for r in (0.5, 1.0, 2.0)),
                           gap_ranks=(0, 1, 3, 4), gap_certificates=(), grid=(),
                           refine_tol=1e-3, m_hat=2.1, window=256, dimension=4)
    return seq, est


@pytest.mark.parametrize("w", [150, 2048])
@pytest.mark.parametrize("c", [1e2, 1e4, 1e6])
def test_nonnormal_fibers_carry_their_exact_rates(c, w):
    # each eigendirection of [[2, c], [0, 1/2]] is a fiber, so the exact
    # one-step factors are 1/2 and 2; a frame taken as the complement of
    # the flag's trailing column instead would be off by about c * eps
    seq, est = _nonnormal_with_its_spectrum(c)
    _, slow = restricted_fiber_system(seq, est, 1, window=w)
    _, fast = restricted_fiber_system(seq, est, 2, window=w)
    assert np.max(np.abs(slow.table - 0.5)) <= 1e-15
    assert np.all(fast.table == 2.0)


@pytest.mark.parametrize("build", [
    *[lambda d=d: MatrixSequence.seeded(5, bands=SEEDED_BANDS[d]) for d in (2, 3, 6)],
    *[lambda d=d: random_periodic(3, d, 3) for d in (2, 3, 6)],
    _nonnormal_with_its_spectrum,
    _rotation_block_with_its_spectrum,
], ids=["seeded-d2", "seeded-d3", "seeded-d6", "periodic-d2", "periodic-d3", "periodic-d6",
        "nonnormal", "rotation-block"])
def test_restricted_system_matches_the_per_fiber_reference(build):
    # the reference intersects two partial frames at every time; the flag
    # pair must give the same fiber and the same table up to a change of
    # orthonormal basis, which leaves projectors and singular values alone
    built = build()
    seq, est = built if isinstance(built, tuple) else (built, estimate_spectrum(built))
    w = 150  # 2w + 1 times span two sweep pieces and two intersection slices
    restricted = 0
    for i in range(1, len(est.intervals) + 1):
        basis, system = restricted_fiber_system(seq, est, i, window=w)
        if system is seq:
            continue
        restricted += 1
        want_basis, want_table = restricted_by_intersection(
            seq, est.gap_ranks[i - 1], est.gap_ranks[i], w)
        assert np.max(np.abs(basis @ basis.T - want_basis @ want_basis.T)) <= 1e-12
        assert np.max(np.abs(np.linalg.svd(system.table, compute_uv=False)
                             - np.linalg.svd(want_table, compute_uv=False))) <= 1e-12
        if basis.shape[1] == 1:
            # a line's canonical frame has its largest entry positive, at
            # every time, so the frames and the signed tables agree too
            assert np.max(np.abs(basis - want_basis)) <= 1e-12
            assert np.max(np.abs(system.table - want_table)) <= 1e-12
    assert restricted >= 2


@pytest.mark.parametrize("build", [
    lambda: MatrixSequence.seeded(5, bands=SEEDED_BANDS[3]),
    lambda: random_periodic(3, 6, 3),
    _nonnormal_with_its_spectrum,
], ids=["seeded-d3", "periodic-d6", "nonnormal"])
def test_fibers_share_one_flag_sweep_per_key(build, monkeypatch):
    # the flag pair is swept once per (sequence, window, burn-in) and every
    # fiber reads its rows from it; burn_in 4 and 8 normalize to one key
    def fresh():
        built = build()
        return built[0] if isinstance(built, tuple) else built

    built = build()
    seq, est = built if isinstance(built, tuple) else (built, estimate_spectrum(built))
    fibers = [i for i in range(1, len(est.intervals) + 1)
              if est.gap_ranks[i] - est.gap_ranks[i - 1] < seq.dimension]
    assert len(fibers) >= 2
    keys = [(150, 16), (2048, 128), (150, 4), (150, 8)]
    calls = [(i, w, burn) for i in fibers for w, burn in keys]
    np.random.default_rng(0).shuffle(calls)
    for i, w, burn in calls:
        basis, system = restricted_fiber_system(seq, est, i, window=w, burn_in=burn)
        want_basis, want_system = restricted_fiber_system(fresh(), est, i,
                                                          window=w, burn_in=burn)
        assert np.array_equal(basis, want_basis)
        assert np.array_equal(system.table, want_system.table)

    sweeps = []

    def counted_sweep(*args):
        sweeps.append(args)
        return frame_sweep(*args)

    monkeypatch.setattr("dichospec.bundles.frame_sweep", counted_sweep)
    restricted_fiber_system(fresh(), est, fibers[0], window=150)
    one_fiber = len(sweeps)
    sweeps.clear()
    seq = fresh()
    for i in fibers:
        restricted_fiber_system(seq, est, i, window=150)
    assert len(sweeps) == one_fiber > 0


def test_failed_flag_build_leaves_no_entry():
    # the singular factor A(100) lies inside window 150 but not window 64;
    # a build that raises keeps nothing, so every call raises alike and the
    # window-64 restriction rebuilds to the same result
    rates = np.diag([0.5, 1.0, 2.0])
    est = estimate_spectrum(MatrixSequence.constant(rates))
    table = np.stack([rates] * 801)
    table[100 + 400] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
    seq = MatrixSequence.tabulated(table, start=-400)
    basis, system = restricted_fiber_system(seq, est, 2, window=64, burn_in=16)
    for _ in range(2):
        with pytest.raises(SingularMatrixError, match="n=100 ") as raised:
            restricted_fiber_system(seq, est, 2, window=150, burn_in=16)
        assert raised.value.n == 100
        assert seq._flag_cache == {}
    again_basis, again = restricted_fiber_system(seq, est, 2, window=64, burn_in=16)
    assert np.array_equal(again_basis, basis)
    assert np.array_equal(again.table, system.table)


# (seed, d, fiber) of periodic systems whose restricted table moves at the
# window's ends when the flags get 1024 steps of burn-in instead of 128
_END_FIBERS = [(0, 3, 1), (2, 6, 3)]


@functools.lru_cache(maxsize=None)
def _tables_at_two_burn_ins(seed, d, index):
    """A function of a row index: how far (relative, largest entry) that row
    of a fiber's restricted table at window 2048 with the default burn-in
    lies from the same row with 1024 steps of burn-in."""
    seq = random_periodic(seed, d, 3)
    est = estimate_spectrum(seq)
    table = restricted_fiber_system(seq, est, index, window=2048)[1].table
    longer = restricted_fiber_system(seq, est, index, window=2048, burn_in=1024)[1].table
    return lambda row: np.max(np.abs(table[row] - longer[row])) / np.max(np.abs(longer[row]))


def test_restricted_table_at_time_zero_is_converged():
    # each flag has about 2,000 steps behind it at n = 0
    for fiber in _END_FIBERS:
        assert _tables_at_two_burn_ins(*fiber)(2048) <= 1e-9, fiber


@pytest.mark.xfail(strict=True, reason="flag B reaches n = w - 1, and flag F n = -w, after only "
                   "burn - binit (< 128) steps, so the end rows are not converged")
def test_restricted_table_at_the_window_ends_is_converged():
    for fiber in _END_FIBERS:
        distance = _tables_at_two_burn_ins(*fiber)
        assert distance(0) <= 1e-8 and distance(-1) <= 1e-8, fiber


def test_restricted_system_passes_whole_space_through():
    rotation = MatrixSequence.constant([[0.0, -1.0], [1.0, 0.0]])
    est = estimate_spectrum(rotation)
    assert len(est.intervals) == 1
    basis, back = restricted_fiber_system(rotation, est, 1, window=32)
    assert back is rotation
    assert np.array_equal(basis, np.eye(2))


def test_restricted_system_names_the_time_it_loses_track():
    # constant rates (0.5, 1, 2), except that the factor into n = 100
    # squashes the planes framing the middle fiber to within 1e-10 of
    # each other and the factor out of it undoes the squash; the planes
    # intersect in a line at every other time
    rates = np.diag([0.5, 1.0, 2.0])
    est = estimate_spectrum(MatrixSequence.constant(rates))
    w, burn, n_bad = 200, 128, 100
    squash = np.linalg.inv(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-10]]).T)
    table = np.stack([rates] * (2 * (w + burn) + 1))
    table[n_bad - 1 + w + burn] = squash @ rates
    table[n_bad + w + burn] = rates @ np.linalg.inv(squash)
    seq = MatrixSequence.tabulated(table, start=-w - burn)
    # the second call reads the flags the first one swept and raises alike
    messages = []
    for _ in range(2):
        with pytest.raises(SubspaceError,
                           match=f"lost track at n = {n_bad}: .* dimension 2, not 1") as raised:
            restricted_fiber_system(seq, est, 2, window=w, burn_in=burn)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


_TILT_W, _TILT_BURN, _TILT_N = 200, 128, 100


def _tilted_rates(tilt):
    """Constant rates (0.5, 1, 2, 4) on [-328, 328], except that the factor
    into n = 100 is tilt @ rates and the one out of it rates @ tilt^-1,
    with the spectrum of the untilted rates."""
    rates = np.diag([0.5, 1.0, 2.0, 4.0])
    est = estimate_spectrum(MatrixSequence.constant(rates))
    assert est.gap_ranks == (0, 1, 2, 3, 4)
    table = np.stack([rates] * (2 * (_TILT_W + _TILT_BURN) + 1))
    table[_TILT_N - 1 + _TILT_W + _TILT_BURN] = tilt @ rates
    table[_TILT_N + _TILT_W + _TILT_BURN] = rates @ np.linalg.inv(tilt)
    return MatrixSequence.tabulated(table, start=-_TILT_W - _TILT_BURN), est


def _counted_nullspace(monkeypatch):
    calls = []

    def counted_nullspace(rows):
        calls.append(rows.copy())
        return _nullspace(rows)

    monkeypatch.setattr("dichospec.bundles._nullspace", counted_nullspace)
    return calls


def test_nearly_tangent_flags_fall_back_to_the_nullspace_count(monkeypatch):
    # the factor into n = 100 turns the stable family of fiber 2's gap
    # below, e1, to within 1e-10 of the unstable one, span(e2, e3, e4), and
    # the factor out of it turns it back; fiber 2 is the line e2 throughout
    w, burn, i = _TILT_W, _TILT_BURN, _TILT_N + _TILT_W
    tilt = np.eye(4)
    tilt[0, 0], tilt[1, 0] = 1e-10, 1.0
    seq, est = _tilted_rates(tilt)
    calls = _counted_nullspace(monkeypatch)
    basis, system = restricted_fiber_system(seq, est, 2, window=w, burn_in=burn)
    # one time falls back, n = 100, on the complement rows of the two families
    f, b, _ = seq._flag_cache[(w, burn)]
    assert [len(rows) for rows in calls] == [1]
    assert np.array_equal(calls[0][0], np.concatenate([f[i, :, 3:], b[i, :, 2:]], 1).T)
    want_basis, want_table = restricted_by_intersection(seq, 1, 2, w, burn)
    assert np.max(np.abs(basis - want_basis)) <= 1e-12
    assert np.max(np.abs(system.table - want_table)) <= 1e-12


def test_small_determinant_alone_falls_back_to_the_nullspace_count(monkeypatch):
    # the factor into n = 100 tilts the stable family of fiber 3's gap
    # below, span(e1, e2), to within 1e-4 of the unstable one, span(e3, e4),
    # in both directions, and the factor out of it tilts it back: M1 at
    # n = 100 has singular values 1e-4 and 1e-4, above the cutoff, but
    # determinant 1e-8, below it
    w, burn, i = _TILT_W, _TILT_BURN, _TILT_N + _TILT_W
    tilt = np.eye(4)
    tilt[0, 0] = tilt[1, 1] = 1e-4
    tilt[2, 0] = tilt[3, 1] = 1.0
    seq, est = _tilted_rates(tilt)
    calls = _counted_nullspace(monkeypatch)
    basis, system = restricted_fiber_system(seq, est, 3, window=w, burn_in=burn)
    assert [len(rows) for rows in calls] == [1]
    f, b, _ = seq._flag_cache[(w, burn)]
    assert np.linalg.svd(f[i, :, 2:].T @ b[i, :, :2], compute_uv=False)[-1] > 2 * NULLSPACE_RTOL
    assert np.array_equal(calls[0][0], np.concatenate([f[i, :, 2:], b[i, :, 3:]], 1).T)
    want_basis, want_table = restricted_by_intersection(seq, 2, 3, w, burn)
    assert np.max(np.abs(basis - want_basis)) <= 1e-12
    assert np.max(np.abs(system.table - want_table)) <= 1e-12


@pytest.mark.parametrize("theta", [1.0, 0.3, 1e-2, 1e-3])
@pytest.mark.parametrize("a, b", [(0.5, 2.0), (0.8, 1.25), (1.0, 1.1)])
def test_fibers_that_exist_only_on_z_match_the_exact_lines(a, b, theta):
    # diag(a, b) behind zero and R diag(b, a) R^T from zero on: the spectrum
    # is {a, b} (Palmer's lemma), the slow fiber at time zero is the stable
    # line of the forward half, span(R e2), and the fast one the unstable
    # line of the backward half, span(e2), theta apart
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    seq = MatrixSequence.piecewise(MatrixSequence.constant(np.diag([a, b])),
                                   MatrixSequence.constant(rot @ np.diag([b, a]) @ rot.T))
    est = estimate_spectrum(seq)
    assert est.gap_ranks == (0, 1, 2)
    lines = [canonical_basis(rot[:, [1]]), canonical_basis(np.eye(2)[:, [1]])]
    for fiber, line in zip(bundle_fibers(est), lines):
        assert np.max(np.abs(fiber.basis - line)) <= 1e-15
    for w in (256, 2048):
        for index, line in enumerate(lines, 1):
            basis, system = restricted_fiber_system(seq, est, index, window=w)
            assert np.max(np.abs(basis - line)) <= 1e-15
            rates = system.table[w:, 0, 0] if index == 1 else system.table[:w, 0, 0]
            rate = a if index == 1 else b
            assert np.max(np.abs(rates - rate)) <= 1e-15 * rate


@pytest.mark.parametrize("bad", [{"window": 64.7}, {"window": "64"}, {"window": True},
                                 {"burn_in": 16.5}, {"burn_in": "16"}, {"burn_in": False}])
def test_restricted_system_refuses_non_integer_windows(bad):
    # int() would run these as window 64, 64 and 1 and burn-in 16, 16 and 8
    seq, est = _nonnormal_with_its_spectrum()
    with pytest.raises(ParameterError, match="must be an integer"):
        restricted_fiber_system(seq, est, 1, **{"window": 64, **bad})
    assert seq._flag_cache == {}


def test_restricted_system_rejects_bad_index():
    est = estimate_spectrum(diag_2_half())
    with pytest.raises(ParameterError):
        restricted_fiber_system(diag_2_half(), est, 3, window=32)


@pytest.mark.parametrize("index", [True, 1.0])
def test_restricted_system_takes_integer_fiber_indices_only(index):
    # True was taken as fiber 1 and 1.0 raised a bare TypeError
    est = estimate_spectrum(diag_2_half())
    with pytest.raises(ParameterError, match="fiber index must be an integer"):
        restricted_fiber_system(diag_2_half(), est, index, window=32)


def _rates_3d():
    return MatrixSequence.constant(np.diag([0.5, 1.0, 2.0]))


def test_projector_family_refuses_a_verdict_of_another_system():
    # a rank-2 certificate of a 3-d system once gave 513 identity projectors
    verdict = DichotomyAnalyzer(_rates_3d()).verdict(1.5)
    assert verdict.is_certificate and verdict.rank == 2
    with pytest.raises(ParameterError, match="3-dimensional system, not this 2-dimensional"):
        projector_family(MatrixSequence.constant([[0.5, 1.0], [0.0, 2.0]]), verdict)


@pytest.mark.parametrize("index", [1, 2])
def test_restricted_system_refuses_a_spectrum_of_another_system(index):
    # fiber 1 once came back and fiber 2 raised a bare LinAlgError
    est = estimate_spectrum(_rates_3d())
    seq = MatrixSequence.constant([[0.5, 1.0], [0.0, 2.0]])
    with pytest.raises(ParameterError, match="3-dimensional system, not this 2-dimensional"):
        restricted_fiber_system(seq, est, index, window=64)
    assert seq._flag_cache == {}


def test_bundle_fibers_refuse_certificates_of_another_system():
    # three-dimensional fibers once came back for a two-dimensional spectrum
    est = estimate_spectrum(MatrixSequence.constant(np.diag([0.5, 2.0])))
    analyzer = DichotomyAnalyzer(_rates_3d())
    certs = tuple(analyzer.verdict(g) for g in (0.3, 0.7, 1.5))
    assert [c.rank for c in certs] == list(est.gap_ranks) == [0, 1, 2]
    with pytest.raises(ParameterError, match="3-dimensional system, not this 2-dimensional"):
        bundle_fibers(est, certificates=certs)
