from dataclasses import replace
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from bruteforce import (bohl_enumerate, fiber_containment_by_fiber, fiber_rows_by_sweep,
                        orbit_lognorm_table)
from dichospec import bundles
from dichospec.bohl import GAP_MIN, TAIL_FRACTION, BohlParams, bohl_exponents, scalar_bohl
from dichospec.bundles import SpectralBundleFiber
from dichospec.containment import (
    TOLERANCE_FACTOR,
    verify_endpoint_attainability,
    verify_fiber_containment,
    verify_global_containment,
)
from dichospec.dichotomy import (DichotomyAnalyzer, DichotomyParams, SpectralInterval,
                                 estimate_spectrum)
from dichospec.errors import ParameterError, SubspaceError
from dichospec.scenario import load_scenario
from dichospec.sequences import MatrixSequence, ScalarSequence
from dichospec.triangularize import SignificanceReport
from systems import random_periodic, separated_banded_diagonal

FAST = BohlParams(window=512)


def diag_2_half():
    return MatrixSequence.constant(np.diag([2.0, 0.5]))


def diag_2_half_structural():
    # the diagonal kind exposes per-coordinate scalar data, which the
    # endpoint check needs; a constant matrix that happens to be diagonal
    # does not
    return MatrixSequence.diagonal([ScalarSequence.constant(2.0),
                                    ScalarSequence.constant(0.5)])


def piecewise_scalar():
    return MatrixSequence.piecewise(MatrixSequence.constant([[0.5]]),
                                    MatrixSequence.constant([[2.0]]))


def test_fiber_containment_on_autonomous_diagonal():
    seq = diag_2_half()
    est = estimate_spectrum(seq)
    report = verify_fiber_containment(seq, est, samples_per_fiber=10, params=FAST)
    assert report.passed
    assert report.check == "fiber-containment"
    assert [r.fiber_index for r in report.rows] == [1, 2]  # one row per 1-d fiber
    assert all(r.margin > 0 for r in report.rows)
    assert report.pass_rate == 1.0
    assert report.base_tolerance == pytest.approx(TOLERANCE_FACTOR * est.refine_tol)
    assert "pass" in report.summary()


def test_fiber_containment_refuses_a_fiber_index_outside_the_intervals():
    # on a diagonal system a fiber of index 0 was checked against the last
    # interval and one of index 3 raised a bare IndexError
    seq = diag_2_half_structural()
    est = estimate_spectrum(seq)
    slow = np.eye(2)[:, [1]]
    for fiber in (SpectralBundleFiber(index=3, basis=slow, dimension=1),
                  SimpleNamespace(index=0, basis=slow, dimension=1)):
        with pytest.raises(ParameterError, match=f"fiber index {fiber.index} out of range 1..2"):
            verify_fiber_containment(seq, est, (fiber,), samples_per_fiber=2, params=FAST)


def test_global_containment_covers_mixed_vectors():
    # the rows sit on the fiber directions, and every mixed vector keeps
    # its Bohl interval inside the range of the rows
    seq = diag_2_half()
    est = estimate_spectrum(seq)
    params = BohlParams(window=512, two_sided=True)
    report = verify_global_containment(seq, est, samples=8, params=params)
    assert report.passed
    assert [r.fiber_index for r in report.rows] == [1, 2]
    lo, hi = est.hull
    for row in report.rows:
        assert row.target == (lo, hi)
        assert row.lower >= lo - row.tolerance
        assert row.upper <= hi + row.tolerance
    floor = min(r.lower - r.tolerance for r in report.rows)
    ceiling = max(r.upper + r.tolerance for r in report.rows)
    mixed = np.random.default_rng(8).standard_normal((8, 2))
    assert np.all(mixed != 0.0)
    for xi in mixed:
        single = bohl_exponents(seq, xi, params)
        assert floor <= single.lower <= single.upper <= ceiling


def test_global_check_reaches_the_bottom_fiber():
    # on autonomous-diagonal's system the first interval moved up 4 %: its
    # fiber's row leaves the hull, where 50 one-sided samples of the plane
    # all read the top fiber's rates and passed
    scn = load_scenario(str(resources.files("dichospec") / "scenarios"
                            / "autonomous-diagonal.json"))
    est = estimate_spectrum(scn.system, refine_tol=scn.analysis["refine_tol"],
                            params=scn.dichotomy_params())
    first = est.intervals[0]
    moved = replace(est, intervals=(replace(first, a=1.04 * first.a, b=1.04 * first.b),
                                    *est.intervals[1:]))
    params = scn.bohl_params()
    assert not params.two_sided
    assert verify_global_containment(scn.system, est, params=params).passed
    report = verify_global_containment(scn.system, moved, params=params)
    assert report.status == "fail"
    failed, = report.failures()
    assert failed.fiber_index == 1 and failed.xi == (0.0, 1.0)
    assert failed.lower < moved.hull[0] - failed.tolerance


@pytest.mark.parametrize("check", [verify_fiber_containment, verify_global_containment],
                         ids=["fiber", "global"])
def test_sampled_checks_refuse_an_estimate_without_fibers(check):
    # a degenerate estimate certifies no gap, so it has no fibers to
    # check on; the global check once sampled the plane against its hull
    seq = diag_2_half()
    est = estimate_spectrum(seq)
    degenerate = replace(est, intervals=(SpectralInterval(*est.hull, low_confidence=True),),
                         gap_ranks=(0, 2), gap_certificates=(), degenerate=True)
    with pytest.raises(SubspaceError, match="need 2 gap certificates"):
        check(seq, degenerate, params=FAST)


def test_mixed_vector_attains_both_hull_endpoints():
    # a vector with both coordinates active sweeps the full rate range when
    # offsets run over the whole line
    est = bohl_exponents(diag_2_half(), [1.0, 1.0], BohlParams(two_sided=True))
    n = 2048
    assert est.lower == pytest.approx(0.5, abs=2.0 / n)
    assert est.upper == pytest.approx(2.0, abs=2.0 / n)


def test_rows_match_direct_enumeration():
    seq = piecewise_scalar()
    params = BohlParams(window=96, two_sided=True)
    est = estimate_spectrum(seq)
    report = verify_global_containment(seq, est, samples=3, seed=5, params=params)
    for row in report.rows:
        xi = np.array(row.xi)
        table = orbit_lognorm_table(seq, xi, -96, 96)
        want_lower, want_upper = bohl_enumerate(
            table, 96, 96, GAP_MIN, TAIL_FRACTION, True)
        assert row.lower == pytest.approx(want_lower, rel=1e-12)
        assert row.upper == pytest.approx(want_upper, rel=1e-12)


@pytest.mark.parametrize("params", [FAST, BohlParams(window=512, two_sided=True)],
                         ids=["one-sided", "two-sided"])
def test_global_check_of_a_d1_system_is_one_row(params):
    # every vector of a d = 1 system is a multiple of (1.0); 50 rows once
    # repeated its bits
    seq = piecewise_scalar()
    est = estimate_spectrum(seq)
    report = verify_global_containment(seq, est, samples=50, seed=3, params=params)
    row, = report.rows
    assert row.label == "global sample 1" and row.xi == (1.0,)
    for xi in ([1.0], [-1.0]):
        single = bohl_exponents(seq, np.array(xi), params)
        assert abs(row.lower - single.lower) <= 1e-12
        assert abs(row.upper - single.upper) <= 1e-12


def test_periodic_hull_agrees_with_monodromy_points():
    seq = random_periodic(19, d=2, p=3, spread=0.6)
    est = estimate_spectrum(seq)
    report = verify_global_containment(seq, est, samples=50, params=FAST)
    assert report.passed
    assert len(report.rows) == 50


def test_endpoints_attained_on_autonomous_diagonal():
    seq = diag_2_half_structural()
    est = estimate_spectrum(seq)
    report = verify_endpoint_attainability(seq, est)
    assert report.passed
    assert len(report.rows) == 4
    by_label = {r.label: r for r in report.rows}
    # the 0.5 interval is witnessed by the second axis, the 2 interval by
    # the first
    assert by_label["interval 1 lower endpoint"].xi == (0.0, 1.0)
    assert by_label["interval 2 upper endpoint"].xi == (1.0, 0.0)
    for row in report.rows:
        assert abs(row.lower - row.target[0]) <= row.tolerance


def test_endpoints_attained_with_isolated_point_interval():
    seq = MatrixSequence.diagonal([
        ScalarSequence.piecewise(negative=[0.5], nonnegative=[2.0]),
        ScalarSequence.constant(3.0),
    ])
    est = estimate_spectrum(seq)
    assert len(est.intervals) == 2
    report = verify_endpoint_attainability(seq, est)
    assert report.passed
    witnesses = {r.label: r.xi for r in report.rows}
    assert witnesses["interval 2 lower endpoint"] == (0.0, 1.0)
    assert witnesses["interval 2 upper endpoint"] == (0.0, 1.0)


def test_endpoints_attained_on_seeded_bands():
    seq = separated_banded_diagonal(3)
    est = estimate_spectrum(seq)
    report = verify_endpoint_attainability(seq, est)
    assert report.passed
    assert len(report.rows) == 2 * len(est.intervals)


def test_endpoints_on_significant_triangular_diagonal():
    seq = MatrixSequence.upper_triangular(
        diagonal=[ScalarSequence.constant(2.0), ScalarSequence.constant(0.5)],
        offdiagonal={(0, 1): ScalarSequence.constant(1.0)})
    est = estimate_spectrum(seq)
    report = verify_endpoint_attainability(seq, est)
    assert report.passed
    assert len(report.rows) == 2 * len(est.intervals)


def test_endpoint_refusals():
    # full matrix kinds carry no per-coordinate data
    rotation = MatrixSequence.constant([[0.0, -1.0], [1.0, 0.0]])
    est = estimate_spectrum(rotation)
    report = verify_endpoint_attainability(rotation, est)
    assert report.status == "refused"
    assert report.rows == ()
    assert report.notes and "triangularize" in report.notes[0]

    # a triangular system whose diagonal was found non-significant is
    # refused instead of read off
    tri = MatrixSequence.upper_triangular(
        diagonal=[ScalarSequence.constant(2.0), ScalarSequence.constant(0.5)],
        offdiagonal={(0, 1): ScalarSequence.constant(1.0)})
    tri_est = estimate_spectrum(tri)
    stub = SignificanceReport(spectrum=tri_est,
                              coordinate_intervals=tuple(tri_est.intervals),
                              union=tuple(tri_est.intervals),
                              symmetric_difference=0.25, tolerance=5e-3,
                              significant=False)
    refused = verify_endpoint_attainability(tri, tri_est, significance=stub)
    assert refused.status == "refused"
    assert "not significant" in refused.notes[0]


def test_endpoint_check_refuses_a_significance_report_of_another_system():
    # a significant report of a 3-d system once let this 2-d system pass
    tri = MatrixSequence.upper_triangular(
        diagonal=[ScalarSequence.constant(2.0), ScalarSequence.constant(0.5)],
        offdiagonal={(0, 1): ScalarSequence.constant(1.0)})
    other = estimate_spectrum(MatrixSequence.constant(np.diag([0.5, 1.0, 2.0])))
    report = SignificanceReport(spectrum=other, coordinate_intervals=other.intervals,
                                union=other.intervals, symmetric_difference=0.0,
                                tolerance=5e-3, significant=True)
    with pytest.raises(ParameterError, match="3-dimensional system, not this 2-dimensional"):
        verify_endpoint_attainability(tri, estimate_spectrum(tri), significance=report)


@pytest.mark.parametrize("check", [verify_fiber_containment, verify_global_containment,
                                   verify_endpoint_attainability])
def test_checks_refuse_a_negative_or_nan_tolerance(check):
    seq = diag_2_half_structural()
    est = estimate_spectrum(seq)
    # an infinite tolerance passed any target, and True was kept as a bool
    # "0.1" and 1j ended in a bare TypeError
    for tolerance in (-1.0, -1e-300, float("nan"), float("inf"), -float("inf"), True,
                      "0.1", 1j):
        with pytest.raises(ParameterError, match="tolerance must be at least 0"):
            check(seq, est, tolerance=tolerance)
    extra = {} if check is verify_endpoint_attainability else {"params": FAST}
    assert check(seq, est, tolerance=0.0, **extra).base_tolerance == 0.0


@pytest.mark.parametrize("check, key", [(verify_fiber_containment, "samples_per_fiber"),
                                        (verify_global_containment, "samples")])
def test_sample_counts_must_be_integers(check, key):
    # a two-dimensional fiber at 0.5 beside a one-dimensional one at 2, so
    # both counts set a number of rows
    seq = MatrixSequence.diagonal([ScalarSequence.constant(2.0), ScalarSequence.constant(0.5),
                                   ScalarSequence.constant(0.5)])
    est = estimate_spectrum(seq)
    assert [f.dimension for f in bundles.bundle_fibers(est)] == [2, 1]
    for count in (2.5, 3.0, True, "3"):
        with pytest.raises(ParameterError, match=f"{key} must be an integer"):
            check(seq, est, params=FAST, **{key: count})
    report = check(seq, est, params=FAST, **{key: np.int64(2)})
    assert [r.fiber_index for r in report.rows] == [1, 1, 2]


@pytest.mark.parametrize("check", [verify_fiber_containment, verify_global_containment],
                         ids=["fiber", "global"])
def test_sampled_checks_refuse_a_seed_that_is_not_a_nonnegative_integer(check):
    # numpy raised a ValueError or a TypeError, True seeded as 1 and None
    # drew an unseeded generator
    seq = diag_2_half_structural()
    est = estimate_spectrum(seq)
    for seed in (-1, 1.5, "3", True, None, float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
            check(seq, est, seed=seed, params=FAST)
    assert check(seq, est, seed=np.int64(3), params=FAST).passed


def test_reports_are_deterministic_and_batch_exact():
    # every row comes out of one batched orbit per fiber; it must match
    # the per-sample estimator on the same vector
    seq = separated_banded_diagonal(11)
    est = estimate_spectrum(seq)
    kwargs = dict(samples_per_fiber=4, seed=9, params=FAST)
    first = verify_fiber_containment(seq, est, **kwargs)
    second = verify_fiber_containment(seq, est, **kwargs)
    assert first.rows_to_csv() == second.rows_to_csv()
    for row in first.rows:
        single = bohl_exponents(seq, np.array(row.xi), FAST)
        assert abs(row.lower - single.lower) <= 1e-12
        assert abs(row.upper - single.upper) <= 1e-12
        assert abs(row.tolerance - first.base_tolerance - single.spread) <= 1e-12


def roster_case():
    # the criterion-5 recipe: a seeded d = 3 diagonal system, whose three
    # fibers are one-dimensional, certified on a window covering the Bohl one
    seq = separated_banded_diagonal(4)
    est = estimate_spectrum(seq, analyzer=DichotomyAnalyzer(
        seq, DichotomyParams(window=896, burn_in=128)))
    return seq, est, dict(samples_per_fiber=20, params=BohlParams(window=1024))


def two_dimensional_fiber_case():
    # the bands of axes 1 and 3 overlap, so fiber 1 spans both axes
    seq = MatrixSequence.diagonal([ScalarSequence.seeded(21, (0.4, 0.5)),
                                   ScalarSequence.seeded(22, (1.6, 2.0)),
                                   ScalarSequence.seeded(23, (0.42, 0.48))])
    est = estimate_spectrum(seq)
    assert [f.dimension for f in bundles.bundle_fibers(est)] == [2, 1]
    return seq, est, dict(samples_per_fiber=8, params=FAST)


def restricted_two_dimensional_fiber_case():
    # a contracting axis beside a plane that rotates by 0.3 and doubles:
    # the plane is a two-dimensional fiber inside the whole space, so its
    # samples run on a restricted table of their own
    c, s = np.cos(0.3), np.sin(0.3)
    seq = MatrixSequence.constant([[2 * c, -2 * s, 0.3], [2 * s, 2 * c, 0.1], [0, 0, 0.5]])
    est = estimate_spectrum(seq)
    assert [f.dimension for f in bundles.bundle_fibers(est)] == [1, 2]
    return seq, est, dict(samples_per_fiber=6, params=FAST)


def narrowed(est):
    """``est`` with every interval shrunk to its left endpoint."""
    return replace(est, intervals=tuple(replace(iv, b=iv.a) for iv in est.intervals))


def forced_seeded_case():
    # a full system with one-dimensional fibers, each on its own restricted
    # table; at tolerance 0 the narrowed targets of fibers 1 and 3 fail
    seq = MatrixSequence.seeded(5, [(0.3, 0.36), (0.6, 0.7), (1.2, 1.4)])
    return seq, narrowed(estimate_spectrum(seq)), dict(
        samples_per_fiber=5, tolerance=0.0, params=FAST)


def forced_diagonal_case():
    # every interval 1 % too high: each fiber fails, and as all fibers of a
    # diagonal system form one group, their failing samples share one block
    seq, est, kwargs = roster_case()
    shifted = tuple(replace(iv, a=1.01 * iv.a, b=1.01 * iv.b) for iv in est.intervals)
    return seq, replace(est, intervals=shifted), dict(
        kwargs, samples_per_fiber=6, tolerance=0.0)


@pytest.mark.parametrize("case", [roster_case, two_dimensional_fiber_case,
                                  restricted_two_dimensional_fiber_case,
                                  forced_seeded_case, forced_diagonal_case],
                         ids=["roster", "two-dim-fiber", "restricted-two-dim-fiber",
                              "forced-seeded", "forced-diagonal"])
def test_grouped_rows_equal_the_per_fiber_loop(case):
    # grouping fibers by orbit system keeps every row's bits
    seq, est, kwargs = case()
    got = verify_fiber_containment(seq, est, **kwargs)
    want = fiber_containment_by_fiber(seq, est, **kwargs)
    assert got.rows_to_csv() == want.rows_to_csv()
    assert got.rows == want.rows and got.notes == want.notes == ()
    assert not any(r.escalated for r in got.rows)  # each sample is measured once
    if case in (forced_seeded_case, forced_diagonal_case):
        # samples of several fibers fail, and their failures stand
        assert len({r.fiber_index for r in got.failures()}) >= 2
    if case is restricted_two_dimensional_fiber_case:
        # the global check measures the same directions, held against the hull
        kwargs["samples"] = kwargs.pop("samples_per_fiber")
        whole = verify_global_containment(seq, est, **kwargs)
        assert len(whole.rows) == len(got.rows)
        for row, twin in zip(got.rows, whole.rows):
            assert twin.target == est.hull and twin.margin >= row.margin
            assert replace(twin, label=row.label, target=row.target, margin=row.margin,
                           passed=row.passed) == row


@pytest.mark.parametrize("two_sided", [False, True], ids=["one-sided", "two-sided"])
@pytest.mark.parametrize("case", [roster_case, forced_seeded_case],
                         ids=["diagonal", "restricted"])
def test_one_dimensional_fibers_are_checked_once(case, two_sided):
    # every vector of a one-dimensional fiber is c times one vector b, so
    # the fiber gets one row, on b, whose bits are those of the sweeps of
    # +b and of -b alike
    seq, est, kwargs = case()
    params = BohlParams(window=FAST.window, two_sided=two_sided)
    kwargs = dict(kwargs, params=params)
    report = verify_fiber_containment(seq, est, **kwargs)
    assert [r.fiber_index for r in report.rows] == [1, 2, 3]
    base_tol = report.base_tolerance
    for row, fiber in zip(report.rows, bundles.bundle_fibers(est)):
        assert row.label == f"fiber {fiber.index} sample 1"
        plus, = fiber_rows_by_sweep(seq, est, fiber, np.ones((1, 1)), base_tol, params)
        minus, = fiber_rows_by_sweep(seq, est, fiber, -np.ones((1, 1)), base_tol, params)
        assert row == plus
        assert minus.xi == tuple(-x for x in row.xi)
        assert replace(minus, xi=row.xi) == row
    if seq.kind == "diagonal":
        assert [r.xi for r in report.rows] == [tuple(f.basis[:, 0])
                                               for f in bundles.bundle_fibers(est)]


def test_forced_escalation_sweeps_each_restriction_window_once(monkeypatch):
    # failing samples are no longer re-measured at 4w, so the three
    # restrictions of the forced case read one sweep at the Bohl window
    # (escalation once swept w, 4w, w, 4w, and later w, 4w)
    sweeps = []
    real = bundles._restriction_flags

    def spy(seq, w, burn):
        if (w, burn) not in seq._flag_cache:
            sweeps.append(w)
        return real(seq, w, burn)

    monkeypatch.setattr(bundles, "_restriction_flags", spy)
    seq, est, kwargs = forced_seeded_case()
    kwargs["params"] = BohlParams(window=512)
    report = verify_fiber_containment(seq, est, **kwargs)
    assert len(report.failures()) >= 2  # one row per one-dimensional fiber
    assert len({r.fiber_index for r in report.failures()}) >= 2
    assert sweeps == [512]


def test_fiber_sampling_tracks_slow_fibers_of_full_systems():
    # the stable fiber of a coupled system cannot be followed by raw
    # forward products (rounding rides the 4x-per-step rate gap within
    # ~30 steps); the tracked restriction keeps every sample's upper
    # rate at the stable level across the whole window
    seq = MatrixSequence.seeded(11, bands=((0.4, 0.5), (1.6, 2.0)), eps=0.05)
    est = estimate_spectrum(seq)
    report = verify_fiber_containment(seq, est, samples_per_fiber=6,
                                      params=FAST, tolerance=0.02)
    assert report.passed
    stable_rows = [r for r in report.rows if r.fiber_index == 1]
    assert stable_rows and all(r.upper < 1.0 for r in stable_rows)
    fast_rows = [r for r in report.rows if r.fiber_index == 2]
    assert fast_rows and all(r.lower > 1.0 for r in fast_rows)


def test_fiber_check_fails_wrong_targets_on_a_restricted_kind():
    # the spectrum of a slower system, on a kind that goes through the
    # tracked restriction: every sample is measured once, and it fails
    seq = MatrixSequence.constant([[2.0, 1.0], [0.0, 0.5]])
    other = MatrixSequence.constant([[1.7, 1.0], [0.0, 0.6]])
    est = estimate_spectrum(other)
    report = verify_fiber_containment(seq, est, samples_per_fiber=2,
                                      params=BohlParams(window=48))
    assert report.status == "fail" and report.notes == ()
    assert {r.fiber_index for r in report.failures()} == {1, 2}
    assert not any(r.escalated for r in report.rows)


def test_fiber_check_refuses_fibers_of_another_shape():
    # kinds other than diagonal sample in the tracked frame, not the given
    # basis, so two fibers of a 3-dimensional system once passed here
    seq = MatrixSequence.seeded(0, [(0.4, 0.5), (1.5, 2.0)])
    est = estimate_spectrum(seq)
    foreign = bundles.bundle_fibers(estimate_spectrum(
        MatrixSequence.constant(np.diag([0.45, 1.0, 1.8]))))
    with pytest.raises(ParameterError,
                       match="fiber 1 is for a 3-dimensional system, not this 2-dimensional"):
        verify_fiber_containment(seq, est, foreign[:2], samples_per_fiber=3, params=FAST)
    # right ambient dimension, but two-dimensional where the gap ranks
    # 0 and 1 leave room for one dimension
    whole = SpectralBundleFiber(index=1, basis=np.eye(2), dimension=2)
    for check_seq in (seq, diag_2_half_structural()):
        check_est = estimate_spectrum(check_seq)
        with pytest.raises(ParameterError, match="fiber 1 has dimension 2, not the 1 of its gap"):
            verify_fiber_containment(check_seq, check_est, (whole,), params=FAST)
    own = bundles.bundle_fibers(est)
    assert verify_fiber_containment(seq, est, own, samples_per_fiber=3, params=FAST).rows


def test_fiber_rows_reduce_to_scalar_rates_on_diagonal_systems():
    seq = separated_banded_diagonal(13)
    est = estimate_spectrum(seq)
    report = verify_fiber_containment(seq, est, samples_per_fiber=2, params=FAST)
    assert report.passed
    for row in report.rows:
        entry = seq.entries[row.fiber_index - 1]
        lo, hi = scalar_bohl(entry, FAST)
        assert row.lower == pytest.approx(lo, abs=1e-9)
        assert row.upper == pytest.approx(hi, abs=1e-9)


def test_row_csv_layout():
    seq = diag_2_half()
    est = estimate_spectrum(seq)
    report = verify_fiber_containment(seq, est, samples_per_fiber=1, params=FAST)
    lines = report.rows_to_csv().strip().splitlines()
    assert lines[0] == ("label,fiber,xi,bohl_lower,bohl_upper,target_lower,"
                        "target_upper,tolerance,margin,verdict,escalated")
    assert len(lines) == len(report.rows) + 1


@pytest.mark.parametrize("check", [
    lambda est: verify_fiber_containment(
        MatrixSequence.constant([[0.5, 1.0], [0.0, 2.0]]), est, params=FAST),
    lambda est: verify_global_containment(
        MatrixSequence.constant([[0.5, 1.0], [0.0, 2.0]]), est, params=FAST),
    lambda est: verify_endpoint_attainability(MatrixSequence.diagonal(
        [ScalarSequence.constant(0.5), ScalarSequence.constant(2.0)]), est),
], ids=["fiber", "global", "endpoint"])
def test_checks_refuse_a_spectrum_of_another_system(check):
    # a bare LinAlgError, a pass and six failed rows before
    est = estimate_spectrum(MatrixSequence.constant(np.diag([0.5, 1.0, 2.0])))
    with pytest.raises(ParameterError, match="3-dimensional system, not this 2-dimensional"):
        check(est)
