import numpy as np
import pytest

from bruteforce import bohl_enumerate, orbit_lognorm_table
from dichospec.bohl import BohlParams, bohl_exponents, scalar_bohl
from dichospec.containment import (
    TOLERANCE_FACTOR,
    _group_rows,
    verify_endpoint_attainability,
    verify_fiber_containment,
    verify_global_containment,
)
from dichospec.dichotomy import estimate_spectrum
from dichospec.errors import ParameterError
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
    assert len(report.rows) == 20
    assert all(r.margin > 0 for r in report.rows)
    assert report.pass_rate == 1.0
    assert report.base_tolerance == pytest.approx(TOLERANCE_FACTOR * est.refine_tol)
    assert "pass" in report.summary()


def test_global_containment_covers_mixed_vectors():
    seq = diag_2_half()
    est = estimate_spectrum(seq)
    report = verify_global_containment(
        seq, est, samples=8, params=BohlParams(window=512, two_sided=True))
    assert report.passed
    lo, hi = est.hull
    for row in report.rows:
        assert row.target == (lo, hi)
        assert row.lower >= lo - row.tolerance
        assert row.upper <= hi + row.tolerance


def test_mixed_vector_attains_both_hull_endpoints():
    # a vector with both coordinates active sweeps the full rate range when
    # offsets run over the whole line
    est = bohl_exponents(diag_2_half(), [1.0, 1.0], BohlParams(two_sided=True))
    n = 2048
    assert est.lower == pytest.approx(0.5, abs=2.0 / n)
    assert est.upper == pytest.approx(2.0, abs=2.0 / n)


def test_rows_match_direct_enumeration():
    seq = piecewise_scalar()
    params = BohlParams(window=96, gap_min=8, two_sided=True)
    est = estimate_spectrum(seq)
    report = verify_global_containment(seq, est, samples=3, seed=5, params=params)
    for row in report.rows:
        xi = np.array(row.xi)
        table = orbit_lognorm_table(seq, xi, -96, 96)
        want_lower, want_upper = bohl_enumerate(
            table, 96, 96, 8, params.tail_fraction, True)
        assert row.lower == pytest.approx(want_lower, rel=1e-12)
        assert row.upper == pytest.approx(want_upper, rel=1e-12)


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


@pytest.mark.parametrize("check", [verify_fiber_containment, verify_global_containment,
                                   verify_endpoint_attainability])
def test_checks_refuse_a_negative_or_nan_tolerance(check):
    seq = diag_2_half_structural()
    est = estimate_spectrum(seq)
    for tolerance in (-1.0, -1e-300, float("nan")):
        with pytest.raises(ParameterError, match="tolerance must be at least 0"):
            check(seq, est, tolerance=tolerance)
    extra = {} if check is verify_endpoint_attainability else {"params": FAST}
    assert check(seq, est, tolerance=0.0, **extra).base_tolerance == 0.0


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


def test_escalation_retries_failures_at_larger_window():
    # check a system against the spectrum of a slower one: every sample
    # genuinely violates the target, so escalation has work to do
    seq = MatrixSequence.diagonal([ScalarSequence.constant(2.0)])
    slower = MatrixSequence.diagonal([ScalarSequence.constant(1.5)])
    est = estimate_spectrum(slower)
    small = BohlParams(window=128)
    base = verify_global_containment(seq, est, samples=6, params=small)
    escalated = verify_global_containment(seq, est, samples=6, params=small,
                                          escalate=True)
    assert not base.passed
    failed_labels = {r.label for r in base.failures()}
    retried = {r.label for r in escalated.rows if r.escalated}
    assert retried == failed_labels == {f"global sample {i}" for i in range(1, 7)}
    assert any("4x window" in note for note in escalated.notes)
    assert not escalated.passed  # a larger window cannot fix a wrong target


def test_escalation_reruns_only_the_failing_samples_of_a_batch():
    # axis e2 decays at 0.5 and meets the target; e1 and a mix grow at 2
    # and miss it, so only those two are re-run at the 4x window
    seq = diag_2_half()
    small = BohlParams(window=64, gap_min=8)
    wide = BohlParams(window=256, gap_min=8)
    vecs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
    args = (seq, "sample", None, vecs, vecs, (0.45, 0.55), 1e-3, small)
    first = _group_rows(*args, escalate=False)
    rows = _group_rows(*args, escalate=True)
    assert [r.passed for r in first] == [True, False, True, False]
    assert [r.escalated for r in rows] == [False, True, False, True]
    for before, after in zip(first, rows):
        if after.escalated:
            single = bohl_exponents(seq, np.array(after.xi), wide)
            assert abs(after.lower - single.lower) <= 1e-12
            assert abs(after.upper - single.upper) <= 1e-12
            assert abs(after.tolerance - 1e-3 - single.spread) <= 1e-12
        else:
            assert after == before


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


def test_fiber_escalation_rebuilds_the_restriction():
    # wrong targets again, now on a kind that goes through the tracked
    # restriction: the retry has to rebuild it at the 4x window
    seq = MatrixSequence.constant([[2.0, 1.0], [0.0, 0.5]])
    other = MatrixSequence.constant([[1.7, 1.0], [0.0, 0.6]])
    est = estimate_spectrum(other)
    report = verify_fiber_containment(seq, est, samples_per_fiber=2,
                                      params=BohlParams(window=48),
                                      escalate=True)
    assert not report.passed
    assert all(r.escalated for r in report.failures())
    assert any("4x window" in note for note in report.notes)


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
