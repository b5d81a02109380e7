"""Release gate: one test per shipped guarantee, tolerances pinned.

Run with -v to get a pass/fail line per criterion; each test also prints
a one-line summary visible under -s.  Budgeted runtimes are asserted
inside the tests that carry one.
"""
import time
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from dichospec.bohl import BohlParams, scalar_bohl
from dichospec.bundles import bundle_fibers, whitney_sum_check
from dichospec.cli import main
from dichospec.containment import (verify_endpoint_attainability,
                                   verify_fiber_containment,
                                   verify_global_containment)
from dichospec.dichotomy import (DichotomyAnalyzer, DichotomyParams,
                                 estimate_spectrum, periodic_spectrum_oracle)
from dichospec.linalg import principal_angles
from dichospec.sequences import MatrixSequence, ScalarSequence
from dichospec.transition import transition
from dichospec.triangularize import qr_triangularize
from systems import mixed_kind_roster, random_periodic, separated_banded_diagonal

CONTAINMENT_PARAMS = BohlParams(window=1024)

# The certification extent must cover the span the Bohl sampler probes
# ([0, window]), otherwise interval endpoints and sampled exponents are
# anchored on disjoint stretches of a random sequence and drift apart by
# a few 1e-3 regardless of tolerance.  window + burn_in here gives the
# analyzer a usable extent of +-1024, matching CONTAINMENT_PARAMS.
CERT_PARAMS = DichotomyParams(window=896, burn_in=128)


@pytest.fixture(scope="module")
def containment_roster():
    """50 seeded diagonal systems with spectra, analyzers and fibers.

    Shared between the containment and bundle criteria; the build time is
    returned so the containment criterion can charge it to its budget.
    """
    t0 = time.perf_counter()
    entries = []
    for seed in range(50):
        seq = separated_banded_diagonal(seed)
        analyzer = DichotomyAnalyzer(seq, CERT_PARAMS)
        est = estimate_spectrum(seq, analyzer=analyzer)
        entries.append(SimpleNamespace(seed=seed, seq=seq, analyzer=analyzer,
                                       est=est, fibers=bundle_fibers(est)))
    return entries, time.perf_counter() - t0


def test_criterion_1_cocycle_suite():
    # 25 seeded systems, d in {1,2,3}, every kind; the composition
    # identity holds to 1e-9 relative for times out to +-200, in < 10 s
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for _, seq in mixed_kind_roster(25):
        for _ in range(24):
            k = int(rng.integers(-200, 201))
            j = int(rng.integers(-200, 201))
            lo, hi = min(k, j), max(k, j)
            l = int(rng.integers(lo - 5, hi + 6))
            composed = transition(seq, k, l).compose(transition(seq, l, j))
            worst = max(worst, composed.relative_distance(transition(seq, k, j)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: PASS (worst relative defect {worst:.3e}, {elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_autonomous_spectrum():
    t0 = time.perf_counter()
    seq = MatrixSequence.constant(np.diag([2.0, 0.5]))
    est = estimate_spectrum(seq, refine_tol=1e-3)
    elapsed = time.perf_counter() - t0
    assert len(est.intervals) == 2
    lo_iv, hi_iv = est.intervals
    assert lo_iv.b - lo_iv.a <= 2e-3
    assert hi_iv.b - hi_iv.a <= 2e-3
    assert lo_iv.a <= 0.5 <= lo_iv.b
    assert hi_iv.a <= 2.0 <= hi_iv.b
    assert est.gap_ranks == (0, 1, 2)
    print(f"criterion 2: PASS (widths {lo_iv.b - lo_iv.a:.2e}, "
          f"{hi_iv.b - hi_iv.a:.2e}; {elapsed:.1f}s)")
    assert elapsed < 30.0


def _symmetric_containment(points, intervals, tol):
    for x in points:
        if not any(iv.a - tol <= x <= iv.b + tol for iv in intervals):
            return f"oracle point {x:.6f} lies outside every interval"
    for iv in intervals:
        for end in (iv.a, iv.b):
            if not any(abs(end - x) <= tol for x in points):
                return f"interval endpoint {end:.6f} is far from every point"
    return None


def test_criterion_3_floquet_oracle_equivalence():
    mismatches = []
    for i in range(20):
        d = 1 + i % 3
        p = 1 + i % 4
        seq = random_periodic(100 + i, d, p, spread=0.6)
        points = periodic_spectrum_oracle(seq)
        est = estimate_spectrum(seq)
        why = _symmetric_containment(points, est.intervals, 5e-3)
        if why is not None:
            mismatches.append((i, d, p, why))
    print(f"criterion 3: PASS (20 periodic systems, 0 mismatches)"
          if not mismatches else f"criterion 3: FAIL {mismatches}")
    assert mismatches == []


def test_criterion_4_whole_line_scalar():
    seq = MatrixSequence.piecewise(MatrixSequence.constant([[0.5]]),
                                   MatrixSequence.constant([[2.0]]))
    est = estimate_spectrum(seq)
    assert len(est.intervals) == 1
    iv = est.intervals[0]
    assert abs(iv.a - 0.5) <= 5e-3
    assert abs(iv.b - 2.0) <= 5e-3

    # the default one-sided scalar estimate only sees the right half-line
    u = ScalarSequence.piecewise([0.5], [2.0])
    lower, upper = scalar_bohl(u)
    slack = 2.0 / BohlParams().window
    assert abs(lower - 2.0) <= slack
    assert abs(upper - 2.0) <= slack
    print(f"criterion 4: PASS (interval [{iv.a:.4f}, {iv.b:.4f}], "
          f"one-sided scalar rates ({lower:.4f}, {upper:.4f}))")


def test_criterion_5_exponent_containment(containment_roster):
    roster, build_seconds = containment_roster
    t0 = time.perf_counter()
    fiber_rows = global_rows = 0
    for entry in roster:
        ivs = entry.est.intervals
        for a, b in zip(ivs, ivs[1:]):
            assert b.a / a.b >= 1.5, f"seed {entry.seed}: bands too close"
        fiber_report = verify_fiber_containment(
            entry.seq, entry.est, entry.fibers,
            samples_per_fiber=20, params=CONTAINMENT_PARAMS)
        assert fiber_report.passed, (
            f"seed {entry.seed}: {[r.label for r in fiber_report.failures()]}")
        global_report = verify_global_containment(
            entry.seq, entry.est, samples=50, params=CONTAINMENT_PARAMS)
        assert global_report.passed, (
            f"seed {entry.seed}: {[r.label for r in global_report.failures()]}")
        fiber_rows += len(fiber_report.rows)
        global_rows += len(global_report.rows)
    elapsed = build_seconds + (time.perf_counter() - t0)
    print(f"criterion 5: PASS (50 systems, {fiber_rows} fiber + {global_rows} global "
          f"rows, 100% pass, {elapsed:.0f}s)")
    assert elapsed < 300.0


def test_criterion_6_bundle_suite(containment_roster):
    roster, _ = containment_roster
    worst_sigma = float("inf")
    worst_angle = 0.0
    for entry in roster:
        report = whitney_sum_check(entry.fibers)
        assert report.passed, f"seed {entry.seed}"
        assert report.dimension_sum == entry.seq.dimension
        assert report.smallest_singular_value >= 1e-3
        worst_sigma = min(worst_sigma, report.smallest_singular_value)

        perturbed = []
        for cert in entry.est.gap_certificates:
            v = entry.analyzer.verdict(cert.gamma * 1.01)
            perturbed.append(v if v.is_certificate else cert)
        moved = bundle_fibers(entry.est, tuple(perturbed))
        for f0, f1 in zip(entry.fibers, moved):
            worst_angle = max(worst_angle,
                              float(principal_angles(f0.basis, f1.basis).max()))
    print(f"criterion 6: PASS (min stacked sigma {worst_sigma:.3f}, "
          f"max fiber drift {worst_angle:.2e} rad)")
    assert worst_angle <= 1e-6


def test_criterion_7_triangularization_suite():
    worst_resid, worst_orth, worst_gap = 0.0, 0.0, 0.0
    for i in range(20):
        if i % 2 == 0:
            bands = ((0.4, 0.6), (1.5, 2.0))
        else:
            bands = ((0.3, 0.45), (0.9, 1.1), (1.7, 2.2))
        seq = MatrixSequence.seeded(7000 + i, bands=bands)
        pair = qr_triangularize(seq)
        worst_resid = max(worst_resid, pair.residual_max(seq))
        worst_orth = max(worst_orth, pair.orthogonality_max())
        est_a = estimate_spectrum(seq)
        est_u = estimate_spectrum(pair.upper)
        assert len(est_a.intervals) == len(est_u.intervals)
        for iva, ivu in zip(est_a.intervals, est_u.intervals):
            worst_gap = max(worst_gap, abs(iva.a - ivu.a), abs(iva.b - ivu.b))
    print(f"criterion 7: PASS (sweep residual {worst_resid:.2e}, "
          f"orthogonality {worst_orth:.2e}, endpoint gap {worst_gap:.2e})")
    assert worst_resid <= 1e-10
    assert worst_orth <= 1e-12
    assert worst_gap <= 5e-3


def test_criterion_8_endpoint_attainability():
    systems = [
        MatrixSequence.diagonal([ScalarSequence.constant(2.0),
                                 ScalarSequence.constant(0.5)]),
        MatrixSequence.diagonal([ScalarSequence.piecewise([0.5], [2.0]),
                                 ScalarSequence.constant(3.0)]),
        MatrixSequence.diagonal([ScalarSequence.periodic([3.0, 1.0 / 3.0]),
                                 ScalarSequence.constant(0.25)]),
        MatrixSequence.diagonal([ScalarSequence.periodic([-2.0, 2.0]),
                                 ScalarSequence.constant(0.5)]),
    ]
    for seq in systems:
        est = estimate_spectrum(seq)
        report = verify_endpoint_attainability(seq, est, tolerance=5e-3)
        assert report.status == "pass"
        assert len(report.rows) == 2 * len(est.intervals)
        assert all(row.passed for row in report.rows)
    print("criterion 8: PASS (4 diagonal systems, every endpoint witnessed "
          "within 5e-3)")


def test_criterion_9_verify_determinism(tmp_path):
    with resources.as_file(resources.files("dichospec") / "scenarios"
                           / "seeded-diagonal-d3.json") as scn:
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rc_a = main(["verify", str(scn), "--out", str(out_a), "--format", "table"])
        rc_b = main(["verify", str(scn), "--out", str(out_b), "--format", "table"])
    assert rc_a == rc_b == 0
    for suffix in (".json", ".csv"):
        first = (out_a / f"seeded-diagonal-d3-verify{suffix}").read_bytes()
        second = (out_b / f"seeded-diagonal-d3-verify{suffix}").read_bytes()
        assert first == second, f"{suffix} artifacts differ between runs"
    print("criterion 9: PASS (repeated verify runs byte-identical)")
