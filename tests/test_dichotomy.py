import bisect
import math
from itertools import groupby

import numpy as np
import pytest

from bruteforce import (floquet_moduli, refit_verdict, spectrum_by_merging,
                        split_candidate_by_rank_sweeps)
from dichospec import dichotomy
from dichospec.bundles import bundle_fibers
from dichospec.dichotomy import (
    GRID_POINTS,
    DecayFit,
    DichotomyAnalyzer,
    DichotomyParams,
    DichotomyVerdict,
    SpectralInterval,
    estimate_spectrum,
    fit_decay_constants,
    periodic_spectrum_oracle,
    scalar_spectrum,
    test_dichotomy as dichotomy_verdict,
)
from dichospec.errors import (DecayFitError, ParameterError, SingularMatrixError,
                              SpectrumConsistencyError, ValidationError)
from dichospec.linalg import frame_sweep
from dichospec.sequences import MatrixSequence, ScalarSequence
from systems import SEEDED_BANDS, random_periodic, separated_banded_diagonal

# pytest would otherwise try to collect the library function
dichotomy_verdict.__test__ = False

REFINE_TOL = 1e-3


def diag_2_half():
    return MatrixSequence.constant(np.diag([2.0, 0.5]))


def quarter_turn():
    return MatrixSequence.constant([[0.0, -1.0], [1.0, 0.0]])


def piecewise_scalar():
    return MatrixSequence.piecewise(MatrixSequence.constant([[0.5]]),
                                    MatrixSequence.constant([[2.0]]))


def symmetric_containment(points, intervals, tol):
    """Every point inside an inflated interval, every interval near a point."""
    for q in points:
        if not any(iv.a - tol <= q <= iv.b + tol for iv in intervals):
            return False
    for iv in intervals:
        if not any(abs(iv.a - q) <= tol for q in points):
            return False
        if not any(abs(iv.b - q) <= tol for q in points):
            return False
    return True


# -- decay fits --------------------------------------------------------------


def test_fit_pure_geometric_decay():
    samples = {(k, 0): k * np.log(0.5) for k in range(0, 40, 4)}
    fit = fit_decay_constants(samples)
    assert fit.K == pytest.approx(1.0, abs=1e-12)
    assert fit.rho == pytest.approx(0.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert not fit.failed


def test_fit_recovers_scale_and_rate():
    samples = [(g, np.log(3.0) + g * np.log(0.8)) for g in range(2, 50, 3)]
    fit = fit_decay_constants(samples)
    assert fit.K == pytest.approx(3.0, rel=1e-10)
    assert fit.rho == pytest.approx(0.8, rel=1e-10)


def test_fit_flags_growth_instead_of_raising():
    samples = [(g, 0.1 * g) for g in range(0, 30, 2)]
    fit = fit_decay_constants(samples)
    assert fit.failed
    assert fit.rho > 1.0


def test_fit_with_noise_brackets_the_rate():
    rng = np.random.default_rng(2)
    gaps = np.arange(8, 72, 4)
    values = gaps * np.log(0.5) + rng.uniform(-0.05, 0.05, size=len(gaps))
    fit = fit_decay_constants(list(zip(gaps, values)))
    assert 0.49 <= fit.rho <= 0.51
    assert fit.residual <= 0.12
    # intercept is raised until the line dominates every sample
    assert all(v <= np.log(fit.K) + g * np.log(fit.rho) + 1e-12
               for g, v in zip(gaps, values))


def test_fit_input_validation():
    with pytest.raises(DecayFitError):
        fit_decay_constants([(g, -float(g)) for g in range(5)])
    with pytest.raises(DecayFitError):
        fit_decay_constants([(3, -1.0)] * 10)
    with pytest.raises(ParameterError):
        fit_decay_constants([((0, 5), -1.0)] + [(g, -float(g)) for g in range(10)])


def test_fits_and_the_analyzer_table_share_one_decay_record():
    fit = fit_decay_constants([(g, np.log(3.0) + g * np.log(0.8)) for g in range(2, 50, 3)])
    assert fit.samples == 16
    assert (fit.K, fit.rho) == (math.exp(fit.log_k), math.exp(fit.slope))
    # at gamma = 1 a verdict reads its rank's two fits unshifted
    analyzer = DichotomyAnalyzer(diag_2_half())
    v = analyzer.verdict(1.0)
    cand = analyzer._table[v.rank]
    fits = (cand.stable_fit, cand.unstable_fit)
    gaps, _ = analyzer.params.fit_gaps()
    assert all(isinstance(f, DecayFit) and f.samples == len(gaps) for f in fits)
    assert v.rho == max(f.rho for f in fits)
    assert v.K == max(1.0, *(f.K for f in fits))
    assert v.residual == max(f.residual for f in fits)


# -- single-gamma verdicts ---------------------------------------------------


def test_autonomous_diagonal_verdicts():
    seq = diag_2_half()
    v = dichotomy_verdict(seq, 1.0)
    assert v.is_certificate
    assert v.rank == 1
    assert v.rho == pytest.approx(0.5, abs=0.02)
    assert v.K <= 1.5
    assert v.residual <= 0.75
    # stable direction is the second axis, unstable the first
    assert abs(v.stable_basis[:, 0] @ np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-8)
    assert abs(v.unstable_basis[:, 0] @ np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-8)

    assert dichotomy_verdict(seq, 2.0).outcome == "in_spectrum"
    assert dichotomy_verdict(seq, 0.5).outcome == "in_spectrum"
    assert dichotomy_verdict(seq, 3.0).rank == 2
    assert dichotomy_verdict(seq, 0.3).rank == 0


def test_rotation_verdicts():
    seq = quarter_turn()
    assert dichotomy_verdict(seq, 1.0).outcome == "in_spectrum"
    assert dichotomy_verdict(seq, 0.9).rank == 0
    assert dichotomy_verdict(seq, 1.1).rank == 2


def test_piecewise_verdicts():
    seq = piecewise_scalar()
    assert dichotomy_verdict(seq, 0.4).rank == 0
    assert dichotomy_verdict(seq, 1.0).outcome == "in_spectrum"
    assert dichotomy_verdict(seq, 2.5).rank == 1


def test_gamma_validation():
    with pytest.raises(ParameterError):
        dichotomy_verdict(diag_2_half(), 0.0)
    with pytest.raises(ParameterError):
        dichotomy_verdict(diag_2_half(), -1.5)


@pytest.mark.parametrize("gamma", [True, np.bool_(True), "1.0", 1.0 + 0j, np.complex128(1.0), None])
def test_gamma_must_be_a_real_number(gamma):
    # True once certified at gamma = 1 with the bool as its gamma, and a
    # string or complex gamma ended in a bare TypeError
    with pytest.raises(ParameterError, match="gamma must be a positive finite real"):
        dichotomy_verdict(diag_2_half(), gamma)


def test_verdicts_store_gamma_as_a_float():
    analyzer = DichotomyAnalyzer(diag_2_half())
    want = analyzer.verdict(1.0)
    for gamma in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
        got = analyzer.verdict(gamma)
        assert type(got.gamma) is float and got.csv() == want.csv()


@pytest.mark.parametrize("bad", [{"window": 300.0}, {"window": 64.7}, {"window": "300"},
                                 {"window": True}, {"burn_in": 64.5}, {"burn_in": "16"},
                                 {"burn_in": np.float64(16.0)}])
def test_dichotomy_params_refuse_non_integer_windows(bad):
    # refused by name here, not by a bare TypeError inside the analyzer
    with pytest.raises(ParameterError, match="must be an integer"):
        DichotomyParams(**bad)
    assert DichotomyParams(window=np.int64(300), burn_in=np.int32(16)).extent == 316


# -- full spectrum estimation -------------------------------------------------


def test_autonomous_diagonal_spectrum():
    est = estimate_spectrum(diag_2_half(), refine_tol=REFINE_TOL)
    assert len(est.intervals) == 2
    assert est.gap_ranks == (0, 1, 2)
    for iv, point in zip(est.intervals, (0.5, 2.0)):
        assert iv.width <= 2 * REFINE_TOL
        assert iv.a - REFINE_TOL <= point <= iv.b + REFINE_TOL
    assert est.dimension == 2
    assert not est.degenerate
    assert len(est.gap_certificates) == 3


@pytest.mark.parametrize("refine_tol", [5e-16, 1e-16])
def test_refine_tol_below_float_resolution_stops_at_adjacent_floats(refine_tol):
    # a cap of 200 bisection rounds used to refuse both tolerances
    est = estimate_spectrum(MatrixSequence.constant(np.diag([0.5, 2.0])), refine_tol=refine_tol)
    assert len(est.intervals) == 2
    for iv, point in zip(est.intervals, (0.5, 2.0)):
        assert iv.contains(point)
    # every bracket of a structure change is refined as far as floats allow
    changes = 0
    for vx, vy in zip(est.grid, est.grid[1:]):
        if (vx.outcome, vx.rank) != (vy.outcome, vy.rank):
            x, y = vx.gamma, vy.gamma
            assert y / x - 1.0 <= refine_tol / 4.0 or not x < math.sqrt(x * y) < y
            changes += 1
    assert changes >= 4


def test_rotation_spectrum_is_a_point():
    est = estimate_spectrum(quarter_turn(), refine_tol=REFINE_TOL)
    assert len(est.intervals) == 1
    assert est.gap_ranks == (0, 2)
    iv = est.intervals[0]
    assert iv.a == pytest.approx(1.0, abs=2 * REFINE_TOL)
    assert iv.b == pytest.approx(1.0, abs=2 * REFINE_TOL)


def test_piecewise_spectrum_spans_both_rates():
    est = estimate_spectrum(piecewise_scalar(), refine_tol=REFINE_TOL)
    assert len(est.intervals) == 1
    iv = est.intervals[0]
    assert iv.a == pytest.approx(0.5, abs=5e-3)
    assert iv.b == pytest.approx(2.0, abs=5e-3)
    assert est.gap_ranks == (0, 1)


def test_periodic_scalar_spectrum_contains_one():
    seq = MatrixSequence.diagonal([ScalarSequence.periodic([2.0, 0.5])])
    est = estimate_spectrum(seq, refine_tol=REFINE_TOL)
    assert len(est.intervals) == 1
    assert est.covering_interval(1.0, tol=2 * REFINE_TOL) is not None


def test_floquet_oracle_against_dense_eigenvalues():
    cases = [
        (MatrixSequence.periodic([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])]), 2),
        (random_periodic(17, d=2, p=3), 3),
        (random_periodic(23, d=3, p=2), 2),
        (random_periodic(31, d=3, p=4), 4),
        (diag_2_half(), 1),
    ]
    for seq, p in cases:
        got = periodic_spectrum_oracle(seq)
        want = floquet_moduli(seq, p)
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=1e-10)


def test_periodic_estimates_contain_floquet_points():
    for seed in (40, 41, 42, 43):
        seq = random_periodic(seed, d=2, p=2, spread=0.6)
        est = estimate_spectrum(seq, refine_tol=REFINE_TOL)
        points = periodic_spectrum_oracle(seq)
        assert symmetric_containment(points, est.intervals, 5e-3)


def test_resolvent_is_open():
    # gamma in the middle of a gap stays a certificate under small scaling,
    # with the same rank
    seq = diag_2_half()
    for gamma, rank in ((1.0, 1), (3.0, 2), (0.3, 0)):
        base = dichotomy_verdict(seq, gamma)
        assert base.rank == rank
        for factor in (1.0 - REFINE_TOL / 2, 1.0 + REFINE_TOL / 2):
            v = dichotomy_verdict(seq, gamma * factor)
            assert v.is_certificate
            assert v.rank == rank


def test_gap_ranks_increase_with_gamma():
    seq = diag_2_half()
    ranks = [dichotomy_verdict(seq, g).rank for g in (0.3, 1.0, 3.0)]
    assert ranks == sorted(ranks)


def test_analyzer_reuse_matches_fresh_run():
    seq = diag_2_half()
    analyzer = DichotomyAnalyzer(seq)
    est_fresh = estimate_spectrum(seq, refine_tol=REFINE_TOL)
    est_reused = estimate_spectrum(seq, refine_tol=REFINE_TOL, analyzer=analyzer)
    assert [(iv.a, iv.b) for iv in est_fresh.intervals] == \
        [(iv.a, iv.b) for iv in est_reused.intervals]
    assert est_fresh.gap_ranks == est_reused.gap_ranks
    # the analyzer answers further queries consistently
    assert analyzer.verdict(1.0).rank == 1


def test_direction_rates_equal_two_separate_sweeps():
    # the two rate sweeps run lock-stepped; each is still its own sweep
    seq = MatrixSequence.seeded(3, bands=((0.5, 0.7), (1.2, 1.8)))
    analyzer = DichotomyAnalyzer(seq)
    ext = analyzer.params.extent
    factors = seq.window(-ext, ext - 1)
    for r, want in ((frame_sweep(factors[ext:], np.eye(2))[1], analyzer._forward_rates),
                    (frame_sweep(np.linalg.inv(factors)[ext - 1::-1], np.eye(2))[1],
                     analyzer._backward_rates)):
        rates = np.log(np.diagonal(r[ext // 2:], axis1=1, axis2=2)).mean(axis=0)
        assert np.array_equal(rates, want)


def test_all_split_ranks_share_one_sweep(monkeypatch):
    # the rates and every split rank come from one lock-stepped sweep
    calls = []

    def counted_sweep(*args):
        calls.append(args[0].shape)
        return frame_sweep(*args)

    monkeypatch.setattr("dichospec.dichotomy.frame_sweep", counted_sweep)
    for seq in (MatrixSequence.seeded(5, bands=SEEDED_BANDS[3]), random_periodic(3, 6, 3),
                MatrixSequence.constant([[2.0, 1e4], [0.0, 0.5]])):
        calls.clear()
        analyzer = DichotomyAnalyzer(seq)
        estimate_spectrum(seq, analyzer=analyzer)
        # every rank, split ones among them, was built
        assert [c.rank for c in analyzer._table] == list(range(seq.dimension + 1))
        assert len(calls) == 1 and calls[0][0] == 4


def test_construction_builds_every_rank_and_estimation_builds_none(monkeypatch):
    # the whole table is built at construction, one envelope per side each
    # rank has; estimate_spectrum then only reads it
    built, envelopes = [], []
    build_entry, products = dichotomy._candidate, dichotomy.WindowProducts

    def counted_entry(rank, *args):
        built.append(rank)
        return build_entry(rank, *args)

    def counted_products(factors):
        envelopes.append(factors.shape)
        return products(factors)

    monkeypatch.setattr(dichotomy, "_candidate", counted_entry)
    monkeypatch.setattr(dichotomy, "WindowProducts", counted_products)
    for seq in (piecewise_scalar(), diag_2_half(), MatrixSequence.seeded(5, bands=SEEDED_BANDS[3])):
        d = seq.dimension
        built.clear()
        envelopes.clear()
        analyzer = DichotomyAnalyzer(seq)
        assert built == list(range(d + 1)) and len(envelopes) == 2 * d
        assert len(analyzer._table) == d + 1
        built.clear()
        envelopes.clear()
        estimate_spectrum(seq, analyzer=analyzer)
        assert built == [] and envelopes == []
    # the analyzer keeps its inputs, the rates and the table, nothing else
    assert sorted(vars(analyzer)) == ["_backward_rates", "_forward_rates", "_table",
                                      "m_hat", "params", "seq"]


def test_table_bases_are_read_only():
    # a verdict's bases are the table's: writing one once changed every
    # later verdict of its rank and made the spectrum's fibers inconsistent
    seq = diag_2_half()
    analyzer = DichotomyAnalyzer(seq)
    est = estimate_spectrum(seq, analyzer=analyzer)
    fibers = bundle_fibers(est)
    v = analyzer.verdict(1.0)
    for basis in (v.stable_basis, v.unstable_basis):
        with pytest.raises(ValueError, match="read-only"):
            basis[:] = 0.0
    again = estimate_spectrum(seq, analyzer=analyzer)
    assert again.verdicts_to_csv() == est.verdicts_to_csv()
    for got, want in zip(bundle_fibers(again), fibers):
        assert np.array_equal(got.basis, want.basis)
    assert not any(b.flags.writeable for c in analyzer._table
                   for b in (c.stable_basis, c.unstable_basis))


@pytest.mark.parametrize("build", [
    *[lambda d=d: (MatrixSequence.seeded(5, bands=SEEDED_BANDS[d]), None) for d in (2, 3, 6)],
    *[lambda d=d: (random_periodic(3, d, 3), None) for d in (2, 3, 6)],
    lambda: (separated_banded_diagonal(7), DichotomyParams(window=896, burn_in=128)),
    lambda: (MatrixSequence.constant([[2.0, 1e4], [0.0, 0.5]]), None),
    lambda: (MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]), None),
], ids=["seeded-d2", "seeded-d3", "seeded-d6", "periodic-d2", "periodic-d3", "periodic-d6",
        "roster-d3-w896", "nonnormal", "jordan"])
def test_split_candidates_match_per_rank_sweeps(build):
    # slicing the one flag pair gives every rank's families and envelopes
    seq, params = build()
    analyzer = DichotomyAnalyzer(seq, params)

    def projector(q):
        return q @ q.T

    for s in range(1, seq.dimension):
        got, want = analyzer._table[s], split_candidate_by_rank_sweeps(analyzer, s)
        for env, ref in ((got.stable_env, want.stable_env),
                         (got.unstable_env, want.unstable_env)):
            assert np.all(np.abs(env - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        for q, ref in ((got.stable_basis, want.stable_basis),
                       (got.unstable_basis, want.unstable_basis)):
            assert q.shape == ref.shape
            assert np.max(np.abs(projector(q) - projector(ref))) <= 1e-12
        assert abs(got.angle - want.angle) <= 1e-12


@pytest.mark.parametrize("build", [
    *[lambda d=d: MatrixSequence.seeded(0, bands=SEEDED_BANDS[d]) for d in (2, 3, 6)],
    *[lambda d=d: random_periodic(0, d, 3) for d in (2, 3, 6)],
    lambda: MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]),
    lambda: MatrixSequence.constant([[2.0, 1e4], [0.0, 0.5]]),
    lambda: MatrixSequence.constant(np.diag([1.002, 1.0])),
], ids=["seeded-d2", "seeded-d3", "seeded-d6", "periodic-d2", "periodic-d3", "periodic-d6",
        "jordan", "nonnormal", "diag-1.002"])
def test_verdicts_read_off_the_table_equal_a_refit_at_every_probe(build):
    # the per-rank table fitted at gamma = 1 gives every probe the verdict
    # of refitting the scaled envelopes at that gamma, up to rounding
    seq = build()
    analyzer = DichotomyAnalyzer(seq)
    est = estimate_spectrum(seq, analyzer=analyzer)
    for got in est.grid:
        want = refit_verdict(analyzer, got.gamma)
        assert ((got.outcome, got.rank, got.reason, got.low_confidence)
                == (want.outcome, want.rank, want.reason, want.low_confidence))
        assert abs(got.margin - want.margin) <= 1e-15
        if got.is_certificate:
            assert abs(got.rho - want.rho) <= 1e-15
            assert abs(got.K - want.K) <= 1e-12 * want.K
            assert abs(got.residual - want.residual) <= 1e-12
    assert len({v.rank for v in est.grid if v.is_certificate}) >= 2


def test_low_confidence_gap_certificates_flag_their_intervals():
    # the Jordan block's middle gap certificate sits in the boundary band
    est = estimate_spectrum(MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]))
    flags = [v.low_confidence for v in est.gap_certificates]
    assert flags == [False, True, False]
    for i, iv in enumerate(est.intervals):
        assert iv.low_confidence == any(flags[i: i + 2])
    # clean gaps leave the intervals unflagged
    est = estimate_spectrum(diag_2_half())
    assert not any(v.low_confidence for v in est.gap_certificates)
    assert not any(iv.low_confidence for iv in est.intervals)


# -- spectrum assembly from rank level sets ------------------------------------


def _interval_rows(est):
    return [(iv.a, iv.b, iv.low_confidence) for iv in est.intervals]


def _assert_matches_merging(est):
    keys = [v.gamma for v in est.grid]
    intervals, ranks, certs = spectrum_by_merging(keys, list(est.grid), est.dimension, est.m_hat)
    assert _interval_rows(est) == intervals
    assert est.gap_ranks == ranks
    assert len(est.gap_certificates) == len(certs)
    assert all(got is want for got, want in zip(est.gap_certificates, certs))


@pytest.mark.parametrize("build", [
    *[lambda d=d: MatrixSequence.seeded(5, bands=SEEDED_BANDS[d]) for d in (2, 3, 6)],
    *[lambda d=d: random_periodic(3, d, 3) for d in (2, 3, 6)],
    lambda: MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]),
    lambda: MatrixSequence.constant([[2.0, 1e4], [0.0, 0.5]]),
], ids=["seeded-d2", "seeded-d3", "seeded-d6", "periodic-d2", "periodic-d3", "periodic-d6",
        "jordan", "nonnormal"])
def test_level_sets_match_the_merging_reference(build):
    # periodic-d6 absorbs a single-probe run; every system here has one
    # run per rank, where the level sets and the merging give one answer
    est = estimate_spectrum(build())
    _assert_matches_merging(est)


class ScriptedAnalyzer:
    """Verdicts read off a script of rank regions along gamma.

    ``regions`` is a list of (label, upper gamma) with the last upper bound
    ``None``; a label is a certificate rank or ``None`` for in-spectrum.
    ``spikes`` maps exact probe gammas to labels, which makes single-probe
    runs: the refinement never lands on a grid point twice.
    """

    grid = np.geomspace(1.0 / (4.0 * 1.1), 4.0 * 1.1, GRID_POINTS)  # the probe grid at m_hat = 4

    def __init__(self, regions, spikes=None, seed=0):
        self.m_hat = 4.0
        self.params = DichotomyParams()
        self.uppers = [u for _, u in regions[:-1]]
        self.labels = [label for label, _ in regions]
        self.spikes = spikes or {}
        self.seed = seed
        self.probes = {}

    def verdict(self, g):
        label = self.spikes.get(g, self.labels[bisect.bisect_right(self.uppers, g)])
        rng = np.random.default_rng([self.seed, int(g * 2**40)])
        margin = float(rng.uniform())
        lowc = self.seed > 0 and bool(rng.uniform() < 0.1)  # seed 0: no flagged verdicts
        if label is None:
            v = DichotomyVerdict(gamma=g, outcome="in_spectrum", window=256,
                                 reason="decay-fit-failed", margin=margin, low_confidence=lowc)
        else:
            v = DichotomyVerdict(gamma=g, outcome="certificate", window=256, rank=label,
                                 margin=margin, low_confidence=lowc)
        self.probes[g] = v
        return v


def _scripted(d, analyzer):
    analyzer.seq = MatrixSequence.constant(np.eye(d))
    return estimate_spectrum(analyzer.seq, analyzer=analyzer)


G = ScriptedAnalyzer.grid


def test_interior_single_probe_run_is_dropped():
    regions = [(0, G[4]), (None, G[8]), (1, G[12]), (None, G[16]), (2, G[20]),
               (None, G[24]), (3, G[28]), (None, G[32]), (4, G[40]), (6, None)]
    est = _scripted(6, ScriptedAnalyzer(regions, {G[40]: 5}))
    assert est.gap_ranks == (0, 1, 2, 3, 4, 6)
    assert [iv.low_confidence for iv in est.intervals] == [False] * 4 + [True]
    assert est.intervals[-1].a < G[40] < est.intervals[-1].b


def test_single_lower_rank_probe_before_a_jump_is_dropped():
    regions = [(0, G[10]), (None, G[16]), (1, G[30]), (2, None)]
    est = _scripted(2, ScriptedAnalyzer(regions, {G[30]: 0}))
    assert est.gap_ranks == (0, 1, 2)
    assert [iv.low_confidence for iv in est.intervals] == [False, True]


@pytest.mark.parametrize("labels", [(0, None, 2, None, 1), (0, None, 1, None, 0, None, 2)],
                         ids=["decreasing", "recurring"])
def test_ranks_that_do_not_increase_are_inconsistent(labels):
    regions = [(label, G[6 * (i + 1)]) for i, label in enumerate(labels[:-1])]
    with pytest.raises(SpectrumConsistencyError):
        _scripted(2, ScriptedAnalyzer(regions + [(labels[-1], None)]))


def test_grid_without_certificates_is_degenerate():
    est = _scripted(2, ScriptedAnalyzer([(None, None)]))
    assert est.degenerate
    assert est.gap_ranks == (0, 2) and est.gap_certificates == ()
    assert _interval_rows(est) == [(G[0], G[-1], True)]


def test_in_spectrum_bottom_edge_stands_in_for_rank_zero():
    est = _scripted(1, ScriptedAnalyzer([(None, G[10]), (1, None)]))
    assert est.gap_ranks == (0, 1)
    assert est.gap_certificates[0] is None and est.gap_certificates[1].rank == 1
    (iv,) = est.intervals
    assert iv.low_confidence and iv.a == 1.0 / 4.0 and iv.b >= G[10]


def test_one_rank_on_both_sides_of_an_in_spectrum_run_is_one_level_set():
    regions = [(0, G[10]), (None, G[14]), (1, G[20]), (None, G[24]), (1, G[30]),
               (None, G[34]), (2, None)]
    est = _scripted(2, ScriptedAnalyzer(regions))
    assert est.gap_ranks == (0, 1, 2)
    assert [iv.low_confidence for iv in est.intervals] == [True, True]
    assert est.gap_certificates[1].rank == 1
    assert est.covering_interval(G[22]) is None
    assert est.intervals[0].b < G[20] and est.intervals[1].a > G[24]


def _same_rank_across_an_interval(grid, d):
    """Whether one rank sits on both sides of an in-spectrum or dropped run."""
    labels = [v.rank if v.is_certificate else None for v in grid]
    sides, start = [], 0
    for label, group in groupby(labels):
        size = len(list(group))
        if label is None and (start == 0 or start + size == len(labels)):
            sides.append(0 if start == 0 else d)
        elif label is not None and (size > 1 or start == 0 or start + size == len(labels)):
            sides.append(label)
        start += size
    return any(a == b for a, b in zip(sides, sides[1:]))


def test_scripted_grids_match_the_merging_reference():
    # random rank regions and single-probe spikes, margins and flags;
    # both assemblies must agree, including on which grids they refuse
    rng = np.random.default_rng(7)
    compared = refused = 0
    for seed in range(1, 1001):
        d = int(rng.integers(1, 5))
        cuts = np.sort(rng.choice(np.arange(2, 46), size=int(rng.integers(1, 8)), replace=False))
        steps = rng.choice([1, 1, 2, -1, d], size=len(cuts) + 1)
        labels = [None if rng.uniform() < 0.45 else int(np.clip(r, 0, d))
                  for r in np.cumsum(steps) - steps[0]]
        regions = [(label, G[c]) for label, c in zip(labels, cuts)] + [(labels[-1], None)]
        spikes = {G[k]: (None if rng.uniform() < 0.3 else int(rng.integers(0, d + 1)))
                  for k in rng.choice(GRID_POINTS, size=int(rng.integers(0, 4)), replace=False)}
        analyzer = ScriptedAnalyzer(regions, spikes, seed=seed)
        try:
            est = _scripted(d, analyzer)
        except SpectrumConsistencyError:
            grid = [analyzer.probes[g] for g in sorted(analyzer.probes)]
            if not _same_rank_across_an_interval(grid, d):
                with pytest.raises(SpectrumConsistencyError):
                    spectrum_by_merging([v.gamma for v in grid], grid, d, 4.0)
                refused += 1
            continue
        if not _same_rank_across_an_interval(est.grid, d):
            _assert_matches_merging(est)
            compared += 1
    assert compared >= 200 and refused >= 50


# Known certificate defects: each test states the correct answer and fails
# today; strict xfail turns a fix into a loud XPASS.


@pytest.mark.xfail(strict=True, reason="the gap between these bands is lost at window 896")
@pytest.mark.parametrize("seed", [3, 5])
def test_seeded_bands_keep_their_gap_at_window_896(seed):
    seq = MatrixSequence.seeded(seed, ((0.3, 0.375), (0.6, 0.75)))
    est = estimate_spectrum(seq, params=DichotomyParams(window=896))
    assert est.gap_ranks == (0, 1, 2)


@pytest.mark.xfail(strict=True, reason="polynomial growth passes the decay fit (rho 0.99782)")
def test_jordan_block_has_no_certificate_at_its_eigenvalue():
    # the spectrum of [[1, 1], [0, 1]] is {1}, so gamma = 1 is in it
    assert not dichotomy_verdict(MatrixSequence.constant([[1.0, 1.0], [0.0, 1.0]]),
                                 1.0).is_certificate


def test_scalar_spectrum_piecewise():
    iv = scalar_spectrum(ScalarSequence.piecewise(negative=[0.5], nonnegative=[2.0]))
    assert iv.a == pytest.approx(0.5, abs=5e-3)
    assert iv.b == pytest.approx(2.0, abs=5e-3)


def test_spectral_interval_validation():
    with pytest.raises(ValidationError):
        SpectralInterval(2.0, 1.0)
    with pytest.raises(ValidationError):
        SpectralInterval(-1.0, 1.0)
    iv = SpectralInterval(0.5, 2.0)
    assert iv.contains(0.5) and iv.contains(2.0)
    assert not iv.contains(2.001)
    assert iv.contains(2.001, tol=0.01)


def test_estimate_stays_inside_norm_bounds():
    seq = MatrixSequence.seeded(77, bands=((0.6, 0.8), (1.3, 1.6)))
    est = estimate_spectrum(seq, refine_tol=REFINE_TOL)
    report = seq.validate((-384, 384))
    for iv in est.intervals:
        assert iv.a >= 1.0 / report.m_hat - 1e-9
        assert iv.b <= report.m_hat + 1e-9


def test_analyzer_refuses_a_subnormal_system():
    # the determinant check passes; the norm bound 1/sigma_min overflows
    with pytest.raises(SingularMatrixError, match="n=0"):
        DichotomyAnalyzer(MatrixSequence.constant(1e-310 * np.eye(2)))


def test_verdict_csv_header():
    est = estimate_spectrum(piecewise_scalar(), refine_tol=REFINE_TOL)
    lines = est.verdicts_to_csv().strip().splitlines()
    assert lines[0] == "gamma,outcome,rank,rho,K"
    assert len(lines) == len(est.grid) + 1
    gammas = [float(line.split(",")[0]) for line in lines[1:]]
    assert gammas == sorted(gammas)


def test_estimate_spectrum_refuses_an_analyzer_of_another_sequence():
    # the analyzer's own intervals, [0.3, 0.3] and about [3, 3], came back
    analyzer = DichotomyAnalyzer(MatrixSequence.constant(np.diag([0.3, 3.0])))
    with pytest.raises(ParameterError, match="another sequence"):
        estimate_spectrum(MatrixSequence.constant(np.diag([0.5, 2.0])), analyzer=analyzer)
    # an equal sequence built apart is the same system
    est = estimate_spectrum(MatrixSequence.constant(np.diag([0.3, 3.0])), analyzer=analyzer)
    assert est.gap_ranks == (0, 1, 2)


def test_estimate_spectrum_refuses_params_its_analyzer_does_not_use():
    # window 64 was ignored next to an analyzer at window 256
    seq = diag_2_half()
    analyzer = DichotomyAnalyzer(seq)
    with pytest.raises(ParameterError, match="differ from the analyzer"):
        estimate_spectrum(seq, params=DichotomyParams(window=64), analyzer=analyzer)
    assert estimate_spectrum(seq, params=DichotomyParams(), analyzer=analyzer).window == 256


def test_estimate_spectrum_takes_an_analyzer_of_an_equal_tabulated_system():
    # comparing the two sequences raised: tabulated entries have no payload
    def build():
        return MatrixSequence.diagonal([ScalarSequence.tabulated(np.full(1200, r), -600)
                                        for r in (0.5, 2.0)])
    a, b = build(), build()
    est = estimate_spectrum(b, analyzer=DichotomyAnalyzer(a))
    assert est.intervals == estimate_spectrum(a).intervals
