import contextlib
import importlib
import itertools
import math
import os
import pickle
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from bruteforce import intersection_by_complements
from dichospec import linalg
from dichospec.bundles import restricted_fiber_system
from dichospec.dichotomy import DichotomyAnalyzer, estimate_spectrum
from dichospec.linalg import (_complement_rows, _nullspace, batched_spectral_norm, canonical_basis,
                              frame_sweep, min_principal_angle, principal_angles, qr_positive,
                              subspace_intersection)
from dichospec.scenario import load_scenario
from dichospec.sequences import MatrixSequence
from dichospec.triangularize import qr_triangularize
from systems import SEEDED_BANDS, random_periodic

E = np.eye(6)


def frame(d, seed=0):
    """A random orthogonal d x d matrix, so that no test sits on coordinate axes."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q


def rotated_pair(thetas, d=6, seed=0):
    """Spans of q_0..q_{k-1} and of cos t_i q_i + sin t_i q_{k+i}: angles exactly thetas."""
    q = frame(d, seed)
    k = len(thetas)
    a = q[:, :k]
    b = np.column_stack([np.cos(t) * q[:, i] + np.sin(t) * q[:, k + i]
                         for i, t in enumerate(thetas)])
    return a, b


@pytest.mark.parametrize("theta", [1e-10, 1e-6])
def test_small_rotation_is_resolved(theta):
    a, b = rotated_pair([theta])
    assert abs(principal_angles(a, b)[0] - theta) <= 1e-15
    assert abs(min_principal_angle(a, b) - theta) <= 1e-15


@pytest.mark.parametrize("theta", [np.pi / 2 - 1e-9, np.pi / 2 - 1e-6, np.pi / 2, 1.2, 0.3])
def test_large_angles_keep_cosine_accuracy(theta):
    a, b = rotated_pair([theta], seed=1)
    assert abs(principal_angles(a, b)[0] - theta) <= 1e-14


def test_accuracy_over_the_whole_range():
    for seed, theta in enumerate(np.concatenate([np.geomspace(1e-14, 0.5, 15),
                                                 np.linspace(0.5, np.pi / 2, 15)])):
        a, b = rotated_pair([theta], d=3, seed=seed)
        assert abs(principal_angles(a, b)[0] - theta) <= 1e-14


def test_angles_are_ascending_across_both_branches():
    thetas = [1.2, 1e-10, 0.7]
    a, b = rotated_pair(thetas)
    ang = principal_angles(a, b)
    assert np.all(np.diff(ang) >= 0.0)
    assert np.max(np.abs(ang - np.sort(thetas))) <= 1e-14


def test_min_angle_is_the_smallest_not_the_largest():
    a = E[:4, :2]
    b = np.column_stack([E[:4, 2], np.cos(0.5) * E[:4, 1] + np.sin(0.5) * E[:4, 3]])
    ang = principal_angles(a, b)
    assert np.max(np.abs(ang - [0.5, np.pi / 2])) <= 1e-15
    assert abs(min_principal_angle(a, b) - 0.5) <= 1e-15
    assert abs(min_principal_angle(b, a) - 0.5) <= 1e-15


def test_unequal_dimensions_give_min_rank_angles_in_either_order():
    q = frame(5, seed=2)
    big = q[:, :3]
    line = (np.cos(1e-9) * q[:, 1] + np.sin(1e-9) * q[:, 4]).reshape(5, 1)
    for a, b in ((big, line), (line, big)):
        ang = principal_angles(a, b)
        assert ang.shape == (1,)
        assert abs(ang[0] - 1e-9) <= 1e-15
    plane = q[:, 3:5]
    for a, b in ((big, plane), (plane, big)):
        ang = principal_angles(a, b)
        assert ang.shape == (2,)
        assert np.max(np.abs(ang - np.pi / 2)) <= 1e-15


def test_rank_deficient_input_counts_its_span_rank():
    a = np.column_stack([E[:3, 0], 2.0 * E[:3, 0]])
    b = E[:3, :2]
    ang = principal_angles(a, b)
    assert ang.shape == (1,)
    assert ang[0] <= 1e-15


def test_empty_basis_gives_no_angles_and_right_angle_minimum():
    empty = np.zeros((3, 0))
    line = E[:3, :1]
    for a, b in ((empty, line), (line, empty), (empty, empty)):
        assert principal_angles(a, b).size == 0
        assert min_principal_angle(a, b) == np.pi / 2


def _sweep_maps(d, m=40, seed=0):
    """m well-conditioned random d x d maps."""
    rng = np.random.default_rng(seed)
    return np.stack([frame(d, seed + 1 + i) @ np.diag(np.exp(rng.uniform(-0.8, 0.8, d)))
                     for i in range(m)])


# frame_sweep's QR step: "selected" is the one linalg picked at import
# (numpy's QR kernels where numpy has them), "wrapper" forces the in-place
# step through np.linalg.qr that numpy 1.x takes
STEP_PATHS = ("selected", "wrapper")


@contextlib.contextmanager
def _step_path(path):
    with pytest.MonkeyPatch.context() as mp:
        if path == "wrapper":
            mp.setattr(linalg, "_qr_step", linalg._qr_wrapped)
        yield


def _assert_sweep_is_the_qr_positive_walk(maps, q0):
    """frame_sweep on each step path equals a per-step qr_positive walk bit
    for bit; returns the sweep and the raw diag(R) signs that walk fixed,
    one row per step."""
    q, want_frames, want_factors, raw = q0, [q0], [], []
    for a in maps:
        raw.append(np.sign(np.diagonal(np.linalg.qr(a @ q)[1])))
        q, r = qr_positive(a @ q)
        want_frames.append(q)
        want_factors.append(r)
    for path in STEP_PATHS:
        with _step_path(path):
            frames, factors = frame_sweep(maps, q0)
        assert np.array_equal(frames, np.array(want_frames))
        assert np.array_equal(factors, np.array(want_factors))
        # the zeros below the diagonal carry qr_positive's signs too
        assert np.array_equal(np.signbit(np.tril(factors, -1)),
                              np.signbit(np.tril(np.array(want_factors), -1)))
    return frames, factors, np.array(raw)


@pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (6, 2), (6, 6)])
@pytest.mark.parametrize("backward", [False, True])
def test_frame_sweep_matches_a_plain_qr_loop(d, k, backward):
    maps = _sweep_maps(d, seed=d + k)
    if backward:
        maps = np.linalg.inv(maps)[::-1]
    q0 = frame(d, seed=7)[:, :k]
    frames, factors, _ = _assert_sweep_is_the_qr_positive_walk(maps, q0)
    assert frames.shape == (len(maps) + 1, d, k)
    assert factors.shape == (len(maps), k, k)
    identity = maps @ frames[:-1] - frames[1:] @ factors
    assert np.max(np.abs(identity)) <= 1e-13
    gram = np.swapaxes(frames, 1, 2) @ frames
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-14
    assert np.all(np.diagonal(factors, axis1=1, axis2=2) > 0)
    assert np.all(np.tril(factors, -1) == 0)


@pytest.mark.parametrize("d,k", [(1, 1), (3, 2), (6, 6)])
def test_frame_sweep_follows_raw_signs_that_change_mid_sweep(d, k):
    maps = _sweep_maps(d, seed=d + k)
    maps[::3] = np.diag(np.where(np.arange(d) == 0, -1.0, 1.0)) @ maps[::3]  # reflections
    _, _, raw = _assert_sweep_is_the_qr_positive_walk(maps, frame(d, seed=7)[:, :k])
    assert np.all(np.min(raw, axis=0) < np.max(raw, axis=0))


def test_frame_sweep_restarts_the_sign_after_a_rank_deficient_map():
    # the first map leaves the second column's raw sign at -1, the second
    # maps that column to zero: its diag(R) entry is 0, whose sign counts
    # as +1, so the running sign restarts there instead of staying -1
    maps = np.concatenate([np.diag([1.0, -1.0, 1.0])[None], np.diag([1.0, 0.0, 1.0])[None],
                           _sweep_maps(3, m=10, seed=3)])
    _, factors, raw = _assert_sweep_is_the_qr_positive_walk(maps, np.eye(3)[:, :2])
    assert raw[0, 1] == -1 and factors[1, 1, 1] == 0


def test_frame_sweep_of_an_empty_stack_is_the_start_frame():
    q0 = frame(3)[:, :2]
    frames, factors = frame_sweep(np.zeros((0, 3, 3)), q0)
    assert frames.shape == (1, 3, 2) and np.array_equal(frames[0], q0)
    assert factors.shape == (0, 2, 2)


@pytest.mark.parametrize("b,d,k", [(2, 2, 2), (2, 3, 1), (3, 6, 6)])
@pytest.mark.parametrize("backward", [False, True])
def test_batched_frame_sweep_equals_per_item_sweeps(b, d, k, backward):
    maps = np.stack([_sweep_maps(d, seed=10 * i + d) for i in range(b)])
    if backward:
        maps = np.linalg.inv(maps)[:, ::-1]
    q0 = np.stack([frame(d, seed=7 + i)[:, :k] for i in range(b)])
    m = maps.shape[1]
    sweeps = []
    for path in STEP_PATHS:
        with _step_path(path):
            frames, factors = frame_sweep(maps, q0)
            assert frames.shape == (b, m + 1, d, k) and factors.shape == (b, m, k, k)
            for i in range(b):
                want_frames, want_factors = frame_sweep(maps[i], q0[i])
                assert np.array_equal(frames[i], want_frames)
                assert np.array_equal(factors[i], want_factors)
            # cut in two, the second piece seeded with the first one's last frame
            head, head_factors = frame_sweep(maps[:, :17], q0)
            tail, tail_factors = frame_sweep(maps[:, 17:], head[:, -1])
        assert np.array_equal(np.concatenate([head, tail[:, 1:]], axis=1), frames)
        assert np.array_equal(np.concatenate([head_factors, tail_factors], axis=1), factors)
        sweeps.append((frames, factors))
    (frames, factors), (wrapped, wrapped_factors) = sweeps
    assert np.array_equal(frames, wrapped) and np.array_equal(factors, wrapped_factors)


def _qr_loop_frames(maps, q0):
    """Frames of a plain np.linalg.qr loop, without the sign convention."""
    frames = [q0]
    for a in maps:
        frames.append(np.linalg.qr(a @ frames[-1])[0])
    return np.array(frames)


def _warning_raised(sweep):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning) as info:
            sweep()
    return str(info.value)


def _infinite_maps():
    maps = _sweep_maps(3, m=4, seed=5)
    maps[1, 2, 0] = np.inf
    return maps


@pytest.mark.parametrize("path", STEP_PATHS)
@pytest.mark.parametrize("maps", [np.full((3, 3, 3), 1.5e308), _infinite_maps()],
                         ids=["overflow", "inf"])
def test_non_finite_products_warn_as_a_plain_qr_loop_does(path, maps):
    # the sweep notes the event and replays its steps with each product
    # formed outside the QR kernels' errstate, so the overflow or invalid
    # value warns, as np.linalg.qr's caller sees it
    q0 = frame(3, seed=7)[:, :2]
    with _step_path(path):
        message = _warning_raised(lambda: frame_sweep(maps, q0))
        assert message == _warning_raised(lambda: _qr_loop_frames(maps, q0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            frames, _ = frame_sweep(maps, q0)
            want = _qr_loop_frames(maps, q0)
    assert not np.all(np.isfinite(frames))
    assert np.array_equal(np.isfinite(frames), np.isfinite(want))
    assert np.array_equal(frames[~np.isfinite(frames)], want[~np.isfinite(want)], equal_nan=True)


@contextlib.contextmanager
def _counted_steps(path):
    """Each _qr_step call on the step path, as True where it ran under the
    QR kernels' own errstate, which only the per-step replay sets."""
    with _step_path(path), pytest.MonkeyPatch.context() as mp:
        calls, step = [], linalg._qr_step

        def counted(a, q):
            calls.append(np.geterrcall() is linalg._raise_qr_error)
            step(a, q)

        mp.setattr(linalg, "_qr_step", counted)
        yield calls


@pytest.mark.parametrize("path", STEP_PATHS)
def test_a_finite_sweep_steps_once_and_an_event_replays_it_from_step_0(path):
    with _counted_steps(path) as calls:
        frame_sweep(_sweep_maps(6, seed=41), frame(6, seed=7)[:, :3])
    assert calls == [False] * 40
    with _counted_steps(path) as calls, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        frame_sweep(_infinite_maps(), frame(3, seed=7)[:, :2])
    # the product of step 1 is invalid: that step ends the sweep, and all
    # four steps run again
    assert calls == [False] * 2 + [True] * 4


@pytest.mark.parametrize("path", STEP_PATHS)
def test_a_callers_raising_errstate_raises_as_a_plain_qr_loop_does(path):
    maps = np.full((3, 3, 3), 1.5e308)
    q0 = frame(3, seed=7)[:, :2]
    with _step_path(path), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError) as got:
            frame_sweep(maps, q0)
        with pytest.raises(FloatingPointError) as want:
            _qr_loop_frames(maps, q0)
    assert str(got.value) == str(want.value) == "overflow encountered in matmul"


@pytest.mark.parametrize("path", STEP_PATHS)
def test_underflowing_products_warn_as_a_plain_qr_loop_does(path):
    # subnormal products underflow, which numpy ignores unless asked
    maps = _sweep_maps(3, m=4, seed=5) * 1e-310
    q0 = frame(3, seed=7)[:, :2]
    with _step_path(path), np.errstate(under="warn"):
        message = _warning_raised(lambda: frame_sweep(maps, q0))
        assert message == _warning_raised(lambda: _qr_loop_frames(maps, q0))
    assert message == "underflow encountered in matmul"


@pytest.mark.parametrize("path", STEP_PATHS)
def test_bundled_scenarios_sweep_without_a_replay(path):
    # a replay doubles a sweep's cost, so no sweep of a bundled scenario's
    # spectrum estimate or fiber restriction may record a floating-point event
    scenarios = resources.files("dichospec") / "scenarios"
    for entry in sorted(p for p in scenarios.iterdir() if p.name.endswith(".json")):
        with resources.as_file(entry) as file:
            scn = load_scenario(file)
        with _counted_steps(path) as calls:
            est = estimate_spectrum(scn.system, refine_tol=scn.analysis["refine_tol"],
                                    params=scn.dichotomy_params())
            for i in range(1, len(est.intervals) + 1):
                restricted_fiber_system(scn.system, est, i, window=scn.bohl_params().window)
        assert calls and not any(calls), scn.name


@pytest.mark.parametrize("path", STEP_PATHS)
@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_float32_and_int_maps_sweep_as_their_float64_values(path, dtype):
    maps = np.round(4.0 * _sweep_maps(3, seed=9)).astype(dtype)
    q0 = frame(3, seed=7)[:, :2]
    with _step_path(path):
        frames, factors = frame_sweep(maps, q0)
        want_frames, want_factors = frame_sweep(maps.astype(np.float64), q0)
    assert frames.dtype == factors.dtype == np.float64
    assert np.array_equal(frames, want_frames) and np.array_equal(factors, want_factors)


def _spectrum_and_fibers():
    """A seeded d = 3 spectrum estimate and the restriction to each fiber,
    from a fresh sequence, so the restriction sweeps its own flag pair."""
    seq = MatrixSequence.seeded(1, bands=SEEDED_BANDS[3])
    est = estimate_spectrum(seq)
    return est, [restricted_fiber_system(seq, est, i, window=150)
                 for i in range(1, len(est.intervals) + 1)]


def test_spectrum_and_restriction_are_bit_identical_on_both_step_paths():
    # every package sweep (the analyzer's four items, the restriction's
    # flag pair) gives the same bits on numpy's QR kernels and through
    # np.linalg.qr
    runs = []
    for path in STEP_PATHS:
        with _step_path(path):
            runs.append(_spectrum_and_fibers())
    (est, fibers), (want_est, want_fibers) = runs
    assert est.intervals == want_est.intervals and est.gap_ranks == want_est.gap_ranks
    assert [v.csv() for v in est.grid] == [v.csv() for v in want_est.grid]
    assert ([(v.residual, v.margin, v.low_confidence) for v in est.grid]
            == [(v.residual, v.margin, v.low_confidence) for v in want_est.grid])
    for cert, want in zip(est.gap_certificates, want_est.gap_certificates):
        assert np.array_equal(cert.stable_basis, want.stable_basis)
        assert np.array_equal(cert.unstable_basis, want.unstable_basis)
    assert sum(system.kind == "tabulated" for _, system in fibers) >= 2
    for (basis, system), (want_basis, want_system) in zip(fibers, want_fibers):
        assert np.array_equal(basis, want_basis) and system == want_system


def _periodic_maps(d, p, m=512, seed=0):
    """m maps of period p (constant for p = 1) with well-separated moduli of
    both signs, Q(j + 1) (diag(+-moduli) + upper part) Q(j)^T for j mod p,
    so a sweep's raw frames soon repeat bit for bit."""
    rng = np.random.default_rng(seed)
    moduli = np.geomspace(0.2, 2.6, d) * np.where(np.arange(d) % 2, -1.0, 1.0)
    qs = [frame(d, seed + 1 + j) for j in range(p)]
    period = [qs[(j + 1) % p] @ (np.diag(moduli) + np.triu(rng.uniform(-0.2, 0.2, (d, d)), 1))
              @ qs[j].T for j in range(p)]
    return np.stack([period[i % p] for i in range(m)])


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (6, 2), (6, 6)])
@pytest.mark.parametrize("backward", [False, True])
def test_a_periodic_sweep_stops_stepping_at_its_first_exact_cycle(p, d, k, backward):
    # once the raw frames and the remaining maps repeat, the later steps
    # are copied, not computed; the result is still the per-step walk
    maps = np.stack([_periodic_maps(d, p, seed=s) for s in (0, 1)])
    if backward:
        maps = np.linalg.inv(maps)[:, ::-1]
    q0 = np.stack([frame(d, seed=7)[:, :k], frame(d, seed=8)[:, :k]])
    walks = [_assert_sweep_is_the_qr_positive_walk(maps[i], q0[i])[:2] for i in range(2)]
    for path in STEP_PATHS:
        with _counted_steps(path) as calls:
            frames, factors = frame_sweep(maps, q0)
        assert 0 < len(calls) < maps.shape[1] and not any(calls)
        for i, (want_frames, want_factors) in enumerate(walks):
            assert np.array_equal(frames[i], want_frames)
            assert np.array_equal(factors[i], want_factors)
            with _counted_steps(path) as calls:
                frame_sweep(maps[i], q0[i])
            assert len(calls) < maps.shape[1]


def _upper_periodic_maps(m=200):
    """m upper-triangular maps of period 3, +0.0 below the diagonal."""
    rng = np.random.default_rng(4)
    period = [np.triu(rng.uniform(-0.3, 0.3, (3, 3)), 1) + np.diag([0.3, 1.0, 2.5])
              for _ in range(3)]
    return np.stack([period[i % 3] for i in range(m)])


def _seeded_stack():
    return MatrixSequence.seeded(0, SEEDED_BANDS[3]).window(0, 199), frame(3, seed=7)[:, :2]


def _diagonal_stack():
    # Householder QR leaves the axes as they are: the frames never change
    rng = np.random.default_rng(3)
    return np.stack([np.diag(rng.uniform(0.5, 2.0, 3)) for _ in range(200)]), np.eye(3)[:, :2]


def _broken_period_stack():
    maps = _periodic_maps(3, 3, m=200)
    maps[-2:] *= 1.5
    return maps, frame(3, seed=7)[:, :2]


def _negative_zero_stack():
    # the last period equals the others as floats, not as bits
    maps = _upper_periodic_maps()
    last = maps[-3:]
    last[last == 0] = -0.0
    assert np.array_equal(maps[-3:], maps[-6:-3])
    return maps, frame(3, seed=7)[:, :2]


@pytest.mark.parametrize("stack", [_seeded_stack, _diagonal_stack, _broken_period_stack,
                                   _negative_zero_stack],
                         ids=["seeded", "diagonal", "broken-period", "negative-zero"])
def test_a_sweep_whose_steps_never_repeat_takes_every_step(stack):
    maps, q0 = stack()
    frames, _, _ = _assert_sweep_is_the_qr_positive_walk(maps, q0)
    for path in STEP_PATHS:
        with _counted_steps(path) as calls:
            frame_sweep(maps, q0)
        assert calls == [False] * len(maps)
    if stack is _diagonal_stack:
        assert np.all(frames == q0)


def test_the_unbroken_stacks_do_stop_early():
    # the stacks above stop early once the period holds to their end
    for maps in (_periodic_maps(3, 3, m=200), _upper_periodic_maps()):
        with _counted_steps("selected") as calls:
            frame_sweep(maps, frame(3, seed=7)[:, :2])
        assert len(calls) < len(maps)


def _periodic_results(build):
    """Bits of the analyzer's rates and table, every restricted fiber at
    windows 300 and 2048 and qr_triangularize of a freshly built periodic
    system."""
    seq = build()
    analyzer = DichotomyAnalyzer(seq)
    est = estimate_spectrum(seq, analyzer=analyzer)
    fibers = [restricted_fiber_system(seq, est, i, window=w)
              for w in (300, 2048) for i in range(1, len(est.intervals) + 1)]
    pair = qr_triangularize(seq)
    return (pickle.dumps((analyzer._forward_rates, analyzer._backward_rates, analyzer._table)),
            [(basis.tobytes(), system.table.tobytes()) for basis, system in fibers],
            pair.upper.table.tobytes(), pair.frames.tobytes())


@contextlib.contextmanager
def _counted_rows():
    """Rows computed by each cycle user: QR steps, window-product rows
    renormalized and restricted fiber frames made canonical."""
    transition, bundles = (importlib.import_module(f"dichospec.{name}")
                           for name in ("transition", "bundles"))
    rows = {"window products": 0, "restricted": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(stack, *args):
            rows[key] += len(stack)
            return real(stack, *args)
        return counted

    with _counted_steps("selected") as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(transition, "_renormalized",
                   counting(transition, "_renormalized", "window products"))
        mp.setattr(bundles, "canonical_basis", counting(bundles, "canonical_basis", "restricted"))
        yield rows
        rows["steps"] = len(calls)


def _piecewise_constant():
    """Constant upper-triangular factors for n < 0 and lower-triangular
    ones for n >= 0, so each window's maps repeat only from an offset."""
    rng = np.random.default_rng(4)
    below = np.triu(rng.uniform(-0.3, 0.3, (3, 3)), 1) + np.diag([0.3, 1.0, 2.5])
    above = np.tril(rng.uniform(-0.3, 0.3, (3, 3)), -1) + np.diag([0.4, 1.2, 3.0])
    return MatrixSequence.piecewise(MatrixSequence.constant(below), MatrixSequence.constant(above))


ALL_ROWS = {"steps", "window products", "restricted"}


# random_periodic(3, 6, 3) has complex Floquet pairs, so its frames turn
# and never repeat: only the whole space's window products, whose factors
# are the maps themselves, repeat.  The separated system's frames repeat in
# every sweep, and the piecewise one's from an offset
@pytest.mark.parametrize("build,cut", [
    (lambda: random_periodic(3, 6, 3), {"window products"}),
    (lambda: MatrixSequence.periodic(list(_periodic_maps(6, 3, m=3))), ALL_ROWS),
    (_piecewise_constant, ALL_ROWS)],
    ids=["random-periodic", "separated-periodic", "piecewise-constant"])
def test_periodic_results_are_bit_identical_without_the_cut(monkeypatch, build, cut):
    with _counted_rows() as rows:
        got = _periodic_results(build)
    # a lag finder that finds no lag turns off every cycle user: the sweep,
    # the window products and the restriction all read it from linalg
    monkeypatch.setattr(linalg, "_map_period", lambda stacks: None)
    with _counted_rows() as uncut:
        want = _periodic_results(build)
    assert {key for key in ALL_ROWS if rows[key] < uncut[key]} == cut
    assert len(got[1]) >= 6 and got == want


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("backward", [False, True])
def test_leading_columns_of_a_sweep_are_the_sweep_of_the_leading_columns(d, backward):
    # a Householder column depends only on the columns before it, so the
    # first k columns of a frame sweep and the leading k x k blocks of its
    # factors are the sweep of q0[:, :k]; equal up to rounding, not bit for
    # bit (LAPACK may take another path for a narrower matrix)
    maps = _sweep_maps(d, m=500, seed=d)
    if backward:
        maps = np.linalg.inv(maps)[::-1]
    q0 = frame(d, seed=11)
    frames, factors = frame_sweep(maps, q0)
    for k in range(1, d + 1):
        lead, lead_factors = frame_sweep(maps, q0[:, :k])
        assert np.max(np.abs(frames[:, :, :k] - lead)) <= 1e-12
        block = factors[:, :k, :k]
        assert np.all(np.abs(block - lead_factors) <= 1e-12 * np.maximum(1.0, np.abs(block)))


@pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 3), (6, 1),
                                 (6, 2), (6, 3)])
def test_canonical_basis_depends_only_on_the_span(d, k):
    v = frame(d, seed=d + k)[:, :k]
    c = canonical_basis(v)
    assert np.max(np.abs(c.T @ c - np.eye(k))) <= 1e-15
    assert np.max(np.abs(c @ c.T - v @ v.T)) <= 1e-15
    rotated = [v @ frame(k, seed=20 + i) for i in range(4)]
    flipped = [v * np.array(signs) for signs in itertools.product((1.0, -1.0), repeat=k)]
    for other in rotated + flipped:
        assert np.max(np.abs(canonical_basis(other) - c)) <= 1e-15
    stacked = canonical_basis(np.stack(rotated))
    for i, other in enumerate(rotated):
        assert np.array_equal(stacked[i], canonical_basis(other))
    if k == 1:
        assert c[np.argmax(np.abs(c[:, 0])), 0] > 0
    if k == d:
        assert np.max(np.abs(c - np.eye(d))) <= 1e-15


def _frame_stack(m, d, p, seed):
    """m random orthonormal (d, p) frames."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((m, d, d)))[0][:, :, :p]


def _assert_matches_single_pairs(a, b, d):
    """The nullspace step on the stacked complement rows of every pair
    equals the one-pair intersection bit for bit, and spans the SVD
    reference's intersection, of the same dimension, to rounding."""
    rows = np.stack([np.concatenate([_complement_rows(x), _complement_rows(y)])
                     for x, y in zip(a, b)])
    bases, dims = _nullspace(rows)
    assert bases.shape == (len(a), d, max(dims))
    for i in range(len(a)):
        single = subspace_intersection(a[i], b[i])
        reference = intersection_by_complements(a[i], b[i], d)
        assert dims[i] == single.shape[1] == reference.shape[1]
        assert np.max(np.abs(single @ single.T - reference @ reference.T), initial=0.0) <= 1e-14
        assert np.array_equal(bases[i, :, : dims[i]], single)
        assert np.all(bases[i, :, dims[i]:] == 0)
    return dims


# p + q = d + k gives a k-dimensional intersection; p + q <= d gives none
@pytest.mark.parametrize("d,p,q", [(2, 1, 1), (2, 2, 1), (3, 2, 2), (3, 3, 3), (4, 3, 3),
                                   (6, 4, 3), (6, 4, 4), (6, 3, 2), (3, 0, 2)])
def test_stacked_intersection_equals_single_pairs_bit_for_bit(d, p, q):
    a = _frame_stack(9, d, p, seed=d + p)
    b = _frame_stack(9, d, q, seed=d + q + 50)
    dims = _assert_matches_single_pairs(a, b, d)
    assert np.all(dims == max(p + q - d, 0))


def test_stacked_intersection_reports_each_pairs_dimension():
    a = _frame_stack(7, 3, 2, seed=1)
    b = _frame_stack(7, 3, 2, seed=2)
    b[2] = a[2][:, ::-1]                     # same plane: not transverse
    a[4] = a[4] * 1e-9                       # tiny but full-rank span: still a plane
    dims = _assert_matches_single_pairs(a, b, 3)
    assert dims.tolist() == [1, 1, 2, 1, 1, 1, 1]
    # complement rows that vanish (a zero matrix has rank 0) leave everything
    rows = np.stack([np.eye(3)[:2], np.zeros((2, 3))])
    bases, dims = _nullspace(rows)
    assert dims.tolist() == [1, 3]
    # a rank-deficient span counts its rank: a line meets a generic plane in 0
    line = a[5][:, [0, 0]]
    assert subspace_intersection(line, b[5]).shape == (3, 0)
    assert np.array_equal(subspace_intersection(line, b[5]),
                          intersection_by_complements(line, b[5], 3))


def _half_angle_rows(t, q):
    """Rows of two orthonormal blocks, span(q0, q1) and span(c q0 + s q2, q3, q4),
    whose smallest principal angle theta has tan(theta / 2) = t: the stacked
    rows' smallest to largest singular value ratio is exactly t."""
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return np.stack([q[:, 0], q[:, 1], c * q[:, 0] + s * q[:, 2], q[:, 3], q[:, 4]])


def test_nullspace_rank_equals_the_singular_value_count():
    q = frame(6, seed=3)
    # tangent 0 shares a direction exactly
    tangents = [1e-8 * f for f in (0.5, 0.99, 1.01, 2.0, 1e3)] + [1.0, 0.0]
    rows = np.stack([_half_angle_rows(t, q) for t in tangents] + [np.zeros((5, 6))])
    s = np.linalg.svd(rows, compute_uv=False)
    counted = 6 - np.sum(s > linalg.NULLSPACE_RTOL * s[:, :1], axis=-1)
    bases, dims = _nullspace(rows)
    assert dims.tolist() == counted.tolist() == [2, 2, 1, 1, 1, 1, 2, 6]
    for basis, dim in zip(bases, dims):
        assert np.max(np.abs(basis[:, :dim].T @ basis[:, :dim] - np.eye(dim))) <= 1e-15
        assert np.all(basis[:, dim:] == 0)
    full_rank = dims == 1
    assert np.max(np.abs(rows[full_rank] @ bases[full_rank])) <= 1e-15
    # no rows leave the whole space
    bases, dims = _nullspace(np.zeros((2, 0, 4)))
    assert dims.tolist() == [4, 4] and np.array_equal(bases, np.broadcast_to(np.eye(4), (2, 4, 4)))
    # a NaN row is refused before any factorization
    rows[3, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _nullspace(rows)


_NON_FINITE_CALLS = {
    # LAPACK's SVD does not return on these rows
    "nullspace-inf-0-0": "rows = np.eye(6)[None, :3].copy(); rows[0, 0, 0] = np.inf; "
                         "print(_nullspace(rows)[1])",
    "nullspace-inf-1-0": "rows = np.eye(6)[None, :3].copy(); rows[0, 1, 0] = np.inf; "
                         "print(_nullspace(rows)[1])",
    "nullspace-inf-2-5": "rows = np.eye(6)[None, :3].copy(); rows[0, 2, 5] = np.inf; "
                         "print(_nullspace(rows)[1])",
    # the finite reading meets in span(e2); the inf once gave an empty basis
    "intersection-inf": "a = np.eye(4)[:, :2].copy(); a[0, 0] = np.inf; "
                        "print(subspace_intersection(a, np.eye(4)[:, 1:3]).shape)",
}


@pytest.mark.parametrize("call", sorted(_NON_FINITE_CALLS))
def test_non_finite_input_is_refused_before_any_factorization(call):
    # in a child process with a timeout, so a call that hangs inside
    # LAPACK fails this test instead of the suite
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    script = ("import numpy as np\n"
              "from dichospec.linalg import _nullspace, subspace_intersection\n"
              "try:\n"
              f"    {_NON_FINITE_CALLS[call]}\n"
              "except np.linalg.LinAlgError as exc:\n"
              "    print('LinAlgError:', exc)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=30)
    except subprocess.TimeoutExpired:
        done = None
    assert done is not None, f"{call} did not return within 30 s"
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("LinAlgError: ") and "non-finite" in done.stdout, done.stdout


def _exact_norm_within(value, column, rtol):
    """value is within rtol (relative) of the exact 2-norm of column."""
    square = sum(Fraction(float(v)) ** 2 for v in column)
    value, rtol = Fraction(float(value)), Fraction(rtol)
    return (value * (1 - rtol)) ** 2 <= square <= (value * (1 + rtol)) ** 2


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_column_norms_neither_overflow_nor_underflow(d, scale):
    columns = np.random.default_rng(d).standard_normal((200, d, 1)) * scale
    got = batched_spectral_norm(columns)       # warnings fail the test
    assert np.all(np.isfinite(got)) and np.all(got > 0)
    if d == 1:
        assert np.array_equal(got, np.abs(columns[:, 0, 0]))
    # squaring and summing d terms, then the square root, round within
    # (d / 2 + 1) u of the exact norm; LAPACK's SVD rescales columns this
    # small or large by non-powers of two, so it is itself a few ulp off
    u = np.finfo(float).eps / 2
    assert all(_exact_norm_within(g, c[:, 0], (d / 2 + 1) * u * (1 + 1e-9))
               for g, c in zip(got, columns))
    svd = np.linalg.svd(columns, compute_uv=False)[:, 0]
    assert np.all(np.abs(got - svd) <= 1e-15 * svd)
    assert np.array_equal(batched_spectral_norm(np.zeros((3, d, 1))), np.zeros(3))


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_frobenius_norms_equal_the_plain_root_of_summed_squares(d):
    # the package's three layouts: matrices of a stack, columns of a block,
    # columns of a stack of blocks; entries within e^+-60 of 1 keep their
    # squares normal, so only the plain value is taken
    rng = np.random.default_rng(d)
    for k in sorted({1, 2, d}):
        s = rng.standard_normal((40, d, k)) * np.exp(rng.uniform(-60.0, 60.0, (40, 1, 1)))
        assert np.array_equal(linalg._frobenius_norms(s, (1, 2)),
                              np.sqrt(np.einsum("lij,lij->l", s, s)))
        assert np.array_equal(linalg._frobenius_norms(s[0], (0,)),
                              np.sqrt(np.einsum("ij,ij->j", s[0], s[0])))
        assert np.array_equal(linalg._frobenius_norms(s, (1,)),
                              np.sqrt(np.einsum("kij,kij->kj", s, s)))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160])
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_frobenius_norms_of_entries_whose_squares_leave_the_normal_range(d, scale):
    # squares of 1e200 overflow, of 1e-200 flush to 0 and of 1e-160 are
    # subnormal, a few digits only; the reference scales every item by
    # one fixed power of two near 1/scale
    s = np.random.default_rng(d).standard_normal((40, d, d)) * scale
    k = round(math.log2(scale))
    unit = np.ldexp(s, -k)
    want = np.ldexp(np.sqrt(np.einsum("lij,lij->l", unit, unit)), k)
    got = linalg._frobenius_norms(s, (1, 2))      # warnings fail the test
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    assert np.array_equal(linalg._frobenius_norms(np.zeros((3, d, d)), (1, 2)), np.zeros(3))


def test_frobenius_norms_pass_inf_and_nan_through():
    s = np.ones((4, 2, 3))
    s[1, 0, 2] = np.inf
    s[2, 1, 1] = np.nan
    s[3, 0, 0], s[3, 1, 0] = -np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg._frobenius_norms(s, (1, 2))
    assert got[0] == math.sqrt(6.0) and got[1] == np.inf
    assert np.isnan(got[2]) and np.isnan(got[3])
