import itertools

import numpy as np
import pytest

from bruteforce import intersection_by_complements
from dichospec.linalg import (_complement_rows, _nullspace, canonical_basis, frame_sweep,
                              min_principal_angle, principal_angles, qr_positive,
                              subspace_intersection)

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


def _assert_sweep_is_the_qr_positive_walk(maps, q0):
    """frame_sweep equals a per-step qr_positive walk bit for bit; returns
    the raw diag(R) signs that walk fixed, one row per step."""
    frames, factors = frame_sweep(maps, q0)
    q, want_frames, want_factors, raw = q0, [q0], [], []
    for a in maps:
        raw.append(np.sign(np.diagonal(np.linalg.qr(a @ q)[1])))
        q, r = qr_positive(a @ q)
        want_frames.append(q)
        want_factors.append(r)
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
    frames, factors = frame_sweep(maps, q0)
    m = maps.shape[1]
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
    equals the one-pair intersection, and the reference, bit for bit."""
    rows = np.stack([np.concatenate([_complement_rows(x), _complement_rows(y)])
                     for x, y in zip(a, b)])
    bases, dims = _nullspace(rows)
    assert bases.shape == (len(a), d, max(dims))
    for i in range(len(a)):
        single = subspace_intersection(a[i], b[i])
        assert np.array_equal(single, intersection_by_complements(a[i], b[i], d))
        assert dims[i] == single.shape[1]
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
