import numpy as np
import pytest

from dichospec.linalg import frame_sweep, min_principal_angle, principal_angles, qr_positive

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


@pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (6, 2), (6, 6)])
@pytest.mark.parametrize("backward", [False, True])
def test_frame_sweep_matches_a_plain_qr_loop(d, k, backward):
    maps = _sweep_maps(d, seed=d + k)
    if backward:
        maps = np.linalg.inv(maps)[::-1]
    q0 = frame(d, seed=7)[:, :k]
    frames, factors = frame_sweep(maps, q0)
    assert frames.shape == (len(maps) + 1, d, k)
    assert factors.shape == (len(maps), k, k)
    q = q0
    assert np.array_equal(frames[0], q0)
    for i, a in enumerate(maps):
        q, r = qr_positive(a @ q)
        assert np.max(np.abs(frames[i + 1] - q)) <= 1e-14
        assert np.max(np.abs(factors[i] - r)) <= 1e-14
    identity = maps @ frames[:-1] - frames[1:] @ factors
    assert np.max(np.abs(identity)) <= 1e-13
    gram = np.swapaxes(frames, 1, 2) @ frames
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-14
    assert np.all(np.diagonal(factors, axis1=1, axis2=2) > 0)
    assert np.all(np.tril(factors, -1) == 0)


def test_frame_sweep_of_an_empty_stack_is_the_start_frame():
    q0 = frame(3)[:, :2]
    frames, factors = frame_sweep(np.zeros((0, 3, 3)), q0)
    assert frames.shape == (1, 3, 2) and np.array_equal(frames[0], q0)
    assert factors.shape == (0, 2, 2)
