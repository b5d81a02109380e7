"""Small dense linear algebra helpers used throughout the package.

Everything here operates on modest-sized ndarrays (system dimension is
typically 1..10), so plain LAPACK calls via numpy are adequate.  The
spectral norm (largest singular value) is the norm used everywhere a
matrix norm appears in reported quantities.

:func:`frame_sweep` is the one place where orthonormal frames are carried
along an orbit (discrete QR); every QR walk in the package goes through it.
"""
from __future__ import annotations

import numpy as np

SPAN_RTOL = 1e-12  # relative singular-value cutoff for the rank of a span
NULLSPACE_RTOL = 1e-8  # the same for the stacked rows of a nullspace step


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a 2-d array."""
    return float(np.linalg.norm(a, 2))


def batched_spectral_norm(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (m, d, k) stack."""
    if stack.size == 0:
        return np.zeros(stack.shape[0])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def qr_positive(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization with the sign convention diag(R) > 0."""
    q, r = np.linalg.qr(a)
    s = np.sign(np.diagonal(r)).copy()
    s[s == 0] = 1.0
    return q * s, s[:, None] * r


def frame_sweep(maps: np.ndarray, q0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carry the orthonormal (d, k) frame q0 through an (m, d, d) stack of maps.

    Returns frames Q (m + 1, d, k) with Q[0] = q0 and positive-diagonal
    factors R (m, k, k) with ``maps[i] @ Q[i] = Q[i + 1] @ R[i]``.  A
    backward walk passes the reversed stack of inverses and flips the result.

    A leading batch axis runs B sweeps in lock-step: maps (B, m, d, d) and
    q0 (B, d, k) give frames (B, m + 1, d, k) and factors (B, m, k, k), at
    one matmul and one ``np.linalg.qr`` call per step for the whole batch.
    Each batch item equals its own unbatched sweep bit for bit, because
    numpy runs the same kernel (BLAS product, LAPACK Householder QR) on
    every matrix of a stack, so an item sees exactly the arithmetic it
    would see alone.

    The step loop runs a plain Householder QR and the sign convention of
    :func:`qr_positive` is imposed once afterwards, through the running
    column signs c (c[0] = 1, c[i + 1] = sign(diag R_raw[i]) * c[i], a zero
    sign restarting its column at +1): Q[i] = Q_raw[i] * c[i] and
    R[i] = diag(c[i + 1]) R_raw[i] diag(c[i]).  This is exact, not an
    approximation: negating a column of the frame commutes exactly with
    the product ``maps[i] @ Q[i]`` and with Householder QR (Q is unchanged,
    that column of R is negated), so every step does the arithmetic of a
    per-step ``qr_positive`` walk and the results equal it bit for bit.  For
    the same reason a sweep cut into pieces, each seeded with the last frame
    of the one before, equals the whole sweep bit for bit.
    """
    batched = maps.ndim == 4
    if not batched:
        maps, q0 = maps[None], q0[None]
    (b, m), k = maps.shape[:2], q0.shape[2]
    frames = np.empty((b, m + 1, *q0.shape[1:]))
    factors = np.empty((b, m, k, k))
    frames[:, 0] = q0
    for i in range(m):
        frames[:, i + 1], factors[:, i] = np.linalg.qr(maps[:, i] @ frames[:, i])
    steps = np.sign(np.diagonal(factors, axis1=2, axis2=3))
    # c[i + 1] is the product of the signs since the last zero one: the
    # running product of the nonzero signs times its value at that restart
    zero = steps == 0
    flips = np.cumprod(np.where(zero, 1.0, steps), axis=1)
    restart = np.maximum.accumulate(np.where(zero, np.arange(m)[:, None], -1), axis=1)
    at_restart = np.take_along_axis(flips, np.maximum(restart, 0), axis=1)
    signs = np.ones((b, m + 1, k))
    signs[:, 1:] = flips * np.where(restart >= 0, at_restart, 1.0)
    frames *= signs[:, :, None, :]
    factors *= signs[:, :-1, None, :]
    # zeros below the diagonal go back to +0 before the row signs, so even
    # their signs match qr_positive's; every step here works in place
    below = np.tril_indices(k, -1)
    factors[:, :, below[0], below[1]] = 0.0
    factors *= signs[:, 1:, :, None]
    return (frames, factors) if batched else (frames[0], factors[0])


def _column_space(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and numerical rank of a matrix or of each in a stack.

    The rank counts singular values above ``SPAN_RTOL`` times the largest;
    a zero matrix, or one without columns, has rank 0.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, np.sum(s > SPAN_RTOL * s[..., :1], axis=-1)


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column space of ``a`` (cutoff ``SPAN_RTOL``)."""
    u, rank = _column_space(a)
    return u[:, :rank]


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between the column spans of a and b.

    There are min(p, q) angles for spans of ranks p and q; none if either
    span is trivial.  Cosines alone cannot resolve angles below about
    1.5e-8 (arccos(1 - eps)), and sines alone lose accuracy near pi/2, so
    both are computed (Bjorck & Golub 1973; Knyazev & Argentati 2002):
    the cosines are the singular values of qa^T qb and the sines those of
    the residual of projecting the lower-rank basis onto the other span.
    Angles with cos^2 >= 1/2 come from the sines, the rest from the
    cosines, which keeps every angle accurate to about 1e-15 absolute
    over the whole range [0, pi/2].
    """
    qa = orthonormal_columns(a)
    qb = orthonormal_columns(b)
    if qa.shape[1] < qb.shape[1]:
        qa, qb = qb, qa
    if qb.shape[1] == 0:
        return np.array([])
    coupling = qa.T @ qb
    cos = np.clip(np.linalg.svd(coupling, compute_uv=False), 0.0, 1.0)
    sin = np.clip(np.linalg.svd(qb - qa @ coupling, compute_uv=False)[::-1], 0.0, 1.0)
    angles = np.where(cos * cos >= 0.5, np.arcsin(sin), np.arccos(cos))
    return np.sort(angles)


def min_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest principal angle between the column spans of a and b.

    This is the first entry of ``principal_angles`` and carries its
    absolute accuracy, so angles far below 1e-8 are resolved; pi/2 if
    either span is trivial.
    """
    ang = principal_angles(a, b)
    return float(ang[0]) if ang.size else float(np.pi / 2)


def canonical_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(v) that depends only on the span.

    ``v`` holds orthonormal columns, (d, k) or a stack (..., d, k).  The
    result is the Q of the positive-diagonal QR of k columns of the
    orthogonal projector P = v v^T, picked by greedy column pivoting
    (largest residual norm first) and taken in index order; both the
    pivots and Q are functions of P alone.  The columns of P have the Gram
    matrix of the rows of v, so the pivots are found on the rows of v, and
    P[:, piv] = v M with M = v[piv]^T, so Q = v O for the positive-diagonal
    QR M = O R, which keeps Q orthonormal to rounding.  For k = 1 this
    makes the largest-magnitude entry positive; for k = d it is the
    identity up to rounding.  Only exact ties between pivot candidates
    leave the choice to rounding.
    """
    rows = v.copy()
    picks = []
    for _ in range(v.shape[-1]):
        pick = np.argmax(np.sum(rows * rows, axis=-1), axis=-1)
        picks.append(pick)
        top = np.take_along_axis(rows, pick[..., None, None], axis=-2)
        top /= np.linalg.norm(top, axis=-1, keepdims=True)
        rows -= (rows @ np.swapaxes(top, -1, -2)) * top
    pivots = np.sort(np.stack(picks, axis=-1), axis=-1)
    o, r = np.linalg.qr(np.swapaxes(np.take_along_axis(v, pivots[..., None], axis=-2), -1, -2))
    return v @ (o * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :])


def _nullspace(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal nullspace bases of a stack of (r, d) row matrices.

    A matrix's rank counts its singular values above ``NULLSPACE_RTOL``
    times the largest; a zero matrix, or one without rows, has rank 0.
    Returns ``(bases, dims)``: ``dims`` (m,) holds each nullspace's
    dimension and ``bases`` (m, d, max(dims)) holds item i's basis, the
    trailing right singular vectors, in its first ``dims[i]`` columns,
    zeros after.
    """
    d = rows.shape[-1]
    _, s, vt = np.linalg.svd(rows)
    rank = np.sum(s > NULLSPACE_RTOL * s[:, :1], axis=-1)
    dims = d - rank
    null_rows = np.zeros((len(rows), dims.max(initial=0), d))
    for r in set(rank.tolist()):
        same = rank == r
        null_rows[same, : d - r] = vt[same, r:]
    return np.swapaxes(null_rows, 1, 2), dims


def _complement_rows(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the orthogonal complement of span(a).

    The span's basis has relative cutoff ``SPAN_RTOL``; the SVD of a basis
    without columns gives an identity U, so an empty span has every row.
    """
    u, rank = _column_space(a)
    return np.linalg.svd(u[:, :rank])[0][:, rank:].T


def subspace_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal (d, k) basis of span(a) & span(b) for (d, p) and (d, q) inputs.

    Membership in each span is imposed through the orthogonal complement:
    x lies in span(a) iff comp(a)^T x = 0.  The stacked complement rows go
    through the nullspace step :func:`_nullspace`, the same step that
    intersects the flags of :func:`dichospec.bundles.restricted_fiber_system`.
    """
    bases, dims = _nullspace(np.concatenate([_complement_rows(a), _complement_rows(b)])[None])
    return bases[0, :, : dims[0]]
