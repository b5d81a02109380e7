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

    The step loop runs a plain Householder QR and the sign convention of
    :func:`qr_positive` is imposed once afterwards, through the running
    column signs c (c[0] = 1, c[i + 1] = sign(diag R_raw[i]) * c[i], a zero
    sign restarting its column at +1): Q[i] = Q_raw[i] * c[i] and
    R[i] = diag(c[i + 1]) R_raw[i] diag(c[i]).  This is exact, not an
    approximation: negating a column of the frame commutes exactly with
    the product ``maps[i] @ Q[i]`` and with Householder QR (Q is unchanged,
    that column of R is negated), so every step does the arithmetic of a
    per-step ``qr_positive`` walk and the results equal it bit for bit.
    """
    m, k = maps.shape[0], q0.shape[1]
    frames = np.empty((m + 1, *q0.shape))
    factors = np.empty((m, k, k))
    frames[0] = q0
    for i in range(m):
        frames[i + 1], factors[i] = np.linalg.qr(maps[i] @ frames[i])
    steps = np.sign(np.diagonal(factors, axis1=1, axis2=2))
    # c[i + 1] is the product of the signs since the last zero one: the
    # running product of the nonzero signs times its value at that restart
    zero = steps == 0
    flips = np.cumprod(np.where(zero, 1.0, steps), axis=0)
    restart = np.maximum.accumulate(np.where(zero, np.arange(m)[:, None], -1), axis=0)
    signs = np.ones((m + 1, k))
    signs[1:] = flips * np.where(restart >= 0, flips[restart, np.arange(k)], 1.0)
    frames *= signs[:, None, :]
    factors *= signs[:-1, None, :]
    # zeros below the diagonal go back to +0 before the row signs, so even
    # their signs match qr_positive's; every step here works in place
    below = np.tril_indices(k, -1)
    factors[:, below[0], below[1]] = 0.0
    factors *= signs[1:, :, None]
    return frames, factors


def _column_space(a: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and numerical rank of a matrix or of each in a stack.

    The rank counts singular values above ``rtol`` times the largest; a
    zero matrix, or one without columns, has rank 0.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, np.sum(s > rtol * s[..., :1], axis=-1)


def orthonormal_columns(a: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis for the column space of ``a``."""
    u, rank = _column_space(a, rtol)
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


def subspace_intersection(a: np.ndarray, b: np.ndarray, dim: int, rtol: float = 1e-8
                          ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of span(a) & span(b), for one pair or a stack of pairs.

    Membership in each span is imposed through the orthogonal complement:
    x lies in span(a) iff comp(a)^T x = 0.  The stacked constraint matrix
    is sent through an SVD nullspace with relative cutoff ``rtol``.

    A pair ``a`` (d, p), ``b`` (d, q) gives the (d, k) basis.  Stacks
    ``a`` (m, d, p), ``b`` (m, d, q) give ``(bases, dims)``: ``dims`` (m,)
    holds each intersection's dimension, and ``bases`` (m, d, max(dims))
    holds pair i's basis in its first ``dims[i]`` columns, zeros after.
    Each SVD step runs batched over the pairs whose spans have equal
    ranks; numpy applies the same LAPACK routine to each matrix of a
    stack, so every basis, signs included, equals the one-pair result bit
    for bit.
    """
    single = a.ndim == 2
    if single:
        a, b = a[None], b[None]
    ua, ra = _column_space(a, 1e-12)
    ub, rb = _column_space(b, 1e-12)
    null_rows = np.zeros((len(a), dim, dim))
    dims = np.empty(len(a), dtype=int)
    for pa, pb in set(zip(ra.tolist(), rb.tolist())):
        group = np.flatnonzero((ra == pa) & (rb == pb))
        # rows spanning the orthogonal complement of each span; the SVD of
        # a matrix without columns (or rows) gives an identity U (or V)
        rows = np.concatenate([np.swapaxes(np.linalg.svd(u[group, :, :r])[0][..., r:], 1, 2)
                               for u, r in ((ua, pa), (ub, pb))], axis=1)
        _, s, vt = np.linalg.svd(rows)
        rank = np.sum(s > rtol * s[:, :1], axis=-1)
        for r in set(rank.tolist()):
            same = rank == r
            null_rows[group[same], : dim - r] = vt[same, r:]
            dims[group[same]] = dim - r
    bases = np.swapaxes(null_rows[:, : dims.max(initial=0)], 1, 2)
    return bases[0, :, : dims[0]] if single else (bases, dims)
