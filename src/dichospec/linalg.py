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
    """
    m = maps.shape[0]
    frames = np.empty((m + 1, *q0.shape))
    factors = np.empty((m, q0.shape[1], q0.shape[1]))
    frames[0] = q0
    for i in range(m):
        frames[i + 1], factors[i] = qr_positive(maps[i] @ frames[i])
    return frames, factors


def orthonormal_columns(a: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis for the column space of ``a``."""
    if a.size == 0:
        return a.reshape(a.shape[0], 0)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return a[:, :0]
    rank = int(np.sum(s > rtol * s[0]))
    return u[:, :rank]


def orthogonal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(basis) in R^dim."""
    if basis.shape[1] == 0:
        return np.eye(dim)
    u, _, _ = np.linalg.svd(basis, full_matrices=True)
    return u[:, basis.shape[1]:]


def nullspace(a: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of {x : a x = 0} with a relative singular value cutoff."""
    n = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(a)
    significant = np.zeros(n, dtype=bool)
    if s.size and s[0] > 0.0:
        significant[: s.size] = s > rtol * s[0]
    return vt.conj().T[:, ~significant]


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


def subspace_intersection(a: np.ndarray, b: np.ndarray, dim: int,
                          rtol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of span(a) & span(b).

    Membership in each span is imposed through the orthogonal complement:
    x lies in span(a) iff comp(a)^T x = 0.  The stacked constraint matrix
    is sent through an SVD nullspace with relative cutoff ``rtol``.
    """
    rows = []
    ca = orthogonal_complement(orthonormal_columns(a), dim)
    cb = orthogonal_complement(orthonormal_columns(b), dim)
    if ca.shape[1]:
        rows.append(ca.T)
    if cb.shape[1]:
        rows.append(cb.T)
    if not rows:
        return np.eye(dim)
    return nullspace(np.vstack(rows), rtol=rtol)
