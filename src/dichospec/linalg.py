"""Small dense linear algebra helpers used throughout the package.

Everything here operates on modest-sized ndarrays (system dimension is
typically 1..10), so plain LAPACK calls via numpy are adequate.  The
spectral norm (largest singular value) is the norm used everywhere a
matrix norm appears in reported quantities; a stack of columns takes it
as the vector 2-norm, without an SVD.

This module owns the scaling that keeps norms in floating-point range:
:func:`_pow2_scaled`, the exact power-of-two scaling, and
:func:`_frobenius_norms`, the package's one overflow-safe Frobenius,
column and vector norm, which equals the plain root of summed squares bit
for bit wherever those squares stay normal.  Beside it,
:func:`_gram_eigen_bounds` bounds the squared spectral norm of each matrix
of a stack from the trace and spread of its Gram matrix, tighter than the
Frobenius norm, so that ``WindowProducts.max_log_norm`` takes SVDs only
where neither bound can decide.

The nullspace step :func:`_nullspace`, one batched SVD and its
singular-value count, serves :func:`subspace_intersection` and the times
at which fiber restriction's closed form is ill-conditioned.
:func:`frame_sweep` is the one place where orthonormal frames are carried
along an orbit (discrete QR); its step calls the compiled kernels behind
``np.linalg.qr`` directly, bit for bit, under one ``errstate`` per sweep
that a floating-point event answers with a replay of a plain QR loop.
"""
from __future__ import annotations

import numpy as np

try:
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced
except ImportError:
    _qr_r_raw = None

SPAN_RTOL = 1e-12  # relative singular-value cutoff for the rank of a span
NULLSPACE_RTOL = 1e-8  # the same for the stacked rows of a nullspace step
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max  # normal float range


def _pow2_scaled(stack: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray]:
    """``stack`` scaled by the power of two that puts its largest |entry|
    over ``axes`` in [1/2, 1), which is exact, and the exponents e (size 1
    over ``axes``) with stack = scaled * 2**e; e = 0 for a zero item."""
    _, exp = np.frexp(np.abs(stack).max(axis=axes, keepdims=True))
    return np.ldexp(stack, -exp), exp


def _frobenius_norms(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Root of the summed squares of ``a`` over ``axes``: Frobenius norms
    of a stack of matrices (axes (1, 2)), 2-norms of columns or a vector.

    The plain value comes first.  Only where its summed squares are not a
    normal float (overflowed to inf, underflowed to 0 or a subnormal, or
    NaN) is it recomputed from the item scaled by :func:`_pow2_scaled` and
    scaled back.  A zero item gives 0; inf and NaN pass through; nothing
    warns.
    """
    letters = "abcdefgh"[: a.ndim]
    spec = f"{letters},{letters}->" + "".join(c for i, c in enumerate(letters) if i not in axes)
    squares = np.einsum(spec, a, a)
    norms = np.sqrt(squares)
    bad = ~((squares >= _TINY) & (squares <= _HUGE))
    if bad.any():
        unit, exp = _pow2_scaled(a, axes)
        rescued = np.ldexp(np.sqrt(np.einsum(spec, unit, unit)), np.squeeze(exp, axes))
        norms = np.where(bad, rescued, norms)
    return norms


def _gram_eigen_bounds(stack: np.ndarray) -> np.ndarray:
    """Upper bounds on the squared largest singular value of each matrix
    C of a (m, d, k) stack: the Wolkowicz–Styan bound m + s sqrt(k - 1)
    on the largest eigenvalue of M = C^T C, where m = tr M / k and s^2 =
    ||M - m I||_F^2 / k (Linear Algebra Appl. 29, 1980).  It is exact for
    k = 2 and for rank one.  s^2 is summed from the shifted entries, not
    as tr(M^2)/k - m^2, so no cancellation enters.  The squares must stay
    in the normal float range, as they do for cores of unit Frobenius norm.
    """
    k = stack.shape[2]
    # numpy's stacked matmul is two to three times faster on a contiguous left factor
    gram = np.matmul(np.ascontiguousarray(np.swapaxes(stack, 1, 2)), stack)
    diag = np.einsum("lii->li", gram)
    mean = diag.sum(axis=1) / k
    diag -= mean[:, None]
    return mean + np.sqrt(np.einsum("lij,lij->l", gram, gram) * ((k - 1) / k))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a 2-d array."""
    return float(np.linalg.norm(a, 2))


def batched_spectral_norm(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (m, d, k) stack.

    A column (k = 1) has its vector 2-norm as that value, so a stack of
    columns takes :func:`_frobenius_norms` instead of an SVD; it neither
    overflows nor underflows where the SVD would not, and a 1 x 1 item
    gives its absolute value bit for bit.
    """
    if stack.size == 0:
        return np.zeros(stack.shape[0])
    if stack.shape[2] == 1:
        return _frobenius_norms(stack, (1, 2))
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def qr_positive(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization with the sign convention diag(R) > 0."""
    q, r = np.linalg.qr(a)
    s = np.sign(np.diagonal(r)).copy()
    s[s == 0] = 1.0
    return q * s, s[:, None] * r


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _qr_kernels(a: np.ndarray, q: np.ndarray) -> None:
    """QR of a float64 (..., d, k) stack, k <= d, as ``np.linalg.qr``
    computes it: ``a`` is factorized in place, so R is its leading k rows
    (with the Householder vectors still below the diagonal), and Q is
    written into ``q``.  :func:`frame_sweep` sets the ``errstate``."""
    tau = _qr_r_raw(a, signature="d->d")
    _qr_reduced(a, tau, signature="dd->d", out=q)


def _qr_wrapped(a: np.ndarray, q: np.ndarray) -> None:
    """The same step through ``np.linalg.qr``, for a numpy without
    ``qr_r_raw``: Q goes into ``q`` and R into the leading k rows of ``a``."""
    q[...], a[..., : a.shape[-1], :] = np.linalg.qr(a)


_qr_step = _qr_wrapped if _qr_r_raw is None else _qr_kernels


def frame_sweep(maps: np.ndarray, q0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carry the orthonormal (d, k) frame q0 through an (m, d, d) stack of maps.

    Returns frames Q (m + 1, d, k) with Q[0] = q0 and positive-diagonal
    factors R (m, k, k) with ``maps[i] @ Q[i] = Q[i + 1] @ R[i]``.  A
    backward walk passes the reversed stack of inverses and flips the result.

    A leading batch axis runs B sweeps in lock-step: maps (B, m, d, d) and
    q0 (B, d, k) give frames (B, m + 1, d, k) and factors (B, m, k, k), at
    one matmul and one QR of the whole stack per step.
    Each batch item equals its own unbatched sweep bit for bit, because
    numpy runs the same kernel (BLAS product, LAPACK Householder QR) on
    every matrix of a stack, so an item sees exactly the arithmetic it
    would see alone.

    Each step writes its product into its own slot of a (B, m, d, k)
    buffer allocated once (``np.matmul`` with ``out=``), and the QR of the
    step is ``np.linalg.qr``'s own two gufuncs, ``qr_r_raw`` and
    ``qr_reduced``, called directly (see the module docstring): the first
    factorizes that slot in place, the second writes Q straight into the
    next frame of the history.  It equals ``np.linalg.qr`` bit for bit.
    After the loop R is read from the leading k rows of the factorized
    products, whose Householder vectors below the diagonal are zeroed with
    the rest of that triangle.  ``maps`` is converted to float64 once, so
    the product the kernels factorize in place is the array R is read from.
    Where numpy lacks ``qr_r_raw`` (numpy 1.x) the step is
    ``np.linalg.qr``, whose Q and R fill the same buffers.

    The step loop runs under one ``np.errstate`` whose callback only notes
    that an event fired (one per step would cost about a fifth of a step).
    The first event, or an exception after it, ends that loop, and the
    sweep is replayed from step 0 as a plain ``np.linalg.qr`` loop runs:
    each product under the caller's ``errstate``, each QR under the
    wrapper's.  So an overflow, invalid value or underflow in a product
    warns or raises as it does there, and a failed factorization raises
    ``LinAlgError``.  ``errstate`` changes the reporting, not the
    arithmetic, so the replay writes the same bits.

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
    maps = np.asarray(maps, dtype=np.float64)
    if not batched:
        maps, q0 = maps[None], q0[None]
    (b, m), k = maps.shape[:2], q0.shape[2]
    frames = np.empty((b, m + 1, *q0.shape[1:]))
    products = np.empty((b, m, *q0.shape[1:]))
    frames[:, 0] = q0
    fired = []
    try:
        with np.errstate(all="call", call=lambda err, flag: fired.append(err)):
            for i in range(m):
                np.matmul(maps[:, i], frames[:, i], out=products[:, i])
                _qr_step(products[:, i], frames[:, i + 1])
                if fired:
                    break
    except Exception:
        if not fired:
            raise
    if fired:
        # the plain np.linalg.qr loop, so the event reaches the caller
        for i in range(m):
            np.matmul(maps[:, i], frames[:, i], out=products[:, i])
            with np.errstate(call=_raise_qr_error, invalid="call",
                             over="ignore", divide="ignore", under="ignore"):
                _qr_step(products[:, i], frames[:, i + 1])
    factors = products[:, :, :k]
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
    # the triangle below the diagonal (Householder vectors on the kernel
    # step) becomes +0 before the row signs, so even the signs of its zeros
    # match qr_positive's; every step here works in place
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
    dimension and ``bases`` (m, d, max(dims)) holds item i's basis, its
    trailing right singular vectors, in its first ``dims[i]`` columns,
    zeros after.  A stack holding an inf or a NaN raises ``LinAlgError``
    before any factorization: LAPACK's SVD does not return on an inf.
    """
    if not np.isfinite(rows).all():
        raise np.linalg.LinAlgError("nullspace of non-finite rows")
    m, r, d = rows.shape
    if r == 0:
        return np.repeat(np.eye(d)[None], m, axis=0), np.full(m, d)
    _, s, vt = np.linalg.svd(rows)
    rank = np.sum(s > NULLSPACE_RTOL * s[:, :1], axis=-1)
    dims = d - rank
    bases = np.zeros((m, d, dims.max()))
    for k in set(rank.tolist()):
        same = rank == k
        bases[same, :, : d - k] = np.swapaxes(vt[same, k:], 1, 2)
    return bases, dims


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
    through the nullspace step :func:`_nullspace`, the singular-value count
    that :func:`dichospec.bundles.restricted_fiber_system` also falls back
    on where its flags are nearly tangent.  An input holding an inf or a
    NaN raises ``LinAlgError`` before any factorization.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise np.linalg.LinAlgError("intersection of non-finite spans")
    bases, dims = _nullspace(np.concatenate([_complement_rows(a), _complement_rows(b)])[None])
    return bases[0, :, : dims[0]]
