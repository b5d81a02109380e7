"""Invariant projectors and spectral bundle fibers.

A certified exponential splitting at rate ``gamma`` of rank s has a
dichotomy projector ``P(n)`` at every time: onto the s-dimensional stable
family along the unstable one.  Both families are read off one flag pair
swept across the window, the flag construction of covariant Lyapunov
vectors (Ginelli et al. 2007; Dieci, Elia & Van Vleck 2010): F forward on
the factors, most amplified directions first, and B backward on their
inverses, most contracted first.  The leading d - s columns of F span the
unstable family and the leading s columns of B the stable one, so each
family is the kernel of the other flag's trailing columns, and ``P(n)``
follows from those complements at each n alone.  Nothing is carried from
one time to the next, so it commutes with the dynamics to rounding over
the whole window; conjugating ``P(0)`` with transition matrices would
amplify its rounding by the rate ratio across the gap at every step.
The fiber of the spectral bundle attached to the interval between two
gaps is the unstable family of the gap below intersected with the stable
family of the gap above; in flag coordinates that intersection has a
closed form (Kuptsov & Parlitz 2012), which fiber restriction reads at
all times of the window in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bohl import _checked_count
from .dichotomy import DichotomyVerdict, SpectrumEstimate, _family_seeds, _same_dimension
from .errors import ParameterError, SubspaceError, ValidationError
from .linalg import (NULLSPACE_RTOL, _nullspace, _pow2_scaled, batched_spectral_norm,
                     canonical_basis, frame_sweep, min_principal_angle, spectral_norm,
                     subspace_intersection)
from .sequences import MatrixSequence, _integer_bounds

IDEMPOTENT_TOL = 1e-9  # largest ||P^2 - P|| a projector family accepts
CONTAINS_RTOL = 1e-8  # relative residual of a vector that lies in a fiber
WHITNEY_THRESHOLD = 1e-3  # least sigma_min of stacked fiber bases in a Whitney sum
# Steps the restriction flag pair is swept outside its window before its
# flags are kept; fiber restriction defaults to it and projector families
# use it, so both read the same cached sweep.
BURN_IN = 128
# Steps per batched frame_sweep call in the restriction flag sweep; one
# sweep over a whole long window holds several MiB of maps, inverses and R.
_SLICE = 256


@dataclass(frozen=True)
class ProjectorFamily:
    """Dichotomy projectors ``P(n)`` tabulated over a window ``[-w, w]``.

    ``projectors[n + w]`` is ``P(n)``, the projector onto the rank-``rank``
    stable family along the unstable one, and ``factors[n + w]`` is A(n)
    for -w <= n < w.  Instances are created from a certificate via
    :func:`projector_family`; the constructor checks that the two stacks
    cover one window and that every ``P(n)`` is idempotent to
    ``IDEMPOTENT_TOL``, raising :class:`ValidationError` otherwise.
    """

    gamma: float
    rank: int
    projectors: np.ndarray
    factors: np.ndarray

    def __post_init__(self) -> None:
        p, a = self.projectors, self.factors
        if (p.ndim != 3 or p.shape[0] % 2 != 1 or p.shape[1] != p.shape[2]
                or a.shape != (p.shape[0] - 1, *p.shape[1:])):
            raise ValidationError(
                f"projector stack {p.shape} and factor stack {a.shape} do not "
                "cover one window [-w, w] and [-w, w - 1]")
        drift = float(np.max(batched_spectral_norm(p @ p - p)))
        if drift > IDEMPOTENT_TOL:
            raise ValidationError(f"projector stack is not idempotent (drift {drift:.3e})")

    @property
    def dimension(self) -> int:
        return self.projectors.shape[1]

    @property
    def window(self) -> int:
        return (self.projectors.shape[0] - 1) // 2

    def _index(self, n: int, last: int) -> int:
        (n,) = _integer_bounds((n,), "projector time")
        w = self.window
        if not -w <= n <= last:
            raise ParameterError(f"n = {n} lies outside the projector window [{-w}, {last}]")
        return n + w

    def at(self, n: int) -> np.ndarray:
        """P(n), for -w <= n <= w."""
        return self.projectors[self._index(n, self.window)]

    def commutation_residual(self, n: int) -> float:
        """|| A(n) P(n) - P(n+1) A(n) ||, which should vanish; -w <= n < w."""
        i = self._index(n, self.window - 1)
        a = self.factors[i]
        return spectral_norm(a @ self.projectors[i] - self.projectors[i + 1] @ a)


def projector_family(seq: MatrixSequence, verdict: DichotomyVerdict) -> ProjectorFamily:
    """Build the dichotomy projector family over a certificate's window.

    With s = ``verdict.rank`` and w = ``verdict.window``, the restriction
    flag pair over ``[-w, w]`` (see :func:`restricted_fiber_system`, whose
    cached sweep at burn-in ``BURN_IN`` this shares) gives at each n, from
    the same time-ordered views of F and B, the rows
    M = [trailing s columns of F, trailing d - s columns of B]^T.  The
    first block vanishes on the unstable family and the second on the
    stable one, so P(n) = M^-1 diag(I_s, 0) M, one batched inverse over all
    2w + 1 times.  Ranks 0 and d give P = 0 and P = I.  Raises
    :class:`ValidationError` when the verdict is not a certificate (there
    is no invariant splitting to project onto), :class:`ParameterError`
    when it certifies a system of another dimension, and
    :class:`SubspaceError` when the two families are not transverse at
    some n.
    """
    if not verdict.is_certificate:
        raise ValidationError(
            f"verdict at gamma={verdict.gamma} is '{verdict.outcome}', not a certificate")
    _same_dimension(seq, verdict.stable_basis.shape[0], "the verdict")
    d, s, w = seq.dimension, verdict.rank, verdict.window
    if 0 < s < d:
        f, b, factors = _restriction_flags(seq, w, BURN_IN)
        m = np.concatenate([np.swapaxes(f[:, :, d - s:], 1, 2),
                            np.swapaxes(b[:, :, s:], 1, 2)], axis=1)
        try:
            projectors = np.linalg.inv(m)[:, :, :s] @ m[:, :s]
        except np.linalg.LinAlgError as exc:
            raise SubspaceError("stable and unstable families are not transverse") from exc
    else:
        factors = seq.window(-w, w - 1)
        projectors = np.repeat(np.eye(d)[None] * (s == d), 2 * w + 1, axis=0)
    return ProjectorFamily(gamma=verdict.gamma, rank=s, projectors=projectors,
                           factors=factors)


@dataclass(frozen=True)
class SpectralBundleFiber:
    """Time-zero fiber attached to the ``index``-th spectral interval (from 1)."""

    index: int
    basis: np.ndarray
    dimension: int

    def __post_init__(self) -> None:
        try:
            if _checked_count(self.index, "fiber index") < 1:
                raise ParameterError(f"fiber index must be at least 1, got {self.index}")
        except ParameterError as exc:
            raise ValidationError(str(exc)) from exc
        if self.basis.ndim != 2 or self.basis.shape[1] != self.dimension:
            raise ValidationError(
                f"fiber basis shape {self.basis.shape} does not carry "
                f"dimension {self.dimension}")
        if self.dimension < 1:
            raise ValidationError("spectral bundle fibers are nontrivial by construction")
        if not np.isfinite(self.basis).all():
            raise ValidationError("fiber basis is not finite")
        gram = self.basis.T @ self.basis
        if spectral_norm(gram - np.eye(self.dimension)) > 1e-8:
            raise ValidationError("fiber basis is not orthonormal")

    @property
    def ambient_dimension(self) -> int:
        return self.basis.shape[0]

    def contains(self, vector: np.ndarray) -> bool:
        """Whether ``vector`` lies in the fiber, up to relative residual
        ``CONTAINS_RTOL``; the answer does not change when ``vector`` is
        scaled by a power of two.  A non-finite vector or one of another
        length than the ambient dimension raises :class:`ParameterError`."""
        v = np.asarray(vector, dtype=float).reshape(-1)
        if v.shape != (self.ambient_dimension,) or not np.isfinite(v).all():
            raise ParameterError(f"need a finite vector of length {self.ambient_dimension}")
        v = _pow2_scaled(v, None)[0]  # no overflow or underflow
        scale = float(np.linalg.norm(v))
        if scale == 0.0:
            return True
        residual = v - self.basis @ (self.basis.T @ v)
        return float(np.linalg.norm(residual)) <= CONTAINS_RTOL * scale


def bundle_fibers(spectrum: SpectrumEstimate,
                  certificates: tuple[DichotomyVerdict | None, ...] | None = None,
                  ) -> tuple[SpectralBundleFiber, ...]:
    """Fibers of the spectral bundle at time zero, one per interval.

    The fiber over interval ``i`` is the intersection of the unstable
    subspace certified below it with the stable subspace certified above
    it.  Certificates default to the per-gap representatives picked during
    spectrum estimation; a degenerate estimate carries none, and a gap
    whose rank a grid edge stood in for carries ``None``.  Both are
    rejected, as there is no splitting to intersect; a certificate of a
    system of another dimension raises :class:`ParameterError`.  Each
    basis is the span-canonical :func:`~dichospec.linalg.canonical_basis`,
    so it does not depend on the column order or signs the intersection
    happens to produce.
    """
    certs = spectrum.gap_certificates if certificates is None else tuple(certificates)
    expected_count = len(spectrum.intervals) + 1
    if len(certs) != expected_count:
        raise SubspaceError(
            f"need {expected_count} gap certificates (one per spectral gap), "
            f"got {len(certs)}")
    for gap, (cert, rank) in enumerate(zip(certs, spectrum.gap_ranks)):
        if cert is None:
            raise SubspaceError(
                f"gap {gap} (rank {rank}) holds no certificate: a grid edge stood in for it")
        if not cert.is_certificate:
            raise SubspaceError(
                f"gap verdict at gamma={cert.gamma} is not a certificate")
        if cert.stable_basis.shape[0] != spectrum.dimension:
            raise ParameterError(
                f"certificate at gamma={cert.gamma} is for a {cert.stable_basis.shape[0]}-"
                f"dimensional system, not this {spectrum.dimension}-dimensional spectrum")
        if cert.rank != rank:
            raise SubspaceError(
                f"certificate at gamma={cert.gamma} has rank {cert.rank}, "
                f"spectrum expects {rank}")
    d = spectrum.dimension
    fibers = []
    for i in range(1, expected_count):
        below, above = certs[i - 1], certs[i]
        expected = above.rank - below.rank
        basis = subspace_intersection(below.unstable_basis, above.stable_basis)
        if basis.shape[1] != expected:
            raise SubspaceError(
                f"fiber {i} has dimension {basis.shape[1]}, expected {expected} "
                f"from the certificate ranks {below.rank} and {above.rank}; "
                "the certificates are inconsistent")
        fibers.append(SpectralBundleFiber(index=i, basis=canonical_basis(basis),
                                          dimension=expected))
    total = sum(f.dimension for f in fibers)
    if total != d:
        raise SubspaceError(
            f"fiber dimensions sum to {total}, not the ambient dimension {d}")
    return tuple(fibers)


def _restriction_flags(seq: MatrixSequence, w: int,
                       burn: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The restriction flag pair over ``[-w, w]``.

    The pair is swept once per key ``(w, burn)`` and kept in the sequence's
    one-entry ``_flag_cache``; a different key replaces the entry, and a
    build that raises leaves none.  Returns F and B, (2w + 1, d, d) each,
    whose ``F[n + w]`` and ``B[n + w]`` are the full flags at time n, as
    columns, and the factors A(-w), ..., A(w - 1) the table is read from.
    F and B are time-ordered views of the one array the sweep fills.
    """
    cache = seq._flag_cache
    entry = cache.get((w, burn))
    if entry is not None:
        return entry
    cache.clear()
    lo, hi = -w - burn, w + burn
    factors = seq.window(lo, hi - 1)
    binit, amplified, contracted = _family_seeds(
        factors, seq.validate((lo, hi)).m_hat, burn)
    off = burn - binit  # the seeds sit at times -w - off and w + off
    steps = 2 * w + off
    # after s steps F sits at time s - w - off and B at w + off - s
    swept = np.empty((2, steps + 1, *amplified.shape))
    swept[:, 0] = amplified, contracted[:, ::-1]
    for start in range(0, steps, _SLICE):
        stop = min(start + _SLICE, steps)
        maps = np.stack([factors[binit + start: binit + stop],
                         np.linalg.inv(factors[burn + steps - stop: burn + steps - start])[::-1]])
        swept[:, start: stop + 1] = frame_sweep(maps, swept[:, start])[0]
    cache[(w, burn)] = entry = (swept[0, off:], swept[1, off:][::-1],
                                factors[burn: burn + 2 * w])
    return entry


def _fiber_index(spectrum: SpectrumEstimate, index) -> int:
    """``index`` checked as an integer from 1 to the interval count of ``spectrum``."""
    if not 1 <= _checked_count(index, "fiber index") <= len(spectrum.intervals):
        raise ParameterError(f"fiber index {index} out of range 1..{len(spectrum.intervals)}")
    return int(index)


def restricted_fiber_system(seq: MatrixSequence, spectrum: SpectrumEstimate,
                            index: int, *, window: int,
                            burn_in: int = BURN_IN) -> tuple[np.ndarray, MatrixSequence]:
    """Coefficient dynamics of the solutions living on one bundle fiber.

    Sampling a non-extremal fiber through plain forward products is
    hopeless in floating point: rounding leaks a component onto a faster
    fiber and the leak compounds at the rate gap per step.  Diagonal
    systems dodge this because coordinate axes are exactly invariant;
    for everything else this function tracks the fiber across the
    requested window as the intersection of two invariant families, the
    flag construction of covariant Lyapunov vectors (Ginelli et al. 2007).

    One lock-stepped :func:`~dichospec.linalg.frame_sweep` carries two full
    orthonormal flags, each from ``burn_in`` (at least 8) steps outside the
    window: F forward on the factors, most amplified directions first, and
    B backward on the inverses, most contracted first.  Neither depends on
    the fiber, so the pair is swept once per (sequence, window, burn-in)
    and kept on the sequence for later fibers; only the latest key is kept.

    Between gap ranks r- < r+ the fiber is the family growing past the gap
    below, span F[:, :d - r-], intersected with the family decaying past
    the gap above, span B[:, :r+].  In flag coordinates the intersection
    has a closed form, the idea of the LU method for covariant Lyapunov
    vectors (Kuptsov & Parlitz 2012): B[:, :r+] for r- = 0, F[:, :d - r-]
    for r+ = d, and otherwise, with M = F[:, d - r-:]^T B[:, :r+] = [M1 M2],
    the span of B[:, r-:r+] - B[:, :r-] M1^-1 M2, made orthonormal by a
    reduced QR, one batch over all 2w + 1 times.  M1 is a block of the
    orthogonal F^T B, so its singular values are at most 1 and
    |det M1| <= sigma_min(M1), the sine of the smallest angle between the
    families of the gap below.  Times with |det M1| <= 2 ``NULLSPACE_RTOL``
    take the singular-value count of :func:`~dichospec.linalg._nullspace`
    on the complement rows of both families instead.  That count misses
    the fiber's dimension only where tan(theta / 2) <= ``NULLSPACE_RTOL``,
    theta the smallest angle between the two complements; a unit
    u = F[:, d - r-:] a at angle theta to the second complement, which is
    orthogonal to B[:, :r+], gives |a^T M1| = |u^T B[:, :r-]| <= sin(theta)
    <= 2 tan(theta / 2), so sigma_min(M1), and with it |det M1|, is at most
    2 ``NULLSPACE_RTOL`` there.  So every such time falls back, and the
    first raises :class:`SubspaceError` naming its n; a time flagged only
    through the determinant gets its fiber from the count.  Each frame is
    the span-canonical :func:`~dichospec.linalg.canonical_basis`, which
    depends on the fiber alone and not on sweep rounding, and the one-step
    factors of the fiber coordinates are read off those frames.
    Re-expressing the orbit in the tracked frame at every step removes the
    leak before it can compound.

    Each frame, table row and residual is a function of F, B and the
    factor at its own time alone, computed by kernels that run alike on
    every matrix of a stack.  So where F, B and the factors all repeat bit
    for bit from some row on, as they do once a periodic or constant
    system's flag sweeps reach their first exact cycle, so do these.  Their
    joint lag c and that row come from one
    :func:`~dichospec.linalg._map_period` call on the three tables, without
    copying them (a seeded table stops at one comparison of its last row);
    frames, table and residual are computed only on the rows before the
    cycle repeats, and every later table row is copied from the row a
    whole number of lags before it, which holds the same bits.

    Returns the fiber frame at time zero together with a tabulated k-by-k
    system covering ``[-window, window - 1]``.  The frames are orthonormal,
    so solutions of the returned system carry exactly the norms of the
    ambient solutions starting on the fiber.  A fiber spanning the whole
    space has nothing to track; the original sequence is returned as is.

    The table is least converged at the window's ends: B reaches
    n = window - 1, and F reaches n = -window, after only ``burn_in``
    minus the seeds' init length (under 128 steps by default).  At window
    2048, 1024 steps of burn-in instead of 128 move the last row by up to
    4.5e-1 relative on periodic d = 3 and 6 systems, and the n = 0 row by
    at most 4.1e-11.
    """
    _same_dimension(seq, spectrum.dimension, "the spectrum")
    index = _fiber_index(spectrum, index)
    r_below = spectrum.gap_ranks[index - 1]
    r_above = spectrum.gap_ranks[index]
    k = r_above - r_below
    d = spectrum.dimension
    w = _checked_count(window, "window")
    if w < 1:
        raise ParameterError("window must be at least 1")
    burn = max(_checked_count(burn_in, "burn_in"), 8)
    if k == d:
        return np.eye(d), seq
    f, b, factors = _restriction_flags(seq, w, burn)
    # from row `stored` on, F, B and the factors each repeat the row `lag`
    # before them bit for bit, and so do the frames and the table read off them
    period = linalg._map_period([x.view(np.uint64) for x in (f, b, factors)])
    lag, stored = (1, 2 * w + 1) if period is None else period
    n = min(stored, 2 * w)  # table rows computed; frames take one more
    f, b, factors = f[: n + 1], b[: n + 1], factors[:n]
    if r_below == 0:
        frames = b[:, :, :r_above]
    elif r_above == d:
        frames = f[:, :, :d - r_below]
    else:
        m = np.swapaxes(f[:, :, d - r_below:], 1, 2) @ b[:, :, :r_above]
        m1 = m[:, :, :r_below]
        near = np.abs(np.linalg.det(m1)) <= 2 * NULLSPACE_RTOL
        # the identity at near times keeps solve from raising; they fall back below
        x = np.linalg.solve(np.where(near[:, None, None], np.eye(r_below), m1),
                            m[:, :, r_below:])
        frames = np.linalg.qr(b[:, :, r_below:r_above] - b[:, :, :r_below] @ x)[0]
        if near.any():
            # the complement rows of the family growing past the gap
            # below, then of the family decaying past the gap above
            rows = np.swapaxes(np.concatenate([f[near, :, d - r_below:],
                                               b[near, :, r_above:]], axis=2), 1, 2)
            bases, dims = _nullspace(rows)
            if (dims != k).any():
                i = np.argmax(dims != k)
                raise SubspaceError(
                    f"fiber {index} lost track at n = {np.flatnonzero(near)[i] - w}: "
                    f"the framing families intersect in dimension {dims[i]}, not {k}")
            frames[near] = bases
    frames = canonical_basis(frames)

    af = factors @ frames[:-1]
    table = np.swapaxes(frames[1:], 1, 2) @ af
    resid = batched_spectral_norm(af - frames[1:] @ table)
    worst = float(np.max(resid / np.maximum(batched_spectral_norm(af), 1e-300)))
    if worst > 1e-6:
        raise SubspaceError(
            f"fiber {index} coordinates are not invariant over the window "
            f"(worst relative residual {worst:.3e}); the spectral gaps "
            "framing it are probably too thin for the sweep to converge")
    if n < 2 * w:
        table = table[linalg._lag_rows(np.arange(2 * w), lag, stored)]
    zero = frames[int(linalg._lag_rows(w, lag, stored))]
    return zero.copy(), MatrixSequence.tabulated(table, start=-w)


@dataclass(frozen=True)
class WhitneyReport:
    """Transversality diagnostics for a collection of fibers."""

    dimension: int
    dimension_sum: int
    smallest_singular_value: float
    threshold: float
    pairwise_angles: tuple[tuple[int, int, float], ...]
    passed: bool

    def rows(self) -> list[str]:
        lines = [
            f"ambient dimension      {self.dimension}",
            f"fiber dimension sum    {self.dimension_sum}",
            f"stacked sigma_min      {self.smallest_singular_value:.6e}",
            f"threshold              {self.threshold:.1e}",
        ]
        for i, j, angle in self.pairwise_angles:
            lines.append(f"angle({i},{j})             {angle:.6f} rad")
        lines.append(f"whitney sum            {'pass' if self.passed else 'FAIL'}")
        return lines


def whitney_sum_check(fibers: tuple[SpectralBundleFiber, ...] | list[SpectralBundleFiber],
                      ) -> WhitneyReport:
    """Check that the fibers decompose the ambient space transversally.

    Passes iff the fiber dimensions sum to the ambient dimension and the
    matrix of all stacked bases keeps its smallest singular value at or
    above ``WHITNEY_THRESHOLD`` (1e-3).  Duplicated or nearly parallel
    fibers fail through the singular value even when the dimension count
    happens to match.  The first fiber fixes the ambient dimension; a fiber
    in another one raises :class:`ValidationError`.
    """
    fibers = tuple(fibers)
    if not fibers:
        raise ParameterError("whitney_sum_check needs at least one fiber")
    d = fibers[0].ambient_dimension
    for f in fibers:
        if f.ambient_dimension != d:
            raise ValidationError(
                f"fiber {f.index} lives in dimension {f.ambient_dimension}, expected {d}")
    stacked = np.hstack([f.basis for f in fibers])
    dim_sum = stacked.shape[1]
    sigma_min = float(np.linalg.svd(stacked, compute_uv=False)[-1]) if dim_sum else 0.0
    angles = []
    for i in range(len(fibers)):
        for j in range(i + 1, len(fibers)):
            angles.append((fibers[i].index, fibers[j].index,
                           min_principal_angle(fibers[i].basis, fibers[j].basis)))
    passed = dim_sum == d and sigma_min >= WHITNEY_THRESHOLD
    return WhitneyReport(dimension=d, dimension_sum=dim_sum,
                         smallest_singular_value=sigma_min, threshold=WHITNEY_THRESHOLD,
                         pairwise_angles=tuple(angles), passed=passed)
