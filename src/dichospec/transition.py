"""Transition operators of x(n+1) = A(n) x(n) with overflow-safe scaling.

The two-parameter transition operator is

    X(m, n) = A(m-1) ... A(n)              for m > n,
    X(n, n) = I,
    X(m, n) = A(m)^-1 ... A(n-1)^-1        for m < n,

so that x(m) = X(m, n) x(n) along solutions and the cocycle identity
X(k, l) X(l, j) = X(k, j) holds for all integers.  Norms of these products
grow or decay geometrically, so nothing here ever materializes a bare
product over a long window.  One sweep (:func:`_sweep`) carries a block of
columns through chunks of power-of-two-scaled prefix products, about
2 sqrt(m) Python steps for m maps: :func:`transition` carries the identity
and returns a unit-size core plus a natural-log scale
(:class:`ScaledMatrix`), and :func:`orbit_lognorms` carries initial vectors
and keeps their log-norms.  Both take their maps from
:func:`dichospec.sequences._maps_between`.  Window products over many
offsets are built by a doubling scheme on normalized factors
(:class:`WindowProducts`).  Where the factors repeat bit for bit from some
row on (periodic and constant systems, and the one-step factors of their
swept families, which ``frame_sweep`` copies from its first exact cycle),
the products do too, so each doubling level is built only up to that cycle
and a later row is read from the row a whole number of lags before it.
That is exact, not an approximation: every row of a stacked product runs
the same deterministic kernel, so equal factors give equal bits.  Every
norm that must not over- or underflow comes from
:func:`dichospec.linalg._frobenius_norms`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ParameterError, WindowCapError
from .linalg import (_frobenius_norms, _gram_eigen_bounds, _pow2_scaled, batched_spectral_norm,
                     spectral_norm)
from .sequences import MatrixSequence, _integer_bounds, _maps_between

# Hard cap on the number of factors in a single requested product.
WINDOW_CAP = 1_000_000

# Largest log condition bound one orbit chunk may reach (see _chunk_length).
# A carried column then keeps a norm above e^-512 / 4, about 1e-223, so the
# products that flush to zero below 1e-308 change it by far less than one
# rounding.
CHUNK_LOG_CONDITION = 512.0

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ScaledMatrix:
    """A matrix stored as  exp(log_scale) * core  with unit-size core.

    :meth:`from_matrix` and :meth:`compose` divide the core by its
    Frobenius norm (spectral norm in [1/sqrt(d), 1]); :func:`transition`
    scales it by a power of two (largest |entry| in [1/2, 1], spectral norm
    in [1/2, d]).  Either way only the scalar ``log_scale`` grows over long
    windows.  Reported quantities such as :meth:`log_norm` always refer to
    the spectral norm of the represented matrix.
    """

    core: np.ndarray
    log_scale: float

    @classmethod
    def identity(cls, d: int) -> "ScaledMatrix":
        return cls(core=np.eye(d), log_scale=0.0)

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "ScaledMatrix":
        a = np.asarray(a, dtype=float)
        nrm = float(_frobenius_norms(a, (0, 1)))
        if nrm == 0.0 or not math.isfinite(nrm):
            raise ParameterError("cannot scale a zero or non-finite matrix")
        return cls(core=a / nrm, log_scale=math.log(nrm))

    def compose(self, other: "ScaledMatrix") -> "ScaledMatrix":
        """Scaled form of  self @ other."""
        prod = ScaledMatrix.from_matrix(self.core @ other.core)
        return ScaledMatrix(prod.core, self.log_scale + other.log_scale + prod.log_scale)

    def log_norm(self) -> float:
        """log of the spectral norm of the represented matrix."""
        return self.log_scale + math.log(spectral_norm(self.core))

    def to_matrix(self) -> np.ndarray:
        """Materialize; may overflow to inf or underflow to 0 for long windows."""
        return self.core * math.exp(self.log_scale)

    def relative_distance(self, other: "ScaledMatrix") -> float:
        """|| self - other || / max(||self||, ||other||), scale-aligned."""
        ref = max(self.log_scale, other.log_scale)
        a = self.core * math.exp(self.log_scale - ref)
        b = other.core * math.exp(other.log_scale - ref)
        denom = max(spectral_norm(a), spectral_norm(b))
        if denom == 0.0:
            return 0.0
        return spectral_norm(a - b) / denom


def transition(seq: MatrixSequence, m: int, n: int) -> ScaledMatrix:
    """Transition operator X(m, n) as a :class:`ScaledMatrix`.

    Parameters
    ----------
    seq : MatrixSequence
        Coefficient sequence; every factor in the window must be invertible.
    m, n : int
        Target and base time, integers: an integral float passes, and a
        fraction, a bool or a non-number raises :class:`ParameterError`.
        ``m > n`` multiplies forward factors, ``m < n`` multiplies inverse
        factors, ``m == n`` is the identity.  |m - n| over ``WINDOW_CAP``
        raises :class:`WindowCapError`.

    One :func:`_sweep` carries the identity through the maps from n to m,
    about 2 sqrt(|m - n|) Python steps, and returns each column scaled by
    its own power of two.  The core keeps each power relative to the
    largest, which times log 2 is the log scale, so the core's largest
    |entry| lies in [1/2, 1].  It rounds like :func:`orbit_lognorms`, not
    like a walk that renormalizes after every step.
    """
    m, n = _integer_bounds((m, n), "transition times (m, n) =")
    if abs(m - n) > WINDOW_CAP:
        raise WindowCapError(f"requested product over {abs(m - n)} steps exceeds cap {WINDOW_CAP}")
    d = seq.dimension
    block, exps = _sweep(_maps_between(seq, n, m), np.eye(d), np.zeros((abs(m - n) + 1, d)))
    top = int(exps.max())
    return ScaledMatrix(core=np.ldexp(block, exps - top), log_scale=top * _LN2)


@dataclass(frozen=True)
class OrbitLog:
    """Renormalized orbits of one initial vector or of a block of them.

    For a vector xi, ``lognorms[k]`` is log ||X(start + k, 0) xi|| for
    k = 0 .. len-1.  For a (d, S) block, ``lognorms`` has shape (len, S),
    one column per initial vector.
    """

    xi: np.ndarray
    start: int
    lognorms: np.ndarray

    @property
    def span(self) -> tuple[int, int]:
        return self.start, self.start + len(self.lognorms) - 1

    def index_of(self, n: int) -> int:
        (n,) = _integer_bounds((n,), "orbit time")
        lo, hi = self.span
        if not (lo <= n <= hi):
            raise ParameterError(f"n={n} outside orbit span [{lo}, {hi}]")
        return n - self.start

    def lognorm_at(self, n: int):
        """log-norm at time n: a float for a vector orbit, a row for a block."""
        return self.lognorms[self.index_of(n)]


def _chunk_length(maps: np.ndarray) -> int:
    """Steps per chunk of :func:`_sweep` over a (m, d, d) stack of maps.

    isqrt(m) balances the sweep's two loops, cut so that no chunk sums
    more than ``CHUNK_LOG_CONDITION`` of d log ||A||_F - log |det A| (each
    term at least 0).  That sum bounds log(sigma_max / sigma_min) of every
    prefix of the chunk, so a carried unit column keeps a norm of at least
    e^-CHUNK_LOG_CONDITION / 4 relative to its prefix.  A singular or
    overflowing map, or one whose own singular values differ by more than
    e^CHUNK_LOG_CONDITION, makes every chunk a single step.
    """
    m, d = maps.shape[0], maps.shape[1]
    k = math.isqrt(m)
    if k <= 1:
        return 1
    with np.errstate(divide="ignore", invalid="ignore"):
        fro = _frobenius_norms(maps, (1, 2))
        worst = float(np.max(d * np.log(fro) - np.linalg.slogdet(maps)[1]))
    if not worst * k <= CHUNK_LOG_CONDITION:  # a NaN worst lands here too
        k = max(1, int(CHUNK_LOG_CONDITION / worst)) if math.isfinite(worst) else 1
    return k


def _sweep(maps: np.ndarray, u: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill out[k] with the running log-norms of the unit columns of u
    after maps[0], ..., maps[k-1]; out[0] holds the starting log-norms.
    Returns the final block and its integer exponents e (1, S): the maps'
    product times u is block * 2**e by columns (u and 0 without maps).

    The m maps are cut into C chunks of K steps (:func:`_chunk_length`).
    First every chunk's prefix products are built in lock-step, K batched
    products over all C chunks.  Then the (d, S) block is carried through
    the chunks, C batched products of a chunk's K prefixes with the block
    it starts from.  That is K + C, about 2 sqrt(m), Python steps for the
    flops of m single steps.

    Prefixes (of chunks longer than one step) and carried columns are
    rescaled by powers of two, which is exact, and their exponents are
    summed as integers, so the only roundings are those of the products
    and one log per output.  Column norms are taken after the same
    scaling, so they cannot over- or underflow.
    """
    m, d = maps.shape[0], u.shape[0]
    start = np.zeros((1, u.shape[1]), dtype=np.int64)  # log2 scale of v
    if m == 0:
        return u, start
    k = _chunk_length(maps)
    c = -(-m // k)
    pre = np.empty((c * k, d, d))
    pre[:m] = maps
    pre[m:] = np.eye(d)  # pads the last chunk; its rows past m are dropped
    pre = pre.reshape(c, k, d, d)
    exps = np.zeros((c, k, 1, 1), dtype=np.int64)
    # one-step chunks form no product, so their maps stay as given: scaling
    # diag(1e200, 1e-200) by a power of two would flush 1e-200 to 0
    if k > 1:
        pre[:, 0], exps[:, 0] = _pow2_scaled(pre[:, 0], (1, 2))
    for j in range(1, k):
        pre[:, j], exps[:, j] = _pow2_scaled(pre[:, j] @ pre[:, j - 1], (1, 2))
    exps = np.cumsum(exps[:, :, 0], axis=1)  # (c, k, 1): log2 scale of each prefix

    v = u
    for i in range(c):
        w, e = _pow2_scaled(pre[i] @ v, 1)  # (k, d, S) and (k, 1, S)
        e = e[:, 0] + exps[i] + start
        n = min(k, m - i * k)
        seg = out[1 + i * k: 1 + i * k + n]
        np.multiply(e[:n], _LN2, out=seg)
        seg += 0.5 * np.log(np.einsum("kij,kij->kj", w[:n], w[:n]))
        v, start = w[-1], e[-1:]
    out[1:] += out[0]
    return v, start


def orbit_lognorms(seq: MatrixSequence, xi: np.ndarray,
                   span: tuple[int, int]) -> OrbitLog:
    """log ||X(n, 0) xi|| for n over an integer span containing 0.

    ``xi`` is one initial vector or a (d, S) block of them, carried
    through a single sweep as columns; the span's bounds must be integers.

    Each half of the span is one :func:`_sweep` through chunks of prefix
    products (Benettin et al. renormalize orbits the same way, once per
    block of steps).  The products associate differently and the scales
    add up as integer powers of two, so the log-norms round differently
    from a walk that renormalizes after every step; on seeded and
    ill-conditioned systems they agree with a 40-digit walk to within
    1e-15 of max(1, |log-norm|).
    """
    lo, hi = _integer_bounds(span, "orbit span")
    if not (lo <= 0 <= hi):
        raise ParameterError("orbit span must contain the base time 0")
    if hi - lo > WINDOW_CAP:
        raise WindowCapError(f"orbit span of {hi - lo} steps exceeds cap {WINDOW_CAP}")
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim != 2
    block = xi.reshape(-1, 1) if single else xi
    if block.shape[0] != seq.dimension:
        raise ParameterError(f"xi has length {block.shape[0]}, system dimension is {seq.dimension}")
    nrm0 = _frobenius_norms(block, (0,))
    if block.shape[1] == 0 or not np.all((nrm0 > 0.0) & np.isfinite(nrm0)):
        raise ParameterError("initial vectors must be nonzero and finite")

    u = block / nrm0
    base = -lo  # index of n = 0
    lognorms = np.empty((hi - lo + 1, block.shape[1]))
    lognorms[base] = np.log(nrm0)
    _sweep(_maps_between(seq, 0, hi), u, lognorms[base:])
    _sweep(_maps_between(seq, 0, lo), u, lognorms[base::-1])

    if single:
        lognorms, block = lognorms[:, 0], block[:, 0]
    lognorms.flags.writeable = False
    return OrbitLog(xi=block.copy(), start=lo, lognorms=lognorms)


def _renormalized(prod: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (m, k, k) product stack divided in place by its Frobenius norms,
    and ``logs`` plus the logs of those norms."""
    nrm = np.sqrt(np.einsum("lij,lij->l", prod, prod))
    prod /= nrm[:, None, None]
    return prod, logs + np.log(nrm)


class WindowProducts:
    """All-offset window products of a factor sequence, built by doubling.

    Given factors F(0), ..., F(m-1) (small k x k matrices, typically the
    one-step maps of a cocycle restricted to an invariant family), this
    precomputes normalized products of every dyadic length at every offset:

        P_g(l) = F(l+g-1) ... F(l),   l = 0 .. m-g.

    Arbitrary gaps are assembled from the dyadic levels by binary
    decomposition, so no inverse of an ill-conditioned long product is
    ever formed and only largest-singular-value information is trusted.

    The factors' cycle comes from :func:`~dichospec.linalg._map_period`,
    compared as ``uint64`` bits: from row ``start`` on, every factor
    equals the one c rows before it (for a stack whose last factor does
    not repeat, every seeded one, start is m and nothing is cut).  Then
    P_g(l) = P_g(l - c) for l >= start, for every g, and so at every
    level; since numpy runs one deterministic kernel on every matrix of a
    stacked product, the computed rows are equal bit for bit too.  Each
    level is therefore built on its first ``start`` rows alone, and a
    later row is read from its twin in [start - c, start)
    (:func:`~dichospec.linalg._lag_rows`).  :meth:`products` returns every
    offset; :meth:`max_log_norm` searches only the stored ones, whose
    first maximum is the first maximum over all offsets.
    """

    def __init__(self, factors: np.ndarray):
        factors = np.asarray(factors, dtype=float)
        if factors.ndim != 3 or factors.shape[1] != factors.shape[2]:
            raise ParameterError("factors must be a (m, k, k) stack")
        m = factors.shape[0]
        if m == 0:
            raise ParameterError("factor sequence is empty")
        self.count = m
        # from row `_stored` on, every factor, and so every product at every
        # level, repeats the one `_lag` rows before it bit for bit
        period = linalg._map_period(factors.view(np.uint64)[None])
        self._lag, self._stored = (1, m) if period is None else period
        head = factors[: self._stored]
        nrm = _frobenius_norms(head, (1, 2))
        if np.any(nrm == 0.0):
            raise ParameterError("zero factor in window product sequence")
        cores = head / nrm[:, None, None]
        logs = np.log(nrm)
        self._levels = [(cores, logs)]
        h = 1
        while 2 * h <= m:
            cores, logs = self._levels[-1]
            npos = min(m - 2 * h + 1, self._stored)
            later = self._rows(h, npos)
            self._levels.append(_renormalized(np.matmul(cores[later], cores[:npos]),
                                              logs[later] + logs[:npos]))
            h *= 2

    def _rows(self, offset: int, count: int):
        """Where a level stores its rows offset, ..., offset + count - 1:
        a slice, or the earlier rows holding the bits of the repeated ones."""
        if offset + count <= self._stored:
            return slice(offset, offset + count)
        return linalg._lag_rows(np.arange(offset, offset + count), self._lag, self._stored)

    def _stored_products(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Cores and log scales of the length-g products at the stored
        offsets, 0, ..., min(count - g + 1, stored) - 1."""
        (g,) = _integer_bounds((g,), "gap")
        if not (1 <= g <= self.count):
            raise ParameterError(f"gap {g} outside [1, {self.count}]")
        npos = min(self.count - g + 1, self._stored)
        cores = None
        logs = None
        offset = 0
        for j in range(len(self._levels) - 1, -1, -1):
            h = 1 << j
            if not (g & h):
                continue
            lc, ll = self._levels[j]
            rows = self._rows(offset, npos)
            seg_c = lc[rows]
            seg_l = ll[rows]
            if cores is None:
                cores, logs = seg_c.copy(), seg_l.copy()
            else:
                # the accumulated product covers [l, l+offset); the new segment
                # covers the higher indices [l+offset, l+offset+2^j) and so
                # multiplies from the left
                cores, logs = _renormalized(np.matmul(seg_c, cores), logs + seg_l)
            offset += h
        return cores, logs

    def products(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Normalized cores and log scales of all length-g window products;
        ``g`` is an integer (an integral float passes, as in :func:`transition`)."""
        cores, logs = self._stored_products(g)
        rows = self._rows(0, self.count - int(g) + 1)
        return cores[rows], logs[rows]

    def max_log_norm(self, g: int) -> tuple[float, int]:
        """Max over offsets of log ||P_g(l)|| (spectral norm) and the arg max.

        Two upper bounds decide which offsets need an SVD.  The spectral
        norm is at most the Frobenius norm, so log ||P_g(l)|| <= logs[l] +
        log ||core_l||_F; the exact value at this bound's arg max is the
        floor.  The offsets whose Frobenius bound reaches the floor, less
        an allowance of 1e-9 (1 + |floor|) for rounding, are bounded again
        by the tighter :func:`~dichospec.linalg._gram_eigen_bounds` (for
        k = 1 the Frobenius bound is already exact), and only those that
        still reach it get an SVD; when the floor's own offset is the only
        one left, the floor is the answer.  An offset dropped by either
        bound lies below the floor by more than any rounding of the bound
        or the SVD, so it cannot hold the maximum.  Every matrix of a
        stacked SVD runs the same kernel and the kept offsets stay in
        order, so value and index equal those of an SVD of every offset,
        bit for bit, ties to the first offset included.  Only the stored
        offsets (see the class docstring) are searched: each later offset
        is a bitwise twin of a stored one, so it changes neither the first
        maximum nor its index, and a constant stack stores one offset.
        """
        cores, logs = self._stored_products(g)
        upper = logs + 0.5 * np.log(np.einsum("lij,lij->l", cores, cores))
        top = int(np.argmax(upper))
        floor = float(np.log(batched_spectral_norm(cores[top: top + 1]))[0] + logs[top])
        reach = floor - 1e-9 * (1.0 + abs(floor))
        # a NaN floor compares false everywhere and keeps every offset
        keep = np.flatnonzero(~(upper < reach))
        if len(keep) > 1 and cores.shape[1] > 1:
            tight = logs[keep] + 0.5 * np.log(_gram_eigen_bounds(cores[keep]))
            keep = keep[~(tight < reach)]
        if len(keep) == 1 and keep[0] == top:
            return floor, top
        vals = np.log(batched_spectral_norm(cores[keep])) + logs[keep]
        pos = int(np.argmax(vals))
        return float(vals[pos]), int(keep[pos])
