"""Transition operators of x(n+1) = A(n) x(n) with overflow-safe scaling.

The two-parameter transition operator is

    X(m, n) = A(m-1) ... A(n)              for m > n,
    X(n, n) = I,
    X(m, n) = A(m)^-1 ... A(n-1)^-1        for m < n,

so that x(m) = X(m, n) x(n) along solutions and the cocycle identity
X(k, l) X(l, j) = X(k, j) holds for all integers.  Norms of these products
grow or decay geometrically, so nothing here ever materializes a bare
product over a long window: matrices are carried as a unit-size core plus
a natural-log scale (:class:`ScaledMatrix`), orbits are renormalized every
step (:func:`orbit_lognorms`), and window products over many offsets are
built by a doubling scheme on normalized factors (:class:`WindowProducts`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, WindowCapError
from .linalg import batched_spectral_norm, spectral_norm
from .sequences import MatrixSequence, _checked_inverses

# Hard cap on the number of factors in a single requested product.
DEFAULT_WINDOW_CAP = 1_000_000


def _rescued_norms(stack: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (m, k, k) stack, given their plain values.

    A plain norm (the root of the summed squares) that is inf, or 0 for a
    nonzero matrix, overflowed or underflowed in the squares; it is
    recomputed from the matrix scaled by its largest |entry|.  Every other
    norm keeps its bits.
    """
    bad = ~np.isfinite(norms) | (norms == 0.0)
    if not bad.any():
        return norms
    big = np.abs(stack[bad]).max(axis=(1, 2))
    scaled = stack[bad] / np.where(big > 0.0, big, 1.0)[:, None, None]
    norms = norms.copy()
    norms[bad] = big * np.sqrt(np.einsum("lij,lij->l", scaled, scaled))
    return norms


def _frobenius(a: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # an overflowed sum is rescued below
        plain = np.sqrt([np.square(a).sum()])
    return float(_rescued_norms(a[None], plain)[0])


@dataclass(frozen=True)
class ScaledMatrix:
    """A matrix stored as  exp(log_scale) * core  with unit-size core.

    The core is renormalized after every multiplication (by its Frobenius
    norm, which for a d-by-d matrix pins the spectral norm of the core to
    [1/sqrt(d), 1]), so products over arbitrarily long windows stay inside
    floating point range; only the scalar ``log_scale`` grows.  Reported
    quantities such as :meth:`log_norm` always refer to the spectral norm
    of the represented matrix.
    """

    core: np.ndarray
    log_scale: float

    @classmethod
    def identity(cls, d: int) -> "ScaledMatrix":
        return cls(core=np.eye(d), log_scale=0.0)

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "ScaledMatrix":
        a = np.asarray(a, dtype=float)
        nrm = _frobenius(a)
        if nrm == 0.0 or not math.isfinite(nrm):
            raise ParameterError("cannot scale a zero or non-finite matrix")
        return cls(core=a / nrm, log_scale=math.log(nrm))

    @classmethod
    def _normalized(cls, core: np.ndarray, log_scale: float) -> "ScaledMatrix":
        """Scaled form of  exp(log_scale) * core  for a product core."""
        nrm = _frobenius(core)
        if nrm == 0.0:
            raise ParameterError("product collapsed to zero")
        return cls(core=core / nrm, log_scale=log_scale + math.log(nrm))

    def left_multiplied(self, a: np.ndarray) -> "ScaledMatrix":
        """Scaled form of  a @ self."""
        return self._normalized(a @ self.core, self.log_scale)

    def compose(self, other: "ScaledMatrix") -> "ScaledMatrix":
        """Scaled form of  self @ other."""
        return self._normalized(self.core @ other.core, self.log_scale + other.log_scale)

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


def transition(seq: MatrixSequence, m: int, n: int, *,
               window_cap: int = DEFAULT_WINDOW_CAP) -> ScaledMatrix:
    """Transition operator X(m, n) as a :class:`ScaledMatrix`.

    Parameters
    ----------
    seq : MatrixSequence
        Coefficient sequence; every factor in the window must be invertible.
    m, n : int
        Target and base time.  ``m > n`` multiplies forward factors,
        ``m < n`` multiplies inverse factors, ``m == n`` is the identity.
    window_cap : int
        Upper bound on |m - n|; longer requests raise :class:`WindowCapError`.
    """
    m, n = int(m), int(n)
    if abs(m - n) > window_cap:
        raise WindowCapError(f"requested product over {abs(m - n)} steps exceeds cap {window_cap}")
    acc = ScaledMatrix.identity(seq.dimension)
    if m > n:
        factors = seq.window(n, m - 1)
        for a in factors:
            acc = acc.left_multiplied(a)
    elif m < n:
        inverses = _checked_inverses(seq.window(m, n - 1), m)
        for j in range(len(inverses) - 1, -1, -1):
            acc = acc.left_multiplied(inverses[j])
    return acc


def _write_text(path_or_file, text: str) -> None:
    """Write text to a path (str, bytes or path-like) or a writable stream."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


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
        lo, hi = self.span
        if not (lo <= n <= hi):
            raise ParameterError(f"n={n} outside orbit span [{lo}, {hi}]")
        return n - self.start

    def lognorm_at(self, n: int):
        """log-norm at time n: a float for a vector orbit, a row for a block."""
        return self.lognorms[self.index_of(n)]


def _sweep(maps: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Fill out[k] with the running log-norms of the unit columns of u
    after maps[0], ..., maps[k-1]; out[0] holds the starting log-norms."""
    v = u
    for k, a in enumerate(maps, start=1):
        v = a @ v
        nrm = np.sqrt(np.einsum("ij,ij->j", v, v))
        v = v / nrm
        out[k] = nrm
    np.log(out[1:], out=out[1:])
    np.cumsum(out, axis=0, out=out)


def orbit_lognorms(seq: MatrixSequence, xi: np.ndarray,
                   span: tuple[int, int], *,
                   window_cap: int = DEFAULT_WINDOW_CAP) -> OrbitLog:
    """log ||X(n, 0) xi|| for n over an integer span containing 0.

    ``xi`` is one initial vector or a (d, S) block of them, carried
    through a single sweep as columns.  The orbit is propagated one step
    at a time with renormalization after each step, so the log-norms are
    exact up to rounding while the carried vectors stay unit size.
    """
    lo, hi = int(span[0]), int(span[1])
    if not (lo <= 0 <= hi):
        raise ParameterError("orbit span must contain the base time 0")
    if hi - lo > window_cap:
        raise WindowCapError(f"orbit span of {hi - lo} steps exceeds cap {window_cap}")
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim != 2
    block = xi.reshape(-1, 1) if single else xi
    if block.shape[0] != seq.dimension:
        raise ParameterError(f"xi has length {block.shape[0]}, system dimension is {seq.dimension}")
    nrm0 = np.sqrt(np.einsum("ij,ij->j", block, block))
    if block.shape[1] == 0 or not np.all((nrm0 > 0.0) & np.isfinite(nrm0)):
        raise ParameterError("initial vectors must be nonzero and finite")

    u = block / nrm0
    base = -lo  # index of n = 0
    lognorms = np.empty((hi - lo + 1, block.shape[1]))
    lognorms[base] = np.log(nrm0)
    if hi > 0:
        _sweep(seq.window(0, hi - 1), u, lognorms[base:])
    if lo < 0:
        # stepping from n = -k down to n = -k-1 uses A(-k-1)^-1
        inverses = _checked_inverses(seq.window(lo, -1), lo)[::-1]
        _sweep(inverses, u, lognorms[base::-1])

    if single:
        lognorms = lognorms[:, 0]
    lognorms.flags.writeable = False
    return OrbitLog(xi=block[:, 0].copy() if single else block.copy(), start=lo,
                    lognorms=lognorms)


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
    """

    def __init__(self, factors: np.ndarray):
        factors = np.asarray(factors, dtype=float)
        if factors.ndim != 3 or factors.shape[1] != factors.shape[2]:
            raise ParameterError("factors must be a (m, k, k) stack")
        m = factors.shape[0]
        if m == 0:
            raise ParameterError("factor sequence is empty")
        self.count = m
        nrm = _rescued_norms(factors, np.sqrt(np.einsum("lij,lij->l", factors, factors)))
        if np.any(nrm == 0.0):
            raise ParameterError("zero factor in window product sequence")
        cores = factors / nrm[:, None, None]
        logs = np.log(nrm)
        self._levels = [(cores, logs)]
        h = 1
        while 2 * h <= m:
            cores, logs = self._levels[-1]
            npos = m - 2 * h + 1
            self._levels.append(_renormalized(np.matmul(cores[h: h + npos], cores[:npos]),
                                              logs[h: h + npos] + logs[:npos]))
            h *= 2

    def products(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Normalized cores and log scales of all length-g window products."""
        g = int(g)
        if not (1 <= g <= self.count):
            raise ParameterError(f"gap {g} outside [1, {self.count}]")
        npos = self.count - g + 1
        cores = None
        logs = None
        offset = 0
        for j in range(len(self._levels) - 1, -1, -1):
            h = 1 << j
            if not (g & h):
                continue
            lc, ll = self._levels[j]
            seg_c = lc[offset: offset + npos]
            seg_l = ll[offset: offset + npos]
            if cores is None:
                cores, logs = seg_c.copy(), seg_l.copy()
            else:
                # the accumulated product covers [l, l+offset); the new segment
                # covers the higher indices [l+offset, l+offset+2^j) and so
                # multiplies from the left
                cores, logs = _renormalized(np.matmul(seg_c, cores), logs + seg_l)
            offset += h
        return cores, logs

    def max_log_norm(self, g: int) -> tuple[float, int]:
        """Max over offsets of log ||P_g(l)|| (spectral norm) and the arg max.

        The spectral norm is at most the Frobenius norm, so log ||P_g(l)||
        <= logs[l] + log ||core_l||_F.  Only offsets whose bound reaches the
        exact value at the bound's arg max, less a rounding allowance, get an
        SVD.  Every matrix of a stacked SVD runs the same kernel and the kept
        offsets stay in order, so value and index equal those of an SVD of
        every offset, bit for bit, ties to the first offset included.
        """
        cores, logs = self.products(g)
        upper = logs + 0.5 * np.log(np.einsum("lij,lij->l", cores, cores))
        top = int(np.argmax(upper))
        floor = float(np.log(batched_spectral_norm(cores[top: top + 1]))[0] + logs[top])
        # a NaN floor compares false everywhere and keeps every offset
        keep = np.flatnonzero(~(upper < floor - 1e-9 * (1.0 + abs(floor))))
        vals = np.log(batched_spectral_norm(cores[keep])) + logs[keep]
        pos = int(np.argmax(vals))
        return float(vals[pos]), int(keep[pos])
