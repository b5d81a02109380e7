"""Exponential-dichotomy certificates and the dichotomy spectrum.

A scaling gamma > 0 is in the resolvent of x(n+1) = A(n) x(n) when the
scaled system x(n+1) = gamma^-1 A(n) x(n) admits an exponential dichotomy:
an invariant splitting into a stable family (forward decay with constants
K, rho < 1) and an unstable family (backward decay).  The spectrum is the
complement, a union of at most d closed intervals; crossing an interval
from left to right strictly increases the dichotomy rank (the dimension of
the stable family).

Certification works on a finite window [-N, N] with a burn-in margin on
each side:

1. One lock-stepped QR sweep carries four frames.  Two start from the
   identity at time 0, forward and backward, and estimate d per-direction
   growth rates each; counting rates below log(gamma) seeds candidate ranks.
2. The other two are full flags: B, propagated backward from the right
   burn-in zone with the most contracted directions first (backward
   propagation attracts onto the stable families), and F, forward from the
   left zone with the most amplified first.  For each candidate rank s the
   leading s columns of B frame the stable family (most contracted first)
   and the leading d - s of F the unstable family; the leading blocks of
   the flags' R factors are the one-step factors restricted to these
   frames, small s x s matrices.
3. Per-gap maxima of restricted product norms (forward on the stable
   family, backward on the unstable family) are assembled for every rank
   0..d by a doubling scheme when the analyzer is built, and each side's
   decay law is fitted to them once, at gamma = 1: its log-slope, tail
   residual and log K; the factor stacks and flags are then dropped.
   Scaling by gamma adds -/+ gap * log(gamma) to the log-envelopes, which
   shifts the least-squares slope by -/+ log(gamma) and leaves the
   residual and log K as they are, so a verdict reads rho =
   exp(slope -/+ log(gamma)) and the rest off this per-rank table,
   without fitting anything.
4. A candidate certifies when both fitted decay rates stay below
   1 - DELTA_FIT, the envelope is straight over the fitting tail
   (residual gate), and the stable/unstable frames at time 0 are
   transversal.  At most one rank can satisfy all gates.

Backward norms on the unstable family are computed from inverses of the
well-conditioned restricted one-step factors, never from small singular
values of long products, which float arithmetic cannot resolve.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Mapping

import numpy as np

from .bohl import BohlParams, _checked_count, _scalar_tail
from .errors import (DecayFitError, ParameterError, SpectrumConsistencyError,
                     ValidationError)
from .linalg import frame_sweep, min_principal_angle
from .sequences import MatrixSequence, ScalarSequence
from .transition import WindowProducts, transition

# Fractions of the full factor span used for slope fitting.  The resulting
# gaps are snapped to a common multiple of small periods so that periodic
# systems telescope exactly and contribute zero fit residual.
_SLOPE_FRACTIONS = (0.47, 0.56, 0.66, 0.75, 0.84, 0.94)
# Fewest (gap, log-norm) samples fit_decay_constants accepts.
_MIN_DECAY_SAMPLES = 8
# Header of the verdict CSV; each row is a DichotomyVerdict.csv().
_VERDICT_CSV_HEADER = "gamma,outcome,rank,rho,K"
# Certificate gates.  THETA_MIN: least principal angle (radians) between
# the stable and unstable spaces at time 0, compared with the smallest of
# the min(s, d - s) angles (resolved to about 1e-15 absolute); below it the
# splitting is not transversal.  RHO_SPLIT: a verdict at gamma within a
# factor 1/RHO_SPLIT of a sampled per-direction rate is low confidence.
# DELTA_FIT: both fitted decay rates must be at most 1 - DELTA_FIT.
# RESID_MAX: largest deviation (log units) of the tail envelope from its
# fitted line; more curvature means the rate has not converged.
THETA_MIN = 1e-3
RHO_SPLIT = 0.95
DELTA_FIT = 1e-4
RESID_MAX = 0.75
# Points of the logarithmic gamma grid that estimate_spectrum probes first.
GRID_POINTS = 48


@dataclass(frozen=True)
class DichotomyParams:
    """Window layout for dichotomy certification.

    window
        Half-length N of the usable range [-N, N].
    burn_in
        Extra factors on each side consumed by frame convergence before
        the usable range starts.
    """

    window: int = 256
    burn_in: int = 128

    def __post_init__(self):
        if _checked_count(self.window, "window") < 32:
            raise ParameterError("dichotomy window must be at least 32")
        if _checked_count(self.burn_in, "burn_in") < 8:
            raise ParameterError("burn_in must be at least 8")

    @property
    def extent(self) -> int:
        return self.window + self.burn_in

    def scaled(self, factor: int) -> "DichotomyParams":
        return replace(self, window=self.window * factor, burn_in=self.burn_in * factor)

    def fit_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Sampled gaps and the mask of those used for slope fitting.

        Gaps never exceed the half-width N: every sampled gap then has at
        least N + 1 window offsets inside [-N, N], so systems with
        different behavior on the two half-lines keep their extremal
        windows (a gap longer than N can only straddle time 0, which bends
        the envelope and would poison the fit).  Slope gaps sit in the
        upper part of [1, N] and are multiples of 48 (24 or 12 for small
        windows), so window products of any period dividing the alignment
        telescope exactly.  The dyadic ladder below them only pins the
        constant K.
        """
        span = self.window
        align = 48 if span >= 480 else (24 if span >= 240 else 12)
        slope = set()
        for f in _SLOPE_FRACTIONS:
            g = int(round(span * f / align)) * align
            if align <= g <= span:
                slope.add(g)
        if len(slope) < 2:
            raise ParameterError("window too small to place slope-fitting gaps")
        ladder = [1]
        while ladder[-1] * 2 <= self.window:
            ladder.append(ladder[-1] * 2)
        gaps = np.array(sorted(set(ladder) | slope))
        mask = np.isin(gaps, sorted(slope))
        return gaps, mask


@dataclass(frozen=True)
class DecayFit:
    """Decay law  log-norm <= log_k + gap * slope,  i.e. norm <= K rho^gap,
    fitted to ``samples`` samples; ``residual`` is the largest deviation of
    the slope-fitting samples from their least-squares line."""

    slope: float
    residual: float
    log_k: float
    samples: int

    @property
    def K(self) -> float:
        return math.exp(min(self.log_k, 700.0))

    @property
    def rho(self) -> float:
        return math.exp(self.slope)

    @property
    def failed(self) -> bool:
        """True when the fitted slope is not a decay (rho >= 1)."""
        return not (self.rho < 1.0)


def _decay_line(gaps: np.ndarray, values: np.ndarray, tail_mask: np.ndarray) -> DecayFit:
    """Decay law  log-norm <= log K + gap log rho  fitted to samples at ``gaps``.

    Slope and residual come from a least-squares line over the
    ``tail_mask`` samples; K is the least constant that puts every sample
    on or below the law.
    """
    xs, ys = gaps[tail_mask], values[tail_mask]
    coef, *_ = np.linalg.lstsq(np.stack([np.ones_like(xs), xs], axis=1), ys, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    residual = float(np.max(np.abs(ys - (intercept + slope * xs))))
    return DecayFit(slope, residual, float(np.max(values - slope * gaps)), len(gaps))


def fit_decay_constants(samples) -> DecayFit:
    """Fit (K, rho, residual) to log-norm decay samples.

    ``samples`` maps time pairs (k, l) with k >= l to log-norms, or is an
    iterable of ((k, l), value) or (gap, value) pairs; at least 8 samples
    over two or more distinct gaps are needed.  The slope comes from least
    squares over all samples; the intercept is then raised until every
    sample lies on or below the line, so the returned pair is the tightest
    bound of the given data.  A non-decaying slope is reported through
    :attr:`DecayFit.failed` rather than an exception.
    """
    pairs = samples.items() if isinstance(samples, Mapping) else samples
    gaps, values = [], []
    for key, value in pairs:
        if isinstance(key, tuple):
            k, l = key
            gap = k - l
        else:
            gap = key
        if gap < 0:
            raise ParameterError(f"decay sample has negative gap {gap}")
        gaps.append(float(gap))
        values.append(float(value))
    if len(gaps) < _MIN_DECAY_SAMPLES:
        raise DecayFitError(
            f"need at least {_MIN_DECAY_SAMPLES} decay samples, got {len(gaps)}")
    g = np.array(gaps)
    if np.ptp(g) == 0.0:
        raise DecayFitError("decay samples must span at least two distinct gaps")
    return _decay_line(g, np.array(values), np.ones(len(g), dtype=bool))


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of testing one scaling gamma.

    A certificate carries the splitting at time 0 (orthonormal stable and
    unstable bases), its rank, and the fitted decay constants.  An
    in-spectrum verdict carries the failure reason and how close the best
    candidate came to certifying.
    """

    gamma: float
    outcome: str  # "certificate" | "in_spectrum"
    window: int
    rank: int | None = None
    stable_basis: np.ndarray | None = None
    unstable_basis: np.ndarray | None = None
    K: float | None = None
    rho: float | None = None
    residual: float | None = None
    reason: str | None = None  # splitting-degenerate | decay-fit-failed | transversality-lost
    margin: float = 0.0
    low_confidence: bool = False

    @property
    def is_certificate(self) -> bool:
        return self.outcome == "certificate"

    def csv(self) -> str:
        """The row  gamma,outcome,rank,rho,K; an absent value is an empty cell."""
        rank = "" if self.rank is None else str(self.rank)
        rho = "" if self.rho is None else repr(float(self.rho))
        k = "" if self.K is None else repr(float(self.K))
        return f"{float(self.gamma)!r},{self.outcome},{rank},{rho},{k}"


@dataclass(frozen=True)
class _Candidate:
    """Rank-s splitting data, independent of gamma: one entry of the table.

    Each side's envelope has its decay law fitted at gamma = 1; a side the
    rank does not have (stable for s = 0, unstable for s = d) is None.  The
    bases are read-only, as every verdict of the rank hands them out.
    """

    rank: int
    stable_basis: np.ndarray
    unstable_basis: np.ndarray
    stable_env: np.ndarray | None    # per-gap max log ||X(m+g,m)| stable||
    unstable_env: np.ndarray | None  # per-gap max log ||X(m,m+g)| unstable||
    angle: float
    stable_fit: DecayFit | None
    unstable_fit: DecayFit | None


def _family_seeds(factors: np.ndarray, m_hat: float,
                  cap: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Init length ``binit`` and seed frames at both ends of a factor stack.

    ``binit`` is long enough to separate directions and short enough that
    a product over it keeps resolvable singular values.  Returns ``binit``,
    the left singular vectors of the product of the first ``binit`` factors
    (most amplified first) and the right ones of the last ``binit`` (most
    contracted last).
    """
    log_m = max(math.log(max(m_hat, 1.0)), 0.05)
    binit = max(4, min(int(16.0 / log_m), cap))
    first = last = np.eye(factors.shape[1])
    for a, b in zip(factors[:binit], factors[-binit:]):
        first, last = a @ first, b @ last
    return binit, np.linalg.svd(first)[0], np.linalg.svd(last)[2].conj().T


def _candidate(rank: int, stable_basis: np.ndarray, unstable_basis: np.ndarray,
               stable_steps: np.ndarray | None, unstable_steps: np.ndarray | None,
               gaps: np.ndarray, tail_mask: np.ndarray) -> _Candidate:
    """The rank's table entry from its families at time 0 and their one-step
    factors for n in [-N, N): forward on the stable family, backward on the
    unstable one (latest first), None for a side the rank does not have.
    Envelopes are taken at ``gaps`` and fitted with slopes from the
    ``tail_mask`` gaps (step 3 of the module docstring).
    """
    def side(steps):
        if steps is None:
            return None, None
        wp = WindowProducts(steps)
        env = np.array([wp.max_log_norm(int(g))[0] for g in gaps])
        return env, _decay_line(gaps.astype(float), env, tail_mask)

    stable_basis, unstable_basis = stable_basis.copy(), unstable_basis.copy()
    for basis in (stable_basis, unstable_basis):
        basis.flags.writeable = False
    (stable_env, stable_fit), (unstable_env, unstable_fit) = side(stable_steps), side(unstable_steps)
    return _Candidate(rank=rank, stable_basis=stable_basis, unstable_basis=unstable_basis,
                      stable_env=stable_env, unstable_env=unstable_env,
                      angle=(min_principal_angle(stable_basis, unstable_basis)
                             if 0 < rank < len(stable_basis) else math.pi / 2),
                      stable_fit=stable_fit, unstable_fit=unstable_fit)


class DichotomyAnalyzer:
    """Shared window data answering dichotomy queries for every gamma.

    Construction validates the sequence, runs the one QR sweep of the
    rates and the flag pair, and builds from it the table entry of every
    rank 0..d: the families at time 0, their envelopes and decay laws.  A
    built analyzer keeps only ``seq``, ``params``, ``m_hat``, the two rate
    vectors and this table; every verdict reads the table and fits nothing.
    """

    def __init__(self, seq: MatrixSequence, params: DichotomyParams | None = None):
        self.seq = seq
        self.params = params or DichotomyParams()
        ext = self.params.extent
        factors = seq.window(-ext, ext - 1)
        inverses = np.linalg.inv(factors)
        self.m_hat = seq.validate((-ext, ext)).m_hat
        # the rate sweeps and, for d > 1, the flags B and F (steps 1-2 of
        # the module docstring); shorter items are padded with identity maps
        d, n_win, eye = seq.dimension, self.params.window, np.eye(seq.dimension)
        parts, seeds = [factors[ext:], inverses[ext - 1::-1]], [eye, eye]
        if d > 1:
            binit, amplified, contracted = _family_seeds(
                factors, self.m_hat, self.params.burn_in // 2)
            off = ext - binit  # after j steps B sits at time off - j, F at j - off
            parts += [inverses[ext - n_win: ext + off][::-1], factors[ext - off: ext + n_win]]
            seeds += [contracted[:, ::-1], amplified]
        maps = np.tile(eye, (len(parts), max(map(len, parts)), 1, 1))
        for item, part in zip(maps, parts):
            item[: len(part)] = part
        frames, r = frame_sweep(maps, np.stack(seeds))
        self._forward_rates, self._backward_rates = np.log(
            np.diagonal(r[:2, ext // 2: ext], axis1=2, axis2=3)).mean(axis=1)
        # each rank's families at time 0 and their steps for n in [-N, N)
        usable = slice(self.params.burn_in, self.params.burn_in + 2 * n_win)
        shapes = [(np.zeros((d, 0)), eye, None, inverses[usable][::-1])]
        if d > 1:
            # a Householder column depends only on the columns before it, so
            # the leading s columns of B and the leading d - s of F, with the
            # leading blocks of their R factors (B's in forward time order),
            # are the rank-s families and their restricted steps:
            # A(n) Vs(n) = Vs(n+1) G(n)^-1 gives the stable forward factors,
            # and the unstable side's backward ones are inverted R blocks
            flags, steps = frames[2:, off], r[2:, off - n_win: off + n_win]
            shapes += [(flags[0][:, :s], flags[1][:, :d - s], np.linalg.inv(steps[0, ::-1, :s, :s]),
                        np.linalg.inv(steps[1, :, :d - s, :d - s])[::-1]) for s in range(1, d)]
        shapes.append((eye, np.zeros((d, 0)), factors[usable], None))
        gaps, tail_mask = self.params.fit_gaps()
        self._table = tuple(_candidate(s, *shape, gaps, tail_mask)
                            for s, shape in enumerate(shapes))

    # -- per-gamma verdicts ----------------------------------------------------

    def verdict(self, gamma: float) -> DichotomyVerdict:
        """Certificate or in-spectrum verdict for one scaling.

        The ranks near the count of sampled rates below gamma are tried in
        order of distance from that count.  Each reads its decay laws off
        the per-rank table (step 3 of the module docstring): the stable
        side decays at rho = exp(slope - log gamma), the unstable side at
        exp(slope + log gamma), and the residual and K = exp(min(log K,
        700)) do not depend on gamma.  The first rank that passes every
        gate certifies.  A gamma that is a bool, not a real number, or not
        positive and finite as a float (10**400 is not) raises
        :class:`ParameterError`.
        """
        value = math.nan
        if not isinstance(gamma, (bool, np.bool_)) and isinstance(gamma, numbers.Real):
            try:
                value = float(gamma)
            except OverflowError:
                pass
        if not (value > 0.0 and math.isfinite(value)):
            raise ParameterError(f"gamma must be a positive finite real, got {gamma!r}")
        gamma = value
        p = self.params
        d = self.seq.dimension
        lg = math.log(gamma)
        s0 = int(np.sum(self._forward_rates < lg))
        u0 = int(np.sum(self._backward_rates < -lg))
        near = min(float(np.min(np.abs(self._forward_rates - lg))),
                   float(np.min(np.abs(self._backward_rates + lg))))
        boundary_band = near <= -math.log(RHO_SPLIT)

        ranks = sorted({min(d, max(0, r)) for r in (s0 - 1, s0, s0 + 1, d - u0)},
                       key=lambda r: (abs(r - s0), r))
        certified = []
        best_violation = math.inf
        decay_ok_but_tangent = False
        for s in ranks:
            cand = self._table[s]
            fits = [(f, shift) for f, shift in ((cand.stable_fit, -lg), (cand.unstable_fit, lg))
                    if f is not None]
            rho = max(math.exp(f.slope + shift) for f, shift in fits)
            residual = max(f.residual for f, _ in fits)
            k_const = max(1.0, *(f.K for f, _ in fits))
            violation = max(0.0, rho - (1.0 - DELTA_FIT))
            violation += max(0.0, residual - RESID_MAX)
            decay_ok = violation == 0.0
            angle_ok = (not 0 < s < d) or cand.angle >= THETA_MIN
            if not angle_ok:
                decay_ok_but_tangent = decay_ok_but_tangent or decay_ok
                violation += THETA_MIN - cand.angle
            if decay_ok and angle_ok:
                certified.append((s, cand, rho, residual, k_const))
            best_violation = min(best_violation, violation)

        if certified:
            s, cand, rho, residual, k_const = certified[0]
            return DichotomyVerdict(
                gamma=gamma, outcome="certificate", window=p.window, rank=s,
                stable_basis=cand.stable_basis, unstable_basis=cand.unstable_basis,
                K=k_const, rho=rho, residual=residual,
                margin=(1.0 - DELTA_FIT) - rho,
                low_confidence=boundary_band or len(certified) > 1)

        if s0 + u0 != d:
            reason = "splitting-degenerate"
        elif decay_ok_but_tangent:
            reason = "transversality-lost"
        else:
            reason = "decay-fit-failed"
        return DichotomyVerdict(gamma=gamma, outcome="in_spectrum", window=p.window,
                                reason=reason, margin=best_violation,
                                low_confidence=boundary_band)


def test_dichotomy(seq: MatrixSequence, gamma: float,
                   params: DichotomyParams | None = None) -> DichotomyVerdict:
    """One-shot dichotomy test at a single scaling.

    Builds a fresh analyzer; for sweeps over many gamma construct a
    :class:`DichotomyAnalyzer` once or use :func:`estimate_spectrum`.
    """
    return DichotomyAnalyzer(seq, params).verdict(gamma)


@dataclass(frozen=True)
class SpectralInterval:
    """One closed spectral interval [a, b]."""

    a: float
    b: float
    low_confidence: bool = False

    def __post_init__(self):
        if not (0.0 < self.a <= self.b):
            raise ValidationError(f"invalid spectral interval [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.a - tol <= x <= self.b + tol


@dataclass(frozen=True)
class SpectrumEstimate:
    """Ordered spectral intervals with per-gap dichotomy data.

    ``gap_ranks`` has one entry per resolvent gap, from below the first
    interval (rank 0) to above the last (rank d).  ``gap_certificates``
    holds one representative certificate per gap (empty only in the
    degenerate all-in-spectrum case).  An entry is ``None`` when the
    first (last) probe was in-spectrum, so the grid edge stands in for
    rank 0 (d) and that gap has no certified splitting.  ``grid`` records
    every verdict probed during estimation, sorted by gamma.
    """

    intervals: tuple[SpectralInterval, ...]
    gap_ranks: tuple[int, ...]
    gap_certificates: tuple[DichotomyVerdict | None, ...]
    grid: tuple[DichotomyVerdict, ...]
    refine_tol: float
    m_hat: float
    window: int
    dimension: int
    degenerate: bool = False

    def __post_init__(self):
        if not self.intervals:
            raise ValidationError("spectrum estimate needs at least one interval")
        if len(self.gap_ranks) != len(self.intervals) + 1:
            raise ValidationError("gap rank count must exceed interval count by one")
        for left, right in zip(self.intervals, self.intervals[1:]):
            if not (left.b < right.a):
                raise ValidationError("spectral intervals must be disjoint and ordered")
        for lo, hi in zip(self.gap_ranks, self.gap_ranks[1:]):
            if not (lo < hi):
                raise ValidationError("gap ranks must strictly increase")

    @property
    def hull(self) -> tuple[float, float]:
        return self.intervals[0].a, self.intervals[-1].b

    def covering_interval(self, x: float, tol: float = 0.0) -> SpectralInterval | None:
        for iv in self.intervals:
            if iv.contains(x, tol):
                return iv
        return None

    def verdicts_to_csv(self) -> str:
        """The verdict CSV text: the header, then one row per probe of ``grid``."""
        return "\n".join([_VERDICT_CSV_HEADER, *(v.csv() for v in self.grid)]) + "\n"


def _same_dimension(seq: MatrixSequence, dimension: int, what: str) -> None:
    """Refuse ``what``, computed for a ``dimension``-dimensional system, on ``seq``."""
    if dimension != seq.dimension:
        raise ParameterError(f"{what} is for a {dimension}-dimensional system, "
                             f"not this {seq.dimension}-dimensional sequence")


def estimate_spectrum(seq: MatrixSequence, *, refine_tol: float = 1e-3,
                      params: DichotomyParams | None = None,
                      analyzer: DichotomyAnalyzer | None = None) -> SpectrumEstimate:
    """Estimate the dichotomy spectrum as ordered intervals with gap ranks.

    A GRID_POINTS-point logarithmic grid spanning the certified norm bound
    with 10% margin is probed first.  Then each adjacent grid pair that
    brackets a structure change (certificate/in-spectrum flip, or a rank
    jump between certificates hiding a spectral interval narrower than the
    grid) is bisected: split at its geometric midpoint, and each half that
    still brackets a change split again, while wider than refine_tol / 4
    relative and its midpoint is a float strictly between its ends.  So
    endpoints err by at most about gamma * refine_tol / 4 (or the float
    spacing, for a smaller refine_tol) plus the verdict blur DELTA_FIT.

    The dichotomy rank is constant on each resolvent component and rises
    across every spectral interval (Aulbach & Siegmund, J. Difference
    Equ. Appl. 7, 2001), so the spectrum is the set of gaps between at
    most d + 1 rank level sets.  The sorted probes split into runs of
    certificates with one rank; an interior single-probe run is below
    resolution and dropped, and an in-spectrum first (last) probe stands
    in for rank 0 (d).  A level set is the hull of its rank's runs; each
    interval runs from the last probe of one level set to the first of
    the next (resolvent probes, so it contains what the window data
    supports), clamped to [1/m_hat, m_hat].  Each gap's certificate is
    its level set's largest-margin one, ``None`` for a stand-in.

    An interval is low-confidence when it holds a dropped certificate, a
    neighbouring level set is a stand-in or spans several runs, a
    neighbouring gap certificate is low-confidence, or it was clamped to
    a point.  :class:`SpectrumConsistencyError` is raised when level sets
    overlap or their ranks do not increase with gamma, or when the edge
    ranks are not 0 and d.  If no gamma certifies, the probed range is
    one low-confidence interval.
    A given ``analyzer`` must be built on ``seq`` or an equal sequence,
    and ``params``, if given too, must be its params; otherwise
    :class:`ParameterError` is raised.
    """
    if not (0.0 < refine_tol < 0.5):
        raise ParameterError("refine_tol must lie in (0, 0.5)")
    if analyzer is None:
        analyzer = DichotomyAnalyzer(seq, params)
    elif analyzer.seq is not seq and analyzer.seq != seq:
        raise ParameterError("the analyzer was built for another sequence")
    elif params is not None and params != analyzer.params:
        raise ParameterError(f"params {params} differ from the analyzer's {analyzer.params}")
    d = seq.dimension
    m_hat = analyzer.m_hat
    lo = 1.0 / (m_hat * 1.1)
    hi = m_hat * 1.1
    if hi / lo < 1.0 + 8.0 * refine_tol:
        lo /= 1.05
        hi *= 1.05

    probes = {g: analyzer.verdict(g) for g in map(float, np.geomspace(lo, hi, GRID_POINTS))}
    keys = sorted(probes)
    brackets = list(zip(keys, keys[1:]))
    while brackets:
        x, y = brackets.pop()
        m = math.sqrt(x * y)
        vx, vy = probes[x], probes[y]
        if (y / x - 1.0 > refine_tol / 4.0 and x < m < y
                and (vx.outcome, vx.rank) != (vy.outcome, vy.rank)):
            probes[m] = analyzer.verdict(m)
            brackets += [(x, m), (m, y)]

    keys = sorted(probes)
    verdicts = [probes[k] for k in keys]
    shared = dict(grid=tuple(verdicts), refine_tol=refine_tol, m_hat=m_hat,
                  window=analyzer.params.window, dimension=d)
    if not any(v.is_certificate for v in verdicts):
        interval = SpectralInterval(keys[0], keys[-1], low_confidence=True)
        return SpectrumEstimate(intervals=(interval,), gap_ranks=(0, d),
                                gap_certificates=(), degenerate=True, **shared)

    # runs of consecutive certificates with one rank; an in-spectrum grid
    # edge stands in for rank 0 (d), and an interior single-probe run is
    # below resolution
    runs: list[tuple[int, int, int]] = []  # (rank, first index, last index)
    dropped: list[float] = []
    i, last = 0, len(keys) - 1
    for rank, group in groupby(verdicts, key=lambda v: v.rank if v.is_certificate else None):
        j = i + len(list(group)) - 1
        if rank is None:
            runs += [(r, e, e) for r, e in ((0, 0), (d, last)) if i <= e <= j]
        elif i == j and 0 < i < last:
            dropped.append(keys[i])
        else:
            runs.append((rank, i, j))
        i = j + 1

    # each rank's level set is the hull of its runs
    ranks = sorted({r for r, _, _ in runs})
    level_runs = [[(i, j) for r, i, j in runs if r == rank] for rank in ranks]
    spans = [(lr[0][0], lr[-1][1]) for lr in level_runs]
    if ranks[0] != 0 or ranks[-1] != d:
        raise SpectrumConsistencyError(
            f"edge gap ranks {ranks[0]}..{ranks[-1]} differ from 0..{d}")
    if any(below[1] >= above[0] for below, above in zip(spans, spans[1:])):
        raise SpectrumConsistencyError(
            f"rank level sets {ranks} overlap or do not increase along gamma")
    certs = [[v for i, j in lr for v in verdicts[i: j + 1] if v.is_certificate]
             for lr in level_runs]
    reps = [max(c, key=lambda v: (v.margin, -v.gamma)) if c else None for c in certs]
    unsure = [len(lr) > 1 or not c for lr, c in zip(level_runs, certs)]

    bound_lo, bound_hi = 1.0 / m_hat, m_hat
    intervals = []
    for i, (below, above) in enumerate(zip(spans, spans[1:])):
        a, b = keys[below[1]], keys[above[0]]
        lowc = (unsure[i] or unsure[i + 1] or any(a < g < b for g in dropped)
                or any(v is not None and v.low_confidence for v in reps[i: i + 2]))
        ca, cb = max(a, bound_lo), min(b, bound_hi)
        if ca > cb:  # interval entirely outside the certified bound range
            ca = cb = min(max(a, bound_lo), bound_hi)
            lowc = True
        intervals.append(SpectralInterval(ca, cb, low_confidence=lowc))

    return SpectrumEstimate(intervals=tuple(intervals), gap_ranks=tuple(ranks),
                            gap_certificates=tuple(reps), **shared)


def periodic_spectrum_oracle(seq: MatrixSequence) -> tuple[float, ...]:
    """Spectrum of a periodic system from its monodromy eigenvalues.

    For the sequence's exact period p the spectrum is the finite set
    {|lambda|^(1/p)} over the eigenvalues of X(p, 0), with coinciding
    moduli collapsed.
    """
    period = seq.period
    if period is None:
        raise ParameterError("spectrum oracle needs a periodic sequence")
    monodromy = transition(seq, period, 0).to_matrix()
    moduli = np.abs(np.linalg.eigvals(monodromy)) ** (1.0 / period)
    points: list[float] = []
    for m in sorted(moduli):
        if not points or m - points[-1] > 1e-12 * max(1.0, m):
            points.append(float(m))
    return tuple(points)


def scalar_spectrum(u: ScalarSequence, params: BohlParams | None = None) -> SpectralInterval:
    """Dichotomy spectrum of a scalar sequence.

    Equals the closed interval between the whole-line lower and upper Bohl
    exponents, so offsets are forced two-sided regardless of ``params``.
    """
    lower, upper, _ = _scalar_tail(u, replace(params or BohlParams(), two_sided=True))
    return SpectralInterval(lower, upper)
