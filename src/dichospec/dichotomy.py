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
   family, backward on the unstable family) are assembled once per rank
   by a doubling scheme; scaling by gamma only shifts these log-envelopes
   linearly, so every verdict after the first is arithmetic on a few
   dozen floats.
4. A candidate certifies when both fitted decay rates stay below
   1 - delta_fit, the envelope is straight over the fitting tail
   (residual gate), and the stable/unstable frames at time 0 are
   transversal.  At most one rank can satisfy all gates.

Backward norms on the unstable family are computed from inverses of the
well-conditioned restricted one-step factors, never from small singular
values of long products, which float arithmetic cannot resolve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Mapping

import numpy as np

from .bohl import BohlParams, _scalar_tail
from .errors import (DecayFitError, ParameterError, SpectrumConsistencyError,
                     ValidationError)
from .linalg import frame_sweep, min_principal_angle
from .sequences import MatrixSequence, ScalarSequence
from .transition import WindowProducts, _write_text, transition

# Fractions of the full factor span used for slope fitting.  The resulting
# gaps are snapped to a common multiple of small periods so that periodic
# systems telescope exactly and contribute zero fit residual.
_SLOPE_FRACTIONS = (0.47, 0.56, 0.66, 0.75, 0.84, 0.94)
# Fewest (gap, log-norm) samples fit_decay_constants accepts.
_MIN_DECAY_SAMPLES = 8
# Header of the verdict CSV; each row is a DichotomyVerdict.csv().
_VERDICT_CSV_HEADER = "gamma,outcome,rank,rho,K"


@dataclass(frozen=True)
class DichotomyParams:
    """Window layout and gates for dichotomy certification.

    window
        Half-length N of the usable range [-N, N].
    burn_in
        Extra factors on each side consumed by frame convergence before
        the usable range starts.
    theta_min
        Minimal principal angle (radians) between the stable and unstable
        spaces at time 0; below it the splitting is not transversal.  The
        gate compares it with the smallest of the min(s, d - s) principal
        angles, resolved to about 1e-15 absolute at any size.
    rho_split
        Diagnostic band: a verdict at gamma within a factor
        1/rho_split of a sampled per-direction rate is flagged low
        confidence (the splitting boundary is barely resolved).
    delta_fit
        Certification requires both fitted decay rates <= 1 - delta_fit.
    resid_max
        Max deviation (log units) of the tail envelope from its fitted
        line; curvature beyond this means the rate has not converged.
    """

    window: int = 256
    burn_in: int = 128
    theta_min: float = 1e-3
    rho_split: float = 0.95
    delta_fit: float = 1e-4
    resid_max: float = 0.75

    def __post_init__(self):
        if self.window < 32:
            raise ParameterError("dichotomy window must be at least 32")
        if self.burn_in < 8:
            raise ParameterError("burn_in must be at least 8")
        if not (0.0 < self.theta_min < math.pi / 2):
            raise ParameterError("theta_min must lie in (0, pi/2)")
        if not (0.0 < self.rho_split < 1.0):
            raise ParameterError("rho_split must lie in (0, 1)")
        if not (0.0 < self.delta_fit < 0.5):
            raise ParameterError("delta_fit must lie in (0, 0.5)")
        if self.resid_max <= 0.0:
            raise ParameterError("resid_max must be positive")

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
    """Fitted constants for a decay law  lognorm <= log K + gap * log rho."""

    K: float
    rho: float
    residual: float
    samples: int

    @property
    def failed(self) -> bool:
        """True when the fitted slope is not a decay (rho >= 1)."""
        return not (self.rho < 1.0)


def _decay_fit(gaps: np.ndarray, values: np.ndarray, tail_mask: np.ndarray) -> DecayFit:
    """Decay law  log-norm <= log K + gap log rho  fitted to samples at ``gaps``.

    Slope and residual come from a least-squares line over the
    ``tail_mask`` samples; K is the least constant that puts every sample
    on or below the law.
    """
    xs, ys = gaps[tail_mask], values[tail_mask]
    coef, *_ = np.linalg.lstsq(np.stack([np.ones_like(xs), xs], axis=1), ys, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    residual = float(np.max(np.abs(ys - (intercept + slope * xs))))
    log_k = float(np.max(values - slope * gaps))
    return DecayFit(K=math.exp(min(log_k, 700.0)), rho=math.exp(slope),
                    residual=residual, samples=len(gaps))


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
    return _decay_fit(g, np.array(values), np.ones(len(g), dtype=bool))


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
        rho = "" if self.rho is None else format(self.rho, ".17g")
        k = "" if self.K is None else format(self.K, ".17g")
        return f"{self.gamma:.17g},{self.outcome},{rank},{rho},{k}"


@dataclass(frozen=True)
class _Candidate:
    """Rank-s splitting data, independent of gamma."""

    rank: int
    stable_basis: np.ndarray
    unstable_basis: np.ndarray
    stable_env: np.ndarray | None    # per-gap max log ||X(m+g,m)| stable||
    unstable_env: np.ndarray | None  # per-gap max log ||X(m,m+g)| unstable||
    angle: float


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


class DichotomyAnalyzer:
    """Shared window data answering dichotomy queries for every gamma.

    Construction validates the sequence and runs the one QR sweep of the
    rates and the flag pair; each rank's envelopes are built lazily from
    slices of the flags on first use and cached, so a full spectrum sweep
    costs little more than a single verdict per distinct rank.
    """

    def __init__(self, seq: MatrixSequence, params: DichotomyParams | None = None):
        self.seq = seq
        self.params = params or DichotomyParams()
        ext = self.params.extent
        self._ext = ext
        self._factors = seq.window(-ext, ext - 1)
        self._inverses = np.linalg.inv(self._factors)
        self.m_hat = seq.validate((-ext, ext)).m_hat
        self._gaps, self._slope_mask = self.params.fit_gaps()
        self._gapsf = self._gaps.astype(float)
        self._candidates: dict[int, _Candidate] = {}
        # the rate sweeps and, for d > 1, the flags B and F (steps 1-2 of
        # the module docstring); shorter items are padded with identity maps
        d, n_win, eye = seq.dimension, self.params.window, np.eye(seq.dimension)
        parts, seeds = [self._factors[ext:], self._inverses[ext - 1::-1]], [eye, eye]
        if d > 1:
            binit, amplified, contracted = _family_seeds(
                self._factors, self.m_hat, self.params.burn_in // 2)
            off = ext - binit  # after j steps B sits at time off - j, F at j - off
            parts += [self._inverses[ext - n_win: ext + off][::-1],
                      self._factors[ext - off: ext + n_win]]
            seeds += [contracted[:, ::-1], amplified]
        maps = np.tile(eye, (len(parts), max(map(len, parts)), 1, 1))
        for item, part in zip(maps, parts):
            item[: len(part)] = part
        frames, r = frame_sweep(maps, np.stack(seeds))
        self._forward_rates, self._backward_rates = np.log(
            np.diagonal(r[:2, ext // 2: ext], axis1=2, axis2=3)).mean(axis=1)
        if d > 1:
            # the flags at time 0 and their steps from n to n + 1 for n in
            # [-N, N), B's in forward time order
            self._flags = frames[2:, off].copy()
            steps = r[2:, off - n_win: off + n_win]
            self._flag_steps = (steps[0, ::-1].copy(), steps[1].copy())

    # -- construction helpers -------------------------------------------------

    def _usable(self, stack: np.ndarray) -> np.ndarray:
        """The 2N entries of a per-step stack that fall in [-N, N)."""
        burn = self.params.burn_in
        return stack[burn: burn + 2 * self.params.window]

    def _env_values(self, factors: np.ndarray) -> np.ndarray:
        wp = WindowProducts(factors)
        return np.array([wp.max_log_norm(int(g))[0] for g in self._gaps])

    def _candidate(self, s: int) -> _Candidate:
        if s in self._candidates:
            return self._candidates[s]
        d = self.seq.dimension
        if s == 0:
            cand = _Candidate(rank=0, stable_basis=np.zeros((d, 0)),
                              unstable_basis=np.eye(d), stable_env=None,
                              unstable_env=self._env_values(self._usable(self._inverses)[::-1]),
                              angle=math.pi / 2)
        elif s == d:
            cand = _Candidate(rank=d, stable_basis=np.eye(d),
                              unstable_basis=np.zeros((d, 0)),
                              stable_env=self._env_values(self._usable(self._factors)),
                              unstable_env=None, angle=math.pi / 2)
        else:
            cand = self._build_split_candidate(s)
        self._candidates[s] = cand
        return cand

    def _build_split_candidate(self, s: int) -> _Candidate:
        # a Householder column depends only on the columns before it, so the
        # leading s columns of B and the leading d - s of F, with the leading
        # blocks of their R factors, are the rank-s stable and unstable
        # families and their restricted steps.  A(n) Vs(n) = Vs(n+1) G(n)^-1
        # gives the restricted forward factors; backward norms on the
        # unstable family come from products of the inverted one-step
        # factors in reversed order
        u = self.seq.dimension - s
        stable_basis, unstable_basis = self._flags[0][:, :s].copy(), self._flags[1][:, :u].copy()
        stable_r, unstable_r = self._flag_steps
        stable_env = self._env_values(np.linalg.inv(stable_r[:, :s, :s]))
        unstable_env = self._env_values(np.linalg.inv(unstable_r[:, :u, :u])[::-1])
        return _Candidate(rank=s, stable_basis=stable_basis,
                          unstable_basis=unstable_basis,
                          stable_env=stable_env, unstable_env=unstable_env,
                          angle=min_principal_angle(stable_basis, unstable_basis))

    # -- per-gamma verdicts ----------------------------------------------------

    def verdict(self, gamma: float) -> DichotomyVerdict:
        """Certificate or in-spectrum verdict for one scaling."""
        if not (gamma > 0.0) or not math.isfinite(gamma):
            raise ParameterError("gamma must be a positive finite real")
        p = self.params
        d = self.seq.dimension
        lg = math.log(gamma)
        s0 = int(np.sum(self._forward_rates < lg))
        u0 = int(np.sum(self._backward_rates < -lg))
        near = min(float(np.min(np.abs(self._forward_rates - lg))),
                   float(np.min(np.abs(self._backward_rates + lg))))
        boundary_band = near <= -math.log(p.rho_split)

        ranks = sorted({min(d, max(0, r)) for r in (s0 - 1, s0, s0 + 1, d - u0)},
                       key=lambda r: (abs(r - s0), r))
        certified = []
        best_violation = math.inf
        decay_ok_but_tangent = False
        for s in ranks:
            cand = self._candidate(s)
            fits = []
            violation = 0.0
            # scaling by gamma shifts the log-envelopes linearly in the gap;
            # slopes come from the aligned tail gaps only
            if s > 0:
                fits.append(_decay_fit(self._gapsf, cand.stable_env - self._gapsf * lg,
                                       self._slope_mask))
            if s < d:
                fits.append(_decay_fit(self._gapsf, cand.unstable_env + self._gapsf * lg,
                                       self._slope_mask))
            rho = max(f.rho for f in fits)
            residual = max(f.residual for f in fits)
            k_const = max(1.0, *(f.K for f in fits))
            violation += max(0.0, rho - (1.0 - p.delta_fit))
            violation += max(0.0, residual - p.resid_max)
            decay_ok = violation == 0.0
            angle_ok = (not 0 < s < d) or cand.angle >= p.theta_min
            if not angle_ok:
                decay_ok_but_tangent = decay_ok_but_tangent or decay_ok
                violation += p.theta_min - cand.angle
            if decay_ok and angle_ok:
                certified.append((s, cand, rho, residual, k_const))
            best_violation = min(best_violation, violation)

        if certified:
            s, cand, rho, residual, k_const = certified[0]
            return DichotomyVerdict(
                gamma=gamma, outcome="certificate", window=p.window, rank=s,
                stable_basis=cand.stable_basis, unstable_basis=cand.unstable_basis,
                K=k_const, rho=rho, residual=residual,
                margin=(1.0 - p.delta_fit) - rho,
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

    def verdicts_to_csv(self, path_or_file) -> None:
        rows = [_VERDICT_CSV_HEADER, *(v.csv() for v in self.grid)]
        _write_text(path_or_file, "\n".join(rows) + "\n")


def estimate_spectrum(seq: MatrixSequence, *, grid_points: int = 48,
                      refine_tol: float = 1e-3,
                      params: DichotomyParams | None = None,
                      analyzer: DichotomyAnalyzer | None = None) -> SpectrumEstimate:
    """Estimate the dichotomy spectrum as ordered intervals with gap ranks.

    A logarithmic grid spanning the certified norm bound with 10% margin
    is probed first.  Then, until a fixed point, any adjacent probe pair
    that brackets a structure change (certificate/in-spectrum flip, or a
    rank jump between certificates hiding a spectral interval narrower
    than the grid) is split at its geometric midpoint, down to relative
    width refine_tol / 4, so endpoints err by at most about
    gamma * refine_tol / 4 plus the verdict blur delta_fit.

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
    overlap or their ranks do not increase with gamma, when the edge
    ranks are not 0 and d, or when refinement finds no fixed point.  If
    no gamma certifies, the probed range is one low-confidence interval.
    """
    if grid_points < 8:
        raise ParameterError("grid_points must be at least 8")
    if not (0.0 < refine_tol < 0.5):
        raise ParameterError("refine_tol must lie in (0, 0.5)")
    if analyzer is None:
        analyzer = DichotomyAnalyzer(seq, params)
    d = seq.dimension
    m_hat = analyzer.m_hat
    lo = 1.0 / (m_hat * 1.1)
    hi = m_hat * 1.1
    if hi / lo < 1.0 + 8.0 * refine_tol:
        lo /= 1.05
        hi *= 1.05

    probes: dict[float, DichotomyVerdict] = {}

    def at(g: float) -> DichotomyVerdict:
        if g not in probes:
            probes[g] = analyzer.verdict(g)
        return probes[g]

    for g in np.geomspace(lo, hi, grid_points):
        at(float(g))

    tol4 = refine_tol / 4.0
    for _ in range(200):
        keys = sorted(probes)
        fresh = []
        for x, y in zip(keys, keys[1:]):
            if y / x - 1.0 <= tol4:
                continue
            vx, vy = probes[x], probes[y]
            flip = vx.outcome != vy.outcome
            jump = vx.is_certificate and vy.is_certificate and vx.rank != vy.rank
            if flip or jump:
                fresh.append(math.sqrt(x * y))
        if not fresh:
            break
        for g in fresh:
            at(g)
    else:
        raise SpectrumConsistencyError("endpoint refinement did not reach a fixed point")

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
