"""Finite-window estimation of Bohl exponents and general growth exponents.

The upper and lower Bohl exponents of a nonzero solution are the limsup and
liminf of the windowed geometric growth rates

    (||X(m+g, 0) xi|| / ||X(m, 0) xi||)^(1/g)

as the gap g grows.  The estimator samples every gap g in [gap_min, window],
records the extremal rates over all window offsets m, and aggregates the
largest tail_fraction of the gaps: the upper exponent is the max of the
per-gap maxima over that tail, the lower exponent the min of the per-gap
minima.  The per-gap envelopes are kept on the result for convergence
diagnostics, since the underlying limits carry no convergence rate.

Offsets m range over [0, window - g] by default.  The ``two_sided`` flag
extends them to [-window, window - g], which is needed to see whole-line
behavior of systems whose growth differs on the two half-lines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .sequences import MatrixSequence, ScalarSequence, _checked_inverses
from .transition import WindowProducts, _write_text, orbit_lognorms

DEFAULT_WINDOW = 2048
DEFAULT_GAP_MIN = 16
DEFAULT_TAIL_FRACTION = 0.2


@dataclass(frozen=True)
class BohlParams:
    """Window layout shared by all growth-rate estimators.

    window
        Largest gap sampled; orbits are evaluated on [0, window] (one-sided)
        or [-window, window] (two-sided).
    gap_min
        Smallest gap entering the envelopes; short gaps only measure
        single-step noise.
    tail_fraction
        Fraction (from the top) of the sampled gaps used for the limsup and
        liminf aggregates.
    two_sided
        Extend window offsets over the negative half-line as well.
    """

    window: int = DEFAULT_WINDOW
    gap_min: int = DEFAULT_GAP_MIN
    tail_fraction: float = DEFAULT_TAIL_FRACTION
    two_sided: bool = False

    def __post_init__(self):
        if self.gap_min < 1:
            raise ParameterError("gap_min must be at least 1")
        if self.window < 2 * self.gap_min:
            raise ParameterError(
                f"window {self.window} too small: need window >= 2 * gap_min = {2 * self.gap_min}")
        if not (0.0 < self.tail_fraction < 1.0):
            raise ParameterError("tail_fraction must lie strictly between 0 and 1")

    def gaps(self) -> np.ndarray:
        return np.arange(self.gap_min, self.window + 1)

    def tail_count(self, n_gaps: int) -> int:
        return max(1, int(round(self.tail_fraction * n_gaps)))

    def orbit_span(self) -> tuple[int, int]:
        return (-self.window, self.window) if self.two_sided else (0, self.window)


def _envelopes(lognorms: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-gap (min, max) of exp((L[m+g] - L[m]) / g) over all offsets m,
    for one orbit (len,) or one orbit per column (len, S)."""
    lo = np.empty((len(gaps),) + lognorms.shape[1:])
    hi = np.empty_like(lo)
    for i, g in enumerate(gaps):
        diffs = lognorms[g:] - lognorms[:-g]
        # division by g > 0 is monotone, so it commutes with min and max
        lo[i] = diffs.min(axis=0) / g
        hi[i] = diffs.max(axis=0) / g
    return np.exp(lo), np.exp(hi)


def _tail(min_rates: np.ndarray, max_rates: np.ndarray):
    """(lower, upper, spread) of tail envelopes, per column: the extremal
    rates and the larger of the two envelopes' ranges."""
    spread = np.maximum(np.ptp(max_rates, axis=0), np.ptp(min_rates, axis=0))
    return min_rates.min(axis=0), max_rates.max(axis=0), spread


def _tail_rates(lognorms: np.ndarray, params: BohlParams):
    """(lower, upper, spread) of :class:`BohlEstimate` per column; only
    the aggregation tail of the gaps enters them, so only it is built."""
    gaps = params.gaps()
    return _tail(*_envelopes(lognorms, gaps[-params.tail_count(len(gaps)):]))


@dataclass(frozen=True)
class BohlEstimate:
    """Windowed Bohl-exponent estimate with per-gap rate envelopes."""

    upper: float
    lower: float
    gaps: np.ndarray
    min_rates: np.ndarray
    max_rates: np.ndarray
    params: BohlParams

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValidationError(
                f"lower estimate {self.lower} exceeds upper estimate {self.upper}")

    @property
    def tail_slice(self) -> slice:
        return slice(len(self.gaps) - self.params.tail_count(len(self.gaps)), len(self.gaps))

    @property
    def spread(self) -> float:
        """Residual variation of the envelopes over the aggregation tail.

        Measures how far the tail rates are from having converged; useful as
        an additive tolerance when comparing against other estimates.
        """
        t = self.tail_slice
        return float(_tail(self.min_rates[t], self.max_rates[t])[2])

    def envelope_at(self, g: int) -> tuple[float, float]:
        idx = np.searchsorted(self.gaps, g)
        if idx >= len(self.gaps) or self.gaps[idx] != g:
            raise ParameterError(f"gap {g} not sampled")
        return float(self.min_rates[idx]), float(self.max_rates[idx])

    def envelopes_to_csv(self, path_or_file) -> None:
        """Write rows  g, min_rate, max_rate  for convergence plots."""
        rows = ["g,min_rate,max_rate"]
        for g, lo, hi in zip(self.gaps, self.min_rates, self.max_rates):
            rows.append(f"{int(g)},{lo:.17g},{hi:.17g}")
        _write_text(path_or_file, "\n".join(rows) + "\n")


def _estimate(lognorms: np.ndarray, params: BohlParams) -> BohlEstimate:
    """:class:`BohlEstimate` of one orbit's log-norms, envelopes at every gap."""
    gaps = params.gaps()
    min_rates, max_rates = _envelopes(lognorms, gaps)
    count = params.tail_count(len(gaps))
    lower, upper, _ = _tail(min_rates[-count:], max_rates[-count:])
    return BohlEstimate(upper=float(upper), lower=float(lower), gaps=gaps,
                        min_rates=min_rates, max_rates=max_rates, params=params)


def bohl_exponents(seq: MatrixSequence, xi: np.ndarray,
                   params: BohlParams | None = None) -> BohlEstimate:
    """Estimate the upper and lower Bohl exponents of the solution through xi.

    The initial vector is normalized internally (growth rates are
    homogeneous of degree zero in xi), so scaling xi by a power of two
    reproduces the estimate bit for bit.
    """
    params = params or BohlParams()
    xi = np.asarray(xi, dtype=float).reshape(-1)
    nrm = float(np.linalg.norm(xi))
    if nrm == 0.0:
        raise ParameterError("Bohl exponents are undefined for the zero solution")
    return _estimate(orbit_lognorms(seq, xi / nrm, params.orbit_span()).lognorms, params)


def _bohl_block(seq: MatrixSequence, xis: np.ndarray, params: BohlParams):
    """(lower, upper, spread) of :func:`bohl_exponents` for each column of
    a (d, S) block, from one orbit sweep and the tail envelopes only."""
    nrm = np.linalg.norm(xis, axis=0)
    if np.any(nrm == 0.0):
        raise ParameterError("Bohl exponents are undefined for the zero solution")
    orbit = orbit_lognorms(seq, xis / nrm, params.orbit_span())
    return _tail_rates(orbit.lognorms, params)


def _scalar_lognorms(u: ScalarSequence, params: BohlParams) -> np.ndarray:
    """Running sums of log|u| over the orbit span, starting at 0."""
    lo, hi = params.orbit_span()
    vals = u.window(lo, hi - 1)
    if np.any(vals == 0.0):
        n = lo + int(np.argmax(vals == 0.0))
        raise ValidationError(f"u({n}) = 0 violates the nonvanishing assumption")
    return np.concatenate([[0.0], np.cumsum(np.log(np.abs(vals)))])


def _scalar_tail(u: ScalarSequence, params: BohlParams | None = None) -> tuple[float, float, float]:
    """(lower, upper, spread) of :func:`scalar_bohl_estimate`, tail gaps only."""
    params = params or BohlParams()
    lower, upper, spread = _tail_rates(_scalar_lognorms(u, params), params)
    return float(lower), float(upper), float(spread)


def scalar_bohl(u: ScalarSequence, params: BohlParams | None = None) -> tuple[float, float]:
    """(lower, upper) Bohl exponents of a scalar sequence.

    Rates are extremal geometric means of |u| over sliding windows; no
    initial condition is involved.  Offsets follow ``params.two_sided``
    exactly as in :func:`bohl_exponents`.
    """
    return _scalar_tail(u, params)[:2]


def scalar_bohl_estimate(u: ScalarSequence, params: BohlParams | None = None) -> BohlEstimate:
    """Full envelope form of :func:`scalar_bohl`."""
    params = params or BohlParams()
    return _estimate(_scalar_lognorms(u, params), params)


@dataclass(frozen=True)
class GeneralExponents:
    """Extremal growth exponents of the full transition operator.

    ``senior`` is the tail-aggregated limsup of ||X(m+g, m)||^(1/g) over
    offsets m; ``junior`` the liminf of the smallest singular value of
    X(m+g, m) to the power 1/g.  Together they bound the Bohl exponents of
    every nonzero solution.
    """

    senior: float
    junior: float
    gaps: np.ndarray
    senior_rates: np.ndarray
    junior_rates: np.ndarray
    params: BohlParams

    def __post_init__(self):
        if self.junior > self.senior:
            raise ValidationError(
                f"junior estimate {self.junior} exceeds senior estimate {self.senior}")


def general_exponents(seq: MatrixSequence,
                      params: BohlParams | None = None) -> GeneralExponents:
    """Estimate the senior and junior general exponents of the system.

    The senior rate at gap g maximizes the spectral norm of X(m+g, m) over
    offsets m.  The junior rate minimizes the smallest singular value,
    evaluated as the reciprocal norm of the inverse product; the inverse
    factors are multiplied in reversed order so only largest-singular-value
    information of well-scaled products is ever used.  Only the aggregation
    tail of the gap range is sampled (each gap costs a full product sweep).
    """
    params = params or BohlParams()
    lo, hi = params.orbit_span()
    factors = seq.window(lo, hi - 1)
    all_gaps = params.gaps()
    count = params.tail_count(len(all_gaps))
    gaps = all_gaps[-count:]

    inverse = WindowProducts(_checked_inverses(factors, lo)[::-1])
    forward = WindowProducts(factors)

    senior_rates = np.empty(len(gaps))
    junior_rates = np.empty(len(gaps))
    for i, g in enumerate(gaps):
        max_log, _ = forward.max_log_norm(int(g))
        senior_rates[i] = math.exp(max_log / g)
        max_inv_log, _ = inverse.max_log_norm(int(g))
        junior_rates[i] = math.exp(-max_inv_log / g)

    return GeneralExponents(senior=float(senior_rates.max()),
                            junior=float(junior_rates.min()),
                            gaps=gaps, senior_rates=senior_rates,
                            junior_rates=junior_rates, params=params)
