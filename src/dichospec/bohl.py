"""Finite-window estimation of Bohl exponents and general growth exponents.

The upper and lower Bohl exponents of a nonzero solution are the limsup and
liminf of the windowed geometric growth rates

    (||X(m+g, 0) xi|| / ||X(m, 0) xi||)^(1/g)

as the gap g grows.  The estimator samples every gap g in [GAP_MIN, window]
(``GAP_MIN`` is 16: shorter gaps only measure single-step noise), records
the extremal rates over all window offsets m, and aggregates the largest
``TAIL_FRACTION`` (a fifth) of the gaps: the upper exponent is the
max of the per-gap maxima over that tail, the lower exponent the min of the
per-gap minima.  The per-gap envelopes are kept on the result for convergence
diagnostics, since the underlying limits carry no convergence rate.

Offsets m range over [0, window - g] by default.  The ``two_sided`` flag
extends them to [-window, window - g], which is needed to see whole-line
behavior of systems whose growth differs on the two half-lines.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .linalg import _frobenius_norms
from .sequences import MatrixSequence, ScalarSequence, _maps_between
from .transition import WindowProducts, orbit_lognorms

TAIL_FRACTION = 0.2
GAP_MIN = 16


def _checked_count(value, name: str) -> int:
    """``value`` as an int; a bool, a float or any other non-integer type
    raises :class:`ParameterError` (numpy integers pass)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checked_flag(value, name: str) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a bool or ``np.bool_``."""
    if not isinstance(value, (bool, np.bool_)):
        raise ParameterError(f"{name} must be True or False, got {value!r}")


@dataclass(frozen=True)
class BohlParams:
    """Window layout shared by all growth-rate estimators: they sample the
    gaps ``GAP_MIN`` to ``window`` (:meth:`gaps`), and their limsup and liminf
    aggregates read the top ``TAIL_FRACTION`` of them (:meth:`tail_gaps`).

    window
        Largest gap sampled, at least 2 ``GAP_MIN``; orbits are evaluated
        on [0, window] (one-sided) or [-window, window] (two-sided).
    two_sided
        Extend window offsets over the negative half-line as well (a bool).
    """

    window: int = 2048
    two_sided: bool = False

    def __post_init__(self):
        if _checked_count(self.window, "window") < 2 * GAP_MIN:
            raise ParameterError(
                f"window {self.window} too small: need window >= 2 * GAP_MIN = {2 * GAP_MIN}")
        _checked_flag(self.two_sided, "two_sided")

    def gaps(self) -> np.ndarray:
        return np.arange(GAP_MIN, self.window + 1)

    def tail_gaps(self) -> np.ndarray:
        gaps = self.gaps()
        return gaps[-max(1, int(round(TAIL_FRACTION * len(gaps)))):]

    def orbit_span(self) -> tuple[int, int]:
        return (-self.window, self.window) if self.two_sided else (0, self.window)


def _envelopes(lognorms: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-gap (min, max) of exp((L[m+g] - L[m]) / g) over all offsets m,
    for one orbit (len,) or one orbit per column (len, S).

    ``gaps`` must be consecutive and ascending, g0, g0 + 1, ..., each at
    least 1 and below len, as :meth:`BohlParams.gaps` and ``tail_gaps``
    are.  The loop runs over whichever axis is shorter.  When the
    smallest gap has no more offsets (len - g0) than there are gaps, that
    is when the largest gap is len - 1, as on every one-sided orbit, it
    runs over offsets m: L[m+g0 : len] - L[m] is the row of offset m over
    the gaps, and elementwise minimum and maximum fold it into the running
    envelopes.  Otherwise (two-sided orbits) it runs over gaps, with one
    reduction over all offsets per gap.  Both take the same differences,
    and min and max are exact whatever order they see them in; division
    by g > 0 is monotone, so it commutes with both and happens once at the
    end.  The two paths therefore give the same bits.
    """
    n, g0 = len(gaps), int(gaps[0])
    count = len(lognorms) - g0  # offsets of the smallest gap
    if count <= n:
        lo = lognorms[g0: g0 + n] - lognorms[0]
        hi = lo.copy()
        row = np.empty_like(lo)
        for m in range(1, count):
            k = count - m  # gaps g0 .. len - 1 - m have offset m
            np.subtract(lognorms[m + g0: m + g0 + k], lognorms[m], out=row[:k])
            np.minimum(lo[:k], row[:k], out=lo[:k])
            np.maximum(hi[:k], row[:k], out=hi[:k])
    else:
        lo = np.empty((n,) + lognorms.shape[1:])
        hi = np.empty_like(lo)
        for i, g in enumerate(gaps):
            diffs = lognorms[g:] - lognorms[:-g]
            lo[i] = diffs.min(axis=0)
            hi[i] = diffs.max(axis=0)
    scale = gaps.reshape((n,) + (1,) * (lo.ndim - 1))
    return np.exp(lo / scale), np.exp(hi / scale)


def _tail(min_rates: np.ndarray, max_rates: np.ndarray):
    """(lower, upper, spread) of tail envelopes, per column: the extremal
    rates and the larger of the two envelopes' ranges."""
    spread = np.maximum(np.ptp(max_rates, axis=0), np.ptp(min_rates, axis=0))
    return min_rates.min(axis=0), max_rates.max(axis=0), spread


def _tail_rates(lognorms: np.ndarray, params: BohlParams):
    """(lower, upper, spread) of :class:`BohlEstimate` per column; only
    the aggregation tail of the gaps enters them, so only it is built."""
    return _tail(*_envelopes(lognorms, params.tail_gaps()))


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
    def spread(self) -> float:
        """Residual variation of the envelopes over the aggregation tail.

        Measures how far the tail rates are from having converged; useful as
        an additive tolerance when comparing against other estimates.
        """
        count = len(self.params.tail_gaps())
        return float(_tail(self.min_rates[-count:], self.max_rates[-count:])[2])

    def envelope_at(self, g: int) -> tuple[float, float]:
        idx = np.searchsorted(self.gaps, g)
        if idx >= len(self.gaps) or self.gaps[idx] != g:
            raise ParameterError(f"gap {g} not sampled")
        return float(self.min_rates[idx]), float(self.max_rates[idx])

    def envelopes_to_csv(self) -> str:
        """The CSV text of rows  g, min_rate, max_rate  for convergence plots."""
        rows = ["g,min_rate,max_rate"]
        for g, lo, hi in zip(self.gaps, self.min_rates, self.max_rates):
            rows.append(f"{int(g)},{float(lo)!r},{float(hi)!r}")
        return "\n".join(rows) + "\n"


def _estimate(lognorms: np.ndarray, params: BohlParams) -> BohlEstimate:
    """:class:`BohlEstimate` of one orbit's log-norms, envelopes at every gap."""
    gaps = params.gaps()
    min_rates, max_rates = _envelopes(lognorms, gaps)
    count = len(params.tail_gaps())
    lower, upper, _ = _tail(min_rates[-count:], max_rates[-count:])
    return BohlEstimate(upper=float(upper), lower=float(lower), gaps=gaps,
                        min_rates=min_rates, max_rates=max_rates, params=params)


def _unit(xis: np.ndarray) -> np.ndarray:
    """A vector or the columns of a (d, S) block divided by their norms;
    a zero or non-finite one raises :class:`ParameterError`."""
    nrm = _frobenius_norms(xis, (0,))  # inf or NaN for a non-finite column
    if not np.isfinite(nrm).all():
        raise ParameterError("Bohl exponents need a finite initial vector")
    if np.any(nrm == 0.0):
        raise ParameterError("Bohl exponents are undefined for the zero solution")
    return xis / nrm


def bohl_exponents(seq: MatrixSequence, xi: np.ndarray,
                   params: BohlParams | None = None) -> BohlEstimate:
    """Estimate the upper and lower Bohl exponents of the solution through xi.

    The initial vector is normalized internally (growth rates are
    homogeneous of degree zero in xi), so scaling xi by a power of two
    reproduces the estimate bit for bit.
    """
    params = params or BohlParams()
    xi = _unit(np.asarray(xi, dtype=float).reshape(-1))
    return _estimate(orbit_lognorms(seq, xi, params.orbit_span()).lognorms, params)


def _bohl_block(seq: MatrixSequence, xis: np.ndarray, params: BohlParams):
    """(lower, upper, spread) of :func:`bohl_exponents` for each column of
    a (d, S) block, swept as given, from one orbit sweep and the tail
    envelopes only."""
    return _tail_rates(orbit_lognorms(seq, _unit(xis), params.orbit_span()).lognorms, params)


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
    For a periodic or constant system each :class:`WindowProducts` builds
    and searches its offsets only up to the factors' first exact cycle:
    later offsets repeat those bit for bit, so the rates do not change.
    """
    params = params or BohlParams()
    lo, hi = params.orbit_span()
    gaps = params.tail_gaps()

    inverse = WindowProducts(_maps_between(seq, hi, lo))
    forward = WindowProducts(_maps_between(seq, lo, hi))

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
