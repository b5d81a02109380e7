"""Mechanical verification of spectral containment statements.

Three checks, each producing a :class:`ContainmentReport`:

* fiber containment: Bohl intervals of vectors inside each spectral
  bundle fiber land in the fiber's spectral interval;
* global containment: Bohl intervals of every solution land in the hull
  of the spectrum, checked on the fiber directions, which span the
  whole space (a Whitney sum);
* endpoint attainability: for systems with trustworthy diagonal data,
  every interval endpoint is witnessed by a coordinate Bohl exponent.

Both sampled checks measure the same fiber directions and differ only in
the target each row is held against: its fiber's interval, or the hull.
Every vector of a one-dimensional fiber is a multiple of one vector and
has its Bohl exponents, so such a fiber is one direction;
``samples_per_fiber`` and ``samples`` count seeded unit vectors inside a
fiber of dimension 2 or more.  Directions are estimated in groups, one
per orbit system: all fibers of a diagonal system, or each fiber of any
other kind on its own restricted table.  A group's vectors are the
columns of one block carried through a single orbit sweep, and only the
aggregation tail of the gaps is enveloped, since a row reads only the
lower and upper exponents and the tail spread.  Columns equal
per-vector :func:`dichospec.bohl.bohl_exponents` up to rounding.  Each
direction is measured once, at the window of the given
:class:`BohlParams`; ``dichospec verify`` measures them once, under the
one count ``samples``, and holds the same rows against both targets.

All sampling is driven by an explicit seed, so reports are reproducible
bit for bit.  Tolerances combine the spectrum refinement tolerance with
the finite-window spread of each Bohl estimate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .bohl import BohlParams, _bohl_block, _scalar_tail, bohl_exponents  # noqa: F401 (re-export)
from .bohl import _checked_count
from .bundles import SpectralBundleFiber, _fiber_index, bundle_fibers, restricted_fiber_system
from .dichotomy import SpectrumEstimate, _same_dimension
from .errors import ParameterError
from .sequences import MatrixSequence, _seed_value

TOLERANCE_FACTOR = 5.0
_SAMPLE_CSV_HEADER = ("label,fiber,xi,bohl_lower,bohl_upper,target_lower,"
                      "target_upper,tolerance,margin,verdict,escalated")


@dataclass(frozen=True)
class SampleRow:
    """One verified claim: a Bohl interval against a target interval."""

    label: str
    fiber_index: int | None
    xi: tuple[float, ...]
    lower: float
    upper: float
    target: tuple[float, float]
    tolerance: float
    margin: float
    passed: bool
    escalated: bool = False  # always False: every sample is measured once

    def csv(self) -> str:
        numbers = (self.lower, self.upper, *self.target, self.tolerance, self.margin)
        return ",".join([
            self.label.replace(",", ";"),
            "" if self.fiber_index is None else str(self.fiber_index),
            ";".join(repr(float(v)) for v in self.xi),
            *(repr(float(v)) for v in numbers),
            "pass" if self.passed else "fail",
            "yes" if self.escalated else "no",
        ])


@dataclass(frozen=True)
class ContainmentReport:
    system_id: str
    check: str
    rows: tuple[SampleRow, ...]
    base_tolerance: float
    status: str  # "pass" | "fail" | "refused"
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def pass_rate(self) -> float:
        if not self.rows:
            return 0.0 if self.status != "pass" else 1.0
        return sum(r.passed for r in self.rows) / len(self.rows)

    def failures(self) -> tuple[SampleRow, ...]:
        return tuple(r for r in self.rows if not r.passed)

    def summary(self) -> str:
        head = (f"{self.check} on {self.system_id}: {self.status} "
                f"({sum(r.passed for r in self.rows)}/{len(self.rows)} rows, "
                f"base tolerance {self.base_tolerance:.2e})")
        return "\n".join([head, *self.notes])

    def rows_to_csv(self) -> str:
        return "\n".join([_SAMPLE_CSV_HEADER, *(r.csv() for r in self.rows)]) + "\n"


def _default_id(seq: MatrixSequence) -> str:
    parts = [seq.kind, f"d{seq.dimension}"]
    seed = getattr(seq, "seed", None)
    if seed is not None:
        parts.append(f"seed{seed}")
    return "-".join(parts)


def _report(seq: MatrixSequence, check: str, rows: list[SampleRow],
            base_tol: float, system_id: str | None) -> ContainmentReport:
    status = "pass" if all(r.passed for r in rows) else "fail"
    return ContainmentReport(system_id=system_id or _default_id(seq), check=check,
                             rows=tuple(rows), base_tolerance=base_tol, status=status)


def _base_tolerance(tolerance: float | None, spectrum: SpectrumEstimate) -> float:
    """The given tolerance, or TOLERANCE_FACTOR times the refinement one;
    a bool, anything else that is not a real number, or a value that is
    negative, infinite or NaN, raises :class:`ParameterError`."""
    if tolerance is None:
        return TOLERANCE_FACTOR * spectrum.refine_tol
    if (isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real)
            or not 0.0 <= tolerance < np.inf):
        raise ParameterError(f"tolerance must be at least 0 and finite, got {tolerance!r}")
    return tolerance


def _unit_samples(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` seeded Gaussian unit vectors as rows; for dim = 1 only (1.0)."""
    if dim == 1:
        return np.ones((1, 1))
    out = np.empty((count, dim))
    for i in range(count):
        v = rng.standard_normal(dim)
        nrm = np.linalg.norm(v)
        while nrm < 1e-12:
            v = rng.standard_normal(dim)
            nrm = np.linalg.norm(v)
        out[i] = v / nrm
    return out


def _fiber_rows(seq: MatrixSequence, spectrum: SpectrumEstimate,
                fibers: tuple[SpectralBundleFiber, ...] | None, count: int, count_name: str,
                tolerance: float | None, seed: int,
                params: BohlParams | None) -> tuple[float, list[tuple]]:
    """The base tolerance and one ``(fiber index, xi, lower, upper,
    spread)`` per fiber direction: the basis vector of a one-dimensional
    fiber, else ``count`` seeded unit vectors, all drawn from one generator.
    The fibers on one orbit system run as one block (see
    :func:`dichospec.bohl._bohl_block`), whose columns do not interact; on a
    diagonal system every sum of a product has a single nonzero term, so
    each row keeps the bits of a block per fiber."""
    _same_dimension(seq, spectrum.dimension, "the spectrum")
    base_tol = _base_tolerance(tolerance, spectrum)
    if _checked_count(count, count_name) < 1:
        raise ParameterError(f"{count_name} must be at least 1")
    rng = np.random.default_rng(_seed_value(seed))
    if fibers is None:
        fibers = bundle_fibers(spectrum)
    params = params or BohlParams()
    groups = {}  # id of orbit system -> (system, [(fiber index, swept vector, xi)])
    for fiber in fibers:
        index = _fiber_index(spectrum, fiber.index)
        _same_dimension(seq, fiber.basis.shape[0], f"fiber {index}")
        rank_jump = spectrum.gap_ranks[index] - spectrum.gap_ranks[index - 1]
        if fiber.dimension != rank_jump:
            raise ParameterError(f"fiber {index} has dimension {fiber.dimension}, "
                                 f"not the {rank_jump} of its gap ranks")
        if seq.kind == "diagonal":
            # coordinate axes are exactly invariant, so the raw system
            # tracks any fiber without leaking onto faster ones
            basis, system = fiber.basis, seq
        else:
            basis, system = restricted_fiber_system(seq, spectrum, index, window=params.window)
        coeffs = _unit_samples(rng, count, basis.shape[1])
        xis = np.array([basis @ c for c in coeffs])
        groups.setdefault(id(system), (system, []))[1].extend(
            (index, v, xi) for v, xi in zip(xis if system is seq else coeffs, xis))
    rows = []
    for system, directions in groups.values():
        lower, upper, spread = _bohl_block(system, np.array([v for _, v, _ in directions]).T,
                                           params)
        rows += [(index, tuple(xi), lo, hi, s) for (index, _, xi), lo, hi, s in zip(
            directions, lower.tolist(), upper.tolist(), spread.tolist())]
    return base_tol, rows


def _held_report(seq: MatrixSequence, spectrum: SpectrumEstimate, check: str,
                 base_tol: float, fiber_rows: list[tuple],
                 system_id: str | None) -> ContainmentReport:
    """The rows of :func:`_fiber_rows` held against each fiber's interval
    (``fiber-containment``) or against the hull (``global-containment``)."""
    whole = check == "global-containment"
    rows, counts = [], {}
    for n, (index, xi, lower, upper, spread) in enumerate(fiber_rows, start=1):
        counts[index] = s = counts.get(index, 0) + 1
        interval = spectrum.intervals[index - 1]
        a, b = target = spectrum.hull if whole else (interval.a, interval.b)
        tol = base_tol + spread
        margin = min(lower - a + tol, b + tol - upper)
        rows.append(SampleRow(label=f"global sample {n}" if whole else f"fiber {index} sample {s}",
                              fiber_index=index, xi=xi, lower=lower, upper=upper, target=target,
                              tolerance=tol, margin=margin, passed=margin >= 0.0))
    return _report(seq, check, rows, base_tol, system_id)


def verify_fiber_containment(seq: MatrixSequence, spectrum: SpectrumEstimate,
                             fibers: tuple[SpectralBundleFiber, ...] | None = None,
                             *, samples_per_fiber: int = 20,
                             tolerance: float | None = None,
                             seed: int = 0,
                             params: BohlParams | None = None,
                             system_id: str | None = None) -> ContainmentReport:
    """Check that vectors inside each fiber keep their Bohl interval
    inside the matching spectral interval.

    Fibers default to :func:`bundle_fibers` of the estimate, which raises
    :class:`~dichospec.errors.SubspaceError` on an estimate without them.
    A fiber index outside the estimate's intervals, a basis of another
    ambient dimension than the system's, a fiber dimension other than its
    interval's gap-rank jump, or a ``seed`` that is not a nonnegative
    integer raises :class:`ParameterError`.  A one-dimensional fiber is
    checked once, on its basis vector; from dimension 2 each of
    ``samples_per_fiber`` samples is a unit vector with seeded Gaussian
    coordinates in the fiber basis.  A claim passes when ``[lower, upper]``
    of its Bohl estimate lies in the target interval inflated by
    ``tolerance`` (a real number, at least 0; by default
    ``TOLERANCE_FACTOR`` times the spectrum's ``refine_tol``) plus the
    spread of the estimate.

    Diagonal systems are sampled in the given bases, all fibers in one
    block.  Any other kind is sampled in the frame that
    :func:`dichospec.bundles.restricted_fiber_system` tracks across the
    window, not in the given basis; without it, rounding leaks every
    sample onto the fastest fiber within a few dozen steps.
    """
    base_tol, rows = _fiber_rows(seq, spectrum, fibers, samples_per_fiber, "samples_per_fiber",
                                 tolerance, seed, params)
    return _held_report(seq, spectrum, "fiber-containment", base_tol, rows, system_id)


def verify_global_containment(seq: MatrixSequence, spectrum: SpectrumEstimate,
                              *, samples: int = 50,
                              tolerance: float | None = None,
                              seed: int = 0,
                              params: BohlParams | None = None,
                              system_id: str | None = None) -> ContainmentReport:
    """Check that every solution keeps its Bohl interval inside the hull
    of the spectrum (first lower endpoint to last upper one).

    The fibers of :func:`bundle_fibers` form a Whitney sum of the whole
    space with bounded projectors, so a solution's Bohl interval lies in
    the hull of its fiber components' intervals (Dieci & Van Vleck,
    J. Dynam. Differential Equations 19, 2007).  So the rows are those of
    :func:`verify_fiber_containment`, with ``samples`` vectors inside a
    fiber of dimension 2 or more, each held against the hull and carrying
    its fiber's index; a d = 1 system is one row, on (1.0).  An estimate
    without fibers (a degenerate one) raises
    :class:`~dichospec.errors.SubspaceError`.
    """
    base_tol, rows = _fiber_rows(seq, spectrum, None, samples, "samples", tolerance, seed, params)
    return _held_report(seq, spectrum, "global-containment", base_tol, rows, system_id)


def verify_endpoint_attainability(seq: MatrixSequence, spectrum: SpectrumEstimate,
                                  *, tolerance: float | None = None,
                                  significance=None,
                                  system_id: str | None = None) -> ContainmentReport:
    """Check that every spectral interval endpoint is attained by a
    coordinate direction.

    Needs per-coordinate Bohl data, which only diagonal systems carry
    outright.  Upper triangular systems are accepted when their diagonal
    is significant (see :func:`dichospec.triangularize.diagonal_significance`,
    computed here when not supplied); anything else is refused rather than
    guessed at.  A supplied ``significance`` report of a system of another
    dimension raises :class:`ParameterError`.  Coordinate Bohl data are
    two-sided estimates at the default :class:`~dichospec.bohl.BohlParams`
    window.  An endpoint is attained within ``tolerance`` (at least 0;
    default as in :func:`verify_fiber_containment`) plus the estimate's
    spread.
    """
    _same_dimension(seq, spectrum.dimension, "the spectrum")
    if significance is not None:
        _same_dimension(seq, significance.spectrum.dimension, "the significance report")
    base_tol = _base_tolerance(tolerance, spectrum)

    def refused(note: str) -> ContainmentReport:
        return ContainmentReport(system_id=system_id or _default_id(seq),
                                 check="endpoint-attainability", rows=(),
                                 base_tolerance=base_tol, status="refused", notes=(note,))

    if seq.kind == "diagonal":
        coords = tuple(seq.entries)
    elif seq.kind == "upper-triangular":
        if significance is None:
            from .triangularize import diagonal_significance
            significance = diagonal_significance(seq, spectrum=spectrum)
        if not significance.significant:
            return refused("triangular diagonal is not significant; its entries "
                           "do not carry the spectrum, so no endpoint witnesses "
                           "can be read off")
        coords = tuple(seq.diagonal)
    else:
        return refused(f"kind {seq.kind!r} exposes no coordinate Bohl data; "
                       "triangularize first and confirm diagonal significance")
    estimates = [_scalar_tail(u, BohlParams(two_sided=True)) for u in coords]
    d = seq.dimension
    rows: list[SampleRow] = []
    for j, interval in enumerate(spectrum.intervals, start=1):
        for side, endpoint in (("lower", interval.a), ("upper", interval.b)):
            best = None
            for i, (lower, upper, spread) in enumerate(estimates):
                value = lower if side == "lower" else upper
                tol = base_tol + spread
                margin = tol - abs(value - endpoint)
                if best is None or margin > best[3]:
                    best = (i, value, tol, margin)
            i, value, tol, margin = best
            xi = np.zeros(d)
            xi[i] = 1.0
            rows.append(SampleRow(
                label=f"interval {j} {side} endpoint", fiber_index=j,
                xi=tuple(xi), lower=value, upper=value,
                target=(endpoint, endpoint), tolerance=tol, margin=margin,
                passed=margin >= 0.0))
    return _report(seq, "endpoint-attainability", rows, base_tol, system_id)
