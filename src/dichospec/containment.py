"""Mechanical verification of spectral containment statements.

Three checks, each producing a :class:`ContainmentReport`:

* fiber containment: Bohl intervals of vectors sampled inside each
  spectral bundle fiber land in the fiber's spectral interval;
* global containment: Bohl intervals of arbitrary vectors land in the
  hull of the spectrum;
* endpoint attainability: for systems with trustworthy diagonal data,
  every interval endpoint is witnessed by a coordinate Bohl exponent.

Samples are estimated in groups (one per fiber, or the global set): a
group's vectors are the columns of one d x S block carried through a
single orbit sweep, and only the aggregation tail of the gaps is
enveloped, since a row reads only the lower and upper exponents and the
tail spread.  Columns equal per-vector :func:`dichospec.bohl.bohl_exponents`
up to rounding.  Escalation re-runs a group's failing columns as a
second block at four times the window.

All sampling is driven by an explicit seed, so reports are reproducible
bit for bit.  Tolerances combine the spectrum refinement tolerance with
the finite-window spread of each Bohl estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bohl import BohlParams, _bohl_block, _scalar_tail, bohl_exponents  # noqa: F401 (re-export)
from .bundles import SpectralBundleFiber, bundle_fibers, restricted_fiber_system
from .dichotomy import SpectrumEstimate
from .errors import ParameterError
from .sequences import MatrixSequence

TOLERANCE_FACTOR = 5.0


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
    escalated: bool = False

    def csv(self) -> str:
        xi = ";".join(format(v, ".17g") for v in self.xi)
        return ",".join([
            self.label.replace(",", ";"),
            "" if self.fiber_index is None else str(self.fiber_index),
            xi,
            format(self.lower, ".17g"), format(self.upper, ".17g"),
            format(self.target[0], ".17g"), format(self.target[1], ".17g"),
            format(self.tolerance, ".17g"), format(self.margin, ".17g"),
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
        header = ("label,fiber,xi,bohl_lower,bohl_upper,target_lower,"
                  "target_upper,tolerance,margin,verdict,escalated")
        return "\n".join([header, *(r.csv() for r in self.rows)]) + "\n"


def _default_id(seq: MatrixSequence) -> str:
    parts = [seq.kind, f"d{seq.dimension}"]
    seed = getattr(seq, "seed", None)
    if seed is not None:
        parts.append(f"seed{seed}")
    return "-".join(parts)


def _group_rows(seq: MatrixSequence, label: str, fiber_index: int | None,
                orbit_vecs: np.ndarray, report_xis: np.ndarray,
                target: tuple[float, float], base_tol: float,
                params: BohlParams, escalate: bool,
                wide_system=None) -> list[SampleRow]:
    """Rows ``<label> 1``, ``<label> 2``, ... for the rows of ``orbit_vecs``.

    The group's orbits run as one block.  With ``escalate`` the failing
    samples are re-run as a second block at four times the window, on
    ``wide_system()`` when given and on ``seq`` otherwise.
    """
    lower, upper, spread = _bohl_block(seq, orbit_vecs.T, params)
    tol = base_tol + spread
    margin = np.minimum(lower - target[0] + tol, target[1] + tol - upper)
    escalated = (margin < 0.0) & escalate
    if escalated.any():
        wide_seq = seq if wide_system is None else wide_system()
        lower[escalated], upper[escalated], spread[escalated] = _bohl_block(
            wide_seq, orbit_vecs[escalated].T, replace(params, window=4 * params.window))
        tol = base_tol + spread
        margin = np.minimum(lower - target[0] + tol, target[1] + tol - upper)
    return [SampleRow(label=f"{label} {s}", fiber_index=fiber_index, xi=tuple(xi),
                      lower=lo, upper=hi, target=target, tolerance=t,
                      margin=m, passed=m >= 0.0, escalated=e)
            for s, (xi, lo, hi, t, m, e) in enumerate(zip(
                report_xis, lower.tolist(), upper.tolist(), tol.tolist(),
                margin.tolist(), escalated.tolist()), start=1)]


def _report(seq: MatrixSequence, check: str, rows: list[SampleRow],
            base_tol: float, system_id: str | None) -> ContainmentReport:
    escalations = sum(r.escalated for r in rows)
    notes = (f"{escalations} sample(s) re-run at 4x window",) if escalations else ()
    status = "pass" if all(r.passed for r in rows) else "fail"
    return ContainmentReport(system_id=system_id or _default_id(seq), check=check,
                             rows=tuple(rows), base_tolerance=base_tol,
                             status=status, notes=notes)


def _base_tolerance(tolerance: float | None, spectrum: SpectrumEstimate) -> float:
    """The given tolerance, or TOLERANCE_FACTOR times the refinement one."""
    if tolerance is None:
        return TOLERANCE_FACTOR * spectrum.refine_tol
    if not tolerance >= 0.0:
        raise ParameterError(f"tolerance must be at least 0, got {tolerance}")
    return tolerance


def _unit_samples(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    out = np.empty((count, dim))
    for i in range(count):
        v = rng.standard_normal(dim)
        nrm = np.linalg.norm(v)
        while nrm < 1e-12:
            v = rng.standard_normal(dim)
            nrm = np.linalg.norm(v)
        out[i] = v / nrm
    return out


def verify_fiber_containment(seq: MatrixSequence, spectrum: SpectrumEstimate,
                             fibers: tuple[SpectralBundleFiber, ...] | None = None,
                             *, samples_per_fiber: int = 20,
                             tolerance: float | None = None,
                             seed: int = 0,
                             params: BohlParams | None = None,
                             escalate: bool = False,
                             system_id: str | None = None) -> ContainmentReport:
    """Check that vectors inside each fiber keep their Bohl interval
    inside the matching spectral interval.

    Fibers default to :func:`bundle_fibers` of the estimate.  Each sample
    is a unit vector with seeded Gaussian coordinates in the fiber basis;
    the claim passes when ``[lower, upper]`` of its Bohl estimate lies in
    the target interval inflated by the tolerance: ``tolerance`` (at
    least 0; by default ``TOLERANCE_FACTOR`` times the spectrum's
    ``refine_tol``) plus the spread of the estimate.  With ``escalate`` a
    failing sample is retried once at four times the Bohl window.

    Diagonal systems are sampled directly.  Any other kind goes through
    :func:`dichospec.bundles.restricted_fiber_system`, which tracks the
    fiber frame across the window; without that, rounding leaks every
    sample onto the fastest fiber within a few dozen steps.
    """
    base_tol = _base_tolerance(tolerance, spectrum)
    if fibers is None:
        fibers = bundle_fibers(spectrum)
    if samples_per_fiber < 1:
        raise ParameterError("samples_per_fiber must be at least 1")
    params = params or BohlParams()
    rng = np.random.default_rng(seed)
    rows: list[SampleRow] = []
    for fiber in fibers:
        interval = spectrum.intervals[fiber.index - 1]
        coeffs = _unit_samples(rng, samples_per_fiber, fiber.dimension)
        if seq.kind == "diagonal":
            # coordinate axes are exactly invariant, so the raw system
            # tracks any fiber without leaking onto faster ones
            basis, orbit_system = fiber.basis, seq
        else:
            basis, orbit_system = restricted_fiber_system(
                seq, spectrum, fiber.index, window=params.window)
        xis = np.array([basis @ c for c in coeffs])
        orbit_vecs, wide = xis, None
        if orbit_system is not seq:
            orbit_vecs = coeffs
            wide = lambda: restricted_fiber_system(  # noqa: E731
                seq, spectrum, fiber.index, window=4 * params.window)[1]
        rows += _group_rows(orbit_system, f"fiber {fiber.index} sample", fiber.index,
                            orbit_vecs, xis, (interval.a, interval.b), base_tol,
                            params, escalate, wide)
    return _report(seq, "fiber-containment", rows, base_tol, system_id)


def verify_global_containment(seq: MatrixSequence, spectrum: SpectrumEstimate,
                              *, samples: int = 50,
                              tolerance: float | None = None,
                              seed: int = 0,
                              params: BohlParams | None = None,
                              escalate: bool = False,
                              system_id: str | None = None) -> ContainmentReport:
    """Check that arbitrary unit vectors keep their Bohl interval inside
    the hull of the spectrum (first lower endpoint to last upper one);
    ``tolerance`` (at least 0) is as in :func:`verify_fiber_containment`."""
    base_tol = _base_tolerance(tolerance, spectrum)
    if samples < 1:
        raise ParameterError("samples must be at least 1")
    params = params or BohlParams()
    vectors = _unit_samples(np.random.default_rng(seed), samples, seq.dimension)
    rows = _group_rows(seq, "global sample", None, vectors, vectors, spectrum.hull,
                       base_tol, params, escalate)
    return _report(seq, "global-containment", rows, base_tol, system_id)


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
    guessed at.  Coordinate Bohl data are two-sided estimates at the
    default :class:`~dichospec.bohl.BohlParams` window.  An endpoint is
    attained within ``tolerance`` (at least 0; default as in
    :func:`verify_fiber_containment`) plus the estimate's spread.
    """
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
