"""Orthogonal kinematic reduction to upper triangular form.

A QR sweep replaces the system ``A`` by triangular factors ``U`` and
orthogonal frames ``F`` with ``A(n) F(n) = F(n+1) U(n)``.  Orthogonal
frames leave every transition norm unchanged, so the two systems share
their Bohl exponents and dichotomy spectrum.  Whether the spectrum is
already visible on the diagonal of ``U`` is a separate question, answered
by :func:`diagonal_significance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bohl import BohlParams
from .dichotomy import (DichotomyParams, SpectralInterval, SpectrumEstimate,
                        _same_dimension, estimate_spectrum, scalar_spectrum)
from .errors import ParameterError, ValidationError
from .linalg import batched_spectral_norm, frame_sweep
from .sequences import MatrixSequence, ScalarSequence, _integer_bounds, _maps_between

SIGNIFICANCE_TOL = 5e-3  # set distance of a significant diagonal's spectrum


@dataclass(frozen=True)
class KinematicPair:
    """Triangular factors plus the orthogonal frames that produced them.

    ``upper`` is tabulated on ``[start, start + m - 1]`` and ``frames``
    holds ``F(start) .. F(start + m)``, normalized so that ``F(0)`` is the
    identity.  No periodicity is claimed for ``upper`` even when the source
    system is periodic; the sweep does not close up in general.
    """

    upper: MatrixSequence
    frames: np.ndarray
    start: int

    @property
    def dimension(self) -> int:
        return self.frames.shape[1]

    @property
    def window(self) -> tuple[int, int]:
        """Inclusive index range on which ``upper`` is defined."""
        return (self.start, self.start + self.upper.table.shape[0] - 1)

    def frame(self, n: int) -> np.ndarray:
        i = _integer_bounds((n,), "frame index")[0] - self.start
        if not 0 <= i < self.frames.shape[0]:
            raise ParameterError(f"frame index {n} outside window {self.window}")
        return self.frames[i]

    def residual_max(self, seq: MatrixSequence) -> float:
        """max_n || A(n) F(n) - F(n+1) U(n) || over the window; ``seq`` of
        another dimension raises :class:`ParameterError`."""
        _same_dimension(seq, self.dimension, "the kinematic pair")
        lo, hi = self.window
        r = seq.window(lo, hi) @ self.frames[:-1] - self.frames[1:] @ self.upper.table
        return float(batched_spectral_norm(r).max())

    def orthogonality_max(self) -> float:
        """max_n || F(n)^T F(n) - I ||."""
        gram = np.matmul(np.swapaxes(self.frames, 1, 2), self.frames)
        return float(batched_spectral_norm(gram - np.eye(self.dimension)).max())

    def diagonal_sequences(self) -> tuple[ScalarSequence, ...]:
        """The diagonal of ``U`` as tabulated scalar sequences."""
        diag = np.diagonal(self.upper.table, axis1=1, axis2=2)
        return tuple(ScalarSequence.tabulated(diag[:, i], self.start)
                     for i in range(self.dimension))

    def diagonal_to_csv(self) -> str:
        lo, hi = self.window
        rows = ["n," + ",".join(f"u{i + 1}{i + 1}" for i in range(self.dimension))]
        diag = np.diagonal(self.upper.table, axis1=1, axis2=2)
        for k, n in enumerate(range(lo, hi + 1)):
            rows.append(f"{n}," + ",".join(repr(float(v)) for v in diag[k]))
        return "\n".join(rows) + "\n"


def qr_triangularize(seq: MatrixSequence,
                     window: tuple[int, int] | None = None) -> KinematicPair:
    """Sweep ``seq`` into upper triangular form with orthogonal frames.

    Forward of zero each factor is the positive-diagonal R of
    ``A(n) F(n)``; behind zero the sweep runs on inverses so the identity
    ``A(n) F(n) = F(n+1) U(n)`` holds across the whole window.  The default
    window covers what spectrum estimation at default parameters consumes.
    """
    if window is None:
        ext = DichotomyParams().extent + 1
        window = (-ext, ext)
    lo, hi = _integer_bounds(window, "triangularization window")
    if not lo < 0 < hi:
        raise ParameterError(f"triangularization window {window} must straddle zero")
    d = seq.dimension
    # forward of zero walk A(0), A(1), ...; behind zero walk A(-1)^-1,
    # A(-2)^-1, ... and flip.  Both halves run lock-stepped in one sweep,
    # the shorter one padded at its end with identity maps whose output
    # is dropped.  The backward half comes first, so the lowest bad n is named.
    backward = _maps_between(seq, 0, lo)
    halves = (_maps_between(seq, 0, hi), backward)
    maps = np.tile(np.eye(d), (2, max(hi, -lo), 1, 1))
    for half, part in zip(maps, halves):
        half[: len(part)] = part
    swept, r = frame_sweep(maps, np.stack([np.eye(d), np.eye(d)]))
    frames = np.concatenate([swept[1, -lo:0:-1], swept[0, : hi + 1]])
    upper = MatrixSequence.tabulated(
        np.concatenate([np.linalg.inv(r[1, -lo - 1::-1]), r[0, :hi]]), start=lo)
    return KinematicPair(upper=upper, frames=frames, start=lo)


@dataclass(frozen=True)
class SignificanceReport:
    """Comparison of a triangular system's spectrum with its diagonal data."""

    spectrum: SpectrumEstimate
    coordinate_intervals: tuple[SpectralInterval, ...]
    union: tuple[SpectralInterval, ...]
    symmetric_difference: float
    tolerance: float
    significant: bool

    def rows(self) -> list[str]:
        lines = [f"system spectrum        "
                 + " ".join(f"[{iv.a:.6g}, {iv.b:.6g}]" for iv in self.spectrum.intervals)]
        for i, iv in enumerate(self.coordinate_intervals):
            lines.append(f"coordinate {i + 1} spectrum   [{iv.a:.6g}, {iv.b:.6g}]")
        lines.append("diagonal union         "
                     + " ".join(f"[{iv.a:.6g}, {iv.b:.6g}]" for iv in self.union))
        lines.append(f"symmetric difference   {self.symmetric_difference:.6e}")
        lines.append(f"tolerance              {self.tolerance:.1e}")
        lines.append(f"diagonally significant {'yes' if self.significant else 'NO'}")
        return lines


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of closed intervals, overlapping or touching pieces fused."""
    out: list[tuple[float, float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _covers(subject: list[tuple[float, float]],
            cover: list[tuple[float, float]], tol: float) -> bool:
    """Every point of ``subject`` lies within ``tol`` of ``cover``."""
    inflated = _merge([(a - tol, b + tol) for a, b in cover])
    for a, b in subject:
        if not any(lo <= a and b <= hi for lo, hi in inflated):
            return False
    return True


def _symdiff_measure(first: list[tuple[float, float]],
                     second: list[tuple[float, float]]) -> float:
    """Lebesgue measure of the symmetric difference of two interval unions."""
    def measure(ivs: list[tuple[float, float]]) -> float:
        return sum(b - a for a, b in ivs)

    common = 0.0
    i = j = 0
    a, b = _merge(first), _merge(second)
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            common += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return measure(a) + measure(b) - 2.0 * common


def _resolve_triangular(source: "KinematicPair | MatrixSequence",
                        ) -> tuple[MatrixSequence, tuple[ScalarSequence, ...]]:
    if isinstance(source, KinematicPair):
        return source.upper, source.diagonal_sequences()
    if isinstance(source, MatrixSequence):
        if source.kind == "diagonal":
            return source, tuple(source.entries)
        if source.kind == "upper-triangular":
            return source, tuple(source.diagonal)
        raise ParameterError(
            f"diagonal significance needs triangular data; kind {source.kind!r} "
            "must go through qr_triangularize first")
    raise ParameterError(f"unsupported source {type(source).__name__}")


def diagonal_significance(source: "KinematicPair | MatrixSequence", *,
                          refine_tol: float = 1e-3,
                          params: DichotomyParams | None = None,
                          spectrum: SpectrumEstimate | None = None) -> SignificanceReport:
    """Does the diagonal of a triangular system carry its whole spectrum?

    Compares the estimated spectrum of the triangular system with the
    union of the scalar spectra of its diagonal entries; the system is
    diagonally significant when the two agree as sets within
    ``SIGNIFICANCE_TOL`` (5e-3; mutual one-sided coverage).  Each diagonal
    entry must stay away from zero, otherwise its Bohl data is undefined
    and a :class:`ValidationError` names the offending coordinate.  A
    given ``spectrum`` of a system of another dimension raises
    :class:`ParameterError`.
    """
    upper, diags = _resolve_triangular(source)
    if spectrum is not None:
        _same_dimension(upper, spectrum.dimension, "the spectrum")
    params = params or DichotomyParams()
    ext = params.extent
    if upper.kind == "tabulated":
        first = upper.start
        last = upper.start + upper.table.shape[0] - 1
        if first > -ext or last < ext:
            raise ParameterError(
                f"tabulated window [{first}, {last}] cannot feed spectrum "
                f"estimation over [-{ext}, {ext}]; retriangularize with a "
                "wider window")
        reach = min(-first, last + 1)
    else:
        reach = None
    for i, u in enumerate(diags):
        span = reach if reach is not None else max(ext, 512)
        try:
            u.require_nonzero(-span, span - 1, label=f"u{i + 1}{i + 1}")
        except ValidationError as exc:
            raise ValidationError(
                f"diagonal coordinate {i + 1} vanishes; {exc}") from None
    if spectrum is None:
        spectrum = estimate_spectrum(upper, refine_tol=refine_tol, params=params)
    window = min(2048, reach) if reach is not None else 2048
    scalar_params = BohlParams(window=window, two_sided=True)
    coord = tuple(scalar_spectrum(u, scalar_params) for u in diags)
    union = [SpectralInterval(a, b) for a, b in
             _merge([(iv.a, iv.b) for iv in coord])]
    sys_ivs = [(iv.a, iv.b) for iv in spectrum.intervals]
    union_ivs = [(iv.a, iv.b) for iv in union]
    significant = (_covers(sys_ivs, union_ivs, SIGNIFICANCE_TOL)
                   and _covers(union_ivs, sys_ivs, SIGNIFICANCE_TOL))
    return SignificanceReport(spectrum=spectrum, coordinate_intervals=coord,
                              union=tuple(union),
                              symmetric_difference=_symdiff_measure(sys_ivs, union_ivs),
                              tolerance=SIGNIFICANCE_TOL, significant=significant)
