"""Declarative models of the coefficient sequences A : Z -> GL(d, R).

A nonautonomous linear difference system x(n+1) = A(n) x(n) is described
here by a small closed set of sequence kinds:

* ``constant``          one fixed matrix,
* ``periodic``          p matrices repeated with exact period p,
* ``piecewise``         one periodic model for n < 0 and another for n >= 0,
* ``diagonal``          d scalar sequences on the diagonal,
* ``upper-triangular``  scalar diagonal entries plus off-diagonal entries,
* ``seeded-random``     banded diagonal plus a small seeded perturbation,
* ``tabulated``         an explicit finite window (no extrapolation).

Evaluation is a pure function of the model and the integer index; the
only mutable state is one private span of checked factors (see
:meth:`MatrixSequence.window`) and the flags of :mod:`.bundles`.  Scenario
round-tripping goes through :meth:`to_payload` / :meth:`from_payload`,
which use plain Python containers so that serialization is bit-exact.

Standing assumptions checked by this module: every evaluated matrix must
be nonsingular, and :meth:`MatrixSequence.validate` estimates the
two-sided bound  M = sup_n max(||A(n)||, ||A(n)^-1||)  in the spectral
norm, exactly for kinds with exact finite period and by a window scan
otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from .errors import ParameterError, SingularMatrixError, ValidationError
from .linalg import batched_spectral_norm

# Relative determinant threshold (after row scaling) below which a matrix
# is treated as singular.
DET_RTOL = 1e-12

SCALAR_KINDS = ("constant", "periodic", "piecewise", "seeded-random", "tabulated")
MATRIX_KINDS = ("constant", "periodic", "piecewise", "diagonal",
                "upper-triangular", "seeded-random", "tabulated")


def _zigzag(n: int) -> int:
    """Map Z to the nonnegative integers (0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...)."""
    return 2 * n if n >= 0 else -2 * n - 1


def _rng_at(seed: int, n: int) -> np.random.Generator:
    # Counter-style stream: one generator per time index, so evaluation at n
    # never depends on which other indices were evaluated before it.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_zigzag(n),)))


def _as_float_tuple(values: Iterable[float], what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not out:
        raise ParameterError(f"{what} must be nonempty")
    if not all(math.isfinite(v) for v in out):
        raise ParameterError(f"{what} must be finite")
    return out


def _lcm_or_none(periods: Iterable[int | None]) -> int | None:
    acc = 1
    for p in periods:
        if p is None:
            return None
        acc = math.lcm(acc, p)
    return acc


@dataclass(frozen=True, eq=False)
class ScalarSequence:
    """A real scalar sequence u : Z -> R, same kinds as MatrixSequence at d = 1.

    Values may be zero in general (off-diagonal entries use that freedom);
    consumers that require nonvanishing values, such as diagonal system
    entries, call :meth:`require_nonzero`.
    """

    kind: str
    value: float | None = None
    values: tuple[float, ...] | None = None
    negative: tuple[float, ...] | None = None
    nonnegative: tuple[float, ...] | None = None
    seed: int | None = None
    band: tuple[float, float] | None = None
    table: np.ndarray | None = field(default=None, repr=False)
    start: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "ScalarSequence":
        return cls(kind="constant", value=float(value))

    @classmethod
    def periodic(cls, values: Iterable[float]) -> "ScalarSequence":
        return cls(kind="periodic", values=_as_float_tuple(values, "periodic values"))

    @classmethod
    def piecewise(cls, negative: Iterable[float], nonnegative: Iterable[float]) -> "ScalarSequence":
        return cls(kind="piecewise",
                   negative=_as_float_tuple(negative, "negative-side values"),
                   nonnegative=_as_float_tuple(nonnegative, "nonnegative-side values"))

    @classmethod
    def seeded(cls, seed: int, band: tuple[float, float]) -> "ScalarSequence":
        lo, hi = float(band[0]), float(band[1])
        if not (0.0 < lo <= hi) or not math.isfinite(hi):
            raise ParameterError("seeded scalar band must satisfy 0 < lo <= hi")
        return cls(kind="seeded-random", seed=int(seed), band=(lo, hi))

    @classmethod
    def tabulated(cls, table: Iterable[float], start: int) -> "ScalarSequence":
        arr = np.asarray(list(table), dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("tabulated scalar table must be a nonempty 1-d array")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(kind="tabulated", table=arr, start=int(start))

    # -- evaluation --------------------------------------------------------

    @property
    def period(self) -> int | None:
        if self.kind == "constant":
            return 1
        if self.kind == "periodic":
            return len(self.values)
        return None

    def value_at(self, n: int) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "periodic":
            return self.values[n % len(self.values)]
        if self.kind == "piecewise":
            if n < 0:
                return self.negative[n % len(self.negative)]
            return self.nonnegative[n % len(self.nonnegative)]
        if self.kind == "seeded-random":
            lo, hi = self.band
            u = _rng_at(self.seed, n).uniform(math.log(lo), math.log(hi))
            return math.exp(u)
        if self.kind == "tabulated":
            idx = n - self.start
            if not (0 <= idx < self.table.size):
                raise ValidationError(
                    f"tabulated scalar sequence has no value at n={n} "
                    f"(window [{self.start}, {self.start + self.table.size - 1}])")
            return float(self.table[idx])
        raise ParameterError(f"unknown scalar kind {self.kind!r}")

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Values at n = lo..hi inclusive."""
        if hi < lo:
            raise ParameterError("window requires lo <= hi")
        return np.array([self.value_at(n) for n in range(lo, hi + 1)], dtype=float)

    def require_nonzero(self, lo: int, hi: int, label: str = "u") -> None:
        """Raise if any value on [lo, hi] vanishes (or a whole period, if exact)."""
        if self.kind in ("constant", "periodic"):
            vals = self.window(0, self.period - 1)
            offset = 0
        elif self.kind == "piecewise":
            vals = np.concatenate([self.window(-len(self.negative), -1),
                                   self.window(0, len(self.nonnegative) - 1)])
            offset = -len(self.negative)
        elif self.kind == "seeded-random":
            return  # bands are bounded away from zero by construction
        else:
            vals = self.window(lo, hi)
            offset = lo
        bad = np.flatnonzero(vals == 0.0)
        if bad.size:
            n = int(bad[0]) + offset
            raise ValidationError(f"{label}({n}) = 0 violates the nonvanishing assumption")

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "periodic":
            return {"kind": "periodic", "values": list(self.values)}
        if self.kind == "piecewise":
            return {"kind": "piecewise", "negative": list(self.negative),
                    "nonnegative": list(self.nonnegative)}
        if self.kind == "seeded-random":
            return {"kind": "seeded-random", "seed": self.seed, "band": list(self.band)}
        raise ValidationError("tabulated scalar sequences have no scenario form")

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ScalarSequence":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValidationError("scalar payload must be a mapping with a 'kind' field")
        kind = payload["kind"]
        try:
            if kind == "constant":
                return cls.constant(payload["value"])
            if kind == "periodic":
                return cls.periodic(payload["values"])
            if kind == "piecewise":
                return cls.piecewise(payload["negative"], payload["nonnegative"])
            if kind == "seeded-random":
                return cls.seeded(payload["seed"], tuple(payload["band"]))
        except KeyError as exc:
            raise ValidationError(f"scalar payload missing field {exc}") from exc
        raise ValidationError(f"unknown scalar kind {kind!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarSequence):
            return NotImplemented
        if self.kind == "tabulated" or other.kind == "tabulated":
            return (self.kind == other.kind and self.start == other.start
                    and np.array_equal(self.table, other.table))
        return self.to_payload() == other.to_payload()


def _check_stack_invertible(stack: np.ndarray, lo: int) -> None:
    """Row-scaled determinant check for a (m, d, d) stack starting at index lo."""
    absmax = np.abs(stack).max(axis=2)
    degenerate = absmax == 0.0
    if degenerate.any():
        n = lo + int(np.argwhere(degenerate.any(axis=1))[0, 0])
        raise SingularMatrixError(n, "zero row")
    dets = np.linalg.det(stack / absmax[:, :, None])
    bad = np.abs(dets) < DET_RTOL
    if bad.any():
        n = lo + int(np.flatnonzero(bad)[0])
        raise SingularMatrixError(n, f"scaled |det| = {abs(dets[n - lo]):.3e}")


def _checked_inverses(stack: np.ndarray, lo: int) -> np.ndarray:
    """Inverses of a (m, d, d) stack starting at index lo.

    The first n whose inverse misses ||A A^-1 - I|| <= 1e-8, or whose
    inverse or product A A^-1 is not finite (it overflowed), raises
    :class:`SingularMatrixError` naming n.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        inv = np.linalg.inv(stack)
        product = stack @ inv
    # the residual's SVD does not converge on non-finite entries
    finite = np.isfinite(inv).all(axis=(1, 2)) & np.isfinite(product).all(axis=(1, 2))
    resid = np.full(len(stack), np.inf)
    resid[finite] = batched_spectral_norm(product[finite] - np.eye(stack.shape[-1]))
    bad = np.flatnonzero(~(resid <= 1e-8))
    if bad.size:
        raise SingularMatrixError(lo + int(bad[0]), f"inverse residual {resid[bad[0]]:.3e}")
    return inv


@dataclass(frozen=True)
class BoundReport:
    """Result of :meth:`MatrixSequence.validate`."""

    m_hat: float
    worst_n: int
    checked_range: tuple[int, int]
    exact: bool
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class MatrixSequence:
    """Immutable description of A : Z -> GL(d, R); see the module docstring."""

    dimension: int
    kind: str
    matrix: np.ndarray | None = field(default=None, repr=False)
    matrices: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    negative: "MatrixSequence | None" = None
    nonnegative: "MatrixSequence | None" = None
    entries: tuple[ScalarSequence, ...] | None = None
    diagonal: tuple[ScalarSequence, ...] | None = None
    offdiagonal: tuple[tuple[int, int, ScalarSequence], ...] | None = None
    seed: int | None = None
    bands: tuple[tuple[float, float], ...] | None = None
    eps: float | None = None
    table: np.ndarray | None = field(default=None, repr=False)
    start: int | None = None
    bound_cap: float | None = None

    def __post_init__(self):
        # (lo, stack) of checked factors A(lo), ..., A(lo + len(stack) - 1); see window
        object.__setattr__(self, "_span", None)
        # one entry: the restriction flag pair of dichospec.bundles
        object.__setattr__(self, "_flag_cache", {})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _clean_matrix(a, d: int | None = None) -> np.ndarray:
        arr = np.asarray(a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ParameterError("matrix payload must be square")
        if d is not None and arr.shape[0] != d:
            raise ParameterError(f"matrix has dimension {arr.shape[0]}, expected {d}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("matrix entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        return arr

    @classmethod
    def constant(cls, matrix, *, bound_cap: float | None = None) -> "MatrixSequence":
        a = cls._clean_matrix(matrix)
        return cls(dimension=a.shape[0], kind="constant", matrix=a, bound_cap=bound_cap)

    @classmethod
    def periodic(cls, matrices, *, bound_cap: float | None = None) -> "MatrixSequence":
        mats = tuple(cls._clean_matrix(m) for m in matrices)
        if not mats:
            raise ParameterError("periodic kind needs at least one matrix")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != d:
                raise ParameterError("periodic matrices must share one dimension")
        return cls(dimension=d, kind="periodic", matrices=mats, bound_cap=bound_cap)

    @classmethod
    def piecewise(cls, negative: "MatrixSequence", nonnegative: "MatrixSequence",
                  *, bound_cap: float | None = None) -> "MatrixSequence":
        for side, name in ((negative, "negative"), (nonnegative, "nonnegative")):
            if side.kind not in ("constant", "periodic"):
                raise ParameterError(f"piecewise {name} side must be constant or periodic")
        if negative.dimension != nonnegative.dimension:
            raise ParameterError("piecewise sides must share one dimension")
        return cls(dimension=negative.dimension, kind="piecewise",
                   negative=negative, nonnegative=nonnegative, bound_cap=bound_cap)

    @classmethod
    def diagonal(cls, entries: Iterable[ScalarSequence],
                 *, bound_cap: float | None = None) -> "MatrixSequence":
        ent = tuple(entries)
        if not ent:
            raise ParameterError("diagonal kind needs at least one entry sequence")
        return cls(dimension=len(ent), kind="diagonal", entries=ent, bound_cap=bound_cap)

    @classmethod
    def upper_triangular(cls, diagonal: Iterable[ScalarSequence],
                         offdiagonal: dict[tuple[int, int], ScalarSequence] | None = None,
                         *, bound_cap: float | None = None) -> "MatrixSequence":
        diag = tuple(diagonal)
        d = len(diag)
        if d == 0:
            raise ParameterError("upper-triangular kind needs diagonal entries")
        off = []
        for (i, j), entry in sorted((offdiagonal or {}).items()):
            if not (0 <= i < j < d):
                raise ParameterError(f"off-diagonal index ({i}, {j}) must satisfy 0 <= i < j < d")
            off.append((int(i), int(j), entry))
        return cls(dimension=d, kind="upper-triangular", diagonal=diag,
                   offdiagonal=tuple(off), bound_cap=bound_cap)

    @classmethod
    def seeded(cls, seed: int, bands: Iterable[tuple[float, float]],
               eps: float | str = "auto", *, bound_cap: float | None = None) -> "MatrixSequence":
        bnd = tuple((float(lo), float(hi)) for lo, hi in bands)
        if not bnd:
            raise ParameterError("seeded-random kind needs at least one band")
        for lo, hi in bnd:
            if not (0.0 < lo <= hi and math.isfinite(hi)):
                raise ParameterError("each band must satisfy 0 < lo <= hi")
        ordered = sorted(bnd)
        gaps = [ordered[k + 1][0] - ordered[k][1] for k in range(len(ordered) - 1)]
        if any(g <= 0 for g in gaps):
            raise ParameterError("seeded-random bands must be pairwise disjoint")
        d = len(bnd)
        lo_min = min(lo for lo, _ in bnd)
        eps_cap = min(min(gaps) / 2 if gaps else math.inf, lo_min / (2 * d))
        if eps == "auto":
            eps_val = 0.0 if not gaps else min(min(gaps) / 4, lo_min / (4 * d))
        else:
            eps_val = float(eps)
            if eps_val < 0 or eps_val > eps_cap:
                raise ParameterError(
                    f"eps={eps_val} outside [0, {eps_cap:.6g}] allowed by the band layout")
        return cls(dimension=d, kind="seeded-random", seed=int(seed), bands=bnd,
                   eps=eps_val, bound_cap=bound_cap)

    @classmethod
    def tabulated(cls, table, start: int, *, bound_cap: float | None = None) -> "MatrixSequence":
        arr = np.asarray(table, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise ParameterError("tabulated table must be a nonempty (m, d, d) stack")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("tabulated entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(dimension=arr.shape[1], kind="tabulated", table=arr,
                   start=int(start), bound_cap=bound_cap)

    # -- evaluation --------------------------------------------------------

    @property
    def period(self) -> int | None:
        """Exact period on all of Z, or None if the kind is not globally periodic."""
        if self.kind == "constant":
            return 1
        if self.kind == "periodic":
            return len(self.matrices)
        if self.kind == "diagonal":
            return _lcm_or_none(e.period for e in self.entries)
        if self.kind == "upper-triangular":
            periods = [e.period for e in self.diagonal]
            periods += [e.period for _, _, e in self.offdiagonal]
            return _lcm_or_none(periods)
        return None

    _SPAN_CAP = 100_000  # longest factor span kept; longer results are not stored

    def _assemble_window(self, lo: int, hi: int) -> np.ndarray:
        m = hi - lo + 1
        d = self.dimension
        if self.kind == "constant":
            return np.broadcast_to(self.matrix, (m, d, d)).copy()
        if self.kind == "periodic":
            p = len(self.matrices)
            stack = np.stack(self.matrices)
            return stack[np.arange(lo, hi + 1) % p]
        if self.kind == "piecewise":
            parts = []
            if lo < 0:
                parts.append(self.negative._assemble_window(lo, min(hi, -1)))
            if hi >= 0:
                parts.append(self.nonnegative._assemble_window(max(lo, 0), hi))
            return np.concatenate(parts) if len(parts) > 1 else parts[0]
        if self.kind == "diagonal":
            out = np.zeros((m, d, d))
            for i, entry in enumerate(self.entries):
                out[:, i, i] = entry.window(lo, hi)
            return out
        if self.kind == "upper-triangular":
            out = np.zeros((m, d, d))
            for i, entry in enumerate(self.diagonal):
                out[:, i, i] = entry.window(lo, hi)
            for i, j, entry in self.offdiagonal:
                out[:, i, j] = entry.window(lo, hi)
            return out
        if self.kind == "seeded-random":
            out = np.empty((m, d, d))
            log_bands = [(math.log(a), math.log(b)) for a, b in self.bands]
            for k, n in enumerate(range(lo, hi + 1)):
                rng = _rng_at(self.seed, n)
                diag = np.exp([rng.uniform(a, b) for a, b in log_bands])
                noise = rng.uniform(-1.0, 1.0, (d, d))
                out[k] = np.diag(diag) + self.eps * noise
            return out
        if self.kind == "tabulated":
            end = self.start + self.table.shape[0] - 1
            if lo < self.start or hi > end:
                raise ValidationError(
                    f"tabulated sequence only covers [{self.start}, {end}], "
                    f"requested [{lo}, {hi}]")
            return self.table[lo - self.start: hi - self.start + 1].copy()
        raise ParameterError(f"unknown matrix kind {self.kind!r}")

    def _checked_window(self, lo: int, hi: int) -> np.ndarray:
        stack = self._assemble_window(lo, hi)
        _check_stack_invertible(stack, lo)
        stack.flags.writeable = False
        return stack

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Matrices A(lo), ..., A(hi) as a read-only (hi-lo+1, d, d) stack.

        Every matrix in the window passes the invertibility check; the
        first singular index raises :class:`SingularMatrixError` naming n.

        A window inside the sequence's one span of checked factors is a
        slice of it; one that overlaps or touches the span checks only the
        missing ends and joins them on; any other starts a new span.  A
        failed check keeps the old span; a span over 100,000 factors is
        returned but not kept.
        """
        if hi < lo:
            raise ParameterError("window requires lo <= hi")
        if self._span is not None:
            start, span = self._span
            end = start + len(span) - 1
            if start <= lo and hi <= end:
                return span[lo - start: hi - start + 1]
        if self._span is None or lo > end + 1 or hi < start - 1:
            start, stack = lo, self._checked_window(lo, hi)
        else:
            # the left end is checked first, so the lowest singular n is named
            left = [self._checked_window(lo, start - 1)] if lo < start else []
            right = [self._checked_window(end + 1, hi)] if hi > end else []
            start, stack = min(lo, start), np.concatenate(left + [span] + right)
            stack.flags.writeable = False
        if len(stack) <= self._SPAN_CAP:
            object.__setattr__(self, "_span", (start, stack))
        return stack[lo - start: hi - start + 1]

    def evaluate(self, n: int) -> np.ndarray:
        """A(n), checked; read from the factor span, else built alone (span unchanged)."""
        n = int(n)
        if self._span is not None:
            start, span = self._span
            if start <= n < start + len(span):
                return span[n - start]
        return self._checked_window(n, n)[0]

    def inverse_at(self, n: int) -> np.ndarray:
        """A(n)^-1 with a residual sanity check against the identity."""
        return _checked_inverses(self.evaluate(n)[None], int(n))[0]

    def validate(self, span: tuple[int, int]) -> BoundReport:
        """Scan a window and report M = max_n max(||A(n)||, ||A(n)^-1||).

        For kinds with an exact global period the scan covers one full
        period, so the bound holds on all of Z; otherwise it holds on the
        requested span only.
        """
        lo, hi = int(span[0]), int(span[1])
        if hi < lo:
            raise ParameterError("validate requires lo <= hi")
        p = self.period
        if p is not None:
            scan_lo, scan_hi, exact = 0, p - 1, True
        elif self.kind == "piecewise":
            p_neg = self.negative.period
            p_pos = self.nonnegative.period
            scan_lo, scan_hi, exact = -p_neg, p_pos - 1, True
        else:
            scan_lo, scan_hi, exact = lo, hi, False
        stack = self.window(scan_lo, scan_hi)
        svals = np.linalg.svd(stack, compute_uv=False)
        per_n = np.maximum(svals[:, 0], 1.0 / svals[:, -1])
        worst = int(np.argmax(per_n))
        m_hat = float(per_n[worst])
        warnings = ()
        if self.bound_cap is not None and m_hat > self.bound_cap:
            warnings = (f"M estimate {m_hat:.6g} exceeds configured cap {self.bound_cap:.6g}",)
        return BoundReport(m_hat=m_hat, worst_n=scan_lo + worst,
                           checked_range=(lo, hi), exact=exact, warnings=warnings)

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        base: dict[str, Any] = {"kind": self.kind, "dimension": self.dimension}
        if self.bound_cap is not None:
            base["bound_cap"] = self.bound_cap
        if self.kind == "constant":
            base["matrix"] = self.matrix.tolist()
        elif self.kind == "periodic":
            base["matrices"] = [m.tolist() for m in self.matrices]
        elif self.kind == "piecewise":
            base["negative"] = self.negative.to_payload()
            base["nonnegative"] = self.nonnegative.to_payload()
        elif self.kind == "diagonal":
            base["entries"] = [e.to_payload() for e in self.entries]
        elif self.kind == "upper-triangular":
            base["diagonal"] = [e.to_payload() for e in self.diagonal]
            base["offdiagonal"] = [{"row": i, "col": j, "entry": e.to_payload()}
                                   for i, j, e in self.offdiagonal]
        elif self.kind == "seeded-random":
            base["seed"] = self.seed
            base["bands"] = [list(b) for b in self.bands]
            base["eps"] = self.eps
        else:
            raise ValidationError("tabulated sequences have no scenario form")
        return base

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "MatrixSequence":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValidationError("system payload must be a mapping with a 'kind' field")
        kind = payload["kind"]
        cap = payload.get("bound_cap")
        try:
            if kind == "constant":
                seq = cls.constant(payload["matrix"], bound_cap=cap)
            elif kind == "periodic":
                seq = cls.periodic(payload["matrices"], bound_cap=cap)
            elif kind == "piecewise":
                seq = cls.piecewise(cls.from_payload(payload["negative"]),
                                    cls.from_payload(payload["nonnegative"]),
                                    bound_cap=cap)
            elif kind == "diagonal":
                seq = cls.diagonal([ScalarSequence.from_payload(e) for e in payload["entries"]],
                                   bound_cap=cap)
            elif kind == "upper-triangular":
                off = {(e["row"], e["col"]): ScalarSequence.from_payload(e["entry"])
                       for e in payload.get("offdiagonal", [])}
                seq = cls.upper_triangular(
                    [ScalarSequence.from_payload(e) for e in payload["diagonal"]],
                    off, bound_cap=cap)
            elif kind == "seeded-random":
                seq = cls.seeded(payload["seed"], [tuple(b) for b in payload["bands"]],
                                 payload.get("eps", "auto"), bound_cap=cap)
            else:
                raise ValidationError(f"unknown system kind {kind!r}")
        except KeyError as exc:
            raise ValidationError(f"system payload missing field {exc}") from exc
        if "dimension" in payload and payload["dimension"] != seq.dimension:
            raise ValidationError(
                f"declared dimension {payload['dimension']} does not match payload "
                f"({seq.dimension})")
        return seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixSequence):
            return NotImplemented
        if self.kind == "tabulated" or other.kind == "tabulated":
            return (self.kind == other.kind and self.start == other.start
                    and np.array_equal(self.table, other.table)
                    and self.bound_cap == other.bound_cap)
        return self.to_payload() == other.to_payload()
