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

Seeded kinds draw from a counter-style stream: the draws at index n are
the first doubles of  default_rng(SeedSequence(seed, spawn_key=(zigzag(n),)))
(numpy's SeedSequence hashing and PCG64, whose stream NEP 19 keeps stable),
where zigzag maps 0, -1, 1, -2, 2, ... to 0, 1, 2, 3, 4, ..., so the value
at n never depends on which other indices were evaluated.
They are computed a window at a time by :func:`_uniforms`, which redoes
numpy's per-index seeding in vectorized integer arithmetic, bit for bit.
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


# SeedSequence constants (numpy bit_generator.pyx) and the PCG64 multiplier
# (pcg64.h).  Every constant is a numpy scalar, so that numpy 1.x value-based
# promotion keeps the arithmetic in uint32 / uint64.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(_MASK32)
_M0, _M1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_M_LO, _M_HI = np.uint64(_PCG_MULT & (2**64 - 1)), np.uint64(_PCG_MULT >> 64)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(s) for s in (1, 11, 32, 58, 63, 64))


def _hash_steps(const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, mul) uint32 columns of count successive hashmix steps from const."""
    consts = np.array([const * pow(mult, k, 2**32) & _MASK32 for k in range(count + 1)], np.uint32)
    return consts[:-1, None], consts[1:, None]


_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 8)  # generate_state(4, uint64)


def _hashmix(words: np.ndarray, steps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    h = (words ^ steps[0]) * steps[1]
    return h ^ (h >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """128-bit PCG64 step  state * _PCG_MULT + inc  on (hi, lo) uint64 words."""
    a0, a1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = a0 * _M0, a0 * _M1, a1 * _M0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    new_lo = (p00 & _LOW32) | (mid << _U32)
    new_hi = (a1 * _M1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
              + lo * _M_HI + hi * _M_LO)
    new_lo += inc_lo
    new_hi += inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _uniforms(seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """(hi - lo + 1, count) doubles of the seeded stream at n = lo..hi.

    Row n - lo equals, bit for bit, the first count ``random()`` draws of
    default_rng(SeedSequence(seed, spawn_key=(zigzag(n),))).  Numpy hashes
    the seed's words into the pool; only the spawn-key words (two once
    zigzag(n) reaches 2**32), ``generate_state(4, uint64)``, PCG64 seeding
    and its XSL-RR output are redone here, vectorized over n.
    """
    n = np.arange(lo, hi + 1, dtype=np.int64)
    key = np.where(n >= 0, 2 * n, -2 * n - 1).astype(np.uint64)
    # the seed's words, padded with zeros to the pool size 4, are hashed
    # with 16 + 4 (words - 4) steps before the spawn key's first word
    words = max(4, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 4 * words, 2**32) & _MASK32
    pool = np.repeat(np.random.SeedSequence(seed).pool[:, None], len(n), axis=1)
    pool = _mix(pool, _hashmix((key & _LOW32).astype(np.uint32), _hash_steps(const, _MULT_A, 4)))
    two = key > _LOW32
    if two.any():
        steps = _hash_steps(const * pow(_MULT_A, 4, 2**32) & _MASK32, _MULT_A, 4)
        pool = np.where(two, _mix(pool, _hashmix((key >> _U32).astype(np.uint32), steps)), pool)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_STEPS).astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = state[0::2] | (state[1::2] << _U32)
    # srandom: state = 0, inc = (initseq << 1) | 1, step, state += initstate, step
    inc_hi, inc_lo = (q_hi << _U1) | (q_lo >> _U63), (q_lo << _U1) | _U1
    lo_word = inc_lo + s_lo
    hi_word, lo_word = _pcg_step(inc_hi + s_hi + (lo_word < s_lo), lo_word, inc_hi, inc_lo)
    out = np.empty((count, len(n)))
    for j in range(count):
        hi_word, lo_word = _pcg_step(hi_word, lo_word, inc_hi, inc_lo)
        x, rot = hi_word ^ lo_word, hi_word >> _U58
        x = (x >> rot) | (x << ((_U64 - rot) & _U63))
        out[j] = (x >> _U11) * (1.0 / 9007199254740992.0)
    return out.T


def _seed_value(seed: int) -> int:
    value = int(seed)
    if value < 0 or value != seed or isinstance(seed, bool):
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    return value


def _band(band: tuple[float, float]) -> tuple[float, float]:
    """``band`` as a pair of floats, checked to satisfy 0 < lo <= hi < inf."""
    lo, hi = (float(x) for x in band)
    if not 0.0 < lo <= hi < math.inf:
        raise ParameterError(f"band ({lo}, {hi}) must satisfy 0 < lo <= hi < inf")
    return lo, hi


def _table_rows(table: np.ndarray, start: int, lo: int, hi: int) -> np.ndarray:
    """A copy of the rows for n = lo..hi of a table whose row 0 is n = start."""
    end = start + len(table) - 1
    if lo < start or hi > end:
        raise ValidationError(f"tabulated sequence has no value at n="
                              f"{lo if lo < start else max(lo, end + 1)} (window [{start}, {end}])")
    return table[lo - start: hi - start + 1].copy()


def _as_float_tuple(values: Iterable[float], what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not out:
        raise ParameterError(f"{what} must be nonempty")
    if not all(math.isfinite(v) for v in out):
        raise ParameterError(f"{what} must be finite")
    return out


def _payload_numbers(value: Any, what: str) -> Any:
    """``value``, checked to hold no boolean or string where a payload needs
    a number or nested lists of numbers: ``float()`` would accept both."""
    if isinstance(value, (bool, str)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if isinstance(value, (list, tuple)):
        for v in value:
            _payload_numbers(v, what)
    return value


def _lcm_or_none(periods: Iterable[int | None]) -> int | None:
    acc = 1
    for p in periods:
        if p is None:
            return None
        acc = math.lcm(acc, p)
    return acc


def _sequence_eq(a, b) -> bool:
    """``__eq__`` of both sequence classes: tabulated sequences compare
    their tables, every other kind its payload."""
    if not isinstance(b, type(a)):
        return NotImplemented
    if a.kind == "tabulated" or b.kind == "tabulated":
        return (a.kind == b.kind and a.start == b.start
                and np.array_equal(a.table, b.table))
    return a.to_payload() == b.to_payload()


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
        return cls(kind="constant", value=_as_float_tuple((value,), "constant value")[0])

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
        return cls(kind="seeded-random", seed=_seed_value(seed), band=_band(band))

    @classmethod
    def tabulated(cls, table: Iterable[float], start: int) -> "ScalarSequence":
        arr = np.asarray(list(table), dtype=float)
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ParameterError("tabulated scalar table must be a nonempty finite 1-d array")
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
        """u(n), read off the one-index window."""
        return float(self.window(n, n)[0])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Values at n = lo..hi inclusive."""
        if hi < lo:
            raise ParameterError("window requires lo <= hi")
        n = np.arange(lo, hi + 1)
        if self.kind == "constant":
            return np.full(len(n), self.value)
        if self.kind == "periodic":
            return np.array(self.values)[n % len(self.values)]
        if self.kind == "piecewise":
            return np.where(n < 0, np.array(self.negative)[n % len(self.negative)],
                            np.array(self.nonnegative)[n % len(self.nonnegative)])
        if self.kind == "seeded-random":
            a, b = math.log(self.band[0]), math.log(self.band[1])
            u = a + (b - a) * _uniforms(self.seed, lo, hi, 1)[:, 0]
            # math.exp, not np.exp: the two can differ in the last bit
            return np.array([math.exp(v) for v in u.tolist()])
        if self.kind == "tabulated":
            return _table_rows(self.table, self.start, lo, hi)
        raise ParameterError(f"unknown scalar kind {self.kind!r}")

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
                return cls.constant(_payload_numbers(payload["value"], "value"))
            if kind == "periodic":
                return cls.periodic(_payload_numbers(payload["values"], "values"))
            if kind == "piecewise":
                return cls.piecewise(_payload_numbers(payload["negative"], "negative"),
                                     _payload_numbers(payload["nonnegative"], "nonnegative"))
            if kind == "seeded-random":
                return cls.seeded(payload["seed"], tuple(_payload_numbers(payload["band"], "band")))
        except KeyError as exc:
            raise ValidationError(f"scalar payload missing field {exc}") from exc
        except ParameterError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed scalar payload: {exc}") from exc
        raise ValidationError(f"unknown scalar kind {kind!r}")

    __eq__ = _sequence_eq


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
    exact: bool


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

    def __post_init__(self):
        # (lo, stack) of checked factors A(lo), ..., A(lo + len(stack) - 1); see window
        object.__setattr__(self, "_span", None)
        # one entry: the restriction flag pair of dichospec.bundles
        object.__setattr__(self, "_flag_cache", {})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _clean_matrix(a) -> np.ndarray:
        arr = np.asarray(a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ParameterError("matrix payload must be square")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("matrix entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        return arr

    @classmethod
    def constant(cls, matrix) -> "MatrixSequence":
        a = cls._clean_matrix(matrix)
        return cls(dimension=a.shape[0], kind="constant", matrix=a)

    @classmethod
    def periodic(cls, matrices) -> "MatrixSequence":
        mats = tuple(cls._clean_matrix(m) for m in matrices)
        if not mats:
            raise ParameterError("periodic kind needs at least one matrix")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != d:
                raise ParameterError("periodic matrices must share one dimension")
        return cls(dimension=d, kind="periodic", matrices=mats)

    @classmethod
    def piecewise(cls, negative: "MatrixSequence",
                  nonnegative: "MatrixSequence") -> "MatrixSequence":
        for side, name in ((negative, "negative"), (nonnegative, "nonnegative")):
            if side.kind not in ("constant", "periodic"):
                raise ParameterError(f"piecewise {name} side must be constant or periodic")
        if negative.dimension != nonnegative.dimension:
            raise ParameterError("piecewise sides must share one dimension")
        return cls(dimension=negative.dimension, kind="piecewise",
                   negative=negative, nonnegative=nonnegative)

    @classmethod
    def diagonal(cls, entries: Iterable[ScalarSequence]) -> "MatrixSequence":
        ent = tuple(entries)
        if not ent:
            raise ParameterError("diagonal kind needs at least one entry sequence")
        return cls(dimension=len(ent), kind="diagonal", entries=ent)

    @classmethod
    def upper_triangular(cls, diagonal: Iterable[ScalarSequence],
                         offdiagonal: dict[tuple[int, int], ScalarSequence] | None = None,
                         ) -> "MatrixSequence":
        diag = tuple(diagonal)
        d = len(diag)
        if d == 0:
            raise ParameterError("upper-triangular kind needs diagonal entries")
        off = []
        for (i, j), entry in sorted((offdiagonal or {}).items()):
            if not (0 <= i < j < d) or i != int(i) or j != int(j):
                raise ParameterError(
                    f"off-diagonal index ({i}, {j}) must be integers with 0 <= i < j < d")
            off.append((int(i), int(j), entry))
        return cls(dimension=d, kind="upper-triangular", diagonal=diag,
                   offdiagonal=tuple(off))

    @classmethod
    def seeded(cls, seed: int, bands: Iterable[tuple[float, float]],
               eps: float | str = "auto") -> "MatrixSequence":
        bnd = tuple(_band(b) for b in bands)
        if not bnd:
            raise ParameterError("seeded-random kind needs at least one band")
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
            if not 0.0 <= eps_val <= eps_cap:
                raise ParameterError(
                    f"eps={eps_val} outside [0, {eps_cap:.6g}] allowed by the band layout")
        return cls(dimension=d, kind="seeded-random", seed=_seed_value(seed), bands=bnd,
                   eps=eps_val)

    @classmethod
    def tabulated(cls, table, start: int) -> "MatrixSequence":
        arr = np.asarray(table, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
            raise ParameterError("tabulated table must be a nonempty (m, d, d) stack")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("tabulated entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(dimension=arr.shape[1], kind="tabulated", table=arr, start=int(start))

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
            # per index: one uniform(log a, log b) per band, then uniform(-1, 1, (d, d))
            draws = _uniforms(self.seed, lo, hi, d + d * d)
            a, b = np.array([[math.log(x) for x in band] for band in self.bands]).T
            out = np.zeros((m, d, d))
            out[:, np.arange(d), np.arange(d)] = np.exp(a + (b - a) * draws[:, :d])
            out += self.eps * (-1.0 + 2.0 * draws[:, d:].reshape(m, d, d))
            return out
        if self.kind == "tabulated":
            return _table_rows(self.table, self.start, lo, hi)
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
        requested span only.  The first n whose ||A(n)|| or ||A(n)^-1||
        overflows (a subnormal A(n) passes the determinant check) raises
        :class:`SingularMatrixError` naming n.
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
        with np.errstate(over="ignore", divide="ignore"):
            per_n = np.maximum(svals[:, 0], 1.0 / svals[:, -1])
        bad = np.flatnonzero(~np.isfinite(per_n))
        if bad.size:
            raise SingularMatrixError(scan_lo + int(bad[0]), "||A(n)|| or ||A(n)^-1|| overflows")
        worst = int(np.argmax(per_n))
        return BoundReport(m_hat=float(per_n[worst]), worst_n=scan_lo + worst, exact=exact)

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        base: dict[str, Any] = {"kind": self.kind, "dimension": self.dimension}
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
        try:
            if kind == "constant":
                seq = cls.constant(_payload_numbers(payload["matrix"], "matrix entry"))
            elif kind == "periodic":
                seq = cls.periodic(_payload_numbers(payload["matrices"], "matrix entry"))
            elif kind == "piecewise":
                seq = cls.piecewise(cls.from_payload(payload["negative"]),
                                    cls.from_payload(payload["nonnegative"]))
            elif kind == "diagonal":
                seq = cls.diagonal([ScalarSequence.from_payload(e) for e in payload["entries"]])
            elif kind == "upper-triangular":
                off = {}
                for e in payload.get("offdiagonal", []):
                    i, j = _payload_numbers((e["row"], e["col"]), "off-diagonal row and col")
                    if i != int(i) or j != int(j):
                        raise ValidationError(
                            f"off-diagonal index ({i}, {j}) must be a pair of integers")
                    if (i, j) in off:
                        raise ValidationError(f"off-diagonal entry ({i}, {j}) is given twice")
                    off[i, j] = ScalarSequence.from_payload(e["entry"])
                seq = cls.upper_triangular(
                    [ScalarSequence.from_payload(e) for e in payload["diagonal"]], off)
            elif kind == "seeded-random":
                eps = payload.get("eps", "auto")
                seq = cls.seeded(payload["seed"],
                                 [tuple(b) for b in _payload_numbers(payload["bands"], "band")],
                                 eps if eps == "auto" else _payload_numbers(eps, "eps"))
            else:
                raise ValidationError(f"unknown system kind {kind!r}")
        except KeyError as exc:
            raise ValidationError(f"system payload missing field {exc}") from exc
        except ParameterError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed system payload: {exc}") from exc
        if "dimension" in payload and payload["dimension"] != seq.dimension:
            raise ValidationError(
                f"declared dimension {payload['dimension']} does not match payload "
                f"({seq.dimension})")
        return seq

    __eq__ = _sequence_eq
