"""Scenario files: one system plus its analysis and output choices.

A scenario is a JSON document with three sections.  ``system`` uses the
sequence payload format, ``analysis`` the settings the commands pass to
the library, ``output`` where and how reports land.  Loading normalizes
all defaults so a serialized scenario states every parameter explicitly
and round-trips bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .bohl import GAP_MIN, TAIL_FRACTION, BohlParams
from .dichotomy import GRID_POINTS, DichotomyParams
from .errors import DichospecError
from .sequences import MatrixSequence


class ScenarioError(DichospecError):
    """The scenario file itself is malformed (unknown kind, bad field)."""


_ANALYSIS_DEFAULTS: dict[str, Any] = {
    "window": 256,
    "burn_in": 128,
    "refine_tol": 1e-3,
    "bohl_window": 2048,
    "two_sided": False,
    "samples": 50,
    "tolerance": None,
    "seed": 0,
}

# analysis keys older files carry, dropped on load: key -> the one value allowed (None: any)
_RETIRED_FIELDS = {"jobs": None, "grid_points": GRID_POINTS, "tail_fraction": TAIL_FRACTION,
                   "escalate": False, "gap_min": GAP_MIN, "samples_per_fiber": 20}

_OUTPUT_DEFAULTS: dict[str, Any] = {
    "out": ".",
    "format": "table",
}

_FORMATS = ("json", "csv", "table")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, two-space indent, and every float
    in Python's shortest round-trip form (``repr``), so ``json.loads``
    gives back each float bit for bit.  A non-finite float raises
    :class:`ValueError`.

    Reports hashed or diffed across runs must go through this, never
    through ``json.dumps`` directly, so that formatting stays pinned.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


@dataclass(frozen=True)
class Scenario:
    """A fully normalized experiment description."""

    name: str
    system: MatrixSequence
    analysis: dict[str, Any] = field(default_factory=dict)
    output: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # the name is every artifact's stem, so it must be a plain file name
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(c in self.name for c in "/\\\0")):
            raise ScenarioError(f"scenario name {self.name!r} is not a file name")
        object.__setattr__(self, "analysis",
                           _normalize(self.analysis, _ANALYSIS_DEFAULTS, "analysis"))
        object.__setattr__(self, "output",
                           _normalize(self.output, _OUTPUT_DEFAULTS, "output"))

    # -- parameter views -----------------------------------------------------

    def dichotomy_params(self) -> DichotomyParams:
        return DichotomyParams(window=self.analysis["window"],
                               burn_in=self.analysis["burn_in"])

    def bohl_params(self) -> BohlParams:
        return BohlParams(window=self.analysis["bohl_window"],
                          two_sided=self.analysis["two_sided"])

    def with_overrides(self, **overrides: Any) -> "Scenario":
        """Copy with analysis/output fields replaced (flags win over files)."""
        analysis = dict(self.analysis)
        output = dict(self.output)
        for key, value in overrides.items():
            if value is None:
                continue
            if key in analysis:
                analysis[key] = value
            elif key in output:
                output[key] = value
            else:
                raise ScenarioError(f"unknown scenario override {key!r}")
        return replace(self, analysis=analysis, output=output)

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        system = self.system.to_payload()
        system["dimension"] = self.system.dimension
        return {"name": self.name, "system": system,
                "analysis": dict(self.analysis), "output": dict(self.output)}

    @classmethod
    def from_payload(cls, payload: dict[str, Any], *, name: str | None = None) -> "Scenario":
        if not isinstance(payload, dict):
            raise ScenarioError("scenario must be a JSON object")
        unknown = set(payload) - {"name", "system", "analysis", "output"}
        if unknown:
            raise ScenarioError(f"unknown scenario sections {sorted(unknown)}")
        if "system" not in payload:
            raise ScenarioError("scenario lacks a 'system' section")
        try:
            system = MatrixSequence.from_payload(payload["system"])
        except DichospecError as exc:
            raise ScenarioError(f"bad system section: {exc}") from exc
        analysis = payload.get("analysis", {})
        if isinstance(analysis, dict):
            for key, fixed in _RETIRED_FIELDS.items():
                value = analysis.get(key, fixed)
                # a bool matches only a bool, so 0 is not false and true is not 1
                if fixed is not None and (value != fixed or
                                          isinstance(value, bool) != isinstance(fixed, bool)):
                    raise ScenarioError(f"analysis field {key!r} is fixed at {fixed!r}, "
                                        f"got {value!r}")
            analysis = {k: v for k, v in analysis.items() if k not in _RETIRED_FIELDS}
        # only an absent name falls back to the stem; a falsy one is checked
        return cls(name=payload.get("name", name or "scenario"),
                   system=system, analysis=analysis, output=payload.get("output", {}))

    def dumps(self) -> str:
        return canonical_json(self.to_payload()) + "\n"


_INT_FIELDS = ("window", "burn_in", "bohl_window", "samples", "seed")
_FLOAT_FIELDS = ("refine_tol", "tolerance")


def _normalize(section: dict[str, Any], defaults: dict[str, Any],
               label: str) -> dict[str, Any]:
    """Defaults merged with ``section``; a field of the wrong type raises
    :class:`ScenarioError` naming it.  Integer fields take integral floats
    (64.0 loads as 64) and the seed must be nonnegative; float fields must
    be finite or, for ``tolerance``, null; ``out`` must be a string and
    ``format`` one of ``_FORMATS``.  Ranges are left to the library.
    """
    if not isinstance(section, dict):
        raise ScenarioError(f"{label} section must be a JSON object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ScenarioError(f"unknown {label} fields {sorted(unknown)}")
    merged = {**defaults, **section}
    for key, value in merged.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if key in _INT_FIELDS:
            ok = number and (isinstance(value, int) or value.is_integer()) and (
                key != "seed" or value >= 0)
            want = "a nonnegative integer" if key == "seed" else "an integer"
        elif key in _FLOAT_FIELDS:
            real = number and (isinstance(value, int) or math.isfinite(value))
            ok, want = real or key == "tolerance" and value is None, "a real number"
        elif key == "two_sided":
            ok, want = isinstance(value, bool), "true or false"
        elif key == "out":
            ok, want = isinstance(value, str), "a string"
        elif key == "format":
            ok, want = value in _FORMATS, f"one of {_FORMATS}"
        else:
            continue
        if not ok:
            raise ScenarioError(f"{label} field {key!r} must be {want}, got {value!r}")
        if key in _INT_FIELDS:
            merged[key] = int(value)
    return merged


def load_scenario(path: "str | Path") -> Scenario:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    return Scenario.from_payload(payload, name=path.stem)
