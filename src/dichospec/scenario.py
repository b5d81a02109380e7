"""Scenario files: one system plus its analysis and output choices.

A scenario is a JSON document with three sections.  ``system`` uses the
sequence payload format, ``analysis`` collects every tunable the library
exposes, ``output`` says where and how reports land.  Loading normalizes
all defaults so a serialized scenario states every parameter explicitly
and round-trips bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .bohl import BohlParams
from .dichotomy import DichotomyParams
from .errors import DichospecError
from .sequences import MatrixSequence


class ScenarioError(DichospecError):
    """The scenario file itself is malformed (unknown kind, bad field)."""


_ANALYSIS_DEFAULTS: dict[str, Any] = {
    "window": 256,
    "burn_in": 128,
    "grid_points": 48,
    "refine_tol": 1e-3,
    "bohl_window": 2048,
    "gap_min": 16,
    "tail_fraction": 0.2,
    "two_sided": False,
    "samples": 50,
    "samples_per_fiber": 20,
    "tolerance": None,
    "seed": 0,
    "escalate": False,
}

_OUTPUT_DEFAULTS: dict[str, Any] = {
    "out": ".",
    "format": "table",
}

_FORMATS = ("json", "csv", "table")


def _canonical_number(x: float) -> str:
    if isinstance(x, bool):  # bool is an int subclass; keep it out of here
        raise TypeError("booleans are not numbers in canonical JSON")
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot enter a report")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Reports hashed or diffed across runs must go through this, never
    through ``json.dumps`` directly, so that formatting stays pinned.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return _canonical_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError(f"canonical JSON keys must be strings, got {k!r}")
            items.append(inner + json.dumps(k) + ": " + canonical_json(obj[k], indent + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


@dataclass(frozen=True)
class Scenario:
    """A fully normalized experiment description."""

    name: str
    system: MatrixSequence
    analysis: dict[str, Any] = field(default_factory=dict)
    output: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "analysis",
                           _normalize(self.analysis, _ANALYSIS_DEFAULTS, "analysis"))
        object.__setattr__(self, "output",
                           _normalize(self.output, _OUTPUT_DEFAULTS, "output"))
        if self.output["format"] not in _FORMATS:
            raise ScenarioError(
                f"output format {self.output['format']!r} not one of {_FORMATS}")

    # -- parameter views -----------------------------------------------------

    def dichotomy_params(self) -> DichotomyParams:
        return DichotomyParams(window=self.analysis["window"],
                               burn_in=self.analysis["burn_in"])

    def bohl_params(self) -> BohlParams:
        return BohlParams(window=self.analysis["bohl_window"],
                          gap_min=self.analysis["gap_min"],
                          tail_fraction=self.analysis["tail_fraction"],
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
        analysis = dict(payload.get("analysis") or {})
        # "jobs", a worker count from before containment samples ran as
        # one batch per group, still loads from older files and is dropped
        analysis.pop("jobs", None)
        return cls(name=payload.get("name") or name or "scenario",
                   system=system, analysis=analysis,
                   output=dict(payload.get("output") or {}))

    def dumps(self) -> str:
        return canonical_json(self.to_payload()) + "\n"

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.dumps())


def _normalize(section: dict[str, Any], defaults: dict[str, Any],
               label: str) -> dict[str, Any]:
    if not isinstance(section, dict):
        raise ScenarioError(f"{label} section must be a JSON object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ScenarioError(f"unknown {label} fields {sorted(unknown)}")
    merged = {**defaults, **section}
    for key in ("window", "burn_in", "grid_points", "bohl_window", "gap_min",
                "samples", "samples_per_fiber", "seed"):
        if key in merged and not isinstance(merged[key], bool) and merged[key] is not None:
            merged[key] = int(merged[key])
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
