"""Inputs, operations and correctness checks of the three benchmark workloads.

Every workload is a list of operations generated from one workload seed.
An operation builds its own `MatrixSequence` (or loads its own scenario)
so that the per-instance factor caches start cold, runs the analysis the
workload is about, checks the result against the package's guarantees and
returns a fingerprint of the numbers it produced.  A failed check raises
`CheckFailed`; the runner counts it like any other exception.

See README.md in this directory for why each workload and parameter set
was chosen.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from dichospec.bohl import BohlParams
from dichospec.bundles import bundle_fibers, restricted_fiber_system, whitney_sum_check
from dichospec.cli import main as cli_main
from dichospec.containment import verify_fiber_containment, verify_global_containment
from dichospec.dichotomy import (DichotomyAnalyzer, DichotomyParams, estimate_spectrum,
                                 periodic_spectrum_oracle)
from dichospec.sequences import MatrixSequence, ScalarSequence
from dichospec.triangularize import qr_triangularize

WORKLOADS = ("verify-scenarios", "containment-roster", "spectra-bundles")

# containment-roster: the acceptance criterion-5 recipe.  The certification
# extent (896 + 128) covers the Bohl window, so sampled exponents and
# interval endpoints come from the same stretch of the random sequence.
ROSTER_SYSTEMS_PER_PASS = 3
ROSTER_CERT = DichotomyParams(window=896, burn_in=128)
ROSTER_BOHL = BohlParams(window=1024)
ROSTER_SAMPLES_PER_FIBER = 20
ROSTER_GLOBAL_SAMPLES = 50
ROSTER_DIMENSION = 3

# spectra-bundles: one seeded and one periodic system at each dimension.
SPECTRA_DIMENSIONS = (2, 3, 6)
SPECTRA_PERIOD = 3  # divides the slope-gap alignment, so estimates telescope
SPECTRA_RESTRICT_WINDOW = 2048
ORACLE_TOL = 5e-3           # acceptance criterion 3
SWEEP_RESIDUAL_MAX = 1e-10  # acceptance criterion 7
SWEEP_ORTHOGONALITY_MAX = 1e-12


class CheckFailed(Exception):
    """An operation ran but its result broke a guarantee."""


def _check(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _spectrum_fingerprint(est) -> dict[str, Any]:
    return {"intervals": [[_g(iv.a), _g(iv.b)] for iv in est.intervals],
            "gap_ranks": list(est.gap_ranks),
            "probes": len(est.grid)}


@dataclass(frozen=True)
class Operation:
    """One timed unit of work; `run` returns the result fingerprint."""

    label: str
    run: Callable[[], dict[str, Any]]


class FixedWorkload:
    """The same operations every pass; each rebuilds its system when run."""

    def __init__(self, ops: list[Operation]):
        self.ops = ops

    def operations(self) -> list[Operation]:
        return self.ops

    def finish(self) -> None:
        pass


# -- verify-scenarios -----------------------------------------------------------


class VerifyScenarios:
    """`dichospec verify` on every bundled scenario, in a seeded order.

    Artifacts of every pass must be byte-identical (acceptance criterion 9):
    within a run they are compared across passes, and across runs through
    a digest file keyed by a hash of the package sources.
    """

    def __init__(self, root: Path, seed: int, out_dir: Path):
        scenario_dir = root / "src" / "dichospec" / "scenarios"
        paths = sorted(scenario_dir.glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no bundled scenarios under {scenario_dir}")
        order = np.random.default_rng(seed).permutation(len(paths))
        self.paths = [paths[i] for i in order]
        self.out_dir = out_dir
        self.pass_root = out_dir / "verify" / str(os.getpid())
        self.digest_file = out_dir / f"verify-digests-{source_hash(root)[:16]}.json"
        self.digests: dict[str, str] = {}
        if self.digest_file.is_file():
            self.digests = json.loads(self.digest_file.read_text())
        self.pass_index = 0

    def operations(self) -> list[Operation]:
        self.pass_index += 1
        pass_dir = self.pass_root / f"pass{self.pass_index}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        return [Operation(p.stem, functools.partial(self._verify, p, pass_dir)) for p in self.paths]

    def _verify(self, path: Path, out: Path) -> dict[str, Any]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main(["verify", str(path), "--out", str(out), "--format", "json"])
        _check(rc == 0, f"verify exit code {rc}")
        doc = (out / f"{path.stem}-verify.json").read_bytes()
        csv = (out / f"{path.stem}-verify.csv").read_bytes()
        _check(stdout.getvalue().encode() == doc, "printed report differs from the JSON artifact")
        digest = hashlib.sha256(doc + b"\0" + csv).hexdigest()
        known = self.digests.setdefault(path.stem, digest)
        _check(known == digest, "artifacts differ from an earlier pass of the same sources")
        reports = json.loads(doc)["reports"]
        sampled = [r for r in reports if r["check"] != "endpoint-attainability"]
        return {"artifact_sha256": digest,
                "bohl_samples": sum(len(r["rows"]) + sum(row["escalated"] for row in r["rows"])
                                    for r in sampled),
                "reports": [{"check": r["check"], "status": r["status"],
                             "min_margin": _g(min(row["margin"] for row in r["rows"]))
                             if r["rows"] else None,
                             "targets": sorted({(_g(row["target_lower"]), _g(row["target_upper"]))
                                                for row in r["rows"]})}
                            for r in reports]}

    def finish(self) -> None:
        """Persist the artifact digests and drop the artifacts."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.digest_file.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.digests, sort_keys=True, indent=1) + "\n")
        tmp.replace(self.digest_file)
        shutil.rmtree(self.pass_root, ignore_errors=True)


def source_hash(root: Path) -> str:
    """Digest of the package sources and bundled scenarios."""
    h = hashlib.sha256()
    pkg = root / "src" / "dichospec"
    for p in sorted(pkg.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(pkg)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# -- containment-roster ---------------------------------------------------------


def separated_banded_diagonal(seed: int, d: int = ROSTER_DIMENSION):
    """Seeded diagonal system with d bands at edge ratio >= 1.5, and its bands.

    Same recipe as the acceptance roster: band centers grow by factors in
    [1.7, 2.4] while each band spans a factor of at most 1.05^2.
    """
    rng = np.random.default_rng(seed)
    center = rng.uniform(0.25, 0.45)
    width = rng.uniform(1.03, 1.05)
    entries, bands = [], []
    for _ in range(d):
        band = (center / width, center * width)
        entries.append(ScalarSequence.seeded(int(rng.integers(1, 2**31)), band))
        bands.append(band)
        center *= rng.uniform(1.7, 2.4)
    return MatrixSequence.diagonal(entries), bands


def _roster_op(system_seed: int, sample_seed: int) -> dict[str, Any]:
    seq, bands = separated_banded_diagonal(system_seed)
    analyzer = DichotomyAnalyzer(seq, ROSTER_CERT)
    est = estimate_spectrum(seq, analyzer=analyzer)
    fibers = bundle_fibers(est)
    fiber_report = verify_fiber_containment(
        seq, est, fibers, samples_per_fiber=ROSTER_SAMPLES_PER_FIBER,
        seed=sample_seed, params=ROSTER_BOHL)
    global_report = verify_global_containment(
        seq, est, samples=ROSTER_GLOBAL_SAMPLES, seed=sample_seed, params=ROSTER_BOHL)
    d = seq.dimension
    _check(est.gap_ranks == tuple(range(d + 1)), f"gap ranks {est.gap_ranks}, expected 0..{d}")
    for iv, (lo, hi) in zip(est.intervals, sorted(bands)):
        _check(lo <= iv.a and iv.b <= hi,
               f"interval [{iv.a:.6g}, {iv.b:.6g}] leaves its band [{lo:.6g}, {hi:.6g}]")
    _check(fiber_report.passed, f"fiber containment {fiber_report.status}")
    _check(global_report.passed, f"global containment {global_report.status}")
    return {**_spectrum_fingerprint(est),
            "bohl_samples": d * ROSTER_SAMPLES_PER_FIBER + ROSTER_GLOBAL_SAMPLES,
            "min_fiber_margin": _g(min(r.margin for r in fiber_report.rows)),
            "min_global_margin": _g(min(r.margin for r in global_report.rows))}


def containment_roster(seed: int) -> "FixedWorkload":
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(ROSTER_SYSTEMS_PER_PASS):
        system_seed, sample_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
        ops.append(Operation(f"diagonal-d{ROSTER_DIMENSION}-seed{system_seed}",
                             functools.partial(_roster_op, system_seed, sample_seed)))
    return FixedWorkload(ops)


# -- spectra-bundles ------------------------------------------------------------


def band_layout(rng: np.random.Generator, d: int) -> list[tuple[float, float]]:
    """d disjoint bands from 0.3 up: each spans a factor in [1.1, 1.2], gaps a factor in [1.3, 1.5].

    The top of a d = 6 layout stays below 7, where the estimator's endpoint
    resolution (about gamma * (refine_tol / 4 + delta_fit)) is under half of
    the absolute 5e-3 that the Floquet oracle check allows.
    """
    bands, lo = [], 0.3
    for _ in range(d):
        hi = lo * rng.uniform(1.1, 1.2)
        bands.append((lo, hi))
        lo = hi * rng.uniform(1.3, 1.5)
    return bands


def _random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def periodic_factors(rng: np.random.Generator, d: int, p: int = SPECTRA_PERIOD) -> list[np.ndarray]:
    """Period-p factors Q(k+1) U(k) Q(k)^T with Q(p) = Q(0).

    U(k) is upper triangular with diagonal entries drawn from the band
    layout and a random coupling above the diagonal, so the factors are
    full, non-normal matrices while the Floquet moduli (geometric means of
    the diagonal entries) keep one distinct value inside each band.
    """
    log_bands = np.log(band_layout(rng, d))
    frames = [_random_orthogonal(rng, d) for _ in range(p)]
    factors = []
    for k in range(p):
        u = np.diag(np.exp(rng.uniform(log_bands[:, 0], log_bands[:, 1])))
        u += np.triu(rng.uniform(-0.2, 0.2, (d, d)), 1)
        factors.append(frames[(k + 1) % p] @ u @ frames[k].T)
    return factors


def _symmetric_containment(points, intervals, tol: float) -> str | None:
    """Acceptance criterion 3: points and interval endpoints match within tol."""
    for x in points:
        if not any(iv.a - tol <= x <= iv.b + tol for iv in intervals):
            return f"oracle point {x:.6f} lies outside every interval"
    for iv in intervals:
        for end in (iv.a, iv.b):
            if not any(abs(end - x) <= tol for x in points):
                return f"interval endpoint {end:.6f} is far from every oracle point"
    return None


def _spectra_op(build: Callable[[], MatrixSequence], periodic: bool) -> dict[str, Any]:
    seq = build()
    d = seq.dimension
    est = estimate_spectrum(seq)
    fibers = bundle_fibers(est)
    whitney = whitney_sum_check(fibers)
    for fiber in fibers:
        restricted_fiber_system(seq, est, fiber.index, window=SPECTRA_RESTRICT_WINDOW)
    pair = qr_triangularize(seq)
    residual = pair.residual_max(seq)
    orthogonality = pair.orthogonality_max()
    if periodic:
        why = _symmetric_containment(periodic_spectrum_oracle(seq), est.intervals, ORACLE_TOL)
        _check(why is None, f"Floquet oracle mismatch: {why}")
    else:
        _check(len(est.intervals) == d and est.gap_ranks == tuple(range(d + 1)),
               f"{len(est.intervals)} intervals with gap ranks {est.gap_ranks}, expected {d}")
    _check(whitney.passed, "Whitney sum check failed")
    _check(residual <= SWEEP_RESIDUAL_MAX, f"sweep residual {residual:.3e}")
    _check(orthogonality <= SWEEP_ORTHOGONALITY_MAX, f"frame orthogonality {orthogonality:.3e}")
    return {**_spectrum_fingerprint(est), "bohl_samples": 0,
            "whitney_sigma_min": _g(whitney.smallest_singular_value),
            "sweep_residual": _g(residual), "sweep_orthogonality": _g(orthogonality)}


def spectra_bundles(seed: int) -> "FixedWorkload":
    rng = np.random.default_rng(seed)
    ops = []
    for d in SPECTRA_DIMENSIONS:
        system_seed = int(rng.integers(1, 2**31))
        bands = band_layout(rng, d)
        build = functools.partial(MatrixSequence.seeded, system_seed, bands)
        ops.append(Operation(f"seeded-d{d}-seed{system_seed}",
                             functools.partial(_spectra_op, build, False)))
    for d in SPECTRA_DIMENSIONS:
        build = functools.partial(MatrixSequence.periodic, periodic_factors(rng, d))
        ops.append(Operation(f"periodic-d{d}-p{SPECTRA_PERIOD}",
                             functools.partial(_spectra_op, build, True)))
    return FixedWorkload(ops)


def build(name: str, seed: int, root: Path, out_dir: Path):
    """Generate a workload's inputs; the result hands out one pass of
    operations per `operations()` call and is closed with `finish()`."""
    if name == "verify-scenarios":
        return VerifyScenarios(root, seed, out_dir)
    if name == "containment-roster":
        return containment_roster(seed)
    if name == "spectra-bundles":
        return spectra_bundles(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
