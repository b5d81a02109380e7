"""Command line front end.

Every command takes a scenario file, applies flag overrides (flags win),
runs one analysis, prints a report in the chosen format and drops the
machine-readable artifacts next to it.  Exit codes: 0 success, 1 hard
containment failure, 2 usage or scenario-format error, 3 validation
failure during analysis.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path
from typing import Any

from .bohl import BohlEstimate, bohl_exponents
from .bundles import WhitneyReport, bundle_fibers, whitney_sum_check
from .containment import (ContainmentReport, verify_endpoint_attainability,
                          verify_fiber_containment, verify_global_containment)
from .dichotomy import (_VERDICT_CSV_HEADER, DichotomyVerdict, SpectrumEstimate,
                        estimate_spectrum, periodic_spectrum_oracle, test_dichotomy)
from .errors import DichospecError
from .scenario import Scenario, ScenarioError, canonical_json, load_scenario
from .triangularize import SignificanceReport, diagonal_significance, qr_triangularize

USAGE_EXIT = 2
VALIDATION_EXIT = 3
FAILURE_EXIT = 1


def _xi_arg(text: str) -> tuple[float, ...]:
    try:
        parts = [p for p in text.replace(",", " ").split() if p]
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--xi expects numbers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("--xi needs at least one coordinate")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dichospec",
        description="Bohl exponents, dichotomy certificates, spectra and "
                    "spectral bundles for nonautonomous difference systems.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario JSON file")
    common.add_argument("--window", type=int, default=None,
                        help="analysis window (for `bohl`, the Bohl window)")
    common.add_argument("--grid-points", type=int, default=None)
    common.add_argument("--refine-tol", type=float, default=None)
    common.add_argument("--tail-fraction", type=float, default=None)
    common.add_argument("--two-sided", action="store_true", default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--escalate", action="store_true", default=None)
    common.add_argument("--out", default=None, help="artifact directory")
    common.add_argument("--format", choices=("json", "csv", "table"), default=None)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="estimate the dichotomy spectrum")
    bohl = sub.add_parser("bohl", parents=[common],
                          help="Bohl exponents of one starting vector")
    bohl.add_argument("--xi", type=_xi_arg, required=True,
                      help="starting vector, comma separated")
    dich = sub.add_parser("dichotomy", parents=[common],
                          help="test one scaling for an exponential dichotomy")
    dich.add_argument("--gamma", type=float, required=True)
    sub.add_parser("bundles", parents=[common],
                   help="spectral bundle fibers and Whitney sum check")
    sub.add_parser("triangularize", parents=[common],
                   help="QR triangularization and diagonal significance")
    sub.add_parser("verify", parents=[common],
                   help="run the containment checks; exit 1 on failure")
    sub.add_parser("oracle", parents=[common],
                   help="Floquet spectrum points of a periodic system")
    return parser


# -- payload builders ---------------------------------------------------------

def _interval_payload(iv) -> dict[str, Any]:
    return {"lower": iv.a, "upper": iv.b, "low_confidence": iv.low_confidence}


def _verdict_payload(v: DichotomyVerdict, *, bases: bool = False) -> dict[str, Any]:
    out: dict[str, Any] = {
        "gamma": v.gamma, "outcome": v.outcome, "rank": v.rank,
        "K": v.K, "rho": v.rho, "residual": v.residual,
        "reason": v.reason, "margin": v.margin,
        "low_confidence": v.low_confidence, "window": v.window,
    }
    if bases and v.stable_basis is not None:
        out["stable_basis"] = v.stable_basis.tolist()
        out["unstable_basis"] = v.unstable_basis.tolist()
    return out


def spectrum_payload(name: str, est: SpectrumEstimate) -> dict[str, Any]:
    return {
        "scenario": name,
        "dimension": est.dimension,
        "window": est.window,
        "refine_tol": est.refine_tol,
        "m_hat": est.m_hat,
        "degenerate": est.degenerate,
        "intervals": [_interval_payload(iv) for iv in est.intervals],
        "gap_ranks": list(est.gap_ranks),
        "gap_certificates": [None if c is None else _verdict_payload(c)
                             for c in est.gap_certificates],
        "probes": len(est.grid),
    }


def bohl_payload(name: str, xi, est: BohlEstimate) -> dict[str, Any]:
    p = est.params
    return {
        "scenario": name,
        "xi": list(xi),
        "lower": est.lower,
        "upper": est.upper,
        "spread": est.spread,
        "params": {"window": p.window, "gap_min": p.gap_min,
                   "tail_fraction": p.tail_fraction, "two_sided": p.two_sided},
    }


def fibers_payload(name: str, fibers, whitney: WhitneyReport) -> dict[str, Any]:
    return {
        "scenario": name,
        "fibers": [{"index": f.index, "dimension": f.dimension,
                    "basis": f.basis.tolist()} for f in fibers],
        "whitney": {
            "dimension": whitney.dimension,
            "dimension_sum": whitney.dimension_sum,
            "smallest_singular_value": whitney.smallest_singular_value,
            "threshold": whitney.threshold,
            "pairwise_angles": [{"first": i, "second": j, "angle": a}
                                for i, j, a in whitney.pairwise_angles],
            "passed": whitney.passed,
        },
    }


def significance_payload(name: str, rep: SignificanceReport) -> dict[str, Any]:
    return {
        "scenario": name,
        "system_spectrum": [_interval_payload(iv) for iv in rep.spectrum.intervals],
        "coordinate_spectra": [_interval_payload(iv) for iv in rep.coordinate_intervals],
        "diagonal_union": [_interval_payload(iv) for iv in rep.union],
        "symmetric_difference": rep.symmetric_difference,
        "tolerance": rep.tolerance,
        "significant": rep.significant,
    }


def containment_payload(rep: ContainmentReport) -> dict[str, Any]:
    return {
        "system_id": rep.system_id,
        "check": rep.check,
        "status": rep.status,
        "base_tolerance": rep.base_tolerance,
        "pass_rate": rep.pass_rate,
        "notes": list(rep.notes),
        "rows": [{
            "label": r.label, "fiber": r.fiber_index, "xi": list(r.xi),
            "lower": r.lower, "upper": r.upper,
            "target_lower": r.target[0], "target_upper": r.target[1],
            "tolerance": r.tolerance, "margin": r.margin,
            "passed": r.passed, "escalated": r.escalated,
        } for r in rep.rows],
    }


def _captured_csv(writer) -> str:
    buf = io.StringIO()
    writer(buf)
    return buf.getvalue()


# -- emission ------------------------------------------------------------------

def _emit(out_dir: Path, stem: str, payload: dict[str, Any] | None,
          csv_text: str | None, fmt: str, table_lines: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = canonical_json(payload) + "\n" if payload is not None else None
    if doc is not None:
        (out_dir / f"{stem}.json").write_text(doc)
    if csv_text is not None:
        (out_dir / f"{stem}.csv").write_text(csv_text)
    if fmt == "json" and doc is not None:
        sys.stdout.write(doc)
    elif fmt == "csv" and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        for line in table_lines:
            print(line)


def _interval_table(est: SpectrumEstimate) -> list[str]:
    lines = [f"dimension {est.dimension}, window {est.window}, "
             f"norm bound {est.m_hat:.6g}"]
    for rank, iv in zip(est.gap_ranks, est.intervals):
        lines.append(f"  gap rank {rank}")
        flag = "  (low confidence)" if iv.low_confidence else ""
        lines.append(f"  interval [{iv.a:.10g}, {iv.b:.10g}]{flag}")
    lines.append(f"  gap rank {est.gap_ranks[-1]}")
    if est.degenerate:
        lines.append("  (degenerate: no resolvent probe succeeded)")
    return lines


# -- command bodies -------------------------------------------------------------

def _spectrum(scn: Scenario) -> SpectrumEstimate:
    return estimate_spectrum(scn.system, grid_points=scn.analysis["grid_points"],
                             refine_tol=scn.analysis["refine_tol"],
                             params=scn.dichotomy_params())


def _cmd_spectrum(scn: Scenario, out_dir: Path, fmt: str) -> int:
    est = _spectrum(scn)
    _emit(out_dir, f"{scn.name}-spectrum", spectrum_payload(scn.name, est),
          _captured_csv(est.verdicts_to_csv), fmt, _interval_table(est))
    return 0


def _cmd_bohl(scn: Scenario, out_dir: Path, fmt: str, xi) -> int:
    est = bohl_exponents(scn.system, list(xi), scn.bohl_params())
    table = [f"upper Bohl exponent {est.upper:.10g}",
             f"lower Bohl exponent {est.lower:.10g}",
             f"envelope spread     {est.spread:.3e}"]
    _emit(out_dir, f"{scn.name}-bohl", bohl_payload(scn.name, xi, est),
          _captured_csv(est.envelopes_to_csv), fmt, table)
    return 0


def _cmd_dichotomy(scn: Scenario, out_dir: Path, fmt: str, gamma: float) -> int:
    verdict = test_dichotomy(scn.system, gamma, scn.dichotomy_params())
    payload = {"scenario": scn.name, **_verdict_payload(verdict, bases=True)}
    csv_text = f"{_VERDICT_CSV_HEADER}\n{verdict.csv()}\n"
    table = [f"gamma {gamma:.10g}: {verdict.outcome}"
             + (f" (rank {verdict.rank}, rho {verdict.rho:.6g}, K {verdict.K:.6g})"
                if verdict.is_certificate else f" ({verdict.reason})")]
    _emit(out_dir, f"{scn.name}-dichotomy", payload, csv_text, fmt, table)
    return 0


def _cmd_bundles(scn: Scenario, out_dir: Path, fmt: str) -> int:
    fibers = bundle_fibers(_spectrum(scn))
    whitney = whitney_sum_check(fibers)
    table = [f"{len(fibers)} fiber(s)"]
    for f in fibers:
        table.append(f"  fiber {f.index}: dimension {f.dimension}")
    table.extend(whitney.rows())
    _emit(out_dir, f"{scn.name}-bundles", fibers_payload(scn.name, fibers, whitney),
          None, fmt, table)
    return 0


def _cmd_triangularize(scn: Scenario, out_dir: Path, fmt: str) -> int:
    params = scn.dichotomy_params()
    # the significance check estimates the spectrum over +-params.extent
    ext = params.extent + 1
    pair = qr_triangularize(scn.system, (-ext, ext))
    rep = diagonal_significance(pair, refine_tol=scn.analysis["refine_tol"], params=params)
    payload = significance_payload(scn.name, rep)
    payload["residual_max"] = pair.residual_max(scn.system)
    payload["orthogonality_max"] = pair.orthogonality_max()
    table = rep.rows() + [f"sweep residual {payload['residual_max']:.3e}, "
                          f"frame orthogonality {payload['orthogonality_max']:.3e}"]
    _emit(out_dir, f"{scn.name}-triangularize", payload,
          pair.diagonal_to_csv(), fmt, table)
    return 0


def _cmd_verify(scn: Scenario, out_dir: Path, fmt: str) -> int:
    a = scn.analysis
    est = _spectrum(scn)
    common = dict(tolerance=a["tolerance"], seed=a["seed"],
                  params=scn.bohl_params(), escalate=a["escalate"],
                  system_id=scn.name)
    reports = [
        verify_fiber_containment(scn.system, est,
                                 samples_per_fiber=a["samples_per_fiber"], **common),
        verify_global_containment(scn.system, est, samples=a["samples"], **common),
        verify_endpoint_attainability(scn.system, est, tolerance=a["tolerance"],
                                      system_id=scn.name),
    ]
    payload = {"scenario": scn.name,
               "reports": [containment_payload(r) for r in reports]}
    csv_text = "".join(r.rows_to_csv() for r in reports if r.rows)
    table = [r.summary() for r in reports]
    _emit(out_dir, f"{scn.name}-verify", payload, csv_text, fmt, table)
    return FAILURE_EXIT if any(r.status == "fail" for r in reports) else 0


def _cmd_oracle(scn: Scenario, out_dir: Path, fmt: str) -> int:
    points = periodic_spectrum_oracle(scn.system)
    payload = {"scenario": scn.name, "period": scn.system.period,
               "points": list(points)}
    csv_text = "point\n" + "".join(format(p, ".17g") + "\n" for p in points)
    table = ["spectrum points: " + " ".join(f"{p:.10g}" for p in points)]
    _emit(out_dir, f"{scn.name}-oracle", payload, csv_text, fmt, table)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        scn = load_scenario(args.scenario)
        overrides = {
            "grid_points": args.grid_points,
            "refine_tol": args.refine_tol,
            "tail_fraction": args.tail_fraction,
            "two_sided": args.two_sided,
            "seed": args.seed,
            "escalate": args.escalate,
            "out": args.out,
            "format": args.format,
        }
        if args.window is not None:
            if args.command == "bohl":
                overrides["bohl_window"] = args.window
            else:
                overrides["window"] = args.window
        scn = scn.with_overrides(**overrides)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    out_dir = Path(scn.output["out"])
    fmt = scn.output["format"]
    try:
        if args.command == "spectrum":
            return _cmd_spectrum(scn, out_dir, fmt)
        if args.command == "bohl":
            return _cmd_bohl(scn, out_dir, fmt, args.xi)
        if args.command == "dichotomy":
            return _cmd_dichotomy(scn, out_dir, fmt, args.gamma)
        if args.command == "bundles":
            return _cmd_bundles(scn, out_dir, fmt)
        if args.command == "triangularize":
            return _cmd_triangularize(scn, out_dir, fmt)
        if args.command == "verify":
            return _cmd_verify(scn, out_dir, fmt)
        if args.command == "oracle":
            return _cmd_oracle(scn, out_dir, fmt)
        raise AssertionError(f"unhandled command {args.command!r}")
    except DichospecError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
