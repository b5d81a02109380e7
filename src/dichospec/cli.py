"""Command line front end.

Every command takes a scenario file, applies flag overrides (flags win),
runs one analysis, prints a report in the chosen format and drops the
machine-readable artifacts next to it.  Exit codes: 0 success, 1 hard
containment failure, 2 usage, scenario-format or output error, 3
validation failure during analysis.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from .bohl import GAP_MIN, TAIL_FRACTION, BohlEstimate, bohl_exponents
from .bundles import WhitneyReport, bundle_fibers, whitney_sum_check
from .containment import (_SAMPLE_CSV_HEADER, ContainmentReport, verify_endpoint_attainability,
                          verify_fiber_containment)
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
        values = tuple(float(p) for p in text.replace(",", " ").split())
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
    common.add_argument("--out", default=None, help="artifact directory")
    common.add_argument("--format", choices=("json", "csv", "table"), default=None)
    analysis = {"--window": dict(type=int, help="analysis window (for `bohl`, the Bohl window)"),
                "--refine-tol": dict(type=float), "--two-sided": dict(action="store_true"),
                "--seed": dict(type=int)}

    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, text, flags) in _COMMANDS.items():
        commands[name] = sub.add_parser(name, parents=[common], help=text)
        for flag in flags:
            commands[name].add_argument(flag, default=None, **analysis[flag])
    commands["bohl"].add_argument("--xi", type=_xi_arg, required=True,
                                  help="starting vector, comma separated")
    commands["dichotomy"].add_argument("--gamma", type=float, required=True)
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
        "params": {"window": p.window, "gap_min": GAP_MIN,
                   "tail_fraction": TAIL_FRACTION, "two_sided": p.two_sided},
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


# -- emission ------------------------------------------------------------------

def _emit(out_dir: Path, stem: str, payload: dict[str, Any],
          csv_text: str | None, fmt: str, table_lines: list[str]) -> None:
    doc = canonical_json(payload) + "\n"
    written: list[Path] = []
    try:  # a failed write removes what this run wrote, so it leaves no artifact
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, text in ((out_dir / f"{stem}.json", doc), (out_dir / f"{stem}.csv", csv_text)):
            if text is not None:
                with open(path, "w") as f:
                    written.append(path)
                    f.write(text)
        report = {"json": doc, "csv": csv_text}.get(fmt)
        sys.stdout.write("".join(f"{line}\n" for line in table_lines) if report is None else report)
    except OSError:
        for p in written:
            p.unlink()
        raise


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
    return estimate_spectrum(scn.system, refine_tol=scn.analysis["refine_tol"],
                             params=scn.dichotomy_params())


_Output = tuple[dict[str, Any], str | None, list[str], int]  # payload, CSV, table, exit code


def _cmd_spectrum(scn: Scenario, args: argparse.Namespace) -> _Output:
    est = _spectrum(scn)
    return spectrum_payload(scn.name, est), est.verdicts_to_csv(), _interval_table(est), 0


def _cmd_bohl(scn: Scenario, args: argparse.Namespace) -> _Output:
    est = bohl_exponents(scn.system, list(args.xi), scn.bohl_params())
    table = [f"upper Bohl exponent {est.upper:.10g}",
             f"lower Bohl exponent {est.lower:.10g}",
             f"envelope spread     {est.spread:.3e}"]
    return bohl_payload(scn.name, args.xi, est), est.envelopes_to_csv(), table, 0


def _cmd_dichotomy(scn: Scenario, args: argparse.Namespace) -> _Output:
    verdict = test_dichotomy(scn.system, args.gamma, scn.dichotomy_params())
    payload = {"scenario": scn.name, **_verdict_payload(verdict, bases=True)}
    csv_text = f"{_VERDICT_CSV_HEADER}\n{verdict.csv()}\n"
    table = [f"gamma {args.gamma:.10g}: {verdict.outcome}"
             + (f" (rank {verdict.rank}, rho {verdict.rho:.6g}, K {verdict.K:.6g})"
                if verdict.is_certificate else f" ({verdict.reason})")]
    return payload, csv_text, table, 0


def _cmd_bundles(scn: Scenario, args: argparse.Namespace) -> _Output:
    fibers = bundle_fibers(_spectrum(scn))
    whitney = whitney_sum_check(fibers)
    table = [f"{len(fibers)} fiber(s)"]
    for f in fibers:
        table.append(f"  fiber {f.index}: dimension {f.dimension}")
    table.extend(whitney.rows())
    return fibers_payload(scn.name, fibers, whitney), None, table, 0


def _cmd_triangularize(scn: Scenario, args: argparse.Namespace) -> _Output:
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
    return payload, pair.diagonal_to_csv(), table, 0


def _cmd_verify(scn: Scenario, args: argparse.Namespace) -> _Output:
    a = scn.analysis
    est = _spectrum(scn)
    reports = [
        verify_fiber_containment(scn.system, est, samples_per_fiber=a["samples"],
                                 tolerance=a["tolerance"], seed=a["seed"],
                                 params=scn.bohl_params(), system_id=scn.name),
        verify_endpoint_attainability(scn.system, est, tolerance=a["tolerance"],
                                      system_id=scn.name),
    ]
    payload = {"scenario": scn.name,
               "reports": [containment_payload(r) for r in reports]}
    csv_text = f"check,{_SAMPLE_CSV_HEADER}\n" + "".join(
        f"{r.check},{row.csv()}\n" for r in reports for row in r.rows)
    table = [r.summary() for r in reports]
    code = FAILURE_EXIT if any(r.status == "fail" for r in reports) else 0
    return payload, csv_text, table, code


def _cmd_oracle(scn: Scenario, args: argparse.Namespace) -> _Output:
    points = periodic_spectrum_oracle(scn.system)
    payload = {"scenario": scn.name, "period": scn.system.period,
               "points": list(points)}
    csv_text = "point\n" + "".join(repr(float(p)) + "\n" for p in points)
    table = ["spectrum points: " + " ".join(f"{p:.10g}" for p in points)]
    return payload, csv_text, table, 0


# name -> (command, help text, analysis flags it reads), in `--help` order.  Only _cmd_*
# functions go here: they look library names up in this module when called, so a
# wrapper bound there runs.
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "estimate the dichotomy spectrum", ("--window", "--refine-tol")),
    "bohl": (_cmd_bohl, "Bohl exponents of one starting vector", ("--window", "--two-sided")),
    "dichotomy": (_cmd_dichotomy, "test one scaling for an exponential dichotomy", ("--window",)),
    "bundles": (_cmd_bundles, "spectral bundle fibers and Whitney sum check",
                ("--window", "--refine-tol")),
    "triangularize": (_cmd_triangularize, "QR triangularization and diagonal significance",
                      ("--window", "--refine-tol")),
    "verify": (_cmd_verify, "run the containment checks; exit 1 on failure",
               ("--window", "--refine-tol", "--two-sided", "--seed")),
    "oracle": (_cmd_oracle, "Floquet spectrum points of a periodic system", ()),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        scn = load_scenario(args.scenario)
        # each common flag's destination is the scenario key it overrides
        overrides = {key: value for key, value in vars(args).items()
                     if key in scn.analysis or key in scn.output}
        if args.command == "bohl":
            overrides["bohl_window"] = overrides.pop("window")
        scn = scn.with_overrides(**overrides)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        payload, csv_text, table, code = _COMMANDS[args.command][0](scn, args)
    except DichospecError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    try:
        _emit(Path(scn.output["out"]), f"{scn.name}-{args.command}", payload, csv_text,
              scn.output["format"], table)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())
