"""dichospec benchmark: end-to-end workloads with an optional per-layer trace.

Run from the root of a source checkout:

    python3 bench/run.py --workload containment-roster --seed 1 --seconds 30 --trace 0

The package is imported from ./src, never from an installed copy.  The
workload's inputs are generated from --seed.  Untraced runs repeat passes
over the workload's operations while another pass still fits in
--seconds (at least one pass) and report the end-to-end metrics; traced
runs (--trace 1) make one untraced pass and one traced pass and report
the per-layer metrics.  Times are CPU seconds rescaled to a reference
machine speed, sampled while they are measured (see speed.py).  The last line
of standard output is one JSON object; a fuller result file, with
provenance and a fingerprint of every operation's numbers, goes to
.bench_out/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import INTERPRETER, LOADER, SpeedSampler

# One thread per process: the workloads are sequences of tiny matrix
# operations, and BLAS worker threads only add contention on small boxes.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
OUT_DIR = Path(".bench_out")
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from process start until the inputs exist, in fresh processes.

    Each probe process counts its own CPU seconds from its start, rescaled
    to the reference speed, and prints them as its last line.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")},
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "machine": platform.machine(), "platform": platform.platform(),
            "git_commit": git_commit(root)}


class Pass:
    """One pass over the workload's operations.

    `seconds` is the pass's CPU time at the reference speed, `wall` its
    wall time, `speed` the sampled speed relative to the reference, and
    `outcomes` one (operation, failure, fingerprint) triple per operation;
    failure is None when the operation passed.
    """

    def __init__(self, workload, sampler: SpeedSampler, tracer=None):
        ops = workload.operations()
        self.outcomes = []
        mark = sampler.mark()
        t0 = time.perf_counter()
        for op in ops:
            try:
                self.outcomes.append((op, None, tracer.span(op.run) if tracer else op.run()))
            except Exception as exc:  # one failed operation must not stop the run
                traceback.print_exc(file=sys.stderr)
                self.outcomes.append((op, f"{type(exc).__name__}: {exc}", None))
        self.wall = time.perf_counter() - t0
        self.speed = sampler.speed_since(mark)
        self.seconds = sampler.cpu_since(mark) * self.speed


def traced_run(workload, workload_name: str, sampler: SpeedSampler) -> tuple[list[Pass], dict, dict]:
    """One untraced and one traced pass; per-layer metrics and cross-checks."""
    import tracing
    import workloads

    untraced = Pass(workload, sampler)
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        traced = Pass(workload, sampler, tracer)
        missed = tracer.missed_bindings()
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    # span times are wall seconds; rescale them like the pass times
    for name in layer:
        if name.endswith(".self_s"):
            layer[name] *= traced.speed
    layer["trace.pass_s"] = traced.seconds
    layer["trace.overhead_s"] = traced.seconds - untraced.seconds
    metrics = {name: {"value": layer[name], "unit": tracing.unit_of(name)}
               for name in tracing.metric_names()}
    # span counts against counts that follow from the inputs and reports
    crosscheck = {
        "missed bindings": [len(missed), 0],
        "transition.orbit_lognorms.calls vs Bohl samples": [
            layer["transition.orbit_lognorms.calls"],
            sum(fp["bohl_samples"] for _, why, fp in traced.outcomes if why is None)],
    }
    if workload_name == "containment-roster":
        crosscheck["bundles.restricted_fiber_system.calls vs 0 (diagonal systems)"] = [
            layer["bundles.restricted_fiber_system.calls"], 0]
    return [untraced, traced], metrics, crosscheck


def main(argv=None) -> int:
    args = parse_args(argv)
    # started before numpy loads, so a set-up probe samples its imports
    sampler = SpeedSampler(LOADER if args.setup_probe else INTERPRETER).start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args: argparse.Namespace, sampler: SpeedSampler) -> int:
    root = Path.cwd()
    if not (root / "src" / "dichospec" / "__init__.py").is_file():
        print("bench: no dichospec sources under ./src; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(root / "src"))

    import workloads
    import dichospec

    if not Path(dichospec.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"bench: imported dichospec from {dichospec.__file__}, not ./src", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed, root, OUT_DIR)
        # CPU seconds since this process started, at the reference speed
        print(sampler.reference_seconds((0, 0.0, 0.0)))
        return 0

    setup_times = measure_setup(args)
    workload = workloads.build(args.workload, args.seed, root, OUT_DIR)
    crosscheck: dict = {}
    if args.trace:
        passes, metrics, crosscheck = traced_run(workload, args.workload, sampler)
        timed = passes[:1]  # the untraced pass
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(Pass(workload, sampler))
            if time.perf_counter() - start + statistics.median(p.wall for p in passes) > args.seconds:
                break
        timed = passes
    workload.finish()

    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failures = [(op.label, why) for op, why, _ in outcomes if why is not None]
    q1, pass_s, q3 = quartiles([p.seconds for p in timed])
    wall = statistics.median(p.wall for p in timed)
    speed = statistics.median(p.speed for p in timed)
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        metrics = {"pass_s": {"value": pass_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    fingerprint: dict = {}
    for op, why, fp in outcomes:
        fingerprint.setdefault(op.label, fp if why is None else {"failed": why})

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations attempted")
    print(f"  pass_s          {pass_s:.4f} s at reference speed (median of {len(timed)} "
          f"untraced pass(es); quartiles {q1:.4f} .. {q3:.4f})")
    print(f"  wall            {wall:.4f} s per pass as measured, at {speed:.3f}x "
          f"the reference speed")
    print(f"  setup_s         {setup_s:.4f} s at reference speed (median of "
          f"{len(setup_times)} fresh processes)")
    print(f"  peak_rss_mb     {peak_rss_mb:.1f} MiB")
    print(f"  failed_ops_frac {len(failures) / attempted:.4g} "
          f"({len(failures)} failed of {attempted} attempted)")
    for label, why in failures:
        print(f"  FAILED {label}: {why}")
    if args.trace:
        overhead = metrics["trace.overhead_s"]["value"]
        print(f"  tracing overhead {overhead:.4f} s (traced pass "
              f"{metrics['trace.pass_s']['value']:.4f} s minus untraced pass; "
              f"{metrics['trace.spans']['value']} spans)")
        for what, (seen, expected) in crosscheck.items():
            print(f"  cross-check {what}: {seen} vs {expected} "
                  f"{'ok' if seen == expected else 'MISMATCH'}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(root),
              "passes": [{"seconds": p.seconds, "wall": p.wall, "speed": p.speed} for p in passes],
              "setup_seconds": setup_times, "pass_s_quartiles": [q1, pass_s, q3],
              "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": len(failures),
              "failed_ops_frac": len(failures) / attempted, "failures": failures,
              "metrics": metrics, "crosscheck": crosscheck, "fingerprint": fingerprint}
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
