"""Harness tests for the benchmark's tracer.

Run from the repository root:  python3 -m pytest -q bench/test_tracing.py
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from dichospec.bohl import BohlParams  # noqa: E402
from dichospec.sequences import MatrixSequence, ScalarSequence  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install(workloads)
    try:
        yield t
    finally:
        t.uninstall()


def test_every_binding_site_is_wrapped(tracer):
    assert tracer.missed_bindings() == []
    sites = tracer.bound_sites()
    assert set(sites) == {t.name for t in tracing.TARGETS}
    for name, where in [
        ("bundles.restricted_fiber_system", "dichospec.containment.restricted_fiber_system"),
        ("bohl.bohl_exponents", "dichospec.containment.bohl_exponents"),
        ("bohl.bohl_exponents", "dichospec.cli.bohl_exponents"),
        ("linalg.qr_positive", "dichospec.dichotomy.qr_positive"),
        ("linalg.qr_positive", "dichospec.bundles.qr_positive"),
        ("linalg.qr_positive", "dichospec.triangularize.qr_positive"),
        ("transition.transition", "dichospec.transition"),
        ("bundles.bundle_fibers", "workloads.bundle_fibers"),
    ]:
        assert where in sites[name], f"{where} not wrapped"


def test_missed_binding_is_reported(tracer):
    import dichospec.containment as containment

    wrapper = containment.restricted_fiber_system
    containment.restricted_fiber_system = wrapper.__wrapped__
    try:
        assert tracer.missed_bindings() == ["dichospec.containment.restricted_fiber_system"]
    finally:
        containment.restricted_fiber_system = wrapper


def test_uninstall_restores_originals():
    import dichospec.containment as containment
    import dichospec.sequences as sequences

    before = (containment.bohl_exponents, sequences.MatrixSequence.__dict__["window"])
    t = tracing.Tracer()
    t.install(workloads)
    assert containment.bohl_exponents is not before[0]
    t.uninstall()
    assert (containment.bohl_exponents, sequences.MatrixSequence.__dict__["window"]) == before


def _small_diagonal():
    return MatrixSequence.diagonal([ScalarSequence.constant(2.0),
                                    ScalarSequence.seeded(3, (0.4, 0.5))])


def test_spans_nest_and_self_times_cover_the_operation(tracer):
    from dichospec.containment import verify_global_containment
    from dichospec.dichotomy import DichotomyParams, estimate_spectrum

    def op():
        seq = _small_diagonal()
        est = estimate_spectrum(seq, params=DichotomyParams(window=64, burn_in=16))
        return verify_global_containment(seq, est, samples=3, params=BohlParams(window=64))

    tracer.span(op)
    m = tracer.layer_metrics()
    assert m["containment.verify_global_containment.calls"] == 1
    assert m["containment.verify_global_containment.samples"] == 3
    assert m["bohl.bohl_exponents.calls"] == m["transition.orbit_lognorms.calls"] == 3
    assert m["transition.orbit_lognorms.steps"] == 3 * 64
    assert m["dichotomy.estimate_spectrum.calls"] == 1
    assert m["dichotomy.probes"] >= 48
    assert m["dichotomy.DichotomyAnalyzer.__init__.steps"] == 2 * 80
    assert m["bundles.restricted_fiber_system.calls"] == 0

    self_s = tracer.self_times()
    assert self_s.min() > -1e-9
    root_duration = tracer.span_end[0] - tracer.span_start[0]
    assert abs(self_s.sum() - root_duration) < 1e-6
    parents = np.frombuffer(tracer.span_parent, dtype=np.int32)
    assert parents[0] == -1 and (parents[1:] >= 0).all()
    assert m["trace.spans"] == len(parents) - 1


def test_factor_reuse_counts_unique_indices(tracer):
    seq = _small_diagonal()
    seq.window(0, 9)
    seq.window(5, 14)
    seq.evaluate(3)
    m = tracer.layer_metrics()
    assert m["sequences.MatrixSequence.window.factors"] == 20
    assert m["sequences.factor_reuse"] == pytest.approx(15 / 21)


def test_recursive_canonical_json_counts_outermost_calls(tracer):
    import dichospec.scenario as scenario

    scenario.canonical_json({"a": [1.0, {"b": 2}], "c": "x"})
    assert tracer.layer_metrics()["scenario.canonical_json.calls"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert len(tracing.metric_names()) <= 128
