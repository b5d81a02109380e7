import json
import math
from importlib import resources

import pytest

from dichospec.bohl import bohl_exponents
from dichospec.cli import main
from dichospec.dichotomy import estimate_spectrum
from dichospec.scenario import (
    Scenario,
    ScenarioError,
    canonical_json,
    load_scenario,
)

SCENARIO_DIR = resources.files("dichospec") / "scenarios"


def bundled(name):
    with resources.as_file(SCENARIO_DIR / f"{name}.json") as p:
        return str(p)


def write_scenario(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def small_diag_payload(**analysis):
    base = {"bohl_window": 512, "samples": 6, "samples_per_fiber": 4}
    base.update(analysis)
    return {
        "name": "diag-small",
        "system": {"kind": "diagonal", "entries": [
            {"kind": "constant", "value": 2.0},
            {"kind": "constant", "value": 0.5},
        ]},
        "analysis": base,
    }


# -- canonical serialization ---------------------------------------------------


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"x": 1, "y": {"b": 2.5, "a": [1.0, 2]}})
    b = canonical_json({"y": {"a": [1.0, 2], "b": 2.5}, "x": 1})
    assert a == b


def test_canonical_json_keeps_float_identity():
    text = canonical_json({"pi": math.pi, "one": 1.0, "n": 3})
    decoded = json.loads(text)
    assert decoded["pi"] == math.pi  # 17 significant digits round-trip
    assert isinstance(decoded["one"], float)
    assert isinstance(decoded["n"], int)


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


# -- scenarios -----------------------------------------------------------------


def test_bundled_scenarios_load_and_round_trip():
    for entry in sorted(p.name for p in SCENARIO_DIR.iterdir()
                        if p.name.endswith(".json")):
        name = entry[: -len(".json")]
        scn = load_scenario(bundled(name))
        assert scn.name == name
        again = Scenario.from_payload(json.loads(scn.dumps()))
        assert again.dumps() == scn.dumps()


def test_scenario_defaults_and_overrides(tmp_path):
    path = write_scenario(tmp_path, "diag-small", small_diag_payload())
    scn = load_scenario(path)
    assert scn.analysis["refine_tol"] == 1e-3  # default fills the gap
    assert scn.analysis["bohl_window"] == 512
    bumped = scn.with_overrides(refine_tol=5e-4, seed=None)
    assert bumped.analysis["refine_tol"] == 5e-4
    assert bumped.analysis["seed"] == scn.analysis["seed"]  # None is "keep"
    with pytest.raises(ScenarioError):
        scn.with_overrides(not_a_field=1)


def test_scenario_rejects_unknown_fields(tmp_path):
    payload = small_diag_payload()
    payload["analysis"]["mystery"] = 1
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, "bad", payload))
    payload = small_diag_payload()
    payload["output"] = {"format": "xml"}
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, "bad2", payload))


def test_scenario_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


# -- CLI commands ----------------------------------------------------------------


def test_cli_spectrum_writes_artifacts(tmp_path, capsys):
    rc = main(["spectrum", bundled("autonomous-diagonal"),
               "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    artifact = json.loads((tmp_path / "autonomous-diagonal-spectrum.json").read_text())
    assert artifact == doc
    assert (tmp_path / "autonomous-diagonal-spectrum.csv").exists()
    assert artifact["gap_ranks"] == [0, 1, 2]
    lows = [iv["lower"] for iv in artifact["intervals"]]
    assert lows[0] == pytest.approx(0.5, abs=5e-3)
    assert lows[1] == pytest.approx(2.0, abs=5e-3)


def test_cli_spectrum_piecewise(tmp_path):
    rc = main(["spectrum", bundled("piecewise-scalar"), "--out", str(tmp_path),
               "--format", "table"])
    assert rc == 0
    artifact = json.loads((tmp_path / "piecewise-scalar-spectrum.json").read_text())
    assert len(artifact["intervals"]) == 1
    iv = artifact["intervals"][0]
    assert iv["lower"] == pytest.approx(0.5, abs=5e-3)
    assert iv["upper"] == pytest.approx(2.0, abs=5e-3)


def test_cli_bohl_window_flag_targets_bohl(tmp_path, capsys):
    rc = main(["bohl", bundled("autonomous-diagonal"), "--xi", "1,0",
               "--window", "512", "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["window"] == 512
    assert doc["upper"] == pytest.approx(2.0, rel=1e-9)
    assert doc["lower"] == pytest.approx(2.0, rel=1e-9)


def test_cli_dichotomy_and_bundles(tmp_path):
    rc = main(["dichotomy", bundled("autonomous-diagonal"), "--gamma", "1.0",
               "--out", str(tmp_path), "--format", "table"])
    assert rc == 0
    verdict = json.loads((tmp_path / "autonomous-diagonal-dichotomy.json").read_text())
    assert verdict["outcome"] == "certificate"
    assert verdict["rank"] == 1

    rc = main(["bundles", bundled("autonomous-diagonal"),
               "--out", str(tmp_path), "--format", "table"])
    assert rc == 0
    doc = json.loads((tmp_path / "autonomous-diagonal-bundles.json").read_text())
    assert [f["dimension"] for f in doc["fibers"]] == [1, 1]
    assert doc["whitney"]["passed"] is True


def test_cli_oracle_periodic_scalar(tmp_path, capsys):
    rc = main(["oracle", bundled("periodic-scalar"), "--out", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == [1.0]


def test_cli_triangularize(tmp_path):
    rc = main(["triangularize", bundled("triangular-constant"),
               "--out", str(tmp_path), "--format", "table"])
    assert rc == 0
    doc = json.loads((tmp_path / "triangular-constant-triangularize.json").read_text())
    assert doc["residual_max"] <= 1e-10
    assert doc["orthogonality_max"] <= 1e-12


def test_cli_triangularize_at_a_wider_window(tmp_path):
    # the sweep must cover the window the significance check estimates over
    rc = main(["triangularize", bundled("triangular-constant"), "--window", "512",
               "--out", str(tmp_path), "--format", "table"])
    assert rc == 0
    doc = json.loads((tmp_path / "triangular-constant-triangularize.json").read_text())
    assert doc["significant"] is True
    assert len(doc["system_spectrum"]) == 2


def test_cli_dichotomy_csv_is_the_spectrum_grid_row(tmp_path, capsys):
    path = bundled("autonomous-diagonal")
    scn = load_scenario(path)
    est = _scenario_spectrum(scn)
    header, *rows = est.verdicts_to_csv().splitlines()
    assert header == "gamma,outcome,rank,rho,K"
    certificate = next(i for i, v in enumerate(est.grid) if v.rank == 1)
    in_spectrum = next(i for i, v in enumerate(est.grid) if not v.is_certificate)
    for i in (certificate, in_spectrum):
        rc = main(["dichotomy", path, "--gamma", repr(est.grid[i].gamma),
                   "--out", str(tmp_path), "--format", "csv"])
        assert rc == 0
        expected = f"{header}\n{rows[i]}\n"
        assert capsys.readouterr().out == expected
        assert (tmp_path / "autonomous-diagonal-dichotomy.csv").read_text() == expected
    assert rows[certificate].split(",")[1:3] == ["certificate", "1"]
    assert rows[in_spectrum].split(",")[1:] == ["in_spectrum", "", "", ""]


def _scenario_spectrum(scn):
    return estimate_spectrum(scn.system, grid_points=scn.analysis["grid_points"],
                             refine_tol=scn.analysis["refine_tol"],
                             params=scn.dichotomy_params())


@pytest.mark.parametrize("command,flags,library_csv", [
    ("spectrum", [], lambda scn: _scenario_spectrum(scn).verdicts_to_csv()),
    ("bohl", ["--xi", "1,1"], lambda scn: bohl_exponents(
        scn.system, [1.0, 1.0], scn.bohl_params()).envelopes_to_csv()),
], ids=["spectrum", "bohl"])
def test_cli_csv_is_the_library_csv(tmp_path, capsys, command, flags, library_csv):
    path = bundled("seeded-pair-d2")
    rc = main([command, path, *flags, "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    want = library_csv(load_scenario(path))
    assert capsys.readouterr().out == want
    assert (tmp_path / f"seeded-pair-d2-{command}.csv").read_text() == want


def test_cli_verify_is_deterministic(tmp_path):
    scn = write_scenario(tmp_path, "diag-small", small_diag_payload())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", scn, "--out", str(out_a), "--format", "table"]) == 0
    assert main(["verify", scn, "--out", str(out_b), "--format", "table"]) == 0
    name_json = "diag-small-verify.json"
    name_csv = "diag-small-verify.csv"
    assert (out_a / name_json).read_bytes() == (out_b / name_json).read_bytes()
    assert (out_a / name_csv).read_bytes() == (out_b / name_csv).read_bytes()
    doc = json.loads((out_a / name_json).read_text())
    statuses = {c["check"]: c["status"] for c in doc["reports"]}
    assert statuses == {"fiber-containment": "pass",
                        "global-containment": "pass",
                        "endpoint-attainability": "pass"}


def test_scenario_jobs_key_is_an_ignored_legacy_field(tmp_path):
    # "jobs" once capped containment worker threads; files that still
    # carry it load, drop it, and verify to the same bytes
    plain = write_scenario(tmp_path, "diag-small", small_diag_payload())
    legacy_dir = tmp_path / "legacy"
    legacy_dir.mkdir()
    legacy = write_scenario(legacy_dir, "diag-small", small_diag_payload(jobs=4))
    assert "jobs" not in load_scenario(legacy).analysis
    assert load_scenario(legacy).dumps() == load_scenario(plain).dumps()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", plain, "--out", str(out_a), "--format", "json"]) == 0
    assert main(["verify", legacy, "--out", str(out_b), "--format", "json"]) == 0
    for name in ("diag-small-verify.json", "diag-small-verify.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert main(["verify", plain, "--jobs", "2", "--out", str(out_a)]) == 2


def test_cli_verify_fails_loudly_on_impossible_tolerance(tmp_path):
    payload = small_diag_payload(tolerance=1e-15, bohl_window=256)
    scn = write_scenario(tmp_path, "diag-small", payload)
    rc = main(["verify", scn, "--out", str(tmp_path), "--format", "table"])
    assert rc == 1


def test_cli_refuses_a_negative_tolerance_with_exit_3(tmp_path, capsys):
    path = write_scenario(tmp_path, "diag-small", small_diag_payload(tolerance=-1))
    assert main(["verify", path, "--out", str(tmp_path), "--format", "table"]) == 3
    assert "tolerance must be at least 0" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path):
    # usage errors
    assert main(["spectrum"]) == 2
    assert main(["no-such-command", "x.json"]) == 2
    assert main(["spectrum", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "system": {"kind": "wat"}}')
    assert main(["spectrum", str(bad)]) == 2
    # validation errors inside the analysis
    assert main(["oracle", bundled("piecewise-scalar"), "--out", str(tmp_path)]) == 3
    assert main(["dichotomy", bundled("autonomous-diagonal"), "--gamma", "-2",
                 "--out", str(tmp_path)]) == 3
    # help is not an error
    assert main(["--help"]) == 0


def _constant_payload(**analysis):
    return {"name": "bad", "system": {"kind": "constant", "matrix": [[2, 0], [0, 0.5]]},
            "analysis": analysis}


@pytest.mark.parametrize("field,value", [
    ("window", "abc"), ("window", None), ("window", 64.9), ("samples", True),
    ("refine_tol", "x"), ("tail_fraction", False), ("tolerance", float("nan")), ("seed", -1),
    ("two_sided", "yes"), ("escalate", 1),
])
def test_cli_rejects_malformed_analysis_fields(tmp_path, capsys, field, value):
    path = write_scenario(tmp_path, "bad", _constant_payload(**{field: value}))
    assert main(["verify", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and repr(field) in err


def test_cli_rejects_a_negative_seed_override(tmp_path, capsys):
    path = write_scenario(tmp_path, "ok", _constant_payload())
    assert main(["verify", path, "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "'seed'" in capsys.readouterr().err


def test_integral_float_fields_load_as_integers(tmp_path):
    scn = load_scenario(write_scenario(tmp_path, "ok", _constant_payload(window=64.0)))
    assert scn.analysis["window"] == 64 and type(scn.analysis["window"]) is int
    assert scn.analysis["tolerance"] is None


def test_cli_refuses_subnormal_factors_with_exit_3(tmp_path, capsys):
    payload = _constant_payload()
    payload["system"]["matrix"] = [[1e-310, 0], [0, 1e-310]]
    path = write_scenario(tmp_path, "subnormal", payload)
    assert main(["spectrum", path, "--out", str(tmp_path)]) == 3
    assert "n=0" in capsys.readouterr().err


_SEEDED = {"kind": "seeded-random", "seed": 11, "bands": [[0.4, 0.5], [1.6, 2.0]]}


def _scalar_entry(**fields):
    return {"kind": "diagonal", "entries": [fields, {"kind": "constant", "value": 0.5}]}


@pytest.mark.parametrize("system", [
    _scalar_entry(kind="constant", value=float("nan")),
    _scalar_entry(kind="constant", value=float("inf")),
    _scalar_entry(kind="constant", value="two"),
    _scalar_entry(kind="constant", value=None),
    _scalar_entry(kind="periodic", values=2.0),
    _scalar_entry(kind="seeded-random", seed=1, band=["low", 0.8]),
    _scalar_entry(kind="seeded-random", seed=1, band=[0.5, None]),
    _scalar_entry(kind="seeded-random", seed=1.5, band=[0.5, 0.8]),
    {**_SEEDED, "eps": "small"},
    {**_SEEDED, "eps": None},
    {**_SEEDED, "eps": float("nan")},
    {**_SEEDED, "seed": "11"},
    {**_SEEDED, "seed": None},
    {**_SEEDED, "seed": 1.5},
    {**_SEEDED, "seed": True},
    {**_SEEDED, "seed": float("inf")},
    {**_SEEDED, "bands": [[0.4, "high"], [1.6, 2.0]]},
    {"kind": "constant", "matrix": [[2, "zero"], [0, 0.5]]},
    # float() takes booleans and strings of digits; a payload may not
    _scalar_entry(kind="constant", value=True),
    _scalar_entry(kind="constant", value="0.5"),
    _scalar_entry(kind="periodic", values=[0.5, True]),
    _scalar_entry(kind="periodic", values="12"),
    _scalar_entry(kind="piecewise", negative=["0.5"], nonnegative=[0.5]),
    _scalar_entry(kind="piecewise", negative=[0.5], nonnegative=[True]),
    _scalar_entry(kind="seeded-random", seed=1, band=["0.5", True]),
    {**_SEEDED, "eps": "0"},
    {**_SEEDED, "eps": False},
    {**_SEEDED, "bands": [[0.4, True], [1.6, 2.0]]},
    {**_SEEDED, "bands": [[0.4, 0.5], ["1.6", 2.0]]},
    {"kind": "constant", "matrix": [["2", False], [0, True]]},
    {"kind": "periodic", "matrices": [[[2, 0], [0, "0.5"]]]},
    {"kind": "upper-triangular",
     "diagonal": [{"kind": "constant", "value": 2.0}, {"kind": "constant", "value": 0.5}],
     "offdiagonal": [{"row": False, "col": True, "entry": {"kind": "constant", "value": 1.0}}]},
    # an index is an integer, and each (row, col) is given once
    {"kind": "upper-triangular",
     "diagonal": [{"kind": "constant", "value": 2.0}, {"kind": "constant", "value": 0.5}],
     "offdiagonal": [{"row": 0.5, "col": 1.9, "entry": {"kind": "constant", "value": 1.0}}]},
    {"kind": "upper-triangular",
     "diagonal": [{"kind": "constant", "value": 2.0}, {"kind": "constant", "value": 0.5}],
     "offdiagonal": [{"row": 0, "col": 1, "entry": {"kind": "constant", "value": 1.0}},
                     {"row": 0.0, "col": 1.0, "entry": {"kind": "constant", "value": 5.0}}]},
], ids=["value-nan", "value-inf", "value-str", "value-null", "values-number", "band-str",
        "band-null", "scalar-seed-1.5", "eps-str", "eps-null", "eps-nan", "seed-str",
        "seed-null", "seed-1.5", "seed-true", "seed-inf", "bands-str", "matrix-str",
        "value-true", "value-digits", "values-true", "values-digits", "negative-digits",
        "nonnegative-true", "band-digits-true", "eps-digits", "eps-false", "bands-true",
        "bands-digits", "matrix-digits-bools", "matrices-digits", "offdiagonal-bools",
        "offdiagonal-fractional-index", "offdiagonal-duplicate"])
def test_cli_rejects_malformed_system_fields(tmp_path, capsys, system):
    path = write_scenario(tmp_path, "bad", {"name": "bad", "system": system})
    assert main(["spectrum", path, "--out", str(tmp_path)]) == 2
    assert "scenario error" in capsys.readouterr().err
