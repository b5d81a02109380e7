import csv
import dataclasses
import inspect
import json
import math
from importlib import resources

import numpy as np
import pytest

from dichospec import containment
from dichospec.bohl import GAP_MIN, TAIL_FRACTION, BohlParams, bohl_exponents
from dichospec.bundles import bundle_fibers
from dichospec.cli import containment_payload, main
from dichospec.containment import (SampleRow, verify_fiber_containment,
                                   verify_global_containment)
from dichospec.dichotomy import (GRID_POINTS, DichotomyParams, DichotomyVerdict,
                                 estimate_spectrum, periodic_spectrum_oracle)
from dichospec.scenario import (
    _ANALYSIS_DEFAULTS,
    Scenario,
    ScenarioError,
    canonical_json,
    load_scenario,
)
from dichospec.sequences import MatrixSequence
from dichospec.triangularize import qr_triangularize

SCENARIO_DIR = resources.files("dichospec") / "scenarios"


def bundled(name):
    with resources.as_file(SCENARIO_DIR / f"{name}.json") as p:
        return str(p)


def write_scenario(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def small_diag_payload(**analysis):
    base = {"bohl_window": 512, "samples": 6}
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
    assert decoded["pi"] == math.pi  # the shortest repr round-trips
    assert isinstance(decoded["one"], float)
    assert isinstance(decoded["n"], int)


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_canonical_json_is_the_standard_encoder():
    payload = {"b": [1, 2.5, {"z": None, "a": True}], "a": {"s": "x\u00e9", "t": []},
               "c": (0.1, -0.0, 1e16), "d": {}}
    assert canonical_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_canonical_json_prints_floats_in_shortest_round_trip_form():
    text = canonical_json([0.1, 1e16, -0.0, np.float64(0.2)])
    assert text.split() == ["[", "0.1,", "1e+16,", "-0.0,", "0.2", "]"]


def _exact(cells, values):
    """Each CSV cell parses back to its float bit for bit, in ``repr`` form."""
    assert cells == [repr(float(v)) for v in values]
    assert [float(c).hex() for c in cells] == [float(v).hex() for v in values]


def _verdict_cells(_tmp_path):
    v = DichotomyVerdict(gamma=0.1, outcome="certificate", window=256, rank=1,
                         rho=np.float64(1 / 3), K=1e16)
    cells = v.csv().split(",")
    _exact([cells[0], *cells[3:]], [0.1, 1 / 3, 1e16])


def _sample_row_cells(_tmp_path):
    row = SampleRow(label="s", fiber_index=1, xi=(np.float64(0.1), -0.0), lower=1 / 3,
                    upper=2 / 3, target=(0.2, 0.7), tolerance=1e-3, margin=-5e-324,
                    passed=False)
    cells = row.csv().split(",")
    _exact(cells[2].split(";") + cells[3:9], [0.1, -0.0, 1 / 3, 2 / 3, 0.2, 0.7, 1e-3, -5e-324])


def _envelope_cells(_tmp_path):
    est = bohl_exponents(MatrixSequence.constant([[0.5, 1.0], [0.0, 2.0]]), [1.0, 1.0],
                         BohlParams(window=256))
    rows = [r.split(",") for r in est.envelopes_to_csv().splitlines()[1:]]
    _exact([r[1] for r in rows], est.min_rates)
    _exact([r[2] for r in rows], est.max_rates)


def _diagonal_cells(_tmp_path):
    pair = qr_triangularize(MatrixSequence.constant([[0.5, 1.0], [0.0, 2.0]]), (-8, 8))
    rows = [r.split(",")[1:] for r in pair.diagonal_to_csv().splitlines()[1:]]
    diag = np.diagonal(pair.upper.table, axis1=1, axis2=2)
    _exact(sum(rows, []), diag.ravel())


def _oracle_cells(tmp_path):
    path = bundled("autonomous-diagonal")
    assert main(["oracle", path, "--out", str(tmp_path), "--format", "table"]) == 0
    cells = (tmp_path / "autonomous-diagonal-oracle.csv").read_text().splitlines()[1:]
    _exact(cells, periodic_spectrum_oracle(load_scenario(path).system))


@pytest.mark.parametrize("writer", [_verdict_cells, _sample_row_cells, _envelope_cells,
                                    _diagonal_cells, _oracle_cells],
                         ids=["verdict", "sample-row", "envelopes", "diagonal", "oracle"])
def test_csv_float_cells_parse_back_to_the_exact_floats(tmp_path, writer):
    writer(tmp_path)


# -- scenarios -----------------------------------------------------------------


def test_bundled_scenarios_load_and_round_trip():
    for entry in sorted(p.name for p in SCENARIO_DIR.iterdir()
                        if p.name.endswith(".json")):
        name = entry[: -len(".json")]
        scn = load_scenario(bundled(name))
        assert scn.name == name
        again = Scenario.from_payload(json.loads(scn.dumps()))
        assert again.dumps() == scn.dumps()


@pytest.mark.parametrize("name", sorted(p.name[: -len(".json")] for p in SCENARIO_DIR.iterdir()
                                        if p.name.endswith(".json")))
def test_bundled_scenario_files_are_what_the_writer_writes(name):
    path = bundled(name)
    with open(path) as f:
        assert f.read() == load_scenario(path).dumps()


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


def test_scenario_defaults_are_the_library_defaults():
    # a scenario states every parameter; each default must stay the one
    # the library call would use, so a change on one side alone fails
    def fields(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    def defaults(*functions, name):
        return [inspect.signature(f).parameters[name].default for f in functions]

    dichotomy, bohl = fields(DichotomyParams), fields(BohlParams)
    checks = (verify_fiber_containment, verify_global_containment)
    twins = {
        "window": [dichotomy["window"]], "burn_in": [dichotomy["burn_in"]],
        "refine_tol": defaults(estimate_spectrum, name="refine_tol"),
        "bohl_window": [bohl["window"]], "two_sided": [bohl["two_sided"]],
        "samples": defaults(verify_global_containment, name="samples"),
        "tolerance": defaults(*checks, name="tolerance"),
        "seed": defaults(*checks, name="seed"),
    }
    assert sorted(twins) == sorted(_ANALYSIS_DEFAULTS) and len(twins) == 8
    for key, values in twins.items():
        default = _ANALYSIS_DEFAULTS[key]
        for value in values:
            assert (default, type(default)) == (value, type(value)), key


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
    assert doc["params"]["gap_min"] == GAP_MIN == 16
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
    return estimate_spectrum(scn.system, refine_tol=scn.analysis["refine_tol"],
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


BUNDLED = sorted(p.name[: -len(".json")] for p in SCENARIO_DIR.iterdir()
                 if p.name.endswith(".json"))


def _verify_reports(tmp_path, capsys, name, *flags):
    main(["verify", bundled(name), "--out", str(tmp_path), "--format", "json", *flags])
    return {r["check"]: r for r in json.loads(capsys.readouterr().out)["reports"]}


@pytest.mark.parametrize("name", BUNDLED)
def test_verify_rows_count_directions(tmp_path, capsys, name):
    # a one-dimensional fiber or a d = 1 system once gave 20 or 50 rows of
    # one direction (+-b); now no two sampled rows share a fiber and |xi|.
    # Both checks count rows per fiber: 1 on a one-dimensional fiber, else
    # samples (the fiber check once drew samples_per_fiber = 20 there, and
    # the global check 50 vectors of the whole space on every d >= 2 system)
    reports = _verify_reports(tmp_path, capsys, name)
    scn = load_scenario(bundled(name))
    dims = [f.dimension for f in bundle_fibers(estimate_spectrum(
        scn.system, refine_tol=scn.analysis["refine_tol"], params=scn.dichotomy_params()))]
    want = [i for i, k in enumerate(dims, start=1)
            for _ in range(1 if k == 1 else scn.analysis["samples"])]
    for check in ("fiber-containment", "global-containment"):
        rows = reports[check]["rows"]
        keys = [(row["fiber"], tuple(abs(x) for x in row["xi"])) for row in rows]
        assert rows and len(set(keys)) == len(keys)
        assert [row["fiber"] for row in rows] == want


@pytest.mark.parametrize("flags", [(), ("--two-sided",)], ids=["one-sided", "two-sided"])
@pytest.mark.parametrize("name", BUNDLED)
def test_global_rows_of_one_dimensional_fibers_are_the_fiber_rows(tmp_path, capsys, name, flags):
    # the global check holds the fiber directions against the hull: row n
    # of each report is one measurement, bit for bit, and the hull holds
    # the fiber's interval, so the global margin is never the smaller one.
    # Once only one-dimensional fibers matched; rotation's two-dimensional
    # fiber drew 20 directions for the fiber check and 50 for the global one
    reports = _verify_reports(tmp_path, capsys, name, *flags)
    fiber_rows = reports["fiber-containment"]["rows"]
    global_rows = reports["global-containment"]["rows"]
    assert len(global_rows) == len(fiber_rows)
    hull = [fiber_rows[0]["target_lower"], fiber_rows[-1]["target_upper"]]
    keys = ("fiber", "xi", "lower", "upper", "tolerance")
    for row, twin in zip(fiber_rows, global_rows):
        assert [twin[k] for k in keys] == [row[k] for k in keys]
        assert [twin["target_lower"], twin["target_upper"]] == hull
        assert twin["margin"] >= row["margin"]


@pytest.mark.parametrize("flags", [(), ("--two-sided",)], ids=["one-sided", "two-sided"])
@pytest.mark.parametrize("name", BUNDLED)
def test_verify_reports_are_those_of_the_separate_checks(tmp_path, capsys, name, flags):
    # verify builds both sampled reports from one measurement at the
    # scenario's samples; each must still be, byte for byte, the report its
    # own library check gives at that count
    reports = _verify_reports(tmp_path, capsys, name, *flags)
    scn = load_scenario(bundled(name)).with_overrides(two_sided=bool(flags))
    a = scn.analysis
    est = estimate_spectrum(scn.system, refine_tol=a["refine_tol"], params=scn.dichotomy_params())
    common = dict(tolerance=a["tolerance"], seed=a["seed"], params=scn.bohl_params(),
                  system_id=scn.name)
    for rep in (verify_fiber_containment(scn.system, est, samples_per_fiber=a["samples"], **common),
                verify_global_containment(scn.system, est, samples=a["samples"], **common)):
        assert canonical_json(reports[rep.check]) == canonical_json(containment_payload(rep))


@pytest.mark.parametrize("name", BUNDLED)
def test_verify_csv_is_one_table_of_the_json_rows(tmp_path, capsys, name):
    # the three reports' CSVs were once glued together, each under its own
    # header line, with no column naming the report of a row
    reports = _verify_reports(tmp_path, capsys, name)
    with open(tmp_path / f"{name}-verify.csv", newline="") as f:
        rows = [(r["check"], r["label"], r["verdict"]) for r in csv.DictReader(f)]
    assert rows == [(rep["check"], row["label"], "pass" if row["passed"] else "fail")
                    for rep in reports.values() for row in rep["rows"]]


def test_verify_measures_each_fiber_direction_once(tmp_path, monkeypatch):
    # the fiber and global reports hold one measurement of the fiber
    # directions: once 18 blocks (92 columns), 10 restrictions and 14
    # bundle_fibers calls over the bundled scenarios, one-sided, then 10
    # blocks (81 columns), as rotation swept 20 and 50 directions
    calls = []

    def counted(name):
        original = getattr(containment, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)
        monkeypatch.setattr(containment, name, wrapper)

    for name in ("_bohl_block", "restricted_fiber_system", "bundle_fibers"):
        counted(name)
    blocks, restrictions, bundles = {}, {}, 0
    for name in BUNDLED:
        calls.clear()
        assert main(["verify", bundled(name), "--out", str(tmp_path), "--format", "json"]) == 0
        blocks[name] = [args[1].shape[1] for f, args in calls if f == "_bohl_block"]
        restrictions[name] = sum(f == "restricted_fiber_system" for f, _ in calls)
        bundles += sum(f == "bundle_fibers" for f, _ in calls)
    assert sum(map(len, blocks.values())) == 9
    assert sum(map(sum, blocks.values())) == 61
    assert sum(restrictions.values()) == 5
    assert bundles == 7
    assert len(blocks["seeded-diagonal-d3"]) == 1
    assert (len(blocks["seeded-pair-d2"]), restrictions["seeded-pair-d2"]) == (2, 2)
    assert blocks["rotation"] == [50]


# retired analysis key -> (a value it loads at, a value it is refused at);
# "jobs" once capped containment worker threads and loads at any value
_RETIRED = {"jobs": (4, None), "grid_points": (GRID_POINTS, 96),
            "tail_fraction": (TAIL_FRACTION, 0.3), "escalate": (False, True),
            "gap_min": (GAP_MIN, 8), "samples_per_fiber": (20, 4)}


@pytest.mark.parametrize("key", sorted(_RETIRED))
def test_scenario_retired_analysis_keys(tmp_path, capsys, key):
    # files written before a key was retired still load, drop it and
    # verify to the same bytes; any other value of a fixed key is refused
    fixed, other = _RETIRED[key]
    plain = write_scenario(tmp_path, "diag-small", small_diag_payload())
    legacy_dir = tmp_path / "legacy"
    legacy_dir.mkdir()
    legacy = write_scenario(legacy_dir, "diag-small", small_diag_payload(**{key: fixed}))
    assert key not in load_scenario(legacy).analysis
    assert load_scenario(legacy).dumps() == load_scenario(plain).dumps()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", plain, "--out", str(out_a), "--format", "json"]) == 0
    assert main(["verify", legacy, "--out", str(out_b), "--format", "json"]) == 0
    for name in ("diag-small-verify.json", "diag-small-verify.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    if other is None:  # any value loads
        any_value = write_scenario(tmp_path, "any", small_diag_payload(**{key: [1]}))
        assert key not in load_scenario(any_value).analysis
        return
    capsys.readouterr()
    refused = write_scenario(tmp_path, "refused", small_diag_payload(**{key: other}))
    with pytest.raises(ScenarioError, match=f"'{key}' is fixed at {fixed!r}, got {other!r}"):
        load_scenario(refused)
    assert main(["verify", refused, "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err.startswith("scenario error: ")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--grid-points", "48"],
                                  ["--tail-fraction", "0.2"], ["--escalate"]],
                         ids=lambda f: f[0])
def test_cli_refuses_retired_flags(tmp_path, capsys, flag):
    path = write_scenario(tmp_path, "diag-small", small_diag_payload())
    out = tmp_path / "out"
    assert main(["verify", path, *flag, "--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_fails_loudly_on_impossible_tolerance(tmp_path):
    payload = small_diag_payload(tolerance=1e-15, bohl_window=256)
    scn = write_scenario(tmp_path, "diag-small", payload)
    rc = main(["verify", scn, "--out", str(tmp_path), "--format", "table"])
    assert rc == 1
    # the reports behind the failure are still written
    assert (tmp_path / "diag-small-verify.json").exists()


def test_cli_refuses_a_negative_tolerance_with_exit_3(tmp_path, capsys):
    path = write_scenario(tmp_path, "diag-small", small_diag_payload(tolerance=-1))
    assert main(["verify", path, "--out", str(tmp_path), "--format", "table"]) == 3
    assert "tolerance must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("xi", ["inf,0", "1,-inf", "nan,1"])
def test_cli_refuses_a_non_finite_xi_with_exit_3(tmp_path, capsys, xi):
    # inf / inf once warned "invalid value encountered in divide" first
    out = tmp_path / "out"
    assert main(["bohl", bundled("rotation"), "--xi", xi, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "validation error: Bohl exponents need a finite initial vector\n"
    assert captured.out == "" and not out.exists()


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


_COMMAND_FLAGS = {"spectrum": [], "bohl": ["--xi", "1,1"], "dichotomy": ["--gamma", "1.0"],
                  "bundles": [], "triangularize": [], "verify": [], "oracle": []}


# command -> the analysis flags it reads; the others it once took and ignored
_ANALYSIS_FLAGS = {"--window": ["512"], "--refine-tol": ["1e-3"], "--two-sided": [],
                   "--seed": ["1"]}
_READS = {"spectrum": {"--window", "--refine-tol"}, "bohl": {"--window", "--two-sided"},
          "dichotomy": {"--window"}, "bundles": {"--window", "--refine-tol"},
          "triangularize": {"--window", "--refine-tol"}, "verify": set(_ANALYSIS_FLAGS),
          "oracle": set()}


@pytest.mark.parametrize("command, flag", [(c, f) for c in _COMMAND_FLAGS
                                           for f in _ANALYSIS_FLAGS if f not in _READS[c]])
def test_cli_refuses_an_analysis_flag_the_command_does_not_read(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    argv = [command, bundled("autonomous-diagonal"), *_COMMAND_FLAGS[command],
            flag, *_ANALYSIS_FLAGS[flag], "--out", str(out)]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
def test_cli_writes_each_artifact_once_and_prints_it(tmp_path, capsys, command):
    argv = [command, bundled("autonomous-diagonal"), *_COMMAND_FLAGS[command],
            "--out", str(tmp_path), "--format"]
    json_path = tmp_path / f"autonomous-diagonal-{command}.json"
    csv_path = tmp_path / f"autonomous-diagonal-{command}.csv"
    printed = {}
    for fmt in ("json", "csv", "table"):
        assert main(argv + [fmt]) == 0
        printed[fmt] = capsys.readouterr().out
    assert printed["json"] == json_path.read_text()
    if command == "bundles":
        assert sorted(p.name for p in tmp_path.iterdir()) == [json_path.name]
        assert printed["csv"] == printed["table"]
    else:
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([json_path.name, csv_path.name])
        assert printed["csv"] == csv_path.read_text()
    if command == "oracle":
        # a validation error inside the command writes nothing
        assert main([command, bundled("piecewise-scalar"), "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "piecewise-scalar-oracle.json").exists()


@pytest.mark.parametrize("name", ["../escaped", 7, "sub/dir", "nul\0byte", "", 0, False, None])
def test_cli_refuses_a_scenario_name_that_is_not_a_file_name(tmp_path, capsys, name):
    # the name is the artifact stem: "../escaped" wrote beside --out
    payload = small_diag_payload()
    payload["name"] = name
    path = write_scenario(tmp_path, "named", payload)
    assert main(["dichotomy", path, "--gamma", "1", "--out", str(tmp_path / "out")]) == 2
    assert "scenario error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["named.json"]


def test_a_scenario_without_a_name_is_named_after_its_file(tmp_path):
    payload = small_diag_payload()
    del payload["name"]
    assert load_scenario(write_scenario(tmp_path, "stem", payload)).name == "stem"


@pytest.mark.parametrize("section", ["analysis", "output"])
@pytest.mark.parametrize("value", [[["window", 64]], "xy", [], 0, False, None],
                         ids=["pairs", "string", "empty-list", "zero", "false", "null"])
def test_cli_refuses_a_section_that_is_not_an_object(tmp_path, capsys, section, value):
    # a list of pairs loaded as a dict, a string escaped as a bare
    # ValueError, and the falsy values loaded the defaults
    payload = small_diag_payload()
    payload[section] = value
    path = write_scenario(tmp_path, "bad", payload)
    with pytest.raises(ScenarioError, match=f"{section} section must be a JSON object"):
        load_scenario(path)
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 2
    assert "scenario error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", [5, None, ["a"]], ids=["number", "null", "list"])
def test_cli_refuses_an_output_directory_that_is_not_a_string(tmp_path, capsys, monkeypatch, out):
    # each ran the whole analysis and then ended in a TypeError, exit 1
    monkeypatch.chdir(tmp_path)
    payload = small_diag_payload()
    payload["output"] = {"out": out}
    path = write_scenario(tmp_path, "bad-out", payload)
    assert main(["verify", path]) == 2
    assert "'out' must be a string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["bad-out.json"]


def test_cli_exits_2_when_artifacts_cannot_be_written(tmp_path, capsys):
    # exit 1 would read as a containment failure
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    path = write_scenario(tmp_path, "diag-small", small_diag_payload())
    assert main(["verify", path, "--out", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ") and captured.out == ""


class _BrokenStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("failure", ["csv-is-a-directory", "stdout-is-closed"])
def test_cli_output_error_leaves_no_artifact(tmp_path, capsys, monkeypatch, failure, fmt):
    # the JSON artifact was once left behind when the CSV could not be written
    out = tmp_path / "out"
    out.mkdir()
    if failure == "csv-is-a-directory":
        (out / "autonomous-diagonal-spectrum.csv").mkdir()
    else:
        monkeypatch.setattr("sys.stdout", _BrokenStdout())
    argv = ["spectrum", bundled("autonomous-diagonal"), "--out", str(out), "--format", fmt]
    assert main(argv) == 2
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ") and captured.out == ""
    left = [] if failure == "stdout-is-closed" else ["autonomous-diagonal-spectrum.csv"]
    assert sorted(p.name for p in out.iterdir()) == left


def test_cli_spectrum_refines_to_float_resolution(tmp_path, capsys):
    # a refine_tol below float spacing once exited 3 from a round cap
    argv = ["spectrum", bundled("seeded-pair-d2"), "--refine-tol", "1e-16",
            "--out", str(tmp_path), "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["refine_tol"] == 1e-16 and len(payload["intervals"]) == 2


def _constant_payload(**analysis):
    return {"name": "bad", "system": {"kind": "constant", "matrix": [[2, 0], [0, 0.5]]},
            "analysis": analysis}


@pytest.mark.parametrize("field,value", [
    ("window", "abc"), ("window", None), ("window", 64.9), ("samples", True),
    ("refine_tol", "x"), ("tail_fraction", False), ("tolerance", float("nan")), ("seed", -1),
    ("two_sided", "yes"), ("escalate", 1), ("escalate", 0), ("gap_min", 16.5),
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
