import dataclasses
import json
import os

import jsonschema
import numpy as np
import pytest

from malab.blowup import BlowupRecord, BlowupReport
from malab.checks import CheckReport
from malab.cli import main, _schema
from malab.geometry import GeometrySample
from malab.solver import SolverConfig, SolverReport


def run_cli(args):
    return main(args)


def test_catalog_constants(tmp_path, capsys):
    assert run_cli(["catalog", "--set", "n=3", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "catalog.json").read_text())
    fixtures = {f["name"]: f for f in payload["fixtures"]}
    exp = fixtures["expsolution"]
    assert exp["drift"]["d"] == [1.0, 0.0, 0.0]
    assert exp["drift"]["d0"] == pytest.approx(2 * np.log(2.0))
    assert fixtures["duallog"]["drift"]["d0"] == pytest.approx(0.0)


def test_solve_artifacts_and_determinism(tmp_path, capsys):
    cfg = {
        "n": 2, "side": "dual",
        "domain": {"kind": "box", "lo": [1, -1], "hi": [2, 1]},
        "resolution": [17, 33],
        "drift": {"d0": 0.0, "d": [1.0, 0.0]},
        "boundary": {"kind": "fixture", "name": "duallog"},
    }
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["solve", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert run_cli(["solve", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert sorted(os.listdir(out1)) == ["solution.csv", "solution.meta.json", "solver_report.json"]
    for name in ("solution.csv", "solver_report.json", "solution.meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "solver_report.json").read_text())
    jsonschema.validate(report, _schema("solver_report.schema.json"))
    assert report["converged"] and report["final_residual"] <= 1e-10
    # stdout gives the Newton iterations of all legs
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(f"solve: converged in {report['total_iterations']} iterations "
                                f"over {report['continuation_steps'] + 1} legs")
    # quadratic convergence tail: late residual ratios are tiny
    hist = report["residual_history"]
    assert hist[-1] / hist[-2] <= 1e-2


@pytest.mark.parametrize("boundary", ['{"kind": "fixture", "name": "nope"}',
                                      '{"kind": "constant", "value": 1.0}'],
                         ids=["unknown-fixture", "constant"])
def test_solve_boundary_is_a_catalog_fixture(boundary, tmp_path, capsys):
    rc = run_cli(["solve", "--set", 'domain={"kind": "box", "lo": [0, 0], "hi": [1, 1]}',
                  "--set", "resolution=17", "--set", 'drift={"d0": 0, "d": [0, 0]}',
                  "--set", f"boundary={boundary}", "--out", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


def test_verify_identities_cli(tmp_path):
    assert run_cli(["verify", "--set", "fixture=quadratic",
                    "--set", "suite=identities", "--set", "probes.count=10",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    jsonschema.validate(report, _schema("check_report.schema.json"))
    assert report["passed"] is True
    assert (tmp_path / "check_report.csv").exists()


def test_geometry_jsonl_schema(tmp_path):
    assert run_cli(["geometry", "--set", "fixture=expsolution",
                    "--set", "probes.count=5", "--out", str(tmp_path)]) == 0
    schema = _schema("geometry_sample.schema.json")
    lines = (tmp_path / "geometry.jsonl").read_text().strip().split("\n")
    assert len(lines) == 5
    for line in lines:
        jsonschema.validate(json.loads(line), schema)


def test_blowup_cli_schema(tmp_path):
    assert run_cli(["blowup", "--set", "fixture=duallog", "--set", "p=[1,0]",
                    "--set", "ladder=[0.1,0.2]", "--set", "probes_per_axis=61",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "blowup_report.json").read_text())
    jsonschema.validate(report, _schema("blowup_report.schema.json"))
    assert len(report["records"]) == 2
    assert all(r["scaling_rel_error"] <= 1e-6 for r in report["records"])


def test_blowup_dump_fields(tmp_path):
    """One CSV per rung: the normalized potential on the probe lattice, equal
    to what a fresh extraction of that rung's section gives."""
    from malab.checks import extract_section, section_probes
    from malab.oracles import catalog, normalize_at

    ladder = [0.1, 0.2]
    assert run_cli(["blowup", "--set", "fixture=duallog", "--set", "p=[1,0]",
                    "--set", f"ladder={ladder}", "--set", "probes_per_axis=61",
                    "--set", "dump_fields=true", "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "blowup_level_0.csv", "blowup_level_1.csv", "blowup_report.json"]
    p = np.array([1.0, 0.0])
    u = normalize_at(catalog(2)["duallog"], p)
    for k, C in enumerate(ladder):
        sec = extract_section(u, p, C)
        pts = section_probes(sec, 61)
        vals = sec.normalized_potential.value(pts)
        rows = ["x1,x2,value"] + [",".join(f"{v:.17g}" for v in (*pt, val))
                                  for pt, val in zip(pts, vals)]
        assert len(rows) > 1000
        assert (tmp_path / f"blowup_level_{k}.csv").read_bytes() == \
            ("\n".join(rows) + "\n").encode()


def test_det_barrier_cli(tmp_path):
    assert run_cli(["verify", "--set", "fixture=quadratic",
                    "--set", "suite=det_barrier", "--set", "delta=1.0",
                    "--set", "r_prime=2.0", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["tolerances"]["d5"] == pytest.approx(4.756828460010884)


def test_phi_barrier_ladder_cli_verdict(tmp_path):
    window = 'window={"lo":[-8,-8],"hi":[8,8]}'
    assert run_cli(["verify", "--set", "fixture=quadratic",
                    "--set", "suite=phi_barrier_ladder", "--set", "p=[0,0]",
                    "--set", window, "--set", "probes_per_axis=41",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    jsonschema.validate(report, _schema("check_report.schema.json"))
    # a flat ladder with compact rungs passes although its sups do not decrease
    assert report["stats"]["clipped"] == [0, 0, 0, 0]
    assert report["stats"]["decreasing"] is False
    assert report["passed"] is True


def test_unknown_key_rejected(tmp_path, capsys):
    rc = run_cli(["catalog", "--set", "bogus_key=1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError"


def test_threads_option_removed(capsys):
    assert run_cli(["geometry", "--set", "fixture=expsolution", "--set", "threads=2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
    with pytest.raises(SystemExit) as exc:
        run_cli(["geometry", "--threads", "2"])
    assert exc.value.code == 2


def test_solver_config_has_no_hidden_knobs():
    # every SolverConfig field is settable from a run config, and nothing else
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == set(_schema("runconfig.schema.json")["properties"]["solver"]["properties"])


def test_bad_suite_rejected(capsys):
    assert run_cli(["verify", "--set", "suite=nope"]) == 2


@pytest.mark.parametrize("args", [
    ["verify", "--set", "fixture=expsolution", "--set", "suite=det_barrier"],
    ["verify", "--set", "fixture=expsolution", "--set", "suite=identities",
     "--set", "probes.kind=points"],
    ["geometry", "--set", "fixture=expsolution", "--set", "probes.kind=points"],
    ["verify", "--set", "fixture=expsolution", "--set", "suite=identities",
     "--set", "side=dual"],
    ["geometry", "--set", "fixture=expsolution", "--set", "side=primal"],
], ids=["det-barrier-no-r-prime", "verify-points-no-points", "geometry-points-no-points",
        "verify-side", "geometry-side"])
def test_missing_or_misplaced_keys_are_usage_errors(args, tmp_path, capsys):
    """A config that lacks a key its suite needs, or that sets `side`, which
    only solve reads (a fixture carries its own), exits 2 with JSON."""
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


def test_primal_solve_reads_back_on_the_primal_side(tmp_path, capsys):
    """A primal solve of expsolution, read back from its sidecar, and a
    65-node sample of the oracle are both primal potentials: rho at the
    centre is the oracle's and the Kahler-Ricci tensor vanishes there."""
    from malab.domains import Box
    from malab.geometry import geometry_sample
    from malab.grids import Grid, read_gridfunction, sample_oracle
    from malab.oracles import ExpSolution

    ex = ExpSolution(2)
    box = '{"kind": "box", "lo": [-1, -1], "hi": [1, 1]}'
    assert run_cli(["solve", "--set", "side=primal", "--set", f"domain={box}",
                    "--set", "resolution=33", "--set", f"drift={json.dumps(ex.drift().to_json())}",
                    "--set", 'boundary={"kind": "fixture", "name": "expsolution"}',
                    "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "solution.meta.json").read_text())["side"] == "primal"
    solved = read_gridfunction(tmp_path / "solution.csv", tmp_path / "solution.meta.json")
    sampled = sample_oracle(ex, Grid.build(Box([-1, -1], [1, 1]), 65))
    want = geometry_sample(ex, np.zeros(2)).rho
    for u in (solved, sampled):
        assert u.side == "primal"
        s = geometry_sample(u, np.zeros(2))
        assert abs(s.rho - want) <= 1e-3
        assert np.abs(s.KahlerRicci).max() <= 1e-3


def test_computational_error_exit_code(tmp_path, capsys):
    # a section that is not compact and not allowed to clip -> exit 1
    rc = run_cli(["verify", "--set", "fixture=duallog", "--set", "suite=functionals",
                  "--set", "p=[1,0]", "--set", "level=2.0",
                  "--set", 'window={"lo": [0.001, -8], "hi": [25, 8]}',
                  "--set", "allow_clipped=false", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "WindowError"


@pytest.mark.parametrize("resolution, d", [("[33]", "[1, 0]"), ("[33, 33, 33]", "[1, 0]"),
                                           ("33", "[1, 0, 0]")],
                         ids=["resolution-short", "resolution-long", "drift-long"])
def test_dimension_mismatch_is_a_domain_error(resolution, d, tmp_path, capsys):
    """A resolution or drift whose length is not the domain's dimension exits
    1 with a JSON DomainError, not a traceback."""
    rc = run_cli(["solve", "--set", 'domain={"kind": "box", "lo": [1, -1], "hi": [2, 1]}',
                  "--set", f"resolution={resolution}", "--set", f'drift={{"d0": 0, "d": {d}}}',
                  "--set", 'boundary={"kind": "fixture", "name": "duallog"}',
                  "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and "one" in err["message"]


def test_scale_factor_key_rejected(tmp_path, capsys):
    """The identity suite's rescaling is a constant, not a config key."""
    assert run_cli(["verify", "--set", "fixture=quadratic", "--set", "suite=identities",
                    "--set", "scale_factor=4.0", "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


def test_missing_config_file():
    assert run_cli(["solve", "--config", "/nonexistent.json"]) == 2


def test_atomic_write_ignores_a_foreign_temp_file(tmp_path):
    """Another run's temp file next to the target is neither used nor
    removed, and the artifact gets open()'s default mode and exact bytes."""
    from malab.cli import _atomic_write

    target = tmp_path / "solver_report.json"
    foreign = tmp_path / "solver_report.json.tmp"
    foreign.mkdir()
    _atomic_write(str(target), "{}\n")
    reference = tmp_path / "reference.json"
    with open(reference, "w") as fh:
        fh.write("{}\n")
    assert target.read_bytes() == b"{}\n"
    assert os.stat(target).st_mode == os.stat(reference).st_mode
    assert foreign.is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "reference.json", "solver_report.json", "solver_report.json.tmp"]


def test_report_schemas_equal_declarations():
    """Each report schema lists exactly the fields its dataclass serializes
    (the repr ones), so a field added on one side only fails here."""
    def declared(cls):
        return {f.name for f in dataclasses.fields(cls) if f.repr}

    def properties(name):
        return set(_schema(name)["properties"])

    blowup = _schema("blowup_report.schema.json")["properties"]
    assert properties("geometry_sample.schema.json") == declared(GeometrySample)
    assert properties("solver_report.schema.json") == declared(SolverReport)
    assert set(blowup) == declared(BlowupReport)
    assert set(blowup["records"]["items"]["properties"]) == declared(BlowupRecord)
    assert properties("check_report.schema.json") == declared(CheckReport) | {"csv"}
