"""Command-line surface: configuration intake, run orchestration, report
emission.

Every run is described by a JSON config (schema-checked, unknown keys
rejected) plus repeatable `--set key=value` overrides; artifacts are written
atomically so reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 1 computational error (JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

import numpy as np

from .blowup import run_blowup
from .checks import (CheckReport, identity_suite, det_barrier_probe, section_functionals,
                     phi_inequality_check, phi_barrier_ladder)
from .domains import domain_from_json
from .errors import MalabError, UsageError
from .geometry import geometry_sample
from .grids import Grid, atomic_write as _atomic_write, csv_text, write_gridfunction
from .oracles import DriftCoefficients, catalog, normalize_at
from .solver import SolverConfig, newton_solve

_COMMANDS = ("solve", "geometry", "verify", "blowup", "catalog")


def _schema(name):
    with resources.files("malab.schemas").joinpath(name).open() as fh:
        return json.load(fh)


@functools.cache
def _config_validator():
    """Validator of the run-config schema, checked against its metaschema
    once per process."""
    from jsonschema.validators import validator_for

    schema = _schema("runconfig.schema.json")
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate_config(cfg):
    from jsonschema.exceptions import best_match

    error = best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        raise UsageError("config failed schema validation", detail=error.message)


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_set(expr):
    if "=" not in expr:
        raise UsageError("--set expects key=value", got=expr)
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_set(cfg, key, value):
    parts = key.split(".")
    cur = cfg
    for p in parts[:-1]:
        cur = cur.setdefault(p, {})
        if not isinstance(cur, dict):
            raise UsageError("--set path crosses a non-object", key=key)
    cur[parts[-1]] = value


def _fixture(cfg):
    n = int(cfg.get("n", 2))
    name = cfg.get("fixture")
    fixtures = catalog(n)
    if name not in fixtures:
        raise UsageError("unknown fixture", fixture=name, known=sorted(fixtures))
    return fixtures[name]


def _probe_points(cfg, oracle):
    spec = cfg.get("probes") or {}
    kind = spec.get("kind", "random")
    if kind == "points":
        if "points" not in spec:
            raise UsageError("probes of kind 'points' require 'points'")
        pts = np.asarray(spec["points"], dtype=float)
    else:
        rng = np.random.default_rng(int(cfg.get("seed", 0)))
        count = int(spec.get("count", 50))
        if "lo" in spec:
            lo, hi = np.asarray(spec["lo"], float), np.asarray(spec["hi"], float)
        elif oracle.name.startswith("duallog"):
            lo, hi = np.r_[0.5, -np.ones(oracle.n - 1)], np.r_[2.0, np.ones(oracle.n - 1)]
        else:
            lo, hi = -np.ones(oracle.n), np.ones(oracle.n)
        pts = rng.uniform(lo, hi, size=(count, oracle.n))
    if not np.all(oracle.contains(pts)):
        raise UsageError("probe points escape the fixture domain")
    return pts


def _out_dir(cfg):
    out = cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def _run_catalog(cfg):
    n = int(cfg.get("n", 2))
    listing = [{"name": name, "side": oracle.side, "domain": oracle.domain_note(),
                "drift": oracle.drift().to_json()} for name, oracle in sorted(catalog(n).items())]
    text = _dump_json({"n": n, "fixtures": listing})
    sys.stdout.write(text)
    if "out" in cfg:
        _atomic_write(os.path.join(_out_dir(cfg), "catalog.json"), text)
    return 0


def _run_solve(cfg):
    for key in ("domain", "resolution", "drift", "boundary"):
        if key not in cfg:
            raise UsageError(f"solve requires '{key}'")
    domain = domain_from_json(cfg["domain"])
    grid = Grid.build(domain, cfg["resolution"])
    drift = DriftCoefficients.from_json(cfg["drift"])
    oracle = _fixture({"n": domain.dim, "fixture": cfg["boundary"]["name"]})
    boundary = lambda p: float(oracle.value(p))
    solver_cfg = SolverConfig(**cfg.get("solver", {}))
    side = cfg.get("side", "dual")
    u, report = newton_solve(grid, drift, boundary, solver_cfg, side=side)
    out = _out_dir(cfg)
    write_gridfunction(u, os.path.join(out, "solution.csv"),
                       os.path.join(out, "solution.meta.json"))
    _atomic_write(os.path.join(out, "solver_report.json"), _dump_json(report.to_json()))
    sys.stdout.write(f"solve: converged in {report.total_iterations} iterations "
                     f"over {report.continuation_steps + 1} legs, "
                     f"residual {report.final_residual:.3e}\n")
    return 0


def _run_geometry(cfg):
    oracle = _fixture(cfg)
    pts = _probe_points(cfg, oracle)
    samples = [geometry_sample(oracle, x) for x in pts]
    lines = "".join(json.dumps(s.to_json(), sort_keys=True) + "\n" for s in samples)
    _atomic_write(os.path.join(_out_dir(cfg), "geometry.jsonl"), lines)
    sys.stdout.write(f"geometry: wrote {len(samples)} samples\n")
    return 0


def _run_verify(cfg):
    suite = cfg.get("suite")
    if suite is None:
        raise UsageError("verify requires 'suite'")
    oracle = _fixture(cfg)
    out = _out_dir(cfg)

    if suite in ("identities", "phi_inequality"):
        check = identity_suite if suite == "identities" else phi_inequality_check
        report = check(oracle, _probe_points(cfg, oracle))
        line = f"passed={report.passed}"
    elif suite == "det_barrier":
        if "r_prime" not in cfg:
            raise UsageError("det_barrier requires 'r_prime'")
        point, value, d5 = det_barrier_probe(oracle, float(cfg.get("delta", 1.0)),
                                         float(cfg["r_prime"]))
        report = CheckReport("det_barrier", True, {"d5": d5},
                             {"point": point, "inv_rho": value})
        line = f"1/rho {value:.6g} < d5 {d5:.6g}"
    elif suite in ("functionals", "phi_barrier_ladder"):
        if "p" not in cfg or "window" not in cfg:
            raise UsageError(f"{suite} requires 'p' and 'window'")
        p = np.asarray(cfg["p"], dtype=float)
        u = normalize_at(oracle, p)
        window = (np.asarray(cfg["window"]["lo"], float),
                  np.asarray(cfg["window"]["hi"], float))
        ppa = int(cfg.get("probes_per_axis", 201))
        allow = bool(cfg.get("allow_clipped", suite == "phi_barrier_ladder"))
        if suite == "functionals":
            rep = section_functionals(u, p, float(cfg.get("level", 1.0)), window,
                                      probes_per_axis=ppa, allow_clipped=allow)
            report = CheckReport("section_functionals", True, {}, rep.to_json())
        else:
            rep = phi_barrier_ladder(u, p, [float(v) for v in cfg.get("levels", [1, 2, 4, 8])],
                                     window, probes_per_axis=ppa, allow_clipped=allow)
            report = CheckReport("phi_barrier_ladder", rep.passed, {"factor": 2.0}, rep.to_json())
        line = "done"
    else:
        raise UsageError("unknown suite", suite=suite)

    payload = report.to_json()
    if report.residuals:
        payload["csv"] = "check_report.csv"
        report.write_csv(os.path.join(out, "check_report.csv"))
    _atomic_write(os.path.join(out, "check_report.json"), _dump_json(payload))
    sys.stdout.write(f"{suite}: {line}\n")
    return 0


def _run_blowup(cfg):
    oracle = _fixture(cfg)
    if "p" not in cfg or "ladder" not in cfg:
        raise UsageError("blowup requires 'p' and 'ladder'")
    p = np.asarray(cfg["p"], dtype=float)
    u = normalize_at(oracle, p)
    report = run_blowup(u, p, [float(v) for v in cfg["ladder"]],
                        probes_per_axis=int(cfg.get("probes_per_axis", 161)))
    out = _out_dir(cfg)
    _atomic_write(os.path.join(out, "blowup_report.json"), _dump_json(report.to_json()))
    if cfg.get("dump_fields"):
        header = [f"x{i+1}" for i in range(u.n)] + ["value"]
        for k, rec in enumerate(report.records):
            pts, vals = rec.probes
            _atomic_write(os.path.join(out, f"blowup_level_{k}.csv"),
                          csv_text(header, np.column_stack([pts, vals]), eol="\n"))
    worst = max(r.scaling_rel_error for r in report.records)
    sys.stdout.write(f"blowup: {len(report.records)} levels, "
                     f"worst scaling error {worst:.3e}\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="malab",
        description="Numerical laboratory for drift Monge-Ampere equations and "
                    "the Hessian-metric geometry of convex graphs.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (JSON-parsed value)")
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = {}
        if args.config:
            if not os.path.exists(args.config):
                raise UsageError("config file not found", path=args.config)
            with open(args.config) as fh:
                cfg = json.load(fh)
        cfg["command"] = args.command
        for expr in args.set:
            key, value = _parse_set(expr)
            _apply_set(cfg, key, value)
        if args.out:
            cfg["out"] = args.out
        cfg.setdefault("seed", 0)
        _validate_config(cfg)
        if "side" in cfg and cfg["command"] != "solve":
            raise UsageError("'side' applies to solve only: a fixture carries its own")
        runner = {"solve": _run_solve, "geometry": _run_geometry,
                  "verify": _run_verify, "blowup": _run_blowup,
                  "catalog": _run_catalog}[cfg["command"]]
        return runner(cfg)
    except MalabError as e:  # a usage error exits 2, a computational one 1
        sys.stderr.write(_dump_json(e.to_json()))
        return 2 if isinstance(e, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
