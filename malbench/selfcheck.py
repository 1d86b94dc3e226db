"""Self-check of the benchmark itself, run from the root of a checkout:

    python3 malbench/selfcheck.py

It checks that
- every workload emits exactly the metrics BENCHMARK.json names, with and
  without tracing;
- an operation that fails raises the failed count and lowers ok_frac, and a
  failed output check also clears ``correct``;
- in a traced run, the self times of an operation's spans plus its
  unattributed time add up to the operation's wall time, and every span lies
  inside its parent.
Each workload runs one round only, so this takes a few minutes. Exit code 0
when every check holds.
"""

import json
import sys

import run

CHECK_SEED = 7
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def quiet(*args):
    pass


def check_spans(workload, details):
    tracer, traced = details["tracer"], details["run"].results(traced=True)
    spans = tracer.spans
    nested = all(p < 0 or (spans[p][1] <= t0 and t1 <= spans[p][2] and spans[p][4] == op)
                 for _, t0, t1, p, op in spans)
    check(nested, f"{workload}: every span lies inside its parent")
    for rnd, results in enumerate(details["run"].rounds):
        for k, dt, _, tr in results:
            if tr:
                unattributed = dt - details["covered"][(rnd, k)]
                total = details["self_sum"][(rnd, k)] + unattributed
                check(unattributed >= 0 and abs(total - dt) <= 1e-9 * dt,
                      f"{workload} op {k}: span self times {details['self_sum'][(rnd, k)]:.4f} s "
                      f"+ unattributed {unattributed:.4f} s = wall {dt:.4f} s")
    check(bool(traced), f"{workload}: traced operations recorded")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.limit_blas_threads()
    run.import_malab()
    from workloads import Op, Outcome, run_cli

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            result, details = run.run_workload(w["name"], CHECK_SEED, 0, trace,
                                               min_rounds=1, log=quiet)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{w['name']} --trace {trace}: emits exactly the {key} metrics")
            check(result["correct"], f"{w['name']} --trace {trace}: outputs correct")
            if trace:
                check_spans(w["name"], details)

    def bad_command(op_dir):   # the CLI rejects a solve without a drift (exit 2)
        code, err = run_cli("solve", str(bad_config), op_dir)
        return Outcome(ok=code == 0, completed=code == 0)

    def bad_output(op_dir):    # completes, but its output check fails
        return Outcome(ok=False, error=1.0)

    bad_config = run.OUT_DIR / "selfcheck-bad-solve.json"
    run.OUT_DIR.mkdir(exist_ok=True)
    bad_config.write_text(json.dumps({"domain": {"kind": "ball", "center": [0, 0], "radius": 1},
                                      "resolution": 33,
                                      "boundary": {"kind": "fixture", "name": "quadratic"}}))
    base, _ = run.run_workload("duality", CHECK_SEED, 0, 0, min_rounds=1, log=quiet)
    for op, still_correct in ((Op("bad-command", bad_command), True),
                              (Op("bad-output", bad_output), False)):
        result, _ = run.run_workload("duality", CHECK_SEED, 0, 0, min_rounds=1,
                                     extra_ops=[op], log=quiet)
        check(result["failed"] == base["failed"] + 1
              and result["metrics"]["ok_frac"]["value"] < base["metrics"]["ok_frac"]["value"],
              f"{op.name}: counted as failed and lowers ok_frac")
        check(result["correct"] is still_correct, f"{op.name}: correct={still_correct}")
    bad_config.unlink()

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
