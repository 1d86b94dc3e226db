"""malab benchmark: one seeded workload, run through the public entry points.

    python3 malbench/run.py --workload solve-ball --seed 1 --seconds 20 --trace 0

Run from the root of a malab checkout; the package is imported from its
``src/`` directory. Set-up builds the workload's inputs and config files.
The timed part then repeats the workload's fixed set of operations (a round)
one at a time, closed loop: at least two rounds, and more until the rounds
add up to ``--seconds``. Every operation's output is checked, and the sha256
of each artifact must repeat across rounds.

Times are reported at the yardstick's speed. On a shared host the CPU runs
in slower and faster spells of seconds to minutes, which moved run medians
by half their value. So each operation's fastest repeat in the run is
divided by the fastest time of a fixed yardstick kernel, timed between the
operations of the same run, and multiplied by the yardstick's nominal time.
A spell that slows the whole run slows both and cancels.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
runs a warm-up round and an untraced reference round, then traced rounds,
and reports per-layer metrics per traced round. Human-readable lines come
first; the last line of stdout is the JSON result. Exit code 2 when the
malab sources are not there.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".malbench_out"
WORKLOAD_NAMES = ("solve-continuation", "solve-ball", "sections", "duality")
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads():
    """One BLAS thread; must run before numpy is imported.

    malab's dense linear algebra is on tiny batched matrices and the sparse
    LU is single-threaded, so a second BLAS thread only adds timing noise.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def fail_setup(message):
    print(f"malbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_malab():
    """Import malab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "malab" / "__init__.py").is_file():
        fail_setup(f"no malab sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import malab

    if Path(malab.__file__).resolve().parent != (src / "malab").resolve():
        fail_setup(f"imported malab from {malab.__file__}, not from {src}")


def environment(blas_threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# timed rounds


class Run:
    """Runs rounds of a workload's operations and keeps their results."""

    def __init__(self, ops, workdir, tracer=None, yardstick=None):
        self.ops = ops
        self.workdir = workdir
        self.tracer = tracer
        self.yardstick = yardstick
        self.rounds = []            # per round: [(op index, seconds, Outcome, traced)]
        self.first_digests = {}
        self.digest_mismatch = 0
        self.gate_failures = 0      # completed operations whose output check failed

    def round(self, traced=False):
        from workloads import Outcome

        results = []
        for k, op in enumerate(self.ops):
            op_dir = self.workdir / f"r{len(self.rounds)}" / f"op{k}"
            op_dir.mkdir(parents=True)
            op_id = (len(self.rounds), k)
            if traced:
                self.tracer.op = op_id
            if self.yardstick:
                self.yardstick.measure()
            t0 = time.perf_counter()
            try:
                outcome = op.run(str(op_dir))
            except Exception as exc:  # an operation that raises is a failed operation
                outcome = Outcome(ok=False, completed=False, note=f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if outcome.completed and not outcome.ok:
                self.gate_failures += 1
            elif outcome.ok:
                first = self.first_digests.setdefault(k, outcome.digests)
                if first != outcome.digests:
                    self.digest_mismatch += 1
                    outcome.ok = False
                    outcome.note += " (artifact digest differs from the first round)"
            results.append((k, dt, outcome, traced))
            shutil.rmtree(op_dir)
        self.rounds.append(results)
        return sum(dt for _, dt, _, _ in results)

    def results(self, traced=None):
        return [r for rnd in self.rounds for r in rnd if traced is None or r[3] == traced]


def run_rounds(run, seconds, min_rounds, traced=False, between=None):
    """Rounds until at least ``min_rounds`` ran and their times add up to
    ``seconds``; ``between()`` runs after each round, outside the timing."""
    walls = []
    while len(walls) < min_rounds or sum(walls) < seconds:
        walls.append(run.round(traced))
        if between:
            between()
    return walls


class Yardstick:
    """A fixed kernel of the kinds of work malab does, none of it malab code:
    a sparse LU factorization and solve, numpy elementwise passes and a sort,
    a pure-Python loop, and a pass over 32 MB, which is bound by memory as
    the Legendre pass is. About 14 ms a call. Its array adds 32 MB to every
    workload's peak_rss_mb."""

    NOMINAL_S = 0.013   # about its fastest time on the 2-core VM the benchmark was defined on
    CALLS = 2           # calls before each operation

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        n = 48
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.rhs = np.ones(n * n)
        self.x = np.linspace(0.0, 1.0, 40000)
        self.big = np.zeros(4_000_000)
        self.samples = []

    def measure(self):
        import numpy as np
        from scipy.sparse.linalg import splu

        for _ in range(self.CALLS):
            t0 = time.perf_counter()
            splu(self.matrix).solve(self.rhs)
            y = np.sin(self.x) * np.exp(-self.x)
            y.sort()
            total = 0
            for i in range(20000):
                total += i % 7
            np.add(self.big, 1.0, out=self.big)
            self.big.sum()
            self.samples.append(time.perf_counter() - t0)

    def scale(self):
        """Factor from this run's seconds to seconds at the yardstick's nominal speed."""
        return self.NOMINAL_S / min(self.samples)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run, walls, setups):
    from workloads import accuracy_digits

    res = run.results()
    fastest = [min(dt for k, dt, _, _ in res if k == op) for op in range(len(run.ops))]
    ok = [o.ok for _, _, o, _ in res]
    errors = [o.error for _, _, o, _ in res if o.ok and o.error is not None]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = run.yardstick.scale()
    at_speed = f"at yardstick speed, x{scale:.4f} of {len(run.yardstick.samples)} yardstick calls"
    return {
        "wall_s": (scale * sum(fastest), "s",
                   f"sum of each operation's fastest of {len(walls)} rounds, {at_speed}; "
                   f"as measured {sum(fastest):.4f} s, median round {statistics.median(walls):.4f} s"),
        "op_p50_s": (scale * statistics.median(fastest), "s",
                     f"median over {len(fastest)} operations of their fastest of {len(walls)}, "
                     f"{at_speed}"),
        "setup_s": (scale * statistics.median(setups), "s",
                    f"median of {len(setups)} fresh-process set-ups, {at_speed}; "
                    f"as measured {statistics.median(setups):.4f} s"),
        "peak_rss_mb": (peak_mb, "MB", "ru_maxrss of the benchmark process"),
        "ok_frac": (sum(ok) / len(ok), "frac", f"{sum(ok)} of {len(ok)} operations passed"),
        "accuracy_digits": (accuracy_digits(errors), "digits",
                            f"-log10 of the worst of {len(errors)} checked errors"),
    }


def per_layer(run, tracer, untraced_wall, traced_walls):
    calls, incl, self_s = tracer.span_times()
    rounds = len(traced_walls)
    c = tracer.counters
    traced = run.results(traced=True)
    reports = [o.solver_report for _, _, o, _ in traced if o.solver_report]
    legs = sum(r["continuation_steps"] for r in reports)
    iters = sum(r["iterations"] for r in reports)
    self_sum, covered = tracer.op_accounting()  # spans exist for traced operations only
    op_wall = sum(dt for _, dt, _, _ in traced)
    unattributed = op_wall - sum(covered.values())

    def ratio(a, b):
        return a / b if b else 0.0

    per_round = {
        "solver.newton_solve.calls": (calls["solver.newton_solve"], "count"),
        "solver.newton_solve.self_s": (self_s["solver.newton_solve"], "s"),
        "solver.lu.calls": (calls["solver.lu"], "count"),
        "solver.lu.s": (incl["solver.lu"], "s"),
        "solver.continuation_legs": (legs, "count"),
        "solver.reported_iters": (iters, "count"),
        "grids.write.s": (incl["grids.write"], "s"),
        "grids.write.bytes": (c["grids.write.bytes"], "bytes"),
        "grids.read.s": (incl["grids.read"], "s"),
        "grids.read.bytes": (c["grids.read.bytes"], "bytes"),
        "grids.fd_fields.s": (incl["grids.fd_fields"], "s"),
        "legendre.conjugate.calls": (calls["legendre.conjugate"], "count"),
        "legendre.conjugate.s": (incl["legendre.conjugate"], "s"),
        "legendre.hull.s": (incl["legendre.hull"], "s"),
        "domains.mvee.calls": (calls["domains.mvee"], "count"),
        "domains.mvee.s": (incl["domains.mvee"], "s"),
        "domains.normalize.s": (incl["domains.normalize"], "s"),
        "checks.trace_ray.calls": (calls["checks.trace_ray"], "count"),
        "checks.trace_ray.s": (incl["checks.trace_ray"], "s"),
        "checks.section_probes.s": (incl["checks.section_probes"], "s"),
        "checks.phi_inequality.s": (incl["checks.phi_inequality"], "s"),
        "oracles.calls": (c["oracles.calls"], "count"),
        "oracles.points": (c["oracles.points"], "count"),
        "geometry.phi.points": (c["geometry.phi.points"], "count"),
        "geometry.phi.s": (incl["geometry.phi"], "s"),
        "blowup.extract_section.s": (incl["blowup.extract_section"], "s"),
        "blowup.run_blowup.self_s": (self_s["blowup.run_blowup"], "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.self_s": (self_s["cli.main"], "s"),
    }
    metrics = {k: (v / rounds, unit, "per traced round") for k, (v, unit) in per_round.items()}
    metrics.update({
        "solver.lu_per_solve": (ratio(calls["solver.lu"], calls["solver.newton_solve"]),
                                "count", "factorizations per newton_solve call"),
        "solver.final_leg_frac": (ratio(iters, calls["solver.lu"]), "frac",
                                  "reported_iters / lu.calls"),
        "legendre.peak_mb": (tracer.peaks["legendre.peak_mb"], "MB",
                             "tracemalloc peak of one legendre call"),
        "legendre.score_bytes": (tracer.peaks["legendre.score_bytes"], "bytes_computed",
                                 "largest score tensor, from array shapes"),
        "oracles.points_per_call": (ratio(c["oracles.points"], c["oracles.calls"]), "count",
                                    "points per leaf-oracle call"),
        "trace.overhead_frac": (statistics.median(traced_walls) / untraced_wall - 1.0, "frac",
                                "traced vs untraced round wall time"),
        "unattributed_frac": (ratio(unattributed, op_wall), "frac",
                              "operation time outside every layer span"),
    })
    return metrics, {"self_sum": self_sum, "covered": covered}


# ---------------------------------------------------------------------------
# entry points


def setup(workload, seed, workdir):
    from workloads import WORKLOADS

    workdir.mkdir(parents=True)
    return WORKLOADS[workload](seed, workdir)


def setup_probe(workload, seed):
    """Set-up seconds of one fresh interpreter, from its own start."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, min_rounds=2, extra_ops=(), log=print):
    """Runs one workload; returns (result dict, details for self-checks)."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{workload}-s{seed}-p{os.getpid()}"
    try:
        ops = setup(workload, seed, workdir) + list(extra_ops)
        if not trace:
            # probes spread over the run, between rounds, so that they meet
            # the same fast and slow spells as the rounds do
            probes = []

            def probe():
                if len(probes) < SETUP_PROBES:
                    probes.append(setup_probe(workload, seed))

            run = Run(ops, workdir, yardstick=Yardstick())
            walls = run_rounds(run, seconds, min_rounds, between=probe)
            while len(probes) < SETUP_PROBES:
                probe()
            metrics = end_to_end(run, walls, probes)
            details = {"run": run}
        else:
            from tracer import Tracer

            tracer = Tracer()
            run = Run(ops, workdir, tracer)
            run.round()  # warm-up: first calls are slower and would hide the overhead
            untraced = run.round()
            tracer.install()
            try:
                walls = run_rounds(run, seconds, 1, traced=True)
            finally:
                tracer.uninstall()
            metrics, details = per_layer(run, tracer, untraced, walls)
            details.update(run=run, tracer=tracer)
            (OUT_DIR / f"trace-{workload}-s{seed}.json").write_text(json.dumps(tracer.spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for rnd, results in enumerate(run.rounds):
        for k, dt, outcome, _ in results:
            log(f"round {rnd} {ops[k].name}: {dt:.3f} s {'ok' if outcome.ok else 'FAILED'} "
                f"{outcome.note}")
    for name, (value, unit, how) in metrics.items():
        log(f"{name} = {value:.6g} {unit} ({how})")
    res = run.results()
    result = {
        "correct": run.gate_failures == 0 and run.digest_mismatch == 0,
        "attempted": len(res),
        "failed": sum(not o.ok for _, _, o, _ in res),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the seconds since start")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    blas_threads = limit_blas_threads()
    import_malab()
    if args.setup_probe:
        workdir = OUT_DIR / f"setup-{args.workload}-s{args.seed}-p{os.getpid()}"
        OUT_DIR.mkdir(exist_ok=True)
        try:
            setup(args.workload, args.seed, workdir)
            print(time.perf_counter() - T_START)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": environment(blas_threads)}))
    result, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
