"""banachkit benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 bench/run.py --workload verify-all --seed 7 --seconds 20 --trace 0

Workloads (see workloads.py): ``verify-all`` (the 17 suites),
``sampling`` (sign enumeration, Monte Carlo, block certificates) and
``desk-calls`` (single estimates, a quarter through the CLI). Each is a
closed loop: one caller issues one op at a time. A run sets up, makes
one untimed warm-up pass, then repeats passes over the ops until
``--seconds`` have passed and at least 100 op latencies are pooled.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead (median traced minus untraced pass time). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A longer report, with the environment, goes to bench/out/.

Every op's output is checked after its timer stops (see workloads.py).
An op fails if it raises, the CLI exits nonzero, an ASSERT check fails,
a certificate does not revalidate bit for bit, or a stored witness does
not reproduce its value under meta["upper"]; failures count in
``failed`` and in ok_share = 1 - failed/attempted. ``correct`` is false
when an op fails that is not one of the package's known defects
(workloads.KNOWN_DEFECTS), or when an output differs between passes of
the same run, or between traced and untraced passes: results are a pure
function of the seed.

Out of scope here: the pytest gate (its test set changes with each
change, so it is not a fixed workload), and meters inside the package
(a ``--profile`` flag, filling ``CheckRecord.runtime``).
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("verify-all", "sampling", "desk-calls")
SETUP_PROBES = 5
MIN_OP_SAMPLES = 100  # so at least ten latencies lie beyond p90
TIME_LIMIT_S = 150.0  # stop adding passes past this, whatever else holds
PROBE_TIMEOUT_S = 60.0


def import_package():
    """Import banachkit from this checkout's src/, never from elsewhere."""
    pkg = SRC / "banachkit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no banachkit source at {pkg}")
    sys.path.insert(0, str(SRC))
    import banachkit

    if Path(banachkit.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported banachkit from {banachkit.__file__}, not {pkg}")
    return banachkit


def scratch_dir(workload):
    return OUT / "scratch" / workload


def setup_probe(workload, seed):
    """Time one set-up in this fresh process: import and input generation."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    workloads.build(workload, seed, scratch_dir(workload))
    return time.perf_counter() - t0


def measure_setup(workload, seed):
    """Median set-up time over fresh interpreters, and every sample."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict form
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": seed,
    }


class Runner:
    """Runs passes over a workload's ops and keeps what the checks found."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = None  # per-op digests of the first pass
        self.mismatches = []
        self.failures = {}  # op label -> why
        self.unexpected = set()  # labels of failures outside workloads.KNOWN_DEFECTS
        self.tightness = []

    def run_pass(self, tracer=None):
        """One pass; returns per-op seconds and the number of failed ops."""
        from workloads import Outcome

        times, digests, failed = [], [], 0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception:  # a failed op is data; the run goes on
                error = traceback.format_exc(limit=3)
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    outcome = op.check(result)
                except Exception:
                    outcome = Outcome(False, "check-raised", why=traceback.format_exc(limit=3))
            else:
                outcome = Outcome(False, "raised", why=error)
            digests.append(outcome.digest)
            if not outcome.ok:
                failed += 1
                self.failures[op.label] = outcome.why
                if not outcome.known:
                    self.unexpected.add(op.label)
            if self.reference is None and outcome.tightness is not None:
                self.tightness.append(outcome.tightness)
        if self.reference is None:
            self.reference = digests
        else:
            self.mismatches += [op.label for op, a, b in zip(self.ops, self.reference, digests)
                                if a != b]
        return times, failed


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def timed_run(runner, seconds, started):
    """Passes until `seconds` have passed and enough latencies are pooled."""
    walls, latencies, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        times, bad = runner.run_pass()
        walls.append(sum(times))
        latencies += times
        attempted += len(times)
        failed += bad
        now = time.perf_counter()
        if (now >= deadline and len(latencies) >= MIN_OP_SAMPLES) or \
                now - started > TIME_LIMIT_S:
            return walls, latencies, attempted, failed


def traced_run(runner, seconds, started, workload):
    """Untraced and traced passes in turn; per-layer metrics of the traced."""
    import numpy as np
    from tracer import COUNTS, Tracer

    tracer = Tracer()
    plain, traced, layer_runs = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    count_drift = False
    while True:
        times, bad = runner.run_pass()
        plain.append(sum(times))
        attempted, failed = attempted + len(times), failed + bad
        tracer.reset()
        tracer.install()
        try:
            times, bad = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(times))
        attempted, failed = attempted + len(times), failed + bad
        m = tracer.layer_metrics()
        if not layer_runs:
            np.save(OUT / f"spans-{workload}.npy", tracer.table())
            (OUT / f"spans-{workload}.names.json").write_text(json.dumps(tracer.names))
        elif any(m[k] != layer_runs[0][k] for k in COUNTS):
            count_drift = True
        layer_runs.append(m)
        now = time.perf_counter()
        if now >= deadline or now - started > TIME_LIMIT_S:
            break
    metrics = {}
    for key in layer_runs[0]:
        vals = [m[key] for m in layer_runs]
        metrics[key] = vals[0] if key in COUNTS else statistics.median(vals)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    stats = {"untraced_wall_s": plain, "traced_wall_s": traced, "count_drift": count_drift,
             "spans_file": f"bench/out/spans-{workload}.npy"}
    return metrics, stats, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    import_package()
    OUT.mkdir(parents=True, exist_ok=True)
    setup = measure_setup(args.workload, args.seed) if not args.trace else None
    import workloads
    from tracer import METRICS

    runner = Runner(workloads.build(args.workload, args.seed, scratch_dir(args.workload)))
    runner.run_pass()  # warm-up: caches, lazy imports; its outputs are the reference

    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed), "ops_per_pass": len(runner.ops)}
    if args.trace:
        layer, stats, attempted, failed = traced_run(runner, args.seconds, started,
                                                     args.workload)
        metrics = {k: {"value": layer[k], "unit": METRICS[k][0]} for k in METRICS}
        report["layers"] = {k: {"value": layer[k], "unit": METRICS[k][0],
                                "moves": METRICS[k][2]} for k in METRICS}
        report.update(stats)
        correct = not runner.mismatches and not runner.unexpected and not stats["count_drift"]
    else:
        walls, latencies, attempted, failed = timed_run(runner, args.seconds, started)
        if args.workload != "desk-calls":
            # no lower-tagged estimates of its own; see workloads.tightness_probe
            probe = Runner(workloads.tightness_probe(args.seed))
            probe.run_pass()
            runner.tightness = probe.tightness
            runner.unexpected |= probe.unexpected
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        values = {
            "setup_s": (setup[0], "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_s.p50": (statistics.median(latencies), "s"),
            "op_s.p90": (deciles[8], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
            "lower_tightness": (statistics.median(runner.tightness), "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        report.update({
            "setup_samples_s": setup[1],
            "wall_s_quartiles": quartiles(walls),
            "passes": len(walls),
            "op_samples": len(latencies),
            "op_samples_beyond_p90": sum(t > deciles[8] for t in latencies),
            "fail_share": failed / attempted,
            "tightness_samples": len(runner.tightness),
        })
        correct = not runner.mismatches and not runner.unexpected
    report.update({"correct": correct, "attempted": attempted, "failed": failed,
                   "failures": runner.failures, "unexpected": sorted(runner.unexpected),
                   "mismatches": sorted(set(runner.mismatches)),
                   "metrics": metrics})
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2))

    for key, m in metrics.items():
        note = f"  -> {METRICS[key][2]}" if args.trace else ""
        print(f"{key:36s} {m['value']:<16.6g} {m['unit']}{note}")
    print(f"failed {failed}/{attempted} ops; report in {out.relative_to(ROOT)}")
    for label, why in sorted(runner.failures.items()):
        print(f"  failed: {label}: {why.strip().splitlines()[-1] if why.strip() else ''}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
