"""ocon benchmark: three workloads, end-to-end metrics, and a traced run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload ensemble_train --seed 11 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload once untraced and once with the span recorder installed
and reports the per-layer metrics.  Every metric is printed by name with its
unit; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of the checkout; without it the benchmark exits 2 and prints no
result.  See perfbench/README.md for why each workload exists.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
MIN_PASSES = 2

#: name -> unit; every workload reports all of them with tracing off.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "train_samples_per_s": "1/s",
    "mean_test_accuracy_pct": "%",
    "op_ms": "ms",
}

#: name -> unit; every workload reports all of them in its traced run, 0 for
#: a layer the workload never enters.
PER_LAYER = {
    "mlp.steps": "count", "mlp.steps.adam": "count", "mlp.steps.rmsprop": "count",
    "mlp.forward_train_us": "us", "mlp.forward_train_us.adam": "us",
    "mlp.forward_train_us.rmsprop": "us",
    "mlp.backward_us": "us", "mlp.backward_us.adam": "us", "mlp.backward_us.rmsprop": "us",
    "mlp.optimizer_step_us": "us", "mlp.optimizer_step_us.adam": "us",
    "mlp.optimizer_step_us.rmsprop": "us",
    "mlp.forward_infer_us": "us",
    "training.cycle_s": "s", "training.loop_self_share": "ratio", "training.split_us": "us",
    "training.held_out_checks": "count", "training.kfold_s": "s",
    "balancer.subset_calls": "count", "balancer.subset_us": "us",
    "balancer.balance_warnings": "count",
    "search.cells": "count", "search.failed_cells": "count", "search.cell_s_p50": "s",
    "search.busy_share": "ratio",
    "ensemble.train_s": "s", "ensemble.infer_single_us": "us", "ensemble.infer_batch_us": "us",
    "ensemble.evaluate_s": "s", "ensemble.save_s": "s", "ensemble.load_s": "s",
    "features.build_feature_matrix_s": "s", "features.scaling_apply_us": "us",
    "dataset.load_dataset_s": "s", "dataset.write_records_csv_s": "s",
    "dataset.read_records_csv_s": "s",
    "container.bytes_written": "B", "container.write_s": "s", "container.read_s": "s",
    "metrics.report_tables_s": "s", "metrics.roc_auc_us": "us",
    "cli.startup_s": "s", "cli.ingest_s": "s", "cli.preprocess_s": "s", "cli.train_s": "s",
    "cli.eval_s": "s", "cli.infer_s": "s",
    "trace.overhead_share": "ratio", "trace.train_accounted_share": "ratio",
}

WORKLOAD_NAMES = ("ensemble_train", "search_stage1", "pipeline_serve")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def env_stamp():
    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "loadavg_before": loadavg()}


def peak_rss_mb():
    """Largest peak RSS among this process and its waited-for children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure_setup(args, workdir, speed):
    """Median wall time from a fresh interpreter to inputs ready, over
    ``SETUP_PROBES`` tries: (host-scaled, as measured)."""

    def probe(i):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "run.py"), "--probe-setup",
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", "0", "--trace", "0"],
                              stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PERFBENCH_PROBE_DIR":
                                   os.path.join(workdir, f"probe{i}")}) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        return elapsed

    scaled, raw = [], []
    for i in range(SETUP_PROBES):
        elapsed, factor = speed.around(lambda: probe(i))
        scaled.append(elapsed * factor)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def run_untraced(workload, args, tally, speed):
    from workloads import pass_metrics

    deadline = time.perf_counter() + args.seconds
    passes, factors, walls = [], [], []
    while True:
        t0 = time.perf_counter()
        result, factor = speed.around(lambda: workload.run_pass(tally, f"pass{len(walls)}"))
        walls.append(time.perf_counter() - t0)
        if result is not None:
            if passes:
                tally.op(result.fingerprint == passes[0].fingerprint,
                         f"pass {len(walls)} artifacts differ from pass 1")
            passes.append(result)
            factors.append(factor)
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() + statistics.median(walls) > deadline):
            break
    if not passes:
        return None, {}
    metrics = pass_metrics(passes, factors)
    extra = dict(workload.issue_metrics(passes))
    for name in ("wall_s", "train_samples_per_s", "op_ms"):
        raw = pass_metrics(passes, [1.0] * len(passes))[name]
        extra[f"raw.{name}"] = (raw, END_TO_END[name])
    extra["passes"] = (len(passes), "count")
    extra["op_samples"] = (sum(len(p.ops) for p in passes), "count")
    return metrics, extra


def run_traced(workload, args, tally, speed):
    import spans

    rec = spans.Recorder()
    extra = workload.trace_run(tally, rec, speed)
    metrics = spans.layer_metrics(rec.table(), rec.counters)
    metrics.update(extra)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    rec.write(os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.npz"))
    return {name: metrics.get(name, 0) for name in PER_LAYER}


def probe_setup(args):
    """Child side of ``measure_setup``: build the inputs, say ready, clean up."""
    import workloads

    workdir = os.environ["PERFBENCH_PROBE_DIR"]
    os.makedirs(workdir, exist_ok=True)
    workloads.WORKLOADS[args.workload]().prepare(args.seed, workdir)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ocon", "__init__.py")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'ocon')}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)

    stamp = env_stamp()
    import workloads
    from ocon.balancer import BalanceWarning

    # counted in the traced run; kept out of the benchmark's own output
    warnings.simplefilter("ignore", BalanceWarning)

    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = workloads.Tally()
    speed = HostSpeed()
    units = PER_LAYER if args.trace else END_TO_END
    extra = {}
    try:
        if not args.trace:
            setup_s, raw_setup_s = measure_setup(args, workdir, speed)
        workload = workloads.WORKLOADS[args.workload]()
        workload.prepare(args.seed, workdir)
        if args.trace:
            metrics = run_traced(workload, args, tally, speed)
        else:
            metrics, extra = run_untraced(workload, args, tally, speed)
            if metrics is None:
                print("perfbench: no pass of the workload succeeded", file=sys.stderr)
                for note in tally.notes:
                    print(f"failed: {note}", file=sys.stderr)
                return 1
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
            extra["raw.setup_s"] = (raw_setup_s, "s")
            extra["host.kernel_ms"] = (speed.mean_call_ms(), "ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp["loadavg_after"] = loadavg()
    stamp.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(stamp, sort_keys=True))
    for name in units:
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"workload-metric {name} = {value!r} {unit}")
    for note in tally.notes:
        print(f"failed: {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
