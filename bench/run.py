"""fragsim benchmark: time to a verdict, end to end and per module.

    python3 bench/run.py --workload tail-extremes --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

Run from the root of a fragsim checkout; fragsim is imported from its
``src/``. One invocation measures one workload in a fresh process:

1. set-up, timed in three fresh processes from spawn to ready (median);
2. untraced passes over the workload's operations until --seconds have
   elapsed; each pass is timed and the median is reported;
3. with --trace 1, one traced pass, which gives the per-layer calls and
   self times and the tracing overhead, and must reproduce the untraced
   outputs byte for byte and the pinned exact counts.

Every output is checked against the previous passes and against the
digests pinned in bench/golden.json, which also pins the exact counts
(events, replicas) each input takes. Times are reported scaled to a
reference machine speed (speed.py); raw times are in the run record.

Output: a `record:` line (machine, versions, seed, raw times), one
`metric <workload> <name> = <value> <unit>` line per metric, and last one
JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). `--workload all` runs each workload in its own
process. Exit status is non-zero, with no result line, when the sources
are missing or a span the workload must exercise recorded nothing.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
SETUP_SAMPLES = 3
HOT_SPANS = ("simulator.run", "simulator.next_event", "simulator.step_kernel",
             "ranked_state.dislocate", "measures.truncated_mass",
             "measures.sample_dislocation", "rng.replica_rng")


def _import_checkout():
    """Import fragsim from this checkout's src/, never from anywhere else."""
    package = os.path.join(SRC, "fragsim")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no fragsim sources at {package}; "
                         f"run from the root of a fragsim checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fragsim
    if os.path.dirname(os.path.abspath(fragsim.__file__)) != package:
        raise SystemExit(f"error: imported fragsim from {fragsim.__file__}, "
                         f"not from {package}")


def drop_scratch():
    """Remove the scratch directory once nothing is left in it."""
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_probe(args):
    """Seconds, raw and scaled, from spawning a fresh interpreter to ready."""
    import speed

    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    procs = []

    def until_ready():
        procs.append(subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True))
        return procs[-1].stdout.readline()

    meter = speed.Meter()
    try:
        line = meter.time(until_ready)
    finally:
        for proc in procs:
            with proc:
                proc.stdout.read()
    if line.strip() != "ready" or procs[0].returncode != 0:
        raise SystemExit(f"error: set-up probe failed "
                         f"(exit {procs[0].returncode})")
    return meter.raw, meter.scaled


def _measure(plan, seconds, trace):
    """Untraced passes for `seconds`; with `trace`, then one traced pass.

    The traced pass must reproduce the untraced outputs byte for byte and
    the pinned exact counters; otherwise its operations count as failed.
    """
    import tracing

    m = dict(raw=[], scaled=[], attempted=0, failed=0, neutral=None,
             counts=plan.counts)
    reference = None
    with plan.capturing():
        start = time.perf_counter()
        while not m["raw"] or time.perf_counter() - start < seconds:
            gc.collect()
            raw, scaled, rows = plan.run_pass()
            m["raw"].append(raw)
            m["scaled"].append(scaled)
            if reference is None:
                reference = {row[0]: row[1] for row in rows}
                m["fail_checks"] = sum(row[3] for row in rows)
            a, f = plan.tally(rows, reference)
            m["attempted"] += a
            m["failed"] += f
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0)
    if not trace:
        return m
    tracer = tracing.Tracer()
    gc.collect()
    with tracing.installed(tracer), plan.capturing():
        m["traced_raw"], m["traced_scaled"], rows = plan.run_pass()
    a, f = plan.tally(rows, reference)
    m["layers"], m["counts"] = tracer.layers(), tracer.counts()
    m["neutral"] = all(reference.get(row[0]) == row[1] for row in rows)
    m["counts_pinned"] = m["counts"] == plan.counts
    m["attempted"] += a
    m["failed"] += f if m["neutral"] and m["counts_pinned"] else a
    return m


def check_wiring(workload, layers, counts):
    """Fail loudly when a span or counter the workload must exercise is idle."""
    import tracing
    import workloads

    idle = [name for name in workloads.EXPECTED[workload]
            if (layers.get(name, (0, 0.0))[0] if name in tracing.SPAN_NAMES
                else counts.get(name, 0)) == 0]
    if idle:
        raise tracing.WiringError(
            f"{workload}: no calls recorded for {', '.join(idle)}; a wrapped "
            f"name was renamed or is no longer looked up by its callers")


def per_layer_metrics(layers, counts, untraced_wall, traced_wall):
    import tracing

    out = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s = layers.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        if name in HOT_SPANS:
            out[f"{name}.us_per_call"] = (
                1e6 * self_s / calls if calls else 0.0, "us")
    events = counts.get("events", 0)
    out["simulator.events"] = (events, "count")
    out["ranked_state.parts_mean"] = (
        counts.get("parts_sum", 0) / events if events else 0.0, "count")
    out["ranked_state.parts_hwm"] = (counts.get("parts_hwm", 0), "count")
    out["partitions.labels_painted"] = (counts.get("labels", 0), "count")
    out["suites.replicas"] = (counts.get("replicas", 0), "count")
    out["trace.overhead.ratio"] = (traced_wall / untraced_wall, "ratio")
    out["trace.traced.wall_s"] = (traced_wall, "s")
    out["trace.untraced.wall_s"] = (untraced_wall, "s")
    return out


def _plan(args, workdir):
    """Set-up: read the pinned outputs, build the workload's operations."""
    import workloads

    offset, pin = workloads.pinned(args.workload, args.seed)
    return workloads.Plan(args.workload, offset, workdir, pin=pin)


def run_workload(args):
    import numpy
    import scipy
    import workloads

    load_at_start = os.getloadavg()[0]
    setups = [_setup_probe(args) for _ in range(SETUP_SAMPLES)]
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        plan = _plan(args, workdir)
        m = _measure(plan, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        drop_scratch()
    if args.trace:
        check_wiring(args.workload, m["layers"], m["counts"])

    # Exact counts are pinned per input; a traced run re-derives and checks them.
    wall_s = statistics.median(m["scaled"])
    paths = m["counts"].get("replicas", 0) + plan.simulate_paths
    metrics = {
        "wall_s": (wall_s, "s"),
        "paths_per_s": (paths / wall_s, "1/s"),
        "events_per_s": (m["counts"].get("events", 0) / wall_s, "1/s"),
        "ok_frac": (1.0 - m["failed"] / m["attempted"], "ratio"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(s for _raw, s in setups), "s"),
    }
    chosen = metrics
    record = {
        "workload": args.workload, "seed": args.seed, "offset": plan.offset,
        "seconds": args.seconds, "trace": args.trace,
        "threads": workloads.THREADS,
        "passes": len(m["raw"]), "pass_raw_s": m["raw"],
        "pass_scaled_s": m["scaled"],
        "setup_raw_s": [r for r, _s in setups],
        "setup_scaled_s": [s for _r, s in setups],
        "fail_frac": m["failed"] / m["attempted"],
        "pinned_fail_checks": m["fail_checks"],
        "nproc": os.cpu_count(), "loadavg_1m_at_start": load_at_start,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(),
    }
    if args.trace:
        chosen = per_layer_metrics(m["layers"], m["counts"], wall_s,
                                   m["traced_scaled"])
        metrics.update(chosen)
        record.update(traced_raw_s=m["traced_raw"], trace_neutral=m["neutral"],
                      counts_match_pinned=m["counts_pinned"])
    print("record: " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"], "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process; every metric printed."""
    import workloads

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=600, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited "
                             f"{proc.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        result["correct"] = result["correct"] and last["correct"]
        result["attempted"] += last["attempted"]
        result["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            result["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="tail-extremes, partition-channel, dense-alpha, "
                             "gate-mix, or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 runs the pinned suite seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the untraced passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 prints per-layer metrics instead of end-to-end")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_checkout()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        os.makedirs(SCRATCH, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="setup-", dir=SCRATCH)
        try:
            _plan(args, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
