"""The benchmark's four workloads and the correctness checks on their outputs.

Every workload is a closed loop: one client in one process issues the next
suite call or simulate command only after the previous one returns. A pass
is the workload's fixed list of operations; its outputs are digested so
that passes, the traced pass and the pinned digests in golden.json can be
compared byte for byte.

Why these four:
  tail-extremes      S7 (extreme + frechet-k): short paths, alpha = 0; the
                     law's truncated_mass/tail_nu2 dominates, partitions and
                     the mass-biased target scan are bypassed.
  partition-channel  S8 (correspondence): paintbox partitions and the step
                     kernel's event loop; measures and next_event barely run.
  dense-alpha        long alpha = 1 paths through `fragsim simulate` with
                     thousands of live fragments: the O(n) target scan, the
                     per-event re-sort and the CSV writers.
  gate-mix           the seven light suites at their pinned defaults: replica
                     streams, run_replicas, the subordinator and the
                     chi-square instruments.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback

import speed
from fragsim import cli, suites
from fragsim.ranked_state import BUDGET_TOL

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# (suite, replicas) per suite workload; None keeps the suite's pinned count.
SUITE_WORKLOADS = {
    "tail-extremes": (("extreme", 1000), ("frechet-k", 1000)),
    "partition-channel": (("correspondence", 1000),),
    "gate-mix": tuple((name, None) for name in (
        "erosion", "conservation", "poisson-counts", "records", "sandwich",
        "subordinator", "scaling")),
}
WORKLOADS = ("tail-extremes", "partition-channel", "dense-alpha", "gate-mix")

# Worker threads, passed the way users pass them: through the environment,
# so a build without the option still runs every workload. Two threads on a
# 2-core 2.1 GHz Xeon virtual machine spread gate-mix's times by 15-21%
# between runs (GIL hand-offs across cores, which the speed calibration
# cannot follow), so every workload runs one worker.
THREADS = 1

DENSE_ATOMS = "1.0:0.6,0.4;0.5:0.5,0.3,0.2;0.25:0.9,0.05"
DENSE_T_END = 1500.0
DENSE_REPLICAS = 6
DENSE_OBS = 20

# Shortened sizes for the benchmark's own tests; never golden-checked.
SMALL_SUITE_REPLICAS = 60
SMALL_T_END = 200.0
SMALL_DENSE_REPLICAS = 2

# Spans and counters that must record work on each workload; zero means
# the wrappers no longer sit where callers look the names up.
EXPECTED = {
    "tail-extremes": (
        "suites.run_suite", "suites.run_replicas", "rng.replica_rng",
        "simulator.run", "simulator.next_event", "ranked_state.dislocate",
        "measures.truncated_mass", "measures.sample_dislocation",
        "asymptotics.normalize_lambda2", "asymptotics.cdf", "stats.ks",
        "events", "replicas"),
    "partition-channel": (
        "suites.run_suite", "suites.run_replicas", "simulator.run",
        "simulator.step_kernel", "simulator.next_event",
        "ranked_state.dislocate", "partitions.paintbox",
        "partitions.partition_step", "partitions.frequencies", "stats.ks",
        "events", "replicas", "labels"),
    "dense-alpha": (
        "simulator.run", "simulator.next_event", "simulator.write_csv",
        "ranked_state.dislocate", "measures.truncated_mass",
        "measures.sample_dislocation", "rng.replica_rng", "events"),
    "gate-mix": (
        "suites.run_suite", "suites.run_replicas", "rng.replica_rng",
        "simulator.run", "simulator.next_event", "ranked_state.dislocate",
        "asymptotics.run_subordinator", "asymptotics.cdf", "stats.chi_square",
        "stats.ks", "events", "replicas"),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class SuiteOp:
    """One suite call; its output is the report text."""

    def __init__(self, name, seed, replicas):
        self.name, self.seed, self.replicas = name, seed, replicas

    def __call__(self):
        return suites.run_suite(self.name, seed=self.seed,
                                replicas=self.replicas)

    def outputs(self, report):
        """[(key, digest, checks, FAIL checks, passed)]: one check is one op."""
        failed = sum(not c.passed for c in report.checks)
        return [(self.name, sha256(report.to_text().encode()),
                 len(report.checks), failed, report.passed)]


class SimulateOp:
    """One `fragsim simulate` command; each replica's CSV pair is an output."""

    def __init__(self, config, out, seed, replicas, captured):
        self.name = "simulate"
        self.argv = ["simulate", "--config", config, "--out", out,
                     "--seed", str(seed), "--replicas", str(replicas)]
        self.out, self.replicas, self.captured = out, replicas, captured

    def __call__(self):
        self.captured.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def outputs(self, code):
        rows = []
        budgets = list(self.captured)
        for i in range(self.replicas):
            key = f"replica-{i:04d}"
            try:
                with open(os.path.join(self.out, f"events_{i:04d}.csv"), "rb") as fh:
                    events = fh.read()
                with open(os.path.join(self.out, f"snapshots_{i:04d}.csv"), "rb") as fh:
                    snaps = fh.read()
            except OSError:
                rows.append((key, None, 1, 1, False))
                continue
            ok = code == 0 and i < len(budgets) and budgets[i]
            rows.append((key, sha256(events + b"\0" + snaps), 1, int(not ok), ok))
        return rows


def _budget_holds(traj):
    """Every snapshot: parts + dust equal the nominal budget within BUDGET_TOL."""
    if len(traj.snapshots) != DENSE_OBS:
        return False
    return all(abs(sum(s.parts) + s.dust - s.nominal) <= BUDGET_TOL
               for s in traj.snapshots)


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pinned(workload, seed, table=None):
    """(offset, pinned run) that a workload seed selects from golden.json.

    The pinned offsets are the workload's input space; seed n takes the
    n-th of them, cyclically. A pinned run holds each output's digest and
    the exact counters of a traced pass over it.
    """
    runs = (table or load_golden())["workloads"][workload]
    offsets = sorted(runs, key=int)
    key = offsets[seed % len(offsets)]
    return int(key), runs[key]


class Plan:
    """A workload's operations at one input offset, ready to run.

    Building it is the benchmark's set-up: importing fragsim, reading the
    pinned digests, writing the generated config file.
    """

    def __init__(self, workload, offset, workdir, small=False, pin=None):
        self.workload, self.offset, self.small = workload, offset, small
        self.golden = pin["outputs"] if pin else None
        self.counts = pin["counts"] if pin else None
        os.environ["FRAGSIM_THREADS"] = str(THREADS)
        self.captured = []
        self.simulate_paths = 0
        if workload == "dense-alpha":
            self.ops = [self._dense_op(workdir)]
        else:
            self.ops = [self._suite_op(i, name, replicas) for i, (name, replicas)
                        in enumerate(SUITE_WORKLOADS[workload])]

    def _suite_op(self, index, name, replicas):
        # Offset 0 runs the pinned suite seed; others derive fresh seeds.
        seed = None if self.offset == 0 else 1000 * self.offset + index
        if self.small:
            replicas = SMALL_SUITE_REPLICAS
        return SuiteOp(name, seed, replicas)

    def _dense_op(self, workdir):
        t_end = SMALL_T_END if self.small else DENSE_T_END
        replicas = SMALL_DENSE_REPLICAS if self.small else DENSE_REPLICAS
        obs = ", ".join(repr(t_end * (i + 1) / DENSE_OBS) for i in range(DENSE_OBS))
        config = os.path.join(workdir, "dense-alpha.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"measure = atomic; atoms = {DENSE_ATOMS}\n"
                     f"alpha = 1.0\nmass_floor = 1e-9\n"
                     f"t_end = {t_end!r}\nobs_times = {obs}\n")
        self.simulate_paths = replicas
        return SimulateOp(config, os.path.join(workdir, "out"), self.offset,
                          replicas, self.captured)

    def run_pass(self):
        """Run every op once, in order: (raw seconds, scaled seconds, outputs).

        Only the op calls are timed, raw and scaled to the reference speed
        (see speed.py); reading and digesting outputs is not, but the
        budget check that `capturing` runs on each path is. An op that
        raises counts as one failed operation.
        """
        meter = speed.Meter()
        rows = []
        for op in self.ops:
            try:
                result = meter.time(op)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rows.append((op.name, None, 1, 1, False))
                continue
            rows.extend(op.outputs(result))
        return meter.raw, meter.scaled, rows

    @property
    def may_fail(self):
        """Whether a FAIL verdict can be this input's expected output.

        Away from offset 0 the suites run fresh seeds at reduced replica
        counts, where a law check can FAIL by sampling noise; the report
        text, verdict line included, is then pinned by its digest. At
        offset 0 (the pinned suite seeds) and for every simulated path,
        a FAIL is a failure.
        """
        return self.offset != 0 and self.workload in SUITE_WORKLOADS

    def tally(self, rows, reference):
        """(attempted, failed) for one pass's outputs.

        An output fails in full when it is missing, differs from the
        reference pass or from its pinned digest (when pins are given),
        or FAILs where a FAIL is not allowed (see `may_fail`).
        """
        attempted = failed = 0
        for key, digest, n, _bad, passed in rows:
            bad = (digest is None or reference.get(key) != digest
                   or (self.golden is not None and self.golden.get(key) != digest)
                   or not (passed or self.may_fail))
            attempted += n
            failed += n if bad else 0
        return attempted, failed

    @contextlib.contextmanager
    def capturing(self):
        """Check each simulated trajectory's budget as `simulate` gets it.

        Only the verdict is kept, so the process holds no more trajectories
        than `fragsim simulate` itself does and peak_rss_mb stays the
        program's. Enter it inside `tracing.installed` so that the check
        stays out of the simulator.run span.
        """
        original = cli.run
        captured = self.captured

        def run(*args, **kwargs):
            traj = original(*args, **kwargs)
            captured.append(_budget_holds(traj))
            return traj

        cli.run = run
        try:
            yield
        finally:
            cli.run = original
