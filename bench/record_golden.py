"""Regenerate bench/golden.json, the pinned outputs of every workload.

    python3 bench/record_golden.py

Runs one traced pass per workload and input offset, and records for each
operation the sha256 of its output (the report text of a suite call,
verdict line included, or a replica's event and snapshot CSVs), and the
pass's exact counters. Traced runs of the benchmark check that tracing
changes none of these. It refuses to pin a FAIL verdict where the
benchmark counts one as a failure: at offset 0, the pinned suite seeds,
and on any simulated path. Rerun it only for a change that alters the
random stream on purpose.
"""

import json
import os
import shutil
import sys
import tempfile

from run import SCRATCH, _git_commit, _import_checkout, drop_scratch

# Input offsets pinned per workload; a workload seed selects one of them.
OFFSETS = 12


def main():
    _import_checkout()
    import tracing
    import workloads

    table = {"commit": _git_commit(), "workloads": {}}
    os.makedirs(SCRATCH, exist_ok=True)
    for workload in workloads.WORKLOADS:
        runs = table["workloads"][workload] = {}
        for offset in range(OFFSETS):
            workdir = tempfile.mkdtemp(prefix="golden-", dir=SCRATCH)
            try:
                plan = workloads.Plan(workload, offset, workdir)
                tracer = tracing.Tracer()
                with tracing.installed(tracer), plan.capturing():
                    wall, _scaled, rows = plan.run_pass()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            verdict = " ".join(f"{k}={'pass' if p else 'FAIL'}"
                               for k, _d, _n, _b, p in rows)
            print(f"{workload} offset {offset}: {wall:.2f}s {verdict}",
                  flush=True)
            if not plan.may_fail and not all(row[4] for row in rows):
                drop_scratch()
                raise SystemExit(f"error: {workload} offset {offset} FAILs "
                                 f"where a FAIL is a failure; not pinned")
            runs[str(offset)] = {
                "outputs": {key: digest for key, digest, *_ in rows},
                "counts": tracer.counts()}
    drop_scratch()
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
