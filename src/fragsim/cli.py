"""Command line entry points.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 the
configuration or arguments were unusable.
"""

import argparse
import dataclasses
import math
import numbers
import os
import sys

from .config import load_config
from .errors import ConfigError, FragsimError
from .measures import parse_measure
from .rng import replica_rng
from .simulator import SimConfig, run, write_event_csv, write_snapshot_csv
from .suites import CONFIG_EXIT, FAIL_EXIT, PASS_EXIT, run_suite, suite_names

# a path's keys are SimConfig's fields, the measure line parsing to "law";
# a suite-only key is refused, not ignored
_PATH_KEYS = frozenset(f.name for f in dataclasses.fields(SimConfig))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fragsim",
        description="Simulate ranked fragmentation paths and verify them "
                    "against their analytic oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run replicas and write CSV traces")
    sim.add_argument("--config", required=True, help="key = value file")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--replicas", type=int, default=None)

    ver = sub.add_parser("verify", help="run one verification suite")
    ver.add_argument("suite", help="one of: " + ", ".join(suite_names()))
    ver.add_argument("--config", default=None,
                     help="optional overrides for the suite's defaults")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--replicas", type=int, default=None)

    tail = sub.add_parser("tail", help="print measure analytics on a grid")
    tail.add_argument("--measure", required=True,
                      help="measure grammar, e.g. 'binary_power; a = 0.5'")
    tail.add_argument("--x", required=True, help="comma list of grid points")
    return parser


def _cmd_simulate(args):
    values = load_config(args.config)
    for key in values:
        if key not in _PATH_KEYS and key not in ("seed", "replicas"):
            raise ConfigError(f"simulate does not take {key!r}")
    if "law" not in values:
        raise ConfigError("simulate needs a measure line in the config")
    if "t_end" not in values:
        raise ConfigError("simulate needs t_end in the config")
    seed = args.seed if args.seed is not None else values.get("seed", 0)
    replicas = (args.replicas if args.replicas is not None
                else values.get("replicas", 1))
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ConfigError(f"seed {seed!r} must be an int >= 0")
    if replicas < 1:
        raise ConfigError(f"replica count {replicas} must be >= 1")
    cfg = SimConfig(**{k: v for k, v in values.items() if k in _PATH_KEYS})
    os.makedirs(args.out, exist_ok=True)
    for i in range(replicas):
        traj = run(cfg, replica_rng(seed, i))
        with open(os.path.join(args.out, f"events_{i:04d}.csv"), "w",
                  encoding="utf-8") as fh:
            write_event_csv(traj, fh)
        with open(os.path.join(args.out, f"snapshots_{i:04d}.csv"), "w",
                  encoding="utf-8") as fh:
            write_snapshot_csv(traj, fh)
    print(f"wrote {replicas} replica trace pairs to {args.out}")
    return PASS_EXIT


def _cmd_verify(args):
    overrides = load_config(args.config) if args.config else None
    report = run_suite(args.suite, overrides, seed=args.seed,
                       replicas=args.replicas)
    sys.stdout.write(report.to_text())
    return PASS_EXIT if report.passed else FAIL_EXIT


def _cmd_tail(args):
    text = args.measure.strip()
    if not text.startswith("measure"):
        text = "measure = " + text
    law = parse_measure(text)
    try:
        grid = [float(v) for v in args.x.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--x: {exc}") from exc
    if not grid:
        raise ConfigError("--x needs at least one grid point")
    if any(math.isnan(x) for x in grid):
        raise ConfigError("--x: a grid point is NaN")
    print("x,tail_nu2,gen_inverse_f")
    for x in grid:
        print(f"{x:.10g},{law.tail_nu2(x):.10g},{law.gen_inverse_f(x):.10g}")
    print(f"dust_integral = {law.dust_integral():.10g}")
    return PASS_EXIT


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "verify": _cmd_verify,
                "tail": _cmd_tail}
    try:
        return handlers[args.command](args)
    except (FragsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
