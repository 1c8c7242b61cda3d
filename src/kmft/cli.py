"""Command-line front end.

Three subcommands:

    kmft-bench generate --points 10000 --dims 10 --blobs 10 --out data.kmds
    kmft-bench run --data data.kmds --k 10 --procs 4 --spares 1 \
        --method samples --ckpt-interval 5 --fail 2@7 --out report.csv
    kmft-bench report report.csv --out summary.csv

`run` can also synthesize its dataset in place (pass the generate flags
instead of --data).  Failures repeat: each --fail is RANK@ITER[:phase]
with phase one of compute (before the pass), barrier (the default: after
the pass, before the checkpoint step), ckpt (the checkpoint step's first
failure point: after every pass that does not converge, checkpointing or
not, so at the same instant as barrier); a kill the run never reaches is
noted on stderr.  KMFT_LOG sets the logging level (DEBUG, INFO, ...).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from pathlib import Path

from .bench import (RunConfig, append_rows, check_report_file, read_rows,
                    run_experiment, summarize, write_summary)
from .datasets import make_blobs, read_dataset, write_dataset
from .errors import ConfigError
from .simcluster import DEFAULT_TIMEOUT, FailPhase, FailureEvent

_PHASES = {
    "compute": FailPhase.DURING_COMPUTE,
    "barrier": FailPhase.BEFORE_BARRIER,
    "ckpt": FailPhase.DURING_CHECKPOINT,
}

def parse_fail(text: str) -> FailureEvent:
    """RANK@ITER[:phase], e.g. 2@7 or 0@12:ckpt."""
    head, sep, phase_name = text.partition(":")
    phase_name = phase_name or "barrier"
    if phase_name not in _PHASES:
        raise argparse.ArgumentTypeError(
            f"unknown phase {phase_name!r} in {text!r} "
            f"(choose from {', '.join(_PHASES)})")
    rank_s, sep, iter_s = head.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(f"{text!r} is not RANK@ITER[:phase]")
    try:
        rank, iteration = int(rank_s), int(iter_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not RANK@ITER[:phase]") from None
    if rank < 0 or iteration < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r}: rank must be >= 0 and iteration >= 1")
    return FailureEvent(rank=rank, iteration=iteration,
                        phase=_PHASES[phase_name])


def _add_synth_flags(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--points", type=int, required=required, default=None,
                   help="number of samples to synthesize")
    p.add_argument("--dims", type=int, default=None, help="sample dimension")
    p.add_argument("--blobs", type=int, default=None,
                   help="number of Gaussian blobs")
    p.add_argument("--spread", type=float, default=1.0,
                   help="blob standard deviation (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="kmft-bench",
        description="fault-tolerant K-means benchmark harness")
    sub = root.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic blob dataset")
    _add_synth_flags(gen, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="dataset file to write")

    run = sub.add_parser("run", help="execute one clustering run")
    run.add_argument("--data", default=None, help="dataset file to load")
    _add_synth_flags(run, required=False)
    run.add_argument("--seed", type=int, default=0,
                     help="seed for synthesis, scheduling, and the run id")
    run.add_argument("--k", type=int, required=True, help="cluster count")
    run.add_argument("--procs", type=int, default=1)
    run.add_argument("--spares", type=int, default=0)
    run.add_argument("--method", default="sequential",
                     choices=("centers", "samples", "sequential"))
    run.add_argument("--ckpt-interval", type=int, default=5,
                     help="iterations per checkpoint (default 5)")
    run.add_argument("--max-iters", type=int, default=200)
    run.add_argument("--force-iters", type=int, default=None,
                     help="run exactly this many iterations, "
                          "ignoring convergence")
    run.add_argument("--fail", type=parse_fail, action="append", default=[],
                     metavar="RANK@ITER[:phase]",
                     help="inject a failure (repeatable); phase is one of "
                          "compute (before the pass), barrier (after the pass, "
                          "before the checkpoint step; the default), ckpt (after "
                          "every pass that does not converge, checkpointing or "
                          "not: the same instant as barrier)")
    run.add_argument("--timeout-ticks", type=int, default=DEFAULT_TIMEOUT,
                     help="ticks any op waits for a dead peer")
    run.add_argument("--out", default=None, help="CSV to append the row to")

    rep = sub.add_parser("report", help="aggregate a report CSV")
    rep.add_argument("csv", help="report CSV produced by run")
    rep.add_argument("--out", default=None, help="summary CSV to write")
    return root


def _load_or_make(args: argparse.Namespace):
    if args.data is not None:
        return read_dataset(args.data)
    if args.points is None:
        raise ConfigError("need --data or the synthesis flags (--points ...)")
    if args.dims is None or args.blobs is None:
        raise ConfigError("synthesis needs --points, --dims, and --blobs")
    data, _ = make_blobs(args.points, args.dims, args.blobs,
                         spread=args.spread, seed=args.seed)
    return data


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dims is None or args.blobs is None:
        raise ConfigError("generate needs --points, --dims, and --blobs")
    data, _ = make_blobs(args.points, args.dims, args.blobs,
                         spread=args.spread, seed=args.seed)
    write_dataset(args.out, data)
    print(f"wrote {args.out}: {data.n} x {data.d}")
    return 0


def _print_row(row: dict, objective: float | None) -> None:
    print(f"run {row['config_id']}: method={row['method']} procs={row['procs']} "
          f"k={row['k']} n={row['n']}")
    status = "converged" if row["converged"] else "stopped"
    line = (f"  {status} after {row['iterations']} iterations, "
            f"{row['recoveries']} recoveries, "
            f"{row['epochs_committed']} checkpoints")
    if objective is not None:
        line += f", objective {objective:.6g}"
    print(line)
    print(f"  overhead {row['overhead_frac']:.4f}, wall {row['wall_ms']:.1f} ms")
    if row["reason"]:
        print(f"  failed: {row['reason']}")


def _cmd_run(args: argparse.Namespace) -> int:
    data = _load_or_make(args)
    cfg = RunConfig(
        n=data.n, d=data.d, k=args.k, procs=args.procs, spares=args.spares,
        method=args.method, interval=args.ckpt_interval,
        max_iters=args.max_iters, force_iters=args.force_iters,
        seed=args.seed, failures=tuple(args.fail), timeout=args.timeout_ticks)
    if args.out:
        check_report_file(args.out)     # refuse a bad --out before the run
    report = run_experiment(data, cfg)
    row = report.row
    _print_row(row, report.objective)
    for ev in report.outcome.unfired if report.outcome is not None else ():
        print(f"note: kill {ev.rank}@{ev.iteration}:{ev.phase.value} never fired",
              file=sys.stderr)
    if args.out:
        append_rows(args.out, [row])
        print(f"appended to {args.out}")
    return 1 if row["reason"] else 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = read_rows(args.csv)
    summary = summarize(rows)
    print("method     procs     k runs   iters conv  rec overhead    time speedup")
    for s in summary:
        print(f"{s['method']:<10} {s['procs']:>5} {s['k']:>5} {s['runs']:>4} "
              f"{s['iterations_mean']:>7.1f} {str(s['converged_all']):>5} "
              f"{s['recoveries_total']:>4} {s['overhead_mean']:>8.4f} "
              f"{s['time_mean']:>7.1f} {s['speedup']:>7.2f}")
    out = args.out or str(Path(args.csv).with_suffix("")) + "-summary.csv"
    write_summary(out, summary)
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("KMFT_LOG")
    if level:
        logging.basicConfig()
        logging.getLogger("kmft").setLevel(
            getattr(logging, level.upper(), logging.INFO))
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
