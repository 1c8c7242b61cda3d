"""Benchmark runs and CSV reporting.

One experiment produces one CSV row under the fixed header below.  The
virtual-time columns are per-phase tick totals summed over every rank in
the world, so a rerun of the same config reproduces every column except
wall_ms bit for bit.  `overhead_frac` is the share of those ticks spent on
protection (checkpoint start/commit, detection, restore).  Plain runs
(sequential, or a single process) have no simulated cluster and report
zero ticks.

`summarize` aggregates rows per (method, procs, k) and adds a speedup
column against the smallest-procs row group of the same (method, k); row
time for that purpose is total ticks divided by procs.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import CheckpointPolicy
from .errors import ConfigError
from .kmeans import Dataset, KmeansConfig, objective, run_sequential
from .parallel import Method, run_parallel
from .runtime import WorldLayout, run_ft_kmeans
from .simcluster import DEFAULT_TIMEOUT, FailureEvent, FailurePlan, Mode, VtPhase

log = logging.getLogger("kmft.bench")

CSV_HEADER = [
    "config_id", "method", "procs", "k", "n", "d", "interval", "seed",
    "iterations", "converged", "recoveries", "epochs_committed",
    "vt_compute", "vt_comm", "vt_ckpt_start", "vt_ckpt_commit",
    "vt_detect", "vt_restore", "overhead_frac", "wall_ms", "reason",
]

SUMMARY_HEADER = [
    "method", "procs", "k", "runs", "iterations_mean", "converged_all",
    "recoveries_total", "overhead_mean", "time_mean", "speedup",
]

_VT_COLUMNS = {
    "vt_compute": VtPhase.COMPUTE,
    "vt_comm": VtPhase.COMM,
    "vt_ckpt_start": VtPhase.CKPT_START,
    "vt_ckpt_commit": VtPhase.CKPT_COMMIT,
    "vt_detect": VtPhase.DETECT,
    "vt_restore": VtPhase.RESTORE,
}

_OVERHEAD_COLUMNS = ("vt_ckpt_start", "vt_ckpt_commit", "vt_detect", "vt_restore")


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark run depends on, dataset content aside."""

    n: int
    d: int
    k: int
    procs: int = 1
    spares: int = 0
    method: str = "sequential"            # sequential | centers | samples
    interval: int = 5
    max_iters: int = 200
    force_iters: int | None = None
    seed: int = 0
    failures: tuple[FailureEvent, ...] = ()
    mode: Mode = Mode.DETERMINISTIC       # the only mode; hashed into the id
    timeout: int = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        if self.procs < 1:
            raise ConfigError(f"procs must be >= 1, got {self.procs}")
        if self.spares < 0:
            raise ConfigError(f"spares must be >= 0, got {self.spares}")
        if self.interval < 1:
            raise ConfigError(f"interval must be >= 1, got {self.interval}")
        if self.timeout < 1:
            raise ConfigError(f"timeout must be >= 1 tick, got {self.timeout}")
        if self.method not in ("sequential", "centers", "samples"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method == "sequential" and self.force_iters is not None:
            raise ConfigError("force_iters needs a parallel method")
        if self.force_iters is not None and self.force_iters < 1:
            raise ConfigError(f"force_iters must be >= 1, got {self.force_iters}")
        if self.failures and (self.method == "sequential" or self.procs == 1):
            raise ConfigError("failures need a parallel method with at least 2 procs")


def config_id(cfg: RunConfig) -> str:
    """Stable short id: same config, same id, across processes and reruns."""
    fails = ";".join(f"{e.rank}@{e.iteration}:{e.phase.value}:{e.substep}"
                     for e in cfg.failures)
    text = "|".join(str(x) for x in (
        cfg.n, cfg.d, cfg.k, cfg.procs, cfg.spares, cfg.method, cfg.interval,
        cfg.max_iters, cfg.force_iters, cfg.seed, fails, cfg.mode.value,
        cfg.timeout))
    return hashlib.md5(text.encode()).hexdigest()[:10]


@dataclass
class RunReport:
    """One finished run: the CSV row plus in-process extras for the summary."""

    row: dict
    objective: float | None
    outcome: object = field(default=None, repr=False)


def run_experiment(data: Dataset, cfg: RunConfig) -> RunReport:
    if data.n != cfg.n or data.d != cfg.d:
        raise ConfigError(
            f"dataset is {data.n}x{data.d}, config says {cfg.n}x{cfg.d}")
    kcfg = KmeansConfig(k=cfg.k, max_iters=cfg.max_iters, seed=cfg.seed)
    row = {
        "config_id": config_id(cfg), "method": cfg.method, "procs": cfg.procs,
        "k": cfg.k, "n": cfg.n, "d": cfg.d, "interval": cfg.interval,
        "seed": cfg.seed, "recoveries": 0, "epochs_committed": 0, "reason": "",
    }
    row.update({c: 0 for c in _VT_COLUMNS})
    log.info("run %s: method=%s procs=%d k=%d", row["config_id"], cfg.method,
             cfg.procs, cfg.k)

    if cfg.method == "sequential" or cfg.procs == 1:
        started = time.perf_counter()
        if cfg.method == "sequential":
            centroids, table, iters = run_sequential(data, kcfg)
            converged = not table.changed
        else:
            res = run_parallel(data, kcfg, cfg.procs, Method(cfg.method),
                               force_iters=cfg.force_iters)
            centroids, table = res.centroids, res.table
            iters, converged = res.iterations, res.converged
        row.update(iterations=iters, converged=converged, overhead_frac=0.0,
                   wall_ms=(time.perf_counter() - started) * 1000.0)
        return RunReport(row=row, objective=objective(data, centroids, table))

    out = run_ft_kmeans(
        data, kcfg, Method(cfg.method),
        CheckpointPolicy(interval=cfg.interval),
        WorldLayout(active=cfg.procs, spares=cfg.spares),
        plan=FailurePlan(cfg.failures) if cfg.failures else None,
        seed=cfg.seed, timeout=cfg.timeout,
        force_iters=cfg.force_iters)
    for col, phase in _VT_COLUMNS.items():
        row[col] = sum(ledger[phase] for ledger in out.ledger.values())
    total = sum(row[c] for c in _VT_COLUMNS)
    protect = sum(row[c] for c in _OVERHEAD_COLUMNS)
    row.update(
        iterations=out.iterations, converged=out.converged,
        recoveries=out.recoveries, epochs_committed=out.epochs_committed,
        overhead_frac=(protect / total) if total else 0.0,
        wall_ms=out.wall_ms, reason=out.reason)
    obj = (objective(data, out.centroids, out.table)
           if out.centroids is not None else None)
    return RunReport(row=row, objective=obj, outcome=out)


# -- CSV I/O ----------------------------------------------------------------

def check_report_file(path: str | Path) -> bool:
    """True when `path` is missing or empty, so a report starts there; a file
    whose first line is not the report header is a ConfigError."""
    path = Path(path)
    if not path.exists() or path.stat().st_size == 0:
        return True
    header = ",".join(CSV_HEADER).encode()
    with path.open("rb") as fh:
        if fh.readline(len(header) + 2).rstrip(b"\r\n") != header:
            raise ConfigError(f"{path} line 1: header mismatch, not a report CSV")
    return False


def append_rows(path: str | Path, rows: list[dict]) -> None:
    """Append rows, creating the file with the fixed header when missing or
    empty; a file whose first line is not that header is left untouched."""
    fresh = check_report_file(path)
    with Path(path).open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        if fresh:
            writer.writeheader()
        for row in rows:
            writer.writerow(row)


_INT_FIELDS = ("procs", "k", "n", "d", "interval", "seed", "iterations",
               "recoveries", "epochs_committed", "vt_compute", "vt_comm",
               "vt_ckpt_start", "vt_ckpt_commit", "vt_detect", "vt_restore")
_FLOAT_FIELDS = ("overhead_frac", "wall_ms")


def read_rows(path: str | Path) -> list[dict]:
    """Parse a report CSV; any malformed line is rejected by number."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        if header != CSV_HEADER:
            raise ConfigError(f"{path} line 1: header mismatch")
        rows = []
        for lineno, values in enumerate(reader, start=2):
            if not values:
                continue
            if len(values) != len(CSV_HEADER):
                raise ConfigError(
                    f"{path} line {lineno}: {len(values)} columns, "
                    f"expected {len(CSV_HEADER)}")
            row = dict(zip(CSV_HEADER, values))
            try:
                for f in _INT_FIELDS:
                    row[f] = int(row[f])
                for f in _FLOAT_FIELDS:
                    row[f] = float(row[f])
                row["converged"] = {"True": True, "False": False}[row["converged"]]
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"{path} line {lineno}: {exc}") from None
            if not 0.0 <= row["overhead_frac"] <= 1.0:
                raise ConfigError(
                    f"{path} line {lineno}: overhead_frac out of range")
            if row["procs"] < 1:
                raise ConfigError(f"{path} line {lineno}: procs must be >= 1")
            for c in _VT_COLUMNS:
                if row[c] < 0:
                    raise ConfigError(f"{path} line {lineno}: {c} is negative")
            rows.append(row)
    return rows


def _row_time(row: dict) -> float:
    return sum(row[c] for c in _VT_COLUMNS) / row["procs"]


def summarize(rows: list[dict]) -> list[dict]:
    """Aggregate per (method, procs, k); speedup against min-procs baseline."""
    if not rows:
        raise ConfigError("no rows to summarize")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["procs"], row["k"]), []).append(row)

    # baseline per (method, k): smallest-procs group with nonzero simulated
    # time; plain runs have no tick ledger and cannot anchor a speedup
    baselines: dict[tuple, tuple[int, float]] = {}
    for (method, procs, k), members in groups.items():
        key = (method, k)
        t = sum(_row_time(r) for r in members) / len(members)
        if t > 0 and (key not in baselines or procs < baselines[key][0]):
            baselines[key] = (procs, t)

    out = []
    for (method, procs, k) in sorted(groups):
        members = groups[(method, procs, k)]
        t = sum(_row_time(r) for r in members) / len(members)
        base_t = baselines.get((method, k), (procs, t))[1]
        out.append({
            "method": method, "procs": procs, "k": k, "runs": len(members),
            "iterations_mean": sum(r["iterations"] for r in members) / len(members),
            "converged_all": all(r["converged"] for r in members),
            "recoveries_total": sum(r["recoveries"] for r in members),
            "overhead_mean": sum(r["overhead_frac"] for r in members) / len(members),
            "time_mean": t,
            "speedup": (base_t / t) if t else 1.0,
        })
    return out


def write_summary(path: str | Path, rows: list[dict]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
