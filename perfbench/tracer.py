"""Outside-in tracer for kmft: splits host wall time across modules.

The tracer patches public kmft functions and methods for the duration of a
``with Tracer():`` block and puts every original back on exit, so nothing
under ``src/`` changes and untraced calls run with tracing fully off.

Three kinds of wrapper are installed:

* span - a library function (``kmeans.pairwise_sqdist``,
  ``checkpoint.start``, ...).  Its self time is its duration minus the
  durations of the spans and simulator ops it called.
* op - a ``RankContext`` method, the program's only way into the simulator.
  An op's duration includes time other ranks run, because deterministic mode
  hands the baton on inside the op; it is only ever subtracted, never
  attributed.
* sim - ``spawn_world`` and ``ClusterHandle.run`` on the calling thread.
  ``ClusterHandle.run`` also wraps each rank program, so the tracer knows
  how long every rank thread spent in its program.

The split rests on the deterministic scheduler running exactly one rank
thread at a time: the time rank threads spend between returning from one op
and entering the next sums without overlap and is program time.  Everything
else inside ``spawn_world`` and ``ClusterHandle.run`` is simulator time.
Time on the calling thread outside those two calls (the drivers' prologue,
result assembly, the objective) is program time too.  By construction
``program_ns + sim_ns == wall_ns``.

Counts are kept per thread and merged on exit; in deterministic mode they
repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

_now = time.perf_counter_ns

# (module, attribute) of every library function timed as a span
SPANS = (
    ("kmeans", "pairwise_sqdist"),
    ("kmeans", "init_centroids"),
    ("kmeans", "objective"),
    ("parallel", "centers_compute"),
    ("parallel", "centers_recompute"),
    ("parallel", "merge_incoming"),
    ("parallel", "samples_compute"),
    ("parallel", "samples_partials"),
    ("parallel", "samples_divide"),
    ("parallel", "encode_records"),
    ("parallel", "decode_records"),
    ("checkpoint", "encode_snapshot"),
    ("checkpoint", "decode_snapshot"),
    ("checkpoint", "Checkpointer.start"),
    ("checkpoint", "Checkpointer.commit"),
    ("checkpoint", "Checkpointer.fetch"),
    ("checkpoint", "Checkpointer.adopt"),
    ("runtime", "detect_failures"),
    ("datasets", "make_blobs"),
    ("datasets", "write_dataset"),
    ("datasets", "read_dataset"),
)

SIM_CALLS = (("simcluster", "spawn_world"), ("simcluster", "ClusterHandle.run"))

# RankContext members that are not simulator operations
_NOT_OPS = frozenset({"phase"})


def _payload_nbytes(value: object) -> int:
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    nbytes = getattr(value, "nbytes", None)
    return nbytes if isinstance(nbytes, int) else 0


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> object:
    """Argument `index` (self included) of a call, positional or by name."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


# -- per-name hooks: derive counts from arguments and results ----------------

def _count_pairs(log, args, kwargs, result, parent):
    points = _arg(args, kwargs, 0, "points")
    centers = _arg(args, kwargs, 1, "centers")
    log.counts["kmeans.pairwise_sqdist.pairs"] += len(points) * len(centers)


def _count_records(log, args, kwargs, result, parent):
    log.counts["parallel.encode_records.records"] += len(_arg(args, kwargs, 0, "pairs"))


def _count_moved(log, args, kwargs, result, parent):
    log.counts["parallel.records_moved"] += sum(len(v) for v in result.outgoing.values())


def _count_snapshot(log, args, kwargs, result, parent):
    log.counts["checkpoint.snapshot_bytes"] += len(result)


def _count_commit(log, args, kwargs, result, parent):
    if getattr(result, "name", None) == "OK":
        log.counts["checkpoint.commit.ok"] += 1


def _count_detect(log, args, kwargs, result, parent):
    if result:
        log.counts["runtime.detect_failures.positive"] += 1


def _payload_hook(index: int, name: str):
    def hook(log, args, kwargs, result, parent):
        log.counts["simcluster.payload_bytes"] += _payload_nbytes(
            _arg(args, kwargs, index, name))
    return hook


def _count_remote_read(log, args, kwargs, result, parent):
    log.counts["simcluster.payload_bytes"] += len(result)
    if parent == "checkpoint.fetch":
        log.counts["checkpoint.fetch.mirror_reads"] += 1


_HOOKS = {
    "kmeans.pairwise_sqdist": _count_pairs,
    "parallel.encode_records": _count_records,
    "parallel.centers_compute": _count_moved,
    "checkpoint.encode_snapshot": _count_snapshot,
    "checkpoint.commit": _count_commit,
    "runtime.detect_failures": _count_detect,
    # argument indices count `self`
    "simcluster.send": _payload_hook(2, "payload"),
    "simcluster.write_remote": _payload_hook(4, "payload"),
    "simcluster.broadcast": _payload_hook(3, "payload"),
    "simcluster.reduce_all": _payload_hook(2, "value"),
    "simcluster.read_remote": _count_remote_read,
}


@dataclass
class _ThreadLog:
    """What one thread recorded; only that thread writes to it."""

    stack: list = field(default_factory=list)        # [name, child_ns] frames
    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    op_ns: int = 0            # time inside simulator ops
    program_ns: int = 0       # time inside rank programs, ops included
    sim_ns: int = 0           # time inside spawn_world / ClusterHandle.run


class Tracer:
    """Context manager that traces every kmft call made inside the block."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._span_names = {f"{m}.{a.rpartition('.')[2]}" for m, a in SPANS}
        self._op_names: set[str] = set()
        self._started: int | None = None
        self.wall_ns = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_ns = 0
        self.rank_program_ns = 0
        self.world_sim_ns = 0

    # -- results -------------------------------------------------------------

    @property
    def rank_between_ops_ns(self) -> int:
        """Program time on rank threads: between one op and the next."""
        return self.rank_program_ns - self.op_ns

    @property
    def sim_ns(self) -> int:
        """Simulator time: spawn and run, minus the rank programs' own time."""
        return self.world_sim_ns - self.rank_between_ops_ns

    @property
    def program_ns(self) -> int:
        return self.wall_ns - self.sim_ns

    @property
    def ops(self) -> int:
        return sum(n for name, n in self.calls.items() if name in self._op_names)

    def module_self_ns(self, module: str) -> int:
        """Summed self time of the spans of one module (not simcluster)."""
        prefix = module + "."
        return sum(ns for name, ns in self.self_ns.items()
                   if name in self._span_names and name.startswith(prefix))

    # -- install and remove ------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._started is not None:
            raise RuntimeError("a Tracer can be entered only once")
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        self._started = _now()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_ns = _now() - self._started
        self._uninstall()
        for log in self._logs:
            self.calls.update(log.calls)
            self.self_ns.update(log.self_ns)
            self.counts.update(log.counts)
            self.op_ns += log.op_ns
            self.rank_program_ns += log.program_ns
            self.world_sim_ns += log.sim_ns

    def _install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kmft" or name.startswith("kmft.")]
        for mod_name, attr in SPANS:
            self._patch(modules, mod_name, attr, self._span)
        for mod_name, attr in SIM_CALLS:
            self._patch(modules, mod_name, attr, self._sim)
        simcluster = importlib.import_module("kmft.simcluster")
        ctx_cls = simcluster.RankContext
        for attr, value in list(vars(ctx_cls).items()):
            if attr.startswith("_") or attr in _NOT_OPS or not callable(value):
                continue
            name = f"simcluster.{attr}"
            self._op_names.add(name)
            self._set(ctx_cls, attr, self._op(name, value))

    def _patch(self, modules, mod_name: str, attr: str, make) -> None:
        """Wrap `attr` of kmft.<mod_name> wherever the package binds it.

        A name this version of kmft does not define is left out; its
        metrics read 0 and its time stays with its caller.
        """
        owner = importlib.import_module(f"kmft.{mod_name}")
        cls_name, _, meth = attr.rpartition(".")
        name = f"{mod_name}.{meth}"
        if cls_name:
            cls = getattr(owner, cls_name, None)
            if cls is not None and meth in vars(cls):
                self._set(cls, meth, make(name, vars(cls)[meth]))
            return
        original = getattr(owner, meth, None)
        if original is None:
            return
        wrapper = make(name, original)
        for mod in modules:       # `from .x import f` copies the binding
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner: object, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
            return log

    def _span(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            log = self._log()
            stack = log.stack
            frame = [name, 0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                log.calls[name] += 1
                log.self_ns[name] += dur - frame[1]
            if hook is not None:
                hook(log, args, kwargs, result, stack[-1][0] if stack else None)
            return result
        return span

    def _op(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def op(*args, **kwargs):
            log = self._log()
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                log.op_ns += dur
                if log.stack:
                    log.stack[-1][1] += dur
                log.calls[name] += 1
            if hook is not None:
                stack = log.stack
                hook(log, args, kwargs, result, stack[-1][0] if stack else None)
            return result
        return op

    def _sim(self, name: str, fn):
        def timed_program(program):
            @functools.wraps(program)
            def rank_program(ctx):
                log = self._log()
                t0 = _now()
                try:
                    return program(ctx)
                finally:
                    log.program_ns += _now() - t0
            return rank_program

        @functools.wraps(fn)
        def sim(*args, **kwargs):
            if name == "simcluster.run":
                programs = _arg(args, kwargs, 1, "programs")
                args = (args[0], {r: timed_program(p) for r, p in programs.items()},
                        *args[2:])
                kwargs.pop("programs", None)
            log = self._log()
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                log.sim_ns += dur
                if log.stack:
                    log.stack[-1][1] += dur
                log.calls[name] += 1
                log.self_ns[name] += dur      # nothing is nested on this thread
        return sim
