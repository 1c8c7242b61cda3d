"""One set-up of a workload: import kmft, make the blobs, round-trip a KMDS file.

``run.py`` calls ``timed_setup`` in its own process for the data it times,
then starts this file as a script for the other set-up samples, each in a
fresh interpreter so that the import is paid every time:

    python3 perfbench/setup_probe.py WORKLOAD SEED PATH

prints the seconds the set-up took and the same scaled to the reference
host (see hostspeed.py), and exits 1 if the file read back differs from the
generated samples.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

from hostspeed import kernel_seconds, scale
from workloads import WORKLOADS, Workload

SRC = Path(__file__).resolve().parent.parent / "src"


class MissingProgram(Exception):
    """The checkout holds no kmft sources to benchmark."""


def check_sources() -> None:
    """Put the checkout's sources first on the path, or raise."""
    if not (SRC / "kmft" / "__init__.py").is_file():
        raise MissingProgram(f"no kmft package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def timed_setup(wl: Workload, seed: int, path: Path):
    """Returns (seconds, seconds scaled to the reference host, the dataset
    read back from the file)."""
    check_sources()
    before = kernel_seconds()
    t0 = time.perf_counter()
    kmft = importlib.import_module("kmft")
    data, _ = kmft.make_blobs(wl.n, wl.d, wl.blobs, wl.spread, seed)
    kmft.write_dataset(path, data)
    back = kmft.read_dataset(path)
    elapsed = time.perf_counter() - t0
    scaled = scale(elapsed, before, kernel_seconds())
    if not Path(kmft.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingProgram(f"kmft was imported from {kmft.__file__}, not {SRC}")
    if back.values.shape != data.values.shape or not (back.values == data.values).all():
        raise ValueError(f"{path}: dataset changed in the KMDS round trip")
    return elapsed, scaled, back


if __name__ == "__main__":
    name, seed, path = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    try:
        seconds, scaled, _ = timed_setup(WORKLOADS[name], seed, path)
    except (MissingProgram, ValueError) as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        sys.exit(1)
    finally:
        path.unlink(missing_ok=True)
    print(repr(seconds), repr(scaled))
