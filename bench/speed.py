"""In-process sampling of the machine's speed, to rescale measured times.

On a shared host the speed at which this process runs changes by up to
1.8x within seconds and stays changed for minutes, while a pass takes tens
of seconds, so two runs of the same code can differ by more than any
useful regression bound.  `SpeedSampler` samples that speed while the
measured work runs: every `interval_s` of process CPU time a SIGPROF
handler times a fixed kernel.  A stretch of CPU time `t` with kernel
samples `s_i` is reported as `t * mean(reference_s / s_i)`: the seconds it
would have taken at the speed where the kernel takes `reference_s`.
Samples fall evenly in CPU time, so the mean speed over them weights every
stretch of the run by its length.

Two kernels, each like the work it rescales (speed regimes of the host
slow different kinds of work by different factors):

* `INTERPRETER`: object construction, attribute access, dict stores,
  integer arithmetic and calls of a small Python function, the
  interpreter work that dominates dichospec's loops over tiny matrices.
  Used for the passes.
* `LOADER`: unmarshalling a module's code objects, the bulk of importing
  numpy and dichospec.  Used for set-up.

The handler's own time is measured and left out of the rescaled time.
Neither kernel depends on dichospec, so a change to the package moves the
rescaled time exactly as it moves the CPU time at a fixed speed.
"""
from __future__ import annotations

import gc
import marshal
import signal
import time
from array import array
from dataclasses import dataclass
from typing import Callable


class _Cell:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


def _step(a: float, b: float) -> float:
    return a * b + 1.0


def _interpreter_kernel() -> None:
    slots, acc = {}, 0
    for i in range(300):
        cell = _Cell(i)
        slots[i & 15] = cell
        acc += cell.x * 2
    x = 0.0
    for _ in range(750):
        x = _step(x * 0.5, 1.0001)


_MODULE_CODE = marshal.dumps(compile("\n".join(
    f"def f{i}(a, b=({i}, 'x{i}', {i}.5)):\n"
    f"    c = [a, b, '{i}']\n"
    f"    return a + b[0] * {i} if c else None\n" for i in range(60)), "<loader kernel>", "exec"))


def _loader_kernel() -> None:
    marshal.loads(_MODULE_CODE)


@dataclass(frozen=True)
class Kernel:
    """A kernel, how often to sample it, and its time at the reference speed.

    The reference times are about the kernels' median samples, taken
    during the work they rescale, on the 2-core x86-64 box the benchmark
    was defined on; they only fix the unit.
    """

    run: Callable[[], None]
    interval_s: float
    reference_s: float


INTERPRETER = Kernel(_interpreter_kernel, 0.01, 230e-6)
LOADER = Kernel(_loader_kernel, 0.005, 180e-6)


class SpeedSampler:
    """Samples a kernel's time on SIGPROF between `start` and `stop`.

    `mark()` returns a point to measure from; `cpu_since(mark)` gives the
    process CPU seconds since then without the handler's time,
    `speed_since(mark)` the mean speed relative to the reference, and
    `reference_seconds(mark)` their product.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples = array("d")
        self.handler_s = 0.0
        self._previous = None

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, self.kernel.interval_s, self.kernel.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def _handle(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the heap, not the machine
        t1 = time.perf_counter()
        self.kernel.run()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        self.handler_s += time.perf_counter() - t0

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), time.process_time(), self.handler_s

    def cpu_since(self, mark: tuple[int, float, float]) -> float:
        _, cpu0, handler0 = mark
        return (time.process_time() - cpu0) - (self.handler_s - handler0)

    def speed_since(self, mark: tuple[int, float, float]) -> float:
        """Mean speed over the samples since mark (over all when there are none since)."""
        window = self.samples[mark[0]:] or self.samples
        if not window:
            raise RuntimeError("no speed samples taken; start the sampler first")
        return sum(self.kernel.reference_s / s for s in window) / len(window)

    def reference_seconds(self, mark: tuple[int, float, float]) -> float:
        return self.cpu_since(mark) * self.speed_since(mark)
