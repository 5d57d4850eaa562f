"""CPU seconds of a pass, with the host's speed taken out.

The benchmark's host is a shared VM whose speed moves with its
neighbours' load.  The same search pass took 9-11 s of wall time in one
minute and 13-16 s a few minutes later, and its CPU time moved almost as
much (15-19 s against 22-27 s).  Two measures take most of that out of
the solver-bound timings:

* CPU time instead of wall time.  The kernel accounts CPU time without
  the time the hypervisor gave this VM's CPUs to other guests (steal
  time), which is most of the wall-time noise.
* A speed probe: while a pass runs, a thread times a fixed snippet of
  pure-Python work every few milliseconds, in CPU time.  The pass's CPU
  seconds are scaled by ``REFERENCE_SNIPPET_S / mean snippet time``, so
  they read as CPU seconds on a host that runs the snippet in
  :data:`REFERENCE_SNIPPET_S`.  The probe's own CPU time is left out of
  the pass.  The snippet runs no code of the program, so a change to the
  program cannot move it.

Both the benchmark process and the service's worker processes are
counted: a child's CPU time is read from ``/proc/<pid>/stat`` while it
still runs.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import threading
import time

#: CPU seconds the snippet takes on the host the baseline was recorded
#: on (a 2-vCPU shared VM) when no neighbour slows it down.
REFERENCE_SNIPPET_S = 1.2e-3
#: Iterations of the snippet's loop.
SNIPPET_LOOPS = 20_000
#: Seconds between two snippets: the probe costs about 3% of one CPU.
PROBE_PERIOD_S = 0.05

_TICKS = os.sysconf("SC_CLK_TCK")


def snippet() -> float:
    """CPU seconds of one fixed piece of pure-Python work."""
    start = time.thread_time()
    x = 0
    for i in range(SNIPPET_LOOPS):
        x += i * i
    return time.thread_time() - start


def children_cpu_s() -> dict[int, float]:
    """CPU seconds so far of each live child process, by pid."""
    seconds = {}
    for child in multiprocessing.active_children():
        try:
            stat = open(f"/proc/{child.pid}/stat").read()
        except OSError:
            continue
        # utime and stime are fields 14 and 15; the command name before
        # them is in parentheses and may hold spaces.
        fields = stat[stat.rindex(")") + 2:].split()
        seconds[child.pid] = (int(fields[11]) + int(fields[12])) / _TICKS
    return seconds


class CpuMeter:
    """Scaled CPU seconds of this process and its children over a block.

    ::

        with CpuMeter() as meter:
            work()
        meter.seconds   # scaled CPU seconds of work()

    Child processes must still run when the block ends; one started
    inside the block counts from its start.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Unscaled CPU seconds of the block.
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._probe_cpu_s = 0.0

    def __enter__(self) -> "CpuMeter":
        self._thread = threading.Thread(target=self._probe, daemon=True)
        self._children = children_cpu_s()
        self._start = time.process_time()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        own = time.process_time() - self._start - self._probe_cpu_s
        children = sum(
            seconds - self._children.get(pid, 0.0)
            for pid, seconds in children_cpu_s().items()
        )
        self.cpu_s = own + children

    def _probe(self) -> None:
        start = time.thread_time()
        # One snippet even for a block shorter than the period.
        self.samples.append(snippet())
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(snippet())
        self._probe_cpu_s = time.thread_time() - start

    @property
    def speed(self) -> float:
        """How much slower than the reference host the block ran."""
        return statistics.fmean(self.samples) / REFERENCE_SNIPPET_S

    @property
    def seconds(self) -> float:
        """CPU seconds of the block, at the reference host's speed."""
        return self.cpu_s / self.speed
