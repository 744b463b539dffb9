"""Host-speed probe: timings expressed at a reference host speed.

On a shared 2-vCPU host the same few lines of Python take anywhere from
110 to 200 us from one second to the next, and process CPU time moves
with wall time, so the swings are the host's (neighbours on the same
cores), not steal.  Served throughput tracks them: over 1 s windows of a
``batch-conj`` run, the window throughput correlates 0.65-0.85 with the
speed of a fixed piece of interpreter work timed in another process at
the same moment.

:class:`HostSpeed` runs that probe in a child process: every
:data:`PERIOD_S` it times :func:`_work` (dict and string work, no
allocation-heavy or I/O step) and keeps ``(start ns, duration ns)``.
It is a separate process so that the server's own threads, which share
the benchmark process's GIL, can never slow the probe: only the host
can.  It is busy about 1% of one core.

:meth:`HostSpeed.slowdown` is the probe's median duration over an
interval divided by :data:`REFERENCE_NS`; a time measured in that
interval divided by the slowdown (a rate multiplied by it) is the
figure at the reference speed.  A change to the program moves the
measured time and not the probe, so it shows in full.

Timestamps on both sides are ``time.perf_counter_ns()``, which on Linux
reads the system-wide ``CLOCK_MONOTONIC``.
"""

from __future__ import annotations

import select
import subprocess
import sys
import time

import numpy as np

__all__ = ["PERIOD_S", "REFERENCE_NS", "HostSpeed"]

#: Time between two probes.
PERIOD_S = 0.01

#: Median probe duration on the 2-vCPU reference host at a quiet time;
#: it only sets the scale of the normalised figures.
REFERENCE_NS = 120_000.0


def _work() -> int:
    """The fixed piece of work the probe times."""
    table: dict[str, int] = {}
    for i in range(150):
        key = "k%d" % (i % 37)
        table[key] = table.get(key, 0) + i * 3 % 7
    return len(table)


def _probe() -> None:
    """Child process: probe until standard input closes, then print one
    ``start duration`` line per probe."""
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.perf_counter_ns()
        _work()
        samples.append(f"{start} {time.perf_counter_ns() - start}")
    sys.stdout.write("\n".join(samples) + "\n")


class HostSpeed:
    """The probe process of one benchmark run (a context manager).

    Start it before anything is timed; after :meth:`stop` (or leaving
    the ``with`` block), :meth:`slowdown` covers every interval between
    start and stop.
    """

    def __init__(self) -> None:
        self._process: subprocess.Popen | None = None
        self._starts = np.zeros(0, dtype=np.int64)
        self._durations = np.zeros(0, dtype=np.float64)

    def __enter__(self) -> "HostSpeed":
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """End the probe process and collect its samples."""
        process, self._process = self._process, None
        if process is None:
            return
        try:
            out, _ = process.communicate(input="stop\n", timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        rows = np.array([line.split() for line in out.splitlines()],
                        dtype=np.int64).reshape(-1, 2)
        if process.returncode != 0 or len(rows) == 0:
            raise RuntimeError("the host-speed probe recorded nothing")
        self._starts, self._durations = rows[:, 0], rows[:, 1].astype(float)

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """Median probe duration in ``[start_ns, end_ns)`` over
        :data:`REFERENCE_NS` (all probes if none fell inside)."""
        inside = (self._starts >= start_ns) & (self._starts < end_ns)
        durations = self._durations[inside] if inside.any() \
            else self._durations
        return float(np.median(durations)) / REFERENCE_NS


if __name__ == "__main__":
    _probe()
