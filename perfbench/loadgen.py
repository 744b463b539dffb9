"""Closed-loop load generator with an output oracle.

:data:`CLIENTS` client thread(s) in the benchmark process each hold one
keep-alive :class:`~repro.serve.client.ServeClient` connection and send
their next request as soon as the previous answer arrives (zero think
time): an optimizer waits for every estimate.  The clients share one
cursor over the workload's request sequence.

Timings are reported at the reference host speed of
:mod:`perfbench.hostspeed`: each window's figures are scaled by the
probe's slowdown over that window.

Every answer is checked against the :class:`Oracle`: each served
estimate must equal the reference estimate bit for bit, and each
feedback q-error must equal :func:`repro.metrics.qerror` of the floored
values.  A non-2xx answer or a transport error fails every operation of
its request; a wrong answer fails its own statement and prints it.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.estimators.base import CardinalityEstimator
from repro.metrics import qerror
from repro.serve.client import ServeClient, ServeClientError
from repro.sql.parser import parse_query

from perfbench.hostspeed import HostSpeed
from perfbench.layers import SpanRecorder
from perfbench.workloads import Workload

__all__ = ["CLIENTS", "Oracle", "Phase", "drive", "serve_rest", "warm_up"]

#: Closed-loop clients: one optimizer session.  The clients share the
#: server's GIL, and two of them on the 2-core reference host made a
#: bistable loop: runs settled at either about 240 or about 400
#: ``point-conj`` ops/s, and ``batch-conj`` ran 15-25% slower than
#: with one client.  One client keeps the server's threads a chain.
CLIENTS = 1

#: Throughput and latency percentiles are medians over windows of
#: this length, each scaled by the host's slowdown in it: a slow host
#: phase of a few seconds moves one or two windows, not the figure.
WINDOW_S = 1.0

#: Failures printed per client (all are counted).
_MAX_REPORTED = 10


class Oracle:
    """Reference estimates and executor truth of a workload's pool.

    The reference of every statement is computed one statement at a
    time through the estimator's own ``estimate_batch`` on a freshly
    parsed query, on an estimator copy the service never touches: no
    plan cache, no stitched encode, no batch shared with other
    statements.  Pass an uncompiled copy, so the reference walks the
    per-tree loop rather than the packed forest the service predicts
    with.
    """

    def __init__(self, workload: Workload,
                 reference: CardinalityEstimator) -> None:
        self.truths = workload.truths
        self.estimates = tuple(
            float(reference.estimate_batch([parse_query(sql)])[0])
            for sql in workload.statements)

    def feedback_qerror(self, index: int, served: float) -> float:
        return float(qerror(max(float(self.truths[index]), 1.0),
                            max(served, 1.0)))


@dataclass
class Phase:
    """What one timed phase observed."""

    seconds: float
    #: ``time.perf_counter_ns()`` when the phase started.
    start_ns: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    #: ``(ns since the phase started, latency ms)`` per answered request.
    estimate_ms: list[tuple[int, float]] = field(default_factory=list)
    feedback_ms: list[tuple[int, float]] = field(default_factory=list)
    #: ``(ns since the phase started, good ops)`` per answered request.
    completions: list[tuple[int, int]] = field(default_factory=list)
    #: Pool indices answered correctly at least once.
    served: set[int] = field(default_factory=set)
    client_cpu_ns: int = 0
    process_cpu_s: float = 0.0

    def _windows(self, samples: list[tuple[int, float]]) -> list[list]:
        """``samples`` split by :data:`WINDOW_S` window; a partial last
        window is dropped."""
        windows: list[list] = [[] for _ in
                               range(max(1, int(self.seconds // WINDOW_S)))]
        for offset_ns, value in samples:
            window = int(offset_ns / 1e9 // WINDOW_S)
            if window < len(windows):
                windows[window].append(value)
        return windows

    def _slowdowns(self, speed: HostSpeed | None) -> list[float]:
        """The host's slowdown in each window (1 without a probe)."""
        count = len(self._windows([]))
        if speed is None:
            return [1.0] * count
        step = int(WINDOW_S * 1e9)
        return [speed.slowdown(self.start_ns + i * step,
                               self.start_ns + (i + 1) * step)
                for i in range(count)]

    def throughput(self, speed: HostSpeed | None = None) -> float:
        """Median over full windows of good operations per second, at
        the reference speed when ``speed`` is given."""
        counts = [sum(window) * slowdown for window, slowdown in
                  zip(self._windows(self.completions),
                      self._slowdowns(speed))]
        return float(np.median(counts)) / WINDOW_S

    def latency_percentiles(self, samples: list[tuple[int, float]],
                            speed: HostSpeed | None = None
                            ) -> tuple[float, float]:
        """Medians over full windows of each window's p50 and p95 (ms),
        at the reference speed when ``speed`` is given; ``(0, 0)``
        without samples."""
        per_window = [np.percentile(window, [50, 95]) / slowdown
                      for window, slowdown in
                      zip(self._windows(samples), self._slowdowns(speed))
                      if window]
        if not per_window:
            return 0.0, 0.0
        p50, p95 = np.median(np.asarray(per_window), axis=0)
        return float(p50), float(p95)

    def merge(self, other: "Phase") -> None:
        """Add a client's observations to this phase."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.estimate_ms.extend(other.estimate_ms)
        self.feedback_ms.extend(other.feedback_ms)
        self.completions.extend(other.completions)
        self.served |= other.served
        self.client_cpu_ns += other.client_cpu_ns


class _Client(threading.Thread):
    def __init__(self, url: str, workload: Workload, oracle: Oracle,
                 cursor, phase: Phase, lock: threading.Lock,
                 start_ns: int, deadline_ns: int,
                 recorder: SpanRecorder | None) -> None:
        super().__init__(name="perfbench-client", daemon=True)
        self._url = url
        self._workload = workload
        self._oracle = oracle
        self._cursor = cursor
        self._phase = phase
        self._lock = lock
        self._start_ns = start_ns
        self._deadline_ns = deadline_ns
        self._recorder = recorder
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # re-raised by drive()
            self.error = exc

    def _loop(self) -> None:
        workload = self._workload
        requests = workload.requests
        local = Phase(self._phase.seconds)
        cpu_start = time.thread_time_ns()
        with ServeClient(self._url, timeout=30.0) as client:
            while time.perf_counter_ns() < self._deadline_ns:
                indices = requests[next(self._cursor) % len(requests)]
                good = self._estimate(client, indices, local)
                if workload.feedback:
                    for index, served in good:
                        self._feedback(client, index, served, local)
        local.client_cpu_ns = time.thread_time_ns() - cpu_start
        with self._lock:
            self._phase.merge(local)

    def _send(self, call, rows: int, local: Phase,
              latencies: list[tuple[int, float]]):
        """Time one request; ``None`` (and ``rows`` failures) on error."""
        trace_id = obs.mint_trace_id()
        local.attempted += rows
        start = time.perf_counter_ns()
        try:
            if self._recorder is None:
                response = call(trace_id)
            else:
                with self._recorder.client_request(trace_id, rows):
                    response = call(trace_id)
        except ServeClientError as exc:
            local.failed += rows
            if local.failed - rows < _MAX_REPORTED:
                print(f"perfbench: request failed: {exc}", file=sys.stderr)
            return None, 0
        end = time.perf_counter_ns()
        latencies.append((end - self._start_ns, (end - start) / 1e6))
        return response, end

    def _estimate(self, client: ServeClient, indices: tuple[int, ...],
                  local: Phase) -> list[tuple[int, float]]:
        statements = self._workload.statements
        if self._workload.batch:
            response, end = self._send(
                lambda trace_id: client.estimate_batch(
                    [statements[i] for i in indices], trace_id=trace_id),
                len(indices), local, local.estimate_ms)
        else:
            response, end = self._send(
                lambda trace_id: [client.estimate(
                    statements[indices[0]], trace_id=trace_id)["estimate"]],
                1, local, local.estimate_ms)
        if response is None:
            return []
        if len(response) != len(indices):
            local.failed += len(indices)
            print(f"perfbench: {len(response)} estimates for "
                  f"{len(indices)} statements", file=sys.stderr)
            return []
        good = []
        for index, served in zip(indices, response):
            if served == self._oracle.estimates[index]:
                good.append((index, served))
                local.served.add(index)
            else:
                self._mismatch(local, index, f"estimate {served!r} != "
                               f"reference {self._oracle.estimates[index]!r}")
        local.completions.append((end - self._start_ns, len(good)))
        return good

    def _feedback(self, client: ServeClient, index: int, served: float,
                  local: Phase) -> None:
        response, end = self._send(
            lambda trace_id: client.feedback(
                self._workload.statements[index],
                self._oracle.truths[index], estimate=served,
                trace_id=trace_id),
            1, local, local.feedback_ms)
        if response is None:
            return
        expected = self._oracle.feedback_qerror(index, served)
        if response.get("qerror") != expected \
                or response.get("estimate") != served:
            self._mismatch(local, index, f"feedback {response!r} != qerror "
                           f"{expected!r} for estimate {served!r}")
            return
        local.completions.append((end - self._start_ns, 1))

    def _mismatch(self, local: Phase, index: int, detail: str) -> None:
        local.failed += 1
        local.mismatches += 1
        if local.mismatches <= _MAX_REPORTED:
            print(f"perfbench: WRONG ANSWER ({detail}): "
                  f"{self._workload.statements[index]}", file=sys.stderr)


def drive(url: str, workload: Workload, oracle: Oracle, seconds: float,
          cursor: itertools.count,
          recorder: SpanRecorder | None = None) -> Phase:
    """Run the closed loop for ``seconds``; returns the merged phase.

    ``cursor`` continues across phases, so warm-up, untraced and
    traced phases walk one request sequence.
    """
    lock = threading.Lock()
    cpu_start = time.process_time()
    start_ns = time.perf_counter_ns()
    phase = Phase(seconds, start_ns)
    deadline_ns = start_ns + int(seconds * 1e9)
    clients = [_Client(url, workload, oracle, cursor, phase, lock, start_ns,
                       deadline_ns, recorder) for _ in range(CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=seconds + 60.0)
    phase.wall_s = (time.perf_counter_ns() - start_ns) / 1e9
    phase.process_cpu_s = time.process_time() - cpu_start
    for client in clients:
        if client.is_alive():
            raise RuntimeError("a client thread did not finish")
        if client.error is not None:
            raise RuntimeError("a client thread crashed") from client.error
    return phase


def warm_up(url: str, workload: Workload, cursor: itertools.count,
            requests: int) -> None:
    """Send ``requests`` requests (with their feedback) from one client,
    so caches fill and lazy set-up finishes before anything is timed."""
    statements = workload.statements
    with ServeClient(url, timeout=30.0) as client:
        for _ in range(requests):
            indices = workload.requests[next(cursor) % len(workload.requests)]
            if not workload.batch:
                client.estimate(statements[indices[0]])
                continue
            served = client.estimate_batch([statements[i] for i in indices])
            if workload.feedback:
                for index, estimate in zip(indices, served):
                    client.feedback(statements[index],
                                    workload.truths[index], estimate=estimate)


def serve_rest(url: str, workload: Workload, oracle: Oracle,
               served: set[int]) -> int:
    """Serve, through ``/v1/estimate_batch``, every pool statement the
    timed phase did not answer; returns how many differ from the
    reference (each printed).

    Afterwards every statement of the pool has been served and checked,
    so the q-error metrics, taken over the reference estimates the
    served ones equal, cover the whole pool and are fixed by the seed.
    """
    statements = workload.statements
    rest = [i for i in range(len(statements)) if i not in served]
    wrong = 0
    with ServeClient(url, timeout=30.0) as client:
        for start in range(0, len(rest), 64):
            indices = rest[start:start + 64]
            answers = client.estimate_batch([statements[i] for i in indices])
            for index, value in zip(indices, answers):
                if value != oracle.estimates[index]:
                    wrong += 1
                    if wrong <= _MAX_REPORTED:
                        print(f"perfbench: WRONG ANSWER (estimate "
                              f"{value!r} != reference "
                              f"{oracle.estimates[index]!r}): "
                              f"{statements[index]}", file=sys.stderr)
    return wrong
