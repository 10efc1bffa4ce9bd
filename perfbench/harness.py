"""Closed-loop load generator: one client, one request at a time, whole deck passes.

A workload is a *deck*: a list of requests drawn once from the seed.  The
timed loop sends the deck in order, pass after pass, and stops at the end
of the first pass that finishes after ``seconds`` with at least
``MIN_REQUESTS`` requests done.  Ending on a pass boundary keeps the
request mix of every run identical, so a run's throughput and latency
quantiles depend on the seed's draws and not on where the clock happened
to stop.

On a shared host the CPU alternates between states up to ~1.7x apart,
for a fraction of a second to minutes at a time, and the share of slow
time in a run would otherwise set its numbers.  So every
``CALIBRATE_EVERY_S`` the loop times ``calibration_kernel``, fixed
pure-Python work (rationals, tuples, dicts, JSON, regular expressions)
that does not touch the program, and each latency is scaled by
``KERNEL_REF_S`` over the median of the last three kernel times.  The
timing metrics are thus in seconds of a machine on which the kernel takes
``KERNEL_REF_S`` (its typical time on a 2-vCPU x86-64 VM under Python 3.11).  A change to the
program moves the latencies and not the kernel, so it shows in full.

Outputs are checked after the loop, outside the timed region: the first
pass against the workload's independent reference, later passes for
equality with the first.  The loop keeps the first pass's outputs; a later
output equal to its first-pass counterpart is kept as ``SAME``, so that
the measuring process's memory does not grow with the number of passes
(and so with the machine's speed).
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

MIN_REQUESTS = 100
DEADLINE_S = 30.0
KERNEL_REF_S = 0.007
CALIBRATE_EVERY_S = 0.25
_TERM = re.compile(r"([a-z]+)\^(\d+)")


@dataclass
class Request:
    kind: str
    label: str
    call: Callable[[], Any]
    # returns None when the output is right, else a one-line reason
    check: Callable[[Any], str | None]
    args: tuple = field(default=())


def first_of_each_kind(requests: list[Request], skip: tuple[str, ...] = ()) -> list[Request]:
    """The warm-up: the first request of each kind, taken in build order
    before the deck is shuffled, so that its cost does not turn on the
    shuffle and ``setup_s`` moves little with the seed."""
    first: dict[str, Request] = {}
    for req in requests:
        if req.kind not in skip:
            first.setdefault(req.kind, req)
    return list(first.values())


SAME = object()  # a later-pass output equal to the first pass's


class DeadlineExceeded(Exception):
    pass


@dataclass
class Failed:
    """Stand-in output of a request that raised or passed its deadline."""

    reason: str


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn, seconds: float):
    """Run ``fn`` with a SIGALRM deadline (main thread only)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def send(req: Request, deadline: float):
    try:
        return call_with_deadline(req.call, deadline)
    except DeadlineExceeded:
        return Failed(f"passed the {deadline:g}s deadline")
    except Exception as exc:  # a request that raises is a failed request
        return Failed(f"raised {type(exc).__name__}: {exc}")


def calibration_kernel() -> int:
    """Fixed work of the kinds the program does, without the program."""
    s = Fraction(0)
    d = {}
    for i in range(1, 700):
        s += Fraction(i * 7919 % 1009, i + 1)
        d[(i % 97, i % 13)] = (s.numerator % 1000003, s.denominator % 997)
    for i in range(300):
        text = json.dumps({"k": i, "v": [str(i), f"x^{i % 7}"]}, sort_keys=True)
        d[i] = _TERM.findall(text + " a^3 + b^2")
    return len(d)


@dataclass
class LoopResult:
    latencies: list[float]  # as measured
    scales: list[float]  # reference seconds per measured second, per send
    outputs: list[Any]  # the first pass, then each later output or SAME
    wall_s: float
    passes: int

    def scaled(self) -> list[float]:
        return [x * s for x, s in zip(self.latencies, self.scales)]


def timed_loop(deck: list[Request], seconds: float, *, passes: int | None = None,
               deadline: float = DEADLINE_S, on_request=None, same=None) -> LoopResult:
    """Send the deck pass after pass.  With ``passes`` given, run exactly
    that many passes (the traced replay); otherwise run until ``seconds``
    have passed and ``MIN_REQUESTS`` requests are done.  ``same(a, b)``
    compares a later output with the first pass's (default: ``==``)."""
    same = same or same_output
    n = len(deck)
    clock = time.perf_counter
    latencies: list[float] = []
    scales: list[float] = []
    outputs: list[Any] = []
    kernel_s: deque[float] = deque(maxlen=3)
    last_kernel = float("-inf")
    done = 0
    t0 = clock()
    while True:
        for req in deck:
            if on_request is not None:
                on_request(len(outputs))
            s = clock()
            if s - last_kernel >= CALIBRATE_EVERY_S:
                calibration_kernel()
                last_kernel = clock()
                kernel_s.append(last_kernel - s)
                s = last_kernel
            out = send(req, deadline)
            latencies.append(clock() - s)
            scales.append(KERNEL_REF_S / statistics.median(kernel_s))
            if done and same(out, outputs[len(outputs) % n]):
                out = SAME
            outputs.append(out)
        done += 1
        elapsed = clock() - t0
        if passes is not None:
            if done >= passes:
                break
        elif elapsed >= seconds and len(outputs) >= MIN_REQUESTS:
            break
    return LoopResult(latencies, scales, outputs, clock() - t0, done)


def check_outputs(deck: list[Request], outputs: list[Any], reference: list[Any] | None = None,
                  reference_ok: list[bool] | None = None) -> dict[int, str]:
    """Failure reasons by output index.  Without ``reference`` the first
    pass is checked against the workload's oracle and later passes must
    equal it; with it (first-pass outputs of an earlier loop, and whether
    each passed) every output must equal its reference."""
    n = len(deck)
    failures: dict[int, str] = {}
    start = 0
    if reference is None:
        reference, reference_ok, start = outputs[:n], [], n
        for i, req in enumerate(deck):
            out = reference[i]
            reason = out.reason if isinstance(out, Failed) else _safe_check(req, out)
            reference_ok.append(reason is None)
            if reason is not None:
                failures[i] = reason
    for idx in range(start, len(outputs)):
        i = idx % n
        out = outputs[idx]
        if out is SAME:
            out = outputs[i]
        if isinstance(out, Failed):
            failures[idx] = out.reason
        elif not (reference_ok[i] and same_output(out, reference[i])):
            reason = _safe_check(deck[i], out)
            if reason is not None:
                failures[idx] = reason
    return failures


def same_output(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return False


def _safe_check(req: Request, out) -> str | None:
    try:
        return req.check(out)
    except Exception as exc:  # a check that cannot parse the output fails it
        return f"check raised {type(exc).__name__}: {exc}"


def report_failures(deck: list[Request], failures: dict[int, str], where: str) -> None:
    n = len(deck)
    for idx in sorted(failures)[:20]:
        req = deck[idx % n]
        print(f"DEFECT [{where}] request {idx} {req.kind} {req.label}: {failures[idx]}",
              file=sys.stderr)
    if len(failures) > 20:
        print(f"DEFECT [{where}] ... {len(failures) - 20} more", file=sys.stderr)


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]
