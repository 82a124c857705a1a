"""Speed probes: how fast the machine runs Python and syncs files while a
run works.

The hosts this benchmark runs on are shared. The same Python code runs up
to two and a half times as slow for stretches of seconds to minutes, and an
fsync of one appended line takes from 0.1 ms to over 0.5 ms. Two fixed
probes measure both while the program runs: ``unit`` (pure Python) and ``disk_unit`` (one
appended, fsynced line, as every audit append does). A timed step's CPU time
is scaled by the CPU probe to the speed at which one ``unit`` takes
``REF_S``, and the rest of its time, spent waiting, by the disk probe to the
speed at which one ``disk_unit`` takes ``REF_DISK_S``. Other jobs slow the
probes and the program alike, so the scaled times keep the program's own
cost and lose most of the drift.

This module imports nothing that a fresh interpreter has not loaded at
start, so it can be loaded before the import of slicectl is timed.
"""

import os
import time

# Probe time run after each timed step, as a share of the step's time.
DUTY = 0.25
# CPU time is scaled to the speed at which one unit takes this long; about
# one uncontended core of a 2.1 GHz Xeon with CPython 3.11.
REF_S = 0.001
# Waiting time is scaled to the speed at which one disk unit takes this
# long; about an fsync on an idle virtual disk of the same machine.
REF_DISK_S = 0.0002
# Units run before and after each timed import in a fresh interpreter.
IMPORT_UNITS = 20
# A timed step is scaled by the units that ended within this many seconds
# of it; the machine's speed changes over a few seconds.
WINDOW_S = 1.0
# The disk probe's file starts anew after this many lines, so that it stays
# about as long as the audit logs the program appends to.
DISK_LINES = 1000

_KEYS = 97
_STEPS = 3000
_LINE = "x" * 199 + "\n"


def unit() -> int:
    """Dict updates, string formatting and short-lived tuples, as the program
    does. It keeps almost nothing alive, so it starts no garbage collection
    that the program would otherwise have run."""
    counts = {}
    total = 0
    for i in range(_STEPS):
        key = "k%d" % (i % _KEYS)
        counts[key] = counts.get(key, 0) + i
        pair = (i, key)
        total += len(pair[1]) + (i & 7)
    return total + len(sorted(counts.values()))


def disk_unit(path) -> None:
    """Append one audit-sized line and fsync it, as ``FileAuditLog`` does."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(_LINE)
        handle.flush()
        os.fsync(handle.fileno())


def unit_time(n: int) -> float:
    """Mean seconds of ``n`` units run now."""
    start = time.perf_counter()
    for _ in range(n):
        unit()
    return (time.perf_counter() - start) / n


def time_import(modules) -> tuple:
    """Seconds to import ``modules`` here, and the mean unit time around it."""
    before = unit_time(IMPORT_UNITS)
    start = time.perf_counter()
    for name in modules:
        __import__(name)
    elapsed = time.perf_counter() - start
    return elapsed, (before + unit_time(IMPORT_UNITS)) / 2


def _window_means(runs, spans) -> list:
    """Mean seconds of the ``runs`` (end, seconds) that ended within
    ``WINDOW_S`` of each (start, end) of ``spans``; both in time order.
    None where no run did."""
    means = []
    lo = hi = 0
    total = 0.0
    for start, end in spans:
        while hi < len(runs) and runs[hi][0] <= end + WINDOW_S:
            total += runs[hi][1]
            hi += 1
        while lo < hi and runs[lo][0] < start - WINDOW_S:
            total -= runs[lo][1]
            lo += 1
        means.append(total / (hi - lo) if hi > lo else None)
    return means


class Probe:
    """The machine's speed while a run's ops or set-up steps ran, per phase.

    ``follow`` runs CPU units for ``DUTY`` of the CPU time just spent and
    disk units for ``DUTY`` of the time spent waiting, so the probes sample
    the machine as often as the program used it. ``scale`` turns a set-up
    time into reference time; ``scaled`` does so for each op, from the units
    run within ``WINDOW_S`` of it, because the speed changes within a run.
    """

    def __init__(self, disk_path) -> None:
        self.disk_path = disk_path
        # (phase, "cpu" or "disk") -> (end time, seconds) of every unit run.
        self.runs = {}
        self._owed = {}
        self._lines = 0

    def follow(self, seconds: float, phase: str = "ops", cpu_s: float | None = None) -> None:
        """After a step of ``seconds``, ``cpu_s`` of them on the CPU (all of
        them when not given)."""
        cpu_s = seconds if cpu_s is None else min(cpu_s, seconds)
        self._run((phase, "cpu"), DUTY * cpu_s, unit)
        self._run((phase, "disk"), DUTY * (seconds - cpu_s), self._disk_unit)

    def _run(self, key, due: float, fn) -> None:
        runs = self.runs.setdefault(key, [])
        owed = self._owed.get(key, 0.0) + due
        while owed > 0:
            start = time.perf_counter()
            fn()
            end = time.perf_counter()
            runs.append((end, end - start))
            owed -= end - start
        self._owed[key] = owed

    def _disk_unit(self) -> None:
        if self._lines == DISK_LINES:
            self.close()
        os.makedirs(os.path.dirname(self.disk_path), exist_ok=True)
        disk_unit(self.disk_path)
        self._lines += 1

    def close(self) -> None:
        """Remove the disk probe's file."""
        if os.path.exists(self.disk_path):
            os.unlink(self.disk_path)
        self._lines = 0

    def unit_s(self, phase: str = "ops", kind: str = "cpu") -> float:
        """Mean seconds of one unit of ``kind`` in ``phase``; 0 when none ran."""
        runs = self.runs.get((phase, kind))
        return sum(seconds for _, seconds in runs) / len(runs) if runs else 0.0

    def scale(self, phase: str = "ops") -> float:
        """Factor that turns CPU time spent in ``phase`` into reference time."""
        return REF_S / self.unit_s(phase)

    def scaled(self, steps) -> list:
        """Reference seconds of each (start, end, CPU seconds) of ``steps``,
        which follow each other in time, ops phase."""
        spans = [(start, end) for start, end, _ in steps]
        cpu = _window_means(self.runs.get(("ops", "cpu"), []), spans)
        disk = _window_means(self.runs.get(("ops", "disk"), []), spans)
        # A step that waited ran disk units; one that did not needs no factor.
        whole_cpu = self.unit_s("ops", "cpu")
        whole_disk = self.unit_s("ops", "disk") or REF_DISK_S
        return [
            cpu_s * REF_S / (c or whole_cpu)
            + max(end - start - cpu_s, 0.0) * REF_DISK_S / (d or whole_disk)
            for (start, end, cpu_s), c, d in zip(steps, cpu, disk)
        ]
