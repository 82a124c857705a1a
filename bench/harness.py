"""Pieces every workload shares: checkout paths, op records and statistics.

An op is one CLI command, one ``Orchestrator`` call, or one plan+verify.
Each workload times its ops and hands them to ``Ops.record``; an op whose
outcome differs from the expected one, or whose output fails a check, counts
as failed. Planned denials and rejections are expected outcomes, not failures.
Every op is followed by the speed probe (``probe.py``).
"""

from __future__ import annotations

import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from probe import Probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Working state of a run (catalog directories, audit logs); ignored by git.
WORK = ROOT / ".bench_work"

OK = "ok"


class CheckoutError(Exception):
    """The directory the benchmark runs in holds no slicectl source tree."""


def use_checkout_source() -> None:
    """Import slicectl from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "slicectl" / "__init__.py").is_file():
        raise CheckoutError(f"no slicectl source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


PROGRAM_MODULES = ("slicectl", "slicectl.lifecycle", "slicectl.store", "slicectl.cli")


def import_program() -> None:
    """Import every slicectl module into this process."""
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


def import_times(samples: int) -> list[tuple[float, float]]:
    """Seconds a fresh interpreter takes to import every slicectl module,
    interpreter start excluded, with the probe's mean unit time around the
    import in that same process; one new process per sample."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import probe; "
        f"print(*probe.time_import({PROGRAM_MODULES!r}))"
    )
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        seconds, unit_s = map(float, out.stdout.split())
        times.append((seconds, unit_s))
    return times


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _new_probe() -> Probe:
    return Probe(str(WORK / "probe-disk.log"))


@dataclass
class Ops:
    """Timed op samples of one run, in the order they ran; every op is
    followed by the probes."""

    samples: list[tuple[str, float]] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    busy_s: float = 0.0
    probe: Probe = field(default_factory=_new_probe)
    # (start, end, CPU seconds) of every op.
    _steps: list[tuple[float, float, float]] = field(default_factory=list)
    _last_failed: bool = False

    def record(self, kind: str, seconds: float, cpu_s: float, ok: bool, why: str = "") -> None:
        """Called as soon as the op has returned; ``cpu_s`` is the CPU time
        the op used, in this process or in the child that ran it."""
        end = time.perf_counter()
        self._steps.append((end - seconds, end, cpu_s))
        self.samples.append((kind, seconds))
        self.busy_s += seconds
        self.probe.follow(seconds, cpu_s=cpu_s)
        self._last_failed = not ok
        if not ok:
            self.failed += 1
            self.problems.append(f"{kind}: {why}")

    def fail_last(self, why: str) -> None:
        """A check on the last op's output failed: count that op as failed."""
        self.problems.append(why)
        if self.samples and not self._last_failed:
            self.failed += 1
            self._last_failed = True

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def measured(self, kinds: set[str] | None = None) -> list[float]:
        """Op seconds as measured."""
        return [s for k, s in self.samples if kinds is None or k in kinds]

    def seconds(self, kinds: set[str] | None = None) -> list[float]:
        """Op seconds at the probes' reference speeds."""
        scaled = self.probe.scaled(self._steps)
        return [s for (k, _), s in zip(self.samples, scaled) if kinds is None or k in kinds]


@dataclass
class WorkloadRun:
    """What one workload hands back to ``run.py``."""

    ops: Ops
    setup_s: float
    peak_rss_mb: float
    sizes: dict
    # Workload-specific end-to-end figures, name -> value.
    extra: dict = field(default_factory=dict)
    # Layer figures only the workload knows (CLI interpreter start, say).
    layer: dict = field(default_factory=dict)


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def plan_quality(plans: list[tuple[bool, float]]) -> dict:
    """Feasible share and mean slack of (feasible, limit - planned e2e) pairs;
    an infeasible plan counts with slack 0."""
    n = max(len(plans), 1)
    return {
        "plan_feasible_share": sum(f for f, _ in plans) / n,
        "plan_slack_ms_mean": sum(s if f else 0.0 for f, s in plans) / n,
    }


def environment(seed: int, workload: str, sizes: dict) -> dict:
    import yaml
    import networkx

    return {
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "seed": seed,
        "workload": workload,
        "sizes": sizes,
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None
