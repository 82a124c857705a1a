"""cli-catalog: the README "Step by step" flow as CLI subprocesses.

Set-up seeds a catalog with ``catalog_vfs`` distinct ``core_cp``-sized VFs
(every second one certified) through the library calls the CLI itself uses
to open and save state. Each pass then runs, one ``python -m slicectl.cli``
process per command: lint-template, onboard-vf (a new file), certify-vf,
create-service, test/approve/distribute-service, create-slice, place-slice,
instantiate-slice, status, audit --tail 20 and teardown-slice.

Start-up, imports and the full catalog load and fsynced rewrite dominate
here; template parsing and planning are small. With a tracer, commands run
through ``cli_child.py``, which applies the same wrappers inside the child.
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import subprocess
import sys
import time

import yaml

from slicectl.infra import build_testbed
from slicectl.lifecycle import Catalog, Orchestrator, Role
from slicectl.model import VendorSoftwareProduct
from slicectl.store import (
    AUDIT_FILE,
    CATALOG_FILE,
    INVENTORY_FILE,
    FileAuditLog,
    save_catalog,
    save_inventory,
)

import inputs
from harness import BENCH, WORK, Ops, WorkloadRun, p50, peak_rss_mb
from probe import Probe

SIZES = {
    "catalog_vfs": 1000,
    "certified_every": 2,
    "seed_chunk": 50,
    "min_passes": 2,
    "interp_samples": 10,
}

# Every command of a pass other than these changes the catalog directory.
READS = {"status", "audit"}
LINTS = {"lint-template"}
COMMAND_TIMEOUT_S = 60


def seed_catalog(
    root, rng: random.Random, n_vfs: int, certified_every: int, chunk: int, probe: Probe
) -> float:
    """Onboard ``n_vfs`` distinct VFs and save catalog and inventory.

    Returns the set-up time: the engine build and the saves, plus ``n_vfs``
    times the median per-VF time over chunks of ``chunk`` VFs. One seeding
    takes over ten seconds, too long to repeat in a run; the median keeps a
    slow stretch of the machine from counting for the whole of it. Each
    timed part is followed by the probe's "setup" phase.
    """
    base = inputs.core_cp_text()
    start = time.perf_counter()
    engine = Orchestrator(
        build_testbed(),
        catalog=Catalog(),
        audit_sink=FileAuditLog(root / AUDIT_FILE).append,
    )
    engine.register_vsp(
        VendorSoftwareProduct(
            id="vsp-seed", vendor_name="Seed Networks", product_name="seed", version=(1, 0, 0)
        )
    )
    fixed = time.perf_counter() - start
    probe.follow(fixed, "setup")
    per_vf = []
    for first in range(0, n_vfs, chunk):
        texts = [
            inputs.cp_sized_template(base, f"seed_vf_{i}", rng)
            for i in range(first, min(first + chunk, n_vfs))
        ]
        start = time.perf_counter()
        for i, text in enumerate(texts, first):
            vf = engine.onboard_vf(Role.DESIGNER, "vsp-seed", text).subject
            if i % certified_every == 0:
                engine.certify_vf(Role.TESTER, vf)
        per_vf.append((time.perf_counter() - start) / len(texts))
        probe.follow(per_vf[-1] * len(texts), "setup")
    start = time.perf_counter()
    save_catalog(engine.catalog, root / CATALOG_FILE)
    save_inventory(engine.infra, root / INVENTORY_FILE)
    saves = time.perf_counter() - start
    probe.follow(saves, "setup")
    fixed += saves
    return fixed + n_vfs * p50(per_vf)


class _Cli:
    def __init__(self, root, ops: Ops, tracer):
        self.root = root
        self.ops = ops
        self.tracer = tracer
        self.imports: list[float] = []

    def call(self, kind: str, *args: str, timed: bool = True) -> subprocess.CompletedProcess:
        argv = [kind, *args, "--catalog", str(self.root)]
        spans = self.root / "spans.json"
        if self.tracer is not None:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "slicectl.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if self.tracer is not None and spans.exists():
            dumped = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
            if timed:
                self.tracer.merge(dumped)
                self.imports.append(dumped["import_s"])
        if timed:
            # A command's waiting (process start, the fsynced 5 MB catalog
            # rewrite) is not the one-line fsync the disk probe times; the
            # whole command is scaled by the CPU probe, which tracks it better.
            self.ops.record(
                kind,
                elapsed,
                elapsed,
                proc.returncode == 0,
                f"exit {proc.returncode}: {proc.stdout[-200:]} {proc.stderr[-200:]}",
            )
        return proc

    def detail(self, proc: subprocess.CompletedProcess) -> dict:
        try:
            return json.loads(proc.stdout).get("detail") or {}
        except ValueError:
            self.ops.fail_last(f"output is not JSON: {proc.stdout[-200:]}")
            return {}


def _run_pass(cli: _Cli, p: int, rng: random.Random, inputs_dir) -> None:
    ops = cli.ops
    template = inputs_dir / f"vf{p}.yaml"
    template.write_text(
        inputs.cp_sized_template(inputs.core_cp_text(), f"pass_vf_{p}", rng), encoding="utf-8"
    )
    service, slice_id = f"svc-bench-{p}", f"slice-bench-{p}"
    limit = rng.choice((4.0, 6.0, 10.0))
    descriptor = inputs_dir / f"slice{p}.yaml"
    descriptor.write_text(
        yaml.safe_dump(
            {
                "slice": {"id": slice_id, "name": f"Bench {p}", "customer": "c-bench",
                          "provider": "p-bench", "chain_order": True, "services": [service]},
                "profile": {"end_to_end_latency": limit, "guaranteed_data_rate": 100.0,
                            "service_availability": 0.999, "degree_of_isolation": "shared"},
                "customer": {"name": "Bench", "category": "enterprise"},
                "provider": {"name": "Lab", "administrative_domains": ["core"]},
                "requirements": {service: {"latency_budget": limit, "reliability": 0.9995,
                                           "data_rate": 200.0,
                                           "demand": {"vcpu": 2, "ram": 4096, "storage": 20,
                                                      "ports": 4}}},
            }
        ),
        encoding="utf-8",
    )

    cli.call("lint-template", str(template))
    vf = cli.detail(cli.call("onboard-vf", str(template), "--vsp", "vsp-bench",
                             "--vendor", "Bench", "--as", "designer", "--json")).get("vf", "?")
    cli.call("certify-vf", vf, "--as", "tester")
    cli.call("create-service", f"Bench {p}", "--vf", vf, "--id", service, "--as", "designer")
    cli.call("test-service", service, "--as", "tester")
    cli.call("approve-service", service, "--as", "governor")
    cli.call("distribute-service", service, "--as", "operator")
    cli.call("create-slice", str(descriptor), "--as", "designer")
    cli.call("place-slice", slice_id)
    cli.call("instantiate-slice", slice_id, "--plan", str(cli.root / f"plan-{slice_id}.yaml"),
             "--as", "operator")

    records = cli.detail(cli.call("status", "--json")).get("records", {})
    state = records.get(slice_id, {}).get("state")
    if state != "active":
        ops.fail_last(f"status shows {slice_id} {state}, expected active")
    previous = f"slice-bench-{p - 1}"
    if p > 0 and records.get(previous, {}).get("state") != "terminated":
        ops.fail_last(f"status does not show {previous} terminated")

    events = cli.detail(cli.call("audit", "--tail", "20", "--json")).get("events", [])
    numbers = [e["sequence_no"] for e in events]
    # Twenty contiguous sequence numbers, or the whole log when it is shorter.
    first = numbers[-1] - 19 if len(numbers) == 20 else 1
    if numbers != list(range(first, first + len(numbers))) or not numbers:
        ops.fail_last(f"audit tail is not 20 contiguous events: {numbers}")

    cli.call("teardown-slice", slice_id, "--as", "operator")


def run(seed: int, seconds: float, tracer=None, sizes: dict = SIZES) -> WorkloadRun:
    rng = random.Random(seed)
    root = WORK / "cli-catalog"
    inputs_dir = WORK / "cli-inputs"
    for path in (root, inputs_dir):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)

    ops = Ops()
    setup = seed_catalog(root, rng, sizes["catalog_vfs"], sizes["certified_every"],
                         sizes["seed_chunk"], ops.probe)

    cli = _Cli(root, ops, tracer)
    layer = {}
    # Untimed warm-up: bytecode caches and the page cache are filled.
    cli.call("status", timed=False)
    if tracer is not None:
        interp = []
        for _ in range(sizes["interp_samples"]):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=COMMAND_TIMEOUT_S)
            interp.append(time.perf_counter() - start)
        layer["cli.interp_ms"] = 1000 * p50(interp)

    passes = 0
    while ops.busy_s < seconds or passes < sizes["min_passes"]:
        _run_pass(cli, passes, rng, inputs_dir)
        passes += 1
    last = f"slice-bench-{passes - 1}"
    final = cli.detail(cli.call("status", last, "--json", timed=False))
    if final.get("state") != "terminated":
        ops.fail_last(f"status does not show {last} terminated after the run")

    state_bytes = sum((root / name).stat().st_size for name in (CATALOG_FILE, INVENTORY_FILE, AUDIT_FILE))
    if tracer is not None:
        layer["cli.import_ms"] = 1000 * p50(cli.imports)
    writes = {k for k, _ in ops.samples} - READS - LINTS
    shutil.rmtree(root, ignore_errors=True)
    shutil.rmtree(inputs_dir, ignore_errors=True)
    return WorkloadRun(
        ops=ops,
        setup_s=setup,
        peak_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN),
        sizes={"catalog_vfs": sizes["catalog_vfs"], "passes": passes, "commands_per_pass": 13},
        extra={
            "read_p50_ms": 1000 * p50(ops.seconds(READS)),
            "write_p50_ms": 1000 * p50(ops.seconds(writes)),
            "lint_p50_ms": 1000 * p50(ops.seconds(LINTS)),
            "onboard_p50_ms": 1000 * p50(ops.seconds({"onboard-vf"})),
            "state_bytes": state_bytes,
        },
        layer=layer,
    )
