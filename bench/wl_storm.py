"""lifecycle-storm: the whole design-time cycle, in process, on the testbed.

Each cycle onboards one ``core_cp``-sized and one minimal template, certifies
both, bundles each into a service, walks both services to distributed,
creates a two-service chain slice, plans, instantiates and tears it down.
Every fourth template text repeats a recent one (the property a parse cache
would exploit). That share is an assumption, not taken from observed
traffic: a parse cache's gain here holds only for the ``template.repeat_share``
the traced run reports. Every eighth cycle carries a planned role denial and,
four cycles later, a planned lint rejection; both are expected outcomes.

The engine writes every audit event through a ``FileAuditLog``. After
``epoch_cycles`` cycles, outside the timed region, the log is read back and
checked, and a fresh engine starts, so memory and log length do not grow
with the number of cycles a faster program manages.
"""

from __future__ import annotations

import random
import time
from collections import deque

from slicectl.errors import RoleDenied, SliceError, TemplateRejected
from slicectl.infra import build_testbed
from slicectl.lifecycle import Catalog, Orchestrator, Outcome, Role
from slicectl.model import (
    Customer,
    ResourceDemand,
    SliceProvider,
    VendorSoftwareProduct,
    make_slice_template,
)
from slicectl.store import FileAuditLog, load_audit, replay_states

import inputs
from harness import OK, WORK, Ops, WorkloadRun, p50, peak_rss_mb

# Expected outcomes of the planned denials and rejections.
DENIED = "denied"
REJECTED = "rejected"
VSP = "vsp-storm"

SIZES = {
    "epoch_cycles": 50,
    "repeat_every": 4,
    "denial_every": 8,
    "recent_texts": 64,
    "min_cycles": 60,
    "setups": 5,
}


def _new_engine(log_path) -> Orchestrator:
    if log_path.exists():
        log_path.unlink()
    engine = Orchestrator(
        build_testbed(),
        catalog=Catalog(),
        audit_sink=FileAuditLog(log_path).append,
    )
    engine.register_customer(Customer(id="c-bench", name="Bench", category="enterprise"))
    engine.register_provider(
        SliceProvider(id="p-bench", name="Bench", administrative_domains=frozenset({"core"}))
    )
    engine.register_vsp(
        VendorSoftwareProduct(id=VSP, vendor_name="Bench", product_name="storm", version=(1, 0, 0))
    )
    return engine


class _Storm:
    def __init__(self, rng: random.Random, sizes: dict, ops: Ops):
        self.rng = rng
        self.sizes = sizes
        self.ops = ops
        self.base = inputs.core_cp_text()
        self.recent = {"cp": deque(maxlen=sizes["recent_texts"]),
                       "mini": deque(maxlen=sizes["recent_texts"])}
        self.count = {"cp": 0, "mini": 0}
        self.planned = {DENIED: 0, REJECTED: 0}
        self.denied_total = 0

    def attempt(self, kind: str, expected: str, fn, *args):
        cpu = time.process_time()
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args)
            outcome = OK
        except RoleDenied:
            outcome = "denied"
        except TemplateRejected:
            outcome = "rejected"
        except SliceError as exc:
            outcome = type(exc).__name__
        self.ops.record(
            kind,
            time.perf_counter() - start,
            time.process_time() - cpu,
            outcome == expected,
            f"expected {expected}, got {outcome}",
        )
        return result

    def text(self, kind: str) -> str:
        self.count[kind] += 1
        pool = self.recent[kind]
        if pool and self.count[kind] % self.sizes["repeat_every"] == 0:
            return self.rng.choice(pool)
        name = f"{kind}_{self.count[kind]}"
        if kind == "cp":
            text = inputs.cp_sized_template(self.base, name, self.rng)
        else:
            text = inputs.minimal_template(name, self.rng)
        pool.append(text)
        return text

    def cycle(self, engine: Orchestrator, n: int) -> bool:
        """One full cycle; False when an op failed and the engine is suspect."""
        rng, go = self.rng, self.attempt
        if n % self.sizes["denial_every"] == self.sizes["denial_every"] // 2:
            self.planned[REJECTED] += 1
            go("onboard_vf", REJECTED, engine.onboard_vf, Role.DESIGNER, VSP,
               inputs.minimal_template(f"fip_{n}", rng, floating_ip=True))
        vfs = []
        for kind in ("cp", "mini"):
            record = go("onboard_vf", OK, engine.onboard_vf, Role.DESIGNER, VSP, self.text(kind))
            if record is None:
                return False
            vfs.append(record.subject)
        if n % self.sizes["denial_every"] == 0:
            self.planned[DENIED] += 1
            self.denied_total += 1
            go("certify_vf", DENIED, engine.certify_vf, Role.DESIGNER, vfs[0])
        services = []
        for vf in vfs:
            if go("certify_vf", OK, engine.certify_vf, Role.TESTER, vf) is None:
                return False
            record = go("create_service", OK, engine.create_service, Role.DESIGNER, f"svc {vf}", [vf])
            if record is None:
                return False
            services.append(record.subject)
        for service in services:
            for action, role in (("test", Role.TESTER), ("approve", Role.GOVERNOR),
                                 ("distribute", Role.OPERATOR)):
                if go("advance_service", OK, engine.advance_service, role, service, action) is None:
                    return False
        limit = rng.choice((4.0, 6.0, 10.0))
        slc = inputs.chain_slice(f"slice-{n}", services, limit)
        demands = (ResourceDemand(2, 4096, 20, 4), ResourceDemand(rng.choice((1, 2)), 512, 4, 1))
        template = make_slice_template(
            slc,
            {s: inputs.requirement(limit, 2, d) for s, d in zip(services, demands)},
        )
        if go("create_slice", OK, engine.create_slice, Role.DESIGNER, slc, template) is None:
            return False
        plan = go("plan_slice", OK, engine.plan_slice, slc.id)
        if plan is None:
            return False
        if not plan.feasible:
            self.ops.fail_last(f"{slc.id}: no feasible plan on the testbed")
            return False
        if go("instantiate_slice", OK, engine.instantiate_slice, Role.OPERATOR, slc.id, plan) is None:
            return False
        if go("teardown_slice", OK, engine.teardown_slice, Role.OPERATOR, slc.id) is None:
            return False
        if any(d != ResourceDemand() for d in engine.infra.usage_snapshot().values()):
            self.ops.fail_last(f"{slc.id}: capacity still held after teardown")
            return False
        return True

    def check_epoch(self, engine: Orchestrator, log_path) -> None:
        """The log replays to the records, and holds the planned outcomes."""
        events = load_audit(log_path)
        if replay_states(events) != engine.catalog.records:
            self.ops.fail_last("audit replay differs from the live records")
        denied = sum(e.outcome is Outcome.DENIED for e in events)
        rejected = sum(
            e.outcome is Outcome.FAILED and e.action == "onboard_vf" for e in events
        )
        if (denied, rejected) != (self.planned[DENIED], self.planned[REJECTED]):
            self.ops.fail_last(
                f"audit holds {denied} denied / {rejected} rejected, planned"
                f" {self.planned[DENIED]} / {self.planned[REJECTED]}"
            )
        self.planned = {DENIED: 0, REJECTED: 0}


def run(seed: int, seconds: float, tracer=None, sizes: dict = SIZES) -> WorkloadRun:
    rng = random.Random(seed)
    ops = Ops()
    storm = _Storm(rng, sizes, ops)
    WORK.mkdir(parents=True, exist_ok=True)
    log_path = WORK / "storm-audit.log"

    setups = []
    for _ in range(sizes["setups"]):
        start = time.perf_counter()
        engine = _new_engine(log_path)
        setups.append(time.perf_counter() - start)
        ops.probe.follow(setups[-1], "setup")

    if tracer is not None:
        tracer.active = True
    cycles = 0
    checked = False
    while ops.busy_s < seconds or cycles < sizes["min_cycles"]:
        healthy = storm.cycle(engine, cycles)
        cycles += 1
        checked = not healthy or cycles % sizes["epoch_cycles"] == 0
        if checked:
            if tracer is not None:
                tracer.active = False
            storm.check_epoch(engine, log_path)
            engine = _new_engine(log_path)
            if tracer is not None:
                tracer.active = True
    if tracer is not None:
        tracer.active = False
    # A fresh engine that ran no cycle has written no log yet.
    if not checked:
        storm.check_epoch(engine, log_path)
    log_path.unlink(missing_ok=True)

    return WorkloadRun(
        ops=ops,
        setup_s=p50(setups),
        peak_rss_mb=peak_rss_mb(),
        sizes={"cycles": cycles, "epoch_cycles": sizes["epoch_cycles"],
               "services_per_slice": 2, "tenants": 3},
        extra={"onboard_p50_ms": 1000 * p50(ops.seconds({"onboard_vf"}))},
        layer={"lifecycle.denied_share": storm.denied_total / ops.attempted},
    )
