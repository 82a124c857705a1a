"""plan-scale and plan-exact: ``plan_placement`` + ``verify_plan`` on
generated infrastructures, with the default policy.

Both build one-tenant-per-host topologies (a random tree plus T/2 extra
links, latencies in 0.25 ms steps) with tight quotas, and chain slices with
an end-to-end limit drawn from ``limits``. Each infrastructure takes
``slices_per_infra`` slices in sequence; every feasible plan is allocated
before the next one is planned, so capacity fills up.

* ``plan-scale`` (10 services x 100 tenants, 3 slices per infrastructure):
  the latency matrix dominates, and most plans reuse an infrastructure.
* ``plan-exact`` (7 services x 9 tenants, one fresh infrastructure per
  plan): 63 service-tenant pairs are within the default policy's exact
  threshold, so the search dominates and no infrastructure is reused.

An op is requirements + offers + plan + verify of one slice. Plan quality
(feasible share, mean slack) is taken over the first ``quality_plans``
plans, which every run completes, so it repeats exactly for a seed.
"""

from __future__ import annotations

import random
import time

from slicectl import placement
from slicectl.model import ResourceDemand, make_slice_template

import inputs
from harness import Ops, WorkloadRun, p50, peak_rss_mb, plan_quality

SCALE = {
    "services": 10,
    "tenants": 100,
    "slices_per_infra": 3,
    "vcpu": (1, 2),
    "ram": (2048, 4096),
    "limits": (4.0, 6.0, 10.0),
    "quality_plans": 24,
    "setups": 3,
}

EXACT = {
    "services": 7,
    "tenants": 9,
    "slices_per_infra": 1,
    "vcpu": (1, 2, 3),
    "ram": (2048, 4096),
    "limits": (2.0, 3.0, 5.0),
    "quality_plans": 500,
    "setups": 3,
}


def _instance(seed: int, index: int, sizes: dict):
    """Infrastructure ``index`` of the stream and the slices it will take."""
    rng = random.Random(f"{seed}:{index}")
    infra = inputs.one_tenant_per_host(rng, sizes["tenants"], sizes["vcpu"], sizes["ram"])
    slices = []
    for k in range(sizes["slices_per_infra"]):
        services = [f"s{k}-{i}" for i in range(sizes["services"])]
        limit = rng.choice(sizes["limits"])
        slc = inputs.chain_slice(f"slice-{index}-{k}", services, limit)
        template = make_slice_template(
            slc,
            {s: inputs.requirement(limit, len(services), ResourceDemand()) for s in services},
        )
        footprints = {
            s: ResourceDemand(
                rng.choice((1, 2)), rng.choice((1024, 2048)), rng.randint(5, 15), rng.randint(1, 2)
            )
            for s in services
        }
        slices.append((slc, template, footprints))
    return infra, slices


def _plan(infra, slc, template, footprints):
    requirements = placement.required_capabilities(slc, template, footprints)
    offers = placement.offered_capabilities(infra)
    plan = placement.plan_placement(slc, requirements, offers, infra)
    ok = True
    if plan.feasible:
        ok, _ = placement.verify_plan(plan, requirements, offers, infra, slice=slc)
    return plan, requirements, ok


def run(seed: int, seconds: float, tracer=None, sizes: dict = SCALE) -> WorkloadRun:
    per_infra = sizes["slices_per_infra"]
    prepared = -(-sizes["quality_plans"] // per_infra)
    ops = Ops()
    setups = []
    for _ in range(sizes["setups"]):
        start = time.perf_counter()
        stream = [_instance(seed, i, sizes) for i in range(prepared)]
        setups.append(time.perf_counter() - start)
        ops.probe.follow(setups[-1], "setup")

    quality: list[tuple[bool, float]] = []
    index = 0
    while ops.busy_s < seconds or len(quality) < sizes["quality_plans"]:
        if index < len(stream):
            infra, slices = stream[index]
            stream[index] = None  # planned once; let it go
        else:
            infra, slices = _instance(seed, index, sizes)
        index += 1
        for slc, template, footprints in slices:
            if tracer is not None:
                tracer.active = True
            cpu = time.process_time()
            start = time.perf_counter()
            plan, requirements, ok = _plan(infra, slc, template, footprints)
            elapsed = time.perf_counter() - start
            ops.record("plan", elapsed, time.process_time() - cpu, ok,
                       f"{slc.id}: verifier rejects the plan")
            if len(quality) < sizes["quality_plans"]:
                quality.append((plan.feasible, slc.profile.end_to_end_latency - plan.e2e_latency))
            if plan.feasible and ok:
                demand = {r.service: r.demand for r in requirements}
                for a in plan.assignments:
                    infra.allocate(a.tenant, a.service, demand[a.service])
            if tracer is not None:
                tracer.active = False

    return WorkloadRun(
        ops=ops,
        setup_s=p50(setups),
        peak_rss_mb=peak_rss_mb(),
        sizes={
            "services": sizes["services"],
            "tenants": sizes["tenants"],
            "slices_per_infra": per_infra,
            "infrastructures": index,
            "quality_plans": sizes["quality_plans"],
        },
        extra=plan_quality(quality),
    )
