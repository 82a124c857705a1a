"""Builders that drive engines into interesting states for tests."""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Sequence
from importlib import resources

from slicectl.infra import (
    Host,
    Infrastructure,
    PhysicalLink,
    Tenant,
    build_testbed,
)
from slicectl.lifecycle import (
    AuditEvent,
    Catalog,
    Orchestrator,
    Role,
    lab_problems,
    replay_states,
)
from slicectl.model import (
    NetworkSlice,
    ResourceDemand,
    ServiceProfile,
    ServiceRequirement,
    SliceProvider,
    VendorSoftwareProduct,
    make_slice_template,
)
from slicectl.placement import CapabilityRequirement, offered_capabilities


def fixture_text(name: str) -> str:
    return (
        resources.files("slicectl").joinpath("fixtures").joinpath(name)
    ).read_text(encoding="utf-8")


def minimal_template(
    name: str = "probe", vcpu: int = 1, ram: int = 512, storage: int = 4
) -> str:
    return (
        f"name: {name}\n"
        f"resources:\n"
        f"  node:\n"
        f"    type: OS::Nova::Server\n"
        f"    metadata:\n"
        f"      vnf_name: {name}\n"
        f"      vnf_id: vnf-{name}\n"
        f"      vf_module_id: {name}_base\n"
        f"    properties:\n"
        f"      vcpu: {vcpu}\n"
        f"      ram: {ram}\n"
        f"      storage: {storage}\n"
    )


def register_vsp(engine: Orchestrator, vsp_id: str = "vsp-lab") -> str:
    engine.register_vsp(
        VendorSoftwareProduct(
            id=vsp_id,
            vendor_name="LabVendor",
            product_name=vsp_id,
            version=(1, 0, 0),
        )
    )
    return vsp_id


def assert_live_is_the_fold(
    engine: Orchestrator,
    genesis: Catalog | None = None,
    problems: Sequence[str] = (),
    events: Sequence[AuditEvent] | None = None,
):
    """engine's catalog, entities and records, is the fold of genesis (an
    empty catalog by default, consumed here) and events, engine.events by
    default, and the lab keeps its promises but for problems, what
    lab_problems names of it. An engine opened from a checkpoint holds
    only the log's tail, so its caller passes the whole log."""
    fold = Catalog() if genesis is None else genesis
    replay_states(engine.events if events is None else events, catalog=fold)
    for field in dataclasses.fields(Catalog):
        if field.name not in ("version", "template_blobs"):
            live, folded = getattr(engine.catalog, field.name), getattr(fold, field.name)
            assert live == folded, field.name
    assert lab_problems(engine.catalog, engine.infra) == list(problems)


def onboard_certified(engine: Orchestrator, vsp_id: str, text: str) -> str:
    vf_id = engine.onboard_vf(Role.DESIGNER, vsp_id, text).subject
    engine.certify_vf(Role.TESTER, vf_id)
    return vf_id


def ready_service(
    engine: Orchestrator,
    name: str,
    vf_ids: list[str],
    service_id: str | None = None,
) -> str:
    record = engine.create_service(
        Role.DESIGNER, name, vf_ids, service_id=service_id
    )
    engine.advance_service(Role.TESTER, record.subject, "test")
    engine.advance_service(Role.GOVERNOR, record.subject, "approve")
    engine.advance_service(Role.OPERATOR, record.subject, "distribute")
    return record.subject


def drive_slice_a(engine: Orchestrator) -> str:
    """Onboard the bundled templates and take slice-a to the ready state."""
    engine.register_provider(
        SliceProvider(
            id="p-greyop",
            name="GreyOp",
            administrative_domains=frozenset({"core"}),
        )
    )
    for vsp_id, template in (
        ("vsp-core-cp", "core_cp.yaml"),
        ("vsp-core-dp", "core_dp.yaml"),
    ):
        engine.register_vsp(
            VendorSoftwareProduct(
                id=vsp_id,
                vendor_name="GreyOp Networks",
                product_name=vsp_id,
                version=(1, 0, 0),
            )
        )
    vf_cp = onboard_certified(engine, "vsp-core-cp", fixture_text("core_cp.yaml"))
    vf_dp = onboard_certified(engine, "vsp-core-dp", fixture_text("core_dp.yaml"))
    ready_service(engine, "Core CP", [vf_cp], service_id="svc-core-cp")
    ready_service(engine, "Core DP", [vf_dp], service_id="svc-core-dp")
    profile = ServiceProfile(
        end_to_end_latency=10.0,
        guaranteed_data_rate=100.0,
        service_availability=0.999,
    )
    slc = NetworkSlice(
        id="slice-a",
        name="Slice A",
        customer="c-companyx",
        provider="p-greyop",
        services=("svc-core-cp", "svc-core-dp"),
        profile=profile,
    )
    template = make_slice_template(
        slc,
        {
            "svc-core-cp": ServiceRequirement(
                latency_budget=5.0,
                reliability=0.9995,
                data_rate=200.0,
                demand=ResourceDemand(2, 4096, 20, 4),
            ),
            "svc-core-dp": ServiceRequirement(
                latency_budget=5.0,
                reliability=0.9995,
                data_rate=150.0,
                demand=ResourceDemand(2, 4096, 20, 2),
            ),
        },
    )
    engine.create_slice(Role.DESIGNER, slc, template)
    return slc.id


def slice_a_engine() -> Orchestrator:
    engine = Orchestrator(build_testbed())
    drive_slice_a(engine)
    return engine


def chain3_engine() -> tuple[Orchestrator, str]:
    """Three services sized so each fits exactly one tenant of a 3-host chain.

    The unique feasible plan is a->t1, b->t2, c->t3 with e2e 2.0 ms, which
    makes fault injection per position deterministic.
    """
    infra = Infrastructure()
    for n in (1, 2, 3):
        infra.add_host(
            Host(
                id=f"h{n}",
                name=f"host {n}",
                capacity=ResourceDemand(8, 8192, 64, 16),
            )
        )
    infra.add_link(
        PhysicalLink(id="l12", endpoints=("h1", "h2"), latency=1.0, bandwidth=1000.0)
    )
    infra.add_link(
        PhysicalLink(id="l23", endpoints=("h2", "h3"), latency=1.0, bandwidth=1000.0)
    )
    quotas = {
        "t1": ResourceDemand(4, 4096, 32, 8),
        "t2": ResourceDemand(2, 2048, 16, 4),
        "t3": ResourceDemand(1, 1024, 8, 2),
    }
    for n, (tenant_id, quota) in enumerate(sorted(quotas.items()), start=1):
        infra.add_tenant(
            Tenant(
                id=tenant_id,
                name=tenant_id,
                owner="p-lab",
                host=f"h{n}",
                quota=quota,
            )
        )
    engine = Orchestrator(infra)
    vsp_id = register_vsp(engine)
    sizes = {
        "a": (3, 4096, 32),
        "b": (2, 2048, 16),
        "c": (1, 1024, 8),
    }
    requirements = {}
    for name, (vcpu, ram, storage) in sizes.items():
        vf_id = onboard_certified(
            engine, vsp_id, minimal_template(name, vcpu, ram, storage)
        )
        service_id = ready_service(engine, name, [vf_id], service_id=f"svc-{name}")
        requirements[service_id] = ServiceRequirement(
            latency_budget=3.0,
            reliability=0.999,
            data_rate=100.0,
            demand=ResourceDemand(vcpu, ram, storage, 0),
        )
    profile = ServiceProfile(
        end_to_end_latency=10.0,
        guaranteed_data_rate=50.0,
        service_availability=0.99,
    )
    slc = NetworkSlice(
        id="slice-chain3",
        name="Chain of three",
        customer="c-lab",
        provider="p-lab",
        services=("svc-a", "svc-b", "svc-c"),
        profile=profile,
    )
    engine.create_slice(
        Role.DESIGNER, slc, make_slice_template(slc, requirements)
    )
    return engine, slc.id


def random_instance(rng: random.Random):
    """Random shared-isolation placement instance, <= 5 services x 6 tenants.

    Link latencies are multiples of 0.25 ms so every path sum is exact in
    binary floating point; optimum comparisons can demand equality.
    """
    n_services = rng.randint(1, 5)
    n_tenants = rng.randint(1, 6)
    services = [f"s{i}" for i in range(n_services)]
    tenants = [f"t{i}" for i in range(n_tenants)]
    infra = Infrastructure()
    for i in range(n_tenants):
        infra.add_host(
            Host(
                id=f"h{i}",
                name=f"h{i}",
                capacity=ResourceDemand(64, 65536, 1024, 64),
            )
        )
    links: list[tuple[str, str, float]] = []
    link_no = 0
    for i in range(1, n_tenants):
        if rng.random() < 0.85:
            j = rng.randrange(i)
            latency = rng.randint(1, 20) * 0.25
            infra.add_link(
                PhysicalLink(
                    id=f"l{link_no}",
                    endpoints=(f"h{j}", f"h{i}"),
                    latency=latency,
                    bandwidth=1000.0,
                )
            )
            links.append((f"h{j}", f"h{i}", latency))
            link_no += 1
    for _ in range(rng.randint(0, 3)):
        if n_tenants < 2:
            break
        a, b = rng.sample(range(n_tenants), 2)
        latency = rng.randint(1, 20) * 0.25
        infra.add_link(
            PhysicalLink(
                id=f"l{link_no}",
                endpoints=(f"h{a}", f"h{b}"),
                latency=latency,
                bandwidth=1000.0,
            )
        )
        links.append((f"h{a}", f"h{b}", latency))
        link_no += 1
    free = {}
    for i, tenant_id in enumerate(tenants):
        quota = ResourceDemand(
            rng.randint(1, 8),
            rng.choice([1024, 2048, 4096, 8192]),
            rng.randint(8, 64),
            rng.randint(2, 8),
        )
        infra.add_tenant(
            Tenant(
                id=tenant_id,
                name=tenant_id,
                owner="p-rand",
                host=f"h{i}",
                quota=quota,
            )
        )
        free[tenant_id] = quota.as_tuple()
    demands = {}
    requirements = []
    limit = rng.choice([2.0, 5.0, 8.0, 100.0])
    for service_id in services:
        demand = ResourceDemand(
            rng.randint(0, 4),
            rng.choice([0, 512, 1024, 2048]),
            rng.randint(0, 16),
            rng.randint(0, 4),
        )
        demands[service_id] = demand.as_tuple()
        requirements.append(
            CapabilityRequirement(
                service=service_id,
                demand=demand,
                latency_budget=1000.0,
            )
        )
    profile = ServiceProfile(
        end_to_end_latency=limit,
        guaranteed_data_rate=1.0,
        service_availability=0.5,
    )
    slc = NetworkSlice(
        id="slice-rand",
        name="random",
        customer="c",
        provider="p",
        services=tuple(services),
        profile=profile,
    )
    offers = offered_capabilities(infra)
    host_of = {tenant_id: infra.tenants[tenant_id].host for tenant_id in tenants}
    return slc, requirements, offers, infra, {
        "services": services,
        "tenants": tenants,
        "demands": demands,
        "free": free,
        "links": links,
        "host_of": host_of,
        "limit": limit,
    }


def random_constrained_instance(rng: random.Random):
    """Random placement instance with every constraint the solver checks.

    Up to 5 services x 5 tenants. Services mix isolation levels; tenants
    may share a host (0 ms between them), carry a foreign allocation, or
    sit on a dedicated host; one host may have no link at all. Link
    latencies are floats such as 0.37 ms, whose sums round. The returned
    plain data describes the instance independently of the infrastructure
    objects.
    """
    n_services = rng.randint(1, 5)
    n_tenants = rng.randint(1, 5)
    n_hosts = rng.randint((n_tenants + 1) // 2, n_tenants)
    services = [f"s{i}" for i in range(n_services)]
    tenants = [f"t{i}" for i in range(n_tenants)]
    hosts = [f"h{i}" for i in range(n_hosts)]
    host_dedicated = {h: rng.random() < 0.5 for h in hosts}
    infra = Infrastructure()
    for h in hosts:
        infra.add_host(
            Host(
                id=h,
                name=h,
                capacity=ResourceDemand(64, 65536, 1024, 64),
                isolation_class="dedicated" if host_dedicated[h] else "shared",
            )
        )
    # Every host gets a tenant; the rest land on random hosts.
    host_of = {
        t: hosts[i] if i < n_hosts else rng.choice(hosts)
        for i, t in enumerate(tenants)
    }
    # The last host of three or more is left without links.
    linked = hosts[:-1] if n_hosts >= 3 and rng.random() < 0.5 else hosts
    links: list[tuple[str, str, float]] = []
    pairs = [(rng.choice(linked[:i]), linked[i]) for i in range(1, len(linked))]
    for _ in range(rng.randint(0, 2)):
        if len(linked) >= 2:
            pairs.append(tuple(rng.sample(linked, 2)))
    for serial, (a, b) in enumerate(pairs):
        latency = round(rng.uniform(0.05, 3.0), 2)
        infra.add_link(
            PhysicalLink(
                id=f"l{serial}", endpoints=(a, b), latency=latency, bandwidth=1000.0
            )
        )
        links.append((a, b, latency))
    free = {}
    occupied = {}
    for t in tenants:
        quota = (rng.randint(1, 6), rng.choice([2048, 4096]), rng.randint(8, 40), 4)
        infra.add_tenant(
            Tenant(
                id=t, name=t, owner="p-rand", host=host_of[t],
                quota=ResourceDemand(*quota),
            )
        )
        held = (0, 0, 0, 0)
        if rng.random() < 0.25:
            held = (1, 512, 4, 1)
            infra.allocate(t, f"foreign-{t}", ResourceDemand(*held))
        free[t] = tuple(q - h for q, h in zip(quota, held))
        occupied[t] = held != (0, 0, 0, 0)
    tenants_per_host = {h: list(host_of.values()).count(h) for h in hosts}
    dedicated_host = {
        t: host_dedicated[host_of[t]] and tenants_per_host[host_of[t]] == 1
        for t in tenants
    }
    demands = {}
    isolation = {}
    requirements = []
    for service_id in services:
        demand = (
            rng.randint(0, 3), rng.choice([0, 512, 1024]), rng.randint(0, 12),
            rng.randint(0, 2),
        )
        level = rng.choices(
            ["shared", "dedicated_tenant", "dedicated_host"], weights=[7, 2, 1]
        )[0]
        demands[service_id] = demand
        isolation[service_id] = level
        requirements.append(
            CapabilityRequirement(
                service=service_id,
                demand=ResourceDemand(*demand),
                isolation=level,
            )
        )
    limit = rng.choice([1.0, 3.0, 6.0, 100.0])
    slc = NetworkSlice(
        id="slice-rand",
        name="random",
        customer="c",
        provider="p",
        services=tuple(services),
        profile=ServiceProfile(
            end_to_end_latency=limit,
            guaranteed_data_rate=1.0,
            service_availability=0.5,
        ),
    )
    return slc, requirements, offered_capabilities(infra), infra, {
        "services": services,
        "tenants": tenants,
        "demands": demands,
        "free": free,
        "links": links,
        "host_of": host_of,
        "limit": limit,
        "isolation": isolation,
        "occupied": occupied,
        "dedicated_host": dedicated_host,
    }
