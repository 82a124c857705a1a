"""Seeded input generators: VF templates, slice specs and infrastructures.

Everything here is a pure function of its ``random.Random``, so the same
seed gives the same inputs. The program only ever sees what these return.
"""

from __future__ import annotations

import random
from importlib import resources

from slicectl.infra import Host, Infrastructure, PhysicalLink, Tenant
from slicectl.model import (
    NetworkSlice,
    ResourceDemand,
    ServiceProfile,
    ServiceRequirement,
)

_CORE_CP = "core_cp"


def core_cp_text() -> str:
    return (
        resources.files("slicectl").joinpath("fixtures").joinpath("core_cp.yaml")
    ).read_text(encoding="utf-8")


def cp_sized_template(base: str, name: str, rng: random.Random) -> str:
    """A distinct copy of the bundled ``core_cp`` template (four computes,
    five networks, about 3.5 kB): same footprint, new name and images."""
    text = base.replace(_CORE_CP, name)
    for image in ("mme", "hss", "aaa", "dhcp"):
        text = text.replace(
            f"airframe-{image}-", f"airframe-{image}-{rng.randrange(100)}."
        )
    return text


def minimal_template(name: str, rng: random.Random, *, floating_ip: bool = False) -> str:
    """One compute resource; with ``floating_ip`` the linter must reject it."""
    text = (
        f"name: {name}\n"
        f"resources:\n"
        f"  node:\n"
        f"    type: OS::Nova::Server\n"
        f"    metadata:\n"
        f"      vnf_name: {name}\n"
        f"      vnf_id: vnf-{name}\n"
        f"      vf_module_id: {name}_base\n"
        f"    properties:\n"
        f"      vcpu: 1\n"
        f"      ram: {rng.choice((256, 512, 1024))}\n"
        f"      storage: {rng.randint(1, 8)}\n"
    )
    if floating_ip:
        text += "  public_ip:\n    type: OS::Neutron::FloatingIP\n"
    return text


def profile(limit: float) -> ServiceProfile:
    return ServiceProfile(
        end_to_end_latency=limit,
        guaranteed_data_rate=100.0,
        service_availability=0.99,
    )


def requirement(limit: float, n_services: int, demand: ResourceDemand) -> ServiceRequirement:
    return ServiceRequirement(
        latency_budget=limit / n_services,
        reliability=0.9995,
        data_rate=200.0,
        demand=demand,
    )


def chain_slice(slice_id: str, services: list[str], limit: float) -> NetworkSlice:
    return NetworkSlice(
        id=slice_id,
        name=slice_id,
        customer="c-bench",
        provider="p-bench",
        services=tuple(services),
        profile=profile(limit),
    )


def one_tenant_per_host(
    rng: random.Random,
    n_tenants: int,
    vcpu: tuple[int, ...],
    ram: tuple[int, ...],
) -> Infrastructure:
    """``n_tenants`` hosts with one tenant each, joined by a random tree plus
    ``n_tenants // 2`` extra links. Link latencies are multiples of 0.25 ms,
    so path sums are exact in binary floating point."""
    infra = Infrastructure()
    width = len(str(n_tenants - 1))
    for i in range(n_tenants):
        quota = ResourceDemand(
            rng.choice(vcpu), rng.choice(ram), rng.randint(20, 60), rng.randint(4, 8)
        )
        infra.add_host(Host(id=f"h{i:0{width}}", name=f"h{i}", capacity=quota))
        infra.add_tenant(
            Tenant(
                id=f"t{i:0{width}}",
                name=f"t{i}",
                owner="p-bench",
                host=f"h{i:0{width}}",
                quota=quota,
            )
        )
    pairs = [(rng.randrange(i), i) for i in range(1, n_tenants)]
    for _ in range(n_tenants // 2):
        pairs.append(tuple(rng.sample(range(n_tenants), 2)))
    for n, (a, b) in enumerate(pairs):
        infra.add_link(
            PhysicalLink(
                id=f"l{n}",
                endpoints=(f"h{a:0{width}}", f"h{b:0{width}}"),
                latency=0.25 * rng.randint(1, 4),
                bandwidth=1000.0,
            )
        )
    return infra
