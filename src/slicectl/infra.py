"""Simulated multi-tenant infrastructure.

Hosts carry capacity, tenants carry quotas and usage, physical links carry
latency. This is the offered-capability side of placement: allocation is
plain bookkeeping, where a service holds at most one allocation and a
tenant's use is the sum of its live allocations (hold, the one path that
takes capacity for allocate and for a loaded inventory alike, adds one;
release takes a service's away), and inter-tenant
latency is the shortest path over the physical links. The host adjacency
is built once per topology, with each link latency as a whole number on
one shared power-of-two scale, so a path's latency is summed exactly and
rounded once: the latency from a to b is the same number as from b to a.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    InsufficientCapacity,
    UnknownAllocation,
    UnknownEntity,
    Unreachable,
)
from .model import ResourceDemand


class IsolationClass(str, Enum):
    SHARED = "shared"
    DEDICATED = "dedicated"


@dataclass(frozen=True)
class Host:
    id: str
    name: str
    capacity: ResourceDemand
    site: str = ""
    isolation_class: IsolationClass = IsolationClass.SHARED

    def __post_init__(self):
        if not self.id:
            raise ValueError("host id must be non-empty")
        object.__setattr__(
            self, "isolation_class", IsolationClass(self.isolation_class)
        )


@dataclass
class Tenant:
    """Isolated resource quota on one host. used is the sum of the tenant's
    live allocations, kept by Infrastructure.hold and release, so it is not
    an init field and is never stored."""

    id: str
    name: str
    owner: str
    host: str
    quota: ResourceDemand
    used: ResourceDemand = field(default_factory=ResourceDemand, init=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("tenant id must be non-empty")

    @property
    def free(self) -> ResourceDemand:
        return self.quota - self.used


@dataclass(frozen=True)
class PhysicalLink:
    id: str
    endpoints: tuple[str, str]
    latency: float
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        if len(self.endpoints) != 2 or self.endpoints[0] == self.endpoints[1]:
            raise ValueError("link endpoints must be two distinct hosts")
        # Comparisons with nan are false, so nan is refused too.
        if not 0 < self.latency < math.inf:
            raise ValueError("link latency must be a finite number > 0")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("link bandwidth must be a finite number > 0")


@dataclass(frozen=True)
class Allocation:
    tenant: str
    service: str
    demand: ResourceDemand


@dataclass
class Infrastructure:
    hosts: dict[str, Host] = field(default_factory=dict)
    tenants: dict[str, Tenant] = field(default_factory=dict)
    links: dict[str, PhysicalLink] = field(default_factory=dict)
    # What each service holds, by service id.
    allocations: dict[str, Allocation] = field(default_factory=dict)
    # Built on first use and cleared whenever the topology changes: the
    # weighted neighbour map, and the shortest latencies from each source
    # host already asked about.
    _graph: tuple[int, dict[str, dict[str, int]]] | None = field(
        default=None, compare=False, repr=False, init=False
    )
    _distances: dict[str, dict[str, float]] = field(
        default_factory=dict, compare=False, repr=False, init=False
    )

    # -- construction ------------------------------------------------------

    def add_host(self, host: Host) -> None:
        if host.id in self.hosts:
            raise ValueError(f"host {host.id!r} already exists")
        self.hosts[host.id] = host
        self._graph, self._distances = None, {}

    def add_tenant(self, tenant: Tenant) -> None:
        if tenant.id in self.tenants:
            raise ValueError(f"tenant {tenant.id!r} already exists")
        host = self.hosts.get(tenant.host)
        if host is None:
            raise ValueError(f"tenant {tenant.id!r} references unknown host")
        # The quotas handed out on a host may not oversubscribe it.
        total = tenant.quota
        for other in self.tenants.values():
            if other.host == tenant.host:
                total = total + other.quota
        if not total.fits_within(host.capacity):
            raise ValueError(
                f"quotas on host {host.id!r} would exceed its capacity"
            )
        self.tenants[tenant.id] = tenant

    def add_link(self, link: PhysicalLink) -> None:
        if link.id in self.links:
            raise ValueError(f"link {link.id!r} already exists")
        for endpoint in link.endpoints:
            if endpoint not in self.hosts:
                raise ValueError(f"link {link.id!r} references unknown host")
        self.links[link.id] = link
        self._graph, self._distances = None, {}

    # -- queries -----------------------------------------------------------

    def tenants_on_host(self, host_id: str) -> list[Tenant]:
        return [t for t in self.tenants.values() if t.host == host_id]

    def usage_snapshot(self) -> dict[str, ResourceDemand]:
        return {tid: t.used for tid, t in self.tenants.items()}

    def tenant_latency(self, a: str, b: str) -> float:
        """Shortest-path latency between two tenants' hosts; 0 on one host."""
        ta = self.tenants.get(a)
        tb = self.tenants.get(b)
        if ta is None or tb is None:
            missing = a if ta is None else b
            raise UnknownEntity(f"unknown tenant {missing!r}")
        if ta.host == tb.host:
            return 0.0
        latency = self._distances_from(ta.host).get(tb.host)
        if latency is None:
            raise Unreachable(
                f"no physical path between tenants {a!r} and {b!r}"
            )
        return latency

    def _adjacency(self) -> tuple[int, dict[str, dict[str, int]]]:
        """The neighbour map in whole units of 1 / scale, and the scale.

        A latency is num / den with den a power of two; scale is the
        largest den, so every weight is whole and path sums are exact.
        """
        if self._graph is None:
            ratios = [
                (link.endpoints, *link.latency.as_integer_ratio())
                for link in self.links.values()
            ]
            scale = max((den for _, _, den in ratios), default=1)
            neighbors: dict[str, dict[str, int]] = {h: {} for h in self.hosts}
            for (u, v), num, den in ratios:
                weight = num * (scale // den)
                # Parallel links: keep the faster one, Dijkstra never takes
                # the slower.
                if v not in neighbors[u] or weight < neighbors[u][v]:
                    neighbors[u][v] = neighbors[v][u] = weight
            self._graph = scale, neighbors
        return self._graph

    def _distances_from(self, source: str) -> dict[str, float]:
        """Dijkstra from one host: latency to every host it reaches.

        Each distance is an exact sum of _adjacency's whole weights,
        divided by the scale once, so it is correctly rounded and the same
        number from either end.
        """
        if source in self._distances:
            return self._distances[source]
        scale, neighbors = self._adjacency()
        reached: dict[str, int] = {}
        frontier = [(0, source)]
        while frontier:
            distance, host = heapq.heappop(frontier)
            if host in reached:
                continue
            reached[host] = distance
            for neighbor, weight in neighbors[host].items():
                if neighbor not in reached:
                    heapq.heappush(frontier, (distance + weight, neighbor))
        distances = {host: total / scale for host, total in reached.items()}
        self._distances[source] = distances
        return distances

    # -- allocation --------------------------------------------------------

    def capacity_refusal(
        self,
        tenant_id: str,
        service_id: str,
        demand: ResourceDemand,
        *accepted: ResourceDemand,
    ) -> str | None:
        """Why the tenant cannot also hold demand, or None.

        The demand is counted on top of what the tenant's live allocations
        use and of the demands already accepted for it but not yet
        allocated. Demands are whole numbers, so the sum is exact and a
        demand accepted here is never refused by allocate.
        """
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            raise UnknownEntity(f"unknown tenant {tenant_id!r}")
        held = tenant.used
        for other in accepted:
            held = held + other
        if (held + demand).fits_within(tenant.quota):
            return None
        return f"tenant {tenant_id!r} cannot hold {demand} for service {service_id!r}"

    def hold(self, allocation: Allocation) -> None:
        """Record allocation and add its demand to its tenant's use. An
        unknown tenant, a service that already holds one and a demand past
        the quota are refused, in that order, and the refusal changes
        nothing."""
        refusal = self.capacity_refusal(
            allocation.tenant, allocation.service, allocation.demand
        )
        if allocation.service in self.allocations:
            raise ValueError(f"service {allocation.service!r} already holds one")
        if refusal is not None:
            raise InsufficientCapacity(refusal)
        self.allocations[allocation.service] = allocation
        tenant = self.tenants[allocation.tenant]
        tenant.used = tenant.used + allocation.demand

    def allocate(
        self, tenant_id: str, service_id: str, demand: ResourceDemand
    ) -> Allocation:
        allocation = Allocation(tenant_id, service_id, demand)
        self.hold(allocation)
        return allocation

    def release(self, service_id: str) -> None:
        allocation = self.allocations.pop(service_id, None)
        if allocation is None:
            raise UnknownAllocation(f"service {service_id!r} holds no allocation")
        tenant = self.tenants[allocation.tenant]
        tenant.used = tenant.used - allocation.demand


def build_testbed() -> Infrastructure:
    """The reference topology: three private tenants on three linked hosts.

    One tenant each for orchestration, control plane, and data plane. The
    quotas are sized so the bundled control-plane and data-plane service
    fixtures fit their intended tenants and nowhere else.
    """
    infra = Infrastructure()
    capacity = ResourceDemand(vcpu=8, ram=16384, storage=128, ports=16)
    for host_id in ("host-orch", "host-cp", "host-dp"):
        infra.add_host(Host(id=host_id, name=host_id, capacity=capacity, site="core"))
    infra.add_tenant(
        Tenant(
            id="tenant-orch",
            name="orchestration",
            owner="p-greyop",
            host="host-orch",
            quota=ResourceDemand(vcpu=2, ram=4096, storage=32, ports=8),
        )
    )
    infra.add_tenant(
        Tenant(
            id="tenant-cp",
            name="control-plane",
            owner="p-greyop",
            host="host-cp",
            quota=ResourceDemand(vcpu=6, ram=12288, storage=64, ports=10),
        )
    )
    infra.add_tenant(
        Tenant(
            id="tenant-dp",
            name="data-plane",
            owner="p-greyop",
            host="host-dp",
            quota=ResourceDemand(vcpu=4, ram=8192, storage=48, ports=8),
        )
    )
    for a, b in (("orch", "cp"), ("cp", "dp")):
        infra.add_link(
            PhysicalLink(
                id=f"link-{a}-{b}",
                endpoints=(f"host-{a}", f"host-{b}"),
                latency=1.0,
                bandwidth=10000,
            )
        )
    return infra
