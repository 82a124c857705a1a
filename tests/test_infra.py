"""Infrastructure bookkeeping: invariants, latency queries, allocation."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import oracles
from slicectl.errors import (
    InsufficientCapacity,
    IoFailure,
    UnknownAllocation,
    UnknownEntity,
    Unreachable,
)
from slicectl.infra import (
    Allocation,
    Host,
    Infrastructure,
    IsolationClass,
    PhysicalLink,
    Tenant,
    build_testbed,
)
from slicectl.model import ResourceDemand
from slicectl.store import load_inventory

# The inventory `slicectl demo slice-a` writes, as an older build wrote it.
GOLDEN = Path(__file__).parent / "golden"


def big_host(host_id: str) -> Host:
    return Host(id=host_id, name=host_id, capacity=ResourceDemand(64, 65536, 1024, 64))


def small_tenant(tenant_id: str, host_id: str) -> Tenant:
    return Tenant(
        id=tenant_id,
        name=tenant_id,
        owner="p",
        host=host_id,
        quota=ResourceDemand(4, 4096, 32, 8),
    )


LINE_HOSTS = ("host-orch", "host-cp", "host-dp")


def host_line(*latencies: float) -> Infrastructure:
    """The testbed's three hosts in a line, one tenant on each (tenant-orch,
    tenant-cp, tenant-dp), joined in order by links of these latencies."""
    infra = Infrastructure()
    for host_id in LINE_HOSTS:
        infra.add_host(big_host(host_id))
        infra.add_tenant(small_tenant(host_id.replace("host-", "tenant-"), host_id))
    for a, b, latency in zip(LINE_HOSTS, LINE_HOSTS[1:], latencies):
        infra.add_link(
            PhysicalLink(id=f"{a}-{b}", endpoints=(a, b), latency=latency, bandwidth=1.0)
        )
    return infra


class TestConstruction:
    def test_used_may_not_exceed_quota(self, tmp_path):
        """A tenant's use is the sum of its allocations: it cannot be passed
        in, and an inventory whose allocations sum past a quota is refused,
        naming the file and the tenant."""
        with pytest.raises(TypeError, match="used"):
            Tenant(
                id="t",
                name="t",
                owner="p",
                host="h",
                quota=ResourceDemand(1),
                used=ResourceDemand(2),
            )
        raw = yaml.safe_load((GOLDEN / "inventory.yaml").read_text())
        # tenant-cp holds 5 of its 6 vcpu for svc-core-cp already.
        raw["allocations"].append(
            {
                "id": "alloc-0",
                "tenant": "tenant-cp",
                "service": "svc-x",
                "demand": {"vcpu": 2, "ram": 0, "storage": 0, "ports": 0},
            }
        )
        path = tmp_path / "inventory.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(
            IoFailure,
            match=re.escape(f"{path}: corrupt inventory: tenant 'tenant-cp' cannot hold"),
        ):
            load_inventory(path)

    def test_link_must_join_distinct_hosts(self):
        with pytest.raises(ValueError, match="distinct"):
            PhysicalLink(id="l", endpoints=("h1", "h1"), latency=1.0, bandwidth=1.0)
        with pytest.raises(ValueError, match="latency"):
            PhysicalLink(id="l", endpoints=("h1", "h2"), latency=0.0, bandwidth=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["latency", "bandwidth"])
    def test_link_numbers_must_be_finite_and_positive(self, name, value):
        numbers = {"latency": 1.0, "bandwidth": 1.0, name: value}
        with pytest.raises(ValueError, match=f"link {name} must be a finite number"):
            PhysicalLink(id="l", endpoints=("h1", "h2"), **numbers)

    def test_duplicate_ids_rejected(self):
        infra = Infrastructure()
        infra.add_host(big_host("h1"))
        with pytest.raises(ValueError, match="already exists"):
            infra.add_host(big_host("h1"))

    def test_tenant_needs_existing_host(self):
        infra = Infrastructure()
        with pytest.raises(ValueError, match="unknown host"):
            infra.add_tenant(small_tenant("t1", "h-missing"))

    def test_quotas_may_not_oversubscribe_host(self):
        infra = Infrastructure()
        infra.add_host(Host(id="h1", name="h1", capacity=ResourceDemand(6, 8192, 64, 16)))
        infra.add_tenant(small_tenant("t1", "h1"))
        # A second 4-vcpu quota would put the host at 8 > 6.
        with pytest.raises(ValueError, match="capacity"):
            infra.add_tenant(small_tenant("t2", "h1"))

    def test_link_endpoints_must_exist(self):
        infra = Infrastructure()
        infra.add_host(big_host("h1"))
        with pytest.raises(ValueError, match="unknown host"):
            infra.add_link(
                PhysicalLink(id="l", endpoints=("h1", "h9"), latency=1.0, bandwidth=1.0)
            )


class TestLatency:
    def test_same_host_is_zero(self):
        infra = Infrastructure()
        infra.add_host(big_host("h1"))
        infra.add_tenant(small_tenant("t1", "h1"))
        infra.add_tenant(small_tenant("t2", "h1"))
        assert infra.tenant_latency("t1", "t2") == 0.0

    def test_unknown_tenant(self):
        infra = build_testbed()
        with pytest.raises(UnknownEntity, match="t-ghost"):
            infra.tenant_latency("tenant-cp", "t-ghost")

    def test_two_hop_path(self):
        infra = host_line(2.0, 3.0)
        assert infra.tenant_latency("tenant-orch", "tenant-dp") == 5.0
        assert infra.tenant_latency("tenant-dp", "tenant-orch") == 5.0

    def test_disconnected_hosts_raise(self):
        infra = host_line()
        with pytest.raises(Unreachable):
            infra.tenant_latency("tenant-orch", "tenant-dp")

    def test_parallel_links_keep_the_fastest(self):
        infra = Infrastructure()
        infra.add_host(big_host("h1"))
        infra.add_host(big_host("h2"))
        infra.add_tenant(small_tenant("t1", "h1"))
        infra.add_tenant(small_tenant("t2", "h2"))
        infra.add_link(
            PhysicalLink(id="slow", endpoints=("h1", "h2"), latency=9.0, bandwidth=1.0)
        )
        infra.add_link(
            PhysicalLink(id="fast", endpoints=("h1", "h2"), latency=2.0, bandwidth=1.0)
        )
        assert infra.tenant_latency("t1", "t2") == 2.0

    def test_new_links_invalidate_the_cached_graph(self):
        infra = host_line(4.0, 4.0)
        assert infra.tenant_latency("tenant-orch", "tenant-dp") == 8.0
        infra.add_link(
            PhysicalLink(
                id="shortcut",
                endpoints=("host-orch", "host-dp"),
                latency=1.0,
                bandwidth=1.0,
            )
        )
        assert infra.tenant_latency("tenant-orch", "tenant-dp") == 1.0

    def test_new_hosts_join_the_cached_distances(self):
        infra = host_line(2.0, 3.0)
        # Fills the distances cached for host-orch.
        assert infra.tenant_latency("tenant-orch", "tenant-dp") == 5.0
        infra.add_host(big_host("h-new"))
        infra.add_tenant(small_tenant("t-new", "h-new"))
        with pytest.raises(Unreachable):
            infra.tenant_latency("tenant-orch", "t-new")
        with pytest.raises(Unreachable):
            infra.tenant_latency("t-new", "tenant-orch")
        infra.add_link(
            PhysicalLink(
                id="l-new", endpoints=("host-dp", "h-new"), latency=0.5, bandwidth=1.0
            )
        )
        assert infra.tenant_latency("tenant-orch", "t-new") == 5.5
        assert infra.tenant_latency("t-new", "tenant-orch") == 5.5

    @given(data=st.data())
    def test_latency_matches_path_enumeration(self, data):
        """Dijkstra agrees with brute-force simple-path search exactly."""
        n = data.draw(st.integers(min_value=2, max_value=6))
        infra = Infrastructure()
        for i in range(n):
            infra.add_host(big_host(f"h{i}"))
            infra.add_tenant(small_tenant(f"t{i}", f"h{i}"))
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.integers(1, 12),
                ),
                max_size=10,
            )
        )
        links = []
        for serial, (i, j, quarter_ms) in enumerate(pairs):
            if i == j:
                continue
            latency = quarter_ms * 0.25
            infra.add_link(
                PhysicalLink(
                    id=f"l{serial}",
                    endpoints=(f"h{i}", f"h{j}"),
                    latency=latency,
                    bandwidth=100.0,
                )
            )
            links.append((f"h{i}", f"h{j}", latency))
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        expected = oracles.shortest_latency(links, f"h{a}", f"h{b}")
        if math.isinf(expected):
            with pytest.raises(Unreachable):
                infra.tenant_latency(f"t{a}", f"t{b}")
        else:
            assert infra.tenant_latency(f"t{a}", f"t{b}") == expected

    @given(data=st.data())
    def test_latency_is_exact_and_the_same_from_either_end(self, data):
        """With latencies of two decimals, whose float sums round, each
        tenant pair's latency is the exact shortest path sum rounded once,
        whichever tenant is asked first."""
        n = data.draw(st.integers(min_value=2, max_value=6))
        infra = Infrastructure()
        for i in range(n):
            infra.add_host(big_host(f"h{i}"))
            infra.add_tenant(small_tenant(f"t{i}", f"h{i}"))
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.integers(5, 300),
                ),
                max_size=10,
            )
        )
        links = []
        for serial, (i, j, hundredths) in enumerate(pairs):
            if i == j:
                continue
            latency = hundredths / 100
            infra.add_link(
                PhysicalLink(
                    id=f"l{serial}",
                    endpoints=(f"h{i}", f"h{j}"),
                    latency=latency,
                    bandwidth=100.0,
                )
            )
            links.append((f"h{i}", f"h{j}", latency))
        for a in range(n):
            for b in range(a + 1, n):
                expected = oracles.shortest_latency(links, f"h{a}", f"h{b}")
                if math.isinf(expected):
                    continue
                forth = infra.tenant_latency(f"t{a}", f"t{b}")
                back = infra.tenant_latency(f"t{b}", f"t{a}")
                assert forth == back == expected


class TestAllocation:
    def test_allocate_updates_used_and_conserves(self):
        infra = build_testbed()
        first = infra.allocate("tenant-cp", "svc-x", ResourceDemand(2, 1024, 8, 2))
        second = infra.allocate("tenant-cp", "svc-y", ResourceDemand(1, 512, 4, 1))
        assert infra.allocations == {"svc-x": first, "svc-y": second}
        assert infra.tenants["tenant-cp"].used.as_tuple() == (3, 1536, 12, 3)
        assert oracles.recompute_used(infra)["tenant-cp"] == (3, 1536, 12, 3)

    def test_rejected_allocation_changes_nothing(self):
        infra = build_testbed()
        before = infra.usage_snapshot()
        with pytest.raises(InsufficientCapacity):
            infra.allocate("tenant-orch", "svc-x", ResourceDemand(vcpu=3))
        assert infra.usage_snapshot() == before
        assert not infra.allocations

    def test_release_returns_capacity(self):
        infra = build_testbed()
        infra.allocate("tenant-dp", "svc-x", ResourceDemand(2, 1024, 8, 2))
        infra.release("svc-x")
        assert not infra.allocations
        assert infra.tenants["tenant-dp"].used.as_tuple() == (0, 0, 0, 0)
        assert oracles.recompute_used(infra)["tenant-dp"] == (0, 0, 0, 0)

    def test_held_id_is_refused_and_changes_nothing(self):
        """An allocation is known by the service that holds it, and a
        service lands on one tenant: a second one for it is refused."""
        infra = build_testbed()
        held = infra.allocate("tenant-cp", "svc-x", ResourceDemand(2, 1024, 8, 2))
        before = infra.usage_snapshot()
        with pytest.raises(ValueError, match="service 'svc-x' already holds one"):
            infra.hold(Allocation("tenant-dp", "svc-x", ResourceDemand(1)))
        with pytest.raises(ValueError, match="service 'svc-x' already holds one"):
            infra.allocate("tenant-cp", "svc-x", ResourceDemand(1))
        assert infra.usage_snapshot() == before
        assert infra.allocations == {"svc-x": held}

    def test_release_unknown_allocation(self):
        infra = build_testbed()
        infra.allocate("tenant-cp", "svc-x", ResourceDemand(1))
        with pytest.raises(UnknownAllocation, match="service 'svc-y' holds no allocation"):
            infra.release("svc-y")

    def test_free_is_quota_minus_used(self):
        infra = build_testbed()
        infra.allocate("tenant-cp", "svc-x", ResourceDemand(2, 1024, 8, 2))
        free = infra.tenants["tenant-cp"].free
        assert free.as_tuple() == (4, 11264, 56, 8)


class TestTestbed:
    def test_shape(self):
        infra = build_testbed()
        assert set(infra.hosts) == {"host-orch", "host-cp", "host-dp"}
        assert set(infra.tenants) == {"tenant-orch", "tenant-cp", "tenant-dp"}
        assert set(infra.links) == {"link-orch-cp", "link-cp-dp"}
        assert all(t.used.as_tuple() == (0, 0, 0, 0) for t in infra.tenants.values())
        assert infra.hosts["host-cp"].isolation_class is IsolationClass.SHARED

    def test_tenants_on_host(self):
        infra = build_testbed()
        assert [t.id for t in infra.tenants_on_host("host-cp")] == ["tenant-cp"]
