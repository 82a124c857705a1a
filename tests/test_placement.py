"""Placement solving and the independent plan verifier."""

from __future__ import annotations

import copy
import math
import random
from dataclasses import replace

import pytest
import yaml

import oracles
import scenario

from slicectl.errors import IoFailure, MissingFootprint
from slicectl.infra import (
    Host,
    Infrastructure,
    IsolationClass,
    PhysicalLink,
    Tenant,
    build_testbed,
)
from slicectl.model import (
    IsolationLevel,
    NetworkSlice,
    ResourceDemand,
    ServiceProfile,
    ServiceRequirement,
    make_slice_template,
)
from slicectl.placement import (
    Assignment,
    CapabilityOffer,
    CapabilityRequirement,
    EXHAUSTIVE_MAX_PAIRS,
    PlacementPlan,
    Severity,
    VIOLATION_BUDGET,
    VIOLATION_DUPLICATE,
    VIOLATION_ISOLATION,
    VIOLATION_LATENCY_EXCEEDED,
    VIOLATION_LATENCY_MISMATCH,
    VIOLATION_MISSING,
    VIOLATION_OVERFLOW,
    VIOLATION_SLICE_MISMATCH,
    VIOLATION_UNKNOWN_SERVICE,
    VIOLATION_UNKNOWN_TENANT,
    offered_capabilities,
    plan_placement,
    required_capabilities,
    verify_plan,
)
from slicectl.store import load_plan, save_plan


def two_service_slice(**profile_overrides) -> NetworkSlice:
    values = {
        "end_to_end_latency": 10.0,
        "guaranteed_data_rate": 50.0,
        "service_availability": 0.99,
    }
    values.update(profile_overrides)
    return NetworkSlice(
        id="slice-t",
        name="t",
        customer="c",
        provider="p",
        services=("svc-a", "svc-b"),
        profile=ServiceProfile(**values),
    )


def requirement(service: str, vcpu: int = 1, **kwargs) -> CapabilityRequirement:
    return CapabilityRequirement(
        service=service, demand=ResourceDemand(vcpu=vcpu), **kwargs
    )


def allocate_in_slice_order(
    plan: PlacementPlan, reqs: list[CapabilityRequirement], infra: Infrastructure
) -> None:
    """Allocate every assignment of a verified plan; none may be refused,
    and each tenant's used must equal its allocations summed afresh."""
    demand_of = {r.service: r.demand for r in reqs}
    for assignment in plan.assignments:
        infra.allocate(
            assignment.tenant, assignment.service, demand_of[assignment.service]
        )
    assert oracles.recompute_used(infra) == {
        t.id: t.used.as_tuple() for t in infra.tenants.values()
    }


def tiny_infra(quotas: dict[str, int], links=()) -> Infrastructure:
    """One host per tenant, quotas in vcpu only, links as (a, b, ms)."""
    infra = Infrastructure()
    for index, tenant_id in enumerate(sorted(quotas)):
        host_id = f"h-{tenant_id}"
        infra.add_host(
            Host(id=host_id, name=host_id, capacity=ResourceDemand(64, 1, 1, 1))
        )
        infra.add_tenant(
            Tenant(
                id=tenant_id,
                name=tenant_id,
                owner="p",
                host=host_id,
                quota=ResourceDemand(vcpu=quotas[tenant_id]),
            )
        )
    for serial, (a, b, latency) in enumerate(links):
        infra.add_link(
            PhysicalLink(
                id=f"l{serial}",
                endpoints=(f"h-{a}", f"h-{b}"),
                latency=latency,
                bandwidth=1000.0,
            )
        )
    return infra


class TestCapabilityDerivation:
    def test_requirement_is_max_of_template_and_footprint(self):
        slc = two_service_slice(degree_of_isolation="dedicated_tenant")
        entry = ServiceRequirement(
            latency_budget=4.0,
            reliability=0.999,
            data_rate=100.0,
            demand=ResourceDemand(2, 4096, 20, 4),
        )
        template = make_slice_template(slc, {"svc-a": entry, "svc-b": entry})
        footprints = {
            "svc-a": ResourceDemand(5, 1024, 40, 8),
            "svc-b": ResourceDemand(1, 8192, 10, 2),
        }
        reqs = required_capabilities(slc, template, footprints)
        assert [r.service for r in reqs] == ["svc-a", "svc-b"]
        assert reqs[0].demand.as_tuple() == (5, 4096, 40, 8)
        assert reqs[1].demand.as_tuple() == (2, 8192, 20, 4)
        assert all(r.isolation is IsolationLevel.DEDICATED_TENANT for r in reqs)
        assert reqs[0].latency_budget == 4.0

    def test_missing_footprint_raises(self):
        slc = two_service_slice()
        entry = ServiceRequirement(latency_budget=4.0, reliability=0.999, data_rate=50.0)
        template = make_slice_template(slc, {"svc-a": entry, "svc-b": entry})
        with pytest.raises(MissingFootprint, match="svc-b"):
            required_capabilities(slc, template, {"svc-a": ResourceDemand()})

    def test_offers_reflect_live_usage_in_tenant_order(self):
        infra = build_testbed()
        infra.allocate("tenant-dp", "svc-x", ResourceDemand(1, 1024, 8, 2))
        offers = offered_capabilities(infra)
        assert [o.tenant for o in offers] == ["tenant-cp", "tenant-dp", "tenant-orch"]
        by_tenant = {o.tenant: o for o in offers}
        assert by_tenant["tenant-dp"].free.as_tuple() == (3, 7168, 40, 6)


class TestPlanPlacement:
    def test_precondition_errors(self):
        slc = two_service_slice()
        infra = tiny_infra({"t-a": 4})
        offers = offered_capabilities(infra)
        reqs = [requirement("svc-a"), requirement("svc-b")]
        with pytest.raises(ValueError, match="non-empty"):
            plan_placement(slc, [], offers, infra)
        with pytest.raises(ValueError, match="non-empty"):
            plan_placement(slc, reqs, [], infra)
        with pytest.raises(ValueError, match="duplicate requirement"):
            plan_placement(slc, reqs + [requirement("svc-a")], offers, infra)
        with pytest.raises(ValueError, match="cover exactly"):
            plan_placement(slc, [requirement("svc-a")], offers, infra)
        with pytest.raises(ValueError, match="duplicate offer"):
            plan_placement(slc, reqs, offers + offers, infra)

    def test_colocation_wins_when_it_fits(self):
        slc = two_service_slice()
        infra = tiny_infra({"t-a": 4, "t-b": 4}, links=[("t-a", "t-b", 5.0)])
        plan = plan_placement(
            slc,
            [requirement("svc-a"), requirement("svc-b")],
            offered_capabilities(infra),
            infra,
        )
        assert plan.feasible
        assert plan.e2e_latency == 0.0
        assert plan.tenant_of("svc-a") == plan.tenant_of("svc-b") == "t-a"

    def test_split_when_colocation_does_not_fit(self):
        slc = two_service_slice()
        infra = tiny_infra({"t-a": 1, "t-b": 1}, links=[("t-a", "t-b", 5.0)])
        plan = plan_placement(
            slc,
            [requirement("svc-a"), requirement("svc-b")],
            offered_capabilities(infra),
            infra,
        )
        assert plan.feasible
        assert plan.e2e_latency == 5.0
        assert plan.tenant_of("svc-a") != plan.tenant_of("svc-b")

    def test_infeasible_is_a_result_not_an_error(self):
        slc = two_service_slice()
        infra = tiny_infra({"t-a": 1, "t-b": 1})
        plan = plan_placement(
            slc,
            [requirement("svc-a", vcpu=9), requirement("svc-b")],
            offered_capabilities(infra),
            infra,
        )
        assert plan == PlacementPlan(slc.id, (), 0.0, False)

    def test_profile_limit_is_a_hard_constraint(self):
        # The only split available costs 5 ms but the profile allows 2 ms.
        slc = two_service_slice(end_to_end_latency=2.0)
        infra = tiny_infra({"t-a": 1, "t-b": 1}, links=[("t-a", "t-b", 5.0)])
        plan = plan_placement(
            slc,
            [requirement("svc-a"), requirement("svc-b")],
            offered_capabilities(infra),
            infra,
        )
        assert not plan.feasible

    def test_exhaustive_prefers_lexicographic_ties(self):
        slc = two_service_slice()
        infra = tiny_infra({"t-a": 4, "t-b": 4})
        plan = plan_placement(
            slc,
            [requirement("svc-a"), requirement("svc-b")],
            offered_capabilities(infra),
            infra,
        )
        # Both tenants fit everything at zero cost; the tie goes left.
        assert [a.tenant for a in plan.assignments] == ["t-a", "t-a"]

    def test_equal_cost_tie_found_late_still_goes_to_the_first_tuple(self):
        # svc-0 fits only t-1, which it fills; t-3 holds one more service.
        # From t-1 the search tries t-3 (1 ms) before t-2 (2 ms), so it
        # meets (t-1, t-3, t-2) at 2 ms before (t-1, t-2, t-2), also 2 ms.
        # The tie goes to the tuple first in tenant order.
        infra = tiny_infra(
            {"t-1": 4, "t-2": 2, "t-3": 1},
            links=[("t-1", "t-3", 1.0), ("t-3", "t-2", 1.0)],
        )
        slc = replace(two_service_slice(), services=("svc-0", "svc-1", "svc-2"))
        reqs = [requirement("svc-0", vcpu=4), requirement("svc-1"), requirement("svc-2")]
        offers = offered_capabilities(infra)
        plan = plan_placement(slc, reqs, offers, infra)
        assert plan.e2e_latency == 2.0
        assert [a.tenant for a in plan.assignments] == ["t-1", "t-2", "t-2"]
        later = PlacementPlan(
            slc.id,
            tuple(
                Assignment(s, t)
                for s, t in zip(slc.services, ("t-1", "t-3", "t-2"))
            ),
            2.0,
            True,
        )
        assert verify_plan(later, reqs, offers, infra, slice=slc)[0]

    def test_bound_rounding_does_not_cut_an_equal_cost_tie(self):
        # svc-0 fits only t-a, svc-1 only t-b or t-c, svc-2 and svc-3 one
        # each on t-d and t-e. Nearest-first meets (a, c, d, e) first:
        # 0.25 + 0.25 + 0.1 = 0.6. Below (a, b) it bounds the rest by t-b's
        # nearest hop plus the smallest hop, and 0.3 + (0.2 + 0.1) rounds to
        # 0.6000000000000001, one ulp above what (a, b, d, e) adds up to:
        # (0.3 + 0.2) + 0.1 = 0.6. That tie comes first in tenant order.
        infra = Infrastructure()
        quotas = {
            "t-a": ResourceDemand(storage=4),
            "t-b": ResourceDemand(ports=1),
            "t-c": ResourceDemand(ports=1),
            "t-d": ResourceDemand(vcpu=1),
            "t-e": ResourceDemand(vcpu=1),
        }
        for tenant_id, quota in quotas.items():
            host_id = f"h-{tenant_id}"
            infra.add_host(
                Host(id=host_id, name=host_id, capacity=ResourceDemand(8, 8, 8, 8))
            )
            infra.add_tenant(
                Tenant(id=tenant_id, name=tenant_id, owner="p", host=host_id, quota=quota)
            )
        for a, b, latency in [
            ("a", "b", 0.3), ("a", "c", 0.25), ("b", "d", 0.2),
            ("c", "d", 0.25), ("d", "e", 0.1),
        ]:
            infra.add_link(
                PhysicalLink(
                    id=f"l-{a}{b}", endpoints=(f"h-t-{a}", f"h-t-{b}"),
                    latency=latency, bandwidth=1000.0,
                )
            )
        slc = replace(
            two_service_slice(), services=("svc-0", "svc-1", "svc-2", "svc-3")
        )
        reqs = [
            CapabilityRequirement("svc-0", ResourceDemand(storage=4)),
            CapabilityRequirement("svc-1", ResourceDemand(ports=1)),
            CapabilityRequirement("svc-2", ResourceDemand(vcpu=1)),
            CapabilityRequirement("svc-3", ResourceDemand(vcpu=1)),
        ]
        plan = plan_placement(slc, reqs, offered_capabilities(infra), infra)
        assert plan.e2e_latency == 0.6
        assert [a.tenant for a in plan.assignments] == ["t-a", "t-b", "t-d", "t-e"]

    def test_greedy_solver_is_selectable_and_verifies(self, monkeypatch):
        monkeypatch.setattr("slicectl.placement.EXHAUSTIVE_MAX_PAIRS", 0)
        slc = two_service_slice()
        infra = tiny_infra({"t-a": 1, "t-b": 4}, links=[("t-a", "t-b", 1.0)])
        reqs = [requirement("svc-a"), requirement("svc-b")]
        offers = offered_capabilities(infra)
        plan = plan_placement(slc, reqs, offers, infra)
        assert plan.feasible
        ok, violations = verify_plan(plan, reqs, offers, infra, slice=slc)
        assert ok, violations

    @pytest.mark.parametrize(
        "n_services, n_tenants, solver",
        [(4, 16, "exact"), (5, 13, "greedy")],
    )
    def test_exact_search_up_to_the_pair_limit(
        self, n_services, n_tenants, solver
    ):
        # svc-0 fills t-a or t-b; t-c holds the rest and is 5 ms from t-a,
        # 1 ms from t-b. Greedy puts svc-0 on the first tenant, t-a, and
        # pays 5 ms; the optimum puts it on t-b and pays 1 ms. Tenants
        # without quota pad the instance to the pair count.
        pairs = n_services * n_tenants
        assert pairs - EXHAUSTIVE_MAX_PAIRS == (0 if solver == "exact" else 1)
        quotas = {"t-a": 10, "t-b": 10, "t-c": n_services - 1}
        quotas.update({f"t-x{i:02}": 0 for i in range(n_tenants - 3)})
        infra = tiny_infra(
            quotas, links=[("t-a", "t-c", 5.0), ("t-b", "t-c", 1.0)]
        )
        services = [f"svc-{i}" for i in range(n_services)]
        slc = NetworkSlice(
            id="slice-t",
            name="t",
            customer="c",
            provider="p",
            services=services,
            profile=ServiceProfile(
                end_to_end_latency=10.0,
                guaranteed_data_rate=50.0,
                service_availability=0.99,
            ),
        )
        reqs = [requirement("svc-0", vcpu=10)]
        reqs += [requirement(s) for s in services[1:]]
        plan = plan_placement(slc, reqs, offered_capabilities(infra), infra)
        first, cost = ("t-b", 1.0) if solver == "exact" else ("t-a", 5.0)
        assert plan.feasible
        assert plan.e2e_latency == cost
        assert [a.tenant for a in plan.assignments] == [first] + ["t-c"] * (
            n_services - 1
        )

    @pytest.mark.parametrize("shape", ["line", "tree"])
    @pytest.mark.parametrize(
        "n_services, n_tenants, most_pairs",
        [(6, 40, 5 * 39), (7, 9, 9 * 8 // 2)],
        ids=["greedy", "exact"],
    )
    def test_planner_asks_each_pair_once_and_only_the_rows_it_reads(
        self, monkeypatch, shape, n_services, n_tenants, most_pairs
    ):
        # Greedy reads the rows of the first n_services - 1 tenants of its
        # chain, the exact search every row; no pair is asked twice.
        rng = random.Random(f"{shape}-{n_services}x{n_tenants}")
        tenants = [f"t{i:02}" for i in range(n_tenants)]
        links = []
        for i in range(1, n_tenants):
            parent = i - 1 if shape == "line" else rng.randrange(i)
            links.append((tenants[parent], tenants[i], rng.randint(1, 8) * 0.25))
        # One vcpu per tenant: every service needs a tenant of its own.
        infra = tiny_infra(dict.fromkeys(tenants, 1), links=links)
        services = [f"svc-{i}" for i in range(n_services)]
        slc = NetworkSlice(
            id="slice-t",
            name="t",
            customer="c",
            provider="p",
            services=services,
            profile=ServiceProfile(
                end_to_end_latency=100.0,
                guaranteed_data_rate=50.0,
                service_availability=0.99,
            ),
        )
        reqs = [requirement(s) for s in services]
        offers = offered_capabilities(infra)
        asked = []
        tenant_latency = Infrastructure.tenant_latency

        def counted(self, a, b):
            asked.append(frozenset((a, b)))
            return tenant_latency(self, a, b)

        monkeypatch.setattr(Infrastructure, "tenant_latency", counted)
        plan = plan_placement(slc, reqs, offers, infra)
        assert 1 <= len(asked) <= most_pairs
        assert len(set(asked)) == len(asked)
        assert plan.feasible
        assert len({a.tenant for a in plan.assignments}) == n_services
        ok, violations = verify_plan(plan, reqs, offers, infra, slice=slc)
        assert ok, violations

    def test_testbed_fixture_demands_have_one_home(self):
        # Effective control-plane demand only fits tenant-cp, and the two
        # services together overflow it, so the optimum is forced.
        infra = build_testbed()
        slc = two_service_slice()
        reqs = [
            CapabilityRequirement("svc-a", ResourceDemand(5, 8192, 40, 8)),
            CapabilityRequirement("svc-b", ResourceDemand(3, 5120, 30, 4)),
        ]
        plan = plan_placement(slc, reqs, offered_capabilities(infra), infra)
        assert plan.feasible
        assert plan.tenant_of("svc-a") == "tenant-cp"
        assert plan.tenant_of("svc-b") == "tenant-dp"
        assert plan.e2e_latency == 1.0

    def test_constrained_instances_match_the_oracle(self, monkeypatch):
        """On 250 instances with isolation, foreign allocations,
        dedicated hosts, shared hosts and float latencies, the plan is the
        brute-force optimum: the same e2e_latency to the bit and the same
        assignment. Greedy plans verify and never beat it. A plan that
        verifies always allocates, member by member in slice order."""
        outcomes = {"feasible": 0, "exclusive": 0, "zero_hop": 0}
        for index in range(250):
            rng = random.Random(20261018 + index)
            slc, reqs, offers, infra, info = scenario.random_constrained_instance(rng)

            def hop(a: str, b: str) -> float:
                return oracles.shortest_latency(
                    info["links"], info["host_of"][a], info["host_of"][b]
                )

            expected = oracles.best_assignment(
                info["services"],
                info["demands"],
                info["tenants"],
                info["free"],
                hop,
                info["limit"],
                isolation=info["isolation"],
                occupied=info["occupied"],
                dedicated_host=info["dedicated_host"],
            )
            plan = plan_placement(slc, reqs, offers, infra)
            if expected is None:
                assert not plan.feasible, f"instance {index}: oracle says infeasible"
                continue
            opt_latency, opt_assignment = expected
            assert plan.feasible, f"instance {index}: oracle found {opt_assignment}"
            assert plan.e2e_latency == opt_latency, f"instance {index}"
            assert {a.service: a.tenant for a in plan.assignments} == opt_assignment
            ok, violations = verify_plan(plan, reqs, offers, infra, slice=slc)
            assert ok, f"instance {index}: {violations}"
            outcomes["feasible"] += 1
            outcomes["exclusive"] += any(
                info["isolation"][s] != "shared" for s in info["services"]
            )
            chain = [opt_assignment[s] for s in info["services"]]
            outcomes["zero_hop"] += any(
                a != b and info["host_of"][a] == info["host_of"][b]
                for a, b in zip(chain, chain[1:])
            )

            with monkeypatch.context() as patch:
                patch.setattr("slicectl.placement.EXHAUSTIVE_MAX_PAIRS", 0)
                greedy = plan_placement(slc, reqs, offers, infra)
            if greedy.feasible:
                ok, violations = verify_plan(greedy, reqs, offers, infra, slice=slc)
                assert ok, f"instance {index}: greedy plan rejected {violations}"
                assert greedy.e2e_latency >= opt_latency
                allocate_in_slice_order(greedy, reqs, copy.deepcopy(infra))
            allocate_in_slice_order(plan, reqs, infra)
        # The sweep must reach both outcomes and the constraints it is for.
        assert 0 < outcomes["feasible"] < 250
        assert outcomes["exclusive"] > 0
        assert outcomes["zero_hop"] > 0


class TestVerifyPlan:
    def setup_method(self):
        self.slc = two_service_slice()
        self.infra = tiny_infra(
            {"t-a": 2, "t-b": 2}, links=[("t-a", "t-b", 1.0)]
        )
        self.offers = offered_capabilities(self.infra)
        self.reqs = [requirement("svc-a"), requirement("svc-b")]

    def good_plan(self) -> PlacementPlan:
        return PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-a")),
            0.0,
            True,
        )

    def codes(self, plan):
        ok, violations = verify_plan(
            plan, self.reqs, self.offers, self.infra, slice=self.slc
        )
        return ok, [v.code for v in violations]

    def test_good_plan_passes(self):
        ok, codes = self.codes(self.good_plan())
        assert ok and codes == []

    def test_duplicate_assignment(self):
        plan = PlacementPlan(
            "slice-t",
            (
                Assignment("svc-a", "t-a"),
                Assignment("svc-a", "t-b"),
                Assignment("svc-b", "t-a"),
            ),
            0.0,
            True,
        )
        ok, codes = self.codes(plan)
        assert not ok
        assert VIOLATION_DUPLICATE in codes

    def test_missing_and_unknown(self):
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-zz", "t-a")),
            0.0,
            True,
        )
        ok, codes = self.codes(plan)
        assert not ok
        assert VIOLATION_UNKNOWN_SERVICE in codes
        assert VIOLATION_MISSING in codes

    def test_unknown_tenant(self):
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-ghost"), Assignment("svc-b", "t-a")),
            0.0,
            True,
        )
        ok, codes = self.codes(plan)
        assert not ok
        assert VIOLATION_UNKNOWN_TENANT in codes

    def test_cumulative_overflow(self):
        self.reqs = [requirement("svc-a", vcpu=2), requirement("svc-b", vcpu=2)]
        ok, codes = self.codes(self.good_plan())
        assert not ok
        assert VIOLATION_OVERFLOW in codes

    def test_isolation_needs_empty_tenant(self):
        self.infra.allocate("t-a", "svc-old", ResourceDemand(vcpu=1))
        self.offers = offered_capabilities(self.infra)
        self.reqs = [
            requirement("svc-a", isolation="dedicated_tenant"),
            requirement("svc-b"),
        ]
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-b")),
            1.0,
            True,
        )
        ok, codes = self.codes(plan)
        assert not ok
        assert VIOLATION_ISOLATION in codes

    @pytest.mark.parametrize(
        "levels",
        [("dedicated_tenant", "shared"), ("shared", "dedicated_tenant")],
        ids=["exclusive-first", "shared-first"],
    )
    def test_isolation_refuses_sharing_within_the_plan(self, levels):
        # One tenant, both orders: the second member is refused either way.
        self.reqs = [
            requirement(s, isolation=level)
            for s, level in zip(("svc-a", "svc-b"), levels)
        ]
        ok, violations = verify_plan(
            self.good_plan(), self.reqs, self.offers, self.infra, slice=self.slc
        )
        assert not ok
        assert [(v.code, v.service) for v in violations] == [
            (VIOLATION_ISOLATION, "svc-b")
        ]

    def test_member_refusals_match_the_oracle(self):
        """On 300 random assignment tuples, shared-only and constrained,
        with foreign allocations on some tenants, the verifier reports an
        isolation breach or an overflow exactly when the oracle refuses
        the tuple."""
        refused = 0
        for index in range(150):
            rng = random.Random(20261019 + index)
            if index % 2:
                slc, reqs, _, infra, info = scenario.random_constrained_instance(rng)
            else:
                slc, reqs, _, infra, info = scenario.random_instance(rng)
                info["occupied"] = dict.fromkeys(info["tenants"], False)
                if rng.random() < 0.5:
                    tenant = rng.choice(info["tenants"])
                    held = ResourceDemand(1, 512, 4, 1)
                    infra.allocate(tenant, f"foreign-{tenant}", held)
                    info["free"][tenant] = infra.tenants[tenant].free.as_tuple()
                    info["occupied"][tenant] = True
            offers = offered_capabilities(infra)
            for _ in range(2):
                combo = tuple(rng.choice(info["tenants"]) for _ in info["services"])
                plan = PlacementPlan(
                    slc.id,
                    tuple(Assignment(s, t) for s, t in zip(info["services"], combo)),
                    0.0,
                    True,
                )
                _, violations = verify_plan(plan, reqs, offers, infra, slice=slc)
                reported = {v.code for v in violations} & {
                    VIOLATION_ISOLATION,
                    VIOLATION_OVERFLOW,
                }
                fits = oracles.assignment_fits(
                    info["services"],
                    combo,
                    info["demands"],
                    info["free"],
                    isolation=info.get("isolation"),
                    occupied=info["occupied"],
                    dedicated_host=info.get("dedicated_host"),
                )
                assert bool(reported) != fits, f"instance {index}: {combo}"
                refused += not fits
        # The draw must reach both verdicts.
        assert 0 < refused < 300

    def test_dedicated_host_needs_dedicated_class(self):
        self.reqs = [
            requirement("svc-a", isolation="dedicated_host"),
            requirement("svc-b"),
        ]
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-b")),
            1.0,
            True,
        )
        ok, codes = self.codes(plan)
        assert not ok
        assert VIOLATION_ISOLATION in codes

    def test_dedicated_host_passes_on_dedicated_hardware(self):
        infra = Infrastructure()
        infra.add_host(
            Host(
                id="h-a",
                name="h-a",
                capacity=ResourceDemand(8, 1, 1, 1),
                isolation_class=IsolationClass.DEDICATED,
            )
        )
        infra.add_host(Host(id="h-b", name="h-b", capacity=ResourceDemand(8, 1, 1, 1)))
        infra.add_tenant(
            Tenant(id="t-a", name="t-a", owner="p", host="h-a", quota=ResourceDemand(vcpu=4))
        )
        infra.add_tenant(
            Tenant(id="t-b", name="t-b", owner="p", host="h-b", quota=ResourceDemand(vcpu=4))
        )
        infra.add_link(
            PhysicalLink(id="l0", endpoints=("h-a", "h-b"), latency=1.0, bandwidth=1.0)
        )
        reqs = [
            requirement("svc-a", isolation="dedicated_host"),
            requirement("svc-b"),
        ]
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-b")),
            1.0,
            True,
        )
        ok, violations = verify_plan(
            plan, reqs, offered_capabilities(infra), infra, slice=self.slc
        )
        assert ok, violations

    def test_slice_mismatch(self):
        plan = PlacementPlan(
            "slice-other",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-a")),
            0.0,
            True,
        )
        ok, codes = self.codes(plan)
        assert not ok
        assert VIOLATION_SLICE_MISMATCH in codes

    def test_latency_mismatch(self):
        # nan compares unequal to every latency, so it must not pass for one.
        for recorded in (0.25, math.inf, math.nan):
            plan = PlacementPlan(
                "slice-t",
                (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-b")),
                recorded,
                True,
            )
            ok, codes = self.codes(plan)
            assert not ok, recorded
            assert VIOLATION_LATENCY_MISMATCH in codes, recorded

    def test_latency_exceeded(self):
        self.slc = two_service_slice(end_to_end_latency=0.5)
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-b")),
            1.0,
            True,
        )
        ok, codes = self.codes(plan)
        assert not ok
        assert VIOLATION_LATENCY_EXCEEDED in codes

    def test_side_by_side_slice_takes_the_largest_hop(self):
        # Three services on three tenants, 6 ms between neighbours: a chain
        # would need 12 ms, side by side the slice needs 6 ms of its 10 ms.
        chained = NetworkSlice(
            id="slice-t",
            name="t",
            customer="c",
            provider="p",
            services=("svc-a", "svc-b", "svc-c"),
            profile=ServiceProfile(10.0, 50.0, 0.99),
        )
        self.infra = tiny_infra(
            {"t-a": 2, "t-b": 2, "t-c": 2},
            links=[("t-a", "t-b", 6.0), ("t-b", "t-c", 6.0)],
        )
        self.offers = offered_capabilities(self.infra)
        self.reqs = [requirement(s) for s in chained.services]
        assignments = (
            Assignment("svc-a", "t-a"),
            Assignment("svc-b", "t-b"),
            Assignment("svc-c", "t-c"),
        )
        self.slc = replace(chained, chain_order=False)
        ok, codes = self.codes(PlacementPlan("slice-t", assignments, 6.0, True))
        assert ok and codes == []
        ok, codes = self.codes(PlacementPlan("slice-t", assignments, 12.0, True))
        assert codes == [VIOLATION_LATENCY_MISMATCH]
        self.slc = chained
        ok, codes = self.codes(PlacementPlan("slice-t", assignments, 12.0, True))
        assert codes == [VIOLATION_LATENCY_EXCEEDED]

    def test_unreachable_tenants_exceed_any_limit(self):
        self.infra = tiny_infra({"t-a": 2, "t-b": 2})
        self.offers = offered_capabilities(self.infra)
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-b")),
            0.0,
            True,
        )
        ok, codes = self.codes(plan)
        assert not ok
        assert VIOLATION_LATENCY_EXCEEDED in codes

    def test_budget_overruns_warn_but_do_not_reject(self):
        self.reqs = [
            requirement("svc-a", latency_budget=0.5),
            requirement("svc-b", latency_budget=0.5),
        ]
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-b")),
            1.0,
            True,
        )
        ok, violations = verify_plan(
            plan, self.reqs, self.offers, self.infra, slice=self.slc
        )
        assert ok
        budget = [v for v in violations if v.code == VIOLATION_BUDGET]
        assert budget and all(v.severity is Severity.WARNING for v in budget)


def load_plan_document(tmp_path, raw) -> PlacementPlan:
    path = tmp_path / "plan.yaml"
    path.write_text(yaml.safe_dump(raw))
    return load_plan(path)


class TestPlanDocuments:
    def test_round_trip(self, tmp_path):
        plan = PlacementPlan(
            "slice-t",
            (Assignment("svc-a", "t-a"), Assignment("svc-b", "t-b")),
            1.0,
            True,
        )
        save_plan(plan, tmp_path / "plan.yaml")
        assert load_plan(tmp_path / "plan.yaml") == plan

    def test_shape_defects_raise(self, tmp_path):
        with pytest.raises(IoFailure, match="mapping"):
            load_plan_document(tmp_path, ["not", "a", "mapping"])
        with pytest.raises(IoFailure):
            load_plan_document(tmp_path, {"assignments": []})
        with pytest.raises(IoFailure, match="'slice' id"):
            load_plan_document(tmp_path, {"slice": "", "assignments": []})
        with pytest.raises(IoFailure):
            load_plan_document(tmp_path, {"slice": "s", "assignments": "oops"})
        with pytest.raises(IoFailure):
            load_plan_document(
                tmp_path, {"slice": "s", "assignments": [{"service": "x"}]}
            )
        with pytest.raises(IoFailure, match="tenant must be text, got 5"):
            load_plan_document(
                tmp_path,
                {"slice": "s", "assignments": [{"service": "x", "tenant": 5}]},
            )
        with pytest.raises(IoFailure, match="e2e_latency must be a number"):
            load_plan_document(
                tmp_path, {"slice": "s", "assignments": [], "e2e_latency": True}
            )

    def test_semantic_defects_are_preserved_for_the_verifier(self, tmp_path):
        raw = {
            "slice": "slice-t",
            "e2e_latency": 0.0,
            "assignments": [
                {"service": "svc-a", "tenant": "t-a"},
                {"service": "svc-a", "tenant": "t-b"},
            ],
        }
        plan = load_plan_document(tmp_path, raw)
        assert len(plan.assignments) == 2
        assert plan.feasible
