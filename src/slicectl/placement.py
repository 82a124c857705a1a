"""Capability matching: assign slice services to tenants.

Requirements (demand, isolation, latency budget per service) are matched
against offers (free tenant capacity) under the same-tenant rule: a service
is never split, it lands on exactly one tenant. The objective is minimal
end-to-end latency, the sum of inter-tenant hops between consecutive
services in slice order, so only chain-ordered slices can be planned.
Instances of up to EXHAUSTIVE_MAX_PAIRS service-tenant pairs are solved
exactly; larger ones greedily. verify_plan re-checks every constraint
through a separate flat code path so solver defects cannot hide.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import MissingFootprint, PlanInvalid, Unreachable
from .infra import Infrastructure, IsolationClass
from .model import (
    EPSILON,
    IsolationLevel,
    NetworkSlice,
    ResourceDemand,
    SliceTemplate,
)
from .template import Severity


# Up to this many service-tenant pairs the exact search is cheap; above it
# the greedy solver runs, which may miss the optimum or a feasible plan.
EXHAUSTIVE_MAX_PAIRS = 64

VIOLATION_DUPLICATE = "duplicate_assignment"
VIOLATION_MISSING = "missing_assignment"
VIOLATION_UNKNOWN_SERVICE = "unknown_service"
VIOLATION_UNKNOWN_TENANT = "unknown_tenant"
VIOLATION_OVERFLOW = "cumulative_overflow"
VIOLATION_ISOLATION = "isolation_breach"
VIOLATION_AFFINITY = "affinity_mismatch"
VIOLATION_SLICE_MISMATCH = "slice_mismatch"
VIOLATION_LATENCY_MISMATCH = "latency_mismatch"
VIOLATION_LATENCY_EXCEEDED = "latency_exceeded"
VIOLATION_BUDGET = "latency_budget_exceeded"


@dataclass(frozen=True)
class CapabilityRequirement:
    """What one service needs from a tenant."""

    service: str
    demand: ResourceDemand
    isolation: IsolationLevel = IsolationLevel.SHARED
    latency_budget: float = math.inf
    affinity: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "isolation", IsolationLevel(self.isolation))
        if self.latency_budget <= 0:
            raise ValueError("latency_budget must be > 0")


@dataclass(frozen=True)
class CapabilityOffer:
    """Free capacity of one tenant at plan time."""

    tenant: str
    free: ResourceDemand
    isolation_class: IsolationClass = IsolationClass.SHARED
    site: str = ""


@dataclass(frozen=True)
class Assignment:
    service: str
    tenant: str


@dataclass(frozen=True)
class PlacementPlan:
    slice_id: str
    assignments: tuple[Assignment, ...]
    e2e_latency: float
    feasible: bool

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))

    def tenant_of(self, service: str) -> str | None:
        for assignment in self.assignments:
            if assignment.service == service:
                return assignment.tenant
        return None


@dataclass(frozen=True)
class Violation:
    code: str
    severity: Severity = Severity.ERROR
    service: str | None = None
    tenant: str | None = None
    message: str = ""


def required_capabilities(
    slice: NetworkSlice,
    template: SliceTemplate,
    footprints: dict[str, ResourceDemand],
) -> list[CapabilityRequirement]:
    """One requirement per service: the componentwise max of the template
    demand and the computed footprint, under the profile's isolation."""
    requirements = []
    for service_id in slice.services:
        entry = template.per_service_requirements.get(service_id)
        if entry is None:
            raise MissingFootprint(
                f"service {service_id!r} has no template entry"
            )
        footprint = footprints.get(service_id)
        if footprint is None:
            raise MissingFootprint(
                f"service {service_id!r} has no computed footprint"
            )
        requirements.append(
            CapabilityRequirement(
                service=service_id,
                demand=entry.demand.max_with(footprint),
                isolation=slice.profile.degree_of_isolation,
                latency_budget=entry.latency_budget,
            )
        )
    return requirements


def offered_capabilities(infra: Infrastructure) -> list[CapabilityOffer]:
    offers = []
    for tenant_id in sorted(infra.tenants):
        tenant = infra.tenants[tenant_id]
        host = infra.hosts[tenant.host]
        offers.append(
            CapabilityOffer(
                tenant=tenant_id,
                free=tenant.quota - tenant.used,
                isolation_class=host.isolation_class,
                site=host.site,
            )
        )
    return offers


def _latency_table(
    infra: Infrastructure, tenant_ids: list[str]
) -> dict[tuple[str, str], float]:
    table: dict[tuple[str, str], float] = {}
    for a in tenant_ids:
        for b in tenant_ids:
            if a == b:
                table[(a, b)] = 0.0
                continue
            if (b, a) in table:
                table[(a, b)] = table[(b, a)]
                continue
            try:
                table[(a, b)] = infra.tenant_latency(a, b)
            except Unreachable:
                table[(a, b)] = math.inf
    return table


class _SolverState:
    """Incremental feasibility bookkeeping for the search."""

    def __init__(
        self,
        infra: Infrastructure,
        offers: list[CapabilityOffer],
    ):
        self.infra = infra
        self.free = {o.tenant: o.free for o in offers}
        self.site = {o.tenant: o.site for o in offers}
        self.host_class = {o.tenant: o.isolation_class for o in offers}
        self.placed: dict[str, list[CapabilityRequirement]] = {
            o.tenant: [] for o in offers
        }
        # Tenants already carrying live allocations are occupied by foreign
        # services for isolation purposes.
        self.occupied = {
            o.tenant: bool(infra.allocations_on(o.tenant)) for o in offers
        }

    def admits(self, req: CapabilityRequirement, tenant: str) -> bool:
        if req.affinity is not None and self.site[tenant] != req.affinity:
            return False
        if not req.demand.fits_within(self.free[tenant]):
            return False
        placed = self.placed[tenant]
        if req.isolation is not IsolationLevel.SHARED:
            if self.occupied[tenant] or placed:
                return False
        if any(p.isolation is not IsolationLevel.SHARED for p in placed):
            return False
        if req.isolation is IsolationLevel.DEDICATED_HOST:
            host_id = self.infra.tenants[tenant].host
            if self.host_class[tenant] is not IsolationClass.DEDICATED:
                return False
            if len(self.infra.tenants_on_host(host_id)) != 1:
                return False
        return True

    def place(self, req: CapabilityRequirement, tenant: str) -> None:
        self.free[tenant] = self.free[tenant] - req.demand
        self.placed[tenant].append(req)

    def unplace(self, req: CapabilityRequirement, tenant: str) -> None:
        self.free[tenant] = self.free[tenant] + req.demand
        self.placed[tenant].pop()


def _solve_exhaustive(
    ordered: list[CapabilityRequirement],
    tenant_ids: list[str],
    latency: dict[tuple[str, str], float],
    limit: float,
    state: _SolverState,
) -> tuple[list[str], float] | None:
    """Depth-first search over assignment tuples in lexicographic tenant
    order; the first optimum found is therefore the lexicographically
    smallest one. Partial cost only grows, which justifies the pruning."""
    best_tuple: list[str] | None = None
    best_cost = math.inf
    chosen: list[str] = []

    def descend(index: int, partial: float) -> None:
        nonlocal best_tuple, best_cost
        if partial > limit + EPSILON:
            return
        if best_tuple is not None and partial >= best_cost:
            return
        if index == len(ordered):
            best_tuple = list(chosen)
            best_cost = partial
            return
        req = ordered[index]
        for tenant in tenant_ids:
            if not state.admits(req, tenant):
                continue
            hop = 0.0 if index == 0 else latency[(chosen[-1], tenant)]
            if math.isinf(hop):
                continue
            state.place(req, tenant)
            chosen.append(tenant)
            descend(index + 1, partial + hop)
            chosen.pop()
            state.unplace(req, tenant)

    descend(0, 0.0)
    if best_tuple is None:
        return None
    return best_tuple, best_cost


def _solve_greedy(
    ordered: list[CapabilityRequirement],
    tenant_ids: list[str],
    latency: dict[tuple[str, str], float],
    limit: float,
    state: _SolverState,
) -> tuple[list[str], float] | None:
    chosen: list[str] = []
    total = 0.0
    for index, req in enumerate(ordered):
        best_tenant = None
        best_hop = math.inf
        for tenant in tenant_ids:
            if not state.admits(req, tenant):
                continue
            hop = 0.0 if index == 0 else latency[(chosen[-1], tenant)]
            # Strict improvement keeps the lexicographically first tenant
            # among ties.
            if hop < best_hop:
                best_tenant = tenant
                best_hop = hop
        if best_tenant is None or math.isinf(best_hop):
            return None
        state.place(req, best_tenant)
        chosen.append(best_tenant)
        total += best_hop
        if total > limit + EPSILON:
            return None
    return chosen, total


def plan_placement(
    slice: NetworkSlice,
    requirements: list[CapabilityRequirement],
    offers: list[CapabilityOffer],
    infra: Infrastructure,
) -> PlacementPlan:
    """Compute a placement plan; infeasibility is a result, not an error.

    A slice without chain order raises PlanInvalid: its SLA takes the
    maximum service latency, but the solver minimises the chain sum.
    """
    if not slice.chain_order:
        raise PlanInvalid(
            f"slice {slice.id!r} has no chain order; only chain-ordered"
            " slices can be placed"
        )
    if not requirements:
        raise ValueError("requirements must be non-empty")
    if not offers:
        raise ValueError("offers must be non-empty")
    req_by_service = {r.service: r for r in requirements}
    if len(req_by_service) != len(requirements):
        raise ValueError("duplicate requirement for a service")
    if set(req_by_service) != set(slice.services):
        raise ValueError("requirements must cover exactly the slice services")
    offer_tenants = [o.tenant for o in offers]
    if len(set(offer_tenants)) != len(offer_tenants):
        raise ValueError("duplicate offer for a tenant")

    ordered = [req_by_service[s] for s in slice.services]
    offers_sorted = sorted(offers, key=lambda o: o.tenant)
    tenant_ids = [o.tenant for o in offers_sorted]
    latency = _latency_table(infra, tenant_ids)
    limit = slice.profile.end_to_end_latency
    state = _SolverState(infra, offers_sorted)

    if len(ordered) * len(tenant_ids) <= EXHAUSTIVE_MAX_PAIRS:
        result = _solve_exhaustive(ordered, tenant_ids, latency, limit, state)
    else:
        result = _solve_greedy(ordered, tenant_ids, latency, limit, state)

    if result is None:
        return PlacementPlan(slice.id, (), 0.0, False)
    chosen, cost = result
    assignments = tuple(
        Assignment(service=s, tenant=t) for s, t in zip(slice.services, chosen)
    )
    return PlacementPlan(slice.id, assignments, cost, True)


def verify_plan(
    plan: PlacementPlan,
    requirements: list[CapabilityRequirement],
    offers: list[CapabilityOffer],
    infra: Infrastructure,
    *,
    slice: NetworkSlice | None = None,
    check_resources: bool = True,
) -> tuple[bool, list[Violation]]:
    """Independently re-check every planning constraint.

    Returns (ok, violations); ok is true when no error-severity violation
    was found. Latency-budget findings are warnings and never flip the
    verdict. With check_resources false only structural rules run, which is
    what execution-time staleness checking wants.
    """
    violations: list[Violation] = []
    req_by_service = {r.service: r for r in requirements}
    offer_by_tenant = {o.tenant: o for o in offers}

    counts = Counter(a.service for a in plan.assignments)
    for service, n in sorted(counts.items()):
        if n > 1:
            violations.append(
                Violation(
                    code=VIOLATION_DUPLICATE,
                    service=service,
                    message=f"service {service!r} is assigned to {n} tenants",
                )
            )
    for assignment in plan.assignments:
        if assignment.service not in req_by_service:
            violations.append(
                Violation(
                    code=VIOLATION_UNKNOWN_SERVICE,
                    service=assignment.service,
                    message=f"assignment names unknown service {assignment.service!r}",
                )
            )
        if assignment.tenant not in offer_by_tenant or (
            assignment.tenant not in infra.tenants
        ):
            violations.append(
                Violation(
                    code=VIOLATION_UNKNOWN_TENANT,
                    service=assignment.service,
                    tenant=assignment.tenant,
                    message=f"assignment names unknown tenant {assignment.tenant!r}",
                )
            )
    for requirement in requirements:
        if counts.get(requirement.service, 0) == 0:
            violations.append(
                Violation(
                    code=VIOLATION_MISSING,
                    service=requirement.service,
                    message=f"service {requirement.service!r} has no assignment",
                )
            )

    structurally_sound = not violations

    if check_resources:
        by_tenant: dict[str, list[CapabilityRequirement]] = {}
        for assignment in plan.assignments:
            requirement = req_by_service.get(assignment.service)
            if requirement is None or assignment.tenant not in offer_by_tenant:
                continue
            by_tenant.setdefault(assignment.tenant, []).append(requirement)
            offer = offer_by_tenant[assignment.tenant]
            if requirement.affinity is not None and offer.site != requirement.affinity:
                violations.append(
                    Violation(
                        code=VIOLATION_AFFINITY,
                        service=assignment.service,
                        tenant=assignment.tenant,
                        message=(
                            f"service {assignment.service!r} requires site"
                            f" {requirement.affinity!r}, tenant offers {offer.site!r}"
                        ),
                    )
                )
        for tenant_id, reqs in sorted(by_tenant.items()):
            total = ResourceDemand()
            for requirement in reqs:
                total = total + requirement.demand
            offer = offer_by_tenant[tenant_id]
            if not total.fits_within(offer.free):
                violations.append(
                    Violation(
                        code=VIOLATION_OVERFLOW,
                        tenant=tenant_id,
                        message=(
                            f"services on tenant {tenant_id!r} need {total},"
                            f" only {offer.free} is free"
                        ),
                    )
                )
            occupied = bool(infra.allocations_on(tenant_id)) if (
                tenant_id in infra.tenants
            ) else False
            for requirement in reqs:
                if requirement.isolation is IsolationLevel.SHARED:
                    continue
                if occupied or len(reqs) > 1:
                    violations.append(
                        Violation(
                            code=VIOLATION_ISOLATION,
                            service=requirement.service,
                            tenant=tenant_id,
                            message=(
                                f"service {requirement.service!r} demands"
                                f" {requirement.isolation.value} but tenant"
                                f" {tenant_id!r} is shared with other services"
                            ),
                        )
                    )
                if requirement.isolation is IsolationLevel.DEDICATED_HOST and (
                    tenant_id in infra.tenants
                ):
                    host_id = infra.tenants[tenant_id].host
                    host = infra.hosts[host_id]
                    sole = len(infra.tenants_on_host(host_id)) == 1
                    if host.isolation_class is not IsolationClass.DEDICATED or not sole:
                        violations.append(
                            Violation(
                                code=VIOLATION_ISOLATION,
                                service=requirement.service,
                                tenant=tenant_id,
                                message=(
                                    f"service {requirement.service!r} demands a"
                                    f" dedicated host but {host_id!r} is not"
                                    f" exclusively dedicated to tenant {tenant_id!r}"
                                ),
                            )
                        )

    if slice is not None:
        if plan.slice_id != slice.id:
            violations.append(
                Violation(
                    code=VIOLATION_SLICE_MISMATCH,
                    message=(
                        f"plan targets slice {plan.slice_id!r},"
                        f" expected {slice.id!r}"
                    ),
                )
            )
        elif structurally_sound:
            tenant_of = {a.service: a.tenant for a in plan.assignments}
            e2e = 0.0
            reachable = True
            previous: str | None = None
            for service_id in slice.services:
                tenant = tenant_of[service_id]
                if previous is not None:
                    try:
                        hop = infra.tenant_latency(previous, tenant)
                    except Unreachable:
                        reachable = False
                        violations.append(
                            Violation(
                                code=VIOLATION_LATENCY_EXCEEDED,
                                service=service_id,
                                tenant=tenant,
                                message=(
                                    f"no physical path into service"
                                    f" {service_id!r} on tenant {tenant!r}"
                                ),
                            )
                        )
                        break
                    # Compose as the slice SLA does: a sum along a chain,
                    # the largest hop for services side by side.
                    e2e = e2e + hop if slice.chain_order else max(e2e, hop)
                    budget = req_by_service[service_id].latency_budget
                    if hop > budget + EPSILON:
                        violations.append(
                            Violation(
                                code=VIOLATION_BUDGET,
                                severity=Severity.WARNING,
                                service=service_id,
                                tenant=tenant,
                                message=(
                                    f"hop into service {service_id!r} takes"
                                    f" {hop} ms, budget is {budget} ms"
                                ),
                            )
                        )
                previous = tenant
            if reachable:
                if abs(e2e - plan.e2e_latency) > EPSILON:
                    violations.append(
                        Violation(
                            code=VIOLATION_LATENCY_MISMATCH,
                            message=(
                                f"plan records {plan.e2e_latency} ms, actual"
                                f" end-to-end latency is {e2e} ms"
                            ),
                        )
                    )
                if e2e > slice.profile.end_to_end_latency + EPSILON:
                    violations.append(
                        Violation(
                            code=VIOLATION_LATENCY_EXCEEDED,
                            message=(
                                f"end-to-end latency {e2e} ms exceeds the"
                                f" profile limit"
                                f" {slice.profile.end_to_end_latency} ms"
                            ),
                        )
                    )

    ok = not any(v.severity is Severity.ERROR for v in violations)
    return ok, violations


def plan_to_mapping(plan: PlacementPlan) -> dict:
    """Plain-data form of a plan for the plan document file."""
    return {
        "slice": plan.slice_id,
        "e2e_latency": plan.e2e_latency,
        "assignments": [
            {"service": a.service, "tenant": a.tenant} for a in plan.assignments
        ],
    }


def plan_from_mapping(raw: object) -> PlacementPlan:
    """Load an externally supplied plan document.

    Shape defects raise PlanInvalid; semantic defects (duplicate tenants for
    one service and the like) are deliberately preserved for verify_plan to
    report.
    """
    if not isinstance(raw, dict):
        raise PlanInvalid("plan document must be a mapping")
    slice_id = raw.get("slice")
    if not isinstance(slice_id, str) or not slice_id:
        raise PlanInvalid("plan document needs a 'slice' id")
    entries = raw.get("assignments")
    if not isinstance(entries, list):
        raise PlanInvalid("plan document needs an 'assignments' list")
    assignments = []
    for entry in entries:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("service"), str)
            or not isinstance(entry.get("tenant"), str)
        ):
            raise PlanInvalid(
                "each assignment needs 'service' and 'tenant' strings"
            )
        assignments.append(
            Assignment(service=entry["service"], tenant=entry["tenant"])
        )
    e2e = raw.get("e2e_latency", 0.0)
    if not isinstance(e2e, (int, float)) or isinstance(e2e, bool):
        raise PlanInvalid("e2e_latency must be a number")
    return PlacementPlan(
        slice_id=slice_id,
        assignments=tuple(assignments),
        e2e_latency=float(e2e),
        feasible=True,
    )
