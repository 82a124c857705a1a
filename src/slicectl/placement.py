"""Capability matching: assign slice services to tenants.

Requirements (demand, isolation, latency budget per service) are matched
against offers (free tenant capacity) under the same-tenant rule: a service
is never split, it lands on exactly one tenant. The objective is minimal
end-to-end latency, the sum of inter-tenant hops between consecutive
services in slice order, so only chain-ordered slices can be planned.

Instances of up to EXHAUSTIVE_MAX_PAIRS service-tenant pairs are solved
exactly, larger ones greedily; both solvers run on flat per-plan state
addressed by index (_flat_state). Latencies come in rows made on demand
(_latency_rows), and each tenant pair is asked of the infrastructure at
most once per plan. Greedy asks only for the rows of the tenants it
places on; the exact search asks for every row, since its bound needs
each tenant's cost of reaching every other. The exact search is a branch
and bound that tries the nearest tenant first and cuts a branch when its
cost plus a lower bound on the hops still to come cannot beat the best plan
found. The bound is a chain of runs, built once per plan from the back: a
run is consecutive services that fit together on one tenant's free
capacity at plan start, each admitted there, an exclusive service alone;
the remaining services cost at least the cheapest chain of such runs that
begins by staying on the current tenant, in the room it has left, or by
hopping away. Among plans of exactly equal cost the one first in
tenant-id order wins, whatever order the search meets them in. The solver
plans with isolation_refusal, the one isolation rule. Whether a finished
plan's members fit is decided in one place, member_refusals, which
verify_plan and the executor in lifecycle share; it asks isolation_refusal
and Infrastructure.capacity_refusal and none of the solver's flat state,
so it checks the plan, not the search.
tests/oracles.py is the independent check of the rules themselves.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from .errors import MissingFootprint, PlanInvalid, Unreachable
from .infra import Infrastructure, IsolationClass
from .model import (
    EPSILON,
    Assignment,
    IsolationLevel,
    NetworkSlice,
    PlacementPlan,
    ResourceDemand,
    Severity,
    SliceTemplate,
    compose_latency,
    latency_refusal,
)


# Up to this many service-tenant pairs the exact search is cheap; above it
# the greedy solver runs, which may miss the optimum or a feasible plan.
EXHAUSTIVE_MAX_PAIRS = 64

VIOLATION_DUPLICATE = "duplicate_assignment"
VIOLATION_MISSING = "missing_assignment"
VIOLATION_UNKNOWN_SERVICE = "unknown_service"
VIOLATION_UNKNOWN_TENANT = "unknown_tenant"
VIOLATION_OVERFLOW = "cumulative_overflow"
VIOLATION_ISOLATION = "isolation_breach"
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

    def __post_init__(self):
        object.__setattr__(self, "isolation", IsolationLevel(self.isolation))
        if self.latency_budget <= 0:
            raise ValueError("latency_budget must be > 0")


@dataclass(frozen=True)
class CapabilityOffer:
    """Free capacity of one tenant at plan time."""

    tenant: str
    free: ResourceDemand


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
    return [
        CapabilityOffer(tenant_id, infra.tenants[tenant_id].free)
        for tenant_id in sorted(infra.tenants)
    ]


def _latency_rows(
    infra: Infrastructure, tenant_ids: list[str]
) -> Callable[[int], list[float]]:
    """Tenant-to-tenant latency rows by index, each made on first use.

    A row holds 0 on its diagonal and inf where no path exists. Each
    unordered pair is asked of infra once per plan: an entry whose other
    row was made already mirrors it.
    """
    size = len(tenant_ids)
    made: list[list[float] | None] = [None] * size

    def rows(i: int) -> list[float]:
        row = made[i]
        if row is None:
            a = tenant_ids[i]
            row = [0.0] * size
            for j, other in enumerate(made):
                if other is not None:
                    row[j] = other[i]
                elif j != i:
                    try:
                        row[j] = infra.tenant_latency(a, tenant_ids[j])
                    except Unreachable:
                        row[j] = math.inf
            made[i] = row
        return row

    return rows


def isolation_refusal(
    isolation: IsolationLevel,
    tenant_id: str,
    occupied: bool,
    infra: Infrastructure,
) -> str | None:
    """Why a service of this isolation may not land on the tenant, or None.

    A shared service goes anywhere. An exclusive one needs a tenant that
    is not occupied (holds no other allocation), and under dedicated_host
    also a dedicated-class host that carries no other tenant.
    """
    if isolation is IsolationLevel.SHARED:
        return None
    if occupied:
        return f"tenant {tenant_id!r} already hosts another service"
    if isolation is IsolationLevel.DEDICATED_HOST:
        host_id = infra.tenants[tenant_id].host
        if infra.hosts[host_id].isolation_class is not IsolationClass.DEDICATED:
            return f"host {host_id!r} is not a dedicated-class host"
        if len(infra.tenants_on_host(host_id)) != 1:
            return f"host {host_id!r} carries other tenants"
    return None


def member_refusals(
    ordered: list[CapabilityRequirement],
    tenant_of: Mapping[str, str],
    infra: Infrastructure,
) -> list[Violation]:
    """Why members of a plan may not land on their tenants, in chain order.

    Each service is judged on its tenant against the infrastructure as it
    stands and the members accepted before it: isolation_refusal, where a
    tenant is occupied if it holds a live allocation or an accepted member;
    then a tenant held by an accepted exclusive member; then
    infra.capacity_refusal on top of the members accepted on the tenant. A
    refused member is not counted for later ones, and its refusal's reason
    is its Violation's message.
    """
    holders = {a.tenant for a in infra.allocations.values()}
    locked: set[str] = set()
    accepted: dict[str, list[ResourceDemand]] = {}
    refusals: list[Violation] = []
    for requirement in ordered:
        service_id, demand = requirement.service, requirement.demand
        tenant_id = tenant_of[service_id]
        held = accepted.setdefault(tenant_id, [])
        code, reason = VIOLATION_ISOLATION, isolation_refusal(
            requirement.isolation, tenant_id, tenant_id in holders, infra
        )
        if reason is None and tenant_id in locked:
            reason = f"tenant {tenant_id!r} already hosts an exclusive service"
        if reason is None:
            code = VIOLATION_OVERFLOW
            reason = infra.capacity_refusal(tenant_id, service_id, demand, *held)
        if reason is None:
            held.append(demand)
            holders.add(tenant_id)
            if requirement.isolation is not IsolationLevel.SHARED:
                locked.add(tenant_id)
        else:
            refusals.append(
                Violation(code, service=service_id, tenant=tenant_id, message=reason)
            )
    return refusals


class _Flat(NamedTuple):
    """The state both solvers run on, services s and tenants t by index.

    Service s fits tenant t when admissible[s][t] holds, load[t] plus
    demand[s] fits free[t] field by field, t holds no exclusive service of
    this plan and, if s is exclusive, no service of it at all.
    """

    free: list[tuple[int, int, int, int]]  # per tenant, from its offer
    load: list[list[int]]  # per tenant, summed demand of this plan's services
    placed: list[int]  # per tenant, how many of this plan's services
    locked: list[bool]  # per tenant, holds an exclusive service of the plan
    demand: list[tuple[int, int, int, int]]  # per service
    exclusive: list[bool]  # per service, not of shared isolation
    admissible: list[list[bool]]  # per service and tenant, isolation allows it


def _flat_state(
    ordered: list[CapabilityRequirement],
    offers: list[CapabilityOffer],
    infra: Infrastructure,
) -> _Flat:
    # Tenants already carrying live allocations are occupied by foreign
    # services for isolation purposes.
    holders = {a.tenant for a in infra.allocations.values()}
    occupied = [o.tenant in holders for o in offers]
    return _Flat(
        free=[o.free.as_tuple() for o in offers],
        load=[[0, 0, 0, 0] for _ in offers],
        placed=[0] * len(offers),
        locked=[False] * len(offers),
        demand=[r.demand.as_tuple() for r in ordered],
        exclusive=[r.isolation is not IsolationLevel.SHARED for r in ordered],
        admissible=[
            [
                isolation_refusal(r.isolation, o.tenant, busy, infra) is None
                for o, busy in zip(offers, occupied)
            ]
            for r in ordered
        ],
    )


def _solve_exhaustive(
    ordered: list[CapabilityRequirement],
    offers: list[CapabilityOffer],
    infra: Infrastructure,
    rows: Callable[[int], list[float]],
    limit: float,
) -> tuple[list[int], float] | None:
    """Exact branch and bound over assignment tuples.

    From the current tenant c, children are tried nearest-first. A node is
    cut when its cost so far plus a lower bound on the hops still to come
    exceeds the profile limit or the best cost found. The bound is a chain
    of runs. A run on tenant t is consecutive services that fit together
    in t's free capacity at plan start, each admitted on t; an exclusive
    service runs alone. Built from the chain's end, start[t] is the least
    cost of services i.. when service i starts a run on t, and leave[i][t]
    is the least over u != t of the hop t -> u plus start[u] for i. Once
    service d is placed on c, the rest cost at least leave[d + 1][c] (hop
    now), or leave[j + 1][c] if services d + 1..j fit in c's room left
    (stay, then hop), or 0 if they reach the chain's end. Capacity only
    shrinks during the search, so the bound never exceeds a completion.

    Ties: the result is the minimum cost and, among exactly equal costs,
    the tuple that comes first in tenant order, which is what a depth-first
    search in tenant order returns. A node whose bound equals the best cost
    is therefore cut only when its prefix sorts after the best tuple's. A
    positive bound is a float sum that rounding may put an ulp above the
    hops it stands for, so it is lowered by EPSILON before the tests.
    """
    size = len(offers)
    leaf = len(ordered) - 1
    free, load, placed, locked, demand, exclusive, admissible = _flat_state(
        ordered, offers, infra
    )
    latency = [rows(t) for t in range(size)]
    # Reachable tenants from each tenant, nearest first, ties in tenant order.
    by_distance = [
        sorted((t for t in range(size) if row[t] < math.inf), key=row.__getitem__)
        for row in latency
    ]
    # leave[i][t]: the least cost of services i.. when service i - 1 is on t
    # and service i starts a run on another tenant; 0 once the chain ends.
    leave = [[0.0] * size for _ in range(leaf + 2)]

    def stay(i: int, t: int, room: tuple[int, ...], least: float) -> float:
        """least, or leave[j + 1][t] if less, for each j such that shared
        services i..j fit together on t in room and are admitted there."""
        r0, r1, r2, r3 = room
        while i <= leaf and admissible[i][t] and not exclusive[i]:
            d0, d1, d2, d3 = demand[i]
            r0, r1, r2, r3 = r0 - d0, r1 - d1, r2 - d2, r3 - d3
            if r0 < 0 or r1 < 0 or r2 < 0 or r3 < 0:
                break
            i += 1
            if leave[i][t] < least:
                least = leave[i][t]
        return least

    for i in range(leaf, -1, -1):
        # The least cost of services i.. when service i starts a run on t.
        start = [
            (
                leave[i + 1][t]
                if admissible[i][t] and all(map(operator.le, demand[i], room))
                else math.inf
            )
            if exclusive[i]
            else stay(i, t, room, math.inf)
            for t, room in enumerate(free)
        ]
        leave[i] = [
            min(
                (hop + start[u] for u, hop in enumerate(row) if u != t),
                default=math.inf,
            )
            for t, row in enumerate(latency)
        ]
    if min(start) == math.inf:
        return None  # no chain of runs, so no plan
    ceiling = limit + EPSILON
    origin = [0.0] * size
    best: list[int] = []
    best_cost = math.inf
    chosen: list[int] = []

    def descend(depth: int, current: int, partial: float) -> None:
        nonlocal best, best_cost
        d0, d1, d2, d3 = demand[depth]
        alone = exclusive[depth]
        allowed = admissible[depth]
        if depth:
            row, order = latency[current], by_distance[current]
        else:
            row, order = origin, range(size)
        for t in order:
            cost = partial + row[t]
            if cost > ceiling or cost > best_cost:
                break  # nearest first: the other children cost no less
            if not allowed[t] or locked[t] or (alone and placed[t]):
                continue
            f0, f1, f2, f3 = free[t]
            held = load[t]
            l0, l1, l2, l3 = held
            n0, n1, n2, n3 = l0 + d0, l1 + d1, l2 + d2, l3 + d3
            if n0 > f0 or n1 > f1 or n2 > f2 or n3 > f3:
                continue
            chosen.append(t)
            if depth == leaf:
                # Here cost <= best_cost; a tie wins with an earlier tuple.
                if cost < best_cost or chosen < best:
                    best, best_cost = chosen[:], cost
                chosen.pop()
                continue
            # Stay on t for the next services that fit in its room, or none.
            bound = leave[depth + 1][t]
            if not alone:
                room = (f0 - n0, f1 - n1, f2 - n2, f3 - n3)
                bound = stay(depth + 1, t, room, bound)
            lower = cost + bound - EPSILON if bound else cost
            if lower <= ceiling and (
                lower < best_cost
                or (lower == best_cost and chosen <= best[: depth + 1])
            ):
                held[0], held[1], held[2], held[3] = n0, n1, n2, n3
                placed[t] += 1
                locked[t] = alone
                descend(depth + 1, t, cost)
                held[0], held[1], held[2], held[3] = l0, l1, l2, l3
                placed[t] -= 1
                locked[t] = False
            chosen.pop()

    descend(0, 0, 0.0)
    if not best:
        return None
    return best, best_cost


def _solve_greedy(
    ordered: list[CapabilityRequirement],
    offers: list[CapabilityOffer],
    infra: Infrastructure,
    rows: Callable[[int], list[float]],
    limit: float,
) -> tuple[list[int], float] | None:
    """One pass in chain order: each service goes to the tenant nearest
    the previous service's that it fits, the first in tenant order among
    ties. It may miss the optimum or a feasible plan."""
    free, load, placed, locked, demand, exclusive, admissible = _flat_state(
        ordered, offers, infra
    )
    chosen: list[int] = []
    total = 0.0
    for need, alone, allowed in zip(demand, exclusive, admissible):
        row = rows(chosen[-1]) if chosen else [0.0] * len(offers)
        pick, pick_hop = None, math.inf
        for t, hop in enumerate(row):
            # Strict improvement keeps the first tenant among ties.
            if (
                hop < pick_hop
                and allowed[t]
                and not locked[t]
                and not (alone and placed[t])
                and all(map(operator.le, map(operator.add, load[t], need), free[t]))
            ):
                pick, pick_hop = t, hop
        if pick is None:
            return None
        load[pick] = list(map(operator.add, load[pick], need))
        placed[pick] += 1
        locked[pick] = alone
        chosen.append(pick)
        total += pick_hop
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
    rows = _latency_rows(infra, tenant_ids)
    if len(ordered) * len(tenant_ids) <= EXHAUSTIVE_MAX_PAIRS:
        solve = _solve_exhaustive
    else:
        solve = _solve_greedy
    result = solve(
        ordered, offers_sorted, infra, rows, slice.profile.end_to_end_latency
    )

    if result is None:
        return PlacementPlan(slice.id, (), 0.0, False)
    chosen, cost = result
    assignments = tuple(
        Assignment(service=s, tenant=tenant_ids[t])
        for s, t in zip(slice.services, chosen)
    )
    return PlacementPlan(slice.id, assignments, cost, True)


def verify_plan(
    plan: PlacementPlan,
    requirements: list[CapabilityRequirement],
    offers: list[CapabilityOffer],
    infra: Infrastructure,
    *,
    slice: NetworkSlice,
) -> tuple[bool, list[Violation]]:
    """Re-check every planning constraint on a finished plan.

    Returns (ok, violations); ok is true when no error-severity violation
    was found. Latency-budget findings are warnings and never flip the
    verdict. A structurally sound plan's members are judged by
    member_refusals against infra, with requirements in chain order, as
    required_capabilities gives them; offers name the tenants a plan may use.
    Its hops are composed by compose_latency and judged by latency_refusal,
    the rule the slice's SLA is held to.
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
    tenant_of = {a.service: a.tenant for a in plan.assignments}
    if structurally_sound:
        violations += member_refusals(requirements, tenant_of, infra)

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
        tenants = [tenant_of[s] for s in slice.services]
        hops: list[float] = []
        for service_id, previous, tenant in zip(
            slice.services[1:], tenants, tenants[1:]
        ):
            try:
                hop = infra.tenant_latency(previous, tenant)
            except Unreachable:
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
            hops.append(hop)
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
        else:  # every hop has a path
            e2e = compose_latency(slice, hops)
            if not abs(e2e - plan.e2e_latency) <= EPSILON:  # a nan mismatches too
                violations.append(
                    Violation(
                        code=VIOLATION_LATENCY_MISMATCH,
                        message=(
                            f"plan records {plan.e2e_latency} ms, actual"
                            f" end-to-end latency is {e2e} ms"
                        ),
                    )
                )
            reason = latency_refusal(slice, e2e)
            if reason is not None:
                violations.append(
                    Violation(code=VIOLATION_LATENCY_EXCEEDED, message=reason)
                )

    ok = not any(v.severity is Severity.ERROR for v in violations)
    return ok, violations
