"""Independent oracles the tests judge the implementation against.

Everything here recomputes a result by a different route than the
production code: character counts by building the quoted string, placement
optima by brute force over the whole assignment space, shortest paths by
enumerating simple paths, SLA numbers over exact rationals, lifecycle
legality and record histories from standalone transition tables. Nothing
imports solver or validator internals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

INF = math.inf


def quoted_env_count(entries: dict[str, str]) -> int:
    """Length of the literal quoted concatenation of all entry values."""
    return len("".join(f'"{value}"' for value in entries.values()))


def shortest_latency(
    links: list[tuple[str, str, float]], start: str, goal: str
) -> float:
    """Minimum total latency by exhaustive simple-path enumeration.

    Each path is summed in rational arithmetic, so the result is the exact
    minimum, rounded once to the nearest float.
    """
    if start == goal:
        return 0.0
    adjacency: dict[str, list[tuple[str, Fraction]]] = {}
    for a, b, weight in links:
        adjacency.setdefault(a, []).append((b, Fraction(weight)))
        adjacency.setdefault(b, []).append((a, Fraction(weight)))
    best: Fraction | None = None

    def walk(node: str, seen: frozenset, acc: Fraction) -> None:
        nonlocal best
        if best is not None and acc >= best:
            return
        if node == goal:
            best = acc
            return
        for nxt, weight in adjacency.get(node, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, acc + weight)

    walk(start, frozenset({start}), Fraction(0))
    return INF if best is None else float(best)


def assignment_fits(
    services: list[str],
    combo: tuple[str, ...],
    demands: dict[str, tuple[int, int, int, int]],
    free: dict[str, tuple[int, int, int, int]],
    *,
    isolation: dict[str, str] | None = None,
    occupied: dict[str, bool] | None = None,
    dedicated_host: dict[str, bool] | None = None,
) -> bool:
    """Whether services may land on combo's tenants, one tenant each.

    Per service, isolation is "shared" (the default), "dedicated_tenant"
    or "dedicated_host". Per tenant, occupied says it already carries
    foreign allocations, and dedicated_host that its host is of the
    dedicated class and carries no other tenant. A service that is not
    shared must be the only one on its tenant, and that tenant unoccupied;
    a dedicated-host one also needs a dedicated host. The demands on each
    tenant, summed, must fit its free capacity field by field.
    """
    isolation = isolation or {}
    occupied = occupied or {}
    dedicated_host = dedicated_host or {}
    on_tenant: dict[str, list[str]] = {}
    for service, tenant in zip(services, combo):
        level = isolation.get(service, "shared")
        if level != "shared" and occupied.get(tenant, False):
            return False
        if level == "dedicated_host" and not dedicated_host.get(tenant, False):
            return False
        on_tenant.setdefault(tenant, []).append(service)
    for tenant, placed in on_tenant.items():
        if len(placed) > 1 and any(
            isolation.get(s, "shared") != "shared" for s in placed
        ):
            return False
        load = [sum(axis) for axis in zip(*(demands[s] for s in placed))]
        if any(value > capacity for value, capacity in zip(load, free[tenant])):
            return False
    return True


def best_assignment(
    services: list[str],
    demands: dict[str, tuple[int, int, int, int]],
    tenants: list[str],
    free: dict[str, tuple[int, int, int, int]],
    hop_latency,
    limit: float,
    **constraints,
) -> tuple[float, dict[str, str]] | None:
    """Brute-force optimum over every assignment tuple.

    hop_latency(a, b) must return the tenant-to-tenant latency (inf when
    unreachable). A tuple is feasible when assignment_fits accepts it under
    constraints (isolation, occupied, dedicated_host) and its chain stays
    within limit. Returns (e2e, assignment) for the cheapest feasible
    tuple, lexicographically first among ties, or None.
    """
    best: tuple[float, tuple[str, ...]] | None = None
    for combo in itertools.product(sorted(tenants), repeat=len(services)):
        if not assignment_fits(services, combo, demands, free, **constraints):
            continue
        e2e = 0.0
        for a, b in zip(combo, combo[1:]):
            e2e += 0.0 if a == b else hop_latency(a, b)
        if math.isinf(e2e) or e2e > limit + 1e-9:
            continue
        key = (e2e, combo)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[0], dict(zip(services, best[1]))


def compose_sla_exact(
    entries: list[tuple[str, str, str]], chain: bool
) -> tuple[Fraction, Fraction, Fraction]:
    """SLA composition over exact rationals from decimal strings."""
    latencies = [Fraction(latency) for latency, _, _ in entries]
    availabilities = [Fraction(avail) for _, avail, _ in entries]
    rates = [Fraction(rate) for _, _, rate in entries]
    latency = sum(latencies) if chain else max(latencies)
    availability = Fraction(1)
    for value in availabilities:
        availability *= value
    return latency, availability, min(rates)


def recompute_used(infra) -> dict[str, tuple[int, int, int, int]]:
    """Per-tenant usage resummed from the raw allocation records."""
    totals = {tenant_id: [0, 0, 0, 0] for tenant_id in infra.tenants}
    for allocation in infra.allocations.values():
        vector = totals[allocation.tenant]
        demand = allocation.demand
        for axis, value in enumerate(
            (demand.vcpu, demand.ram, demand.storage, demand.ports)
        ):
            vector[axis] += value
    return {tenant_id: tuple(vector) for tenant_id, vector in totals.items()}


# Standalone legality tables: (state, ok-action) -> next state. Creation
# actions start a record in the mapped state.
VF_CREATE = {"onboard_vf": "draft"}
VF_NEXT = {("draft", "certify_vf"): "certified"}

SERVICE_CREATE = {"create_service": "designed"}
SERVICE_NEXT = {
    ("designed", "test_service"): "tested",
    ("tested", "approve_service"): "approved",
    ("approved", "distribute_service"): "distributed",
    ("distributed", "instantiate_service"): "instantiated",
    ("instantiated", "terminate_service"): "terminated",
}

SLICE_CREATE = {"create_slice": "drafted"}
SLICE_NEXT = {
    ("drafted", "slice_ready"): "ready",
    ("ready", "instantiate_slice"): "active",
    ("ready", "partially_instantiate_slice"): "partially_instantiated",
    ("active", "teardown_slice"): "terminated",
    ("partially_instantiated", "teardown_slice"): "terminated",
}

_TABLES = (
    ("vf", VF_CREATE, VF_NEXT),
    ("service", SERVICE_CREATE, SERVICE_NEXT),
    ("slice", SLICE_CREATE, SLICE_NEXT),
)


def fold_audit(events) -> dict[str, tuple[str, str]]:
    """Fold ok events through the legality tables.

    Returns subject -> (kind, state). Raises AssertionError on any
    transition the tables do not allow, so a fuzz run cannot silently pass
    through an illegal state.
    """
    return _fold(events)[0]


def fold_history(events) -> dict[str, list[int]]:
    """Subject -> sequence numbers of the ok events that moved it, in order.

    Folds through the same legality tables as fold_audit, so it raises on
    the same illegal transitions.
    """
    return _fold(events)[1]


def _fold(events) -> tuple[dict[str, tuple[str, str]], dict[str, list[int]]]:
    states: dict[str, tuple[str, str]] = {}
    history: dict[str, list[int]] = {}
    for event in events:
        if event.outcome.value != "ok":
            continue
        action = event.action
        subject = event.subject
        for kind, create, nxt in _TABLES:
            if action in create:
                assert subject not in states, (
                    f"{action} would recreate existing subject {subject!r}"
                )
                states[subject] = (kind, create[action])
                history[subject] = [event.sequence_no]
                break
            current = states.get(subject)
            if current is not None and current[0] == kind:
                if (current[1], action) in nxt:
                    states[subject] = (kind, nxt[(current[1], action)])
                    history[subject].append(event.sequence_no)
                    break
        else:
            known_actions = set()
            for _, create, nxt in _TABLES:
                known_actions |= set(create)
                known_actions |= {a for _, a in nxt}
            assert action not in known_actions, (
                f"illegal ok transition: {action} on {subject!r} in state"
                f" {states.get(subject)}"
            )
    return states, history
