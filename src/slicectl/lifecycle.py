"""Role-gated design-time workflow for VFs, services, and whole slices.

The orchestration engine owns all catalog mutation. Every operation is
gated by the acting role and records exactly one audit event per outcome
(ok, denied, failed). Which states each action needs and leads to is one
table, TRANSITIONS, and check_transition reads it for every live check;
which state enum each artifact kind has is another, STATES.
The audit log is the one store of the lifecycle records: an engine opened
on a log folds it into them with replay_states, and Orchestrator._commit,
the only place an ok event is logged and applied, appends the event first,
then folds it in with apply_event, the same fold. apply_event checks each
ok event against that table too, and refuses one it does not allow with
LogDiverged. The log is the one store of the entities an engine creates:
an ok onboard_vf, create_service or create_slice event carries what the
fold needs to build its function, service or slice, so the fold writes the
catalog's entities as it writes the records, onto the catalog the engine
was opened with, its genesis. Registration does not write the catalog:
the engine holds a VSP, customer or provider until the first ok event that
needs it carries it, so the catalog is always the fold of genesis and log.
The log is the one store of the allocations too: with an
Infrastructure, the fold allocates what an ok instantiate_service event
carries and releases what an ok terminate_service's subject holds, so
capacity moves only after its event is logged. Slice-level operations add
readiness derivation, plan-driven instantiation, which decides every
member before it logs one, so there is nothing to undo, and teardown.
Instantiation judges members with verify_plan's placement.member_refusals:
isolation_refusal, the solver's rule, and Infrastructure.capacity_refusal,
allocate's check. tests/oracles.py is the independent check of both.
lab_problems, a pure function of a fold, names what it breaks of the lab's
promises, among them which member states each live or terminated slice
state needs; status prints what it returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import operator
import time
from collections.abc import Callable, Iterable, Mapping, MutableMapping
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import (
    DuplicateEntry,
    EmptyService,
    InvalidTransition,
    IoFailure,
    LogDiverged,
    PartialFailure,
    PlanInvalid,
    RoleDenied,
    SliceError,
    TemplateRejected,
    UncertifiedVf,
    UnknownEntity,
    UnknownService,
)
from .infra import Infrastructure
from .model import (
    Customer,
    FunctionKind,
    NetworkFunction,
    NetworkService,
    NetworkSlice,
    ResourceDemand,
    Severity,
    SliceProvider,
    SliceTemplate,
    VendorSoftwareProduct,
    _slug,
    aggregate_sla,
    derive_service_sla,
)
from .placement import (
    VIOLATION_ISOLATION,
    VIOLATION_OVERFLOW,
    CapabilityRequirement,
    PlacementPlan,
    offered_capabilities,
    plan_placement,
    required_capabilities,
    verify_plan,
)
from .template import (
    merge_reports,
    parse_template,
    resource_footprint,
    validate_environment,
    validate_template,
)


class Role(str, Enum):
    SUPERUSER = "superuser"
    DESIGNER = "designer"
    TESTER = "tester"
    GOVERNOR = "governor"
    OPERATOR = "operator"


class VfState(str, Enum):
    DRAFT = "draft"
    CERTIFIED = "certified"


class ServiceState(str, Enum):
    DESIGNED = "designed"
    TESTED = "tested"
    APPROVED = "approved"
    DISTRIBUTED = "distributed"
    INSTANTIATED = "instantiated"
    TERMINATED = "terminated"


class SliceState(str, Enum):
    DRAFTED = "drafted"
    READY = "ready"
    PARTIALLY_INSTANTIATED = "partially_instantiated"
    ACTIVE = "active"
    TERMINATED = "terminated"


class ArtifactKind(str, Enum):
    VF = "vf"
    SERVICE = "service"
    SLICE = "slice"


class Outcome(str, Enum):
    OK = "ok"
    DENIED = "denied"
    FAILED = "failed"


# Who may do what. Superuser is the union of all permissions and is checked
# separately.
PERMISSIONS: dict[str, frozenset[Role]] = {
    "onboard_vf": frozenset({Role.DESIGNER}),
    "certify_vf": frozenset({Role.TESTER}),
    "create_service": frozenset({Role.DESIGNER}),
    "test_service": frozenset({Role.TESTER}),
    "approve_service": frozenset({Role.GOVERNOR}),
    "distribute_service": frozenset({Role.OPERATOR}),
    "create_slice": frozenset({Role.DESIGNER}),
    "instantiate_slice": frozenset({Role.OPERATOR}),
    "teardown_slice": frozenset({Role.OPERATOR}),
}

# Each artifact kind's state enum; _KINDS, its inverse, names a state's kind.
STATES: dict[ArtifactKind, type[Enum]] = {
    ArtifactKind.VF: VfState,
    ArtifactKind.SERVICE: ServiceState,
    ArtifactKind.SLICE: SliceState,
}
_KINDS = {states: kind for kind, states in STATES.items()}

# The one lifecycle table, read by the live checks and by replay: action ->
# (states the action needs, state it leads to); the state's enum names the
# artifact kind, and an action that needs no state creates its record.
# Derived actions (slice_ready and friends) let the log rebuild every record.
TRANSITIONS: dict[str, tuple[tuple[Enum, ...], Enum]] = {
    "onboard_vf": ((), VfState.DRAFT),
    "certify_vf": ((VfState.DRAFT,), VfState.CERTIFIED),
    "create_service": ((), ServiceState.DESIGNED),
    "test_service": ((ServiceState.DESIGNED,), ServiceState.TESTED),
    "approve_service": ((ServiceState.TESTED,), ServiceState.APPROVED),
    "distribute_service": ((ServiceState.APPROVED,), ServiceState.DISTRIBUTED),
    "instantiate_service": ((ServiceState.DISTRIBUTED,), ServiceState.INSTANTIATED),
    "terminate_service": ((ServiceState.INSTANTIATED,), ServiceState.TERMINATED),
    "create_slice": ((), SliceState.DRAFTED),
    "slice_ready": ((SliceState.DRAFTED,), SliceState.READY),
    "instantiate_slice": ((SliceState.READY,), SliceState.ACTIVE),
    "partially_instantiate_slice": (
        (SliceState.READY,),
        SliceState.PARTIALLY_INSTANTIATED,
    ),
    "teardown_slice": (
        (SliceState.ACTIVE, SliceState.PARTIALLY_INSTANTIATED),
        SliceState.TERMINATED,
    ),
}

# verify_plan's codes for a refused member; its other errors are PlanInvalid.
_MEMBER_REFUSAL_CODES = frozenset({VIOLATION_ISOLATION, VIOLATION_OVERFLOW})

# The advance_service steps; each logs f"{step}_service".
_ADVANCE_STEPS = ("test", "approve", "distribute")

# What makes a vendor software product one: no two VSPs may share it.
_product = operator.attrgetter("vendor_name", "product_name", "version")


@dataclass(frozen=True, slots=True)
class AuditEvent:
    sequence_no: int
    actor: Role
    action: str
    subject: str
    timestamp: float
    outcome: Outcome
    # What an ok event carries for the fold; None on every other event, and
    # on an older build's, whose entities are in catalog.json alone:
    # instantiate_service its tenant and demand; onboard_vf its VSP and
    # template digest; create_service its service; create_slice its slice,
    # with the SLA, and the slice's template. An onboard_vf carries its VSP,
    # and a create_slice its customer and provider, where the engine holds
    # them registered and no event has carried them yet.
    tenant: str | None = None
    demand: ResourceDemand | None = None
    vsp: str | None = None
    template_ref: str | None = None
    new_vsp: VendorSoftwareProduct | None = None
    service: NetworkService | None = None
    slice: NetworkSlice | None = None
    slice_template: SliceTemplate | None = None
    customer: Customer | None = None
    provider: SliceProvider | None = None


@dataclass
class LifecycleRecord:
    """Current state machine position of one artifact.

    history lists the sequence numbers of the ok events that produced the
    current state, in order.
    """

    subject: str
    kind: ArtifactKind
    state: VfState | ServiceState | SliceState
    history: list[int] = field(default_factory=list)


@dataclass
class Catalog:
    """Design-time entity store: the genesis, what catalog.json holds, if
    anything, with the audit log's entities folded in by the engine that
    opens it.

    records are the lifecycle records, the fold of the audit log: the
    engine sets them when it opens, and they are not in the snapshot."""

    customers: dict[str, Customer] = field(default_factory=dict)
    providers: dict[str, SliceProvider] = field(default_factory=dict)
    vsps: dict[str, VendorSoftwareProduct] = field(default_factory=dict)
    functions: dict[str, NetworkFunction] = field(default_factory=dict)
    services: dict[str, NetworkService] = field(default_factory=dict)
    slices: dict[str, NetworkSlice] = field(default_factory=dict)
    slice_templates: dict[str, SliceTemplate] = field(default_factory=dict)
    records: dict[str, LifecycleRecord] = field(default_factory=dict, init=False)
    # Template texts by SHA-256. Not in the snapshot: the store writes each
    # once as its own file, and a loaded catalog reads them from there.
    template_blobs: MutableMapping[str, str] = field(default_factory=dict, init=False)


def check_transition(
    records: Mapping[str, LifecycleRecord], action: str, subject: str
) -> LifecycleRecord | None:
    """The record action moves (None for a create); raise if TRANSITIONS
    does not allow the action on subject."""
    needs, leads_to = TRANSITIONS[action]
    kind = _KINDS[type(leads_to)]
    record = records.get(subject)
    if not needs:
        if record is not None:
            raise InvalidTransition(f"id {subject!r} already exists")
        return None
    if record is None or record.kind is not kind:
        raise UnknownEntity(f"no {kind.value} record for {subject!r}")
    if record.state not in needs:
        verb = action.split("_")[0]
        raise InvalidTransition(
            f"{kind.value} {subject!r} is {record.state.value},"
            f" {verb} needs {' or '.join(state.value for state in needs)}"
        )
    return record


def _carried(catalog: Catalog, event: AuditEvent) -> list[tuple[dict, str, object]]:
    """Each entity an ok create event carries, as (catalog table, key,
    entity), refused with ValueError where the catalog holds another under
    that key. A slice's template, customer and provider ride with it."""
    subject, carried = event.subject, []
    if event.template_ref is not None:
        function = NetworkFunction(subject, FunctionKind.VIRTUAL, event.template_ref)
        carried.append((catalog.functions, subject, function))
    if event.new_vsp is not None:
        carried.append((catalog.vsps, event.new_vsp.id, event.new_vsp))
    if event.service is not None:
        carried.append((catalog.services, subject, event.service))
    if event.slice is not None:
        carried.append((catalog.slices, subject, event.slice))
        carried.append((catalog.slice_templates, subject, event.slice_template))
        for table, entity in (
            (catalog.customers, event.customer),
            (catalog.providers, event.provider),
        ):
            if entity is not None:
                carried.append((table, entity.id, entity))
    for table, key, entity in carried:
        if table.get(key, entity) != entity:
            raise ValueError(f"{entity} differs from the catalog's {table[key]}")
    return carried


def apply_event(
    catalog: Catalog,
    event: AuditEvent,
    infra: Infrastructure | None = None,
) -> LifecycleRecord | None:
    """Fold one audit event into the catalog, and into infra when given.

    An ok event creates or moves its subject's record through
    check_transition and appends itself to the history. A create event
    writes the entities it carries into the catalog, where one already
    there, as catalog.json holds it, must be equal. In infra, an ok event
    allocates the demand it carries on its tenant, and a terminate_service
    releases what its subject holds, if anything. An ok event that
    TRANSITIONS or infra refuses, whose entity differs from the catalog's,
    or whose action is unknown, raises LogDiverged and changes nothing.
    Denied and failed events change nothing. Returns the record the event
    moved, or None.
    """
    if event.outcome is not Outcome.OK:
        return None
    where = f"audit event {event.sequence_no}"
    if event.action not in TRANSITIONS:
        raise LogDiverged(f"{where}: unknown action {event.action!r}")
    records = catalog.records
    try:
        record = check_transition(records, event.action, event.subject)
        carried = _carried(catalog, event) if record is None else ()
        if infra is not None and event.demand is not None:
            infra.allocate(event.tenant, event.subject, event.demand)
    except (ValueError, SliceError) as exc:
        raise LogDiverged(f"{where}: {exc}") from exc
    for table, key, entity in carried:
        table[key] = entity
    if infra is not None and event.action == "terminate_service":
        if event.subject in infra.allocations:
            infra.release(event.subject)
    _, state = TRANSITIONS[event.action]
    if record is None:
        record = records[event.subject] = LifecycleRecord(
            event.subject, _KINDS[type(state)], state
        )
    record.state = state
    record.history.append(event.sequence_no)
    return record


def replay_states(
    events: Iterable[AuditEvent],
    infra: Infrastructure | None = None,
    catalog: Catalog | None = None,
) -> dict[str, LifecycleRecord]:
    """Fold ok events into lifecycle records, and into catalog (a fresh one
    by default) and infra, with apply_event; returns the records.

    Denied and failed events change nothing by design. An ok event that
    TRANSITIONS, the table the live checks read, does not allow raises
    LogDiverged.
    """
    catalog = Catalog() if catalog is None else catalog
    catalog.records = {}
    for event in events:
        apply_event(catalog, event, infra)
    return catalog.records


def lab_problems(catalog: Catalog, infra: Infrastructure | None) -> list[str]:
    """What a fold breaks of the lab's promises, one reason each: a missing
    or tampered template blob; an instantiated service without an
    allocation, or a catalog service that holds one but is not
    instantiated; a slice a cut between appends left active with a member
    not instantiated, or partially instantiated with none, which
    teardown-slice mends; a terminated slice with a member instantiated."""
    problems = []
    for function in sorted(catalog.functions.values(), key=lambda f: f.id):
        ref = function.template_ref
        try:
            if ref is not None and catalog.template_blobs.get(ref) is None:
                problems.append(f"{function.id}: no template blob {ref[:12]}")
        except IoFailure as exc:
            problems.append(f"{function.id}: {exc}")
    held = infra.allocations if infra is not None else {}
    instantiated = {
        r.subject for r in catalog.records.values() if r.state is ServiceState.INSTANTIATED
    }
    for service_id in sorted(instantiated - held.keys()):
        problems.append(f"{service_id} is instantiated but holds no allocation")
    for service_id in sorted(held.keys() & catalog.services.keys() - instantiated):
        record, allocation = catalog.records.get(service_id), held[service_id]
        problems.append(
            f"{service_id} is {record.state.value if record else 'unrecorded'}"
            f" but holds {allocation.demand} on {allocation.tenant}"
        )
    for slice_id, slc in sorted(catalog.slices.items()):
        state = catalog.records[slice_id].state if slice_id in catalog.records else None
        live = [s for s in slc.services if s in instantiated]
        idle = [s for s in slc.services if s not in instantiated]
        if (state is SliceState.ACTIVE and idle) or (
            state is SliceState.PARTIALLY_INSTANTIATED and not live
        ):
            problems.append(
                f"{slice_id} is {state.value} but {', '.join(idle)}"
                f" {'is' if len(idle) == 1 else 'are'} not instantiated;"
                f" run teardown-slice {slice_id} --as operator"
            )
        elif state is SliceState.TERMINATED and live:
            problems.append(
                f"{slice_id} is terminated but {', '.join(live)}"
                f" {'is' if len(live) == 1 else 'are'} still instantiated"
            )
    return problems


class Orchestrator:
    """Serialized command interface over one catalog and its infrastructure.

    engine.events starts as log, the audit log the engine is opened on, and
    each new event continues it: the next number, at a later instant. The
    catalog's records are set to the fold of log, which allocates in infra
    too, so an engine opened on a log the fold refuses raises LogDiverged.

    An engine can also start part way through a log, as one opened from a
    checkpoint does: after=event says that catalog, with its records, and
    infra already hold the fold of the log through event, its last folded
    event. log is then the events after it, folded on top, and the engine's
    next event is numbered and stamped after the last of them.
    An engine keeps no files; the store writes any checkpoint."""

    def __init__(
        self,
        infra: Infrastructure | None = None,
        *,
        catalog: Catalog | None = None,
        audit_sink: Callable[[AuditEvent], None] | None = None,
        log: list[AuditEvent] | None = None,
        clock: Callable[[], float] = time.time,
        after: AuditEvent | None = None,
    ):
        self.infra = infra
        self.catalog = catalog if catalog is not None else Catalog()
        self.events: list[AuditEvent] = log if log is not None else []
        if after is None:
            replay_states(self.events, infra, self.catalog)
        else:
            for event in self.events:
                apply_event(self.catalog, event, infra)
        self._after = after
        self._sink = audit_sink
        self._clock = clock
        self._footprint_cache: dict[str, ResourceDemand] = {}
        self._held: dict[str, dict] = {"customers": {}, "providers": {}, "vsps": {}}

    # -- registration (held for an event to carry, no lifecycle records) ----

    def _register(self, table: str, entity):
        """Hold entity under its id; other fields under an id the catalog
        or the engine knows are refused with DuplicateEntry."""
        known = getattr(self.catalog, table).get(entity.id)
        known = known or self._held[table].setdefault(entity.id, entity)
        if known != entity:
            raise DuplicateEntry(f"{entity} differs from the registered {known}")

    def _unlogged(self, table: str, entity_id: str):
        """The entity held under entity_id that no event has carried, or None."""
        if entity_id in getattr(self.catalog, table):
            return None
        return self._held[table].get(entity_id)

    def register_customer(self, customer: Customer) -> None:
        self._register("customers", customer)

    def register_provider(self, provider: SliceProvider) -> None:
        self._register("providers", provider)

    def register_vsp(self, vsp: VendorSoftwareProduct) -> None:
        triple = _product(vsp)
        for other in (*self.catalog.vsps.values(), *self._held["vsps"].values()):
            if other.id != vsp.id and _product(other) == triple:
                raise DuplicateEntry(
                    f"vsp (vendor, product, version) {triple!r} already registered"
                )
        self._register("vsps", vsp)

    # -- audit plumbing -----------------------------------------------------

    def _emit(
        self, actor: Role, action: str, subject: str, outcome: Outcome, **held
    ) -> AuditEvent:
        actor = Role(actor)
        last = self.events[-1] if self.events else self._after
        floor = last.timestamp if last else 0.0
        now = self._clock()
        # Wall clocks may stall or step back; the log's instants must not.
        if now <= floor:
            now = math.nextafter(floor, math.inf)
        event = AuditEvent(
            sequence_no=last.sequence_no + 1 if last else 1,
            actor=actor,
            action=action,
            subject=subject,
            timestamp=now,
            outcome=outcome,
            **held,
        )
        if self._sink is not None:
            # Write-ahead: the event is durable before the operation commits
            # or reports anything.
            self._sink(event)
        self.events.append(event)
        return event

    def _gate(self, actor: Role, action: str, subject: str) -> None:
        actor = Role(actor)
        if actor is Role.SUPERUSER:
            return
        if actor not in PERMISSIONS[action]:
            self._emit(actor, action, subject, Outcome.DENIED)
            raise RoleDenied(f"role {actor.value!r} may not {action}")

    @contextlib.contextmanager
    def _attempt(self, actor: Role, action: str, subject: str):
        """Gate the role, then log a failed event for any SliceError inside."""
        self._gate(actor, action, subject)
        try:
            yield
        except SliceError:
            self._emit(actor, action, subject, Outcome.FAILED)
            raise

    def _commit(self, actor: Role, action: str, subject: str, **held) -> LifecycleRecord:
        """Log one ok event, then apply it to the catalog and the inventory."""
        event = self._emit(actor, action, subject, Outcome.OK, **held)
        return apply_event(self.catalog, event, self.infra)

    def _fresh_id(self, base: str) -> str:
        if base not in self.catalog.records:
            return base
        n = 2
        while f"{base}-{n}" in self.catalog.records:
            n += 1
        return f"{base}-{n}"

    def _require_infra(self) -> Infrastructure:
        if self.infra is None:
            raise UnknownEntity(
                "no infrastructure attached; create an inventory first"
                " (slicectl init-testbed)"
            )
        return self.infra

    # -- VF onboarding ------------------------------------------------------

    def onboard_vf(
        self, actor: Role, vsp_id: str, template_text: str
    ) -> LifecycleRecord:
        """Validate and freeze one VF template under a vendor product.

        The template text is content-addressed into the catalog's blobs,
        before the event that names it, so the certified artifact can never
        drift from what was validated. The function is that blob's digest:
        its components are the template's compute resources, and footprints
        read them from the blob, so the catalog holds no copy of them. The
        event carries the VSP and the digest, and the VSP itself when it is
        registered and no event has carried it yet.
        """
        with self._attempt(actor, "onboard_vf", vsp_id):
            new_vsp = self._unlogged("vsps", vsp_id)
            if new_vsp is None and vsp_id not in self.catalog.vsps:
                raise UnknownEntity(f"unknown vendor software product {vsp_id!r}")
            doc = parse_template(template_text)
            report = merge_reports(
                validate_template(doc), validate_environment(doc.environment)
            )
            if not report.accepted:
                raise TemplateRejected(report)
            footprint = resource_footprint(doc)

        digest = hashlib.sha256(template_text.encode("utf-8")).hexdigest()
        self.catalog.template_blobs[digest] = template_text
        self._footprint_cache[digest] = footprint
        vf_id = self._fresh_id(f"vf-{_slug(doc.name)}")
        return self._commit(
            actor, "onboard_vf", vf_id, vsp=vsp_id, template_ref=digest, new_vsp=new_vsp
        )

    def certify_vf(self, actor: Role, vf_id: str) -> LifecycleRecord:
        with self._attempt(actor, "certify_vf", vf_id):
            check_transition(self.catalog.records, "certify_vf", vf_id)
        return self._commit(actor, "certify_vf", vf_id)

    # -- services -----------------------------------------------------------

    def create_service(
        self,
        actor: Role,
        name: str,
        vf_ids: list[str],
        *,
        service_id: str | None = None,
    ) -> LifecycleRecord:
        subject = service_id or name
        with self._attempt(actor, "create_service", subject):
            if not vf_ids:
                raise EmptyService("a service needs at least one network function")
            for vf_id in vf_ids:
                record = self.catalog.records.get(vf_id)
                if record is None or record.kind is not ArtifactKind.VF:
                    raise UnknownEntity(f"unknown vf {vf_id!r}")
                if record.state is not VfState.CERTIFIED:
                    raise UncertifiedVf(f"vf {vf_id!r} is not certified")
            if service_id is not None:
                check_transition(self.catalog.records, "create_service", service_id)
            sid = service_id or self._fresh_id(f"svc-{_slug(name)}")
            service = NetworkService(id=sid, name=name, functions=tuple(vf_ids))
        return self._commit(actor, "create_service", sid, service=service)

    def advance_service(
        self, actor: Role, service_id: str, action: str
    ) -> LifecycleRecord:
        """Advance one workflow step: test, approve, or distribute."""
        if action not in _ADVANCE_STEPS:
            raise ValueError(
                f"unknown action {action!r}, expected one of"
                f" {sorted(_ADVANCE_STEPS)}"
            )
        audit_action = f"{action}_service"
        with self._attempt(actor, audit_action, service_id):
            check_transition(self.catalog.records, audit_action, service_id)
        record = self._commit(actor, audit_action, service_id)
        if record.state is ServiceState.DISTRIBUTED:
            self._propagate_readiness(actor, service_id)
        return record

    # -- slices -------------------------------------------------------------

    def create_slice(
        self, actor: Role, slice: NetworkSlice, template: SliceTemplate
    ) -> LifecycleRecord:
        """Register a slice with its template; derives and attaches the SLA."""
        with self._attempt(actor, "create_slice", slice.id):
            check_transition(self.catalog.records, "create_slice", slice.id)
            for service_id in slice.services:
                record = self.catalog.records.get(service_id)
                if record is None or record.kind is not ArtifactKind.SERVICE:
                    raise UnknownService(
                        f"slice member {service_id!r} is not a catalog service"
                    )
            service_slas = {
                service_id: derive_service_sla(template, service_id)
                for service_id in slice.services
            }
            stored = replace(slice, sla=aggregate_sla(slice, service_slas))
        record = self._commit(
            actor,
            "create_slice",
            slice.id,
            slice=stored,
            slice_template=template,
            customer=self._unlogged("customers", slice.customer),
            provider=self._unlogged("providers", slice.provider),
        )
        self._check_slice_ready(actor, slice.id)
        return record

    def _propagate_readiness(self, actor: Role, service_id: str) -> None:
        for slice_id, slc in self.catalog.slices.items():
            if service_id in slc.services:
                self._check_slice_ready(actor, slice_id)

    def _check_slice_ready(self, actor: Role, slice_id: str) -> None:
        # Derived transition: a drafted slice becomes ready the moment its
        # last member service is distributed. Logged explicitly so replay
        # needs no catalog lookups.
        needs, _ = TRANSITIONS["slice_ready"]
        if self.catalog.records[slice_id].state not in needs:
            return
        slc = self.catalog.slices[slice_id]
        for service_id in slc.services:
            if self.catalog.records[service_id].state is not ServiceState.DISTRIBUTED:
                return
        self._commit(actor, "slice_ready", slice_id)

    def footprint_of_service(self, service_id: str) -> ResourceDemand:
        """Total footprint of a service's virtual functions.

        Physical functions are referenced, never instantiated, and
        contribute nothing.
        """
        service = self.catalog.services.get(service_id)
        if service is None:
            raise UnknownService(f"unknown service {service_id!r}")
        total = ResourceDemand()
        for vf_id in service.functions:
            function = self.catalog.functions.get(vf_id)
            if function is None:
                raise UnknownEntity(f"unknown function {vf_id!r}")
            if function.kind is FunctionKind.PHYSICAL:
                continue
            total = total + self._template_footprint(function.template_ref)
        return total

    def _template_footprint(self, digest: str) -> ResourceDemand:
        footprint = self._footprint_cache.get(digest)
        if footprint is None:
            text = self.catalog.template_blobs.get(digest)
            if text is None:
                raise UnknownEntity(f"no template blob {digest!r}")
            footprint = resource_footprint(parse_template(text))
            self._footprint_cache[digest] = footprint
        return footprint

    def requirements_for(self, slice_id: str) -> list[CapabilityRequirement]:
        slc = self.catalog.slices.get(slice_id)
        if slc is None:
            raise UnknownEntity(f"unknown slice {slice_id!r}")
        template = self.catalog.slice_templates.get(slice_id)
        if template is None:
            raise UnknownEntity(f"slice {slice_id!r} has no slice template")
        footprints = {
            service_id: self.footprint_of_service(service_id)
            for service_id in slc.services
        }
        return required_capabilities(slc, template, footprints)

    def plan_slice(self, slice_id: str) -> PlacementPlan:
        """Pure planning over the current infrastructure snapshot; no audit."""
        infra = self._require_infra()
        requirements = self.requirements_for(slice_id)
        offers = offered_capabilities(infra)
        if not offers:
            return PlacementPlan(slice_id, (), 0.0, False)
        slc = self.catalog.slices[slice_id]
        return plan_placement(slc, requirements, offers, infra)

    def instantiate_slice(
        self, actor: Role, slice_id: str, plan: PlacementPlan, *, atomic: bool = True
    ) -> LifecycleRecord:
        """Execute a placement plan: decide, then log each allocation.

        verify_plan's errors other than member refusals reject the plan up
        front as PlanInvalid. Its member refusals, judged in slice order
        against the infrastructure as it stands, which may have drifted since
        planning, and the members accepted before, are the refused ones. Atomic
        mode (the default) accepts nothing once a member is refused;
        best-effort mode (atomic=False) keeps the accepted members and the
        slice lands in partially_instantiated. With no member accepted,
        PartialFailure is raised in either mode. The slice's own event is
        logged first, so a cut later on leaves a slice that teardown can
        release; an accepted member's instantiate_service event carries its
        tenant and demand, which _commit's fold allocates once it is logged.
        """
        with self._attempt(actor, "instantiate_slice", slice_id):
            infra = self._require_infra()
            check_transition(self.catalog.records, "instantiate_slice", slice_id)
            slc = self.catalog.slices[slice_id]
            needs, _ = TRANSITIONS["instantiate_service"]
            lagging = [
                service_id
                for service_id in slc.services
                if self.catalog.records[service_id].state not in needs
            ]
            if lagging:
                raise InvalidTransition(
                    f"member services not distributed: {lagging}"
                )
            requirements = self.requirements_for(slice_id)
            _, violations = verify_plan(
                plan, requirements, offered_capabilities(infra), infra, slice=slc
            )
            refusals = [v for v in violations if v.code in _MEMBER_REFUSAL_CODES]
            codes = sorted(
                {v.code for v in violations if v.severity is Severity.ERROR}
                - _MEMBER_REFUSAL_CODES
            )
            if codes:
                raise PlanInvalid(f"plan rejected: {', '.join(codes)}")

        demand_of = {r.service: r.demand for r in requirements}
        tenant_of = {a.service: a.tenant for a in plan.assignments}
        failures = [v.service for v in refusals]
        if atomic and failures:
            failures, accepted = failures[:1], []
        else:
            accepted = [s for s in slc.services if s not in failures]

        for service_id in failures:
            self._emit(actor, "instantiate_service", service_id, Outcome.FAILED)
        if not accepted:
            self._emit(actor, "instantiate_slice", slice_id, Outcome.FAILED)
            raise PartialFailure(failures[0], refusals[0].message)
        action = "partially_instantiate_slice" if failures else "instantiate_slice"
        record = self._commit(actor, action, slice_id)
        for service_id in accepted:
            held = {"tenant": tenant_of[service_id], "demand": demand_of[service_id]}
            self._commit(actor, "instantiate_service", service_id, **held)
        return record

    def teardown_slice(self, actor: Role, slice_id: str) -> LifecycleRecord:
        """Terminate every instantiated member, then the slice.

        Each terminate_service event releases, in _commit's fold, what its
        member holds once it is logged, so a failing audit sink leaves
        capacity held exactly by the members still recorded instantiated.
        """
        with self._attempt(actor, "teardown_slice", slice_id):
            self._require_infra()
            check_transition(self.catalog.records, "teardown_slice", slice_id)
        slc = self.catalog.slices[slice_id]
        needs, _ = TRANSITIONS["terminate_service"]
        for service_id in slc.services:
            if self.catalog.records[service_id].state in needs:
                self._commit(actor, "terminate_service", service_id)
        return self._commit(actor, "teardown_slice", slice_id)
