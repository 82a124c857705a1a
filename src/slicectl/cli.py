"""Command-line front end.

Thin shell over the library: each subcommand delegates to exactly one
lifecycle, placement, or template operation, so anything the CLI can do is
reproducible through library calls; status prints lifecycle.lab_problems of
the fold, and adds what the files alone show: whether the log explains the
catalog, a torn tail, and the checkpoint. State lives in one catalog
directory (audit.log, blobs/, inventory.yaml, and any catalog.json that
save_catalog or an older build left) selected with --catalog or the
SLICECTL_CATALOG environment variable; the lifecycle records, the
allocations and the entities the engine creates or registers are the fold
of audit.log onto catalog.json, made when a command opens the engine, and a
log the fold refuses makes every such command exit 1. So a lifecycle
command appends to audit.log and writes each new template blob before its
event, and rewrites nothing but checkpoint.json, derived state that lets a
later command fold only the log's tail, from the event after the last that
the log says it covers: catalog.json is a read-only genesis in any format,
and inventory.yaml is written by init-testbed and demo alone; demo refuses
a directory that holds any of the three, and opens its engine on the
testbed it saves. Mutating commands hold an exclusive advisory lock on the
directory for the command's duration, and status and audit a shared one;
every command but demo that opens the engine under that lock, place-slice
included, opens it through _engine_for, which rewrites the checkpoint once
the log after it holds as many bytes as the checkpoint does. Every
command takes --catalog and --json; only one that a role acts in takes --as.
A command loads the template parser or the solver only when it runs one,
as lifecycle does, and PyYAML only when it reads or writes a YAML file.

Exit codes: 0 ok, 1 validation/denied/infeasible, 2 usage, 3 internal.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import sys
from collections import ChainMap
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    DanglingReference,
    IoFailure,
    MissingSizing,
    SliceError,
    TemplateSyntaxError,
)
from .infra import Infrastructure, build_testbed
from .lifecycle import (
    ArtifactKind,
    AuditEvent,
    Catalog,
    Orchestrator,
    Role,
    ServiceState,
    lab_problems,
    lazy_getattr,
)
from .model import (
    Customer,
    NetworkSlice,
    PlacementPlan,
    ServiceRequirement,
    Severity,
    SliceProvider,
    SliceTemplate,
    VendorSoftwareProduct,
    _slug,
    make_slice_template,
)
from .store import (
    AUDIT_FILE,
    BLOBS_DIR,
    CATALOG_FILE,
    CHECKPOINT_FILE,
    INVENTORY_FILE,
    FileAuditLog,
    TemplateBlobs,
    checkpoint_fold,
    decode,
    encode,
    fragment_bytes,
    load_audit,
    load_catalog,
    load_checkpoint,
    load_inventory,
    load_plan,
    read_checkpoint,
    relabel,
    replay_states,
    save_catalog,  # no command calls it; bench/spans.py wraps cli.save_catalog
    save_checkpoint,
    save_inventory,
    save_plan,
    _load_yaml,
    _parse_yaml,
    _read_text,
)

if TYPE_CHECKING:
    from .placement import Violation

# lint-template's parser and place-slice's verifier load on first use, and
# are called through _lazy, as in lifecycle and for the same reason.
__getattr__ = lazy_getattr(
    __name__,
    template=(
        "merge_reports",
        "parse_template",
        "resource_footprint",
        "validate_environment",
        "validate_template",
    ),
    placement=("offered_capabilities", "verify_plan"),
)
_lazy = sys.modules[__name__]

ENV_CATALOG = "SLICECTL_CATALOG"


@dataclass
class CommandResult:
    """Outcome of one CLI invocation."""

    exit_code: int
    summary: str
    detail: dict | None = None
    machine: bool = False


class _Usage(Exception):
    """Bad invocation shape; maps to exit code 2."""


# -- catalog directory plumbing ----------------------------------------------


def _resolve_root(args) -> Path:
    root = args.catalog or os.environ.get(ENV_CATALOG)
    if not root:
        raise _Usage(
            f"no catalog directory: pass --catalog or set {ENV_CATALOG}"
        )
    return Path(root)


@contextlib.contextmanager
def _locked(root: Path, operation: int = fcntl.LOCK_EX):
    """Advisory lock on root: exclusive for a command that writes, so one
    writer runs at a time, and shared (LOCK_SH) for one that only reads, so
    it never sees a writer's files half saved. A read of a directory that
    does not exist takes no lock and creates nothing. A file is refused,
    and so is a path below one, judged by the nearest path that exists."""
    if not next(p for p in (root, *root.parents) if p.exists()).is_dir():
        raise IoFailure(f"{root}: not a directory")
    if operation == fcntl.LOCK_SH and not root.is_dir():
        yield
        return
    root.mkdir(parents=True, exist_ok=True)
    with open(root / ".lock", "a", encoding="utf-8") as handle:
        fcntl.flock(handle.fileno(), operation)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _genesis(root: Path) -> Catalog:
    """root's catalog.json, read and never written, or an empty catalog."""
    path = root / CATALOG_FILE
    return load_catalog(path) if path.exists() else Catalog()


def _lab_files(root: Path) -> tuple[Catalog, Infrastructure | None, list[AuditEvent]]:
    """root's genesis, inventory and whole audit log, read from their files."""
    inventory_path = root / INVENTORY_FILE
    audit_path = root / AUDIT_FILE
    return (
        _genesis(root),
        load_inventory(inventory_path) if inventory_path.exists() else None,
        load_audit(audit_path) if audit_path.exists() else [],
    )


def _open_engine(root: Path) -> tuple[Orchestrator, bool]:
    """The engine on root's files, continuing the audit log: the log folded
    onto the genesis, or, where root's checkpoint matches its files, the
    log's events after the checkpoint folded onto the fold it holds; and
    whether a writer is due to rewrite the checkpoint, always so with none."""
    resumed = load_checkpoint(root)
    if resumed is None:
        return _engine_on(root, *_lab_files(root)), True
    *lab, due = resumed
    return _engine_on(root, *lab), due


def _engine_on(
    root: Path,
    catalog: Catalog,
    infra: Infrastructure | None,
    events: list[AuditEvent],
    after: AuditEvent | None = None,
) -> Orchestrator:
    """The engine that folds events onto catalog and infra, which hold the
    fold of the log through its event after where that is given, and logs
    to root's audit.log. The catalog's blobs are the genesis's (inline in
    a format-1 file, files otherwise), then the files in blobs/ that the
    log names, where a new onboard writes its own."""
    numbered = after.sequence_no if after else 0
    sink = FileAuditLog(root / AUDIT_FILE, expected_next=numbered + len(events) + 1)
    engine = Orchestrator(
        infra, catalog=catalog, audit_sink=sink.append, log=events, after=after
    )
    genesis = catalog.template_blobs
    refs = {f.template_ref for f in catalog.functions.values()} - {None}
    logged = TemplateBlobs(root / BLOBS_DIR, refs - genesis.keys())
    catalog.template_blobs = ChainMap(logged, genesis)
    return engine


def _save_checkpoint(root: Path, engine: Orchestrator) -> None:
    """Write root's checkpoint from engine, the fold of the whole log. A
    genesis that serves its blobs from memory, as format 1 does, gets none,
    since a checkpoint's catalog reads them from blobs/. A failed write
    changes nothing that the command reports."""
    genesis = engine.catalog.template_blobs.maps[-1]
    if isinstance(genesis, dict) and genesis:
        return
    fold = checkpoint_fold(engine.catalog, engine.infra)
    with contextlib.suppress(IoFailure):
        save_checkpoint(root, fold)


@contextlib.contextmanager
def _engine_for(args):
    """The state path of every lifecycle command and of place-slice: lock
    the catalog directory and open the engine on it. The command's audit
    events are all it stores: each ok event carries the entities it creates
    or is the first to need, and a blob is a file before its event, so a
    command cut after any append leaves the lab as its log says. Nothing
    of the lab's state is rewritten but the checkpoint, which a command
    that ends without an error writes after its last append when the log
    bytes its open folded were at least the checkpoint's size, so always on
    a lab with none. A final fragment that the command's first append drops
    is noted in args.dropped_fragment, its size."""
    root = _resolve_root(args)
    audit_path = root / AUDIT_FILE
    with _locked(root):
        engine, due = _open_engine(root)
        fragment = fragment_bytes(audit_path)
        try:
            yield engine
        finally:
            if fragment and not fragment_bytes(audit_path):
                args.dropped_fragment = fragment
        if due:
            _save_checkpoint(root, engine)


def _record_result(record, summary: str, **detail) -> CommandResult:
    """Success of a lifecycle command: the record's id under its kind, its
    new state, and any further detail."""
    return CommandResult(
        0,
        summary,
        {record.kind.value: record.subject, "state": record.state.value, **detail},
    )


def _fixture_text(name: str) -> str:
    return (
        resources.files("slicectl").joinpath("fixtures").joinpath(name)
    ).read_text(encoding="utf-8")


# -- slice descriptors ---------------------------------------------------------


_DESCRIPTOR_SECTIONS = {"slice", "profile", "requirements", "customer", "provider"}
_SLICE_KEYS = {"id", "name", "customer", "provider", "services", "chain_order"}
_PROVIDER_DEFAULTS = {"administrative_domains": ["default"]}


def _slice_from_descriptor(
    raw: object, engine: Orchestrator, source: str
) -> tuple[NetworkSlice, SliceTemplate]:
    """Build slice and template from a descriptor document read from source.

    Optional customer/provider sections register the slice's customer and
    provider as a side effect, so a descriptor is self-contained; a section
    that differs from a registered entity is refused. The sections decode
    like catalog entities, and a key that names no field is refused. Every
    refusal names source; one from a model rule keeps its class.
    """
    try:
        if not isinstance(raw, dict):
            raise ValueError("the descriptor must be a mapping")
        slice_raw = raw["slice"]
        for section in ("slice", "requirements", "customer", "provider"):
            if not isinstance(raw.get(section, {}), dict):
                raise ValueError(f"the {section} section must be a mapping")
        unknown = sorted(set(raw) - _DESCRIPTOR_SECTIONS)
        unknown += sorted(set(slice_raw) - _SLICE_KEYS)
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        try:
            requirements = decode(dict[str, ServiceRequirement], raw["requirements"])
        except (TypeError, ValueError) as exc:
            raise relabel(exc, "requirements") from exc
        slc = decode(
            NetworkSlice,
            {
                **slice_raw,
                "id": slice_raw.get("id") or f"slice-{_slug(str(slice_raw['name']))}",
                "profile": raw["profile"],
            },
        )
        for section, cls, register, defaults in (
            ("customer", Customer, engine.register_customer, {}),
            ("provider", SliceProvider, engine.register_provider, _PROVIDER_DEFAULTS),
        ):
            if section in raw:
                entity_id = getattr(slc, section)
                given = raw[section].get("id", entity_id)
                if given != entity_id:
                    raise ValueError(
                        f"the {section} section's id {given!r} is not the slice's"
                        f" {section} {entity_id!r}"
                    )
                fields = {"id": entity_id, "name": entity_id, **defaults, **raw[section]}
                register(decode(cls, fields))
        try:
            template = make_slice_template(slc, requirements)
        except SliceError as exc:
            raise relabel(exc, "requirements") from exc
    except SliceError as exc:
        raise relabel(exc, f"{source}: bad slice descriptor") from exc
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        raise IoFailure(f"{source}: bad slice descriptor: {reason}") from exc
    return slc, template


# -- subcommand handlers --------------------------------------------------------


def _cmd_lint_template(args) -> CommandResult:
    """Onboarding's checks in onboarding's order, without the catalog."""
    try:
        doc = _lazy.parse_template(_read_text(args.template))
        report = _lazy.merge_reports(
            _lazy.validate_template(doc), _lazy.validate_environment(doc.environment)
        )
        if report.accepted:
            _lazy.resource_footprint(doc)
    except (TemplateSyntaxError, DanglingReference, MissingSizing) as exc:
        return CommandResult(
            1,
            f"{type(exc).__name__}: {exc}",
            {"verdict": "rejected", "error": str(exc)},
        )
    verdict = "accepted" if report.accepted else "rejected"
    lines = [f"{doc.name}: {verdict}"]
    for finding in report.findings:
        lines.append(
            f"  [{finding.severity.value}] {finding.rule_id}"
            f" at {finding.location}: {finding.message}"
        )
    detail = {
        "template": doc.name,
        "verdict": verdict,
        "findings": [encode(f) for f in report.findings],
    }
    return CommandResult(0 if report.accepted else 1, "\n".join(lines), detail)


def _cmd_onboard_vf(args) -> CommandResult:
    with _engine_for(args) as engine:
        text = _read_text(args.template)
        vsp = engine.catalog.vsps.get(args.vsp) or VendorSoftwareProduct(
            args.vsp, "unknown-vendor", args.vsp, (1, 0, 0)
        )
        given = {k: getattr(args, k) for k in ("vendor_name", "product_name", "version")}
        given = {k: v for k, v in given.items() if v is not None}
        engine.register_vsp(replace(vsp, **given))
        record = engine.onboard_vf(Role(args.role), args.vsp, text)
    return _record_result(
        record,
        f"onboarded {record.subject} under {args.vsp} ({record.state.value})",
    )


def _cmd_certify_vf(args) -> CommandResult:
    with _engine_for(args) as engine:
        record = engine.certify_vf(Role(args.role), args.vf)
    return _record_result(record, f"{record.subject} is now {record.state.value}")


def _cmd_create_service(args) -> CommandResult:
    with _engine_for(args) as engine:
        record = engine.create_service(
            Role(args.role), args.name, args.vf, service_id=args.id
        )
    return _record_result(
        record, f"created service {record.subject} ({record.state.value})"
    )


def _cmd_advance_service(args) -> CommandResult:
    with _engine_for(args) as engine:
        record = engine.advance_service(Role(args.role), args.service, args.step)
    return _record_result(record, f"{record.subject} is now {record.state.value}")


def _cmd_create_slice(args) -> CommandResult:
    with _engine_for(args) as engine:
        raw = _load_yaml(Path(args.descriptor))
        slc, template = _slice_from_descriptor(raw, engine, args.descriptor)
        record = engine.create_slice(Role(args.role), slc, template)
    sla = engine.catalog.slices[slc.id].sla
    return _record_result(
        record,
        f"created slice {record.subject} ({record.state.value}),"
        f" committed latency {sla.committed_latency} ms",
        sla=encode(sla),
    )


def _plan_verified(
    engine: Orchestrator, slice_id: str
) -> tuple[PlacementPlan, list[Violation]]:
    """Plan a slice and re-check a feasible plan with the verifier.

    The verifier shares member_refusals with the executor and only
    isolation_refusal with the solver, none of its search, so a plan that
    fails here means the solver is wrong, not the input.
    """
    plan = engine.plan_slice(slice_id)
    if not plan.feasible:
        return plan, []
    ok, violations = _lazy.verify_plan(
        plan,
        engine.requirements_for(slice_id),
        _lazy.offered_capabilities(engine.infra),
        engine.infra,
        slice=engine.catalog.slices[slice_id],
    )
    if not ok:
        codes = sorted(v.code for v in violations if v.severity is Severity.ERROR)
        raise RuntimeError(f"solver produced a plan the verifier rejects: {codes}")
    return plan, violations


def _cmd_place_slice(args) -> CommandResult:
    root = _resolve_root(args)
    out = Path(args.out or root / f"plan-{args.slice}.yaml")
    # The plan must not replace a file of the lab: its log above all.
    lab, target = root.resolve(), out.resolve()
    own = (AUDIT_FILE, CATALOG_FILE, INVENTORY_FILE, CHECKPOINT_FILE, ".lock")
    if target in [lab / name for name in own] or target.is_relative_to(lab / BLOBS_DIR):
        raise IoFailure(f"{out}: a file of the lab {root}; choose another --out")
    with _engine_for(args) as engine:
        plan, violations = _plan_verified(engine, args.slice)
        if not plan.feasible:
            return CommandResult(
                1,
                f"no feasible placement for {args.slice}",
                {"slice": args.slice, "feasible": False},
            )
        save_plan(plan, out)
    lines = [f"plan for {args.slice}: e2e latency {plan.e2e_latency} ms"]
    for assignment in plan.assignments:
        lines.append(f"  {assignment.service} -> {assignment.tenant}")
    for violation in violations:
        if violation.severity is Severity.WARNING:
            lines.append(f"  warning [{violation.code}]: {violation.message}")
    lines.append(f"plan written to {out}")
    return CommandResult(
        0,
        "\n".join(lines),
        {
            "slice": args.slice,
            "e2e_latency": plan.e2e_latency,
            "assignments": {
                a.service: a.tenant for a in plan.assignments
            },
            "plan_file": str(out),
            "warnings": [
                {"code": v.code, "message": v.message}
                for v in violations
                if v.severity is Severity.WARNING
            ],
        },
    )


def _cmd_instantiate_slice(args) -> CommandResult:
    with _engine_for(args) as engine:
        plan = load_plan(args.plan)
        record = engine.instantiate_slice(
            Role(args.role), args.slice, plan, atomic=not args.best_effort
        )
    lines = [f"slice {record.subject} is now {record.state.value}"]
    for assignment in plan.assignments:
        lines.append(f"  {assignment.service} on {assignment.tenant}")
    return _record_result(record, "\n".join(lines))


def _cmd_teardown_slice(args) -> CommandResult:
    with _engine_for(args) as engine:
        record = engine.teardown_slice(Role(args.role), args.slice)
    return _record_result(record, f"slice {record.subject} is now {record.state.value}")


def _refold(root: Path) -> tuple[Orchestrator, dict | None]:
    """status's open: the engine on root's whole log folded onto the
    genesis, as every command would fold it without a checkpoint, and what
    that fold says of root's checkpoint, None where there is none. A
    checkpoint whose tags match root's files is compared, in plain-data
    form, with the fold of the log through the event it covers, so no
    second catalog is decoded."""
    catalog, infra, events = _lab_files(root)
    if not (root / CHECKPOINT_FILE).exists():
        return _engine_on(root, catalog, infra, events), None
    found = read_checkpoint(root)
    if found is None:
        return _engine_on(root, catalog, infra, events), {"state": "stale"}
    fold, last = found[:2]
    through = last.sequence_no
    replay_states(events[:through], infra, catalog)
    agrees = checkpoint_fold(catalog, infra) == fold
    checkpoint = {"state": "agrees" if agrees else "differs", "through": through}
    return _engine_on(root, catalog, infra, events[through:], last), checkpoint


def _cmd_status(args) -> CommandResult:
    root = _resolve_root(args)
    with _locked(root, fcntl.LOCK_SH):
        if args.subject:
            engine = _open_engine(root)[0]
        else:
            engine, checkpoint = _refold(root)
            problems = lab_problems(engine.catalog, engine.infra)
            fragment = fragment_bytes(root / AUDIT_FILE)
    catalog = engine.catalog
    if args.subject:
        record = catalog.records.get(args.subject)
        if record is None:
            return CommandResult(
                1,
                f"no record for {args.subject!r}",
                {"subject": args.subject},
            )
        return CommandResult(
            0,
            f"{record.subject}: {record.kind.value} in state {record.state.value}",
            encode(record),
        )
    lines = []
    detail: dict = {"records": {}, "tenants": {}}
    for kind in (ArtifactKind.VF, ArtifactKind.SERVICE, ArtifactKind.SLICE):
        members = [
            r for r in catalog.records.values() if r.kind is kind
        ]
        if not members:
            continue
        lines.append(f"{kind.value}:")
        for record in sorted(members, key=lambda r: r.subject):
            lines.append(f"  {record.subject}: {record.state.value}")
            detail["records"][record.subject] = {
                "kind": record.kind.value,
                "state": record.state.value,
            }
    if engine.infra is not None:
        lines.append("tenants:")
        for tenant in sorted(engine.infra.tenants.values(), key=lambda t: t.id):
            used, quota = tenant.used, tenant.quota
            lines.append(
                f"  {tenant.id} on {tenant.host}:"
                f" used {used.vcpu}/{quota.vcpu} vcpu,"
                f" {used.ram}/{quota.ram} ram,"
                f" {used.storage}/{quota.storage} storage,"
                f" {used.ports}/{quota.ports} ports"
            )
            detail["tenants"][tenant.id] = {
                "host": tenant.host,
                "used": used.as_tuple(),
                "quota": quota.as_tuple(),
            }
    if not lines:
        lines.append("catalog is empty")
    # The log must explain the catalog: each record, the log's fold, names
    # a function, service or slice, and each of those has a record.
    entities = {*catalog.functions, *catalog.services, *catalog.slices}
    differ = sorted(entities ^ catalog.records.keys())
    problem = f"differs from the catalog on {', '.join(differ)}" if differ else None
    lines.append(f"audit log: {problem or 'agrees with the catalog'}")
    detail["log"] = {"agrees": problem is None, "problem": problem}
    if fragment:
        lines.append(
            f"audit log: ends in a {fragment}-byte fragment that the next write drops"
        )
        detail["log"]["fragment_bytes"] = fragment
    if checkpoint is not None:
        detail["checkpoint"] = checkpoint
        state, through = checkpoint["state"], checkpoint.get("through")
        if state == "stale":
            lines.append("checkpoint: stale, ignored")
        else:
            verb = "agrees with" if state == "agrees" else "differs from"
            lines.append(f"checkpoint: {verb} the log through event {through}")
        if state == "differs":
            problems.append(
                f"{CHECKPOINT_FILE} differs from the fold of the log through"
                f" event {through}; delete it"
            )
    lines.extend(f"problem: {reason}" for reason in problems)
    detail["problems"] = problems
    code = 0 if problem is None and not problems else 1
    return CommandResult(code, "\n".join(lines), detail)


def _cmd_audit(args) -> CommandResult:
    root = _resolve_root(args)
    audit_path = root / AUDIT_FILE
    with _locked(root, fcntl.LOCK_SH):
        events = load_audit(audit_path) if audit_path.exists() else []
    if args.tail is not None:
        events = events[-args.tail :]
    lines = [
        f"{e.sequence_no:>4}  {e.outcome.value:<7} {e.actor.value:<10}"
        f" {e.action:<30} {e.subject}"
        for e in events
    ]
    if not lines:
        lines = ["audit log is empty"]
    return CommandResult(
        0,
        "\n".join(lines),
        {"events": [encode(e) for e in events]},
    )


def _cmd_init_testbed(args) -> CommandResult:
    root = _resolve_root(args)
    with _locked(root):
        inventory_path = root / INVENTORY_FILE
        if inventory_path.exists() and not args.force:
            return CommandResult(
                1, f"{inventory_path} already exists; pass --force to replace it"
            )
        # The fold onto the genesis raises LogDiverged where every command's
        # would, or for an allocation a fresh inventory cannot hold; one an
        # older build kept in inventory.yaml has no demand logged.
        audit_path = root / AUDIT_FILE
        events = load_audit(audit_path) if audit_path.exists() else []
        infra = build_testbed()
        lost = sorted(
            r.subject
            for r in replay_states(events, infra, _genesis(root)).values()
            if r.state is ServiceState.INSTANTIATED
            and events[r.history[-1] - 1].demand is None
        )
        if lost:
            return CommandResult(
                1,
                f"{audit_path} records instantiated services"
                f" {', '.join(lost)}, whose allocations a fresh inventory"
                f" would drop; tear their slices down first",
            )
        save_inventory(infra, inventory_path)
    return CommandResult(
        0,
        f"testbed written to {inventory_path}:"
        f" {len(infra.hosts)} hosts, {len(infra.tenants)} tenants,"
        f" {len(infra.links)} links",
        {
            "hosts": sorted(infra.hosts),
            "tenants": sorted(infra.tenants),
            "links": sorted(infra.links),
        },
    )


def _cmd_demo(args) -> CommandResult:
    root = _resolve_root(args)
    with _locked(root):
        for name in (CATALOG_FILE, INVENTORY_FILE, AUDIT_FILE):
            if (root / name).exists():
                return CommandResult(
                    1, f"demo needs a fresh catalog directory, found {root / name}"
                )
        infra = build_testbed()
        save_inventory(infra, root / INVENTORY_FILE)  # the log allocates
        engine = _engine_on(root, Catalog(), infra, [])
        engine.register_vsp(
            VendorSoftwareProduct(
                id="vsp-core-cp",
                vendor_name="GreyOp Networks",
                product_name="Core CP",
                version=(1, 0, 0),
            )
        )
        engine.register_vsp(
            VendorSoftwareProduct(
                id="vsp-core-dp",
                vendor_name="GreyOp Networks",
                product_name="Core DP",
                version=(1, 0, 0),
            )
        )
        vf_cp = engine.onboard_vf(
            Role.DESIGNER, "vsp-core-cp", _fixture_text("core_cp.yaml")
        ).subject
        vf_dp = engine.onboard_vf(
            Role.DESIGNER, "vsp-core-dp", _fixture_text("core_dp.yaml")
        ).subject
        engine.certify_vf(Role.TESTER, vf_cp)
        engine.certify_vf(Role.TESTER, vf_dp)
        engine.create_service(
            Role.DESIGNER, "Core CP", [vf_cp], service_id="svc-core-cp"
        )
        engine.create_service(
            Role.DESIGNER, "Core DP", [vf_dp], service_id="svc-core-dp"
        )
        for service_id in ("svc-core-cp", "svc-core-dp"):
            engine.advance_service(Role.TESTER, service_id, "test")
            engine.advance_service(Role.GOVERNOR, service_id, "approve")
            engine.advance_service(Role.OPERATOR, service_id, "distribute")
        raw = _parse_yaml(_fixture_text("slice_a.yaml"), "slice_a.yaml")
        slc, template = _slice_from_descriptor(raw, engine, "slice_a.yaml")
        engine.create_slice(Role.DESIGNER, slc, template)
        plan, _ = _plan_verified(engine, slc.id)
        record = engine.instantiate_slice(Role.OPERATOR, slc.id, plan)
        save_plan(plan, root / f"plan-{slc.id}.yaml")

    by_outcome: dict[str, int] = {}
    for event in engine.events:
        by_outcome[event.outcome.value] = by_outcome.get(event.outcome.value, 0) + 1
    limit = engine.catalog.slices[slc.id].profile.end_to_end_latency
    lines = [f"slice {slc.id} is {record.state.value}"]
    for assignment in plan.assignments:
        lines.append(f"  {assignment.service} on {assignment.tenant}")
    lines.append(f"e2e latency {plan.e2e_latency} ms (profile limit {limit} ms)")
    lines.append(
        "audit: "
        + ", ".join(f"{count} {outcome}" for outcome, count in sorted(by_outcome.items()))
    )
    return CommandResult(
        0,
        "\n".join(lines),
        {
            "slice": slc.id,
            "state": record.state.value,
            "assignments": {a.service: a.tenant for a in plan.assignments},
            "e2e_latency": plan.e2e_latency,
            "audit_events": len(engine.events),
        },
    )


# -- parser ----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected an integer > 0, got {text!r}")
    return value


def _entity_id(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty id")
    return text


def _version(text: str) -> tuple[int, ...]:
    try:
        version = tuple(int(part) for part in text.split("."))
    except ValueError:
        version = ()
    if len(version) != 3 or min(version) < 0:
        raise argparse.ArgumentTypeError(
            f"expected X.Y.Z of integers >= 0, got {text!r}"
        )
    return version


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--catalog",
        help=f"catalog directory (default: ${ENV_CATALOG})",
    )
    common.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    # Only a command that a role acts in takes --as.
    acting = argparse.ArgumentParser(add_help=False, parents=[common])
    acting.add_argument(
        "--as",
        dest="role",
        choices=sorted(role.value for role in Role),
        default=Role.SUPERUSER.value,
        help="acting role (default: superuser)",
    )

    parser = argparse.ArgumentParser(
        prog="slicectl",
        description=(
            "Design-time orchestrator and placement simulator for network"
            " slices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "lint-template",
        parents=[common],
        help="run onboard-vf's template checks without touching the catalog",
    )
    p.add_argument("template", help="template file")
    p.set_defaults(handler=_cmd_lint_template)

    p = sub.add_parser(
        "onboard-vf", parents=[acting], help="onboard a VF template"
    )
    p.add_argument("template", help="template file")
    p.add_argument(
        "--vsp", type=_entity_id, required=True, help="vendor software product id"
    )
    # Not given by default: a new VSP is unknown-vendor, its id and 1.0.0,
    # and register_vsp refuses a value that differs from a known VSP's.
    p.add_argument("--vendor", dest="vendor_name", help="vendor name")
    p.add_argument("--product", dest="product_name", help="product name")
    p.add_argument("--version", type=_version, help="product version X.Y.Z")
    p.set_defaults(handler=_cmd_onboard_vf)

    p = sub.add_parser(
        "certify-vf", parents=[acting], help="certify a draft VF"
    )
    p.add_argument("vf", help="vf id")
    p.set_defaults(handler=_cmd_certify_vf)

    p = sub.add_parser(
        "create-service",
        parents=[acting],
        help="bundle certified VFs into a service",
    )
    p.add_argument("name", help="service display name")
    p.add_argument(
        "--vf",
        action="append",
        required=True,
        help="member vf id (repeatable)",
    )
    p.add_argument("--id", type=_entity_id, default=None, help="explicit service id")
    p.set_defaults(handler=_cmd_create_service)

    for action, verb in (
        ("test", "test a designed service"),
        ("approve", "approve a tested service"),
        ("distribute", "distribute an approved service"),
    ):
        p = sub.add_parser(f"{action}-service", parents=[acting], help=verb)
        p.add_argument("service", help="service id")
        p.set_defaults(handler=_cmd_advance_service, step=action)

    p = sub.add_parser(
        "create-slice",
        parents=[acting],
        help="create a slice from a descriptor file",
    )
    p.add_argument("descriptor", help="slice descriptor file")
    p.set_defaults(handler=_cmd_create_slice)

    p = sub.add_parser(
        "place-slice",
        parents=[common],
        help="compute and verify a placement plan",
    )
    p.add_argument("slice", help="slice id")
    p.add_argument("--out", default=None, help="plan output file")
    p.set_defaults(handler=_cmd_place_slice)

    p = sub.add_parser(
        "instantiate-slice",
        parents=[acting],
        help="execute a placement plan",
    )
    p.add_argument("slice", help="slice id")
    p.add_argument("--plan", required=True, help="plan file from place-slice")
    p.add_argument(
        "--best-effort",
        action="store_true",
        help="keep the members that fit instead of none",
    )
    p.set_defaults(handler=_cmd_instantiate_slice)

    p = sub.add_parser(
        "teardown-slice",
        parents=[acting],
        help="terminate a slice and release its resources",
    )
    p.add_argument("slice", help="slice id")
    p.set_defaults(handler=_cmd_teardown_slice)

    p = sub.add_parser(
        "status", parents=[common], help="show lifecycle states and usage"
    )
    p.add_argument("subject", nargs="?", default=None, help="one artifact id")
    p.set_defaults(handler=_cmd_status)

    p = sub.add_parser("audit", parents=[common], help="print the audit log")
    p.add_argument(
        "--tail", type=_positive_int, default=None, help="last N events only"
    )
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser(
        "init-testbed",
        parents=[common],
        help="write the reference 3-host/3-tenant inventory",
    )
    p.add_argument(
        "--force", action="store_true", help="replace an existing inventory"
    )
    p.set_defaults(handler=_cmd_init_testbed)

    p = sub.add_parser(
        "demo",
        parents=[common],
        help="run a bundled end-to-end scenario",
    )
    p.add_argument("scenario", choices=["slice-a"], help="scenario name")
    p.set_defaults(handler=_cmd_demo)

    return parser


def run(argv: list[str] | None = None) -> CommandResult:
    """Parse argv and execute one subcommand; never raises."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(0 if code == 0 else 2, "")
    try:
        result = args.handler(args)
    except _Usage as exc:
        result = CommandResult(2, f"usage error: {exc}")
    except SliceError as exc:
        result = CommandResult(
            1,
            f"{type(exc).__name__}: {exc}",
            {"error": type(exc).__name__, "message": str(exc)},
        )
    except Exception as exc:  # the CLI boundary must map bugs to exit 3
        result = CommandResult(3, f"internal error: {type(exc).__name__}: {exc}")
    dropped = getattr(args, "dropped_fragment", 0)
    if dropped:
        result.summary += f"\naudit log: dropped its {dropped}-byte final fragment"
        result.detail = {**(result.detail or {}), "dropped_fragment_bytes": dropped}
    result.machine = args.json
    return result


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    if result.machine:
        payload: dict = {
            "exit_code": result.exit_code,
            "summary": result.summary,
        }
        if result.detail is not None:
            payload["detail"] = result.detail
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    elif result.summary:
        print(result.summary)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
