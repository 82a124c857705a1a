"""Span recorder that wraps slicectl's public names from the outside.

Each target is patched where its caller looks it up: a module global such as
``slicectl.cli.load_catalog`` (the CLI imported it by name) or a class
attribute such as ``slicectl.infra.Infrastructure.tenant_latency``. A wrapper
charges the call's duration to its span name and subtracts it from the self
time of the enclosing span, so self times add up to the traced wall time.

Totals stay in memory until the run ends; nothing is written while it runs.
A target that no longer exists is listed in ``Tracer.missing`` instead of
raising, so a later refactor degrades the trace rather than the benchmark.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
from collections import defaultdict

# (lookup place "module:attr[.attr]", span name). Several places may share a
# span name when callers in different modules reach the same function.
TARGETS: tuple[tuple[str, str], ...] = (
    ("slicectl.cli:main", "cli.main"),
    ("slicectl.cli:load_catalog", "store.load_catalog"),
    ("slicectl.cli:load_inventory", "store.load_inventory"),
    ("slicectl.cli:load_audit", "store.load_audit"),
    ("slicectl.cli:save_catalog", "store.save_catalog"),
    ("slicectl.cli:save_inventory", "store.save_inventory"),
    ("slicectl.cli:save_plan", "store.save_plan"),
    ("slicectl.cli:load_plan", "store.load_plan"),
    ("slicectl.cli:parse_template", "template.parse"),
    ("slicectl.cli:validate_template", "template.validate"),
    ("slicectl.cli:validate_environment", "template.validate"),
    ("slicectl.cli:offered_capabilities", "placement.offers"),
    ("slicectl.cli:verify_plan", "placement.verify"),
    ("slicectl.store:FileAuditLog.append", "store.audit_append"),
    ("slicectl.lifecycle:Orchestrator.onboard_vf", "lifecycle.onboard_vf"),
    ("slicectl.lifecycle:Orchestrator.certify_vf", "lifecycle.certify_vf"),
    ("slicectl.lifecycle:Orchestrator.create_service", "lifecycle.create_service"),
    ("slicectl.lifecycle:Orchestrator.advance_service", "lifecycle.advance_service"),
    ("slicectl.lifecycle:Orchestrator.create_slice", "lifecycle.create_slice"),
    ("slicectl.lifecycle:Orchestrator.plan_slice", "lifecycle.plan_slice"),
    ("slicectl.lifecycle:Orchestrator.instantiate_slice", "lifecycle.instantiate_slice"),
    ("slicectl.lifecycle:Orchestrator.teardown_slice", "lifecycle.teardown_slice"),
    ("slicectl.lifecycle:parse_template", "template.parse"),
    ("slicectl.lifecycle:validate_template", "template.validate"),
    ("slicectl.lifecycle:validate_environment", "template.validate"),
    ("slicectl.lifecycle:resource_footprint", "template.footprint"),
    ("slicectl.lifecycle:derive_service_sla", "model.sla"),
    ("slicectl.lifecycle:aggregate_sla", "model.sla"),
    ("slicectl.lifecycle:required_capabilities", "placement.requirements"),
    ("slicectl.lifecycle:offered_capabilities", "placement.offers"),
    ("slicectl.lifecycle:plan_placement", "placement.plan"),
    ("slicectl.lifecycle:verify_plan", "placement.verify"),
    ("slicectl.placement:plan_placement", "placement.plan"),
    ("slicectl.placement:verify_plan", "placement.verify"),
    ("slicectl.placement:offered_capabilities", "placement.offers"),
    ("slicectl.placement:required_capabilities", "placement.requirements"),
    ("slicectl.infra:Infrastructure.tenant_latency", "infra.tenant_latency"),
    ("slicectl.infra:Infrastructure.allocate", "infra.allocate"),
    ("slicectl.infra:Infrastructure.release", "infra.release"),
)


def _note_parse(tracer: "Tracer", args, kwargs, result) -> None:
    text = args[0] if args else kwargs.get("text", "")
    digest = hashlib.sha1(str(text).encode("utf-8")).hexdigest()
    if digest in tracer.digests:
        tracer.counters["template.repeats"] += 1
    tracer.digests.add(digest)


def _note_saved_bytes(tracer: "Tracer", args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    try:
        tracer.counters["store.bytes_rewritten"] += os.stat(path).st_size
    except (OSError, TypeError):
        pass


def _note_events(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["store.events_loaded"] += len(result)


# Spans counted under their name only inside another span; elsewhere they
# are counted as "<name>.elsewhere". ``verify_plan`` asks for tenant
# latencies too, and those are not part of the planner's matrix cost.
_WITHIN = {"infra.tenant_latency": "placement.plan"}

# Extra counts taken at a boundary, after the wrapped call returned.
_HOOKS = {
    "template.parse": _note_parse,
    "store.save_catalog": _note_saved_bytes,
    "store.save_inventory": _note_saved_bytes,
    "store.load_audit": _note_events,
}


class Tracer:
    """Per-name call count, total time and self time, kept in memory."""

    def __init__(self) -> None:
        # Wrappers record only while active, so set-up and checks stay out.
        self.active = True
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.digests: set[str] = set()
        self.missing: list[str] = []
        # Open spans: their names, and the time of their finished children.
        self._names: list[str] = []
        self._child = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        within = _WITHIN.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            names, stack = tracer._names, tracer._child
            span = name if within is None or within in names else name + ".elsewhere"
            names.append(span)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                names.pop()
                covered = stack.pop()
                stack[-1] += elapsed
                tracer.calls[span] += 1
                tracer.total[span] += elapsed
                tracer.self_time[span] += elapsed - covered
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, targets=None) -> None:
        for place, name in TARGETS if targets is None else targets:
            module_name, _, path = place.partition(":")
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(place)
                continue
            # Class attributes are restored from the class's own dict so an
            # inherited name is removed again rather than shadowed.
            own = vars(owner).get(attr, _ABSENT) if isinstance(owner, type) else original
            self._undo.append((owner, attr, own))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- exchange with traced CLI children ---------------------------------

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "counters": dict(self.counters),
            "digests": sorted(self.digests),
            "missing": list(self.missing),
        }

    def merge(self, other: dict) -> None:
        for name, value in other["calls"].items():
            self.calls[name] += value
        for name, value in other["total"].items():
            self.total[name] += value
        for name, value in other["self_time"].items():
            self.self_time[name] += value
        for name, value in other["counters"].items():
            self.counters[name] += value
        for digest in other["digests"]:
            if digest in self.digests:
                self.counters["template.repeats"] += 1
            self.digests.add(digest)
        for place in other["missing"]:
            if place not in self.missing:
                self.missing.append(place)


_ABSENT = object()
