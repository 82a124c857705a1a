"""Acceptance gate: one test per release criterion.

Each test is runnable standalone and states its criterion in its title line;
the terminal summary prints one pass/fail line per criterion (see conftest).
Comparisons are exact unless a tolerance is stated inline.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import yaml

import oracles
import scenario
from slicectl.cli import run
from slicectl.errors import IoFailure, PartialFailure, PlanInvalid, SliceError
from slicectl.infra import build_testbed
from slicectl.lifecycle import Catalog, Orchestrator, Role
from slicectl.model import (
    Customer,
    NetworkSlice,
    ResourceDemand,
    ServiceProfile,
    ServiceRequirement,
    Sla,
    SliceProvider,
    aggregate_sla,
    make_slice_template,
)
from slicectl.placement import (
    VIOLATION_DUPLICATE,
    Assignment,
    PlacementPlan,
    offered_capabilities,
    plan_placement,
    verify_plan,
)
from slicectl.store import (
    load_audit,
    load_catalog,
    load_inventory,
    load_plan,
    replay_states,
    save_catalog,
    save_inventory,
    save_plan,
)
from slicectl.template import parse_template, validate_environment, validate_template


def test_demo_activates_slice_a(tmp_path):
    """The bundled scenario ends active: two service instantiations, one
    slice instantiation, and the two services on distinct tenants."""
    root = tmp_path / "demo"
    result = run(["demo", "slice-a", "--catalog", str(root)])
    assert result.exit_code == 0, result.summary

    events = load_audit(root / "audit.log")
    assert [e.outcome.value for e in events] == ["ok"] * 17
    assert sum(e.action == "instantiate_service" for e in events) == 2
    assert sum(e.action == "instantiate_slice" for e in events) == 1

    assert not (root / "catalog.json").exists()
    catalog = Orchestrator(log=events).catalog
    assert catalog.records["slice-a"].state.value == "active"

    inventory = load_inventory(root / "inventory.yaml")
    assert len(inventory.tenants) == 3
    plan = load_plan(root / "plan-slice-a.yaml")
    tenants = [a.tenant for a in plan.assignments]
    assert len(plan.assignments) == 2
    assert len(set(tenants)) == 2
    assert plan.e2e_latency <= catalog.slices["slice-a"].profile.end_to_end_latency


def test_template_rule_boundaries(tmp_path):
    """2000 counted environment characters pass and 2001 fail, and the
    metadata and forbidden-kind rules reject at their edges."""
    base = yaml.safe_load(scenario.minimal_template())

    def with_env(value: str):
        doc = dict(base)
        doc["environment"] = {"flavor": value}
        return parse_template(yaml.safe_dump(doc))

    at_limit = with_env("x" * 1998)  # 1998 + 2 quotes = 2000 counted
    over = with_env("x" * 1999)
    assert oracles.quoted_env_count(at_limit.environment) == 2000
    assert oracles.quoted_env_count(over.environment) == 2001
    assert validate_environment(at_limit.environment).accepted
    report = validate_environment(over.environment)
    assert not report.accepted
    assert [f.rule_id for f in report.findings] == ["env-limit"]

    for key in ("vnf_name", "vnf_id", "vf_module_id"):
        doc = yaml.safe_load(scenario.minimal_template())
        del doc["resources"]["node"]["metadata"][key]
        report = validate_template(parse_template(yaml.safe_dump(doc)))
        assert not report.accepted
        assert {f.rule_id for f in report.findings} == {"required-metadata"}
        assert any(key in f.message for f in report.findings)

    doc = yaml.safe_load(scenario.minimal_template())
    doc["resources"]["fip"] = {"type": "OS::Neutron::FloatingIP", "properties": {}}
    report = validate_template(parse_template(yaml.safe_dump(doc)))
    assert not report.accepted
    assert "forbidden-kind" in {f.rule_id for f in report.findings}


def test_placement_matches_exhaustive_oracle(monkeypatch):
    """On 200 random instances the solver's end-to-end latency equals the
    brute-force optimum exactly; greedy plans verify whenever feasible."""
    feasible = 0
    for index in range(200):
        rng = random.Random(20260817 + index)
        slc, requirements, offers, infra, info = scenario.random_instance(rng)

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
        )
        plan = plan_placement(slc, requirements, offers, infra)
        if expected is None:
            assert not plan.feasible, f"instance {index}: oracle says infeasible"
            continue
        feasible += 1
        opt_latency, opt_assignment = expected
        assert plan.feasible, f"instance {index}: oracle found {opt_assignment}"
        assert plan.e2e_latency == opt_latency, f"instance {index}"
        assert {a.service: a.tenant for a in plan.assignments} == opt_assignment

        # With no exact budget every instance goes to the greedy solver.
        with monkeypatch.context() as patch:
            patch.setattr("slicectl.placement.EXHAUSTIVE_MAX_PAIRS", 0)
            greedy = plan_placement(slc, requirements, offers, infra)
        if greedy.feasible:
            ok, violations = verify_plan(
                greedy, requirements, offers, infra, slice=slc
            )
            assert ok, f"instance {index}: greedy plan rejected {violations}"
            assert greedy.e2e_latency >= opt_latency
    # The generator must exercise both outcomes for the sweep to mean much.
    assert 0 < feasible < 200


def test_duplicate_tenant_plan_rejected(tmp_path):
    """A plan document that maps one service to two tenants never verifies,
    whether save_plan wrote it or it was written by hand."""
    engine, slice_id = scenario.chain3_engine()
    doc = {
        "slice": slice_id,
        "e2e_latency": 2.0,
        "assignments": [
            {"service": "svc-a", "tenant": "t1"},
            {"service": "svc-a", "tenant": "t2"},
            {"service": "svc-b", "tenant": "t2"},
            {"service": "svc-c", "tenant": "t3"},
        ],
    }
    requirements = engine.requirements_for(slice_id)
    offers = offered_capabilities(engine.infra)
    slc = engine.catalog.slices[slice_id]

    saved = tmp_path / "saved.yaml"
    save_plan(
        PlacementPlan(
            slice_id,
            tuple(Assignment(**entry) for entry in doc["assignments"]),
            doc["e2e_latency"],
            True,
        ),
        saved,
    )
    plan = load_plan(saved)
    ok, violations = verify_plan(
        plan, requirements, offers, engine.infra, slice=slc
    )
    assert not ok
    assert VIOLATION_DUPLICATE in {v.code for v in violations}

    path = tmp_path / "plan.yaml"
    path.write_text(yaml.safe_dump(doc))
    ok, violations = verify_plan(
        load_plan(path), requirements, offers, engine.infra, slice=slc
    )
    assert not ok
    assert VIOLATION_DUPLICATE in {v.code for v in violations}

    with pytest.raises(PlanInvalid, match=VIOLATION_DUPLICATE):
        engine.instantiate_slice(Role.OPERATOR, slice_id, plan)
    assert engine.catalog.records[slice_id].state.value == "ready"


def usage_of(infra) -> dict:
    return {t.id: t.used.as_tuple() for t in infra.tenants.values()}


def test_fault_injection_restores_usage():
    """Failing the k-th member instantiation, for every k, leaves per-tenant
    usage exactly equal to the pre-call vectors; a clean instantiate followed
    by teardown returns exactly to the pre-instantiation vectors."""
    probe_engine, slice_id = scenario.chain3_engine()
    plan = probe_engine.plan_slice(slice_id)
    assert [a.tenant for a in plan.assignments] == ["t1", "t2", "t3"]

    for assignment in plan.assignments:
        engine, _ = scenario.chain3_engine()
        tenant = engine.infra.tenants[assignment.tenant]
        demand = next(
            r.demand
            for r in engine.requirements_for(slice_id)
            if r.service == assignment.service
        )
        blocker = ResourceDemand(vcpu=tenant.free.vcpu - demand.vcpu + 1)
        engine.infra.allocate(tenant.id, "blocker", blocker)

        before = usage_of(engine.infra)
        with pytest.raises(PartialFailure) as failure:
            engine.instantiate_slice(Role.OPERATOR, slice_id, plan)
        assert failure.value.service_id == assignment.service
        assert usage_of(engine.infra) == before
        assert oracles.recompute_used(engine.infra) == before
        assert engine.catalog.records[slice_id].state.value == "ready"
        for member in engine.catalog.slices[slice_id].services:
            assert engine.catalog.records[member].state.value == "distributed"

    engine, _ = scenario.chain3_engine()
    baseline = usage_of(engine.infra)
    engine.instantiate_slice(Role.OPERATOR, slice_id, engine.plan_slice(slice_id))
    assert usage_of(engine.infra) != baseline
    engine.teardown_slice(Role.OPERATOR, slice_id)
    assert usage_of(engine.infra) == baseline


FUZZ_ROLES = tuple(Role)
FUZZ_ADVANCE = ("test", "approve", "distribute")
FUZZ_PROFILE = ServiceProfile(
    end_to_end_latency=10.0, guaranteed_data_rate=1.0, service_availability=0.9
)
FUZZ_REQUIREMENT = ServiceRequirement(
    latency_budget=2.0,
    reliability=0.99,
    data_rate=10.0,
    demand=ResourceDemand(1, 512, 4, 1),
)


def _storm(rng: random.Random, text: str) -> None:
    engine = Orchestrator(build_testbed(), catalog=Catalog())
    scenario.register_vsp(engine)
    engine.register_customer(Customer(id="c-lab", name="Lab"))
    engine.register_provider(
        SliceProvider(id="p-lab", name="Lab", administrative_domains={"core"})
    )
    scenario.assert_live_is_the_fold(engine)
    vfs: list[str] = []
    services: list[str] = []
    slices: list[str] = []

    def role(want: Role) -> Role:
        # Half the calls carry the proper role so deep states stay reachable;
        # the rest probe the gates with arbitrary roles.
        if rng.random() < 0.5:
            return want
        return rng.choice(FUZZ_ROLES)

    def pick(pool: list[str], ghost: str) -> str:
        if pool and rng.random() < 0.9:
            return rng.choice(pool)
        return ghost

    def make_slice(members: tuple[str, ...]):
        slc = NetworkSlice(
            id=f"slice-fz{len(slices)}",
            name=f"fuzz {len(slices)}",
            customer="c-lab",
            provider="p-lab",
            services=members,
            profile=FUZZ_PROFILE,
        )
        template = make_slice_template(
            slc, {member: FUZZ_REQUIREMENT for member in members}
        )
        return slc, template

    # Scripted prefix to a random pipeline depth so every sequence starts in
    # a different legal region of the state space.
    depth = rng.randint(0, 8)
    if depth >= 1:
        vfs.append(engine.onboard_vf(Role.DESIGNER, "vsp-lab", text).subject)
        scenario.assert_live_is_the_fold(engine)
    if depth >= 2:
        engine.certify_vf(Role.TESTER, vfs[0])
        scenario.assert_live_is_the_fold(engine)
    if depth >= 3:
        services.append(
            engine.create_service(Role.DESIGNER, "fz0", [vfs[0]]).subject
        )
        scenario.assert_live_is_the_fold(engine)
    for offset, (action, actor) in enumerate(
        (("test", Role.TESTER), ("approve", Role.GOVERNOR), ("distribute", Role.OPERATOR))
    ):
        if depth >= 4 + offset:
            engine.advance_service(actor, services[0], action)
            scenario.assert_live_is_the_fold(engine)
    if depth >= 7:
        slc, template = make_slice((services[0],))
        slices.append(engine.create_slice(Role.DESIGNER, slc, template).subject)
        scenario.assert_live_is_the_fold(engine)
    if depth >= 8:
        engine.instantiate_slice(
            Role.OPERATOR, slices[0], engine.plan_slice(slices[0])
        )
        scenario.assert_live_is_the_fold(engine)

    def op_onboard():
        vfs.append(
            engine.onboard_vf(role(Role.DESIGNER), "vsp-lab", text).subject
        )

    def op_certify():
        engine.certify_vf(role(Role.TESTER), pick(vfs, "vf-ghost"))

    def op_create_service():
        members = [pick(vfs, "vf-ghost")]
        services.append(
            engine.create_service(
                role(Role.DESIGNER), f"fz{len(services)}", members
            ).subject
        )

    def op_advance():
        action = rng.choice(FUZZ_ADVANCE)
        proper = {
            "test": Role.TESTER,
            "approve": Role.GOVERNOR,
            "distribute": Role.OPERATOR,
        }[action]
        engine.advance_service(role(proper), pick(services, "svc-ghost"), action)

    def op_create_slice():
        if services:
            members = tuple(
                rng.sample(services, rng.randint(1, min(3, len(services))))
            )
        else:
            members = ("svc-ghost",)
        slc, template = make_slice(members)
        slices.append(
            engine.create_slice(role(Role.DESIGNER), slc, template).subject
        )

    def op_run_slice():
        target = pick(slices, "slice-ghost")
        plan = engine.plan_slice(target)
        engine.instantiate_slice(role(Role.OPERATOR), target, plan)

    def op_teardown():
        engine.teardown_slice(role(Role.OPERATOR), pick(slices, "slice-ghost"))

    ops = (
        op_onboard,
        op_certify,
        op_certify,
        op_create_service,
        op_advance,
        op_advance,
        op_create_slice,
        op_run_slice,
        op_teardown,
    )
    for _ in range(rng.randint(5, 10)):
        try:
            rng.choice(ops)()
        except SliceError:
            pass  # rejected operations are legal outcomes, audited as such
        scenario.assert_live_is_the_fold(engine)

    events = engine.events
    assert [e.sequence_no for e in events] == list(range(1, len(events) + 1))
    assert all(b.timestamp > a.timestamp for a, b in zip(events, events[1:]))
    live = {
        subject: (record.kind.value, record.state.value)
        for subject, record in engine.catalog.records.items()
    }
    assert oracles.fold_audit(events) == live
    assert oracles.fold_history(events) == {
        subject: record.history
        for subject, record in engine.catalog.records.items()
    }
    assert replay_states(events) == engine.catalog.records
    assert oracles.recompute_used(engine.infra) == usage_of(engine.infra)


def test_random_operations_keep_invariants():
    """10000 random operation storms: the audit sequence stays gap-free,
    replays to the live records exactly, and usage stays conserved; after
    every step, registrations included, the live catalog's entities and
    records are the fold of the log."""
    text = scenario.minimal_template()
    for index in range(10_000):
        _storm(random.Random(97_000 + index), text)


def chain_oracle(entries: list[tuple[str, str, str]]) -> tuple[Fraction, ...]:
    return oracles.compose_sla_exact(entries, chain=True)


def _sla(entry: tuple[float, float, float]) -> Sla:
    latency, availability, rate = entry
    return Sla(
        committed_latency=latency,
        committed_availability=availability,
        committed_data_rate=rate,
    )


def _compose(entries: list[tuple[float, float, float]], chain: bool) -> Sla:
    members = tuple(f"svc-{i}" for i in range(len(entries)))
    slc = NetworkSlice(
        id="slice-x",
        name="x",
        customer="c",
        provider="p",
        services=members,
        profile=ServiceProfile(
            end_to_end_latency=1e9,
            guaranteed_data_rate=1e-9,
            service_availability=1e-9,
        ),
        chain_order=chain,
    )
    return aggregate_sla(
        slc, {m: _sla(entry) for m, entry in zip(members, entries)}
    )


def test_sla_composition_properties():
    """Chain composition is sum/product/min with singleton identity and
    monotone growth; the worked two-service chain lands on exact values."""
    worked = chain_oracle([("3", "0.99", "100"), ("2", "0.999", "50")])
    assert worked == (Fraction(5), Fraction("0.98901"), Fraction(50))
    composed = _compose([(3.0, 0.99, 100.0), (2.0, 0.999, 50.0)], chain=True)
    assert composed.committed_latency == 5.0
    assert composed.committed_availability == 0.98901
    assert composed.committed_data_rate == 50.0

    rng = random.Random(4801)
    for _ in range(300):
        count = rng.randint(1, 5)
        entries = [
            (
                round(rng.uniform(0.1, 40.0), 3),
                round(rng.uniform(0.5, 0.9999), 4),
                round(rng.uniform(0.5, 900.0), 3),
            )
            for _ in range(count)
        ]
        exact = chain_oracle([tuple(str(v) for v in e) for e in entries])
        composed = _compose(entries, chain=True)
        # Float sums and products may differ from rational arithmetic only
        # by accumulated rounding.
        assert math.isclose(
            composed.committed_latency, float(exact[0]), rel_tol=1e-12
        )
        assert math.isclose(
            composed.committed_availability, float(exact[1]), rel_tol=1e-12
        )
        assert composed.committed_data_rate == float(exact[2])

        single = _compose(entries[:1], chain=True)
        assert (
            single.committed_latency,
            single.committed_availability,
            single.committed_data_rate,
        ) == entries[0]

        grown = _compose(entries + [(1.0, 0.9, 100.0)], chain=True)
        assert grown.committed_latency >= composed.committed_latency
        assert grown.committed_availability <= composed.committed_availability
        assert grown.committed_data_rate <= composed.committed_data_rate


def test_catalog_round_trip_and_interrupted_save(tmp_path, monkeypatch):
    """Catalog and inventory, reopened on the audit log, reload equal on the
    activated demo state, and a crash before the atomic rename leaves the
    previous files as they were."""
    engine = scenario.slice_a_engine()
    engine.instantiate_slice(
        Role.OPERATOR, "slice-a", engine.plan_slice("slice-a")
    )
    catalog_path = tmp_path / "catalog.json"
    inventory_path = tmp_path / "inventory.yaml"
    save_catalog(engine.catalog, catalog_path)
    save_inventory(engine.infra, inventory_path)
    reopened = Orchestrator(
        load_inventory(inventory_path),
        catalog=load_catalog(catalog_path),
        log=list(engine.events),
    )
    assert reopened.catalog == engine.catalog
    assert reopened.infra == engine.infra
    assert reopened.infra.tenants["tenant-cp"].used.vcpu > 0
    saved = catalog_path.read_bytes(), inventory_path.read_bytes()

    import os as real_os

    real_replace = real_os.replace

    def crash(src, dst, *args, **kwargs):
        if str(dst).startswith(str(tmp_path)):
            raise OSError("simulated crash before rename")
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr("slicectl.store.os.replace", crash)
    engine.teardown_slice(Role.OPERATOR, "slice-a")
    with pytest.raises(IoFailure, match="cannot write"):
        save_catalog(engine.catalog, catalog_path)
    with pytest.raises(IoFailure, match="cannot write"):
        save_inventory(engine.infra, inventory_path)
    monkeypatch.undo()

    assert (catalog_path.read_bytes(), inventory_path.read_bytes()) == saved
    load_catalog(catalog_path)
    assert load_inventory(inventory_path) == build_testbed()
