"""Role-gated design-time workflow and slice execution."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import pytest

import oracles
import scenario
from slicectl.errors import (
    DuplicateEntry,
    EmptyService,
    InvalidTransition,
    MissingSizing,
    PartialFailure,
    PlanInvalid,
    RoleDenied,
    TemplateRejected,
    UncertifiedVf,
    UnknownEntity,
    UnknownService,
)
from slicectl.infra import build_testbed
from slicectl.lifecycle import (
    ArtifactKind,
    Catalog,
    Orchestrator,
    Outcome,
    PERMISSIONS,
    Role,
    ServiceState,
    SliceState,
    VfState,
)
from slicectl.model import (
    Customer,
    FunctionKind,
    IsolationLevel,
    NetworkFunction,
    NetworkService,
    ResourceDemand,
    SliceProvider,
    SliceTemplate,
    VendorSoftwareProduct,
)
from slicectl.placement import (
    VIOLATION_ISOLATION,
    Assignment,
    PlacementPlan,
    offered_capabilities,
    verify_plan,
)
from slicectl.store import replay_states
from slicectl.template import KIND_COMPUTE, parse_template


def states_of(engine: Orchestrator) -> dict[str, tuple[str, str]]:
    return {
        subject: (record.kind.value, record.state.value)
        for subject, record in engine.catalog.records.items()
    }


def isolated_slice_engine(isolation: IsolationLevel) -> Orchestrator:
    """slice-a ready, and its two services again in slice-iso, ready under
    this isolation."""
    engine = scenario.slice_a_engine()
    slc = engine.catalog.slices["slice-a"]
    engine.create_slice(
        Role.DESIGNER,
        replace(
            slc,
            id="slice-iso",
            sla=None,
            profile=replace(slc.profile, degree_of_isolation=isolation),
        ),
        engine.catalog.slice_templates["slice-a"],
    )
    return engine


class TestAuditPlumbing:
    def test_sequence_is_gap_free_and_timestamps_increase(self):
        engine = scenario.slice_a_engine()
        plan = engine.plan_slice("slice-a")
        engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
        numbers = [e.sequence_no for e in engine.events]
        assert numbers == list(range(1, len(numbers) + 1))
        stamps = [e.timestamp for e in engine.events]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
        assert all(e.outcome is Outcome.OK for e in engine.events)
        assert len(engine.events) == 17

    def test_frozen_clock_still_yields_strict_order(self):
        engine = Orchestrator(clock=lambda: 100.0)
        scenario.register_vsp(engine)
        engine.onboard_vf(Role.DESIGNER, "vsp-lab", scenario.minimal_template())
        engine.certify_vf(Role.TESTER, "vf-probe")
        first, second = engine.events
        assert first.timestamp == 100.0
        assert second.timestamp == math.nextafter(100.0, math.inf)

    def test_engine_continues_the_log_it_is_opened_on(self):
        log = scenario.slice_a_engine().events[:6]
        last = log[-1]
        # A clock that stepped back behind the log's last instant.
        engine = Orchestrator(log=log, clock=lambda: last.timestamp - 60.0)
        scenario.register_vsp(engine)
        engine.onboard_vf("designer", "vsp-lab", scenario.minimal_template())
        assert engine.events is log
        assert len(log) == 7
        event = log[-1]
        assert event.sequence_no == 7
        assert event.timestamp == math.nextafter(last.timestamp, math.inf)
        assert event.actor is Role.DESIGNER

    @pytest.mark.parametrize("split", [0, 1, 10, 14])
    def test_engine_continues_after_a_folded_prefix(self, split):
        """An engine opened with after=event on a catalog and an inventory
        that hold the fold of a log through event, and on the events after
        it, holds what an engine opened on the whole log holds, and numbers
        and stamps its next event as that one does, even with no event after
        it; with after=None, the catalog holds no fold yet."""
        log = scenario.slice_a_engine().events
        assert len(log) == 14
        stepped_back = lambda: log[-1].timestamp - 60.0  # noqa: E731
        whole = Orchestrator(build_testbed(), log=list(log), clock=stepped_back)
        catalog, infra = Catalog(), build_testbed()
        replay_states(log[:split], infra, catalog)
        after = log[split - 1] if split else None
        resumed = Orchestrator(
            infra, catalog=catalog, log=log[split:], after=after, clock=stepped_back
        )
        assert resumed.events == log[split:]
        for field in ("functions", "services", "slices", "records", "vsps"):
            assert getattr(resumed.catalog, field) == getattr(whole.catalog, field)
        assert resumed.infra == whole.infra
        for engine in (whole, resumed):
            scenario.register_vsp(engine)
            engine.onboard_vf(Role.DESIGNER, "vsp-lab", scenario.minimal_template())
        assert resumed.events[-1] == whole.events[-1]
        assert whole.events[-1].sequence_no == 15
        assert whole.events[-1].timestamp == math.nextafter(log[-1].timestamp, math.inf)

    def test_empty_log_starts_at_one_after_instant_zero(self):
        engine = Orchestrator(clock=lambda: 0.0)
        scenario.register_vsp(engine)
        engine.onboard_vf(Role.DESIGNER, "vsp-lab", scenario.minimal_template())
        [event] = engine.events
        assert event.sequence_no == 1
        assert event.timestamp > 0.0

    def test_events_reach_the_sink_before_the_caller(self):
        seen = []
        engine = Orchestrator(audit_sink=seen.append)
        scenario.register_vsp(engine)
        engine.onboard_vf(Role.DESIGNER, "vsp-lab", scenario.minimal_template())
        assert seen == engine.events

    def test_failing_sink_blocks_the_operation(self):
        class Down(Exception):
            pass

        def sink(event):
            raise Down()

        engine = Orchestrator(audit_sink=sink)
        scenario.register_vsp(engine)
        with pytest.raises(Down):
            engine.onboard_vf(Role.DESIGNER, "vsp-lab", scenario.minimal_template())
        # Nothing committed: no record, no event, sequence unspent.
        assert not engine.catalog.records
        assert not engine.events
        engine._sink = None
        record = engine.onboard_vf(
            Role.DESIGNER, "vsp-lab", scenario.minimal_template()
        )
        assert record.history == [1]

    def test_audit_fold_matches_live_records(self):
        engine = scenario.slice_a_engine()
        plan = engine.plan_slice("slice-a")
        engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
        engine.teardown_slice(Role.OPERATOR, "slice-a")
        assert oracles.fold_audit(engine.events) == states_of(engine)
        assert oracles.fold_history(engine.events) == {
            subject: record.history
            for subject, record in engine.catalog.records.items()
        }


class TestRoleGates:
    def test_every_action_denies_wrong_roles(self):
        engine = scenario.slice_a_engine()
        slc = engine.catalog.slices["slice-a"]
        template = engine.catalog.slice_templates["slice-a"]
        empty_plan = PlacementPlan("slice-a", (), 0.0, False)
        attempts = {
            "onboard_vf": lambda: engine.onboard_vf(
                Role.OPERATOR, "vsp-core-cp", "name: x\n"
            ),
            "certify_vf": lambda: engine.certify_vf(Role.DESIGNER, "vf-core-cp"),
            "create_service": lambda: engine.create_service(
                Role.TESTER, "X", ["vf-core-cp"]
            ),
            "test_service": lambda: engine.advance_service(
                Role.DESIGNER, "svc-core-cp", "test"
            ),
            "approve_service": lambda: engine.advance_service(
                Role.TESTER, "svc-core-cp", "approve"
            ),
            "distribute_service": lambda: engine.advance_service(
                Role.GOVERNOR, "svc-core-cp", "distribute"
            ),
            "create_slice": lambda: engine.create_slice(
                Role.OPERATOR, slc, template
            ),
            "instantiate_slice": lambda: engine.instantiate_slice(
                Role.GOVERNOR, "slice-a", empty_plan
            ),
            "teardown_slice": lambda: engine.teardown_slice(
                Role.DESIGNER, "slice-a"
            ),
        }
        assert set(attempts) == set(PERMISSIONS)
        before = states_of(engine)
        for action, attempt in attempts.items():
            with pytest.raises(RoleDenied, match=action):
                attempt()
            denied = engine.events[-1]
            assert denied.outcome is Outcome.DENIED
            assert denied.action == action
        assert states_of(engine) == before

    def test_superuser_bypasses_all_gates(self):
        engine = Orchestrator(build_testbed())
        scenario.register_vsp(engine)
        engine.onboard_vf(Role.SUPERUSER, "vsp-lab", scenario.minimal_template())
        record = engine.certify_vf(Role.SUPERUSER, "vf-probe")
        assert record.state is VfState.CERTIFIED


class TestVfOnboarding:
    def setup_method(self):
        self.engine = Orchestrator(build_testbed())
        scenario.register_vsp(self.engine)

    def test_unknown_vsp_fails_with_audit(self):
        with pytest.raises(UnknownEntity, match="vsp-ghost"):
            self.engine.onboard_vf(
                Role.DESIGNER, "vsp-ghost", scenario.minimal_template()
            )
        assert self.engine.events[-1].outcome is Outcome.FAILED

    def test_duplicate_vsp_triple_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            self.engine.register_vsp(
                VendorSoftwareProduct(
                    id="vsp-other",
                    vendor_name="LabVendor",
                    product_name="vsp-lab",
                    version=(1, 0, 0),
                )
            )

    def test_rejected_template_carries_the_report(self):
        bad = "name: probe\nresources:\n  node:\n    type: OS::Nova::Server\n"
        with pytest.raises(TemplateRejected) as info:
            self.engine.onboard_vf(Role.DESIGNER, "vsp-lab", bad)
        rules = {f.rule_id for f in info.value.report.findings}
        assert rules == {"required-metadata"}
        assert self.engine.events[-1].outcome is Outcome.FAILED
        assert "vf-probe" not in self.engine.catalog.records

    def test_fractional_sizing_fails_with_audit(self):
        with pytest.raises(MissingSizing, match="vcpu"):
            self.engine.onboard_vf(
                Role.DESIGNER, "vsp-lab", scenario.minimal_template(vcpu=0.5)
            )
        assert self.engine.events[-1].outcome is Outcome.FAILED
        assert "vf-probe" not in self.engine.catalog.records

    def test_computeless_template_rejected(self):
        bad = "name: probe\nresources:\n  net:\n    type: OS::Neutron::Net\n"
        with pytest.raises(TemplateRejected) as info:
            self.engine.onboard_vf(Role.DESIGNER, "vsp-lab", bad)
        assert any(
            f.rule_id == "vf-structure" for f in info.value.report.findings
        )

    def test_onboarding_freezes_template_and_reads_its_computes(self):
        """A VF is the digest of its template: its components are the
        blob's compute resources, and its footprint is read from the blob."""
        text = scenario.fixture_text("core_cp.yaml")
        record = self.engine.onboard_vf(Role.DESIGNER, "vsp-lab", text)
        assert record.subject == "vf-core-cp"
        assert record.state is VfState.DRAFT
        function = self.engine.catalog.functions["vf-core-cp"]
        assert function == NetworkFunction(
            id="vf-core-cp",
            kind=FunctionKind.VIRTUAL,
            template_ref=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        )
        blob = self.engine.catalog.template_blobs[function.template_ref]
        assert blob == text
        computes = {
            r.name: r.properties
            for r in parse_template(blob).resources_of_kind(KIND_COMPUTE)
        }
        assert sorted(computes) == ["aaa", "dhcp", "hss", "mme"]
        mme = computes["mme"]
        assert (mme["vcpu"], mme["ram"], mme["storage"]) == (2, 4096, 10)
        assert mme["ports"] == [
            {"get_resource": "mme_management_port"},
            {"get_resource": "mme_lte_ctl_port"},
        ]
        # The event names the VF's VSP, and carries the VSP itself, since no
        # event has before.
        onboarded = self.engine.events[-1]
        assert (onboarded.vsp, onboarded.new_vsp.id) == ("vsp-lab", "vsp-lab")
        assert onboarded.new_vsp == self.engine.catalog.vsps["vsp-lab"]
        # An engine opened on the catalog has no footprint cached: it
        # parses the blob.
        self.engine.certify_vf(Role.TESTER, "vf-core-cp")
        sid = self.engine.create_service(Role.DESIGNER, "CP", ["vf-core-cp"]).subject
        reopened = Orchestrator(catalog=self.engine.catalog, log=self.engine.events)
        assert reopened.footprint_of_service(sid).as_tuple() == (5, 8192, 40, 8)

    def test_same_template_name_gets_fresh_ids(self):
        first = self.engine.onboard_vf(
            Role.DESIGNER, "vsp-lab", scenario.minimal_template()
        )
        second = self.engine.onboard_vf(
            Role.DESIGNER, "vsp-lab", scenario.minimal_template(vcpu=2)
        )
        assert (first.subject, second.subject) == ("vf-probe", "vf-probe-2")

    def test_certify_requires_draft(self):
        self.engine.onboard_vf(Role.DESIGNER, "vsp-lab", scenario.minimal_template())
        self.engine.certify_vf(Role.TESTER, "vf-probe")
        with pytest.raises(InvalidTransition, match="certified"):
            self.engine.certify_vf(Role.TESTER, "vf-probe")
        assert self.engine.events[-1].outcome is Outcome.FAILED


def _vsp(vsp_id: str = "v", vendor: str = "A") -> VendorSoftwareProduct:
    return VendorSoftwareProduct(vsp_id, vendor, "p", (1, 0, 0))


class TestRegistration:
    """A registered VSP, customer or provider is held by the engine, apart
    from the catalog, until the first ok event that needs it carries it;
    the catalog stays the fold of the log at every step."""

    def test_reregistration_changes_neither_the_catalog_nor_the_fold(self):
        engine = Orchestrator(build_testbed())
        engine.register_vsp(_vsp(vendor="A"))
        scenario.assert_live_is_the_fold(engine)
        assert engine.catalog.vsps == {}
        engine.onboard_vf(Role.DESIGNER, "v", scenario.minimal_template())
        with pytest.raises(DuplicateEntry, match="differs from the registered"):
            engine.register_vsp(_vsp(vendor="B"))
        engine.register_customer(Customer(id="c", name="C"))
        scenario.assert_live_is_the_fold(engine)
        assert engine.catalog.vsps["v"].vendor_name == "A"
        assert engine.catalog.customers == {}

    def test_held_entity_refuses_other_fields_under_its_id(self):
        engine = Orchestrator(build_testbed())
        engine.register_vsp(_vsp(vendor="A"))
        engine.register_vsp(_vsp(vendor="A"))  # the same again is accepted
        with pytest.raises(DuplicateEntry, match="differs from the registered"):
            engine.register_vsp(_vsp(vendor="B"))
        with pytest.raises(DuplicateEntry, match="already registered"):
            engine.register_vsp(_vsp("w", vendor="A"))
        engine.register_customer(Customer(id="c", name="C"))
        with pytest.raises(ValueError, match="differs from the registered"):
            engine.register_customer(Customer(id="c", name="Renamed"))
        provider = SliceProvider(id="p", name="P", administrative_domains={"core"})
        engine.register_provider(provider)
        with pytest.raises(ValueError, match="differs from the registered"):
            engine.register_provider(replace(provider, administrative_domains={"x"}))
        assert engine.events == []
        scenario.assert_live_is_the_fold(engine)

    def test_only_the_first_event_that_needs_an_entity_carries_it(self):
        engine = scenario.slice_a_engine()
        onboards = [e for e in engine.events if e.action == "onboard_vf"]
        assert [e.new_vsp.id for e in onboards] == ["vsp-core-cp", "vsp-core-dp"]
        # The scenario registers slice-a's provider, and not its customer.
        (created,) = [e for e in engine.events if e.action == "create_slice"]
        assert (created.customer, created.provider.id) == (None, "p-greyop")
        scenario.assert_live_is_the_fold(engine)

        engine.onboard_vf(Role.DESIGNER, "vsp-core-cp", scenario.minimal_template())
        assert engine.events[-1].new_vsp is None
        slc = replace(engine.catalog.slices["slice-a"], id="slice-b", sla=None)
        template = engine.catalog.slice_templates["slice-a"]
        engine.create_slice(Role.DESIGNER, slc, template)
        created = [e for e in engine.events if e.action == "create_slice"][-1]
        assert (created.subject, created.customer, created.provider) == (
            "slice-b",
            None,
            None,
        )
        scenario.assert_live_is_the_fold(engine)

    def test_a_reopened_engine_registers_what_its_catalog_holds(self):
        """The VSP is in the reopened catalog, so registering it again is
        accepted, and its next onboard does not carry it. The engine is
        reopened on the log alone, so the blobs of the VFs it onboarded
        before are missing."""
        engine = scenario.slice_a_engine()
        reopened = Orchestrator(build_testbed(), log=list(engine.events))
        vsp = engine.catalog.vsps["vsp-core-dp"]
        reopened.register_vsp(vsp)
        with pytest.raises(DuplicateEntry):
            reopened.register_vsp(replace(vsp, version=(2, 0, 0)))
        reopened.onboard_vf(Role.DESIGNER, "vsp-core-dp", scenario.minimal_template())
        assert reopened.events[-1].new_vsp is None
        missing = [
            f"{vf}: no template blob {engine.catalog.functions[vf].template_ref[:12]}"
            for vf in ("vf-core-cp", "vf-core-dp")
        ]
        scenario.assert_live_is_the_fold(reopened, problems=missing)


class TestServiceWorkflow:
    def setup_method(self):
        self.engine = Orchestrator(build_testbed())
        scenario.register_vsp(self.engine)
        self.vf = scenario.onboard_certified(
            self.engine, "vsp-lab", scenario.minimal_template()
        )

    def test_create_needs_certified_functions(self):
        with pytest.raises(EmptyService):
            self.engine.create_service(Role.DESIGNER, "X", [])
        with pytest.raises(UnknownEntity, match="vf-ghost"):
            self.engine.create_service(Role.DESIGNER, "X", ["vf-ghost"])
        draft = self.engine.onboard_vf(
            Role.DESIGNER, "vsp-lab", scenario.minimal_template("fresh")
        )
        with pytest.raises(UncertifiedVf, match=draft.subject):
            self.engine.create_service(Role.DESIGNER, "X", [draft.subject])

    def test_service_ids_derive_from_names(self):
        record = self.engine.create_service(Role.DESIGNER, "Core CP", [self.vf])
        assert record.subject == "svc-core-cp"
        assert record.state is ServiceState.DESIGNED

    def test_explicit_duplicate_id_rejected(self):
        self.engine.create_service(Role.DESIGNER, "X", [self.vf], service_id="svc-x")
        with pytest.raises(InvalidTransition, match="already exists"):
            self.engine.create_service(
                Role.DESIGNER, "Y", [self.vf], service_id="svc-x"
            )

    def test_advance_follows_the_step_order(self):
        sid = self.engine.create_service(Role.DESIGNER, "X", [self.vf]).subject
        with pytest.raises(ValueError, match="unknown action"):
            self.engine.advance_service(Role.TESTER, sid, "polish")
        with pytest.raises(InvalidTransition, match="needs tested"):
            self.engine.advance_service(Role.GOVERNOR, sid, "approve")
        self.engine.advance_service(Role.TESTER, sid, "test")
        self.engine.advance_service(Role.GOVERNOR, sid, "approve")
        record = self.engine.advance_service(Role.OPERATOR, sid, "distribute")
        assert record.state is ServiceState.DISTRIBUTED


class TestSliceWorkflow:
    def test_a_template_is_filed_under_the_slice_it_comes_with(self):
        """A template names no slice: create_slice files it under its slice,
        and one without an entry for a member fails, logged."""
        engine = scenario.slice_a_engine()
        slc = engine.catalog.slices["slice-a"]
        template = engine.catalog.slice_templates["slice-a"]
        other = replace(slc, id="slice-b", name="B", sla=None)
        engine.create_slice(Role.DESIGNER, other, template)
        assert engine.catalog.slice_templates["slice-b"] == template
        assert engine.catalog.slices["slice-b"].sla == slc.sla
        entry = template.per_service_requirements["svc-core-cp"]
        partial = SliceTemplate({"svc-core-cp": entry})
        with pytest.raises(UnknownService, match="'svc-core-dp' has no entry"):
            engine.create_slice(Role.DESIGNER, replace(other, id="slice-c"), partial)
        assert engine.events[-1].outcome is Outcome.FAILED
        assert "slice-c" not in engine.catalog.slice_templates

    def test_members_must_be_catalog_services(self):
        engine = Orchestrator(build_testbed())
        slc = scenario.NetworkSlice(
            id="slice-x",
            name="X",
            customer="c",
            provider="p",
            services=("svc-ghost",),
            profile=scenario.ServiceProfile(
                end_to_end_latency=10.0,
                guaranteed_data_rate=1.0,
                service_availability=0.9,
            ),
        )
        template = scenario.make_slice_template(
            slc,
            {
                "svc-ghost": scenario.ServiceRequirement(
                    latency_budget=5.0, reliability=0.99, data_rate=10.0
                )
            },
        )
        with pytest.raises(UnknownService, match="svc-ghost"):
            engine.create_slice(Role.DESIGNER, slc, template)
        assert engine.events[-1].outcome is Outcome.FAILED

    def test_slice_carries_composed_sla(self):
        engine = scenario.slice_a_engine()
        sla = engine.catalog.slices["slice-a"].sla
        assert sla.committed_latency == 10.0
        assert sla.committed_availability == 0.9995 * 0.9995
        assert sla.committed_data_rate == 150.0

    def test_readiness_is_derived_from_member_distribution(self):
        engine = Orchestrator(build_testbed())
        scenario.register_vsp(engine)
        vf = scenario.onboard_certified(
            engine, "vsp-lab", scenario.minimal_template()
        )
        sid = engine.create_service(Role.DESIGNER, "X", [vf]).subject
        slc = scenario.NetworkSlice(
            id="slice-x",
            name="X",
            customer="c",
            provider="p",
            services=(sid,),
            profile=scenario.ServiceProfile(
                end_to_end_latency=10.0,
                guaranteed_data_rate=1.0,
                service_availability=0.9,
            ),
        )
        template = scenario.make_slice_template(
            slc,
            {
                sid: scenario.ServiceRequirement(
                    latency_budget=5.0, reliability=0.99, data_rate=10.0
                )
            },
        )
        record = engine.create_slice(Role.DESIGNER, slc, template)
        assert record.state is SliceState.DRAFTED
        engine.advance_service(Role.TESTER, sid, "test")
        engine.advance_service(Role.GOVERNOR, sid, "approve")
        engine.advance_service(Role.OPERATOR, sid, "distribute")
        assert record.state is SliceState.READY
        ready_events = [e for e in engine.events if e.action == "slice_ready"]
        assert len(ready_events) == 1
        assert ready_events[0].subject == "slice-x"

    def test_footprints_skip_physical_functions(self):
        engine = scenario.slice_a_engine()
        engine.catalog.functions["pnf-box"] = NetworkFunction(
            id="pnf-box", kind=FunctionKind.PHYSICAL
        )
        service = engine.catalog.services["svc-core-cp"]
        engine.catalog.services["svc-core-cp"] = NetworkService(
            id=service.id,
            name=service.name,
            functions=service.functions + ("pnf-box",),
        )
        footprint = engine.footprint_of_service("svc-core-cp")
        assert footprint.as_tuple() == (5, 8192, 40, 8)


class TestSliceExecution:
    def test_full_activation(self):
        engine = scenario.slice_a_engine()
        plan = engine.plan_slice("slice-a")
        assert plan.feasible
        assert plan.tenant_of("svc-core-cp") == "tenant-cp"
        assert plan.tenant_of("svc-core-dp") == "tenant-dp"
        assert plan.e2e_latency == 1.0
        record = engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
        assert record.state is SliceState.ACTIVE
        assert engine.catalog.records["svc-core-cp"].state is ServiceState.INSTANTIATED
        used = oracles.recompute_used(engine.infra)
        assert used["tenant-cp"] == (5, 8192, 40, 8)
        assert used["tenant-dp"] == (3, 5120, 30, 4)

    def test_plan_for_the_wrong_slice_is_rejected(self):
        engine = scenario.slice_a_engine()
        plan = engine.plan_slice("slice-a")
        foreign = PlacementPlan(
            "slice-z", plan.assignments, plan.e2e_latency, True
        )
        with pytest.raises(PlanInvalid, match="slice_mismatch"):
            engine.instantiate_slice(Role.OPERATOR, "slice-a", foreign)
        assert engine.events[-1].outcome is Outcome.FAILED
        assert engine.catalog.records["slice-a"].state is SliceState.READY

    def test_instantiate_needs_ready(self):
        engine = scenario.slice_a_engine()
        plan = engine.plan_slice("slice-a")
        engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
        with pytest.raises(InvalidTransition, match="needs ready"):
            engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)

    def test_instantiate_needs_distributed_members(self):
        # slice-iso shares both members with slice-a, so it stays ready
        # while slice-a instantiates them.
        engine = isolated_slice_engine(IsolationLevel.SHARED)
        plan = engine.plan_slice("slice-iso")
        engine.instantiate_slice(
            Role.OPERATOR, "slice-a", engine.plan_slice("slice-a")
        )
        before = engine.infra.usage_snapshot()
        with pytest.raises(InvalidTransition, match="not distributed"):
            engine.instantiate_slice(Role.OPERATOR, "slice-iso", plan)
        assert engine.events[-1].outcome is Outcome.FAILED
        assert engine.catalog.records["slice-iso"].state is SliceState.READY
        assert engine.infra.usage_snapshot() == before

    def test_atomic_failure_rolls_back(self):
        engine = scenario.slice_a_engine()
        plan = engine.plan_slice("slice-a")
        # Drift after planning: the data-plane tenant fills up.
        engine.infra.allocate("tenant-dp", "svc-squatter", ResourceDemand(vcpu=4))
        before = engine.infra.usage_snapshot()
        with pytest.raises(PartialFailure) as info:
            engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
        assert info.value.service_id == "svc-core-dp"
        assert engine.infra.usage_snapshot() == before
        assert engine.catalog.records["slice-a"].state is SliceState.READY
        failed = [e for e in engine.events if e.outcome is Outcome.FAILED]
        assert [e.action for e in failed] == [
            "instantiate_service",
            "instantiate_slice",
        ]

    def test_best_effort_keeps_the_successes(self):
        engine = scenario.slice_a_engine()
        plan = engine.plan_slice("slice-a")
        engine.infra.allocate("tenant-dp", "svc-squatter", ResourceDemand(vcpu=4))
        record = engine.instantiate_slice(
            Role.OPERATOR, "slice-a", plan, atomic=False
        )
        assert record.state is SliceState.PARTIALLY_INSTANTIATED
        assert (
            engine.catalog.records["svc-core-cp"].state
            is ServiceState.INSTANTIATED
        )
        assert (
            engine.catalog.records["svc-core-dp"].state
            is ServiceState.DISTRIBUTED
        )
        # Teardown from the partial state releases what was placed.
        engine.teardown_slice(Role.OPERATOR, "slice-a")
        assert engine.infra.tenants["tenant-cp"].used.as_tuple() == (0, 0, 0, 0)
        terminated = [
            e for e in engine.events if e.action == "terminate_service"
        ]
        assert [e.subject for e in terminated] == ["svc-core-cp"]

    @pytest.mark.parametrize("atomic", [True, False], ids=["atomic", "best-effort"])
    def test_dedicated_tenant_refuses_an_occupied_tenant(self, atomic):
        engine = isolated_slice_engine(IsolationLevel.DEDICATED_TENANT)
        plan = engine.plan_slice("slice-iso")
        assert plan.tenant_of("svc-core-dp") == "tenant-dp"
        # Drift after planning: a foreign service lands on the data-plane
        # tenant and leaves room enough for svc-core-dp, so only isolation
        # can refuse it.
        engine.infra.allocate("tenant-dp", "svc-squatter", ResourceDemand(vcpu=1))
        # The verifier refuses the member in the executor's words.
        _, violations = verify_plan(
            plan,
            engine.requirements_for("slice-iso"),
            offered_capabilities(engine.infra),
            engine.infra,
            slice=engine.catalog.slices["slice-iso"],
        )
        refusals = [v.message for v in violations if v.code == VIOLATION_ISOLATION]
        assert refusals == ["tenant 'tenant-dp' already hosts another service"]
        if atomic:
            with pytest.raises(PartialFailure) as info:
                engine.instantiate_slice(Role.OPERATOR, "slice-iso", plan)
            assert info.value.service_id == "svc-core-dp"
            assert info.value.reason == refusals[0]
            held = {a.service for a in engine.infra.allocations.values()}
            assert held == {"svc-squatter"}
            failed = [
                (e.action, e.subject)
                for e in engine.events
                if e.outcome is Outcome.FAILED
            ]
            assert failed == [
                ("instantiate_service", "svc-core-dp"),
                ("instantiate_slice", "slice-iso"),
            ]
            assert engine.catalog.records["slice-iso"].state is SliceState.READY
        else:
            record = engine.instantiate_slice(
                Role.OPERATOR, "slice-iso", plan, atomic=False
            )
            assert record.state is SliceState.PARTIALLY_INSTANTIATED
            states = states_of(engine)
            assert states["svc-core-cp"] == ("service", "instantiated")
            assert states["svc-core-dp"] == ("service", "distributed")

    @pytest.mark.parametrize("atomic", [True, False], ids=["atomic", "best-effort"])
    def test_members_on_one_tenant_are_counted_together(self, atomic):
        # Each member fits tenant-cp alone, the two together do not.
        engine = scenario.slice_a_engine()
        plan = PlacementPlan(
            "slice-a",
            (
                Assignment("svc-core-cp", "tenant-cp"),
                Assignment("svc-core-dp", "tenant-cp"),
            ),
            0.0,
            True,
        )
        if atomic:
            with pytest.raises(PartialFailure) as info:
                engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
            assert info.value.service_id == "svc-core-dp"
            assert not engine.infra.allocations
        else:
            record = engine.instantiate_slice(
                Role.OPERATOR, "slice-a", plan, atomic=False
            )
            assert record.state is SliceState.PARTIALLY_INSTANTIATED
            held = {a.service for a in engine.infra.allocations.values()}
            assert held == {"svc-core-cp"}
        assert oracles.recompute_used(engine.infra) == {
            t.id: t.used.as_tuple() for t in engine.infra.tenants.values()
        }

    def test_best_effort_with_every_member_refused_raises(self):
        engine = isolated_slice_engine(IsolationLevel.DEDICATED_TENANT)
        plan = engine.plan_slice("slice-iso")
        squatters = {"svc-squatter-cp": "tenant-cp", "svc-squatter-dp": "tenant-dp"}
        for service_id, tenant_id in squatters.items():
            engine.infra.allocate(tenant_id, service_id, ResourceDemand(vcpu=1))
        before = states_of(engine)
        with pytest.raises(PartialFailure) as info:
            engine.instantiate_slice(
                Role.OPERATOR, "slice-iso", plan, atomic=False
            )
        assert info.value.service_id == "svc-core-cp"
        assert info.value.reason == (
            "tenant 'tenant-cp' already hosts another service"
        )
        assert states_of(engine) == before
        assert engine.infra.allocations.keys() == squatters.keys()
        failed = [
            (e.action, e.subject)
            for e in engine.events
            if e.outcome is Outcome.FAILED
        ]
        assert failed == [
            ("instantiate_service", "svc-core-cp"),
            ("instantiate_service", "svc-core-dp"),
            ("instantiate_slice", "slice-iso"),
        ]

    def test_dedicated_host_refuses_a_shared_class_host(self):
        engine = isolated_slice_engine(IsolationLevel.DEDICATED_HOST)
        # Every testbed host is of the shared class, so the solver finds
        # nothing; a plan made elsewhere is refused when it is executed.
        assert not engine.plan_slice("slice-iso").feasible
        plan = PlacementPlan(
            "slice-iso",
            (
                Assignment("svc-core-cp", "tenant-cp"),
                Assignment("svc-core-dp", "tenant-dp"),
            ),
            1.0,
            True,
        )
        with pytest.raises(PartialFailure) as info:
            engine.instantiate_slice(Role.OPERATOR, "slice-iso", plan)
        assert info.value.service_id == "svc-core-cp"
        assert info.value.reason == "host 'host-cp' is not a dedicated-class host"
        assert not engine.infra.allocations

    def test_teardown_restores_capacity(self):
        engine = scenario.slice_a_engine()
        baseline = engine.infra.usage_snapshot()
        plan = engine.plan_slice("slice-a")
        engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
        record = engine.teardown_slice(Role.OPERATOR, "slice-a")
        assert record.state is SliceState.TERMINATED
        assert engine.infra.usage_snapshot() == baseline
        with pytest.raises(InvalidTransition, match="needs active"):
            engine.teardown_slice(Role.OPERATOR, "slice-a")

    def test_teardown_logs_before_it_releases_capacity(self):
        # The sink fails at the k-th teardown event, for every k: capacity
        # is held exactly by the members still recorded instantiated, and a
        # retry finishes the teardown.
        class Down(Exception):
            pass

        k = 0
        while True:
            k += 1
            engine = scenario.slice_a_engine()
            plan = engine.plan_slice("slice-a")
            engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
            calls = []

            def sink(event):
                calls.append(event)
                if len(calls) == k:
                    raise Down()

            engine._sink = sink
            try:
                engine.teardown_slice(Role.OPERATOR, "slice-a")
            except Down:
                pass
            else:
                break
            held = {a.service for a in engine.infra.allocations.values()}
            for service_id in engine.catalog.slices["slice-a"].services:
                state = engine.catalog.records[service_id].state
                assert (state is ServiceState.INSTANTIATED) == (service_id in held)
            assert replay_states(engine.events) == engine.catalog.records
            assert oracles.recompute_used(engine.infra) == {
                t.id: t.used.as_tuple() for t in engine.infra.tenants.values()
            }
            engine._sink = None
            record = engine.teardown_slice(Role.OPERATOR, "slice-a")
            assert record.state is SliceState.TERMINATED
            assert not engine.infra.allocations
        # terminate_service twice, then teardown_slice.
        assert k == 4

    def test_instantiate_logs_before_it_holds_capacity(self):
        # The sink fails at the k-th instantiation event, for every k:
        # capacity is held exactly by the members recorded instantiated,
        # and the slice can go on: a ready one is instantiated again, an
        # active one torn down with nothing left held.
        class Down(Exception):
            pass

        cuts = []
        k = 0
        while True:
            k += 1
            engine = scenario.slice_a_engine()
            plan = engine.plan_slice("slice-a")
            calls = []

            def sink(event):
                calls.append(event)
                if len(calls) == k:
                    raise Down()

            engine._sink = sink
            try:
                engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
            except Down:
                pass
            else:
                break
            held = {a.service for a in engine.infra.allocations.values()}
            for service_id in engine.catalog.slices["slice-a"].services:
                state = engine.catalog.records[service_id].state
                assert (state is ServiceState.INSTANTIATED) == (service_id in held)
            assert replay_states(engine.events) == engine.catalog.records
            assert oracles.recompute_used(engine.infra) == {
                t.id: t.used.as_tuple() for t in engine.infra.tenants.values()
            }
            state = engine.catalog.records["slice-a"].state
            cuts.append((state.value, len(engine.infra.allocations)))
            engine._sink = None
            if state is SliceState.READY:
                record = engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
                assert record.state is SliceState.ACTIVE
            else:
                record = engine.teardown_slice(Role.OPERATOR, "slice-a")
                assert record.state is SliceState.TERMINATED
                assert not engine.infra.allocations
                assert engine.infra.usage_snapshot() == {
                    t: ResourceDemand() for t in engine.infra.tenants
                }
        # instantiate_slice, then instantiate_service twice.
        assert cuts == [("ready", 0), ("active", 0), ("active", 1)]

    def test_unchained_slice_is_refused_by_planning(self):
        # Without chain order the SLA takes the slowest service, while the
        # solver would minimise the summed chain latency.
        engine = scenario.slice_a_engine()
        chained = engine.catalog.slices["slice-a"]
        side_by_side = replace(
            chained, id="slice-b", sla=None, chain_order=False
        )
        template = engine.catalog.slice_templates["slice-a"]
        engine.create_slice(Role.DESIGNER, side_by_side, template)
        with pytest.raises(PlanInvalid, match="chain order"):
            engine.plan_slice("slice-b")

    def test_operations_needing_infra_say_so(self):
        engine = Orchestrator()
        scenario.drive_slice_a(engine)
        with pytest.raises(UnknownEntity, match="infrastructure"):
            engine.plan_slice("slice-a")
        plan = PlacementPlan(
            "slice-a",
            (
                Assignment("svc-core-cp", "tenant-cp"),
                Assignment("svc-core-dp", "tenant-dp"),
            ),
            1.0,
            True,
        )
        logged = len(engine.events)
        with pytest.raises(UnknownEntity, match="infrastructure"):
            engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
        with pytest.raises(UnknownEntity, match="infrastructure"):
            engine.teardown_slice(Role.OPERATOR, "slice-a")
        assert [
            (e.action, e.subject, e.outcome) for e in engine.events[logged:]
        ] == [
            ("instantiate_slice", "slice-a", Outcome.FAILED),
            ("teardown_slice", "slice-a", Outcome.FAILED),
        ]
        assert engine.catalog.records["slice-a"].state is SliceState.READY
