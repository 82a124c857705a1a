"""Persistence: snapshots, audit log, replay."""

from __future__ import annotations

import builtins
import copy
import errno
import hashlib
import io
import json
import os
import re
import stat
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml

import scenario
from slicectl import store
from slicectl.errors import (
    InvalidTransition,
    IoFailure,
    LogDiverged,
    RoleDenied,
    SchemaMismatch,
    SequenceGap,
    SliceError,
)
from slicectl.infra import Allocation, Tenant, build_testbed
from slicectl.lifecycle import (
    AuditEvent,
    Catalog,
    Orchestrator,
    Outcome,
    Role,
    apply_event,
)
from slicectl.model import Customer, ResourceDemand, Sla, VendorSoftwareProduct
from slicectl.placement import Assignment, PlacementPlan
from slicectl.store import (
    FileAuditLog,
    InventoryDocument,
    PlanDocument,
    TemplateBlobs,
    checkpoint_fold,
    decode,
    encode,
    load_audit,
    load_catalog,
    load_checkpoint,
    load_inventory,
    load_plan,
    read_checkpoint,
    replay_states,
    save_catalog,
    save_checkpoint,
    save_inventory,
    save_plan,
)


# catalog.json, inventory.yaml and audit.log as `slicectl demo slice-a`
# wrote them before the generic codec replaced the per-type ones. That
# catalog.json is indented, as older builds wrote it, and stays the fixture
# every catalog load test reads; catalog.compact.json is the same version-1
# catalog as one line of compact JSON with sorted keys. Both hold the
# template blobs inline. v2/catalog.json and v2/blobs/ are the same catalog
# in version 2, each blob a file named by its SHA-256, and each VF's compute
# resources copied in as its components. v3/ is the same catalog in
# version 3, a VF its id, kind and template digest. Versions 1 to 3 hold the
# lifecycle records. v4/ is the same catalog in version 4, without records,
# which are the fold of the audit log. Every one of them lists the VFs under
# each VSP as its owned_resources, which this build drops unread, since each
# onboard_vf event names its VSP, and each slice's template and SLA repeat
# the slice's id and hold the template_refs and penalties that nothing ever
# set; v4/catalog.saved.json is the catalog as this build writes it, without
# those keys. Every event of audit.log and log-only/audit.log repeats its
# role as actor_id; audit.saved.log is audit.log as this build writes it,
# without that key. log-only/ is a lab without
# catalog.json, as `slicectl demo slice-a` wrote it when the log's events
# first carried their entities: each VSP in them still holds owned_resources.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_V1 = ("catalog.json", "catalog.compact.json")
# inventory.yaml stores each tenant's use as `used`, and slice-a's two
# allocations, each with an id, and the counter that minted the ids, as
# older builds did; this is the same inventory as this build writes it: the
# hosts, tenants and links alone.
SAVED_INVENTORY = "inventory.saved.yaml"
SAVED_CATALOG = "v4/catalog.saved.json"


def _requirement(raw: dict) -> dict:
    """svc-core-cp's requirement in slice-a's template, in a raw catalog."""
    template = raw["slice_templates"]["slice-a"]
    return template["per_service_requirements"]["svc-core-cp"]


def active_engine():
    engine = scenario.slice_a_engine()
    plan = engine.plan_slice("slice-a")
    engine.instantiate_slice(Role.OPERATOR, "slice-a", plan)
    return engine


def reopened_catalog(path, events) -> Catalog:
    """The catalog in path as an engine opens it on events."""
    return Orchestrator(catalog=load_catalog(path), log=events).catalog


def _entities(value):
    """Each dataclass instance in value's stored fields, value included."""
    if is_dataclass(value):
        yield value
        for f in fields(value):
            if f.init:
                yield from _entities(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _entities(item)
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            yield from _entities(item)


def event(seq: int, action: str = "certify_vf", subject: str = "vf-x") -> AuditEvent:
    return AuditEvent(
        sequence_no=seq,
        actor=Role.TESTER,
        action=action,
        subject=subject,
        timestamp=float(seq),
        outcome=Outcome.OK,
    )


class TestCatalogSnapshots:
    def test_round_trip_preserves_everything(self, tmp_path):
        engine = active_engine()
        path = tmp_path / "catalog.json"
        save_catalog(engine.catalog, path)
        assert reopened_catalog(path, engine.events) == engine.catalog

    def test_snapshot_is_plain_sorted_json(self, tmp_path):
        engine = scenario.slice_a_engine()
        path = tmp_path / "catalog.json"
        save_catalog(engine.catalog, path)
        raw = json.loads(path.read_text())
        assert raw["version"] == 4
        assert "template_blobs" not in raw and "records" not in raw
        for function in raw["functions"].values():
            assert set(function) == {"id", "kind", "template_ref"}
        refs = {f["template_ref"] for f in raw["functions"].values()}
        assert {p.name for p in (tmp_path / "blobs").iterdir()} == refs

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('{\n  "version": 1,\n  "oops"\n}\n')
        with pytest.raises(IoFailure, match=r"invalid JSON at line 4 column 1"):
            load_catalog(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot read"):
            load_catalog(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "read, name, reason",
        [
            (load_catalog, "absent.json", errno.ENOENT),
            (load_audit, "absent.log", errno.ENOENT),
            (store.fragment_bytes, "", errno.EISDIR),
        ],
        ids=["text", "bytes", "audit-tail"],
    )
    def test_a_read_error_names_its_path_once(self, tmp_path, read, name, reason):
        path = tmp_path / name
        with pytest.raises(IoFailure) as caught:
            read(path)
        assert str(caught.value) == f"cannot read {path}: {os.strerror(reason)}"

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(IoFailure, match="root"):
            load_catalog(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('{"version": 99}\n')
        with pytest.raises(SchemaMismatch, match="99"):
            load_catalog(path)

    @pytest.mark.parametrize("version", [True, 1.0, "3"])
    def test_version_must_be_a_whole_number(self, tmp_path, version):
        path = tmp_path / "catalog.json"
        raw = json.loads((GOLDEN / "catalog.json").read_text())
        raw["version"] = version
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaMismatch, match=re.escape(f"version {version!r}")):
            load_catalog(path)

    def test_tampered_template_blob_detected(self, tmp_path):
        """A version-1 file's inline blobs are all checked on load."""
        path = tmp_path / "catalog.json"
        raw = json.loads((GOLDEN / "catalog.json").read_text())
        digest = next(iter(raw["template_blobs"]))
        raw["template_blobs"][digest] += "# tampered\n"
        path.write_text(json.dumps(raw))
        with pytest.raises(IoFailure, match=f"blob {digest[:12]} .*content hash"):
            load_catalog(path)

    def test_tampered_blob_file_detected(self, tmp_path):
        """A blob file is checked each time it is read."""
        engine = scenario.slice_a_engine()
        path = tmp_path / "catalog.json"
        save_catalog(engine.catalog, path)
        digest = engine.catalog.functions["vf-core-cp"].template_ref
        with open(tmp_path / "blobs" / digest, "a", encoding="utf-8") as handle:
            handle.write("# tampered\n")
        loaded = load_catalog(path)
        assert digest in loaded.template_blobs
        for _ in range(2):
            with pytest.raises(IoFailure, match=f"blob {digest[:12]} .*content hash"):
                loaded.template_blobs[digest]

    def test_missing_blob_file_is_reported_when_read(self, tmp_path):
        engine = scenario.slice_a_engine()
        path = tmp_path / "catalog.json"
        save_catalog(engine.catalog, path)
        digest = engine.catalog.functions["vf-core-dp"].template_ref
        (tmp_path / "blobs" / digest).unlink()
        loaded = load_catalog(path)
        with pytest.raises(IoFailure, match=f"cannot read .*{digest}"):
            loaded.template_blobs.get(digest)

    def test_blob_that_is_not_utf8_is_refused(self, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(scenario.slice_a_engine().catalog, path)
        data = b"\xff\xfe not text\n"
        digest = hashlib.sha256(data).hexdigest()
        (tmp_path / "blobs" / digest).write_bytes(data)
        blobs = TemplateBlobs(tmp_path / "blobs", [digest])
        with pytest.raises(IoFailure, match="not UTF-8 text"):
            blobs[digest]

    def test_version_2_file_with_inline_blobs_is_refused(self, tmp_path):
        path = tmp_path / "catalog.json"
        raw = json.loads((GOLDEN / "catalog.json").read_text())
        raw["version"] = 2
        path.write_text(json.dumps(raw))
        with pytest.raises(IoFailure, match="Catalog has no field 'template_blobs'"):
            load_catalog(path)

    def test_version_1_inline_blobs_must_be_text(self, tmp_path):
        path = tmp_path / "catalog.json"
        raw = json.loads((GOLDEN / "catalog.json").read_text())
        digest = next(iter(raw["template_blobs"]))
        raw["template_blobs"][digest] = 7
        path.write_text(json.dumps(raw))
        with pytest.raises(
            IoFailure,
            match=re.escape(
                f"corrupt catalog: Catalog field template_blobs['{digest}']:"
                " must be text, got 7"
            ),
        ):
            load_catalog(path)

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda raw: raw["slices"]["slice-a"].pop("profile"), "profile"),
            (
                lambda raw: raw.update(customers=[]),
                "Catalog field customers: expected a mapping, got list",
            ),
            (
                lambda raw: raw["functions"].update({"vf-core-cp": ["vf-core-cp"]}),
                "Catalog field functions['vf-core-cp']: expected a mapping, got list",
            ),
            (
                lambda raw: raw["slices"]["slice-a"].update(profile=[10.0]),
                "NetworkSlice field profile: expected a mapping, got list",
            ),
            (
                lambda raw: raw["providers"]["p-greyop"].update(
                    administrative_domains="core"
                ),
                "expected a list, got str",
            ),
            (
                lambda raw: raw["slices"]["slice-a"].update(
                    chain_ordr=not raw["slices"]["slice-a"].pop("chain_order")
                ),
                "'chain_ordr'",
            ),
            (
                lambda raw: _requirement(raw)["demand"].update(vcpu=1.5),
                "Catalog field slice_templates['slice-a']: SliceTemplate field"
                " per_service_requirements['svc-core-cp']:"
                " ServiceRequirement field demand:"
                " ResourceDemand field vcpu must be a whole number, got 1.5",
            ),
            (
                lambda raw: raw["slices"]["slice-a"].update(profile="fast"),
                "Catalog field slices['slice-a']: NetworkSlice field profile:"
                " expected a mapping, got str",
            ),
            (
                lambda raw: raw["customers"].update({"c-companyx": None}),
                "Catalog field customers['c-companyx']: expected a mapping, got NoneType",
            ),
            (
                lambda raw: _requirement(raw).update(demand=[2, 4096, 20, 4]),
                "Catalog field slice_templates['slice-a']: SliceTemplate field"
                " per_service_requirements['svc-core-cp']:"
                " ServiceRequirement field demand: expected a mapping, got list",
            ),
            (
                lambda raw: raw["slices"]["slice-a"]["profile"].update(
                    degree_of_isolation="text"
                ),
                "Catalog field slices['slice-a']: NetworkSlice field profile:"
                " ServiceProfile field degree_of_isolation:"
                " 'text' is not a valid IsolationLevel",
            ),
            (
                lambda raw: raw["services"]["svc-core-cp"]["functions"].append(
                    {"id": "vf-core-dp"}
                ),
                "Catalog field services['svc-core-cp']:"
                " NetworkService field functions[1]:"
                " must be text, got {'id': 'vf-core-dp'}",
            ),
        ],
        ids=[
            "missing-field",
            "list-for-map",
            "list-for-entity",
            "list-for-nested-entity",
            "string-for-list",
            "misspelt-key",
            "fractional-demand",
            "string-for-nested-entity",
            "null-for-entity",
            "list-for-demand",
            "enum-value",
            "text-for-second-component",
        ],
    )
    def test_corrupt_entity_payload(self, tmp_path, damage, reason):
        engine = scenario.slice_a_engine()
        path = tmp_path / "catalog.json"
        save_catalog(engine.catalog, path)
        raw = json.loads(path.read_text())
        damage(raw)
        path.write_text(json.dumps(raw))
        with pytest.raises(IoFailure, match="corrupt catalog: .*" + re.escape(reason)):
            load_catalog(path)

    def test_interrupted_save_leaves_previous_file_readable(
        self, tmp_path, monkeypatch
    ):
        engine = scenario.slice_a_engine()
        path = tmp_path / "catalog.json"
        save_catalog(engine.catalog, path)
        first = load_catalog(path)

        real_replace = os.replace

        def crash(src, dst, *args, **kwargs):
            if str(dst).endswith("catalog.json"):
                raise OSError("simulated crash before rename")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr("slicectl.store.os.replace", crash)
        with pytest.raises(IoFailure, match="cannot write"):
            save_catalog(engine.catalog, path)
        monkeypatch.undo()
        assert load_catalog(path) == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs", "catalog.json"]
        assert {p.name for p in (tmp_path / "blobs").iterdir()} == set(
            first.template_blobs
        )

    def test_crash_after_the_blobs_leaves_an_unreferenced_blob(
        self, tmp_path, monkeypatch
    ):
        """A save that dies in the catalog write, after the new blob was
        written, leaves the previous catalog, which opens, and a blob it
        does not refer to; the next save finishes the job."""
        engine = scenario.slice_a_engine()
        path = tmp_path / "catalog.json"
        save_catalog(engine.catalog, path)
        before = path.read_bytes()
        vsp_id = scenario.register_vsp(engine)
        record = engine.onboard_vf(Role.DESIGNER, vsp_id, scenario.minimal_template())
        new = set(engine.catalog.template_blobs) - set(load_catalog(path).template_blobs)
        assert len(new) == 1

        real_write = store._write_file

        def crash(target, data):
            if target.name == "catalog.json":
                raise OSError("simulated crash in the catalog write")
            return real_write(target, data)

        monkeypatch.setattr(store, "_write_file", crash)
        with pytest.raises(IoFailure, match="cannot write"):
            save_catalog(engine.catalog, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert (tmp_path / "blobs" / new.pop()).exists()
        previous = load_catalog(path)
        assert set(previous.template_blobs) < set(engine.catalog.template_blobs)
        assert record.subject not in previous.functions
        assert all(previous.template_blobs[d] for d in previous.template_blobs)
        save_catalog(engine.catalog, path)
        assert reopened_catalog(path, engine.events) == engine.catalog

    def test_save_syncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        """fsync(2): the new directory entry needs its own fsync."""
        calls = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst, *args, **kwargs):
            calls.append("replace")
            return real_replace(src, dst, *args, **kwargs)

        def fsync(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            return real_fsync(fd)

        monkeypatch.setattr("slicectl.store.os.replace", replace)
        monkeypatch.setattr("slicectl.store.os.fsync", fsync)
        engine = scenario.slice_a_engine()
        save_catalog(engine.catalog, tmp_path / "catalog.json")
        # Two new blobs, blobs/ once, the new blobs/ entry, then the catalog.
        blobs = ["file", "replace"] * 2 + ["dir", "dir"]
        assert calls == blobs + ["file", "replace", "dir"]
        # A later save writes only the blob that is new, and syncs blobs/ once.
        calls.clear()
        engine.onboard_vf(
            Role.DESIGNER, scenario.register_vsp(engine), scenario.minimal_template()
        )
        save_catalog(engine.catalog, tmp_path / "catalog.json")
        assert calls == ["file", "replace", "dir", "file", "replace", "dir"]
        calls.clear()
        save_catalog(engine.catalog, tmp_path / "catalog.json")
        assert calls == ["file", "replace", "dir"]

    def test_save_opens_no_existing_blob_file(self, tmp_path, monkeypatch):
        """Blobs are written once: a save of a loaded catalog, with one new
        template, neither reads nor rewrites a blob file already there."""
        engine = scenario.slice_a_engine()
        path = tmp_path / "catalog.json"
        save_catalog(engine.catalog, path)
        reopened = Orchestrator(catalog=load_catalog(path), log=engine.events)
        catalog = reopened.catalog
        blobs = tmp_path / "blobs"
        existing = {p.name for p in blobs.iterdir()}
        vsp_id = scenario.register_vsp(reopened)
        reopened.onboard_vf(Role.DESIGNER, vsp_id, scenario.minimal_template())
        opened = []

        def counting(real):
            def open_(file, *args, **kwargs):
                target = Path(os.fsdecode(file)) if not isinstance(file, int) else None
                if target is not None and target.parent == blobs:
                    opened.append(target.name)
                return real(file, *args, **kwargs)

            return open_

        for owner, name in ((os, "open"), (io, "open"), (builtins, "open")):
            monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
        # The count sees a read of a blob file.
        catalog.template_blobs[next(iter(existing))]
        assert opened == [next(iter(existing))]
        opened.clear()
        save_catalog(catalog, path)
        monkeypatch.undo()
        assert not existing & set(opened)
        assert {p.name for p in blobs.iterdir()} == existing | set(
            catalog.template_blobs
        )
        assert reopened_catalog(path, reopened.events) == catalog


class TestInventorySnapshots:
    def test_round_trip_with_live_allocations(self, tmp_path):
        """The allocations are the audit log's fold: an inventory saved
        while services hold capacity stores the topology alone."""
        infra = build_testbed()
        infra.allocate("tenant-cp", "svc-x", ResourceDemand(2, 1024, 8, 2))
        infra.allocate("tenant-dp", "svc-y", ResourceDemand(1, 512, 4, 1))
        path = tmp_path / "inventory.yaml"
        save_inventory(infra, path)
        assert list(yaml.safe_load(path.read_text())) == ["hosts", "tenants", "links"]
        assert load_inventory(path) == build_testbed()

    def test_optional_field_encodes_through_its_type(self):
        """A field hinted X | None encodes a value through X's encoder, so
        a tuple of allocations is plain data that JSON and YAML can write
        and that decodes back; None is left out."""
        held = (Allocation("tenant-cp", "svc-x", ResourceDemand(2, 1024, 8, 2)),)
        raw = encode(InventoryDocument(allocations=held))
        assert raw["allocations"] == [
            {
                "tenant": "tenant-cp",
                "service": "svc-x",
                "demand": {"vcpu": 2, "ram": 1024, "storage": 8, "ports": 2},
            }
        ]
        assert yaml.safe_load(yaml.safe_dump(raw)) == json.loads(json.dumps(raw))
        assert decode(InventoryDocument, raw).allocations == held
        assert "allocations" not in encode(InventoryDocument())

    def test_stored_use_gives_way_to_the_allocations(self, tmp_path):
        """Older builds stored each tenant's use as `used`; whatever it says,
        the use is the sum of the tenant's allocations."""
        raw = yaml.safe_load((GOLDEN / "inventory.yaml").read_text())
        for entry in raw["tenants"]:
            entry["used"]["vcpu"] = 1
        path = tmp_path / "inventory.yaml"
        path.write_text(yaml.safe_dump(raw))
        infra = load_inventory(path)
        assert infra == load_inventory(GOLDEN / "inventory.yaml")
        assert infra.usage_snapshot() == {
            "tenant-cp": ResourceDemand(5, 8192, 40, 8),
            "tenant-dp": ResourceDemand(3, 5120, 30, 4),
            "tenant-orch": ResourceDemand(),
        }

    def test_golden_inventory_is_the_testbed_holding_its_allocations(self):
        infra = build_testbed()
        infra.allocate("tenant-cp", "svc-core-cp", ResourceDemand(5, 8192, 40, 8))
        infra.allocate("tenant-dp", "svc-core-dp", ResourceDemand(3, 5120, 30, 4))
        assert load_inventory(GOLDEN / "inventory.yaml") == infra
        assert load_inventory(GOLDEN / SAVED_INVENTORY) == build_testbed()

    def test_non_finite_link_latency_is_refused(self, tmp_path):
        path = tmp_path / "inventory.yaml"
        save_inventory(build_testbed(), path)
        text = path.read_text()
        assert text.count("latency: 1.0") == 2
        path.write_text(text.replace("latency: 1.0", "latency: .nan", 1))
        with pytest.raises(
            IoFailure,
            match=r"field links\[0\]: link latency must be a finite number > 0",
        ):
            load_inventory(path)

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda raw: raw["hosts"][0].pop("capacity"), "capacity"),
            (
                lambda raw: raw["hosts"].append(["host-x"]),
                "InventoryDocument field hosts[3]: expected a mapping, got list",
            ),
            (
                lambda raw: raw["tenants"][0].update(quota=[1, 2]),
                "Tenant field quota: expected a mapping, got list",
            ),
            (lambda raw: raw["hosts"][0].update(isolation="dedicated"), "'isolation'"),
            (lambda raw: raw.update(link=[]), "'link'"),
            (lambda raw: raw["tenants"][0]["quota"].update(vcpu=0.5), "0.5"),
            (lambda raw: raw["links"][0].update(latency=True), "latency"),
            (
                lambda raw: raw["hosts"][0].update(capacity="big"),
                "InventoryDocument field hosts[0]: Host field capacity:"
                " expected a mapping, got str",
            ),
            (
                lambda raw: raw["tenants"][0].update(quota=None),
                "Tenant field quota: expected a mapping, got NoneType",
            ),
            (
                lambda raw: raw["hosts"][1].update(isolation_class="text"),
                "InventoryDocument field hosts[1]: Host field isolation_class:"
                " 'text' is not a valid IsolationClass",
            ),
            (
                lambda raw: raw["tenants"].__setitem__(2, "x"),
                "InventoryDocument field tenants[2]: expected a mapping, got str",
            ),
            (
                lambda raw: raw["links"][1]["endpoints"].__setitem__(1, 5),
                "InventoryDocument field links[1]: PhysicalLink field endpoints[1]:"
                " must be text, got 5",
            ),
        ],
        ids=[
            "missing-field",
            "list-for-entity",
            "list-for-nested-entity",
            "misspelt-key",
            "misspelt-section",
            "fractional-quota",
            "boolean-link-latency",
            "string-for-nested-entity",
            "null-for-nested-entity",
            "enum-value",
            "text-for-third-tenant",
            "number-for-second-endpoint",
        ],
    )
    def test_corrupt_entity_payload(self, tmp_path, damage, reason):
        path = tmp_path / "inventory.yaml"
        save_inventory(build_testbed(), path)
        raw = yaml.safe_load(path.read_text())
        damage(raw)
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(IoFailure, match="corrupt inventory: .*" + re.escape(reason)):
            load_inventory(path)

    @pytest.mark.parametrize(
        "text, got",
        [("- hosts: []\n", "list"), ("", "NoneType"), ("inventory\n", "str")],
        ids=["list", "empty", "text"],
    )
    def test_root_must_be_a_mapping(self, tmp_path, text, got):
        path = tmp_path / "inventory.yaml"
        path.write_text(text)
        with pytest.raises(
            IoFailure, match=f"corrupt inventory: expected a mapping, got {got}$"
        ):
            load_inventory(path)

    @pytest.mark.parametrize(
        "ids, counter",
        [
            (("alloc-1", "alloc-2"), 1),
            (("alloc-01", "alloc-02"), 1),
            ((None, None), None),
        ],
        ids=["stale-counter", "unminted-ids", "no-ids"],
    )
    def test_allocation_ids_and_counter_are_dropped(
        self, tmp_path, ids, counter
    ):
        """An older build gave each stored allocation an id and stored the
        counter that minted them; whatever they say, each allocation is
        held under its service, and the next one allocates beside them."""
        raw = yaml.safe_load((GOLDEN / "inventory.yaml").read_text())
        for entry, allocation_id in zip(raw["allocations"], ids):
            if allocation_id is None:
                del entry["id"]
            else:
                entry["id"] = allocation_id
        raw.pop("next_allocation_id")
        if counter is not None:
            raw["next_allocation_id"] = counter
        path = tmp_path / "inventory.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        infra = load_inventory(path)
        assert infra == load_inventory(GOLDEN / "inventory.yaml")
        assert sorted(infra.allocations) == ["svc-core-cp", "svc-core-dp"]
        infra.allocate("tenant-orch", "svc-x", ResourceDemand(1, 1, 1, 1))
        assert sorted(infra.allocations) == ["svc-core-cp", "svc-core-dp", "svc-x"]

    def test_use_is_not_saved_and_loads_as_whole_numbers(self, tmp_path):
        """No tenant's use is written, and the use an older inventory's
        allocations make loads as whole numbers."""
        infra = build_testbed()
        infra.allocate("tenant-cp", "svc-x", ResourceDemand(2, 1024, 8, 2))
        path = tmp_path / "inventory.yaml"
        save_inventory(infra, path)
        raw = yaml.safe_load(path.read_text())
        assert all("used" not in tenant for tenant in raw["tenants"])
        raw["allocations"] = [
            {"tenant": "tenant-cp", "service": service, "demand": demand}
            for service, demand in (
                ("svc-x", {"vcpu": 2, "ram": 1024, "storage": 8, "ports": 2}),
                ("svc-y", {"vcpu": 1, "ram": 512, "storage": 4, "ports": 1}),
            )
        ]
        path.write_text(yaml.safe_dump(raw))
        used = load_inventory(path).tenants["tenant-cp"].used
        assert used.as_tuple() == (3, 1536, 12, 3)
        assert all(type(value) is int for value in used.as_tuple())

    def test_yaml_syntax_errors_report_position(self, tmp_path):
        path = tmp_path / "inventory.yaml"
        path.write_text("hosts:\n  - id: h1\n   bad indent\n")
        with pytest.raises(IoFailure, match="line"):
            load_inventory(path)

    def test_allocations_must_reference_known_tenants(self, tmp_path):
        infra = build_testbed()
        path = tmp_path / "inventory.yaml"
        save_inventory(infra, path)
        raw = yaml.safe_load(path.read_text())
        raw["allocations"] = [
            {
                "id": "alloc-1",
                "tenant": "t-ghost",
                "service": "svc-x",
                "demand": {"vcpu": 1, "ram": 0, "storage": 0, "ports": 0},
            }
        ]
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(IoFailure, match="unknown tenant"):
            load_inventory(path)

    def test_duplicated_allocation_id_is_refused(self, tmp_path):
        """An allocation is known by the service that holds it: a second
        one for svc-core-cp, on another tenant and under another id, would
        replace the first and leave tenant-cp's use without the allocation
        that makes it."""
        raw = yaml.safe_load((GOLDEN / "inventory.yaml").read_text())
        twin = dict(raw["allocations"][1], id="alloc-9", service="svc-core-cp")
        raw["allocations"].append(twin)
        path = tmp_path / "inventory.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(
            IoFailure,
            match=re.escape(
                f"{path}: corrupt inventory: service 'svc-core-cp' already holds one"
            )
            + "$",
        ):
            load_inventory(path)


class TestAuditLog:
    def test_append_then_load(self, tmp_path):
        path = tmp_path / "audit.log"
        log = FileAuditLog(path)
        log.append(event(1, action="onboard_vf"))
        log.append(event(2))
        events = load_audit(path)
        assert [e.sequence_no for e in events] == [1, 2]
        assert events[0].actor is Role.TESTER
        assert events[0].outcome is Outcome.OK

    def test_next_sequence_recovers_from_disk(self, tmp_path):
        path = tmp_path / "audit.log"
        log = FileAuditLog(path)
        log.append(event(1))
        again = FileAuditLog(path)
        with pytest.raises(SequenceGap, match="expected sequence 2"):
            again.append(event(7))

    def test_load_rejects_corrupt_lines_with_position(self, tmp_path):
        path = tmp_path / "audit.log"
        FileAuditLog(path).append(event(1))
        first = path.read_text()
        string_timestamp = {**encode(event(2)), "timestamp": "soon"}
        for line, reason in [
            ("{not json", "Expecting property name"),
            (
                json.dumps(string_timestamp),
                "AuditEvent field timestamp must be a number, got 'soon'",
            ),
            (json.dumps(list(string_timestamp.values())), "expected a mapping, got list"),
        ]:
            path.write_text(first + line + "\n")
            with pytest.raises(
                IoFailure,
                match=r"audit\.log:2: corrupt audit record: " + re.escape(reason),
            ):
                load_audit(path)

    def test_retired_keys_are_dropped_unread(self, tmp_path):
        """owned_resources, which a VSP carried in an older build's log and
        catalogs, `used`, which an older build's tenants held, and an older
        event's actor_id and its slice's template and SLA's slice_id,
        template_refs and penalties, are dropped unread; a key that is only
        like one is still refused."""
        vsp = VendorSoftwareProduct("vsp-x", "V", "P", (1, 0, 0))
        stored = {**encode(vsp), "owned_resources": ["vf-a", "vf-b"]}
        assert decode(VendorSoftwareProduct, stored) == vsp
        carried = replace(event(1, "onboard_vf", "vf-a"), vsp="vsp-x", new_vsp=vsp)
        path = tmp_path / "audit.log"
        raw = encode(carried)
        assert list(raw["new_vsp"]) == ["id", "vendor_name", "product_name", "version"]
        raw["new_vsp"]["owned_resources"] = []
        path.write_text(json.dumps(raw) + "\n")
        assert load_audit(path) == [carried]
        tenant = encode(build_testbed().tenants["tenant-cp"])
        assert decode(Tenant, {**tenant, "used": "anything"}) == decode(Tenant, tenant)
        with pytest.raises(ValueError, match="has no field 'owned_resource'"):
            decode(VendorSoftwareProduct, {**encode(vsp), "owned_resource": []})
        created = next(e for e in active_engine().events if e.action == "create_slice")
        created = replace(created, sequence_no=1)
        raw = encode(created)
        raw["actor_id"] = raw["actor"]
        raw["slice_template"].update(slice_id="slice-a", template_refs={})
        raw["slice"]["sla"].update(slice_id="slice-a", penalties="")
        path.write_text(json.dumps(raw) + "\n")
        assert load_audit(path) == [created]
        with pytest.raises(ValueError, match="has no field 'penalty'"):
            decode(Sla, {**encode(created.slice.sla), "penalty": ""})

    def test_no_retired_key_names_a_field(self):
        for cls, keys in store._RETIRED.items():
            assert not keys & {f.name for f in fields(cls) if f.init}, cls

    def test_no_stored_class_writes_a_retired_key(self):
        """Fully populated, the catalog, an event with every field set, an
        inventory with allocations and a plan encode no retired key in any
        of their entities, and those entities take in every class that has
        retired keys."""
        engine = active_engine()
        catalog = engine.catalog
        catalog.customers["c-x"] = Customer("c-x", "X")
        assert all(getattr(catalog, f.name) for f in fields(Catalog) if f.init)
        carried = {
            f.name: next(
                (getattr(e, f.name) for e in engine.events if getattr(e, f.name)),
                None,
            )
            for f in fields(AuditEvent)
            if f.default is None
        }
        carried["customer"] = catalog.customers["c-x"]
        full = replace(engine.events[0], **carried)
        assert None not in (getattr(full, f.name) for f in fields(full))
        infra = engine.infra
        inventory = InventoryDocument(
            hosts=tuple(infra.hosts.values()),
            tenants=tuple(infra.tenants.values()),
            links=tuple(infra.links.values()),
            allocations=tuple(infra.allocations.values()),
        )
        held = tuple(Assignment(s, a.tenant) for s, a in infra.allocations.items())
        document = PlanDocument(slice="slice-a", assignments=held)
        seen = set()
        for root in (catalog, full, inventory, document):
            for entity in _entities(root):
                seen.add(type(entity))
                retired = store._RETIRED.get(type(entity), frozenset())
                assert not retired & encode(entity).keys(), entity
        assert store._RETIRED.keys() <= seen

    def test_misspelt_key_is_refused(self, tmp_path):
        path = tmp_path / "audit.log"
        raw = encode(event(1))
        raw["outcom"] = raw.pop("outcome")
        path.write_text(json.dumps(raw) + "\n")
        with pytest.raises(IoFailure, match=r"audit\.log:1: corrupt audit record.*'outcom'"):
            load_audit(path)

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "audit.log"
        log = FileAuditLog(path)
        log.append(event(1))
        log.append(event(2))
        text = path.read_text()
        path.write_text(text.replace("\n", "\n\n"))
        assert [e.sequence_no for e in load_audit(path)] == [1, 2]

    def test_only_an_event_that_allocates_writes_tenant_and_demand(self, tmp_path):
        """The two fields default to None and the codec leaves them out
        then, so every other event keeps the bytes older builds wrote."""
        path = tmp_path / "audit.log"
        log = FileAuditLog(path)
        log.append(event(1))
        held = replace(
            event(2, "instantiate_service", "svc-x"),
            tenant="tenant-cp",
            demand=ResourceDemand(vcpu=2),
        )
        log.append(held)
        first, second = (json.loads(line) for line in path.read_text().splitlines())
        assert list(first) == list(encode(event(1))) == [
            "sequence_no",
            "actor",
            "action",
            "subject",
            "timestamp",
            "outcome",
        ]
        assert second["tenant"] == "tenant-cp"
        assert second["demand"] == {"vcpu": 2, "ram": 0, "storage": 0, "ports": 0}
        assert load_audit(path) == [event(1), held]

    @pytest.mark.parametrize(
        "kept",
        [0, 1, 40, -2, -1, b"\x00\xff\xfe"],
        ids=lambda k: f"kept{k}" if isinstance(k, int) else "not-utf8",
    )
    def test_final_fragment_is_not_an_event(self, tmp_path, kept):
        """An event is a line that ends in a newline: a load leaves a final
        fragment out, whatever its bytes, and the next append truncates it
        before it writes."""
        path = tmp_path / "audit.log"
        FileAuditLog(path).append(event(1))
        whole = path.read_bytes()
        torn = json.dumps(encode(event(2, "onboard_vf"))).encode() + b"\n"
        path.write_bytes(whole + (kept if isinstance(kept, bytes) else torn[:kept]))
        assert load_audit(path) == [event(1)]
        FileAuditLog(path).append(event(2))
        line = json.dumps(encode(event(2))).encode() + b"\n"
        assert path.read_bytes() == whole + line

    def test_last_line_cut_at_every_byte_offset(self, tmp_path, monkeypatch):
        """The golden demo log with its last line cut after each of its
        bytes, the final newline alone included: a load gives the complete
        prefix, and the next append truncates the fragment and lands at the
        last line's sequence number, which gives back the complete prefix
        and that line as this build writes it, without actor_id, byte for
        byte. fsync is skipped; it decides nothing here."""
        monkeypatch.setattr(store.os, "fsync", lambda fd: None)
        whole = (GOLDEN / "log-only" / "audit.log").read_bytes()
        keep = whole.rstrip(b"\n").rfind(b"\n") + 1
        prefix, last_line = whole[:keep], whole[keep:]
        events = load_audit(GOLDEN / "log-only" / "audit.log")
        last = events[-1]
        assert last.sequence_no == len(events) and last.demand is not None
        rewritten = prefix + json.dumps(encode(last)).encode() + b"\n"
        assert rewritten[keep:] == last_line.replace(b', "actor_id": "operator"', b"")
        path = tmp_path / "audit.log"
        for cut in range(len(last_line)):
            path.write_bytes(prefix + last_line[:cut])
            assert load_audit(path) == events[:-1], cut
            FileAuditLog(path).append(last)
            assert path.read_bytes() == rewritten, cut
            assert load_audit(path) == events, cut

    def test_bad_line_before_the_last_is_refused(self, tmp_path):
        """A torn line that ends in a newline is corruption, not a fragment."""
        path = tmp_path / "audit.log"
        log = FileAuditLog(path)
        log.append(event(1))
        log.append(event(2))
        first, second = path.read_text().splitlines(keepends=True)
        path.write_text(first[:40] + "\n" + second)
        with pytest.raises(IoFailure, match=r"audit\.log:1: corrupt audit record: "):
            load_audit(path)

    def test_failed_append_leaves_no_fragment_for_the_next(
        self, tmp_path, monkeypatch
    ):
        """A short write, as a full disk or a file size limit makes one,
        stores part of the line and then fails. The append cuts that part
        off; where the cut fails too, the same log's next append truncates
        the part first."""

        class ShortWrite:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.handle.flush()
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        path = tmp_path / "audit.log"
        log = FileAuditLog(path)
        log.append(event(1))
        whole = path.read_bytes()
        monkeypatch.setattr(
            store, "open", lambda *args: ShortWrite(open(*args)), raising=False
        )
        with pytest.raises(IoFailure, match="cannot append to .*File too large"):
            log.append(event(2))
        assert path.read_bytes() == whole

        def truncate(*args):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(store.os, "truncate", truncate)
        with pytest.raises(IoFailure, match="cannot append to .*File too large"):
            log.append(event(2))
        monkeypatch.undo()
        assert len(whole) < path.stat().st_size
        assert load_audit(path) == [event(1)]
        log.append(event(2))
        assert load_audit(path) == [event(1), event(2)]

    def test_load_rejects_gaps(self, tmp_path):
        path = tmp_path / "audit.log"
        with open(path, "w", encoding="utf-8") as handle:
            for seq in (1, 3):
                handle.write(json.dumps(encode(event(seq))) + "\n")
        with pytest.raises(SequenceGap, match="expected sequence 2"):
            load_audit(path)


def _checkpointed_lab(root) -> Orchestrator:
    """root holding active_engine's log and the testbed inventory, and a
    checkpoint of their fold; returns the engine."""
    engine = active_engine()
    sink = FileAuditLog(root / "audit.log")
    for logged in engine.events:
        sink.append(logged)
    save_inventory(build_testbed(), root / "inventory.yaml")
    save_checkpoint(root, checkpoint_fold(engine.catalog, engine.infra))
    return engine


def _edit_checkpoint(root, edit) -> None:
    path = root / "checkpoint.json"
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))


def _cover(where):
    """A change that retags root's checkpoint to cover the audit log's bytes
    up to where(log), with a log_sha256 that matches them."""

    def cover(root) -> None:
        log = (root / "audit.log").read_bytes()
        offset = where(log)
        digest = hashlib.sha256(log[:offset]).hexdigest()
        _edit_checkpoint(
            root, lambda raw: raw["tags"].update(log_bytes=offset, log_sha256=digest)
        )

    return cover


def _append_to_log(root, line: bytes) -> None:
    path = root / "audit.log"
    path.write_bytes(path.read_bytes() + line)


def _first_format(raw) -> None:
    """raw as the first checkpoint format held it: no format tag, and the
    allocations beside the inventory document, which must never read as a
    fold without allocations."""
    del raw["tags"]["format"]
    raw["fold"]["allocations"] = raw["fold"]["inventory"].pop("allocations")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        engine = _checkpointed_lab(tmp_path)
        catalog, infra, events, last, due = load_checkpoint(tmp_path)
        assert (events, last, due) == ([], engine.events[-1], False)
        for field in fields(Catalog):
            if field.name != "template_blobs":
                name = field.name
                assert getattr(catalog, name) == getattr(engine.catalog, name), name
        assert infra == engine.infra and infra.allocations
        # The inventory document carries the allocations, as the codec
        # encodes them; format 1 kept them in a key of their own.
        saved = json.loads((tmp_path / "checkpoint.json").read_text())
        held = sorted(engine.infra.allocations.values(), key=lambda a: a.service)
        assert saved["fold"]["inventory"]["allocations"] == [encode(a) for a in held]
        assert sorted(saved["fold"]) == ["catalog", "inventory", "records"]

    def test_checkpoint_never_covers_a_fragment(self, tmp_path):
        """A checkpoint saved over a log that ends in a fragment covers the
        events before it; the append that drops the fragment keeps the
        checkpoint, and its event is the one after it."""
        engine = active_engine()
        log = FileAuditLog(tmp_path / "audit.log")
        for logged in engine.events:
            log.append(logged)
        whole = (tmp_path / "audit.log").read_bytes()
        (tmp_path / "audit.log").write_bytes(whole + b'{"sequence_no": 18')
        last = engine.events[-1]
        save_checkpoint(tmp_path, checkpoint_fold(engine.catalog, None))
        saved = json.loads((tmp_path / "checkpoint.json").read_text())
        assert saved["tags"]["log_bytes"] == len(whole)
        assert load_checkpoint(tmp_path)[2] == []
        following = replace(event(len(engine.events) + 1), timestamp=last.timestamp + 1)
        FileAuditLog(tmp_path / "audit.log").append(following)
        assert (tmp_path / "audit.log").read_bytes().startswith(whole)
        assert load_checkpoint(tmp_path)[2] == [following]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda root: (root / "checkpoint.json").unlink(),
            lambda root: (root / "checkpoint.json").write_text("{}"),
            lambda root: (root / "checkpoint.json").write_text("[]"),
            lambda root: (root / "checkpoint.json").write_bytes(b"\xff\xfe\x00"),
            lambda root: (root / "checkpoint.json").write_bytes(
                (root / "checkpoint.json").read_bytes()[:-1]
            ),
            lambda root: _edit_checkpoint(
                root, lambda raw: raw["tags"].update(log_bytes="0")
            ),
            lambda root: (root / "audit.log").write_bytes(
                (root / "audit.log").read_bytes().rstrip(b"\n").rsplit(b"\n", 1)[0]
                + b"\n"
            ),
            lambda root: (root / "audit.log").write_bytes(
                (root / "audit.log").read_bytes().replace(b'"tester"', b'"Tester"', 1)
            ),
            lambda root: (root / "audit.log").unlink(),
            lambda root: (root / "inventory.yaml").write_text(
                (root / "inventory.yaml").read_text() + "\n"
            ),
            lambda root: (root / "inventory.yaml").unlink(),
            lambda root: save_catalog(Catalog(), root / "catalog.json"),
            lambda root: _edit_checkpoint(root, _first_format),
            lambda root: _edit_checkpoint(
                root, lambda raw: raw["tags"].update(format=2)
            ),
            _cover(lambda log: log.rfind(b"\n", 0, len(log) - 1) + 11),
            _cover(lambda log: 0),
            lambda root: (
                _append_to_log(root, b'{"sequence_no": 18}\n'),
                _cover(len)(root),
            ),
            lambda root: (_append_to_log(root, b"\n"), _cover(len)(root)),
        ],
        ids=[
            "absent",
            "no-tags",
            "not-an-object",
            "not-utf8",
            "torn",
            "offset-not-a-number",
            "log-cut",
            "log-edited",
            "log-removed",
            "inventory-edited",
            "inventory-removed",
            "catalog-added",
            "first-format",
            "second-format",
            "mid-line",
            "offset-zero",
            "bad-last-line",
            "blank-last-line",
        ],
    )
    def test_checkpoint_that_does_not_match_reads_as_none(self, tmp_path, damage):
        _checkpointed_lab(tmp_path)
        assert load_checkpoint(tmp_path) is not None
        damage(tmp_path)
        assert read_checkpoint(tmp_path) is None
        assert load_checkpoint(tmp_path) is None

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw["fold"]["catalog"].update(functions=5),
            lambda raw: raw["fold"]["records"]["slice-a"].__setitem__(1, "gone"),
            lambda raw: raw["fold"]["inventory"]["allocations"].append(
                raw["fold"]["inventory"]["allocations"][0]
            ),
            lambda raw: raw["fold"].pop("inventory"),
            lambda raw: raw["fold"]["records"]["slice-a"].__setitem__(2, "x"),
            lambda raw: raw["fold"]["records"]["slice-a"][2].append("x"),
            lambda raw: raw["fold"]["records"]["slice-a"][2].append(True),
            lambda raw: raw["fold"].update(records=[]),
        ],
        ids=[
            "functions",
            "record-state",
            "allocation",
            "inventory",
            "history-text",
            "history-item-text",
            "history-item-bool",
            "records-list",
        ],
    )
    def test_fold_that_does_not_decode_reads_as_none(self, tmp_path, edit):
        """Tags that match cannot make a fold that does not decode count."""
        _checkpointed_lab(tmp_path)
        _edit_checkpoint(tmp_path, edit)
        assert read_checkpoint(tmp_path) is not None
        assert load_checkpoint(tmp_path) is None



class TestReplay:
    def test_replay_reconstructs_live_records(self):
        engine = active_engine()
        engine.teardown_slice(Role.OPERATOR, "slice-a")
        assert replay_states(engine.events) == engine.catalog.records

    def test_replay_with_an_inventory_rebuilds_the_allocations(self):
        engine = active_engine()
        infra = build_testbed()
        assert replay_states(engine.events, infra) == engine.catalog.records
        assert infra.allocations == engine.infra.allocations
        assert infra.usage_snapshot()["tenant-cp"] == ResourceDemand(5, 8192, 40, 8)
        engine.teardown_slice(Role.OPERATOR, "slice-a")
        infra = build_testbed()
        replay_states(engine.events, infra)
        assert infra.allocations == engine.infra.allocations == {}
        assert set(infra.usage_snapshot().values()) == {ResourceDemand()}

    def test_denied_and_failed_events_change_nothing(self):
        engine = scenario.slice_a_engine()
        snapshot = replay_states(engine.events)
        before = len(engine.events)
        with pytest.raises(RoleDenied):
            engine.certify_vf(Role.DESIGNER, "vf-core-cp")
        with pytest.raises(InvalidTransition):
            engine.certify_vf(Role.TESTER, "vf-core-cp")
        # Both attempts were audited, neither moved any record.
        assert len(engine.events) == before + 2
        assert replay_states(engine.events) == snapshot

    def test_golden_log_replays_to_golden_records(self):
        """The records that versions 1 to 3 stored, and version 4 drops
        unread, are the fold of the golden log."""
        replayed = replay_states(load_audit(GOLDEN / "audit.log"))
        encoded = {subject: encode(record) for subject, record in replayed.items()}
        for source in (*GOLDEN_V1, "v2/catalog.json", "v3/catalog.json"):
            stored = json.loads((GOLDEN / source).read_text())["records"]
            assert stored == encoded, source

    @pytest.mark.parametrize(
        "action, subject, reason",
        [
            # A crash after the audit append, then a retry: the log forks.
            ("onboard_vf", "vf-core-cp", "id 'vf-core-cp' already exists"),
            (
                "certify_vf",
                "vf-core-cp",
                "vf 'vf-core-cp' is certified, certify needs draft",
            ),
            (
                "teardown_slice",
                "slice-a",
                "slice 'slice-a' is ready,"
                " teardown needs active or partially_instantiated",
            ),
            ("test_service", "svc-ghost", "no service record for 'svc-ghost'"),
            ("rename_slice", "slice-a", "unknown action 'rename_slice'"),
        ],
        ids=[
            "duplicate-onboard",
            "second-certify",
            "teardown-ready",
            "unknown-subject",
            "unknown-action",
        ],
    )
    def test_illegal_ok_event_is_refused(self, action, subject, reason):
        engine = scenario.slice_a_engine()
        bad = event(len(engine.events) + 1, action, subject)
        match = f"audit event {bad.sequence_no}: {re.escape(reason)}$"
        with pytest.raises(LogDiverged, match=match):
            replay_states(engine.events + [bad])
        catalog = Catalog()
        replay_states(engine.events, catalog=catalog)
        before = copy.deepcopy(catalog)
        with pytest.raises(LogDiverged, match=match):
            apply_event(catalog, bad)
        assert catalog == before
        assert catalog.records == engine.catalog.records


class TestPlanDocuments:
    def test_round_trip(self, tmp_path):
        plan = PlacementPlan(
            "slice-a",
            (
                Assignment("svc-core-cp", "tenant-cp"),
                Assignment("svc-core-dp", "tenant-dp"),
            ),
            1.0,
            True,
        )
        path = tmp_path / "plan.yaml"
        save_plan(plan, path)
        assert load_plan(path) == plan

    @pytest.mark.parametrize(
        "damage, key",
        [
            (lambda raw: raw.update(e2e_latncy=raw.pop("e2e_latency")), "e2e_latncy"),
            (lambda raw: raw["assignments"][0].update(tennant="tenant-dp"), "tennant"),
        ],
        ids=["document-key", "assignment-key"],
    )
    def test_misspelt_key_is_refused(self, tmp_path, damage, key):
        plan = PlacementPlan(
            "slice-a", (Assignment("svc-core-cp", "tenant-cp"),), 0.0, True
        )
        path = tmp_path / "plan.yaml"
        save_plan(plan, path)
        raw = yaml.safe_load(path.read_text())
        damage(raw)
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(IoFailure, match=f"corrupt plan.*'{key}'"):
            load_plan(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("- slice: slice-a\n", "corrupt plan: expected a mapping, got list"),
            ("", "corrupt plan: expected a mapping, got NoneType"),
            (
                "slice: slice-a\nassignments:\n- svc-core-cp\n",
                "corrupt plan: PlanDocument field assignments[0]:"
                " expected a mapping, got str",
            ),
            (
                "slice: slice-a\nassignments:\n- null\n",
                "corrupt plan: PlanDocument field assignments[0]:"
                " expected a mapping, got NoneType",
            ),
        ],
        ids=["list-root", "empty-file", "text-assignment", "null-assignment"],
    )
    def test_wrong_shape_is_refused(self, tmp_path, text, reason):
        path = tmp_path / "plan.yaml"
        path.write_text(text)
        with pytest.raises(IoFailure, match=re.escape(reason) + "$"):
            load_plan(path)


# The golden file a golden file is saved as, where that is another file.
_SAVED_AS = {
    "catalog.json": SAVED_CATALOG,
    "inventory.yaml": SAVED_INVENTORY,
    "audit.log": "audit.saved.log",
}


def _rewrite_audit(source, target):
    log = FileAuditLog(target)
    for loaded in load_audit(source):
        log.append(loaded)


@pytest.mark.parametrize(
    "name, rewrite",
    [
        ("catalog.json", lambda src, dst: save_catalog(load_catalog(src), dst)),
        ("inventory.yaml", lambda src, dst: save_inventory(load_inventory(src), dst)),
        ("audit.log", _rewrite_audit),
    ],
)
def test_saved_files_keep_their_bytes(tmp_path, name, rewrite):
    """Each golden file, loaded and saved, gives the bytes this build writes:
    its own bytes, except that the golden catalogs, the two version-1 ones
    and those of versions 2 to 4, whose VSPs hold owned_resources and whose
    slice template and SLA hold slice_id, are saved as the saved catalog
    beside the version-4 golden blob files, the golden inventory, whose
    tenants hold `used` and which holds allocations, as its topology alone,
    and the golden log, whose events hold actor_id, as the saved log; each
    of those saves as itself."""
    saved = _SAVED_AS.get(name, name)
    older = (*GOLDEN_V1, "v2/catalog.json", "v3/catalog.json", "v4/catalog.json")
    sources = older if name == "catalog.json" else (name,)
    for source in dict.fromkeys((*sources, saved)):
        target = tmp_path / source.replace("/", "-") / name
        target.parent.mkdir()
        rewrite(GOLDEN / source, target)
        assert target.read_bytes() == (GOLDEN / saved).read_bytes(), source
        assert _blob_files(target.parent) == _blob_files((GOLDEN / saved).parent)


def _blob_files(directory: Path) -> dict[str, bytes]:
    blobs = directory / "blobs"
    return {p.name: p.read_bytes() for p in blobs.iterdir()} if blobs.is_dir() else {}


def test_golden_blob_files_are_named_by_their_hash():
    blobs = _blob_files(GOLDEN / "v2")
    assert len(blobs) == 2
    for name, data in blobs.items():
        assert hashlib.sha256(data).hexdigest() == name
    assert _blob_files(GOLDEN / "v3") == _blob_files(GOLDEN / "v4") == blobs


def _converts_to_the_version_4_golden(tmp_path, source):
    """The catalog in source loads, saves as the version-4 saved catalog and
    the golden blob files, and those load back as the same catalog; opened
    on the golden log, it holds that log's fold as its records."""
    catalog = load_catalog(GOLDEN / source)
    path = tmp_path / "catalog.json"
    save_catalog(catalog, path)
    assert path.read_bytes() == (GOLDEN / SAVED_CATALOG).read_bytes()
    assert _blob_files(tmp_path) == _blob_files(GOLDEN / "v4")
    again = load_catalog(path)
    assert isinstance(again.template_blobs, TemplateBlobs)
    assert again == catalog == load_catalog(GOLDEN / "v4" / "catalog.json")
    events = load_audit(GOLDEN / "audit.log")
    opened = Orchestrator(catalog=catalog, log=events).catalog
    assert opened.records == replay_states(events)
    entities = {*opened.functions, *opened.services, *opened.slices}
    assert entities == opened.records.keys()
    return catalog


@pytest.mark.parametrize("source", GOLDEN_V1)
def test_version_1_golden_catalog_converts_to_the_version_4_golden(tmp_path, source):
    catalog = _converts_to_the_version_4_golden(tmp_path, source)
    assert isinstance(catalog.template_blobs, dict)


@pytest.mark.parametrize("version", [2, 3])
def test_older_golden_catalog_converts_to_the_version_4_golden(tmp_path, version):
    source = f"v{version}/catalog.json"
    catalog = _converts_to_the_version_4_golden(tmp_path, source)
    assert catalog.template_blobs.directory == GOLDEN / f"v{version}" / "blobs"


def test_version_3_file_with_components_is_refused(tmp_path):
    """Only versions 1 and 2 held components; in version 3 the key names
    no field, as any other misspelt one."""
    path = tmp_path / "catalog.json"
    raw = json.loads((GOLDEN / "v2" / "catalog.json").read_text())
    raw["version"] = 3
    path.write_text(json.dumps(raw))
    with pytest.raises(
        IoFailure,
        match=re.escape(
            "corrupt catalog: Catalog field functions['vf-core-cp']:"
            " NetworkFunction has no field 'components'"
        ),
    ):
        load_catalog(path)


def test_version_4_file_with_records_is_refused(tmp_path):
    """Only versions 1 to 3 held the records; in version 4 the key names no
    field, as any other misspelt one."""
    path = tmp_path / "catalog.json"
    raw = json.loads((GOLDEN / "v3" / "catalog.json").read_text())
    raw["version"] = 4
    path.write_text(json.dumps(raw))
    with pytest.raises(
        IoFailure, match=re.escape("corrupt catalog: Catalog has no field 'records'")
    ):
        load_catalog(path)


def test_indented_and_compact_golden_catalogs_are_one_catalog():
    indented = load_catalog(GOLDEN / "catalog.json")
    assert load_catalog(GOLDEN / "catalog.compact.json") == indented
    assert (GOLDEN / "catalog.compact.json").read_text().count("\n") == 1
    assert (GOLDEN / "v2" / "catalog.json").read_text().count("\n") == 1
    assert (GOLDEN / "v3" / "catalog.json").read_text().count("\n") == 1
    assert (GOLDEN / "v4" / "catalog.json").read_text().count("\n") == 1


def _many_vf_engine():
    """slice-a's engine after 201 more VFs are onboarded from generated
    templates, the first from a vendor whose name is not ASCII."""
    engine = scenario.slice_a_engine()
    vsp_id = scenario.register_vsp(engine)
    engine.register_vsp(
        VendorSoftwareProduct(
            id="vsp-unicode",
            vendor_name="Réseaux Ωmega 東京",
            product_name="probe",
            version=(1, 0, 0),
        )
    )
    engine.onboard_vf(Role.DESIGNER, "vsp-unicode", scenario.minimal_template())
    for index in range(200):
        text = scenario.minimal_template(
            name=f"gen-{index}", vcpu=1 + index % 4, ram=512 * (1 + index % 3)
        )
        engine.onboard_vf(Role.DESIGNER, vsp_id, text)
    return engine


def _golden_engine():
    return Orchestrator(
        catalog=load_catalog(GOLDEN / "catalog.json"),
        log=load_audit(GOLDEN / "audit.log"),
    )


@pytest.mark.parametrize(
    "engine", [_golden_engine, _many_vf_engine], ids=["golden", "many-vfs"]
)
def test_compact_catalog_holds_what_the_indented_one_held(tmp_path, engine):
    """The compact file parses to the same document as the indented JSON
    that older builds wrote for the same catalog, with its format's version,
    and loads back equal."""
    engine = engine()
    catalog = engine.catalog
    path = tmp_path / "catalog.json"
    save_catalog(catalog, path)
    raw = {"version": store.CATALOG_VERSION, **encode(catalog)}
    indented = json.dumps(raw, indent=2, sort_keys=True)
    assert json.loads(path.read_text()) == json.loads(indented)
    assert reopened_catalog(path, engine.events) == catalog
    for digest, text in catalog.template_blobs.items():
        assert (tmp_path / "blobs" / digest).read_bytes() == text.encode("utf-8")


def test_truncated_compact_catalog_reports_position(tmp_path):
    text = (GOLDEN / "catalog.compact.json").read_text()
    path = tmp_path / "catalog.json"
    path.write_text(text[: len(text) // 2])
    with pytest.raises(IoFailure, match=r"invalid JSON at line 1 column \d+:"):
        load_catalog(path)


_DELETE = object()
_REPLACEMENTS = [_DELETE, None, 7, True, "text", ["x"], {"k": "v"}]


def _value_paths(node, prefix=()):
    """The path to every value below the root of a parsed document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


def _mutations(raw):
    """(path, replacement, document): raw with each value in turn deleted or
    replaced by each replacement."""
    for path in _value_paths(raw):
        for replacement in _REPLACEMENTS:
            doc = copy.deepcopy(raw)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if replacement is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(replacement)
            yield path, replacement, doc


def _place(path, replacement) -> str:
    """How a codec refusal names where the refused value sits: the field
    below the root, then the key or index in it, as `field hosts[0]`; a
    deleted field by its quoted name."""
    if len(path) == 1 and replacement is _DELETE:
        return repr(path[0])
    return f"field {path[0]}" + "".join(f"[{key!r}]" for key in path[1:2])


def test_every_refusal_of_a_mutated_file_gives_its_reason(tmp_path, monkeypatch):
    """Every value of an inventory, a plan and one audit line, deleted or
    replaced by null, a number, a boolean, text, a list or a mapping: each
    file loads, or is refused with a reason (an audit line with another
    sequence number is a SequenceGap); a change to a tenant's `used`
    loads. Where the codec is what refuses the file, the reason names the
    place of the value, as _place renders it; checks across entities, such
    as a tenant on an unknown host, name the entities instead."""
    plan_path = tmp_path / "plan.yaml"
    save_plan(scenario.slice_a_engine().plan_slice("slice-a"), plan_path)
    # The YAML loaders read the parsed documents from here: parsing each
    # mutated text again would only test PyYAML, and slowly.
    documents = {}
    monkeypatch.setattr("slicectl.store._load_yaml", documents.__getitem__)
    audit_path = tmp_path / "audit.log"
    first, *rest = (GOLDEN / "audit.log").read_text().splitlines(keepends=True)

    def load_audit_with_first(raw):
        audit_path.write_text(json.dumps(raw) + "\n" + "".join(rest))
        return load_audit(audit_path)

    def load_yaml_with(loader, path):
        def load(raw):
            documents[path] = raw
            return loader(path)

        return load

    cases = [
        (
            load_yaml_with(load_inventory, tmp_path / "inventory.yaml"),
            InventoryDocument,
            yaml.safe_load((GOLDEN / "inventory.yaml").read_text()),
        ),
        (
            load_yaml_with(load_plan, plan_path),
            PlanDocument,
            yaml.safe_load(plan_path.read_text()),
        ),
        (load_audit_with_first, AuditEvent, json.loads(first)),
    ]
    outcomes = {"loaded": 0, "refused": 0, "by the codec": 0}
    for load, cls, raw in cases:
        for path, replacement, doc in _mutations(raw):
            # The golden inventory's tenants hold `used`, which is dropped
            # unread, whatever it holds.
            dropped = cls is InventoryDocument and path[0] == "tenants"
            dropped = dropped and path[2:3] == ("used",)
            try:
                load(doc)
            except (IoFailure, SequenceGap) as exc:
                reason = str(exc)
                assert not dropped, (path, replacement, reason)
                assert "has no attribute" not in reason
                outcomes["refused"] += 1
            else:
                outcomes["loaded"] += 1
                continue
            try:
                decode(cls, doc)
            except (TypeError, ValueError, SliceError) as exc:
                assert reason.endswith(str(exc))
                assert _place(path, replacement) in str(exc), (path, replacement)
                outcomes["by the codec"] += 1
    assert outcomes["refused"] > outcomes["by the codec"] > outcomes["loaded"] > 0
