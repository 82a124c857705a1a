"""Command-line behavior: exit codes, the full workflow, demo determinism."""

from __future__ import annotations

import errno
import fcntl
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
from dataclasses import replace
from importlib import resources as ilr
from pathlib import Path

import pytest
import yaml

import scenario
import slicectl
from slicectl import cli, store
from slicectl.cli import ENV_CATALOG, _open_engine, main, run
from slicectl.infra import build_testbed
from slicectl.lifecycle import Catalog, Orchestrator, Role
from slicectl.model import ResourceDemand, VendorSoftwareProduct
from slicectl.store import (
    FileAuditLog,
    encode,
    load_audit,
    load_catalog,
    load_inventory,
    read_checkpoint,
    replay_states,
    save_catalog,
    save_inventory,
)


def descriptor_doc(
    slice_id: str = "slice-p",
    service: str = "svc-probe",
    vcpu: int = 2,
) -> dict:
    return {
        "slice": {
            "id": slice_id,
            "name": slice_id,
            "customer": "c-lab",
            "provider": "p-lab",
            "services": [service],
        },
        "profile": {
            "end_to_end_latency": 10.0,
            "guaranteed_data_rate": 50.0,
            "service_availability": 0.99,
        },
        "customer": {"name": "Lab"},
        "provider": {"name": "Lab Provider", "administrative_domains": ["core"]},
        "requirements": {
            service: {
                "latency_budget": 5.0,
                "reliability": 0.999,
                "data_rate": 50.0,
                "demand": {"vcpu": vcpu, "ram": 1024, "storage": 8, "ports": 2},
            }
        },
    }


@pytest.fixture
def root(tmp_path):
    return tmp_path / "catalog"


def _lab_bytes(root) -> dict[str, bytes | None]:
    """The bytes of each file a command may write, None for one that is
    absent, so a refused command can be shown to leave them all as they were."""
    names = ["catalog.json", "audit.log", "inventory.yaml"]
    if (root / "blobs").is_dir():
        names += sorted(f"blobs/{path.name}" for path in (root / "blobs").iterdir())
    return {
        name: (root / name).read_bytes() if (root / name).exists() else None
        for name in names
    }


def _lab_catalog(root):
    """The catalog a command opens on root: the log folded onto catalog.json,
    if there is one."""
    return _open_engine(root).catalog


def seed_service(root, tmp_path) -> None:
    """Drive probe VF and service to distributed through the CLI."""
    template = tmp_path / "probe.yaml"
    template.write_text(scenario.minimal_template())
    steps = [
        ["init-testbed"],
        [
            "onboard-vf",
            str(template),
            "--vsp",
            "vsp-lab",
            "--vendor",
            "LabVendor",
            "--as",
            "designer",
        ],
        ["certify-vf", "vf-probe", "--as", "tester"],
        ["create-service", "probe", "--vf", "vf-probe", "--as", "designer"],
        ["test-service", "svc-probe", "--as", "tester"],
        ["approve-service", "svc-probe", "--as", "governor"],
        ["distribute-service", "svc-probe", "--as", "operator"],
    ]
    for argv in steps:
        result = run(argv + ["--catalog", str(root)])
        assert result.exit_code == 0, result.summary


def edited_descriptor(edit) -> str:
    doc = descriptor_doc()
    edit(doc)
    return yaml.safe_dump(doc)


BAD_DESCRIPTORS = [
    pytest.param("slice: [unclosed\n  name: x\n", "invalid YAML", id="malformed-yaml"),
    pytest.param(
        edited_descriptor(
            lambda d: d["requirements"]["svc-probe"].update(latency_budget=0)
        ),
        "latency_budget must be > 0",
        id="zero-latency-budget",
    ),
    pytest.param(
        edited_descriptor(
            lambda d: d["requirements"]["svc-probe"].update(latency_budget=float("nan"))
        ),
        "latency_budget must be > 0 and finite, got nan",
        id="nan-latency-budget",
    ),
    pytest.param(
        edited_descriptor(
            lambda d: d["requirements"]["svc-probe"].update(data_rate=float("nan"))
        ),
        "data_rate must be > 0 and finite, got nan",
        id="nan-data-rate",
    ),
    pytest.param(
        edited_descriptor(
            lambda d: d["requirements"]["svc-probe"].update(data_rate=float("inf"))
        ),
        "data_rate must be > 0 and finite, got inf",
        id="infinite-data-rate",
    ),
    pytest.param(
        edited_descriptor(
            lambda d: d["requirements"]["svc-probe"]["demand"].update(vcpu=-1)
        ),
        "vcpu must be >= 0",
        id="negative-demand",
    ),
    pytest.param(
        edited_descriptor(
            lambda d: d["requirements"]["svc-probe"]["demand"].update(vcpu=1.5)
        ),
        "vcpu must be a whole number, got 1.5",
        id="fractional-demand",
    ),
    pytest.param(
        edited_descriptor(lambda d: d["slice"].update(chain_ordr=False)),
        "chain_ordr",
        id="misspelt-chain-order",
    ),
    pytest.param(
        edited_descriptor(
            lambda d: d["requirements"]["svc-probe"].update(
                demnd=d["requirements"]["svc-probe"].pop("demand")
            )
        ),
        "demnd",
        id="misspelt-demand",
    ),
    pytest.param(
        edited_descriptor(lambda d: d["customer"].update(categry="enterprise")),
        "categry",
        id="misspelt-category",
    ),
    pytest.param(
        edited_descriptor(lambda d: d["slice"].update(services="svc-probe")),
        "expected a list, got str",
        id="services-as-string",
    ),
    pytest.param(
        edited_descriptor(lambda d: d["slice"].update(sla=None)),
        "unknown keys ['sla']",
        id="sla-in-slice-section",
    ),
    pytest.param(
        edited_descriptor(lambda d: d["slice"].update(chain_order="false")),
        "NetworkSlice field chain_order must be true or false, got 'false'",
        id="string-chain-order",
    ),
    pytest.param(
        edited_descriptor(
            lambda d: (
                d["profile"].update(end_to_end_latency=True),
                d["requirements"]["svc-probe"].update(latency_budget=True),
            )
        ),
        "ServiceRequirement field latency_budget must be a number, got True",
        id="boolean-latency",
    ),
    pytest.param(
        edited_descriptor(
            lambda d: (
                d["slice"].update(customer="c-new"),
                d.update(customer="New Customer Inc"),
            )
        ),
        "the customer section must be a mapping",
        id="string-customer",
    ),
    pytest.param(
        edited_descriptor(lambda d: d.update(slice="slice-p")),
        "the slice section must be a mapping",
        id="slice-as-string",
    ),
    pytest.param(
        edited_descriptor(lambda d: d.update(requirements=None)),
        "the requirements section must be a mapping",
        id="null-requirements",
    ),
    pytest.param(
        edited_descriptor(lambda d: d["requirements"].update({"svc-probe": None})),
        "bad slice descriptor: requirements['svc-probe']: expected a mapping,"
        " got NoneType",
        id="null-requirement",
    ),
    pytest.param(
        edited_descriptor(lambda d: d.pop("profile")),
        "bad slice descriptor: missing 'profile'",
        id="missing-profile",
    ),
    pytest.param(
        edited_descriptor(lambda d: d["customer"].update(id="c-new")),
        "the customer section's id 'c-new' is not the slice's customer 'c-lab'",
        id="other-customer-id",
    ),
    pytest.param(
        edited_descriptor(lambda d: d["provider"].update(id="p-other")),
        "the provider section's id 'p-other' is not the slice's provider 'p-lab'",
        id="other-provider-id",
    ),
    pytest.param(
        edited_descriptor(lambda d: (d["slice"].pop("id"), d["slice"].update(name=5))),
        "NetworkSlice field name must be text, got 5",
        id="number-name-without-id",
    ),
    pytest.param(
        edited_descriptor(lambda d: None).encode() + b"# \xff\n",
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xff",
        id="not-utf8",
    ),
    pytest.param(
        yaml.safe_dump([descriptor_doc()]),
        "bad slice descriptor: the descriptor must be a mapping",
        id="list-descriptor",
    ),
]

# Every command that saves state, under a role its gate denies. {tmp} is
# the test's scratch directory, set up by test_denied_command_saves_nothing.
DENIED_COMMANDS = [
    pytest.param(
        ["onboard-vf", "{tmp}/probe.yaml", "--vsp", "vsp-new", "--as", "tester"],
        id="onboard-vf",
    ),
    pytest.param(["certify-vf", "vf-probe", "--as", "designer"], id="certify-vf"),
    pytest.param(
        ["create-service", "probe2", "--vf", "vf-probe", "--as", "tester"],
        id="create-service",
    ),
    pytest.param(["test-service", "svc-probe", "--as", "designer"], id="test-service"),
    pytest.param(
        ["approve-service", "svc-probe", "--as", "tester"], id="approve-service"
    ),
    pytest.param(
        ["distribute-service", "svc-probe", "--as", "designer"],
        id="distribute-service",
    ),
    pytest.param(
        ["create-slice", "{tmp}/slice-q.yaml", "--as", "operator"], id="create-slice"
    ),
    pytest.param(
        [
            "instantiate-slice",
            "slice-p",
            "--plan",
            "{tmp}/catalog/plan-slice-p.yaml",
            "--as",
            "designer",
        ],
        id="instantiate-slice",
    ),
    pytest.param(
        ["teardown-slice", "slice-p", "--as", "designer"], id="teardown-slice"
    ),
]


class TestExitCodes:
    def test_unknown_command_is_usage(self):
        assert run(["no-such-command"]).exit_code == 2

    def test_missing_required_flag_is_usage(self):
        assert run(["create-service", "probe"]).exit_code == 2

    def test_help_exits_zero(self):
        assert run(["--help"]).exit_code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint-template", "probe.yaml"],
            ["place-slice", "slice-a"],
            ["status"],
            ["audit"],
            ["init-testbed"],
            ["demo", "slice-a"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_as_is_usage_where_no_role_acts(self, root, argv):
        """A command that no role is checked for takes no --as: it is a
        usage error, and nothing is written."""
        result = run(argv + ["--as", "operator", "--catalog", str(root)])
        assert (result.exit_code, result.summary) == (2, "")
        assert not root.exists()

    def test_missing_catalog_directory_is_usage(self, monkeypatch):
        monkeypatch.delenv(ENV_CATALOG, raising=False)
        result = run(["status"])
        assert result.exit_code == 2
        assert "usage error" in result.summary

    def test_json_holds_on_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.delenv(ENV_CATALOG, raising=False)
        assert main(["status", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert payload["summary"].startswith("usage error: no catalog directory")

    def test_denied_role_is_a_validation_failure(self, root, tmp_path):
        template = tmp_path / "probe.yaml"
        template.write_text(scenario.minimal_template())
        result = run(
            [
                "onboard-vf",
                str(template),
                "--vsp",
                "vsp-lab",
                "--as",
                "tester",
                "--catalog",
                str(root),
            ]
        )
        assert result.exit_code == 1
        assert result.summary.startswith("RoleDenied")

    @pytest.mark.parametrize(
        "argv",
        [
            ["onboard-vf", "--vsp", "vsp-lab", "--version", "1.x"],
            ["onboard-vf", "--vsp", "vsp-lab", "--version", "1.2"],
        ],
        ids=["version-1.x", "version-1.2"],
    )
    def test_bad_numeric_option_is_usage(self, root, tmp_path, argv):
        template = tmp_path / "probe.yaml"
        template.write_text(scenario.minimal_template())
        result = run(
            argv + [str(template), "--as", "designer", "--catalog", str(root)]
        )
        assert result.exit_code == 2
        assert not root.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["onboard-vf", "core_dp.yaml", "--vsp", ""],
            ["create-service", "Dup", "--vf", "vf-core-cp", "--id", ""],
        ],
        ids=["onboard-vf-vsp", "create-service-id"],
    )
    def test_empty_id_option_is_usage_and_writes_nothing(self, root, argv):
        argv = [_fixture(a) if a.endswith(".yaml") else a for a in argv]
        assert run(argv + ["--catalog", str(root)]).exit_code == 2
        assert not root.exists()
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        saved = _lab_bytes(root)
        result = run(argv + ["--as", "designer", "--catalog", str(root)])
        assert (result.exit_code, result.summary) == (2, "")
        assert _lab_bytes(root) == saved

    @pytest.mark.parametrize("tail", ["0", "-3"])
    def test_audit_tail_below_one_is_usage(self, root, tmp_path, tail):
        seed_service(root, tmp_path)
        result = run(["audit", "--tail", tail, "--catalog", str(root)])
        assert result.exit_code == 2

    def test_bugs_map_to_internal_error(self, root, monkeypatch):
        monkeypatch.setattr(
            "slicectl.cli.build_testbed",
            lambda: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        result = run(["init-testbed", "--catalog", str(root)])
        assert result.exit_code == 3
        assert result.summary.startswith("internal error")
        machine = run(["init-testbed", "--json", "--catalog", str(root)])
        assert (machine.exit_code, machine.machine) == (3, True)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["lint-template", "{tmp}/bad.yaml"], "bad.yaml"),
            (["onboard-vf", "{tmp}/bad.yaml", "--vsp", "vsp-core-cp"], "bad.yaml"),
            (["instantiate-slice", "slice-a", "--plan", "{tmp}/bad.yaml"], "bad.yaml"),
            (["status"], "audit.log"),
            (["status"], "inventory.yaml"),
            (["status"], "catalog.json"),
            (["certify-vf", "vf-core-cp"], "audit.log"),
        ],
        ids=[
            "lint-template",
            "onboard-vf",
            "instantiate-slice-plan",
            "status-audit-line",
            "status-inventory",
            "status-catalog",
            "certify-vf-audit-line",
        ],
    )
    def test_input_that_is_not_utf8_is_refused(self, root, tmp_path, argv, name):
        """A template, plan or lab file holding byte 0xff is refused with
        exit 1 naming the file, and every lab file stays as it was."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        (tmp_path / "bad.yaml").write_bytes(
            Path(_fixture("core_cp.yaml")).read_bytes() + b"# \xff\n"
        )
        if name == "audit.log":
            with open(root / name, "ab") as handle:
                handle.write(b'{"sequence_no": 18, "subject": "\xff"}\n')
        elif name != "bad.yaml":
            path = root / name
            path.write_bytes((path.read_bytes() if path.exists() else b"") + b"\xff")
        saved = _lab_bytes(root)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        result = run(argv + ["--catalog", str(root)])
        assert result.exit_code == 1, result.summary
        assert result.summary.startswith("IoFailure: "), result.summary
        assert name in result.summary and "can't decode byte 0xff" in result.summary
        assert _lab_bytes(root) == saved

    @pytest.mark.parametrize(
        "argv",
        [["status"], ["audit"], ["certify-vf", "vf-core-cp"], ["init-testbed"]],
        ids=["status", "audit", "certify-vf", "init-testbed"],
    )
    def test_catalog_that_is_a_file_is_refused(self, tmp_path, argv):
        """--catalog naming a regular file, or a path below one, exits 1
        for a read and a write alike, and leaves the file as it was and
        creates nothing; a missing directory still reads as an empty lab."""
        path = tmp_path / "afile"
        path.write_bytes(b"not a lab\n")
        for catalog in (path, path / "sub"):
            result = run(argv + ["--catalog", str(catalog)])
            assert result.exit_code == 1, result.summary
            assert result.summary == f"IoFailure: {catalog}: not a directory"
            assert path.read_bytes() == b"not a lab\n"
            assert list(tmp_path.iterdir()) == [path]
        if argv[0] in ("status", "audit"):
            missing = run(argv + ["--catalog", str(tmp_path / "missing")])
            assert missing.exit_code == 0, missing.summary
            assert not (tmp_path / "missing").exists()

    def test_environment_variable_selects_the_catalog(self, root, monkeypatch):
        monkeypatch.setenv(ENV_CATALOG, str(root))
        assert run(["init-testbed"]).exit_code == 0
        assert (root / "inventory.yaml").exists()


class TestLintTemplate:
    def test_clean_template_accepted(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text(scenario.minimal_template())
        result = run(["lint-template", str(path)])
        assert result.exit_code == 0
        assert "accepted" in result.summary

    def test_rule_findings_are_listed(self, tmp_path):
        no_vnf_id = yaml.safe_load(scenario.minimal_template())
        del no_vnf_id["resources"]["node"]["metadata"]["vnf_id"]
        big_env = yaml.safe_load(scenario.minimal_template())
        big_env["environment"] = {"flavor": "x" * 1999}
        core_cp = Path(_fixture("core_cp.yaml")).read_text()
        cases = {
            "required-metadata": yaml.safe_dump(no_vnf_id),
            "env-limit": yaml.safe_dump(big_env),
            # What onboard-vf refuses, lint-template refuses too.
            "vf-structure": "name: probe\nresources:\n  net:\n    type: OS::Neutron::Net\n",
            "MissingSizing": scenario.minimal_template(vcpu=0.5),
            # Heat allows a description; the template format does not.
            "unknown key 'description'": core_cp + "description: Heat-style summary\n",
            # An empty section is refused, as the published schema refuses it.
            "template.environment must be a mapping, got None": core_cp.split(
                "environment:"
            )[0]
            + "environment:\n",
        }
        for expected, text in cases.items():
            path = tmp_path / "bad.yaml"
            path.write_text(text)
            result = run(["lint-template", str(path), "--json"])
            assert result.exit_code == 1, expected
            assert expected in result.summary
            assert result.detail["verdict"] == "rejected"

    @pytest.mark.parametrize("level", ["top", "resource", "parameter"])
    def test_misspelt_key_is_refused(self, root, tmp_path, level):
        raw = yaml.safe_load(scenario.minimal_template())
        raw["parameters"] = {"flavor": {"type": "string"}}
        home = {
            "top": raw,
            "resource": raw["resources"]["node"],
            "parameter": raw["parameters"]["flavor"],
        }[level]
        home["enviroment"] = {"flavor": "small"}
        path = tmp_path / "typo.yaml"
        path.write_text(yaml.safe_dump(raw))
        linted = run(["lint-template", str(path)])
        assert linted.exit_code == 1
        assert linted.summary.startswith("TemplateSyntaxError")
        assert "'enviroment'" in linted.summary
        onboarded = run(
            [
                "onboard-vf",
                str(path),
                "--vsp",
                "vsp-lab",
                "--vendor",
                "LabVendor",
                "--catalog",
                str(root),
            ]
        )
        assert onboarded.exit_code == 1
        assert onboarded.summary == linted.summary
        last = load_audit(root / "audit.log")[-1]
        assert (last.action, last.outcome.value) == ("onboard_vf", "failed")
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (ilr.files("slicectl") / "schemas" / "template.schema.json").read_text(
                encoding="utf-8"
            )
        )
        with pytest.raises(jsonschema.ValidationError, match="enviroment"):
            jsonschema.validate(raw, schema)

    def test_syntax_errors_reject(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\n")
        result = run(["lint-template", str(path)])
        assert result.exit_code == 1
        assert result.summary.startswith("TemplateSyntaxError")

    def test_unreadable_file(self, tmp_path):
        result = run(["lint-template", str(tmp_path / "absent.yaml")])
        assert result.exit_code == 1
        assert "cannot read" in result.summary

    def test_json_findings_name_rule_severity_location_and_message(
        self, tmp_path, capsys
    ):
        raw = yaml.safe_load(scenario.minimal_template())
        del raw["resources"]["node"]["metadata"]["vnf_id"]
        raw["environment"] = {"flavor": "x" * 1999}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["lint-template", str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["detail"]["findings"] == [
            {
                "rule_id": "required-metadata",
                "severity": "error",
                "location": "node",
                "message": "compute resource 'node' is missing required metadata"
                " 'vnf_id'",
            },
            {
                "rule_id": "env-limit",
                "severity": "error",
                "location": "environment",
                "message": "environment counts 2001 characters including quotes,"
                " limit is 2000",
            },
        ]

    def test_json_mode_prints_machine_payload(self, tmp_path, capsys):
        path = tmp_path / "ok.yaml"
        path.write_text(scenario.minimal_template())
        code = main(["lint-template", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["exit_code"] == 0
        assert payload["detail"]["verdict"] == "accepted"
        assert payload["detail"]["findings"] == []

        root = str(tmp_path / "catalog")
        assert main(["init-testbed", "--json", "--catalog", root]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "tenant-cp" in payload["detail"]["tenants"]
        argv = ["certify-vf", "vf-none", "--as", "designer", "--json", "--catalog", root]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["detail"]["error"] == "RoleDenied"


class TestWorkflow:
    def test_init_testbed_refuses_overwrite_without_force(self, root):
        assert run(["init-testbed", "--catalog", str(root)]).exit_code == 0
        again = run(["init-testbed", "--catalog", str(root)])
        assert again.exit_code == 1
        assert "--force" in again.summary
        forced = run(["init-testbed", "--force", "--catalog", str(root)])
        assert forced.exit_code == 0

    def test_init_testbed_force_refuses_while_services_are_instantiated(self, root):
        """An older build's lab: its inventory holds slice-a's allocations
        and its log's instantiate_service events carry none, so a fresh
        inventory would drop them. Once the slice is down, it drops nothing."""
        _golden_lab(root)
        saved = _lab_bytes(root)
        forced = run(["init-testbed", "--force", "--catalog", str(root)])
        assert forced.exit_code == 1
        assert "instantiated services svc-core-cp, svc-core-dp" in forced.summary
        assert _lab_bytes(root) == saved
        teardown = ["teardown-slice", "slice-a", "--as", "operator"]
        assert run(teardown + ["--catalog", str(root)]).exit_code == 0
        forced = run(["init-testbed", "--force", "--catalog", str(root)])
        assert forced.exit_code == 0
        assert all(
            t.used == ResourceDemand()
            for t in load_inventory(root / "inventory.yaml").tenants.values()
        )

    def test_init_testbed_without_inventory_refuses_while_instantiated(self, root):
        _golden_lab(root)
        (root / "inventory.yaml").unlink()
        saved = _lab_bytes(root)
        refused = run(["init-testbed", "--catalog", str(root)])
        assert refused.exit_code == 1
        assert "instantiated services svc-core-cp, svc-core-dp" in refused.summary
        assert _lab_bytes(root) == saved

    def test_init_testbed_reads_the_audit_log_not_the_catalog(self, root):
        """The log, not catalog.json, says which services are instantiated
        and whether their events carry what they allocate."""
        _golden_lab(root)
        (root / "catalog.json").unlink()
        refused = run(["init-testbed", "--force", "--catalog", str(root)])
        assert refused.exit_code == 1
        assert refused.summary.startswith(f"{root / 'audit.log'} records instantiated")

    def test_init_testbed_mends_a_lab_whose_inventory_is_gone(self, root):
        """A demo lab's events carry its allocations, so a fresh inventory
        loses none of them, with or without --force."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        inventory = (root / "inventory.yaml").read_bytes()
        forced = run(["init-testbed", "--force", "--catalog", str(root)])
        assert forced.exit_code == 0, forced.summary
        assert (root / "inventory.yaml").read_bytes() == inventory
        (root / "inventory.yaml").unlink()
        mended = run(["init-testbed", "--catalog", str(root)])
        assert mended.exit_code == 0, mended.summary
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "tenant-cp on host-cp: used 5/6 vcpu" in status.summary
        teardown = ["teardown-slice", "slice-a", "--as", "operator"]
        assert run(teardown + ["--catalog", str(root)]).exit_code == 0
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "tenant-cp on host-cp: used 0/6 vcpu" in status.summary

    def test_init_testbed_refuses_a_log_a_fresh_inventory_cannot_hold(self, root):
        """A lab whose inventory was edited to hold more than the reference
        testbed: the log's allocation does not fit a fresh one."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        path = root / "inventory.yaml"
        raw = yaml.safe_load(path.read_text())
        (tenant,) = [t for t in raw["tenants"] if t["id"] == "tenant-cp"]
        tenant["quota"]["vcpu"] = 8
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        log = root / "audit.log"
        grown = '"tenant": "tenant-cp", "demand": {"vcpu": 7'
        log.write_text(
            log.read_text().replace('"tenant": "tenant-cp", "demand": {"vcpu": 5', grown)
        )
        assert run(["status", "--catalog", str(root)]).exit_code == 0
        saved = _lab_bytes(root)
        refused = run(["init-testbed", "--force", "--catalog", str(root)])
        assert refused.exit_code == 1
        assert refused.summary.startswith("LogDiverged: audit event 16: tenant 'tenant-cp'")
        assert _lab_bytes(root) == saved

    def test_full_flow_to_teardown(self, root, tmp_path):
        seed_service(root, tmp_path)
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(yaml.safe_dump(descriptor_doc()))
        created = run(["create-slice", str(descriptor), "--catalog", str(root)])
        assert created.exit_code == 0
        assert "created slice slice-p (ready)" in created.summary

        placed = run(["place-slice", "slice-p", "--catalog", str(root)])
        assert placed.exit_code == 0
        assert "svc-probe -> tenant-cp" in placed.summary
        plan_file = root / "plan-slice-p.yaml"
        assert plan_file.exists()

        started = run(
            [
                "instantiate-slice",
                "slice-p",
                "--plan",
                str(plan_file),
                "--as",
                "operator",
                "--catalog",
                str(root),
            ]
        )
        assert started.exit_code == 0
        assert "slice slice-p is now active" in started.summary

        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0
        assert "slice-p: active" in status.summary
        assert "svc-probe: instantiated" in status.summary
        assert "tenant-cp on host-cp: used 2/6 vcpu" in status.summary

        # History entries are audit sequence numbers; follow the last one.
        one = run(["status", "svc-probe", "--catalog", str(root)])
        events = load_audit(root / "audit.log")
        assert events[one.detail["history"][-1] - 1].action == "instantiate_service"

        down = run(
            ["teardown-slice", "slice-p", "--as", "operator", "--catalog", str(root)]
        )
        assert down.exit_code == 0
        assert "terminated" in down.summary
        after = run(["status", "--catalog", str(root)])
        assert "used 0/6 vcpu" in after.summary

    def test_state_survives_between_invocations(self, root, tmp_path):
        # Every command reloads from disk, so the audit sequence must keep
        # counting across separate processes.
        seed_service(root, tmp_path)
        events = load_audit(root / "audit.log")
        assert [e.sequence_no for e in events] == list(range(1, len(events) + 1))
        status = run(["status", "svc-probe", "--catalog", str(root)])
        assert status.detail["state"] == "distributed"

    def test_status_for_unknown_subject(self, root):
        run(["init-testbed", "--catalog", str(root)])
        result = run(["status", "vf-ghost", "--catalog", str(root)])
        assert result.exit_code == 1

    def test_audit_tail_limits_output(self, root, tmp_path):
        seed_service(root, tmp_path)
        tail = run(["audit", "--tail", "3", "--catalog", str(root)])
        assert tail.exit_code == 0
        assert len(tail.detail["events"]) == 3
        assert len(tail.summary.splitlines()) == 3

    @pytest.mark.parametrize("text, reason", BAD_DESCRIPTORS)
    def test_bad_descriptor_is_refused(self, root, tmp_path, text, reason):
        seed_service(root, tmp_path)
        saved = _lab_bytes(root)
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_bytes(text if isinstance(text, bytes) else text.encode())
        result = run(["create-slice", str(descriptor), "--catalog", str(root)])
        assert result.exit_code == 1
        assert result.summary.startswith(f"IoFailure: {descriptor}: ")
        assert reason in result.summary
        assert _lab_bytes(root) == saved
        catalog = _lab_catalog(root)
        assert "slice-p" not in catalog.slices
        assert "c-new" not in catalog.customers
        assert run(["status", "slice-p", "--catalog", str(root)]).exit_code == 1

    @pytest.mark.parametrize(
        "edit, error, reason",
        [
            pytest.param(
                lambda d: d["profile"].update(end_to_end_latency=4.0),
                "SlaViolatesProfile",
                "requirements: end-to-end latency 5.0 ms exceeds the profile limit 4.0 ms",
                id="budgets-past-the-profile",
            ),
            pytest.param(
                lambda d: d["profile"].update(service_availability=0.9999),
                "SlaViolatesProfile",
                "requirements: aggregate availability 0.999 is below profile 0.9999",
                id="availability-below-the-profile",
            ),
            pytest.param(
                lambda d: d["profile"].update(guaranteed_data_rate=60.0),
                "SlaViolatesProfile",
                "requirements: aggregate data rate 50.0 Mbit/s is below profile 60.0",
                id="data-rate-below-the-profile",
            ),
            pytest.param(
                lambda d: (
                    d["slice"].update(chain_order=False),
                    d["profile"].update(end_to_end_latency=4.0),
                ),
                "SlaViolatesProfile",
                "requirements: end-to-end latency 5.0 ms exceeds the profile limit 4.0 ms",
                id="side-by-side-budget-past-the-profile",
            ),
            pytest.param(
                lambda d: d["requirements"].update(
                    {"svc-other": d["requirements"]["svc-probe"]}
                ),
                "UnknownService",
                "requirements: template entry 'svc-other' is not a member",
                id="entry-for-a-non-member",
            ),
            pytest.param(
                lambda d: d["profile"].update(end_to_end_latency=-1.0),
                "InvalidProfile",
                "NetworkSlice field profile: ",
                id="negative-latency",
            ),
            pytest.param(
                lambda d: d["profile"].update(end_to_end_latency=float("nan")),
                "InvalidProfile",
                "NetworkSlice field profile: end_to_end_latency must be > 0 and"
                " finite, got nan",
                id="nan-latency",
            ),
            pytest.param(
                lambda d: d["profile"].update(guaranteed_data_rate=float("nan")),
                "InvalidProfile",
                "NetworkSlice field profile: guaranteed_data_rate must be > 0 and"
                " finite, got nan",
                id="nan-data-rate",
            ),
            pytest.param(
                lambda d: d["profile"].update(end_to_end_latency=float("inf")),
                "InvalidProfile",
                "NetworkSlice field profile: end_to_end_latency must be > 0 and"
                " finite, got inf",
                id="infinite-latency",
            ),
            pytest.param(
                lambda d: d["profile"].update(user_density=float("nan")),
                "InvalidProfile",
                "NetworkSlice field profile: user_density must be finite, got nan",
                id="nan-user-density",
            ),
        ],
    )
    def test_descriptor_refused_by_a_slice_rule_names_the_file(
        self, root, tmp_path, edit, error, reason
    ):
        seed_service(root, tmp_path)
        saved = _lab_bytes(root)
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(edited_descriptor(edit))
        result = run(["create-slice", str(descriptor), "--catalog", str(root)])
        assert result.exit_code == 1
        assert result.summary.startswith(
            f"{error}: {descriptor}: bad slice descriptor: "
        )
        assert reason in result.summary
        assert "slice-p" not in _lab_catalog(root).slices
        assert _lab_bytes(root) == saved

    @pytest.mark.parametrize(
        "section, edit, reason",
        [
            (
                "customer",
                {"name": "Renamed Inc"},
                "differs from the registered Customer(id='c-lab', name='Lab',",
            ),
            (
                "provider",
                {"administrative_domains": ["edge"]},
                "differs from the registered SliceProvider(id='p-lab',",
            ),
        ],
        ids=["renamed-customer", "provider-domains"],
    )
    def test_descriptor_cannot_change_a_registered_entity(
        self, root, tmp_path, section, edit, reason
    ):
        seed_service(root, tmp_path)
        first = tmp_path / "slice-p.yaml"
        first.write_text(yaml.safe_dump(descriptor_doc()))
        assert run(["create-slice", str(first), "--catalog", str(root)]).exit_code == 0
        before = _lab_catalog(root)
        # The same sections again change nothing, and are accepted.
        same = tmp_path / "slice-q.yaml"
        same.write_text(yaml.safe_dump(descriptor_doc(slice_id="slice-q")))
        assert run(["create-slice", str(same), "--catalog", str(root)]).exit_code == 0
        after = _lab_catalog(root)
        assert (after.customers, after.providers) == (before.customers, before.providers)
        saved = _lab_bytes(root)

        doc = descriptor_doc(slice_id="slice-r")
        doc[section].update(edit)
        changed = tmp_path / "slice-r.yaml"
        changed.write_text(yaml.safe_dump(doc))
        result = run(["create-slice", str(changed), "--catalog", str(root)])
        assert result.exit_code == 1
        assert result.summary.startswith(
            f"DuplicateEntry: {changed}: bad slice descriptor: "
        )
        assert reason in result.summary
        assert _lab_bytes(root) == saved

    @pytest.mark.parametrize("argv", DENIED_COMMANDS)
    def test_denied_command_saves_nothing(self, root, tmp_path, argv):
        seed_service(root, tmp_path)
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(yaml.safe_dump(descriptor_doc()))
        assert run(["create-slice", str(descriptor), "--catalog", str(root)]).exit_code == 0
        assert run(["place-slice", "slice-p", "--catalog", str(root)]).exit_code == 0
        # Onboarding a new vendor product and creating a slice with a new
        # customer both register an entity before the gate denies them.
        doc = descriptor_doc(slice_id="slice-q")
        doc["slice"]["customer"] = "c-new"
        (tmp_path / "slice-q.yaml").write_text(yaml.safe_dump(doc))
        saved = _lab_bytes(root)
        del saved["audit.log"]
        events = load_audit(root / "audit.log")

        argv = [arg.format(tmp=tmp_path) for arg in argv]
        result = run(argv + ["--catalog", str(root)])
        assert result.exit_code == 1
        assert result.summary.startswith("RoleDenied")
        assert {name: _lab_bytes(root)[name] for name in saved} == saved
        after = load_audit(root / "audit.log")
        assert after[:-1] == events
        assert after[-1].outcome.value == "denied"

    @pytest.mark.parametrize(
        "name, slice_id",
        [("Slice  A", "slice-slice-a"), ("!!!", "slice-x")],
        ids=["double-space", "no-letters"],
    )
    def test_descriptor_id_is_the_composed_id(self, root, tmp_path, name, slice_id):
        seed_service(root, tmp_path)
        doc = descriptor_doc()
        del doc["slice"]["id"]
        doc["slice"]["name"] = name
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(yaml.safe_dump(doc))
        created = run(["create-slice", str(descriptor), "--catalog", str(root)])
        assert created.exit_code == 0, created.summary
        assert created.detail["slice"] == slice_id

    def test_best_effort_with_every_member_refused_fails(self, root, tmp_path):
        seed_service(root, tmp_path)
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(yaml.safe_dump(descriptor_doc()))
        assert run(["create-slice", str(descriptor), "--catalog", str(root)]).exit_code == 0
        assert run(["place-slice", "slice-p", "--catalog", str(root)]).exit_code == 0
        # Drift after planning: the planned tenant fills up.
        _hold_in_inventory(root, "svc-squatter", "tenant-cp", vcpu=5)
        saved = _lab_bytes(root)
        del saved["audit.log"]
        result = run(
            [
                "instantiate-slice",
                "slice-p",
                "--plan",
                str(root / "plan-slice-p.yaml"),
                "--best-effort",
                "--as",
                "operator",
                "--catalog",
                str(root),
            ]
        )
        assert result.exit_code == 1
        assert result.summary.startswith("PartialFailure")
        assert "svc-probe" in result.summary
        assert {name: _lab_bytes(root)[name] for name in saved} == saved
        trail = [(e.action, e.outcome.value) for e in load_audit(root / "audit.log")]
        assert trail[-2:] == [
            ("instantiate_service", "failed"),
            ("instantiate_slice", "failed"),
        ]

    def test_plan_that_records_nan_latency_is_rejected(self, root, tmp_path):
        seed_service(root, tmp_path)
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(yaml.safe_dump(descriptor_doc()))
        assert run(["create-slice", str(descriptor), "--catalog", str(root)]).exit_code == 0
        assert run(["place-slice", "slice-p", "--catalog", str(root)]).exit_code == 0
        plan = root / "plan-slice-p.yaml"
        doc = yaml.safe_load(plan.read_text())
        doc["e2e_latency"] = float("nan")
        plan.write_text(yaml.safe_dump(doc))
        assert "e2e_latency: .nan" in plan.read_text()
        events = load_audit(root / "audit.log")
        argv = ["instantiate-slice", "slice-p", "--plan", str(plan), "--as", "operator"]
        result = run(argv + ["--catalog", str(root)])
        assert result.exit_code == 1
        assert result.summary == "PlanInvalid: plan rejected: latency_mismatch"
        after = load_audit(root / "audit.log")
        assert after[:-1] == events
        assert (after[-1].action, after[-1].outcome.value) == ("instantiate_slice", "failed")

    def test_infeasible_placement_reports_cleanly(self, root, tmp_path):
        seed_service(root, tmp_path)
        descriptor = tmp_path / "big.yaml"
        descriptor.write_text(
            yaml.safe_dump(descriptor_doc(slice_id="slice-big", vcpu=100))
        )
        assert run(["create-slice", str(descriptor), "--catalog", str(root)]).exit_code == 0
        placed = run(["place-slice", "slice-big", "--catalog", str(root)])
        assert placed.exit_code == 1
        assert "no feasible placement" in placed.summary

    def test_placement_without_tenants_is_infeasible(self, root):
        """An inventory that lists hosts but no tenants offers nothing to
        place on: place-slice exits 1 and writes no plan."""
        for argv in _FLOW[:-3]:
            assert _flow_step(root, argv).exit_code == 0, argv
        inventory = root / "inventory.yaml"
        raw = yaml.safe_load(inventory.read_text())
        assert raw["hosts"] and raw["tenants"]
        inventory.write_text(yaml.safe_dump({**raw, "tenants": []}))
        saved = _lab_bytes(root)
        placed = run(["place-slice", "slice-a", "--catalog", str(root)])
        assert placed.exit_code == 1
        assert placed.summary == "no feasible placement for slice-a"
        assert placed.detail == {"slice": "slice-a", "feasible": False}
        assert not (root / "plan-slice-a.yaml").exists()
        assert _lab_bytes(root) == saved

    def test_unchained_slice_placement_is_refused(self, root, tmp_path):
        seed_service(root, tmp_path)
        doc = descriptor_doc()
        doc["slice"]["chain_order"] = False
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(yaml.safe_dump(doc))
        assert run(["create-slice", str(descriptor), "--catalog", str(root)]).exit_code == 0
        placed = run(["place-slice", "slice-p", "--catalog", str(root)])
        assert placed.exit_code == 1
        assert "PlanInvalid" in placed.summary
        assert "chain order" in placed.summary
        assert not (root / "plan-slice-p.yaml").exists()

    def test_fractional_template_is_refused_and_audited(self, root, tmp_path):
        seed_service(root, tmp_path)
        template = tmp_path / "half.yaml"
        template.write_text(scenario.minimal_template(name="half", vcpu=0.5))
        saved = _lab_bytes(root)
        del saved["audit.log"]
        events = load_audit(root / "audit.log")
        result = run(
            ["onboard-vf", str(template), "--vsp", "vsp-lab", "--catalog", str(root)]
        )
        assert result.exit_code == 1
        assert result.summary.startswith("MissingSizing")
        assert {name: _lab_bytes(root)[name] for name in saved} == saved
        after = load_audit(root / "audit.log")
        assert after[:-1] == events
        assert (after[-1].action, after[-1].outcome.value) == ("onboard_vf", "failed")

    def test_instantiate_slice_needs_an_inventory(self, root, tmp_path):
        seed_service(root, tmp_path)
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(yaml.safe_dump(descriptor_doc()))
        assert run(["create-slice", str(descriptor), "--catalog", str(root)]).exit_code == 0
        assert run(["place-slice", "slice-p", "--catalog", str(root)]).exit_code == 0
        (root / "inventory.yaml").unlink()
        saved = _lab_bytes(root)
        del saved["audit.log"]
        result = run(
            [
                "instantiate-slice",
                "slice-p",
                "--plan",
                str(root / "plan-slice-p.yaml"),
                "--catalog",
                str(root),
            ]
        )
        assert result.exit_code == 1
        assert result.summary.startswith("UnknownEntity")
        assert "init-testbed" in result.summary
        assert {name: _lab_bytes(root)[name] for name in saved} == saved
        last = load_audit(root / "audit.log")[-1]
        assert (last.action, last.outcome.value) == ("instantiate_slice", "failed")

    def test_place_slice_needs_an_inventory(self, root, tmp_path):
        template = tmp_path / "probe.yaml"
        template.write_text(scenario.minimal_template())
        result = run(["place-slice", "slice-p", "--catalog", str(root)])
        assert result.exit_code == 1
        assert "init-testbed" in result.summary


class TestDemo:
    def test_demo_activates_the_bundled_slice(self, root):
        result = run(["demo", "slice-a", "--catalog", str(root)])
        assert result.exit_code == 0
        assert "slice slice-a is active" in result.summary
        assert "svc-core-cp on tenant-cp" in result.summary
        assert "svc-core-dp on tenant-dp" in result.summary
        assert "e2e latency 1.0 ms (profile limit 10.0 ms)" in result.summary
        assert "17 ok" in result.summary

    def test_demo_needs_a_fresh_directory(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        again = run(["demo", "slice-a", "--catalog", str(root)])
        assert again.exit_code == 1
        assert "fresh" in again.summary

    def test_demo_leaves_an_existing_inventory_alone(self, root):
        """demo refuses a directory that holds an inventory.yaml, as it does
        one with a catalog or a log, and keeps the file's bytes."""
        assert run(["init-testbed", "--catalog", str(root)]).exit_code == 0
        path = root / "inventory.yaml"
        path.write_text(path.read_text().replace("site: core", "site: edited", 1))
        kept = _lab_bytes(root)
        result = run(["demo", "slice-a", "--catalog", str(root)])
        assert (result.exit_code, result.summary) == (
            1,
            f"demo needs a fresh catalog directory, found {path}",
        )
        assert _lab_bytes(root) == kept

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_lab_files_follow_the_umask(self, root, umask, mode):
        """Every file a command writes is created 0o666 less the umask, the
        snapshots and blobs as audit.log, so one lab's files agree."""
        old = os.umask(umask)
        try:
            assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        finally:
            os.umask(old)
        names = ["inventory.yaml", "plan-slice-a.yaml", "audit.log"]
        files = [root / name for name in names] + list((root / "blobs").iterdir())
        assert len(files) == 5
        assert not (root / "catalog.json").exists()
        modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in files}
        assert modes == dict.fromkeys(modes, mode)

    def test_demo_is_deterministic_apart_from_timestamps(self, tmp_path):
        roots = [tmp_path / "one", tmp_path / "two"]
        for r in roots:
            assert run(["demo", "slice-a", "--catalog", str(r)]).exit_code == 0
        assert not any((r / "catalog.json").exists() for r in roots)
        blobs = [
            {name: data for name, data in _lab_bytes(r).items() if "blobs/" in name}
            for r in roots
        ]
        assert blobs[0] == blobs[1] and len(blobs[0]) == 2
        traces = []
        for r in roots:
            events = load_audit(r / "audit.log")
            traces.append([{**encode(e), "timestamp": None} for e in events])
        assert traces[0] == traces[1]
        assert len(traces[0]) == 17

    def test_demo_state_is_usable_by_later_commands(self, root):
        run(["demo", "slice-a", "--catalog", str(root)])
        down = run(
            ["teardown-slice", "slice-a", "--as", "operator", "--catalog", str(root)]
        )
        assert down.exit_code == 0
        events = load_audit(root / "audit.log")
        assert [e.sequence_no for e in events] == list(range(1, len(events) + 1))
        assert events[-1].action == "teardown_slice"

    def test_place_slice_reports_budget_warnings(self, root, tmp_path):
        """A hop over a service's latency budget is a warning, not a refusal."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        argv = ["teardown-slice", "slice-a", "--as", "operator", "--catalog", str(root)]
        assert run(argv).exit_code == 0
        doc = yaml.safe_load(
            (ilr.files("slicectl") / "fixtures" / "slice_a.yaml").read_text()
        )
        doc["slice"]["id"] = "slice-w"
        doc["requirements"]["svc-core-cp"]["latency_budget"] = 9.5
        doc["requirements"]["svc-core-dp"]["latency_budget"] = 0.5
        descriptor = tmp_path / "slice-w.yaml"
        descriptor.write_text(yaml.safe_dump(doc))
        assert run(["create-slice", str(descriptor), "--catalog", str(root)]).exit_code == 0

        message = "hop into service 'svc-core-dp' takes 1.0 ms, budget is 0.5 ms"
        placed = run(["place-slice", "slice-w", "--catalog", str(root)])
        assert placed.exit_code == 0, placed.summary
        assert f"  warning [latency_budget_exceeded]: {message}" in (
            placed.summary.splitlines()
        )
        machine = run(["place-slice", "slice-w", "--json", "--catalog", str(root)])
        assert machine.exit_code == 0
        assert machine.detail["warnings"] == [
            {"code": "latency_budget_exceeded", "message": message}
        ]

    def test_slices_come_and_go_without_rewriting_the_inventory(self, root, tmp_path):
        """demo writes a fresh testbed; allocations live in the audit log."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        inventory = (root / "inventory.yaml").read_bytes()
        assert list(yaml.safe_load(inventory)) == ["hosts", "tenants", "links"]
        assert all("used" not in t for t in yaml.safe_load(inventory)["tenants"])
        descriptor = tmp_path / "slice-b.yaml"
        descriptor.write_text(
            Path(_fixture("slice_a.yaml"))
            .read_text()
            .replace("slice-a", "slice-b")
            .replace("svc-core-", "svc-b-")
        )
        steps = [["teardown-slice", "slice-a", "--as", "operator"]]
        for part in ("cp", "dp"):
            service = f"svc-b-{part}"
            steps.append(
                ["create-service", service, "--vf", f"vf-core-{part}", "--id", service]
            )
            steps += [[f"{step}-service", service] for step in _ADVANCE]
        steps += [
            ["create-slice", str(descriptor)],
            ["place-slice", "slice-b"],
            ["instantiate-slice", "slice-b", "--plan", str(root / "plan-slice-b.yaml")],
        ]
        for argv in steps:
            result = run(argv + ["--catalog", str(root)])
            assert result.exit_code == 0, result.summary
        assert (root / "inventory.yaml").read_bytes() == inventory
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "  slice-b: active" in status.summary.splitlines()
        assert "tenant-cp on host-cp: used 5/6 vcpu" in status.summary

    def test_service_listing_a_function_twice_is_refused_and_audited(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        saved = _lab_bytes(root)
        del saved["audit.log"]
        argv = ["create-service", "Dup", "--vf", "vf-core-cp", "--vf", "vf-core-cp"]
        result = run(argv + ["--catalog", str(root)])
        assert result.exit_code == 1, result.summary
        assert "service function list contains duplicates" in result.summary
        last = load_audit(root / "audit.log")[-1]
        assert (last.action, last.subject, last.outcome.value) == (
            "create_service",
            "Dup",
            "failed",
        )
        assert {name: _lab_bytes(root)[name] for name in saved} == saved

    def test_vendor_product_registered_twice_is_refused_and_saves_nothing(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        before = _lab_bytes(root)
        argv = ["onboard-vf", _fixture("core_dp.yaml"), "--vsp", "vsp-clone"]
        argv += ["--vendor", "GreyOp Networks", "--product", "Core CP"]
        result = run(argv + ["--version", "1.0.0", "--catalog", str(root)])
        assert result.exit_code == 1, result.summary
        assert "('GreyOp Networks', 'Core CP', (1, 0, 0)) already registered" in (
            result.summary
        )
        assert _lab_bytes(root) == before

    @pytest.mark.parametrize(
        "options",
        [
            ["--vendor", "Totally Different", "--version", "9.9.9"],
            ["--product", "Core CP 2"],
            ["--version", "1.0.1"],
        ],
        ids=["vendor-and-version", "product", "version"],
    )
    def test_onboard_options_that_differ_from_the_lab_vsp_are_refused(
        self, root, options
    ):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        before = _lab_bytes(root)
        argv = ["onboard-vf", _fixture("core_dp.yaml"), "--vsp", "vsp-core-cp"]
        result = run(argv + options + ["--catalog", str(root)])
        assert result.exit_code == 1, result.summary
        assert result.summary.startswith("DuplicateEntry: VendorSoftwareProduct(")
        assert "differs from the registered" in result.summary
        assert _lab_bytes(root) == before

    def test_onboard_options_that_match_the_lab_vsp_are_accepted(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        argv = ["onboard-vf", _fixture("core_dp.yaml"), "--vsp", "vsp-core-cp"]
        argv += ["--vendor", "GreyOp Networks", "--product", "Core CP"]
        result = run(argv + ["--version", "1.0.0", "--catalog", str(root)])
        assert result.exit_code == 0, result.summary
        onboarded = load_audit(root / "audit.log")[-1]
        assert (onboarded.vsp, onboarded.new_vsp) == ("vsp-core-cp", None)

    def test_status_reports_whether_the_log_agrees(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        agrees = run(["status", "--catalog", str(root)])
        assert agrees.exit_code == 0, agrees.summary
        assert "audit log: agrees with the catalog" in agrees.summary
        assert "tenant-cp on host-cp: used 5/6 vcpu" in agrees.summary
        assert agrees.detail["log"] == {"agrees": True, "problem": None}

        log = root / "audit.log"
        lines = log.read_text().splitlines(keepends=True)
        # Without its last event the log leaves svc-core-dp distributed, and
        # the allocation that event carried is gone with it: each catalog
        # entity still has a record, and what is held is what is recorded.
        # The active slice with a member that is not instantiated is the one
        # problem, and teardown-slice is its fix.
        log.write_text("".join(lines[:-1]))
        short = run(["status", "--catalog", str(root)])
        assert short.exit_code == 1, short.summary
        assert "audit log: agrees with the catalog" in short.summary
        assert short.detail["problems"] == [_HALF_DONE]
        assert short.detail["records"]["svc-core-dp"]["state"] == "distributed"
        assert short.detail["tenants"]["tenant-dp"]["used"] == (0, 0, 0, 0)
        assert short.detail["tenants"]["tenant-cp"]["used"] == (5, 8192, 40, 8)

        # A genesis still can disagree with the log: with catalog.json saved
        # from the whole log, and the log without its last five events,
        # create_slice on, slice-a has no record.
        log.write_text("".join(lines))
        save_catalog(_lab_catalog(root), root / "catalog.json")
        log.write_text("".join(lines[:-5]))
        shorter = run(["status", "--catalog", str(root)])
        assert shorter.exit_code == 1
        assert "audit log: differs from the catalog on slice-a" in shorter.summary
        assert shorter.detail["log"]["agrees"] is False

    def test_forked_log_is_refused_by_every_command_that_opens_it(self, root):
        """A crash after the audit append and before the catalog save, then
        a retry, forked the log of an older build with a second create of
        the same VF. No command opens an engine on it; audit still reads it."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        log = root / "audit.log"
        events = load_audit(log)
        onboard = next(e for e in events if e.action == "onboard_vf")
        fork = replace(onboard, sequence_no=len(events) + 1)
        log.write_text(log.read_text() + json.dumps(encode(fork)) + "\n")
        teardown = ["teardown-slice", "slice-a", "--as", "operator"]
        for argv in (["status"], teardown):
            refused = run(argv + ["--catalog", str(root)])
            assert refused.exit_code == 1
            assert refused.summary.startswith(
                f"LogDiverged: audit event {fork.sequence_no}: "
            )
            assert "already exists" in refused.summary
        assert load_audit(log) == events + [fork]
        audit = run(["audit", "--catalog", str(root)])
        assert audit.exit_code == 0
        assert len(audit.detail["events"]) == fork.sequence_no


GOLDEN = Path(__file__).parent / "golden"


_ADVANCE = ("test", "approve", "distribute")


def _golden_lab(root, catalog: str = "v4/catalog.json") -> None:
    """root as an older build left it: a golden catalog and its blobs
    beside the golden inventory, which lists slice-a's two allocations,
    and the golden audit log, whose events carry none."""
    source = (GOLDEN / catalog).parent
    root.mkdir()
    shutil.copy(GOLDEN / catalog, root / "catalog.json")
    if (source / "blobs").is_dir():
        shutil.copytree(source / "blobs", root / "blobs")
    for name in ("inventory.yaml", "audit.log"):
        shutil.copy(GOLDEN / name, root)


def _hold_in_inventory(root, service: str, tenant: str, vcpu: int) -> None:
    """Add to root's inventory.yaml an allocation of vcpu for service on
    tenant, as an older build stored one; every command holds it."""
    path = root / "inventory.yaml"
    raw = yaml.safe_load(path.read_text())
    demand = {"vcpu": vcpu, "ram": 0, "storage": 0, "ports": 0}
    allocation = {"tenant": tenant, "service": service, "demand": demand}
    raw.setdefault("allocations", []).append(allocation)
    path.write_text(yaml.safe_dump(raw, sort_keys=False))


# What status says of slice-a when instantiate-slice was cut before its
# last append, svc-core-dp's instantiate_service.
_HALF_DONE = (
    "slice-a is active but svc-core-dp is not instantiated;"
    " run teardown-slice slice-a --as operator"
)


def _problems(root) -> list[str]:
    """status's reasons for root, after checking it exits 1 with them."""
    result = run(["status", "--catalog", str(root)])
    assert result.exit_code == 1, result.summary
    problems = result.detail["problems"]
    assert problems
    for reason in problems:
        assert f"problem: {reason}" in result.summary.splitlines()
    return problems


class TestStatusChecks:
    @pytest.mark.parametrize(
        "kept, partial, problems",
        [
            (
                15,
                True,
                [
                    "slice-a is partially_instantiated but svc-core-cp, svc-core-dp"
                    " are not instantiated; run teardown-slice slice-a --as operator"
                ],
            ),
            (16, True, []),
            (
                18,
                False,
                [
                    "slice-a is terminated but svc-core-cp, svc-core-dp are still"
                    " instantiated"
                ],
            ),
        ],
        ids=["partial-with-none", "partial-with-one", "terminated-with-both"],
    )
    def test_half_done_slices_are_named(self, root, kept, partial, problems):
        """The demo log, its slice's event made partially_instantiate_slice
        or a teardown_slice added after its last event, kept through event
        kept. A slice partially instantiated with no member instantiated is
        named with teardown-slice as its fix; one with a member instantiated
        is what --best-effort makes. A terminated slice whose members are
        still instantiated is named without a fix: teardown-slice needs a
        live slice."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        log = root / "audit.log"
        events = [json.loads(line) for line in log.read_text().splitlines()]
        last = {k: v for k, v in events[-1].items() if k not in ("tenant", "demand")}
        events.append(
            dict(
                last,
                sequence_no=18,
                timestamp=last["timestamp"] + 1,
                action="teardown_slice",
                subject="slice-a",
            )
        )
        if partial:
            events[14]["action"] = "partially_instantiate_slice"
        log.write_text("".join(json.dumps(e) + "\n" for e in events[:kept]))
        if problems:
            assert _problems(root) == problems
        else:
            status = run(["status", "--catalog", str(root)])
            assert status.exit_code == 0, status.summary
            assert "  slice-a: partially_instantiated" in status.summary.splitlines()

    def test_tampered_blob_file_is_named(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        digest = _lab_catalog(root).functions["vf-core-dp"].template_ref
        with open(root / "blobs" / digest, "ab") as handle:
            handle.write(b" ")
        assert _problems(root) == [
            f"vf-core-dp: {root / 'blobs' / digest}: template blob {digest[:12]}"
            " does not match its content hash"
        ]

    def test_missing_blob_file_is_named(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        digest = _lab_catalog(root).functions["vf-core-cp"].template_ref
        (root / "blobs" / digest).unlink()
        (problem,) = _problems(root)
        assert problem.startswith(f"vf-core-cp: cannot read {root / 'blobs' / digest}")
        # A write neither needs the blob nor fails for it, and logs nothing
        # that its catalog lacks.
        argv = ["teardown-slice", "slice-a", "--as", "operator", "--catalog", str(root)]
        assert run(argv).exit_code == 0
        assert _problems(root) == [problem]
        assert "audit log: agrees with the catalog" in run(
            ["status", "--catalog", str(root)]
        ).summary

    def test_instantiated_services_without_an_inventory(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        (root / "inventory.yaml").unlink()
        assert _problems(root) == [
            "svc-core-cp is instantiated but holds no allocation",
            "svc-core-dp is instantiated but holds no allocation",
        ]

    def test_terminated_services_that_still_hold_capacity(self, root):
        """An older build's teardown that crashed in its inventory save left
        the golden lab's inventory.yaml listing both allocations after the
        log had terminated their services. The log's terminate_service
        events release them when the lab opens."""
        _golden_lab(root)
        log = root / "audit.log"
        last = load_audit(log)[-1]
        appended = [
            replace(
                last,
                sequence_no=last.sequence_no + n,
                action=action,
                subject=subject,
                timestamp=last.timestamp + n,
            )
            for n, (action, subject) in enumerate(
                [
                    ("terminate_service", "svc-core-cp"),
                    ("terminate_service", "svc-core-dp"),
                    ("teardown_slice", "slice-a"),
                ],
                start=1,
            )
        ]
        with open(log, "a") as handle:
            handle.writelines(json.dumps(encode(e)) + "\n" for e in appended)
        held = load_inventory(root / "inventory.yaml").allocations
        assert sorted(held) == ["svc-core-cp", "svc-core-dp"]
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "tenant-cp on host-cp: used 0/6 vcpu" in status.summary
        assert "  slice-a: terminated" in status.summary.splitlines()
        assert status.detail["problems"] == []

    def test_saving_the_live_inventory_keeps_the_lab(self, root):
        """The inventory saved from an engine whose services hold capacity
        is the topology alone, so the log's fold allocates it once, not on
        top of a saved copy, and a teardown gives it all back."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        save_inventory(_open_engine(root).infra, root / "inventory.yaml")
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "tenant-cp on host-cp: used 5/6 vcpu" in status.summary
        argv = ["teardown-slice", "slice-a", "--as", "operator", "--catalog", str(root)]
        assert run(argv).exit_code == 0
        after = run(["status", "--catalog", str(root)])
        assert after.exit_code == 0, after.summary
        assert "tenant-cp on host-cp: used 0/6 vcpu" in after.summary

    def test_allocations_of_unknown_services_are_not_judged(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        _hold_in_inventory(root, "svc-squatter", "tenant-orch", vcpu=1)
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "tenant-orch on host-orch: used 1/2 vcpu" in status.summary
        assert status.detail["problems"] == []

    def test_a_service_that_is_not_instantiated_but_holds_is_named(self, root, tmp_path):
        """An older inventory's allocation for a catalog service that the
        log never instantiated: the problem names what it holds, and where."""
        seed_service(root, tmp_path)
        _hold_in_inventory(root, "svc-probe", "tenant-orch", vcpu=1)
        assert _problems(root) == [
            "svc-probe is distributed but holds"
            " ResourceDemand(vcpu=1, ram=0, storage=0, ports=0) on tenant-orch"
        ]

    def test_older_lab_converts_on_its_next_write(self, root, tmp_path, monkeypatch):
        """A format-1 lab opens, and its next write converts it in memory:
        the engine holds the fold of the genesis and the log, which saves
        as the version-4 golden with each inline blob as a file. The lab's
        own catalog.json keeps its bytes and inode, and gets no blobs/."""
        _golden_lab(root, "catalog.json")
        before = run(["status", "--catalog", str(root)])
        assert before.exit_code == 0, before.summary
        assert not (root / "blobs").exists()
        path = root / "catalog.json"
        kept = (path.read_bytes(), path.stat().st_ino)
        opened = _opened_engines(monkeypatch)
        argv = ["teardown-slice", "slice-a", "--as", "operator", "--catalog", str(root)]
        assert run(argv).exit_code == 0
        assert (path.read_bytes(), path.stat().st_ino) == kept
        assert not (root / "blobs").exists()
        scenario.assert_live_is_the_fold(opened[-1], _genesis(root))
        converted = tmp_path / "converted" / "catalog.json"
        converted.parent.mkdir()
        save_catalog(opened[-1].catalog, converted)
        text = converted.read_text()
        assert text == (GOLDEN / "v4/catalog.saved.json").read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        raw = json.loads(text)
        assert raw["version"] == 4 and "template_blobs" not in raw
        assert "records" not in raw
        assert not any("components" in f for f in raw["functions"].values())
        blobs = sorted((converted.parent / "blobs").iterdir())
        assert [p.name for p in blobs] == sorted(
            json.loads((GOLDEN / "catalog.json").read_text())["template_blobs"]
        )
        for blob in blobs:
            assert hashlib.sha256(blob.read_bytes()).hexdigest() == blob.name
        after = run(["status", "--catalog", str(root)])
        assert after.exit_code == 0, after.summary
        assert "audit log: agrees with the catalog" in after.summary

    def test_version_2_lab_converts_on_its_next_write(self, root, tmp_path, monkeypatch):
        """A format-2 lab opens, and its next write's engine drops the
        components that format 2 copied out of each template, and the
        records; it saves as the version-4 golden. The lab's catalog.json
        and blobs stay as they were."""
        _golden_lab(root, "v2/catalog.json")
        before = run(["status", "--catalog", str(root)])
        assert before.exit_code == 0, before.summary
        saved = _lab_bytes(root)
        opened = _opened_engines(monkeypatch)
        argv = ["teardown-slice", "slice-a", "--as", "operator", "--catalog", str(root)]
        assert run(argv).exit_code == 0
        after_write = _lab_bytes(root)
        assert after_write.pop("audit.log") != saved.pop("audit.log")
        assert after_write == saved
        scenario.assert_live_is_the_fold(opened[-1], _genesis(root))
        converted = tmp_path / "converted" / "catalog.json"
        converted.parent.mkdir()
        save_catalog(opened[-1].catalog, converted)
        assert converted.read_bytes() == (GOLDEN / "v4/catalog.saved.json").read_bytes()
        raw = json.loads(converted.read_text())
        assert raw["version"] == 4 and "records" not in raw
        assert not any("components" in f for f in raw["functions"].values())
        after = run(["status", "--catalog", str(root)])
        assert after.exit_code == 0, after.summary
        assert "audit log: agrees with the catalog" in after.summary

    @pytest.mark.parametrize(
        "catalog",
        ["catalog.json", "v2/catalog.json", "v3/catalog.json", "v4/catalog.json"],
    )
    def test_golden_catalogs_open_beside_the_older_inventory(self, root, catalog):
        """Each golden catalog opens beside the golden inventory, which
        holds slice-a's allocations and each tenant's `used` as older builds
        wrote them: the use shown is the sum of the allocations, a teardown
        releases them through the log, and inventory.yaml is not rewritten."""
        _golden_lab(root, catalog)
        before = run(["status", "--catalog", str(root)])
        assert before.exit_code == 0, before.summary
        assert "tenant-cp on host-cp: used 5/6 vcpu" in before.summary
        argv = ["teardown-slice", "slice-a", "--as", "operator", "--catalog", str(root)]
        assert run(argv).exit_code == 0
        assert (root / "inventory.yaml").read_bytes() == (
            GOLDEN / "inventory.yaml"
        ).read_bytes()
        after = run(["status", "--catalog", str(root)])
        assert after.exit_code == 0, after.summary
        assert "tenant-cp on host-cp: used 0/6 vcpu" in after.summary
        assert "audit log: agrees with the catalog" in after.summary

    def test_duplicated_allocation_makes_the_inventory_corrupt(self, root):
        _golden_lab(root)
        path = root / "inventory.yaml"
        raw = yaml.safe_load(path.read_text())
        raw["allocations"].append(raw["allocations"][0])
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 1
        assert (
            f"{path}: corrupt inventory: service 'svc-core-cp' already holds one"
            in status.summary
        )

    def test_allocation_the_inventory_cannot_hold_diverges_the_log(self, root):
        """A quota shrunk below what the log allocates on it: every command
        that opens the lab is refused, naming the event; audit still reads
        the log."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        path = root / "inventory.yaml"
        raw = yaml.safe_load(path.read_text())
        (tenant,) = [t for t in raw["tenants"] if t["id"] == "tenant-cp"]
        tenant["quota"]["vcpu"] = 4
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        (event,) = [
            e
            for e in load_audit(root / "audit.log")
            if e.action == "instantiate_service" and e.subject == "svc-core-cp"
        ]
        assert event.tenant == "tenant-cp" and event.demand.vcpu == 5
        for argv in (
            ["status"],
            ["place-slice", "slice-a"],
            ["certify-vf", "vf-core-cp"],
            ["teardown-slice", "slice-a", "--as", "operator"],
        ):
            refused = run(argv + ["--catalog", str(root)])
            assert refused.exit_code == 1, refused.summary
            assert refused.summary.startswith(
                f"LogDiverged: audit event {event.sequence_no}: tenant 'tenant-cp'"
                " cannot hold"
            )
        audit = run(["audit", "--catalog", str(root)])
        assert audit.exit_code == 0
        assert len(audit.detail["events"]) == 17

    @pytest.mark.parametrize("command", ["status", "audit"])
    def test_read_of_a_missing_directory_creates_nothing(self, root, command):
        result = run([command, "--catalog", str(root)])
        assert result.exit_code == 0, result.summary
        assert result.summary.startswith(
            "catalog is empty" if command == "status" else "audit log is empty"
        )
        assert not root.exists()

    @pytest.mark.parametrize("command", ["status", "audit"])
    def test_reads_wait_for_a_writer(self, root, command):
        """status and audit take the lab's lock shared, so they do not
        read while a writer holds it exclusively."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        results = []
        with open(root / ".lock", "a") as writer:
            fcntl.flock(writer.fileno(), fcntl.LOCK_EX)
            reader = threading.Thread(
                target=lambda: results.append(run([command, "--catalog", str(root)]))
            )
            reader.start()
            reader.join(0.5)
            assert reader.is_alive() and not results
            fcntl.flock(writer.fileno(), fcntl.LOCK_UN)
        reader.join(10)
        assert not reader.is_alive()
        assert results[0].exit_code == 0, results[0].summary

    def test_readers_share_the_lock(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        with open(root / ".lock", "a") as other:
            fcntl.flock(other.fileno(), fcntl.LOCK_SH)
            assert run(["status", "--catalog", str(root)]).exit_code == 0


class TestTornAppend:
    """An event is a line that ends in a newline. A failed append cuts the
    log back to its bytes. A final fragment is an append that never
    returned: every command leaves it out, and the next that appends
    truncates it first."""

    def test_cut_last_line(self, root):
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        log = root / "audit.log"
        whole = log.read_bytes()
        last = len(whole.splitlines(keepends=True)[-1])
        prefix = whole[:-last]
        events = load_audit(log)[:-1]
        denied = ["certify-vf", "vf-core-cp", "--as", "designer", "--catalog", str(root)]
        # 1 leaves the line's first byte, last - 1 all of it but its newline.
        for kept in (1, 2, last // 2, last - 2, last - 1):
            log.write_bytes(prefix + whole[-last:][:kept])
            # The torn line is svc-core-dp's instantiate_service: the slice it
            # leaves half done, not the fragment, is status's one problem.
            assert _problems(root) == [_HALF_DONE], kept
            audit = run(["audit", "--catalog", str(root)])
            assert audit.exit_code == 0
            assert audit.detail["events"] == [encode(e) for e in events]
            assert len(audit.summary.splitlines()) == len(events)
            refused = run(denied)
            assert refused.summary.startswith("RoleDenied"), refused.summary
            assert _problems(root) == [_HALF_DONE], kept
            after = load_audit(log)
            assert after[:-1] == events and after[-1].outcome.value == "denied"
            assert log.read_bytes().startswith(prefix)

    def test_fragment_is_reported_and_so_is_its_drop(self, root):
        """On test_cut_last_line's lab, status names the fragment's size
        without changing its exit code, and the command that drops it, with
        its first append, says so in its summary and in --json, whether it
        is denied or succeeds; then no command names one."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        log = root / "audit.log"
        whole = log.read_bytes()
        last = len(whole.splitlines(keepends=True)[-1])
        kept = last // 2
        denied = ["certify-vf", "vf-core-cp", "--as", "designer", "--json"]
        teardown = ["teardown-slice", "slice-a", "--as", "operator", "--json"]
        for argv, code in ((denied, 1), (teardown, 0)):
            log.write_bytes(log.read_bytes() + whole[-last:][:kept])
            status = run(["status", "--catalog", str(root)])
            line = f"audit log: ends in a {kept}-byte fragment that the next write drops"
            assert line in status.summary.splitlines()
            assert status.detail["log"]["fragment_bytes"] == kept
            assert status.exit_code == 0, status.summary
            dropped = run(argv + ["--catalog", str(root)])
            assert dropped.exit_code == code, dropped.summary
            note = f"audit log: dropped its {kept}-byte final fragment"
            assert dropped.summary.splitlines()[-1] == note
            assert dropped.detail["dropped_fragment_bytes"] == kept
            assert log.read_bytes().endswith(b"\n")
            status = run(["status", "--catalog", str(root)])
            assert "fragment" not in status.summary
            assert "fragment_bytes" not in status.detail["log"]
        again = run(denied + ["--catalog", str(root)])
        assert "fragment" not in again.summary
        assert "dropped_fragment_bytes" not in again.detail
        assert run(["status", "--catalog", str(root)]).exit_code == 0

    def test_short_append_in_a_child_process(self, root):
        """A child whose file size limit stops its append part way through
        the line, as a full disk would: it exits 1, its append cuts the log
        back to its bytes, and the next command works."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        log = root / "audit.log"
        whole, events = log.read_bytes(), load_audit(log)
        limit = len(whole) + 100
        code = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))\n"
            "from slicectl.cli import main\n"
            "raise SystemExit(main(sys.argv[2:]))\n"
        )
        denied = ["certify-vf", "vf-core-cp", "--as", "designer", "--catalog", str(root)]
        child = subprocess.run(
            [sys.executable, "-c", code, str(limit), *denied],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert child.returncode == 1, child.stdout + child.stderr
        assert child.stdout.startswith(f"IoFailure: cannot append to {log}: ")
        assert log.read_bytes() == whole
        assert run(["status", "--catalog", str(root)]).exit_code == 0
        assert run(["audit", "--catalog", str(root)]).detail["events"] == [
            encode(e) for e in events
        ]
        assert run(denied).summary.startswith("RoleDenied")
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        after = load_audit(log)
        assert after[:-1] == events and after[-1].outcome.value == "denied"

    @pytest.mark.parametrize(
        "failing, kept",
        [("write", "half"), ("fsync", "half"), ("fsync", "whole")],
        ids=["write", "fsync", "fsync-after-the-whole-line"],
    )
    def test_full_disk_during_an_append(self, root, monkeypatch, failing, kept):
        """A full disk stores part or all of the line, then the append's
        write or its fsync fails with ENOSPC: the command exits 1 with
        IoFailure, the append cuts the log back to its bytes, so nothing is
        committed, and the same command then succeeds."""
        for argv in _FLOW[:3]:
            assert _flow_step(root, argv).exit_code == 0
        log = root / "audit.log"
        whole, events = log.read_bytes(), load_audit(log)
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def write(self, data):
                self.handle.write(data[: len(data) // 2] if kept == "half" else data)
                self.handle.flush()
                if failing == "write":
                    raise full
                return len(data)

        def fsync(fd):
            raise full

        monkeypatch.setattr(store, "open", lambda *a: FullDisk(open(*a)), raising=False)
        if failing == "fsync":
            monkeypatch.setattr(store.os, "fsync", fsync)
        certify = ["certify-vf", "vf-core-cp", "--as", "tester", "--catalog", str(root)]
        refused = run(certify)
        monkeypatch.undo()
        assert refused.exit_code == 1, refused.summary
        assert refused.summary == (
            f"IoFailure: cannot append to {log}:"
            f" [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        )
        assert log.read_bytes() == whole
        status = run(["status", "vf-core-cp", "--catalog", str(root)])
        assert status.summary == "vf-core-cp: vf in state draft", status.summary
        assert run(certify).exit_code == 0
        line = log.read_bytes()[len(whole) :]
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        after = load_audit(log)
        assert after[:-1] == events and after[-1].action == "certify_vf"
        status = run(["status", "vf-core-cp", "--catalog", str(root)])
        assert status.summary == "vf-core-cp: vf in state certified", status.summary


def _fixture(name: str) -> str:
    return str(ilr.files("slicectl") / "fixtures" / name)


def _crash_after_the_last_append(monkeypatch, root) -> list[dict]:
    """Cut the next command right after its last audit append: every
    lifecycle command's last step is _record_result, which now raises.
    Returns the lab's bytes after each append, so a test can show that
    nothing was written between the last append and the cut."""
    appended = []
    append = FileAuditLog.append

    def spy(self, event):
        append(self, event)
        appended.append(_lab_bytes(root))

    def crash(*args, **kwargs):
        raise OSError("simulated crash after the last append")

    monkeypatch.setattr(FileAuditLog, "append", spy)
    monkeypatch.setattr("slicectl.cli._record_result", crash)
    return appended


def _crash_after_append(monkeypatch, count: int) -> None:
    """Cut the next command right after its count-th audit append."""
    appended = []
    append = FileAuditLog.append

    def cut(self, event):
        append(self, event)
        appended.append(event)
        if len(appended) == count:
            raise OSError(f"simulated crash after append {count}")

    monkeypatch.setattr(FileAuditLog, "append", cut)


# The README's flow on a fresh lab, which TestCrashes cuts at one command.
# The last distribute-service also logs slice_ready.
_FLOW = [
    ["init-testbed"],
    ["onboard-vf", _fixture("core_cp.yaml"), "--vsp", "vsp-core-cp"],
    ["onboard-vf", _fixture("core_dp.yaml"), "--vsp", "vsp-core-dp"],
    ["certify-vf", "vf-core-cp"],
    ["certify-vf", "vf-core-dp"],
    ["create-service", "Core CP", "--vf", "vf-core-cp", "--id", "svc-core-cp"],
    ["create-service", "Core DP", "--vf", "vf-core-dp", "--id", "svc-core-dp"],
    ["create-slice", _fixture("slice_a.yaml")],
    *(
        [f"{step}-service", service]
        for service in ("svc-core-cp", "svc-core-dp")
        for step in _ADVANCE
    ),
    ["place-slice", "slice-a"],
    ["instantiate-slice", "slice-a", "--plan", "PLAN", "--as", "operator"],
    ["teardown-slice", "slice-a", "--as", "operator"],
]


def _flow_step(root, argv: list[str]):
    plan = str(root / "plan-slice-a.yaml")
    return run([plan if a == "PLAN" else a for a in argv] + ["--catalog", str(root)])


def _use_by_the_log(root) -> dict[str, tuple[int, ...]]:
    """Each tenant's use, read from the raw audit lines apart from the
    engine: what ok instantiate_service events allocate, less what their
    services' terminate_service events give back."""
    held: dict[str, tuple[str, tuple[int, ...]]] = {}
    for line in (root / "audit.log").read_text().splitlines():
        event = json.loads(line)
        if event["outcome"] != "ok":
            continue
        if event["action"] == "instantiate_service":
            demand = event["demand"]
            held[event["subject"]] = (
                event["tenant"],
                tuple(demand[k] for k in ("vcpu", "ram", "storage", "ports")),
            )
        elif event["action"] == "terminate_service":
            held.pop(event["subject"], None)
    use = {t: (0, 0, 0, 0) for t in ("tenant-orch", "tenant-cp", "tenant-dp")}
    for tenant, demand in held.values():
        use[tenant] = tuple(a + b for a, b in zip(use[tenant], demand))
    return use


def _seeded_lab(root, vfs: int = 12) -> None:
    """A lab laid out as the benchmark's cli-catalog seeds one: an engine in
    process logs its onboard and certify events to audit.log, then
    catalog.json and inventory.yaml are saved from it, so the genesis and
    the log carry the same entities."""
    root.mkdir()
    engine = Orchestrator(
        build_testbed(),
        catalog=Catalog(),
        audit_sink=FileAuditLog(root / "audit.log").append,
    )
    engine.register_vsp(
        VendorSoftwareProduct(
            id="vsp-seed", vendor_name="Seed", product_name="seed", version=(1, 0, 0)
        )
    )
    for index in range(vfs):
        text = scenario.minimal_template(name=f"seed-{index}")
        vf = engine.onboard_vf(Role.DESIGNER, "vsp-seed", text).subject
        if index % 2 == 0:
            engine.certify_vf(Role.TESTER, vf)
    save_catalog(engine.catalog, root / "catalog.json")
    save_inventory(engine.infra, root / "inventory.yaml")


def _status(root) -> tuple[int, dict]:
    result = run(["status", "--json", "--catalog", str(root)])
    return result.exit_code, result.detail


def _opened_engines(monkeypatch) -> list[Orchestrator]:
    """Each engine a command opens from now on, kept as the command leaves
    it: the live engine of that command."""
    opened = []
    real = cli._open_engine

    def open_engine(root):
        opened.append(real(root))
        return opened[-1]

    monkeypatch.setattr(cli, "_open_engine", open_engine)
    return opened


def _genesis(root):
    """A fresh load of root's catalog.json, or None where there is none."""
    path = root / "catalog.json"
    return load_catalog(path) if path.exists() else None


class TestGenesis:
    """catalog.json is a genesis: read if it is there, in any format,
    rewritten by no command, and not needed, since the log's events carry
    every entity a command makes or registers. After every command, the
    catalog the command leaves is the fold of the genesis and the log."""

    def test_readme_flow_writes_no_catalog(self, root, monkeypatch):
        opened = _opened_engines(monkeypatch)
        for argv in _FLOW:
            result = _flow_step(root, argv)
            assert result.exit_code == 0, (argv, result.summary)
            assert not (root / "catalog.json").exists(), argv
            for engine in opened:  # none for lint-template
                scenario.assert_live_is_the_fold(engine)
            code, detail = _status(root)
            opened.clear()
            assert code == 0 and detail["log"]["agrees"], (argv, detail)
        catalog = _lab_catalog(root)
        assert sorted(catalog.functions) == ["vf-core-cp", "vf-core-dp"]
        assert sorted(catalog.services) == ["svc-core-cp", "svc-core-dp"]
        assert catalog.slices["slice-a"].sla.committed_latency == 10.0
        assert sorted(catalog.customers) == ["c-companyx"]
        # A VSP onboard-vf registers takes its defaults where no option is given.
        assert catalog.vsps["vsp-core-cp"] == VendorSoftwareProduct(
            "vsp-core-cp", "unknown-vendor", "vsp-core-cp", (1, 0, 0)
        )

    def test_genesis_and_log_with_the_same_entities_open_as_the_log_alone(
        self, root, tmp_path, monkeypatch
    ):
        """The benchmark's layout opens as its log alone does, and a README
        pass gives the same exit codes and status at every step on both."""
        _seeded_lab(root)
        bare = tmp_path / "bare"
        shutil.copytree(root, bare)
        (bare / "catalog.json").unlink()
        genesis = (root / "catalog.json").read_bytes()
        assert _status(root) == _status(bare)
        assert _status(root)[0] == 0
        assert _lab_catalog(root) == _lab_catalog(bare)
        # The first onboard carried the VSP; each names it.
        onboards = [e for e in load_audit(bare / "audit.log") if e.vsp is not None]
        assert [e.vsp for e in onboards] == ["vsp-seed"] * 12
        assert onboards[0].new_vsp == _lab_catalog(bare).vsps["vsp-seed"]
        assert not any(e.new_vsp for e in onboards[1:])
        opened = _opened_engines(monkeypatch)
        for argv in _FLOW[1:]:
            results = []
            for lab in (root, bare):
                results.append(_flow_step(lab, argv))
                scenario.assert_live_is_the_fold(opened[-1], _genesis(lab))
            assert [r.exit_code for r in results] == [0, 0], argv
            for result in results:
                result.detail.pop("plan_file", None)  # a path in its lab
            assert results[0].detail == results[1].detail
            assert _status(root) == _status(bare), argv
        assert (root / "catalog.json").read_bytes() == genesis
        assert not (bare / "catalog.json").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw["vsps"]["vsp-seed"].update(vendor_name="Other"),
            lambda raw: raw["functions"]["vf-seed-3"].update(template_ref="0" * 64),
        ],
        ids=["vsp-vendor", "function-template"],
    )
    def test_genesis_entity_that_differs_from_the_log_diverges(self, root, edit):
        """Every command that folds the log, init-testbed's check included,
        refuses the lab, and every lab file keeps its bytes."""
        _seeded_lab(root)
        path = root / "catalog.json"
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))
        saved = _lab_bytes(root)
        assert saved["inventory.yaml"] is not None
        for argv in (["status"], ["certify-vf", "vf-seed-1"], ["init-testbed", "--force"]):
            refused = run(argv + ["--catalog", str(root)])
            assert refused.exit_code == 1, refused.summary
            assert refused.summary.startswith("LogDiverged: audit event ")
            assert "differs from the catalog's" in refused.summary
        assert _lab_bytes(root) == saved
        assert run(["audit", "--catalog", str(root)]).exit_code == 0

    @pytest.mark.parametrize(
        "catalog",
        [
            "catalog.json",
            "catalog.compact.json",
            "v2/catalog.json",
            "v3/catalog.json",
            "v4/catalog.json",
        ],
    )
    def test_golden_genesis_stays_put(self, root, tmp_path, monkeypatch, catalog):
        """Eleven lifecycle commands on each golden lab leave catalog.json's
        bytes and inode alone and write no catalog.json at all; status
        agrees after each. A version-1 genesis serves its blobs inline,
        so blobs/ holds only the new onboard's."""
        _golden_lab(root, catalog)
        template = tmp_path / "probe.yaml"
        template.write_text(scenario.minimal_template())
        digest = hashlib.sha256(template.read_bytes()).hexdigest()
        descriptor = tmp_path / "slice.yaml"
        descriptor.write_text(yaml.safe_dump(descriptor_doc()))
        path = root / "catalog.json"
        kept = (path.read_bytes(), path.stat().st_ino)
        blobs = root / "blobs"
        genesis_blobs = {p.name for p in blobs.iterdir()} if blobs.is_dir() else set()
        written = []
        real_write = store._write_file
        monkeypatch.setattr(
            store, "_write_file", lambda p, d: (written.append(p.name), real_write(p, d))
        )
        steps = [
            ["teardown-slice", "slice-a", "--as", "operator"],
            ["onboard-vf", str(template), "--vsp", "vsp-lab"],
            ["certify-vf", "vf-probe"],
            ["create-service", "probe", "--vf", "vf-probe"],
            *([f"{step}-service", "svc-probe"] for step in _ADVANCE),
            ["create-slice", str(descriptor)],
            ["place-slice", "slice-p"],
            ["instantiate-slice", "slice-p", "--plan", str(root / "plan-slice-p.yaml")],
            ["teardown-slice", "slice-p", "--as", "operator"],
        ]
        for argv in steps:
            result = run(argv + ["--catalog", str(root)])
            assert result.exit_code == 0, (argv, result.summary)
            assert (path.read_bytes(), path.stat().st_ino) == kept, argv
            code, detail = _status(root)
            assert code == 0 and detail["log"]["agrees"], (argv, detail)
        assert "catalog.json" not in written
        assert {p.name for p in blobs.iterdir()} == genesis_blobs | {digest}
        assert detail["records"]["slice-p"]["state"] == "terminated"
        assert detail["records"]["slice-a"]["state"] == "terminated"

    def test_log_an_older_build_wrote_opens(self, root):
        """golden/log-only is a demo lab an older build wrote, with no
        catalog.json: each onboard_vf event that carries a VSP gives it an
        empty owned_resources, a key this build drops unread."""
        shutil.copytree(GOLDEN / "log-only", root)
        assert (root / "audit.log").read_text().count('"owned_resources": []') == 2
        code, detail = _status(root)
        assert code == 0 and detail["log"]["agrees"], detail
        assert detail["records"]["slice-a"]["state"] == "active"
        argv = ["teardown-slice", "slice-a", "--as", "operator", "--catalog", str(root)]
        assert run(argv).exit_code == 0
        code, detail = _status(root)
        assert code == 0 and detail["records"]["slice-a"]["state"] == "terminated"
        assert sorted(_lab_catalog(root).vsps) == ["vsp-core-cp", "vsp-core-dp"]


class TestCrashes:
    """A crash right after a command's last audit append. Each ok event
    carries what it creates and a blob is a file before its event, so the
    lab the crash leaves is the lab the whole command leaves."""

    @pytest.mark.parametrize(
        "crashed",
        [
            _FLOW[2],
            ["certify-vf", "vf-core-dp"],
            _FLOW[6],
            _FLOW[7],
            ["test-service", "svc-core-dp"],
            ["approve-service", "svc-core-dp"],
            ["distribute-service", "svc-core-dp"],
            _FLOW[-2],
            _FLOW[-1],
        ],
        ids=lambda argv: argv[0],
    )
    def test_crash_in_a_command_that_changes_only_the_log(
        self, root, tmp_path, monkeypatch, crashed
    ):
        """status agrees with the log, shows the records, entities and each
        tenant's use that the command run whole leaves on another lab, and
        each tenant's use is what the log allocates."""
        whole = tmp_path / "whole"
        at = _FLOW.index(crashed)
        for lab in (root, whole):
            for argv in _FLOW[:at]:
                result = _flow_step(lab, argv)
                assert result.exit_code == 0, result.summary
        assert _flow_step(whole, crashed).exit_code == 0
        logged = len(load_audit(root / "audit.log"))
        appended = _crash_after_the_last_append(monkeypatch, root)
        assert _flow_step(root, crashed).exit_code == 3
        monkeypatch.undo()
        assert _lab_bytes(root) == appended[-1]
        events = load_audit(root / "audit.log")
        assert crashed[0].replace("-", "_") in {e.action for e in events[logged:]}
        status = run(["status", "--json", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "audit log: agrees with the catalog" in status.summary.splitlines()
        assert status.detail == run(["status", "--catalog", str(whole)]).detail
        assert status.detail["records"] == {
            subject: {"kind": r.kind.value, "state": r.state.value}
            for subject, r in replay_states(events).items()
        }
        assert {
            tenant: shown["used"] for tenant, shown in status.detail["tenants"].items()
        } == _use_by_the_log(root)
        assert _lab_catalog(root) == _lab_catalog(whole)

    def test_crash_inside_instantiate_slice(self, root, monkeypatch):
        for argv in _FLOW[:-2]:
            result = _flow_step(root, argv)
            assert result.exit_code == 0, result.summary
        appended = _crash_after_the_last_append(monkeypatch, root)
        assert _flow_step(root, _FLOW[-2]).exit_code == 3
        monkeypatch.undo()
        assert _lab_bytes(root) == appended[-1]
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "  slice-a: active" in status.summary.splitlines()
        assert "tenant-cp on host-cp: used 5/6 vcpu" in status.summary
        assert status.detail["problems"] == []

        down = _flow_step(root, _FLOW[-1])
        assert down.exit_code == 0, down.summary
        after = run(["status", "--catalog", str(root)])
        assert after.exit_code == 0, after.summary
        assert "audit log: agrees with the catalog" in after.summary.splitlines()
        assert "tenant-cp on host-cp: used 0/6 vcpu" in after.summary

    @pytest.mark.parametrize(
        "cut, count",
        [(_FLOW[-2], 1), (_FLOW[-2], 2), (_FLOW[-1], 1), (_FLOW[-1], 2)],
        ids=lambda arg: arg[0] if isinstance(arg, list) else f"after-append-{arg}",
    )
    def test_teardown_mends_a_cut_between_appends(self, root, monkeypatch, cut, count):
        """instantiate-slice and teardown-slice each append three events. A
        cut after an earlier one leaves an active slice with a member that
        is not instantiated, which status names with its fix, and a lab
        that teardown-slice mends: the slice is terminated, every member
        that was instantiated is terminated, one never instantiated stays
        distributed, and no tenant holds anything."""
        for argv in _FLOW[: _FLOW.index(cut)]:
            result = _flow_step(root, argv)
            assert result.exit_code == 0, result.summary
        logged = len(load_audit(root / "audit.log"))
        _crash_after_append(monkeypatch, count)
        assert _flow_step(root, cut).exit_code == 3
        monkeypatch.undo()
        events = load_audit(root / "audit.log")
        assert len(events) == logged + count
        instantiated = {e.subject for e in events if e.action == "instantiate_service"}
        records = replay_states(events)
        idle = [
            member
            for member in ("svc-core-cp", "svc-core-dp")
            if records[member].state.value != "instantiated"
        ]
        assert records["slice-a"].state.value == "active" and idle
        verb = "is" if len(idle) == 1 else "are"
        assert _problems(root) == [
            f"slice-a is active but {', '.join(idle)} {verb} not instantiated;"
            " run teardown-slice slice-a --as operator"
        ]

        down = _flow_step(root, _FLOW[-1])
        assert down.exit_code == 0, down.summary
        status = run(["status", "--json", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        records = status.detail["records"]
        assert records["slice-a"]["state"] == "terminated"
        for member in ("svc-core-cp", "svc-core-dp"):
            held = "terminated" if member in instantiated else "distributed"
            assert records[member]["state"] == held, member
        assert not any(any(shown["used"]) for shown in status.detail["tenants"].values())

    def test_crash_inside_onboard_vf_then_a_retry(self, root, monkeypatch):
        """The crashed onboard left its VF whole, blob and function, so the
        retry onboards the same template as a third VF and status agrees."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        argv = ["onboard-vf", _fixture("core_dp.yaml"), "--vsp", "vsp-core-dp"]
        argv += ["--catalog", str(root)]
        appended = _crash_after_the_last_append(monkeypatch, root)
        assert run(argv).exit_code == 3
        monkeypatch.undo()
        assert _lab_bytes(root) == appended[-1]
        retry = run(argv)
        assert retry.exit_code == 0, retry.summary
        assert retry.detail["vf"] == "vf-core-dp-3"
        replay_states(load_audit(root / "audit.log"))
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        assert "audit log: agrees with the catalog" in status.summary.splitlines()
        assert "  vf-core-dp-2: draft" in status.summary.splitlines()
        events = load_audit(root / "audit.log")
        onboards = [e for e in events if e.vsp == "vsp-core-dp"]
        assert [e.subject for e in onboards] == [f"vf-core-dp{n}" for n in ("", "-2", "-3")]
        assert [e.new_vsp is None for e in onboards] == [False, True, True]


# The labs whose commands must not depend on a checkpoint: each golden lab
# an older build left, and one made as the benchmark makes its lab, whose
# log is long enough for a command to write a checkpoint of it.
_LABS = [
    "catalog.json",
    "catalog.compact.json",
    "v2/catalog.json",
    "v3/catalog.json",
    "v4/catalog.json",
    "log-only",
    "generated",
]


@pytest.fixture(scope="module")
def generated_lab(tmp_path_factory):
    """A _seeded_lab with at least CHECKPOINT_MIN_EVENTS events."""
    root = tmp_path_factory.mktemp("generated") / "lab"
    _seeded_lab(root, vfs=-(-2 * cli.CHECKPOINT_MIN_EVENTS // 3))
    assert len(load_audit(root / "audit.log")) >= cli.CHECKPOINT_MIN_EVENTS
    return root


def _make_lab(root, lab: str, generated) -> None:
    if lab == "generated":
        shutil.copytree(generated, root)
    elif lab == "log-only":
        shutil.copytree(GOLDEN / "log-only", root)
    else:
        _golden_lab(root, lab)


def _write_checkpoint(root) -> bool:
    """Write root's checkpoint as a command that ends does; whether it did:
    a version-1 genesis, which holds its blobs inline, gets none."""
    cli._save_checkpoint(root, _open_engine(root))
    return (root / "checkpoint.json").exists()


def _reindent_catalog(root) -> None:
    path = root / "catalog.json"
    if path.exists():
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1))


def _cut_log(root) -> None:
    lines = (root / "audit.log").read_bytes().splitlines(keepends=True)
    (root / "audit.log").write_bytes(b"".join(lines[:-1]))


def _tear_checkpoint(share: float):
    def tear(root) -> None:
        path = root / "checkpoint.json"
        data = path.read_bytes()
        path.write_bytes(data[: max(1, min(len(data) - 1, int(len(data) * share)))])

    return tear


# Changes to a lab, made the same way on a lab that has a checkpoint and on
# one that never had one.
_CHANGES = {
    "none": lambda root: None,
    "log-cut": _cut_log,
    "init-testbed": lambda root: run(["init-testbed", "--force", "--catalog", str(root)]),
    "catalog-edit": _reindent_catalog,
}


def _delete_checkpoint(root) -> None:
    (root / "checkpoint.json").unlink()


# (change to the lab, what then happens to its checkpoint).
_CHECKPOINT_CASES = [
    ("none", None),
    ("none", _delete_checkpoint),
    ("none", _tear_checkpoint(0.0)),
    ("none", _tear_checkpoint(0.5)),
    ("none", _tear_checkpoint(1.0)),
    ("log-cut", None),
    ("init-testbed", None),
    ("catalog-edit", None),
]


def _comparable(argv: list[str], result) -> tuple:
    """A command's exit code and output, less what may differ between two
    runs or says what status found of a checkpoint: its line and key, and
    each audit event's instant."""
    summary = [
        line for line in result.summary.splitlines() if not line.startswith("checkpoint:")
    ]
    detail = dict(result.detail or {})
    detail.pop("checkpoint", None)
    if "events" in detail:
        detail["events"] = [
            {k: v for k, v in e.items() if k != "timestamp"} for e in detail["events"]
        ]
    return argv[0], result.exit_code, summary, detail


def _checkpoint_run(root, monkeypatch, min_events: int) -> list[tuple]:
    """The README flow, status --json and audit --tail 20 --json on root,
    with commands writing a checkpoint from min_events folded events."""
    monkeypatch.setattr(cli, "CHECKPOINT_MIN_EVENTS", min_events)
    steps = [*_FLOW, ["status", "--json"], ["audit", "--tail", "20", "--json"]]
    return [_comparable(argv, _flow_step(root, argv)) for argv in steps]


class TestCheckpoint:
    """checkpoint.json is derived state: whether it is there, deleted, torn
    or made stale, no command's exit code or output changes."""

    @pytest.mark.parametrize("lab", _LABS)
    def test_commands_do_not_depend_on_the_checkpoint(
        self, root, monkeypatch, generated_lab, lab
    ):
        """Each case runs the same commands on the same lab, changed the
        same way, as one that never had a checkpoint: with the checkpoint
        as a command leaves it, deleted, torn at its first byte, its middle
        and its last, or made stale by a cut of the log below it, by
        init-testbed --force or by an edit of catalog.json. Every ok
        command there rewrites it once it has folded an event."""
        never = {}
        for change, _ in _CHECKPOINT_CASES:
            if change not in never:
                shutil.rmtree(root, ignore_errors=True)
                _make_lab(root, lab, generated_lab)
                _CHANGES[change](root)
                never[change] = _checkpoint_run(root, monkeypatch, 10**9)
                assert not (root / "checkpoint.json").exists()
        for change, damage in _CHECKPOINT_CASES:
            shutil.rmtree(root, ignore_errors=True)
            _make_lab(root, lab, generated_lab)
            written = _write_checkpoint(root)
            assert written == (lab not in ("catalog.json", "catalog.compact.json"))
            if not written:
                assert _checkpoint_run(root, monkeypatch, 1) == never[change]
                assert not (root / "checkpoint.json").exists()
                break
            inventory = (root / "inventory.yaml").read_bytes()
            _CHANGES[change](root)
            if damage is not None:
                damage(root)
            # A file that is gone reads as none; one torn or tagged with
            # files that have changed since, as stale.
            stale = damage is not None or change in ("log-cut", "catalog-edit")
            if change == "init-testbed":
                stale = (root / "inventory.yaml").read_bytes() != inventory
            if lab == "log-only" and change == "catalog-edit":
                stale = False  # it has no catalog.json
            state = "stale" if stale else "agrees"
            if damage is _delete_checkpoint:
                state = None
            found = _status(root)[1].get("checkpoint")
            assert (found or {}).get("state") == state, (change, found)
            assert _checkpoint_run(root, monkeypatch, 1) == never[change], change

    def test_a_long_lab_opens_from_its_first_writers_checkpoint(
        self, root, monkeypatch, generated_lab
    ):
        """status, a denied command and a lab below CHECKPOINT_MIN_EVENTS
        write none; the first ok command on a long log writes one, after
        its last append, and the next opens from it, reading neither
        catalog.json, inventory.yaml nor the log through a full load, and
        does not rewrite it."""
        shutil.copytree(generated_lab, root)
        read = []
        for name in ("load_audit", "load_catalog", "load_inventory"):
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda path, real=real, name=name: (read.append(name), real(path))[1]
            )
        checkpoint = root / "checkpoint.json"
        assert run(["status", "--catalog", str(root)]).exit_code == 0
        denied = run(["certify-vf", "vf-seed-1", "--as", "designer", "--catalog", str(root)])
        assert denied.exit_code == 1 and not checkpoint.exists()
        read.clear()
        certified = run(["certify-vf", "vf-seed-1", "--as", "tester", "--catalog", str(root)])
        assert certified.exit_code == 0, certified.summary
        assert sorted(read) == ["load_audit", "load_catalog", "load_inventory"]
        events = load_audit(root / "audit.log")
        saved = json.loads(checkpoint.read_text())
        assert saved["tags"]["log_bytes"] == (root / "audit.log").stat().st_size
        assert sorted(saved["fold"]) == ["catalog", "inventory", "records"]
        assert read_checkpoint(root)[1] == events[-1]
        kept = checkpoint.read_bytes()
        read.clear()
        opened = _opened_engines(monkeypatch)
        argv = ["certify-vf", "vf-seed-3", "--as", "tester", "--catalog", str(root)]
        assert run(argv).exit_code == 0
        assert read == [] and opened[0].events == load_audit(root / "audit.log")[-1:]
        assert checkpoint.read_bytes() == kept
        status = run(["status", "--catalog", str(root)])
        assert status.exit_code == 0, status.summary
        line = f"checkpoint: agrees with the log through event {len(events)}"
        assert line in status.summary.splitlines()
        assert status.detail["checkpoint"] == {"state": "agrees", "through": len(events)}

        demo = root.parent / "demo"
        assert run(["demo", "slice-a", "--catalog", str(demo)]).exit_code == 0
        for argv in _FLOW[-1:]:
            assert _flow_step(demo, argv).exit_code == 0
        assert sorted(p.name for p in demo.iterdir()) == [
            ".lock",
            "audit.log",
            "blobs",
            "inventory.yaml",
            "plan-slice-a.yaml",
        ]

    def test_place_slice_writes_the_checkpoint_like_every_writer(
        self, root, monkeypatch
    ):
        """place-slice opens the lab as every writer does, so one that
        folded CHECKPOINT_MIN_EVENTS events leaves a checkpoint when it
        returns, here with no plan, as slice-a's tenants are full; status
        finds that it agrees with the log, and the next command opens from
        it and folds only what comes after."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        monkeypatch.setattr(cli, "CHECKPOINT_MIN_EVENTS", 1)
        placed = _flow_step(root, ["place-slice", "slice-a"])
        assert placed.summary == "no feasible placement for slice-a"
        assert placed.exit_code == 1 and (root / "checkpoint.json").exists()
        code, found = _status(root)
        assert code == 0 and found["checkpoint"] == {"state": "agrees", "through": 17}
        opened = _opened_engines(monkeypatch)
        argv = ["teardown-slice", "slice-a", "--as", "operator"]
        assert _flow_step(root, argv).exit_code == 0
        assert opened[0].events == load_audit(root / "audit.log")[17:]

    def test_checkpoint_that_differs_from_the_fold_is_a_problem(self, root):
        """A checkpoint whose tags match but whose fold is not the log's is
        named by status, with deleting it as the fix."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        assert _write_checkpoint(root)
        path = root / "checkpoint.json"
        raw = json.loads(path.read_text())
        raw["fold"]["records"]["slice-a"][1] = "terminated"
        path.write_text(json.dumps(raw))
        assert _problems(root) == [
            "checkpoint.json differs from the fold of the log through event 17;"
            " delete it"
        ]
        status = run(["status", "--catalog", str(root)])
        assert "checkpoint: differs from the log through event 17" in status.summary
        path.unlink()
        after = run(["status", "--catalog", str(root)])
        assert after.exit_code == 0, after.summary
        assert "checkpoint" not in after.summary and "checkpoint" not in after.detail

    def test_checkpoint_whose_history_does_not_decode_is_ignored(self, root, tmp_path):
        """A checkpoint whose tags match but whose record history is not a
        list of whole numbers reads as none: teardown-slice gives what it
        gives with the checkpoint deleted, not an internal error, and status
        still names the checkpoint."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        assert _write_checkpoint(root)
        path = root / "checkpoint.json"
        raw = json.loads(path.read_text())
        raw["fold"]["records"]["slice-a"][2] = "x"
        path.write_text(json.dumps(raw))
        deleted = tmp_path / "deleted"
        shutil.copytree(root, deleted)
        (deleted / "checkpoint.json").unlink()
        argv = ["teardown-slice", "slice-a", "--as", "operator"]
        results = [_flow_step(lab, argv) for lab in (root, deleted)]
        assert results[0].exit_code == 0, results[0].summary
        assert _comparable(argv, results[0]) == _comparable(argv, results[1])
        assert _status(deleted)[0] == 0
        assert _problems(root) == [
            "checkpoint.json differs from the fold of the log through event 17;"
            " delete it"
        ]

    def test_forged_end_is_ignored(self, root, tmp_path):
        """The log says where a checkpoint's fold ends: a fold that also
        claims to end at event 5 is not the log's fold, so status names it,
        and a command numbers its events after the log's last, as it does
        with the checkpoint deleted."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        assert _write_checkpoint(root)
        fifth = load_audit(root / "audit.log")[4]
        path = root / "checkpoint.json"
        raw = json.loads(path.read_text())
        raw["fold"]["last"] = [fifth.sequence_no, fifth.timestamp]
        path.write_text(json.dumps(raw))
        differs = [
            "checkpoint.json differs from the fold of the log through event 17;"
            " delete it"
        ]
        assert _problems(root) == differs
        deleted = tmp_path / "deleted"
        shutil.copytree(root, deleted)
        (deleted / "checkpoint.json").unlink()
        argv = ["teardown-slice", "slice-a", "--as", "operator"]
        results = [_flow_step(lab, argv) for lab in (root, deleted)]
        assert results[0].exit_code == 0, results[0].summary
        assert _comparable(argv, results[0]) == _comparable(argv, results[1])
        numbers = [e.sequence_no for e in load_audit(root / "audit.log")]
        assert numbers == list(range(1, 21))
        assert _problems(root) == differs
        path.unlink()
        assert _status(root)[0] == 0

    def test_offset_in_a_line_is_ignored(self, root, tmp_path):
        """A checkpoint whose tags match but whose offset falls inside a
        line of the log reads as none: status SUBJECT and teardown-slice
        give what they give with the checkpoint deleted."""
        assert run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
        assert _write_checkpoint(root)
        log = (root / "audit.log").read_bytes()
        offset = log.rfind(b"\n", 0, len(log) - 1) + 11
        path = root / "checkpoint.json"
        raw = json.loads(path.read_text())
        raw["tags"].update(
            log_bytes=offset, log_sha256=hashlib.sha256(log[:offset]).hexdigest()
        )
        path.write_text(json.dumps(raw))
        deleted = tmp_path / "deleted"
        shutil.copytree(root, deleted)
        (deleted / "checkpoint.json").unlink()
        for argv in (["status", "slice-a"], ["teardown-slice", "slice-a", "--as", "operator"]):
            results = [_flow_step(lab, argv) for lab in (root, deleted)]
            assert results[0].exit_code == 0, results[0].summary
            assert _comparable(argv, results[0]) == _comparable(argv, results[1])
        assert _status(root) == (0, {**_status(deleted)[1], "checkpoint": {"state": "stale"}})

    @pytest.mark.parametrize("failing", ["_write_file", "replace", "_sync_dir"])
    def test_failed_checkpoint_write_changes_nothing_reported(
        self, root, tmp_path, monkeypatch, failing
    ):
        """ENOSPC from the checkpoint's temp file, its rename or its
        directory's sync: the command's exit code and output are those of a
        run whose write succeeds, audit.log keeps the bytes of its last
        append, and no temp file is left."""
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fail(*args, **kwargs):
            raise full

        real_save = store.save_checkpoint

        def save_on_a_full_disk(lab, fold):
            with monkeypatch.context() as patch:
                patch.setattr(store.os if failing == "replace" else store, failing, fail)
                real_save(lab, fold)

        monkeypatch.setattr(cli, "CHECKPOINT_MIN_EVENTS", 1)
        outputs = []
        for lab, faulty in ((tmp_path / "clean", False), (root, True)):
            assert run(["demo", "slice-a", "--catalog", str(lab)]).exit_code == 0
            appended = []
            if faulty:
                monkeypatch.setattr(cli, "save_checkpoint", save_on_a_full_disk)
                spy = FileAuditLog.append
                monkeypatch.setattr(
                    FileAuditLog,
                    "append",
                    lambda self, event: (spy(self, event), appended.append(_lab_bytes(lab))),
                )
            result = _flow_step(lab, _FLOW[-1])
            outputs.append((result.exit_code, result.summary, result.detail))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert (tmp_path / "clean" / "checkpoint.json").exists()
        assert (root / "checkpoint.json").exists() == (failing == "_sync_dir")
        assert _lab_bytes(root) == appended[-1]
        assert not [p.name for p in root.iterdir() if p.name.endswith(".tmp")]
        monkeypatch.undo()
        assert run(["status", "--catalog", str(root)]).exit_code == 0


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports this slicectl."""
    package_root = Path(slicectl.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(package_root)}


def test_cli_import_leaves_networkx_out():
    code = "import sys, slicectl.cli; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
    )
    assert result.stdout.strip() == "False"


def test_cli_as_a_process(tmp_path):
    """What only a real process shows: the exit code that
    `raise SystemExit(main())` gives, what is printed where, and --json on
    stdout. `python -m slicectl.cli` runs the main the entry point calls."""
    lab = tmp_path / "lab"

    def slicectl(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "slicectl.cli", *argv, "--catalog", str(lab)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )

    demo = slicectl("demo", "slice-a")
    assert (demo.returncode, demo.stderr) == (0, "")
    assert demo.stdout.startswith("slice slice-a is active\n")
    status = slicectl("status")
    assert status.returncode == 0, status.stdout
    assert "audit log: agrees with the catalog" in status.stdout.splitlines()
    denied = slicectl("certify-vf", "vf-core-cp", "--as", "designer")
    assert (denied.returncode, denied.stderr) == (1, "")
    assert denied.stdout.startswith("RoleDenied: ")
    usage = slicectl("audit", "--tail", "0")
    assert (usage.returncode, usage.stdout) == (2, "")
    assert "expected an integer > 0, got '0'" in usage.stderr
    machine = slicectl("status", "--json")
    assert machine.returncode == 0
    payload = json.loads(machine.stdout)
    assert payload["exit_code"] == 0
    events = load_audit(lab / "audit.log")
    assert any(e.outcome.value == "denied" for e in events)
    assert payload["detail"]["records"] == {
        subject: {"kind": r.kind.value, "state": r.state.value}
        for subject, r in replay_states(events).items()
    }
