"""Template parsing, onboarding rules, and footprint extraction."""

from __future__ import annotations

import copy
import json
from importlib import resources as ilr

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import oracles
import scenario
from slicectl.errors import DanglingReference, MissingSizing, TemplateSyntaxError
from slicectl.template import (
    ENV_CHAR_LIMIT,
    Finding,
    KIND_COMPUTE,
    KIND_FLOATING_IP,
    KIND_NETWORK,
    KIND_PORT,
    KIND_SUBNET,
    RULE_ENV_LIMIT,
    RULE_FORBIDDEN_KIND,
    RULE_NAME_PATTERN,
    RULE_REQUIRED_METADATA,
    RULE_VF_STRUCTURE,
    Severity,
    ValidationReport,
    _conform,
    env_char_count,
    merge_reports,
    parse_template,
    resource_footprint,
    validate_environment,
    validate_template,
)


def wired_port_doc() -> str:
    return (
        "name: probe\n"
        "resources:\n"
        "  net:\n"
        "    type: OS::Neutron::Net\n"
        "  sub:\n"
        "    type: OS::Neutron::Subnet\n"
        "    properties:\n"
        "      network: {get_resource: net}\n"
        "  nic:\n"
        "    type: OS::Neutron::Port\n"
        "    properties:\n"
        "      subnet: {get_resource: sub}\n"
    )


class TestParsing:
    def test_bundled_control_plane_template(self):
        doc = parse_template(scenario.fixture_text("core_cp.yaml"))
        assert doc.name == "core_cp"
        assert len(doc.resources_of_kind(KIND_COMPUTE)) == 4
        assert len(doc.resources_of_kind(KIND_NETWORK)) == 5
        assert len(doc.resources_of_kind(KIND_SUBNET)) == 5
        assert len(doc.resources_of_kind(KIND_PORT)) == 8
        assert "mme_image" in doc.parameters

    def test_malformed_yaml(self):
        with pytest.raises(TemplateSyntaxError, match="malformed"):
            parse_template("a: [unclosed")

    def test_root_must_be_mapping(self):
        with pytest.raises(TemplateSyntaxError, match="mapping"):
            parse_template("- just\n- a\n- list\n")

    def test_name_required(self):
        with pytest.raises(TemplateSyntaxError, match="name"):
            parse_template("resources: {}\n")

    def test_metadata_only_on_compute(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  net:\n"
            "    type: OS::Neutron::Net\n"
            "    metadata: {vnf_name: probe}\n"
        )
        with pytest.raises(TemplateSyntaxError, match="compute"):
            parse_template(text)

    def test_metadata_values_must_be_text(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  node:\n"
            "    type: OS::Nova::Server\n"
            "    metadata:\n"
            "      vnf_name: {nested: map}\n"
        )
        with pytest.raises(TemplateSyntaxError, match="text"):
            parse_template(text)

    def test_environment_values_must_be_text(self):
        with pytest.raises(TemplateSyntaxError, match="text"):
            parse_template(
                "name: probe\nresources: {}\nenvironment:\n  flavors: [a, b]\n"
            )
        with pytest.raises(TemplateSyntaxError, match="text"):
            parse_template("name: probe\nresources: {}\nenvironment:\n  empty:\n")

    def test_a_schema_rule_the_parser_cannot_check_raises(self):
        with pytest.raises(NotImplementedError, match="pattern"):
            _conform("x", {"type": "string", "pattern": "^a"}, "template.name")

    def test_reference_target_must_be_string(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  node:\n"
            "    type: OS::Nova::Server\n"
            "    properties:\n"
            "      image: {get_param: [not, text]}\n"
        )
        with pytest.raises(TemplateSyntaxError, match="get_param"):
            parse_template(text)


class TestReferences:
    def test_undeclared_parameter(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  node:\n"
            "    type: OS::Nova::Server\n"
            "    properties:\n"
            "      image: {get_param: missing_image}\n"
        )
        with pytest.raises(DanglingReference, match="missing_image"):
            parse_template(text)

    def test_undeclared_resource(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  node:\n"
            "    type: OS::Nova::Server\n"
            "    properties:\n"
            "      ports: [{get_resource: ghost}]\n"
        )
        with pytest.raises(DanglingReference, match="ghost"):
            parse_template(text)

    def test_subnet_needs_network_reference(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  sub:\n"
            "    type: OS::Neutron::Subnet\n"
            "    properties:\n"
            "      cidr: 10.0.0.0/24\n"
        )
        with pytest.raises(DanglingReference, match="network"):
            parse_template(text)

    def test_subnet_target_must_be_network(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  other:\n"
            "    type: OS::Neutron::Subnet\n"
            "    properties:\n"
            "      network: {get_resource: sub}\n"
            "  sub:\n"
            "    type: OS::Neutron::Subnet\n"
            "    properties:\n"
            "      network: {get_resource: other}\n"
        )
        with pytest.raises(DanglingReference, match="not a network"):
            parse_template(text)

    def test_unwired_port_rejected(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  nic:\n"
            "    type: OS::Neutron::Port\n"
        )
        with pytest.raises(DanglingReference, match="port"):
            parse_template(text)

    def test_port_via_subnet_accepted(self):
        doc = parse_template(wired_port_doc())
        assert len(doc.resources_of_kind(KIND_PORT)) == 1

    @pytest.mark.parametrize(
        "resources, message",
        [
            (
                "  sub:\n    type: OS::Neutron::Subnet\n",
                "subnet 'sub' must reference a network resource",
            ),
            (
                "  net:\n    type: OS::Neutron::Net\n"
                "  sub:\n    type: OS::Neutron::Subnet\n"
                "    properties: {network: {get_resource: net}}\n"
                "  sub2:\n    type: OS::Neutron::Subnet\n"
                "    properties: {network: {get_resource: sub}}\n",
                "subnet 'sub2' references 'sub', which is not a network",
            ),
            (
                "  nic:\n    type: OS::Neutron::Port\n",
                "port 'nic' must reference a network or subnet",
            ),
            (
                "  net:\n    type: OS::Neutron::Net\n"
                "  sub:\n    type: OS::Neutron::Subnet\n"
                "    properties: {network: {get_resource: net}}\n"
                "  nic:\n    type: OS::Neutron::Port\n"
                "    properties:\n"
                "      network: {get_resource: sub}\n"
                "      subnet: {get_resource: net}\n",
                "port 'nic' must reference a network or subnet",
            ),
            (
                "  net:\n    type: OS::Neutron::Net\n"
                "  sub:\n    type: OS::Neutron::Subnet\n"
                "    properties: {network: {get_resource: net}}\n"
                "  nic:\n    type: OS::Neutron::Port\n"
                "    properties: {subnet: {get_resource: sub}}\n",
                None,
            ),
        ],
        ids=[
            "subnet-without-network",
            "subnet-on-a-subnet",
            "unwired-port",
            "port-with-swapped-references",
            "port-through-a-subnet",
        ],
    )
    def test_wiring(self, resources, message):
        text = f"name: probe\nresources:\n{resources}"
        if message is None:
            assert parse_template(text).resources["nic"].external_type == KIND_PORT
            return
        with pytest.raises(DanglingReference) as refused:
            parse_template(text)
        assert str(refused.value) == message


class TestOnboardingRules:
    def test_missing_metadata_reported_per_name(self):
        doc = parse_template(
            "name: probe\nresources:\n  node:\n    type: OS::Nova::Server\n"
        )
        report = validate_template(doc)
        assert not report.accepted
        assert [f.rule_id for f in report.findings] == [RULE_REQUIRED_METADATA] * 3
        # Findings come out in sorted metadata-name order.
        assert "vf_module_id" in report.findings[0].message
        assert "vnf_id" in report.findings[1].message
        assert "vnf_name" in report.findings[2].message

    def test_complete_metadata_accepted(self):
        doc = parse_template(scenario.minimal_template())
        assert validate_template(doc).accepted

    def test_forbidden_kind_reported(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  fip:\n"
            f"    type: {KIND_FLOATING_IP}\n"
        )
        report = validate_template(parse_template(text))
        assert not report.accepted
        finding = report.findings[0]
        assert finding.rule_id == RULE_FORBIDDEN_KIND
        assert finding.location == "fip"

    def test_name_pattern_boundaries(self):
        good = "a" * 63
        bad_long = "a" * 64
        text = (
            "name: probe\n"
            "resources:\n"
            "  node:\n"
            "    type: OS::Nova::Server\n"
            "    metadata: {vnf_name: probe, vnf_id: vnf-probe, vf_module_id: probe_base}\n"
            f"  {good}:\n"
            "    type: OS::Neutron::Net\n"
            f"  {bad_long}:\n"
            "    type: OS::Neutron::Net\n"
            "  BadCase:\n"
            "    type: OS::Neutron::Net\n"
        )
        report = validate_template(parse_template(text))
        flagged = {f.location for f in report.findings}
        assert flagged == {bad_long, "BadCase"}
        assert all(f.rule_id == RULE_NAME_PATTERN for f in report.findings)

    def test_vf_needs_a_compute(self):
        doc = parse_template(
            "name: probe\nresources:\n  net:\n    type: OS::Neutron::Net\n"
        )
        report = validate_template(doc)
        assert not report.accepted
        [finding] = report.findings
        assert finding.rule_id == RULE_VF_STRUCTURE
        assert finding.location == "probe"

    def test_warnings_do_not_reject(self):
        warning = Finding(RULE_NAME_PATTERN, Severity.WARNING, "x", "odd")
        assert ValidationReport((warning,)).accepted

    def test_merge_reports_combines_findings(self):
        error = Finding(RULE_ENV_LIMIT, Severity.ERROR, "environment", "big")
        merged = merge_reports(ValidationReport(()), ValidationReport((error,)))
        assert not merged.accepted
        assert merged.findings == (error,)


class TestEnvironmentLimit:
    def test_exactly_at_limit_accepted(self):
        env = {"blob": "x" * (ENV_CHAR_LIMIT - 2)}
        assert validate_environment(env).accepted

    def test_one_over_limit_rejected(self):
        env = {"blob": "x" * (ENV_CHAR_LIMIT - 1)}
        report = validate_environment(env)
        assert not report.accepted
        finding = report.findings[0]
        assert finding.rule_id == RULE_ENV_LIMIT
        assert f"counts {ENV_CHAR_LIMIT + 1} characters" in finding.message

    def test_names_do_not_count(self):
        assert env_char_count({"name": "abc"}) == 5

    @given(
        entries=st.dictionaries(
            st.text(min_size=1, max_size=12),
            st.text(max_size=40),
            max_size=8,
        ),
    )
    def test_count_matches_quoted_concatenation(self, entries):
        assert env_char_count(entries) == oracles.quoted_env_count(entries)


class TestFootprint:
    def test_bundled_templates(self):
        cp = parse_template(scenario.fixture_text("core_cp.yaml"))
        dp = parse_template(scenario.fixture_text("core_dp.yaml"))
        assert resource_footprint(cp).as_tuple() == (5, 8192, 40, 8)
        assert resource_footprint(dp).as_tuple() == (3, 5120, 30, 4)

    def test_ports_counted_without_computes(self):
        doc = parse_template(wired_port_doc())
        assert resource_footprint(doc).as_tuple() == (0, 0, 0, 1)

    def test_missing_sizing_raises(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  node:\n"
            "    type: OS::Nova::Server\n"
            "    properties:\n"
            "      ram: 512\n"
            "      storage: 4\n"
        )
        with pytest.raises(MissingSizing, match="vcpu"):
            resource_footprint(parse_template(text))

    def test_boolean_sizing_is_not_numeric(self):
        text = (
            "name: probe\n"
            "resources:\n"
            "  node:\n"
            "    type: OS::Nova::Server\n"
            "    properties:\n"
            "      vcpu: true\n"
            "      ram: 512\n"
            "      storage: 4\n"
        )
        with pytest.raises(MissingSizing, match="vcpu"):
            resource_footprint(parse_template(text))

    @pytest.mark.parametrize("vcpu", ["0.5", "2.0", "-1"])
    def test_sizing_must_be_a_whole_number(self, vcpu):
        text = scenario.minimal_template().replace("vcpu: 1", f"vcpu: {vcpu}")
        with pytest.raises(MissingSizing, match="vcpu must be"):
            resource_footprint(parse_template(text))


def test_bundled_fixtures_match_published_schema():
    schema_text = (
        ilr.files("slicectl").joinpath("schemas").joinpath("template.schema.json")
    ).read_text(encoding="utf-8")
    schema = json.loads(schema_text)
    jsonschema = pytest.importorskip("jsonschema")
    for name in ("core_cp.yaml", "core_dp.yaml"):
        raw = yaml.safe_load(scenario.fixture_text(name))
        jsonschema.validate(raw, schema)


@pytest.mark.parametrize("vcpu", [0.5, None, -1], ids=["half", "absent", "negative"])
def test_published_schema_requires_whole_number_sizing(vcpu):
    """The schema refuses the compute sizing that onboarding refuses, apart
    from 2.0, which JSON Schema counts as an integer (its description says
    so)."""
    schema = json.loads(
        (ilr.files("slicectl") / "schemas" / "template.schema.json").read_text(
            encoding="utf-8"
        )
    )
    jsonschema = pytest.importorskip("jsonschema")
    raw = yaml.safe_load(scenario.fixture_text("core_cp.yaml"))
    sizing = raw["resources"]["mme"]["properties"]
    assert sizing["vcpu"] == 2
    if vcpu is None:
        del sizing["vcpu"]
    else:
        sizing["vcpu"] = vcpu
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(raw, schema)
    with pytest.raises(MissingSizing):
        resource_footprint(parse_template(yaml.safe_dump(raw)))
    sizing["vcpu"] = 2.0
    jsonschema.validate(raw, schema)


def first_sections(doc: dict) -> list[dict]:
    """The template, its first resource and its first parameter, if any."""
    return [
        doc,
        next(iter(doc["resources"].values())),
        *list(doc.get("parameters", {}).values())[:1],
    ]


@pytest.mark.parametrize(
    "text",
    [
        scenario.fixture_text("core_cp.yaml"),
        scenario.fixture_text("core_dp.yaml"),
        scenario.minimal_template(),
    ],
    ids=["core_cp", "core_dp", "minimal"],
)
def test_parser_accepts_exactly_what_the_schema_accepts(text):
    """With a Heat key or a misspelt one added at each level, parse_template
    accepts a template exactly when the published schema does."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (ilr.files("slicectl") / "schemas" / "template.schema.json").read_text(
            encoding="utf-8"
        )
    )

    def verdicts(raw: dict) -> tuple[bool, bool]:
        try:
            parse_template(yaml.safe_dump(raw))
            parsed = True
        except TemplateSyntaxError:
            parsed = False
        try:
            jsonschema.validate(raw, schema)
            valid = True
        except jsonschema.ValidationError:
            valid = False
        return parsed, valid

    base = yaml.safe_load(text)
    assert verdicts(base) == (True, True)
    for key in ("description", "depends_on", "heat_template_version", "enviroment"):
        for level in range(len(first_sections(base))):
            doc = copy.deepcopy(base)
            first_sections(doc)[level][key] = "x"
            parsed, valid = verdicts(doc)
            assert parsed == valid, (key, level, parsed)


# A parameter, a sized compute with metadata, and an environment entry.
DIFFERENTIAL_TEMPLATE = """\
name: probe
parameters:
  image: {type: string, default: img}
resources:
  node:
    type: OS::Nova::Server
    properties: {vcpu: 1, ram: 512, storage: 4}
    metadata: {vnf_name: probe, vnf_id: vnf-probe, vf_module_id: probe_base}
environment:
  flavor: small
"""
REPLACEMENTS = [None, 7, True, "x", "", ["x"], {"k": "x"}]
DELETED = object()


def template_mutations(base: dict) -> list[tuple[str, object]]:
    """(label, document) for the template as written, every key deleted,
    every value (the root too) replaced by each of REPLACEMENTS, and a key
    added at every mapping. The free-form resource properties are not
    entered."""

    def nodes(node, path):
        yield path, node
        if isinstance(node, dict) and path[-1] != "properties":
            for key, inner in node.items():
                yield from nodes(inner, path + (key,))

    def edited(path, value=DELETED):
        holder = {"root": copy.deepcopy(base)}
        parent = holder
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return holder.get("root")

    cases = [("as written", base)]
    for path, node in nodes(base, ("root",)):
        where = ".".join(map(str, path))
        if len(path) > 1:
            cases.append((f"{where} deleted", edited(path)))
        for value in REPLACEMENTS:
            cases.append((f"{where} = {value!r}", edited(path, value)))
        if isinstance(node, dict):
            cases.append((f"{where} + extra", edited(path + ("extra",), "x")))
    return cases


def test_parser_refuses_exactly_what_the_schema_refuses():
    """parse_template raises TemplateSyntaxError exactly when the published
    schema, without its sizing rule (resource_footprint's), refuses."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (ilr.files("slicectl") / "schemas" / "template.schema.json").read_text(
            encoding="utf-8"
        )
    )
    del schema["properties"]["resources"]["additionalProperties"]["then"]
    validator = jsonschema.Draft7Validator(schema)
    cases = template_mutations(yaml.safe_load(DIFFERENTIAL_TEMPLATE))
    disagreements = []
    for label, raw in cases:
        try:
            parse_template(yaml.safe_dump(raw))
            refused = False
        except TemplateSyntaxError:
            refused = True
        if refused == validator.is_valid(raw):
            disagreements.append((label, "refused" if refused else "accepted"))
    assert disagreements == []
    assert len(cases) > 100
