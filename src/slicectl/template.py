"""VF template parsing, onboarding rules, and resource footprints.

Templates are YAML documents with top-level keys name, parameters,
resources, environment. The published schema, schemas/template.schema.json,
is the format, and parsing checks the document against it: every key,
type, required key and non-empty value the schema states, at every level.
Its conditional rules are checked after that: metadata only on a compute
by the parser, compute sizing by resource_footprint. References are
checked last; they are the one rule the schema cannot state. A
resource's type is the Heat type string it is declared with (KIND_*),
with no internal enum beside it; a type no rule names is kept as
written. The onboarding rules are fixed and take no settings:
validate_template and validate_environment report findings and never
raise, and resource_footprint then raises MissingSizing for a compute that
is not sized in whole numbers. Onboarding and lint-template both run these
three checks, in that order. PyYAML loads with the first parse, not with
this module.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import DanglingReference, MissingSizing, TemplateSyntaxError
from .model import ResourceDemand, Severity


# External kind strings are contractual and matched bit-exactly.
KIND_COMPUTE = "OS::Nova::Server"
KIND_NETWORK = "OS::Neutron::Net"
KIND_SUBNET = "OS::Neutron::Subnet"
KIND_PORT = "OS::Neutron::Port"
KIND_FLOATING_IP = "OS::Neutron::FloatingIP"
KIND_FLOATING_IP_ASSOCIATION = "OS::Neutron::FloatingIPAssociation"

# The fixed onboarding rules.
NAME_PATTERN = re.compile(r"^[a-z0-9_]{1,63}$")
REQUIRED_METADATA = ("vf_module_id", "vnf_id", "vnf_name")  # in finding order
FORBIDDEN_KINDS = frozenset({KIND_FLOATING_IP, KIND_FLOATING_IP_ASSOCIATION})
# Environment values count quoted; entry names do not count.
ENV_CHAR_LIMIT = 2000

RULE_REQUIRED_METADATA = "required-metadata"
RULE_FORBIDDEN_KIND = "forbidden-kind"
RULE_NAME_PATTERN = "name-pattern"
RULE_VF_STRUCTURE = "vf-structure"
RULE_ENV_LIMIT = "env-limit"


@dataclass(frozen=True)
class Finding:
    rule_id: str
    severity: Severity
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Findings of the onboarding rules; any error finding rejects."""

    findings: tuple[Finding, ...]

    def __post_init__(self):
        object.__setattr__(self, "findings", tuple(self.findings))

    @property
    def accepted(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)


def merge_reports(*reports: ValidationReport) -> ValidationReport:
    return ValidationReport([f for r in reports for f in r.findings])


@dataclass(frozen=True)
class ResourceDescriptor:
    name: str
    external_type: str
    properties: Mapping[str, object] = field(default_factory=dict)
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "properties", dict(self.properties))
        object.__setattr__(self, "metadata", dict(self.metadata))


@dataclass(frozen=True)
class TemplateDocument:
    name: str
    parameters: frozenset[str] = frozenset()  # declared parameter names
    resources: Mapping[str, ResourceDescriptor] = field(default_factory=dict)
    environment: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parameters", frozenset(self.parameters))
        object.__setattr__(self, "resources", dict(self.resources))
        object.__setattr__(self, "environment", dict(self.environment))

    def resources_of_kind(self, kind: str) -> list[ResourceDescriptor]:
        return [r for r in self.resources.values() if r.external_type == kind]


@functools.cache
def _schema() -> dict:
    path = importlib.resources.files("slicectl") / "schemas" / "template.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


# The Python types yaml.safe_load gives each JSON Schema type, and their
# name in an error. Types are compared exactly: a boolean is not a number,
# and a YAML date is not text.
_JSON_TYPES: dict[str, tuple[tuple[type, ...], str]] = {
    "object": ((dict,), "a mapping"),
    "string": ((str,), "text"),
    "number": ((int, float), "a number"),
    "boolean": ((bool,), "a boolean"),
}
# The keywords _conform applies, then those it leaves alone: the
# conditional rules, checked after parsing, and the annotations.
_KEYWORDS = frozenset(
    {"type", "minLength", "required", "properties", "additionalProperties"}
    | {"if", "then", "else", "$schema", "$comment", "title", "description"}
)


def _conform(value, schema: dict, where: str) -> None:
    """Raise TemplateSyntaxError unless value meets the schema's structural
    keywords, at every level. A keyword this walker does not know raises
    NotImplementedError, so the schema cannot state a rule nobody checks."""
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise NotImplementedError(f"parse_template cannot check {sorted(unknown)}")
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(type(value) in _JSON_TYPES[name][0] for name in names):
            expected = " or ".join(_JSON_TYPES[name][1] for name in names)
            raise TemplateSyntaxError(f"{where} must be {expected}, got {value!r}")
    if type(value) is str and len(value) < schema.get("minLength", 0):
        raise TemplateSyntaxError(
            f"{where} needs {schema['minLength']} or more characters, got {value!r}"
        )
    if type(value) is dict:
        for key in schema.get("required", ()):
            if key not in value:
                raise TemplateSyntaxError(f"{where} needs {key!r}")
        properties = schema.get("properties", {})
        others = schema.get("additionalProperties", {})
        for key, inner in value.items():
            rule = properties.get(key, others)
            if rule is False:
                raise TemplateSyntaxError(f"{where} has unknown key {key!r}")
            if rule:  # the empty schema allows anything
                _conform(inner, rule, f"{where}.{key}")


def _iter_references(value):
    """Yield ("param"|"resource", target) pairs found anywhere in a value."""
    if isinstance(value, dict):
        if len(value) == 1:
            key = next(iter(value))
            if key in ("get_param", "get_resource"):
                target = value[key]
                if not isinstance(target, str):
                    raise TemplateSyntaxError(
                        f"{key} target must be a string, got {target!r}"
                    )
                yield ("param" if key == "get_param" else "resource", target)
                return
        for inner in value.values():
            yield from _iter_references(inner)
    elif isinstance(value, list):
        for inner in value:
            yield from _iter_references(inner)


def _reference_target(value) -> str | None:
    """Return the get_resource target if the value is exactly such a ref."""
    if isinstance(value, dict) and len(value) == 1 and "get_resource" in value:
        target = value["get_resource"]
        if isinstance(target, str):
            return target
    return None


def parse_template(text: str) -> TemplateDocument:
    """Parse one template document and check its structure.

    Raises TemplateSyntaxError for malformed YAML, for anything the
    published schema refuses apart from compute sizing (resource_footprint
    checks that), and for metadata on a resource that is not a compute.
    Raises DanglingReference when a resource points at an undeclared
    parameter or resource, or when subnet/port wiring does not resolve.
    """
    import yaml  # on first use: see the module docstring

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise TemplateSyntaxError(f"malformed template: {exc}") from exc
    _conform(raw, _schema(), "template")

    resources: dict[str, ResourceDescriptor] = {}
    for rname, rraw in raw["resources"].items():
        rname = str(rname)
        metadata = {str(k): str(v) for k, v in rraw.get("metadata", {}).items()}
        if metadata and rraw["type"] != KIND_COMPUTE:
            raise TemplateSyntaxError(
                f"resource {rname!r}: metadata is only valid on compute resources"
            )
        resources[rname] = ResourceDescriptor(
            name=rname,
            external_type=rraw["type"],
            properties=rraw.get("properties", {}),
            metadata=metadata,
        )
    doc = TemplateDocument(
        name=raw["name"],
        parameters={str(pname) for pname in raw.get("parameters", {})},
        resources=resources,
        environment={str(k): str(v) for k, v in raw.get("environment", {}).items()},
    )
    _check_references(doc)
    return doc


def _check_references(doc: TemplateDocument) -> None:
    for resource in doc.resources.values():
        for ref_kind, target in _iter_references(resource.properties):
            if ref_kind == "param" and target not in doc.parameters:
                raise DanglingReference(
                    f"resource {resource.name!r} references undeclared"
                    f" parameter {target!r}"
                )
            if ref_kind == "resource" and target not in doc.resources:
                raise DanglingReference(
                    f"resource {resource.name!r} references undeclared"
                    f" resource {target!r}"
                )
        # The loop above refused every undeclared get_resource target.
        network = _reference_target(resource.properties.get("network"))
        if resource.external_type == KIND_SUBNET:
            if network is None:
                raise DanglingReference(
                    f"subnet {resource.name!r} must reference a network resource"
                )
            if doc.resources[network].external_type != KIND_NETWORK:
                raise DanglingReference(
                    f"subnet {resource.name!r} references {network!r}, which is"
                    f" not a network"
                )
        if resource.external_type == KIND_PORT:
            subnet = _reference_target(resource.properties.get("subnet"))
            if not (
                network is not None
                and doc.resources[network].external_type == KIND_NETWORK
                or subnet is not None
                and doc.resources[subnet].external_type == KIND_SUBNET
            ):
                raise DanglingReference(
                    f"port {resource.name!r} must reference a network or subnet"
                )


def validate_template(doc: TemplateDocument) -> ValidationReport:
    """Check onboarding rules: (a) compute metadata, (b) forbidden kinds,
    (c) resource naming, (d) at least one compute. One finding per
    violation; never raises."""
    findings: list[Finding] = []
    for resource in doc.resources.values():
        if resource.external_type == KIND_COMPUTE:
            for required in REQUIRED_METADATA:
                if required not in resource.metadata:
                    findings.append(
                        Finding(
                            rule_id=RULE_REQUIRED_METADATA,
                            severity=Severity.ERROR,
                            location=resource.name,
                            message=(
                                f"compute resource {resource.name!r} is missing"
                                f" required metadata {required!r}"
                            ),
                        )
                    )
        if resource.external_type in FORBIDDEN_KINDS:
            findings.append(
                Finding(
                    rule_id=RULE_FORBIDDEN_KIND,
                    severity=Severity.ERROR,
                    location=resource.name,
                    message=(
                        f"resource {resource.name!r} uses forbidden kind"
                        f" {resource.external_type!r}"
                    ),
                )
            )
        if not NAME_PATTERN.match(resource.name):
            findings.append(
                Finding(
                    rule_id=RULE_NAME_PATTERN,
                    severity=Severity.ERROR,
                    location=resource.name,
                    message=(
                        f"resource name {resource.name!r} does not match"
                        f" {NAME_PATTERN.pattern!r}"
                    ),
                )
            )
    if not doc.resources_of_kind(KIND_COMPUTE):
        findings.append(
            Finding(
                rule_id=RULE_VF_STRUCTURE,
                severity=Severity.ERROR,
                location=doc.name,
                message=(
                    "template defines no compute resources;"
                    " a VF needs at least one component"
                ),
            )
        )
    return ValidationReport(findings)


def env_char_count(env: Mapping[str, str]) -> int:
    """Characters the environment occupies once every value is quoted:
    len(value) + 2 per value; entry names do not count."""
    return sum(len(value) + 2 for value in env.values())


def validate_environment(env: Mapping[str, str]) -> ValidationReport:
    count = env_char_count(env)
    findings: list[Finding] = []
    if count > ENV_CHAR_LIMIT:
        findings.append(
            Finding(
                rule_id=RULE_ENV_LIMIT,
                severity=Severity.ERROR,
                location="environment",
                message=(
                    f"environment counts {count} characters including quotes,"
                    f" limit is {ENV_CHAR_LIMIT}"
                ),
            )
        )
    return ValidationReport(findings)


def resource_footprint(doc: TemplateDocument) -> ResourceDemand:
    """Sum compute sizing over the template and count its port resources.

    Each compute's sizing must make a ResourceDemand; one that does not
    (missing, fractional, negative) raises MissingSizing, a domain error
    that onboarding logs as failed.
    """
    total = ResourceDemand()
    ports = 0
    for resource in doc.resources.values():
        if resource.external_type == KIND_PORT:
            ports += 1
            continue
        if resource.external_type != KIND_COMPUTE:
            continue
        sizing = {p: resource.properties.get(p) for p in ("vcpu", "ram", "storage")}
        try:
            total = total + ResourceDemand(**sizing)
        except ValueError as exc:
            raise MissingSizing(f"compute resource {resource.name!r}: {exc}") from exc
    return total + ResourceDemand(ports=ports)
