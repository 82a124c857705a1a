"""Domain types of the slicing catalog.

Everything in this module is an immutable value object: construction runs
full invariant checking, so any instance that exists is valid. Mutable
runtime state (tenant usage, lifecycle positions) lives in the infra and
lifecycle modules instead. Invariant violations that amount to programming
errors raise ValueError; domain outcomes raise the dedicated exceptions
from errors.py.

The profile rule is stated here once: compose_latency and latency_refusal
for latency, aggregate_sla for the whole SLA. make_slice_template, the
lifecycle's create_slice and placement.verify_plan all judge a slice by it.
"""

from __future__ import annotations

import math
import re
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DanglingReference,
    DuplicateEntry,
    EmptyService,
    EmptySlice,
    InvalidProfile,
    MissingServiceSla,
    SlaViolatesProfile,
    UnknownService,
)

# Tolerance for float comparisons of latencies and SLA values against their
# bounds. Fixtures that sit exactly on a bound (latency budgets summing to
# the limit) must not be rejected by rounding noise.
EPSILON = 1e-9


class FunctionKind(str, Enum):
    VIRTUAL = "virtual"
    PHYSICAL = "physical"


class IsolationLevel(str, Enum):
    """Degree of isolation a profile demands, in increasing strictness."""

    SHARED = "shared"
    DEDICATED_TENANT = "dedicated_tenant"
    DEDICATED_HOST = "dedicated_host"


class Severity(str, Enum):
    """Weight of a lint finding or a plan violation; any error rejects."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ResourceDemand:
    """Whole numbers of vCPUs, MiB of RAM, GiB of storage, and ports."""

    vcpu: int = 0
    ram: int = 0
    storage: int = 0
    ports: int = 0

    def __post_init__(self):
        for name in ("vcpu", "ram", "storage", "ports"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(
                    f"demand field {name} must be a whole number, got {value!r}"
                )
            if value < 0:
                raise ValueError(f"demand field {name} must be >= 0, got {value}")

    def __add__(self, other: "ResourceDemand") -> "ResourceDemand":
        return ResourceDemand(
            self.vcpu + other.vcpu,
            self.ram + other.ram,
            self.storage + other.storage,
            self.ports + other.ports,
        )

    def __sub__(self, other: "ResourceDemand") -> "ResourceDemand":
        return ResourceDemand(
            self.vcpu - other.vcpu,
            self.ram - other.ram,
            self.storage - other.storage,
            self.ports - other.ports,
        )

    def fits_within(self, other: "ResourceDemand") -> bool:
        return (
            self.vcpu <= other.vcpu
            and self.ram <= other.ram
            and self.storage <= other.storage
            and self.ports <= other.ports
        )

    def max_with(self, other: "ResourceDemand") -> "ResourceDemand":
        return ResourceDemand(
            max(self.vcpu, other.vcpu),
            max(self.ram, other.ram),
            max(self.storage, other.storage),
            max(self.ports, other.ports),
        )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.vcpu, self.ram, self.storage, self.ports)


@dataclass(frozen=True)
class Customer:
    id: str
    name: str
    description: str = ""
    category: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("customer id must be non-empty")
        if not self.name:
            raise ValueError("customer name must be non-empty")


@dataclass(frozen=True)
class SliceProvider:
    id: str
    name: str
    administrative_domains: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.id:
            raise ValueError("provider id must be non-empty")
        object.__setattr__(
            self, "administrative_domains", frozenset(self.administrative_domains)
        )
        if not self.administrative_domains:
            raise ValueError("provider needs at least one administrative domain")


@dataclass(frozen=True)
class VendorSoftwareProduct:
    """A vendor's product, under which network functions are onboarded;
    which functions those are, each onboard_vf event says by its vsp."""

    id: str
    vendor_name: str
    product_name: str
    version: tuple[int, int, int]

    def __post_init__(self):
        if not self.id:
            raise ValueError("vsp id must be non-empty")
        version = tuple(self.version)
        if len(version) != 3 or any(
            not isinstance(part, int) or part < 0 for part in version
        ):
            raise ValueError(f"version must be a triple of ints >= 0, got {version!r}")
        object.__setattr__(self, "version", version)


@dataclass(frozen=True)
class VirtualLink:
    name: str
    endpoints: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "endpoints", frozenset(self.endpoints))
        if len(self.endpoints) < 2:
            raise ValueError("virtual link needs at least two endpoints")


@dataclass(frozen=True)
class NetworkFunction:
    """A VNF or PNF. A virtual function is its one frozen template, named by
    the SHA-256 of its text; its components are that template's compute
    resources, read from the blob, not stored here. A physical function is
    an id with no template."""

    id: str
    kind: FunctionKind
    template_ref: str | None = None

    def __post_init__(self):
        if self.kind is FunctionKind.VIRTUAL and not self.template_ref:
            raise ValueError("virtual function must reference a template")
        if self.kind is FunctionKind.PHYSICAL and self.template_ref is not None:
            raise ValueError("physical function may not reference a template")


@dataclass(frozen=True)
class NetworkService:
    """Bundle of network functions, referenced by id."""

    id: str
    name: str
    functions: tuple[str, ...]
    virtual_links: tuple[VirtualLink, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "virtual_links", tuple(self.virtual_links))
        if not self.functions:
            raise EmptyService(f"service {self.id!r} contains no functions")
        if len(set(self.functions)) != len(self.functions):
            raise DuplicateEntry("service function list contains duplicates")
        # Link endpoints are "<function id>/<port name>" and must point at
        # member functions.
        members = set(self.functions)
        for link in self.virtual_links:
            for endpoint in link.endpoints:
                owner = endpoint.split("/", 1)[0]
                if owner not in members:
                    raise DanglingReference(
                        f"link {link.name!r} endpoint {endpoint!r} does not"
                        f" resolve to a member function"
                    )


@dataclass(frozen=True)
class ServiceProfile:
    """Customer-facing slice requirements (NSSP).

    The informational fields (coverage_area, user_density, ue_speed,
    charging_model) are stored verbatim and never constrain placement.
    """

    end_to_end_latency: float
    guaranteed_data_rate: float
    service_availability: float
    degree_of_isolation: IsolationLevel = IsolationLevel.SHARED
    coverage_area: str = ""
    priority: int = 0
    user_density: float = 0.0
    ue_speed: float = 0.0
    charging_model: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "degree_of_isolation", IsolationLevel(self.degree_of_isolation)
        )
        # Comparisons with nan are false, so nan is refused too.
        for name in ("end_to_end_latency", "guaranteed_data_rate"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InvalidProfile(f"{name} must be > 0 and finite, got {value}")
        for name in ("user_density", "ue_speed"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidProfile(f"{name} must be finite, got {value}")
        if not 0 < self.service_availability <= 1:
            raise InvalidProfile(
                f"service_availability must be in (0, 1], got {self.service_availability}"
            )
        if self.priority < 0:
            raise InvalidProfile(f"priority must be >= 0, got {self.priority}")
        if self.service_availability == 1.0:
            # Analytically valid, physically unrealizable: keep it but warn.
            warnings.warn(
                "service availability of exactly 1.0 is physically unrealizable",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Sla:
    """Committed contract values; composed per slice from service entries."""

    committed_latency: float
    committed_availability: float
    committed_data_rate: float

    def __post_init__(self):
        if self.committed_latency <= 0:
            raise ValueError("committed_latency must be > 0")
        if not 0 < self.committed_availability <= 1:
            raise ValueError("committed_availability must be in (0, 1]")
        if self.committed_data_rate <= 0:
            raise ValueError("committed_data_rate must be > 0")


@dataclass(frozen=True)
class NetworkSlice:
    """The slice aggregate: ordered services plus profile and derived SLA.

    chain_order states whether end-to-end traffic traverses the services in
    list order; it selects compose_latency's rule (sum along a chain,
    maximum otherwise). Placement minimises chain latency only, so
    plan_placement rejects a slice without chain order.
    """

    id: str
    name: str
    customer: str
    provider: str
    services: tuple[str, ...]
    profile: ServiceProfile
    sla: Sla | None = None
    chain_order: bool = True

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))
        if not self.services:
            raise EmptySlice(f"slice {self.id!r} contains no services")
        if len(set(self.services)) != len(self.services):
            raise ValueError("slice service list contains duplicates")


@dataclass(frozen=True)
class ServiceRequirement:
    """Per-service entry of a slice template."""

    latency_budget: float
    reliability: float
    data_rate: float
    demand: ResourceDemand = field(default_factory=ResourceDemand)

    def __post_init__(self):
        # Comparisons with nan are false, so nan is refused too.
        for name in ("latency_budget", "data_rate"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be > 0 and finite, got {value}")
        if not 0 < self.reliability <= 1:
            raise ValueError("reliability must be in (0, 1]")


@dataclass(frozen=True)
class SliceTemplate:
    """Technical descriptor mapping a slice to per-service guarantees; the
    slice it belongs to is the one it is filed under.

    Build instances through make_slice_template, which checks coverage and
    the profile against the slice; direct construction only validates
    field-local invariants.
    """

    per_service_requirements: Mapping[str, ServiceRequirement]

    def __post_init__(self):
        object.__setattr__(
            self, "per_service_requirements", dict(self.per_service_requirements)
        )


def make_slice_template(
    slice: NetworkSlice,
    requirements: Mapping[str, ServiceRequirement],
) -> SliceTemplate:
    """Validated constructor for SliceTemplate.

    Entries may not reference non-members, and the SLA the entries give
    must meet the profile: the template is checked by composing that SLA
    with derive_service_sla and aggregate_sla, which refuse a member
    without an entry (MissingServiceSla) and an SLA that breaks a profile
    rule (SlaViolatesProfile).
    """
    members = set(slice.services)
    for service_id in requirements:
        if service_id not in members:
            raise UnknownService(
                f"template entry {service_id!r} is not a member of slice {slice.id!r}"
            )
    template = SliceTemplate(requirements)
    aggregate_sla(slice, {s: derive_service_sla(template, s) for s in requirements})
    return template


def _slug(name: str) -> str:
    """A display name as an id fragment: lower-case letters and digits,
    other runs as one dash, none at the ends, "x" if nothing is left."""
    slug = re.sub(r"-+", "-", "".join(
        ch if ch.isalnum() else "-" for ch in name.lower()
    )).strip("-")
    return slug or "x"


def derive_service_sla(template: SliceTemplate, service: str) -> Sla:
    """Per-service SLA: identity mapping from the template entry."""
    entry = template.per_service_requirements.get(service)
    if entry is None:
        raise UnknownService(
            f"service {service!r} has no entry in the slice template"
        )
    return Sla(
        committed_latency=entry.latency_budget,
        committed_availability=entry.reliability,
        committed_data_rate=entry.data_rate,
    )


def compose_latency(slice: NetworkSlice, latencies: Iterable[float]) -> float:
    """Per-service or per-hop latencies, in slice order, as one: their sum
    along a chain, the largest (0.0 when there are none) side by side."""
    if slice.chain_order:
        return sum(latencies, 0.0)
    return max(latencies, default=0.0)


def latency_refusal(slice: NetworkSlice, latency: float) -> str | None:
    """Why a composed latency breaks the slice's profile, or None."""
    if latency > slice.profile.end_to_end_latency + EPSILON:
        return (
            f"end-to-end latency {latency} ms exceeds the profile limit"
            f" {slice.profile.end_to_end_latency} ms"
        )
    return None


def aggregate_sla(slice: NetworkSlice, service_slas: Mapping[str, Sla]) -> Sla:
    """Compose the slice SLA from per-service SLAs.

    Latency is composed by compose_latency, availability is the product and
    data rate the minimum. The aggregate must be no weaker than the profile
    demands: latency_refusal judges the latency.
    """
    missing = [s for s in slice.services if s not in service_slas]
    if missing:
        raise MissingServiceSla(f"no SLA supplied for services: {missing}")
    slas = [service_slas[s] for s in slice.services]
    latency = compose_latency(slice, (s.committed_latency for s in slas))
    availability = math.prod(s.committed_availability for s in slas)
    data_rate = min(s.committed_data_rate for s in slas)

    profile = slice.profile
    reason = latency_refusal(slice, latency)
    if reason is not None:
        raise SlaViolatesProfile(reason)
    if availability < profile.service_availability - EPSILON:
        raise SlaViolatesProfile(
            f"aggregate availability {availability} is below profile"
            f" {profile.service_availability}"
        )
    if data_rate < profile.guaranteed_data_rate - EPSILON:
        raise SlaViolatesProfile(
            f"aggregate data rate {data_rate} Mbit/s is below profile"
            f" {profile.guaranteed_data_rate} Mbit/s"
        )
    return Sla(
        committed_latency=latency,
        committed_availability=availability,
        committed_data_rate=data_rate,
    )
