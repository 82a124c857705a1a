"""Design-time orchestration and placement simulation for network slices.

The package models the full design-time path: vendor templates are linted
and onboarded as virtual functions, bundled into services, walked through
the role-gated certification workflow, composed into slices with derived
SLAs, and finally placed onto a simulated multi-tenant infrastructure by a
latency-optimizing solver whose plans an independent verifier re-checks.
"""

from .errors import SliceError
from .infra import Host, Infrastructure, PhysicalLink, Tenant, build_testbed
from .lifecycle import (
    AuditEvent,
    Catalog,
    LifecycleRecord,
    Orchestrator,
    Outcome,
    Role,
    ServiceState,
    SliceState,
    VfState,
)
from .model import (
    Customer,
    IsolationLevel,
    NetworkFunction,
    NetworkService,
    NetworkSlice,
    ResourceDemand,
    ServiceProfile,
    ServiceRequirement,
    Sla,
    SliceProvider,
    SliceTemplate,
    VendorSoftwareProduct,
    aggregate_sla,
    derive_service_sla,
    make_slice_template,
)
from .placement import (
    PlacementPlan,
    offered_capabilities,
    plan_placement,
    required_capabilities,
    verify_plan,
)
from .template import (
    parse_template,
    resource_footprint,
    validate_environment,
    validate_template,
)

__version__ = "0.1.0"

__all__ = [
    "AuditEvent",
    "Catalog",
    "Customer",
    "Host",
    "Infrastructure",
    "IsolationLevel",
    "LifecycleRecord",
    "NetworkFunction",
    "NetworkService",
    "NetworkSlice",
    "Orchestrator",
    "Outcome",
    "PhysicalLink",
    "PlacementPlan",
    "ResourceDemand",
    "Role",
    "ServiceProfile",
    "ServiceRequirement",
    "ServiceState",
    "Sla",
    "SliceError",
    "SliceProvider",
    "SliceState",
    "SliceTemplate",
    "Tenant",
    "VendorSoftwareProduct",
    "VfState",
    "aggregate_sla",
    "build_testbed",
    "derive_service_sla",
    "make_slice_template",
    "offered_capabilities",
    "parse_template",
    "plan_placement",
    "required_capabilities",
    "resource_footprint",
    "validate_environment",
    "validate_template",
    "verify_plan",
]
