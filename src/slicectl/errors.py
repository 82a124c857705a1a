"""Exception hierarchy shared across the orchestrator.

Every domain failure derives from SliceError so callers can fence off
orchestrator problems from genuine bugs. Construction-time misuse of the
model types raises plain ValueError instead; those are programming errors,
not lifecycle outcomes.
"""

from __future__ import annotations


class SliceError(Exception):
    """Base class for all orchestrator-level failures."""


# --- model layer ---


class EmptySlice(SliceError):
    """A slice must contain at least one service."""


class InvalidProfile(SliceError, ValueError):
    """A service profile carries a non-positive or out-of-range bound."""


class DuplicateEntry(SliceError, ValueError):
    """One entry given twice, or registered again with other fields."""


class UnknownService(SliceError):
    """A referenced service id is not part of the slice or catalog."""


class MissingServiceSla(SliceError):
    """SLA aggregation needs an SLA entry for every member service."""


class SlaViolatesProfile(SliceError):
    """The composed SLA cannot satisfy the slice's service profile."""


# --- template layer ---


class TemplateSyntaxError(SliceError):
    """The template document is not well-formed."""


class DanglingReference(SliceError):
    """A template resource points at a name that is not defined."""


class MissingSizing(SliceError):
    """A compute resource lacks the sizing needed to derive a footprint."""


class MissingFootprint(SliceError):
    """Demand extraction was asked for a template with no compute at all."""


class TemplateRejected(SliceError):
    """Onboarding refused a template; carries the full lint report."""

    def __init__(self, report):
        self.report = report
        first = report.findings[0].message if report.findings else "rejected"
        super().__init__(first)


# --- lifecycle layer ---


class RoleDenied(SliceError):
    """The acting role is not allowed to perform the operation."""


class InvalidTransition(SliceError):
    """The entity is not in a state from which this step is legal."""


class UncertifiedVf(SliceError):
    """Services may only be composed from certified network functions."""


class EmptyService(SliceError):
    """A network service must contain at least one network function."""


class UnknownEntity(SliceError):
    """A referenced catalog entity does not exist."""


# --- infrastructure layer ---


class InsufficientCapacity(SliceError):
    """The tenant cannot hold the requested allocation."""


class UnknownAllocation(SliceError):
    """Release was asked for a service that holds no allocation."""


class Unreachable(SliceError):
    """No path connects the two tenants' hosts."""


# --- placement / execution ---


class PlanInvalid(SliceError):
    """A placement plan, or a slice to be planned, fails validation."""


class PartialFailure(SliceError):
    """Slice instantiation accepted no member; nothing was allocated.

    service_id names the first service refused.
    """

    def __init__(self, service_id: str, reason: str = ""):
        self.service_id = service_id
        self.reason = reason
        msg = f"instantiation failed at service {service_id!r}"
        if reason:
            msg = f"{msg}: {reason}"
        super().__init__(msg)


# --- persistence layer ---


class IoFailure(SliceError):
    """A store file is unreadable or structurally corrupt."""


class SchemaMismatch(SliceError):
    """A store file was written by an incompatible schema version."""


class SequenceGap(SliceError):
    """The audit log's sequence numbers are not contiguous."""


class LogDiverged(SliceError):
    """An ok audit event is a step the lifecycle table does not allow."""
