"""Ontology validation and SLA composition rules."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from slicectl.errors import (
    DanglingReference,
    EmptyService,
    EmptySlice,
    InvalidProfile,
    MissingServiceSla,
    SlaViolatesProfile,
    UnknownService,
)
from slicectl.model import (
    FunctionKind,
    IsolationLevel,
    NetworkFunction,
    NetworkService,
    NetworkSlice,
    ResourceDemand,
    ServiceProfile,
    ServiceRequirement,
    Sla,
    SliceProvider,
    VendorSoftwareProduct,
    VirtualLink,
    aggregate_sla,
    derive_service_sla,
    make_slice_template,
)


def profile(**overrides) -> ServiceProfile:
    values = {
        "end_to_end_latency": 10.0,
        "guaranteed_data_rate": 50.0,
        "service_availability": 0.99,
    }
    values.update(overrides)
    return ServiceProfile(**values)


def slice_of(services, *, chain_order=True, **overrides) -> NetworkSlice:
    return NetworkSlice(
        id="slice-t",
        name="t",
        customer="c",
        provider="p",
        services=tuple(services),
        profile=profile(**overrides),
        chain_order=chain_order,
    )


class TestResourceDemand:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError, match="ram"):
            ResourceDemand(1, -1, 0, 0)

    @pytest.mark.parametrize("value", [0.5, 2.0, True], ids=["half", "2.0", "true"])
    def test_rejects_components_that_are_not_whole_numbers(self, value):
        with pytest.raises(ValueError, match="storage must be a whole number"):
            ResourceDemand(1, 0, value, 0)

    def test_arithmetic(self):
        total = ResourceDemand(1, 100, 10, 2) + ResourceDemand(2, 50, 5, 1)
        assert total.as_tuple() == (3, 150, 15, 3)
        assert (total - ResourceDemand(2, 50, 5, 1)).as_tuple() == (1, 100, 10, 2)

    def test_subtraction_below_zero_rejected(self):
        # The difference is itself a demand, so it must stay non-negative.
        with pytest.raises(ValueError):
            ResourceDemand(1, 0, 0, 0) - ResourceDemand(2, 0, 0, 0)

    def test_fits_within_is_componentwise(self):
        assert ResourceDemand(1, 1, 1, 1).fits_within(ResourceDemand(1, 1, 1, 1))
        assert not ResourceDemand(2, 1, 1, 1).fits_within(ResourceDemand(1, 9, 9, 9))

    def test_max_with(self):
        merged = ResourceDemand(1, 500, 3, 9).max_with(ResourceDemand(4, 100, 7, 2))
        assert merged.as_tuple() == (4, 500, 7, 9)


class TestEntities:
    def test_provider_needs_a_domain(self):
        with pytest.raises(ValueError, match="administrative domain"):
            SliceProvider(id="p", name="P", administrative_domains=frozenset())

    def test_vsp_version_must_be_int_triple(self):
        with pytest.raises(ValueError, match="triple"):
            VendorSoftwareProduct(
                id="v", vendor_name="V", product_name="P", version=(1, 0)
            )
        with pytest.raises(ValueError, match="triple"):
            VendorSoftwareProduct(
                id="v", vendor_name="V", product_name="P", version=(1, 0, "x")
            )

    def test_virtual_link_needs_two_endpoints(self):
        with pytest.raises(ValueError, match="two endpoints"):
            VirtualLink(name="l", endpoints=frozenset({"vf-a/eth0"}))

    def test_virtual_function_requires_template(self):
        with pytest.raises(ValueError, match="template"):
            NetworkFunction(id="f", kind=FunctionKind.VIRTUAL)

    def test_physical_function_forbids_template(self):
        with pytest.raises(ValueError, match="template"):
            NetworkFunction(
                id="f", kind=FunctionKind.PHYSICAL, template_ref="sha256:abc"
            )


class TestNetworkService:
    def test_empty_service_rejected(self):
        with pytest.raises(EmptyService):
            NetworkService(id="s", name="s", functions=())

    def test_link_endpoints_must_resolve_to_members(self):
        link = VirtualLink(
            name="l", endpoints=frozenset({"vf-a/eth0", "vf-zz/eth0"})
        )
        with pytest.raises(DanglingReference, match="vf-zz"):
            NetworkService(
                id="s", name="s", functions=("vf-a",), virtual_links=(link,)
            )

    def test_links_between_members_accepted(self):
        link = VirtualLink(
            name="l", endpoints=frozenset({"vf-a/eth0", "vf-b/eth1"})
        )
        service = NetworkService(
            id="s", name="s", functions=("vf-a", "vf-b"), virtual_links=(link,)
        )
        assert service.virtual_links[0].name == "l"


class TestProfileAndSla:
    def test_profile_bounds(self):
        with pytest.raises(InvalidProfile):
            profile(end_to_end_latency=0)
        with pytest.raises(InvalidProfile):
            profile(guaranteed_data_rate=-1)
        with pytest.raises(InvalidProfile):
            profile(service_availability=0.0)
        with pytest.raises(InvalidProfile):
            profile(service_availability=1.5)

    def test_perfect_availability_warns_but_stands(self):
        with pytest.warns(UserWarning, match="unrealizable"):
            kept = profile(service_availability=1.0)
        assert kept.service_availability == 1.0

    def test_isolation_coerced_from_string(self):
        assert (
            profile(degree_of_isolation="dedicated_host").degree_of_isolation
            is IsolationLevel.DEDICATED_HOST
        )

    def test_sla_bounds(self):
        with pytest.raises(ValueError):
            Sla(committed_latency=0, committed_availability=0.9, committed_data_rate=1)
        with pytest.raises(ValueError):
            Sla(committed_latency=1, committed_availability=0, committed_data_rate=1)


class TestSliceAssembly:
    def test_empty_slice_rejected(self):
        with pytest.raises(EmptySlice):
            slice_of(())

    def test_duplicate_services_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            slice_of(("svc-a", "svc-a"))

    def test_template_requires_entry_per_member(self):
        slc = slice_of(("svc-a", "svc-b"))
        entry = ServiceRequirement(latency_budget=4.0, reliability=0.99, data_rate=100.0)
        with pytest.raises(MissingServiceSla, match="svc-b"):
            make_slice_template(slc, {"svc-a": entry})

    def test_template_rejects_non_member_entries(self):
        slc = slice_of(("svc-a",))
        entry = ServiceRequirement(latency_budget=4.0, reliability=0.99, data_rate=100.0)
        with pytest.raises(UnknownService, match="svc-x"):
            make_slice_template(slc, {"svc-a": entry, "svc-x": entry})

    def test_chain_budgets_may_not_outgrow_profile(self):
        slc = slice_of(("svc-a", "svc-b"))
        entry = ServiceRequirement(latency_budget=6.0, reliability=0.99, data_rate=100.0)
        with pytest.raises(
            SlaViolatesProfile,
            match=r"end-to-end latency 12\.0 ms exceeds the profile limit 10\.0 ms",
        ):
            make_slice_template(slc, {"svc-a": entry, "svc-b": entry})

    def test_chain_budgets_exactly_at_profile_pass(self):
        slc = slice_of(("svc-a", "svc-b"))
        entry = ServiceRequirement(latency_budget=5.0, reliability=0.999, data_rate=100.0)
        template = make_slice_template(slc, {"svc-a": entry, "svc-b": entry})
        assert set(template.per_service_requirements) == {"svc-a", "svc-b"}

    def test_unordered_slice_skips_budget_sum(self):
        slc = slice_of(("svc-a", "svc-b"), chain_order=False)
        entry = ServiceRequirement(latency_budget=9.0, reliability=0.999, data_rate=100.0)
        template = make_slice_template(slc, {"svc-a": entry, "svc-b": entry})
        assert template.per_service_requirements == {"svc-a": entry, "svc-b": entry}

    @pytest.mark.parametrize(
        "chain_order, budget, reliability, rate, reason",
        [
            (True, 5.5, 0.999, 100.0, "end-to-end latency 11.0 ms exceeds"),
            (False, 10.5, 0.999, 100.0, "end-to-end latency 10.5 ms exceeds"),
            (True, 5.0, 0.99, 100.0, "aggregate availability 0.9801 is below"),
            (True, 5.0, 0.999, 40.0, "aggregate data rate 40.0 Mbit/s is below"),
        ],
        ids=["chain-latency", "side-by-side-latency", "availability", "data-rate"],
    )
    def test_template_refuses_an_sla_that_misses_the_profile(
        self, chain_order, budget, reliability, rate, reason
    ):
        slc = slice_of(("svc-a", "svc-b"), chain_order=chain_order)
        entry = ServiceRequirement(
            latency_budget=budget, reliability=reliability, data_rate=rate
        )
        with pytest.raises(SlaViolatesProfile, match=reason):
            make_slice_template(slc, {"svc-a": entry, "svc-b": entry})


class TestSlaComposition:
    def test_derive_service_sla_is_identity(self):
        slc = slice_of(("svc-a",))
        entry = ServiceRequirement(latency_budget=4.0, reliability=0.995, data_rate=80.0)
        template = make_slice_template(slc, {"svc-a": entry})
        sla = derive_service_sla(template, "svc-a")
        assert (sla.committed_latency, sla.committed_availability) == (4.0, 0.995)
        assert sla.committed_data_rate == 80.0
        with pytest.raises(UnknownService):
            derive_service_sla(template, "svc-zz")

    def test_worked_chain_example(self):
        slc = slice_of(
            ("svc-a", "svc-b"),
            end_to_end_latency=5.0,
            guaranteed_data_rate=50.0,
            service_availability=0.98,
        )
        slas = {
            "svc-a": Sla(3.0, 0.99, 100.0),
            "svc-b": Sla(2.0, 0.999, 50.0),
        }
        composed = aggregate_sla(slc, slas)
        exact = oracles.compose_sla_exact(
            [("3", "0.99", "100"), ("2", "0.999", "50")], chain=True
        )
        assert composed.committed_latency == float(exact[0]) == 5.0
        assert composed.committed_availability == float(exact[1]) == 0.98901
        assert composed.committed_data_rate == float(exact[2]) == 50.0

    def test_profile_violations_raise(self):
        slc = slice_of(("svc-a", "svc-b"), end_to_end_latency=4.0)
        slas = {
            "svc-a": Sla(3.0, 0.999, 100.0),
            "svc-b": Sla(2.0, 0.999, 100.0),
        }
        with pytest.raises(SlaViolatesProfile, match="latency"):
            aggregate_sla(slc, slas)
        slc = slice_of(("svc-a", "svc-b"), service_availability=0.999)
        with pytest.raises(SlaViolatesProfile, match="availability"):
            aggregate_sla(
                slc,
                {
                    "svc-a": Sla(1.0, 0.99, 100.0),
                    "svc-b": Sla(1.0, 0.99, 100.0),
                },
            )
        slc = slice_of(("svc-a",), guaranteed_data_rate=100.0)
        with pytest.raises(SlaViolatesProfile, match="data rate"):
            aggregate_sla(slc, {"svc-a": Sla(1.0, 0.999, 80.0)})

    def test_missing_member_sla_raises(self):
        slc = slice_of(("svc-a", "svc-b"))
        with pytest.raises(MissingServiceSla, match="svc-b"):
            aggregate_sla(slc, {"svc-a": Sla(1.0, 0.999, 100.0)})


entry_values = st.tuples(
    st.floats(min_value=0.001, max_value=50.0),
    st.floats(min_value=0.5, max_value=0.999999),
    st.floats(min_value=0.001, max_value=1000.0),
)


def _loose_slice(count: int, chain: bool) -> NetworkSlice:
    # Bounds wide open so composition itself is the only thing under test.
    return slice_of(
        tuple(f"s{i}" for i in range(count)),
        chain_order=chain,
        end_to_end_latency=1e9,
        guaranteed_data_rate=1e-9,
        service_availability=1e-9,
    )


def _slas(slc: NetworkSlice, entries) -> dict[str, Sla]:
    return {
        service: Sla(latency, availability, rate)
        for service, (latency, availability, rate) in zip(slc.services, entries)
    }


@given(entries=st.lists(entry_values, min_size=1, max_size=6), chain=st.booleans())
def test_composition_matches_exact_arithmetic(entries, chain):
    slc = _loose_slice(len(entries), chain)
    composed = aggregate_sla(slc, _slas(slc, entries))
    latencies = [Fraction(latency) for latency, _, _ in entries]
    availability = Fraction(1)
    for _, value, _ in entries:
        availability *= Fraction(value)
    expected_latency = sum(latencies) if chain else max(latencies)
    assert math.isclose(
        composed.committed_latency, float(expected_latency), rel_tol=1e-12
    )
    assert math.isclose(
        composed.committed_availability, float(availability), rel_tol=1e-12
    )
    assert composed.committed_data_rate == min(rate for _, _, rate in entries)


@given(entry=entry_values, chain=st.booleans())
def test_single_service_composition_is_identity(entry, chain):
    slc = _loose_slice(1, chain)
    composed = aggregate_sla(slc, _slas(slc, [entry]))
    assert composed.committed_latency == entry[0]
    assert composed.committed_availability == entry[1]
    assert composed.committed_data_rate == entry[2]


@given(
    entries=st.lists(entry_values, min_size=1, max_size=5),
    extra=entry_values,
)
def test_composition_is_monotone_in_members(entries, extra):
    base = _loose_slice(len(entries), True)
    extended = _loose_slice(len(entries) + 1, True)
    short = aggregate_sla(base, _slas(base, entries))
    long = aggregate_sla(extended, _slas(extended, entries + [extra]))
    assert long.committed_latency >= short.committed_latency
    assert long.committed_availability <= short.committed_availability
    assert long.committed_data_rate <= short.committed_data_rate
