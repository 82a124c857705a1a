"""Shared pytest configuration.

The acceptance module gets its own terminal section: one PASS/FAIL line per
check so a red suite still shows which guarantees held.
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=75)
settings.load_profile("suite")

ACCEPTANCE_TITLES = [
    (
        "test_demo_activates_slice_a",
        "demo drives slice-a to active on distinct tenants",
    ),
    (
        "test_template_rule_boundaries",
        "template rules hold at the environment limit and metadata edges",
    ),
    (
        "test_placement_matches_exhaustive_oracle",
        "placement equals the brute-force optimum on random instances",
    ),
    (
        "test_duplicate_tenant_plan_rejected",
        "plans mapping one service to two tenants are rejected",
    ),
    (
        "test_fault_injection_restores_usage",
        "failed instantiation leaves capacity unchanged",
    ),
    (
        "test_random_operations_keep_invariants",
        "random operation storms keep audit and state consistent",
    ),
    (
        "test_sla_composition_properties",
        "slice SLA composition obeys the chain arithmetic",
    ),
    (
        "test_catalog_round_trip_and_interrupted_save",
        "catalog round-trips and survives interrupted saves",
    ),
]

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_outcomes[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        # Setup or teardown blew up; the check did not hold.
        _acceptance_outcomes[name] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance")
    for name, title in ACCEPTANCE_TITLES:
        outcome = _acceptance_outcomes.get(name)
        if outcome is not None:
            terminalreporter.write_line(f"{outcome}  {title}")
