"""Smoke test of the benchmark at tiny sizes (under a minute).

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness

harness.use_checkout_source()

import run as bench  # noqa: E402
import spans  # noqa: E402
import wl_cli  # noqa: E402
import wl_plan  # noqa: E402
import wl_storm  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "cli-catalog": dict(wl_cli.SIZES, catalog_vfs=3, interp_samples=1),
    "lifecycle-storm": dict(wl_storm.SIZES, epoch_cycles=5, min_cycles=9, setups=1),
    "plan-scale": dict(wl_plan.SCALE, services=4, tenants=12, slices_per_infra=2,
                       quality_plans=4, setups=1),
    "plan-exact": dict(wl_plan.EXACT, quality_plans=5, setups=1),
}


def _run(workload: str, trace: bool, seed: int = 3) -> dict:
    return bench.run(workload, seed, 0.0, trace, TINY[workload])


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_reported_and_correct(workload):
    plain = _run(workload, trace=False)
    traced = _run(workload, trace=True)
    for outcome, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert outcome["correct"], outcome
        assert outcome["failed"] == 0
        assert outcome["attempted"] >= 1
        reported = {name: m["unit"] for name, m in outcome["metrics"].items()}
        assert reported == _expected(kind)
    for name in _expected("end_to_end"):
        assert plain["metrics"][name]["value"] > 0, name
    assert traced["metrics"]["trace.missing"]["value"] == 0


def test_ops_are_scaled_by_the_probe_units_around_them(tmp_path):
    import probe

    speed = probe.Probe(str(tmp_path / "disk.log"))
    # CPU units end at t=1 (1 ms, the reference) and at t=10 (2 ms, half
    # speed); disk units near t=10 take twice the reference.
    speed.runs[("ops", "cpu")] = [(1.0, 0.001), (1.1, 0.001), (10.0, 0.002), (10.1, 0.002)]
    speed.runs[("ops", "disk")] = [(10.0, 2 * probe.REF_DISK_S)]
    steps = [(0.5, 0.9, 0.4), (5.0, 5.5, 0.5), (9.5, 9.9, 0.2)]
    # No unit near t=5: the whole run's mean unit time is used. The op at
    # t=9.5 spent 0.2 s on the CPU and waited 0.2 s.
    assert speed.scaled(steps) == pytest.approx([0.4, 0.5 * probe.REF_S / 0.0015, 0.1 + 0.1])


def test_probes_follow_a_share_of_the_time_spent(tmp_path):
    import probe

    speed = probe.Probe(str(tmp_path / "disk.log"))
    speed.follow(0.2, cpu_s=0.1)
    for kind in ("cpu", "disk"):
        assert sum(s for _, s in speed.runs[("ops", kind)]) >= probe.DUTY * 0.1
    assert speed.scale() == pytest.approx(probe.REF_S / speed.unit_s())
    speed.close()
    assert not (tmp_path / "disk.log").exists()


def test_wrong_expected_outcome_counts_as_failed(monkeypatch):
    # The storm plans a role denial; expecting success instead must fail it.
    monkeypatch.setattr(wl_storm, "DENIED", harness.OK)
    outcome = _run("lifecycle-storm", trace=True)
    assert not outcome["correct"]
    assert outcome["failed"] >= 1
    assert outcome["metrics"]["failed_share"]["value"] > 0


def test_missing_wrapped_name_is_reported_not_raised(monkeypatch):
    bogus = (
        ("slicectl.placement:no_such_function", "placement.gone"),
        ("slicectl.no_such_module:f", "gone.module"),
        ("slicectl.infra:Infrastructure.no_such_method", "infra.gone"),
    )
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + bogus)
    outcome = _run("plan-exact", trace=True)
    assert outcome["correct"]
    assert outcome["metrics"]["trace.missing"]["value"] == len(bogus)


def test_tracer_restores_what_it_patched():
    from slicectl import placement
    from slicectl.infra import Infrastructure

    before = (placement.plan_placement, vars(Infrastructure)["tenant_latency"])
    tracer = spans.Tracer()
    tracer.install()
    assert placement.plan_placement is not before[0]
    tracer.uninstall()
    assert (placement.plan_placement, vars(Infrastructure)["tenant_latency"]) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "plan-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tenant_latency_counts_only_the_planners_calls():
    # verify_plan asks for tenant latencies too; they are not the planner's.
    traced = _run("plan-exact", trace=True)
    tenants = TINY["plan-exact"]["tenants"]
    calls = traced["metrics"]["infra.tenant_latency_calls"]["value"]
    assert 0 < calls <= tenants * (tenants - 1) / 2
