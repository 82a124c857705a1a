"""slicectl benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports slicectl from its ``src``.
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the same wrappers record spans around every layer call and the metrics are
the per-layer ones. Times are scaled by the speed probes (``probe.py``) to
the reference speeds; the ``measured`` line gives them unscaled. Earlier
lines give the run environment and a readable table. ``bench/report.py`` runs every workload both ways. See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from probe import REF_S

WORKLOADS = ("cli-catalog", "lifecycle-storm", "plan-scale", "plan-exact")

# Fresh-interpreter imports timed for the import part of ``setup_s``, both
# before and after the measured period, so that one slow stretch of the
# machine does not set the median. Each is scaled by the probe run around it
# in its own interpreter.
IMPORT_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}

# Workload-specific end-to-end figures: printed in the table of every run,
# and reported with the layer metrics so that each traced run carries them.
WORKLOAD_UNITS = {
    "failed_share": "share",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "lint_p50_ms": "ms",
    "onboard_p50_ms": "ms",
    "state_bytes": "bytes",
    "plan_feasible_share": "share",
    "plan_slack_ms_mean": "ms",
}

LIFECYCLE_METHODS = (
    "onboard_vf",
    "certify_vf",
    "create_service",
    "advance_service",
    "create_slice",
    "plan_slice",
    "instantiate_slice",
    "teardown_slice",
)

# Per-layer metric -> unit. "_ms" names are mean milliseconds per call of the
# span (self time where the name says so), except the per-plan infra ones.
LAYER_UNITS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "store.load_catalog_ms": "ms",
    "store.load_inventory_ms": "ms",
    "store.load_audit_ms": "ms",
    "store.events_loaded": "count",
    "store.save_catalog_ms": "ms",
    "store.save_inventory_ms": "ms",
    "store.bytes_rewritten": "bytes",
    "store.save_plan_ms": "ms",
    "store.load_plan_ms": "ms",
    "store.audit_append_ms": "ms",
    "template.parse_ms": "ms",
    "template.validate_ms": "ms",
    "template.footprint_ms": "ms",
    "template.parse_calls": "count",
    "template.repeat_share": "share",
    "template.parse_share": "share",
    **{f"lifecycle.{m}_ms": "ms" for m in LIFECYCLE_METHODS},
    "lifecycle.events_per_op": "count",
    "lifecycle.denied_share": "share",
    "infra.tenant_latency_calls": "count",
    "infra.tenant_latency_ms": "ms",
    "infra.tenant_latency_share": "share",
    "infra.allocate_ms": "ms",
    "infra.release_ms": "ms",
    "placement.plan_self_ms": "ms",
    "placement.verify_ms": "ms",
    "placement.offers_ms": "ms",
    "placement.requirements_ms": "ms",
    "model.sla_ms": "ms",
    "bench.probe_ms": "ms",
    "bench.disk_probe_ms": "ms",
    "trace.op_p50_ms": "ms",
    "trace.ops_per_s": "ops/s",
    "trace.missing": "count",
    **WORKLOAD_UNITS,
}


def _load_workload(name: str):
    """The workload's run function and its default sizes."""
    if name == "cli-catalog":
        import wl_cli

        return wl_cli.run, wl_cli.SIZES
    if name == "lifecycle-storm":
        import wl_storm

        return wl_storm.run, wl_storm.SIZES
    import wl_plan

    return wl_plan.run, wl_plan.SCALE if name == "plan-scale" else wl_plan.EXACT


def _ops_figures(times: list[float]) -> dict:
    return {
        "op_p50_ms": 1000 * harness.p50(times),
        "op_p90_ms": 1000 * harness.p90(times),
        "ops_per_s": len(times) / sum(times),
    }


def measured_end_to_end(result: harness.WorkloadRun, imports: list[tuple[float, float]]) -> dict:
    return {
        "setup_s": harness.p50([seconds for seconds, _ in imports]) + result.setup_s,
        **_ops_figures(result.ops.measured()),
        "peak_rss_mb": result.peak_rss_mb,
        "probe_ms": 1000 * result.ops.probe.unit_s(),
        "disk_probe_ms": 1000 * result.ops.probe.unit_s(kind="disk"),
    }


def end_to_end(result: harness.WorkloadRun, imports: list[tuple[float, float]]) -> dict:
    import_s = harness.p50([seconds * REF_S / unit_s for seconds, unit_s in imports])
    return {
        "setup_s": import_s + result.setup_s * result.ops.probe.scale("setup"),
        **_ops_figures(result.ops.seconds()),
        "peak_rss_mb": result.peak_rss_mb,
    }


def workload_figures(result: harness.WorkloadRun) -> dict:
    figures = dict.fromkeys(WORKLOAD_UNITS, 0.0)
    figures.update(result.extra)
    figures["failed_share"] = result.ops.failed / result.ops.attempted
    return figures


def layers(result: harness.WorkloadRun, tracer) -> dict:
    calls, total, own = tracer.calls, tracer.total, tracer.self_time
    counters = tracer.counters

    def per_call(name: str, times=total) -> float:
        return 1000 * times[name] / calls[name] if calls.get(name) else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n_ops = result.ops.attempted
    plans = calls.get("placement.plan", 0)
    metrics = {
        "cli.interp_ms": result.layer.get("cli.interp_ms", 0.0),
        "cli.import_ms": result.layer.get("cli.import_ms", 0.0),
        "cli.self_ms": per_call("cli.main", own),
        "store.load_catalog_ms": per_call("store.load_catalog"),
        "store.load_inventory_ms": per_call("store.load_inventory"),
        "store.load_audit_ms": per_call("store.load_audit"),
        "store.events_loaded": ratio(counters["store.events_loaded"], calls.get("store.load_audit", 0)),
        "store.save_catalog_ms": per_call("store.save_catalog"),
        "store.save_inventory_ms": per_call("store.save_inventory"),
        # Every command that rewrites state saves the catalog exactly once.
        "store.bytes_rewritten": ratio(counters["store.bytes_rewritten"], calls.get("store.save_catalog", 0)),
        "store.save_plan_ms": per_call("store.save_plan"),
        "store.load_plan_ms": per_call("store.load_plan"),
        "store.audit_append_ms": per_call("store.audit_append"),
        "template.parse_ms": per_call("template.parse"),
        "template.validate_ms": per_call("template.validate"),
        "template.footprint_ms": per_call("template.footprint"),
        "template.parse_calls": ratio(calls.get("template.parse", 0), n_ops),
        "template.repeat_share": ratio(counters["template.repeats"], calls.get("template.parse", 0)),
        "template.parse_share": ratio(total["template.parse"], result.ops.busy_s),
        **{f"lifecycle.{m}_ms": per_call(f"lifecycle.{m}", own) for m in LIFECYCLE_METHODS},
        "lifecycle.events_per_op": ratio(calls.get("store.audit_append", 0), n_ops),
        "lifecycle.denied_share": result.layer.get("lifecycle.denied_share", 0.0),
        # Calls made inside plan_placement only; verify_plan's calls are
        # counted as "infra.tenant_latency.elsewhere" and not reported.
        "infra.tenant_latency_calls": ratio(calls.get("infra.tenant_latency", 0), plans),
        "infra.tenant_latency_ms": ratio(1000 * total["infra.tenant_latency"], plans),
        "infra.tenant_latency_share": ratio(total["infra.tenant_latency"], total["placement.plan"]),
        "infra.allocate_ms": per_call("infra.allocate"),
        "infra.release_ms": per_call("infra.release"),
        "placement.plan_self_ms": per_call("placement.plan", own),
        "placement.verify_ms": per_call("placement.verify"),
        "placement.offers_ms": per_call("placement.offers"),
        "placement.requirements_ms": per_call("placement.requirements"),
        "model.sla_ms": per_call("model.sla"),
    }
    # Span totals are scaled by the whole run's CPU probe, waiting included;
    # CLI start and import are timed between the passes, so it fits them.
    scale = result.ops.probe.scale()
    metrics = {k: v * scale if LAYER_UNITS[k] == "ms" else v for k, v in metrics.items()}
    ops = _ops_figures(result.ops.seconds())
    metrics.update(
        {
            "bench.probe_ms": 1000 * result.ops.probe.unit_s(),
            "bench.disk_probe_ms": 1000 * result.ops.probe.unit_s(kind="disk"),
            "trace.op_p50_ms": ops["op_p50_ms"],
            "trace.ops_per_s": ops["ops_per_s"],
            "trace.missing": len(tracer.missing),
        }
    )
    metrics.update(workload_figures(result))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line.

    ``sizes`` replaces the workload's default instance sizes (the smoke test
    runs tiny ones).
    """
    harness.use_checkout_source()
    # Imported here first, so the timed fresh imports find compiled bytecode.
    harness.import_program()
    imports = [] if trace else harness.import_times(IMPORT_SAMPLES)
    runner, default_sizes = _load_workload(workload)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = False
    try:
        result = runner(seed, seconds, tracer, sizes or default_sizes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.ops.probe.close()

    if trace:
        values, units = layers(result, tracer), LAYER_UNITS
    else:
        imports += harness.import_times(IMPORT_SAMPLES)
        values, units = end_to_end(result, imports), END_TO_END_UNITS
        print("measured " + json.dumps(measured_end_to_end(result, imports), sort_keys=True))
    figures = workload_figures(result)
    print("env " + json.dumps(harness.environment(seed, workload, result.sizes), sort_keys=True))
    print("figures " + json.dumps(figures, sort_keys=True))
    for name, value in {**values, **figures}.items():
        print(f"  {name:<30} {value:>14.4f} {LAYER_UNITS.get(name) or units[name]}")
    if tracer is not None and tracer.missing:
        print("  missing wrapped names: " + ", ".join(tracer.missing))
    for problem in result.ops.problems[:20]:
        print(f"  FAILED {problem}")
    return {
        "correct": result.ops.failed == 0,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
