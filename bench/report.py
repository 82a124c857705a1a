"""Run every workload untraced and traced, and report them together.

    python3 bench/report.py [--seed N] [--seconds S] [--out FILE]

Each run is a separate ``bench/run.py`` process, so peak memory is per
workload. Prints every end-to-end metric and workload figure with its unit,
the end-to-end figures as measured before scaling, the per-layer metrics,
the tracing overhead (traced minus untraced, as a share of untraced) and the
layer-share claims the README makes. The claims describe the program as it
was measured; they are reported, never gated.
With ``--out`` the whole report, run environment included, is written as
JSON (``bench/results/`` keeps the trajectory).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import BENCH, ROOT
from run import END_TO_END_UNITS, LAYER_UNITS, WORKLOADS

# (workload, per-layer metric, comparison, threshold)
CLAIMS = (
    ("plan-scale", "infra.tenant_latency_share", ">=", 0.90),
    ("plan-exact", "infra.tenant_latency_share", "<=", 0.20),
    ("lifecycle-storm", "template.parse_share", ">=", 0.50),
)


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("env", "figures", "measured"):
            out[key] = json.loads(rest)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}, "claims": []}
    for workload in WORKLOADS:
        plain = _run(workload, args.seed, args.seconds, 0)
        traced = _run(workload, args.seed, args.seconds, 1)
        e2e = {k: v["value"] for k, v in plain["metrics"].items()}
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        env = plain["env"]
        report["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "sizes")}
        report["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "sizes": env["sizes"],
            "end_to_end": e2e,
            "figures": plain["figures"],
            "measured": plain["measured"],
            "per_layer": layer,
            "trace_overhead": {
                "op_p50_ms": layer["trace.op_p50_ms"] / e2e["op_p50_ms"] - 1,
                "ops_per_s": e2e["ops_per_s"] / layer["trace.ops_per_s"] - 1,
            },
        }
        print(f"{workload}  sizes {json.dumps(env['sizes'])}"
              f"  correct {report['workloads'][workload]['correct']}"
              f"  attempted {plain['attempted']}  failed {plain['failed']}")
        for name, value in {**e2e, **plain["figures"]}.items():
            unit = END_TO_END_UNITS.get(name) or LAYER_UNITS[name]
            print(f"  {name:<30} {value:>14.4f} {unit}")
        print(f"  as measured, before scaling: {json.dumps(plain['measured'], sort_keys=True)}")
        for name, value in report["workloads"][workload]["trace_overhead"].items():
            print(f"  tracing overhead on {name:<11} {100 * value:>+13.1f} %")
        for name, value in layer.items():
            if value and name not in plain["figures"]:
                print(f"  {name:<30} {value:>14.4f} {LAYER_UNITS[name]}")

    for workload, metric, op, threshold in CLAIMS:
        value = report["workloads"][workload]["per_layer"][metric]
        holds = value >= threshold if op == ">=" else value <= threshold
        report["claims"].append(
            {"workload": workload, "metric": metric, "claim": f"{op} {threshold}",
             "value": value, "holds": holds}
        )
        print(f"claim {workload} {metric} {op} {threshold}: {value:.3f}"
              f" {'holds' if holds else 'DOES NOT HOLD'}")
    print(f"environment {json.dumps(report['env'], sort_keys=True)}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
