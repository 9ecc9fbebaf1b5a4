"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 bench/selftest.py

Checks that every metric is emitted with a unit, that no output is
wrong, that the zero-call predictions in plan.json hold, that call
counts repeat exactly between two traced runs, and that BENCHMARK.json
lists exactly the metrics the benchmark prints. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys

import run
import tracing

SCALE = 0.05
SEED = 3
# (workload, per-layer count predicted to be exactly 0)
ZERO_CALLS = [
    ("iso_pairs", "linalg.solve_linear.calls"),
    ("cli_mix", "linalg.solve_linear.calls"),
    ("twist_certify", "linalg.rank_fraction.calls"),
    ("iso_pairs", "onetwist.diffeo_equivalent.calls"),
    ("twist_certify", "onetwist.diffeo_equivalent.calls"),
]


def _metric_problems(result: dict, expected) -> list[str]:
    metrics = result["metrics"]
    out = [f"metric {m} missing" for m in expected if m not in metrics]
    out += [f"metric {m} not expected" for m in metrics if m not in expected]
    out += [f"metric {m} has no unit" for m, e in metrics.items() if not e.get("unit")]
    return out


def check_workload(name: str) -> list[str]:
    problems = []
    plain, errors, _ = run.run(name, SEED, 0.0, trace=False, scale=SCALE)
    problems += _metric_problems(plain, run.END_TO_END)
    problems += [f"untraced: {e}" for e in errors]
    if plain["failed"] or not plain["correct"]:
        problems.append(f"untraced error_share {plain['failed'] / plain['attempted']}")
    traced = []
    for _ in range(2):
        result, errors, _ = run.run(name, SEED, 0.0, trace=True, scale=SCALE)
        problems += _metric_problems(result, tracing.PER_LAYER_METRICS)
        problems += [f"traced: {e}" for e in errors]
        traced.append(result["metrics"])
    for metric in tracing.PER_LAYER_METRICS:
        if metric.endswith(".calls") and traced[0][metric] != traced[1][metric]:
            problems.append(f"{metric} differs between two traced runs")
    for workload, metric in ZERO_CALLS:
        if workload == name and traced[0][metric]["value"] != 0:
            problems.append(f"{metric} is {traced[0][metric]['value']}, predicted 0")
    return [f"{name}: {p}" for p in problems]


def check_declared() -> list[str]:
    """BENCHMARK.json and plan.json name exactly the metrics the benchmark prints."""
    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != {run.END_TO_END}")
    layer = [m["name"] for m in declared["per_layer"]]
    if layer != tracing.PER_LAYER_METRICS:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER_METRICS")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    plan = json.loads((run.HERE / "plan.json").read_text())
    for row in plan["layer_map"]:
        for pattern in row["layer_metrics"]:
            if pattern.startswith("any "):  # a kind of change, not a metric
                continue
            if not any(m == pattern or (pattern.endswith("*") and m.startswith(pattern[:-1]))
                       for m in layer):
                problems.append(f"plan.json names unknown metric {pattern}")
        for metric in row["should_move"]:
            if metric not in e2e:
                problems.append(f"plan.json names unknown end-to-end metric {metric}")
        for workload in row["on"] + row["unchanged_on"]:
            if workload not in run.WORKLOADS:
                problems.append(f"plan.json names unknown workload {workload}")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = check_declared()
    for name in run.WORKLOADS:
        problems += check_workload(name)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
