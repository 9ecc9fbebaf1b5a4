"""Benchmark of the bott-rigidity package: one workload per run.

    python3 bench/run.py --workload iso_pairs --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/`` next
to this directory, never from an installed copy. One caller runs the
workload's ops back to back (a closed loop, no threads) in whole passes:
at least three, and as many as end within ``--seconds``. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
pass runs traced and the same pass untraced, and the per-layer metrics
are printed. Outputs are checked after the timed and traced regions. The
last line of stdout is one JSON object; the lines before it list each
metric with its unit.

Every duration is CPU time of this single-threaded process
(``time.process_time``), which leaves out time the host ran other guests
on our CPU (steal). The loop is CPU-bound, so on an idle host this equals
wall time. Other guests on the same cores still slow each CPU second by
tens of percent from one minute to the next, so CPU times are scaled to a
reference host speed (see calibration.py) measured around every block of
operations.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import calibration
import tracing
from workloads import CliMix, Failure, IsoPairs, TwistCertify

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = {w.name: w for w in (IsoPairs, TwistCertify, CliMix)}
SETUP_REPS = 7
MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.05
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


def import_package() -> SimpleNamespace:
    """A fresh import of the package and its layer modules from ``src/``."""
    for key in [k for k in sys.modules if k == "bott_rigidity" or k.startswith("bott_rigidity.")]:
        del sys.modules[key]
    root = importlib.import_module("bott_rigidity")
    if not Path(root.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bott_rigidity was imported from {root.__file__}, not from {SRC}")
    layers = {layer: importlib.import_module(f"bott_rigidity.{layer}") for layer in tracing.LAYERS}
    return SimpleNamespace(root=root, **layers)


def set_up(name: str, seed: int, workdir: str, scale: float):
    """Import, generate inputs and write input files SETUP_REPS times; keep the last.

    Returns (workload, pass 0 ops, median set-up seconds).
    """
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        before = calibration.kernel_s()
        t0 = process_time()
        pkg = import_package()
        workload = WORKLOADS[name](pkg, seed, workdir, scale)
        first = workload.make_pass(0)
        spent = process_time() - t0
        times.append(spent * calibration.factor(before, calibration.kernel_s()))
    return workload, first, statistics.median(times)


def run_pass(workload, ops, tracer=None):
    """Run ops back to back.

    Returns (latencies in reference CPU seconds, outputs, calibration
    timings). The calibration work runs between blocks of at least
    CALIBRATE_EVERY_S of op time, never inside an op.
    """
    latencies, outs = [], []
    gc.collect()  # every pass starts from the same heap, whatever ran before it
    before = calibration.kernel_s()
    kernels = [before]
    block, spent = 0, 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = index
        t0 = process_time()
        try:
            out = workload.execute(op)
        except Exception as exc:  # a crashed op is a failed op, not a crashed run
            out = Failure(exc)
        lat = process_time() - t0
        latencies.append(lat)
        outs.append(out)
        spent += lat
        if spent >= CALIBRATE_EVERY_S or index == len(ops) - 1:
            after = calibration.kernel_s()
            scale = calibration.factor(before, after)
            for j in range(block, index + 1):
                latencies[j] *= scale
            kernels.append(after)
            before, block, spent = after, index + 1, 0.0
    return latencies, outs, kernels


def check_outputs(workload, passes) -> list[str]:
    """Every failure message over the given (ops, outputs) passes."""
    errors = []
    for ops, outs in passes:
        for op, out in zip(ops, outs):
            if isinstance(out, Failure):
                errors.append(f"{op.kind} {op.ref}: {out.text}")
                continue
            try:
                msg = workload.check(op, out)
            except Exception as exc:  # unparseable output is a wrong output
                msg = f"{op.kind} {op.ref}: check raised {type(exc).__name__}: {exc}"
            if msg:
                errors.append(msg)
        errors.extend(workload.check_pass(ops, outs))
    return errors


def end_to_end(latencies, decided, setup_s) -> dict:
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
        "decided_share": decided / len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_run(workload, first, span_dir: Path | None):
    """Pass 0 traced, then untraced; returns (per-layer metrics, errors, kernels)."""
    tracer = tracing.Tracer(vars(workload.pkg))
    tracer.install()
    try:
        traced_lat, traced_outs, kernels = run_pass(workload, first, tracer)
    finally:
        tracer.uninstall()
    plain_lat, plain_outs, plain_kernels = run_pass(workload, first)
    errors = check_outputs(workload, [(first, traced_outs), (first, plain_outs)])
    errors += workload.check_repeat(first, traced_outs, plain_outs)
    metrics = tracing.per_layer_report(
        tracer,
        to_reference=calibration.REFERENCE_S / statistics.median(kernels),
        overhead_ratio=sum(traced_lat) / sum(plain_lat))
    if span_dir is not None:
        span_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(span_dir / f"spans-{workload.name}.bin")
    return metrics, errors, kernels + plain_kernels


def timed_run(workload, first, seconds: float, setup_s: float):
    """Untraced passes; returns (end-to-end metrics, errors, op count, kernels).

    Runs whole passes, at least MIN_PASSES, and stops before a pass that
    would end after ``seconds`` of wall time.
    """
    latencies, kernels, errors = [], [], []
    decided = passes = 0
    start = perf_counter()
    while True:
        ops = first if not passes else workload.make_pass(passes)
        t0 = perf_counter()
        lat, outs, more = run_pass(workload, ops)
        last = perf_counter() - t0
        passes += 1
        latencies += lat
        kernels += more
        # checked now and dropped, so memory does not grow with the pass count
        errors += check_outputs(workload, [(ops, outs)])
        decided += sum(workload.decided(out) for out in outs if not isinstance(out, Failure))
        if passes == 1:
            first_outs = outs
        if passes >= MIN_PASSES and perf_counter() - start + last > seconds:
            break
    if workload.rerun_pass0:
        errors += workload.check_repeat(first, first_outs, run_pass(workload, first)[1])
    return end_to_end(latencies, decided, setup_s), errors, len(latencies), kernels


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        span_dir: Path | None = None) -> tuple[dict, list[str], float]:
    """One benchmark run.

    Returns (result object, error messages, median CPU seconds of the
    calibration work during the run's passes).
    """
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, first, setup_s = set_up(name, seed, str(workdir), scale)
        if trace:
            metrics, errors, kernels = traced_run(workload, first, span_dir)
            attempted = len(first)
        else:
            metrics, errors, attempted, kernels = timed_run(workload, first, seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": not errors, "attempted": attempted,
              "failed": min(len(errors), attempted), "metrics": metrics}
    return result, errors, statistics.median(kernels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bott_rigidity" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, errors, kernel = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                 span_dir=HERE / ".out")
    for msg in errors[:20]:
        print(f"error: {msg}", file=sys.stderr)
    attempted = result["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}")
    print(f"calibration_ms {kernel * 1000} ms (reference {calibration.REFERENCE_S * 1000} ms; "
          "raw CPU time = reported time x calibration_ms / reference)")
    print(f"error_share {result['failed'] / attempted} ratio")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
