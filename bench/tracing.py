"""Span tracing of the package's layers, done entirely from the benchmark.

Every public function of each package module is wrapped, and the wrapper
is bound in place of the original in every package module that imported
it by name (``analysis`` binds ``solve_linear`` itself, so patching
``linalg`` alone would miss those calls). ``RingElement.__mul__`` is
wrapped on the class. A span is (function, start, end, parent span, op
id); spans stay in compact arrays until the run ends and are aggregated
into per-layer metrics afterwards. Times are CPU seconds, like the
end-to-end timings.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import process_time

LAYERS = ("core", "quadratic", "linalg", "moves", "analysis", "onetwist", "quasitoric", "cli")

# Result tallies recorded at the call boundary: name -> count added per return.
TALLIES = {
    "quadratic.twisted_row_solutions": lambda r: len(r.finite) + len(r.families),
    "linalg.solve_linear": lambda r: r is not None,
    "analysis.modular_iso_exists": lambda r: r is False,
    "onetwist.diffeo_equivalent": lambda r: r[0] is True,
}

PER_LAYER_METRICS = (
    [f"{layer}.{part}" for layer in LAYERS for part in ("calls", "busy_s", "self_s")]
    + [
        "analysis.ring_isomorphic.busy_s",
        "analysis.twist_number.busy_s",
        "analysis.complexity_oracle.busy_s",
        "analysis.modular_iso_exists.calls",
        "analysis.modular_iso_exists.busy_s",
        "analysis.modular_iso_exists.obstruction_ratio",
        "quadratic.twisted_row_solutions.calls",
        "quadratic.twisted_row_solutions.busy_s",
        "quadratic.twisted_row_solutions.rows_returned",
        "quadratic.line_square_pairs.calls",
        "quadratic.line_product_pairs.calls",
        "quadratic.primitive_rows_box.calls",
        "quadratic.primitive_rows_box.busy_s",
        "quadratic.square_zero_lines.calls",
        "linalg.solve_linear.calls",
        "linalg.solve_linear.busy_s",
        "linalg.solve_linear.ok_ratio",
        "linalg.rank_fraction.calls",
        "linalg.rank_fraction.busy_s",
        "linalg.det_fraction.calls",
        "linalg.det_int.calls",
        "linalg.maximal_minors_gcd.calls",
        "moves.stage_fibration_trivial.calls",
        "moves.trivialize_stage.calls",
        "core.RingElement.mul.calls",
        "onetwist.diffeo_equivalent.calls",
        "onetwist.diffeo_equivalent.hit_ratio",
        "onetwist.classify.busy_s",
        "quasitoric.validate_characteristic.busy_s",
        "quasitoric.is_bott.busy_s",
        "cli.main.busy_s",
        "trace_overhead_ratio",
    ]
)

# ratio metric -> traced function: its tally over its calls (0 when never called)
RATIOS = {
    "analysis.modular_iso_exists.obstruction_ratio": "analysis.modular_iso_exists",
    "linalg.solve_linear.ok_ratio": "linalg.solve_linear",
    "onetwist.diffeo_equivalent.hit_ratio": "onetwist.diffeo_equivalent",
}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_targets(modules: dict) -> list[tuple[str, object, str]]:
    """(metric name, owner, attribute) for every traced function.

    A layer's functions are the public, non-generator functions its
    module defines, plus ``RingElement.__mul__`` for the ring engine.
    """
    out = []
    for layer in LAYERS:
        mod = modules[layer]
        for name, fn in sorted(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                continue
            out.append((f"{layer}.{name}", mod, name))
    out.append(("core.RingElement.mul", modules["core"].RingElement, "__mul__"))
    return out


class Tracer:
    """Wraps the package's layer functions and records one span per call."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.fid = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.tally: dict[str, int] = {}
        self.current_op = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, tally):
        fids, parents, ops, starts, ends = self.fid, self.parent, self.op, self.start, self.end
        stack = self._stack
        tallies = self.tally
        name = self.names[fid]

        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = process_time()
                starts[idx] = t0
                stack.pop()
            if tally is not None:
                tallies[name] = tallies.get(name, 0) + int(tally(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        package = [m for key, m in sys.modules.items()
                   if key == "bott_rigidity" or key.startswith("bott_rigidity.")]
        for metric, owner, attr in layer_targets(self.modules):
            orig = getattr(owner, attr)
            self.names.append(metric)
            wrapper = self._wrap(len(self.names) - 1, orig, TALLIES.get(metric))
            holders = [owner] if inspect.isclass(owner) else package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def dump(self, path):
        """Write the raw spans: a JSON header line, then the five arrays' bytes."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["fid", "H"], ["parent", "l"], ["op", "l"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.fid, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)

    def metrics(self) -> dict:
        """Per-layer and per-function calls, busy time and self time.

        busy time counts each span not nested inside another span of the
        same layer (or function), so it is the time the layer was on the
        stack. Self time is a span's duration minus its direct children's.
        """
        names = self.names
        layer_index = {layer: k for k, layer in enumerate(LAYERS)}
        layer_of = [layer_index[n.split(".", 1)[0]] for n in names]
        nf, nl = len(names), len(LAYERS)
        calls = [0] * nf
        fbusy = [0.0] * nf
        lcalls = [0] * nl
        lbusy = [0.0] * nl
        lself = [0.0] * nl
        count = len(self.start)
        child = [0.0] * count
        fanc = [0] * count
        lanc = [0] * count
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        for i in range(count):
            f, p = fid[i], parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child[p] += dur
                fanc[i] = fanc[p] | (1 << fid[p])
                lanc[i] = lanc[p] | (1 << layer_of[fid[p]])
            calls[f] += 1
            layer = layer_of[f]
            lcalls[layer] += 1
            if not (fanc[i] >> f) & 1:
                fbusy[f] += dur
            if not (lanc[i] >> layer) & 1:
                lbusy[layer] += dur
        for i in range(count):
            lself[layer_of[fid[i]]] += end[i] - start[i] - child[i]
        out = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = lcalls[k]
            out[f"{layer}.busy_s"] = lbusy[k]
            out[f"{layer}.self_s"] = lself[k]
        for k, name in enumerate(names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.busy_s"] = fbusy[k]
        out["quadratic.twisted_row_solutions.rows_returned"] = self.tally.get(
            "quadratic.twisted_row_solutions", 0)
        for metric, fn in RATIOS.items():
            base = out[f"{fn}.calls"]
            out[metric] = self.tally.get(fn, 0) / base if base else 0.0
        return out


def per_layer_report(tracer: Tracer, to_reference: float, overhead_ratio: float) -> dict:
    """The per-layer metrics the benchmark publishes, each with its unit.

    Span times are scaled by ``to_reference`` to the reference host speed
    of the end-to-end timings.
    """
    values = tracer.metrics()
    for metric in values:
        if metric.endswith("_s"):
            values[metric] *= to_reference
    values["trace_overhead_ratio"] = overhead_ratio
    return {m: {"value": values[m], "unit": _unit(m)} for m in PER_LAYER_METRICS}
