"""Span tracing of the subcss layers, installed from outside the package.

`Tracer.install()` replaces every public function of every subcss module
(in each module namespace that imported it, so `decode.kernel` and
`gf.kernel` are one wrapper) and the public methods of `Subspace`,
`SubsystemCode`, `ClassicalCode` and `PauliVector` with wrappers that
record a span: name, start, end, parent span and request id. Self time
is a span's duration minus the time covered by its child spans; spans
nest strictly because everything runs on one thread.

Aggregates (calls, total and self time per span name) are exact for the
whole run. Raw spans are kept in memory up to SPAN_CAP and written out
by `dump()` at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import types
from functools import cached_property
from time import perf_counter_ns

LAYERS = ("gf", "pauli", "code", "double", "goursat", "decode", "states", "codefile", "cli")
CLASSES = {"gf": "Subspace", "code": "SubsystemCode", "decode": "ClassicalCode", "pauli": "PauliVector"}
# Private members traced anyway: the first access to this cached property
# builds a classical code's coset-leader table, a decoding stage of its own.
PRIVATE_SPANS = {("decode", "ClassicalCode", "_leader_table"): "decode.leader_build"}
SPAN_CAP = 100_000


def _vectors(n: int, q: int, budget: int) -> int:
    """Computed count of vectors of weight 1..budget over an alphabet of size q."""
    return sum(math.comb(n, w) * (q - 1) ** w for w in range(1, min(budget, n) + 1))


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span id, child ns, name]
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 1
        self.request = 0
        # Work counts made at the same boundaries as the spans.
        self.counts = {
            "rref_cells": 0, "all_elements_rows": 0, "parse_bytes": 0, "codewords": 0,
            "sweep_errors": 0, "sweep_ns": 0, "codewords_ns": 0,
            "sympl_vectors": 0, "sympl_ns": 0, "hamming_vectors": 0, "hamming_ns": 0,
            "d_r_in_leader_ns": 0,
        }
        self.recover_ns: list[int] = []

    # Wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        stack, spans = self.stack, self.spans
        slot = self.agg.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id = span_id + 1
            frame = [span_id, 0, name]
            stack.append(frame)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                slot[0] += 1
                slot[1] += dur
                slot[2] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, start, end, parent[0] if parent else 0, self.request))
                else:
                    self.dropped += 1
                if hook is not None:
                    hook(self, args, kwargs, result, dur)

        return wrapper

    def install(self) -> None:
        """Wrap the public names of every subcss layer, once per function object."""
        modules = {layer: importlib.import_module(f"subcss.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("subcss"), *modules.values()]
        wrapped: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in modules:
                    continue
                if id(obj) not in wrapped:
                    short = attr[4:] if layer == "cli" and attr.startswith("cmd_") else attr
                    wrapped[id(obj)] = self._wrap(f"{layer}.{short}", obj, _HOOKS.get(f"{layer}.{short}"))
                setattr(ns, attr, wrapped[id(obj)])
        for layer, cls_name in CLASSES.items():
            self._wrap_class(layer, getattr(modules[layer], cls_name))

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            private = PRIVATE_SPANS.get((layer, cls.__name__, attr))
            if attr == "__init__":
                name = f"{layer}.{cls.__name__}"
            elif private is not None:
                name = private
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{attr}"
            hook = _HOOKS.get(name)
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(name, obj, hook))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, obj.__func__, hook)))
            elif isinstance(obj, cached_property):
                prop = cached_property(self._wrap(name, obj.func, hook))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)

    # Results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced run (seconds unless named otherwise)."""
        agg, c = self.agg, self.counts
        out: dict[str, float] = {}

        def calls(name):
            return agg.get(name, [0, 0, 0])[0]

        def self_s(name):
            return agg.get(name, [0, 0, 0])[2] / 1e9

        def total_s(name):
            return agg.get(name, [0, 0, 0])[1] / 1e9

        def rate(count, ns):
            return count / (ns / 1e9) if ns else 0.0

        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v[2] for k, v in agg.items() if k.startswith(layer + ".")) / 1e9
        for fn in ("rref", "kernel", "span", "intersect", "complement", "solve", "contains"):
            out[f"gf.{fn}.calls"] = calls(f"gf.{fn}")
            out[f"gf.{fn}.self_s"] = self_s(f"gf.{fn}")
        out["gf.rref.cells"] = c["rref_cells"]
        out["gf.quotient_reps.self_s"] = self_s("gf.quotient_reps")
        out["gf.all_elements.rows"] = c["all_elements_rows"]
        out["gf.all_elements.self_s"] = self_s("gf.all_elements")
        out["pauli.PauliVector.created"] = calls("pauli.PauliVector")
        out["pauli.PauliVector.self_s"] = self_s("pauli.PauliVector")
        out["pauli.omega_complement.calls"] = calls("pauli.omega_complement")
        out["pauli.omega_complement.self_s"] = self_s("pauli.omega_complement")
        out["pauli.psi_subspace.self_s"] = self_s("pauli.psi_subspace")
        for fn in ("parameters", "is_css", "css_split"):
            out[f"code.{fn}.self_s"] = self_s(f"code.{fn}")
        for fn in ("distance", "css_distances"):
            out[f"code.{fn}.calls"] = calls(f"code.{fn}")
            out[f"code.{fn}.self_s"] = self_s(f"code.{fn}")
        out["code.sympl_search.vectors_per_s"] = rate(c["sympl_vectors"], c["sympl_ns"])
        out["code.hamming_search.vectors_per_s"] = rate(c["hamming_vectors"], c["hamming_ns"])
        out["double.delta.calls"] = calls("double.delta")
        out["double.delta.self_s"] = self_s("double.delta")
        out["double.double_subspace.self_s"] = self_s("double.double_subspace")
        for fn in ("goursat_of", "classify_stabilizer"):
            out[f"goursat.{fn}.calls"] = calls(f"goursat.{fn}")
            out[f"goursat.{fn}.self_s"] = self_s(f"goursat.{fn}")
        out["decode.steane_recover.calls"] = calls("decode.steane_recover")
        out["decode.steane_recover.self_s"] = self_s("decode.steane_recover")
        durations = sorted(self.recover_ns)
        out["decode.steane_recover.p50_us"] = _nearest_rank(durations, 50) / 1e3
        out["decode.steane_recover.p99_us"] = _nearest_rank(durations, 99) / 1e3
        out["decode.decode_coset.calls"] = calls("decode.decode_coset")
        out["decode.decode_coset.self_s"] = self_s("decode.decode_coset")
        out["decode.monte_carlo.self_s"] = self_s("decode.monte_carlo")
        out["decode.exhaustive_sweep.self_s"] = self_s("decode.exhaustive_sweep")
        out["decode.sweep.errors_per_s"] = rate(c["sweep_errors"], c["sweep_ns"])
        out["decode.make_css_decoder.calls"] = calls("decode.make_css_decoder")
        out["decode.make_css_decoder.self_s"] = self_s("decode.make_css_decoder")
        out["decode.d_r_s"] = total_s("decode.d_r")
        out["decode.leader_build_s"] = total_s("decode.leader_build") - c["d_r_in_leader_ns"] / 1e9
        decode_requests = calls("cli.decode")
        out["decode.decoder_reuse_ratio"] = (
            1 - calls("decode.make_css_decoder") / decode_requests if decode_requests else 0.0
        )
        for fn in ("all_codewords", "codeword", "is_fixed_by", "dense_vector"):
            out[f"states.{fn}.calls"] = calls(f"states.{fn}")
            out[f"states.{fn}.self_s"] = self_s(f"states.{fn}")
        out["states.codewords_per_s"] = rate(c["codewords"], c["codewords_ns"])
        for fn in ("parse_code_file", "emit_code_file", "builtin_code"):
            out[f"codefile.{fn}.calls"] = calls(f"codefile.{fn}")
            out[f"codefile.{fn}.self_s"] = self_s(f"codefile.{fn}")
        out["codefile.parse.bytes"] = c["parse_bytes"]
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.self_s"] = self_s(f"cli.{cmd}")
        out["cli.main.calls"] = calls("cli.main")
        return out

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines, after a header with the aggregates."""
        with open(path, "w") as fh:
            header = {"fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
                      "kept": len(self.spans), "dropped": self.dropped,
                      "aggregates": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
                                     for k, v in sorted(self.agg.items())}}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


CLI_COMMANDS = ("info", "distance", "double", "goursat", "classify", "decode", "codewords")


def _nearest_rank(sorted_values, pct: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


# Hooks: counts taken at a span's boundary from its arguments and result ----


def _rref_cells(t, args, kwargs, result, dur):
    shape = getattr(result, "shape", (0, 0))
    t.counts["rref_cells"] += shape[0] * shape[1]


def _all_elements(t, args, kwargs, result, dur):
    if result is not None:
        t.counts["all_elements_rows"] += result.shape[0]


def _parse(t, args, kwargs, result, dur):
    t.counts["parse_bytes"] += len(args[0].encode())


def _budget(args, kwargs, n):
    budget = args[1] if len(args) > 1 else kwargs.get("budget")
    return n if budget is None else budget


def _distance(t, args, kwargs, result, dur):
    # Only a search that ran out of budget enumerated every vector counted.
    if result is not None and not result.exact:
        code = args[0]
        t.counts["sympl_vectors"] += _vectors(code.n, code.p**2, _budget(args, kwargs, code.n))
        t.counts["sympl_ns"] += dur


def _css_distances(t, args, kwargs, result, dur):
    if result is not None and not result[0].exact and not result[1].exact:
        split = args[0]
        t.counts["hamming_vectors"] += 2 * _vectors(split.n, split.p, _budget(args, kwargs, split.n))
        t.counts["hamming_ns"] += dur


def _recover(t, args, kwargs, result, dur):
    t.recover_ns.append(dur)


def _d_r(t, args, kwargs, result, dur):
    # The first leader-table build computes d_R; report the two apart.
    if any(frame[2] == "decode.leader_build" for frame in t.stack):
        t.counts["d_r_in_leader_ns"] += dur


def _sweep(t, args, kwargs, result, dur):
    if result is not None:
        t.counts["sweep_errors"] += result.trials
        t.counts["sweep_ns"] += dur


def _codewords(t, args, kwargs, result, dur):
    if result is not None:
        t.counts["codewords"] += len(result)
        t.counts["codewords_ns"] += dur


_HOOKS = {
    "gf.rref": _rref_cells,
    "gf.all_elements": _all_elements,
    "codefile.parse_code_file": _parse,
    "code.distance": _distance,
    "code.css_distances": _css_distances,
    "decode.steane_recover": _recover,
    "decode.d_r": _d_r,
    "decode.exhaustive_sweep": _sweep,
    "states.all_codewords": _codewords,
}
