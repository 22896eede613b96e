"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each layerqg module from the
outside: class methods are replaced on their class, and module functions
are replaced in every loaded layerqg module that holds a reference to
them (callers import names with `from .x import f`).  Each call records
a span (name, start, end, parent span, run id) in memory; the spans are
aggregated, and optionally written out, after the traced repetitions.

A target a later refactor removes is reported in `missing` and its
metrics read 0; the benchmark keeps running.

Self time is a span's duration minus the part of its interval covered by
its child spans.  Spans opened on pool threads take the innermost span
open on the installing thread as their parent, so the fan-out's paths
are children of `measures.kb_average`; the union of their intervals,
not their sum, is what a parent loses to them.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, metric prefix).  The spectral transforms keep
# the short names `spectral.<method>`.
TARGETS = [
    ("spectral", "SpectralBasis.forward", "spectral.forward"),
    ("spectral", "SpectralBasis.inverse", "spectral.inverse"),
    ("spectral", "SpectralBasis.grad_grids", "spectral.grad_grids"),
    ("spectral", "SpectralBasis.perp_grad_grids", "spectral.perp_grad_grids"),
    ("spectral", "SpectralBasis.hessian_grids", "spectral.hessian_grids"),
    ("spectral", "SpectralBasis.synth_ss", "spectral.synth_ss"),
    ("spectral", "SpectralBasis.synth_cs", "spectral.synth_cs"),
    ("spectral", "SpectralBasis.synth_sc", "spectral.synth_sc"),
    ("spectral", "SpectralBasis.synth_cc", "spectral.synth_cc"),
    ("spectral", "lp_norm", "spectral.lp_norm"),
    ("dynamics", "Observable.__call__", "dynamics.Observable.__call__"),
    ("dynamics", "Stepper.advance", "dynamics.Stepper.advance"),
    ("dynamics", "run_trajectory", "dynamics.run_trajectory"),
    ("coupling", "solve_elliptic_coeffs", "coupling.solve_elliptic_coeffs"),
    ("coupling", "symmetrize", "coupling.symmetrize"),
    ("coupling", "eigenpairs", "coupling.eigenpairs"),
    ("noise", "NoiseMixer.increment", "noise.NoiseMixer.increment"),
    ("noise", "NoiseMixer.coefficients", "noise.NoiseMixer.coefficients"),
    ("noise", "ou_step", "noise.ou_step"),
    ("measures", "kb_average", "measures.kb_average"),
    ("measures", "tightness_diagnostic", "measures.tightness_diagnostic"),
    ("experiments", "lp_envelope", "experiments.lp_envelope"),
    ("experiments", "w14_monitor", "experiments.w14_monitor"),
    ("experiments", "log_estimate_monitor", "experiments.log_estimate_monitor"),
    ("experiments", "weak_residual", "experiments.weak_residual"),
    ("runconfig", "parse_config", "runconfig.parse_config"),
    ("runconfig", "realize", "runconfig.realize"),
    ("fieldio", "write_field", "fieldio.write_field"),
    ("fieldio", "read_field", "fieldio.read_field"),
    ("cli", "main", "cli.main"),
]
LAYERS = ["spectral", "dynamics", "coupling", "noise", "measures",
          "experiments", "runconfig", "fieldio", "cli"]
# One call of these is one batch of 2-D transforms, one per leading index.
TRANSFORMS = {"spectral.forward", "spectral.inverse", "spectral.synth_ss",
              "spectral.synth_cs", "spectral.synth_sc", "spectral.synth_cc"}


def per_layer_metrics():
    """(name, unit) of every metric the traced run reports, in order."""
    out = []
    for _, _, prefix in TARGETS:
        out += [(f"{prefix}.calls", "calls/rep"),
                (f"{prefix}.total_s", "s/rep"), (f"{prefix}.self_s", "s/rep")]
    out += [("spectral.transforms_per_step", "1/step"),
            ("spectral.computed_mb_per_step", "MB/step"),
            ("noise.normals_per_step", "1/step"),
            ("measures.fanout_eff", "frac")]
    out += [(f"{layer}.self_share", "frac") for layer in LAYERS]
    out += [("trace.overhead_frac", "frac"), ("layerqg.import_s", "s")]
    return out


class _CountingGenerator:
    """Generator proxy that counts standard normals drawn through it."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        with self._tracer.lock:
            self._tracer.normals += 1 if size is None else int(np.prod(size))
        return self._gen.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Install wrappers, collect spans, and aggregate them per layer."""

    def __init__(self):
        self.spans = []            # (target, start, end, span id, parent, run)
        self.missing = []
        self.run_id = 0
        self.normals = 0
        self.transforms = 0
        self.transform_bytes = 0
        self.lock = threading.Lock()    # counters are bumped from pool threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, prefix, fn):
        tracer = self
        counts_transforms = prefix in TRANSFORMS

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((prefix, start, end, sid, parent,
                                     tracer.run_id))
            if counts_transforms:
                arr = args[-1]
                with tracer.lock:
                    tracer.transforms += int(np.prod(arr.shape[:-2]))
                    tracer.transform_bytes += arr.nbytes + result.nbytes
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every target that exists; record the others as missing."""
        self.missing = []
        self._main_stack = self._stack()
        loaded = [m for name, m in sys.modules.items()
                  if name == "layerqg" or name.startswith("layerqg.")]
        for module_name, path, prefix in TARGETS:
            try:
                module = importlib.import_module(f"layerqg.{module_name}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = (owner.__dict__[attr] if owner_name
                            else getattr(module, attr))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(prefix, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                for mod in loaded:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        self._patch_rng()

    def _patch_rng(self):
        try:
            rng = importlib.import_module("layerqg.rng")
            stream = rng.stream
        except (ImportError, AttributeError):
            self.missing.append("rng.stream")
            return
        tracer = self

        def counted_stream(*args, **kwargs):
            return _CountingGenerator(stream(*args, **kwargs), tracer)

        self._patch(rng, "stream", counted_stream)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------

    def self_times(self):
        """Self time of every span, indexed like `self.spans`."""
        children = defaultdict(list)
        for _, start, end, _, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for _, start, end, sid, _, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def metrics(self, reps, steps_per_rep, threads):
        """Per-repetition span totals plus the computed kernel counts."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        by_id = {}
        for span, self_s in zip(self.spans, self.self_times()):
            prefix, start, end, sid, parent, _ = span
            calls[prefix] += 1
            total[prefix] += end - start
            own[prefix] += self_s
            by_id[sid] = prefix
        values = {}
        for _, _, prefix in TARGETS:
            values[f"{prefix}.calls"] = calls[prefix] / reps
            values[f"{prefix}.total_s"] = total[prefix] / reps
            values[f"{prefix}.self_s"] = own[prefix] / reps
        steps = reps * steps_per_rep
        values["spectral.transforms_per_step"] = self.transforms / steps
        values["spectral.computed_mb_per_step"] = \
            self.transform_bytes / 1e6 / steps
        values["noise.normals_per_step"] = self.normals / steps
        fanned = sum(end - start for prefix, start, end, _, parent, _
                     in self.spans if prefix == "dynamics.run_trajectory"
                     and by_id.get(parent) == "measures.kb_average")
        pool = total["measures.kb_average"]
        values["measures.fanout_eff"] = fanned / (threads * pool) if pool \
            else 0.0
        # Shares of all traced self time; pool threads make it exceed wall.
        all_self = sum(own.values())
        for layer in LAYERS:
            layer_self = sum(v for k, v in own.items()
                             if k.split(".", 1)[0] == layer)
            values[f"{layer}.self_share"] = layer_self / all_self \
                if all_self else 0.0
        return values

    def write_spans(self, path):
        """Write every span as CSV: name,start,end,id,parent,run."""
        with open(path, "w") as fh:
            fh.write("name,start,end,id,parent,run\n")
            for prefix, start, end, sid, parent, run in self.spans:
                fh.write(f"{prefix},{start!r},{end!r},{sid},"
                         f"{'' if parent is None else parent},{run}\n")
