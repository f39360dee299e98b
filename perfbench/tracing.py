"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function wherever the ``hadhaar``
package binds it (every submodule attribute that is that function object,
so moving code between modules loses no span) and ``Tracer.remove`` puts
the originals back.  Each call records one span: name, start, end, parent
span, the (round, trial) it ran in and, for a few functions, a count taken
from its arguments or result.  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Traced functions as "layer.function"; the layer is the defining module.
# coherence is reached through vds_pmf -> local_coherence and indexing
# through SystemKind.partition, which builds the level partition.
TRACED = (
    "transforms.fwht", "transforms.haar_transform",
    "recovery.solve_bpdn", "recovery.me_reconstruct",
    "sampling.draw_sample", "sampling.measure", "sampling.vds_pmf",
    "sampling.mds_allocate",
    "coherence.local_coherence", "indexing.build_levels",
    "signals.effective_sparsity", "signals.make_noise",
    "signals.save_image_csv", "signals.save_signal_csv",
    "signals.load_signal_csv",
    "cli.main", "cli.run_experiment", "cli.write_trials_csv",
)


def _fwht_ops(args, kwargs, result):
    n = result.size                            # N, or n^2 for an n x n image
    return n * (n.bit_length() - 1)            # butterfly additions N log2 N


def _file_bytes_after(args, kwargs, result):
    return os.path.getsize(args[0])


def _draw_size(args, kwargs, result):
    return result.n_measurements


def _solve_outcome(args, kwargs, result):
    return [result.iterations, int(result.converged)]


# what a span records beside its times, keyed by traced name
_EXTRA = {
    "transforms.fwht": _fwht_ops,
    "signals.save_image_csv": _file_bytes_after,
    "signals.load_signal_csv": _file_bytes_after,
    "sampling.draw_sample": _draw_size,
    "recovery.solve_bpdn": _solve_outcome,
}


class Tracer:
    """Collects spans [name, start, end, parent, round, trial, extra]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.round = None
        self.trial = None

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.round, self.trial, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[6] = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "hadhaar" or key.startswith("hadhaar.")]
        for name in TRACED:
            layer, func = name.split(".")
            original = getattr(importlib.import_module(f"hadhaar.{layer}"), func)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path):
        keys = ("name", "start", "end", "parent", "round", "trial", "extra")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            out[parent] -= end - start         # children of one span are sequential
    return out


def _under(spans, ancestor_name):
    """For each span, whether an ancestor span has the given name."""
    flags = [False] * len(spans)
    for i, (name, _, _, parent, *_) in enumerate(spans):
        if parent is not None:
            flags[i] = flags[parent] or spans[parent][0] == ancestor_name
    return flags


PER_LAYER = {
    # name: (unit, better)
    "transforms.fwht.calls": ("count", "lower"),
    "transforms.fwht.s": ("s", "lower"),
    "transforms.fwht.us_per_call": ("us", "lower"),
    "transforms.fwht.ops": ("count", "lower"),
    "transforms.haar_transform.calls": ("count", "lower"),
    "transforms.haar_transform.s": ("s", "lower"),
    "transforms.haar_transform.us_per_call": ("us", "lower"),
    "recovery.solve_bpdn.calls": ("count", "lower"),
    "recovery.solve_bpdn.s": ("s", "lower"),
    "recovery.solve_bpdn.self_s": ("s", "lower"),
    "recovery.solve_bpdn.iterations": ("count", "lower"),
    "recovery.solve_bpdn.us_per_iteration": ("us", "lower"),
    "recovery.solve_bpdn.transform_calls_per_iteration": ("count", "lower"),
    "recovery.solve_bpdn.converged": ("count", "higher"),
    "recovery.me_reconstruct.calls": ("count", "lower"),
    "recovery.me_reconstruct.s": ("s", "lower"),
    "sampling.draw_sample.calls": ("count", "lower"),
    "sampling.draw_sample.s": ("s", "lower"),
    "sampling.draw_sample.ns_per_index": ("ns", "lower"),
    "sampling.measure.calls": ("count", "lower"),
    "sampling.measure.s": ("s", "lower"),
    "sampling.vds_pmf.calls": ("count", "lower"),
    "sampling.vds_pmf.s": ("s", "lower"),
    "sampling.mds_allocate.calls": ("count", "lower"),
    "sampling.mds_allocate.s": ("s", "lower"),
    "coherence.local_coherence.calls": ("count", "lower"),
    "coherence.local_coherence.s": ("s", "lower"),
    "indexing.build_levels.calls": ("count", "lower"),
    "indexing.build_levels.s": ("s", "lower"),
    "signals.effective_sparsity.calls": ("count", "lower"),
    "signals.effective_sparsity.s": ("s", "lower"),
    "signals.make_noise.s": ("s", "lower"),
    "signals.save_image_csv.s": ("s", "lower"),
    "signals.save_image_csv.bytes": ("B", "lower"),
    "signals.save_signal_csv.s": ("s", "lower"),
    "signals.load_signal_csv.s": ("s", "lower"),
    "signals.load_signal_csv.bytes": ("B", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.run_experiment.s": ("s", "lower"),
    "cli.run_experiment.self_s": ("s", "lower"),
    "cli.write_trials_csv.s": ("s", "lower"),
    "trace.trials_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(spans, trials_per_round, rounds):
    """Per-layer metrics, every one per trial unless its name says otherwise.

    Counts (calls, iterations, converged, ops, bytes) come from round 0
    alone, which runs at the run's own seed, so they repeat exactly at a
    given seed however many rounds fit in the run.  Times come from every
    round.  A layer that is never called reports 0.
    """
    self_s = _self_times(spans)
    in_solve = _under(spans, "recovery.solve_bpdn")
    n_all = trials_per_round * rounds
    n0 = trials_per_round
    acc = {}
    solve_transforms0 = 0                      # transform spans under solves
    for i, (name, start, end, parent, rnd, trial, extra) in enumerate(spans):
        a = acc.setdefault(name, {"calls0": 0, "calls": 0, "s": 0.0, "self": 0.0,
                                  "extra0": 0, "extra": 0, "conv0": 0})
        a["calls"] += 1
        a["s"] += end - start
        a["self"] += self_s[i]
        count = extra[0] if isinstance(extra, list) else (extra or 0)
        a["extra"] += count
        if rnd == 0:
            a["calls0"] += 1
            a["extra0"] += count
            if isinstance(extra, list):
                a["conv0"] += extra[1]
            if in_solve[i] and name in ("transforms.fwht",
                                        "transforms.haar_transform"):
                solve_transforms0 += 1

    def get(name, key):
        return acc.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for metric in PER_LAYER:
        layer_fn, _, stat = metric.rpartition(".")
        if layer_fn == "trace":
            continue
        if stat == "calls":
            value = get(layer_fn, "calls0") / n0
        elif stat == "s":
            value = get(layer_fn, "s") / n_all
        elif stat == "self_s":
            value = get(layer_fn, "self") / n_all
        elif stat == "us_per_call":
            value = ratio(get(layer_fn, "s"), get(layer_fn, "calls"), 1e6)
        elif stat in ("ops", "bytes", "iterations"):
            value = get(layer_fn, "extra0") / n0
        elif stat == "converged":
            value = get(layer_fn, "conv0") / n0
        elif stat == "us_per_iteration":
            value = ratio(get(layer_fn, "s"), get(layer_fn, "extra"), 1e6)
        elif stat == "ns_per_index":
            value = ratio(get(layer_fn, "s"), get(layer_fn, "extra"), 1e9)
        elif stat == "transform_calls_per_iteration":
            value = ratio(solve_transforms0, get(layer_fn, "extra0"))
        else:
            raise KeyError(metric)
        out[metric] = value
    return out
