"""In-memory span tracer that times wavetrain from outside the program.

The tracer replaces public functions at the names their callers look up
(``wavetrain.model.wavelet_average_pool``, ``wavetrain.training.pgd``, ...)
with timing wrappers, and puts the originals back on ``uninstall``. Ops that
build graph nodes also get their ``_backward`` closure wrapped, so backward
time is attributed to the op that recorded it.

A span is ``[name, start, end, parent, run_id]`` in process CPU seconds;
``parent`` is the index of the enclosing span or ``None``. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict

import wavetrain.attacks
import wavetrain.autodiff
import wavetrain.data
import wavetrain.evaluation
import wavetrain.model
import wavetrain.storage
import wavetrain.training


def _count_grad_calls(tracer, args, out):
    tracer.count("attacks.grad_calls", out.grad_calls)


def _count_queries(tracer, args, out):
    tracer.count("attacks.nes.queries", int(out.queries.sum()))


def _count_forward_samples(tracer, args, out):
    tracer.count("model.forward.samples", args[1].data.shape[0])


def _count_checkpoint_bytes(tracer, args, out):
    tracer.count("storage.checkpoint_bytes", os.path.getsize(args[1]))


def count_oracle_samples(tracer, args, out):
    """Counter for an NES oracle wrapped with ``Tracer.wrap``."""
    tracer.count("attacks.nes.oracle_samples", args[0].shape[0])


# (owner, attribute, span name, backward span name, counter). Each owner is
# where a caller looks the name up: model.py calls ``wavelet_average_pool``
# and ``filter_bank`` through its own imports, training.py calls ``pgd``,
# ``accuracy`` and ``gradient_norm`` through its own, and model.py reaches the
# autodiff ops through the ``autodiff`` module.
TARGETS = (
    (wavetrain.autodiff, "conv2d", "autodiff.conv2d.fwd", "autodiff.conv2d.bwd", None),
    (wavetrain.autodiff, "batch_norm", "autodiff.batch_norm.fwd", "autodiff.batch_norm.bwd", None),
    (wavetrain.autodiff.Tensor, "backward", "autodiff.backward", None, None),
    (wavetrain.autodiff.SGDMomentum, "step", "autodiff.sgd_step", None, None),
    (wavetrain.model.Model, "forward", "model.forward", None, _count_forward_samples),
    (wavetrain.model, "wavelet_average_pool", "wavelet.pool.fwd", "wavelet.pool.bwd", None),
    (wavetrain.model, "filter_bank", "wavelet.filter_bank", None, None),
    (wavetrain.attacks, "pgd", "attacks.pgd", None, _count_grad_calls),
    (wavetrain.training, "pgd", "attacks.pgd", None, _count_grad_calls),
    (wavetrain.attacks, "nes_attack", "attacks.nes", None, _count_queries),
    (wavetrain.evaluation, "accuracy", "evaluation.accuracy", None, None),
    (wavetrain.training, "accuracy", "evaluation.accuracy", None, None),
    (wavetrain.evaluation, "fourier_heat_map", "evaluation.heatmap", None, None),
    (wavetrain.training, "adversarial_train", "training.adversarial_train", None, None),
    (wavetrain.training, "gradient_norm", "training.grad_norm", None, None),
    (wavetrain.data, "synthetic_dataset", "data.synthetic", None, None),
    (wavetrain.storage, "save_checkpoint", "storage.save", None, _count_checkpoint_bytes),
    (wavetrain.storage, "load_checkpoint", "storage.load", None, None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []          # (run_id, name, value)
        self.run_id = None
        self._stack = []
        self._installed = []      # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.process_time(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.process_time()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def count(self, name, value):
        self.counts.append((self.run_id, name, value))

    def wrap(self, fn, name, bwd_name=None, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if bwd_name is not None and out._backward is not None:
                out._backward = tracer.wrap(out._backward, bwd_name)
            if counter is not None:
                counter(tracer, args, out)
            return out

        return traced

    # -- installation ---------------------------------------------------------

    @property
    def installed(self):
        return bool(self._installed)

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, bwd_name, counter in TARGETS:
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, bwd_name, counter))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run_id}) + "\n")


class Summary:
    """Span and count totals over one phase (``setup`` or ``op``), divided by
    the number of runs of that phase, so every value is per set-up or per op."""

    def __init__(self, tracer: Tracer, phase: str):
        runs = {sp[4] for sp in tracer.spans if sp[4] and sp[4].startswith(phase)}
        runs |= {r for r, _, _ in tracer.counts if r and r.startswith(phase)}
        self.runs = max(1, len(runs))
        self.total_self = 0.0
        self.dur = defaultdict(float)
        self.self_ = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        selfs = tracer.self_times()
        for (name, start, end, parent, run_id), own in zip(tracer.spans, selfs):
            if not (run_id and run_id.startswith(phase)):
                continue
            self.total_self += own
            parent_name = tracer.spans[parent][0] if parent is not None else None
            for key in (name, (name, parent_name)):
                self.dur[key] += end - start
                self.self_[key] += own
                self.calls[key] += 1
        for run_id, name, value in tracer.counts:
            if run_id and run_id.startswith(phase):
                self.counts[name] += value

    def s(self, key):
        return self.dur[key] / self.runs

    def self_s(self, key):
        return self.self_[key] / self.runs

    def n(self, key):
        return self.calls[key] / self.runs

    def c(self, name):
        return self.counts[name] / self.runs


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, baseline_seconds, op_seconds):
    """Per-layer numbers of a traced run as {name: (value, unit)}.

    Set-up layers (data generation, filter-bank validation, checkpoint load)
    are per set-up; every other value is per timed op. A layer the workload
    does not run reads 0. ``op_seconds`` are the traced ops as the benchmark
    timed them and ``baseline_seconds`` one untraced op.
    """
    st, op = Summary(tracer, "setup"), Summary(tracer, "op")
    train = "training.adversarial_train"
    pgd_s = op.s("attacks.pgd")
    train_attack_s = op.s(("attacks.pgd", train))
    return {
        "autodiff.conv2d.fwd_s": (op.s("autodiff.conv2d.fwd"), "s"),
        "autodiff.conv2d.bwd_s": (op.s("autodiff.conv2d.bwd"), "s"),
        "autodiff.conv2d.calls": (op.n("autodiff.conv2d.fwd"), "count"),
        "autodiff.batch_norm.fwd_s": (op.s("autodiff.batch_norm.fwd"), "s"),
        "autodiff.batch_norm.bwd_s": (op.s("autodiff.batch_norm.bwd"), "s"),
        "autodiff.backward.s": (op.s("autodiff.backward"), "s"),
        "autodiff.backward.self_s": (op.self_s("autodiff.backward"), "s"),
        "autodiff.sgd_step.s": (op.s("autodiff.sgd_step"), "s"),
        "wavelet.pool.fwd_s": (op.s("wavelet.pool.fwd"), "s"),
        "wavelet.pool.bwd_s": (op.s("wavelet.pool.bwd"), "s"),
        "wavelet.pool.calls": (op.n("wavelet.pool.fwd"), "count"),
        "wavelet.filter_bank.s": (st.s("wavelet.filter_bank"), "s"),
        "model.forward.s": (op.s("model.forward"), "s"),
        "model.forward.calls": (op.n("model.forward"), "count"),
        "model.forward.self_s": (op.self_s("model.forward"), "s"),
        "model.forward.samples_per_call": (
            _ratio(op.c("model.forward.samples"), op.n("model.forward")), "count"),
        "attacks.pgd.s": (pgd_s, "s"),
        "attacks.grad_calls": (op.c("attacks.grad_calls"), "count"),
        "attacks.grad_pass_ms": (1e3 * _ratio(pgd_s, op.c("attacks.grad_calls")), "ms"),
        "attacks.nes.s": (op.s("attacks.nes"), "s"),
        "attacks.nes.oracle_calls": (op.n("attacks.nes.oracle"), "count"),
        "attacks.nes.oracle_s": (op.s("attacks.nes.oracle"), "s"),
        "attacks.nes.self_s": (op.self_s("attacks.nes"), "s"),
        "attacks.nes.queries": (op.c("attacks.nes.queries"), "count"),
        "attacks.nes.samples_per_oracle_call": (
            _ratio(op.c("attacks.nes.oracle_samples"), op.n("attacks.nes.oracle")), "count"),
        "training.attack_s": (train_attack_s, "s"),
        "training.fwd_bwd_s": (
            op.s(("model.forward", train)) + op.s(("autodiff.backward", train)), "s"),
        "training.optimizer_s": (op.s(("autodiff.sgd_step", train)), "s"),
        "training.grad_norm_s": (op.s(("training.grad_norm", train)), "s"),
        "training.validation_s": (op.s(("evaluation.accuracy", train)), "s"),
        "training.attack_share": (_ratio(train_attack_s, op.s(train)), "ratio"),
        "evaluation.accuracy.s": (op.s("evaluation.accuracy"), "s"),
        "evaluation.heatmap.s": (op.s("evaluation.heatmap"), "s"),
        "evaluation.heatmap.forward_calls": (
            op.n(("model.forward", "evaluation.heatmap")), "count"),
        "evaluation.heatmap.self_s": (op.self_s("evaluation.heatmap"), "s"),
        "data.synthetic.s": (st.s("data.synthetic"), "s"),
        "storage.save.s": (op.s("storage.save"), "s"),
        "storage.checkpoint_bytes": (op.c("storage.checkpoint_bytes"), "B"),
        "storage.load.s": (st.s("storage.load"), "s"),
        "trace.ops": (len(op_seconds), "count"),
        "trace.overhead_share": (statistics.median(op_seconds) / baseline_seconds - 1.0, "ratio"),
        "trace.self_time_coverage": (op.total_self / sum(op_seconds), "ratio"),
        "trace.attributed_share": (1.0 - _ratio(op.self_["bench.op"], op.dur["bench.op"]), "ratio"),
    }
