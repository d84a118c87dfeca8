"""The benchmark's three workloads and the loop that runs one of them.

Every workload is one process with one caller in a closed loop: the next op
starts when the previous one has returned and been checked. Each op repeats
the same work from the same state, so every op of a run must give
bit-identical outputs; that is the in-run determinism check.

Times are CPU seconds of this process (``time.process_time``). With BLAS on
one thread and no other threads that equals wall time on an idle core, but
it leaves out time the hypervisor gives the core to other machines, which
on a shared VM moves wall time by tens of percent between identical calls.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from wavetrain import attacks, data, evaluation, storage, training
from wavetrain.attacks import AttackConfig, NesConfig
from wavetrain.model import ModelConfig, build_model
from wavetrain.training import TrainConfig

import tracer as tracing

# acceptance-test model and the CLI default model
STEM_HAAR = ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="haar",
                        wap_position="after_first_conv")
FINAL_HAAR = ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="haar",
                         wap_position="after_final_relu")
TRAIN_ATTACK = AttackConfig(epsilon=0.031, step_size=2.0 / 255.0, steps=10)
EVAL_ATTACK = AttackConfig(epsilon=0.031, step_size=2.0 / 255.0, steps=20)
NES = NesConfig(epsilon=0.05, max_queries=2000)
# short natural fit: one epoch of small batches, so batch-norm running
# statistics see enough updates for eval-mode forwards to be meaningful
FIT = dict(epochs=1, batch_size=8, lr_initial=0.05,
           train_attack=AttackConfig(epsilon=0.0, steps=1, random_init=False))

N_TRAIN = 256     # natural fit and adversarial epoch
N_VAL = 64        # validation and heat-map pool
N_PGD = 32        # PGD-20 batch of pgd-eval
N_NES = 4         # NES samples per probe-forward op
SETUPS = 3        # set-ups per run; setup_s is their median
BALL_TOL = 1e-6   # float32 rounding of x0 +/- eps in the projection


@dataclass
class Seeds:
    data: int
    init: int
    fit: int
    attack: int

    @classmethod
    def derive(cls, seed):
        return cls(*(int(s) for s in np.random.SeedSequence(seed).generate_state(4)))


@dataclass
class Op:
    seconds: float        # whole timed op
    job_seconds: list     # durations of the fixed-size jobs inside it (see README)
    samples: int
    digest: str           # hash of the op's quality outputs
    quality: dict


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        is_array = isinstance(p, np.ndarray)
        h.update(np.ascontiguousarray(p).tobytes() if is_array else repr(p).encode())
    return h.hexdigest()


def _state_digest(model):
    return _digest(*(a for _, a in model.state_arrays()))


def _check_ball(x, x_adv, eps, what):
    out = []
    if np.abs(x_adv.astype(np.float64) - x).max() > eps + BALL_TOL:
        out.append(f"{what}: |x_adv - x|_inf exceeds epsilon {eps}")
    if x_adv.min() < 0.0 or x_adv.max() > 1.0:
        out.append(f"{what}: x_adv leaves [0,1]")
    return out


def _check_pgd(x, result, cfg, what):
    out = _check_ball(x, result.x_adv, cfg.epsilon, what)
    if result.grad_calls != cfg.steps * cfg.restarts:
        out.append(f"{what}: grad_calls {result.grad_calls} != steps x restarts "
                   f"{cfg.steps * cfg.restarts}")
    return out


def _check_same_forward(model, reloaded, x, what):
    """A checkpoint read back must reproduce the model's forward bit for bit."""
    same = np.array_equal(attacks.logits_oracle(model)(x), attacks.logits_oracle(reloaded)(x))
    return [] if same else [f"{what}: reloaded checkpoint changes the forward"]


def _dataset(seeds):
    full = data.synthetic_dataset(2, N_TRAIN + N_VAL, seed=seeds.data)
    return full.subset(np.arange(N_TRAIN)), full.subset(np.arange(N_TRAIN, N_TRAIN + N_VAL))


def _fit(cfg, seeds, train, val):
    model = build_model(cfg, seed=seeds.init)
    model, _ = training.adversarial_train(model, train, val, TrainConfig(seed=seeds.fit, **FIT))
    return model


class _Workload:
    """``setup`` returns the model it built; ``op`` runs the timed work and
    returns an ``Op``; ``setup_checks`` and ``checks`` return failure messages."""

    def __init__(self, seeds, workdir, tracer=None):
        self.seeds = seeds
        self.path = os.path.join(workdir, "model.wwrn")
        self.tracer = tracer


class AdvTrainStem(_Workload):
    """Adversarial fine-tuning epoch of the acceptance-test model, then a save."""

    def setup(self):
        self.train, self.val = _dataset(self.seeds)
        self.model = _fit(STEM_HAAR, self.seeds, self.train, self.val)
        self.fitted = [(n, a.copy()) for n, a in self.model.state_arrays()]
        return self.model

    def setup_checks(self):
        # the trainer's own adversarial batches are internal; check one batch
        # of the same attack on the same model instead
        x, y = self.train.images[:64], self.train.labels[:64]
        result = attacks.pgd(self.model, x, y, TRAIN_ATTACK, seed=self.seeds.attack)
        return _check_pgd(x, result, TRAIN_ATTACK, "training attack")

    def op(self):
        self.model.load_state_arrays(self.fitted)
        cfg = TrainConfig(epochs=1, batch_size=64, train_attack=TRAIN_ATTACK,
                          seed=self.seeds.attack)
        t0 = time.process_time()
        self.best, history = training.adversarial_train(self.model, self.train, self.val, cfg)
        storage.save_checkpoint(self.best, self.path)
        seconds = time.process_time() - t0
        with open(self.path, "rb") as f:
            blob = f.read()
        return Op(seconds, [seconds], len(self.train),
                  _digest(blob, history.train_loss, history.robust_val_acc, history.grad_norm),
                  {"robust_val_acc": history.robust_val_acc[history.best_epoch],
                   "train_loss": history.train_loss[-1]})

    def checks(self, op):
        out = _check_same_forward(self.best, storage.load_checkpoint(self.path),
                                  self.val.images, "advtrain")
        if not math.isfinite(op.quality["train_loss"]):
            out.append("training loss is not finite")
        return out


class _FittedFinalHaar(_Workload):
    """Set-up shared by pgd-eval and probe-forward: a naturally fitted CLI
    default model, written to a checkpoint and read back."""

    def setup(self):
        self.train, self.val = _dataset(self.seeds)
        self.fitted = _fit(FINAL_HAAR, self.seeds, self.train, self.val)
        storage.save_checkpoint(self.fitted, self.path)
        self.model = storage.load_checkpoint(self.path)
        return self.model

    def setup_checks(self):
        return _check_same_forward(self.fitted, self.model, self.val.images, "set-up")


class PgdEval(_FittedFinalHaar):
    """White-box PGD-20 robust accuracy of a loaded checkpoint."""

    def op(self):
        self.records = []

        def attack_fn(model, xb, yb, cfg, seed=0):
            result = attacks.pgd(model, xb, yb, cfg, seed=seed)
            self.records.append((xb, result))
            return result

        subset = self.val.subset(np.arange(N_PGD))
        t0 = time.process_time()
        acc = evaluation.accuracy(self.model, subset, attack=EVAL_ATTACK, attack_fn=attack_fn,
                                  seed=self.seeds.attack, batch_size=N_PGD)
        seconds = time.process_time() - t0
        return Op(seconds, [seconds], N_PGD,
                  _digest(acc, *(r.x_adv for _, r in self.records)),
                  {"pgd_success_rate": 1.0 - acc})

    def checks(self, op):
        out = []
        for xb, result in self.records:
            out += _check_pgd(xb, result, EVAL_ATTACK, "pgd-eval batch")
        return out


class _ForwardClock:
    """Model stand-in that stamps the time each forward returns. The heat map
    runs one forward per cell, so consecutive stamps bound one cell."""

    def __init__(self, model):
        self.model = model
        self.stamps = []

    def forward(self, x, training=False):
        out = self.model.forward(x, training=training)
        self.stamps.append(time.process_time())
        return out


class ProbeForward(_FittedFinalHaar):
    """Full-grid Fourier heat map, then NES through the logits oracle."""

    def op(self):
        oracle = attacks.logits_oracle(self.model)
        if self.tracer is not None and self.tracer.installed:
            oracle = self.tracer.wrap(oracle, "attacks.nes.oracle",
                                      counter=tracing.count_oracle_samples)
        x, y = self.val.images[:N_NES], self.val.labels[:N_NES]
        clock = _ForwardClock(self.model)
        t0 = time.process_time()
        self.grid = evaluation.fourier_heat_map(clock, self.val, seed=self.seeds.attack)
        t1 = time.process_time()
        self.nes = attacks.nes_attack(oracle, x, y, NES, seed=self.seeds.attack)
        t2 = time.process_time()
        rates, q = self.grid.error_rates, self.nes.queries
        heat_samples = rates.size * min(self.grid.samples_per_cell, len(self.val))
        # per NES sample: one initial check, then per step 2k queries and one check
        nes_samples = int((1 + q + q // (2 * NES.samples_per_step)).sum())
        return Op(t2 - t0, np.diff([t0] + clock.stamps).tolist(), heat_samples + nes_samples,
                  _digest(rates, q, self.nes.success, self.nes.x_adv),
                  {"nes_success_rate": float(self.nes.success.mean()),
                   "heatmap_mean_error": float(rates.mean())})

    def checks(self, op):
        rates, q = self.grid.error_rates, self.nes.queries
        out = [] if rates.min() >= 0.0 and rates.max() <= 1.0 else ["heat-map rate outside [0,1]"]
        out += _check_ball(self.val.images[:N_NES], self.nes.x_adv, NES.epsilon, "nes")
        if (q > NES.max_queries).any():
            out.append(f"nes queries {q.tolist()} exceed max_queries {NES.max_queries}")
        if (q % (2 * NES.samples_per_step)).any():
            out.append(f"nes queries {q.tolist()} not a multiple of 2 x samples_per_step")
        if not op.quality["nes_success_rate"] > 0:
            out.append("nes_success_rate is 0")
        return out


WORKLOADS = {
    "advtrain-stem": AdvTrainStem,
    "pgd-eval": PgdEval,
    "probe-forward": ProbeForward,
}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0       # operations with at least one failed check
    failures: list = field(default_factory=list)
    setup_seconds: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


class Runner:
    """Set up SETUPS times, then run ops until ``seconds`` have passed.

    With a tracer, set-ups and ops run traced, after one untraced op that is
    the baseline for the tracing overhead.
    """

    def __init__(self, workload, seed, seconds, tracer, digest_dir):
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.digest_dir = digest_dir
        self.result = Result()

    def _record(self, failures):
        self.result.attempted += 1
        self.result.failed += bool(failures)
        self.result.failures += failures

    def _phase(self, run_id):
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def _traced(self, fn, root):
        if self.tracer is None:
            return fn()
        with self.tracer.span(root):
            return fn()

    def run(self):
        seeds = Seeds.derive(self.seed)
        with tempfile.TemporaryDirectory(dir=self.digest_dir) as workdir:
            wl = WORKLOADS[self.name](seeds, workdir, self.tracer)
            try:
                self._setups(wl)
                if self.tracer is not None:
                    self.tracer.uninstall()
                    baseline = wl.op()
                    self._record(wl.checks(baseline))
                    self.tracer.install()
                self._ops(wl)
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
            if self.tracer is not None:
                self.result.layers = tracing.layer_metrics(
                    self.tracer, baseline.seconds, [op.seconds for op in self.result.ops])
        return self.result

    def _setups(self, wl):
        if self.tracer is not None:
            self.tracer.install()
        digests = []
        for k in range(SETUPS):
            self._phase(f"setup-{k}")
            t0 = time.process_time()
            model = self._traced(wl.setup, "bench.setup")
            self.result.setup_seconds.append(time.process_time() - t0)
            self._phase(None)
            digests.append(_state_digest(model))
            failures = wl.setup_checks() if k == 0 else []
            if digests[-1] != digests[0]:
                failures.append(f"set-up {k} fitted a different model than set-up 0")
            self._record(failures)

    def _ops(self, wl):
        deadline = time.monotonic() + self.seconds
        while not self.result.ops or time.monotonic() < deadline:
            k = len(self.result.ops)
            self._phase(f"op-{k}")
            op = self._traced(wl.op, "bench.op")
            self._phase(f"check-{k}")
            failures = wl.checks(op)
            first = self.result.ops[0] if self.result.ops else op
            if op.digest != first.digest:
                failures.append(f"op {k} outputs differ from op 0 under the same seed")
            if k == 0:
                failures += self._check_digest_file(op.digest)
            self._phase(None)
            self.result.ops.append(op)
            self._record(failures)

    def _check_digest_file(self, digest):
        """Runs of the same code, workload and seed must agree across processes."""
        path = os.path.join(self.digest_dir, f"digest-{code_sha256()[:16]}-{self.name}-{self.seed}")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                if f.read().strip() != digest:
                    return [f"outputs differ from an earlier run of seed {self.seed} ({path})"]
            return []
        with open(path, "w", encoding="utf-8") as f:
            f.write(digest + "\n")
        return []


def end_to_end(result, import_seconds):
    ops = result.ops
    return {
        "setup_s": (import_seconds + statistics.median(result.setup_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "samples_per_cpu_s": (statistics.median(op.samples / op.seconds for op in ops), "1/s"),
        "job_cpu_s_p50": (statistics.median(t for op in ops for t in op.job_seconds), "s"),
    }


def code_sha256():
    src = os.path.dirname(os.path.abspath(training.__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()
