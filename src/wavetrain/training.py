"""Adversarial training: min-max ERM with PGD-generated batches, a multi-step
learning-rate schedule, early stopping on robust validation accuracy, and
per-epoch loss/gradient logging.

With a zero-budget training attack the loop reduces bitwise to natural
training under the same seed: the attack returns the clean batch unchanged
and draws from its own generator, so the shuffling stream is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attacks import AttackConfig, pgd
from .autodiff import SGDMomentum, Tensor
from .data import Dataset
from .errors import ConfigError, NumericError, UsageError
from .evaluation import accuracy
from .model import Model

LR_DECAY = 0.1   # learning-rate factor at each milestone


def default_train_attack() -> AttackConfig:
    # 10 iterations at 2/255 with random init; epsilon 0.031
    return AttackConfig(epsilon=0.031, step_size=2.0 / 255.0, steps=10,
                        random_init=True)


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    lr_initial: float = 0.1
    lr_milestones: tuple = ()
    momentum: float = 0.9
    weight_decay: float = 5e-4
    train_attack: AttackConfig = field(default_factory=default_train_attack)
    early_stop_patience: int = 0     # 0 disables early stopping
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        ms = tuple(int(m) for m in self.lr_milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError("lr_milestones must be strictly increasing")
        if any(m < 0 or m >= self.epochs for m in ms):
            raise ConfigError("lr_milestones must lie in [0, epochs)")
        self.lr_milestones = ms
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    clean_val_acc: list = field(default_factory=list)
    robust_val_acc: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    best_epoch: int = -1

    def record(self, loss, clean, robust, gnorm):
        for v in (loss, clean, robust, gnorm):
            if not math.isfinite(v):
                raise NumericError("non-finite value in training history")
        self.train_loss.append(loss)
        self.clean_val_acc.append(clean)
        self.robust_val_acc.append(robust)
        self.grad_norm.append(gnorm)

    def epochs_completed(self):
        return len(self.train_loss)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """lr_initial decayed by LR_DECAY once per milestone already passed."""
    if epoch < 0:
        raise ConfigError("epoch must be >= 0")
    passed = sum(1 for m in cfg.lr_milestones if m <= epoch)
    return cfg.lr_initial * (LR_DECAY ** passed)


def gradient_norm(model: Model) -> float:
    """L2 norm of the concatenation of all parameter gradients."""
    total = 0.0
    for name, p in model.params.items():
        if p.grad is None:
            raise UsageError(f"gradient_norm before backward: {name} has no grad")
        total += float((p.grad.astype(np.float64) ** 2).sum())
    return math.sqrt(total)


def adversarial_train(model: Model, train_set: Dataset, val_set: Dataset,
                      cfg: TrainConfig):
    """Train against PGD adversaries of the current model; return the
    checkpoint with the best robust validation accuracy plus the history."""
    if len(train_set) == 0 or len(val_set) == 0:
        raise ConfigError("datasets must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    opt = SGDMomentum(list(model.params.values()), lr=cfg.lr_initial,
                      momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    history = TrainHistory()
    best_robust = -1.0
    best_state = None
    stale = 0

    for epoch in range(cfg.epochs):
        opt.lr = lr_at(epoch, cfg)
        perm = rng.permutation(len(train_set))
        losses = []
        gnorms = []
        for step, start in enumerate(range(0, len(perm), cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            xb = train_set.images[idx]
            yb = train_set.labels[idx]
            adv = pgd(model, xb, yb, cfg.train_attack,
                      seed=cfg.seed + 100_003 * epoch + step).x_adv
            logits = model.forward(Tensor(adv), training=True)
            loss = ad.softmax_cross_entropy(logits, yb)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericError(
                    f"training loss became non-finite at epoch {epoch} step {step}"
                )
            opt.zero_grad()
            loss.backward()
            gnorms.append(gradient_norm(model))
            opt.step()
            losses.append(loss_value)

        clean = accuracy(model, val_set)
        robust = accuracy(model, val_set, attack=cfg.train_attack,
                          seed=cfg.seed + 777)
        history.record(float(np.mean(losses)), clean, robust, float(np.mean(gnorms)))

        if robust > best_robust:
            best_robust = robust
            best_state = [(n, a.copy()) for n, a in model.state_arrays()]
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if cfg.early_stop_patience and stale >= cfg.early_stop_patience:
                break

    best_model = Model(model.cfg).initialize(seed=0)
    best_model.load_state_arrays(best_state)
    return best_model, history
