"""Adversarial training: min-max ERM with PGD-generated batches, a multi-step
learning-rate schedule, early stopping on robust validation accuracy, and
one ``EpochRecord`` of loss, accuracies and gradient norm per epoch.

The kept checkpoint is the epoch with the largest key (clean validation
accuracy above the validation set's majority-class rate, robust validation
accuracy): among the epochs that beat a constant predictor on clean data,
the most robust one, and only when none does, the most robust of all. The
first maximum wins, and early stopping counts the epochs that do not raise
that key. On a balanced two-class set a constant predictor scores exactly
0.5 robust, which an epoch that learned something can score below.

A zero-budget training attack is natural training: such an epoch trains on
the clean batches without calling the attack, which saves its ``steps``
gradient passes per batch, and its robust validation accuracy is its clean
accuracy. That is bitwise what running the attack would give, since PGD at
epsilon 0 projects every step back onto the batch and draws only from its
own per-call generator, not from the shuffling stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .attacks import AttackConfig, pgd
from .autodiff import SGDMomentum, Tensor
from .data import Dataset
from .errors import ConfigError, NumericError, UsageError, check_range
from .evaluation import accuracy
from .model import Model

LR_DECAY = 0.1   # learning-rate factor at each milestone


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    lr_initial: float = 0.1
    lr_milestones: tuple = ()
    momentum: float = 0.9
    weight_decay: float = 5e-4
    # PGD-10 at 2/255 with random init; epsilon 0.031
    train_attack: AttackConfig = field(default_factory=lambda: AttackConfig(
        epsilon=0.031, step_size=2.0 / 255.0, steps=10, random_init=True))
    early_stop_patience: int = 0     # 0 disables early stopping
    seed: int = 0

    def __post_init__(self):
        check_range("epochs", self.epochs, "[1,inf)")
        ms = tuple(int(m) for m in self.lr_milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError("lr_milestones must be strictly increasing")
        for m in ms:
            check_range("lr_milestones", m, f"[0,{self.epochs})")
        self.lr_milestones = ms
        check_range("batch_size", self.batch_size, "[1,inf)")
        check_range("early_stop_patience", self.early_stop_patience, "[0,inf)")
        check_range("lr_initial", self.lr_initial, "(0,inf)")
        check_range("momentum", self.momentum, "[0,1)")
        check_range("weight_decay", self.weight_decay, "[0,inf)")


class EpochRecord(NamedTuple):
    """One epoch's numbers; the fields are the ``history.csv`` columns."""
    epoch: int
    train_loss: float
    clean_val_acc: float
    robust_val_acc: float
    grad_norm: float


def _column(name):
    """A read-only view: one EpochRecord field of every epoch, as a list."""
    return property(lambda history: [getattr(r, name) for r in history.epochs])


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)   # one EpochRecord per epoch run
    best_epoch: int = -1

    # the columns perfbench reads and hashes into its advtrain-stem digest
    train_loss = _column("train_loss")
    robust_val_acc = _column("robust_val_acc")
    grad_norm = _column("grad_norm")

    def append(self, record: EpochRecord):
        if not all(math.isfinite(v) for v in record):
            raise NumericError(f"non-finite value in training history: {record}")
        self.epochs.append(record)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """lr_initial decayed by LR_DECAY once per milestone already passed."""
    check_range("epoch", epoch, "[0,inf)")
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
    checkpoint of the best epoch (see the module docstring) plus the
    history."""
    rng = np.random.default_rng(cfg.seed)
    opt = SGDMomentum(list(model.params.values()), lr=cfg.lr_initial,
                      momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    history = TrainHistory()
    majority = np.bincount(val_set.labels).max() / len(val_set)
    best_key = (False, -1.0)
    best_state = None
    stale = 0
    natural = cfg.train_attack.epsilon == 0.0

    for epoch in range(cfg.epochs):
        opt.lr = lr_at(epoch, cfg)
        perm = rng.permutation(len(train_set))
        losses = []
        gnorms = []
        for step, start in enumerate(range(0, len(perm), cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            xb = train_set.images[idx]
            yb = train_set.labels[idx]
            if natural:
                adv = xb
            else:
                adv = pgd(model, xb, yb, cfg.train_attack,
                          seed=cfg.seed + 100_003 * epoch + step).x_adv
            with ad.tape(*model.params.values()):
                logits = model.forward(Tensor(adv), training=True)
            rows, grad = ad.cross_entropy_rows(logits.data, yb)
            loss_value = float(np.float32(rows.mean()))
            if not math.isfinite(loss_value):
                raise NumericError(
                    f"training loss became non-finite at epoch {epoch} step {step}"
                )
            opt.zero_grad()
            logits.backward(grad)
            gnorms.append(gradient_norm(model))
            opt.step()
            losses.append(loss_value)

        clean = accuracy(model, val_set)
        # pgd as this module binds it, not accuracy's default argument
        robust = clean if natural else accuracy(model, val_set, attack=cfg.train_attack,
                                                attack_fn=pgd, seed=cfg.seed + 777)
        history.append(EpochRecord(epoch, float(np.mean(losses)), clean, robust,
                                   float(np.mean(gnorms))))

        key = (clean > majority, robust)
        if key > best_key:
            best_key = key
            best_state = [(n, a.copy()) for n, a in model.state_arrays()]
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if cfg.early_stop_patience and stale >= cfg.early_stop_patience:
                break

    return Model(model.cfg).load_state_arrays(best_state), history
