"""White-box attacks (FGSM, PGD, MIM, margin-loss PGD) and the NES black-box
attack, all under an L-infinity budget with [0,1] box clamping.

Pixel-scale convention: every budget is expressed on the [0,1] scale (the
common 0-255 settings divide by 255, so a step size of "2" becomes 2/255).
Each returned batch satisfies ``|x_adv - x|_inf <= epsilon`` and
``x_adv in [0,1]`` elementwise. Restarts keep the candidate with the highest
final loss per sample, never the first success.

A white-box attack returns the batch it built and its gradient passes,
``steps * restarts`` at every epsilon; ``evaluation.accuracy`` scores it.

Attacks always query the model in eval mode, so they are pure functions of
(model snapshot, batch, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, NumericError, check_range, physical_memory


@dataclass
class AttackConfig:
    epsilon: float
    step_size: float = 2.0 / 255.0
    steps: int = 20
    random_init: bool = True
    restarts: int = 1
    decay: float = 1.0
    kappa: float = 0.0           # CW margin confidence; the other attacks ignore it

    def __post_init__(self):
        for name in ("epsilon", "step_size", "decay", "kappa"):
            check_range(name, getattr(self, name), "[0,inf)")
        check_range("steps", self.steps, "[1,inf)")
        check_range("restarts", self.restarts, "[1,inf)")


@dataclass
class AttackResult:
    x_adv: np.ndarray
    grad_calls: int              # input-gradient passes: steps * restarts


def _box_then_ball(cand, x0, eps):
    """clamp to [0,1], then project onto the L-inf ball around x0.

    min/max composition returns in-range values bit-unchanged, which keeps
    the single-step reductions (FGSM == 1-step PGD) exact.
    """
    cand = np.minimum(np.maximum(cand, np.float32(0.0)), np.float32(1.0))
    cand = np.minimum(np.maximum(cand, x0 - np.float32(eps)), x0 + np.float32(eps))
    return cand


def eval_logits(model, x) -> np.ndarray:
    """Logits of one eval-mode forward pass with no tape: the single way the
    package asks a model for predictions without gradients. A non-finite
    logit raises NumericError: a float64 sum cannot overflow on float32
    values and carries any NaN or inf through."""
    # the check below reports any overflow, so numpy need not warn first
    with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        logits = model.forward(Tensor(x), training=False).data
    if not math.isfinite(logits.sum(dtype=np.float64)):
        raise NumericError("non-finite logits in an eval forward")
    return logits


def _objective(logits, y, kappa):
    """Per-row ascent objective of the logits (higher = stronger) and the
    gradient of its mean: the cross-entropy for kappa None, else the negated
    CW margin."""
    if kappa is None:
        return ad.cross_entropy_rows(logits, y)
    rows, grad = ad.margin_rows(logits, y, kappa)
    return -rows, -grad


def _input_grad(model, x, y, kappa):
    t = Tensor(x, requires_grad=True)
    # the tape records only the paths from the input, so no rule builds a
    # weight gradient; the finiteness check below reports any overflow
    with ad.no_grad(t), np.errstate(over="ignore", invalid="ignore"):
        logits = model.forward(t, training=False)
        logits.backward(_objective(logits.data, y, kappa)[1])
    if not np.all(np.isfinite(t.grad)):
        raise NumericError("non-finite input gradient during attack")
    return t.grad


def fgsm(model, x, y, cfg: AttackConfig, seed: int = 0) -> AttackResult:
    """Single signed-gradient step of size epsilon on the cross-entropy loss:
    PGD with one step, no random start and no restarts."""
    one_step = replace(cfg, steps=1, step_size=cfg.epsilon, random_init=False, restarts=1)
    return _iterated_signed_ascent(model, x, y, one_step, seed)


def _iterated_signed_ascent(model, x, y, cfg, seed, momentum=None, kappa=None):
    """Shared FGSM/PGD/MIM/CW machinery; momentum=None gives plain PGD steps,
    kappa=None ascends the cross-entropy and a kappa the CW margin. With one
    restart it returns after the last step; with more, an eval forward scores
    each restart's final iterate to choose between them."""
    x = np.asarray(x, dtype=np.float32)
    if len(x) == 0:
        raise InputError("an attack needs a non-empty batch")
    rng = np.random.default_rng(seed)
    eps = np.float32(cfg.epsilon)
    alpha = np.float32(cfg.step_size)

    best_loss = best_x = None
    grad_calls = 0
    for _ in range(cfg.restarts):
        if cfg.random_init:
            noise = rng.uniform(-cfg.epsilon, cfg.epsilon, size=x.shape).astype(np.float32)
            x_adv = _box_then_ball(x + noise, x, eps)
        else:
            x_adv = x.copy()
        g_acc = np.zeros_like(x) if momentum is not None else None
        for _ in range(cfg.steps):
            grad = _input_grad(model, x_adv, y, kappa)
            grad_calls += 1
            if momentum is not None:
                norms = np.abs(grad).sum(axis=tuple(range(1, grad.ndim)), keepdims=True)
                unit = np.divide(grad, norms, out=np.zeros_like(grad), where=norms > 0)
                g_acc = np.float32(momentum) * g_acc + unit
                direction = np.sign(g_acc, dtype=np.float32)
            else:
                direction = np.sign(grad, dtype=np.float32)
            x_adv = _box_then_ball(x_adv + alpha * direction, x, eps)
        if cfg.restarts == 1:
            return AttackResult(x_adv=x_adv, grad_calls=grad_calls)
        final_loss = _objective(eval_logits(model, x_adv), y, kappa)[0]
        if best_loss is None:
            best_loss, best_x = final_loss, x_adv
            continue
        better = final_loss > best_loss
        best_loss = np.where(better, final_loss, best_loss)
        best_x[better] = x_adv[better]
    return AttackResult(x_adv=best_x, grad_calls=grad_calls)


def pgd(model, x, y, cfg: AttackConfig, seed: int = 0) -> AttackResult:
    """Projected signed-gradient ascent with optional random init/restarts."""
    return _iterated_signed_ascent(model, x, y, cfg, seed)


def mim(model, x, y, cfg: AttackConfig, seed: int = 0) -> AttackResult:
    """Momentum attack: accumulate L1-normalized gradients, step by sign."""
    return _iterated_signed_ascent(model, x, y, cfg, seed, momentum=cfg.decay)


def cw_pgd(model, x, y, cfg: AttackConfig, seed: int = 0) -> AttackResult:
    """PGD on the margin loss max(z_y - max_{c!=y} z_c, -kappa)."""
    return _iterated_signed_ascent(model, x, y, cfg, seed, kappa=cfg.kappa)


# attack.kind -> white-box attack
WHITE_BOX = {"fgsm": fgsm, "pgd": pgd, "mim": mim, "cw": cw_pgd}


# -- black box -----------------------------------------------------------------


@dataclass
class NesConfig:
    epsilon: float = 0.05
    fd_eta: float = 2.55 / 255.0
    lr: float = 2.55 / 255.0
    max_queries: int = 10000
    samples_per_step: int = 25

    def __post_init__(self):
        check_range("epsilon", self.epsilon, "[0,inf)")
        check_range("lr", self.lr, "[0,inf)")
        check_range("fd_eta", self.fd_eta, "(0,inf)")
        # one step draws this many float64 perturbations of one input
        check_range("samples_per_step", self.samples_per_step, f"[1,{physical_memory() // 8}]")
        # the budget covers at least one estimation step
        check_range("max_queries", self.max_queries, f"[{2 * self.samples_per_step},inf)")


@dataclass
class NesResult:
    x_adv: np.ndarray
    success: np.ndarray          # per sample: the oracle's prediction on x_adv is off the label
    queries: np.ndarray          # per sample: estimation queries spent


def logits_oracle(model) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a model as a logits-only query interface (no gradients exposed)."""

    def oracle(batch):
        return eval_logits(model, batch)

    return oracle


def nes_attack(oracle, x, y, cfg: NesConfig, seed: int = 0) -> NesResult:
    """Antithetic Gaussian gradient estimation + signed ascent, per sample.

    The query budget counts the 2k estimation evaluations of each step;
    iteration stops on success (prediction off the true label) or when the
    next step would exceed ``max_queries``.
    """
    x = np.asarray(x, dtype=np.float32)
    n = len(x)
    if n == 0:
        raise InputError("an attack needs a non-empty batch")
    rng = np.random.default_rng(seed)
    k = cfg.samples_per_step
    sigma = cfg.fd_eta

    x_adv = x.copy()
    queries = np.zeros(n, dtype=np.int64)
    success = np.zeros(n, dtype=bool)
    for i in range(n):
        xi = x[i]
        logits = oracle(xi[None])
        if i == 0:
            # the first answer gives the class count every label must lie under
            y = ad.check_labels(y, n, logits.shape[1])
        success[i] = logits.argmax(axis=1)[0] != y[i]
        # freed before this sample's steps: kept alive through them, this small
        # array split the heap under their arrays (+2 MB peak RSS on NES runs)
        del logits
        if cfg.epsilon == 0.0 or success[i]:
            x_adv[i] = xi
            continue
        cur = xi.copy()
        label = np.full(k, y[i])
        while queries[i] + 2 * k <= cfg.max_queries:
            u = rng.standard_normal((k,) + xi.shape).astype(np.float32)
            # a query that overflows yields a non-finite logit the oracle reports
            with np.errstate(over="ignore"):
                plus = ad.cross_entropy_rows(oracle(cur[None] + sigma * u), label)[0]
                minus = ad.cross_entropy_rows(oracle(cur[None] - sigma * u), label)[0]
            queries[i] += 2 * k
            ghat = np.tensordot((plus - minus) / (2.0 * sigma * k), u, axes=(0, 0))
            cur = _box_then_ball(
                cur + np.float32(cfg.lr) * np.sign(ghat).astype(np.float32),
                xi, np.float32(cfg.epsilon),
            )
            if oracle(cur[None]).argmax(axis=1)[0] != y[i]:
                success[i] = True
                break
        x_adv[i] = cur
    return NesResult(x_adv=x_adv, success=success, queries=queries)

