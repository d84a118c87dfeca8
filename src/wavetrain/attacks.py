"""White-box attacks (FGSM, PGD, MIM, margin-loss PGD) and the NES black-box
attack, all under an L-infinity budget with [0,1] box clamping.

Pixel-scale convention: every budget is expressed on the [0,1] scale (the
common 0-255 settings divide by 255, so a step size of "2" becomes 2/255).
Each returned batch satisfies ``|x_adv - x|_inf <= epsilon`` and
``x_adv in [0,1]`` elementwise. Restarts keep the candidate with the highest
final loss per sample, never the first success.

Attacks always query the model in eval mode, so they are pure functions of
(model snapshot, batch, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError

LOSS_KINDS = ("cross_entropy", "cw_margin")


@dataclass
class AttackConfig:
    epsilon: float
    step_size: float = 2.0 / 255.0
    steps: int = 20
    random_init: bool = True
    restarts: int = 1
    decay: float = 1.0
    loss_kind: str = "cross_entropy"
    kappa: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.decay < 0:
            raise ConfigError("decay must be >= 0")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}")


@dataclass
class AttackResult:
    x_adv: np.ndarray
    success: np.ndarray          # per sample: prediction != true label
    queries: np.ndarray          # per sample oracle queries (NES; zeros otherwise)
    grad_calls: int = 0          # total input-gradient computations (white-box)


def _validate_labels(y, n):
    y = np.asarray(y).astype(np.int64).reshape(-1)
    if y.shape != (n,):
        raise ConfigError(f"labels must have shape ({n},)")
    return y


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
    package asks a model for predictions without gradients."""
    with ad.no_grad():
        return model.forward(Tensor(x), training=False).data


def _frozen_params(model):
    params = getattr(model, "params", None)
    return list(params.values()) if isinstance(params, dict) else []


def _input_grad(model, x, y, loss_kind, kappa):
    # parameters do not need gradients here; freezing them skips the weight
    # gradient computation in every layer's backward rule
    params = _frozen_params(model)
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        t = Tensor(x, requires_grad=True)
        logits = model.forward(t, training=False)
        if loss_kind == "cross_entropy":
            loss = ad.softmax_cross_entropy(logits, y)
        else:
            loss = -ad.cw_margin_loss(logits, y, kappa)
        loss.backward()
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
    if not np.all(np.isfinite(t.grad)):
        raise NumericError("non-finite input gradient during attack")
    return t.grad


def _finish(logits, x_adv, y, grad_calls):
    return AttackResult(
        x_adv=x_adv,
        success=logits.argmax(axis=1) != y,
        queries=np.zeros(len(y), dtype=np.int64),
        grad_calls=grad_calls,
    )


def fgsm(model, x, y, cfg: AttackConfig, seed: int = 0) -> AttackResult:
    """Single signed-gradient step of size epsilon on the cross-entropy loss:
    PGD with one step, no random start and no restarts."""
    one_step = replace(cfg, steps=1, step_size=cfg.epsilon, random_init=False, restarts=1,
                       loss_kind="cross_entropy")
    return _iterated_signed_ascent(model, x, y, one_step, seed, momentum=None)


def _iterated_signed_ascent(model, x, y, cfg, seed, momentum):
    """Shared FGSM/PGD/MIM machinery; momentum=None gives plain PGD steps.

    The eval forward that scores each restart's final iterate also gives the
    returned ``success``, so no forward runs twice on the same batch.
    """
    x = np.asarray(x, dtype=np.float32)
    y = _validate_labels(y, x.shape[0])
    if cfg.epsilon == 0.0:
        # zero budget: every iterate projects back onto x
        return _finish(eval_logits(model, x), x.copy(), y, grad_calls=0)
    rng = np.random.default_rng(seed)
    eps = np.float32(cfg.epsilon)
    alpha = np.float32(cfg.step_size)

    best_loss = best_x = best_logits = None
    grad_calls = 0
    for _ in range(cfg.restarts):
        if cfg.random_init:
            noise = rng.uniform(-cfg.epsilon, cfg.epsilon, size=x.shape).astype(np.float32)
            x_adv = _box_then_ball(x + noise, x, eps)
        else:
            x_adv = x.copy()
        g_acc = np.zeros_like(x) if momentum is not None else None
        for _ in range(cfg.steps):
            grad = _input_grad(model, x_adv, y, cfg.loss_kind, cfg.kappa)
            grad_calls += 1
            if momentum is not None:
                norms = np.abs(grad).sum(axis=tuple(range(1, grad.ndim)), keepdims=True)
                unit = np.divide(grad, norms, out=np.zeros_like(grad), where=norms > 0)
                g_acc = np.float32(momentum) * g_acc + unit
                direction = np.sign(g_acc, dtype=np.float32)
            else:
                direction = np.sign(grad, dtype=np.float32)
            x_adv = _box_then_ball(x_adv + alpha * direction, x, eps)
        # per-sample ascent objective of the final iterate (higher = stronger)
        logits = eval_logits(model, x_adv)
        if cfg.loss_kind == "cross_entropy":
            final_loss = ad.cross_entropy_rows(logits, y)[0]
        else:
            final_loss = -np.maximum(ad.margin_rows(logits, y)[0], -cfg.kappa)
        if best_loss is None:
            best_loss, best_x, best_logits = final_loss, x_adv, logits
            continue
        better = final_loss > best_loss
        best_loss = np.where(better, final_loss, best_loss)
        best_x[better] = x_adv[better]
        best_logits[better] = logits[better]
    return _finish(best_logits, best_x, y, grad_calls)


def pgd(model, x, y, cfg: AttackConfig, seed: int = 0) -> AttackResult:
    """Projected signed-gradient ascent with optional random init/restarts."""
    return _iterated_signed_ascent(model, x, y, cfg, seed, momentum=None)


def mim(model, x, y, cfg: AttackConfig, seed: int = 0) -> AttackResult:
    """Momentum attack: accumulate L1-normalized gradients, step by sign."""
    return _iterated_signed_ascent(model, x, y, cfg, seed, momentum=cfg.decay)


def cw_pgd(model, x, y, cfg: AttackConfig, seed: int = 0) -> AttackResult:
    """PGD on the margin loss max(z_y - max_{c!=y} z_c, -kappa)."""
    if cfg.loss_kind != "cw_margin":
        raise ConfigError("cw_pgd requires loss_kind == 'cw_margin'")
    return _iterated_signed_ascent(model, x, y, cfg, seed, momentum=None)


# -- black box -----------------------------------------------------------------


@dataclass
class NesConfig:
    epsilon: float = 0.05
    fd_eta: float = 2.55 / 255.0
    lr: float = 2.55 / 255.0
    max_queries: int = 10000
    samples_per_step: int = 25

    def __post_init__(self):
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if self.samples_per_step < 1:
            raise ConfigError("samples_per_step must be >= 1")
        if self.max_queries < 2 * self.samples_per_step:
            raise ConfigError("max_queries must cover at least one estimation step")


def logits_oracle(model) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a model as a logits-only query interface (no gradients exposed)."""

    def oracle(batch):
        return eval_logits(model, batch)

    return oracle


def nes_attack(oracle, x, y, cfg: NesConfig, seed: int = 0) -> AttackResult:
    """Antithetic Gaussian gradient estimation + signed ascent, per sample.

    The query budget counts the 2k estimation evaluations of each step;
    iteration stops on success (prediction off the true label) or when the
    next step would exceed ``max_queries``.
    """
    x = np.asarray(x, dtype=np.float32)
    y = _validate_labels(y, x.shape[0])
    rng = np.random.default_rng(seed)
    k = cfg.samples_per_step
    sigma = cfg.fd_eta

    x_adv = x.copy()
    queries = np.zeros(len(y), dtype=np.int64)
    success = np.zeros(len(y), dtype=bool)
    for i in range(len(y)):
        xi = x[i]
        success[i] = oracle(xi[None]).argmax(axis=1)[0] != y[i]
        if cfg.epsilon == 0.0 or success[i]:
            x_adv[i] = xi
            continue
        cur = xi.copy()
        label = np.full(k, y[i])
        while queries[i] + 2 * k <= cfg.max_queries:
            u = rng.standard_normal((k,) + xi.shape).astype(np.float32)
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
    return AttackResult(x_adv=x_adv, success=success, queries=queries, grad_calls=0)

