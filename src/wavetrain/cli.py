"""Command-line front end.

Subcommands: train, eval, attack, heatmap, gradcam, check (wavelet|theorems),
sweep (bases|ablation|positions|gap). Each sweep target trains and evaluates
one model per variant from the same seed: every wavelet base, WAP on and off,
every WAP position, and adversarial against natural training. Every command
resolves a flat key=value config (file plus --set overrides), echoes it to
<out-dir>/resolved_config.txt, and emits CSV (and PGM for image-shaped
results). The error class alone picks the exit code: 0 success, 2
``ConfigError`` (an unsupported wavelet base among them) or ``MemoryError``,
3 ``FormatError`` or ``OSError``, 4 ``NumericError`` (a non-finite logit or
a too-coarse quadrature grid among them), 1 any other package error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .attacks import WHITE_BOX, AttackConfig, NesConfig, eval_logits, logits_oracle, nes_attack
from .autodiff import Tensor
from .config import SCHEMA, RunConfig, load_config
from .data import data_root, load_cifar10, split_train_val, synthetic_dataset
from .errors import ConfigError, FormatError, InputError, NumericError, WavetrainError, check_range
from .evaluation import (
    accuracy,
    fourier_heat_map,
    gradcam,
    theorem_decay_check,
    theorem_local_regularity_check,
)
from .model import WAP_POSITIONS, ModelConfig, build_model
from .storage import load_checkpoint, save_checkpoint, write_csv, write_pgm
from .training import EpochRecord, TrainConfig, adversarial_train
from .wavelet import (
    SUPPORTED_BASES,
    dwt2d,
    filter_bank,
    idwt2d,
    wap_lipschitz_estimate,
)


def _echo_config(cfg: RunConfig, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.txt"), "w", encoding="utf-8") as f:
        f.write(cfg.to_text())


def _load_datasets(cfg: RunConfig):
    """Returns (train, val) per the data.* settings."""
    if cfg["data.source"] == "synthetic":
        total = cfg["data.n_train"] + cfg["data.n_val"]
        try:
            full = synthetic_dataset(cfg["data.num_classes"], total, seed=cfg["seed"])
        except (ValueError, MemoryError) as exc:
            # numpy rejects a size it cannot index or the OS cannot allocate
            raise ConfigError(f"data.num_classes = {cfg['data.num_classes']} classes and "
                              f"data.n_train + data.n_val = {total} samples do not fit "
                              f"in memory: {exc}") from None
        return full.split(cfg["data.n_train"])
    if cfg["data.source"] == "cifar10":
        rel = cfg["data.path"]
        if rel is None:
            raise ConfigError("data.path must name a CIFAR-10 batch file")
        full = load_cifar10(os.path.join(data_root(), rel))
        try:
            return split_train_val(full)
        except InputError as exc:
            raise ConfigError(f"data.path {rel!r} holds {len(full)} record(s): {exc}") from None
    raise ConfigError(f"unknown data.source {cfg['data.source']!r}")


def _checkpoint_and_val(cfg: RunConfig, args):
    """The --checkpoint model and the validation set, with equal class counts."""
    model = load_checkpoint(args.checkpoint)
    _, val = _load_datasets(cfg)
    if val.num_classes != model.cfg.num_classes:
        raise ConfigError(f"the data has {val.num_classes} classes (data.num_classes) but "
                          f"the checkpoint has {model.cfg.num_classes}")
    return model, val


def _build(cls, cfg: RunConfig, prefix: str, **given):
    """A ``cls`` with every field that has a ``prefix + name`` key in SCHEMA
    taken from ``cfg``; ``given`` supplies the others it needs."""
    keyed = {f.name: cfg[prefix + f.name] for f in fields(cls) if prefix + f.name in SCHEMA}
    return cls(**keyed, **given)


def _model_config(cfg: RunConfig, num_classes: int) -> ModelConfig:
    return _build(ModelConfig, cfg, "model.", num_classes=num_classes)


def _train_config(cfg: RunConfig) -> TrainConfig:
    attack = _build(AttackConfig, cfg, "train.attack_")
    return _build(TrainConfig, cfg, "train.", train_attack=attack, seed=cfg["seed"])


def _eval_attacks(model, val, cfg: RunConfig) -> tuple:
    """Clean accuracy, then the accuracy under each WHITE_BOX attack."""
    attack = _build(AttackConfig, cfg, "attack.")
    return (accuracy(model, val),) + tuple(
        accuracy(model, val, attack=attack, attack_fn=attack_fn, seed=cfg["seed"])
        for attack_fn in WHITE_BOX.values()
    )


# -- commands -----------------------------------------------------------------


def cmd_train(cfg: RunConfig, out_dir: str, args) -> int:
    train_cfg = _train_config(cfg)
    train, val = _load_datasets(cfg)
    model_cfg = _model_config(cfg, train.num_classes)
    model = build_model(model_cfg, seed=cfg["seed"])
    best, history = adversarial_train(model, train, val, train_cfg)
    save_checkpoint(best, os.path.join(out_dir, "model.ckpt"))
    write_csv(os.path.join(out_dir, "history.csv"), "train-history", EpochRecord._fields,
              history.epochs)
    print(f"trained {len(history.epochs)} epochs; "
          f"best robust val acc {history.epochs[history.best_epoch].robust_val_acc:.4f} "
          f"(epoch {history.best_epoch})")
    return 0


def cmd_eval(cfg: RunConfig, out_dir: str, args) -> int:
    model, val = _checkpoint_and_val(cfg, args)
    clean = accuracy(model, val)
    write_csv(os.path.join(out_dir, "eval.csv"), "eval",
              ("metric", "value"), [("clean_acc", clean)])
    print(f"clean accuracy {clean:.4f} on {len(val)} samples")
    return 0


def cmd_attack(cfg: RunConfig, out_dir: str, args) -> int:
    kind = cfg["attack.kind"]
    if kind == "nes":
        acfg = _build(NesConfig, cfg, "nes.")
    elif kind in WHITE_BOX:
        acfg = _build(AttackConfig, cfg, "attack.")
    else:
        raise ConfigError(f"unknown attack.kind {kind!r}")
    model, val = _checkpoint_and_val(cfg, args)
    clean = accuracy(model, val)
    if kind == "nes":
        res = nes_attack(logits_oracle(model), val.images, val.labels, acfg,
                         seed=cfg["seed"])
        # each success[i] is the oracle's prediction on the x_adv[i] returned
        robust = float(np.mean(~res.success))
        rows = [(kind, acfg.epsilon, clean, robust, float(res.success.mean()),
                 float(res.queries.mean()))]
        header = ("kind", "epsilon", "clean_acc", "robust_acc", "success_rate",
                  "mean_queries")
    else:
        robust = accuracy(model, val, attack=acfg, attack_fn=WHITE_BOX[kind],
                          seed=cfg["seed"])
        rows = [(kind, acfg.epsilon, clean, robust, 1.0 - robust, 0.0)]
        header = ("kind", "epsilon", "clean_acc", "robust_acc", "error_rate",
                  "mean_queries")
    write_csv(os.path.join(out_dir, "attack.csv"), "attack", header, rows)
    print(f"{kind}: clean {clean:.4f} robust {rows[0][3]:.4f}")
    return 0


def _write_map(out_dir: str, stem: str, name: str, header, matrix):
    """``matrix`` as ``<stem>.pgm`` and as ``<stem>.csv``, one row per cell."""
    write_pgm(os.path.join(out_dir, f"{stem}.pgm"), matrix)
    rows = [(i, j, matrix[i, j]) for i in range(matrix.shape[0]) for j in range(matrix.shape[1])]
    write_csv(os.path.join(out_dir, f"{stem}.csv"), name, header, rows)


def cmd_heatmap(cfg: RunConfig, out_dir: str, args) -> int:
    model, val = _checkpoint_and_val(cfg, args)
    grid = fourier_heat_map(model, val, eps_f=cfg["heatmap.eps_f"],
                            samples_per_cell=cfg["heatmap.samples_per_cell"],
                            seed=cfg["seed"], rows=cfg["heatmap.rows"] or None,
                            cols=cfg["heatmap.cols"] or None)
    _write_map(out_dir, "heatmap", "fourier-heatmap", ("freq_row", "freq_col", "error_rate"),
               grid.error_rates)
    print(f"heat map {grid.error_rates.shape} mean error "
          f"{grid.error_rates.mean():.4f}")
    return 0


def cmd_gradcam(cfg: RunConfig, out_dir: str, args) -> int:
    model, val = _checkpoint_and_val(cfg, args)
    index = cfg["gradcam.index"]
    check_range("gradcam.index", index, f"[0,{len(val)})")
    image = val.images[index]
    class_id = cfg["gradcam.class_id"]
    check_range("gradcam.class_id", class_id, f"[-1,{model.cfg.num_classes})")
    if class_id < 0:
        class_id = int(eval_logits(model, image[None]).argmax(axis=1)[0])
    cam = gradcam(model, image, class_id)
    _write_map(out_dir, "gradcam", "gradcam", ("row", "col", "weight"), cam)
    print(f"gradcam for sample {index} class {class_id}: peak {cam.max():.3f}")
    return 0


def cmd_check_wavelet(cfg: RunConfig, out_dir: str, args) -> int:
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    worst_pr = 0.0
    for name in SUPPORTED_BASES:
        fb = filter_bank(name)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        s = dwt2d(Tensor(x), fb)
        pr = float(np.abs(idwt2d(s, fb).data - x).max())
        if fb.orthogonal:
            total = sum(float((b.data.astype(np.float64) ** 2).sum())
                        for b in (s.ll, s.lh, s.hl, s.hh))
            energy = float((x.astype(np.float64) ** 2).sum())
            parseval = abs(total - energy) / energy
        else:
            parseval = float("nan")
        lip = wap_lipschitz_estimate(fb)
        rows.append((name, pr, parseval, lip, int(fb.orthogonal)))
        worst_pr = max(worst_pr, pr)
        if pr > 1e-5 or (fb.orthogonal and parseval > 1e-4):
            raise NumericError(f"{name}: reconstruction residuals out of tolerance")
    write_csv(os.path.join(out_dir, "wavelet_check.csv"), "wavelet-check",
              ("base", "pr_max_abs", "parseval_rel", "wap_lipschitz", "orthogonal"),
              rows)
    print(f"all {len(rows)} banks reconstruct (worst max-abs {worst_pr:.2e})")
    return 0


def cmd_check_theorems(cfg: RunConfig, out_dir: str, args) -> int:
    grid_points = cfg["theorem.grid_points"]
    scales = [2.0 ** -k for k in range(2, 8)]
    rows = []
    for base in ("haar", "db5", "sym4"):
        for alpha in (0.3, 0.5, 0.7, 1.0):
            # an interior kink keeps bases with several vanishing moments excited
            fit = theorem_decay_check(base, alpha, scales, grid_points=grid_points,
                                      kink_frac=0.37)
            rows.append(("decay_slope", base, alpha, fit.fitted_slope, fit.theoretical_slope))
            if abs(fit.fitted_slope - fit.theoretical_slope) > 0.1:
                raise NumericError(f"{base} decay slope {fit.fitted_slope:.3f} off the "
                                   f"{fit.theoretical_slope} bound")
    reg = theorem_local_regularity_check("haar", 1.0)
    rows.append(("local_regularity_max_ratio", "haar", 1.0, reg.max_ratio, float("nan")))
    rows.append(("modulus_halving_first", "haar", 1.0, reg.modulus_halving_ratios[0], 0.5))
    rows.append(("log_refined_max_ratio", "haar", 1.0, reg.log_refined_max_ratio, float("nan")))
    if not reg:
        raise NumericError("local regularity/modulus check failed")
    write_csv(os.path.join(out_dir, "theorem_check.csv"), "theorem-check",
              ("check", "base", "alpha", "value", "reference"), rows)
    print("decay and local-regularity checks within bounds")
    return 0


# target -> (first column, variants). A variant is a name plus the RunConfig
# values it overrides. A sweep of two variants ends with a delta row, the
# first variant's metrics minus the second's.
SWEEPS = {
    "bases": ("base", [(base, {"model.wavelet_base": base}) for base in SUPPORTED_BASES]),
    "ablation": ("variant", [
        ("with_wavelet", {}),
        ("without_wavelet", {"model.wavelet_base": None, "model.wap_position": "disabled"}),
    ]),
    "positions": ("position", [(pos, {"model.wap_position": pos}) for pos in WAP_POSITIONS]),
    "gap": ("variant", [("adversarial", {}), ("natural", {"train.attack_epsilon": 0.0})]),
}


def cmd_sweep(cfg: RunConfig, out_dir: str, args) -> int:
    column, variants = SWEEPS[args.target]
    delta = len(variants) == 2
    # after the final ReLU only the global average reads the pool, and it
    # gives every base the same value; a disabled stage has no pool
    position = cfg["model.wap_position"]
    if args.target == "bases" and position in ("after_final_relu", "disabled"):
        raise ConfigError(f"sweep bases at model.wap_position={position} gives every base "
                          f"the same model; set model.wap_position=after_first_conv or "
                          f"before_final_relu")
    train, val = _load_datasets(cfg)
    rows = []
    for name, overrides in variants:
        run_cfg = RunConfig({**cfg.values, **overrides})
        model = build_model(_model_config(run_cfg, train.num_classes), seed=cfg["seed"])
        if cfg["train.epochs"] > 0:
            model, _ = adversarial_train(model, train, val, _train_config(run_cfg))
        rows.append((name,) + _eval_attacks(model, val, run_cfg))
    if delta:
        rows.append(("delta",) + tuple(a - b for a, b in zip(rows[0][1:], rows[1][1:])))
    write_csv(os.path.join(out_dir, f"sweep_{args.target}.csv"), f"sweep-{args.target}",
              (column, "clean") + tuple(WHITE_BOX), rows)
    print(f"swept {len(variants)} {args.target} variants"
          + (f"; pgd delta {rows[-1][3]:+.4f}" if delta else ""))
    return 0


# -- entry point ---------------------------------------------------------------


# (command, target) -> handler; argparse takes each command's targets from here
COMMANDS = {
    ("train", None): cmd_train,
    ("eval", None): cmd_eval,
    ("attack", None): cmd_attack,
    ("heatmap", None): cmd_heatmap,
    ("gradcam", None): cmd_gradcam,
    ("check", "wavelet"): cmd_check_wavelet,
    ("check", "theorems"): cmd_check_theorems,
    **{("sweep", target): cmd_sweep for target in SWEEPS},
}

HELP = {
    "train": "adversarially train a model",
    "eval": "clean accuracy of a checkpoint",
    "attack": "run the configured attack",
    "heatmap": "Fourier sensitivity heat map",
    "gradcam": "class activation map for one sample",
    "check": "self-checks",
    "sweep": "config sweeps",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wavetrain")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in HELP.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--out-dir", default="out", help="output directory")
        if command in ("eval", "attack", "heatmap", "gradcam"):
            p.add_argument("--checkpoint", required=True)
        targets = [t for c, t in COMMANDS if c == command and t is not None]
        if targets:
            p.add_argument("target", choices=targets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        _echo_config(cfg, args.out_dir)
        return COMMANDS[args.command, getattr(args, "target", None)](cfg, args.out_dir, args)
    except (ConfigError, MemoryError) as exc:
        print(f"error[config]: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error[format]: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 4
    except WavetrainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
