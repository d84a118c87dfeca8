"""Bytes ledger: sha256 prefixes of every output that runs through the loss
and the backward, and of the files the CLI writes, at a tiny fixed config
(depth 1, width 1, two classes, 64 training and 32 validation samples).

A change that moves any of these bytes edits ``LEDGER`` or ``CLI_LEDGER``,
so the diff of these tables is the record of what moved. The digests were
written with numpy 2.4.6 on OpenBLAS 0.3.31 (Haswell kernels); float32 GEMM
bits can differ under another BLAS kernel.
"""

import hashlib

import numpy as np
import pytest

from wavetrain.attacks import WHITE_BOX, AttackConfig, NesConfig, logits_oracle, nes_attack
from wavetrain.cli import main
from wavetrain.data import synthetic_dataset
from wavetrain.evaluation import gradcam
from wavetrain.model import ModelConfig, build_model
from wavetrain.training import TrainConfig, adversarial_train

# (wap_position, wavelet_base) of each ledger model
CASES = (("after_first_conv", "haar"), ("after_first_conv", "db5"),
         ("after_final_relu", "haar"))
ATTACK = AttackConfig(epsilon=8 / 255, step_size=2 / 255, steps=3, kappa=0.5)
# these two-class models reach margins of about -0.2 within three steps, so
# the margin of kappa 0.5 never clips and CW gives PGD's bytes; at kappa 0.1
# clipped rows stop moving and restart scores tie
CLIPPING_KAPPA = 0.1

LEDGER = {
    ("after_first_conv", "haar"): {
        "train": "c0679f63b8e1f090", "fgsm": "12b3d880e9e5700d",
        "pgd-1": "83050f387d592fd1", "pgd-3": "ef1554f7120b5e1e",
        "mim-1": "0e91bfffcd17716d", "mim-3": "638983f8d6b17c6f",
        "cw-1": "83050f387d592fd1", "cw-3": "ef1554f7120b5e1e",
        "cw-clip-1": "decf957e04577fe8", "cw-clip-3": "adff222477873aae",
        "nes": "b5d7b2dfab94c4a9", "gradcam": "8de80b56557db173",
    },
    ("after_first_conv", "db5"): {
        "train": "7d69616074aa97bc", "fgsm": "f91e13d90d15c476",
        "pgd-1": "24f817ad05e1c189", "pgd-3": "ef460090b6d665ae",
        "mim-1": "3fe9efb99159ff96", "mim-3": "650beb1aae5efd8d",
        "cw-1": "24f817ad05e1c189", "cw-3": "ef460090b6d665ae",
        "cw-clip-1": "2f1c7d9736e0d4e0", "cw-clip-3": "2bb13dc2929896ac",
        "nes": "13c314096cca0245", "gradcam": "24e9b227922b606e",
    },
    ("after_final_relu", "haar"): {
        "train": "6adf7a3176b1a133", "fgsm": "2633c97fbbdbc8ec",
        "pgd-1": "361a4212d76770fd", "pgd-3": "e53c28c0a5fdffe5",
        "mim-1": "087cf5026eea7f24", "mim-3": "b77e563fe201f90d",
        "cw-1": "361a4212d76770fd", "cw-3": "e53c28c0a5fdffe5",
        "cw-clip-1": "6f27d338f9249691", "cw-clip-3": "6f27d338f9249691",
        "nes": "c41b67bc5bf187ed", "gradcam": "ffe3f4b9e8c3633a",
    },
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _data():
    return synthetic_dataset(2, 96, seed=7).split(64)


def _model(position, base):
    cfg = ModelConfig(depth=1, width=1, num_classes=2, wap_position=position,
                      wavelet_base=base)
    return build_model(cfg, seed=1)


def _train(model, train, val):
    cfg = TrainConfig(epochs=2, batch_size=32, train_attack=ATTACK, seed=3)
    trained, history = adversarial_train(model, train, val, cfg)
    return _digest(*(a for _, a in trained.state_arrays()),
                   *(np.array(c, dtype=np.float64) for c in
                     (history.train_loss, history.robust_val_acc, history.grad_norm)))


def _attack(model, kind, restarts, x, y, kappa=ATTACK.kappa):
    cfg = AttackConfig(**{**ATTACK.__dict__, "restarts": restarts, "kappa": kappa})
    return _digest(WHITE_BOX[kind](model, x, y, cfg, seed=5).x_adv)


def _nes(model, x, y):
    cfg = NesConfig(epsilon=0.05, max_queries=60, samples_per_step=5)
    res = nes_attack(logits_oracle(model), x, y, cfg, seed=5)
    return _digest(res.x_adv, res.queries, res.success)


def _gradcam(model, x):
    return _digest(*(gradcam(model, image, k) for image in x for k in (0, 1)))


def ledger_digests(position, base):
    """Every ledger entry of one model, name -> digest."""
    train, val = _data()
    x, y = val.images[:16], val.labels[:16]
    model = _model(position, base)
    out = {"train": _train(model, train, val)}
    model = _model(position, base)
    out["fgsm"] = _attack(model, "fgsm", 1, x, y)  # fgsm takes no restarts
    for kind in ("pgd", "mim", "cw"):
        for restarts in (1, 3):
            out[f"{kind}-{restarts}"] = _attack(model, kind, restarts, x, y)
    for restarts in (1, 3):
        out[f"cw-clip-{restarts}"] = _attack(model, "cw", restarts, x, y, CLIPPING_KAPPA)
    out["nes"] = _nes(model, x[:4], y[:4])
    out["gradcam"] = _gradcam(model, x[:3])
    return out


@pytest.mark.parametrize("position,base", CASES)
def test_ledger(position, base):
    got = ledger_digests(position, base)
    want = LEDGER[position, base]
    moved = {name: got[name] for name in want if got[name] != want[name]}
    assert got.keys() == want.keys() and not moved, moved


# the CLI's flags at the ledger's tiny config: 64 training and 32 validation
# samples, two epochs of PGD-3 in batches of 32, PGD-3 (and the other
# white-box attacks) at evaluation
CLI_CONFIG = ["--set", "data.n_train=64", "--set", "data.n_val=32",
              "--set", "train.epochs=2", "--set", "train.batch_size=32",
              "--set", "train.attack_steps=3", "--set", "attack.steps=3"]

# (command, the settings it adds to CLI_CONFIG, the files it writes) of each
# row; a command given --checkpoint reads the model the first row trains, and
# the sweeps at zero epochs skip training but keep their delta rows
CLI_RUNS = (
    (["train"], [], ("history.csv",)),
    (["heatmap"], ["heatmap.rows=3", "heatmap.cols=4", "heatmap.samples_per_cell=8"],
     ("heatmap.csv", "heatmap.pgm")),
    (["gradcam"], [], ("gradcam.csv", "gradcam.pgm")),
    (["sweep", "ablation"], ["train.epochs=0"], ("sweep_ablation.csv",)),
    (["sweep", "gap"], ["train.epochs=0"], ("sweep_gap.csv",)),
    (["check", "wavelet"], [], ("wavelet_check.csv",)),
    (["check", "theorems"], [], ("theorem_check.csv",)),
)

CLI_LEDGER = {
    "history.csv": "1783193dff86353b",
    "heatmap.csv": "e6c5c7e5b1679b60", "heatmap.pgm": "1dd49fdd6eba5efe",
    "gradcam.csv": "74ed5e4145fcf694", "gradcam.pgm": "b9acd24f719498ad",
    "sweep_ablation.csv": "47219a0aa004e7f1", "sweep_gap.csv": "77562b6bbd7adfb4",
    "wavelet_check.csv": "5873465fcd92363f", "theorem_check.csv": "591a45ead0ba830a",
}


def cli_digests(root):
    """Every CLI ledger entry, file name -> sha256 prefix of its bytes."""
    out = {}
    checkpoint = ["--checkpoint", str(root / "train" / "model.ckpt")]
    for command, settings, files in CLI_RUNS:
        out_dir = root / "_".join(command)
        argv = command + (checkpoint if command[0] in ("heatmap", "gradcam") else [])
        argv += ["--out-dir", str(out_dir)] + CLI_CONFIG
        assert main(argv + [w for kv in settings for w in ("--set", kv)]) == 0
        for name in files:
            out[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:16]
    return out


def test_cli_ledger(tmp_path):
    got = cli_digests(tmp_path)
    moved = {name: got[name] for name in CLI_LEDGER if got[name] != CLI_LEDGER[name]}
    assert got.keys() == CLI_LEDGER.keys() and not moved, moved
