"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 2 contains a deliberate red assertion: the bior3.1 pooling
operator has norm 17/16 under every valid filter convention, so its
"<= 1.0 + 1e-3 for all banks" bound cannot hold (all other sub-checks of
criterion 2 pass; see the ledgered polyphase analysis).
"""

import contextlib
import time
from dataclasses import dataclass

import numpy as np
import pytest

from wavetrain import autodiff as ad
from wavetrain.attacks import WHITE_BOX, AttackConfig, eval_logits, fgsm, mim, nes_attack, NesConfig, pgd, logits_oracle
from wavetrain.autodiff import Tensor
from wavetrain.cli import main as cli_main
from wavetrain.data import Dataset, load_cifar10, synthetic_dataset
from wavetrain.evaluation import accuracy, fourier_heat_map, theorem_decay_check, theorem_local_regularity_check
from wavetrain.model import ModelConfig, build_model
from wavetrain.storage import load_checkpoint, save_checkpoint
from wavetrain.training import TrainConfig, adversarial_train
from wavetrain.wavelet import (
    SUPPORTED_BASES,
    dwt2d,
    filter_bank,
    idwt2d,
    wap_lipschitz_estimate,
    wavelet_average_pool,
)

from gradcheck import central_differences, relative_errors
from test_evaluation import HighFreqEnergyModel
from test_wavelet import dwt2d_oracle


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({desc}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({desc}): PASS")


EVAL_ATTACK = AttackConfig(epsilon=0.031, step_size=2 / 255, steps=20, random_init=True)


@dataclass
class Experiment:
    train: Dataset
    val: Dataset
    natural: object
    adversarial: object
    natural_robust: float
    adversarial_robust: float
    minutes: float


@pytest.fixture(scope="module")
def experiment():
    """The criterion-5 twins, shared by criteria 4, 5 and 7.

    Desk-scale configuration: smallest width/depth with the wavelet stage at
    the early insertion point (one of the studied positions) so the paired
    run fits the one-core budget.
    """
    t0 = time.monotonic()
    full = synthetic_dataset(2, 2500, seed=0)
    train = full.subset(np.arange(2000))
    val = full.subset(np.arange(2000, 2500))
    model_cfg = ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="haar",
                            wap_position="after_first_conv")

    def fit(eps):
        cfg = TrainConfig(
            epochs=5, batch_size=64, lr_initial=0.1,
            train_attack=AttackConfig(epsilon=eps, step_size=2 / 255, steps=10,
                                      random_init=eps > 0),
            seed=0,
        )
        model, _ = adversarial_train(build_model(model_cfg, seed=0), train, val, cfg)
        return model

    natural = fit(0.0)
    adversarial = fit(0.031)
    nat_rob = accuracy(natural, val, attack=EVAL_ATTACK, seed=42)
    adv_rob = accuracy(adversarial, val, attack=EVAL_ATTACK, seed=42)
    return Experiment(train, val, natural, adversarial, nat_rob, adv_rob,
                      (time.monotonic() - t0) / 60.0)


def test_criterion_1_wavelet_correctness_suite(rng):
    with criterion(1, "wavelet correctness"):
        t0 = time.monotonic()
        for name in SUPPORTED_BASES:
            fb = filter_bank(name)
            for trial in range(50):
                x = rng.standard_normal((1, 2, 16, 16)).astype(np.float32)
                s = dwt2d(Tensor(x), fb)
                recon = idwt2d(s, fb)
                assert np.abs(recon.data - x).max() < 1e-5, name
                if fb.orthogonal:
                    total = sum(float((b.data.astype(np.float64) ** 2).sum())
                                for b in (s.ll, s.lh, s.hl, s.hh))
                    energy = float((x.astype(np.float64) ** 2).sum())
                    assert abs(total - energy) / energy < 1e-4, name
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_2_wap_contract(rng):
    with criterion(2, "wavelet pooling contract"):
        haar = filter_bank("haar")

        c = 0.8
        pooled = wavelet_average_pool(Tensor(np.full((1, 1, 8, 8), c)), haar)
        assert np.abs(pooled.data - c / 2).max() < 1e-6

        assert abs(wap_lipschitz_estimate(haar) - 0.5) < 1e-3

        x0 = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        r = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        t = Tensor(x0, requires_grad=True)
        wavelet_average_pool(t, haar).backward(r)

        def oracle(v):
            bands = dwt2d_oracle(v, haar)
            avg = 0.25 * (bands["ll"] + bands["lh"] + bands["hl"] + bands["hh"])
            return (avg * r.astype(np.float64)).sum()

        fd = central_differences(oracle, x0, dtype=np.float64)
        assert relative_errors(t.grad, fd).max() < 1e-3

        # the all-banks bound; bior3.1 measures 1.0625 under every valid
        # convention, so this assertion is expected to fail there
        for name in SUPPORTED_BASES:
            lip = wap_lipschitz_estimate(filter_bank(name))
            assert lip <= 1.0 + 1e-3, (
                f"{name}: measured operator Lipschitz constant {lip:.6f} exceeds "
                "1.0 + 1e-3 (unattainable for bior3.1; see decisions ledger)"
            )


def test_criterion_3_theorem_harness():
    with criterion(3, "wavelet decay theorem harness"):
        t0 = time.monotonic()
        scales = [2.0 ** -k for k in range(2, 8)]
        for alpha, slope in ((0.5, 1.0), (1.0, 1.5)):
            fit = theorem_decay_check("haar", alpha, scales)
            assert abs(fit.fitted_slope - slope) < 0.1, fit.fitted_slope
        reg = theorem_local_regularity_check("haar", 1.0)
        assert reg, "local regularity bound not stable"
        for mx, med in reg.ratios_by_refinement:
            assert np.isfinite(mx) and mx < 10.0 * med
        for ratio in reg.modulus_halving_ratios:
            assert abs(ratio - 0.5) <= 0.2 * 0.5
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_4_attack_suite(experiment):
    with criterion(4, "attack invariants and reductions"):
        from test_attacks import LinearToyModel

        # 1000 randomized property cases over the five attacks
        cases = 0
        for seed in range(200):
            case_rng = np.random.default_rng(seed)
            w = case_rng.standard_normal((12, 3)).astype(np.float32)
            toy = LinearToyModel(w, np.zeros(3, dtype=np.float32))
            x = case_rng.random((2, 3, 2, 2)).astype(np.float32)
            y = case_rng.integers(0, 3, size=2)
            eps = float(case_rng.choice([0.0, 0.01, 0.05, 0.2]))
            steps = int(case_rng.integers(1, 4))
            for kind in ("fgsm", "pgd", "mim", "cw", "nes"):
                if kind == "nes":
                    res = nes_attack(logits_oracle(toy), x, y,
                                     NesConfig(epsilon=eps, max_queries=20,
                                               samples_per_step=4), seed=seed)
                else:
                    cfg = AttackConfig(epsilon=eps, step_size=max(eps / 2, 0.01),
                                       steps=steps, random_init=bool(seed % 2))
                    res = WHITE_BOX[kind](toy, x, y, cfg, seed=seed)
                assert np.abs(res.x_adv - x).max() <= eps + 1e-6
                assert res.x_adv.min() >= 0.0 and res.x_adv.max() <= 1.0
                cases += 1
        assert cases >= 1000

        # bitwise reductions on the desk model
        model = experiment.natural
        xb = experiment.val.images[:16]
        yb = experiment.val.labels[:16]
        eps = 0.031
        a = fgsm(model, xb, yb, AttackConfig(epsilon=eps))
        b = pgd(model, xb, yb, AttackConfig(epsilon=eps, step_size=eps, steps=1,
                                            random_init=False))
        assert np.array_equal(a.x_adv, b.x_adv), "FGSM != 1-step PGD"
        c = mim(model, xb, yb, AttackConfig(epsilon=eps, step_size=eps, steps=1,
                                            random_init=False, decay=1.0))
        assert np.array_equal(a.x_adv, c.x_adv), "MIM(steps=1) != FGSM"

        # success rate non-decreasing over the published budget grid
        xs = experiment.val.images[:128]
        ys = experiment.val.labels[:128]
        rates = []
        for eps in (0.0, 0.0155, 0.031, 0.0465):
            cfg = AttackConfig(epsilon=eps, step_size=2 / 255, steps=20,
                               random_init=eps > 0)
            x_adv = pgd(model, xs, ys, cfg, seed=5).x_adv
            rates.append(float((eval_logits(model, x_adv).argmax(axis=1) != ys).mean()))
        assert all(b >= a for a, b in zip(rates, rates[1:])), rates


def test_criterion_5_adversarial_training_direction(experiment):
    with criterion(5, "adversarial-training direction"):
        assert experiment.natural_robust < 0.20, (
            f"naturally trained robust accuracy {experiment.natural_robust:.3f}"
        )
        gap = experiment.adversarial_robust - experiment.natural_robust
        assert gap >= 0.20, (
            f"adv {experiment.adversarial_robust:.3f} vs "
            f"natural {experiment.natural_robust:.3f}"
        )
        assert experiment.minutes < 15.0, f"experiment took {experiment.minutes:.1f} min"


def test_criterion_6_ablation_sweep(tmp_path):
    with criterion(6, "ablation sweep pipeline"):
        args = ["sweep", "ablation",
                "--set", "train.epochs=1", "--set", "train.batch_size=32",
                "--set", "data.n_train=48", "--set", "data.n_val=16",
                "--set", "train.attack_steps=1", "--set", "attack.steps=1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out-dir", str(out1)]) == 0
        assert cli_main(args + ["--out-dir", str(out2)]) == 0
        text1 = (out1 / "sweep_ablation.csv").read_text()
        assert text1 == (out2 / "sweep_ablation.csv").read_text()
        lines = text1.splitlines()
        variants = [line.split(",")[0] for line in lines[2:]]
        assert variants == ["with_wavelet", "without_wavelet", "delta"]


def test_criterion_7_fourier_heat_map(experiment, tmp_path):
    with criterion(7, "Fourier heat map"):
        # hand-built high-frequency thresholder errs only in high cells
        n, hw = 8, 32
        flat = Dataset(np.full((n, 3, hw, hw), 0.5, dtype=np.float32),
                       np.zeros(n, dtype=np.int64), 2)
        eps_f = 4.0
        thresh = HighFreqEnergyModel(radius=8.0, threshold=eps_f ** 2 / 6.0)
        grid = fourier_heat_map(thresh, flat, eps_f=eps_f, samples_per_cell=4,
                                rows=17, cols=32)
        fi = np.minimum(np.arange(17), 32 - np.arange(17))
        fj = np.minimum(np.arange(32), 32 - np.arange(32))
        rad = np.sqrt(fi[:, None] ** 2 + fj[None, :] ** 2)
        assert np.all(grid.error_rates[rad >= 8.0] == 1.0)
        assert np.all(grid.error_rates[rad < 8.0] == 0.0)

        # stability under sample doubling, on the trained desk model
        model = experiment.natural
        sub = experiment.val.subset(np.arange(128))
        g1 = fourier_heat_map(model, sub, eps_f=4.0, samples_per_cell=24,
                              seed=11, rows=9, cols=16)
        g2 = fourier_heat_map(model, sub, eps_f=4.0, samples_per_cell=48,
                              seed=11, rows=9, cols=16)
        mean_change = float(np.abs(g1.error_rates - g2.error_rates).mean())
        assert mean_change < 0.05, mean_change

        # PGM + CSV emission through the CLI
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        out = tmp_path / "hm"
        rc = cli_main(["heatmap", "--checkpoint", str(ckpt), "--out-dir", str(out),
                       "--set", "heatmap.rows=4", "--set", "heatmap.cols=6",
                       "--set", "heatmap.samples_per_cell=8",
                       "--set", "data.n_train=32", "--set", "data.n_val=32"])
        assert rc == 0
        assert (out / "heatmap.pgm").read_bytes().startswith(b"P5\n")
        assert (out / "heatmap.csv").exists()


def test_criterion_8_io_round_trips(tmp_path, rng):
    with criterion(8, "dataset and checkpoint I/O"):
        # CIFAR-10 byte layout round trip on synthetic files
        labels = rng.integers(0, 10, size=64)
        planes = rng.integers(0, 256, size=(64, 3072), dtype=np.uint8)
        blob = b"".join(bytes([lab]) + row.tobytes() for lab, row in zip(labels, planes))
        path = tmp_path / "batch.bin"
        path.write_bytes(blob)
        ds = load_cifar10(path)
        assert np.array_equal(ds.labels, labels)
        back = np.round(ds.images.reshape(64, 3072) * 255).astype(np.uint8)
        assert np.array_equal(back, planes)

        # checkpoint save/load bit-identical + CRC corruption detection
        model = build_model(
            ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="haar"), seed=1
        )
        model.forward(Tensor(rng.random((2, 3, 32, 32)).astype(np.float32)),
                      training=True)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        loaded = load_checkpoint(ckpt)
        x = rng.random((2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(model.forward(Tensor(x)).data,
                              loaded.forward(Tensor(x)).data)

        corrupted = bytearray(ckpt.read_bytes())
        corrupted[len(corrupted) // 3] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(corrupted))
        from wavetrain.errors import FormatError

        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(bad)
