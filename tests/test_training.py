import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wavetrain import autodiff as ad
from wavetrain import training
from wavetrain.attacks import AttackConfig, pgd
from wavetrain.autodiff import SGDMomentum, Tensor
from wavetrain.cli import main
from wavetrain.data import split_train_val, synthetic_dataset
from wavetrain.errors import ConfigError, NumericError, UsageError
from wavetrain.evaluation import accuracy
from wavetrain.model import ModelConfig, build_model
from wavetrain.storage import load_checkpoint
from wavetrain.training import (
    EpochRecord, TrainConfig, TrainHistory, adversarial_train, gradient_norm, lr_at,
)


def tiny_model(seed=0):
    return build_model(ModelConfig(depth=1, width=1, num_classes=2,
                                   wavelet_base="haar"), seed=seed)


def tiny_train_cfg(**kw):
    base = dict(
        epochs=2,
        batch_size=64,
        lr_initial=0.05,
        train_attack=AttackConfig(epsilon=0.031, step_size=2 / 255, steps=2,
                                  random_init=True),
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestLrSchedule:
    def test_initial_value(self):
        cfg = TrainConfig(epochs=10, lr_initial=0.1, lr_milestones=(2, 4))
        assert lr_at(0, cfg) == pytest.approx(0.1)

    def test_one_milestone_passed(self):
        cfg = TrainConfig(epochs=10, lr_initial=0.1, lr_milestones=(2, 4))
        assert lr_at(3, cfg) == pytest.approx(0.01)

    def test_past_all_milestones(self):
        cfg = TrainConfig(epochs=10, lr_initial=0.1, lr_milestones=(2, 4))
        assert lr_at(9, cfg) == pytest.approx(0.001)

    def test_milestones_must_increase(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, lr_milestones=(4, 2))

    def test_milestones_must_precede_end(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=3, lr_milestones=(5,))


class TestTrainConfigBounds:
    @pytest.mark.parametrize("field,value", [
        ("lr_initial", 0.0), ("lr_initial", -0.1), ("lr_initial", float("nan")),
        ("lr_initial", float("inf")),
        ("momentum", -0.1), ("momentum", 1.0), ("momentum", float("nan")),
        ("weight_decay", -1e-4), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        # finite as Python floats, inf in float32
        ("lr_initial", 1e39), ("weight_decay", 1e39),
    ])
    def test_invalid_optimiser_setting_rejected(self, field, value):
        """Each of these used to fail only after a full attacked batch, as a
        NumericError or an InputError from the SGD step."""
        with pytest.raises(ConfigError, match=field):
            TrainConfig(epochs=1, **{field: value})

    def test_edges_accepted(self):
        cfg = TrainConfig(epochs=1, lr_initial=1e-6, momentum=0.0, weight_decay=0.0)
        assert (cfg.momentum, cfg.weight_decay) == (0.0, 0.0)

    def test_negative_early_stop_patience_rejected(self):
        """-1 used to stop training after the first epoch that did not improve."""
        with pytest.raises(ConfigError, match="early_stop_patience"):
            TrainConfig(epochs=3, early_stop_patience=-1)


class TestTrainHistory:
    def test_non_finite_record_refused(self):
        history = TrainHistory()
        history.append(EpochRecord(0, 0.5, 1.0, 0.75, 2.0))
        with pytest.raises(NumericError):
            history.append(EpochRecord(1, float("nan"), 1.0, 0.75, 2.0))
        assert history.epochs == [EpochRecord(0, 0.5, 1.0, 0.75, 2.0)]

    def test_column_views_are_read_only_lists(self):
        history = TrainHistory()
        for e in range(2):
            history.append(EpochRecord(e, 0.5 - e / 4, 1.0, 0.75, 2.0 + e))
        assert history.train_loss == [0.5, 0.25]
        assert history.robust_val_acc == [0.75, 0.75]
        assert history.grad_norm == [2.0, 3.0]
        with pytest.raises(AttributeError):
            history.train_loss = []


class TestGradientNorm:
    def test_zero_grads(self):
        model = tiny_model()
        for p in model.params.values():
            p.grad = np.zeros_like(p.data)
        assert gradient_norm(model) == 0.0

    def test_three_four_five(self):
        model = tiny_model()
        for p in model.params.values():
            p.grad = np.zeros_like(p.data)
        p = model.params["fc.bias"]
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        assert gradient_norm(model) == pytest.approx(5.0)

    def test_matches_flatten_and_norm_oracle(self, rng):
        model = tiny_model()
        chunks = []
        for p in model.params.values():
            g = rng.standard_normal(p.data.shape).astype(np.float32)
            p.grad = g
            chunks.append(g.reshape(-1).astype(np.float64))
        want = float(np.linalg.norm(np.concatenate(chunks)))
        assert abs(gradient_norm(model) - want) < 1e-6

    def test_missing_grads_rejected(self):
        model = tiny_model()
        with pytest.raises(UsageError):
            gradient_norm(model)


class TestAdversarialTrain:
    def test_training_attack_runs_unscored(self, monkeypatch):
        # the trainer reads only x_adv, so its attacks run their gradient
        # passes and no other forward
        data = synthetic_dataset(2, 96, seed=0)
        train, val = split_train_val(data)
        model = tiny_model()
        cfg = tiny_train_cfg(epochs=1, batch_size=32)
        forwards = []
        forward = model.forward

        def counted(*args, **kwargs):
            forwards.append(1)
            return forward(*args, **kwargs)

        work = []
        real = training.pgd

        def recording(*args, **kwargs):
            before = len(forwards)
            result = real(*args, **kwargs)
            work.append((len(forwards) - before, result.grad_calls))
            return result

        monkeypatch.setattr(model, "forward", counted)
        monkeypatch.setattr(training, "pgd", recording)
        adversarial_train(model, train, val, cfg)
        steps = cfg.train_attack.steps
        assert work == [(steps, steps)] * 4  # 3 training batches, 1 validation batch

    def test_natural_training_reduces_loss_on_separable_toy(self):
        data = synthetic_dataset(2, 192, seed=0)
        train, val = split_train_val(data)
        cfg = tiny_train_cfg(epochs=3,
                             train_attack=AttackConfig(epsilon=0.0, steps=1,
                                                       random_init=False))
        model = tiny_model()
        _, history = adversarial_train(model, train, val, cfg)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_fixed_seed_identical_history(self):
        data = synthetic_dataset(2, 128, seed=1)
        train, val = split_train_val(data)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=5)
            _, history = adversarial_train(model, train, val, tiny_train_cfg())
            runs.append(history)
        assert runs[0].train_loss == runs[1].train_loss
        assert runs[0].robust_val_acc == runs[1].robust_val_acc
        assert runs[0].grad_norm == runs[1].grad_norm

    def test_zero_epsilon_is_bitwise_natural_training(self):
        data = synthetic_dataset(2, 128, seed=2)
        train, val = split_train_val(data)
        cfg = tiny_train_cfg(
            train_attack=AttackConfig(epsilon=0.0, steps=1, random_init=False))

        model = tiny_model(seed=9)
        trained, _ = adversarial_train(model, train, val, cfg)

        # natural-training oracle: the same loop with the attack skipped
        twin = tiny_model(seed=9)
        rng = np.random.default_rng(cfg.seed)
        opt = SGDMomentum(list(twin.params.values()), lr=cfg.lr_initial,
                          momentum=cfg.momentum, weight_decay=cfg.weight_decay)
        for epoch in range(cfg.epochs):
            opt.lr = lr_at(epoch, cfg)
            perm = rng.permutation(len(train))
            for start in range(0, len(perm), cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                logits = twin.forward(Tensor(train.images[idx]), training=True)
                grad = ad.cross_entropy_rows(logits.data, train.labels[idx])[1]
                opt.zero_grad()
                logits.backward(grad)
                opt.step()

        for name in twin.params:
            assert np.array_equal(trained.params[name].data, twin.params[name].data), name

    def test_zero_epsilon_runs_no_attack_and_reports_clean_as_robust(self, monkeypatch):
        def no_attack(*args, **kwargs):
            raise AssertionError("a zero-budget epoch called the attack")

        monkeypatch.setattr("wavetrain.training.pgd", no_attack)
        data = synthetic_dataset(2, 128, seed=2)
        train, val = split_train_val(data)
        cfg = tiny_train_cfg(
            epochs=3, train_attack=AttackConfig(epsilon=0.0, steps=1, random_init=False))
        _, history = adversarial_train(tiny_model(seed=9), train, val, cfg)
        assert len(history.epochs) == 3
        assert all(r.robust_val_acc == r.clean_val_acc for r in history.epochs)

    def test_attacks_run_through_this_module_binding(self, monkeypatch):
        # one training batch and one validation batch, both through
        # training.pgd, so a wrapper installed there sees every attack
        calls = []

        def counted(*args, **kw):
            calls.append(kw["seed"])
            return pgd(*args, **kw)

        monkeypatch.setattr(training, "pgd", counted)
        data = synthetic_dataset(2, 96, seed=0)
        train, val = data.subset(np.arange(64)), data.subset(np.arange(64, 96))
        cfg = tiny_train_cfg(epochs=1)
        adversarial_train(tiny_model(), train, val, cfg)
        assert calls == [cfg.seed, cfg.seed + 777]

    def test_best_checkpoint_is_the_first_maximum_of_the_selection_key(self):
        data = synthetic_dataset(2, 128, seed=4)
        train, val = split_train_val(data)
        cfg = tiny_train_cfg(epochs=3)
        best, history = adversarial_train(tiny_model(seed=1), train, val, cfg)
        majority = np.bincount(val.labels).max() / len(val)
        keys = [(r.clean_val_acc > majority, r.robust_val_acc) for r in history.epochs]
        assert history.best_epoch == keys.index(max(keys))
        recomputed = accuracy(best, val, attack=cfg.train_attack, seed=cfg.seed + 777)
        assert recomputed == history.robust_val_acc[history.best_epoch]

    def test_a_second_step_raises_no_memory_peak(self):
        # backward frees each step's tape, so the next step's PGD does not
        # stack on it: two steps peak where one does, within a slack (the
        # first step's tape and gradients are about 12 MB here)
        data = synthetic_dataset(2, 18, seed=0)
        val = data.subset(np.arange(16, 18))
        cfg = tiny_train_cfg(epochs=1, batch_size=8)

        def peak(steps):
            model = tiny_model()
            train = data.subset(np.arange(8 * steps))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                adversarial_train(model, train, val, cfg)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(2) <= peak(1) + (64 << 10)

    def test_history_lengths_and_finiteness(self):
        data = synthetic_dataset(2, 128, seed=6)
        train, val = split_train_val(data)
        cfg = tiny_train_cfg()
        _, history = adversarial_train(tiny_model(), train, val, cfg)
        assert [r.epoch for r in history.epochs] == list(range(cfg.epochs))
        assert all(np.isfinite(v) for r in history.epochs for v in r)

    def test_empty_dataset_unconstructible(self):
        # the Dataset invariant (N > 0) fires before the training loop can
        from wavetrain.errors import InputError

        data = synthetic_dataset(2, 64, seed=0)
        with pytest.raises(InputError):
            data.subset(np.arange(0))


class TestBestEpoch:
    """The kept epoch maximises (clean > majority-class rate, robust)."""

    # per epoch (clean, robust) on a balanced validation set, the epochs run
    # under early-stop patience 2, and the epoch kept
    @pytest.mark.parametrize("scores,ran,kept", [
        ([(0.5, 0.5), (0.5, 0.5), (1.0, 0.27)], 3, 2),    # constant predictor first
        ([(0.5, 0.5), (0.5, 0.6), (0.25, 0.7)], 3, 2),    # none beats the majority
        ([(0.75, 0.3), (0.5, 0.9), (0.8, 0.3)], 3, 0),    # the first maximum wins
        ([(0.75, 0.3), (0.5, 0.9), (0.5, 0.9), (1.0, 0.9)], 3, 0),  # stops on the key
        ([(0.5, 0.9), (0.75, 0.3), (0.5, 0.9), (0.8, 0.4)], 4, 3),
    ])
    def test_selection_rule(self, monkeypatch, scores, ran, kept):
        data = synthetic_dataset(2, 96, seed=0)
        train, val = data.subset(np.arange(64)), data.subset(np.arange(64, 96))
        assert np.bincount(val.labels).max() / len(val) == 0.5
        values = iter(v for pair in scores for v in pair)
        monkeypatch.setattr(training, "accuracy", lambda *args, **kw: next(values))
        monkeypatch.setattr(training, "pgd",
                            lambda model, xb, yb, cfg, seed: SimpleNamespace(x_adv=xb))
        cfg = tiny_train_cfg(epochs=len(scores), early_stop_patience=2)
        _, history = adversarial_train(tiny_model(), train, val, cfg)
        assert len(history.epochs) == ran
        assert history.best_epoch == kept

    def test_cli_run_keeps_the_epoch_that_beats_a_constant_predictor(self, tmp_path,
                                                                    capsys):
        # epochs 0 and 1 predict one class of the balanced 48-sample validation
        # set (clean = robust = 0.5); epoch 2 separates it, with clean 1.0 and
        # robust 15/48
        args = ["train", "--out-dir", str(tmp_path)]
        for kv in ("seed=3", "data.n_train=256", "data.n_val=48", "train.epochs=3",
                   "train.batch_size=32", "train.attack_steps=2", "train.lr_initial=0.05"):
            args += ["--set", kv]
        assert main(args) == 0
        assert capsys.readouterr().out.strip().endswith(
            "best robust val acc 0.3125 (epoch 2)")
        rows = (tmp_path / "history.csv").read_text().splitlines()[2:]
        assert [r.split(",")[2:4] for r in rows] == [["0.5", "0.5"], ["0.5", "0.5"],
                                                     ["1", "0.3125"]]
        val = synthetic_dataset(2, 304, seed=3).subset(np.arange(256, 304))
        assert accuracy(load_checkpoint(str(tmp_path / "model.ckpt")), val) == 1.0
