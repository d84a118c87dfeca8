import os
import struct
import zlib

import numpy as np
import pytest

from wavetrain.cli import main
from wavetrain.config import parse_config_text
from wavetrain.model import ModelConfig, build_model
from wavetrain.storage import save_checkpoint

FAST = [
    "--set", "data.n_train=64",
    "--set", "data.n_val=32",
    "--set", "train.epochs=1",
    "--set", "train.batch_size=32",
    "--set", "train.attack_steps=2",
    "--set", "attack.steps=2",
]


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# wavetrain-csv v1 ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_out")
    rc = main(["train", "--out-dir", str(out)] + FAST)
    assert rc == 0
    return out


class TestTrainCommand:
    def test_outputs_exist(self, trained_dir):
        assert (trained_dir / "model.ckpt").exists()
        assert (trained_dir / "history.csv").exists()
        assert (trained_dir / "resolved_config.txt").exists()

    def test_history_schema(self, trained_dir):
        header, rows = read_csv(trained_dir / "history.csv")
        assert header == ["epoch", "train_loss", "clean_val_acc",
                          "robust_val_acc", "grad_norm"]
        assert len(rows) == 1

    def test_config_echo_reparses_equal(self, trained_dir):
        text = (trained_dir / "resolved_config.txt").read_text()
        cfg = parse_config_text(text)
        again = parse_config_text(cfg.to_text())
        assert cfg == again

    def test_reproducible_end_to_end(self, tmp_path, trained_dir):
        out2 = tmp_path / "again"
        assert main(["train", "--out-dir", str(out2)] + FAST) == 0
        assert (out2 / "history.csv").read_text() == (trained_dir / "history.csv").read_text()
        assert (out2 / "model.ckpt").read_bytes() == (trained_dir / "model.ckpt").read_bytes()


class TestEvalAndAttack:
    def test_eval_emits_clean_accuracy(self, trained_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--out-dir", str(out)] + FAST)
        assert rc == 0
        header, rows = read_csv(out / "eval.csv")
        assert rows[0][0] == "clean_acc"
        assert 0.0 <= float(rows[0][1]) <= 1.0

    def test_attack_epsilon_zero_equals_clean(self, trained_dir, tmp_path):
        out = tmp_path / "atk"
        rc = main(["attack", "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--epsilon", "0", "--out-dir", str(out)] + FAST)
        assert rc == 0
        header, rows = read_csv(out / "attack.csv")
        clean = float(rows[0][header.index("clean_acc")])
        robust = float(rows[0][header.index("robust_acc")])
        assert clean == robust

    def test_attack_nes_kind(self, trained_dir, tmp_path):
        out = tmp_path / "nes"
        rc = main(["attack", "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--out-dir", str(out),
                   "--set", "attack.kind=nes",
                   "--set", "nes.max_queries=40",
                   "--set", "nes.samples_per_step=5",
                   "--set", "data.n_train=64", "--set", "data.n_val=8"])
        assert rc == 0
        header, rows = read_csv(out / "attack.csv")
        assert float(rows[0][header.index("mean_queries")]) <= 40

    def test_missing_checkpoint_is_format_error(self, tmp_path):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--out-dir", str(tmp_path / "o")] + FAST)
        assert rc != 0


class TestMapsCommands:
    def test_heatmap_outputs(self, trained_dir, tmp_path):
        out = tmp_path / "hm"
        rc = main(["heatmap", "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--out-dir", str(out),
                   "--set", "heatmap.rows=3", "--set", "heatmap.cols=4",
                   "--set", "heatmap.samples_per_cell=4"] + FAST)
        assert rc == 0
        assert (out / "heatmap.pgm").read_bytes().startswith(b"P5\n4 3\n255\n")
        header, rows = read_csv(out / "heatmap.csv")
        assert header == ["freq_row", "freq_col", "error_rate"]
        assert len(rows) == 12

    def test_gradcam_outputs(self, trained_dir, tmp_path):
        out = tmp_path / "cam"
        rc = main(["gradcam", "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--out-dir", str(out)] + FAST)
        assert rc == 0
        assert (out / "gradcam.pgm").exists()
        header, rows = read_csv(out / "gradcam.csv")
        values = [float(r[2]) for r in rows]
        assert min(values) >= 0.0 and max(values) <= 1.0


class TestChecks:
    def test_check_wavelet_all_banks(self, tmp_path):
        out = tmp_path / "wv"
        rc = main(["check", "wavelet", "--out-dir", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "wavelet_check.csv")
        assert len(rows) == 6
        pr_col = header.index("pr_max_abs")
        parseval_col = header.index("parseval_rel")
        for row in rows:
            assert float(row[pr_col]) < 1e-4
            parseval = float(row[parseval_col])
            assert np.isnan(parseval) or parseval < 1e-4

    def test_check_theorems(self, tmp_path):
        out = tmp_path / "th"
        rc = main(["check", "theorems", "--out-dir", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "theorem_check.csv")
        kinds = [r[0] for r in rows]
        assert "decay_slope" in kinds and "modulus_halving_first" in kinds
        slopes = [(r[1], float(r[2])) for r in rows if r[0] == "decay_slope"]
        assert slopes == [(base, alpha) for base in ("haar", "db5", "sym4")
                          for alpha in (0.3, 0.5, 0.7, 1.0)]


class TestSweeps:
    @pytest.mark.parametrize("target", ["bases", "positions", "gap"])
    def test_sweep_bases_schema(self, tmp_path, target):
        column, variants = {
            "bases": ("base", ["haar", "db5", "sym4", "coif4", "bior3.1", "rbio2.2"]),
            "positions": ("position", ["after_first_conv", "before_final_relu",
                                       "after_final_relu", "disabled"]),
            "gap": ("variant", ["adversarial", "natural", "delta"]),
        }[target]
        out = tmp_path / "sb"
        rc = main(["sweep", target, "--out-dir", str(out),
                   "--set", "train.epochs=0",
                   "--set", "data.n_train=16", "--set", "data.n_val=16",
                   "--set", "attack.steps=1"])
        assert rc == 0
        header, rows = read_csv(out / f"sweep_{target}.csv")
        assert header == [column, "clean", "fgsm", "pgd", "mim", "cw"]
        assert [r[0] for r in rows] == variants

    def test_sweep_ablation_paired_rows_deterministic(self, tmp_path):
        args = ["sweep", "ablation",
                "--set", "train.epochs=1", "--set", "train.batch_size=32",
                "--set", "data.n_train=48", "--set", "data.n_val=16",
                "--set", "train.attack_steps=1", "--set", "attack.steps=1"]
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        text = (out1 / "sweep_ablation.csv").read_text()
        assert text == (out2 / "sweep_ablation.csv").read_text()
        header, rows = read_csv(out1 / "sweep_ablation.csv")
        assert [r[0] for r in rows] == ["with_wavelet", "without_wavelet", "delta"]


BAD_VALUES = [
    "check theorems --set theorem.grid_points=-5",
    "train --set seed=-1",
    "heatmap --set heatmap.rows=-1",
    "heatmap --set heatmap.rows=40",
    "eval --set data.n_val=-2",
    "heatmap --set heatmap.samples_per_cell=0",
    "attack --set attack.step_size=nan",
    "attack --epsilon nan",
    "heatmap --set heatmap.eps_f=0",
    "gradcam --set gradcam.class_id=7",
    "eval --set data.n_val=0",
    "train --set data.num_classes=1",
    "train --set train.lr_initial=nan",
    # the checkpoint fixture has 2 classes
    "eval --set data.num_classes=3",
    "attack --set data.num_classes=3",
    "heatmap --set data.num_classes=3",
    "gradcam --set data.num_classes=3",
]


class TestErrors:
    @pytest.mark.parametrize("command", BAD_VALUES)
    def test_bad_config_value_exit_2(self, trained_dir, tmp_path, capsys, command):
        words = command.split()
        argv = words[:1] + FAST + words[1:] + ["--out-dir", str(tmp_path / "o")]
        if argv[0] in ("eval", "attack", "heatmap", "gradcam"):
            argv += ["--checkpoint", str(trained_dir / "model.ckpt")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "error[config]" in err
        assert "Traceback" not in err

    def test_unknown_config_key_exit_2(self, tmp_path):
        rc = main(["check", "wavelet", "--out-dir", str(tmp_path / "x"),
                   "--set", "bogus.key=1"])
        assert rc == 2

    def test_bad_cifar_file_exit_3(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 100)
        os.environ["WAVETRAIN_DATA"] = str(tmp_path)
        try:
            rc = main(["train", "--out-dir", str(tmp_path / "o"),
                       "--set", "data.source=cifar10",
                       "--set", "data.path=bad.bin"])
        finally:
            os.environ.pop("WAVETRAIN_DATA", None)
        assert rc == 3

    def test_crc_valid_checkpoint_with_bad_config_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0), path)
        body = path.read_bytes()[:-4].replace(b"depth=1\n", b"depth=x\n")
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(["eval", "--checkpoint", str(path), "--out-dir", str(tmp_path / "o")] + FAST)
        err = capsys.readouterr().err
        assert rc == 3
        assert "error[format]" in err
        assert "Traceback" not in err
