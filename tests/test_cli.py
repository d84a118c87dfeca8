import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from wavetrain import cli
from wavetrain.attacks import AttackConfig, NesConfig
from wavetrain.cli import main
from wavetrain.config import SCHEMA, RunConfig, load_config, parse_config_text
from wavetrain.model import ModelConfig, build_model
from wavetrain.storage import save_checkpoint
from wavetrain.training import TrainConfig

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
                   "--set", "attack.epsilon=0", "--set", "nes.epsilon=0",
                   "--out-dir", str(out)] + FAST)
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
                   "--set", "data.n_train=64", "--set", "data.n_val=5"])
        assert rc == 0
        header, rows = read_csv(out / "attack.csv")
        assert float(rows[0][header.index("mean_queries")]) <= 40
        # an odd row count, so the two rates cannot both be 1/2; the CSV
        # keeps 8 significant digits
        robust = float(rows[0][header.index("robust_acc")])
        success = float(rows[0][header.index("success_rate")])
        assert robust == pytest.approx(1.0 - success, abs=1e-7)

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


# the keys that are fields of a library config object
FIELD_KEYS = [k for k in SCHEMA
              if k.split(".")[0] in ("model", "train", "attack", "nes") and k != "attack.kind"]
STR_VALUES = {"model.wavelet_base": "db5", "model.wap_position": "before_final_relu",
              "model.pooling_variant": "lpf"}


def _distinct_value(key):
    """An in-range value for ``key`` that differs from its default."""
    typ, default = SCHEMA[key]
    if typ is int:
        return str(default + 1)
    if typ is float:
        return repr(default / 2 + 0.01)
    if typ is bool:
        return "false" if default else "true"
    if typ is tuple:
        return "1,3"
    return STR_VALUES[key]


def _built_fields(cfg, key):
    """(object, field) pairs the CLI builders fill from ``key``."""
    section, _, name = key.partition(".")
    if key.startswith("train.attack_"):
        return [(cli._train_config(cfg).train_attack, name[len("attack_"):])]
    if section == "model":
        return [(cli._model_config(cfg, 2), name)]
    if section == "train":
        return [(cli._train_config(cfg), name)]
    if section == "attack":
        return [(cli._build(AttackConfig, cfg, "attack."), name)]
    return [(cli._build(NesConfig, cfg, "nes."), name)]


class TestConfigWiring:
    @pytest.mark.parametrize("key", FIELD_KEYS)
    def test_every_key_reaches_its_field(self, key):
        cfg = load_config(None, [f"{key}={_distinct_value(key)}"])
        assert cfg[key] != SCHEMA[key][1]
        for obj, name in _built_fields(cfg, key):
            assert getattr(obj, name) == cfg[key]

    def test_default_run_config_builds_default_objects(self):
        cfg = RunConfig()
        assert cli._model_config(cfg, 2) == ModelConfig(depth=1, width=1, num_classes=2)
        assert cli._train_config(cfg) == TrainConfig(epochs=5)
        assert cli._build(AttackConfig, cfg, "attack.") == AttackConfig(epsilon=0.031)
        assert cli._build(NesConfig, cfg, "nes.") == NesConfig()


BAD_VALUES = [
    "check theorems --set theorem.grid_points=-5",
    "train --set seed=-1",
    "heatmap --set heatmap.rows=-1",
    "heatmap --set heatmap.rows=40",
    "heatmap --set heatmap.cols=33",
    "eval --set data.n_val=-2",
    "heatmap --set heatmap.samples_per_cell=0",
    "attack --set attack.step_size=nan",
    "attack --set attack.epsilon=nan --set nes.epsilon=nan",
    "heatmap --set heatmap.eps_f=0",
    "gradcam --set gradcam.class_id=7",
    "eval --set data.n_val=0",
    "train --set data.num_classes=1",
    "train --set train.lr_initial=nan",
    "train --set train.momentum=1",
    # the checkpoint fixture has 2 classes
    "eval --set data.num_classes=3",
    "attack --set data.num_classes=3",
    "heatmap --set data.num_classes=3",
    "gradcam --set data.num_classes=3",
    # numpy rejects these sizes before allocating anything
    "train --set data.n_train=99999999999999999999999",
    "eval --set data.n_val=9223372036854775807",
    "train --set model.width=100000000000000",
    "train --set model.width=100000000000000000000",
    "attack --set attack.kind=nes --set nes.samples_per_step=1000000000000 "
    "--set nes.max_queries=10000000000000",
    # sizes numpy cannot hold: refused while the config is built, where
    # numpy raised (or linspace returned an empty grid)
    "check theorems --set theorem.grid_points=4611686018427387904",
    "check theorems --set theorem.grid_points=9223372036854775808",
    "attack --set attack.kind=nes --set nes.samples_per_step=10000000000000000000 "
    "--set nes.max_queries=20000000000000000000",
    # a zero finite-difference step would divide by zero inside NES
    "attack --set attack.kind=nes --set nes.fd_eta=0",
    # finite as Python floats, inf in float32: NES then scored NaN logits
    # as flips, and CW returned NaN pixels
    "attack --set attack.kind=nes --set nes.fd_eta=1e300",
    "attack --set attack.kind=cw --set attack.step_size=1e300",
    "train --set train.attack_step_size=1e300",
    "heatmap --set heatmap.eps_f=1e39",
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

    def test_unknown_attack_kind_rejected_before_any_work(self, trained_dir, tmp_path,
                                                          capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated the model before checking attack.kind")

        monkeypatch.setattr(cli, "accuracy", refuse)
        rc = main(["attack", "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--out-dir", str(tmp_path / "o"), "--set", "attack.kind=foo"] + FAST)
        err = capsys.readouterr().err
        assert rc == 2
        assert "error[config]" in err and "attack.kind" in err

    def test_non_utf8_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed=1\n\xff\n")
        rc = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error[config]" in err

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_file_exit_2(self, tmp_path, capsys, name):
        # a missing path, and a directory in place of a file
        rc = main(["train", "--config", str(tmp_path / name), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error[config]" in err and "config file" in err

    def test_unallocatable_data_size_exit_2(self, tmp_path, capsys, monkeypatch):
        def refuse(num_classes, n, seed):
            raise MemoryError(f"Unable to allocate {n} samples")

        monkeypatch.setattr(cli, "synthetic_dataset", refuse)
        rc = main(["train", "--out-dir", str(tmp_path / "o"), "--set", "data.n_train=4000000000"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error[config]" in err and "data.n_train" in err

    def test_class_count_too_large_for_memory_names_its_key(self, tmp_path, capsys):
        # the class centers fail to allocate before any sample does
        rc = main(["train", "--out-dir", str(tmp_path / "o"),
                   "--set", "data.num_classes=1000000000000"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error[config]" in err and "data.num_classes" in err

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

    @pytest.mark.parametrize("records,code", [(1, 2), (2, 0)])
    def test_tiny_cifar_file(self, tmp_path, capsys, monkeypatch, records, code):
        """One record leaves nothing to train on once validation takes its
        share: a config error naming the file, not exit 1."""
        (tmp_path / "tiny.bin").write_bytes(bytes(records * 3073))
        monkeypatch.setenv("WAVETRAIN_DATA", str(tmp_path))
        rc = main(["train", "--out-dir", str(tmp_path / "o"), "--set", "data.source=cifar10",
                   "--set", "data.path=tiny.bin"] + FAST)
        err = capsys.readouterr().err
        assert rc == code
        assert "Traceback" not in err
        if code:
            assert "error[config]" in err and "tiny.bin" in err and "1 record" in err

    def test_crc_valid_checkpoint_with_repeated_record_exit_3(self, tmp_path, capsys):
        path = tmp_path / "repeat.ckpt"
        save_checkpoint(build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0), path)
        body = path.read_bytes()[:-4]
        (config_len,) = struct.unpack_from("<I", body, 8)
        at = 12 + config_len
        (count,) = struct.unpack_from("<I", body, at)
        # a second, all-zero stem.weight record after the last one
        body = (body[:at] + struct.pack("<I", count + 1) + body[at + 4:]
                + struct.pack("<I", 11) + b"stem.weight" + struct.pack("<5I", 4, 16, 3, 3, 3)
                + bytes(4 * 16 * 3 * 3 * 3))
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(["eval", "--checkpoint", str(path), "--out-dir", str(tmp_path / "o")] + FAST)
        err = capsys.readouterr().err
        assert rc == 3
        assert "error[format]" in err and "'stem.weight' is extra" in err
        assert "Traceback" not in err

    def test_version_1_checkpoint_exit_3(self, tmp_path, capsys):
        # a current checkpoint relabelled as version 1, its CRC fixed
        path = tmp_path / "v1.ckpt"
        save_checkpoint(build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0), path)
        body = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<I", body, 4, 1)
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        rc = main(["eval", "--checkpoint", str(path), "--out-dir", str(tmp_path / "o")] + FAST)
        err = capsys.readouterr().err
        assert rc == 3
        assert "error[format]" in err and "checkpoint version 1" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("old,new", [
        (b"wavelet_base=haar\n", b""),
        (b"wavelet_base=haar\n", b"wavelet_base=haar\nwavelet_base=db5\n"),
    ], ids=["omitted-key", "repeated-key"])
    def test_checkpoint_block_naming_a_key_not_once_exit_3(self, tmp_path, capsys,
                                                            rewrite_config_block, old, new):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0), path)
        rewrite_config_block(path, lambda block: block.replace(old, new))
        rc = main(["eval", "--checkpoint", str(path), "--out-dir", str(tmp_path / "o")] + FAST)
        err = capsys.readouterr().err
        assert rc == 3
        assert "error[format]" in err and "invalid model config" in err
        assert "Traceback" not in err

    def test_unsupported_base_exit_2(self, tmp_path, capsys):
        rc = main(["train", "--out-dir", str(tmp_path / "o"),
                   "--set", "model.wavelet_base=dmey"] + FAST)
        err = capsys.readouterr().err
        assert rc == 2
        assert "error[config]" in err and "dmey" in err

    def test_too_coarse_quadrature_grid_exit_4(self, tmp_path, capsys):
        rc = main(["check", "theorems", "--out-dir", str(tmp_path / "o"),
                   "--set", "theorem.grid_points=64"])
        err = capsys.readouterr().err
        assert rc == 4
        assert "error[numeric]" in err and "quadrature samples" in err

    @pytest.mark.parametrize("command", [
        # a finite-difference step that overflows the query batch
        "attack --set attack.kind=nes --set nes.fd_eta=3e38",
        # a learning rate that overflows the weights after one step
        "train --set train.lr_initial=3e38",
    ])
    def test_overflow_exit_4_with_only_the_error_line(self, trained_dir, tmp_path, command):
        """Run in a child process, so that any numpy warning reaches its
        stderr as it would a user's terminal."""
        words = command.split()
        argv = words[:1] + FAST + words[1:] + ["--out-dir", str(tmp_path / "o")]
        if argv[0] == "attack":
            argv += ["--checkpoint", str(trained_dir / "model.ckpt")]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-m", "wavetrain.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[numeric]: "), proc.stderr
