
import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrain import storage
from wavetrain.autodiff import Tensor
from wavetrain.config import SCHEMA, RunConfig, load_config, parse_config_text
from wavetrain.data import Dataset, load_cifar10, split_train_val, synthetic_dataset
from wavetrain.errors import ConfigError, FormatError, InputError
from wavetrain.model import POOLING_VARIANTS, WAP_POSITIONS, ModelConfig, build_model
from wavetrain.storage import (
    _config_from_text, _config_to_text, load_checkpoint, save_checkpoint, write_csv, write_pgm,
)
from wavetrain.wavelet import SUPPORTED_BASES


def make_cifar_blob(labels, fill=None, rng=None):
    """Byte-count oracle: assemble records straight from the documented layout."""
    records = []
    for lab in labels:
        pixels = (
            np.full(3072, fill, dtype=np.uint8)
            if fill is not None
            else rng.integers(0, 256, size=3072, dtype=np.uint8)
        )
        records.append(bytes([lab]) + pixels.tobytes())
    return b"".join(records)


class TestCifar10:
    def test_single_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(make_cifar_blob([7], fill=255))
        ds = load_cifar10(path)
        assert len(ds) == 1
        assert ds.labels[0] == 7
        assert np.all(ds.images == 1.0)
        assert ds.images.shape == (1, 3, 32, 32)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3072)
        with pytest.raises(FormatError):
            load_cifar10(path)

    def test_full_batch_layout(self, tmp_path, rng):
        labels = rng.integers(0, 10, size=10000).tolist()
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(make_cifar_blob(labels, rng=rng))
        assert path.stat().st_size == 10000 * 3073
        ds = load_cifar10(path)
        assert len(ds) == 10000
        hist = np.bincount(ds.labels, minlength=10)
        assert hist.sum() == 10000
        assert np.array_equal(ds.labels, np.array(labels))

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad_label.bin"
        path.write_bytes(make_cifar_blob([11], fill=0))
        with pytest.raises(FormatError):
            load_cifar10(path)

    def test_channel_plane_order(self, tmp_path):
        # red plane 255, green 128, blue 0
        pixels = np.concatenate([
            np.full(1024, 255, np.uint8),
            np.full(1024, 128, np.uint8),
            np.zeros(1024, np.uint8),
        ])
        (tmp_path / "rgb.bin").write_bytes(bytes([3]) + pixels.tobytes())
        ds = load_cifar10(tmp_path / "rgb.bin")
        assert np.allclose(ds.images[0, 0], 1.0)
        assert np.allclose(ds.images[0, 1], 128 / 255)
        assert np.allclose(ds.images[0, 2], 0.0)


# tracemalloc peak of synthetic_dataset(2, 2500) over its image bytes: 1.106
# measured, where four float64 arrays the size of the whole set peaked at 5.0
SYNTHETIC_PEAK = 1.25


class TestSynthetic:
    def test_same_seed_identical(self):
        a = synthetic_dataset(4, 64, seed=11)
        b = synthetic_dataset(4, 64, seed=11)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_balanced_within_one(self):
        ds = synthetic_dataset(3, 100, seed=0)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_values_in_unit_interval(self):
        ds = synthetic_dataset(2, 64, seed=5)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_two_class_linearly_separable_by_logistic_probe(self):
        ds = synthetic_dataset(2, 200, seed=7)
        x = ds.images.reshape(len(ds), -1).astype(np.float64)
        x -= x.mean(axis=0)  # centering changes nothing about separability
        x = np.hstack([x, np.ones((len(ds), 1))])
        y = ds.labels.astype(np.float64)
        w = np.zeros(x.shape[1])
        for _ in range(100):
            p = 1.0 / (1.0 + np.exp(-(x @ w)))
            w -= 0.5 * x.T @ (p - y) / len(ds)
        acc = float((((x @ w) > 0) == (y > 0.5)).mean())
        assert acc > 0.95

    def test_split_is_deterministic_tail(self):
        ds = synthetic_dataset(2, 100, seed=1)
        train, val = split_train_val(ds)
        assert len(train) == 90 and len(val) == 10
        assert np.array_equal(val.images, ds.images[90:])
        # views of the loaded set, not copies
        for part in (train, val):
            assert np.shares_memory(part.images, ds.images)
            assert np.shares_memory(part.labels, ds.labels)

    # sha256 of synthetic_dataset(3, n, seed=5).images as the one-draw
    # generator wrote them; at data.SYNTHETIC_BLOCK = 32 samples: one sample,
    # one block and a one-sample remainder, ten whole blocks
    @pytest.mark.parametrize("n,digest", [
        (1, "a5bd33d3deb3cf9196b430fc2f9dbf9e8e9a226c484edf194d3f66d19dab44f1"),
        (33, "b14a4f0ecd897adab95496f4017b5a4c35c710bd391057ac48d43560026d72a1"),
        (320, "b9edacb17d6d1b63b53ff214fb6bc9a7230ae92c6825eeefcd8bb34d4d332a8b"),
    ])
    def test_streamed_blocks_keep_the_bytes(self, n, digest):
        images = synthetic_dataset(3, n, seed=5).images
        assert images.flags.c_contiguous
        assert hashlib.sha256(images.tobytes()).hexdigest() == digest

    def test_peak_memory_is_the_images(self):
        n = 2500
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = synthetic_dataset(2, n, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < SYNTHETIC_PEAK * ds.images.nbytes

    def test_bad_params(self):
        with pytest.raises(InputError):
            synthetic_dataset(1, 10, seed=0)

    @pytest.mark.parametrize("where", [np.s_[...], np.s_[1, 2, 3, 4]])
    def test_nan_images_rejected(self, where):
        images = synthetic_dataset(2, 4, seed=0).images
        images[where] = np.nan
        with pytest.raises(InputError, match=r"\[0,1\]"):
            Dataset(images, np.array([0, 1, 0, 1]), 2)


def _record(name, arr):
    """One checkpoint record, encoded from the documented layout."""
    encoded = name.encode("utf-8")
    arr = np.asarray(arr, dtype="<f4")
    return (struct.pack("<I", len(encoded)) + encoded
            + struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape) + arr.tobytes())


class TestCheckpoint:
    def _model(self):
        return build_model(
            ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="haar"), seed=3
        )

    def test_round_trip_forward_bitwise(self, tmp_path, rng):
        model = self._model()
        # make the running stats non-trivial so buffers are exercised
        model.forward(Tensor(rng.random((4, 3, 32, 32)).astype(np.float32)), training=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = rng.random((2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(
            model.forward(Tensor(x)).data, loaded.forward(Tensor(x)).data
        )
        assert loaded.cfg == model.cfg

    def test_single_byte_corruption_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40  # flip a payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_version_1_refused(self, tmp_path):
        """Version 1 files, whose config block also held input_size, have no
        reader: a CRC-valid one is refused by its version field alone."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        blob = bytearray(path.read_bytes())
        assert struct.unpack_from("<I", blob, 4) == (storage.VERSION,) == (2,)
        struct.pack_into("<I", blob, 4, 1)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match=r"checkpoint version 1 \(at offset 4\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new,match", [
        (b"depth=1\n", b"depth=x\n", "not an integer"),
        (b"depth=1\n", b"depth=\xff\n", "config block is not UTF-8"),
        (b"depth=1\n", b"depth=0\n", "invalid model config"),
        # an unsupported base (the value is stripped): Model(cfg) raises
        # UnsupportedBaseError
        (b"wavelet_base=haar\n", b"wavelet_base= db7\n",
         "does not describe a valid model: unknown wavelet base 'db7'"),
        (b"num_classes=2\n", b"num_classes=3\n", "'fc.weight' has shape"),  # DimensionError
        # two keys swapped, then a blank line
        (b"depth=1\nwidth=1\n", b"width=1\ndepth=1\n", "are not the ModelConfig fields"),
        (b"pooling_variant=wap\n", b"\npooling_variant=wap", "expected key=value, got ''"),
        (b"stem.weight", b"stem.weigh\xff", "name is not UTF-8"),
        (b"stem.weight", b"stem.weighz", "is 'stem.weighz' where the layout has"),
        # rank 70 with a zero dim: an empty payload numpy cannot reshape
        pytest.param(b"stem.weight" + struct.pack("<5I", 4, 16, 3, 3, 3),
                     b"stem.weight" + struct.pack("<5I", 70, 16, 0, 3, 3),
                     "record 'stem.weight'", id="rank-70-empty-payload"),
    ])
    def test_crc_valid_malformed_content_is_format_error(self, tmp_path, old, new, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        body = path.read_bytes()[:-4]
        assert body.count(old) == 1 and len(old) == len(new)
        body = body.replace(old, new)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda block: block.replace(b"pooling_variant=lpf\n", b""),
        lambda block: block.replace(b"wavelet_base=db5\n",
                                    b"wavelet_base=db5\nwavelet_base=haar\n"),
        lambda block: block + b"\n",
    ], ids=["omitted-key", "repeated-key", "trailing-blank-line"])
    def test_block_must_name_each_field_once_in_order(self, tmp_path, rewrite_config_block,
                                                      edit):
        """The config block alone says which wavelet stage a model runs, so a
        CRC-valid db5/LPF file whose block drops pooling_variant must not load
        as WAP, and a repeated wavelet_base must not win over the first."""
        path = tmp_path / "model.ckpt"
        cfg = ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="db5",
                          pooling_variant="lpf")
        save_checkpoint(build_model(cfg, seed=3), path)
        assert load_checkpoint(path).cfg == cfg
        rewrite_config_block(path, edit)
        with pytest.raises(FormatError, match="invalid model config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,match", [
        (b"width", b"9", "entry 3 'g0.b0.conv1.weight' has shape"),
        (b"depth", b"300", "entry 7 is 'g1.b0.bn1.gamma'"),
    ], ids=["width-9-parameters", "depth-300-records"])
    def test_relabelled_size_rejected_before_build(self, tmp_path, monkeypatch, key, value,
                                                   match):
        """A CRC-valid file whose config names a larger model than its records
        hold fails before any model of that size is built."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        body = path.read_bytes()[:-4]
        (config_len,) = struct.unpack_from("<I", body, 8)
        config = body[12:12 + config_len]
        assert config.count(key + b"=1\n") == 1
        config = config.replace(key + b"=1\n", key + b"=" + value + b"\n")
        body = body[:8] + struct.pack("<I", len(config)) + config + body[12 + config_len:]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

        def refuse(cfg):
            raise AssertionError(f"built a model for {cfg} before bounding it")

        monkeypatch.setattr(storage, "Model", refuse)
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        ("repeat", "'stem.weight' is extra"),
        ("drop", "'buffer:bn_final.var' is missing"),
    ])
    def test_record_set_must_equal_the_layout(self, tmp_path, edit, match):
        """A CRC-valid file that repeats a record, or lacks one, is refused:
        a repeat must not load with its later copy winning."""
        model = self._model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        body = path.read_bytes()[:-4]
        (config_len,) = struct.unpack_from("<I", body, 8)
        at = 12 + config_len
        (count,) = struct.unpack_from("<I", body, at)
        if edit == "repeat":
            body += _record("stem.weight", np.zeros((16, 3, 3, 3)))
            count += 1
        else:
            last = _record("buffer:bn_final.var", model.buffers["bn_final.var"])
            assert body.endswith(last)
            body = body[:-len(last)]
            count -= 1
        body = body[:at] + struct.pack("<I", count) + body[at + 4:]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)


MODEL_KEYS = ("depth", "width", "num_classes", "wavelet_base", "wap_position",
              "pooling_variant")
config_values = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(("none", "haar", "disabled", "wap", "lpf", "after_first_conv", "1.5", "")),
    st.text(max_size=8),
)
config_lines = st.tuples(st.one_of(st.sampled_from(MODEL_KEYS), st.text(max_size=8)),
                         config_values).map(lambda kv: f"{kv[0]}={kv[1]}")


@st.composite
def model_configs(draw):
    position = draw(st.sampled_from(WAP_POSITIONS))
    bases = SUPPORTED_BASES + ((None,) if position == "disabled" else ())
    # ModelConfig refuses a state larger than physical memory; the largest
    # drawn here is 0.35 GB
    return ModelConfig(
        depth=draw(st.integers(1, 100)), width=draw(st.integers(1, 3)),
        num_classes=draw(st.integers(2, 1000)), wavelet_base=draw(st.sampled_from(bases)),
        wap_position=position, pooling_variant=draw(st.sampled_from(POOLING_VARIANTS)),
    )


class TestCheckpointConfigText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(config_lines, max_size=10).map("\n".join) | st.text(max_size=60))
    def test_arbitrary_text_gives_config_or_format_error(self, text):
        try:
            cfg = _config_from_text(text)
        except FormatError:
            return
        assert isinstance(cfg, ModelConfig)

    @settings(max_examples=200, deadline=None)
    @given(model_configs())
    def test_round_trip(self, cfg):
        assert _config_from_text(_config_to_text(cfg)) == cfg

    def test_disabled_stage_text_is_pinned(self):
        cfg = ModelConfig(depth=1, width=3, num_classes=7, wavelet_base=None,
                          wap_position="disabled")
        assert _config_to_text(cfg) == (
            "depth=1\nwidth=3\nnum_classes=7\nwavelet_base=none\nwap_position=disabled\n"
            "pooling_variant=wap\n"
        )


run_config_lines = st.tuples(
    st.one_of(st.sampled_from(sorted(SCHEMA)), st.text(max_size=8)),
    st.one_of(st.integers(-(2 ** 70), 2 ** 70).map(str),
              st.floats(allow_nan=True, allow_infinity=True).map(repr),
              st.sampled_from(("none", "true", "false", "1,2", "[3, 5]", "", "nan", "-inf")),
              st.text(max_size=12)),
).map(lambda kv: f"{kv[0]}={kv[1]}")


@st.composite
def cifar_blobs(draw):
    """Whole records with arbitrary label and pixel bytes, or any byte string."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=2 * 3073 + 3))
    labels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=3))
    pixels = draw(st.binary(min_size=3072, max_size=3072))
    return b"".join(bytes([lab]) + pixels for lab in labels)


def _checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0), path)
    return path.read_bytes()


class TestReaderFuzz:
    """Readers of outside input raise only their documented error."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(run_config_lines, max_size=8).map("\n".join) | st.text(max_size=80))
    def test_config_text_raises_only_config_error(self, text):
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    @settings(max_examples=100, deadline=None)
    @given(blob=cifar_blobs())
    def test_cifar_bytes_raise_only_format_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("cifar") / "batch.bin"
        path.write_bytes(blob)
        try:
            ds = load_cifar10(path)
        except FormatError:
            return
        assert len(ds) * 3073 == len(blob)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edited_checkpoint_raises_only_format_error(self, tmp_path_factory, data):
        blob = bytearray(_checkpoint_blob(tmp_path_factory))
        # most bytes are float payload, so half the edits land in the header
        position = st.integers(0, len(blob) - 5) | st.integers(0, 200)
        for at, value in data.draw(st.lists(st.tuples(position, st.integers(0, 255)),
                                            min_size=1, max_size=4)):
            blob[at] = value
        if data.draw(st.booleans()):
            del blob[data.draw(st.integers(0, len(blob) - 4)):-4]
        if data.draw(st.booleans()):  # a valid CRC sends the edit on to the parser
            blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path = tmp_path_factory.mktemp("ckpt") / "edited.ckpt"
        path.write_bytes(bytes(blob))
        try:
            model = load_checkpoint(path)
        except FormatError:
            return
        assert model.params


class TestPgmCsv:
    def test_pgm_header_and_scaling(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(blob[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
        assert pixels.tolist() == [0, 128, 255, 64]

    def test_pgm_constant_map(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((3, 3), 0.7))
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert (pixels == 0).all()

    def test_csv_schema_line_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "demo", ("a", "b"), [(1, 2.5), (3, 0.125)])
        lines = path.read_text().splitlines()
        assert lines[0] == "# wavetrain-csv v1 demo"
        assert lines[1] == "a,b"
        assert lines[2] == "1,2.5"
        assert lines[3] == "3,0.125"


class TestRunConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("no.such.key=1\n")

    def test_defaults_present(self):
        cfg = RunConfig()
        assert cfg["train.batch_size"] == 128
        assert cfg["attack.epsilon"] == pytest.approx(0.031)

    def test_round_trip_equality(self):
        cfg = parse_config_text("seed=7\ntrain.epochs=3\nmodel.wavelet_base=sym4\n")
        again = parse_config_text(cfg.to_text())
        assert again == cfg

    def test_overrides_and_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed=1\ntrain.lr_milestones=2,4\n")
        cfg = load_config(path, overrides=["seed=9", "attack.random_init=false"])
        assert cfg["seed"] == 9
        assert cfg["train.lr_milestones"] == (2, 4)
        assert cfg["attack.random_init"] is False

    def test_bad_override_format(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides=["justakey"])
