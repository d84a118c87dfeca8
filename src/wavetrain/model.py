"""Desk-scale wide residual network with an optional wavelet pooling stage.

Structure: 3x3 stem conv, three groups of pre-activation residual blocks
(strides 1, 2, 2; widths 16k, 32k, 64k), final BN+ReLU, the configured
wavelet pooling stage, a global average and a fully connected classifier.
``features`` checks once that its input is [N, 3, 32, 32]: ``INPUT_SIZE`` is
the CIFAR image size, at which every pool sees an even map (32x32 at the
stem, 8x8 at a final position). Every parameter and buffer name and shape
comes from one table, ``state_layout``, which reads neither the pooling
position nor the base, so the variants share one state layout - only the
pooling stage differs.

A WAP whose filter is one tap at offset 0 (haar; ``wavelet.wap_decimation``
gives its coefficient c) keeps only the even-even pixels of its input, times
c*c = 1/2. Where the convs feeding it can compute only those pixels they do,
and the stage is just that scale: the stem conv at stride 2 after the stem,
in every mode; at a final position, in an eval ``forward`` with a
projection on the last block (depth 1), that block's conv2 at stride 2 and
its projection at twice its stride, with bn_final (running statistics) and
ReLU on the 4x4 map. Training mode (batch statistics read the whole map),
``features`` called on its own, depth >= 2, LPF and the other bases run the
full map, then the pool. That scale is ``autodiff.scale`` by 0.5, one
float32 multiply forward and back. It keeps the pool's bytes except that a
kept -0.0 stays -0.0 (the pool adds taps into +0.0) and an odd subnormal's
half, a tie, rounds to even (the pool's float64 taps round it toward zero).

``forward`` is ``head(features(x))``. Grad-CAM calls the two itself:
``features`` outside any tape gives the final ReLU's output as an unrecorded
leaf, and ``head`` (the wavelet stage at ``after_final_relu``, the average,
the classifier) under ``autodiff.tape(features)`` records only the paths
from it, so a backward from the logits stops at the features and gives no
parameter a gradient.

Both decimations give the full graph's logits bytes at most batch sizes, but
conv2d picks its blocking from the conv's own size (width 1): the stride-2
stem conv fits the float64 one-block path at 10 <= N <= 37 and the tail's
stride-2 conv2 at 8 <= N <= 29, where the full convs run float32 blocks, and
at N = 57 the tail conv2's last float32 block holds one sample. There the
logits move in the last bits. The input gradient agrees with the full
graph's to float32 rounding but not bit for bit: the full graph's stride-1
input gradient also sums the zero taps the pool leaves, inside GEMMs whose
partial sums OpenBLAS orders by their depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, check_range, physical_memory
from .wavelet import (
    FilterBank,
    filter_bank,
    wap_decimation,
    wavelet_average_pool,
    wavelet_low_pass_pool,
)

WAP_POSITIONS = ("after_first_conv", "before_final_relu", "after_final_relu", "disabled")
POOLING_VARIANTS = ("wap", "lpf")

INPUT_SIZE = 32
STEM_CHANNELS = 16
GROUP_STRIDES = (1, 2, 2)


@dataclass
class ModelConfig:
    depth: int = 2
    width: int = 2
    num_classes: int = 10
    wavelet_base: Optional[str] = "haar"
    wap_position: str = "after_final_relu"
    pooling_variant: str = "wap"

    def __post_init__(self):
        check_range("depth", self.depth, "[1,inf)")
        check_range("width", self.width, "[1,inf)")
        check_range("num_classes", self.num_classes, "[2,inf)")
        if self.wap_position not in WAP_POSITIONS:
            raise ConfigError(f"wap_position must be one of {WAP_POSITIONS}")
        if self.pooling_variant not in POOLING_VARIANTS:
            raise ConfigError(f"pooling_variant must be one of {POOLING_VARIANTS}")
        if self.wap_position != "disabled" and not self.wavelet_base:
            raise ConfigError("an enabled wavelet stage requires a wavelet_base")
        # refused before anything is allocated: numpy never sees one
        # impossible size when a huge depth makes many small arrays
        state_bytes = 4 * state_size(self)
        memory = physical_memory()
        if state_bytes > memory:
            raise ConfigError(f"depth {self.depth}, width {self.width} and {self.num_classes} "
                              f"classes need {state_bytes} bytes of model state, more than "
                              f"the {memory} bytes of physical memory")

    def group_channels(self):
        return (STEM_CHANNELS * self.width, 32 * self.width, 64 * self.width)


def _blocks(cfg: ModelConfig):
    """Yield (prefix, in channels, out channels, stride, has projection) for
    each residual block, in forward order."""
    cin = STEM_CHANNELS
    for gi, (cout, stride) in enumerate(zip(cfg.group_channels(), GROUP_STRIDES)):
        for bi in range(cfg.depth):
            block_in, block_stride = (cin, stride) if bi == 0 else (cout, 1)
            yield (f"g{gi}.b{bi}", block_in, cout, block_stride,
                   block_stride != 1 or block_in != cout)
        cin = cout


def state_layout(cfg: ModelConfig):
    """Yield (name, shape, fan_in) for every parameter, then for every batch
    norm running statistic as ``buffer:<name>``, in checkpoint order.

    ``fan_in`` is set for the weights drawn He-normal (std sqrt(2/fan_in);
    He et al. 2015) and None for the rest. The layout is lazy, so a reader
    that stops at its first difference never walks a config's full depth.
    """
    last = cfg.group_channels()[-1]
    yield "stem.weight", (STEM_CHANNELS, 3, 3, 3), 3 * 9
    for prefix, cin, cout, _, has_proj in _blocks(cfg):
        yield f"{prefix}.bn1.gamma", (cin,), None
        yield f"{prefix}.bn1.beta", (cin,), None
        yield f"{prefix}.conv1.weight", (cout, cin, 3, 3), cin * 9
        yield f"{prefix}.bn2.gamma", (cout,), None
        yield f"{prefix}.bn2.beta", (cout,), None
        yield f"{prefix}.conv2.weight", (cout, cout, 3, 3), cout * 9
        if has_proj:
            yield f"{prefix}.proj.weight", (cout, cin, 1, 1), cin
    yield "bn_final.gamma", (last,), None
    yield "bn_final.beta", (last,), None
    yield "fc.weight", (last, cfg.num_classes), last
    yield "fc.bias", (cfg.num_classes,), None
    for prefix, cin, cout, _, _ in _blocks(cfg):
        for norm, c in ((f"{prefix}.bn1", cin), (f"{prefix}.bn2", cout)):
            yield f"buffer:{norm}.mean", (c,), None
            yield f"buffer:{norm}.var", (c,), None
    yield "buffer:bn_final.mean", (last,), None
    yield "buffer:bn_final.var", (last,), None


def _block_size(cin, cout, has_proj):
    # bn1 and bn2 (gamma, beta, mean, var), conv1, conv2 and the projection
    return 4 * (cin + cout) + 9 * cout * (cin + cout) + (cin * cout if has_proj else 0)


def state_size(cfg: ModelConfig) -> int:
    """The number of float32 values in ``state_layout(cfg)``, in closed form:
    each group's first block, then depth - 1 blocks of ``cout`` channels."""
    total, cin = STEM_CHANNELS * 3 * 9, STEM_CHANNELS
    for cout, stride in zip(cfg.group_channels(), GROUP_STRIDES):
        total += _block_size(cin, cout, stride != 1 or cin != cout)
        total += (cfg.depth - 1) * _block_size(cout, cout, False)
        cin = cout
    # bn_final (gamma, beta, mean, var) and fc
    return total + 4 * cin + (cin + 1) * cfg.num_classes


def check_state(cfg: ModelConfig, items):
    """Raise DimensionError at the first (name, array) pair of ``items`` that
    differs from ``state_layout(cfg)`` in name or shape, or at the first entry
    one of them has and the other lacks. Costs at most ``len(items)`` + 1
    layout entries, whatever depth or width the config names."""
    for i, (got, want) in enumerate(zip_longest(items, state_layout(cfg))):
        if got is None:
            raise DimensionError(f"state entry {i} {want[0]!r} is missing")
        if want is None:
            raise DimensionError(f"state entry {i} {got[0]!r} is extra")
        (name, arr), (want_name, shape, _) = got, want
        if name != want_name:
            raise DimensionError(f"state entry {i} is {name!r} where the layout has "
                                 f"{want_name!r}")
        if arr.shape != shape:
            raise DimensionError(f"state entry {i} {name!r} has shape {arr.shape} where "
                                 f"the layout has {shape}")


class Model:
    """Named parameter tensors plus the forward graph implied by the config.

    Construction allocates the state of ``state_layout``: batch norm gammas
    and running variances at one, everything else at zero.
    ``initialize`` draws the He-normal weights."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.fb: Optional[FilterBank] = (
            filter_bank(cfg.wavelet_base) if cfg.wap_position != "disabled" else None
        )
        self._blocks = list(_blocks(cfg))
        # the coefficient of a one-tap WAP (haar), whose feeding convs then
        # compute only the pixels it keeps
        self._keep = (wap_decimation(self.fb)
                      if self.fb is not None and cfg.pooling_variant == "wap" else None)
        for name, shape, _ in state_layout(cfg):
            fill = np.ones if name.endswith((".gamma", ".var")) else np.zeros
            array = fill(shape, dtype=np.float32)
            if name.startswith("buffer:"):
                self.buffers[name[len("buffer:"):]] = array
            else:
                self.params[name] = Tensor(array)

    def initialize(self, seed: int):
        """Draw every He-normal weight from one generator, in layout order."""
        rng = np.random.default_rng(seed)
        for name, shape, fan_in in state_layout(self.cfg):
            if fan_in is not None:
                self.params[name].data[...] = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
        return self

    # -- forward ------------------------------------------------------------

    def _bn(self, name, x, training):
        return ad.batch_norm(
            x,
            self.params[f"{name}.gamma"],
            self.params[f"{name}.beta"],
            self.buffers[f"{name}.mean"],
            self.buffers[f"{name}.var"],
            training,
        )

    @staticmethod
    def _relu(h):
        """ReLU of an activation the forward has just made. When the tape
        did not record it, nothing else holds its map, so it is overwritten
        in place."""
        if ad._grad_node(h) is not None:
            return ad.relu(h)
        np.maximum(h.data, 0.0, out=h.data)
        return h

    def _pool(self, x, decimated):
        """The configured wavelet stage; on a map whose convs kept only the
        pool's pixels, just its scale."""
        if decimated:
            return ad.scale(x, self._keep * self._keep)
        if self.cfg.pooling_variant == "lpf":
            return wavelet_low_pass_pool(x, self.fb)
        return wavelet_average_pool(x, self.fb)

    def features(self, x: Tensor, training: bool = False, tail: bool = False):
        """Stem to final ReLU of an [N, 3, 32, 32] input. ``tail`` decimates
        the last block for a one-tap pool at a final position."""
        cfg = self.cfg
        if x.data.shape[1:] != (3, INPUT_SIZE, INPUT_SIZE):
            raise DimensionError(f"expected input [N,3,{INPUT_SIZE},{INPUT_SIZE}], "
                                 f"got {x.data.shape}")
        stem = cfg.wap_position == "after_first_conv"
        decimated = stem and self._keep is not None
        h = ad.conv2d(x, self.params["stem.weight"], stride=2 if decimated else 1, padding=1)
        if stem:
            h = self._pool(h, decimated)
        last = len(self._blocks) - 1
        for i, (prefix, _, _, stride, has_proj) in enumerate(self._blocks):
            # a residual block; the last one of ``tail`` computes only its
            # even-even pixels: conv2 and the projection at twice their strides
            step = 2 if tail and i == last else 1
            o = self._relu(self._bn(f"{prefix}.bn1", h, training))
            y = ad.conv2d(o, self.params[f"{prefix}.conv1.weight"], stride=stride, padding=1)
            if has_proj:
                # the shortcut replaces the input, which bn1 read last
                h = ad.conv2d(o, self.params[f"{prefix}.proj.weight"], stride=stride * step,
                              padding=0)
            del o
            y = self._relu(self._bn(f"{prefix}.bn2", y, training))
            y = ad.conv2d(y, self.params[f"{prefix}.conv2.weight"], stride=step, padding=1)
            h = ad.add(y, h)
            del y
        h = self._bn("bn_final", h, training)
        if cfg.wap_position == "before_final_relu":
            h = self._pool(h, tail)
        return self._relu(h)

    def head(self, h: Tensor, tail: bool = False):
        """The wavelet stage at ``after_final_relu``, the average, the classifier."""
        if self.cfg.wap_position == "after_final_relu":
            h = self._pool(h, tail)
        return ad.linear(ad.global_avg_pool(h), self.params["fc.weight"], self.params["fc.bias"])

    def forward(self, x: Tensor, training: bool = False):
        # in eval mode bn_final and ReLU are pointwise, so a one-tap WAP at
        # a final position lets the last block compute only the pixels it
        # keeps; training-mode batch statistics read the full map
        tail = (self._keep is not None and self._blocks[-1][4] and not training
                and self.cfg.wap_position in ("before_final_relu", "after_final_relu"))
        return self.head(self.features(x, training, tail), tail)

    # -- bookkeeping ----------------------------------------------------------

    def state_arrays(self):
        """Ordered (name, array) pairs covering parameters then buffers."""
        for name, p in self.params.items():
            yield name, p.data
        for name, b in self.buffers.items():
            yield f"buffer:{name}", b

    def load_state_arrays(self, items):
        """Copy ``items`` into this model's state after ``check_state``."""
        items = list(items)
        check_state(self.cfg, items)
        for (_, src), (_, dst) in zip(items, self.state_arrays()):
            dst[...] = src
        return self


def build_model(cfg: ModelConfig, seed: int) -> Model:
    """Construct and deterministically initialize a model."""
    return Model(cfg).initialize(seed)
