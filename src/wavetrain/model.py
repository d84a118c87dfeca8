"""Desk-scale wide residual network with an optional wavelet pooling stage.

Structure: 3x3 stem conv, three groups of pre-activation residual blocks
(strides 1, 2, 2; widths 16k, 32k, 64k), final BN+ReLU, the configured
wavelet pooling stage, global average pooling, and a fully connected
classifier. On 32x32 inputs the feature map entering the pooling stage is
8x8; with wavelet pooling enabled it is halved to 4x4 so the average pool
runs with kernel 4. The wavelet-disabled twin pools the 8x8 map directly
(kernel 8), which keeps every parameter name and shape identical between
the two variants - only the pooling stage differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError
from .wavelet import FilterBank, filter_bank, wavelet_average_pool, wavelet_low_pass_pool

WAP_POSITIONS = ("after_first_conv", "before_final_relu", "after_final_relu", "disabled")
POOLING_VARIANTS = ("wap", "lpf")

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
    input_size: int = 32

    def __post_init__(self):
        if self.depth < 1 or self.width < 1 or self.num_classes < 2:
            raise ConfigError("depth/width must be >= 1 and num_classes >= 2")
        if self.wap_position not in WAP_POSITIONS:
            raise ConfigError(f"wap_position must be one of {WAP_POSITIONS}")
        if self.pooling_variant not in POOLING_VARIANTS:
            raise ConfigError(f"pooling_variant must be one of {POOLING_VARIANTS}")
        if self.wap_position != "disabled" and not self.wavelet_base:
            raise ConfigError("an enabled wavelet stage requires a wavelet_base")

    def group_channels(self):
        return (STEM_CHANNELS * self.width, 32 * self.width, 64 * self.width)


def _trace_spatial(cfg: ModelConfig) -> dict:
    """Follow spatial sizes through the network; reject odd sizes at the
    wavelet insertion point."""
    size = cfg.input_size
    sizes = {"stem": size}
    if cfg.wap_position == "after_first_conv":
        if size % 2:
            raise ConfigError(f"odd spatial size {size} at the wavelet stage")
        size //= 2
    for stride in GROUP_STRIDES:
        size = (size + 2 - 3) // stride + 1  # 3x3 conv, pad 1
    sizes["after_groups"] = size
    if cfg.wap_position in ("before_final_relu", "after_final_relu"):
        if size % 2:
            raise ConfigError(f"odd spatial size {size} at the wavelet stage")
        size //= 2
    if size < 1:
        raise ConfigError("input too small for this depth of downsampling")
    sizes["pool_kernel"] = size
    return sizes


class Model:
    """Named parameter tensors plus the forward graph implied by the config."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.fb: Optional[FilterBank] = (
            filter_bank(cfg.wavelet_base) if cfg.wap_position != "disabled" else None
        )
        self._sizes = _trace_spatial(cfg)

    # -- construction -------------------------------------------------------

    def _param(self, name, array):
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t

    def _conv_init(self, rng, name, cout, cin, k):
        fan_in = cin * k * k
        std = np.sqrt(2.0 / fan_in)
        self._param(name, rng.standard_normal((cout, cin, k, k)) * std)

    def _bn_init(self, name, c):
        self._param(f"{name}.gamma", np.ones(c, dtype=np.float32))
        self._param(f"{name}.beta", np.zeros(c, dtype=np.float32))
        self.buffers[f"{name}.mean"] = np.zeros(c, dtype=np.float32)
        self.buffers[f"{name}.var"] = np.ones(c, dtype=np.float32)

    def initialize(self, seed: int):
        rng = np.random.default_rng(seed)
        cfg = self.cfg
        self._conv_init(rng, "stem.weight", STEM_CHANNELS, 3, 3)
        cin = STEM_CHANNELS
        for gi, (cout, stride) in enumerate(zip(cfg.group_channels(), GROUP_STRIDES)):
            for bi in range(cfg.depth):
                prefix = f"g{gi}.b{bi}"
                block_in = cin if bi == 0 else cout
                block_stride = stride if bi == 0 else 1
                self._bn_init(f"{prefix}.bn1", block_in)
                self._conv_init(rng, f"{prefix}.conv1.weight", cout, block_in, 3)
                self._bn_init(f"{prefix}.bn2", cout)
                self._conv_init(rng, f"{prefix}.conv2.weight", cout, cout, 3)
                if block_stride != 1 or block_in != cout:
                    self._conv_init(rng, f"{prefix}.proj.weight", cout, block_in, 1)
            cin = cout
        self._bn_init("bn_final", cin)
        fan_in = cin
        self._param("fc.weight", rng.standard_normal((cin, cfg.num_classes)) * np.sqrt(2.0 / fan_in))
        self._param("fc.bias", np.zeros(cfg.num_classes, dtype=np.float32))
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

    def _block(self, prefix, x, stride, training, has_proj):
        o = ad.relu(self._bn(f"{prefix}.bn1", x, training))
        y = ad.conv2d(o, self.params[f"{prefix}.conv1.weight"], stride=stride, padding=1)
        y = ad.relu(self._bn(f"{prefix}.bn2", y, training))
        y = ad.conv2d(y, self.params[f"{prefix}.conv2.weight"], stride=1, padding=1)
        if has_proj:
            shortcut = ad.conv2d(o, self.params[f"{prefix}.proj.weight"], stride=stride, padding=0)
        else:
            shortcut = x
        return y + shortcut

    def _wavelet_stage(self, x):
        if self.cfg.pooling_variant == "lpf":
            return wavelet_low_pass_pool(x, self.fb)
        return wavelet_average_pool(x, self.fb)

    def forward(self, x: Tensor, training: bool = False, return_features: bool = False):
        cfg = self.cfg
        if x.data.ndim != 4 or x.data.shape[1] != 3:
            raise DimensionError(f"expected input [N,3,H,W], got {x.data.shape}")
        h = ad.conv2d(x, self.params["stem.weight"], stride=1, padding=1)
        if cfg.wap_position == "after_first_conv":
            h = self._wavelet_stage(h)
        cin = STEM_CHANNELS
        for gi, (cout, stride) in enumerate(zip(cfg.group_channels(), GROUP_STRIDES)):
            for bi in range(cfg.depth):
                block_in = cin if bi == 0 else cout
                block_stride = stride if bi == 0 else 1
                has_proj = block_stride != 1 or block_in != cout
                h = self._block(f"g{gi}.b{bi}", h, block_stride, training, has_proj)
            cin = cout
        h = self._bn("bn_final", h, training)
        if cfg.wap_position == "before_final_relu":
            h = self._wavelet_stage(h)
        h = ad.relu(h)
        features = h
        if cfg.wap_position == "after_final_relu":
            h = self._wavelet_stage(h)
        kernel = h.data.shape[2]
        if h.data.shape[2] != h.data.shape[3]:
            raise DimensionError("pooling stage expects a square feature map")
        h = ad.avg_pool2d(h, kernel)
        h = ad.reshape(h, (h.data.shape[0], h.data.shape[1]))
        logits = ad.linear(h, self.params["fc.weight"], self.params["fc.bias"])
        if return_features:
            return logits, features
        return logits

    # -- bookkeeping ----------------------------------------------------------

    def parameter_count(self):
        return sum(p.data.size for p in self.params.values())

    def state_arrays(self):
        """Ordered (name, array) pairs covering parameters then buffers."""
        for name, p in self.params.items():
            yield name, p.data
        for name, b in self.buffers.items():
            yield f"buffer:{name}", b

    def load_state_arrays(self, items):
        seen = set()
        for name, arr in items:
            if name.startswith("buffer:"):
                key = name[len("buffer:"):]
                if key not in self.buffers:
                    raise ConfigError(f"unknown buffer {key!r} in state")
                if self.buffers[key].shape != arr.shape:
                    raise DimensionError(f"buffer {key!r} shape mismatch")
                self.buffers[key][...] = arr
            else:
                if name not in self.params:
                    raise ConfigError(f"unknown parameter {name!r} in state")
                if self.params[name].data.shape != tuple(arr.shape):
                    raise DimensionError(f"parameter {name!r} shape mismatch")
                self.params[name].data[...] = arr
            seen.add(name)
        want = {n for n, _ in self.state_arrays()}
        missing = want - seen
        if missing:
            raise ConfigError(f"state is missing entries: {sorted(missing)[:3]}...")
        return self


def expected_param_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count implied by the config."""
    total = 3 * STEM_CHANNELS * 9
    cin = STEM_CHANNELS
    for cout, stride in zip(cfg.group_channels(), GROUP_STRIDES):
        for bi in range(cfg.depth):
            block_in = cin if bi == 0 else cout
            block_stride = stride if bi == 0 else 1
            total += 2 * block_in                      # bn1
            total += block_in * cout * 9               # conv1
            total += 2 * cout                          # bn2
            total += cout * cout * 9                   # conv2
            if block_stride != 1 or block_in != cout:  # projection shortcut
                total += block_in * cout
        cin = cout
    total += 2 * cin                                   # bn_final
    total += cin * cfg.num_classes + cfg.num_classes   # fc
    return total


def build_model(cfg: ModelConfig, seed: int) -> Model:
    """Construct and deterministically initialize a model."""
    return Model(cfg).initialize(seed)
