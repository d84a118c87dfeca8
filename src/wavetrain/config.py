"""Flat key=value run configuration with a typed key registry.

Files hold one ``key=value`` per line ('#' starts a comment); command-line
overrides use the same syntax. Unknown keys are rejected, and every run
writes its fully resolved configuration next to its outputs so the exact
settings can be re-parsed and re-run. The model, train, attack and NES keys
are generated from the fields of the library config objects, so each of
those settings has one type and one default. The same codec (split_items,
parse_pairs, to_text) reads and writes the config block of a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, get_type_hints

from .attacks import AttackConfig, NesConfig
from .errors import ConfigError, check_range, physical_memory
from .model import INPUT_SIZE, ModelConfig
from .training import TrainConfig

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(raw):
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ValueError from None


def _parse_int_list(raw):
    raw = raw.strip()
    return tuple(int(v) for v in raw.split(",")) if raw else ()


def _parse_opt_str(raw):
    raw = raw.strip()
    return None if raw.lower() == "none" else raw


# type -> (parser, what a value of the type is); a parser raises ValueError on
# text that is not such a value. A tuple is a list of integers.
_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (_parse_bool, "a boolean"),
    str: (str.strip, "a string"),
    Optional[str]: (_parse_opt_str, "a string or none"),
    tuple: (_parse_int_list, "a comma-separated list of integers"),
}


def _section(prefix, default, names):
    """SCHEMA rows ``prefix + name -> (type, default)`` for the named fields of
    the config object ``default``: the type from the field's annotation, the
    default from the object."""
    hints = get_type_hints(type(default))
    return {prefix + name: (hints[name], getattr(default, name)) for name in names}


_TRAIN = TrainConfig(epochs=5)

# key -> (type, default). The model.*, train.*, attack.* and nes.* keys are
# fields of the library config objects; the objects below are the CLI defaults.
SCHEMA = {
    "seed": (int, 0),
    "data.source": (str, "synthetic"),        # synthetic | cifar10
    "data.path": (Optional[str], None),       # cifar10 batch file (under the data root)
    "data.num_classes": (int, 2),
    "data.n_train": (int, 2000),
    "data.n_val": (int, 500),
    **_section("model.", ModelConfig(depth=1, width=1),
               ("depth", "width", "wavelet_base", "wap_position", "pooling_variant")),
    **_section("train.", _TRAIN, ("epochs", "batch_size", "lr_initial", "lr_milestones",
                                  "momentum", "weight_decay", "early_stop_patience")),
    **_section("train.attack_", _TRAIN.train_attack, ("epsilon", "steps", "step_size")),
    "attack.kind": (str, "pgd"),              # fgsm | pgd | mim | cw | nes
    **_section("attack.", AttackConfig(epsilon=0.031), ("epsilon", "step_size", "steps",
                                                        "random_init", "restarts", "decay",
                                                        "kappa")),
    **_section("nes.", NesConfig(), ("epsilon", "fd_eta", "lr", "max_queries",
                                     "samples_per_step")),
    "heatmap.eps_f": (float, 4.0),
    "heatmap.samples_per_cell": (int, 32),
    "heatmap.rows": (int, 0),                 # 0 = full half-spectrum
    "heatmap.cols": (int, 0),
    "gradcam.index": (int, 0),
    "gradcam.class_id": (int, -1),            # -1 = predicted class
    "theorem.grid_points": (int, 1 << 16),
}

# Allowed interval of a numeric key, checked by errors.check_range as a
# RunConfig is built; every other int and float key lies in [0,inf). The
# model.*, train.*, attack.* and nes.* keys also meet the tighter bounds that
# ModelConfig, TrainConfig, AttackConfig and NesConfig check with the same
# function as they are built.
RANGES = {
    "data.num_classes": "[2,inf)",
    "data.n_train": "[1,inf)",
    "data.n_val": "[1,inf)",
    "heatmap.eps_f": "(0,inf)",
    "heatmap.samples_per_cell": "[1,inf)",
    # the cell grid lies within the input's half-spectrum
    "heatmap.rows": f"[0,{INPUT_SIZE // 2 + 1}]",
    "heatmap.cols": f"[0,{INPUT_SIZE}]",
    "gradcam.class_id": "[-1,inf)",
    # the float64 quadrature grid fits in physical memory
    "theorem.grid_points": f"[1,{physical_memory() // 8}]",
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        resolved = {k: default for k, (_, default) in SCHEMA.items()}
        for key, value in self.values.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            if SCHEMA[key][0] in (int, float):
                check_range(key, value, RANGES.get(key, "[0,inf)"))
            resolved[key] = value
        self.values = resolved

    def __getitem__(self, key):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def to_text(self) -> str:
        return to_text(sorted(self.values.items()))


# -- the key=value codec, shared with the checkpoint config block --------------


def split_items(items):
    """``(key, raw value)`` of each ``key=value`` item, the key stripped."""
    pairs = []
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {item!r}")
        pairs.append((key.strip(), raw))
    return pairs


def parse_pairs(pairs, schema=SCHEMA) -> dict:
    """``key -> value`` of ``(key, raw)`` pairs, each parsed by its type in
    ``schema``; a later pair of the same key wins."""
    parsed = {}
    for key, raw in pairs:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
        parse, what = _PARSERS[schema[key][0]]
        try:
            parsed[key] = parse(raw)
        except ValueError:
            raise ConfigError(f"{key!r} is not {what}: {raw.strip()!r}") from None
    return parsed


def _format(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_text(pairs) -> str:
    """One ``key=value`` line per ``(key, value)`` pair, in the form
    parse_pairs reads back."""
    return "".join(f"{key}={_format(value)}\n" for key, value in pairs)


def _file_items(text):
    """The items of a config file: its lines, stripped, without blank lines
    and '#' comments."""
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def parse_config_text(text: str) -> RunConfig:
    return RunConfig(parse_pairs(split_items(_file_items(text))))


def load_config(path=None, overrides=()) -> RunConfig:
    """Parse an optional config file, then apply key=value overrides."""
    items = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                items = _file_items(f.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the config file ({exc.strerror})") from None
    return RunConfig(parse_pairs(split_items(items + list(overrides))))
