"""Flat key=value run configuration with a typed key registry.

Files hold one ``key=value`` per line ('#' starts a comment); command-line
overrides use the same syntax. Unknown keys are rejected, and every run
writes its fully resolved configuration next to its outputs so the exact
settings can be re-parsed and re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(raw):
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {raw!r}") from None


def _parse_int_list(raw):
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated ints, got {raw!r}") from None


def _parse_opt_str(raw):
    raw = raw.strip()
    return None if raw.lower() == "none" else raw


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": lambda raw: raw.strip(),
    "opt_str": _parse_opt_str,
    "int_list": _parse_int_list,
}

# key -> (type tag, default)
SCHEMA = {
    "seed": ("int", 0),
    "data.source": ("str", "synthetic"),          # synthetic | cifar10
    "data.path": ("opt_str", None),               # cifar10 batch file (under the data root)
    "data.num_classes": ("int", 2),
    "data.n_train": ("int", 2000),
    "data.n_val": ("int", 500),
    "model.depth": ("int", 1),
    "model.width": ("int", 1),
    "model.wavelet_base": ("opt_str", "haar"),
    "model.wap_position": ("str", "after_final_relu"),
    "model.pooling_variant": ("str", "wap"),
    "train.epochs": ("int", 5),
    "train.batch_size": ("int", 128),
    "train.lr_initial": ("float", 0.1),
    "train.lr_milestones": ("int_list", ()),
    "train.momentum": ("float", 0.9),
    "train.weight_decay": ("float", 5e-4),
    "train.early_stop_patience": ("int", 0),
    "train.attack_epsilon": ("float", 0.031),
    "train.attack_steps": ("int", 10),
    "train.attack_step_size": ("float", 2.0 / 255.0),
    "attack.kind": ("str", "pgd"),                # fgsm | pgd | mim | cw | nes
    "attack.epsilon": ("float", 0.031),
    "attack.step_size": ("float", 2.0 / 255.0),
    "attack.steps": ("int", 20),
    "attack.random_init": ("bool", True),
    "attack.restarts": ("int", 1),
    "attack.decay": ("float", 1.0),
    "attack.kappa": ("float", 0.0),
    "nes.epsilon": ("float", 0.05),
    "nes.fd_eta": ("float", 2.55 / 255.0),
    "nes.lr": ("float", 2.55 / 255.0),
    "nes.max_queries": ("int", 10000),
    "nes.samples_per_step": ("int", 25),
    "heatmap.eps_f": ("float", 4.0),
    "heatmap.samples_per_cell": ("int", 32),
    "heatmap.rows": ("int", 0),                   # 0 = full half-spectrum
    "heatmap.cols": ("int", 0),
    "gradcam.index": ("int", 0),
    "gradcam.class_id": ("int", -1),              # -1 = predicted class
    "theorem.grid_points": ("int", 1 << 16),
}

# Allowed interval of a numeric key, checked as the value is parsed. Every
# other int and float key lies in [0,inf), or in the tighter range that
# ModelConfig, TrainConfig, AttackConfig or NesConfig enforce with a
# ConfigError. Each upper end is open, so NaN and +-inf fall outside them all.
RANGES = {
    "data.num_classes": "[2,inf)",
    "data.n_train": "[1,inf)",
    "data.n_val": "[1,inf)",
    "train.lr_initial": "(0,inf)",
    "train.momentum": "[0,1)",
    "nes.fd_eta": "(0,inf)",
    "heatmap.eps_f": "(0,inf)",
    "heatmap.samples_per_cell": "[1,inf)",
    "gradcam.class_id": "[-1,inf)",
    "theorem.grid_points": "[1,inf)",
}


def _check_range(key, value):
    spec = RANGES.get(key, "[0,inf)")
    lo, hi = (float(v) for v in spec[1:-1].split(","))
    if not ((lo <= value if spec[0] == "[" else lo < value) and value < hi):
        raise ConfigError(f"{key}={value!r} lies outside {spec}")


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        resolved = {k: default for k, (_, default) in SCHEMA.items()}
        for key, raw in self.values.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = raw
        self.values = resolved

    def __getitem__(self, key):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.values == other.values

    def to_text(self) -> str:
        lines = [f"{k}={_format(self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"


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


def _parse_pairs(pairs):
    parsed = {}
    for key, raw in pairs:
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        tag, _ = SCHEMA[key]
        try:
            parsed[key] = _PARSERS[tag](raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
        if tag in ("int", "float"):
            _check_range(key, parsed[key])
    return parsed


def parse_config_text(text: str) -> RunConfig:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        pairs.append((key, raw))
    return RunConfig(_parse_pairs(pairs))


def load_config(path=None, overrides=()) -> RunConfig:
    """Parse an optional config file, then apply key=value overrides."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
        cfg = parse_config_text(text)
    else:
        cfg = RunConfig()
    if overrides:
        pairs = []
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must be key=value, got {item!r}")
            key, _, raw = item.partition("=")
            pairs.append((key, raw))
        cfg.values.update(_parse_pairs(pairs))
    return cfg
