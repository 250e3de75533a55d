"""Plain-text ``key = value`` configuration with strict key checking.

``Config`` is the one home of every setting, its field defaults run the
reference benchmark unchanged, and it checks each value once, when built.
Command-line flags override file values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .metrics import DEFAULT_KNN_K
from .loop import DEFAULT_LOOP_K, DEFAULT_LOOP_LAMBDA
from .pca import DEFAULT_VARIANCE_THRESHOLD
from .synthetic import NovelClusterSpec, SyntheticSpec, default_spec


STRATEGY_BPS = "bps"
STRATEGY_MPS = "mps"

# range rules; every float setting must also be finite
_AT_LEAST_0 = ("seed", "pca_components", "cluster_k", "cluster_k_err", "cluster_k_ft")
_ABOVE_0 = ("knn_k", "cluster_iou_weight", "loop_k_nn", "loop_lambda", "sim_n_seeds")
# priority weights: nonnegative, and each formula's set sums to 1, which keeps scores in [0,1]
_WEIGHT_SETS = (("bps_a", "bps_b"), ("mps_a", "mps_b", "mps_c", "mps_d"))


class ConfigError(ValueError):
    """Bad configuration file or option value."""


@dataclass(frozen=True)
class Config:
    """Every setting of a run; the pipeline, the harness and the CLI read this one record."""

    core_embeddings: str = ""
    finetune_embeddings: str = ""
    out_dir: str = "."
    pca_components: int = 0          # 0 selects the variance-threshold rule
    pca_variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD
    knn_k: int = DEFAULT_KNN_K
    cluster_k: int = 0               # 0 selects the sqrt(N/2) rule
    cluster_k_err: int = 0
    cluster_k_ft: int = 0
    cluster_iou_weight: float = 1.0
    loop_k_nn: int = DEFAULT_LOOP_K
    loop_lambda: float = DEFAULT_LOOP_LAMBDA
    bps_a: float = 0.75
    bps_b: float = 0.25
    mps_a: float = 0.50
    mps_b: float = 0.25
    mps_c: float = 0.20
    mps_d: float = 0.05
    strategy: str = STRATEGY_BPS
    seed: int = 42
    sim_dims: int = 8
    sim_core_n: int = 2000
    sim_ft_n: int = 2200
    sim_outlier_fraction: float = 0.02
    sim_novel_sizes: tuple[int, ...] = (60, 140)
    sim_novel_stddev: float = 3.0
    sim_n_seeds: int = 20
    sim_budgets: tuple[int, ...] = tuple(range(250, 2151, 100))

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{_KEY_OF[f.name]} must be finite, got {getattr(self, f.name)}")
        for name in _AT_LEAST_0:
            if getattr(self, name) < 0:
                raise ConfigError(f"{_KEY_OF[name]} must be >= 0")
        for name in _ABOVE_0:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{_KEY_OF[name]} must be positive")
        with np.errstate(over="ignore"):  # clusters.bin stores the weight as float32
            if not 0 < np.float32(self.cluster_iou_weight) < np.inf:
                raise ConfigError(f"cluster.iou_weight = {self.cluster_iou_weight} is 0 or inf as float32")
        for weights in _WEIGHT_SETS:
            for name in weights:
                if getattr(self, name) < 0.0:
                    raise ConfigError(f"{_KEY_OF[name]} must be nonnegative")
            if abs(sum(getattr(self, name) for name in weights) - 1.0) > 1e-9:
                raise ConfigError(f"{weights[0][:3]} coefficients must sum to 1 (within 1e-9)")
        if not 0.0 < self.pca_variance_threshold <= 1.0:
            raise ConfigError("pca.variance_threshold must lie in (0, 1]")
        if self.strategy not in (STRATEGY_BPS, STRATEGY_MPS):
            raise ConfigError(f"strategy must be '{STRATEGY_BPS}' or '{STRATEGY_MPS}'")
        if not self.sim_budgets:
            raise ConfigError("sim.budgets is empty")
        if any(b < 1 for b in self.sim_budgets):
            raise ConfigError("sim.budgets must be positive")
        try:
            self.synthetic_spec()
        except ValueError as exc:
            raise ConfigError(f"sim: {exc}") from None

    def synthetic_spec(self) -> SyntheticSpec:
        base = default_spec(seed=self.seed, dims=self.sim_dims)
        novel = tuple(NovelClusterSpec(size=s, stddev=self.sim_novel_stddev) for s in self.sim_novel_sizes)
        return replace(
            base,
            novel_clusters=novel,
            outlier_fraction=self.sim_outlier_fraction,
            core_n=self.sim_core_n,
            ft_n=self.sim_ft_n,
        )


def config_key(field_name: str) -> str:
    """Config-file key of a field: ``pca_components`` -> ``pca.components``, ``bps_a`` -> ``coeff.bps_a``."""
    section, _, rest = field_name.partition("_")
    if section in ("pca", "knn", "cluster", "loop", "sim"):
        return f"{section}.{rest}"
    if section in ("bps", "mps"):
        return f"coeff.{field_name}"
    return field_name


# config-file key <-> Config field
_KEYS: dict[str, str] = {config_key(f.name): f.name for f in fields(Config)}
_KEY_OF = {field_name: key for key, field_name in _KEYS.items()}


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    """Comma list (``250,350``) or start:stop:step range (``250:2150:100``, inclusive)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step < 1:
            raise ValueError("range step must be positive")
        if not (values := tuple(range(start, stop + 1, step))):
            raise ValueError(f"range {text!r} is empty")
        return values
    return tuple(int(p) for p in text.split(",") if p.strip())


def _coerce(field_name: str, text: str):
    kind = Config.__dataclass_fields__[field_name].type
    text = text.strip()
    try:
        if field_name in ("sim_novel_sizes", "sim_budgets"):
            return _parse_int_tuple(text)
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {_KEY_OF[field_name]}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse ``key = value`` lines into Config field assignments."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[_KEYS[key]] = _coerce(_KEYS[key], value)
    return values


def load_config(path: str | None, overrides: dict[str, object] | None = None) -> Config:
    """Build a Config from an optional file plus flag overrides (flags win)."""
    values: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values.update(parse_config_text(text, source=str(path)))
    if overrides:
        values.update(overrides)
    return Config(**values)


def dump_config(config: Config) -> str:
    """Round-trippable textual form of the effective configuration."""
    lines = []
    for f in fields(Config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{_KEY_OF[f.name]} = {value}")
    return "\n".join(lines) + "\n"
