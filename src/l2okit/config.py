"""Run configuration: flat `key = value` files, flag overrides, profiles.

The `paper` profile carries the full-scale experiment constants (ladder
100..3000, N_period=3, T_period=100, r=0.3, teacher lrs 0.01); `desk`
scales everything to minutes on one CPU core.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .curriculum import CurriculumConfig
from .optimizees import FAMILIES, OptimizeeSpec
from .teachers import KINDS, default_ensemble

MODES = ("vanilla", "aug", "cl", "il", "cl-il", "self-improving")
PROFILES = ("desk", "paper")
EVAL_OPTIMIZERS = ("checkpoint",) + KINDS

PAPER_LADDER = (100, 200, 500, 1000, 1500, 2000, 2500, 3000)
DESK_LADDER = (20, 40, 100, 200)


class ConfigError(ValueError):
    pass


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


@dataclass
class RunConfig:
    mode: str = "vanilla"
    profile: str = "desk"
    seed: int = 0
    out: str = "runs/out"
    family: str = "tiny_mlp"

    # model
    hidden: int = 20
    preprocess_p: float = 10.0
    out_scale: float = 0.01

    # meta-training
    n_train: int | None = None       # profile default when None
    epochs: int | None = None
    meta_lr: float = 1e-3
    segment: int = 20
    n_val_instances: int = 5
    divergence_penalty: float = 1e6

    # curriculum
    ladder: tuple[int, ...] | None = None
    n_period: int | None = None
    t_period: int | None = None

    # imitation / self-improving
    r: float = 0.3
    teacher_lr: float = 0.01
    anneal_epochs: int = 100
    si_start_prob: float | None = None

    # optimizee
    dim: int = 10
    features: int = 2
    mlp_hidden: int = 8
    n_points: int = 512
    batch_size: int = 128
    init_std: float = 0.01
    dataset_root: str | None = None

    # evaluation
    n_eval: int | None = None
    eval_seeds: tuple[int, ...] = tuple(range(10))
    log_every: int = 10
    checkpoint: str | None = None
    optimizer: str = "checkpoint"
    name: str | None = None  # report label; defaults to the optimizer kind

    def validate(self) -> None:
        """Checks, in every mode: mode, profile, family and optimizer are
        known; every float setting is finite; r is in [0, 1]; meta_lr and
        teacher_lr are > 0; segment, the resolved n_train and epochs,
        n_val_instances and anneal_epochs are >= 1; and si_start_prob,
        when set, is in [0, 1/k] for the k teachers of default_ensemble.
        The remaining ranges are checked by building the optimizee spec
        and the curriculum; hidden and preprocess_p by init_l2o. In cl
        and cl-il the resolved ladder also needs a second entry, the
        mismatched horizon that validation runs at."""
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.profile not in PROFILES:
            raise ConfigError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.optimizer not in EVAL_OPTIMIZERS:
            raise ConfigError(
                f"optimizer must be one of {EVAL_OPTIMIZERS}, got {self.optimizer!r}")
        for key, parse in PARSERS.items():
            val = getattr(self, key)
            if parse is float and val is not None and not math.isfinite(val):
                raise ConfigError(f"{key} must be finite, got {val!r}")
        if not 0 <= self.r <= 1:
            raise ConfigError("r must be in [0, 1]")
        if self.meta_lr <= 0:
            raise ConfigError("meta_lr must be > 0")
        if self.teacher_lr <= 0:
            raise ConfigError("teacher_lr must be > 0")
        if self.segment < 1:
            raise ConfigError("segment must be >= 1")
        if self.resolved_n_train() < 1:
            raise ConfigError("n_train must be >= 1")
        if self.resolved_epochs() < 1:
            raise ConfigError("epochs must be >= 1")
        if self.n_val_instances < 1:
            raise ConfigError("n_val_instances must be >= 1")
        if self.anneal_epochs < 1:
            raise ConfigError("anneal_epochs must be >= 1")
        k = len(default_ensemble())
        if self.si_start_prob is not None and (
                self.si_start_prob < 0 or k * self.si_start_prob > 1):
            raise ConfigError(f"si_start_prob must be in [0, 1/{k}]")
        try:
            self.optimizee_spec()
            self.curriculum()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.mode in ("cl", "cl-il") and len(self.resolved_ladder()) < 2:
            raise ConfigError(f"ladder must have >= 2 entries in mode {self.mode}")

    # profile-resolved views -------------------------------------------------

    def resolved_ladder(self) -> tuple[int, ...]:
        if self.ladder is not None:
            return self.ladder
        return PAPER_LADDER if self.profile == "paper" else DESK_LADDER

    def curriculum(self) -> CurriculumConfig:
        paper = self.profile == "paper"
        return CurriculumConfig(
            ladder=self.resolved_ladder(),
            n_period=self.n_period if self.n_period is not None else 3,
            t_period=self.t_period if self.t_period is not None else (100 if paper else 25),
        )

    def resolved_n_train(self) -> int:
        if self.n_train is not None:
            return self.n_train
        paper = self.profile == "paper"
        if self.mode == "aug":
            return 1000 if paper else 100
        return 100 if paper else 20

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        paper = self.profile == "paper"
        if self.mode == "aug":
            return 5000 if paper else 500
        if self.mode in ("cl", "cl-il"):
            # budget cap for the scheduler, generous relative to the ladder
            return 100000 if paper else 2000
        return 5000 if paper else 300

    def resolved_n_eval(self) -> int:
        if self.n_eval is not None:
            return self.n_eval
        return 10 * max(self.resolved_ladder()[-1], self.resolved_n_train())

    def optimizee_spec(self) -> OptimizeeSpec:
        return OptimizeeSpec(
            family=self.family, dim=self.dim, features=self.features,
            hidden=self.mlp_hidden, n_points=self.n_points,
            batch_size=self.batch_size, init_std=self.init_std,
            dataset_root=self.dataset_root)


def _parser(hint):
    """The text parser for a field annotated hint: int, float or str, or
    _parse_int_list for a tuple; an optional field parses as its type."""
    if get_origin(hint) is UnionType:
        hint = next(t for t in get_args(hint) if t is not NoneType)
    return _parse_int_list if get_origin(hint) is tuple else hint


# Every RunConfig field is a config key and a CLI flag, parsed by its type.
PARSERS = {name: _parser(hint) for name, hint in get_type_hints(RunConfig).items()}


def _convert(key: str, raw: str, where: str):
    raw = raw.strip()
    try:
        return PARSERS[key](raw)
    except ValueError:
        raise ConfigError(f"{where}: bad value {raw!r} for key {key!r}") from None


def parse_config_file(path) -> dict:
    """Flat UTF-8 `key = value` lines with `#` comments; unknown keys and
    type mismatches are rejected with the offending line number."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _convert(key, raw, f"{path}:{lineno}")
    return values


def build_config(file_values: dict | None = None,
                 flag_values: dict | None = None) -> RunConfig:
    """Flags override file values; everything else takes defaults."""
    merged = dict(file_values or {})
    for key, val in (flag_values or {}).items():
        if val is not None:
            if key not in PARSERS:
                raise ConfigError(f"unknown key {key!r}")
            merged[key] = val
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; reparsing yields a config equal to cfg except
    for `out`, which is left out: it says where a run's artifacts are
    written, not what they are, so it must not change config_hash."""
    lines = []
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if val is None or f.name == "out":
            continue
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
