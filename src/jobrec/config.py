"""Pipeline configuration, config-file parsing and provenance stamps.

Artifacts carry '# key=value' header lines recording the producing stage,
a hash of every configuration field and the seed. The evaluate
command compares these hashes to catch mixed-provenance inputs.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

from .gbdt import TrainConfig


@dataclass
class PipelineConfig:
    seed: int = 42
    holdout_weeks: int = 1
    candidate_cap: int = 60
    neighbor_count: int = 60
    sampling_mode: str = "paper"
    recall_mode: str = "corrected"
    max_depth: int = 5
    min_child_weight: float = 5.0
    eta: float = 0.1
    gamma: float = 1.0
    num_round: int = 1000
    reg_lambda: float = 1.0
    early_stopping_rounds: int | None = 20

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            eta=self.eta,
            gamma=self.gamma,
            num_round=self.num_round,
            reg_lambda=self.reg_lambda,
            early_stopping_rounds=self.early_stopping_rounds,
        )

    def config_hash(self) -> str:
        """Hash of every field: each one changes results."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def provenance(self, stage: str) -> dict[str, object]:
        return {"stage": stage, "config": self.config_hash(), "seed": self.seed}


def _typed(raw: str, hint):
    """`raw` as a value of the field annotation `hint`, int, float, str or one
    of them | None, where "none", "null" or nothing is None; else ValueError."""
    kinds = typing.get_args(hint) or (hint,)
    if type(None) in kinds and raw.lower() in ("none", "null", ""):
        return None
    return next(k for k in kinds if k is not type(None))(raw)


def parse_config_file(path: str | Path) -> dict[str, object]:
    """key=value lines; '#' starts a comment; unknown keys are rejected, and
    each value must parse as its `PipelineConfig` field's annotated type."""
    hints = typing.get_type_hints(PipelineConfig)
    out: dict[str, object] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in body.split("=", 1))
        if key not in hints:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _typed(value, hints[key])
        except ValueError:
            kind = getattr(hints[key], "__name__", hints[key])
            raise ValueError(f"{path}:{lineno}: config key {key!r} expects {kind}, "
                             f"got {value!r}") from None
    return out


def load_config(config_path: str | Path | None = None, **overrides) -> PipelineConfig:
    """Defaults, then config file values, then non-None keyword overrides."""
    values = asdict(PipelineConfig())
    if config_path is not None:
        values.update(parse_config_file(config_path))
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return PipelineConfig(**values)
