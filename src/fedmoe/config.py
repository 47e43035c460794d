"""Run configuration: validation, defaults, JSON round-trip.

Every run writes its fully resolved configuration next to its outputs;
re-running from that file reproduces the results exactly.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .data import DataConfig, SyntheticSpec
from .errors import ConfigError
from .expert import ModelConfig


@dataclasses.dataclass(frozen=True)
class ModePolicy:
    """How one mode runs the federated protocol.

    sync says when downloaded encoders arrive: "round" every round from
    the server cache, "once" after independent pretraining, "shared" as
    the FedAvg mean loaded into the local encoder, or "never".
    """

    global_branches: bool  # other domains' encoders run as extra experts
    gate: bool             # a learned gate; without one the experts mix uniformly
    frozen: bool           # downloaded encoders stay frozen
    sync: str
    drops_domain: bool     # drop_domain removes that expert from the other domains


MODE_POLICIES = {  # global_branches, gate, frozen, sync, drops_domain
    "fmoe": ModePolicy(True, True, True, "round", False),
    "local_only": ModePolicy(False, False, True, "never", False),
    "fedavg": ModePolicy(False, False, True, "shared", False),
    "no_gate": ModePolicy(True, False, True, "round", False),
    "no_freeze": ModePolicy(True, True, False, "round", False),
    "drop_expert": ModePolicy(True, True, True, "round", True),
    "two_phase": ModePolicy(True, True, True, "once", False),
}
MODES = tuple(MODE_POLICIES)

SYNTHETIC_PRESETS = {
    "default": SyntheticSpec(num_domains=3, items_per_domain=200,
                             users_per_domain=500, min_len=10, max_len=16,
                             num_clusters=8, correlation=1.0),
}


@dataclasses.dataclass
class RunConfig:
    # scenario source (exactly one unless a ScenarioSpec is passed directly)
    scenario_manifest: str | None = None
    synthetic: dict | None = None

    mode: str = "fmoe"
    rounds: int = 60
    local_epochs: int = 3
    patience: int = 10
    batch_size: int = 256
    learning_rate: float = 0.001
    dropout: float = 0.3

    width: int = 64
    blocks: int = 2
    heads: int = 1
    ff_mult: int = 4
    gnn_depth: int = 2
    t_max: int = 16
    temperature: float = 1.0
    shuffle_ratio: float = 0.6

    rec_weight: float = 1.0
    con_weight: float = 1.0
    moe_weight: float = 1.0

    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    seed: int = 0
    precision: str = "float32"
    parallel_clients: bool = False
    gate_hidden_dim: int = 0
    exclude_seen: bool = False
    eval_batch: int = 512

    drop_domain: str | None = None   # drop_expert mode
    pretrain_epochs: int = 0         # two_phase mode

    min_interactions: int = 10
    min_len: int = 4
    max_len: int = 16
    apply_filters: bool = True
    eval_ratio: float = 0.2

    out_dir: str | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.policy.drops_domain and not self.drop_domain:
            raise ConfigError(f"{self.mode} mode needs drop_domain")
        if self.drop_domain is not None and not self.policy.drops_domain:
            raise ConfigError(f"drop_domain is read only in drop_expert mode, "
                              f"not in {self.mode} mode")
        if self.pretrain_epochs and self.policy.sync != "once":
            raise ConfigError(f"pretrain_epochs is read only in two_phase mode, "
                              f"not in {self.mode} mode")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"unknown precision {self.precision!r}")
        for name, lo in (("rounds", 1), ("local_epochs", 1), ("batch_size", 1),
                         ("width", 1), ("blocks", 1), ("heads", 1), ("ff_mult", 1),
                         ("t_max", 1), ("eval_batch", 1), ("gate_hidden_dim", 0)):
            if getattr(self, name) < lo:
                raise ConfigError(f"{name} must be >= {lo}")
        if self.seed < 0:  # SeedSequence takes non-negative integers only
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.patience < 0 or self.gnn_depth < 0 or self.pretrain_epochs < 0:
            raise ConfigError("patience, gnn_depth, pretrain_epochs must be >= 0")
        if self.width % self.heads:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if not 0.0 < self.learning_rate:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if not 0.0 <= self.shuffle_ratio <= 1.0:
            raise ConfigError("shuffle_ratio must lie in [0, 1]")
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be positive")
        if not 0.0 < self.eval_ratio < 1.0:
            raise ConfigError("eval_ratio must lie in (0, 1)")

    @property
    def policy(self) -> ModePolicy:
        return MODE_POLICIES[self.mode]

    @property
    def dtype(self) -> type:
        """The numpy float type that precision names."""
        return np.float64 if self.precision == "float64" else np.float32

    def model_config(self) -> ModelConfig:
        return ModelConfig(width=self.width, blocks=self.blocks, heads=self.heads,
                           ff_mult=self.ff_mult, gnn_depth=self.gnn_depth,
                           t_max=self.t_max, dropout=self.dropout)

    def data_config(self) -> DataConfig:
        return DataConfig(min_interactions=self.min_interactions,
                          min_len=self.min_len, max_len=self.max_len,
                          eval_ratio=self.eval_ratio, t_max=self.t_max,
                          apply_filters=self.apply_filters)

    def synthetic_spec(self) -> SyntheticSpec:
        if self.synthetic is None:
            raise ConfigError("no synthetic spec configured")
        spec = dict(self.synthetic)
        spec.setdefault("seed", self.seed)
        try:
            return SyntheticSpec(**spec)
        except TypeError as exc:
            raise ConfigError(f"bad synthetic spec: {exc}") from None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        payload = dict(payload)
        # saved by earlier releases; false is what every run does now
        if payload.pop("moe_grad_to_experts", False) is not False:
            raise ConfigError("moe_grad_to_experts is retired: the fusion loss "
                              "trains the gate alone")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
