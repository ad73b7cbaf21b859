"""Experiment configuration: flat key=value text with section headers.

A config fully determines a run byte-for-byte (except wall-clock columns).
Unknown sections or keys are rejected, and ``serialize(parse(text))`` is a
canonical fixed point, so configs diff cleanly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

from .datasets import CharCorpus, two_moons_batches
from .models import LayeredModel, MLPModel, TinyAttentionLM
from .optimizer import ALGORITHMS, OptimizerConfig
from .tensors import ConfigurationError

# section -> key -> (type tag, default)   type tags: s str, i int, n int >= 0,
# p int >= 1, f float, nf finite float >= 0, os optional str
_SCHEMA = {
    "model": {
        "kind": ("s", "mlp"),
        "seed": ("n", 0),
        "hidden_dims": ("s", "16"),
        "d_model": ("p", 16),
        "depth": ("n", 2),
        "context": ("p", 16),
    },
    "task": {
        "dataset": ("s", "two_moons"),
        "batch_size": ("p", 64),
        "train_batches": ("p", 16),
        "eval_batches": ("p", 4),
        "noise": ("nf", 0.15),
        "corpus_path": ("os", None),
        "data_seed": ("n", 0),
    },
    "optimizer": {
        "algorithm": ("s", "hizfo"),
        "eta_fo": ("f", 2e-5),
        "eta_zo": ("f", 2e-6),
        "epsilon": ("f", 1e-3),
        "alpha": ("f", 0.1),
        "max_steps": ("n", 200),
        "eval_interval": ("i", 50),
    },
    "partition": {
        "rho": ("f", 0.6),
        "buckets": ("i", 10_000),
        "warmup_steps": ("i", 5),
        "warmup_lr": ("f", 1e-3),
    },
    "run": {
        "master_seed": ("n", 0),
        "out_dir": ("s", "runs/out"),
    },
}
_LOWER = {"n": 0, "p": 1, "nf": 0.0}  # the least value of each bounded tag


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)  # (section, key) -> typed value

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def set(self, section: str, key: str, value) -> None:
        if (section, key) not in self.values:
            raise ConfigurationError(f"unknown config key [{section}] {key}")
        low = _LOWER.get(_SCHEMA[section][key][0])
        if low is not None and not low <= value < math.inf:  # negated, so that NaN fails too
            raise ConfigurationError(f"[{section}] {key} must be finite and >= {low}, got {value}")
        self.values[(section, key)] = value

    # resolved accessors -------------------------------------------------
    @property
    def algorithm(self) -> str:
        return self.get("optimizer", "algorithm")

    @property
    def rho(self) -> float:
        return self.get("partition", "rho")

    @property
    def buckets(self) -> int:
        return self.get("partition", "buckets")

    @property
    def master_seed(self) -> int:
        return self.get("run", "master_seed")

    def warmup(self) -> tuple[int, float]:
        return self.get("partition", "warmup_steps"), self.get("partition", "warmup_lr")


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        {(s, k): default for s, keys in _SCHEMA.items() for k, (_, default) in keys.items()}
    )


def _convert(tag: str, raw: str, where: str):
    raw = raw.strip()
    if tag == "os" and raw == "":
        return None
    try:
        if tag in ("i", "n", "p"):
            return int(raw)
        if tag in ("f", "nf"):
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigurationError(f"bad value for {where}: {raw!r}") from e


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigurationError(f"malformed config: {e}") from e
    cfg = default_config()
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown config key [{section}] {key}")
            tag = _SCHEMA[section][key][0]
            cfg.set(section, key, _convert(tag, raw, f"[{section}] {key}"))
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"cannot read config {path}: {e}") from e
    return parse_config(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            v = cfg.values[(section, key)]
            out.write(f"{key} = {'' if v is None else v}\n")
        out.write("\n")
    return out.getvalue()


# builders ---------------------------------------------------------------

def build_model(cfg: ExperimentConfig) -> LayeredModel:
    kind = cfg.get("model", "kind")
    seed = cfg.get("model", "seed")
    if kind == "mlp":
        # the mlp trains on two-moons: 2 features in, a logit for each of 2 classes out
        return MLPModel(dims=(2, *_hidden_dims(cfg), 2), seed=seed)
    if kind == "attention_lm":
        return TinyAttentionLM(
            vocab_size=_corpus(cfg).vocab.size,
            d_model=cfg.get("model", "d_model"),
            depth=cfg.get("model", "depth"),
            context=cfg.get("model", "context"),
            seed=seed,
        )
    raise ConfigurationError(f"unknown model kind {kind!r}")


def _hidden_dims(cfg: ExperimentConfig) -> list[int]:
    """The comma-separated [model] hidden_dims; empty parts are skipped."""
    raw = cfg.get("model", "hidden_dims")
    try:
        dims = [int(p) for p in raw.split(",") if p.strip()]
        if min(dims, default=1) < 1:
            raise ValueError(f"dimension {min(dims)} < 1")
    except ValueError as e:
        raise ConfigurationError(f"bad value for [model] hidden_dims: {raw!r} ({e})") from e
    return dims


def _corpus(cfg: ExperimentConfig) -> CharCorpus:
    path = cfg.get("task", "corpus_path")
    if not path:
        raise ConfigurationError("char_corpus task needs [task] corpus_path")
    with open(path, "rb") as f:
        return CharCorpus(f.read(), cfg.get("model", "context"))


# the dataset each model kind trains on
_DATASET_OF = {"mlp": "two_moons", "attention_lm": "char_corpus"}


def build_data(cfg: ExperimentConfig, model: LayeredModel):
    """(train_batches, eval_batches) for the configured task, checked once
    against the model."""
    dataset = cfg.get("task", "dataset")
    need = _DATASET_OF[model.kind]
    if dataset != need:
        raise ConfigurationError(f"[task] dataset {dataset!r} does not fit [model] kind {model.kind!r}: use {need!r}")
    bs = cfg.get("task", "batch_size")
    n_train = cfg.get("task", "train_batches")
    n_eval = cfg.get("task", "eval_batches")
    seed = cfg.get("task", "data_seed")
    if dataset == "two_moons":
        noise = cfg.get("task", "noise")
        train = two_moons_batches(n_train, bs, noise=noise, seed=seed)
        evalb = two_moons_batches(n_eval, bs, noise=noise, seed=seed + 10_000)
        return train, evalb
    corpus = _corpus(cfg)
    return (
        corpus.batches(n_train, bs, seed=seed),
        corpus.batches(n_eval, bs, seed=seed + 10_000),
    )


def build_optimizer_config(cfg: ExperimentConfig) -> OptimizerConfig:
    algorithm = cfg.algorithm
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    # every [optimizer] key but the algorithm is an OptimizerConfig field
    keys = [k for k in _SCHEMA["optimizer"] if k != "algorithm"]
    return OptimizerConfig(master_seed=cfg.master_seed, **{k: cfg.get("optimizer", k) for k in keys})
