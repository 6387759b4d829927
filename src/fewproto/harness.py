"""Evaluation harness: configuration, episode loop, statistics, reports.

One run evaluates `n_tasks` independent episodes and reports the mean
accuracy with a 95% confidence interval (1.96 * population stddev /
sqrt(T), the convention behind "+-" columns in few-shot results).

Episode i always uses the generator seeded with `seed + i`. With
trained prototypes, episodes run in chunks of consecutive task indices
(`chunk_plan`), as many as `stack_width` allows for the bank width and
split evenly over the run: each is prepared on its own generator, one
batched Adam loop trains the chunk's prototype banks, then each is
classified and scored. A bank's bits do not depend on the chunk it
trains in, so reports are identical for any chunk plan. Mean-prototype
episodes train nothing and run one at a time. Episodes that hit a fatal
numerical condition are aborted, counted, and excluded; a run fails
outright if aborts exceed 1% of the requested tasks.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .classify import build_masks, classify_batch, score_episode
from .diagnostics import Diagnostics, EpisodeAbort
from .embeddings import (EmbeddingSet, Episode, generate_synthetic,
                         load_embedding_set, sample_episode)
from .graph import build_task_graph
from .head import LinearHead, manifold_augment, train_head
from .prototypes import (LossWeights, PrototypeBank, mean_prototypes,
                         train_prototype_banks, validate_prototypes)

ABORT_CAP_FRACTION = 0.01
# Seed stream for building a synthetic pool, distinct from episode streams.
POOL_STREAM = 0x706F6F6C
# Episodes per batched prototype loop. A step pays for about 60 numpy
# calls whatever the stack size, so wider stacks amortize them, until a
# stacked (B, n_ways, dim) float64 array passes about STACK_BYTES and
# the buffers outgrow the cache: with one BLAS thread on a 2-vCPU Xeon,
# a 5-way 1-shot 640-d bank-step took 78 us at 16 banks and 103 us at
# 48, while a 5-way 64-d one fell from 22 us at 16 to 19.5 us at 48.
# MAX_STACK also bounds how many prepared episodes are held at once.
STACK_BYTES = 409600
MAX_STACK = 48


class RunError(RuntimeError):
    """The whole evaluation run is invalid (bad config, too many aborts)."""


@dataclass
class SyntheticSpec:
    """Parameters for an in-memory synthetic pool (no file involved)."""

    n_classes: int = 20
    per_class: int = 50
    dim: int = 64
    mean_scale: float = 10.0
    sigma: float = 0.1

    def __str__(self):
        return (f"{self.n_classes},{self.per_class},{self.dim},"
                f"{self.mean_scale!r},{self.sigma!r}")

    @classmethod
    def parse(cls, text: str) -> "SyntheticSpec":
        try:  # a wrong part count fails the unpacking
            classes, per_class, dim, mean_scale, sigma = text.split(",")
            return cls(int(classes), int(per_class), int(dim),
                       float(mean_scale), float(sigma))
        except ValueError:
            raise RunError(f"synthetic={text!r}: synthetic spec must be "
                           "n_classes,per_class,dim,mean_scale,sigma") from None


@dataclass
class GraphConfig:
    top_m: int = 10
    self_weight: float = 1.0
    rounds: int = 3


@dataclass
class HeadConfig:
    epochs: int = 11
    lr: float = 1e-2
    n_aug: int = 5


@dataclass
class ProtoConfig:
    epochs: int = 1000
    lr: float = 1e-2
    entropy_weight: float = 0.1
    class_weight: float = 1.0
    strategy: str = "trained"  # trained | mean


@dataclass
class MaskConfig:
    # scale stays small because the softmax in the mask saturates once
    # scale * |prototype entry| reaches a few units; aggregated features
    # (and therefore mean prototypes) have O(10) entries.
    enabled: bool = True
    scale: float = 0.1
    boost: float = 10000.0


@dataclass
class RunConfig:
    """Everything that determines a run's statistics (not its speed)."""

    data: str | None = None
    synthetic: SyntheticSpec | None = None
    n_ways: int = 5
    k_shots: int = 5
    n_queries: int = 15
    n_tasks: int = 1000
    graph: GraphConfig = field(default_factory=GraphConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    proto: ProtoConfig = field(default_factory=ProtoConfig)
    mask: MaskConfig = field(default_factory=MaskConfig)
    seed: int = 0

    def validate(self) -> None:
        """Reject a config no run can use; each error names its field."""
        if (self.data is None) == (self.synthetic is None):
            raise RunError("exactly one of data path or synthetic spec required")
        for name in ("n_ways", "k_shots", "n_queries", "n_tasks"):
            if getattr(self, name) < 1:
                raise RunError(f"{name} must be positive")
        flat = self.to_flat()
        for name, low in (("graph.top_m", 1), ("graph.rounds", 0),
                          ("head.epochs", 1), ("head.n_aug", 0),
                          ("proto.epochs", 1)):
            if flat[name] < low:
                raise RunError(f"{name}={flat[name]} must be >= {low}")
        n_vertices = self.n_ways * (self.k_shots + self.n_queries)
        if self.graph.top_m > n_vertices - 1:
            raise RunError(
                f"graph.top_m={self.graph.top_m} exceeds the "
                f"{n_vertices - 1} neighbours each of an episode's "
                f"{n_vertices} graph vertices has")
        for name in ("graph.self_weight", "head.lr", "proto.lr",
                     "proto.entropy_weight", "proto.class_weight",
                     "mask.scale", "mask.boost"):
            if not np.isfinite(flat[name]):
                raise RunError(f"{name}={flat[name]!r} must be finite")
        for name in ("head.lr", "proto.lr"):
            if flat[name] <= 0:
                raise RunError(f"{name}={flat[name]!r} must be positive")
        for name in ("proto.entropy_weight", "proto.class_weight"):
            if flat[name] < 0:
                raise RunError(f"{name}={flat[name]!r} must be non-negative")
        if self.proto.strategy not in ("trained", "mean"):
            raise RunError(f"unknown proto.strategy {self.proto.strategy!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise RunError("seed must fit in an unsigned 64-bit integer")

    def to_flat(self) -> dict:
        """Flat key/value view; nested groups become dotted keys."""
        out: dict = {
            "data": self.data,
            "synthetic": None if self.synthetic is None else str(self.synthetic),
            "n_ways": self.n_ways, "k_shots": self.k_shots,
            "n_queries": self.n_queries, "n_tasks": self.n_tasks,
            "seed": self.seed,
        }
        for group in ("graph", "head", "proto", "mask"):
            sub = getattr(self, group)
            for f in fields(sub):
                out[f"{group}.{f.name}"] = getattr(sub, f.name)
        return out

    @classmethod
    def from_flat(cls, flat: dict) -> "RunConfig":
        """Inverse of to_flat; unknown keys are an error."""
        cfg = cls()
        for key, value in flat.items():
            cfg.set_flat(key, value)
        return cfg

    def set_flat(self, key: str, value) -> None:
        if key == "data":
            self.data = None if value in (None, "") else str(value)
            return
        if key == "synthetic":
            self.synthetic = (None if value in (None, "") else
                              SyntheticSpec.parse(str(value)))
            return
        if "." in key:
            group_name, field_name = key.split(".", 1)
            group = getattr(self, group_name, None)
            if group_name not in ("graph", "head", "proto", "mask") or \
                    field_name not in {f.name for f in fields(group)}:
                raise RunError(f"unknown config key {key!r}")
            target_type = {f.name: f.type for f in fields(group)}[field_name]
            setattr(group, field_name, _coerce(value, target_type, key))
            return
        if key in ("n_ways", "k_shots", "n_queries", "n_tasks", "seed"):
            setattr(self, key, _coerce(value, "int", key))
            return
        raise RunError(f"unknown config key {key!r}")


def _coerce(value, type_name: str, key: str):
    """`value` as a value of config field `key`, of type `type_name`;
    raises RunError naming `key=value` when it is not one."""
    if isinstance(value, str):
        text = value.strip()
        if type_name == "bool":
            if text.lower() in ("on", "true", "1", "yes"):
                return True
            if text.lower() in ("off", "false", "0", "no"):
                return False
        elif type_name in ("int", "float"):
            try:
                return int(text) if type_name == "int" else float(text)
            except ValueError:
                pass
        else:
            return text
    elif type_name == "int":
        if not isinstance(value, bool) and (
                isinstance(value, numbers.Integral)
                or isinstance(value, float) and value.is_integer()):
            return int(value)
    elif type_name == "float":
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return value
    else:
        return value
    raise RunError(f"cannot parse {type_name} {key}={value!r}")


def load_config_file(path) -> dict:
    """Parse a flat `key = value` config file; '#' starts a comment and
    a key may appear once."""
    flat: dict = {}
    first_line: dict = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise RunError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in flat:
                raise RunError(f"{path}:{lineno}: {key} repeats line "
                               f"{first_line[key]}")
            flat[key], first_line[key] = value, lineno
    return flat


@dataclass
class EvalReport:
    """Result of one run; everything but wall_time is seed-deterministic."""

    config: dict
    per_task_accuracy: list[float]
    mean_accuracy: float
    ci95: float
    diagnostics: dict
    wall_time: dict

    def summary_line(self) -> str:
        return (f"{100.0 * self.mean_accuracy:.2f}% ± "
                f"{100.0 * self.ci95:.2f}% "
                f"({len(self.per_task_accuracy)} tasks)")


def confidence_interval_95(per_task: list[float]) -> float:
    """1.96 * population standard deviation / sqrt(T)."""
    arr = np.asarray(per_task, dtype=np.float64)
    return float(1.96 * arr.std(ddof=0) / np.sqrt(arr.size))


def episode_rng(seed: int, task_index: int) -> np.random.Generator:
    """The documented per-episode stream: generator seeded with seed + index."""
    return np.random.default_rng(seed + task_index)


def stack_width(n_ways: int, dim: int) -> int:
    """Most episodes one batched prototype loop stacks, for banks of
    `n_ways` rows of `dim` float64 entries."""
    return max(1, min(MAX_STACK, STACK_BYTES // (8 * n_ways * dim)))


def chunk_plan(n_tasks: int, width: int) -> list[range]:
    """Task indices 0..n_tasks-1 in order, in the fewest chunks of at
    most `width`, with sizes that differ by at most one."""
    n_chunks = -(-n_tasks // width)
    size, extra = divmod(n_tasks, n_chunks)
    bounds = [k * size + min(k, extra) for k in range(n_chunks + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


@dataclass
class PreparedEpisode:
    """An episode up to its prototypes: sampled, aggregated, and, for
    trained prototypes, its head trained (`head` is None otherwise).

    `episode` keeps its labels, but its raw `support_x` and `query_x`
    are dropped (None) once aggregated: only the aggregated features are
    read later. `rng` is the episode's generator, positioned where
    prototype initialization draws from it.
    """

    episode: Episode
    support_feats: np.ndarray
    query_feats: np.ndarray
    head: LinearHead | None
    rng: np.random.Generator


def _lap(timings: dict | None, phase: str, since: float) -> float:
    """Add the time from `since` to now to `timings[phase]`; return now."""
    now = time.perf_counter()
    if timings is not None:
        timings[phase] = timings.get(phase, 0.0) + now - since
    return now


def prepare_episode(emb: EmbeddingSet, config: RunConfig,
                    rng: np.random.Generator,
                    diag: Diagnostics | None = None,
                    timings: dict | None = None) -> PreparedEpisode:
    """Sample an episode, aggregate it through the task graph and, for
    trained prototypes, train its head: only the prototype loss reads
    the head. Adds the "sample", "graph" and, with a head, "head"
    phases to `timings`."""
    t = time.perf_counter()
    episode = sample_episode(emb, config.n_ways, config.k_shots,
                             config.n_queries, rng)
    t = _lap(timings, "sample", t)
    support_feats, query_feats = build_task_graph(
        episode.support_x, episode.query_x, config.graph.top_m,
        config.graph.self_weight, config.graph.rounds, diag)
    episode = replace(episode, support_x=None, query_x=None)
    t = _lap(timings, "graph", t)
    head = None
    if config.proto.strategy == "trained":
        aug = manifold_augment(support_feats, episode.support_y,
                               config.head.n_aug, rng)
        head = train_head(aug, config.head.epochs, config.head.lr, rng,
                          diag)
        _lap(timings, "head", t)
    return PreparedEpisode(episode, support_feats, query_feats, head, rng)


def finish_episode(prepared: PreparedEpisode, bank: PrototypeBank,
                   config: RunConfig, diag: Diagnostics | None = None,
                   timings: dict | None = None) -> float:
    """Build masks, classify the queries against `bank`, return the
    accuracy. Adds the "classify" phase to `timings`."""
    t = time.perf_counter()
    masks = (build_masks(bank, config.mask.scale, config.mask.boost)
             if config.mask.enabled else None)
    predictions, _ = classify_batch(prepared.query_feats, bank, masks,
                                    config.mask.enabled, diag)
    accuracy = score_episode(prepared.episode, predictions)
    _lap(timings, "classify", t)
    return accuracy


def _prototype_banks(prepared: list[PreparedEpisode], config: RunConfig
                     ) -> list[PrototypeBank | EpisodeAbort]:
    """Each episode's prototype bank, or the abort that ended it: trained
    banks in one batched loop, mean banks one by one."""
    if config.proto.strategy == "trained":
        return train_prototype_banks(
            [p.head for p in prepared], [p.support_feats for p in prepared],
            [p.episode.support_y for p in prepared],
            LossWeights(config.proto.entropy_weight,
                        config.proto.class_weight),
            config.proto.epochs, config.proto.lr, [p.rng for p in prepared])
    banks: list[PrototypeBank | EpisodeAbort] = []
    for p in prepared:
        bank = mean_prototypes(p.support_feats, p.episode.support_y)
        try:
            validate_prototypes(bank.protos)
            banks.append(bank)
        except EpisodeAbort as abort:
            banks.append(abort)
    return banks


def run_episode(emb: EmbeddingSet, config: RunConfig,
                rng: np.random.Generator,
                diag: Diagnostics | None = None,
                timings: dict | None = None) -> float:
    """One full task: sample, aggregate, train, classify, score.

    Raises EpisodeAbort on fatal numerical conditions; soft conditions
    only record diagnostics. Gives the accuracy run_eval gives for the
    same generator.
    """
    prepared = prepare_episode(emb, config, rng, diag, timings)
    t = time.perf_counter()
    bank, = _prototype_banks([prepared], config)
    _lap(timings, "proto", t)
    if isinstance(bank, EpisodeAbort):
        raise bank
    return finish_episode(prepared, bank, config, diag, timings)


def _run_chunk(emb: EmbeddingSet, config: RunConfig, tasks: range,
               diag: Diagnostics, timings: dict) -> list[float | EpisodeAbort]:
    """Episodes `tasks`, with one batched loop for their trained
    prototypes; returns each one's accuracy or the abort that ended it.
    The chunk's prototype time is added to the "proto" phase once."""
    outcomes: list[float | EpisodeAbort | None] = [None] * len(tasks)
    prepared: dict[int, PreparedEpisode] = {}
    for k, i in enumerate(tasks):
        try:
            prepared[k] = prepare_episode(emb, config,
                                          episode_rng(config.seed, i),
                                          diag, timings)
        except EpisodeAbort as abort:
            outcomes[k] = abort

    t = time.perf_counter()
    banks = _prototype_banks(list(prepared.values()), config)
    _lap(timings, "proto", t)

    for (k, p), bank in zip(prepared.items(), banks):
        if isinstance(bank, EpisodeAbort):
            outcomes[k] = bank
            continue
        try:
            outcomes[k] = finish_episode(p, bank, config, diag, timings)
        except EpisodeAbort as abort:
            outcomes[k] = abort
    return outcomes


def _resolve_pool(config: RunConfig) -> EmbeddingSet:
    if config.data is not None:
        return load_embedding_set(config.data)
    spec = config.synthetic
    pool_rng = np.random.default_rng([config.seed, POOL_STREAM])
    return generate_synthetic(spec.n_classes, spec.per_class, spec.dim,
                              spec.mean_scale, spec.sigma, pool_rng)


def run_eval(config: RunConfig) -> EvalReport:
    """Evaluate `config.n_tasks` episodes and assemble the report.

    Trained-prototype episodes run in the chunks of `chunk_plan`, mean
    ones one at a time; every reported number but wall_time is the same
    for any chunk plan, because each episode derives its own generator
    from the run seed and the task index.
    """
    config.validate()
    emb = _resolve_pool(config)
    need = config.k_shots + config.n_queries
    usable = [c for c, idx in emb.class_index.items() if len(idx) >= need]
    if len(usable) < config.n_ways:
        raise RunError(
            f"pool has {len(usable)} classes with >= {need} records, "
            f"need {config.n_ways}")

    t_start = time.perf_counter()
    per_task: list[float] = []
    diagnostics = Diagnostics()
    wall_time: dict = {}
    aborted = 0
    # Mean banks train nothing, so a mean run holds one episode at a time.
    width = (stack_width(config.n_ways, emb.dim)
             if config.proto.strategy == "trained" else 1)
    for tasks in chunk_plan(config.n_tasks, width):
        for outcome in _run_chunk(emb, config, tasks, diagnostics, wall_time):
            if isinstance(outcome, EpisodeAbort):
                aborted += 1
                diagnostics.record(f"abort:{outcome.reason}")
            else:
                per_task.append(outcome)
    diagnostics.record("aborted_episodes", aborted)

    if aborted > ABORT_CAP_FRACTION * config.n_tasks:
        raise RunError(
            f"{aborted} of {config.n_tasks} episodes aborted "
            f"(cap {ABORT_CAP_FRACTION:.0%}); diagnostics: "
            f"{diagnostics.as_dict()}")

    wall_time["total"] = time.perf_counter() - t_start
    return EvalReport(
        config=config.to_flat(),
        per_task_accuracy=per_task,
        mean_accuracy=float(np.mean(per_task)),
        ci95=confidence_interval_95(per_task),
        diagnostics=diagnostics.as_dict(),
        wall_time={k: wall_time[k] for k in sorted(wall_time)},
    )


def emit_report(report: EvalReport, path) -> None:
    """Write the report as JSON and print the one-line summary.

    JSON floats round-trip exactly (repr serialization), comfortably
    above the minimum six significant digits. Refuses to emit a report
    with no completed tasks.
    """
    if not report.per_task_accuracy:
        raise RunError("refusing to emit a report with no completed tasks")
    with open(path, "w") as f:
        json.dump(asdict(report), f, indent=2, sort_keys=True)
        f.write("\n")
    print(report.summary_line())


def load_report(path) -> EvalReport:
    """Inverse of emit_report."""
    with open(path) as f:
        raw = json.load(f)
    return EvalReport(**raw)

