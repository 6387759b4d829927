"""Evaluation harness: configuration, episode loop, statistics, reports.

One run evaluates `n_tasks` independent episodes and reports the mean
accuracy with a 95% confidence interval (1.96 * population stddev /
sqrt(T), the convention behind "+-" columns in few-shot results).

Episode i always uses the generator seeded with `seed + i`. A run
splits its tasks into chunks of consecutive task indices (`chunk_plan`)
of at most `stack_width` each: the fewest whose count is a multiple of
W, the `worker_count` of one process per CPU the run may use. Chunk k
runs in process k mod W: this process for k mod W = 0, a forked worker
otherwise. Each episode of a chunk is prepared on its own generator
(sampled, aggregated and, for trained prototypes, its support augmented
and its head's and its prototype bank's inits drawn: all of an
episode's random draws), and keeps only what the stages after it read.
Then the chunk runs three stacked stages over the episodes no abort has
ended: for trained prototypes, one Adam loop trains their heads; one
batched Adam loop trains their prototype banks, or one stacked mean
takes them; and passes of `score_width` episodes each build their
masks, classify their queries and take their accuracies. A head's, a
bank's or a score's bits do not depend on the stack it is computed in,
so reports are identical for any chunk plan and any worker count.
Episodes that hit a fatal numerical condition are aborted, counted, and
excluded. The results reach `run_eval` as one stream in task order,
each with its episode's `Diagnostics`: its event counts and its phase
seconds. An episode's "head" phase is its augmentation and head init
plus an even share of its chunk's head loop, its "proto" phase its
bank's init plus an even share of the prototype loop or mean, and its
"classify" phase an even share of its scoring pass.

A worker sends each chunk's results as one message when the chunk ends,
and this process reads a worker's chunks in order as the stream reaches
them, so it holds at most one chunk from each worker.

One failure rule places every exception at its own task. A chunk
either gives every task's result or raises. A worker sends None, and no
exception, for a chunk that raised or whose results do not pickle. A
chunk that raised, here or in its worker, runs again here one task at a
time, each on a fresh generator and `Diagnostics`. A task's bits do not
depend on its chunk or process, so the exception is raised after the
results of the tasks before its own. The abort cap is checked once, on
that stream, so a failed run ends at whichever comes first in task
order, at any chunk plan and worker count: the abort that takes the
count past 1% of the requested tasks, or an exception.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from .classify import classify_stack, mask_stack, score_episodes
from .diagnostics import Diagnostics, EpisodeAbort
from .embeddings import (FLOAT32_MAX, EmbeddingSet, eligible_classes,
                         generate_synthetic, load_embedding_set, replacing,
                         sample_episode)
from .graph import build_task_graph
from .head import (AugmentedSupport, LinearHead, init_head,
                   manifold_augment, train_heads)
from .prototypes import (LossWeights, PrototypeBank, banks_or_aborts,
                         init_prototypes, mean_prototype_stack,
                         train_prototype_banks)

ABORT_CAP_FRACTION = 0.01
# Seed stream for building a synthetic pool, distinct from episode streams.
POOL_STREAM = 0x706F6F6C
# Episodes per batched prototype loop. A step pays for about 60 numpy
# calls whatever the stack size, so wider stacks amortize them, until a
# stacked (B, n_ways, dim) float64 array passes about STACK_BYTES and
# the buffers outgrow the cache. With one BLAS thread on a 2-vCPU Xeon,
# a 5-way 1-shot 640-d bank-step took 90 us at 2 banks, 81 at 4 and
# 52-53 at 8 to 16 (40 tasks at W=2 run as four stacks of 10, the best
# width measured), while a 5-way 64-d one took 18.7 us at 8, 12.4 at 20,
# 10.5 at 48 and 12.3 at 64. MAX_STACK also bounds how many prepared
# episodes are held at once.
STACK_BYTES = 409600
MAX_STACK = 48
# Episodes per scoring pass, as many as keep its (B, n_ways, queries,
# dim) float64 buffer of corrected queries within SCORE_BYTES (and
# MAX_STACK): 5 at 5-way 15-query 64-d, 1 at 640-d. On `mean_5w5s`, a
# 2 MiB buffer raised peak RSS by a further 1.8 MB for a speed
# difference that interleaved runs did not resolve.
SCORE_BYTES = 1 << 20


class RunError(RuntimeError):
    """The whole evaluation run is invalid (bad config, too many aborts)."""


def _setting(default, flag: str | None = None, *, ge=None, gt=None,
             le=None, choices: tuple | None = None, help: str | None = None):
    """A config field: its default, its `eval` flag with `help`, and its
    domain: at least `ge`, above `gt`, at most `le`, one of `choices`. A
    float value must also be finite."""
    return field(default=default, metadata={
        "flag": flag, "ge": ge, "gt": gt, "le": le, "choices": choices,
        "help": help})


@dataclass
class SyntheticSpec:
    """Parameters for an in-memory synthetic pool (no file involved)."""

    n_classes: int = _setting(20, ge=1)
    per_class: int = _setting(50, ge=1)
    dim: int = _setting(64, ge=1)
    mean_scale: float = _setting(10.0, ge=-FLOAT32_MAX, le=FLOAT32_MAX)
    sigma: float = _setting(0.1, ge=0, le=FLOAT32_MAX)

    def __str__(self):
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))

    @classmethod
    def parse(cls, text: str) -> "SyntheticSpec":
        try:  # a wrong part count fails the strict zip
            return cls(*(_coerce(part, _hints(cls)[f.name], f.name)
                         for f, part in zip(fields(cls), text.split(","),
                                            strict=True)))
        except (RunError, ValueError):
            raise RunError(f"synthetic={text!r}: synthetic spec must be "
                           + ",".join(f.name for f in fields(cls))) from None


@dataclass
class GraphConfig:
    top_m: int = _setting(10, "--top-m", ge=1)
    self_weight: float = _setting(1.0, "--self-weight")
    rounds: int = _setting(3, "--rounds", ge=0)


@dataclass
class HeadConfig:
    epochs: int = _setting(11, "--head-epochs", ge=1)
    lr: float = _setting(1e-2, "--head-lr", gt=0)
    n_aug: int = _setting(5, "--n-aug", ge=0)


@dataclass
class ProtoConfig:
    epochs: int = _setting(1000, "--proto-epochs", ge=1)
    lr: float = _setting(1e-2, "--proto-lr", gt=0)
    entropy_weight: float = _setting(0.1, "--entropy-weight", ge=0)
    class_weight: float = _setting(1.0, "--class-weight", ge=0)
    strategy: str = _setting("trained", "--proto",
                             choices=("trained", "mean"),
                             help="prototype strategy: %(choices)s")


@dataclass
class MaskConfig:
    # scale stays small because the softmax in the mask saturates once
    # scale * |prototype entry| reaches a few units; aggregated features
    # (and therefore mean prototypes) have O(10) entries.
    enabled: bool = _setting(True, "--mask", help="attention-mask "
                             "correction of query features: on or off")
    scale: float = _setting(0.1, "--mask-scale")
    # The correction boost * q * mask + q only adds weight where the
    # mask is; a negative boost would take it away.
    boost: float = _setting(10000.0, "--mask-boost", ge=0)


# The keys that name a run's embedding pool; a run has exactly one.
SOURCES = ("data", "synthetic")


@dataclass
class RunConfig:
    """Everything that determines a run's statistics (not its speed)."""

    data: str | None = _setting(None, "--data",
                                help="embedding file (EMB1 format)")
    synthetic: SyntheticSpec | None = _setting(None, "--synthetic", help=(
        "synthetic pool: " + ",".join(f.name for f in fields(SyntheticSpec))))
    n_ways: int = _setting(5, "--ways", ge=1)
    k_shots: int = _setting(5, "--shots", ge=1)
    n_queries: int = _setting(15, "--queries", ge=1)
    n_tasks: int = _setting(1000, "--tasks", ge=1)
    graph: GraphConfig = field(default_factory=GraphConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    proto: ProtoConfig = field(default_factory=ProtoConfig)
    mask: MaskConfig = field(default_factory=MaskConfig)
    seed: int = _setting(0, "--seed", ge=0, le=2 ** 64 - 1)

    def validate(self) -> None:
        """Reject a config no run can use; each error names its field.

        Beyond one pool source and `graph.top_m` below an episode's
        vertex count, one walk keeps each field in its declared domain
        and in the type `_coerce` gives, so 3.0 in an int field is 3."""
        if sum(getattr(self, key) is not None for key in SOURCES) != 1:
            raise RunError("exactly one of data path or synthetic spec required")
        for item in flat_fields(self):
            _check_field(*item)
        n_vertices = self.n_ways * (self.k_shots + self.n_queries)
        if self.graph.top_m > n_vertices - 1:
            raise RunError(
                f"graph.top_m={self.graph.top_m} exceeds the "
                f"{n_vertices - 1} neighbours each of an episode's "
                f"{n_vertices} graph vertices has")

    def to_flat(self) -> dict:
        """Flat key/value view; nested groups become dotted keys."""
        out = {}
        for key, owner, f, _ in flat_fields(self):
            value = getattr(owner, f.name)
            out[key] = str(value) if is_dataclass(value) else value
        return out

    @classmethod
    def from_flat(cls, flat: dict) -> "RunConfig":
        """Inverse of to_flat; unknown keys are an error."""
        cfg = cls()
        for key, value in flat.items():
            cfg.set_flat(key, value)
        return cfg

    def set_flat(self, key: str, value) -> None:
        for flat_key, owner, f, hint in flat_fields(self):
            if flat_key == key:
                setattr(owner, f.name, _coerce(value, hint, key))
                return
        raise RunError(f"unknown config key {key!r}")


_hints = functools.cache(get_type_hints)


def flat_fields(obj, prefix: str = ""):
    """Yield (flat key, owner, field, type) for each settable value of
    the dataclass instance `obj`, in declaration order; the fields of a
    nested group become dotted keys."""
    for f in fields(obj):
        hint = _hints(type(obj))[f.name]
        if is_dataclass(hint):
            yield from flat_fields(getattr(obj, f.name), f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, obj, f, hint


def _check_field(key: str, owner, f, hint) -> None:
    """Store field `f` of `owner`, flat key `key`, as its `_coerce`d
    value, or raise RunError naming `key=value` if that is not equal to
    it or lies outside its domain; then walk a dataclass value's fields."""
    value, meta = getattr(owner, f.name), f.metadata
    name = f"{key}={value!r}"
    typed = _coerce(value, hint, key)
    if hint is float and not math.isfinite(typed):
        raise RunError(f"{name} must be a finite float")
    if typed != value:  # such as text, which only set_flat parses
        raise RunError(f"{name} must be given as {typed!r}")
    setattr(owner, f.name, typed)
    if meta["ge"] is not None and typed < meta["ge"]:
        raise RunError(f"{name} must be >= {meta['ge']}")
    if meta["gt"] is not None and typed <= meta["gt"]:
        raise RunError(f"{name} must be > {meta['gt']}")
    if meta["le"] is not None and typed > meta["le"]:
        raise RunError(f"{name} must be <= {meta['le']}")
    if meta["choices"] and typed not in meta["choices"]:
        raise RunError(f"{name} must be one of {', '.join(meta['choices'])}")
    if is_dataclass(typed):
        for item in flat_fields(typed, f"{key}."):
            _check_field(*item)


def _coerce(value, hint, key: str):
    """`value` as a value of config field `key`, of type `hint`; raises
    RunError naming `key=value` when it is not one. Text is parsed, so a
    flag and a config-file line give the same value."""
    if get_args(hint):  # `X | None`: None or "" unsets
        if value in (None, ""):
            return None
        inner = get_args(hint)[0]
        if isinstance(value, inner):
            return value
        return inner.parse(str(value)) if is_dataclass(inner) else str(value)
    if isinstance(value, str):
        text = value.strip()
        if hint is bool:
            if text.lower() in ("on", "true", "1", "yes"):
                return True
            if text.lower() in ("off", "false", "0", "no"):
                return False
        elif hint in (int, float):
            try:
                return hint(text)
            except ValueError:
                pass
        else:
            return text
    elif hint is int:
        if not isinstance(value, bool) and (
                isinstance(value, numbers.Integral)
                or isinstance(value, float) and value.is_integer()):
            return int(value)
    elif hint is float:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:  # an int past float range
                raise RunError(f"{key}={value!r} must be a finite float"
                               ) from None
    elif hint is bool:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
    else:
        return value
    raise RunError(f"cannot parse {hint.__name__} {key}={value!r}")


def load_config_file(path) -> dict:
    """Parse a flat `key = value` config file, UTF-8 with or without a
    byte-order mark; '#' starts a comment and a key may appear once."""
    flat: dict = {}
    first_line: dict = {}
    with open(path, encoding="utf-8-sig") as f:
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


def stack_width(config: RunConfig, dim: int) -> int:
    """Most episodes one chunk of a `config` run holds. Trained banks of
    `config.n_ways` rows of `dim` float64 entries share one batched loop,
    within MAX_STACK and STACK_BYTES. Mean banks train nothing, so a
    mean chunk is one scoring pass, `score_width` episodes."""
    if config.proto.strategy != "trained":
        return score_width(config, dim)
    return max(1, min(MAX_STACK, STACK_BYTES // (8 * config.n_ways * dim)))


def score_width(config: RunConfig, dim: int) -> int:
    """Most episodes of a `config` run one scoring pass holds: each
    corrects its n_ways * n_queries queries of `dim` float64 entries once
    per class, and the pass keeps them within MAX_STACK and
    SCORE_BYTES."""
    per_episode = 8 * config.n_ways * config.n_ways * config.n_queries * dim
    return max(1, min(MAX_STACK, SCORE_BYTES // per_episode))


def chunk_plan(n_tasks: int, width: int, workers: int = 1) -> list[range]:
    """Task indices 0..n_tasks-1 in order, in chunks of at most `width`
    with sizes that differ by at most one: the fewest whose count is a
    multiple of `workers`, or one per task where that is fewer."""
    fewest = -(-n_tasks // width)
    parts = min(n_tasks, -(-fewest // workers) * workers)
    size, extra = divmod(n_tasks, parts)
    bounds = [k * size + min(k, extra) for k in range(parts + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


@functools.cache
def _blas_threads():
    """The `(get, set)` thread-count calls of the OpenBLAS that numpy's
    linear algebra runs on, looked up once per process, or None where
    numpy's extension exports neither name pair (another BLAS)."""
    import ctypes
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with BLAS at one thread, and give the caller's count
    back after it, raised or not. Forked workers inherit the count. An
    episode's products are about 100 x 100: on 2 vCPUs, a 2000-task
    mean `fewproto eval` took 7.3-8.3 s with each of its two processes
    at OpenBLAS's default of two threads, and 0.8-1.1 s at one."""
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def worker_count(n_tasks: int) -> int:
    """Processes that share a run of `n_tasks` episodes: one per CPU
    this process may run on, at most one per task. It is 1, and nothing
    forks, where the platform cannot fork or name those CPUs, or inside
    a daemonic multiprocessing worker, which may not start children."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    count = min(len(os.sched_getaffinity(0)), n_tasks)
    if count > 1:
        import multiprocessing  # only a run that forks loads it
        if multiprocessing.current_process().daemon:
            return 1
    return count


@dataclass
class PreparedEpisode:
    """An episode up to its prototypes: sampled, aggregated and, for
    trained prototypes, its head and bank set up (`head`, `aug` and
    `bank` are None otherwise), with the `Diagnostics` it records into.

    It keeps only what the stages after it read: the aggregated
    features, the support labels and the query labels `hidden_labels`,
    which only scoring reads. `head` and `bank` hold their initial draws
    until the chunk's stacked loops train them in their place, and a
    stacked mean puts a mean bank in `bank`; the head loop takes the
    augmented support `aug` over as it starts (`take_aug`).
    """

    support_y: np.ndarray
    hidden_labels: np.ndarray
    support_feats: np.ndarray
    query_feats: np.ndarray
    head: LinearHead | None
    aug: AugmentedSupport | None
    bank: PrototypeBank | None
    diag: Diagnostics

    def take_aug(self) -> AugmentedSupport:
        """`aug`, which this episode then drops (None)."""
        aug, self.aug = self.aug, None
        return aug


def _lap(diag: Diagnostics, phase: str, since: float) -> float:
    """Add the time from `since` to now to `diag.seconds[phase]`; return now."""
    now = time.perf_counter()
    diag.seconds[phase] += now - since
    return now


def prepare_episode(emb: EmbeddingSet, config: RunConfig,
                    rng: np.random.Generator,
                    diag: Diagnostics) -> PreparedEpisode:
    """Sample an episode, aggregate it through the task graph and, for
    trained prototypes, augment its support rows and draw its head's
    init and then its prototype bank's init. These are all of the
    episode's random draws: the stages after this one draw none, so they
    can run again on the same episode. Only the prototype loss reads the
    head, which the chunk's stacked loop trains. Adds the "sample",
    "graph" and, for trained prototypes, "head" and "proto" phases to
    `diag.seconds`."""
    t = time.perf_counter()
    episode = sample_episode(emb, config.n_ways, config.k_shots,
                             config.n_queries, rng)
    t = _lap(diag, "sample", t)
    support_feats, query_feats = build_task_graph(
        episode.support_x, episode.query_x, config.graph.top_m,
        config.graph.self_weight, config.graph.rounds, diag)
    t = _lap(diag, "graph", t)
    head = aug = bank = None
    if config.proto.strategy == "trained":
        dim = support_feats.shape[1]
        aug = manifold_augment(support_feats, episode.support_y,
                               config.head.n_aug, rng)
        head = init_head(config.n_ways, dim, rng)
        t = _lap(diag, "head", t)
        bank = PrototypeBank(init_prototypes(config.n_ways, dim, rng))
        _lap(diag, "proto", t)
    return PreparedEpisode(episode.support_y, episode.hidden_labels,
                           support_feats, query_feats, head, aug, bank, diag)


def _train_heads(prepared: list[PreparedEpisode], config: RunConfig
                 ) -> list[LinearHead | EpisodeAbort]:
    """Each episode's trained head, or the abort that ended it, from one
    stacked loop. Each episode hands the loop its augmented rows, which
    the loop's stack then holds alone."""
    return train_heads([p.head for p in prepared],
                       (p.take_aug() for p in prepared), config.head.epochs,
                       config.head.lr, [p.diag for p in prepared])


def _prototype_banks(prepared: list[PreparedEpisode], config: RunConfig
                     ) -> list[PrototypeBank | EpisodeAbort]:
    """Each episode's prototype bank, or the abort that ended it: trained
    banks in one batched loop, mean banks in one stacked mean."""
    if config.proto.strategy == "trained":
        return train_prototype_banks(
            [p.head for p in prepared], [p.support_feats for p in prepared],
            [p.support_y for p in prepared],
            LossWeights(config.proto.entropy_weight,
                        config.proto.class_weight),
            config.proto.epochs, config.proto.lr,
            [p.bank.protos for p in prepared])
    return banks_or_aborts(mean_prototype_stack(
        np.stack([p.support_feats for p in prepared]),
        np.stack([p.support_y for p in prepared])))


def _score_stack(prepared: list[PreparedEpisode], config: RunConfig
                 ) -> list[float]:
    """Build the masks of the episodes' banks, classify each episode's
    queries against its bank and return the accuracies, in one pass over
    the stack. Records each episode's `zero_query` count."""
    protos = np.stack([p.bank.protos for p in prepared])
    masks = (mask_stack(protos, config.mask.scale) if config.mask.enabled
             else None)
    predictions, _, zero_queries = classify_stack(
        np.stack([p.query_feats for p in prepared]), protos, masks,
        config.mask.boost)
    for p, zeros in zip(prepared, zero_queries):
        if zeros:
            p.diag.record("zero_query", int(zeros))
    return score_episodes(np.stack([p.hidden_labels for p in prepared]),
                          predictions).tolist()


def _stage(entries: list, config: RunConfig, phase: str, width: int,
           run, into: str | None = None) -> None:
    """Run the stage `run(prepared, config)` over the live entries of
    `entries`, the prepared episodes no abort has ended, `width` at a
    time. Each pass's time is split evenly into its episodes' `phase`
    seconds. A result that is an EpisodeAbort takes its entry's place,
    and so does any other when `into` is None; otherwise it becomes the
    entry's attribute `into`."""
    live = [k for k, entry in enumerate(entries)
            if isinstance(entry, PreparedEpisode)]
    for start in range(0, len(live), width):
        slots = live[start:start + width]
        t = time.perf_counter()
        results = run([entries[k] for k in slots], config)
        share = (time.perf_counter() - t) / len(slots)
        for k, result in zip(slots, results):
            entries[k].diag.seconds[phase] += share
            if into is None or isinstance(result, EpisodeAbort):
                entries[k] = result
            else:
                setattr(entries[k], into, result)


def run_episode(emb: EmbeddingSet, config: RunConfig,
                rng: np.random.Generator,
                diag: Diagnostics | None = None) -> float:
    """One full task: sample, aggregate, train, classify, score.

    Raises EpisodeAbort on fatal numerical conditions; soft conditions
    only record diagnostics. Gives the accuracy run_eval gives for the
    same generator.
    """
    outcome, = _run_chunk(emb, config, [rng],
                          [Diagnostics() if diag is None else diag])
    if isinstance(outcome, EpisodeAbort):
        raise outcome
    return outcome


def _run_chunk(emb: EmbeddingSet, config: RunConfig,
               rngs: list[np.random.Generator],
               diags: list[Diagnostics]) -> list[float | EpisodeAbort]:
    """One episode on each generator of `rngs`, recording into the
    matching entry of `diags`: each one's accuracy or the abort that
    ended it, in order. After preparing them, `_stage` runs one stacked
    loop for their trained heads, one for their prototypes (or one
    stacked mean) and one scoring pass per `score_width` of them. An
    exception from preparing or from a stage ends the whole chunk."""
    entries: list[PreparedEpisode | EpisodeAbort | float] = []
    for rng, diag in zip(rngs, diags):
        try:
            entries.append(prepare_episode(emb, config, rng, diag))
        except EpisodeAbort as abort:
            # Its traceback would keep the episode's frames alive.
            entries.append(abort.with_traceback(None))
    if config.proto.strategy == "trained":
        _stage(entries, config, "head", len(entries), _train_heads, "head")
    _stage(entries, config, "proto", len(entries), _prototype_banks, "bank")
    _stage(entries, config, "classify", score_width(config, emb.dim),
           _score_stack)
    return entries


# A task's accuracy, or the abort that ended it, and its diagnostics.
TaskResult = tuple[float | EpisodeAbort, Diagnostics]


def _chunk_results(emb: EmbeddingSet, config: RunConfig, tasks: range
                   ) -> list[TaskResult]:
    """`_run_chunk` over `tasks`, each on its `episode_rng` and a fresh
    `Diagnostics`, so a pass that raised leaves no counts behind."""
    diags = [Diagnostics() for _ in tasks]
    rngs = [episode_rng(config.seed, i) for i in tasks]
    return list(zip(_run_chunk(emb, config, rngs, diags), diags))


def _chunk_worker(send, emb: EmbeddingSet, config: RunConfig,
                  chunks: list[range]) -> None:
    """A forked worker: send each chunk's results as it ends, or None
    for a chunk that raised or whose results did not pickle."""
    for tasks in chunks:
        try:
            send.send(_chunk_results(emb, config, tasks))
        except Exception:
            send.send(None)
    send.close()


def _start_worker(emb: EmbeddingSet, config: RunConfig, chunks: list[range]):
    """Fork a worker for `chunks`; it inherits the pool and config, so
    only its results cross the pipe."""
    import multiprocessing  # only a run that forks loads it
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    process = context.Process(target=_chunk_worker,
                              args=(send, emb, config, chunks))
    process.start()
    send.close()  # the worker holds the only write end: EOF if it dies
    return process, receive


def _task_results(emb: EmbeddingSet, config: RunConfig
                  ) -> Iterator[TaskResult]:
    """Every task's result, in task order. Chunk k of the plan runs in
    process k mod `worker_count`: here for 0, in a forked worker
    otherwise. A chunk that raised here, or that its worker sent as
    None, runs again here one task at a time, as the module docstring
    describes. Closing the iterator stops and reaps the workers."""
    count = worker_count(config.n_tasks)
    plan = chunk_plan(config.n_tasks, stack_width(config, emb.dim), count)
    workers = []
    try:
        for k in range(1, count):
            workers.append(_start_worker(emb, config, plan[k::count]))
        for k, tasks in enumerate(plan):
            results = None
            if k % count:
                process, receive = workers[k % count - 1]
                try:
                    results = receive.recv()
                except EOFError:
                    process.join()
                    raise RunError(
                        f"the worker for tasks {tasks.start}-{tasks.stop - 1}"
                        f" exited with code {process.exitcode} before "
                        f"sending its results") from None
            else:
                with contextlib.suppress(Exception):
                    results = _chunk_results(emb, config, tasks)
            if results is None:
                # A task's bits do not depend on its chunk or process, so
                # alone it gives the result it gives there: the chunk's
                # exception is raised after the results of the tasks
                # before its own.
                results = (result for i in tasks for result in
                           _chunk_results(emb, config, range(i, i + 1)))
            yield from results
    finally:
        for process, receive in workers:
            process.terminate()
            process.join()
            receive.close()


def _resolve_pool(config: RunConfig) -> EmbeddingSet:
    if config.data is not None:
        return load_embedding_set(config.data)
    pool_rng = np.random.default_rng([config.seed, POOL_STREAM])
    try:
        return generate_synthetic(*asdict(config.synthetic).values(), pool_rng)
    except ValueError as err:  # its records summed past float32 range
        raise RunError(f"synthetic={config.synthetic}: {err}") from None


def run_eval(config: RunConfig) -> EvalReport:
    """Evaluate `config.n_tasks` episodes, in chunks over this process
    and its workers as the module docstring describes, and assemble the
    report.

    The phases of wall_time are the tasks' phase seconds summed, over
    every worker, so they can add up to the worker count times "total".
    The abort cap is checked only here, in task order; the error names
    the task that passes it and the diagnostics of the tasks up to it.
    Any other exception, from whichever stage, is raised after the
    results of the tasks before its own, so a failed run ends at the
    first of these in task order, and its text does not depend on the
    chunk plan or the worker count.

    The episodes run with the loaded OpenBLAS at one thread, in this
    process and in every worker (`_one_blas_thread`); the caller's
    thread count is back when `run_eval` returns or raises.
    """
    config.validate()
    emb = _resolve_pool(config)
    need = config.k_shots + config.n_queries
    usable = len(eligible_classes(emb, need))
    if usable < config.n_ways:
        source = "data" if config.data is not None else "synthetic"
        raise RunError(f"{source}={getattr(config, source)}: pool has "
                       f"{usable} classes with >= {need} records, need "
                       f"n_ways={config.n_ways}")

    t_start = time.perf_counter()
    per_task: list[float] = []
    diagnostics = Diagnostics()
    with (_one_blas_thread(),
          contextlib.closing(_task_results(emb, config)) as results):
        for outcome, diag in results:
            diagnostics.counts.update(diag.counts)
            diagnostics.seconds.update(diag.seconds)
            if not isinstance(outcome, EpisodeAbort):
                per_task.append(outcome)
                continue
            diagnostics.record(f"abort:{outcome.reason}")
            diagnostics.record("aborted_episodes")
            aborted = diagnostics.counts["aborted_episodes"]
            if aborted > ABORT_CAP_FRACTION * config.n_tasks:
                raise RunError(
                    f"{aborted} of {config.n_tasks} episodes aborted by "
                    f"task {len(per_task) + aborted - 1} (cap "
                    f"{ABORT_CAP_FRACTION:.0%}); diagnostics: "
                    f"{diagnostics.as_dict()}")
    diagnostics.record("aborted_episodes", 0)  # a key of every report

    wall_time = dict(diagnostics.seconds, total=time.perf_counter() - t_start)
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
    above the minimum six significant digits. The bytes go to `path`
    through `replacing`, so a write that fails leaves the report already
    there whole. Refuses to emit a report with no completed tasks.
    """
    if not report.per_task_accuracy:
        raise RunError("refusing to emit a report with no completed tasks")
    with replacing(path) as f:
        f.write(json.dumps(asdict(report), indent=2, sort_keys=True)
                .encode() + b"\n")
    print(report.summary_line())


def load_report(path) -> EvalReport:
    """Inverse of emit_report."""
    with open(path) as f:
        raw = json.load(f)
    return EvalReport(**raw)

