"""Evaluation harness: configuration, episode loop, statistics, reports.

One run evaluates `n_tasks` independent episodes and reports the mean
accuracy with a 95% confidence interval (1.96 * population stddev /
sqrt(T), the convention behind "+-" columns in few-shot results).

Episode i always uses the generator seeded with `seed + i`. A run
splits its tasks into `worker_count` contiguous ranges of near-equal
size, one per CPU the process may run on. This process runs the first
range while forked workers run the others. Within its range, each runs
episodes in chunks of consecutive task indices (`chunk_plan`), as many
as `stack_width` allows for the bank width and split evenly over the
range: each is prepared on its own generator, one batched Adam loop
trains the chunk's prototype banks, then each is classified and scored.
A bank's bits do not depend on the chunk it trains in, so reports are
identical for any chunk plan and any worker count. Mean-prototype
episodes train nothing and run one at a time. Episodes that hit a fatal
numerical condition are aborted, counted, and excluded. The results
reach `run_eval` as one stream in task order; a worker sends the ones
it finished along with its exception, which is raised after them. The
abort cap is checked once, on that stream, so a failed run ends at
whichever comes first in task order, at any worker count: the abort
that takes the count past 1% of the requested tasks, or an exception
(which discards the results of its chunk; a mean chunk is one task).
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
from dataclasses import (asdict, dataclass, field, fields, is_dataclass,
                         replace)
from typing import get_args, get_type_hints

import numpy as np

from .classify import build_masks, classify_batch, score_episode
from .diagnostics import Diagnostics, EpisodeAbort
from .embeddings import (EmbeddingSet, Episode, eligible_classes,
                         generate_synthetic, load_embedding_set,
                         sample_episode)
from .graph import build_task_graph
from .head import LinearHead, manifold_augment, train_head
from .prototypes import (LossWeights, PrototypeBank, bank_or_abort,
                         mean_prototypes, train_prototype_banks)

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


def _setting(default, flag: str | None = None, *, ge=None, gt=None,
             choices: tuple | None = None, help: str | None = None):
    """A config field: its default, its `eval` flag with `help`, and its
    domain: at least `ge`, above `gt`, one of `choices`. A float value
    must also be finite."""
    return field(default=default, metadata={
        "flag": flag, "ge": ge, "gt": gt, "choices": choices, "help": help})


@dataclass
class SyntheticSpec:
    """Parameters for an in-memory synthetic pool (no file involved)."""

    n_classes: int = _setting(20, ge=1)
    per_class: int = _setting(50, ge=1)
    dim: int = _setting(64, ge=1)
    mean_scale: float = _setting(10.0)
    sigma: float = _setting(0.1, ge=0)

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
    boost: float = _setting(10000.0, "--mask-boost")


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
    seed: int = _setting(0, "--seed", ge=0)

    def validate(self) -> None:
        """Reject a config no run can use; each error names its field.

        Every value goes through `_coerce`, as a flag or a config line
        does, and is kept in the type it gives, so 3.0 in an int field
        becomes 3. Text is parsed only by `set_flat`: a value assigned
        directly must be one `_coerce` keeps equal."""
        if sum(getattr(self, key) is not None for key in SOURCES) != 1:
            raise RunError("exactly one of data path or synthetic spec required")
        for key, owner, f, hint in flat_fields(self):
            _check_field(key, owner, f, hint)
        if self.synthetic is not None:
            for key, owner, f, hint in flat_fields(self.synthetic,
                                                   "synthetic."):
                _check_field(key, owner, f, hint)
        n_vertices = self.n_ways * (self.k_shots + self.n_queries)
        if self.graph.top_m > n_vertices - 1:
            raise RunError(
                f"graph.top_m={self.graph.top_m} exceeds the "
                f"{n_vertices - 1} neighbours each of an episode's "
                f"{n_vertices} graph vertices has")
        if self.seed >= 2 ** 64:
            raise RunError("seed must fit in an unsigned 64-bit integer")

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
    it or lies outside the field's domain."""
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
    if meta["choices"] and typed not in meta["choices"]:
        raise RunError(f"{name} must be one of {', '.join(meta['choices'])}")


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


def _split_tasks(n_tasks: int, parts: int) -> list[range]:
    """Task indices 0..n_tasks-1 in order, in `parts` ranges whose sizes
    differ by at most one."""
    size, extra = divmod(n_tasks, parts)
    bounds = [k * size + min(k, extra) for k in range(parts + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def chunk_plan(n_tasks: int, width: int) -> list[range]:
    """Task indices 0..n_tasks-1 in order, in the fewest chunks of at
    most `width`, with sizes that differ by at most one."""
    return _split_tasks(n_tasks, -(-n_tasks // width))


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
    return [bank_or_abort(
        mean_prototypes(p.support_feats, p.episode.support_y).protos)
        for p in prepared]


def run_episode(emb: EmbeddingSet, config: RunConfig,
                rng: np.random.Generator,
                diag: Diagnostics | None = None,
                timings: dict | None = None) -> float:
    """One full task: sample, aggregate, train, classify, score.

    Raises EpisodeAbort on fatal numerical conditions; soft conditions
    only record diagnostics. Gives the accuracy run_eval gives for the
    same generator.
    """
    outcome, = _run_chunk(emb, config, [rng], [diag], timings)
    if isinstance(outcome, EpisodeAbort):
        raise outcome
    return outcome


def _run_chunk(emb: EmbeddingSet, config: RunConfig,
               rngs: list[np.random.Generator],
               diags: list[Diagnostics | None],
               timings: dict | None) -> list[float | EpisodeAbort]:
    """One episode on each generator of `rngs`, recording into the
    matching entry of `diags`, with one batched loop for their trained
    prototypes; returns each one's accuracy or the abort that ended it.
    The chunk's prototype time is added to the "proto" phase once."""
    outcomes: list[float | EpisodeAbort | None] = [None] * len(rngs)
    prepared: dict[int, PreparedEpisode] = {}
    for k, (rng, diag) in enumerate(zip(rngs, diags)):
        try:
            prepared[k] = prepare_episode(emb, config, rng, diag, timings)
        except EpisodeAbort as abort:
            # Its traceback would keep the episode's frames alive.
            outcomes[k] = abort.with_traceback(None)

    t = time.perf_counter()
    banks = _prototype_banks(list(prepared.values()), config)
    _lap(timings, "proto", t)

    for (k, p), bank in zip(prepared.items(), banks):
        outcomes[k] = (bank if isinstance(bank, EpisodeAbort)
                       else finish_episode(p, bank, config, diags[k],
                                           timings))
    return outcomes


# A task's accuracy, or the abort that ended it, and its diagnostics.
TaskResult = tuple[float | EpisodeAbort, Diagnostics]


def _run_range(emb: EmbeddingSet, config: RunConfig, width: int,
               tasks: range, timings: dict) -> Iterator[TaskResult]:
    """Each task of `tasks` in order. Runs a chunk of `chunk_plan` when
    its first result is asked for; adds its phases to `timings`."""
    for chunk in chunk_plan(len(tasks), width):
        diags = [Diagnostics() for _ in chunk]
        rngs = [episode_rng(config.seed, tasks[k]) for k in chunk]
        yield from zip(_run_chunk(emb, config, rngs, diags, timings), diags)


def _range_worker(send, emb: EmbeddingSet, config: RunConfig, width: int,
                  tasks: range) -> None:
    """A forked worker: send the results it finished, its phase times,
    and the exception that stopped it with its traceback text, or None."""
    results, timings, failure = [], {}, None
    try:
        for result in _run_range(emb, config, width, tasks, timings):
            results.append(result)
    except Exception as exc:
        import traceback
        failure = (exc, traceback.format_exc())
    send.send((results, timings, failure))
    send.close()


def _start_worker(emb: EmbeddingSet, config: RunConfig, width: int,
                  tasks: range):
    """Fork a worker for `tasks`; it inherits the pool and config, so
    only its results cross the pipe."""
    import multiprocessing  # only a run that forks loads it
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    process = context.Process(target=_range_worker,
                              args=(send, emb, config, width, tasks))
    process.start()
    send.close()  # the worker holds the only write end: EOF if it dies
    return process, receive


def _worker_results(process, receive, tasks: range, timings: dict
                    ) -> Iterator[TaskResult]:
    """The results a worker finished, then the exception that stopped
    it; its phases are added to `timings`."""
    try:
        results, worker_timings, failure = receive.recv()
    except EOFError:
        process.join()
        raise RunError(f"the worker for tasks {tasks.start}-{tasks.stop - 1} "
                       f"exited with code {process.exitcode} before sending "
                       f"its results") from None
    for phase, seconds in worker_timings.items():
        timings[phase] = timings.get(phase, 0.0) + seconds
    yield from results
    if failure is not None:
        exc, text = failure
        raise exc from RuntimeError(
            f"in the worker for tasks {tasks.start}-{tasks.stop - 1}:\n{text}")


def _task_results(emb: EmbeddingSet, config: RunConfig, width: int,
                  timings: dict) -> Iterator[TaskResult]:
    """Every task's result, in task order. The tasks are split into
    `worker_count` ranges: forked workers run all but the first, which
    runs in this process meanwhile. Closing the iterator stops and
    reaps the workers."""
    first, *rest = _split_tasks(config.n_tasks, worker_count(config.n_tasks))
    workers = []
    try:
        for tasks in rest:
            workers.append(_start_worker(emb, config, width, tasks))
        yield from _run_range(emb, config, width, first, timings)
        for tasks, (process, receive) in zip(rest, workers):
            yield from _worker_results(process, receive, tasks, timings)
    finally:
        for process, receive in workers:
            process.terminate()
            process.join()
            receive.close()


def _resolve_pool(config: RunConfig) -> EmbeddingSet:
    if config.data is not None:
        return load_embedding_set(config.data)
    spec = config.synthetic
    pool_rng = np.random.default_rng([config.seed, POOL_STREAM])
    return generate_synthetic(spec.n_classes, spec.per_class, spec.dim,
                              spec.mean_scale, spec.sigma, pool_rng)


def run_eval(config: RunConfig) -> EvalReport:
    """Evaluate `config.n_tasks` episodes, in worker ranges and chunks as
    the module docstring describes, and assemble the report.

    The phases of wall_time are summed over the workers, so they can add
    up to the worker count times "total". The abort cap is checked only
    here, in task order; the error names the task that passes it and the
    diagnostics of the tasks up to it. A worker's exception is raised
    after the results it finished, so a failed run ends at the first of
    these in task order, and its text does not depend on the worker count.
    """
    config.validate()
    emb = _resolve_pool(config)
    need = config.k_shots + config.n_queries
    usable = len(eligible_classes(emb, need))
    if usable < config.n_ways:
        raise RunError(f"pool has {usable} classes with >= {need} records, "
                       f"need {config.n_ways}")

    t_start = time.perf_counter()
    per_task: list[float] = []
    diagnostics = Diagnostics()
    wall_time: dict = {}
    # Mean banks train nothing, so a mean run holds one episode at a time.
    width = (stack_width(config.n_ways, emb.dim)
             if config.proto.strategy == "trained" else 1)
    with contextlib.closing(
            _task_results(emb, config, width, wall_time)) as results:
        for outcome, diag in results:
            diagnostics.counts.update(diag.counts)
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

