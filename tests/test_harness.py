import ast
import errno
import inspect
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings
import weakref
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fewproto
from fewproto import harness, head
from fewproto.diagnostics import Diagnostics, EpisodeAbort
from fewproto.embeddings import (FLOAT32_MAX, EmbeddingSet,
                                 generate_synthetic, save_embedding_set)
from fewproto.harness import (EvalReport, RunConfig, RunError, SyntheticSpec,
                              confidence_interval_95, emit_report, episode_rng,
                              load_config_file, load_report, run_episode,
                              run_eval)


def small_config(**overrides):
    cfg = RunConfig(synthetic=SyntheticSpec(8, 25, 16, 8.0, 0.3),
                    n_ways=3, k_shots=2, n_queries=5, n_tasks=6, seed=11)
    cfg.graph.top_m = 5
    cfg.proto.epochs = 120
    for key, value in overrides.items():
        cfg.set_flat(key, value)
    return cfg


def test_config_flat_roundtrip():
    cfg = small_config()
    cfg.mask.enabled = False
    cfg.proto.strategy = "mean"
    back = RunConfig.from_flat(cfg.to_flat())
    assert back == cfg


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sample config\n"
        "synthetic = 4,10,8,5.0,0.2\n"
        "n_ways = 2  # small task\n"
        "graph.top_m = 3\n"
        "mask.enabled = off\n"
        "proto.strategy = mean\n"
        "proto.entropy_weight = 0.25\n")
    cfg = RunConfig()
    for key, value in load_config_file(path).items():
        cfg.set_flat(key, value)
    assert cfg.synthetic == SyntheticSpec(4, 10, 8, 5.0, 0.2)
    assert cfg.n_ways == 2
    assert cfg.graph.top_m == 3
    assert cfg.mask.enabled is False
    assert cfg.proto.strategy == "mean"
    assert cfg.proto.entropy_weight == 0.25


def test_config_file_with_a_byte_order_mark(tmp_path):
    # As Windows editors save it; UTF-8 is read whatever the locale.
    path = tmp_path / "run.cfg"
    path.write_bytes("\ufeffn_tasks = 7  # caf\u00e9\nn_ways = 2\n"
                     .encode("utf-8"))
    flat = load_config_file(path)
    assert flat == {"n_tasks": "7", "n_ways": "2"}
    assert RunConfig.from_flat(flat).n_tasks == 7


def test_config_unknown_key():
    with pytest.raises(RunError, match="unknown config key"):
        RunConfig().set_flat("graph.bogus", "1")
    with pytest.raises(RunError, match="unknown config key"):
        RunConfig().set_flat("bogus", "1")


def test_config_validation_errors():
    with pytest.raises(RunError, match="exactly one"):
        RunConfig().validate()
    cfg = small_config()
    cfg.data = "also.emb"
    with pytest.raises(RunError, match="exactly one"):
        cfg.validate()
    cfg = small_config()
    cfg.n_ways = 0
    with pytest.raises(RunError):
        cfg.validate()
    cfg = small_config()
    cfg.proto.strategy = "oracle"
    with pytest.raises(RunError):
        cfg.validate()
    cfg = small_config()
    cfg.seed = -1
    with pytest.raises(RunError):
        cfg.validate()


def test_config_rejects_top_m_beyond_episode():
    cfg = small_config()  # 3 ways x (2 shots + 5 queries) = 21 vertices
    cfg.graph.top_m = 20
    cfg.validate()
    for top_m in (21, 500):
        cfg.graph.top_m = top_m
        with pytest.raises(RunError, match="graph.top_m"):
            cfg.validate()


@pytest.mark.parametrize("faults, named", [
    # The synthetic spec's fields come right after `synthetic`, before
    # every later field.
    ({"synthetic": "0,25,16,8.0,0.3", "n_ways": 0}, "synthetic.n_classes="),
    ({"synthetic": "8,25,16,8.0,-1", "seed": -1}, "synthetic.sigma="),
    # The field walk comes before the rule that spans fields.
    ({"graph.top_m": 500, "seed": 2 ** 64}, "seed="),
    ({"graph.top_m": 500, "mask.boost": -1}, "mask.boost="),
])
def test_config_names_its_first_fault_in_declaration_order(faults, named):
    with pytest.raises(RunError, match=re.escape(named)):
        small_config(**faults).validate()


def test_pool_too_small_for_the_episode_names_its_file(tmp_path):
    # test_cli.py's bad-input cases hold the synthetic pool's message.
    path = tmp_path / "small.emb"
    save_embedding_set(generate_synthetic(2, 10, 8, 3.0, 1.0,
                                          np.random.default_rng(0)), path)
    with pytest.raises(RunError, match=re.escape(
            f"data={path}: pool has 0 classes with >= 11 records, need "
            f"n_ways=3")):
        run_eval(small_config(synthetic=None, data=str(path), k_shots=6))


# Config key, its bad value, and the field the error must name.
FIELD_ERRORS = [(key, value, key) for key, value in [
    ("graph.top_m", "0"), ("graph.rounds", "-1"), ("head.epochs", "0"),
    ("head.n_aug", "-1"), ("proto.epochs", "0"),
    ("graph.self_weight", "inf"), ("mask.scale", "nan"),
    ("mask.boost", "inf"), ("head.lr", "nan"),
    ("head.lr", "0"), ("head.lr", "-1e-2"),
    ("proto.lr", "0"), ("proto.lr", "-0.01"),
    ("proto.entropy_weight", "-0.1"), ("proto.class_weight", "-1"),
    ("seed", str(2 ** 64)), ("mask.boost", "-1"),
]] + [("synthetic", value, f"synthetic.{field}") for value, field in [
    ("0,25,16,8.0,0.3", "n_classes"), ("8,0,16,8.0,0.3", "per_class"),
    ("8,25,0,8.0,0.3", "dim"), ("8,25,16,nan,0.3", "mean_scale"),
    ("8,25,16,8.0,-0.1", "sigma"), ("8,25,16,1e150,0.3", "mean_scale"),
    ("8,25,16,8.0,1e150", "sigma"),
]]


@pytest.mark.parametrize("key, value, field", FIELD_ERRORS,
                         ids=[f"{key}-{value}" for key, value, _
                              in FIELD_ERRORS])
def test_config_error_names_the_field(key, value, field):
    cfg = small_config(**{key: value})
    with pytest.raises(RunError, match=re.escape(f"{field}=")):
        cfg.validate()


@pytest.mark.parametrize("key, value", [
    ("graph.top_m", "ten"), ("proto.lr", "fast"), ("graph.top_m", 2.5),
    ("n_tasks", "1e3"), ("seed", 1.5), ("mask.enabled", "maybe"),
    ("proto.lr", None), ("mask.scale", True),
    ("synthetic", "8,25,x,8.0,0.3"), ("synthetic", "8,25,16"),
])
def test_config_parse_error_names_the_field(key, value):
    # small_config sets its overrides itself, so these fail in set_flat,
    # before validate() or a run can trip over the value.
    with pytest.raises(RunError, match=re.escape(f"{key}=")):
        small_config(**{key: value})


def config_fields(cfg, kind=object) -> dict:
    """Config key -> (owner, attribute name) of every field of type
    `kind`, those of the synthetic spec included."""
    return {key: (owner, f.name) for key, owner, f, hint in [
        *harness.flat_fields(cfg),
        *harness.flat_fields(cfg.synthetic, "synthetic.")]
        if kind is object or hint is kind}


def test_config_float_field_rejects_what_no_float_holds():
    # A Python int may sit in a float field. One beyond float64's range
    # fails like inf; one within it validates as the equal float does.
    def complaint(key, value):
        cfg = small_config()
        setattr(*config_fields(cfg, float)[key], value)
        try:
            cfg.validate()
        except RunError as err:
            assert f"{key}=" in str(err)
            return str(err).split(" must ")[1]
        return None

    keys = config_fields(small_config(), float)
    assert len(keys) == 9
    for key in keys:
        for value in (10 ** 400, -10 ** 400):
            assert complaint(key, value) == "be a finite float", key
        for value in (2 ** 64, -2 ** 70):
            assert complaint(key, value) == complaint(key, float(value)), key
    with pytest.raises(RunError, match=r"graph\.self_weight=10+ must be"):
        RunConfig.from_flat({"synthetic": "8,25,16,8.0,0.3",
                             "graph.self_weight": 10 ** 400}).validate()


def test_config_int_field_takes_integral_float():
    cfg = small_config(**{"graph.top_m": 4.0})
    assert cfg.graph.top_m == 4 and isinstance(cfg.graph.top_m, int)
    # validate() keeps a value assigned directly as set_flat would.
    cfg.n_tasks, cfg.proto.lr, cfg.mask.enabled = 3.0, 1, np.bool_(False)
    cfg.synthetic.per_class = np.int64(25)
    cfg.validate()
    assert type(cfg.n_tasks) is int and type(cfg.proto.lr) is float
    assert cfg.mask.enabled is False and type(cfg.synthetic.per_class) is int


@pytest.mark.parametrize("key, value", [
    ("mask.enabled", None), ("n_tasks", 3.5), ("proto.lr", "0.1"),
    ("mask.enabled", "on"), ("synthetic.dim", "16"), ("proto.strategy", 1),
])
def test_config_validate_names_a_bad_value_assigned_directly(key, value):
    # An assignment skips set_flat, so validate() is the only check.
    cfg = small_config()
    setattr(*config_fields(cfg)[key], value)
    with pytest.raises(RunError, match=re.escape(f"{key}={value!r}")):
        cfg.validate()


@pytest.mark.parametrize("key, value", [
    ("mask.enabled", None), ("mask.enabled", 0.5), ("mask.enabled", 1),
    pytest.param("graph.self_weight", 10 ** 400, id="self_weight-10**400"),
])
def test_config_rejects_a_value_not_of_the_field_type(key, value):
    with pytest.raises(RunError, match=re.escape(f"{key}={value!r}")):
        RunConfig.from_flat({"synthetic": "8,25,16,8.0,0.3", key: value})


@pytest.mark.parametrize("key, value", [
    ("mask.enabled", np.bool_(False)), ("mask.enabled", np.bool_(True)),
    ("proto.lr", np.float32(0.01)), ("mask.scale", np.float64(0.5)),
    ("seed", np.int64(4)),
])
def test_config_numpy_value_round_trips_through_the_report(
        tmp_path, capsys, key, value):
    report = run_eval(small_config(**{"n_tasks": 3, key: value}))
    assert report.config[key] == value.item()
    assert type(report.config[key]) is type(value.item())
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert load_report(path) == report


def test_config_file_rejects_repeated_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("graph.top_m = 3\nn_ways = 2\n\ngraph.top_m = 4\n")
    with pytest.raises(RunError, match=r":4: graph.top_m repeats line 1"):
        load_config_file(path)


def test_grad_overflow_aborts_instead_of_chance():
    # self_weight=1e60 scales aggregated features by 1e180, which
    # overflows the head's Adam moment; the episode must abort with that
    # reason, alone and inside run_eval, not score near chance.
    cfg = small_config(**{"graph.self_weight": "1e60"})
    emb = harness._resolve_pool(cfg)
    with pytest.raises(EpisodeAbort, match="head_grad_overflow"):
        run_episode(emb, cfg, episode_rng(cfg.seed, 0))
    with pytest.raises(RunError, match="abort:head_grad_overflow"):
        run_eval(cfg)


def test_confidence_interval_hand_oracle():
    per_task = [0.8, 1.0, 0.9]
    mean = sum(per_task) / 3
    var = sum((a - mean) ** 2 for a in per_task) / 3
    want = 1.96 * math.sqrt(var) / math.sqrt(3)
    assert confidence_interval_95(per_task) == pytest.approx(want, abs=1e-15)
    assert want == pytest.approx(0.0923953, abs=1e-6)


def test_confidence_interval_single_task():
    assert confidence_interval_95([0.73]) == 0.0


def test_summary_line_format():
    report = EvalReport(config={}, per_task_accuracy=[0.7394] * 1000,
                        mean_accuracy=0.7394, ci95=0.0063,
                        diagnostics={}, wall_time={})
    assert report.summary_line() == "73.94% ± 0.63% (1000 tasks)"


def test_report_roundtrip(tmp_path, capsys):
    cfg = small_config(**{"n_tasks": "3"})
    report = run_eval(cfg)
    path = tmp_path / "report.json"
    emit_report(report, path)
    out = capsys.readouterr().out
    assert report.summary_line() in out
    back = load_report(path)
    assert back == report


def one_task_report(**diagnostics) -> EvalReport:
    return EvalReport(config={}, per_task_accuracy=[1.0], mean_accuracy=1.0,
                      ci95=0.0, diagnostics=diagnostics, wall_time={})


def fail_fsync(fd):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failure", ["unencodable", "disk_full"])
def test_failed_report_write_keeps_the_previous_report(
        tmp_path, capsys, monkeypatch, failure):
    path = tmp_path / "report.json"
    emit_report(one_task_report(), path)
    before = path.read_bytes()
    if failure == "unencodable":  # json cannot encode an object()
        report, error = one_task_report(z=object()), TypeError
    else:  # every byte is written, then the disk refuses them
        monkeypatch.setattr(os, "fsync", fail_fsync)
        report, error = one_task_report(aborted_episodes=0), OSError
    with pytest.raises(error):
        emit_report(report, path)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.part"))
    capsys.readouterr()


def test_report_refuses_empty():
    report = EvalReport(config={}, per_task_accuracy=[], mean_accuracy=0.0,
                        ci95=0.0, diagnostics={}, wall_time={})
    with pytest.raises(RunError):
        emit_report(report, "/tmp/never-written.json")


def test_episode_rng_derivation():
    a = episode_rng(7, 3).normal(size=4)
    b = np.random.default_rng(7 + 3).normal(size=4)
    np.testing.assert_array_equal(a, b)


def test_run_episode_single_class_always_correct():
    cfg = RunConfig(synthetic=SyntheticSpec(1, 10, 8, 5.0, 0.5),
                    n_ways=1, k_shots=1, n_queries=3, n_tasks=1, seed=0)
    cfg.graph.top_m = 1
    cfg.proto.epochs = 30
    rep = run_eval(cfg)
    assert rep.per_task_accuracy == [1.0]


def test_run_episode_deterministic():
    cfg = small_config()
    pool_rng = np.random.default_rng(5)
    from fewproto.embeddings import generate_synthetic
    emb = generate_synthetic(8, 25, 16, 8.0, 0.3, pool_rng)
    a = run_episode(emb, cfg, episode_rng(cfg.seed, 0))
    b = run_episode(emb, cfg, episode_rng(cfg.seed, 0))
    assert a == b


@pytest.mark.parametrize("strategy", ["trained", "mean"])
def test_run_episode_same_accuracy_with_and_without_diagnostics(strategy):
    cfg = small_config(**{"proto.strategy": strategy, "proto.epochs": 30})
    emb = harness._resolve_pool(cfg)
    for i in range(3):
        diag = Diagnostics()
        assert run_episode(emb, cfg, episode_rng(cfg.seed, i), diag) == \
            run_episode(emb, cfg, episode_rng(cfg.seed, i))
        assert diag.seconds


@pytest.mark.parametrize("module", ["graph", "classify", "head", "prototypes",
                                    "harness"])
def test_diag_has_a_default_only_on_run_episode(module):
    # Below the entry point a stage records what it sees into the
    # Diagnostics its caller passes; it has no mode that drops events.
    defaulted = [
        name for name, fn in inspect.getmembers(getattr(fewproto, module),
                                                inspect.isfunction)
        if name != "run_episode" and any(
            p.default is not p.empty
            for p in inspect.signature(fn).parameters.values()
            if p.name == "diag")]
    assert defaulted == []


def test_package_exports_the_run_surface():
    # Stage functions import from their modules; the package itself
    # exports what a run needs.
    assert sorted(fewproto.__all__) == sorted([
        "RunConfig", "SyntheticSpec", "RunError", "run_eval", "run_episode",
        "EvalReport", "emit_report", "load_report", "EmbeddingSet",
        "EmbeddingFormatError", "load_embedding_set", "save_embedding_set",
        "generate_synthetic", "run_gradcheck_suite", "Diagnostics",
        "EpisodeAbort"])
    for name in fewproto.__all__:
        assert getattr(fewproto, name).__name__ == name


def test_chunk_holds_its_augmented_rows_once(monkeypatch):
    # The head loop's stacked copy of a chunk's augmented rows is the
    # only one: each episode's own rows are freed before the first step.
    rows = []
    alive_at_first_step = []
    augment, step = harness.manifold_augment, head._step_loss_and_grad

    def recording_augment(*args):
        aug = augment(*args)
        rows.append(weakref.ref(aug.features))
        return aug

    def first_step_looks(*args):
        if not alive_at_first_step:
            alive_at_first_step.extend(ref() is not None for ref in rows)
        return step(*args)

    monkeypatch.setattr(harness, "manifold_augment", recording_augment)
    monkeypatch.setattr(head, "_step_loss_and_grad", first_step_looks)
    cfg = small_config(**{"proto.epochs": 2})
    emb = harness._resolve_pool(cfg)
    outcomes = list(harness._run_chunk(
        emb, cfg, [episode_rng(cfg.seed, i) for i in range(4)],
        [Diagnostics() for _ in range(4)]))
    assert len(outcomes) == 4 and len(rows) == 4
    assert alive_at_first_step == [False] * 4


@pytest.mark.parametrize("strategy", ["trained", "mean"])
def test_no_stage_after_preparing_draws(strategy):
    # Every random draw of an episode is made in prepare_episode, so its
    # later stages can run again over it: a full episode leaves its
    # generator where preparing alone does.
    cfg = small_config(**{"proto.strategy": strategy, "proto.epochs": 20})
    emb = harness._resolve_pool(cfg)
    for i in range(3):
        prepared, ran = episode_rng(cfg.seed, i), episode_rng(cfg.seed, i)
        harness.prepare_episode(emb, cfg, prepared, Diagnostics())
        run_episode(emb, cfg, ran)
        assert ran.bit_generator.state == prepared.bit_generator.state


def test_chunk_plan_covers_tasks_evenly():
    trained = small_config(n_ways=5)
    assert harness.stack_width(trained, 640) == 16
    assert harness.stack_width(trained, 64) == 48
    assert harness.stack_width(trained, 10 ** 6) == 1
    # Mean banks train nothing: a mean chunk is one scoring pass, whose
    # (B, 5, 75, dim) buffer stays within 1 MiB.
    mean = small_config(n_ways=5, n_queries=15,
                        **{"proto.strategy": "mean"})
    assert harness.score_width(mean, 64) == 5
    assert harness.score_width(mean, 640) == 1
    assert harness.stack_width(mean, 64) == 5
    assert harness.stack_width(mean, 640) == 1
    # With W workers, the count is the fewest that is a multiple of W,
    # or one chunk per task where there are fewer tasks than that.
    for n_tasks in (1, 3, 15, 16, 17, 40, 47, 48, 49, 100, 1000):
        for width in (1, 7, 16, 48):
            fewest = -(-n_tasks // width)
            for workers in range(1, min(n_tasks, 3) + 1):
                plan = harness.chunk_plan(n_tasks, width, workers)
                assert ([i for tasks in plan for i in tasks]
                        == list(range(n_tasks)))
                sizes = [len(tasks) for tasks in plan]
                assert max(sizes) <= width and max(sizes) - min(sizes) <= 1
                assert fewest <= len(plan) < fewest + workers
                assert len(plan) % workers == 0 or len(plan) == n_tasks
    assert [len(t) for t in harness.chunk_plan(40, 16)] == [14, 13, 13]
    assert [len(t) for t in harness.chunk_plan(3, 1, 2)] == [1, 1, 1]
    assert ([len(t) for t in harness.chunk_plan(200, 48, 2)]
            == [34, 34, 33, 33, 33, 33])


def test_run_eval_deterministic_across_chunks(monkeypatch):
    # Stacks of at most 1, 7 (7+7+6), 16 (10+10) and the default (one
    # chunk of 20) must give the same report bytes, for trained and for
    # mean prototypes, whose chunks are scoring passes of that width.
    n_tasks = 20
    for strategy in ("trained", "mean"):
        reports = []
        for max_stack in (1, 7, 16, 48):
            monkeypatch.setattr(harness, "MAX_STACK", max_stack)
            raw = asdict(run_eval(small_config(**{
                "n_tasks": n_tasks, "proto.strategy": strategy})))
            raw.pop("wall_time")
            reports.append(json.dumps(raw, sort_keys=True))
        assert len(set(reports)) == 1


def task_index(rng, config) -> int:
    """The task index of a generator handed to `prepare_episode`, from
    its seed."""
    return rng.bit_generator.seed_seq.entropy - config.seed


def tag_tasks(monkeypatch, effect=lambda task: None):
    """Patch `prepare_episode` to tag each episode it prepares with its
    task index (`.task`), then call `effect(task)`, which may raise."""
    real_prepare = harness.prepare_episode

    def prepare(emb, config, rng, diag):
        prepared = real_prepare(emb, config, rng, diag)
        prepared.task = task_index(rng, config)
        effect(prepared.task)
        return prepared

    monkeypatch.setattr(harness, "prepare_episode", prepare)


def raising_at(task, stage):
    """`stage`, a stage of `_run_chunk`, raising ValueError for a stack
    that holds tagged task `task`."""
    def run(prepared, config):
        if any(p.task == task for p in prepared):
            raise ValueError(f"bad task {task}")
        return stage(prepared, config)
    return run


def report_text(config) -> str:
    """A run's report minus wall_time, or its RunError text."""
    try:
        raw = asdict(run_eval(config))
    except RunError as err:
        return f"RunError: {err}"
    raw.pop("wall_time")
    return json.dumps(raw, sort_keys=True)


def test_run_eval_same_report_on_one_and_two_workers(monkeypatch, tmp_path):
    # Episodes abort by task index, in this process and in workers: two
    # in the 200-task trained run, at the cap of 2, and five in the mean
    # run, whose third abort, at task 130, ends the run whichever process
    # the later ones ran in. At W=2 and 3 those runs go in six chunks of
    # 33-34, so 37 falls in worker 1's chunk 34-67, and 120 and 130 in
    # chunk 101-133, worker 1's at W=2. The 100-task trained run fails at
    # task 30: W=1 and W=3 run 0-33 as one chunk, here, and W=2 runs
    # 25-49 as one, in the worker.
    aborting = {("trained", 200): {37, 150}, ("trained", 100): {20, 30, 40},
                ("mean", 200): {10, 120, 130, 140, 150}}
    real_prepare = harness.prepare_episode

    def prepare(emb, config, rng, diag):
        prepared = real_prepare(emb, config, rng, diag)
        key = (config.proto.strategy, config.n_tasks)
        if task_index(rng, config) in aborting.get(key, ()):
            raise EpisodeAbort("test_abort")
        return prepared

    # A noisy pool, so that accuracies vary from task to task and a
    # merge out of task order shows; also as a file, which workers share
    # mapped.
    noisy = {"synthetic": "8,25,16,2.0,1.0"}
    pool = tmp_path / "noisy.emb"
    save_embedding_set(harness._resolve_pool(small_config(**noisy)), pool)
    configs = [small_config(**noisy, n_tasks=40),
               small_config(**noisy, n_tasks=200, **{"proto.strategy": "mean"}),
               small_config(synthetic=None, data=str(pool), n_tasks=40)]
    texts = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "worker_count",
                            lambda n_tasks: min(workers, n_tasks))
        with monkeypatch.context() as patched:
            if workers == 1:  # one worker forks nothing
                patched.setattr(os, "fork", None)
            texts[workers] = [report_text(cfg) for cfg in configs]
            patched.setattr(harness, "prepare_episode", prepare)
            texts[workers] += [report_text(small_config(**noisy, n_tasks=n))
                               for n in (200, 100)]
            texts[workers].append(report_text(configs[1]))
    assert texts[1] == texts[2] == texts[3]
    assert len(set(json.loads(texts[1][0])["per_task_accuracy"])) > 1
    assert (json.loads(texts[1][2])["per_task_accuracy"]
            == json.loads(texts[1][0])["per_task_accuracy"])
    assert '"abort:test_abort": 2' in texts[1][3]
    assert texts[1][4].startswith(
        "RunError: 2 of 100 episodes aborted by task 30 ")
    assert texts[1][5].startswith(
        "RunError: 3 of 200 episodes aborted by task 130 ")


def two_workers(monkeypatch):
    monkeypatch.setattr(harness, "worker_count",
                        lambda n_tasks: min(2, n_tasks))


@pytest.mark.parametrize("task", [3, 15])
def test_worker_error_reaches_the_caller(monkeypatch, task):
    # Task 3 runs in this process's chunk 0-9, task 15 in the forked
    # worker's chunk 10-19, which this process then runs again.
    two_workers(monkeypatch)
    tag_tasks(monkeypatch)
    monkeypatch.setattr(harness, "_score_stack",
                        raising_at(task, harness._score_stack))
    with pytest.raises(ValueError, match=f"bad task {task}"):
        run_eval(small_config(**{"n_tasks": 20}))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_run_eval_runs_its_episodes_at_one_blas_thread(monkeypatch, workers):
    # Each prepared episode records the BLAS thread count it ran at; at
    # W=2, tasks 3-5 run in the forked worker.
    calls = harness._blas_threads()
    assert calls is not None, "numpy's OpenBLAS thread calls not found"
    get, put = calls
    monkeypatch.setattr(harness, "worker_count",
                        lambda n_tasks: min(workers, n_tasks))
    real_prepare = harness.prepare_episode

    def prepare(emb, config, rng, diag):
        diag.record(f"blas_threads={get()}")
        if task_index(rng, config) == 4 and config.n_tasks == 5:
            raise ValueError("bad task 4")
        return real_prepare(emb, config, rng, diag)

    monkeypatch.setattr(harness, "prepare_episode", prepare)
    before = get()
    put(2)
    try:
        report = run_eval(small_config(**{"proto.strategy": "mean"}))
        after_return = get()
        with pytest.raises(ValueError, match="bad task 4"):
            run_eval(small_config(**{"proto.strategy": "mean",
                                     "n_tasks": 5}))
        after_raise = get()
    finally:
        put(before)
    assert report.diagnostics["blas_threads=1"] == 6
    assert after_return == after_raise == 2


def test_failed_run_ends_at_the_first_event_on_one_and_two_workers(
        monkeypatch):
    # Of 200 mean tasks, 10, 120 and 130 abort, and task 131 raises. The
    # third abort comes first in task order, so the run fails at the cap
    # on one worker, and on two, where 120, 130 and 131 fall in the
    # worker's chunk 101-133: it sends None for the chunk, and this
    # process runs it again one task at a time up to the cap.
    real_prepare = harness.prepare_episode

    def prepare(emb, config, rng, diag):
        prepared = real_prepare(emb, config, rng, diag)
        task = task_index(rng, config)
        if task in (10, 120, 130):
            raise EpisodeAbort("test_abort")
        if task == 131:
            raise ValueError("bad task 131")
        return prepared

    monkeypatch.setattr(harness, "prepare_episode", prepare)
    cfg = small_config(**{"n_tasks": 200, "proto.strategy": "mean"})
    texts = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "worker_count",
                            lambda n_tasks: min(workers, n_tasks))
        texts.append(report_text(cfg))
        assert multiprocessing.active_children() == []
    assert texts[0] == texts[1]
    assert texts[0].startswith(
        "RunError: 3 of 200 episodes aborted by task 130 ")


def test_chunk_raises_a_finish_error_after_the_earlier_outcomes(
        monkeypatch):
    # Scoring task 2 raises, so the chunk of tasks 0-3 fails and runs
    # again one task at a time. Tasks 0 and 1 then give what each gives
    # alone: the same accuracy, and the same counts, with none left over
    # from the failed pass (on a noisy pool, a huge head lr makes each
    # record some `head_loss_increase` events).
    tag_tasks(monkeypatch)
    monkeypatch.setattr(harness, "_score_stack",
                        raising_at(2, harness._score_stack))
    monkeypatch.setattr(harness, "worker_count", lambda n_tasks: 1)
    cfg = small_config(**{"synthetic": "8,25,16,2.0,1.0", "head.lr": 1e3,
                          "proto.epochs": 20, "n_tasks": 4})
    emb = harness._resolve_pool(cfg)
    results = harness._task_results(emb, cfg)
    earlier = [next(results) for _ in range(2)]
    alone = []
    for i in range(2):
        diag = Diagnostics()
        alone.append((run_episode(emb, cfg, episode_rng(cfg.seed, i), diag),
                       diag.as_dict()))
    assert [(outcome, diag.as_dict()) for outcome, diag in earlier] == alone
    assert all(counts["head_loss_increase"] > 0 for _, counts in alone)
    with pytest.raises(ValueError, match="bad task 2"):
        next(results)


@pytest.mark.parametrize("stage, strategy", [
    ("prepare_episode", "trained"), ("_train_heads", "trained"),
    ("_prototype_banks", "trained"), ("_prototype_banks", "mean"),
    ("_score_stack", "trained")],
    ids=["prepare", "head_loop", "proto_loop", "stacked_mean", "scoring"])
def test_stage_error_stands_at_its_own_task(monkeypatch, stage, strategy):
    # Of 200 tasks, 10, 20 and 118 abort, and one stage raises for task
    # 121. On one worker at MAX_STACK 48, 118 and 121 fall in different
    # chunks (80-119, 120-159); on two, worker 1's chunk 101-133 holds
    # both. At MAX_STACK 7, two and three workers split the tasks into 30
    # chunks, and 121 falls in chunk 119-125, a worker's at both. A chunk
    # that raises runs again one task at a time, so the third abort ends
    # the run at every chunk plan and on one to three workers, whichever
    # stage raises.
    def prepare_effect(task):
        if task in (10, 20, 118):
            raise EpisodeAbort("test_abort")
        if stage == "prepare_episode" and task == 121:
            raise ValueError("bad task 121")

    tag_tasks(monkeypatch, prepare_effect)
    if stage != "prepare_episode":
        monkeypatch.setattr(harness, stage,
                            raising_at(121, getattr(harness, stage)))
    cfg = small_config(**{"n_tasks": 200, "proto.epochs": 20,
                          "proto.strategy": strategy})
    texts = set()
    for max_stack in (7, 48):
        monkeypatch.setattr(harness, "MAX_STACK", max_stack)
        for workers in (1, 2, 3):
            monkeypatch.setattr(harness, "worker_count",
                                lambda n_tasks: min(workers, n_tasks))
            texts.add(report_text(cfg))
            assert multiprocessing.active_children() == []
    assert len(texts) == 1
    assert texts.pop().startswith(
        "RunError: 3 of 200 episodes aborted by task 118 ")


@pytest.mark.parametrize("strategy, phases", [
    ("trained", {"sample", "graph", "head", "proto", "classify"}),
    ("mean", {"sample", "graph", "proto", "classify"})])
def test_episode_diagnostics_carry_its_phase_seconds(monkeypatch, strategy,
                                                     phases):
    cfg = small_config(**{"proto.strategy": strategy, "proto.epochs": 20})
    diag = Diagnostics()
    run_episode(harness._resolve_pool(cfg), cfg, episode_rng(cfg.seed, 0),
                diag)
    assert set(diag.seconds) == phases
    assert all(seconds > 0 for seconds in diag.seconds.values())
    assert diag.as_dict() == {}  # seconds are no event counts
    keys = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "worker_count",
                            lambda n_tasks: min(workers, n_tasks))
        keys.append(sorted(run_eval(cfg).wall_time))
    assert keys[0] == keys[1] == sorted(phases | {"total"})


def test_chunk_splits_its_prototype_loop_over_its_banks(monkeypatch):
    # A clock that moves only while the batched loop runs: its 6 s go in
    # equal shares to the three episodes it trains, none to the abort.
    clock = SimpleNamespace(now=0.0)
    real_banks, real_prepare = harness._prototype_banks, harness.prepare_episode

    def banks(prepared, config):
        clock.now += 6.0
        return real_banks(prepared, config)

    def prepare(emb, config, rng, diag):
        prepared = real_prepare(emb, config, rng, diag)
        if task_index(rng, config) == 1:
            raise EpisodeAbort("test_abort")
        return prepared

    monkeypatch.setattr(harness, "time",
                        SimpleNamespace(perf_counter=lambda: clock.now))
    monkeypatch.setattr(harness, "_prototype_banks", banks)
    monkeypatch.setattr(harness, "prepare_episode", prepare)
    cfg = small_config(**{"proto.epochs": 20})
    diags = [Diagnostics() for _ in range(4)]
    rngs = [episode_rng(cfg.seed, i) for i in range(4)]
    list(harness._run_chunk(harness._resolve_pool(cfg), cfg, rngs, diags))
    assert [d.seconds["proto"] for d in diags] == [2.0, 0.0, 2.0, 2.0]
    assert sum(d.seconds["proto"] for d in diags) == clock.now == 6.0


def test_abort_cap_stops_two_workers_early(tmp_path, monkeypatch):
    # Every episode aborts. This process runs chunk 0 of the six that
    # split 0-199, tasks 0-33, and stops at the third abort, the cap of 2
    # of 200, then stops the worker before reading any of its chunks.
    path = tmp_path / "degenerate.emb"
    save_embedding_set(zero_class_pool(), path)
    cfg = RunConfig(data=str(path), n_ways=2, k_shots=1, n_queries=2,
                    n_tasks=200, seed=0)
    cfg.graph.top_m = 3
    cfg.proto.strategy = "mean"
    real_prepare = harness.prepare_episode

    def prepare(*args, **kwargs):
        prepare.calls += 1
        return real_prepare(*args, **kwargs)

    prepare.calls = 0
    monkeypatch.setattr(harness, "prepare_episode", prepare)
    two_workers(monkeypatch)
    with pytest.raises(RunError, match="3 of 200 episodes aborted by task 2 "):
        run_eval(cfg)
    first = harness.chunk_plan(200, harness.stack_width(cfg, 4), 2)[0]
    assert prepare.calls == len(first) == 34
    assert multiprocessing.active_children() == []


def test_episode_abort_survives_a_pickle_round_trip():
    # Workers send their aborts to this process as they are.
    for abort in (EpisodeAbort("zero_support_row"),
                  EpisodeAbort("head_loss_diverged", "loss=nan")):
        back = pickle.loads(pickle.dumps(abort))
        assert type(back) is EpisodeAbort
        assert back.reason == abort.reason
        assert str(back) == str(abort)


def test_dead_worker_fails_the_run(monkeypatch):
    two_workers(monkeypatch)
    tag_tasks(monkeypatch)
    real_score = harness._score_stack

    def score(prepared, config):
        if any(p.task == 15 for p in prepared):
            os._exit(3)
        return real_score(prepared, config)

    monkeypatch.setattr(harness, "_score_stack", score)
    with pytest.raises(RunError, match="tasks 10-19 exited with code 3"):
        run_eval(small_config(**{"n_tasks": 20}))
    assert multiprocessing.active_children() == []


class HoldsALock(Exception):
    """An exception that does not pickle: it holds a lock."""

    def __init__(self, text):
        super().__init__(text)
        self.lock = threading.Lock()


class TwoArg(Exception):
    """An exception that pickles but does not unpickle: its `args` holds
    one value, and its `__init__` takes two."""

    def __init__(self, text, where):
        super().__init__(f"{text} at {where}")
        self.where = where


@pytest.mark.parametrize("make", [lambda: HoldsALock("bad task at 15"),
                                  lambda: TwoArg("bad task", 15)],
                         ids=["lock", "two_arg"])
def test_worker_chunk_error_keeps_its_one_worker_type_and_text(
        monkeypatch, make):
    # Scoring task 15 raises, in the worker's chunk 10-19 at W=2, an
    # exception that cannot cross a pipe as itself. The run gives the
    # W=1 type and text after the results of tasks 0-14.
    tag_tasks(monkeypatch)
    real_score = harness._score_stack

    def score(prepared, config):
        if any(p.task == 15 for p in prepared):
            raise make()
        return real_score(prepared, config)

    monkeypatch.setattr(harness, "_score_stack", score)
    error = type(make())
    cfg = small_config(**{"n_tasks": 20})
    emb = harness._resolve_pool(cfg)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "worker_count",
                            lambda n_tasks: min(workers, n_tasks))
        earlier = []
        with pytest.raises(error, match="^bad task at 15$") as caught:
            for outcome, diag in harness._task_results(emb, cfg):
                earlier.append((outcome, diag.as_dict()))
        runs.append((earlier, type(caught.value), str(caught.value)))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 15
    with pytest.raises(error, match="^bad task at 15$"):
        run_eval(cfg)


def test_failed_worker_chunk_runs_here_one_task_at_a_time(monkeypatch):
    # Any stack that holds task 15 raises. At MAX_STACK 10 the 20 tasks
    # run as chunks 0-9 and 10-19; at W=2 the worker sends None for
    # 10-19, and this process runs that chunk only one task at a time,
    # never again as a stack, up to the W=1 error after tasks 0-14.
    real_run_chunk = harness._run_chunk
    calls = []  # a worker appends to its own copy

    def run_chunk(emb, config, rngs, diags):
        first = task_index(rngs[0], config)
        calls.append((first, len(rngs)))
        if first <= 15 < first + len(rngs):
            raise ValueError("bad task 15")
        return real_run_chunk(emb, config, rngs, diags)

    monkeypatch.setattr(harness, "_run_chunk", run_chunk)
    monkeypatch.setattr(harness, "MAX_STACK", 10)
    cfg = small_config(**{"n_tasks": 20, "proto.epochs": 20})
    emb = harness._resolve_pool(cfg)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "worker_count",
                            lambda n_tasks: min(workers, n_tasks))
        calls.clear()
        earlier = []
        with pytest.raises(ValueError, match="^bad task 15$"):
            for outcome, diag in harness._task_results(emb, cfg):
                earlier.append((outcome, diag.as_dict()))
        runs.append(earlier)
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1] and len(runs[0]) == 15
    assert [call for call in calls if call[0] >= 10 and call[1] > 1] == []
    assert calls == [(0, 10)] + [(i, 1) for i in range(10, 16)]


class LockedAbort(EpisodeAbort):
    """An abort that does not pickle: it holds a lock."""

    def __init__(self, reason):
        super().__init__(reason)
        self.lock = threading.Lock()


def test_worker_chunk_whose_results_do_not_pickle_runs_here(monkeypatch):
    # The stacked mean returns, and does not raise, an abort holding a
    # lock for task 120 of 200. At W=2 it lands in the worker's chunk
    # 101-133, whose results then do not pickle: the worker sends None,
    # and this process runs the chunk again. At W=1 and 3 it runs here.
    # Every W gives the same report, with the abort counted once.
    tag_tasks(monkeypatch)
    real_banks = harness._prototype_banks

    def banks(prepared, config):
        return [LockedAbort("locked") if p.task == 120 else bank
                for p, bank in zip(prepared, real_banks(prepared, config))]

    monkeypatch.setattr(harness, "_prototype_banks", banks)
    cfg = small_config(**{"n_tasks": 200, "proto.strategy": "mean"})
    texts = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "worker_count",
                            lambda n_tasks: min(workers, n_tasks))
        texts.append(report_text(cfg))
        assert multiprocessing.active_children() == []
    assert texts[0] == texts[1] == texts[2]
    assert '"abort:locked": 1' in texts[0]


def test_workers_send_each_chunk_as_it_ends(monkeypatch):
    # A worker sends one message per chunk, as the chunk ends, so no
    # process holds more than a chunk of a worker's results. 200 mean
    # tasks at MAX_STACK 5 and W=2 run in 40 chunks of 5: the worker sends
    # chunks 1, 3, ..., 39, each message holding that chunk's results.
    messages = []
    real_start = harness._start_worker

    class Recording:
        """A worker's receive end that keeps each message it reads."""

        def __init__(self, receive):
            self.receive = receive

        def recv(self):
            messages.append(self.receive.recv())
            return messages[-1]

        def close(self):
            self.receive.close()

    def start(*args):
        process, receive = real_start(*args)
        return process, Recording(receive)

    monkeypatch.setattr(harness, "_start_worker", start)
    monkeypatch.setattr(harness, "MAX_STACK", 5)
    two_workers(monkeypatch)
    report = run_eval(small_config(**{"n_tasks": 200,
                                      "proto.strategy": "mean"}))
    worker_chunks = [range(start, start + 5) for start in range(5, 200, 10)]
    assert [len(m) for m in messages] == [5] * 20
    assert [outcome for m in messages for outcome, _ in m] == [
        report.per_task_accuracy[i] for c in worker_chunks for i in c]
    assert all(isinstance(diag, Diagnostics)
               for m in messages for _, diag in m)


def test_two_workers_fork_safely_with_threaded_blas():
    # With the BLAS thread variables unset, numpy's BLAS may run threads
    # of its own when the workers fork; the run must neither hang nor
    # change a bit.
    script = (
        "import json\n"
        "from dataclasses import asdict\n"
        "import numpy as np\n"
        "from fewproto import harness\n"
        "np.ones((300, 300)) @ np.ones((300, 300))\n"
        "cfg = harness.RunConfig.from_flat({'synthetic': '8,25,16,8.0,0.3',"
        " 'n_ways': 3, 'k_shots': 2, 'n_queries': 5, 'n_tasks': 12,"
        " 'graph.top_m': 5, 'proto.epochs': 60, 'seed': 4})\n"
        "for workers in (1, 2):\n"
        "    harness.worker_count = lambda n_tasks: min(workers, n_tasks)\n"
        "    raw = asdict(harness.run_eval(cfg))\n"
        "    raw.pop('wall_time')\n"
        "    print(json.dumps(raw, sort_keys=True))\n")
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(fewproto.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    one, two = proc.stdout.splitlines()
    assert one == two and '"aborted_episodes": 0' in one


def test_run_eval_inside_a_daemonic_worker():
    # A Pool's workers are daemonic and may not fork, so there run_eval
    # runs every task in-process.
    cfg = small_config(**{"n_tasks": 4})
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply_async(report_text, (cfg,)).get(timeout=60)
    assert inside == report_text(cfg)


def test_run_eval_matches_run_episode_around_aborts(monkeypatch):
    # Three episodes of the second chunk are broken: one head init goes
    # NaN (the loss diverges inside the stacked head loop), one trained
    # head goes NaN after the head loop (the loss diverges inside the
    # batched prototype loop), one support row goes to zero (aborted
    # before stacking). Every episode must end as it does alone in
    # run_episode.
    real_prepare, real_banks = (harness.prepare_episode,
                                harness._prototype_banks)
    cfg = small_config(**{"n_tasks": "300"})
    second = harness.chunk_plan(
        cfg.n_tasks, harness.stack_width(cfg, cfg.synthetic.dim))[1]
    broken = {second.start + 2: "nan_head", second.start + 4: "nan_init",
              second.start + 5: "zero_row"}

    def prepare(emb, config, rng, diag):
        prepared = real_prepare(emb, config, rng, diag)
        prepared.task = task_index(rng, config)
        how = broken.get(prepared.task)
        if how == "nan_init":
            prepared.head.weights[0, 0] = np.nan
        elif how == "zero_row":
            prepared.support_feats[1] = 0.0
        return prepared

    def banks(prepared, config):
        for p in prepared:
            if broken.get(p.task) == "nan_head":
                p.head.weights[0, 0] = np.nan
        return real_banks(prepared, config)

    monkeypatch.setattr(harness, "prepare_episode", prepare)
    monkeypatch.setattr(harness, "_prototype_banks", banks)
    # One worker, so the chunks are the plan above.
    monkeypatch.setattr(harness, "worker_count", lambda n_tasks: 1)
    rep = run_eval(cfg)
    emb = harness._resolve_pool(cfg)
    alone, reasons = [], []
    for i in range(cfg.n_tasks):
        try:
            alone.append(run_episode(emb, cfg, episode_rng(cfg.seed, i)))
        except EpisodeAbort as abort:
            reasons.append(abort.reason)
    assert sorted(reasons) == ["head_loss_diverged", "proto_loss_diverged",
                               "zero_support_row"]
    assert rep.per_task_accuracy == alone
    assert rep.diagnostics["aborted_episodes"] == 3
    for reason in reasons:
        assert rep.diagnostics[f"abort:{reason}"] == 1


def test_run_eval_report_fields():
    cfg = small_config()
    rep = run_eval(cfg)
    assert len(rep.per_task_accuracy) == cfg.n_tasks
    assert rep.mean_accuracy == pytest.approx(
        np.mean(rep.per_task_accuracy))
    assert rep.ci95 == pytest.approx(
        confidence_interval_95(rep.per_task_accuracy))
    assert rep.config == cfg.to_flat()
    assert rep.diagnostics["aborted_episodes"] == 0
    assert rep.wall_time["total"] > 0


def test_run_eval_insufficient_pool():
    cfg = small_config()
    cfg.n_ways = 20
    with pytest.raises(RunError, match="classes"):
        run_eval(cfg)


def test_run_eval_skips_short_class(tmp_path):
    # Six classes have the 7 records a 5-way 2-shot 5-query episode
    # needs; class 3 has 3. Episodes draw among the six, never class 3.
    from fewproto.embeddings import sample_episode, save_embedding_set
    rng = np.random.default_rng(31)
    labels = np.repeat(np.arange(7), [12, 12, 12, 3, 12, 12, 12])
    vectors = rng.normal(size=(labels.size, 8)) + 3.0 * rng.normal(
        size=(7, 8))[labels]
    emb = EmbeddingSet.from_arrays(vectors, labels)
    path = tmp_path / "short.emb"
    save_embedding_set(emb, path)
    for seed in range(50):
        ep = sample_episode(emb, 5, 2, 5, np.random.default_rng(seed))
        picked = np.concatenate([ep.support_idx, ep.query_idx])
        assert not np.isin(picked, emb.class_index[3]).any()
    cfg = RunConfig(data=str(path), n_ways=5, k_shots=2, n_queries=5,
                    n_tasks=4, seed=2)
    cfg.proto.epochs = 30
    for strategy in ("trained", "mean"):
        cfg.proto.strategy = strategy
        rep = run_eval(cfg)
        assert len(rep.per_task_accuracy) == 4
        assert rep.diagnostics["aborted_episodes"] == 0


def zero_class_pool():
    rng = np.random.default_rng(30)
    vectors = np.vstack([
        rng.normal(size=(20, 4)) + 4.0,
        np.zeros((20, 4)),
    ]).astype(np.float32)
    labels = np.repeat([0, 1], 20)
    return EmbeddingSet.from_arrays(vectors, labels)


def test_zero_prototype_episode_aborts():
    emb = zero_class_pool()
    cfg = RunConfig(synthetic=SyntheticSpec(), n_ways=2, k_shots=1,
                    n_queries=2, n_tasks=1, seed=0)
    cfg.graph.top_m = 3
    cfg.proto.epochs = 20
    for strategy in ("trained", "mean"):
        cfg.proto.strategy = strategy
        with pytest.raises(EpisodeAbort):
            run_episode(emb, cfg, episode_rng(0, 0))


def test_abort_cap_fails_run(tmp_path):
    from fewproto.embeddings import save_embedding_set
    path = tmp_path / "degenerate.emb"
    save_embedding_set(zero_class_pool(), path)
    cfg = RunConfig(data=str(path), n_ways=2, k_shots=1, n_queries=2,
                    n_tasks=5, seed=0)
    cfg.graph.top_m = 3
    cfg.proto.epochs = 20
    cfg.proto.strategy = "mean"
    with pytest.raises(RunError, match="aborted"):
        run_eval(cfg)


def test_abort_cap_stops_the_run_early(tmp_path, monkeypatch):
    # Every episode of this pool aborts. The cap is 2 of 200 tasks, so
    # the third abort ends the run in its first chunk (0-39 of five).
    from fewproto.embeddings import save_embedding_set
    path = tmp_path / "degenerate.emb"
    save_embedding_set(zero_class_pool(), path)
    cfg = RunConfig(data=str(path), n_ways=2, k_shots=1, n_queries=2,
                    n_tasks=200, seed=0)
    cfg.graph.top_m = 3
    cfg.proto.strategy = "mean"
    real_prepare = harness.prepare_episode

    def prepare(*args, **kwargs):
        prepare.calls += 1
        return real_prepare(*args, **kwargs)

    prepare.calls = 0
    monkeypatch.setattr(harness, "prepare_episode", prepare)
    monkeypatch.setattr(harness, "worker_count", lambda n_tasks: 1)
    with pytest.raises(RunError, match="3 of 200 episodes aborted"):
        run_eval(cfg)
    first = harness.chunk_plan(200, harness.stack_width(cfg, 4))[0]
    assert prepare.calls == len(first) == 40


def test_aborted_episodes_excluded(monkeypatch):
    real_prepare = harness.prepare_episode

    def fake_prepare(emb, config, rng, diag):
        fake_prepare.calls += 1
        if fake_prepare.calls - 1 == 5:
            raise EpisodeAbort("synthetic_test_abort")
        return real_prepare(emb, config, rng, diag)

    def fake_score(prepared, config):
        first = fake_score.calls
        fake_score.calls += len(prepared)
        return [float(k % 2) for k in range(first, fake_score.calls)]

    fake_prepare.calls = 0
    fake_score.calls = 0
    monkeypatch.setattr("fewproto.harness.prepare_episode", fake_prepare)
    monkeypatch.setattr("fewproto.harness._score_stack", fake_score)
    monkeypatch.setattr(harness, "worker_count", lambda n_tasks: 1)
    cfg = small_config(**{"n_tasks": "200"})
    rep = run_eval(cfg)
    assert len(rep.per_task_accuracy) == 199
    assert rep.diagnostics["aborted_episodes"] == 1
    assert rep.diagnostics["abort:synthetic_test_abort"] == 1
    assert rep.mean_accuracy == pytest.approx(99.0 / 199.0)


def test_four_toggle_combinations_clean():
    for strategy in ("trained", "mean"):
        for mask_on in (True, False):
            cfg = RunConfig(synthetic=SyntheticSpec(20, 50, 64, 10.0, 0.1),
                            n_tasks=3, seed=21)
            cfg.proto.strategy = strategy
            cfg.proto.epochs = 300
            cfg.mask.enabled = mask_on
            rep = run_eval(cfg)
            assert rep.diagnostics == {"aborted_episodes": 0}, (strategy, mask_on)
            assert rep.mean_accuracy == 1.0


def test_mean_run_with_overflowing_norms_keeps_directions():
    # Three rounds at self_weight=1e60 scale the features to about 1e180,
    # so their squared norms overflow; cosines must still see them. Any
    # RuntimeWarning fails the test.
    report = run_eval(RunConfig.from_flat({
        "synthetic": "20,50,64,3.0,1.5", "proto.strategy": "mean",
        "graph.self_weight": 1e60, "n_tasks": 100, "seed": 3}))
    assert report.ci95 > 0.0
    assert "± 0.00%" not in report.summary_line()


def test_trained_run_with_overflowing_norms_keeps_directions():
    # Three rounds at self_weight=5e51 scale the features to about 1e156,
    # so the support rows' squared norms overflow in the prototype loss.
    # With those rows zeroed the run gave 26.80%. Any RuntimeWarning
    # fails the test.
    report = run_eval(RunConfig.from_flat({
        "synthetic": "20,50,64,3.0,1.5", "graph.self_weight": 5e51,
        "n_tasks": 40, "seed": 3}))
    assert report.mean_accuracy > 0.35


def run_diagnostics(err: RunError) -> dict:
    """The diagnostics a failed run's error lists."""
    return ast.literal_eval(str(err).split("diagnostics: ", 1)[1])


@pytest.mark.parametrize("strategy", ["trained", "mean"])
def test_graph_overflow_aborts_at_the_graph(strategy):
    # 1e110 cubed passes float64 range in the graph; no later stage may
    # see the non-finite features and abort with a reason of its own.
    with pytest.raises(RunError) as err:
        run_eval(RunConfig.from_flat({
            "synthetic": "20,50,64,3.0,1.5", "graph.self_weight": 1e110,
            "proto.strategy": strategy, "proto.epochs": 50, "n_tasks": 4}))
    assert run_diagnostics(err.value).keys() == {"abort:graph_overflow",
                                                 "aborted_episodes"}


SWEEP_POOL = {"synthetic": "8,12,16,3.0,1.5", "n_ways": 3, "k_shots": 2,
              "n_queries": 4, "n_tasks": 4, "proto.epochs": 50}
EXTREME_SETTINGS = [
    ("graph.self_weight", 5e51), ("graph.self_weight", 1e110),
    *[(key, 1e300) for key in (
        "mask.boost", "mask.scale", "head.lr", "proto.lr",
        "proto.entropy_weight", "proto.class_weight")],
    ("graph.rounds", 0), ("head.lr", 1.7e308), ("mask.scale", 1.7e308),
]


@pytest.mark.parametrize("strategy", ["trained", "mean"])
@pytest.mark.parametrize("key, value", EXTREME_SETTINGS)
def test_extreme_setting_completes_or_names_its_aborts(strategy, key, value):
    # A RuntimeWarning, in this process or a worker, fails the test.
    config = RunConfig.from_flat(
        {**SWEEP_POOL, "proto.strategy": strategy, key: value})
    try:
        report = run_eval(config)
    except RunError as err:
        assert any(name.startswith("abort:")
                   for name in run_diagnostics(err))
    else:
        assert len(report.per_task_accuracy) == config.n_tasks


@pytest.mark.parametrize("strategy", ["trained", "mean"])
def test_mask_boost_past_norm_range_keeps_predictions(strategy):
    # At either boost the correction swamps the query; at 1e300 the
    # corrected rows also square past float64 range.
    accuracies = [run_eval(RunConfig.from_flat({
        **SWEEP_POOL, "proto.strategy": strategy, "mask.boost": boost}
    )).per_task_accuracy for boost in (1e150, 1e300)]
    assert accuracies[0] == accuracies[1]


@pytest.mark.parametrize("strategy", ["trained", "mean"])
def test_mask_scale_past_float_range_takes_the_softmax_limit(strategy):
    # At 1e300 each mask already puts all its weight on its largest
    # entries; at 1.7e308 scale * |prototype| overflows to inf.
    accuracies = [run_eval(RunConfig.from_flat({
        **SWEEP_POOL, "proto.strategy": strategy, "mask.scale": scale}
    )).per_task_accuracy for scale in (1e300, 1.7e308)]
    assert accuracies[0] == accuracies[1]


# A float field's edges, kept where they lie in its domain, and the ints
# of a tiny run: each int field's upper end, where its domain has none.
FLOAT_EDGES = [-1.7e308, -FLOAT32_MAX, -1e300, -1.0, -5e-324, 0.0, 5e-324,
               1e-300, 0.1, 1.0, 1e60, 1e300, FLOAT32_MAX, 1.7e308]
INT_CAPS = {"n_ways": 3, "k_shots": 2, "n_queries": 3, "n_tasks": 3,
            "graph.rounds": 60, "head.epochs": 5, "head.n_aug": 3,
            "proto.epochs": 5, "synthetic.dim": 8}
# The EMB1 pool a `data` draw reads: enough classes and records for any
# episode shape INT_CAPS allows.
DOMAIN_FILE_POOL = (5, 7, 6, 3.0, 1.5)


def field_domain(f, hint, low=None, high=None):
    """The values of a config field that a draw takes, its default and
    edges included, and values just outside its domain. `low` and `high`
    bound an int field, from its `ge` and its `le` or INT_CAPS unless
    given."""
    meta = f.metadata
    if hint is bool:
        return st.booleans(), ["maybe"]
    if meta["choices"]:
        return st.sampled_from(meta["choices"]), ["oracle"]
    if hint is int:
        low = meta["ge"] if low is None else low
        high = meta["le"] if high is None else high
        return st.integers(low, high), [meta["ge"] - 1] + (
            [] if meta["le"] is None else [meta["le"] + 1])
    lo = next(b for b in (meta["ge"], meta["gt"], -sys.float_info.max)
              if b is not None)
    hi = sys.float_info.max if meta["le"] is None else meta["le"]
    edges = [x for x in FLOAT_EDGES if lo <= x <= hi and x != meta["gt"]]
    outside = [math.nan, math.inf, -math.inf, 10 ** 400]
    if lo > -sys.float_info.max:
        outside.append(math.nextafter(lo, -math.inf) if meta["gt"] is None
                       else lo)
    if meta["le"] is not None:
        outside.append(math.nextafter(hi, math.inf))
    return st.one_of(st.just(f.default), st.sampled_from(edges), st.floats(
        lo, hi, exclude_min=meta["gt"] is not None)), outside


@st.composite
def domain_configs(draw, data_path):
    """A flat config of a tiny run, every key at a value of its domain,
    often an edge, with a pool that fits its episodes or, for a
    synthetic pool, may be too small for them; in about one draw of
    three, one key is then set just outside its domain. Returns the
    config and that key, or None."""
    fields = {key: (f, hint) for key, _, f, hint in [
        *harness.flat_fields(RunConfig()),
        *harness.flat_fields(SyntheticSpec(), "synthetic.")]}
    flat, outside = {}, {}

    def put(key, **bounds):
        f, hint = fields[key]
        inside, outside[key] = field_domain(
            f, hint, **{"high": INT_CAPS.get(key), **bounds})
        flat[key] = draw(inside)

    for key in ("n_ways", "k_shots", "n_queries"):
        put(key)
    need = flat["k_shots"] + flat["n_queries"]
    put("graph.top_m", high=flat["n_ways"] * need - 1)
    outside["graph.top_m"].append(flat["n_ways"] * need)
    for key in fields:
        if key not in flat and key not in harness.SOURCES and (
                not key.startswith("synthetic.")):
            put(key)
    if draw(st.sampled_from(harness.SOURCES)) == "data":
        flat["data"] = data_path
    else:
        put("synthetic.n_classes", high=flat["n_ways"] + 2)
        put("synthetic.per_class", high=need + 2)
        for key in ("synthetic.dim", "synthetic.mean_scale",
                    "synthetic.sigma"):
            put(key)
    bad = draw(st.one_of(st.none(), st.none(),
                         st.sampled_from(sorted(outside))))
    if bad is not None:
        flat[bad] = draw(st.sampled_from(outside[bad]))
    spec = {key.split(".")[1]: flat.pop(key) for key in list(flat)
            if key.startswith("synthetic.")}
    if spec:
        flat["synthetic"] = SyntheticSpec(**spec)
    return flat, bad


@pytest.fixture(scope="module")
def domain_pool_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("domain") / "pool.emb"
    save_embedding_set(generate_synthetic(
        *DOMAIN_FILE_POOL, np.random.default_rng(0)), path)
    return str(path)


def domain_outcome(flat: dict, workers: int):
    """`run_eval`'s report at `workers` workers, without its wall time,
    or the text of the RunError it raises. A RuntimeWarning raises."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(harness, "worker_count",
                      lambda n_tasks: min(workers, n_tasks))
        try:
            report = asdict(run_eval(RunConfig.from_flat(flat)))
        except RunError as err:
            return str(err)
    del report["wall_time"]
    return report


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_config_domain_gives_a_report_or_names_its_fault(domain_pool_path,
                                                         data):
    # Every key's domain and edges on tiny runs: a report with one
    # accuracy in [0, 1] per task that did not abort, or a RunError that
    # names a flat key or the abort cap; a key set outside its domain is
    # the one named. A drawn flag picks a fixed sub-sample that must give
    # the same at W=2.
    flat, bad = data.draw(domain_configs(domain_pool_path))
    outcome = domain_outcome(flat, 1)
    if bad is not None:
        assert isinstance(outcome, str) and f"{bad}=" in outcome, outcome
    elif isinstance(outcome, str):
        keys = [*RunConfig().to_flat(), *(
            f"synthetic.{key}" for key in asdict(SyntheticSpec()))]
        assert any(f"{key}=" in outcome for key in keys) or (
            f"(cap {harness.ABORT_CAP_FRACTION:.0%})" in outcome), outcome
    else:
        accuracies = outcome["per_task_accuracy"]
        assert len(accuracies) == flat["n_tasks"] - outcome["diagnostics"][
            "aborted_episodes"]
        assert all(0.0 <= a <= 1.0 for a in accuracies)
    if data.draw(st.booleans()) and flat["n_tasks"] >= 2:
        assert domain_outcome(flat, 2) == outcome


def test_soft_events_reach_the_report(tmp_path, monkeypatch):
    # Two zeroed records make zero graph vertices, isolated vertices and
    # zero queries; a huge head lr makes the head's loss rise. Each
    # stage's count reaches the report, the same at any worker count.
    pool = harness._resolve_pool(RunConfig.from_flat(SWEEP_POOL))
    vectors = np.array(pool.vectors)
    vectors[[0, 1]] = 0.0
    path = tmp_path / "zeroed.emb"
    save_embedding_set(EmbeddingSet.from_arrays(vectors, pool.labels), path)
    configs = [
        RunConfig.from_flat({**SWEEP_POOL, "synthetic": None,
                             "data": str(path), "n_tasks": 40,
                             "proto.strategy": "mean"}),
        RunConfig.from_flat({**SWEEP_POOL, "n_tasks": 8, "head.lr": 1e9})]
    reported = {}
    for workers in (1, 2):
        monkeypatch.setattr(harness, "worker_count",
                            lambda n_tasks: min(workers, n_tasks))
        reported[workers] = [run_eval(cfg).diagnostics for cfg in configs]
    assert reported[1] == reported[2]
    zeroed, head_lr = reported[1]
    assert zeroed["zero_vector_cosine"] == 16
    assert zeroed["zero_query"] == 11
    assert zeroed["isolated_vertex"] >= zeroed["zero_vector_cosine"]
    assert head_lr["head_loss_increase"] == 15
