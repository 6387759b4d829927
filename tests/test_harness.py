import ast
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import fewproto
from fewproto import harness
from fewproto.diagnostics import EpisodeAbort
from fewproto.embeddings import EmbeddingSet, save_embedding_set
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


@pytest.mark.parametrize("key, value", [
    ("graph.top_m", "0"), ("graph.rounds", "-1"), ("head.epochs", "0"),
    ("head.n_aug", "-1"), ("proto.epochs", "0"),
    ("graph.self_weight", "inf"), ("mask.scale", "nan"),
    ("mask.boost", "inf"), ("head.lr", "nan"),
    ("head.lr", "0"), ("head.lr", "-1e-2"),
    ("proto.lr", "0"), ("proto.lr", "-0.01"),
    ("proto.entropy_weight", "-0.1"), ("proto.class_weight", "-1"),
    ("synthetic", "0,25,16,8.0,0.3"), ("synthetic", "8,0,16,8.0,0.3"),
    ("synthetic", "8,25,0,8.0,0.3"), ("synthetic", "8,25,16,nan,0.3"),
    ("synthetic", "8,25,16,8.0,-0.1"),
])
def test_config_error_names_the_field(key, value):
    cfg = small_config(**{key: value})
    with pytest.raises(RunError, match=re.escape(key)):
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


def test_chunk_plan_covers_tasks_evenly():
    assert harness.stack_width(5, 640) == 16
    assert harness.stack_width(5, 64) == 48
    assert harness.stack_width(5, 10 ** 6) == 1
    for n_tasks in (1, 15, 16, 17, 40, 47, 48, 49, 100, 1000):
        for width in (1, 7, 16, 48):
            plan = harness.chunk_plan(n_tasks, width)
            assert [i for tasks in plan for i in tasks] == list(range(n_tasks))
            sizes = [len(tasks) for tasks in plan]
            assert len(plan) == -(-n_tasks // width)
            assert max(sizes) <= width and max(sizes) - min(sizes) <= 1
    assert [len(t) for t in harness.chunk_plan(40, 16)] == [14, 13, 13]


def test_run_eval_deterministic_across_chunks(monkeypatch):
    # Stacks of at most 1, 7 (7+7+6), 16 (10+10) and the default (one
    # chunk of 20) must give the same report bytes.
    n_tasks = 20
    reports = []
    for max_stack in (1, 7, 16, harness.MAX_STACK):
        monkeypatch.setattr(harness, "MAX_STACK", max_stack)
        raw = asdict(run_eval(small_config(**{"n_tasks": n_tasks})))
        raw.pop("wall_time")
        reports.append(json.dumps(raw, sort_keys=True))
    assert len(set(reports)) == 1


def task_index(prepared, config) -> int:
    """The task index of a prepared episode, from its generator's seed."""
    return prepared.rng.bit_generator.seed_seq.entropy - config.seed


def report_text(config) -> str:
    """A run's report minus wall_time, or its RunError text."""
    try:
        raw = asdict(run_eval(config))
    except RunError as err:
        return f"RunError: {err}"
    raw.pop("wall_time")
    return json.dumps(raw, sort_keys=True)


def test_run_eval_same_report_on_one_and_two_workers(monkeypatch, tmp_path):
    # Episodes abort by task index, on both sides of the worker split:
    # two in the 200-task trained run, at the cap of 2, and five in the
    # mean run, whose third abort, at task 130, ends the run however many
    # workers the later ones ran in. The 100-task trained run fails at
    # task 30: one worker runs 0-33 as one chunk, two run 25-49 as one.
    aborting = {("trained", 200): {37, 150}, ("trained", 100): {20, 30, 40},
                ("mean", 200): {10, 120, 130, 140, 150}}
    real_prepare = harness.prepare_episode

    def prepare(emb, config, rng, diag=None, timings=None):
        prepared = real_prepare(emb, config, rng, diag, timings)
        key = (config.proto.strategy, config.n_tasks)
        if task_index(prepared, config) in aborting.get(key, ()):
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
    for workers in (1, 2):
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
    assert texts[1] == texts[2]
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
    # Task 3 runs in this process, task 15 in the forked worker for 10-19.
    two_workers(monkeypatch)
    real_finish = harness.finish_episode

    def finish(prepared, bank, config, diag=None, timings=None):
        if task_index(prepared, config) == task:
            raise ValueError(f"bad task {task}")
        return real_finish(prepared, bank, config, diag, timings)

    monkeypatch.setattr(harness, "finish_episode", finish)
    with pytest.raises(ValueError, match=f"bad task {task}"):
        run_eval(small_config(**{"n_tasks": 20}))
    assert multiprocessing.active_children() == []


def test_failed_run_ends_at_the_first_event_on_one_and_two_workers(
        monkeypatch):
    # Of 200 mean tasks, 10, 120 and 130 abort, and task 150 raises. The
    # third abort comes first in task order, so the run fails at the cap
    # on one worker, and on two, where the worker for 100-199 raises
    # after finishing 120 and 130.
    real_prepare = harness.prepare_episode

    def prepare(emb, config, rng, diag=None, timings=None):
        prepared = real_prepare(emb, config, rng, diag, timings)
        task = task_index(prepared, config)
        if task in (10, 120, 130):
            raise EpisodeAbort("test_abort")
        if task == 150:
            raise ValueError("bad task 150")
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


def test_abort_cap_stops_two_workers_early(tmp_path, monkeypatch):
    # Every episode aborts. This process runs tasks 0-99 and stops at
    # the third abort, the cap of 2 of 200, then stops the worker.
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
    assert prepare.calls == 3
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
    real_finish = harness.finish_episode

    def finish(prepared, bank, config, diag=None, timings=None):
        if task_index(prepared, config) == 15:
            os._exit(3)
        return real_finish(prepared, bank, config, diag, timings)

    monkeypatch.setattr(harness, "finish_episode", finish)
    with pytest.raises(RunError, match="tasks 10-19 exited with code 3"):
        run_eval(small_config(**{"n_tasks": 20}))
    assert multiprocessing.active_children() == []


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
    # Two episodes of the second chunk are broken after preparation: one
    # head goes NaN (the loss diverges inside the batched loop), one
    # support row goes to zero (aborted before stacking). Every episode
    # must end as it does alone in run_episode.
    real_prepare = harness.prepare_episode
    cfg = small_config(**{"n_tasks": "200"})
    second = harness.chunk_plan(
        cfg.n_tasks, harness.stack_width(cfg.n_ways, cfg.synthetic.dim))[1]
    broken = {second.start + 2: "nan_head", second.start + 5: "zero_row"}

    def prepare(emb, config, rng, diag=None, timings=None):
        prepared = real_prepare(emb, config, rng, diag, timings)
        how = broken.get(prepare.calls % config.n_tasks)
        prepare.calls += 1
        if how == "nan_head":
            prepared.head.weights[0, 0] = np.nan
        elif how == "zero_row":
            prepared.support_feats[1] = 0.0
        return prepared

    prepare.calls = 0
    monkeypatch.setattr(harness, "prepare_episode", prepare)
    # The call counter lives in this process, so no worker may fork.
    monkeypatch.setattr(harness, "worker_count", lambda n_tasks: 1)
    rep = run_eval(cfg)
    emb = harness._resolve_pool(cfg)
    alone, reasons = [], []
    for i in range(cfg.n_tasks):
        try:
            alone.append(run_episode(emb, cfg, episode_rng(cfg.seed, i)))
        except EpisodeAbort as abort:
            reasons.append(abort.reason)
    assert sorted(reasons) == ["proto_loss_diverged", "zero_support_row"]
    assert rep.per_task_accuracy == alone
    assert rep.diagnostics["aborted_episodes"] == 2
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
    # Every episode of this pool aborts. The cap is 2 of 200 tasks and
    # mean episodes run one per chunk, so the third abort ends the run.
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
    assert prepare.calls == 3


def test_aborted_episodes_excluded(monkeypatch):
    real_prepare = harness.prepare_episode

    def fake_prepare(emb, config, rng, diag=None, timings=None):
        fake_prepare.calls += 1
        if fake_prepare.calls - 1 == 5:
            raise EpisodeAbort("synthetic_test_abort")
        return real_prepare(emb, config, rng, diag, timings)

    def fake_finish(prepared, bank, config, diag=None, timings=None):
        fake_finish.calls += 1
        return float((fake_finish.calls - 1) % 2)

    fake_prepare.calls = 0
    fake_finish.calls = 0
    monkeypatch.setattr("fewproto.harness.prepare_episode", fake_prepare)
    monkeypatch.setattr("fewproto.harness.finish_episode", fake_finish)
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
    ("graph.rounds", 0),
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
