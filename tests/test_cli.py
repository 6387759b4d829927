import inspect
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fewproto import cli, verification
from fewproto.cli import build_parser, eval_config, main
from fewproto.embeddings import load_embedding_set, save_embedding_set
from fewproto.harness import (RunConfig, _resolve_pool, load_config_file,
                              load_report)
from fewproto.optim import grad_check

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_eval_out_in_a_missing_directory_fails_before_the_run(
        tmp_path, capsys, monkeypatch):
    def run_eval(config):
        raise AssertionError("run_eval called")

    monkeypatch.setattr(cli, "run_eval", run_eval)
    out = tmp_path / "missing" / "r.json"
    assert main(["eval", "--synthetic", "6,20,8,8.0,0.2", "--tasks", "2",
                 "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


def test_eval_out_that_is_a_directory_fails_before_the_run(
        tmp_path, capsys, monkeypatch):
    def run_eval(config):
        raise AssertionError("run_eval called")

    monkeypatch.setattr(cli, "run_eval", run_eval)
    assert main(["eval", "--synthetic", "6,20,8,8.0,0.2", "--tasks", "2",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(tmp_path) in err


def test_synth_out_that_is_a_directory_fails_before_the_pool(
        tmp_path, capsys, monkeypatch):
    def resolve_pool(config):
        raise AssertionError("pool built")

    monkeypatch.setattr(cli, "_resolve_pool", resolve_pool)
    assert main(["synth", "--out", str(tmp_path), "--synthetic",
                 "6,20,8,8.0,0.2"]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(tmp_path) in err


SYNTH = ["synth", "--out", "{tmp}/pool.emb", "--synthetic"]
EVAL = ["eval", "--synthetic", "6,9,12,4.0,0.5"]


@pytest.mark.parametrize("argv, message", [
    (EVAL + ["--mask-boost=-10000"], "mask.boost=-10000.0 must be >= 0"),
    (["eval", "--config", "{tmp}/missing.cfg"], "missing.cfg"),
    (["eval", "--data", "{tmp}/missing.emb"], "missing.emb"),
    (SYNTH + ["6,9,12"], "synthetic='6,9,12': synthetic spec must be"),
    (SYNTH + ["6,9,12,4.0,0.5", "--seed", "1.5"], "seed='1.5'"),
    (SYNTH + ["6,9,12,4.0,-0.5"], "synthetic.sigma=-0.5 must be >= 0"),
    (SYNTH + ["0,9,12,4.0,0.5"], "n_classes=0 must be >= 1"),
    (SYNTH + ["6,0,12,4.0,0.5"], "per_class=0 must be >= 1"),
    (SYNTH + ["6,9,0,4.0,0.5"], "dim=0 must be >= 1"),
    (["eval", "--config", "{tmp}/bad.cfg"], "bad.cfg:1: expected key = value"),
    (["eval", "--data", "{tmp}/short.emb"],
     "truncated header (byte offset 10)"),
    (EVAL + ["--shots", "9"], "pool has 0 classes with >= 24 records"),
    (SYNTH + ["6,9,12,4.0,0.5", "--seed", "-1"], "seed=-1 must be >= 0"),
    (EVAL + ["--top-m", "-1"], "graph.top_m=-1 must be >= 1"),
    (EVAL + ["--self-weight", "-1e999"],
     "graph.self_weight=-inf must be a finite float"),
    (SYNTH + ["6,30,8,3e38,1e38"],
     "synthetic=6,30,8,3e+38,1e+38: records of mean_scale=3e+38 plus noise"),
    (["eval", "--synthetic", "2,10,8,3.0,1.0", "--ways", "5"],
     "synthetic=2,10,8,3.0,1.0: pool has 0 classes with >= 20 records, "
     "need n_ways=5"),
    (SYNTH + ["6,9,12,4.0,0.5", "--seed", str(2 ** 64)],
     "seed=18446744073709551616 must be <= 18446744073709551615"),
])
def test_bad_input_exits_2_naming_its_fault(tmp_path, capsys, argv,
                                             message):
    (tmp_path / "bad.cfg").write_text("n_ways 3\n")
    (tmp_path / "short.emb").write_bytes(b"EMB1" + bytes(6))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pool.emb").exists()


@pytest.mark.parametrize("given", [
    ["--self-weight", "-1e-3"], ["--self-weight=-1e-3"],
    ["--self-weight", "-0.001"], ["--self-weight", "-1E-3"],
    ["--config", "{tmp}/run.cfg"]])
def test_negative_flag_value_parses_as_in_a_config_file(tmp_path, given):
    (tmp_path / "run.cfg").write_text("graph.self_weight = -1e-3\n")
    args = build_parser().parse_args(
        ["eval", "--synthetic", "6,9,12,4.0,0.5",
         *(arg.format(tmp=tmp_path) for arg in given)])
    assert eval_config(args).graph.self_weight == -0.001


def test_synth_writes_loadable_file(tmp_path, capsys):
    path = tmp_path / "pool.emb"
    rc = main(["synth", "--out", str(path), "--synthetic", "6,9,12,4.0,0.5",
               "--seed", "3"])
    assert rc == 0
    assert "6 classes" in capsys.readouterr().out
    emb = load_embedding_set(path)
    assert emb.n_records == 54
    assert emb.dim == 12


@pytest.mark.parametrize("strategy", ["mean", "trained"])
def test_synth_pool_is_the_pool_eval_synthetic_reads(tmp_path, capsys,
                                                     strategy):
    spec, seed, pool = "8,12,16,3.0,1.5", "7", tmp_path / "pool.emb"
    assert main(["synth", "--out", str(pool), "--synthetic", spec,
                 "--seed", seed]) == 0
    run = ["--ways", "3", "--shots", "2", "--queries", "4", "--tasks", "8",
           "--seed", seed, "--proto", strategy, "--proto-epochs", "60",
           "--top-m", "4"]
    reports = []
    for source in (["--data", str(pool)], ["--synthetic", spec]):
        out = tmp_path / "report.json"
        assert main(["eval", *source, *run, "--out", str(out)]) == 0
        reports.append(load_report(out))
    from_file, inline = reports
    assert from_file.per_task_accuracy == inline.per_task_accuracy
    assert from_file.diagnostics == inline.diagnostics
    capsys.readouterr()


def test_synth_without_seed_writes_the_pool_eval_synthetic_reads(
        tmp_path, capsys, monkeypatch):
    # An unseeded synth takes RunConfig's seed, as an unseeded eval does.
    flats = []

    class Recorded(RunConfig):
        @classmethod
        def from_flat(cls, flat):
            flats.append(dict(flat))
            return RunConfig.from_flat(flat)

    monkeypatch.setattr(cli, "RunConfig", Recorded)
    spec, pool = "20,50,64,3.0,1.5", tmp_path / "p.emb"
    assert main(["synth", "--synthetic", spec, "--out", str(pool)]) == 0
    assert flats == [{"synthetic": spec}]
    args = build_parser().parse_args(["eval", "--synthetic", spec])
    expected = tmp_path / "expected.emb"
    save_embedding_set(_resolve_pool(eval_config(args)), expected)
    assert pool.read_bytes() == expected.read_bytes()
    capsys.readouterr()


def test_eval_from_file_writes_report(tmp_path, capsys):
    pool = tmp_path / "pool.emb"
    main(["synth", "--out", str(pool), "--synthetic", "6,20,8,8.0,0.2",
          "--seed", "1"])
    out = tmp_path / "report.json"
    rc = main(["eval", "--data", str(pool), "--ways", "3", "--shots", "2",
               "--queries", "4", "--tasks", "4", "--seed", "9",
               "--proto-epochs", "60", "--top-m", "4", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    report = load_report(out)
    assert report.summary_line() == printed
    assert report.config["n_ways"] == 3
    assert report.config["proto.epochs"] == 60
    assert len(report.per_task_accuracy) == 4


def test_eval_synthetic_inline(capsys):
    rc = main(["eval", "--synthetic", "5,12,8,6.0,0.3", "--ways", "3",
               "--shots", "2", "--queries", "3", "--tasks", "2", "--seed",
               "4", "--proto-epochs", "40", "--top-m", "4", "--proto",
               "mean", "--mask", "off"])
    assert rc == 0
    assert "tasks)" in capsys.readouterr().out


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "synthetic = 5,12,8,6.0,0.3\n"
        "n_ways = 2\n"
        "k_shots = 2\n"
        "n_queries = 3\n"
        "n_tasks = 2\n"
        "graph.top_m = 4\n"
        "proto.epochs = 40\n"
        "seed = 5\n")
    out = tmp_path / "report.json"
    rc = main(["eval", "--config", str(cfg_path), "--ways", "3",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["config"]["n_ways"] == 3  # flag beats file
    assert report["config"]["k_shots"] == 2  # file value survives
    capsys.readouterr()


def test_eval_flags_reach_the_config(tmp_path, capsys):
    # Every eval flag set to a value other than its default must show in
    # the report's config echo under its config key.
    from fewproto.harness import RunConfig
    pool = tmp_path / "pool.emb"
    main(["synth", "--out", str(pool), "--synthetic", "5,12,8,6.0,0.3"])
    flags = [
        ("--ways", "n_ways", 3), ("--shots", "k_shots", 2),
        ("--queries", "n_queries", 3), ("--tasks", "n_tasks", 2),
        ("--seed", "seed", 4), ("--proto", "proto.strategy", "mean"),
        ("--mask", "mask.enabled", False), ("--top-m", "graph.top_m", 4),
        ("--self-weight", "graph.self_weight", 0.5),
        ("--rounds", "graph.rounds", 2), ("--head-epochs", "head.epochs", 3),
        ("--head-lr", "head.lr", 0.02), ("--n-aug", "head.n_aug", 2),
        ("--proto-epochs", "proto.epochs", 7),
        ("--proto-lr", "proto.lr", 0.05),
        ("--entropy-weight", "proto.entropy_weight", 0.2),
        ("--class-weight", "proto.class_weight", 0.5),
        ("--mask-scale", "mask.scale", 0.2),
        ("--mask-boost", "mask.boost", 100.0),
    ]
    sources = [("--synthetic", "synthetic", "5,12,8,6.0,0.3"),
               ("--data", "data", str(pool))]
    defaults = RunConfig().to_flat()
    assert {key for _, key, _ in flags + sources} == set(defaults)
    for source in sources:
        argv = ["eval"]
        for flag, key, value in flags + [source]:
            assert value != defaults[key], key
            argv += [flag, "off" if value is False else str(value)]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        echo = load_report(out).config
        for _, key, value in flags + [source]:
            assert echo[key] == value, key
    capsys.readouterr()


def test_eval_requires_a_source(capsys):
    rc = main(["eval", "--tasks", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# Two 1-d classes whose means sit at +-FLOAT32_MAX, with no noise.
EDGE_SPEC = "2,4,1,3.4028234663852886e+38,0.0"


def test_pool_at_the_float32_edge_runs_end_to_end(tmp_path, capsys):
    assert main(["eval", "--synthetic", EDGE_SPEC, "--ways", "2", "--shots",
                 "1", "--queries", "1", "--top-m", "1", "--tasks", "2",
                 "--proto", "mean"]) == 0
    assert re.fullmatch(r"\d+\.\d\d% ± \d+\.\d\d% \(2 tasks\)\n",
                        capsys.readouterr().out)
    out = tmp_path / "edge.emb"
    assert main(["synth", "--out", str(out), "--synthetic", EDGE_SPEC]) == 0
    emb = load_embedding_set(out)
    assert emb.n_records == 8 and emb.dim == 1
    assert {abs(v) for v in emb.vectors[:, 0].tolist()} == {
        3.4028234663852886e+38}


def test_eval_rejects_bad_synthetic_spec(capsys):
    rc = main(["eval", "--synthetic", "1,2,3"])
    assert rc == 2
    assert "synthetic spec" in capsys.readouterr().err


def test_eval_rejects_out_of_range_synthetic_spec(capsys):
    rc = main(["eval", "--synthetic", "0,50,64,1.0,1.0"])
    assert rc == 2
    assert "synthetic" in capsys.readouterr().err


@pytest.mark.parametrize("form, value, name", [
    ("eval", "1e300", "mean_scale"), ("synth", "1e300", "mean_scale"),
    ("synth", "nan", "synthetic.sigma")])
def test_synthetic_pool_beyond_float32_names_its_parameter(
        tmp_path, capsys, form, value, name):
    out = tmp_path / "pool.emb"
    spec = (f"6,30,8,{value},0.1" if name == "mean_scale"
            else f"6,30,8,1.0,{value}")
    if form == "eval":
        argv = ["eval", "--synthetic", spec, "--tasks", "2"]
    else:
        argv = ["synth", "--out", str(out), "--synthetic", spec]
    assert main(argv) == 2
    assert f"{name}=" in capsys.readouterr().err
    assert not out.exists()


def test_synthetic_records_beyond_float32_name_both_scales(tmp_path, capsys):
    # Each scale fits float32, but their sum does not.
    out = tmp_path / "pool.emb"
    assert main(["synth", "--out", str(out), "--synthetic",
                 "6,30,8,3e38,1e38"]) == 2
    err = capsys.readouterr().err
    assert "mean_scale=3e+38" in err and "noise_sigma=1e+38" in err
    assert not out.exists()


def test_readme_config_example_is_valid(tmp_path):
    block = re.search(r"Config files are flat.*?```\n(.*?)```", README,
                      re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    flat = load_config_file(path)
    assert len(flat) > 1
    RunConfig.from_flat(flat).validate()


def test_readme_commands_parse(tmp_path, capsys):
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("fewproto "):
                commands.append(shlex.split(line, comments=True)[1:])
    assert {argv[0] for argv in commands} == {"synth", "eval", "gradcheck"}
    for argv in commands:
        args = build_parser().parse_args(argv)
        if args.command == "eval":
            eval_config(args).validate()
        if args.command == "synth":  # run it, writing under tmp_path
            out = tmp_path / args.out
            assert main([*argv, "--out", str(out)]) == 0
            assert load_embedding_set(out).n_records == 20 * 50
    capsys.readouterr()


def test_gradcheck_passes(capsys, monkeypatch):
    monkeypatch.setattr(verification, "TRIALS", 5)
    rc = main(["gradcheck"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gradcheck: 10 checks, max relative error" in out


def test_gradcheck_nonzero_exit_on_failure(capsys, monkeypatch):
    # Force a failure by demanding an impossible tolerance.
    monkeypatch.setattr(verification, "TOLERANCE", 1e-18)
    monkeypatch.setattr(verification, "TRIALS", 2)
    rc = main(["gradcheck"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_gradient_gate_takes_no_settings(capsys):
    # The gate's trials, seed, tolerance and step are constants, so no
    # flag or argument can loosen it.
    for flag, value in [("--trials", "5"), ("--tolerance", "1"),
                        ("--seed", "1")]:
        with pytest.raises(SystemExit) as exit_:
            main(["gradcheck", flag, value])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not inspect.signature(
        verification.run_gradcheck_suite).parameters
    assert "h" not in inspect.signature(grad_check).parameters


def test_console_entry_point_runs():
    # The full gate, as a user runs it.
    proc = subprocess.run(
        [sys.executable, "-m", "fewproto.cli", "gradcheck"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "gradcheck: 200 checks, max relative error" in proc.stdout


def test_determinism_across_processes(tmp_path):
    args = ["eval", "--synthetic", "5,12,8,6.0,0.3", "--ways", "3",
            "--shots", "2", "--queries", "3", "--tasks", "3", "--seed", "8",
            "--proto-epochs", "50", "--top-m", "4"]
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fewproto.cli", *args, "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        raw = json.loads(out.read_text())
        raw.pop("wall_time")
        reports.append(json.dumps(raw, sort_keys=True))
    assert reports[0] == reports[1]


def test_import_loads_no_scipy(tmp_path):
    # The runtime depends on numpy alone; scipy is a test-only dependency.
    # A run loads multiprocessing only when it forks workers. Nothing
    # loads numpy.ma, whose import costs about 17 ms (np.unique loads
    # it): not building a synthetic or an EMB1 pool, nor an episode.
    script = (
        "import sys, fewproto\n"
        "from fewproto import harness\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'numpy.ma' or\n"
        "                  m.split('.')[0] in ('scipy', 'multiprocessing',\n"
        "                                      'concurrent'))\n"
        "print(loaded())\n"
        "cfg = harness.RunConfig.from_flat({'synthetic': '8,25,16,8.0,0.3',"
        " 'n_ways': 3, 'k_shots': 2, 'n_queries': 3, 'graph.top_m': 4,"
        " 'proto.epochs': 5})\n"
        "pool = harness._resolve_pool(cfg)\n"
        f"fewproto.save_embedding_set(pool, {str(tmp_path / 'p.emb')!r})\n"
        f"pool = fewproto.load_embedding_set({str(tmp_path / 'p.emb')!r})\n"
        "fewproto.run_episode(pool, cfg, harness.episode_rng(0, 0))\n"
        "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
