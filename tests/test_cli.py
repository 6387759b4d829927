import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fewproto import cli
from fewproto.cli import build_parser, eval_config, main
from fewproto.embeddings import load_embedding_set
from fewproto.harness import RunConfig, load_config_file, load_report

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


def test_synth_writes_loadable_file(tmp_path, capsys):
    path = tmp_path / "pool.emb"
    rc = main(["synth", "--out", str(path), "--classes", "6", "--per-class",
               "9", "--dim", "12", "--mean-scale", "4.0", "--sigma", "0.5",
               "--seed", "3"])
    assert rc == 0
    assert "6 classes" in capsys.readouterr().out
    emb = load_embedding_set(path)
    assert emb.n_records == 54
    assert emb.dim == 12


def test_eval_from_file_writes_report(tmp_path, capsys):
    pool = tmp_path / "pool.emb"
    main(["synth", "--out", str(pool), "--classes", "6", "--per-class", "20",
          "--dim", "8", "--mean-scale", "8.0", "--sigma", "0.2", "--seed", "1"])
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
    main(["synth", "--out", str(pool), "--classes", "5", "--per-class",
          "12", "--dim", "8", "--mean-scale", "6.0", "--sigma", "0.3"])
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
    ("synth", "nan", "noise_sigma")])
def test_synthetic_pool_beyond_float32_names_its_parameter(
        tmp_path, capsys, form, value, name):
    out = tmp_path / "pool.emb"
    if form == "eval":
        argv = ["eval", "--synthetic", f"6,30,8,{value},0.1", "--tasks", "2"]
    elif name == "mean_scale":
        argv = ["synth", "--out", str(out), "--classes", "6", "--per-class",
                "30", "--dim", "8", "--mean-scale", value, "--sigma", "0.1"]
    else:
        argv = ["synth", "--out", str(out), "--classes", "6", "--per-class",
                "30", "--dim", "8", "--mean-scale", "1.0", "--sigma", value]
    assert main(argv) == 2
    assert f"{name}=" in capsys.readouterr().err
    assert not out.exists()


def test_synthetic_records_beyond_float32_name_both_scales(tmp_path, capsys):
    # Each scale fits float32, but their sum does not.
    out = tmp_path / "pool.emb"
    assert main(["synth", "--out", str(out), "--classes", "6", "--per-class",
                 "30", "--dim", "8", "--mean-scale", "3e38",
                 "--sigma", "1e38"]) == 2
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


def test_readme_commands_parse():
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


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--trials", "5", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_gradcheck_nonzero_exit_on_failure(capsys, monkeypatch):
    # Force a failure by demanding an impossible tolerance.
    rc = main(["gradcheck", "--trials", "2", "--tolerance", "1e-18"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fewproto.cli", "gradcheck", "--trials", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "max relative error" in proc.stdout


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


def test_import_loads_no_scipy():
    # The runtime depends on numpy alone; scipy is a test-only dependency.
    # A run loads multiprocessing only when it forks workers.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fewproto; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('scipy', 'multiprocessing', "
         "'concurrent')))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
