import argparse
import csv
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from conftest import SRC, make_mnist_files, write_idx_images
from qprune.cli import _build_parser, main
from qprune.errors import ConfigError
from qprune.harness import ExperimentConfig


def test_run_requires_valid_model(capsys):
    rc = main(["run", "--model", "vgg16", "--dataset", "mnist", "--field", "real"])
    assert rc == 1  # a usage error is a config error, not argparse's exit 2 (a data error here)
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "vgg16" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model", "lenet12", "--dataset", "mnist", "--field", "real", "--epochs", "x"], "--epochs"),
        (["--dataset", "mnist", "--field", "real"], "--model"),
        (["--model", "lenet12", "--dataset", "mnist", "--field", "real", "--early-stop", "x"], "--early-stop"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    assert main(["run", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_bad_combo_exits_1(capsys):
    rc = main(["run", "--model", "lenet300", "--dataset", "cifar10", "--field", "real"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--train-subset", "-500", "train subset"),
        ("--rounds", "-3", "rounds"),
        ("--early-stop", "0", "patience"),
        ("--lr", "nan", "learning rate"),
        ("--lr", "inf", "learning rate"),
        ("--lr", "0", "learning rate"),
        ("--stop-threshold", "nan", "stop threshold"),
        ("--seed", "-1", "seed"),
    ],
)
def test_bad_numeric_flag_exits_1(tmp_path, capsys, flag, value, message):
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(tmp_path), "--out", str(tmp_path / "out"), flag, value,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


def run_parser():
    (subcommands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subcommands.choices["run"]


def test_run_flags_are_named_for_the_config_fields():
    dests = {a.dest for a in run_parser()._actions} - {"help", "model", "dataset", "field"}
    assert dests == {f.name for f in fields(ExperimentConfig)} - {"model", "dataset", "field"}


def test_readme_run_synopsis_lists_every_run_flag():
    readme = open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8").read()
    synopsis = readme[readme.index("```\nqprune run ") : readme.index("qprune verify")]
    flags = {s for a in run_parser()._actions for s in a.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == flags


def test_every_run_flag_reaches_the_config(tmp_path, monkeypatch):
    values = dict(
        trials=3, epochs=2, batch_size=7, lr=0.5, prune_rate=0.3, stop_threshold=0.4,
        patience=4, base_seed=9, data_dir=str(tmp_path / "d"), out_dir=str(tmp_path / "o"), workers=2,
        rounds=5, train_subset=11,
    )
    flags = {a.dest: a.option_strings[0] for a in run_parser()._actions if a.option_strings}
    argv = ["run", "--model", "lenet12", "--dataset", "mnist", "--field", "quat"]
    defaults = ExperimentConfig.from_model_dataset("lenet12", "mnist", "quat")
    for name, value in values.items():
        assert getattr(defaults, name) != value
        argv += [flags[name], str(value)]
    configs = []

    def record(config):
        configs.append(config)
        raise ConfigError("recorded")

    monkeypatch.setattr("qprune.harness.run_experiment", record)
    assert main(argv) == 1
    (config,) = configs
    assert (config.model, config.dataset, config.field) == ("lenet12", "mnist", "quat")
    assert {name: getattr(config, name) for name in values} == values


@pytest.mark.parametrize("out", ["a_file", "a_file/sub"])
def test_unwritable_out_exits_1_before_training(tmp_path, capsys, monkeypatch, out):
    make_mnist_files(tmp_path, n_train=240, n_test=60)
    (tmp_path / "a_file").write_text("not a directory")
    calls = []
    monkeypatch.setattr("qprune.harness.run_experiment", lambda config: calls.append(config))
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(tmp_path), "--out", str(tmp_path / out), "--trials", "1", "--epochs", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "a_file" in err
    assert calls == []


def test_missing_data_dir_exits_2(tmp_path, capsys):
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "out"),
        "--trials", "1", "--epochs", "1",
    ])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_empty_test_split_exits_2(tmp_path, capsys):
    make_mnist_files(tmp_path, n_train=60, n_test=0)
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(tmp_path), "--out", str(tmp_path / "out"),
        "--trials", "1", "--epochs", "1", "--rounds", "0",
    ])
    assert rc == 2
    assert "t10k-images-idx3-ubyte: no images" in capsys.readouterr().err


def test_a_file_that_is_not_gzip_exits_2(tmp_path, capsys):
    make_mnist_files(tmp_path, n_train=60, n_test=20)
    (tmp_path / "t10k-labels-idx1-ubyte").rename(tmp_path / "t10k-labels-idx1-ubyte.gz")
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(tmp_path), "--out", str(tmp_path / "out"), "--trials", "1", "--epochs", "1",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "t10k-labels-idx1-ubyte.gz" in err and "Traceback" not in err


def test_mnist_images_that_are_not_28x28_exit_2_before_training(tmp_path, capsys, monkeypatch):
    make_mnist_files(tmp_path, n_train=60, n_test=20)
    for prefix, n in (("train", 60), ("t10k", 20)):
        write_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte", np.zeros((n, 20, 20), dtype=np.uint8))
    calls = []
    monkeypatch.setattr("qprune.harness.run_trial", lambda *args: calls.append(args))
    rc = main([
        "run", "--model", "lenet300", "--dataset", "mnist", "--field", "real",
        "--data", str(tmp_path), "--out", str(tmp_path / "out"), "--trials", "1", "--epochs", "1",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "20x20" in err and "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_train_subset_larger_than_training_split_exits_1(tmp_path, capsys):
    make_mnist_files(tmp_path, n_train=240, n_test=60)
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(tmp_path), "--out", str(tmp_path / "out"),
        "--trials", "1", "--epochs", "1", "--rounds", "0", "--train-subset", "100000",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "100000" in err and "240" in err
    assert not (tmp_path / "out").exists()


def test_early_stop_on_a_one_image_subset_exits_1(tmp_path, capsys):
    make_mnist_files(tmp_path, n_train=240, n_test=60)
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(tmp_path), "--out", str(tmp_path / "out"),
        "--trials", "1", "--epochs", "1", "--rounds", "0", "--train-subset", "1", "--early-stop",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "early stopping" in err and "got 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_end_to_end_run_on_synthetic_mnist(tmp_path, capsys):
    data_dir = tmp_path / "mnist"
    make_mnist_files(data_dir, n_train=240, n_test=60)
    out_dir = tmp_path / "out"
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "quat",
        "--data", str(data_dir), "--out", str(out_dir),
        "--trials", "2", "--epochs", "1", "--rounds", "2", "--seed", "11",
        "--train-subset", "120",
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "wrote" in captured
    with open(out_dir / "sparsity_sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert [round(float(r["sparsity_fraction"]), 3) for r in rows] == [1.0, 0.8, 0.64]
    assert all(r["field"] == "quat" for r in rows)
    assert all(int(r["n_trials"]) == 2 for r in rows)


def test_determinism_byte_identical_csv(tmp_path):
    data_dir = tmp_path / "mnist"
    make_mnist_files(data_dir, n_train=120, n_test=60)
    blobs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        rc = main([
            "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
            "--data", str(data_dir), "--out", str(out_dir),
            "--trials", "1", "--epochs", "1", "--rounds", "1", "--seed", "3",
        ])
        assert rc == 0
        blobs.append((out_dir / "sparsity_sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_all_trials_failing_exits_3(tmp_path, capsys):
    data_dir = tmp_path / "mnist"
    make_mnist_files(data_dir, n_train=120, n_test=30)
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(data_dir), "--out", str(tmp_path / "out"),
        "--trials", "1", "--epochs", "1", "--rounds", "1", "--lr", "1e30",
    ])
    assert rc == 3
    out, err = capsys.readouterr()
    assert "trial seed=0: FAILED after 0 levels: NumericalError" in out
    assert "failed" in err


def test_early_stop_flag_parses(tmp_path):
    data_dir = tmp_path / "mnist"
    make_mnist_files(data_dir, n_train=300, n_test=30)
    out_dir = tmp_path / "out"
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(data_dir), "--out", str(out_dir),
        "--trials", "1", "--epochs", "1", "--rounds", "1", "--early-stop", "2",
    ])
    assert rc == 0


@pytest.mark.parametrize("flags, patience", [([], None), (["--early-stop"], 10), (["--early-stop", "3"], 3)])
def test_early_stop_flag_sets_the_patience(flags, patience):
    args = _build_parser().parse_args(["run", "--model", "lenet12", "--dataset", "mnist", "--field", "real", *flags])
    assert args.patience == patience


def test_verify_subcommand_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS hamilton-vs-matrix" in out
    assert "PASS sharded-gradients" in out
    assert "PASS sharded-eval" in out
    for check in ("layer-oracle", "gradients"):  # one line per quat_linear path
        assert f"PASS {check}/qlinear/direct" in out and f"PASS {check}/qlinear/block" in out
    assert "FAIL" not in out
    assert "param-count-table" in out


def test_verify_reports_a_failing_check_and_exits_3(capsys, monkeypatch):
    from qprune import verify

    monkeypatch.setattr(verify, "shard_logits_max_error", lambda: 1.0)
    rc = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 3
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == ["FAIL sharded-eval: rel error 1.000e+00 of logits over 2 and 3 shards vs one batch"]
    assert len(lines) == 31
    assert all(line.startswith("PASS ") for line in lines if line not in failed)
