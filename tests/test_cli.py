import csv

import pytest

from conftest import make_mnist_files
from qprune.cli import main


def test_run_requires_valid_model(capsys):
    with pytest.raises(SystemExit):  # argparse rejects unknown choices
        main(["run", "--model", "vgg16", "--dataset", "mnist", "--field", "real"])


def test_bad_combo_exits_1(capsys):
    rc = main(["run", "--model", "lenet300", "--dataset", "cifar10", "--field", "real"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--train-subset", "-500", "train subset"),
        ("--rounds", "-3", "rounds"),
        ("--patience", "0", "patience"),
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


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_verify_without_pairs_exits_1(capsys, pairs):
    rc = main(["verify", "--pairs", pairs])
    captured = capsys.readouterr()
    assert rc == 1
    assert "config error" in captured.err and "pairs" in captured.err
    assert "PASS" not in captured.out


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
    assert "failed" in capsys.readouterr().err


def test_early_stop_flag_parses(tmp_path):
    data_dir = tmp_path / "mnist"
    make_mnist_files(data_dir, n_train=300, n_test=30)
    out_dir = tmp_path / "out"
    rc = main([
        "run", "--model", "lenet12", "--dataset", "mnist", "--field", "real",
        "--data", str(data_dir), "--out", str(out_dir),
        "--trials", "1", "--epochs", "1", "--rounds", "1", "--early-stop", "--patience", "2",
    ])
    assert rc == 0


def test_verify_subcommand_passes(capsys):
    rc = main(["verify", "--pairs", "500"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS hamilton-vs-matrix" in out
    assert "PASS sharded-gradients" in out
    assert "FAIL" not in out
    assert "param-count-table" in out
