"""The behaviour gate: the CSV bytes of the three benchmark workloads at
seed 7, and the names and verdicts of ``qprune verify``'s lines.

Each workload runs as ``perfbench/run.py`` runs one unit: the synthetic
data of ``perfbench/synth.py`` at the sizes of ``perfbench/workloads.py``,
then ``run_experiment`` and ``emit_results``.  Nothing under ``perfbench/``
is written.  The bits depend on numpy, the BLAS build, the BLAS thread count
(LeNets) and ``training.SHARDS`` (conv nets), so the hashes are pinned under
that environment key and the test skips, naming the key, on any other.  A
change that moves bits on purpose states the old and new hashes.
"""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from conftest import SRC
from qprune import training, verify
from qprune.harness import ExperimentConfig, emit_results, run_experiment

PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")
SEED = 7

# (numpy, BLAS name, BLAS version, BLAS threads, training.SHARDS)
PINNED_KEY = ("2.4.6", "scipy-openblas", "0.3.31.188.0", 2, 2)
# workload: sha256 of (training_curve.csv, sparsity_sweep.csv)
PINNED = {
    "conv2-quat-train": (
        "b82fe9fb23feea2bba533d0352d8d1cf0ea2be432f066b7c8da865c417695b1b",
        "29458ea251c7a21ce784dd549299c2927fe332c4bb71519f7a2df30fbeacdad0",
    ),
    "lenet300-real-train": (
        "b64364ca9560b836ab28976bb9956d3c24780a5f904066516bb40ef91a8d3ece",
        "1785c3beb1d5656b80e6ca490953f31c5a7987b2a2306424196ba3798351165a",
    ),
    "lenet300-quat-ladder": (
        "996e3539412cfd4fe177d146929e97870dda313f46abb1647b9f71e30630e8ae",
        "e79454f43063d8e8b93a4131488668da0cb28a5532cfde428f2cfca0a589036d",
    ),
}
# qprune verify's check names, in order; their error digits follow the BLAS and are not pinned.
VERIFY_LINES = [
    "hamilton-vs-matrix",
    *(f"layer-oracle/{n}" for n in ("qlinear/direct", "qlinear/block", "qconv")),
    *(f"gradients/{n}" for n in ("linear", "conv", "qlinear/direct", "qlinear/block", "qconv", "loss")),
    "sharded-gradients",
    "sharded-eval",
    *(f"param-count-exact/{n}/real/conv" for n in ("conv2", "conv4", "conv6")),
    *(f"param-count-exact/lenet300/{f}/all" for f in ("quat", "real")),
    *(f"param-count-table/{n}/{f}/{part}" for n in ("conv2", "conv4", "conv6")
      for f in ("quat", "real") for part in ("all", "conv")),
    *(f"param-count-table/lenet300/{f}/all" for f in ("quat", "real")),
]


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


workloads, synth = _perfbench("workloads"), _perfbench("synth")


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    """Seed-7 synthetic data per dataset, written once for the module."""
    root = tmp_path_factory.mktemp("golden")
    made = {}

    def get(dataset: str) -> str:
        if dataset not in made:
            path = made[dataset] = str(root / dataset)
            if dataset == "mnist":
                synth.write_mnist(path, SEED, workloads.MNIST_TRAIN, workloads.MNIST_TEST)
            else:
                synth.write_cifar10(path, SEED, workloads.CIFAR_PER_BATCH, workloads.CIFAR_TEST)
        return made[dataset]

    return get


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_csv_bytes_match_the_pinned_hashes(name, data_dirs, tmp_path):
    w = workloads.WORKLOADS[name]
    config = ExperimentConfig.from_model_dataset(
        w.model, w.dataset, w.field, data_dir=data_dirs(w.dataset), base_seed=SEED, **w.config_overrides()
    )
    emit_results(run_experiment(config), str(tmp_path))
    with open(tmp_path / "manifest.json") as f:
        env = json.load(f)["environment"]
    key = (env["numpy"], env["blas"]["name"], env["blas"]["version"], env["blas_threads"], training.SHARDS)
    if key != PINNED_KEY:
        pytest.skip(f"hashes are pinned for {PINNED_KEY}, not for this environment's {key}")
    hashes = tuple(_sha256(tmp_path / f) for f in ("training_curve.csv", "sparsity_sweep.csv"))
    assert hashes == PINNED[name]


def test_verify_lines_keep_their_names_and_pass():
    assert len(VERIFY_LINES) == 31
    lines = [(name, ok) for name, ok, _detail in verify.checks()]
    assert lines == [(name, True) for name in VERIFY_LINES]
