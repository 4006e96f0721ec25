"""The benchmark's workloads: which experiment each runs, on what data.
Why each was chosen is written in ``BENCHMARK.json``.

Each workload is one ``ExperimentConfig`` (a "unit"); a run repeats the unit
until its time is up.  All of them use ``workers=1`` and the default BLAS
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

# Synthetic file sizes.  MNIST keeps its published split, so set-up parses a
# full-size file.  CIFAR is cut to 5 x 1000 training images and a 500-image
# test split: one evaluation batch, which still allocates the full-size
# im2col buffer that sets conv2's peak memory.
MNIST_TRAIN, MNIST_TEST = 60000, 10000
CIFAR_PER_BATCH, CIFAR_TEST = 1000, 500


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    dataset: str
    field: str
    epochs: int
    train_subset: int
    trials: int
    rounds: int  # pruning levels after the dense one
    prunable: int  # prunable weights of the dense network, counted by hand
    full_epoch_steps: int  # optimizer steps in one epoch of the full-size dataset
    acc_floor: float  # dense test accuracy must exceed this
    lr: float | None = None  # None: the model's own learning rate

    def config_overrides(self) -> dict:
        return dict(
            lr=self.lr,
            trials=self.trials,
            epochs=self.epochs,
            train_subset=self.train_subset,
            rounds=self.rounds,
            stop_threshold=0.0,  # never stop a ladder early: every level runs
            workers=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conv2-quat-train",
            model="conv2",
            dataset="cifar10",
            field="quat",
            epochs=1,
            train_subset=1800,
            trials=1,
            rounds=0,
            # 3x3 convs 1->16 and 16->16 quaternions, then 4096->64->64 quaternions, 256->10 real
            prunable=4 * 9 * (16 + 16 * 16) + 4 * (4096 * 64 + 64 * 64) + 256 * 10,
            full_epoch_steps=834,
            acc_floor=0.5,
            # 5x the model's rate, so that 30 steps reach the accuracy plateau
            # and the accuracy canary does not hinge on how fast a seed learns.
            lr=1e-3,
        ),
        Workload(
            name="lenet300-real-train",
            model="lenet300",
            dataset="mnist",
            field="real",
            epochs=3,
            train_subset=12000,
            trials=1,
            rounds=0,
            prunable=784 * 300 + 300 * 100 + 100 * 10,
            full_epoch_steps=1000,
            acc_floor=0.6,
        ),
        Workload(
            name="lenet300-quat-ladder",
            model="lenet300",
            dataset="mnist",
            field="quat",
            epochs=2,
            train_subset=1200,
            trials=2,
            rounds=12,
            prunable=(784 * 300 + 300 * 100) // 4 + 100 * 10,
            full_epoch_steps=1000,
            acc_floor=0.5,
        ),
    )
}
