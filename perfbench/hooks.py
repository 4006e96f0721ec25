"""Timing hooks installed from outside qprune, by replacing its public
functions and methods with wrappers for the length of one unit.

``Samples`` is the light set that every run installs: it timestamps set-up,
optimizer steps, evaluations, ``train`` calls and pruning levels, which is all
the end-to-end metrics need (about a microsecond per step).  ``Tracer`` is the
per-module set of the traced run: a span around every public tensor op
(forward, and backward through the closures the tape records), layer, model,
optimizer, pruning, evaluation, data and harness call, kept in memory and
reduced to per-name totals and self times.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
from collections import defaultdict
from time import perf_counter

from qprune import data, harness, layers, models, optim, pruning, tensor, training

MODULES = (tensor, layers, models, optim, pruning, training, data, harness)


class SetupDone(Exception):
    """Raised by a set-up probe once the first optimizer exists."""


class Patches:
    """Attributes replaced by wrappers; ``with`` restores them on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.update_wrapper(make(original), original))

    def wrap_function(self, fn, make) -> None:
        """Wrap ``fn`` under every qprune module name that binds it, since
        modules import each other's functions by name.  Wrappers keep the
        name and module of what they wrap, so they can be wrapped again."""
        wrapper = functools.update_wrapper(make(fn), fn)
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, name, fn))
                    setattr(module, name, wrapper)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def tensor_ops() -> dict[str, object]:
    """The public functions of ``qprune.tensor`` that build tensors."""
    return {
        name: fn
        for name, fn in vars(tensor).items()
        if inspect.isfunction(fn)
        and fn.__module__ == tensor.__name__
        and not name.startswith("_")
        and name != "active_tape"
    }


def layer_classes() -> dict[str, type]:
    """Every layer class with a ``forward`` of its own."""
    return {
        name: cls
        for name, cls in vars(layers).items()
        if isinstance(cls, type)
        and issubclass(cls, layers.Layer)
        and cls is not layers.Layer
        and "forward" in vars(cls)
    }


class Samples:
    """Raw end-to-end samples of the units run with these hooks installed."""

    def __init__(self):
        self.setup_s: list[float] = []  # per unit: unit start to the first optimizer
        # Per unit, the seconds between Adam.step returns within one train call.
        self.unit_intervals: list[list[float]] = []
        self.level_walls: list[float] = []  # s, one per ladder level
        self.train_s = 0.0
        self.train_eval_s = 0.0  # evaluation time inside train calls
        self.train_images = 0
        self.eval_s = 0.0
        self.eval_images = 0
        self.losses = 0
        self.nonfinite_losses = 0
        self.first_eval_rss_delta_mb: float | None = None
        self.stop_at_setup = False
        self._unit_start: float | None = None
        self._last_step: float | None = None
        self._level_start = 0.0
        self._in_train = 0

    def begin_unit(self, started: float | None = None) -> None:
        """Start a unit, at ``started`` on the ``perf_counter`` clock if given."""
        self._unit_start = perf_counter() if started is None else started
        self.unit_intervals.append([])

    @property
    def step_intervals(self) -> list[float]:
        return [s for unit in self.unit_intervals for s in unit]

    def install(self, patches: Patches) -> None:
        patches.wrap(optim.Adam, "__init__", self._adam_init)
        patches.wrap(optim.Adam, "step", self._step)
        patches.wrap_function(training.train, self._train)
        patches.wrap_function(training.evaluate_accuracy, self._eval)
        patches.wrap_function(pruning.iterative_lottery, self._lottery)
        patches.wrap_function(tensor.softmax_cross_entropy, self._loss)

    def _adam_init(self, init):
        def wrapper(opt, *args, **kwargs):
            init(opt, *args, **kwargs)
            if self._unit_start is not None:
                self.setup_s.append(perf_counter() - self._unit_start)
                self._unit_start = None
                if self.stop_at_setup:
                    raise SetupDone

        return wrapper

    def _step(self, step):
        def wrapper(opt, *args, **kwargs):
            step(opt, *args, **kwargs)
            now = perf_counter()
            if self._last_step is not None:
                self.unit_intervals[-1].append(now - self._last_step)
            self._last_step = now

        return wrapper

    def _train(self, train):
        def wrapper(*args, **kwargs):
            self._last_step = None
            self._in_train += 1
            start = perf_counter()
            try:
                return train(*args, **kwargs)
            finally:
                self.train_s += perf_counter() - start
                self._in_train -= 1

        return wrapper

    def _eval(self, evaluate):
        def wrapper(net, dataset, *args, **kwargs):
            first = self.first_eval_rss_delta_mb is None
            if first:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start = perf_counter()
            acc = evaluate(net, dataset, *args, **kwargs)
            now = perf_counter()
            if first:
                grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
                self.first_eval_rss_delta_mb = grown / 1024.0
            self.eval_s += now - start
            self.eval_images += len(dataset)
            if self._in_train:
                self.train_eval_s += now - start
                self._last_step = None  # the next step interval would contain this eval
            else:  # an evaluation outside training closes a ladder level
                self.level_walls.append(now - self._level_start)
                self._level_start = now
            return acc

        return wrapper

    def _lottery(self, lottery):
        def wrapper(*args, **kwargs):
            self._level_start = perf_counter()
            return lottery(*args, **kwargs)

        return wrapper

    def _loss(self, loss_fn):
        def wrapper(logits, labels):
            out = loss_fn(logits, labels)
            if tensor.active_tape() is not None:  # a training step, not an evaluation
                self.losses += 1
                self.train_images += len(labels)
                if not math.isfinite(float(out.data)):
                    self.nonfinite_losses += 1
            return out

        return wrapper


class Tracer:
    """Per-module spans.  A span's self time is its duration minus the time
    of the spans nested in it.

    Per-step spans are taken on every other training step; on the steps in
    between the wrappers pass straight through, so the two sets of step
    intervals give the tracing overhead from one window.  Spans inside an
    evaluation are folded into the evaluation's own span, so per-step
    figures describe training only.
    """

    def __init__(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])  # total s, self s, calls
        self.counts: dict[str, float] = defaultdict(float)
        self.intervals: dict[bool, list[float]] = {True: [], False: []}  # s, by traced
        # Over the traced step intervals: their seconds, and the self seconds
        # of the ops, Adam and input packing inside them.
        self.step_s = 0.0
        self.covered_s = 0.0
        self.on = True  # whether the current training step is traced
        self.tracing = True  # on, and not inside an evaluation
        self._stack: list[float] = [0.0]  # per open span: time of the spans nested in it
        self._in_eval = 0
        self._last_step: float | None = None
        self._covered = 0.0  # covered self seconds since the last step

    def _span(self, key: str, per_step: bool = False, before=None, covered: bool = False):
        """A wrapper factory timing each call as span ``key``.  A per-step
        span is taken only on traced training steps; ``before(*args)`` runs
        ahead of the timed call; a covered span's self time counts toward
        the step time it explains."""
        stack, spans = self._stack, self.spans

        def make(fn):
            span = spans[key]

            def wrapper(*args, **kwargs):
                if per_step and not self.tracing:
                    return fn(*args, **kwargs)
                if before is not None:
                    before(*args)
                stack.append(0.0)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = perf_counter() - start
                    own = took - stack.pop()
                    stack[-1] += took
                    span[0] += took
                    span[1] += own
                    span[2] += 1
                    if covered:
                        self._covered += own

            return wrapper

        return make

    def install(self, patches: Patches) -> None:
        for name, fn in tensor_ops().items():
            patches.wrap_function(fn, self._op(name))
        patches.wrap(tensor.Tape, "_record", self._record)
        for name, cls in layer_classes().items():
            patches.wrap(cls, "forward", self._span(f"layers.{name}", per_step=True))
        patches.wrap(
            models.Network, "prepare_input", self._span("models.prepare_input", per_step=True, covered=True)
        )
        patches.wrap(models.Network, "forward", self._span("models.forward", per_step=True))
        patches.wrap(optim.Adam, "step", self._adam)
        patches.wrap_function(pruning.global_magnitude_prune, self._span("pruning.prune"))
        patches.wrap_function(pruning.rewind, self._span("pruning.rewind"))
        patches.wrap_function(training.train, self._train)
        patches.wrap_function(training.evaluate_accuracy, self._eval)
        patches.wrap_function(pruning.iterative_lottery, self._span("harness.lottery"))
        patches.wrap_function(harness.run_trial, self._span("harness.trial"))
        patches.wrap_function(harness.run_experiment, self._span("harness.experiment"))
        patches.wrap_function(harness.emit_results, self._span("harness.emit"))
        patches.wrap_function(data.load_mnist, self._span("data.load"))
        patches.wrap_function(data.load_cifar, self._span("data.load"))

    def _op(self, op: str):
        count = self._count_gemm if op in ("matmul", "conv2d") else None
        return self._span(f"tensor.{op}.fwd", per_step=True, before=count, covered=True)

    def _count_gemm(self, a, b) -> None:
        """GEMM flops of a matmul or conv forward and of the backward it
        will record."""
        if tensor.active_tape() is None:
            return
        if a.data.ndim == 2:  # matmul
            (m, k), n = a.shape, b.shape[1]
            flop = 2.0 * m * k * n
        else:  # 3x3 conv as im2col GEMM: [F, C*9] x [C*9, H*W] per image
            n_img, c, h, w = a.shape
            flop = 2.0 * n_img * b.shape[0] * c * 9 * h * w
        grads = sum(t._needs_grad() for t in (a, b))
        self.counts["gemm_flop"] += flop * (1 + grads)

    def _record(self, record):
        makers = {}  # backward closure code -> wrapper factory of its span

        def wrapper(tape, out, backward_fn):
            if not self.on:
                return record(tape, out, backward_fn)
            code = backward_fn.__code__
            if code not in makers:  # keyed by the op that defines the closure
                op = backward_fn.__qualname__.split(".", 1)[0]
                makers[code] = self._span(f"tensor.{op}.bwd", covered=True)
            self.counts["tape_nodes"] += 1
            return record(tape, out, makers[code](backward_fn))

        return wrapper

    def _adam(self, step):
        timed = self._span("optim.adam", covered=True)(step)

        def wrapper(opt, *args, **kwargs):
            if self.on:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                timed(opt, *args, **kwargs)
                self.counts["adam_minflt"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            else:
                step(opt, *args, **kwargs)
            now = perf_counter()
            if self._last_step is not None:
                self.intervals[self.on].append(now - self._last_step)
                if self.on:
                    self.step_s += now - self._last_step
                    self.covered_s += self._covered
            self._last_step = now
            self._covered = 0.0
            self.on = not self.on
            self.tracing = self.on and not self._in_eval

        return wrapper

    def _train(self, train):
        timed = self._span("training.train")(train)

        def wrapper(*args, **kwargs):
            self._last_step = None
            return timed(*args, **kwargs)

        return wrapper

    def _eval(self, evaluate):
        timed = self._span("training.eval")(evaluate)

        def wrapper(net, dataset, *args, **kwargs):
            self._in_eval += 1
            self.tracing = False
            try:
                return timed(net, dataset, *args, **kwargs)
            finally:
                self._in_eval -= 1
                self.tracing = self.on and not self._in_eval
                self.counts["eval_images"] += len(dataset)
                self._last_step = None  # the next step interval would contain this eval

        return wrapper
