"""Optimization and evaluation: ADAM, multi-task objectives, noise sweeps,
and the bootstrap significance test.

One classifier path, ``task_logits`` (features, time mean, own-head
logits, written once over tape values), serves ``evaluate``,
``clip_logits`` and training, where one pass gives a step's loss and its
logged batch accuracy.

Training is deterministic given (seed, config): batches, noise, and
evaluation sets all derive from SeedSequence folding, and every reduction
runs in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tape
from .errors import LengthMismatch, NonFiniteFeatures, NonFiniteLoss, ShapeMismatch, UnknownTask
from .frontend import FrontendConfig, features_graph, require_frontend_rate, variant_name
from .params import Gradients, ParamSet, init_multitask_params, project_params
from .tasks import TaskSpec, sample_batch, test_set

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

WINDOW_S = 1.0
EVAL_BATCH_CLIPS = 64  # clips whose windows share one task_logits call in evaluate
# resamples that bootstrap_diff draws at once: its memory is this many rows of
# indices and differences, whatever the resample count
BOOTSTRAP_BLOCK = 1024


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    first_moment: dict
    second_moment: dict
    step_count: int
    lr: float


def init_adam(params: ParamSet, lr: float) -> AdamState:
    return AdamState(
        first_moment={k: np.zeros_like(v) for k, v in params.items()},
        second_moment={k: np.zeros_like(v) for k, v in params.items()},
        step_count=0,
        lr=lr,
    )


def adam_step(state: AdamState, params: ParamSet, grads: Gradients,
              cfg: FrontendConfig) -> tuple[AdamState, ParamSet]:
    """One bias-corrected ADAM update of every key, then constraint projection.

    A key whose gradient has been zero since step 1 keeps zero moments, so
    its update is ``0 / (0 + eps) = 0`` and its value keeps its bits.
    """
    params.require_congruent(grads)
    if set(state.first_moment) != set(params):
        raise ShapeMismatch("optimizer state does not match parameter set")
    t = state.step_count + 1
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    new_params = {}
    m_out, v_out = {}, {}
    for key, value in params.items():
        g = grads[key]
        m = ADAM_BETA1 * state.first_moment[key] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.second_moment[key] + (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        m_out[key], v_out[key] = m, v
        new_params[key] = value - state.lr * update
    next_state = replace(state, first_moment=m_out, second_moment=v_out, step_count=t)
    return next_state, project_params(ParamSet(new_params), cfg)


@dataclass(frozen=True)
class MultiHead:
    """Shared frontend parameters with one linear head per task."""

    params: ParamSet
    cfg: FrontendConfig
    class_counts: tuple[int, ...]

    @property
    def n_tasks(self) -> int:
        return len(self.class_counts)


def multitask_graph(xs: np.ndarray, labels: np.ndarray, task_ids: np.ndarray,
                    params, cfg: FrontendConfig, n_tasks: int):
    """Kronecker-masked multi-task loss: each example feeds only its own head.

    The total is the batch mean of per-example own-head cross-entropies;
    with one task it is the plain mean cross-entropy of head 0.  Returns
    ``(loss, leaves, correct)``, ``correct[b]`` whether example b's
    own-head argmax is its label.
    """
    if np.any(task_ids >= n_tasks) or np.any(task_ids < 0):
        raise UnknownTask("batch contains a task id with no head")
    leaves = {
        name: value if isinstance(value, tape.Var) else tape.leaf(value)
        for name, value in params.items()
    }
    total = None
    correct = np.empty(xs.shape[0], dtype=bool)
    for rows, logits in task_logits(xs, task_ids, leaves, cfg).values():
        ce = tape.softmax_cross_entropy(logits, labels[rows])
        total = ce if total is None else total + ce
        correct[rows] = logits.value.argmax(axis=1) == labels[rows]
    return total * (1.0 / xs.shape[0]), leaves, correct


def task_logits(xs: np.ndarray, task_ids: np.ndarray, params, cfg: FrontendConfig) -> dict:
    """Features -> time mean -> own-head logits, on the tape.

    ``params`` maps names to Vars or arrays (constants).  Returns
    ``{k: (rows, logits Var)}`` for every task id k in ``task_ids``, in
    increasing k; an absent task's head never enters the graph.
    """
    pooled = tape.reduce_mean(features_graph(xs, params, cfg), axis=2)
    out = {}
    for k in np.unique(task_ids):
        rows = np.nonzero(task_ids == k)[0]
        out[int(k)] = rows, tape.matmul(pooled[rows], params[f"head{k}_weights"]) + params[f"head{k}_bias"]
    return out


def stack_batch(batch, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, T) samples, labels and task ids of (Waveform, label, task_id) triples."""
    if not batch:
        raise ValueError("batch must be non-empty")
    if len({len(x.samples) for x, _, _ in batch}) != 1:
        raise ValueError("batch waveforms must share one length")
    for x, _, _ in batch:
        require_frontend_rate(x)
    xs = np.stack([x.samples for x, _, _ in batch], dtype=dtype)
    labels = np.asarray([y for _, y, _ in batch])
    task_ids = np.asarray([k for _, _, k in batch])
    return xs, labels, task_ids


def multitask_loss(batch, model: MultiHead) -> float:
    """Float64 batch loss of (Waveform, label, task_id) triples under the
    model: ``multitask_loss_and_grad`` with every parameter a float64
    constant, so no graph is kept for a backward pass."""
    constants = {name: tape.constant(np.asarray(value, dtype=np.float64)) for name, value in model.params.items()}
    return multitask_loss_and_grad(batch, constants, model.cfg, model.n_tasks)[0]


def multitask_loss_and_grad(batch, params, cfg: FrontendConfig, n_tasks: int):
    """``(loss, grads, correct, task_ids)``: the batch loss, its exact
    reverse-mode gradient and ``multitask_graph``'s ``correct``.

    ``params`` maps names to arrays or Vars.  A name given as a
    ``tape.constant`` gets a zero gradient, and no part of the graph that
    only it reaches is differentiated.  The batch is stacked in the dtype
    of the head weights, as ``evaluate`` stacks its windows.
    """
    xs, labels, task_ids = stack_batch(batch, params["head0_weights"].dtype)
    loss, leaves, correct = multitask_graph(xs, labels, task_ids, params, cfg, n_tasks)
    value = float(loss.value)
    if not np.isfinite(value):
        raise NonFiniteLoss(f"loss evaluated to {value}")
    tape.backward(loss)
    grads = Gradients({
        name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        for name, leaf in leaves.items()
    })
    return value, grads, correct, task_ids


@dataclass
class TrainResult:
    model: MultiHead
    metrics: list  # rows: dict(step, task_id, loss, accuracy), before the step's update
    snapshots: dict  # step -> ParamSet


def train(tasks: list[TaskSpec], cfg: FrontendConfig, steps: int, batch_size: int,
          lr: float, seed: int, *, log_every: int = 50,
          freeze_frontend: bool = False) -> TrainResult:
    """Deterministic float32 multi-task training run.

    Snapshots are taken at steps {0, steps//2, steps}.
    """
    if not tasks:
        raise ValueError(f"training needs at least 1 task, got tasks={tasks}")
    if steps < 1:
        raise ValueError(f"training needs at least 1 step, got steps={steps}")
    if batch_size < 1:
        raise ValueError(f"a batch needs at least 1 clip, got batch_size={batch_size}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be a finite number above 0, got lr={lr}")
    if log_every < 1:
        raise ValueError(f"metrics need a logging interval of at least 1 step, got log_every={log_every}")
    class_counts = [t.num_classes for t in tasks]
    params = init_multitask_params(cfg, class_counts, dtype=np.float32)
    state = init_adam(params, lr)
    frozen = {k for k in params if freeze_frontend and not k.startswith("head")}
    metrics: list[dict] = []
    snapshots = {0: params.copy()}
    for step in range(1, steps + 1):
        batch = sample_batch(tasks, batch_size, seed, step)
        # a frozen name enters as a constant: its gradient is zero from step 1, so
        # its ADAM moments stay zero and its update is 0 / (0 + eps) = 0
        inputs = {k: tape.constant(v) if k in frozen else v for k, v in params.items()}
        loss, grads, correct, task_ids = multitask_loss_and_grad(batch, inputs, cfg, len(tasks))
        state, params = adam_step(state, params, grads, cfg)
        if step % log_every == 0 or step == steps:
            for k in range(len(tasks)):
                mine = correct[task_ids == k]  # NaN if the batch has none of task k
                metrics.append({"step": step, "task_id": k, "loss": loss,
                                "accuracy": float(mine.mean()) if mine.size else float("nan")})
        if step == steps // 2:
            snapshots[step] = params.copy()
    snapshots[steps] = params.copy()
    return TrainResult(MultiHead(params, cfg, tuple(class_counts)), metrics, snapshots)


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    ci95: float
    n_examples: int


def _split_windows(samples: np.ndarray, window: int) -> list[np.ndarray]:
    """Consecutive non-overlapping windows; a short clip is one window."""
    if len(samples) < window:
        return [samples]
    return [samples[w * window: (w + 1) * window] for w in range(len(samples) // window)]


def _window_batch(model: MultiHead, clips, task_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-second windows of ``clips`` stacked in the head's dtype,
    (windows, T), and the index of each window's clip.

    The stack is cast as it is made, so no float64 copy of the batch is
    held.  A clip not at the frontend's rate raises BadRate.
    """
    windows, owners = [], []
    for i, wav in enumerate(clips):
        require_frontend_rate(wav)
        pieces = _split_windows(wav.samples, round(WINDOW_S * wav.sample_rate))
        windows += pieces
        owners += [i] * len(pieces)
    return np.stack(windows, dtype=model.params[f"head{task_index}_weights"].dtype), np.asarray(owners)


def _mean_window_logits(model: MultiHead, xs: np.ndarray, owners: np.ndarray, task_index: int,
                        start: int = 0) -> np.ndarray:
    """(clips, classes) head logits of a ``_window_batch``, each clip's
    averaged over its windows.

    Every window goes through ``task_logits`` in one batch.  The clips
    themselves are not needed, so a caller may drop them first.  Non-finite
    logits raise NonFiniteFeatures naming clip ``start + i``.
    """
    logits = task_logits(xs, np.full(len(xs), task_index), model.params, model.cfg)[task_index][1].value
    means = np.stack([logits[owners == i].mean(axis=0) for i in range(owners[-1] + 1)])
    bad = np.flatnonzero(~np.isfinite(means).all(axis=1))
    if bad.size:
        raise NonFiniteFeatures(f"clip {start + bad[0]} has non-finite logits {means[bad[0]]}")
    return means


def clip_logits(model: MultiHead, waveform, task_index: int = 0) -> np.ndarray:
    """Head logits for one clip, averaged over its one-second windows."""
    xs, owners = _window_batch(model, [waveform], task_index)
    return _mean_window_logits(model, xs, owners, task_index)[0]


def evaluate(model: MultiHead, task: TaskSpec, n_examples: int, seed: int,
             task_index: int = 0) -> EvalResult:
    """Held-out accuracy with a normal-approximation 95% interval.

    Clips longer than one second are split into consecutive non-overlapping
    one-second windows whose logits are averaged before the argmax.  The
    clip count and the head are checked before any clip is made.  Each
    chunk of ``EVAL_BATCH_CLIPS`` clips is made just before it runs, and
    its clips are dropped once their windows are stacked in the head's
    dtype, before the features are made, so memory does not grow with
    ``n_examples``.
    """
    if n_examples < 1:
        raise ValueError(f"evaluation needs at least 1 clip, got n_examples={n_examples}")
    bias = model.params.get(f"head{task_index}_bias")
    if bias is None:
        raise UnknownTask(f"task index {task_index} has no head; "
                          f"the model's head count is {model.n_tasks}")
    if bias.size != task.num_classes:
        raise ShapeMismatch(f"head {task_index} has {bias.size} classes, "
                            f"task {task.name!r} has {task.num_classes}")
    correct = sum(_chunk_correct(model, task, min(EVAL_BATCH_CLIPS, n_examples - start), seed, start,
                                 task_index)
                  for start in range(0, n_examples, EVAL_BATCH_CLIPS))
    p = correct / n_examples
    ci = 1.96 * np.sqrt(p * (1.0 - p) / n_examples)
    return EvalResult(p, float(ci), n_examples)


def _chunk_correct(model: MultiHead, task: TaskSpec, n_clips: int, seed: int, start: int,
                   task_index: int) -> int:
    """How many of held-out clips ``start`` .. ``start + n_clips - 1`` the
    head classifies correctly."""
    chunk = test_set(task, n_clips, seed, start)
    labels = [label for _, label in chunk]
    xs, owners = _window_batch(model, [wav for wav, _ in chunk], task_index)
    del chunk  # the float64 clips go before the features are made
    logits = _mean_window_logits(model, xs, owners, task_index, start)
    return int(np.sum(logits.argmax(axis=1) == labels))


def bootstrap_diff(acc_a, acc_b, iters: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """Paired bootstrap of mean(acc_a - acc_b); returns (mean_diff, p).

    ``p`` is the one-sided probability that a resampled mean difference is
    <= 0 (small p: a reliably beats b).
    """
    if iters < 1:
        raise ValueError(f"bootstrap needs at least 1 resample, got iters={iters}")
    a = np.asarray(acc_a, dtype=np.float64)
    b = np.asarray(acc_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch("paired accuracy lists must have equal length")
    if a.size < 2:
        raise LengthMismatch("need at least two paired observations")
    for name, values in (("a", a), ("b", b)):
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"accuracy list {name} holds a non-finite value, {bad[0]}")
    diffs = a - b
    rng = np.random.default_rng(seed)
    at_or_below = 0
    for start in range(0, iters, BOOTSTRAP_BLOCK):
        idx = rng.integers(0, diffs.size, size=(min(BOOTSTRAP_BLOCK, iters - start), diffs.size))
        at_or_below += int(np.count_nonzero(diffs[idx].mean(axis=1) <= 0.0))
    return float(diffs.mean()), at_or_below / iters


def noise_sweep(task: TaskSpec, snr_list, variants: list[FrontendConfig], seed: int, *,
                steps: int, batch_size: int, lr: float, eval_clips: int, n_seeds: int) -> list[dict]:
    """Train and evaluate each variant at each SNR, noise in both phases.

    Returns rows ``{"variant", "snr_db", "accuracies", "mean_accuracy"}``
    with one accuracy per seed.
    """
    if n_seeds < 1:
        raise ValueError(f"noise sweep needs at least 1 seed, got n_seeds={n_seeds}")
    if eval_clips < 1:
        raise ValueError(f"noise sweep needs at least 1 evaluation clip, got eval_clips={eval_clips}")
    # an SNR the task refuses fails here, before any training
    noisy_tasks = [task.with_snr(snr) for snr in snr_list]
    rows = []
    for cfg in variants:
        for noisy_task in noisy_tasks:
            accs = []
            for s in range(n_seeds):
                run_seed = seed + 1000 * s
                result = train([noisy_task], cfg, steps, batch_size, lr, run_seed)
                ev = evaluate(result.model, noisy_task, eval_clips, run_seed + 7919)
                accs.append(ev.accuracy)
            rows.append({
                "variant": variant_name(cfg),
                "snr_db": float(noisy_task.snr_db),
                "accuracies": accs,
                "mean_accuracy": float(np.mean(accs)),
            })
    return rows
