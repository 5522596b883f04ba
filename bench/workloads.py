"""The benchmark's workloads and the closed loop that times them.

Each workload makes every input from the run seed, runs one op at a time
(a closed loop with one caller), checks each op's output outside the timed
region and, after the loop, runs its correctness gates.

- ``train-leaf``: one multi-task ADAM step of the ``leaf`` variant, the
  loop body of ``training.train``.  The filter-stage primitives and the
  PCEN recursion dominate it, forward and backward.
- ``extract-long``: ``leafaudio extract`` on a 10 s WAV, in process.  The
  same primitives with no backward and no retained graph, at long T, plus
  the per-call fixed costs (WAV read, parameter init, file write).
- ``eval-mel-pcen``: held-out evaluation of a ``mel-pcen`` model.  It skips
  the Gabor filter and pooling, so a filter-stage change must read "no
  change" here.
"""

from __future__ import annotations

import contextlib
import ctypes
import io as pyio
import os
import platform
import resource
import statistics
import sys
import time
import wave
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.fft

import leafaudio
from leafaudio import cli, frontend, tasks, training
from leafaudio import io as leafio
from leafaudio import params as lparams
from leafaudio import signal as lsignal

import reference
import spans

SAMPLE_RATE = 16000
LR = 1e-3  # the CLI's default learning rate
MIN_OPS = 20  # the tail percentile needs >= 10 samples beyond it
MIN_TRACED_OPS = 5

# Gate tolerances, fixed before measuring:
# the float32 step gradient along a random direction vs a float64 central
# difference, relative to sum |g_i d_i| (float32 FFT correlation over ~16k
# samples and backprop through ~100 PCEN frames lose a few decimal digits)
GRAD_DIRECTION_RTOL = 1e-4
FD_STEP = 1e-4
# FFT vs direct correlation, both float64, relative to the largest feature
REFERENCE_RTOL = 1e-9

# Gated metrics.  The median op latency is printed but not gated: on a
# host whose speed flips between two states for tens of seconds at a time
# it was bimodal across runs (eval-mel-pcen: 115-170 ms, quartile spread
# 0.33 over ten runs), wider than any allowed bound.
END_TO_END = {
    "audio_s_per_s": "s/s",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_MS = ("tape.bank_correlate.fwd_ms", "tape.bank_correlate.bwd_ms",
       "tape.paired_square_sum.fwd_ms", "tape.paired_square_sum.bwd_ms",
       "tape.depthwise_pool.fwd_ms", "tape.depthwise_pool.bwd_ms",
       "tape.softmax_cross_entropy.fwd_ms", "tape.softmax_cross_entropy.bwd_ms",
       "tape.elementwise.fwd_ms", "tape.elementwise.bwd_ms", "tape.backward.self_ms",
       "frontend.pcen_graph.fwd_ms", "frontend.pcen_graph.bwd_ms",
       "frontend.gabor_kernel_graph.ms", "frontend.pool_kernel_graph.ms",
       "frontend.features_graph.self_ms", "frontend.frontend_forward.self_ms",
       "frontend.mel_power_features.ms",
       "training.multitask_loss_and_grad.self_ms", "training.adam_step.self_ms",
       "training.evaluate.self_ms",
       "params.project_params.ms", "params.init_params.ms",
       "gabor.gabor_params_from_mels.ms",
       "tasks.sample_batch.ms", "tasks.test_set.ms",
       "signal.load_wav.ms", "io.write_feature_file.ms", "cli.main.self_ms",
       *(f"{layer}.self_ms" for layer in spans.LAYERS),
       "unattributed_ms", "traced_op_ms")
_CALLS = ("tape.bank_correlate.calls", "tape.paired_square_sum.calls", "tape.depthwise_pool.calls",
          "tape.elementwise.calls", "frontend.pcen_graph.calls")
# exact counts: nodes are counted, bytes are computed from array shapes or
# read from the file system
COUNTS = {"tape.nodes": "count", "tape.retained_bytes": "bytes",
          "tape.bank_correlate.out_bytes": "bytes", "io.write_feature_file.bytes": "bytes"}

PER_LAYER = {
    **{name: "ms" for name in _MS},
    **{name: "count" for name in _CALLS},
    **COUNTS,
    "trace_overhead_audio_s_per_s": "s/s",
}


# -- inputs ----------------------------------------------------------------


def wav_bytes(seed: int, index: int, seconds: float = 10.0) -> bytes:
    """A 16-bit mono 16 kHz WAV: a few tones with slow AM over white noise."""
    rng = np.random.default_rng([seed, 0x5A7E, index])
    n = round(seconds * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    x = 0.05 * rng.standard_normal(n)
    for _ in range(5):
        freq = rng.uniform(80.0, 6000.0)
        envelope = 1.0 + 0.8 * np.cos(2.0 * np.pi * rng.uniform(0.5, 8.0) * t + rng.uniform(0, 6.3))
        x += rng.uniform(0.1, 1.0) * envelope * np.cos(2.0 * np.pi * freq * t + rng.uniform(0, 6.3))
    pcm = np.round(x * (0.5 * 32767.0 / np.max(np.abs(x)))).astype("<i2")
    buf = pyio.BytesIO()
    with wave.open(buf, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(SAMPLE_RATE)
        out.writeframes(pcm.tobytes())
    return buf.getvalue()


def run_seed(seed: int, *salt: int) -> int:
    return int(np.random.default_rng([seed, *salt]).integers(2 ** 31))


# -- workloads -------------------------------------------------------------


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str


class TrainLeaf:
    """Closed loop of multi-task ADAM steps: pitch + am, B=16, 1 s, float32."""

    name = "train-leaf"
    batch_size = 16
    audio_s_per_op = 16.0
    warmup_ops = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        self.cfg = frontend.variant_config("leaf")
        self.tasks = [tasks.make_task("pitch", task_id=0), tasks.make_task("am", task_id=1)]
        self.params = lparams.init_multitask_params(
            self.cfg, [t.num_classes for t in self.tasks], dtype=np.float32)
        self.state = training.init_adam(self.params, LR)
        self.after_two = self.probe = None

    def prepare(self, index: int) -> int:
        return index + 1  # training step number

    def op(self, step: int):
        batch = tasks.sample_batch(self.tasks, self.batch_size, self.seed, step)
        loss, grads, _, _ = training.multitask_loss_and_grad(
            batch, self.params, self.cfg, len(self.tasks))
        before = self.params
        self.state, self.params = training.adam_step(self.state, self.params, grads, self.cfg)
        return loss, grads, before, batch

    def check(self, step: int, out) -> bool:
        loss, grads, before, batch = out
        if step == 2:
            self.after_two = self.params.copy()
        elif step == 3:
            self.probe = (before, batch, grads)
        return bool(np.isfinite(loss)
                    and all(np.all(np.isfinite(g)) for g in grads.values())
                    and all(np.all(np.isfinite(p)) for p in self.params.values()))

    def gates(self) -> list[Gate]:
        return [self._gate_matches_train(), self._gate_gradient()]

    def _gate_matches_train(self) -> Gate:
        name = "params after 2 steps == training.train(steps=2)"
        if self.after_two is None:
            return Gate(name, False, "step 2 did not complete")
        ref = training.train(self.tasks, self.cfg, 2, self.batch_size, LR, self.seed,
                             log_every=10 ** 9).model.params
        same = set(ref) == set(self.after_two) and all(
            ref[k].dtype == self.after_two[k].dtype and np.array_equal(ref[k], self.after_two[k])
            for k in ref)
        return Gate(name, same, "bit-identical" if same else "parameters differ")

    def _gate_gradient(self) -> Gate:
        name = "step gradient vs float64 central difference along a random direction"
        if self.probe is None:
            return Gate(name, False, "step 3 did not complete")
        params, batch, grads = self.probe
        rng = np.random.default_rng([self.seed, 0xFD])
        base = {k: v.astype(np.float64) for k, v in params.items()}
        direction = {k: rng.standard_normal(v.shape) * np.maximum(np.abs(v), 1e-2)
                     for k, v in base.items()}
        counts = tuple(t.num_classes for t in self.tasks)

        def loss_at(scale):
            moved = lparams.ParamSet({k: v + scale * direction[k] for k, v in base.items()})
            return training.multitask_loss(batch, training.MultiHead(moved, self.cfg, counts))

        numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2.0 * FD_STEP)
        terms = [np.sum(grads[k].astype(np.float64) * direction[k]) for k in base]
        magnitude = sum(np.sum(np.abs(grads[k].astype(np.float64) * direction[k])) for k in base)
        error = abs(sum(terms) - numeric) / magnitude
        return Gate(name, bool(error <= GRAD_DIRECTION_RTOL),
                    f"relative error {error:.2e} (tolerance {GRAD_DIRECTION_RTOL:.0e})")


class ExtractLong:
    """``leafaudio extract --frontend leaf`` on a 10 s WAV, B=1, float64."""

    name = "extract-long"
    seconds = 10.0
    audio_s_per_op = seconds
    warmup_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.wav_path = os.path.join(workdir, "input.wav")
        self.out_path = os.path.join(workdir, "features.leaf")
        self.frames = -(-round(self.seconds * SAMPLE_RATE) // 160)

    def setup(self):
        self.cfg = frontend.variant_config("leaf")
        self.params = lparams.init_params(self.cfg, 2)  # what every extract call initializes

    def prepare(self, index: int) -> int:
        with open(self.wav_path, "wb") as fh:
            fh.write(wav_bytes(self.seed, index, self.seconds))
        return index

    def op(self, index: int):
        text = pyio.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["extract", "--input", self.wav_path, "--frontend", "leaf",
                             "--out", self.out_path])
        return code, text.getvalue()

    def check(self, index: int, out) -> bool:
        code, text = out
        if code != 0 or f"frames={self.frames} channels=40" not in text:
            return False
        try:
            values = leafio.read_feature_file(self.out_path).values  # raises if non-finite
        except ValueError:
            return False
        return values.shape == (self.frames, 40)

    def gates(self) -> list[Gate]:
        self.prepare(0)
        code, _ = self.op(0)
        wav = lsignal.load_wav(self.wav_path)
        expected = frontend.frontend_forward(wav, self.params, self.cfg).values
        name = "feature file == in-memory features as float32, shape (ceil(T/160), 40), finite"
        if code != 0:
            roundtrip = Gate(name, False, f"extract exited {code}")
        else:
            got = leafio.read_feature_file(self.out_path).values
            ok = (got.shape == (self.frames, 40) and bool(np.all(np.isfinite(got)))
                  and np.array_equal(got, expected.astype(np.float32)))
            roundtrip = Gate(name, ok, f"shape {got.shape}")

        segment = lsignal.Waveform(wav.samples[: SAMPLE_RATE // 4], SAMPLE_RATE)
        fast = frontend.frontend_forward(segment, self.params, self.cfg).values
        slow = reference.leaf_features(segment.samples, self.params)
        error = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
        oracle = Gate("0.25 s features vs plain-numpy reference", error <= REFERENCE_RTOL,
                      f"max error {error:.2e} of max |feature| (tolerance {REFERENCE_RTOL:.0e})")
        return [roundtrip, oracle]


class EvalMelPcen:
    """``training.evaluate`` on 64 noisy am clips (5 dB) with a mel-pcen model."""

    name = "eval-mel-pcen"
    clips = 64
    audio_s_per_op = float(clips)
    warmup_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        self.cfg = frontend.variant_config("mel-pcen")
        self.task = tasks.make_task("am", task_id=0, snr_db=5.0)
        values = dict(lparams.init_multitask_params(self.cfg, [self.task.num_classes],
                                                    dtype=np.float32))
        # seeded non-zero head, so the argmax depends on the features
        rng = np.random.default_rng([self.seed, 0xE7A1])
        values["head0_weights"] = rng.standard_normal(values["head0_weights"].shape).astype(np.float32)
        values["head0_bias"] = (0.1 * rng.standard_normal(values["head0_bias"].shape)).astype(np.float32)
        self.model = training.MultiHead(lparams.ParamSet(values), self.cfg, (self.task.num_classes,))

    def prepare(self, index: int) -> int:
        return run_seed(self.seed, 0xE7A1, index)

    def op(self, eval_seed: int):
        return training.evaluate(self.model, self.task, self.clips, eval_seed)

    def check(self, eval_seed: int, out) -> bool:
        return out.n_examples == self.clips and 0.0 <= out.accuracy <= 1.0 and np.isfinite(out.ci95)

    def gates(self) -> list[Gate]:
        eval_seed = self.prepare(0)
        accuracy = training.evaluate(self.model, self.task, self.clips, eval_seed).accuracy
        hits, finite = 0, True
        for wav, label in tasks.test_set(self.task, self.clips, eval_seed):
            logits = training.clip_logits(self.model, wav, 0)
            finite = finite and bool(np.all(np.isfinite(logits)))
            hits += int(logits.argmax() == label)
        per_clip = hits / self.clips
        return [Gate("evaluate accuracy == per-clip argmax of clip_logits",
                     finite and accuracy == per_clip,
                     f"evaluate {accuracy:.6f}, per clip {per_clip:.6f}")]


WORKLOADS = {cls.name: cls for cls in (TrainLeaf, ExtractLong, EvalMelPcen)}


# -- measurement -------------------------------------------------------------


@dataclass
class Loop:
    latencies: list = field(default_factory=list)  # seconds, successful ops
    op_seconds: float = 0.0  # every op, failed ones too
    audio_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def audio_s_per_s(self) -> float:
        return self.audio_s / self.op_seconds


def timed_op(workload, index: int, loop: Loop, tracer=None) -> None:
    """Prepare, time and check op ``index``; only the op itself is timed."""
    inputs = workload.prepare(index)
    t0 = time.perf_counter()
    try:
        out = tracer.op(workload.op, inputs) if tracer else workload.op(inputs)
        error = None
    except Exception as exc:  # a failed op is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    loop.attempted += 1
    loop.op_seconds += elapsed
    if error is None:
        try:
            error = None if workload.check(inputs, out) else "output check failed"
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is None:
        loop.latencies.append(elapsed)
        loop.audio_s += workload.audio_s_per_op
    else:
        loop.failed += 1
        loop.errors.append(f"op {index}: {error}")


def closed_loop(workload, first: int, seconds: float, min_ops: int, tracer=None):
    """Ops back to back until ``seconds`` have passed and ``min_ops`` ran.

    Without a tracer returns one Loop.  With one, every second op is traced
    and the result is the pair (untraced, traced): interleaving keeps slow
    drifts of the machine's speed out of the tracing overhead.
    """
    plain, traced = Loop(), Loop()
    index, start = first, time.perf_counter()
    while plain.attempted + traced.attempted < min_ops or time.perf_counter() - start < seconds:
        if tracer is not None and index % 2:
            timed_op(workload, index, traced, tracer)
        else:
            timed_op(workload, index, plain)
        index += 1
    return plain if tracer is None else (plain, traced)


def tail_percentile(values) -> tuple[int, float]:
    """Highest integer percentile p with >= 10 samples above its value.

    Uses the nearest-rank percentile: the value at rank ceil(p n / 100) of
    the sorted samples, which leaves n - rank samples beyond it.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail percentile, got {n}")
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(values)[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _run_gates(workload) -> list[Gate]:
    try:
        return workload.gates()
    except Exception as exc:
        return [Gate("gates", False, f"raised {type(exc).__name__}: {exc}")]


def run(workload, seconds: float, trace: bool, spans_path: str, header: dict) -> dict:
    """Warm up, measure, gate; returns counts, gates, metrics and notes."""
    first = workload.warmup_ops
    loops = [closed_loop(workload, 0, 0.0, first)]
    notes = {}
    if not trace:
        timed = closed_loop(workload, first, seconds, MIN_OPS)
        loops.append(timed)
        rss = peak_rss_mb()  # before the gates, which are not part of the workload
        p, tail = tail_percentile(timed.latencies)
        metrics = {"audio_s_per_s": timed.audio_s_per_s, "op_ms_tail": 1e3 * tail, "peak_rss_mb": rss}
        notes.update(op_ms_p50=1e3 * statistics.median(timed.latencies),
                     tail={"percentile": p, "n": len(timed.latencies)})
    else:
        tracer = spans.Tracer(leafaudio)
        plain, traced = closed_loop(workload, first, seconds, 2 * MIN_TRACED_OPS, tracer)
        loops += [plain, traced]
        metrics, notes = per_layer_metrics(tracer, plain, traced)
        tracer.write(spans_path, header)
        notes["spans_file"] = spans_path
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()}
    gates = _run_gates(workload)
    if trace:
        gap = notes["partition_gap_ms"]
        gates.append(Gate("layer self times + unattributed == traced op time, every op",
                          gap <= 1e-6, f"largest gap {gap:.2e} ms"))
    attempted = sum(l.attempted for l in loops) + len(gates)
    failed = sum(l.failed for l in loops) + sum(not g.ok for g in gates)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": [e for l in loops for e in l.errors][:20],
        "gates": [vars(g) for g in gates],
        "metrics": metrics,
        "notes": notes,
    }


def per_layer_metrics(tracer, plain: Loop, traced: Loop) -> tuple[dict, dict]:
    """Per-op medians of every per-layer metric, plus the partition check."""
    per_op = spans.summarize(tracer.spans, tracer.op_id + 1)
    for summary, counts in zip(per_op, tracer.counts):
        summary.update(counts)
    metrics = {name: statistics.median(op.get(name, 0) for op in per_op)
               for name in PER_LAYER if name != "trace_overhead_audio_s_per_s"}
    metrics["trace_overhead_audio_s_per_s"] = plain.audio_s_per_s - traced.audio_s_per_s
    names = sorted({key for op in per_op for key in op})
    notes = {
        "partition_gap_ms": max(spans.partition_gap_ms(op) for op in per_op),
        "traced_ops": len(per_op),
        "untraced_audio_s_per_s": plain.audio_s_per_s,
        "traced_audio_s_per_s": traced.audio_s_per_s,
        "all_spans": {name: statistics.median(op.get(name, 0) for op in per_op) for name in names},
    }
    return metrics, notes


def variant_table(seed: int) -> list[dict]:
    """Step (fwd+bwd) and forward-only times per variant, B=16, 1 s, float32."""
    task_list = [tasks.make_task("pitch", task_id=0), tasks.make_task("am", task_id=1)]
    batch = tasks.sample_batch(task_list, 16, seed, 1)
    xs = np.stack([x.samples for x, _, _ in batch]).astype(np.float32)
    labels = np.asarray([y for _, y, _ in batch])
    task_ids = np.asarray([k for _, _, k in batch])
    rows = []
    for name in ("leaf", "leaf-log", "convnorm", "mel", "mel-pcen"):
        cfg = frontend.variant_config(name)
        params = lparams.init_multitask_params(cfg, [t.num_classes for t in task_list],
                                               dtype=np.float32)
        step, forward = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            training.multitask_loss_and_grad(batch, params, cfg, len(task_list))
            step.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            training.multitask_graph(xs, labels, task_ids, params, cfg, len(task_list))
            forward.append(time.perf_counter() - t0)
        rows.append({"variant": name, "step_ms_best": 1e3 * min(step),
                     "step_ms_median": 1e3 * statistics.median(step),
                     "forward_ms_best": 1e3 * min(forward),
                     "forward_ms_median": 1e3 * statistics.median(forward)})
    return rows


# -- environment -------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": fn()}
    return None


def git_commit(root: str) -> str:
    """HEAD of a git checkout at ``root``, read from files; 'unknown' elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "leafaudio": leafaudio.__file__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _blas_threads(),
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "git_commit": git_commit(root),
        "argv": sys.argv[1:],
    }
