"""Tests for ADAM, multi-task training, evaluation, and the bootstrap."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from leafaudio import tape, workers
from leafaudio.autodiff import perturbed_params
from leafaudio.errors import (
    BadRate,
    LengthMismatch,
    NonFiniteFeatures,
    NonFiniteLoss,
    ShapeMismatch,
    UnknownTask,
)
from leafaudio.frontend import FrontendConfig, variant_config
from leafaudio.params import ParamSet, init_multitask_params
from leafaudio.signal import Waveform
from leafaudio.tasks import TaskSpec, generate_example, make_task, sample_batch
from leafaudio.tasks import test_set as held_out_set
from leafaudio.training import (
    BOOTSTRAP_BLOCK,
    AdamState,
    MultiHead,
    adam_step,
    bootstrap_diff,
    clip_logits,
    evaluate,
    init_adam,
    multitask_loss,
    multitask_loss_and_grad,
    noise_sweep,
    stack_batch,
    task_logits,
    train,
)
from test_frontend import traced_peak

MICRO = variant_config("leaf", n_filters=6, filter_len=65, pool_len=65, pool_stride=80)


def micro_task(name="pitch", snr_db=30.0, task_id=0, duration_s=0.1, num_classes=None):
    task = make_task(name, task_id=task_id, snr_db=snr_db)
    task = TaskSpec(task.task_id, task.name, num_classes or task.num_classes,
                    task.snr_db, duration_s)
    return task


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = ParamSet({"head0_weights": np.ones((3, 2)), "head0_bias": np.zeros(2)})
        grads = ParamSet({k: np.zeros_like(v) for k, v in params.items()})
        state = init_adam(params, lr=0.1)
        state2, params2 = adam_step(state, params, grads, MICRO)
        assert state2.step_count == 1
        for k in params:
            np.testing.assert_array_equal(params2[k], params[k])

    def test_first_step_moves_by_lr_times_sign(self):
        params = ParamSet({"head0_bias": np.array([1.0, -2.0, 3.0])})
        grads = ParamSet({"head0_bias": np.array([0.5, -0.1, 2.0])})
        state = init_adam(params, lr=1e-3)
        _, params2 = adam_step(state, params, grads, MICRO)
        delta = params2["head0_bias"] - params["head0_bias"]
        np.testing.assert_allclose(delta, -1e-3 * np.sign(grads["head0_bias"]), rtol=1e-6)

    def test_quadratic_bowl_converges_and_matches_reference(self):
        # independent inline ADAM oracle run side by side
        params = ParamSet({"head0_bias": np.array([1.0, 1.0])})
        state = init_adam(params, lr=0.1)
        theta_ref = np.array([1.0, 1.0])
        m = np.zeros(2)
        v = np.zeros(2)
        for t in range(1, 201):
            g = 2.0 * params["head0_bias"]
            state, params = adam_step(state, params, grads=ParamSet({"head0_bias": g}), cfg=MICRO)
            g_ref = 2.0 * theta_ref
            m = 0.9 * m + 0.1 * g_ref
            v = 0.999 * v + 0.001 * g_ref ** 2
            theta_ref = theta_ref - 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            np.testing.assert_allclose(params["head0_bias"], theta_ref, atol=1e-12)
        assert np.all(np.abs(params["head0_bias"]) < 1e-2)

    def test_projection_applied_after_step(self):
        params = ParamSet({"eta": np.array([0.4999]), "head0_bias": np.zeros(1)})
        grads = ParamSet({"eta": np.array([-1.0]), "head0_bias": np.zeros(1)})
        state = init_adam(params, lr=0.1)
        _, params2 = adam_step(state, params, grads, MICRO)
        assert params2["eta"][0] == 0.5  # clamped back into range

    def test_shape_mismatch(self):
        params = ParamSet({"head0_bias": np.zeros(3)})
        grads = ParamSet({"head0_bias": np.zeros(4)})
        state = init_adam(params, lr=0.1)
        with pytest.raises(ShapeMismatch):
            adam_step(state, params, grads, MICRO)

    def test_state_for_other_keys_is_shape_mismatch(self):
        params = ParamSet({"head0_bias": np.zeros(3)})
        grads = ParamSet({k: np.zeros_like(v) for k, v in params.items()})
        state = init_adam(ParamSet({"head0_bias": np.zeros(3), "head1_bias": np.zeros(2)}), lr=0.1)
        with pytest.raises(ShapeMismatch, match="optimizer state does not match parameter set"):
            adam_step(state, params, grads, MICRO)

    def test_convnorm_step_keeps_unit_kernels_in_float32(self):
        cfg = variant_config("convnorm", n_filters=6, filter_len=65)
        params = init_multitask_params(cfg, [3], dtype=np.float32)
        rng = np.random.default_rng(4)
        grads = ParamSet({k: rng.standard_normal(v.shape).astype(np.float32) for k, v in params.items()})
        _, stepped = adam_step(init_adam(params, lr=1e-2), params, grads, cfg)
        kernels = stepped["conv_kernels"]
        assert kernels.dtype == np.float32
        assert not np.array_equal(kernels, params["conv_kernels"])
        np.testing.assert_allclose(np.linalg.norm(kernels.astype(np.float64), axis=1), 1.0, rtol=1e-6)


def triples(task, n, seed, task_index=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = int(rng.integers(task.num_classes))
        out.append((generate_example(task, label, int(rng.integers(2 ** 31))), label, task_index))
    return out


class TestMultitaskLoss:
    def test_two_task_split_recompute(self):
        t0 = micro_task("pitch", task_id=0)
        t1 = micro_task("am", task_id=1, duration_s=0.1)
        batch = triples(t0, 3, seed=3, task_index=0) + triples(t1, 5, seed=4, task_index=1)
        params = init_multitask_params(MICRO, [t0.num_classes, t1.num_classes])
        rng = np.random.default_rng(5)
        params = ParamSet({k: v + 0.01 * rng.standard_normal(v.shape) for k, v in params.items()})
        model = MultiHead(params, MICRO, (t0.num_classes, t1.num_classes))
        full = multitask_loss(batch, model)
        part0 = multitask_loss(batch[:3], model)
        part1 = multitask_loss(batch[3:], model)
        np.testing.assert_allclose(full, (3 / 8) * part0 + (5 / 8) * part1, rtol=1e-9)

    def test_nan_parameter_raises_non_finite_loss(self):
        t0 = micro_task()
        values = dict(init_multitask_params(MICRO, [t0.num_classes]))
        values["head0_bias"] = np.array([0.0, np.nan, 0.0, 0.0])
        model = MultiHead(ParamSet(values), MICRO, (t0.num_classes,))
        with pytest.raises(NonFiniteLoss, match="^loss evaluated to nan$"):
            multitask_loss(triples(t0, 2, seed=3), model)

    def test_absent_task_head_gradient_exactly_zero(self):
        t0 = micro_task("pitch", task_id=0)
        t1 = micro_task("am", task_id=1)
        params = init_multitask_params(MICRO, [t0.num_classes, t1.num_classes], dtype=np.float64)
        batch = triples(t0, 4, seed=6, task_index=0)  # only task 0
        _, grads, _, _ = multitask_loss_and_grad(batch, params, MICRO, 2, dtype=np.float64)
        assert np.all(grads["head1_weights"] == 0.0)
        assert np.all(grads["head1_bias"] == 0.0)

    def test_stack_batch_makes_no_float64_copy(self):
        # a float32 batch is stacked in float32, with the bits of a cast float64 stack
        batch = sample_batch([make_task("pitch")], 16, seed=0, step=0)
        (xs, _, _), peak = traced_peak(lambda: stack_batch(batch, np.float32))
        assert xs.dtype == np.float32
        assert np.array_equal(xs, np.stack([x.samples for x, _, _ in batch]).astype(np.float32))
        assert peak <= 1.25 * xs.nbytes

    def test_unknown_task(self):
        t0 = micro_task()
        params = init_multitask_params(MICRO, [t0.num_classes])
        batch = triples(t0, 2, seed=7, task_index=3)
        with pytest.raises(UnknownTask):
            multitask_loss_and_grad(batch, params, MICRO, 1)

    @pytest.mark.parametrize("case, error", [
        ("empty", ValueError),
        ("unequal_lengths", ValueError),
        ("rate_8k", BadRate),
    ])
    def test_batch_input_validation(self, case, error):
        t0 = micro_task()
        params = init_multitask_params(MICRO, [t0.num_classes])
        batch = triples(t0, 2, seed=8)
        (x, y, k) = batch[1]
        if case == "empty":
            batch = []
        elif case == "unequal_lengths":
            batch[1] = (Waveform(x.samples[:-1], x.sample_rate), y, k)
        else:
            batch[1] = (Waveform(x.samples, 8000), y, k)
        with pytest.raises(error):
            multitask_loss_and_grad(batch, params, MICRO, 1)


class TestTrain:
    def test_deterministic_and_snapshot_roundtrip(self, tmp_path):
        from leafaudio.io import load_params, save_params

        task = micro_task()
        r1 = train([task], MICRO, steps=4, batch_size=4, lr=1e-3, seed=11)
        r2 = train([task], MICRO, steps=4, batch_size=4, lr=1e-3, seed=11)
        assert r1.metrics == r2.metrics
        for k in r1.model.params:
            np.testing.assert_array_equal(r1.model.params[k], r2.model.params[k])
        assert set(r1.snapshots) == {0, 2, 4}

        save_params(tmp_path / "snap", r1.model.params)
        reloaded = load_params(tmp_path / "snap")
        model2 = MultiHead(reloaded, MICRO, r1.model.class_counts)
        e1 = evaluate(r1.model, task, 40, seed=3)
        e2 = evaluate(model2, task, 40, seed=3)
        assert e1 == e2

    def test_one_step_snapshot_reproduces_evaluation(self, tmp_path):
        from leafaudio.io import load_params, save_params

        task = micro_task()
        result = train([task], MICRO, steps=1, batch_size=4, lr=1e-3, seed=13)
        save_params(tmp_path / "m", result.model.params)
        again = MultiHead(load_params(tmp_path / "m"), MICRO, result.model.class_counts)
        assert evaluate(result.model, task, 30, seed=5) == evaluate(again, task, 30, seed=5)

    def test_a_logged_step_runs_the_frontend_once(self, monkeypatch):
        calls = []
        filter_pool = tape.filter_pool

        def counting(*args):
            calls.append(args)
            return filter_pool(*args)

        monkeypatch.setattr(tape, "filter_pool", counting)
        train([micro_task()], MICRO, steps=4, batch_size=4, lr=1e-3, seed=11, log_every=1)
        assert len(calls) == 4

    def test_logged_accuracy_is_that_of_the_parameters_the_loss_came_from(self):
        tasks = [micro_task("pitch", task_id=0), micro_task("am", task_id=1)]
        steps, batch_size, seed = 4, 8, 3
        result = train(tasks, MICRO, steps, batch_size, lr=0.05, seed=seed, log_every=1)
        for step in (1, steps // 2 + 1):
            # the step's loss came from the parameters of the step before
            params = result.snapshots[step - 1]
            xs, labels, task_ids = stack_batch(sample_batch(tasks, batch_size, seed, step), np.float32)
            expected = [float("nan")] * len(tasks)
            for k, (rows, logits) in task_logits(xs, task_ids, params, MICRO).items():
                expected[k] = float(np.mean(logits.value.argmax(axis=1) == labels[rows]))
            logged = [m["accuracy"] for m in result.metrics if m["step"] == step]
            np.testing.assert_array_equal(logged, expected, err_msg=f"step {step}")

    @pytest.mark.parametrize("log_every", [0, -1])
    def test_log_every_below_1_is_refused(self, log_every):
        with pytest.raises(ValueError, match=f"^metrics need a logging interval of at least 1 step, "
                                             f"got log_every={log_every}$"):
            train([micro_task()], MICRO, steps=2, batch_size=4, lr=1e-3, seed=11, log_every=log_every)

    def test_one_class_task_is_refused_before_the_first_batch(self, monkeypatch):
        def no_batch(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(sys.modules["leafaudio.training"], "sample_batch", no_batch)
        with pytest.raises(ValueError, match="^head 1 needs at least 2 classes, got 1$"):
            train([micro_task(), micro_task("am", task_id=1, num_classes=1)], MICRO,
                  steps=2, batch_size=4, lr=1e-3, seed=11)

    def test_learned_workspace_survives_a_logged_step(self):
        train([micro_task()], MICRO, steps=2, batch_size=4, lr=1e-3, seed=11, log_every=1)
        _, spaces = tape._spare
        assert all(ws.corr is not None for ws in spaces)  # kept correlations: learned workspaces

    def test_frozen_frontend_learns_separable_tones(self):
        # two widely separated pitches are linearly separable in the
        # initialized filterbank's energies
        task = micro_task(num_classes=2, duration_s=0.25, snr_db=30.0)
        result = train([task], MICRO, steps=100, batch_size=8, lr=1e-2, seed=17,
                       freeze_frontend=True, log_every=25)
        final_acc = [m["accuracy"] for m in result.metrics if m["task_id"] == 0][-1]
        assert final_acc >= 0.99
        # frontend untouched
        np.testing.assert_array_equal(result.snapshots[0]["eta"], result.model.params["eta"])

    @pytest.mark.parametrize("variant", ["leaf", "leaf-log", "convnorm", "mel-pcen"])
    def test_frozen_run_keeps_every_frontend_bit(self, variant):
        cfg = variant_config(variant, n_filters=6, filter_len=65, pool_len=65, pool_stride=80)
        task = micro_task(num_classes=2)
        result = train([task], cfg, steps=3, batch_size=4, lr=1e-2, seed=19, freeze_frontend=True)
        init, final = result.snapshots[0], result.model.params
        frontend = [k for k in init if not k.startswith("head")]
        assert frontend
        for k in frontend:
            assert final[k].dtype == init[k].dtype
            assert final[k].tobytes() == init[k].tobytes(), k
        assert not np.array_equal(final["head0_bias"], init["head0_bias"])

    def test_frozen_step_keeps_no_frontend_graph(self):
        # B=16, 1 s, float32: a learned step keeps filter_pool's correlations
        # for the kernel gradient; a frozen one runs the frontend forward-only
        cfg = variant_config("leaf")
        tasks = [make_task("pitch")]
        peaks = {}
        for frozen in (False, True):
            train(tasks, cfg, steps=1, batch_size=16, lr=1e-3, seed=0, freeze_frontend=frozen)
            tracemalloc.start()
            try:
                train(tasks, cfg, steps=1, batch_size=16, lr=1e-3, seed=0, freeze_frontend=frozen)
                peaks[frozen] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[True] < peaks[False] / 2, peaks


class TestEvaluate:
    def test_chance_level_for_zero_head(self):
        task = micro_task()
        params = init_multitask_params(MICRO, [task.num_classes])
        model = MultiHead(params, MICRO, (task.num_classes,))
        ev = evaluate(model, task, 40, seed=19)
        assert ev.accuracy == pytest.approx(1.0 / task.num_classes)

    def test_ci_closed_form(self):
        ci = 1.96 * np.sqrt(0.9 * 0.1 / 1000)
        assert ci == pytest.approx(0.0186, abs=2e-4)

    def test_two_second_clip_averages_identical_windows(self):
        task = micro_task(duration_s=1.0)
        params = perturbed_params(MICRO, num_classes=task.num_classes, seed=23)
        model = MultiHead(params, MICRO, (task.num_classes,))
        wav = generate_example(task, 1, seed=29)
        doubled = Waveform(np.tile(wav.samples, 2), wav.sample_rate)
        one = clip_logits(model, wav)
        two = clip_logits(model, doubled)
        np.testing.assert_allclose(one, two, rtol=1e-5)
        assert one.argmax() == two.argmax()

    def test_clip_at_another_rate_is_bad_rate(self):
        cfg = variant_config("mel", n_filters=8)
        model = MultiHead(init_multitask_params(cfg, [3]), cfg, (3,))
        with pytest.raises(BadRate, match="got 44100 Hz"):
            clip_logits(model, Waveform(np.zeros(44100), 44100))

    def test_accuracy_is_the_per_clip_argmax_of_clip_logits(self):
        # 2.5 s clips are two one-second windows each (the tail is dropped);
        # 70 clips take two evaluate chunks
        task = TaskSpec(0, "am", 3, 5.0, duration_s=2.5)
        cfg = variant_config("mel-pcen", n_filters=8)
        values = dict(init_multitask_params(cfg, [task.num_classes], dtype=np.float32))
        values["head0_weights"] = np.random.default_rng(37).standard_normal((8, 3)).astype(np.float32)
        clips = held_out_set(task, 70, 42)
        # a head centred on the clips' mean logits, so that the windows of
        # one clip often disagree and window averaging decides the answer
        model = MultiHead(ParamSet(values), cfg, (task.num_classes,))
        values["head0_bias"] = -np.mean([clip_logits(model, wav) for wav, _ in clips], axis=0)
        model = MultiHead(ParamSet(values), cfg, (task.num_classes,))
        first = [clip_logits(model, Waveform(wav.samples[:16000], 16000)).argmax() for wav, _ in clips]
        hits = [clip_logits(model, wav).argmax() == label for wav, label in clips]
        assert np.mean(hits) != np.mean(np.equal(first, [label for _, label in clips]))
        assert evaluate(model, task, 70, seed=42).accuracy == np.mean(hits)


def seeded_mel_pcen_model(task, seed, n_filters=8):
    """A float32 mel-pcen model with a seeded head, so accuracy depends on the features."""
    cfg = variant_config("mel-pcen", n_filters=n_filters)
    values = dict(init_multitask_params(cfg, [task.num_classes], dtype=np.float32))
    rng = np.random.default_rng(seed)
    values["head0_weights"] = rng.standard_normal((n_filters, task.num_classes)).astype(np.float32)
    values["head0_bias"] = (0.1 * rng.standard_normal(task.num_classes)).astype(np.float32)
    return MultiHead(ParamSet(values), cfg, (task.num_classes,))


class TestNonFiniteLogits:
    def model(self, task):
        # a NaN parameter, not an overflow: no warning precedes the refusal
        values = dict(seeded_mel_pcen_model(task, 43).params)
        values["pcen_alpha"] = values["pcen_alpha"].copy()
        values["pcen_alpha"][0] = np.nan
        return MultiHead(ParamSet(values), variant_config("mel-pcen", n_filters=8), (task.num_classes,))

    def test_evaluate_refuses_them(self):
        task = make_task("am")
        with pytest.raises(NonFiniteFeatures, match=r"^clip 0 has non-finite logits \[nan nan nan\]$"):
            evaluate(self.model(task), task, 12, seed=0)

    def test_clip_logits_refuses_them(self):
        task = make_task("am")
        with pytest.raises(NonFiniteFeatures, match="^clip 0 has non-finite logits"):
            clip_logits(self.model(task), generate_example(task, 0, seed=0))


class TestEvaluateChunks:
    TASK = TaskSpec(0, "am", 3, 5.0, duration_s=0.25)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_memory_does_not_grow_with_clip_count(self, monkeypatch, shards):
        # each chunk's clips are made just before it runs: 640 clips of
        # 0.25 s are 20 MB of samples, ~3x one chunk's peak.  Both counts
        # run on one pinned shard count; on two shards the slack is one
        # STFT chunk (400 frames, 2.8 MiB), as the shards of either count
        # may or may not overlap
        monkeypatch.setattr(workers, "CPUS", shards)
        model = seeded_mel_pcen_model(self.TASK, 43)
        evaluate(model, self.TASK, 3, seed=0)  # first-use allocations (each label's phasors) out of the peaks
        peaks = {}
        for n in (64, 640):
            _, peaks[n] = traced_peak(lambda: evaluate(model, self.TASK, n, seed=1))
        assert peaks[640] <= 1.25 * peaks[64] + (shards - 1) * 3 * 2 ** 20, peaks

    @pytest.mark.parametrize("shards", [1, 2])
    def test_clips_go_before_the_features(self, monkeypatch, shards):
        # the peak is where 64 one-second clips (7.8 MiB of float64) meet
        # their float32 batch (3.9 MiB); the clips are dropped before the
        # mel step, whose batch, one 2.8 MiB STFT chunk per shard and
        # features stay below that
        monkeypatch.setattr(workers, "CPUS", shards)
        task = make_task("am", snr_db=5.0)
        model = seeded_mel_pcen_model(task, 41, n_filters=40)
        evaluate(model, task, 3, seed=0)
        _, peak = traced_peak(lambda: evaluate(model, task, 64, seed=2))
        assert peak <= 13.75 * 2 ** 20, peak / 2 ** 20

    def test_concurrent_callers_get_the_serial_result(self):
        model = seeded_mel_pcen_model(self.TASK, 47)
        expected = evaluate(model, self.TASK, 70, seed=5)
        results = [None] * 4

        def call(i):
            results[i] = evaluate(model, self.TASK, 70, seed=5)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4


class TestBootstrap:
    def test_equal_inputs_give_p_one(self):
        a = [0.8, 0.9, 0.7, 0.6]
        mean, p = bootstrap_diff(a, list(a), iters=1000, seed=1)
        assert mean == 0.0 and p == 1.0

    def test_all_positive_diffs_give_p_zero(self):
        mean, p = bootstrap_diff([0.9, 0.8, 0.7], [0.5, 0.4, 0.3], iters=1000, seed=2)
        assert mean == pytest.approx(0.4)
        assert p == 0.0

    def test_matches_exact_enumeration_length_four(self):
        diffs = np.array([1.0, 1.0, 1.0, -1.0])
        exact = np.mean([
            np.mean(diffs[list(combo)]) <= 0.0
            for combo in itertools.product(range(4), repeat=4)
        ])
        assert exact == pytest.approx(67 / 256)
        iters = 100_000
        _, p = bootstrap_diff([1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], iters=iters, seed=3)
        assert abs(p - exact) < 2.0 / np.sqrt(iters)

    @pytest.mark.parametrize("a, b, message", [
        ([np.nan, 0.8, 0.7], [0.5, 0.4, 0.3], "a holds a non-finite value, nan"),
        ([0.9, 0.8, 0.7], [0.5, np.nan, 0.3], "b holds a non-finite value, nan"),
        ([np.inf, 0.8, 0.7], [np.inf, 0.4, 0.3], "a holds a non-finite value, inf"),
        ([0.9, 0.8, 0.7], [0.5, 0.4, -np.inf], "b holds a non-finite value, -inf"),
    ], ids=["nan-a", "nan-b", "inf-both", "-inf-b"])
    def test_non_finite_accuracy_is_refused(self, a, b, message):
        # refused before resampling, and before numpy can warn about inf - inf
        with pytest.raises(ValueError, match=f"^accuracy list {message}$"):
            bootstrap_diff(a, b, iters=100)

    @pytest.mark.parametrize("n", [3, 7, 1000, 1001])
    def test_blocks_give_the_bits_of_one_draw(self, n):
        # one (iters, n) draw of every resample, across two block boundaries
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n) + 0.5 / np.sqrt(n), np.zeros(n)
        iters = 2 * BOOTSTRAP_BLOCK + 5
        diffs = a - b
        idx = np.random.default_rng(9).integers(0, n, size=(iters, n))
        expected = float(diffs.mean()), float(np.mean(diffs[idx].mean(axis=1) <= 0.0))
        assert 0.0 < expected[1] < 1.0
        assert bootstrap_diff(a, b, iters=iters, seed=9) == expected

    def test_peak_memory_does_not_grow_with_iters(self):
        a = np.random.default_rng(4).random(200)
        peaks = {}
        for iters in (2_000, 20_000):
            tracemalloc.start()
            try:
                bootstrap_diff(a, a[::-1], iters=iters, seed=0)
                peaks[iters] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20_000] <= 1.25 * peaks[2_000], peaks

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bootstrap_diff([1.0, 2.0], [1.0], iters=10, seed=0)
        with pytest.raises(LengthMismatch):
            bootstrap_diff([1.0], [1.0], iters=10, seed=0)


class TestNoiseSweep:
    def test_shape_and_clean_column(self):
        task = micro_task(duration_s=0.1)
        variants = [MICRO]
        rows = noise_sweep(task, [np.inf, 0.0], variants, seed=31,
                           steps=6, batch_size=4, lr=1e-3, eval_clips=20, n_seeds=1)
        assert len(rows) == 2
        assert set(rows[0]) == {"variant", "snr_db", "accuracies", "mean_accuracy"}
        assert rows[0]["variant"] == "leaf"
        assert rows[0]["snr_db"] == np.inf
        assert len(rows[0]["accuracies"]) == 1
        assert 0.0 <= rows[0]["mean_accuracy"] <= 1.0
