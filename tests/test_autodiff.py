"""Gradient correctness: reverse mode against central finite differences."""

import numpy as np
import pytest

from leafaudio import tape
from leafaudio.autodiff import (
    GRADCHECK_SIZES,
    finite_diff,
    perturbed_params,
    relative_errors,
    synthetic_batch,
)
from leafaudio.errors import NonFiniteLoss
from leafaudio.frontend import variant_config
from leafaudio.params import ParamSet, init_params
from leafaudio.training import MultiHead, multitask_graph, multitask_loss, multitask_loss_and_grad, stack_batch

CFG = variant_config("leaf", **GRADCHECK_SIZES)


def small_batch(seed=7, n=4, num_classes=3):
    return synthetic_batch(seed, batch_size=n, num_classes=num_classes)


def loss_and_grad(batch, params):
    """Single-task loss and gradient in float64."""
    loss, grads, _, _ = multitask_loss_and_grad(batch, params, CFG, 1, dtype=np.float64)
    return loss, grads


def batch_loss(batch, params):
    return multitask_loss(batch, MultiHead(params, CFG, (3,)))


class TestLossValues:
    def test_zero_head_gives_uniform_loss(self):
        params = init_params(CFG, num_classes=3)
        batch = small_batch(n=6)
        loss, grads = loss_and_grad(batch, params)
        np.testing.assert_allclose(loss, np.log(3.0), rtol=1e-12)
        assert abs(grads["head0_bias"].sum()) < 1e-12

    def test_duplicating_batch_preserves_loss_and_grads(self):
        params = perturbed_params(CFG, num_classes=3, seed=1)
        batch = small_batch(n=3)
        loss_a, grads_a = loss_and_grad(batch, params)
        loss_b, grads_b = loss_and_grad(batch + batch, params)
        np.testing.assert_allclose(loss_b, loss_a, rtol=1e-12)
        for name in grads_a:
            np.testing.assert_allclose(grads_b[name], grads_a[name], rtol=1e-9, atol=1e-12)

    def test_deterministic(self):
        params = perturbed_params(CFG, num_classes=3, seed=2)
        batch = small_batch(n=2)
        loss_a, grads_a = loss_and_grad(batch, params)
        loss_b, grads_b = loss_and_grad(batch, params)
        assert loss_a == loss_b
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name], atol=1e-12)

    def test_non_finite_loss_raises(self):
        params = init_params(CFG, num_classes=3)
        bad = ParamSet({k: (np.full_like(v, np.nan) if k == "head0_bias" else v)
                        for k, v in params.items()})
        with pytest.raises(NonFiniteLoss):
            loss_and_grad(small_batch(n=2), bad)

    def test_all_grads_finite(self):
        params = perturbed_params(CFG, num_classes=3, seed=3)
        _, grads = loss_and_grad(small_batch(n=3), params)
        for name in grads:
            assert np.all(np.isfinite(grads[name])), name


class TestFiniteDiff:
    def test_quadratic(self):
        params = ParamSet({"theta": np.array([0.3, -1.2, 2.0])})

        def loss(p):
            return float((p["theta"] ** 2).sum())

        grads = finite_diff(loss, params, h_rel=1e-5)
        np.testing.assert_allclose(grads["theta"], 2.0 * params["theta"], atol=1e-8)

    def test_constant_loss(self):
        params = ParamSet({"theta": np.linspace(-1, 1, 5)})
        grads = finite_diff(lambda p: 3.5, params)
        np.testing.assert_array_equal(grads["theta"], np.zeros(5))

    def test_step_scales_with_magnitude(self):
        # for |p| >> 1 the step is h_rel * |p|; exact for quadratics anyway
        params = ParamSet({"theta": np.array([1e4])})
        grads = finite_diff(lambda p: float((p["theta"] ** 2).sum()), params, h_rel=1e-6)
        np.testing.assert_allclose(grads["theta"], 2e4, rtol=1e-9)


    def test_matches_a_flat_vector_oracle_bit_for_bit(self):
        # the probes of one concatenated float64 vector, split back into keys
        rng = np.random.default_rng(2)
        params = ParamSet({"w": rng.standard_normal((2, 3)).astype(np.float32),
                           "b": rng.standard_normal(4) * 30.0, "s": np.array(0.7)})

        def loss(p):
            return float(np.sum(np.sin(p["w"]) ** 2) * np.sum(np.cos(p["b"])) + p["s"] ** 3)

        flat = np.concatenate([np.asarray(v, dtype=np.float64).ravel() for v in params.values()])

        def unflat(vec):
            out, offset = {}, 0
            for k, v in params.items():
                out[k] = vec[offset: offset + v.size].reshape(v.shape)
                offset += v.size
            return ParamSet(out)

        expected = np.zeros_like(flat)
        for i in range(flat.size):
            step = 1e-4 * max(1.0, abs(flat[i]))
            probe = flat.copy()
            probe[i] = flat[i] + step
            hi = loss(unflat(probe))
            probe[i] = flat[i] - step
            lo = loss(unflat(probe))
            expected[i] = (hi - lo) / (2.0 * step)
        grads = finite_diff(loss, params)
        assert list(grads) == list(params)
        for k, v in unflat(expected).items():
            assert grads[k].dtype == np.float64 and np.array_equal(grads[k], v), k

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_is_refused(self, bad):
        params = ParamSet({"theta": np.array([0.3, -1.2])})
        with pytest.raises(NonFiniteLoss, match="^loss not finite during finite differencing$"):
            finite_diff(lambda p: bad if p["theta"][1] < -1.2 else 1.0, params)


class TestGradAgreement:
    def test_leaf_loss_matches_finite_differences(self):
        params = perturbed_params(CFG, num_classes=3, seed=5)
        batch = small_batch(seed=6, n=2)
        _, analytic = loss_and_grad(batch, params)
        numeric = finite_diff(lambda p: batch_loss(batch, p), params, h_rel=1e-5)
        errors = np.concatenate([e.ravel() for e in relative_errors(analytic, numeric).values()])
        assert errors.max() < 1e-3
        assert np.mean(errors < 1e-4) >= 0.99

    def test_eta_fd_error_shrinks_quadratically(self):
        # the oracle's truncation error in the oscillatory eta direction
        # drops ~100x per 10x step reduction, i.e. the analytic gradient is
        # the h -> 0 limit of the central differences
        params = perturbed_params(CFG, num_classes=3, seed=5)
        batch = small_batch(seed=6, n=2)
        _, analytic = loss_and_grad(batch, params)
        a = analytic["eta"][2]
        eta = params["eta"]
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            probe = eta.copy()
            probe[2] = eta[2] + h
            hi = batch_loss(batch, ParamSet({**params, "eta": probe}))
            probe[2] = eta[2] - h
            lo = batch_loss(batch, ParamSet({**params, "eta": probe}))
            errs.append(abs((hi - lo) / (2 * h) - a))
        assert errs[0] / errs[1] > 30
        assert errs[1] / errs[2] > 30

    def test_gradient_linearity(self):
        params = perturbed_params(CFG, num_classes=3, seed=8)
        batch_a = small_batch(seed=9, n=2)
        batch_b = small_batch(seed=10, n=2)
        xs_a, y_a, k_a = stack_batch(batch_a, np.float64)
        xs_b, y_b, k_b = stack_batch(batch_b, np.float64)
        a, b = 0.7, -1.3

        loss_a, leaves, _ = multitask_graph(xs_a, y_a, k_a, params, CFG, 1)
        loss_b, _, _ = multitask_graph(xs_b, y_b, k_b, leaves, CFG, 1)
        combined = a * loss_a + b * loss_b
        tape.backward(combined)
        combined_grads = {k: v.grad.copy() for k, v in leaves.items()}

        _, grads_a = loss_and_grad(batch_a, params)
        _, grads_b = loss_and_grad(batch_b, params)
        for name in combined_grads:
            np.testing.assert_allclose(
                combined_grads[name], a * grads_a[name] + b * grads_b[name],
                rtol=1e-9, atol=1e-12,
            )


@pytest.fixture(scope="module")
def report(gradcheck_seed0):
    return gradcheck_seed0.rows


class TestGradCheckReport:

    def test_covers_every_variant_and_group(self, report):
        by_variant = {}
        for row in report:
            by_variant.setdefault(row["variant"], set()).add(row["param_group"])
        gabor_groups = {"eta", "sigma", "pool_widths", "head0_weights", "head0_bias"}
        assert by_variant["gabor/log"] == gabor_groups
        assert by_variant["gabor/pcen"] == gabor_groups | {"pcen_alpha", "pcen_delta", "pcen_root"}
        assert by_variant["gabor/spcen"] == gabor_groups | {
            "pcen_alpha", "pcen_delta", "pcen_root", "pcen_smooth"}
        assert by_variant["normalized_conv/spcen"] == {
            "conv_kernels", "pool_widths", "pcen_alpha", "pcen_delta", "pcen_root",
            "pcen_smooth", "head0_weights", "head0_bias"}
        assert by_variant["mel/spcen"] == {
            "pcen_alpha", "pcen_delta", "pcen_root", "pcen_smooth", "head0_weights", "head0_bias"}

    def test_mel_log_has_only_head_parameters(self, report):
        groups = {r["param_group"] for r in report if r["variant"] == "mel/log"}
        assert groups == {"head0_weights", "head0_bias"}

    def test_all_errors_below_tolerance(self, report):
        for row in report:
            assert row["max_rel_err"] < 1e-3, row
