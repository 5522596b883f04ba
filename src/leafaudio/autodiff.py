"""Gradient verification for every frontend variant.

The training loss (``training.multitask_loss_and_grad``, here with one
task) is differentiated in reverse mode through the linear head,
compression (including the PCEN moving-average recursion), pooling,
squared-modulus filtering, and the Gabor parametrization.  A central
finite-difference oracle on ``training.multitask_loss``, probing one
parameter element at a time, provides the independent check.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonFiniteLoss
from .frontend import FrontendConfig, variant_config
from .params import Gradients, ParamSet, init_params
from .signal import FRONTEND_RATE, Waveform, add_noise_snr, synth_tones
from .training import MultiHead, multitask_loss, multitask_loss_and_grad

GRADCHECK_VARIANTS = ("leaf-log", "leaf-pcen", "leaf", "convnorm", "mel-pcen", "mel")
# small sizes keep the finite-difference sweep tractable
GRADCHECK_SIZES = {"n_filters": 6, "filter_len": 65, "pool_len": 65, "pool_stride": 80}


def finite_diff(loss_fn: Callable[[ParamSet], float], params: ParamSet,
                h_rel: float = 1e-4) -> Gradients:
    """Float64 central differences with per-coordinate step h = h_rel * max(1, |p|),
    one element at a time: keys in order, each array in C order, a probe
    copying only the array it perturbs."""
    base = {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}
    grads = {name: np.zeros(value.shape) for name, value in base.items()}
    for name, value in base.items():
        for i in np.ndindex(value.shape):
            step = h_rel * max(1.0, abs(value[i]))
            probe = value.copy()
            probe[i] = value[i] + step
            hi = loss_fn(ParamSet({**base, name: probe}))
            probe[i] = value[i] - step
            lo = loss_fn(ParamSet({**base, name: probe}))
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NonFiniteLoss("loss not finite during finite differencing")
            grads[name][i] = (hi - lo) / (2.0 * step)
    return Gradients(grads)


def relative_errors(analytic: Gradients, numeric: Gradients) -> dict[str, np.ndarray]:
    """|a - b| / max(1e-8, |a| + |b|) per parameter, keyed by group."""
    out = {}
    for name in analytic:
        a = np.asarray(analytic[name], dtype=np.float64).ravel()
        b = np.asarray(numeric[name], dtype=np.float64).ravel()
        out[name] = np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))
    return out


def synthetic_batch(seed: int, batch_size: int = 2, num_classes: int = 3) -> list[tuple[Waveform, int, int]]:
    """Noisy random 0.1 s tones as single-task (waveform, label, 0) triples;
    broadband content keeps every channel's gradient live."""
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(batch_size):
        freq = float(rng.uniform(200.0, 6000.0))
        amp = float(rng.uniform(0.3, 1.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        x = synth_tones((freq,), (amp,), (phase,), 0.1, FRONTEND_RATE)
        x = add_noise_snr(x, 10.0, rng)
        batch.append((x, int(rng.integers(num_classes)), 0))
    return batch


def perturbed_params(cfg: FrontendConfig, num_classes: int, seed: int) -> ParamSet:
    """Init values nudged off their symmetric start so gradients are generic."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, num_classes, dtype=np.float64)
    values = {}
    for name, value in params.items():
        jitter = 0.01 * np.abs(value).mean() + 1e-3
        values[name] = value + rng.uniform(-jitter, jitter, size=value.shape)
    return ParamSet(values)


def grad_check_report(seed: int = 0) -> list[dict]:
    """Reverse-mode vs finite-difference agreement for every variant in
    ``GRADCHECK_VARIANTS`` at ``GRADCHECK_SIZES``.

    Returns one row per (variant, parameter group):
    ``{"variant", "param_group", "max_rel_err", "n_params"}``.

    The step is 1e-5 rather than finite_diff's default 1e-4: the loss is oscillatory in
    the filter center frequencies (curvature ~ (2 pi t)^3 over the kernel
    grid), so a 1e-4 step leaves ~1e-2 relative truncation error in the
    oracle itself for that group; at 1e-5 both truncation and roundoff sit
    well below the 1e-4 agreement target.
    """
    rows = []
    for name in GRADCHECK_VARIANTS:
        variant_cfg = variant_config(name, **GRADCHECK_SIZES)
        params = perturbed_params(variant_cfg, num_classes=3, seed=seed)
        batch = synthetic_batch(seed + 1)
        _, analytic, _, _ = multitask_loss_and_grad(batch, params, variant_cfg, n_tasks=1)
        numeric = finite_diff(lambda p: multitask_loss(batch, MultiHead(p, variant_cfg, (3,))),
                              params, h_rel=1e-5)
        errors = relative_errors(analytic, numeric)
        for group in params:
            rows.append({
                "variant": f"{variant_cfg.filtering}/{variant_cfg.compression}",
                "param_group": group,
                "max_rel_err": float(errors[group].max()),
                "n_params": int(errors[group].size),
            })
    return rows
