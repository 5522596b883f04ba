"""Named parameter collections, initialization, and constraint projection.

A ParamSet maps parameter names to real vectors/matrices.  Frontend keys
depend on the variant (eta/sigma or conv_kernels, pool_widths, pcen_*);
task k's linear classifier head is ``head{k}_weights``/``head{k}_bias``,
so a single-task model has ``head0_*``; ``class_counts`` reads a model's
head sizes back for ``init_multitask_params``, which refuses a head of
fewer than 2 classes.  ``constraint_bounds`` is the one table of allowed
ranges that ``project_params`` clamps into.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .errors import ShapeMismatch
from .frontend import (
    FrontendConfig,
    PCEN_ALPHA_INIT,
    PCEN_DELTA_INIT,
    PCEN_ROOT_INIT,
    PCEN_SMOOTH_INIT,
    gabor_kernel_graph,
    renormalize_conv,
)
from .gabor import SIGMA_MIN, gabor_params_from_mels, sigma_max


class ParamSet(Mapping):
    """Ordered name -> ndarray mapping with a shape congruence check."""

    def __init__(self, values: Mapping[str, np.ndarray]):
        self._values = {k: np.asarray(v) for k, v in values.items()}

    def __getitem__(self, key):
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        inner = ", ".join(f"{k}:{v.shape}" for k, v in self._values.items())
        return f"ParamSet({inner})"

    def copy(self) -> "ParamSet":
        return ParamSet({k: v.copy() for k, v in self._values.items()})

    def require_congruent(self, other: Mapping, what: str = "gradients") -> None:
        """Raise ShapeMismatch naming the first key that ``other`` lacks, else
        shapes differently, else has and ``self`` does not."""
        problems = [f"{k} is missing" for k in self if k not in other]
        problems += [f"{k} has shape {np.shape(other[k])}, not {v.shape}"
                     for k, v in self._values.items() if k in other and np.shape(other[k]) != v.shape]
        problems += [f"{k} is unexpected" for k in other if k not in self]
        if problems:
            raise ShapeMismatch(f"{what} do not match parameter shapes: {problems[0]}")


Gradients = ParamSet  # same keyed structure, one real per parameter


def frontend_param_values(cfg: FrontendConfig, dtype=np.float64) -> dict[str, np.ndarray]:
    """Initial frontend parameters (mel-matched filters, 0.4 pooling widths,
    standard PCEN start point).  The mel variant has no frontend keys except
    its compression."""
    values: dict[str, np.ndarray] = {}
    if cfg.filtering in ("gabor", "normalized_conv"):
        eta, sigma = gabor_params_from_mels(cfg)
        if cfg.filtering == "gabor":
            values["eta"], values["sigma"] = eta, sigma
        else:
            values["conv_kernels"] = renormalize_conv(gabor_kernel_graph(eta, sigma, cfg.filter_len).value)
        values["pool_widths"] = np.full(cfg.n_filters, 0.4)
    if cfg.compression in ("pcen", "spcen"):
        values["pcen_alpha"] = np.full(cfg.n_filters, PCEN_ALPHA_INIT)
        values["pcen_delta"] = np.full(cfg.n_filters, PCEN_DELTA_INIT)
        values["pcen_root"] = np.full(cfg.n_filters, PCEN_ROOT_INIT)
        if cfg.compression == "spcen":
            values["pcen_smooth"] = np.full(cfg.n_filters, PCEN_SMOOTH_INIT)
    return {k: v.astype(dtype) for k, v in values.items()}


def param_count(cfg: FrontendConfig) -> int:
    """Learnable frontend parameters of a variant (classifier excluded):
    the total size of its initial values."""
    return sum(v.size for v in frontend_param_values(cfg).values())


def init_multitask_params(cfg: FrontendConfig, class_counts: list[int], dtype=np.float64) -> ParamSet:
    """Shared frontend with one zero-initialized linear head per task
    (uniform softmax before training)."""
    values = frontend_param_values(cfg, dtype)
    for k, n_classes in enumerate(class_counts):
        if n_classes < 2:  # one class: zero loss and zero gradient
            raise ValueError(f"head {k} needs at least 2 classes, got {n_classes}")
        values[f"head{k}_weights"] = np.zeros((cfg.n_filters, n_classes), dtype=dtype)
        values[f"head{k}_bias"] = np.zeros(n_classes, dtype=dtype)
    return ParamSet(values)


def class_counts(params: Mapping) -> tuple[int, ...]:
    """Class counts of head0, head1, ... up to the first missing head{k}_bias."""
    counts = []
    while f"head{len(counts)}_bias" in params:
        counts.append(params[f"head{len(counts)}_bias"].size)
    return tuple(counts)


def init_params(cfg: FrontendConfig, num_classes: int, dtype=np.float64) -> ParamSet:
    """Frontend plus one head: the single-task case of init_multitask_params."""
    return init_multitask_params(cfg, [num_classes], dtype)


def constraint_bounds(cfg: FrontendConfig) -> dict[str, tuple[float, float | None]]:
    """Allowed (low, high) range of every clamped parameter, by name."""
    return {
        "eta": (0.0, 0.5),
        "sigma": (SIGMA_MIN, sigma_max(cfg.filter_len)),
        "pool_widths": (2.0 / cfg.pool_len, 0.5),
        "pcen_alpha": (0.0, 1.0),
        "pcen_delta": (0.0, None),
        "pcen_root": (1.0, None),
        "pcen_smooth": (0.0, 1.0),
    }


def project_params(params: ParamSet, cfg: FrontendConfig) -> ParamSet:
    """Clamp every constrained parameter into its allowed range.

    Applied after each optimizer step; gradients themselves are always for
    the unprojected function.
    """
    bounds = constraint_bounds(cfg)
    out = {}
    for key, value in params.items():
        if key == "conv_kernels":  # unit l2 norm per kernel
            out[key] = renormalize_conv(value).astype(value.dtype)
        elif key in bounds:
            out[key] = np.clip(value, *bounds[key])
        else:
            out[key] = value.copy()
    return ParamSet(out)
