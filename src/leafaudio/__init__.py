"""Learnable audio frontend: Gabor filterbank, Gaussian lowpass pooling,
per-channel energy normalization, and a mel-filterbank baseline, with
reverse-mode gradients for end-to-end training."""

from .errors import LeafError
from .frontend import (
    FeatureMap,
    FrontendConfig,
    frontend_forward,
    renormalize_conv,
    variant_config,
    variant_name,
)
from .gabor import gabor_impulse_response, mel_matrix
from .params import Gradients, ParamSet, init_params, param_count
from .signal import Waveform, add_noise_snr, load_wav, synth_tones
from .autodiff import finite_diff, grad_check_report
from .training import AdamState, MultiHead, adam_step, bootstrap_diff, evaluate, multitask_loss, noise_sweep, train

__version__ = "0.1.0"
