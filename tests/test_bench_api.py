"""The benchmark harness under bench/ still finds every function it times.

``bench/spans.py`` patches leafaudio from outside the package; deleting or
renaming a function it names would otherwise only surface when the
benchmark runs.  Building the tracer plans the patches and applies none.
The filter stage and the PCEN smoother are tape primitives, which the
tracer finds through ``tape.__all__``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import leafaudio
from leafaudio.frontend import variant_config
from leafaudio.params import init_params
from leafaudio.signal import Waveform

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_module_function_resolves(spans):
    for home, names in spans.MODULE_FUNCTIONS.items():
        module = importlib.import_module(f"leafaudio.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"leafaudio.{home}.{name}"


def test_tracer_plans_patches_without_applying_them(spans):
    before = {name: getattr(leafaudio.training, name) for name in ("features_graph", "evaluate")}
    tracer = spans.Tracer(leafaudio)
    patched = {(module.__name__, attr) for module, attr, _, _ in tracer.patches}
    for home, names in spans.MODULE_FUNCTIONS.items():
        for name in names:
            assert (f"leafaudio.{home}", name) in patched, f"leafaudio.{home}.{name}"
    assert ("leafaudio.training", "features_graph") in patched
    assert ("leafaudio.cli", "frontend_forward") in patched
    assert ("leafaudio.params", "gabor_params_from_mels") in patched
    assert all(getattr(leafaudio.training, name) is fn for name, fn in before.items())
    assert ("leafaudio.tape", "filter_pool") in patched
    assert ("leafaudio.tape", "ema") in patched


def test_traced_step_times_filter_pool_and_ema(spans):
    cfg = variant_config("leaf", n_filters=4, filter_len=33, pool_len=33)
    rng = np.random.default_rng(0)
    batch = [(Waveform(0.1 * rng.standard_normal(1600), 16000), k % 2, 0) for k in range(2)]
    tracer = spans.Tracer(leafaudio)
    tracer.op(leafaudio.training.multitask_loss_and_grad, batch, init_params(cfg, 2), cfg, 1)
    names = {span[0] for span in tracer.spans}
    for op in ("filter_pool", "ema"):
        assert {f"tape.{op}.fwd", f"tape.{op}.bwd"} <= names, op
