"""The benchmark harness under bench/ still finds every function it times.

``bench/spans.py`` patches leafaudio from outside the package; deleting or
renaming a function it names would otherwise only surface when the
benchmark runs.  Building the tracer plans the patches and applies none.
The filter stage and the PCEN smoother are tape primitives, which the
tracer finds through ``tape.__all__``.  Every workload also runs four
checked ops and then its correctness gates here, so a change that breaks
a workload or a gate fails this suite rather than the benchmark run.
"""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import leafaudio
from leafaudio.frontend import variant_config
from leafaudio.params import init_params
from leafaudio.signal import Waveform

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH_DIR / "spans.py"


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


@pytest.fixture(scope="module")
def traced_leaf_step(spans):
    """A tracer that has run one single-task ``leaf`` training step."""
    cfg = variant_config("leaf", n_filters=4, filter_len=33, pool_len=33)
    rng = np.random.default_rng(0)
    batch = [(Waveform(0.1 * rng.standard_normal(1600), 16000), k % 2, 0) for k in range(2)]
    tracer = spans.Tracer(leafaudio)
    tracer.op(leafaudio.training.multitask_loss_and_grad, batch, init_params(cfg, 2), cfg, 1)
    return tracer


def test_traced_step_times_filter_pool_and_ema(traced_leaf_step):
    names = {span[0] for span in traced_leaf_step.spans}
    for op in ("filter_pool", "ema"):
        assert {f"tape.{op}.fwd", f"tape.{op}.bwd"} <= names, op


# the tape ops a leaf step runs, each with a forward and a backward span;
# the graph input leaf and the composite reduce_mean have a forward span only
LEAF_STEP_TAPE_OPS = ("add", "cos", "div", "ema", "exp", "filter_pool", "getitem", "matmul", "mul", "neg",
                      "power", "reduce_sum", "reshape", "sin", "softmax_cross_entropy", "stack", "sub")


def test_traced_step_spans_and_node_count_are_pinned(spans, traced_leaf_step):
    # the tracer finds the tape's ops by name; a private node builder must
    # never show up as an op, and no op may drop out of the spans or counts
    names = {span[0] for span in traced_leaf_step.spans}
    assert names == {"op", "tape.backward", "tape.leaf.fwd", "tape.reduce_mean.fwd",
                     "frontend.features_graph", "frontend.gabor_kernel_graph",
                     "frontend.pcen_graph", "frontend.pool_kernel_graph",
                     *(f"tape.{op}.{way}" for op in LEAF_STEP_TAPE_OPS for way in ("fwd", "bwd"))}
    assert traced_leaf_step.counts[0]["tape.nodes"] == 55
    (summary,) = spans.summarize(traced_leaf_step.spans, traced_leaf_step.op_id + 1)
    assert summary["tape.elementwise.calls"] == 55
    assert summary["tape.elementwise.bwd_calls"] == 45


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, imported with ``bench/`` on the path for this module only."""
    saved_path = list(sys.path)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        for name in ("workloads", "reference", "spans"):  # bench/ modules, by their bare names
            sys.modules.pop(name, None)


def test_every_workload_op_passes_its_check(workloads, tmp_path):
    # ops 0-3 include every op a gate reads (train-leaf keeps steps 2 and 3)
    assert workloads.WORKLOADS
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0, str(tmp_path))
        workload.setup()
        for index in range(4):
            inputs = workload.prepare(index)
            assert workload.check(inputs, workload.op(inputs)), (name, index)
        for gate in workload.gates():
            assert gate.ok, (name, gate.name, gate.detail)


def test_traced_eval_op_spans_stay_on_the_calling_thread(spans, workloads, tmp_path):
    # the clip and STFT shards run on pool threads; the tracer keeps one
    # span stack, so they must call nothing it patches
    workload = workloads.WORKLOADS["eval-mel-pcen"](0, str(tmp_path))
    workload.setup()
    tracer = spans.Tracer(leafaudio)
    entered = []
    enter = tracer.enter

    def enter_recording_thread(name, charge=None):
        entered.append((name, threading.current_thread()))
        return enter(name, charge)

    tracer.enter = enter_recording_thread
    inputs = workload.prepare(0)
    assert workload.check(inputs, tracer.op(workload.op, inputs))
    assert [name for name, thread in entered if thread is not threading.current_thread()] == []
    (summary,) = spans.summarize(tracer.spans, tracer.op_id + 1)
    assert spans.partition_gap_ms(summary) <= 1e-6
    assert summary["tasks.test_set.calls"] == 1
    assert summary["frontend.mel_power_features.calls"] == 1
