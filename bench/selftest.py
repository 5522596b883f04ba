"""Self-tests of the benchmark harness (not part of the package's suite).

    python3 -m pytest -q bench/selftest.py

Run from the root of the checkout.  The traced tests run a couple of real
ops per workload, about 15 s in all.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import leafaudio  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from leafaudio import tasks  # noqa: E402

FILTER_STAGE = ("tape.bank_correlate.fwd", "tape.paired_square_sum.fwd", "tape.depthwise_pool.fwd")


def test_tail_percentile_rule():
    values = [float(v) for v in range(1, 34)]  # n = 33
    p, tail = workloads.tail_percentile(values)
    assert (p, tail) == (69, 23.0)
    assert sum(v > tail for v in values) == 10
    for n in (11, 20, 33, 100, 1000, 1234):
        values = list(range(n))
        p, tail = workloads.tail_percentile(values)
        assert sum(v > tail for v in values) >= 10
        next_rank = math.ceil((p + 1) * n / 100)
        assert n - next_rank < 10, "a higher percentile would still leave 10 beyond"
    assert workloads.tail_percentile(list(range(100)))[0] == 90
    assert workloads.tail_percentile(list(range(1000)))[0] == 99
    with pytest.raises(ValueError):
        workloads.tail_percentile(list(range(10)))


def test_tail_is_printed_with_its_percentile_and_n(capsys):
    result = {"failed": 0, "attempted": 35,
              "notes": {"op_ms_p50": 17.0, "tail": {"percentile": 69, "n": 33}}}
    metrics = {name: {"value": 1.0, "unit": unit} for name, unit in workloads.END_TO_END.items()}
    run.print_end_to_end(result, metrics)
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("op_ms_tail") and line.endswith("(p69 of n=33)") for line in lines)
    printed = {line.split()[0] for line in lines[1:]}
    assert printed == {*workloads.END_TO_END, "op_ms_p50", "ops_failed_frac"}


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["frontend.features_graph", 1.0, 6.0, 0, 0, None],
        ["tape.bank_correlate.fwd", 2.0, 4.0, 1, 0, None],
        ["tape.mul.fwd", 4.5, 5.0, 1, 0, None],
        ["tape.backward", 7.0, 9.5, 0, 0, None],
        ["tape.bank_correlate.bwd", 7.5, 9.0, 4, 0, "frontend.features_graph"],
    ]
    duration, own = spans.self_times(tree)
    assert duration == [10.0, 5.0, 2.0, 0.5, 2.5, 1.5]
    assert own == [2.5, 2.5, 2.0, 0.5, 1.0, 1.5]
    (op,) = spans.summarize(tree, 1)
    expected = {
        "traced_op_ms": 10000.0, "unattributed_ms": 2500.0,
        "frontend.self_ms": 2500.0, "tape.self_ms": 5000.0,
        "frontend.features_graph.self_ms": 2500.0, "frontend.features_graph.ms": 5000.0,
        "tape.bank_correlate.fwd_ms": 2000.0, "tape.bank_correlate.bwd_ms": 1500.0,
        "tape.elementwise.fwd_ms": 500.0, "tape.backward.self_ms": 1000.0,
        "frontend.features_graph.bwd_ms": 1500.0,
        "tape.bank_correlate.calls": 1, "tape.bank_correlate.bwd_calls": 1,
    }
    for key, value in expected.items():
        assert op[key] == pytest.approx(value), key
    assert spans.partition_gap_ms(op) == pytest.approx(0.0, abs=1e-9)


def test_generated_inputs_repeat_for_a_seed(tmp_path):
    assert workloads.wav_bytes(7, 0, 1.0) == workloads.wav_bytes(7, 0, 1.0)
    assert workloads.wav_bytes(7, 0, 1.0) != workloads.wav_bytes(8, 0, 1.0)
    assert workloads.wav_bytes(7, 0, 1.0) != workloads.wav_bytes(7, 1, 1.0)

    first, second = (workloads.TrainLeaf(7, str(tmp_path)) for _ in range(2))
    for w in (first, second):
        w.setup()
    step = first.prepare(4)
    assert step == second.prepare(4)
    a = tasks.sample_batch(first.tasks, first.batch_size, first.seed, step)
    b = tasks.sample_batch(second.tasks, second.batch_size, second.seed, step)
    assert [(y, k) for _, y, k in a] == [(y, k) for _, y, k in b]
    assert all(np.array_equal(x.samples, z.samples) for (x, _, _), (z, _, _) in zip(a, b))

    first, second = (workloads.EvalMelPcen(7, str(tmp_path)) for _ in range(2))
    for w in (first, second):
        w.setup()
    assert first.prepare(3) == second.prepare(3) != first.prepare(4)
    for key in first.model.params:
        assert np.array_equal(first.model.params[key], second.model.params[key])


def _leafaudio_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "leafaudio" or name.startswith("leafaudio.")}


def test_tracer_restores_every_patched_attribute():
    before = _leafaudio_namespaces()
    tracer = spans.Tracer(leafaudio)
    assert all(_leafaudio_namespaces()[m][a] is v for m, ns in before.items() for a, v in ns.items())

    tracer.install()
    now = _leafaudio_namespaces()
    changed = {(m, a) for m, ns in before.items() for a, v in ns.items() if now[m][a] is not v}
    assert changed == {(module.__name__, attr) for module, attr, _, _ in tracer.patches}
    for where in (("leafaudio.training", "features_graph"), ("leafaudio.cli", "frontend_forward"),
                  ("leafaudio.tape", "bank_correlate"), ("leafaudio.tape", "add"),
                  ("leafaudio.tape", "getitem"), ("leafaudio.params", "gabor_params_from_mels")):
        assert where in changed, where

    tracer.restore()
    after = _leafaudio_namespaces()
    assert after.keys() == before.keys()
    for module, namespace in before.items():
        assert after[module].keys() == namespace.keys()
        assert all(after[module][a] is v for a, v in namespace.items()), module


def _traced_run(name, seed, workdir):
    """Two ops, the second traced; returns (counts, span names) of the traced op."""
    workload = workloads.WORKLOADS[name](seed, str(workdir))
    workload.setup()
    tracer = spans.Tracer(leafaudio)
    plain, traced = workloads.closed_loop(workload, 0, 0.0, 2, tracer)
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    (summary,) = spans.summarize(tracer.spans, tracer.op_id + 1)
    assert spans.partition_gap_ms(summary) < 1e-6
    return tracer.counts[0], {span[0] for span in tracer.spans}


@pytest.mark.parametrize("name, count_keys", [
    ("train-leaf", {"tape.nodes", "tape.retained_bytes", "tape.bank_correlate.out_bytes"}),
    ("extract-long", {"tape.nodes", "tape.retained_bytes", "tape.bank_correlate.out_bytes",
                      "io.write_feature_file.bytes"}),
    ("eval-mel-pcen", {"tape.nodes", "tape.retained_bytes"}),
])
def test_traced_counts_repeat_exactly(name, count_keys, tmp_path):
    counts, names = _traced_run(name, 3, tmp_path)
    again, _ = _traced_run(name, 3, tmp_path)
    assert counts == again
    assert set(counts) == count_keys and all(v > 0 for v in counts.values())
    if name == "eval-mel-pcen":
        assert not names & set(FILTER_STAGE)
    else:
        assert set(FILTER_STAGE) <= names


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-leaf", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
