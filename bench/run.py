"""leafaudio benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a leafaudio checkout; the package is imported from
``src/``.  Each workload runs in a child process of its own, with BLAS
threads capped at one.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures per-layer spans (and the tracing overhead) in a
separate, traced run.  Set-up time is the median over several fresh
processes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of traced
runs are written to ``.bench_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("train-leaf", "extract-long", "eval-mel-pcen")
SETUP_SAMPLES = 5  # one from the measuring process, the rest from set-up-only processes
BUDGET_S = 170.0
OUT_DIR = ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core machine a second OpenBLAS thread made the
# small mel-projection matmuls stall (~150 ms instead of ~10 ms per step)
# and gave the filter-stage steps no speed-up.
BLAS_THREADS = "1"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: BLAS_THREADS for name in THREAD_VARS})
    return env


def run_child(args: list, env: dict, deadline: float) -> dict:
    """Run the worker; returns the JSON object on its last stdout line."""
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise RuntimeError(f"worker printed no result: {err}") from err


def print_end_to_end(result: dict, metrics: dict) -> None:
    notes = result["notes"]
    tail = notes["tail"]
    rows = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    rows[1:1] = [("op_ms_p50", notes["op_ms_p50"], "ms", "  (not gated)")]
    rows.append(("ops_failed_frac", result["failed"] / result["attempted"], "ratio",
                 f"  ({result['failed']} of {result['attempted']}; carried by failed/attempted)"))
    print(f"{'metric':<16} {'value':>14}  unit")
    for name, value, unit, extra in rows:
        if name == "op_ms_tail":
            extra = f"  (p{tail['percentile']} of n={tail['n']})"
        print(f"{name:<16} {value:>14.4f}  {unit}{extra}")


def print_per_layer(result: dict, metrics: dict) -> None:
    notes = result["notes"]
    spans_by_name = notes["all_spans"]
    print(f"{'per-layer metric (median per op)':<44} {'value':>14}  {'unit':<6} calls/op")
    for name, metric in metrics.items():
        base, _, suffix = name.rpartition(".")
        calls = spans_by_name.get(f"{base}.bwd_calls" if suffix == "bwd_ms" else f"{base}.calls")
        calls = "" if calls is None or name.endswith(".calls") else f"{calls:g}"
        print(f"{name:<44} {metric['value']:>14.4f}  {metric['unit']:<6} {calls}")
    print(f"traced ops: {notes['traced_ops']}")
    print(f"tracing overhead: untraced {notes['untraced_audio_s_per_s']:.4f} s/s, "
          f"traced {notes['traced_audio_s_per_s']:.4f} s/s")
    print(f"spans written to {notes['spans_file']}")
    for row in result.get("variants", []):
        print("variant {variant:<9} step best {step_ms_best:8.1f} ms median {step_ms_median:8.1f} ms"
              " | forward best {forward_ms_best:7.1f} ms median {forward_ms_median:7.1f} ms".format(**row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "leafaudio", "__init__.py")):
        print("error: run from the root of a leafaudio checkout (no src/leafaudio here)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--outdir", out_dir, "--workdir", workdir]

    def setup_probes(count):
        count = 0 if args.trace else count
        return [run_child([*common, "--setup-only"], env, deadline)["setup_s"] for _ in range(count)]

    try:
        # set-up is sampled before and after the measuring process, so that
        # its median does not rest on one stretch of the host's speed
        before = setup_probes(SETUP_SAMPLES // 2)
        result = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           env, deadline)
        after = setup_probes(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup = [*before, result["setup_s"], *after]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print("environment: " + json.dumps(result["env"]))
    for gate in result["gates"]:
        print(f"gate {'PASS' if gate['ok'] else 'FAIL'}: {gate['name']} -- {gate['detail']}")
    for error in result["errors"]:
        print(f"failed {error}")
    if args.trace:
        print_per_layer(result, metrics)
    else:
        print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
        print_end_to_end(result, metrics)
    correct = result["failed"] == 0 and all(g["ok"] for g in result["gates"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
