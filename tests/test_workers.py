"""The package's thread pool owns the process's threads: after the first
step, every OpenBLAS the process has loaded runs one thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# run in a fresh interpreter: the OpenBLAS thread counts after one
# leafaudio step
SCRIPT = """
import ctypes, json, os
import numpy as np

def blas_threads():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                counts[os.path.basename(path)] = getattr(lib, name)()
                break
    return counts

from leafaudio import Waveform, frontend_forward, init_params, variant_config

cfg = variant_config("leaf")
frontend_forward(Waveform(np.zeros(1600), 16000), init_params(cfg, 2), cfg)
print(json.dumps(blas_threads()))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="lists loaded libraries from /proc/self/maps")
def test_first_step_sets_openblas_to_one_thread():
    env = {name: value for name, value in os.environ.items() if not name.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    child = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True)
    counts = json.loads(child.stdout)
    if not counts:
        pytest.skip("no OpenBLAS is loaded")
    assert counts == {name: 1 for name in counts}
