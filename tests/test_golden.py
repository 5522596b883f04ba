"""Bit identity: sha256 digests of features and step gradients.

``data/golden.json`` holds the digests of the ``features_graph`` values of
every variant and of one two-task training step's loss and gradients, in
float32 and float64, with the numpy and scipy versions they were made
with.  Rounding may differ between library versions, so on other versions
the test skips; it never compares at a tolerance.

Regenerate the file, after a change that moves bits on purpose, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from leafaudio.frontend import VARIANT_NAMES, features_graph, variant_config
from leafaudio.params import frontend_param_values, init_multitask_params
from leafaudio.tasks import make_task, sample_batch
from leafaudio.training import multitask_loss_and_grad

GOLDEN = Path(__file__).parent / "data" / "golden.json"
VARIANTS = tuple(VARIANT_NAMES.values())
DTYPES = (np.float32, np.float64)
# a 1 s clip, and one of 3 overlap-save spans of 16384 - 400 samples plus
# a 17-sample last block at the default 401-tap filters
CLIP_LENGTHS = (16000, 3 * (16384 - 400) + 17)


def _versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _step_inputs(cfg, dtype):
    """A two-task B=4 batch and initial parameters whose heads carry a
    seeded perturbation, so that no gradient is zero."""
    tasks = [make_task("pitch", 0), make_task("am", 1)]
    params = dict(init_multitask_params(cfg, [t.num_classes for t in tasks], dtype))
    rng = np.random.default_rng(11)
    for key in params:
        if key.startswith("head"):
            params[key] = (params[key] + 0.1 * rng.standard_normal(params[key].shape)).astype(dtype)
    return sample_batch(tasks, 4, seed=5, step=1), params


def compute_digests():
    """{case name: sha256 hex digest} of every golden case."""
    clip = np.random.default_rng(3).standard_normal(max(CLIP_LENGTHS))
    out = {}
    for name in VARIANTS:
        cfg = variant_config(name)
        for dtype in DTYPES:
            dname = np.dtype(dtype).name
            params = frontend_param_values(cfg, dtype)
            for n in CLIP_LENGTHS:
                feats = features_graph(clip[None, :n].astype(dtype), params, cfg).value
                out[f"features/{name}/{dname}/{n}"] = _digest(feats)
            batch, params = _step_inputs(cfg, dtype)
            loss, grads = multitask_loss_and_grad(batch, params, cfg, 2, dtype=dtype)[:2]
            assert all(np.any(g != 0) for g in grads.values()), name
            out[f"step/{name}/{dname}"] = _digest(np.float64(loss), *(grads[k] for k in sorted(grads)))
    return out


def test_digests_match_golden():
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != _versions():
        pytest.skip(f"golden digests were made with {golden['versions']}, this is {_versions()}")
    assert compute_digests() == golden["digests"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"versions": _versions(), "digests": compute_digests()},
                                 indent=1, sort_keys=True) + "\n")
