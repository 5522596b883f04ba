"""Bit identity: sha256 digests of features, step gradients and CLI output.

``data/golden.json`` holds the digests of the ``features_graph`` values of
every variant and of one two-task training step's loss and gradients, in
float32 and float64, of the ``extract`` feature files of ``leaf`` and
``mel-pcen`` and of both ``inspect`` views of ``leaf`` at init, with the
numpy and scipy versions and numpy's dispatched SIMD targets they were
made with.  Rounding may differ between library versions and between the
SIMD loops numpy picks for a CPU (with AVX-512 off, most of the digests
move), so on other versions or targets the test skips; it never compares
at a tolerance.  ``test_cli.py``'s stored ``gradcheck --seed 0`` output
skips by the same rule.

Regenerate the file, after a change that moves bits on purpose, with::

    PYTHONPATH=src python tests/test_golden.py

It prints each digest that it adds, removes or changes before it writes.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
import scipy

from leafaudio import cli
from leafaudio.frontend import VARIANT_NAMES, features_graph, variant_config
from leafaudio.params import frontend_param_values, init_multitask_params
from leafaudio.tasks import make_task, sample_batch
from leafaudio.training import multitask_loss_and_grad

GOLDEN = Path(__file__).parent / "data" / "golden.json"
VARIANTS = tuple(VARIANT_NAMES.values())
DTYPES = (np.float32, np.float64)
# forward-only feature calls at the default 401-tap filters, whose
# overlap-save spans are 6000 - 400 samples: 4000 samples, one block; a 1 s
# clip, two spans and 4800 samples; and a longer one, 8 spans and 3169
# samples (its length is kept so that its digests do not move)
CLIP_LENGTHS = (4000, 16000, 47969)
CLI_VARIANTS = ("leaf", "mel-pcen")


def _versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def simd_targets():
    """The SIMD targets numpy's optimized loops dispatch to on this CPU."""
    info = np.lib.introspect.opt_func_info()
    return sorted({target["current"] for signatures in info.values() for target in signatures.values()})


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


def _cli_digests(clip):
    """Digests of ``extract`` file bytes, on ``clip`` written as a 16-bit
    WAV, and of ``inspect`` stdout."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp) / "clip.wav"
        with wave.open(str(wav), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(np.round(0.25 * clip * 32767).clip(-32768, 32767).astype("<i2").tobytes())
        for name in CLI_VARIANTS:
            feats = Path(tmp) / f"{name}.leaf"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["extract", "--input", str(wav), "--frontend", name,
                                 "--out", str(feats)]) == 0
            out[f"cli/extract/{name}"] = hashlib.sha256(feats.read_bytes()).hexdigest()
    for what in ("filters", "params"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["inspect", "--frontend", "leaf", "--what", what]) == 0
        out[f"cli/inspect/{what}"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return out


def compute_digests():
    """{case name: sha256 hex digest} of every golden case."""
    clip = np.random.default_rng(3).standard_normal(max(CLIP_LENGTHS))
    out = _cli_digests(clip)
    for name in VARIANTS:
        cfg = variant_config(name)
        for dtype in DTYPES:
            dname = np.dtype(dtype).name
            params = frontend_param_values(cfg, dtype)
            for n in CLIP_LENGTHS:
                feats = features_graph(clip[None, :n].astype(dtype), params, cfg).value
                out[f"features/{name}/{dname}/{n}"] = _digest(feats)
            batch, params = _step_inputs(cfg, dtype)
            loss, grads = multitask_loss_and_grad(batch, params, cfg, 2)[:2]
            assert all(np.any(g != 0) for g in grads.values()), name
            out[f"step/{name}/{dname}"] = _digest(np.float64(loss), *(grads[k] for k in sorted(grads)))
    return out


def skip_off_the_golden_platform(what):
    """Skip the calling test, naming both sides, unless numpy, scipy and
    numpy's SIMD targets are those ``golden.json`` was made with; ``what``
    names the stored numbers the test compares.  Returns the golden file."""
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != _versions():
        pytest.skip(f"{what} were made with {golden['versions']}, this is {_versions()}")
    if golden["simd"] != simd_targets():
        pytest.skip(f"{what} were made on numpy SIMD targets {golden['simd']}, "
                    f"this CPU dispatches to {simd_targets()}")
    return golden


def test_digests_match_golden():
    golden = skip_off_the_golden_platform("golden digests")
    assert compute_digests() == golden["digests"]


def moved_digests(old, new):
    """One line per case that is added, removed or changed from ``old`` to ``new``."""
    return [f"{'added' if k not in old else 'removed' if k not in new else 'changed'} {k}"
            for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]


def test_moved_digests_names_each_move():
    old, new = {"a": "1", "b": "2", "c": "3"}, {"b": "2", "c": "4", "d": "5"}
    assert moved_digests(old, new) == ["removed a", "changed c", "added d"]
    assert moved_digests(old, old) == []


if __name__ == "__main__":
    digests = compute_digests()
    old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    print("\n".join(moved_digests(old, digests)) or "no digest moved")
    GOLDEN.write_text(json.dumps({"versions": _versions(), "simd": simd_targets(), "digests": digests},
                                 indent=1, sort_keys=True) + "\n")
