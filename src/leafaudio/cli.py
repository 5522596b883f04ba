"""Command-line interface: extraction, training, evaluation, inspection,
gradient checking, bootstrap analysis, and noise sweeps.

Exit codes: 0 success, 1 runtime failure (the domain error name is printed
to stderr), 2 usage error.  Every output is deterministic given --seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as leafio
from .autodiff import grad_check_report
from .errors import ShapeMismatch
from .frontend import (
    VARIANT_NAMES,
    FrontendConfig,
    frontend_forward,
    pooled_graph,
    require_frontend_rate,
    variant_config,
    variant_name,
)
from .params import ParamSet, frontend_param_values, init_params
from .signal import FRONTEND_RATE, load_wav
from .tasks import TASK_NAMES, make_task
from .training import MultiHead, bootstrap_diff, evaluate, noise_sweep, train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leafaudio",
                                     description="learnable audio frontend toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--frontend", choices=tuple(VARIANT_NAMES.values()), default=None)
        add_config_flags(p)

    def add_config_flags(p):
        p.add_argument("--filters", type=int, default=None, help="number of channels N")
        p.add_argument("--filter-len", type=int, default=None, help="kernel length W (odd)")
        p.add_argument("--stride", type=int, default=None, help="pooling stride in samples")
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("extract", help="waveform -> feature file")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--model", default=None, help="snapshot directory with trained parameters")
    p.add_argument("--compare", action="store_true",
                   help="print per-channel correlation between leaf-init and mel features")

    p = sub.add_parser("train", help="train a frontend + heads on synthetic tasks")
    add_common(p)
    p.add_argument("--task", default="pitch", help="comma list from {pitch,am,noisecolor}")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--snr-db", type=float, default=math.inf)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="evaluate a trained snapshot")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--task", choices=TASK_NAMES, default="pitch")
    p.add_argument("--task-index", type=int, default=0)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--snr-db", type=float, default=math.inf)

    p = sub.add_parser("gradcheck", help="reverse-mode vs finite differences, per variant")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("inspect", help="dump per-channel parameters as CSV")
    add_common(p)
    p.add_argument("--model", default=None, help="snapshot directory (default: initialization)")
    p.add_argument("--what", choices=("params", "filters"), default="params")

    p = sub.add_parser("bootstrap", help="paired bootstrap significance test")
    p.add_argument("--a", required=True, help="comma list or file with one accuracy per line")
    p.add_argument("--b", required=True)
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("noise-sweep", help="train/evaluate variants across SNRs")
    add_config_flags(p)
    p.add_argument("--task", choices=TASK_NAMES, default="pitch")
    p.add_argument("--snr-db", default="inf,5,0,-5", help="comma list of dB values")
    p.add_argument("--frontends", default="leaf,leaf-log", help="comma list of variants")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--eval-clips", type=int, default=300)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    return parser


def build_config(args, frontend=None) -> FrontendConfig:
    """Defaults, overridden by --config file keys, overridden by flags.

    ``frontend`` names the variant in place of ``args.frontend``.
    """
    cfg = FrontendConfig()
    if args.config:
        cfg = leafio.apply_config(leafio.parse_config_file(args.config), cfg)
    overrides = {}
    frontend = args.frontend if frontend is None else frontend
    if frontend is not None:
        variant = variant_config(frontend)
        overrides.update(filtering=variant.filtering, compression=variant.compression)
    if args.filters is not None:
        overrides["n_filters"] = args.filters
    if args.filter_len is not None:
        overrides["filter_len"] = args.filter_len
    if args.stride is not None:
        overrides["pool_stride"] = args.stride
    return replace(cfg, **overrides)


def _load_or_init_params(args, cfg) -> ParamSet:
    """The --model snapshot, checked against the variant; else the init (one two-class head)."""
    if not getattr(args, "model", None):
        return init_params(cfg, 2)
    params = leafio.load_params(args.model)
    flags = f"--frontend {variant_name(cfg)}, --filters {cfg.n_filters}"
    frontend = ParamSet({k: v for k, v in params.items() if not k.startswith("head")})
    frontend.require_congruent(frontend_param_values(cfg),
                               what=f"frontend parameters in {args.model} ({flags})")
    for key, value in params.items():
        if key.startswith("head") and key.endswith("_weights") and value.shape[0] != cfg.n_filters:
            raise ShapeMismatch(f"{key} in {args.model} has {value.shape[0]} rows, "
                                f"not one per channel ({flags})")
    return params


def cmd_extract(args) -> int:
    cfg = build_config(args)
    wav = load_wav(args.input)
    if args.compare:
        correlations = mel_equivalence_correlations(cfg, wav)
        print("channel,correlation")
        for ch, r in enumerate(correlations):
            print(f"{ch},{r:.6f}")
        return 0
    params = _load_or_init_params(args, cfg)
    fm = frontend_forward(wav, params, cfg)
    learnable = sum(v.size for k, v in params.items() if not k.startswith("head"))
    print(f"frontend={variant_name(cfg)} n_filters={cfg.n_filters} "
          f"learnable_params={learnable} frames={fm.n_frames} channels={fm.n_channels}")
    if args.out:
        leafio.write_feature_file(args.out, fm)
        print(f"wrote {args.out}")
    return 0


def mel_equivalence_correlations(cfg: FrontendConfig, wav) -> np.ndarray:
    """Per-channel Pearson correlation of leaf-init vs mel features, both
    taken before compression."""
    require_frontend_rate(wav)
    xs = wav.samples[None]
    gabor_cfg = replace(cfg, filtering="gabor")
    leaf = pooled_graph(xs, frontend_param_values(gabor_cfg), gabor_cfg).value[0]
    mel = pooled_graph(xs, {}, replace(cfg, filtering="mel")).value[0]
    out = np.zeros(cfg.n_filters)
    for ch in range(cfg.n_filters):
        a, b = leaf[ch], mel[ch]
        denom = a.std() * b.std()
        out[ch] = float(np.corrcoef(a, b)[0, 1]) if denom > 0 else 0.0
    return out


def cmd_train(args) -> int:
    cfg = build_config(args)
    names = [t.strip() for t in args.task.split(",") if t.strip()]
    tasks = [make_task(name, task_id=k, snr_db=args.snr_db) for k, name in enumerate(names)]
    result = train(tasks, cfg, args.steps, args.batch, args.lr, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(leafio.metrics_csv(result.metrics), newline="\n")
    for step, snap in result.snapshots.items():
        leafio.save_params(out / f"snap_{step:06d}", snap)
    leafio.save_params(out / "final", result.model.params)
    for k, task in enumerate(tasks):
        ev = evaluate(result.model, task, 200, args.seed + 7919, task_index=k)
        print(f"task={task.name} heldout_accuracy={ev.accuracy:.4f} ci95={ev.ci95:.4f}")
    print(f"wrote {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = build_config(args)
    params = _load_or_init_params(args, cfg)
    task = make_task(args.task, task_id=args.task_index, snr_db=args.snr_db)
    counts = {}
    for key in params:
        if key.startswith("head") and key.endswith("_bias"):
            counts[int(key[4:-5])] = params[key].size
    class_counts = tuple(counts[k] for k in sorted(counts))
    model = MultiHead(params, cfg, class_counts)
    ev = evaluate(model, task, args.n, args.seed, task_index=args.task_index)
    print(f"accuracy={ev.accuracy:.4f} ci95={ev.ci95:.4f} n={ev.n_examples}")
    return 0


def cmd_gradcheck(args) -> int:
    rows = grad_check_report(seed=args.seed)
    print("variant,param_group,max_rel_err,n_params")
    for row in rows:
        print(f"{row['variant']},{row['param_group']},{row['max_rel_err']:.3e},{row['n_params']}")
    worst = max(row["max_rel_err"] for row in rows)
    print(f"# worst {worst:.3e}", file=sys.stderr)
    return 0


def cmd_inspect(args) -> int:
    cfg = build_config(args)
    params = _load_or_init_params(args, cfg)
    n = cfg.n_filters
    rate = FRONTEND_RATE

    def col(key):
        return params[key] if key in params else None

    eta, sigma = col("eta"), col("sigma")
    if args.what == "filters":
        print("channel,center_hz,sigma,fwhm_hz")
        for ch in range(n):
            center = eta[ch] * rate if eta is not None else ""
            # half-power width in Hz of the power response exp(-(2 pi sigma f)^2)
            fwhm = math.sqrt(math.log(2.0)) * rate / (math.pi * float(sigma[ch])) if sigma is not None else ""
            print(f"{ch},{center},{sigma[ch] if sigma is not None else ''},{fwhm}")
        return 0
    print("channel,center_hz,sigma,pool_width,alpha,delta,root,smooth")
    cols = [eta * rate if eta is not None else None, sigma, col("pool_widths"),
            col("pcen_alpha"), col("pcen_delta"), col("pcen_root"), col("pcen_smooth")]
    for ch in range(n):
        cells = ["" if c is None else repr(float(c[ch])) for c in cols]
        print(",".join([str(ch)] + cells))
    return 0


def _read_values(text: str) -> list[float]:
    path = Path(text)
    if path.exists():
        return [float(line) for line in path.read_text().split()]
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_bootstrap(args) -> int:
    mean, p = bootstrap_diff(_read_values(args.a), _read_values(args.b),
                             iters=args.iters, seed=args.seed)
    print(f"mean_diff={mean:.6f} p={p:.6f}")
    return 0


def cmd_noise_sweep(args) -> int:
    task = make_task(args.task)
    snrs = [float(s) for s in args.snr_db.split(",")]
    variants = [build_config(args, name.strip()) for name in args.frontends.split(",")]
    rows = noise_sweep(task, snrs, variants, args.seed, steps=args.steps,
                       batch_size=args.batch, lr=args.lr,
                       eval_clips=args.eval_clips, n_seeds=args.seeds)
    lines = ["variant,snr_db," + ",".join(f"acc_seed{i}" for i in range(args.seeds)) + ",mean_accuracy"]
    for row in rows:
        accs = ",".join(f"{a:.6f}" for a in row["accuracies"])
        lines.append(f"{row['variant']},{row['snr_db']},{accs},{row['mean_accuracy']:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, newline="\n")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


COMMANDS = {
    "extract": cmd_extract,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "inspect": cmd_inspect,
    "bootstrap": cmd_bootstrap,
    "noise-sweep": cmd_noise_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Exception as err:  # contract: report and exit, never a traceback
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
