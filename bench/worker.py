"""One workload in one process; started by run.py, not by hand.

Times ``import leafaudio`` plus the workload's initialization (set-up),
then, unless ``--setup-only``, runs the workload and prints its result as
one JSON line.  Nothing heavy is imported before the set-up clock starts.
"""

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--outdir", required=True, help="where the spans file goes")
    parser.add_argument("--workdir", required=True, help="temporary files of the workload")
    args = parser.parse_args(argv)
    root = os.getcwd()

    t0 = time.perf_counter()
    import leafaudio
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    setup_s = time.perf_counter() - t0

    source = os.path.realpath(os.path.join(root, "src", "leafaudio"))
    if os.path.dirname(os.path.realpath(leafaudio.__file__)) != source:
        print(f"error: leafaudio imported from {leafaudio.__file__}, not {source}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = workloads.environment(args.workload, args.seed, root)
    spans_path = os.path.join(args.outdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = workloads.run(workload, args.seconds, bool(args.trace), spans_path, env)
    result["setup_s"] = setup_s
    result["env"] = env
    if args.trace and args.workload == "train-leaf":
        result["variants"] = workloads.variant_table(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
