"""A/B benchmark of this checkout against another one, in alternating pairs.

    python3 tools/ab_bench.py OTHER_ROOT --workload W --pairs 10 --seconds 15

OTHER_ROOT is the root of another checkout, for instance of the parent
commit.  Each pair runs `bench/run.py --trace 0` once in each checkout,
from that checkout's root and with its own bench/ and src/, one run after
the other; which checkout goes first alternates from pair to pair, since
the machine's speed drifts, and --pairs must be even, so that each
checkout runs first equally often.
Both runs of pair i use seed SEED + i, so they solve the cells in the same
order, and each leaves its result in its checkout's .bench_out/.  Every
pair's end-to-end metrics are printed.  Then, for each metric, the
quartiles of each side over the pairs, the relative change of the median
from OTHER to this checkout, the number of pairs this checkout won (by
the metric's `better` direction in BENCHMARK.json; a tie is not a win),
and whether the medians differ by more than OTHER's interquartile range.
Exits 1 if any run reports a failed solve or fails itself, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the other checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10,
                    help="number of pairs, even")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair")
    return ap.parse_args(argv)


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON result of one bench/run.py run in `root`."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"bench/run.py failed in {root} "
                         f"(exit {out.returncode})")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["file"] = root / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    other = args.other.resolve()
    if not (other / "bench" / "run.py").is_file():
        print(f"no bench/run.py under {other}", file=sys.stderr)
        return 2
    if args.pairs < 2 or args.pairs % 2:
        print("--pairs must be even and >= 2", file=sys.stderr)
        return 2
    sides = {"this": ROOT, "other": other}
    runs = {"this": [], "other": []}
    failed = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("this", "other") if i % 2 == 0 else ("other", "this")
        for side in order:
            res = bench(sides[side], args.workload, seed, args.seconds)
            runs[side].append(res)
            failed += res["failed"]
            print(f"pair {i + 1} seed {seed} {side:5s} failed "
                  f"{res['failed']}/{res['attempted']}  "
                  + "  ".join(f"{k} {v['value']:.4g}"
                              for k, v in res["metrics"].items())
                  + f"  ({res['file']})", flush=True)
    better = {m["name"]: m["better"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    print(f"quartiles over {args.pairs} pairs ({args.workload}), "
          "other -> this:")
    for name, entry in runs["this"][0]["metrics"].items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in sides}
        q = {side: statistics.quantiles(vals[side], n=4) for side in sides}
        med = {side: q[side][1] for side in sides}
        change = med["this"] / med["other"] - 1.0 if med["other"] else 0.0
        sign = 1.0 if better[name] == "lower" else -1.0
        won = sum(sign * (t - o) < 0.0
                  for t, o in zip(vals["this"], vals["other"]))
        iqr = q["other"][2] - q["other"][0]
        print(f"  {name:14s} {entry['unit']:4s} "
              f"other {q['other'][0]:.4g} [{med['other']:.4g}] "
              f"{q['other'][2]:.4g}  this {q['this'][0]:.4g} "
              f"[{med['this']:.4g}] {q['this'][2]:.4g}  ({change:+.1%}), "
              f"won {won}/{args.pairs}, |median change| "
              f"{'>' if abs(med['this'] - med['other']) > iqr else '<='} "
              "other's IQR")
    if failed:
        print(f"{failed} failed solves", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
