"""Steadiness check: repeat every workload on fresh seeds and set each
end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 bench/steady.py --runs 10                      # all workloads
    python3 bench/steady.py --runs 5 --workloads cli-session
    python3 bench/steady.py --checkout ../parent --out parent.json
    python3 bench/steady.py --compare parent.json           # change vs parent

For each workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, the interquartile distance
as a share of the median.  A spread above a third of the bound is marked
"wide", above the bound "TOO WIDE".  With --compare it also prints the saved
median beside the new one, and a median that is worse than the saved one by
more than the bound is marked "WORSE".  Exit code 1 when any run is
incorrect, a spread is too wide or a median is worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--checkout", default=".", help="repository root to benchmark")
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    ap.add_argument("--compare", default=None, help="summary JSON of an earlier run to compare to")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    raw = {w: [] for w in names}
    bad = []
    for i in range(args.runs):  # seeds outer, so slow spells of the machine hit every workload
        for w in names:
            res = run_once(args.checkout, w, args.seed_base + i, seconds)
            raw[w].append(res)
            if not res["correct"]:
                bad.append(f"{w} seed {args.seed_base + i}: {res['failed']} of {res['attempted']} failed")
            print(f"  {w:15s} seed {args.seed_base + i:3d}  wall {res['wall_s']:6.1f} s  "
                  + "  ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)

    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]
    summary = {"runs": args.runs, "seed_base": args.seed_base, "seconds": seconds, "workloads": {}}
    print(f"{'workload':15s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for w in names:
        summary["workloads"][w] = {"wall_s": [r["wall_s"] for r in raw[w]]}
        for name, spec in metrics.items():
            s = summarise([r["metrics"][name]["value"] for r in raw[w]])
            summary["workloads"][w][name] = s
            bound = spec["bound"]
            verdict = "steady"
            if s["spread"] > bound:
                verdict = "TOO WIDE"
                bad.append(f"{w} {name}: spread {s['spread']:.3f} > bound {bound}")
            elif s["spread"] > bound / 3.0:
                verdict = "wide"
            if earlier is not None:
                old = earlier[w][name]["median"]
                worse = (old - s["median"]) / old if spec["better"] == "higher" else (s["median"] - old) / old
                verdict += f", saved median {old:.5g}: {worse:+.1%} worse"
                if worse > bound:
                    verdict += " WORSE"
                    bad.append(f"{w} {name}: {worse:+.1%} worse than the saved median")
            print(f"{w:15s} {name:12s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:7.3f} {bound:6.2f}  {verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    for line in bad:
        print("! " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
