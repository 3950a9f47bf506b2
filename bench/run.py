"""hahnchain benchmark: one closed-loop client driving one workload.

    python3 bench/run.py --workload eig-cold --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.  Lines before it give the
environment fingerprint, the op-list digest and a readable table.  The same
record, plus every failure message, goes to .bench_run/ in the repository
root, and a traced run also writes its spans there.

End-to-end times are scaled to the speed of a fixed calibration loop that is
run between rounds, because the machine's own speed drifts (except on
cli-session, whose work runs in child processes); the notes keep the raw
values (README.md, "Scaling to the machine's speed").

One process issues every op and waits for it (a closed loop with one client);
cli-session starts at most one child process at a time.  The layer runs
single-threaded with no queue, so there is no waiting time to report.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

# One BLAS thread, set before numpy is first imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (after the thread cap)

SETUP_SAMPLES = 5     # set-ups per run: this process plus fresh-interpreter probes
MAX_FAILURES_SHOWN = 5
CAL_STEPS = 1000      # steps of the calibration loop
CAL_REF_S = 0.020     # calibration time the reported end-to-end times are scaled to
CAL_REACH = 3         # calibration samples on each side that set a round's speed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the workload's set-up in this fresh process")
    return ap.parse_args(argv)


def fingerprint():
    """What the timings depend on; results from different backends do not compare."""
    import platform

    import mpmath
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine()}


def calibrate(samples=1):
    """Seconds the calibration loop takes now, the median of `samples` runs.

    The loop is 40-digit mpmath arithmetic, the kind of code the series tiers
    run, and is independent of hahnchain.  It has its own mpmath context, so
    no precision setting of the program reaches it.  Its time tracks the
    machine's speed, which drifts by itself (see README.md).
    """
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = 40
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        x = ctx.mpf(1)
        for i in range(1, CAL_STEPS):
            x = x * i / (i + 1) + ctx.sqrt(i)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Per-op latencies and failures of one measured phase."""

    def __init__(self):
        self.times = []
        self.cal = []         # calibration times, one before the first round and one after each
        self.round_ends = []  # len(times) after each round
        self.failures = []
        self.digest = hashlib.sha256()  # over every round started, to show two runs had the same inputs

    def scaled(self):
        """The latencies at the calibration loop's reference speed.

        Round r lies between calibration samples r and r + 1.  Its ops are
        scaled by the mean of the CAL_REACH samples on either side of it, so
        one sample's noise weighs little while a slow spell of a few seconds
        is still followed.
        """
        out, start = [], 0
        for r, end in enumerate(self.round_ends):
            window = self.cal[max(0, r + 1 - CAL_REACH):r + 1 + CAL_REACH]
            scale = CAL_REF_S / statistics.fmean(window)
            out += [t * scale for t in self.times[start:end]]
            start = end
        return out


def measure(wl, state, rounds, until, tally, tracer=None):
    """Issue whole rounds of ops until the tally holds `until` seconds of op
    time.  Only the op call is timed; its check runs after."""
    busy = sum(tally.times)
    if not tally.cal:
        tally.cal.append(calibrate())
    for rnd in rounds:
        tally.digest.update(json.dumps(rnd, sort_keys=True).encode())
        for op in rnd:
            op_id = len(tally.times)
            error = None
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = wl.run(state, op)
                else:
                    tracer.op = op_id
                    with tracer.span("op"):
                        out = wl.trace(state, op, tracer)
            except Exception as exc:  # an op that raises is a failed op, and the run goes on
                error = exc
            dt = perf_counter() - t0
            tally.times.append(dt)
            busy += dt
            if error is None:
                try:
                    wl.check(state, op, out)
                except Exception as exc:  # a check that trips over malformed output fails the op
                    error = exc
            if error is not None:
                tally.failures.append(f"op {op_id} {json.dumps(op)[:160]}: "
                                      f"{type(error).__name__}: {error}")
        tally.cal.append(calibrate())
        tally.round_ends.append(len(tally.times))
        if busy >= until:
            return


def setup_probe(args):
    """Set-up and calibration time of a fresh interpreter running only the set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-300:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["cal_s"]


def end_to_end(args, wl, state, setup):
    """The end-to-end metrics.  Times of a calibrated workload are scaled to
    the calibration loop's reference speed, so that a slow spell of the
    machine does not read as a slower program; the notes keep the raw values."""
    tally = Tally()
    rounds = workloads.op_rounds(wl, args.seed)
    setups = [setup]
    # The fresh-interpreter set-ups are spread over the run, one after each
    # equal share of it, so they meet the machine in the states the ops meet.
    for k in range(1, SETUP_SAMPLES):
        measure(wl, state, rounds, args.seconds * k / (SETUP_SAMPLES - 1), tally)
        setups.append(setup_probe(args))
    # cli-session: the largest child, a CLI call; a set-up probe only imports
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    n = len(tally.times)

    def timings(times, setup_times):
        # whole rounds only, so the run's size mix is exactly the stated one
        return {"setup_s": statistics.median(setup_times), "ops_per_s": n / sum(times),
                "op_p50_ms": statistics.median(times) * 1e3,
                "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3}

    if wl.calibrated:
        reported = timings(tally.scaled(), [t * CAL_REF_S / cal for t, cal in setups])
    else:
        reported = timings(tally.times, [t for t, _ in setups])
    metrics = {name: {"value": reported[name], "unit": unit} for name, unit in
               (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"))}
    metrics["pass_ratio"] = {"value": (n - len(tally.failures)) / n, "unit": "ratio"}
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    notes = {"ops": n, "rounds": len(tally.round_ends), "busy_s": sum(tally.times),
             "fail_ratio": len(tally.failures) / n,
             "raw": timings(tally.times, [t for t, _ in setups]),
             "calibration_ms": {"median": statistics.median(tally.cal) * 1e3,
                                "min": min(tally.cal) * 1e3, "max": max(tally.cal) * 1e3},
             "setup_samples_s": [t for t, _ in setups]}
    return metrics, n, tally.failures, notes, tally


def traced(args, wl, state, root):
    """Untraced and traced passes over the same rounds, then the layer sweep."""
    import tracing

    hc = sys.modules["hahnchain"]
    tr = tracing.Tracer()
    untraced, traced_tally = Tally(), Tally()
    # The two passes alternate round by round, and which goes first alternates
    # too, so the machine's drift hits both alike and their ratio is the
    # tracing overhead.  A cold workload starts each pass from empty caches.
    for k, rnd in enumerate(workloads.op_rounds(wl, args.seed)):
        passes = ((untraced, None), (traced_tally, tr))
        for tally, tracer in (passes if k % 2 == 0 else passes[::-1]):
            if wl.cold:
                workloads.clear_caches(hc)
            measure(wl, state, [rnd], 0.0, tally, tracer=tracer)
        if sum(untraced.times) + sum(traced_tally.times) >= args.seconds:
            break
    tr.bytes_out += state.get("bytes_out", 0)
    tr.op = None
    sampler = workloads.Sampler(random.Random(f"sweep-{args.seed}"))
    swept = tracing.layer_sweep(hc, tr, sampler, root, args.seed, traced_tally.failures.append)
    overhead = sum(traced_tally.times) / sum(untraced.times)
    metrics = tracing.per_layer_metrics(tr, hc, overhead, len(state.get("oracle_mismatches", ())))
    attempted = len(untraced.times) + len(traced_tally.times) + swept
    failures = untraced.failures + traced_tally.failures
    spans_path = os.path.join(root, ".bench_run", f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tr.spans, fh)
    notes = {"untraced_ops": len(untraced.times), "traced_ops": len(traced_tally.times),
             "swept_checks": swept, "spans": len(tr.spans),
             "spans_file": os.path.relpath(spans_path, root)}
    return metrics, attempted, failures, notes, untraced


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    declared_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "hahnchain", "__init__.py")):
        print("bench: no src/hahnchain here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    wl = workloads.make(args.workload, args.seed, root)

    if args.setup_probe:
        t0 = perf_counter()
        wl.setup()
        setup_s = perf_counter() - t0
        print(json.dumps({"setup_s": setup_s, "cal_s": calibrate(3)}))
        return 0

    with open(declared_path, encoding="utf-8") as fh:
        declared = json.load(fh)

    t0 = perf_counter()
    state = wl.setup()
    setup_s = perf_counter() - t0
    import hahnchain

    if not os.path.abspath(hahnchain.__file__).startswith(src + os.sep):
        print(f"bench: imported hahnchain from {hahnchain.__file__}, not ./src", file=sys.stderr)
        return 2
    setup_failures = []
    if hasattr(wl, "verify_setup"):
        try:
            wl.verify_setup(state)
        except workloads.CheckFailure as exc:
            setup_failures.append(f"set-up specs: {exc}")
    os.makedirs(os.path.join(root, ".bench_run"), exist_ok=True)

    if args.trace:
        metrics, attempted, failures, notes, tally = traced(args, wl, state, root)
        expected = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics, attempted, failures, notes, tally = end_to_end(args, wl, state,
                                                                (setup_s, calibrate(3)))
        notes["oracle_mismatches"] = len(state.get("oracle_mismatches", ()))
        expected = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {name: v["unit"] for name, v in metrics.items()}
    if got != expected:
        print(f"bench: metrics {sorted(set(got) ^ set(expected))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    failures = setup_failures + failures
    attempted += len(setup_failures)

    env = fingerprint()
    digest = tally.digest.hexdigest()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "op_list": {"sha256": digest, "rounds": len(tally.round_ends), "ops": len(tally.times)},
              "notes": notes, "metrics": metrics, "failures": failures,
              "op_ms": [round(t * 1e3, 3) for t in tally.times],
              "calibration_ms": [round(c * 1e3, 3) for c in tally.cal],
              "round_ends": tally.round_ends}
    result_path = os.path.join(root, ".bench_run",
                               f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"op list sha256:{digest[:16]}  ({len(tally.round_ends)} rounds, {len(tally.times)} ops issued)")
    print("notes " + json.dumps(notes))
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:14.6g} {v['unit']}")
    print(f"  {'failed':40s} {len(failures):14d} of {attempted}")
    for line in failures[:MAX_FAILURES_SHOWN]:
        print("  ! " + line)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
