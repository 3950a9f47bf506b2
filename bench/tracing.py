"""Spans recorded around calls into each layer's public functions, the layer
sweep every traced run ends with, and the per-layer metrics derived from both.

Spans live in the benchmark, not in the program: each one wraps a call from
the benchmark into a layer of hahnchain.  Work a layer does inside another
layer's call (the series tiers inside a table, the suites inside
run_verification) is not split out; that needs counters inside the program.
"""

import os
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

from workloads import (CheckFailure, ScanWarm, check_cli_output, cli_op, run_child,
                       traced_build, traced_verify)

COLD_SIZES = (("plain", (1, 2, 5, 10, 25, 50)), ("deformed", (5, 10, 20, 30)))
VERIFY_SIZES = (4, 5, 6, 7, 8)
CLI_COMMANDS = ("couplings", "spectrum", "eigvecs", "correlate", "pst-scan", "verify")


class Tracer:
    """Spans held in memory: name, start, end, parent index and op id, plus
    optional label, sample count and computed table entries."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None
        self.bytes_out = 0  # CLI output bytes, counted where the output is checked

    @contextmanager
    def span(self, name, label=None, count=1):
        rec = {"name": name, "label": label, "count": count, "op": self.op,
               "parent": self._open[-1] if self._open else None, "start": perf_counter()}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        for rec, covered in zip(self.spans, child):
            rec["self"] = rec["end"] - rec["start"] - covered
        return self.spans


def _timed_child(tr, name, argv, root):
    with tr.span(name):
        code = run_child(argv, root, subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise CheckFailure(f"{argv[1:]} exited {code}")


def layer_sweep(hc, tr, sampler, root, seed, record_failure):
    """Call every layer once, bottom-up, so each traced run reports every
    per-layer metric, whichever layers its own workload reaches.  Returns the
    number of checked results; failed checks go to `record_failure`."""
    checked = 0
    # chain / hahn / qhahn: one cold build per size of ROADMAP item 1's table
    for family, sizes in COLD_SIZES:
        for m in sizes:
            traced_build(hc, getattr(sampler, family)(f"sweep.{family}{m}", m), tr)
    # scalars, relative-tolerance tables, weights and norms at verify's sizes
    for m in (4, 6, 8):
        d = sampler.plain("sweep.scalar", m)
        p = hc.HahnParams(d["alpha"], d["beta"], m)
        dq = sampler.deformed("sweep.qscalar", m)
        qp = hc.QHahnParams(dq["alpha"], dq["beta"], dq["q"], m)
        for layer, value, table, weight, norm, params in (
                ("hahn.", hc.hahn_Q, hc.polynomial_table, hc.hahn.weight_vector,
                 hc.hahn.norm_vector, p),
                ("qhahn.q_", hc.q_hahn_Q, hc.q_polynomial_table, hc.qhahn.q_weight_vector,
                 hc.qhahn.q_norm_vector, qp)):
            with tr.span(layer + "hahn_Q", count=(m + 1) ** 2):
                for n in range(m + 1):
                    for x in range(m + 1):
                        value(n, x, params)
            with tr.span(layer + "polynomial_table") as rec:
                table(params, rel=1e-15)
            rec["entries"] = (m + 1) ** 2
            with tr.span(layer + "weight_norm"):
                weight(params)
                norm(params)
    # oracle and verify, each verify op after its chain and oracle layers
    for m in VERIFY_SIZES:
        family = "plain" if m % 2 else "deformed"
        report = traced_verify(hc, getattr(sampler, family)(f"sweep.verify{m}", m), tr)
        checked += 1
        if not report.passed:
            record_failure(f"sweep verify m={m}: not passed")
    # dynamics on the scan-warm specs, one short grid per function and spec
    scan = ScanWarm(ScanWarm.specs(seed))
    state = scan.setup()
    for i, spec in enumerate(state["specs"]):
        kinds = ["pst_scan", "correlation", "correlation_closed_form", "correlation_matrix"]
        kinds += ["q_end_to_end"] if spec.q is not None else ["end_to_end"]
        for kind in kinds:
            n = {"pst_scan": 200, "correlation_matrix": 8}.get(kind, 32)
            size = state["es"][i].dimension
            op = {"kind": kind, "spec": i, "t0": 0.1, "t1": 9.0, "n": n,
                  "r": sampler.rng.randrange(size), "s": sampler.rng.randrange(size)}
            checked += 1
            try:
                scan.check(state, op, scan.trace(state, op, tr))
            except CheckFailure as exc:
                record_failure(f"sweep {kind}: {exc}")
    # cli: bare interpreter, import, and each command in-process with warm caches
    for _ in range(3):
        _timed_child(tr, "cli.interpreter", [sys.executable, "-c", "pass"], root)
        _timed_child(tr, "cli.import", [sys.executable, "-c", "import hahnchain.cli"], root)
    import hahnchain.cli as cli

    out_path = os.path.join(root, ".bench_run", "sweep-cli.out")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    for cmd in CLI_COMMANDS:
        family = "deformed" if cmd in ("spectrum", "pst-scan") else "plain"
        op = cli_op(sampler, cmd, family, 3 if cmd == "verify" else 10, "json", True)
        checked += 1
        codes = []
        for timed in (False, True):  # the first call warms the caches
            with tr.span("cli.command", label=cmd) if timed else nullcontext():
                try:
                    cli.main(op["args"] + ["--output", out_path])
                except SystemExit as exc:
                    codes.append(exc.code)
        try:
            if codes != [0, 0]:
                raise CheckFailure(f"exit codes {codes}")
            with open(out_path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            tr.bytes_out += len(text.encode())
            check_cli_output(op, text)
        except CheckFailure as exc:
            record_failure(f"sweep cli {cmd}: {exc}")
    if os.path.exists(out_path):
        os.remove(out_path)
    return checked


# (metric, span name, label, unit): each is the median over matching spans of
# self time divided by the span's sample count
def _time_metrics():
    rows = []
    for layer, pre in (("hahn", "hahn."), ("qhahn", "qhahn.q_")):
        tab = "orthonormal_table" if layer == "hahn" else "q_orthonormal_table"
        rows += [(f"{pre}orthonormal_table_ms", f"{layer}.{tab}", None, "ms"),
                 (f"{pre}polynomial_table_ms", f"{pre}polynomial_table", None, "ms"),
                 (f"{pre}hahn_Q_us", f"{pre}hahn_Q", None, "us"),
                 (f"{pre}weight_norm_ms", f"{pre}weight_norm", None, "ms")]
    rows += [("chain.build_couplings_us", "chain.build_couplings", None, "us"),
             ("chain.analytic_eigensystem_ms", "chain.analytic_eigensystem", None, "ms")]
    for family, sizes in COLD_SIZES:
        for m in sizes:
            label = ("m" if family == "plain" else "q") + str(m)
            rows.append((f"chain.cold_build_ms.{label}", "chain.cold_build", label, "ms"))
    rows += [("oracle.tridiag_eigen_ms", "oracle.tridiag_eigen", None, "ms"),
             ("oracle.match_eigensystems_ms", "oracle.match_eigensystems", None, "ms"),
             ("dynamics.pst_scan_us_per_sample.plain", "dynamics.pst_scan", "plain", "us"),
             ("dynamics.pst_scan_us_per_sample.q", "dynamics.pst_scan", "q", "us")]
    for kind in ("correlation", "correlation_closed_form", "end_to_end", "q_end_to_end",
                 "correlation_matrix"):
        rows.append((f"dynamics.{kind}_us", f"dynamics.{kind}", None, "us"))
    rows += [(f"verify.run_verification_ms.m{m}", "verify.run_verification", f"m{m}", "ms")
             for m in VERIFY_SIZES]
    rows += [("cli.interpreter_ms", "cli.interpreter", None, "ms")]
    rows += [(f"cli.command_ms.{cmd}", "cli.command", cmd, "ms") for cmd in CLI_COMMANDS]
    return rows


_SCALE = {"ms": 1e3, "us": 1e6}


def per_layer_metrics(tr, hc, overhead, oracle_mismatches):
    """Every per-layer metric from the spans and the caches' own counters."""
    spans = tr.self_times()
    out = {}

    def values(name, label=None):
        picked = [s for s in spans if s["name"] == name and label in (None, s["label"])]
        if name.endswith("orthonormal_table"):
            picked = [s for s in picked if "entries" in s]  # cold tables only
        if name == "chain.cold_build":  # the whole build: its span and its children
            return [s["end"] - s["start"] for s in picked]
        return [s["self"] / s["count"] for s in picked]

    for metric, name, label, unit in _time_metrics():
        vals = values(name, label)
        if not vals:
            raise RuntimeError(f"no spans for {metric}")
        out[metric] = {"value": statistics.median(vals) * _SCALE[unit], "unit": unit}
    out["cli.import_ms"] = {"value": (statistics.median(values("cli.import"))
                                      - statistics.median(values("cli.interpreter"))) * 1e3,
                           "unit": "ms"}
    for pre, names in (("hahn.", ("hahn.orthonormal_table", "hahn.polynomial_table")),
                       ("qhahn.q_", ("qhahn.q_orthonormal_table", "qhahn.q_polynomial_table"))):
        out[f"{pre}table_entries"] = {
            "value": sum(s.get("entries", 0) for s in spans if s["name"] in names), "unit": "count"}
    for metric, fn in (("hahn.cache_hit_ratio", hc.orthonormal_table),
                       ("qhahn.q_cache_hit_ratio", hc.q_orthonormal_table),
                       ("chain.cache_hit_ratio", hc.analytic_eigensystem)):
        info = fn.cache_info()
        out[metric] = {"value": info.hits / max(1, info.hits + info.misses), "unit": "ratio"}
    out["dynamics.samples"] = {"value": sum(s["count"] for s in spans
                                            if s["name"].startswith("dynamics.")), "unit": "count"}
    out["cli.bytes_out"] = {"value": tr.bytes_out, "unit": "count"}
    out["oracle.match_failures"] = {"value": oracle_mismatches, "unit": "count"}
    out["trace.traced_over_untraced"] = {"value": overhead, "unit": "ratio"}
    return out
