"""The four benchmark workloads: seeded op lists, how each op is issued
(untimed plain call or traced bottom-up), and the correctness check run on
every op outside the timed region.

Nothing here imports numpy or hahnchain at module level: a workload's set-up
time starts before ``import hahnchain`` (which pulls in numpy and mpmath), so
those imports happen inside ``setup``.
"""

import json
import math
import os
import random
import subprocess
import sys
import threading

_STRATA = 8           # stratified draws: every 8 draws of one parameter cover its range once

# correctness tolerances: the program's own verify defaults
TOL_EIG = 1e-10       # MU-UD (relative to max|e|) and U^T U - I
TOL_ORACLE = 1e-9     # QL oracle match
TOL_AMP = 1e-10       # amplitudes against the eigen-expansion


class CheckFailure(Exception):
    """An op's output missed its correctness check."""


def _fail(cond, msg):
    if not cond:
        raise CheckFailure(msg)


class Sampler:
    """Seeded parameter draws, stratified per (kind, parameter) key.

    Each block of ``_STRATA`` draws under one key takes one value from every
    eighth of the range, in shuffled order.  The inputs stay random, but a run
    of a few rounds covers each range evenly, so the cost of a run depends
    less on which seed it got.
    """

    def __init__(self, rng):
        self.rng = rng
        self._queues = {}

    def unit(self, key):
        queue = self._queues.setdefault(key, [])
        if not queue:
            queue.extend(range(_STRATA))
            self.rng.shuffle(queue)
        # strictly inside (0, 1): every parameter domain here is open
        return (queue.pop() + 0.001 + 0.998 * self.rng.random()) / _STRATA

    def uniform(self, key, lo, hi):
        return lo + (hi - lo) * self.unit(key)

    def log_int(self, key, lo, hi):
        """An integer drawn log-uniformly from [lo, hi]."""
        return int(round(lo * (hi / lo) ** self.unit(key)))

    def plain(self, key, m):
        return {"m": m, "alpha": self.uniform(key + ".a", -0.9, 3.0),
                "beta": self.uniform(key + ".b", 0.1, 3.0), "q": None}

    def deformed(self, key, m):
        q = self.uniform(key + ".q", 0.3, 0.9)
        return {"m": m, "alpha": self.uniform(key + ".a", 0.0, 1.0) / q,
                "beta": self.uniform(key + ".b", 0.0, 1.0), "q": q}


def _spec(hc, d):
    return hc.ChainSpec(d["m"], d["alpha"], d["beta"], d["q"])


def clear_caches(hc):
    """Empty every public cache, so no cached result crosses into a new phase."""
    hc.analytic_eigensystem.cache_clear()
    hc.orthonormal_table.cache_clear()
    hc.q_orthonormal_table.cache_clear()


# ---------------------------------------------------------------------------
# independent references, written from the paper's formulas with numpy only
# ---------------------------------------------------------------------------

def ref_couplings(d):
    """Coupling strengths J_0..J_{2m} from the closed formulas."""
    import numpy as np

    m, a, b, q = d["m"], d["alpha"], d["beta"], d["q"]
    j = np.empty(2 * m + 1)
    if q is None:
        for k in range(2 * m + 1):
            j[k] = (math.sqrt((k + 1.0) * (2 * m + 1.0 - k)) if k % 2
                    else math.sqrt((k + 2.0 * a + 2.0) * (2 * m + 2.0 * b - k)))
    else:
        for k in range(m + 1):
            j[2 * k] = 2.0 * math.sqrt((1.0 - a * q ** (k + 1)) * (1.0 - b * q ** (m - k)) * q ** k)
        for k in range(m):
            j[2 * k + 1] = 2.0 * math.sqrt((1.0 - q ** (k + 1)) * (1.0 - q ** (m - k)) * q ** (k + 1) * a)
    return j


def ref_matrix(d):
    import numpy as np

    j = ref_couplings(d)
    return np.diag(j, 1) + np.diag(j, -1)


def check_eigensystem(d, es):
    """MU - UD and U^T U - I of the analytic eigensystem, against the reference matrix."""
    import numpy as np

    mat = ref_matrix(d)
    n = mat.shape[0]
    u, e = np.asarray(es.U), np.asarray(es.eigenvalues)
    _fail(u.shape == (n, n) and e.shape == (n,), f"shape {u.shape}, {e.shape} for n={n}")
    _fail(bool(np.all(np.isfinite(u)) and np.all(np.isfinite(e))), "non-finite entries")
    _fail(bool(np.all(np.diff(e) > 0.0)), "eigenvalues not strictly ascending")
    mu_ud = float(np.max(np.abs(mat @ u - u * e[None, :]))) / float(np.max(np.abs(e)))
    _fail(mu_ud <= TOL_EIG, f"MU-UD {mu_ud:.3e}")
    orth = float(np.max(np.abs(u.T @ u - np.eye(n))))
    _fail(orth <= TOL_EIG, f"U^T U - I {orth:.3e}")


def oracle_residual(hc, d, es):
    """The program's QL oracle against the analytic eigensystem (verify's oracle-match)."""
    spec = _spec(hc, d)
    oracle = hc.tridiag_eigen(hc.interaction_matrix(hc.build_couplings(spec)))
    match = hc.match_eigensystems(es, oracle)
    return max(match.max_eigenvalue_rel_diff, match.max_overlap_deviation)


def ref_amplitudes(es, r, s, ts):
    """f_{r,s}(t) = sum_j U_rj U_sj exp(-i t e_j), the entry correlation_matrix gives."""
    import numpy as np

    u, e = np.asarray(es.U), np.asarray(es.eigenvalues)
    return (u[r] * u[s]) @ np.exp(-1j * np.outer(e, np.asarray(ts, dtype=float)))


def _check_amplitudes(got, want, what):
    import numpy as np

    got = np.asarray(got, dtype=complex)
    _fail(got.shape == want.shape, f"{what}: {got.shape} samples, expected {want.shape}")
    dev = float(np.max(np.abs(got - want)))
    _fail(dev <= TOL_AMP, f"{what}: deviates from the eigen-expansion by {dev:.3e}")


# ---------------------------------------------------------------------------
# eig-cold
# ---------------------------------------------------------------------------

def size_slots(sizes):
    """(size, lo, hi) per size: the stretch of log m nearer to it than to
    its neighbours, ends clipped to the first and last size."""
    bounds = [math.sqrt(a * b) for a, b in zip(sizes, sizes[1:])]
    return list(zip(sizes, [sizes[0]] + bounds, bounds + [sizes[-1]]))


class EigCold:
    """Each op builds analytic_eigensystem for a never-seen spec.

    Why: nearly all time is in the hahn/qhahn tables and their tier
    escalation, so this workload exercises the series engine (ROADMAP item 2)
    and none of the dynamics layer (item 5).  m = 100 is left out: one cold
    build takes about 14 s, more than a run.

    Mix: a round holds one op per size of acceptance criterion 1, m in
    {1, 2, 5, 10, 25, 50} plain and {5, 10, 20, 30} deformed, so every size
    weighs the same.  Each op's m is drawn log-uniformly from the stretch of
    sizes nearer to its size than to the next one (25 stands for 16..35), so
    op costs run on continuously and no quantile sits on a block of
    identical ops.
    """

    name = "eig-cold"
    calibrated = True  # the work runs in this process, so its times are scaled to the loop
    cold = True  # each op fills the caches, so a pass that repeats ops clears them first
    SLOTS = ([("plain",) + slot for slot in size_slots((1, 2, 5, 10, 25, 50))]
             + [("deformed",) + slot for slot in size_slots((5, 10, 20, 30))])

    def round(self, sampler):
        ops = []
        for family, size, lo, hi in self.SLOTS:
            key = f"{family}{size}"
            ops.append(getattr(sampler, family)(key, sampler.log_int(key + ".m", lo, hi)))
        sampler.rng.shuffle(ops)
        return ops

    def setup(self):
        import hahnchain as hc

        # warm the code paths once on tiny specs, then forget them
        hc.analytic_eigensystem(hc.ChainSpec(2, 0.5, 1.5))
        hc.analytic_eigensystem(hc.ChainSpec(2, 0.5, 0.5, 0.5))
        clear_caches(hc)
        return {"hc": hc, "oracle_mismatches": set()}

    def run(self, state, op):
        hc = state["hc"]
        return hc.analytic_eigensystem(_spec(hc, op))

    def trace(self, state, op, tr):
        return traced_build(state["hc"], op, tr)

    def check(self, state, op, es):
        check_eigensystem(op, es)
        # The QL oracle itself is inaccurate for the deformed chain's tiny
        # eigenvalues (ROADMAP item 3).  The output is already proven an
        # eigensystem above, so a mismatch is counted as an oracle defect,
        # once per spec, not as a failed op.
        if oracle_residual(state["hc"], op, es) > TOL_ORACLE:
            state["oracle_mismatches"].add(json.dumps(op, sort_keys=True))


def traced_build(hc, d, tr):
    """Cold eigensystem build, layer by layer: couplings, both family tables,
    then analytic_eigensystem, which then only assembles."""
    spec = _spec(hc, d)
    label = ("m" if d["q"] is None else "q") + str(d["m"])
    with tr.span("chain.cold_build", label=label):
        with tr.span("chain.build_couplings"):
            hc.build_couplings(spec)
        if d["q"] is None:
            p0 = hc.HahnParams(spec.alpha, spec.beta, spec.m)
            table, layer = hc.orthonormal_table, "hahn.orthonormal_table"
        else:
            p0 = hc.QHahnParams(spec.alpha, spec.beta, spec.q, spec.m)
            table, layer = hc.q_orthonormal_table, "qhahn.q_orthonormal_table"
        for p in (p0, p0.shifted()):
            misses = table.cache_info().misses
            with tr.span(layer) as rec:
                table(p)
            if table.cache_info().misses > misses:
                rec["entries"] = (p.m + 1) ** 2
        with tr.span("chain.analytic_eigensystem"):
            return hc.analytic_eigensystem(spec)


# ---------------------------------------------------------------------------
# scan-warm
# ---------------------------------------------------------------------------

class ScanWarm:
    """Dynamics calls on four specs built during set-up, so every op hits the caches.

    Why: all the work is in the dynamics layer and none in the series layer;
    it mirrors eig-cold, and ROADMAP item 5 (vectorised dynamics) shows here.
    Specs: plain m = 20 with generic beta, plain m = 20 with beta = alpha + 1,
    plain m = 50, deformed m = 20 with beta = q alpha.

    Mix: a round holds one op per (function, spec) pair the function
    accepts -- pst_scan, correlation, correlation_closed_form and
    correlation_matrix on all four specs, end_to_end on the three plain ones,
    q_end_to_end on the deformed one -- so every pair weighs the same.
    Grid lengths are drawn log-uniformly over a factor of four around
    pst_scan's 2000 points and the others' 128 (16 for correlation_matrix),
    so op costs run on continuously and no quantile sits on a block of
    identical ops.  Grids start in [0, 5) and are 5 to 40 long.
    """

    name = "scan-warm"
    calibrated = True
    cold = False
    GRID = {"pst_scan": 2000, "correlation": 128, "correlation_closed_form": 128,
            "end_to_end": 128, "q_end_to_end": 128, "correlation_matrix": 16}
    PAIRS = ([(kind, i) for kind in ("pst_scan", "correlation", "correlation_closed_form",
                                     "correlation_matrix") for i in range(4)]
             + [("end_to_end", i) for i in range(3)] + [("q_end_to_end", 3)])

    def round(self, sampler):
        rng = sampler.rng
        out = []
        for kind, i in self.PAIRS:
            m = 50 if i == 2 else 20
            key = f"{kind}{i}"
            t0 = sampler.uniform(key + ".t0", 0.0, 5.0)
            op = {"kind": kind, "spec": i, "t0": t0,
                  "t1": t0 + sampler.uniform(key + ".span", 5.0, 40.0),
                  "n": sampler.log_int(key + ".n", self.GRID[kind] / 2, self.GRID[kind] * 2)}
            if kind in ("correlation", "correlation_closed_form"):
                op["r"], op["s"] = rng.randrange(2 * m + 2), rng.randrange(2 * m + 2)
            out.append(op)
        rng.shuffle(out)
        return out

    @staticmethod
    def specs(seed):
        """The four pre-built specs, drawn from their own stream of the seed."""
        s = Sampler(random.Random(f"scan-warm-specs-{seed}"))
        generic = s.plain("g20", 20)
        while abs(generic["beta"] - generic["alpha"] - 1.0) < 1e-3:
            generic = s.plain("g20", 20)
        shifted = s.plain("s20", 20)
        shifted["beta"] = shifted["alpha"] + 1.0
        deformed = s.deformed("d20", 20)
        deformed["beta"] = deformed["q"] * deformed["alpha"]
        return [generic, shifted, s.plain("g50", 50), deformed]

    def __init__(self, spec_dicts):
        self.spec_dicts = spec_dicts

    def setup(self):
        import hahnchain as hc
        import numpy as np

        specs = [_spec(hc, d) for d in self.spec_dicts]
        return {"hc": hc, "np": np, "specs": specs,
                "es": [hc.analytic_eigensystem(spec) for spec in specs]}

    def verify_setup(self, state):
        for d, es in zip(self.spec_dicts, state["es"]):
            check_eigensystem(d, es)

    def run(self, state, op):
        hc, np = state["hc"], state["np"]
        i, kind = op["spec"], op["kind"]
        spec, es = state["specs"][i], state["es"][i]
        grid = np.linspace(op["t0"], op["t1"], op["n"])
        if kind == "pst_scan":
            return hc.pst_scan(spec, grid)
        if kind == "correlation_matrix":
            return [hc.correlation_matrix(es, float(t)) for t in grid]
        if kind == "correlation":
            return [hc.correlation(es, op["r"], op["s"], float(t)) for t in grid]
        if kind == "correlation_closed_form":
            return [hc.correlation_closed_form(spec, op["r"], op["s"], float(t)) for t in grid]
        if kind == "end_to_end":
            return [hc.end_to_end(spec, float(t)) for t in grid]
        return [hc.q_end_to_end(spec, float(t)) for t in grid]

    def trace(self, state, op, tr):
        label = None
        if op["kind"] == "pst_scan":
            label = "plain" if state["specs"][op["spec"]].q is None else "q"
        with tr.span("dynamics." + op["kind"], label=label, count=op["n"]):
            return self.run(state, op)

    def check(self, state, op, out):
        np = state["np"]
        i, kind = op["spec"], op["kind"]
        es = state["es"][i]
        grid = np.linspace(op["t0"], op["t1"], op["n"])
        n_end = es.dimension - 1
        if kind == "pst_scan":
            _fail(len(out) == len(grid), f"pst_scan returned {len(out)} of {len(grid)} samples")
            want = np.abs(ref_amplitudes(es, n_end, 0, grid))
            got = np.array([p.modulus for p in out])
            dev = float(np.max(np.abs(got - want)))
            _fail(dev <= TOL_AMP, f"pst_scan moduli deviate by {dev:.3e}")
            _fail(all(p.time == t for p, t in zip(out, grid)), "pst_scan times differ from the grid")
            _fail(all(p.is_perfect == (p.modulus >= 1.0 - 1e-9) for p in out), "is_perfect flag wrong")
        elif kind == "correlation_matrix":
            eye = np.eye(es.dimension)
            for t, f in zip(grid, out):
                dev = float(np.max(np.abs(f @ f.conj().T - eye)))
                _fail(dev <= TOL_AMP, f"correlation_matrix not unitary at t={t}: {dev:.3e}")
            _check_amplitudes([f[n_end, 0] for f in out], ref_amplitudes(es, n_end, 0, grid), kind)
        elif kind in ("correlation", "correlation_closed_form"):
            _check_amplitudes([c.amplitude for c in out],
                              ref_amplitudes(es, op["r"], op["s"], grid), kind)
        elif kind == "end_to_end":
            _check_amplitudes([c.amplitude for c in out], ref_amplitudes(es, n_end, 0, grid), kind)
        else:
            _check_amplitudes(out, ref_amplitudes(es, n_end, 0, grid), kind)


# ---------------------------------------------------------------------------
# verify-battery
# ---------------------------------------------------------------------------

class VerifyBattery:
    """Each op is run_verification on a seeded plain or deformed spec, m in 4..8.

    Why: it drives the series layer differently from eig-cold -- scalar
    relative-tolerance calls (hahn_Q, q_hahn_Q, certified_value) and mpmath
    polynomial_table / weight_vector / norm_vector -- where eig-cold uses
    absolute-target rows.  A rewrite that speeds up tables but slows scalars
    shows here (ROADMAP item 4).

    Mix: a round holds one op per m in 4..8, so every size weighs the same;
    each op is plain or deformed with equal odds.
    """

    name = "verify-battery"
    calibrated = True
    cold = True
    SIZES = (4, 5, 6, 7, 8)
    SUITES = ("hahn-orthogonality", "diff-eq-1", "diff-eq-2", "q-diff-eq-1", "q-diff-eq-2",
              "U-orthogonality", "MU-UD", "oracle-match", "correlation-unitarity",
              "kummer", "gauss")

    def round(self, sampler):
        ops = []
        for m in self.SIZES:
            family = "plain" if sampler.unit(f"v{m}.family") < 0.5 else "deformed"
            ops.append(getattr(sampler, family)(f"v{m}{family}", m))
        sampler.rng.shuffle(ops)
        return ops

    def setup(self):
        import hahnchain as hc

        hc.run_verification(hc.ChainSpec(1, 0.5, 1.5))
        clear_caches(hc)
        return {"hc": hc}

    def run(self, state, op):
        hc = state["hc"]
        return hc.run_verification(_spec(hc, op))

    def trace(self, state, op, tr):
        return traced_verify(state["hc"], op, tr)

    def check(self, state, op, report):
        names = tuple(s.name for s in report.suites)
        _fail(names == self.SUITES, f"suites {names}")
        for s in report.suites:
            _fail(math.isfinite(s.residual) and s.residual <= s.tolerance,
                  f"suite {s.name}: residual {s.residual:.3e} > {s.tolerance:.1e}")
        _fail(report.passed, "report not passed")


def traced_verify(hc, d, tr):
    """run_verification after its chain and oracle layers were timed on their own."""
    spec = _spec(hc, d)
    es = traced_build(hc, d, tr)
    matrix = hc.interaction_matrix(hc.build_couplings(spec))
    with tr.span("oracle.tridiag_eigen"):
        oracle = hc.tridiag_eigen(matrix)
    with tr.span("oracle.match_eigensystems"):
        hc.match_eigensystems(es, oracle)
    with tr.span("verify.run_verification", label=f"m{d['m']}"):
        return hc.run_verification(spec)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

CSV_HEADERS = {"couplings": "k,J", "spectrum": "j,eigenvalue", "correlate": "t,re,im,abs",
               "pst-scan": "t,modulus,is_perfect", "verify": "suite,residual,tolerance,passed"}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


CHILD_TIMEOUT = 120.0


def run_child(argv, root, stdout, stderr):
    """Run one child to completion and return its exit code.

    The wait blocks in waitpid; a watchdog thread kills a child that hangs.
    (Popen.wait with a timeout polls in sleeps of up to 50 ms, which would
    round every measured call up to a multiple of 50 ms.)
    """
    proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        return proc.wait()
    finally:
        watchdog.cancel()


class CliSession:
    """Each op runs one ``python -m hahnchain.cli`` child process, one at a time.

    Why: it is the only workload that pays the per-call import (about 0.15 s
    of a 0.25-0.4 s call) and the JSON/CSV serialisation, the CLI costs the
    ROADMAP asks to track; without it the cli layer goes unmeasured.

    A round holds 15 commands over spectrum, couplings, eigvecs (m <= 24),
    correlate, pst-scan (500-5000 steps) and verify (m <= 4), plain and
    deformed, JSON and CSV, to stdout and to --output.
    """

    name = "cli-session"
    # The work runs in child processes, whose speed the loop in this mostly
    # waiting process does not track: over five 20 s runs the loop's median
    # ranged 15-32 ms while raw ops_per_s stayed within 2.33-2.68.
    calibrated = False
    cold = False
    # (command, family, m, format, to --output file)
    MIX = [("spectrum", "plain", 12, "json", False), ("spectrum", "deformed", 8, "csv", True),
           ("couplings", "plain", 16, "csv", False), ("couplings", "deformed", 8, "json", True),
           ("eigvecs", "plain", 24, "json", False), ("eigvecs", "plain", 10, "csv", True),
           ("eigvecs", "deformed", 20, "csv", False),
           ("correlate", "plain", 10, "json", False), ("correlate", "shifted", 10, "json", True),
           ("correlate", "qshifted", 8, "json", False), ("correlate", "deformed", 8, "csv", True),
           ("pst-scan", "plain", 16, "csv", True), ("pst-scan", "deformed", 8, "json", False),
           ("verify", "plain", 4, "json", False), ("verify", "deformed", 3, "csv", True)]

    def __init__(self, root):
        self.root = root
        self.outdir = os.path.join(root, ".bench_run")

    def round(self, sampler):
        ops = [cli_op(sampler, *entry) for entry in self.MIX]
        sampler.rng.shuffle(ops)
        return ops

    def setup(self):
        import hahnchain.cli  # noqa: F401  (the import every CLI call pays)

        os.makedirs(self.outdir, exist_ok=True)
        return {"seq": 0, "bytes_out": 0}

    def run(self, state, op):
        state["seq"] += 1
        base = os.path.join(self.outdir, f"cli-{state['seq']}")
        argv = [sys.executable, "-m", "hahnchain.cli"] + op["args"]
        out_file = base + "." + op["fmt"] if op["to_file"] else None
        if out_file:
            argv += ["--output", out_file]
        with open(base + ".stdout", "wb") as out, open(base + ".stderr", "wb") as err:
            code = run_child(argv, self.root, out, err)
        return code, base, out_file

    def trace(self, state, op, tr):
        with tr.span("cli.subprocess", label=op["cmd"]):
            return self.run(state, op)

    def check(self, state, op, result):
        code, base, out_file = result
        try:
            with open(base + ".stderr", encoding="utf-8") as fh:
                err = fh.read().strip()
            _fail(code == 0, f"exit code {code}: {err[-200:]}")
            with open(out_file or base + ".stdout", encoding="utf-8", newline="") as fh:
                text = fh.read()
            if out_file:
                _fail(os.path.getsize(base + ".stdout") == 0, "--output run also wrote to stdout")
            state["bytes_out"] += len(text.encode())
            check_cli_output(op, text)
        finally:
            for path in (base + ".stdout", base + ".stderr", out_file):
                if path and os.path.exists(path):
                    os.remove(path)


def cli_op(sampler, cmd, family, m, fmt, to_file):
    """One CLI invocation: its argument list and the spec it describes."""
    key = f"{cmd}.{family}"
    d = getattr(sampler, "plain" if family in ("plain", "shifted") else "deformed")(key, m)
    if family == "shifted":
        d["beta"] = d["alpha"] + 1.0
    elif family == "qshifted":
        d["beta"] = d["q"] * d["alpha"]
    args = [cmd, "--m", str(m), "--alpha", repr(d["alpha"]), "--beta", repr(d["beta"])]
    if d["q"] is not None:
        args += ["--q", repr(d["q"])]
    args += ["--format", fmt]
    if cmd in ("correlate", "pst-scan"):
        steps = 200 if cmd == "correlate" else int(sampler.uniform(key + ".steps", 500, 5000))
        t0 = sampler.uniform(key + ".t0", 0.0, 2.0)
        args += ["--t-min", repr(t0), "--t-max", repr(t0 + sampler.uniform(key + ".span", 3.0, 30.0)),
                 "--steps", str(steps)]
        d["steps"] = steps
    if cmd == "correlate":
        d["r"], d["s"] = sampler.rng.randrange(2 * m + 2), sampler.rng.randrange(2 * m + 2)
        args += ["--r", str(d["r"]), "--s", str(d["s"])]
    return {"cmd": cmd, "fmt": fmt, "to_file": to_file, "spec": d, "args": args}


def check_cli_output(op, text):
    """Strict JSON or CSV shape and values of one CLI command's output."""
    import numpy as np

    cmd, d = op["cmd"], op["spec"]
    m = d["m"]
    n_sites = 2 * m + 2
    rows = {"couplings": 2 * m + 1, "spectrum": n_sites, "eigvecs": n_sites,
            "correlate": d.get("steps"), "pst-scan": d.get("steps"), "verify": 11}[cmd]
    want_eig = np.linalg.eigvalsh(ref_matrix(d))
    scale = float(np.max(np.abs(want_eig)))
    if op["fmt"] == "json":
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            raise CheckFailure(f"invalid JSON: {exc}") from None
        for key, want in (("m", m), ("alpha", d["alpha"]), ("beta", d["beta"]), ("q", d["q"]),
                          ("N", 2 * m + 1)):
            _fail(doc.get(key) == want, f"{key} = {doc.get(key)!r}, expected {want!r}")
        if cmd == "verify":
            _fail(doc.get("passed") is True and len(doc.get("suites", {})) == rows,
                  f"verify document: passed={doc.get('passed')}")
            return
        eig = np.array(doc["eigenvalues"], dtype=float)
        _fail(eig.shape == want_eig.shape, f"{eig.size} eigenvalues")
        _fail(float(np.max(np.abs(eig - want_eig))) <= TOL_ORACLE * scale, "eigenvalues wrong")
        body = {"couplings": "couplings", "spectrum": "eigenvalues", "eigvecs": "U",
                "correlate": "samples", "pst-scan": "results"}[cmd]
        _fail(len(doc[body]) == rows, f"{body} has {len(doc[body])} entries, expected {rows}")
        if cmd == "couplings":
            dev = np.max(np.abs(np.array(doc["couplings"]) - ref_couplings(d)))
            _fail(float(dev) <= 1e-12 * scale, "couplings wrong")
        if cmd == "correlate" and d["q"] is not None and d["beta"] == d["q"] * d["alpha"]:
            _fail(len(doc.get("special", {}).get("q_closed_form", ())) == rows,
                  "q_closed_form missing")
        return
    lines = text.split("\n")
    _fail(lines[-1] == "", "CSV does not end with a newline")
    lines = lines[:-1]
    header = (CSV_HEADERS[cmd] if cmd != "eigvecs"
              else "i," + ",".join(f"u{j}" for j in range(n_sites)))
    _fail(lines[0] == header, f"CSV header {lines[0][:60]!r}")
    _fail(len(lines) - 1 == rows, f"CSV has {len(lines) - 1} rows, expected {rows}")
    cells = [line.split(",") for line in lines[1:]]
    width = len(header.split(","))
    _fail(all(len(c) == width for c in cells), "CSV row width differs from the header")
    if cmd == "verify":
        _fail(all(c[3] == "true" for c in cells), "a verify suite failed")
    cols = {"pst-scan": slice(0, 2), "verify": slice(1, 3)}.get(cmd, slice(1, None))
    values = np.array([[float(v) for v in c[cols]] for c in cells])
    _fail(bool(np.all(np.isfinite(values))), "non-finite CSV value")
    if cmd == "spectrum":
        _fail(float(np.max(np.abs(values[:, 0] - want_eig))) <= TOL_ORACLE * scale, "eigenvalues wrong")
    if cmd == "couplings":
        _fail(float(np.max(np.abs(values[:, 0] - ref_couplings(d)))) <= 1e-12 * scale, "couplings wrong")


def make(name, seed, root):
    if name == "eig-cold":
        return EigCold()
    if name == "scan-warm":
        return ScanWarm(ScanWarm.specs(seed))
    if name == "verify-battery":
        return VerifyBattery()
    return CliSession(root)


NAMES = ("eig-cold", "scan-warm", "verify-battery", "cli-session")


def op_rounds(workload, seed):
    """The seeded op list, one round (a list of JSON-serialisable ops) at a
    time and without end.  Rounds are made as they are issued, so the list
    adds nothing to the benchmark's own memory."""
    sampler = Sampler(random.Random(f"{workload.name}-{seed}"))
    while True:
        yield workload.round(sampler)
