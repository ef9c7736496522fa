"""One benchmark process: builds a workload's inputs, runs timed passes over
its operation list, checks every output and prints a JSON report.

Run by run.py in a fresh interpreter with ``src`` on PYTHONPATH.  Prints a
``{"ready": ...}`` line once the inputs are built (the end of set-up) and,
unless ``--setup-only`` is given, one report line at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from hostspeed import Sampler, reference

# set-up is read by the sampler too, from here until the inputs are built
SAMPLER = Sampler()
SAMPLER.start()
t_import = time.perf_counter()
import torsio  # noqa: E402

IMPORT_S = time.perf_counter() - t_import - SAMPLER.spent

from torsio import (  # noqa: E402
    ScaleParams,
    TorsioError,
    check_all,
    invert_edge_weights,
    lambda0,
    merge_dirichlet,
    min_cut_weight,
    p_diameter_inverted,
    q_inradius,
    q_mean_distance,
    scale,
    solve_torsion,
)
from torsio.cli import main as cli_main, parse_graph, render_json  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import Records, Verdict  # noqa: E402

PER_LAYER = (
    "graphs.build_s", "graphs.surgery_s",
    "solver.p2_s", "solver.plt2_s", "solver.pgt2_s", "solver.iterations", "solver.failures",
    "spectral.p2_s", "spectral.inverse_power_s", "spectral.outer_iterations",
    "geometry.min_cut_s", "geometry.diameter_s", "geometry.distances_s",
    "bounds.check_all_s", "bounds.self_est_s",
    "cli.parse_s", "cli.render_s", "cli.main_s",
)


def _timed(fn, *args):
    """(seconds, result or the TorsioError raised)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except TorsioError as exc:
        out = exc
    return time.perf_counter() - t0, out


class Trace:
    """Per-layer totals of one traced pass, taken around the benchmark's own
    calls into each module's public functions."""

    def __init__(self) -> None:
        self.totals = dict.fromkeys(PER_LAYER, 0.0)

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def solve(self, spec):
        dt, out = _timed(solve_torsion, spec)
        self.add("solver.p2_s" if spec.p == 2.0 else
                 "solver.plt2_s" if spec.p < 2.0 else "solver.pgt2_s", dt)
        if isinstance(out, TorsioError):
            self.add("solver.failures", 1)
            self.add("solver.iterations", getattr(out, "iterations", None) or 0)
        else:
            self.add("solver.iterations", out.iterations)
        return dt, out

    def lambda0(self, spec):
        dt, out = _timed(lambda0, spec)
        if spec.p == 2.0:
            self.add("spectral.p2_s", dt)
        else:
            self.add("spectral.inverse_power_s", dt)
            self.add("spectral.outer_iterations", getattr(out, "iterations", None) or 0)
        return dt, out

    def geometry(self, spec) -> tuple[float, dict]:
        """geometry_summary taken apart into the four calls it makes."""
        t_in, inr = _timed(q_inradius, spec, spec.p)
        t_mean, mean = _timed(q_mean_distance, spec, spec.p)
        t_diam, diam = _timed(p_diameter_inverted, spec.graph, spec.p)
        t_cut, cut = _timed(min_cut_weight, spec.graph)
        self.add("geometry.distances_s", t_in + t_mean)
        self.add("geometry.diameter_s", t_diam)
        self.add("geometry.min_cut_s", t_cut)
        values = {"inradius": inr, "mean_distance": mean, "diameter_inverted": diam,
                  "min_cut_weight": cut}
        return t_in + t_mean + t_diam + t_cut, values

    def bounds(self, spec):
        """check_all, plus the estimate of its own share: check_all minus
        separately timed solve_torsion, lambda0 and min_cut_weight."""
        dt, report = _timed(check_all, spec)
        self.add("bounds.check_all_s", dt)
        parts = self.solve(spec)[0] + self.lambda0(spec)[0]
        t_cut, _ = _timed(min_cut_weight, spec.graph)
        self.add("geometry.min_cut_s", t_cut)
        self.add("bounds.self_est_s", dt - parts - t_cut)
        return dt, report


# -- per-workload operations -------------------------------------------------
#
# An operation returns (latency_s, outcome).  The outcome is what the check
# inspects: a result object, a TorsioError, or the captured CLI output.


class SolveWorkload:
    # most operations take 20 to 150 ms and a few take seconds: give the
    # cheap ones several samples per visit
    visit_s = 0.1

    def __init__(self, seed: int, clock: workloads.BuildClock) -> None:
        self.ops = workloads.solve_inputs(seed, clock)

    def labels(self):
        return [f"{inst.label}:{what}" for what, inst in self.ops]

    def run(self, k: int, trace: Trace | None):
        what, inst = self.ops[k]
        if trace is not None:
            return (trace.solve if what == "torsion" else trace.lambda0)(inst.spec)
        return _timed(solve_torsion if what == "torsion" else lambda0, inst.spec)

    def fingerprint(self, out):
        if isinstance(out, TorsioError):
            return type(out).__name__
        return out.rigidity if hasattr(out, "rigidity") else out.lambda0

    def check(self, k: int, out) -> Verdict:
        what, inst = self.ops[k]
        if isinstance(out, TorsioError):
            return Verdict().fail(f"{type(out).__name__}: {out}")
        rec = Records(*inst.records, inst.spec.p)
        if what == "torsion":
            return checks.check_torsion(inst.spec, rec, inst.kind, out.tau, out.rigidity)
        return checks.check_lambda0(inst.spec, rec, out.lambda0, out.ground_state)


class CliWorkload:
    # a pass takes a few seconds, so every call comes round often anyway
    visit_s = 0.0

    def __init__(self, seed: int, clock: workloads.BuildClock, work_dir: str) -> None:
        self.docs = workloads.cli_inputs(seed)
        self.paths = []
        for k, doc in enumerate(self.docs):
            path = os.path.join(work_dir, f"doc{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc.text)
            self.paths.append(path)

    def labels(self):
        return [doc.label for doc in self.docs]

    def argv(self, k: int) -> list[str]:
        doc = self.docs[k]
        return [*doc.argv_tail, self.paths[k], *doc.extra]

    def run(self, k: int, trace: Trace | None):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(self.argv(k))
        dt = time.perf_counter() - t0
        result = (code, out.getvalue(), err.getvalue())
        if trace is not None:
            self._trace(k, trace, dt, result)
        return dt, result

    def _trace(self, k: int, trace: Trace, dt: float, result) -> None:
        doc = self.docs[k]
        trace.add("cli.main_s", dt)
        t_parse, spec = _timed(parse_graph, doc.text)
        trace.add("cli.parse_s", t_parse)
        t_build, _ = _timed(workloads.build_graph, *doc.records[:2])
        trace.add("graphs.build_s", t_build)
        if result[1]:
            payload = json.loads(result[1])
            t_render, _ = _timed(render_json, payload)
            trace.add("cli.render_s", t_render)
        command = doc.argv_tail
        if command == ("torsion",):
            trace.solve(spec)
        elif command == ("lambda0",):
            trace.lambda0(spec)
        elif command == ("metrics",):
            trace.geometry(spec)
        elif command == ("bounds",):
            trace.bounds(spec)
        elif command[0] == "surgery":
            fn = {"merge-dirichlet": lambda: merge_dirichlet(spec),
                  "scale": lambda: scale(spec.graph, ScaleParams(mu=2.0, lam=0.5)),
                  "invert": lambda: invert_edge_weights(spec.graph)}[command[1]]
            trace.add("graphs.surgery_s", _timed(fn)[0])

    def fingerprint(self, out):
        return out

    def check(self, k: int, out) -> Verdict:
        code, stdout, stderr = out
        doc = self.docs[k]
        v = Verdict()
        if code != 0:
            return v.fail(f"exit code {code}: {stderr.strip()[:200]}")
        payload = json.loads(stdout)
        if render_json(payload) + "\n" != stdout:
            return v.fail("stdout does not re-render byte for byte")
        rec = Records(*doc.records, doc.p)
        spec = parse_graph(doc.text)
        command = doc.argv_tail
        if command == ("validate",):
            expect = {"vertices": len(rec.ids), "edges": len(rec.b), "free": len(rec.free),
                      "well_posed": True, "connected": True}
            if any(payload[key] != value for key, value in expect.items()):
                v.fail(f"validate reports {payload}")
        elif command == ("torsion",):
            v = checks.check_torsion(spec, rec, doc.kind, payload["tau"], payload["rigidity"])
        elif command == ("lambda0",):
            v = checks.check_lambda0(spec, rec, payload["lambda0"], payload["ground_state"])
        elif command == ("metrics",):
            v = checks.check_geometry(rec, payload)
        elif command == ("bounds",):
            # T_p of the report, checked on the solution behind it; a solve
            # that raises leaves the report's checks inconclusive
            v = checks.check_report(payload)
            _, sol = _timed(solve_torsion, spec)
            if not isinstance(sol, TorsioError):
                v.merge(checks.check_torsion(spec, rec, doc.kind, sol.tau, sol.rigidity))
                reported = checks.reported_rigidity(payload)
                if reported != sol.rigidity:
                    v.fail(f"bounds reports T_p {reported!r}, solve_torsion {sol.rigidity!r}")
        else:
            v = checks.check_surgery(command[1], rec, Records.from_document(payload))
        return v


# -- measurement -------------------------------------------------------------


def _percentile_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it
    (the 11th largest value), over one latency per operation."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = max(0, n - 11)
    return {
        "samples": n,
        "p50_s": statistics.median(ordered),
        "tail_s": ordered[tail_index],
        "tail_percentile": 100.0 * tail_index / (n - 1) if n > 1 else 100.0,
        "beyond_tail": n - 1 - tail_index,
    }


def _same(a, b) -> bool:
    """Outputs of two passes agree.  Library results may differ in the last
    bits (the Lanczos start vector is random), CLI stdout may not differ."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9)
    return a == b


def measure(workload, seconds: float, traced: bool) -> dict:
    """Runs the operation list once in full, then keeps cycling through it
    until the next operation would end after ``seconds``, so the whole
    window is used however long a pass is and the repeats of each operation
    are spread over it.  A visit to an operation after the first pass
    repeats it until the visit has lasted ``workload.visit_s``, so cheap
    operations gather many samples while dear ones still come round in
    every cycle.  With tracing, whole untraced and traced passes alternate
    instead.

    Every untraced sample is followed by a call of the reference kernel,
    and a sample longer than the sampler's interval is read during the
    call too (the readings' own time is taken off the sample).  A sample
    is scaled to a host of fixed speed (Sampler.scale) by the readings
    during it or, with none, by the faster of the two readings next to
    it.  An operation's latency is the median of its scaled samples (see
    bench/README.md, Stability).  run_s is the sum of the latencies, the
    time of one pass."""
    labels = workload.labels()
    n = len(labels)
    samples: list[list[float]] = [[] for _ in labels]
    # per sample: the factor that scales it to a host of fixed speed
    scales: list[list[float]] = [[] for _ in labels]
    refs = [reference()]
    first: list = [None] * n
    fingerprints: list = [None] * n
    unstable: set[int] = set()
    untraced: list[float] = []
    traced_walls: list[float] = []
    traces: list[dict] = []

    def run(k: int, trace: Trace | None) -> None:
        if trace is None:
            with SAMPLER:
                dt, out = workload.run(k, None)
            refs.append(reference())
            samples[k].append(dt - SAMPLER.spent)
            scales[k].append(SAMPLER.scale(fallback=min(refs[-2], refs[-1])))
            refs.extend(SAMPLER.readings)
        else:
            dt, out = workload.run(k, trace)
        fp = workload.fingerprint(out)
        if first[k] is None:
            first[k], fingerprints[k] = out, fp
        elif not _same(fp, fingerprints[k]):
            unstable.add(k)

    def full_pass(trace: Trace | None) -> None:
        t0 = time.perf_counter()
        for k in range(n):
            run(k, trace)
        (untraced if trace is None else traced_walls).append(time.perf_counter() - t0)
        if trace is not None:
            traces.append(trace.totals)

    start = time.perf_counter()
    full_pass(None)
    if traced:
        full_pass(Trace())
        while (time.perf_counter() - start + untraced[-1] + traced_walls[-1]) <= seconds:
            full_pass(None)
            full_pass(Trace())
    else:
        k = 0
        while time.perf_counter() - start + statistics.median(samples[k]) <= seconds:
            t_visit = time.perf_counter()
            run(k, None)
            while (time.perf_counter() - t_visit < workload.visit_s and
                   time.perf_counter() - start + statistics.median(samples[k]) <= seconds):
                run(k, None)
            k = (k + 1) % n
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [statistics.median(dt * c for dt, c in zip(x, cs))
                 for x, cs in zip(samples, scales)]
    return {
        "labels": labels, "first": first, "unstable": unstable,
        "latencies": latencies, "raw_least": [min(x) for x in samples],
        "repeats": [len(x) for x in samples], "run_s": sum(latencies),
        "ref_fast_s": min(refs), "ref_median_s": statistics.median(refs),
        "untraced": untraced, "traced": traced_walls, "traces": traces,
        "peak_rss_mb": peak_rss_mb,
    }


def _raised(out) -> bool:
    """A TorsioError from the library, or the CLI's numerical-failure exit."""
    return isinstance(out, TorsioError) or (isinstance(out, tuple) and out[0] == 2)


def evaluate(workload, m: dict) -> dict:
    """Checks the first output of every operation, outside the timed passes."""
    ops = []
    errs, gaps = [], []
    failed = 0
    correct = True
    for k, label in enumerate(m["labels"]):
        out = m["first"][k]
        verdict = workload.check(k, out)
        if k in m["unstable"]:
            verdict.fail("output differs between passes")
        if not verdict.ok:
            failed += 1
            # an operation that raised produced no output to be wrong about
            correct = correct and _raised(out)
        if verdict.rigidity_err is not None:
            errs.append(verdict.rigidity_err)
        if verdict.gap is not None:
            gaps.append(verdict.gap)
        ops.append({"op": label, "latency_s": m["latencies"][k],
                    "raw_least_s": m["raw_least"][k], "ok": verdict.ok,
                    "reason": verdict.reason, "rigidity_err": verdict.rigidity_err,
                    "gap": verdict.gap})
    return {"ops": ops, "failed": failed, "correct": correct,
            "rigidity_err_max": max([checks.RESOLUTION, *errs]),
            "lambda0_gap_max": max([checks.RESOLUTION, *gaps])}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "torsio": torsio.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    clock = workloads.BuildClock()
    work_dir = tempfile.mkdtemp(prefix="cli_", dir=args.work_dir)
    try:
        if args.workload == "solve":
            workload = SolveWorkload(args.seed, clock)
        else:
            workload = CliWorkload(args.seed, clock, work_dir)
        SAMPLER.stop()
        print(json.dumps({"ready": True, "import_s": IMPORT_S, "build_s": clock.seconds,
                          "sampler_s": SAMPLER.spent,
                          "scale": SAMPLER.scale(fallback=reference())}), flush=True)
        if args.setup_only:
            return 0
        m = measure(workload, args.seconds, bool(args.trace))
        t_check = time.perf_counter()
        result = evaluate(workload, m)
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = _percentile_summary(m["latencies"])
    report = {
        "environment": environment(args.seed),
        "ref_fast_s": m["ref_fast_s"],
        "ref_median_s": m["ref_median_s"],
        "pass_s": m["untraced"],
        "run_s": m["run_s"],
        "run_raw_least_s": sum(m["raw_least"]),
        "repeats": [min(m["repeats"]), max(m["repeats"])],
        "ops": ops,
        "check_s": check_s,
        "peak_rss_mb": m["peak_rss_mb"],
        "attempted": len(m["labels"]),
        "failed": result["failed"],
        "correct": result["correct"],
        "rigidity_err_max": result["rigidity_err_max"],
        "lambda0_gap_max": result["lambda0_gap_max"],
        "operations": result["ops"],
    }
    if args.trace:
        layers = {key: statistics.median(t[key] for t in m["traces"]) for key in PER_LAYER}
        layers["graphs.build_s"] += clock.seconds
        layers["trace.overhead_s"] = statistics.median(m["traced"]) - statistics.median(m["untraced"])
        report["layers"] = layers
        report["traced_pass_s"] = m["traced"]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
