"""Seeded, layered benchmark of torsio.

    python3 bench/run.py --workload {solve,cli_small} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src`` in
fresh interpreters with one BLAS thread, so all load comes from one process
on one core.  Set-up is timed in several fresh interpreters and reported as
the median; then one worker runs timed passes over the workload's fixed
operation list for about ``--seconds`` seconds and checks every output
outside the timed region.

Output: a report line (environment, per-operation latencies and checks)
followed by the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is timed in this many fresh interpreters, the worker included.
SETUP_SAMPLES = 7
# Wall-clock cap on the whole run, children included.
RUN_TIMEOUT_S = 170.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: steadier timings and bit-identical results between passes
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    # every interpreter compiles src afresh, so set-up does not depend on
    # whether an earlier run left bytecode behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], env: dict, cwd: str, deadline: float):
    """Start a worker; return (set-up seconds, ready record, final report)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=cwd, text=True)
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker did not finish within the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready_line.startswith("{"):
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    lines = [line for line in rest.splitlines() if line.startswith("{")]
    return setup_s, json.loads(ready_line), (json.loads(lines[-1]) if lines else None)


def git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "cli_small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "torsio", "__init__.py")):
        print("bench: src/torsio not found; run from the repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed)]
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    work_dir = tempfile.mkdtemp(prefix=".bench_work_", dir=root)
    setups, scaled, imports = [], [], []

    def child(extra: list[str]) -> dict | None:
        setup_s, ready, report = run_child(base + ["--work-dir", work_dir] + extra, env, root,
                                           deadline)
        setups.append(setup_s)
        scaled.append((setup_s - ready["sampler_s"]) * ready["scale"])
        imports.append(ready["import_s"])
        return report

    try:
        # set-up probes on both sides of the measuring worker, so that the
        # median spans the run and not one moment of the host's load
        for _ in range(SETUP_SAMPLES // 2):
            child(["--setup-only"])
        report = child(["--seconds", str(args.seconds), "--trace", str(args.trace)])
        for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2):
            child(["--setup-only"])
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report["environment"]["git_commit"] = git_commit(root)
    report["setup_samples_s"] = setups
    report["setup_scaled_s"] = scaled
    ops = report["ops"]
    if args.trace:
        layers = report.pop("layers")
        layers["cli.import_s"] = statistics.median(imports)
        metrics = {name: metric(value, "count" if name.endswith(("iterations", "failures"))
                                else "s") for name, value in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": metric(statistics.median(scaled), "s"),
            "run_s": metric(report["run_s"], "s"),
            "op_p50_ms": metric(1e3 * ops["p50_s"], "ms"),
            "op_tail_ms": metric(1e3 * ops["tail_s"], "ms"),
            "ok_share": metric(1.0 - report["failed"] / report["attempted"], "ratio"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
            "lambda0_gap_max": metric(report["lambda0_gap_max"], "ratio"),
            "rigidity_err_max": metric(report["rigidity_err_max"], "ratio"),
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
