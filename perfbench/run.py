"""Benchmark entry point.

    python3 perfbench/run.py --workload cli_requests --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh measuring process (``worker.py``), times the
set-up of further fresh processes for ``setup_s``, prints every metric by
name and unit with its sample count and the run environment, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Run from the root of a checkout; it imports the
package from ``src/``.

``setup_s`` is in reference-speed seconds, like the loop's timings.  Each
set-up probe runs between two reference probes: fresh interpreters that
run fixed calibration work instead of the program.  On a shared host the
speed of a short-lived process swings by up to ~1.7x from probe to probe
and from run to run, but neighbouring probes see nearly the same speed,
so the ratio of set-up time to the mean of its two reference times is
steady.  ``setup_s`` is the median ratio times ``REFERENCE_PROBE_S``, the
reference probe's typical time on a 2-vCPU x86-64 VM under Python 3.11.
A change to the program's set-up moves the set-up probe and not the
reference.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE_PROBE_S = 0.2
SETUP_MIN_PROBES = 7
SETUP_BUDGET_S = 6.0
RUN_TIMEOUT_S = 170.0
WORKLOADS = ("cli_requests", "param_loci", "tower_orbits")


def source_id() -> str:
    """Commit when the checkout is a git work tree, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def spawn(args: argparse.Namespace, deadline: float, *mode: str):
    """Start a worker with the extra flags ``mode``; return (seconds from
    start to READY, last stdout line)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = None
    last = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line.strip()
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker passed the {RUN_TIMEOUT_S:g}s run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise SystemExit(f"worker exited with code {proc.returncode} before finishing")
    return ready, last


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "superelliptic" / "__init__.py").is_file():
        print("no src/superelliptic package next to the benchmark", file=sys.stderr)
        return 2
    # byte-compile first, so that no set-up sample pays for compilation
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    result = json.loads(spawn(args, deadline)[1])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    if not args.trace:
        setup, reference = [], [spawn(args, deadline, "--reference")[0]]
        probes_end = time.perf_counter() + SETUP_BUDGET_S
        while len(setup) < SETUP_MIN_PROBES or time.perf_counter() < probes_end:
            setup.append(spawn(args, deadline, "--setup-only")[0])
            reference.append(spawn(args, deadline, "--reference")[0])
        # each set-up probe over the mean of the reference probes either side of it
        ratios = [2 * s / (r0 + r1) for s, r0, r1 in zip(setup, reference, reference[1:])]
        metrics["setup_s"] = {"value": REFERENCE_PROBE_S * statistics.median(ratios), "unit": "s"}
        attempted, failed = result["attempted"], result["failed"]
        metrics["ok_share"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}

    env = dict(result["env"], source=source_id())
    print(f"workload {args.workload}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  deck {result['deck_size']} requests x {result['passes']} passes = "
          f"{result['requests']} timed requests in {result['loop_wall_s']:.3f} s; "
          f"{result['failed']} of {result['attempted']} failed "
          f"(failed_share {result['failed'] / result['attempted']:.4f})")
    if not args.trace:
        print(f"  requests_per_s, latency_p50_ms, latency_p90_ms in reference-speed seconds over "
              f"{result['requests']} requests; as measured: "
              + ", ".join(f"{k}={v:.6g}" for k, v in result["as_measured"].items()))
        print(f"  setup_s over {len(setup)} set-up probes; as measured (s), set-up: "
              f"{', '.join(f'{x:.3f}' for x in setup)}; reference: "
              f"{', '.join(f'{x:.3f}' for x in reference)}")
    else:
        print(f"  trace written to {result['trace_file']}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
