"""The measuring process of one benchmark run.

Started by ``run.py`` in a fresh interpreter: imports the package, builds
the workload's deck (fixtures, domains, inputs) and warms up, prints
``READY``, runs the timed loop, checks every output, and prints one JSON
line with its results.  With ``--setup-only`` it exits after ``READY``;
``run.py`` times such processes for ``setup_s``.  With ``--reference`` it
runs ``REFERENCE_KERNELS`` calibration kernels instead of importing the
program, prints ``READY`` and exits: a fresh process of fixed work that
``run.py`` times next to each set-up probe.

With ``--trace 1`` the set-up runs traced, the timed loop runs untraced,
and the same passes are then replayed traced; per-layer metrics cover the
traced set-up and the traced replay.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (DEADLINE_S, Failed, calibration_kernel, check_outputs,  # noqa: E402
                     p50, p90, report_failures, same_output, send, timed_loop)

WORKLOADS = {"cli_requests": "wl_cli", "param_loci": "wl_param", "tower_orbits": "wl_tower"}
OUT_DIR = ROOT / ".bench_out"
REFERENCE_KERNELS = 30


@contextlib.contextmanager
def quiet():
    """Swallow stderr: argparse prints usage for the deliberate exit-2 requests."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        yield


def builder_cache():
    """(hits, misses) summed over the catalog's fixture builders."""
    from superelliptic import catalog
    from tracer import fixture_builders

    infos = [fn.cache_info() for fn in fixture_builders(catalog)]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def layer_metrics(tracer, cache_hits: int, cache_misses: int) -> dict:
    totals = tracer.totals()

    def calls(name):
        return totals[name][0] if name in totals else 0

    def self_s(name):
        return totals[name][1] if name in totals else 0.0

    m = {}

    def count(key, value):
        m[key] = (value, "count")

    def seconds(key, value):
        m[key] = (value, "s")

    for layer in ("rings.ff", "rings.mp_gcd", "rings.qr", "rings.qq", "rings.fp",
                  "unipoly.mul", "unipoly.mobius_transport", "unipoly.poly_gcd",
                  "unipoly.resultant", "covers", "invariants", "moduli",
                  "groups.group_elements", "groups.orbit_decomposition", "parser", "cli.run"):
        count(f"{layer}.calls", calls(layer))
        seconds(f"{layer}.self_s", self_s(layer))
    for layer in ("groups.is_invariant", "groups.classify", "catalog.build"):
        seconds(f"{layer}.self_s", self_s(layer))
    m["rings.ff.peak_coeff_bits"] = (tracer.peaks.get("rings.ff", 0), "bits")
    m["rings.qr.peak_coeff_bits"] = (tracer.peaks.get("rings.qr", 0), "bits")
    count("rings.qr.inv_calls", tracer.counter("rings.qr.inv_calls"))
    gcd_calls = calls("rings.mp_gcd")
    m["rings.mp_gcd.nontrivial_ratio"] = (
        tracer.counter("rings.mp_gcd.nontrivial") / gcd_calls if gcd_calls else 0.0, "ratio")
    count("catalog.build.calls", cache_misses)
    lookups = cache_hits + cache_misses
    m["catalog.cache_hit_ratio"] = (cache_hits / lookups if lookups else 0.0, "ratio")
    return m


def batch_times(deck, texts: list[str]):
    """Wall time of the deck through ``cli batch`` with --jobs 1 and 2,
    and the number of report lines that differ from the direct run."""
    from superelliptic import cli

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"batch-{os.getpid()}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for req in deck:
            fh.write(json.dumps({"command": req.args[0], "args": list(req.args[1:])}) + "\n")
    times, wrong = {}, 0
    try:
        for jobs in (1, 2):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with quiet(), contextlib.redirect_stdout(buf):
                cli.run(["batch", str(path), "--jobs", str(jobs)])
            times[jobs] = time.perf_counter() - t0
            lines = buf.getvalue().splitlines()
            wrong += sum(a != b for a, b in zip(lines, texts)) + abs(len(lines) - len(texts))
    finally:
        path.unlink()
    return times, wrong


def environment(seed: int) -> dict:
    from superelliptic import rings

    return {
        "python": sys.version.split()[0],
        "backend": "gmpy2" if rings._HAVE_GMPY else "fractions",
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()
    if args.reference:
        for _ in range(REFERENCE_KERNELS):
            calibration_kernel()
        print("READY", flush=True)
        return 0

    workload = importlib.import_module(WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.request = "setup"
    deck, warm = workload.build(args.seed, ROOT)
    with quiet():
        warm_out = [send(req, DEADLINE_S) for req in warm]
    if tracer is not None:
        tracer.uninstall()
    setup_cache = builder_cache()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    with quiet():
        loop = timed_loop(deck, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the oracle loads
    failures = check_outputs(deck, loop.outputs)
    report_failures(deck, failures, "loop")
    warm_failed = sum(isinstance(o, Failed) for o in warm_out)
    n = len(loop.outputs)
    result = {
        "workload": args.workload,
        "env": environment(args.seed),
        "deck_size": len(deck),
        "passes": loop.passes,
        "requests": n,
        "loop_wall_s": loop.wall_s,
        "attempted": n + len(warm),
        "failed": len(failures) + warm_failed,
    }
    if not args.trace:
        latencies = loop.scaled()
        result["as_measured"] = {
            "requests_per_s": n / sum(loop.latencies),
            "latency_p50_ms": 1000 * p50(loop.latencies),
            "latency_p90_ms": 1000 * p90(loop.latencies),
            "median_scale": p50(loop.scales),
        }
        result["metrics"] = {
            "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (1000 * p50(latencies), "ms"),
            "latency_p90_ms": (1000 * p90(latencies), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        first = loop.outputs[: len(deck)]
        cache_before = builder_cache()
        tracer.install()

        def mark(i):
            tracer.request = i

        def same_untraced(a, b):
            # the comparison calls domain methods; they are not the request's
            tracer.active = False
            try:
                return same_output(a, b)
            finally:
                tracer.active = True

        with quiet():
            replay = timed_loop(deck, 0, passes=loop.passes, deadline=4 * DEADLINE_S,
                                on_request=mark, same=same_untraced)
        tracer.uninstall()
        cache_after = builder_cache()
        replay_failures = check_outputs(deck, replay.outputs, reference=first,
                                        reference_ok=[i not in failures for i in range(len(deck))])
        report_failures(deck, replay_failures, "traced replay")
        hits = setup_cache[0] + cache_after[0] - cache_before[0]
        misses = setup_cache[1] + cache_after[1] - cache_before[1]
        metrics = layer_metrics(tracer, hits, misses)
        jobs1 = jobs2 = 0.0
        wrong = batch_attempted = 0
        if args.workload == "cli_requests":
            texts = [None if isinstance(out, Failed) else out[1] for out in first]
            times, wrong = batch_times(deck, texts)
            jobs1, jobs2 = times[1], times[2]
            batch_attempted = 2 * len(deck)
        metrics["cli.batch.jobs1_s"] = (jobs1, "s")
        metrics["cli.batch.jobs2_s"] = (jobs2, "s")
        metrics["trace.overhead_ratio"] = (replay.wall_s / loop.wall_s, "ratio")
        result["metrics"] = metrics
        result["attempted"] += len(replay.outputs) + batch_attempted
        result["failed"] += len(replay_failures) + wrong
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
