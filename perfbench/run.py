#!/usr/bin/env python3
"""Run one STMaker benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload batch-dense --seed 1 --seconds 25 --trace 0

Inputs are generated from ``--seed``; the program is imported from the
checkout's ``src/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Progress and check failures go to standard error.
Spans of a traced run are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
#: Fewer request latencies than this leave fewer than ten beyond p95.
P95_MIN_SAMPLES = 200

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "rss_peak_mb": "MB",
}

PER_LAYER_UNITS = {
    "trajectory.sanitize.ms": "ms/item",
    "trajectory.sanitize.dropped_points": "count/item",
    "calibration.calibrate.ms": "ms/item",
    "calibration.calibrate.calls": "count/item",
    "mapmatch.match.ms": "ms/item",
    "mapmatch.match.calls": "count/item",
    "mapmatch.match.samples": "count/item",
    "mapmatch.errors": "count",
    "mapmatch.candidates.ms": "ms/item",
    "mapmatch.candidates.calls": "count/item",
    "mapmatch.route_accuracy": "ratio",
    "roadnet.dijkstra.ms": "ms/item",
    "roadnet.dijkstra.calls": "count/item",
    "roadnet.dijkstra.settled_nodes": "count/call",
    "features.extract.ms": "ms/item",
    "features.moving.ms": "ms/item",
    "features.hop.calls": "count/item",
    "features.hop.ms": "ms/item",
    "features.routing_fallbacks": "count",
    "core.partition.ms": "ms/item",
    "core.select.ms": "ms/item",
    "core.realize.ms": "ms/item",
    "core.train.ms": "ms",
    "routes.popular_route.calls": "count/item",
    "routes.popular_route.ms": "ms/item",
    "landmarks.build.ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.service_ms": "ms",
    "server.cache.route_hit_ratio": "ratio",
    "server.cache.anchor_hit_ratio": "ratio",
    "serving.request_overhead_ms": "ms",
    "serving.pools_started": "count/request",
    "serving.worker_rss_peak_mb": "MB",
    "artifact.loads": "count/request",
    "artifact.publish.ms": "ms",
    "loadgen.lag_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program sources under {ROOT / 'src'}; run from a source checkout")
        sys.exit(2)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def p95(values: list[float]) -> float:
    """The 95th percentile, linear between order statistics."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _busy_s(phase) -> float:
    """Time the program spent serving the phase's requests."""
    return sum(r.service_s for r in phase.requests)


def _cache_counts(server) -> tuple[int, int, int, int]:
    if server is None:
        return (0, 0, 0, 0)
    stats = server.caches.stats()
    r, a = stats["routes"], stats["anchors"]
    return (r["hits"], r["misses"], a["hits"], a["misses"])


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _request_overhead_ms(phase, workers: int) -> float:
    """Median of service time minus the item execution the items report.

    Items run on up to *workers* workers at once, so their summed
    execution time is divided by the workers the request could use.
    """
    return statistics.median(
        (r.service_s - r.exec_s / max(1, min(workers, r.items))) * 1000.0
        for r in phase.requests
    )


def end_to_end(phase, setup_times: list[float], window: int | None) -> dict[str, float]:
    latencies_ms = [r.latency_s * 1000.0 for r in phase.requests]
    # Request latency is logged but not gated: the host moves it by more
    # than any bound allows (perfbench/README.md, "Steadiness and bounds").
    tail = "" if len(latencies_ms) >= P95_MIN_SAMPLES else ", too few for a tail"
    log(
        f"request p50 {statistics.median(latencies_ms):.1f} ms, p95 "
        f"{p95(latencies_ms):.1f} ms over {len(latencies_ms)} requests{tail}"
    )
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": phase.items_per_s(window),
        "cpu_ms_per_item": phase.cpu_s * 1000.0 / phase.items,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    from perfbench import checks, layers, world
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    started = time.perf_counter()
    inputs = world.generate_inputs(seed)
    workload = WORKLOADS[workload_name](inputs, seed, trace)
    log(f"{workload_name}: inputs simulated in {time.perf_counter() - started:.2f} s")

    tracer = Tracer() if trace else None
    setup_times = []
    if trace:
        # One traced set-up feeds the set-up layers; its time is not reported.
        layers.install(tracer, world)
        state = workload.setup()
        tracer.uninstall()
        setup_layers = layers.setup_metrics(tracer)
    else:
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - t0)
            if repeat < SETUP_REPEATS - 1:
                workload.release(state)
    server = workload.server(state)
    fallbacks = layers.RoutingFallbacks()
    try:
        workload.warm_up(state)
        if not trace:
            phases = [workload.measure(state, seconds)]
        else:
            from repro.obs import disable_metrics, enable_metrics

            plain = workload.measure(state, seconds / 2.0)
            before = _cache_counts(server)
            registry = enable_metrics()
            tracer.reset()
            layers.install(tracer, world)
            try:
                traced = workload.measure(state, seconds / 2.0, tracer.paused)
            finally:
                tracer.uninstall()
                disable_metrics()
            after = _cache_counts(server)
            phases = [plain, traced]
        measured_s = time.perf_counter() - started
        problems = []
        for phase in phases:
            problems += workload.check(state, phase)
        # On serve-process the segments counted are those of the serial
        # references the check computes in this process.
        problems += checks.check_routing_fallbacks(
            fallbacks.fallbacks, fallbacks.calls, checks.ROUTING_FALLBACK_CEILING
        )
        failed = sum(workload.failures(phase) for phase in phases)
        attempted = sum(r.items for phase in phases for r in phase.requests)
    finally:
        fallbacks.uninstall()
        if server is not None:
            server.stop()
    for problem in problems[:20]:
        log(f"CHECK FAILED: {problem}")
    log(
        f"{workload_name}: {attempted} items, {len(problems)} check failures, "
        f"run {measured_s:.1f} s + checks {time.perf_counter() - started - measured_s:.1f} s"
    )

    if not trace:
        values = end_to_end(phases[0], setup_times, workload.window)
        units = END_TO_END_UNITS
    else:
        requests = len(traced.requests)
        values = dict(setup_layers)
        values.update(layers.serving_metrics(tracer, traced.items, requests))
        lags = [lag * 1000.0 for lag in traced.lags_s]
        values.update({
            "mapmatch.route_accuracy": layers.route_accuracy(
                tracer, inputs.network, workload.truth
            ),
            "server.queue_wait_ms": statistics.median(
                r.queue_wait_s * 1000.0 for r in traced.requests
            ) if server else 0.0,
            "server.service_ms": statistics.median(
                r.service_s * 1000.0 for r in traced.requests
            ) if server else 0.0,
            "server.cache.route_hit_ratio": _ratio(after[0] - before[0], after[1] - before[1]),
            "server.cache.anchor_hit_ratio": _ratio(after[2] - before[2], after[3] - before[3]),
            "serving.request_overhead_ms": _request_overhead_ms(
                traced, workload.workers
            ),
            "artifact.loads": registry.counter("artifact.loads").value / max(requests, 1),
            "features.routing_fallbacks": fallbacks.fallbacks,
            "loadgen.lag_ms": p95(lags),
            "trace.overhead_ratio": (
                (_busy_s(traced) / traced.items) / (_busy_s(plain) / plain.items)
            ),
        })
        units = PER_LAYER_UNITS
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload_name}-{seed}.json")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def _stop_helper_processes() -> None:
    """Stop the forkserver and resource tracker multiprocessing started."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch-dense", "serve-sparse", "serve-process"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    out_dir = ROOT / ".perfbench"
    scratch = out_dir / f"tmp-{os.getpid()}"
    # The program's artifacts and multiprocessing's sockets go under the
    # temp directory: keep it inside the checkout.  Registered before
    # multiprocessing is imported, so it runs after its exit handlers.
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    _use_checkout_sources()
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        _stop_helper_processes()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
