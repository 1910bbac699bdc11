"""Where the traced run wraps the program, and what it derives from it.

Each entry of :func:`install` wraps one public call of a ``repro`` layer
(the span name's first word is the layer); ``STMaker.summarize_many``
marks a request on every path and ``STMaker.summarize`` an item.  One
private hook is wrapped because no public call marks the event:
``repro.serving.supervisor._new_pool`` is the only place a process pool
starts.
"""

from __future__ import annotations

from perfbench import checks
from perfbench.spans import Tracer


def _note_item(tracer: Tracer, span_id, args, kwargs, result, error) -> None:
    tracer.item_tags[span_id] = args[1].trajectory_id


def _note_sanitize(tracer: Tracer, span_id, args, kwargs, result, error) -> None:
    if result is not None:
        tracer.count("trajectory.sanitize.dropped_points", result[1].dropped_total)


def _note_match(tracer: Tracer, span_id, args, kwargs, result, error) -> None:
    tracer.count("mapmatch.match.samples", len(args[1]))
    if error is not None:
        tracer.count("mapmatch.errors")
    else:
        tracer.keep(result)


def _note_dijkstra(tracer: Tracer, span_id, args, kwargs, result, error) -> None:
    if result is not None:
        tracer.count("roadnet.dijkstra.settled_nodes", len(result))


class RoutingFallbacks:
    """Counts ``RoutingFeatureComputer.from_samples`` calls and fallbacks.

    A fallback is a call raising one of the errors that
    ``FeaturePipeline._segment_routing`` swallows before answering with
    hop features, so it never shows in a summary's degradation report.
    Installed for a whole run, traced or not: the count feeds a check.
    """

    def __init__(self) -> None:
        from repro.exceptions import FeatureError, MapMatchError
        from repro.features.routing import RoutingFeatureComputer

        self.calls = self.fallbacks = 0
        self._raw = raw = RoutingFeatureComputer.__dict__["from_samples"]
        counter = self

        def from_samples(self, *args, **kwargs):
            counter.calls += 1
            try:
                return raw(self, *args, **kwargs)
            except (MapMatchError, FeatureError):
                counter.fallbacks += 1
                raise

        RoutingFeatureComputer.from_samples = from_samples

    def uninstall(self) -> None:
        from repro.features.routing import RoutingFeatureComputer

        RoutingFeatureComputer.from_samples = self._raw


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _note_pool(tracer: Tracer, span_id, args, kwargs, result, error) -> None:
    if result is None:
        return
    tracer.count("serving.pools_started")
    pool = result
    shutdown = pool.shutdown

    def shutdown_reading_rss(*a, **kw):
        # Workers are alive until shutdown joins them; their peak RSS is
        # read here, from the parent, because they run no benchmark code.
        for process in list(getattr(pool, "_processes", {}).values()):
            tracer.count_max("serving.worker_rss_peak_mb", _vm_hwm_mb(process.pid))
        return shutdown(*a, **kw)

    pool.shutdown = shutdown_reading_rss


def install(tracer: Tracer, world_module) -> None:
    """Wrap every layer call the per-layer metrics are built from."""
    import repro.artifact
    import repro.core.summarizer as summarizer
    import repro.mapmatch.hmm as hmm
    import repro.serving.supervisor as supervisor
    from repro.calibration import AnchorCalibrator
    from repro.core.selection import FeatureSelector
    from repro.features.extraction import FeaturePipeline
    from repro.features.moving import MovingFeatureExtractor
    from repro.features.routing import RoutingFeatureComputer
    from repro.routes.popular import PopularRouteMiner

    STMaker = summarizer.STMaker
    tracer.patch(STMaker, "summarize_many", "request")
    tracer.patch(STMaker, "summarize", "item", item=True, note=_note_item)
    tracer.patch(STMaker, "train_calibrated", "core.train")
    tracer.patch(STMaker, "partition", "core.partition")
    tracer.patch(summarizer, "partition_sentence", "core.realize")
    tracer.patch(summarizer, "summary_text", "core.realize")
    tracer.patch(summarizer, "sanitize_trajectory", "trajectory.sanitize",
                 note=_note_sanitize)
    tracer.patch(FeatureSelector, "assess", "core.select")
    tracer.patch(AnchorCalibrator, "calibrate", "calibration.calibrate")
    tracer.patch(hmm.HMMMapMatcher, "match", "mapmatch.match", note=_note_match)
    tracer.patch(hmm, "candidates_for_point", "mapmatch.candidates")
    tracer.patch(hmm, "dijkstra_all", "roadnet.dijkstra", note=_note_dijkstra)
    tracer.patch(FeaturePipeline, "extract", "features.extract")
    tracer.patch(FeaturePipeline, "hop_features", "features.hop")
    tracer.patch(RoutingFeatureComputer, "from_samples", "features.routing")
    tracer.patch(MovingFeatureExtractor, "extract", "features.moving")
    tracer.patch(PopularRouteMiner, "popular_route", "routes.popular_route")
    tracer.patch(world_module, "build_landmarks", "landmarks.build")
    tracer.patch(repro.artifact, "ensure_artifact", "artifact.publish")
    tracer.patch(supervisor, "_new_pool", "serving.pool", note=_note_pool)


def route_accuracy(tracer: Tracer, network, truth: dict[str, set[int]]) -> float:
    """Share of matched travelled length on the true route's edges."""
    on = total = 0.0
    for item, result in tracer.kept:
        edges = truth.get(tracer.item_tags.get(item))
        if edges is not None:
            a, b = checks.on_route(result, network, edges)
            on += a
            total += b
    return on / total if total > 0.0 else 0.0


def truth_edges(network, trip) -> set[int]:
    """Edge ids of a simulated trip's ground-truth route."""
    out = set()
    for u, v in zip(trip.route_nodes, trip.route_nodes[1:]):
        edge = network.edge_between(u, v)
        if edge is not None:
            out.add(edge.edge_id)
    return out


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer costs of one traced set-up, in ms."""
    totals = tracer.totals()

    def ms(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] * 1000.0

    return {
        "landmarks.build.ms": ms("landmarks.build"),
        "core.train.ms": ms("core.train"),
        "artifact.publish.ms": ms("artifact.publish"),
    }


def serving_metrics(tracer: Tracer, items: int, requests: int) -> dict[str, float]:
    """Per-layer costs of a traced measured phase, per item or request."""
    inclusive = tracer.totals()
    own = tracer.totals(self_time=True)
    counts = tracer.counts
    per_item = 1.0 / max(items, 1)

    def ms(name: str, table=inclusive) -> float:
        return table.get(name, (0, 0.0))[1] * 1000.0 * per_item

    def calls(name: str) -> float:
        return inclusive.get(name, (0, 0.0))[0] * per_item

    dijkstra_calls = inclusive.get("roadnet.dijkstra", (0, 0.0))[0]
    return {
        "trajectory.sanitize.ms": ms("trajectory.sanitize"),
        "trajectory.sanitize.dropped_points":
            counts["trajectory.sanitize.dropped_points"] * per_item,
        "calibration.calibrate.ms": ms("calibration.calibrate"),
        "calibration.calibrate.calls": calls("calibration.calibrate"),
        "mapmatch.match.ms": ms("mapmatch.match"),
        "mapmatch.match.calls": calls("mapmatch.match"),
        "mapmatch.match.samples": counts["mapmatch.match.samples"] * per_item,
        "mapmatch.errors": float(counts["mapmatch.errors"]),
        "mapmatch.candidates.ms": ms("mapmatch.candidates"),
        "mapmatch.candidates.calls": calls("mapmatch.candidates"),
        "roadnet.dijkstra.ms": ms("roadnet.dijkstra"),
        "roadnet.dijkstra.calls": calls("roadnet.dijkstra"),
        "roadnet.dijkstra.settled_nodes": (
            counts["roadnet.dijkstra.settled_nodes"] / dijkstra_calls
            if dijkstra_calls else 0.0
        ),
        "features.extract.ms": ms("features.extract", own),
        "features.moving.ms": ms("features.moving"),
        "features.hop.calls": calls("features.hop"),
        "features.hop.ms": ms("features.hop"),
        "core.partition.ms": ms("core.partition"),
        "core.select.ms": ms("core.select"),
        "core.realize.ms": ms("core.realize"),
        "routes.popular_route.calls": calls("routes.popular_route"),
        "routes.popular_route.ms": ms("routes.popular_route"),
        "serving.pools_started": counts["serving.pools_started"] / max(requests, 1),
        "serving.worker_rss_peak_mb": float(counts["serving.worker_rss_peak_mb"]),
    }

