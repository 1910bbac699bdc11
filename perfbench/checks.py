"""Output checks, computed by the benchmark apart from the program.

Every function returns a list of problems (empty = pass), so a run can
report all of them at once.  The checks hold the program to properties
the method must have (Eq. 4 and Eq. 5 optimality, partitions that tile
the trajectory, sanitizer guarantees, exactly-once settlement) and to
the serial path it must agree with, never to a copy of earlier output.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
from typing import Iterable, Sequence

#: Floor on the share of matched length on true route edges.  The map
#: matching ablation holds HMM matching to 0.85 at 12 m noise; the dense
#: workloads use 4 m noise, so falling below it means matching broke.
ROUTE_ACCURACY_FLOOR = 0.85
#: Largest trajectory whose Eq. 4 partitions are all enumerated
#: (2^(n-1) candidates); Eq. 5 with a set k is always enumerated.
MAX_ENUMERATED_SEGMENTS = 14
#: Ceiling on the share of ``RoutingFeatureComputer.from_samples`` calls
#: that raise into the silent hop fallback.  The program falls back on
#: none of the thousands of segments these workloads produce; the ceiling
#: leaves room for a rare trip that cannot be matched, and fails a change
#: that makes matching raise and fall back wholesale.
ROUTING_FALLBACK_CEILING = 0.01


def canonical(obj):
    """A comparable, process-independent form of a summary's contents."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return repr(obj)


def summary_dict(summary) -> dict:
    """The ``to_dict`` form of a :class:`TrajectorySummary`."""
    return {
        "trajectory_id": summary.trajectory_id,
        "text": summary.text,
        "partitions": canonical(summary.partitions),
        "degradation": summary.degradation.to_dict(),
    }


def check_tiling(spans: Sequence, n_segments: int, k: int | None) -> list[str]:
    """Spans must tile segments ``0..n-1`` in order; ``k`` fixes their count."""
    problems = []
    expected_start = 0
    for span in spans:
        if span.start_seg != expected_start or span.end_seg < span.start_seg:
            problems.append(
                f"spans {[(s.start_seg, s.end_seg) for s in spans]} do not "
                f"tile {n_segments} segments"
            )
            break
        expected_start = span.end_seg + 1
    else:
        if expected_start != n_segments:
            problems.append(
                f"spans end at segment {expected_start - 1}, not {n_segments - 1}"
            )
    if k is not None and len(spans) != min(k, n_segments):
        problems.append(
            f"k={k} over {n_segments} segments gave {len(spans)} partitions"
        )
    return problems


def all_partitions(n_segments: int, k: int | None) -> Iterable[list]:
    """Every partition of *n_segments* (into exactly *k* parts when set)."""
    from repro.core.partition import spans_from_boundaries

    junctions = range(n_segments - 1)
    sizes = [min(k, n_segments) - 1] if k is not None else range(n_segments)
    for size in sizes:
        for cuts in itertools.combinations(junctions, size):
            yield spans_from_boundaries(n_segments, cuts)


def check_optimal(
    spans: Sequence,
    similarities: Sequence[float],
    boundary_scores: Sequence[float],
    k: int | None,
) -> list[str]:
    """The chosen partition must reach the enumerated optimum potential."""
    from repro.core.partition import partition_potential

    n_segments = len(similarities) + 1
    chosen = partition_potential(spans, similarities, boundary_scores)
    best = min(
        partition_potential(candidate, similarities, boundary_scores)
        for candidate in all_partitions(n_segments, k)
    )
    if chosen > best + 1e-9 * max(1.0, abs(best)):
        return [
            f"partition potential {chosen:.6f} above the optimum {best:.6f} "
            f"(n={n_segments}, k={k})"
        ]
    return []


def partition_inputs(stmaker, raw) -> tuple[object, list[float], list[float]]:
    """Eq. 2's inputs for *raw*: similarities and boundary rewards.

    Rebuilt from the public stages (calibration, feature extraction,
    Eq. 3 similarity, landmark significance), as the paper defines them.
    """
    from repro.core.similarity import segment_similarities
    from repro.features import normalized_vectors

    symbolic = stmaker.calibrator.calibrate(raw)
    features = stmaker.pipeline.extract(raw, symbolic)
    vectors = normalized_vectors(features, stmaker.registry)
    weights = [stmaker.config.weight(key) for key in stmaker.registry.keys()]
    similarities = segment_similarities(vectors.tolist(), weights)
    boundary = [
        stmaker.config.ca * stmaker.landmarks.get(symbolic[i + 1].landmark).significance
        for i in range(symbolic.segment_count - 1)
    ]
    return symbolic, similarities, boundary


def check_not_degraded(summaries: Sequence) -> list[str]:
    """No summary may take a fallback: none does on these workloads.

    A degraded summary is cheaper than a full one, so a change that made
    a stage fail and fall back would otherwise read as a speed-up.
    """
    return [
        f"summary of {s.trajectory_id} degraded in {s.degradation.stages()}"
        for s in summaries if s.degradation.degraded
    ]


def check_summary_partition(stmaker, raw, summary, k: int | None) -> list[str]:
    """No fallback, tiling, partition count and optimality of one summary."""
    if summary.degradation.degraded:
        return check_not_degraded([summary])
    symbolic, similarities, boundary = partition_inputs(stmaker, raw)
    spans = [p.span for p in summary.partitions]
    problems = check_tiling(spans, symbolic.segment_count, k)
    if problems or symbolic.segment_count < 2:
        return problems
    if k is None and symbolic.segment_count > MAX_ENUMERATED_SEGMENTS:
        return []
    return check_optimal(spans, similarities, boundary, k)


def check_sanitized(
    report, expected_duplicates: int, expected_glitches: int,
    cleaned_points: Sequence, max_speed_kmh: float,
) -> list[str]:
    """The sanitizer counts every planted fault and leaves no impossible step."""
    from repro.geo import haversine_m

    problems = []
    if report.dropped_duplicates != expected_duplicates:
        problems.append(
            f"{expected_duplicates} duplicates expected, "
            f"{report.dropped_duplicates} counted"
        )
    if report.dropped_teleports != expected_glitches:
        problems.append(
            f"{expected_glitches} glitches expected, "
            f"{report.dropped_teleports} counted"
        )
    for a, b in zip(cleaned_points, cleaned_points[1:]):
        dt = b.t - a.t
        speed = math.inf if dt <= 0.0 else haversine_m(a.point, b.point) / dt * 3.6
        if speed > max_speed_kmh:
            problems.append(
                f"cleaned step at t={b.t:.0f}s moves at {speed:.0f} km/h"
            )
            break
    return problems


def check_settled(handles: Sequence, expected_items: Sequence[int]) -> list[str]:
    """Every request resolved once, with every item summarized."""
    problems = []
    ids = [h.request_id for h in handles]
    if len(set(ids)) != len(ids):
        problems.append("request ids repeat")
    for handle, n_items in zip(handles, expected_items):
        if not handle.done:
            problems.append(f"{handle.request_id} never settled")
            continue
        error = handle.exception(timeout=0)
        if error is not None:
            problems.append(f"{handle.request_id} failed: {error!r}")
            continue
        result = handle.result(timeout=0)
        if result.ok_count != n_items or result.quarantined_count:
            problems.append(
                f"{handle.request_id}: {result.ok_count}/{n_items} summarized, "
                f"{result.quarantined_count} quarantined"
            )
    return problems


def check_same_summaries(served: Sequence, reference: Sequence) -> list[str]:
    """Served summaries must equal the serial ones, item for item."""
    if len(served) != len(reference):
        return [f"{len(served)} summaries served for {len(reference)} items"]
    problems = []
    for got, want in zip(served, reference):
        if summary_dict(got) != summary_dict(want):
            problems.append(
                f"served summary of {got.trajectory_id} differs from the "
                f"serial summary of {want.trajectory_id}"
            )
    return problems


def on_route(match, network, edges: set[int]) -> tuple[float, float]:
    """(length on *edges*, matched length) of one map-matching result."""
    on = total = 0.0
    for edge, travelled in match.edge_traversals(network):
        total += travelled
        if edge.edge_id in edges:
            on += travelled
    return on, total


def check_route_accuracy(on: float, total: float, floor: float) -> list[str]:
    share = on / total if total > 0.0 else 0.0
    if share < floor:
        return [f"map matching put {share:.3f} of length on route, floor {floor}"]
    return []


def check_routing_fallbacks(fallbacks: int, calls: int, ceiling: float) -> list[str]:
    """Routing features may fall back to hop features on few segments only."""
    if calls == 0:
        return ["routing features were never computed from samples"]
    if fallbacks > ceiling * calls:
        return [
            f"{fallbacks} of {calls} segments fell back to hop features, "
            f"ceiling {ceiling:.0%}"
        ]
    return []
