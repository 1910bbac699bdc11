"""Each output check must pass a right output and reject a planted wrong one."""

from __future__ import annotations

import dataclasses
import itertools
import types

import numpy as np
import pytest

from perfbench import checks
from perfbench.workloads import SPARSE_DUPLICATES, SPARSE_GLITCHES, _plant_faults
from repro.core.partition import optimal_k_partition, optimal_partition
from repro.core.types import PartitionSpan, PartitionSummary, TrajectorySummary
from repro.geo import GeoPoint
from repro.resilience import DegradationEvent, DegradationReport
from repro.trajectory import RawTrajectory, SanitizationReport, TrajectoryPoint
from repro.trajectory import SanitizerConfig, sanitize_trajectory

SIMS = [0.9, 0.2, 0.8, 0.7, 0.1, 0.95]
BOUNDARY = [0.3, 0.6, 0.2, 0.4, 0.5, 0.1]


def _shift_first_cut(spans):
    """Move the first partition boundary one segment to the right."""
    first, second = spans[0], spans[1]
    return [
        PartitionSpan(first.start_seg, first.end_seg + 1),
        PartitionSpan(second.start_seg + 1, second.end_seg),
        *spans[2:],
    ]


@pytest.mark.parametrize("k", [None, 3])
def test_optimality_accepts_the_dp_and_rejects_a_shifted_boundary(k):
    spans = (
        optimal_partition(SIMS, BOUNDARY) if k is None
        else optimal_k_partition(SIMS, BOUNDARY, k)
    )
    assert checks.check_optimal(spans, SIMS, BOUNDARY, k) == []
    assert spans[1].segment_count > 1
    assert checks.check_optimal(_shift_first_cut(spans), SIMS, BOUNDARY, k)


def test_enumeration_covers_every_partition():
    n = 6
    assert len(list(checks.all_partitions(n, None))) == 2 ** (n - 1)
    assert len(list(checks.all_partitions(n, 3))) == len(
        list(itertools.combinations(range(n - 1), 2))
    )
    assert len(list(checks.all_partitions(2, 3))) == 1


def test_tiling_rejects_gaps_overruns_and_wrong_counts():
    good = [PartitionSpan(0, 1), PartitionSpan(2, 4), PartitionSpan(5, 6)]
    assert checks.check_tiling(good, 7, 3) == []
    assert checks.check_tiling(good, 7, None) == []
    assert checks.check_tiling(good, 8, None)
    assert checks.check_tiling([PartitionSpan(0, 1), PartitionSpan(3, 6)], 7, None)
    assert checks.check_tiling(good, 7, 2)
    assert checks.check_tiling([PartitionSpan(0, 0), PartitionSpan(1, 1)], 2, 3) == []
    assert checks.check_tiling([PartitionSpan(0, 1)], 2, 3)


def _summary(tid: str, sentence: str) -> TrajectorySummary:
    part = PartitionSummary(PartitionSpan(0, 1), "A", "B", [], [], sentence)
    return TrajectorySummary(tid, sentence, [part])


def test_same_summaries_rejects_a_swap():
    a, b = _summary("t1", "From A to B."), _summary("t2", "From B to C.")
    assert checks.check_same_summaries([a, b], [_summary("t1", "From A to B."),
                                                _summary("t2", "From B to C.")]) == []
    assert checks.check_same_summaries([b, a], [a, b])
    assert checks.check_same_summaries([a], [a, b])


def test_degraded_summaries_are_rejected():
    pristine = _summary("t1", "From A to B.")
    degraded = dataclasses.replace(
        _summary("t2", "From B to C."),
        degradation=DegradationReport([DegradationEvent(
            "extract", "moving_features_only", "MapMatchError: no route"
        )]),
    )
    assert checks.check_not_degraded([pristine]) == []
    assert checks.check_not_degraded([pristine, degraded])
    # The partition check does not skip a degraded summary either.
    assert checks.check_summary_partition(None, None, degraded, 2)


def test_routing_fallbacks_above_the_ceiling_are_rejected():
    assert checks.check_routing_fallbacks(0, 500, 0.01) == []
    assert checks.check_routing_fallbacks(5, 500, 0.01) == []
    assert checks.check_routing_fallbacks(6, 500, 0.01)
    assert checks.check_routing_fallbacks(500, 500, 0.01)
    assert checks.check_routing_fallbacks(0, 0, 0.01)


def test_on_route_sums_length_on_the_given_edges():
    edge = types.SimpleNamespace
    match = types.SimpleNamespace(edge_traversals=lambda network: [
        (edge(edge_id=1), 30.0), (edge(edge_id=2), 50.0), (edge(edge_id=1), 20.0),
    ])
    assert checks.on_route(match, None, {1}) == (50.0, 100.0)
    assert checks.on_route(match, None, set()) == (0.0, 100.0)


def _trajectory(n: int = 20) -> RawTrajectory:
    return RawTrajectory(
        [TrajectoryPoint(GeoPoint(39.9 + 1e-4 * i, 116.4), 30.0 * i) for i in range(n)],
        "t",
    )


def test_sanitization_check_rejects_an_uncounted_duplicate_and_a_kept_jump():
    planted = _plant_faults(_trajectory(), np.random.default_rng(3))
    limit = SanitizerConfig().max_speed_kmh
    clean, report = sanitize_trajectory(planted)
    assert checks.check_sanitized(
        report, SPARSE_DUPLICATES, SPARSE_GLITCHES, clean.points, limit
    ) == []
    undercounted = SanitizationReport(
        total=report.total, kept=report.kept,
        dropped_duplicates=report.dropped_duplicates - 1,
        dropped_teleports=report.dropped_teleports,
    )
    assert checks.check_sanitized(
        undercounted, SPARSE_DUPLICATES, SPARSE_GLITCHES, clean.points, limit
    )
    assert checks.check_sanitized(
        report, SPARSE_DUPLICATES, SPARSE_GLITCHES, planted.points, limit
    )


def _handle(request_id, n_items, *, done=True, error=None, ok=None, quarantined=0):
    result = types.SimpleNamespace(
        ok_count=n_items if ok is None else ok, quarantined_count=quarantined
    )
    return types.SimpleNamespace(
        request_id=request_id, done=done,
        exception=lambda timeout=None: error,
        result=lambda timeout=None: result,
    )


def test_settled_rejects_lost_failed_partial_and_repeated_requests():
    assert checks.check_settled([_handle("r1", 2), _handle("r2", 1)], [2, 1]) == []
    assert checks.check_settled([_handle("r1", 2, done=False)], [2])
    assert checks.check_settled([_handle("r1", 2, error=RuntimeError("x"))], [2])
    assert checks.check_settled([_handle("r1", 2, ok=1, quarantined=1)], [2])
    assert checks.check_settled([_handle("r1", 1), _handle("r1", 1)], [1, 1])


def test_route_accuracy_floor():
    assert checks.check_route_accuracy(90.0, 100.0, 0.85) == []
    assert checks.check_route_accuracy(80.0, 100.0, 0.85)
    assert checks.check_route_accuracy(0.0, 0.0, 0.85)
