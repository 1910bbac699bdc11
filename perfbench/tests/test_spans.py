"""Span recording and self-time arithmetic."""

from __future__ import annotations

import types

import pytest

from perfbench.spans import Span, Tracer, covered_length, self_times


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered_length(0.0, 10.0, [(2.0, 4.0), (2.5, 3.0)]) == 2.0
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(5.0, 6.0, [(0.0, 1.0), (7.0, 9.0)]) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, "item", 0.0, 10.0, None, 1),
        Span(2, "match", 1.0, 4.0, 1, 1),
        Span(3, "dijkstra", 1.5, 3.5, 2, 1),  # grandchild of 1
        Span(4, "moving", 6.0, 7.0, 1, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


class _Layer:
    def work(self, n):
        return n * 2

    def fail(self):
        raise ValueError("boom")

    @classmethod
    def build(cls, n):
        return cls, n


def test_tracer_records_parents_items_and_restores_originals():
    module = types.SimpleNamespace()
    originals = (_Layer.__dict__["work"], _Layer.__dict__["build"])

    def outer(layer, n):
        return layer.work(n) + module.inner(n)

    module.inner = lambda n: n
    tracer = Tracer()
    tracer.patch(_Layer, "work", "layer.work")
    tracer.patch(_Layer, "build", "layer.build")
    tracer.patch(module, "inner", "module.inner")
    wrapped_outer = tracer.wrap(outer, "item", item=True)

    assert wrapped_outer(_Layer(), 3) == 9
    assert _Layer.build(4) == (_Layer, 4)
    by_name = {s.name: s for s in tracer.spans}
    item = by_name["item"]
    assert item.parent is None and item.item == item.span_id
    for name in ("layer.work", "module.inner"):
        assert by_name[name].parent == item.span_id
        assert by_name[name].item == item.span_id
    assert by_name["layer.build"].item is None

    with tracer.paused():
        assert _Layer.__dict__["work"] is originals[0]
        _Layer().work(1)
    assert len(tracer.spans) == 4
    assert _Layer.__dict__["work"] is not originals[0]

    tracer.uninstall()
    assert (_Layer.__dict__["work"], _Layer.__dict__["build"]) == originals
    assert not hasattr(module.inner, "__wrapped__")


def test_tracer_records_a_span_for_a_raising_call_and_notes_the_error():
    seen = []
    tracer = Tracer()
    tracer.patch(
        _Layer, "fail", "layer.fail",
        note=lambda t, sid, args, kwargs, result, error: seen.append(error),
    )
    try:
        with pytest.raises(ValueError):
            _Layer().fail()
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["layer.fail"]
    assert isinstance(seen[0], ValueError)
    calls, seconds = tracer.totals()["layer.fail"]
    assert calls == 1 and seconds >= 0.0
