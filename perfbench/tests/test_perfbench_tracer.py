"""Self-time arithmetic of the benchmark tracer."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.tracer import Span, Tracer, aggregate, self_times, union_length


def _span(name, start, end, parent=None, thread=0):
    return Span(name, start, end, parent=parent, thread=thread)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(1, 3), (2, 5), (7, 8)], 2.5, 7.5) == pytest.approx(3.0)
    assert union_length([], 0, 1) == 0


def test_self_time_of_nested_spans():
    outer = _span("stage", 0.0, 10.0)
    a = _span("a", 1.0, 3.0, outer)
    leaf = _span("leaf", 1.5, 2.0, a)
    b = _span("b", 5.0, 6.0, outer)
    selfs = self_times([outer, a, leaf, b])
    assert selfs[id(outer)] == pytest.approx(7.0)
    assert selfs[id(a)] == pytest.approx(1.5)
    assert selfs[id(leaf)] == pytest.approx(0.5)
    assert selfs[id(b)] == pytest.approx(1.0)


def test_self_time_subtracts_union_of_overlapping_thread_spans():
    stage = _span("stage", 0.0, 10.0, thread=1)
    w1 = _span("work", 1.0, 6.0, stage, thread=2)
    w2 = _span("work", 2.0, 8.0, stage, thread=3)
    agg = aggregate([stage, w1, w2])
    # the children cover [1, 8]: 7 s, although their durations sum to 11 s
    assert agg["stage"]["self_s"] == pytest.approx(3.0)
    assert agg["work"]["s"] == pytest.approx(11.0)  # busy time across threads
    assert agg["work"]["calls"] == 2


def test_recursive_span_is_timed_once():
    outer = _span("f", 0.0, 10.0)
    inner = _span("f", 2.0, 4.0, outer)
    agg = aggregate([outer, inner])
    assert agg["f"]["calls"] == 2
    assert agg["f"]["s"] == pytest.approx(10.0)
    assert agg["f"]["self_s"] == pytest.approx(10.0)


def test_worker_thread_spans_attach_to_root_span():
    tracer = Tracer()

    def work(_):
        with tracer.span("work") as s:
            return s

    with tracer.span("stage") as stage:
        with ThreadPoolExecutor(max_workers=2) as pool:
            spans = list(pool.map(work, range(4)))
    assert all(s.parent is stage for s in spans)
    assert all(s.thread != threading.get_ident() for s in spans)
    agg = aggregate(tracer.take())
    assert agg["work"]["calls"] == 4
    assert 0.0 <= agg["stage"]["self_s"] <= stage.duration
    assert tracer.spans == []


def test_instrument_patches_every_binding_and_restores():
    from tricurves import curves, spectral

    original = spectral.phi_many
    assert curves.phi_many is original
    tracer = Tracer()
    try:
        tracer.instrument(spectral, "phi_many", "spectral.phi_many",
                          lambda r, ids, zs: {"cells": len(zs) * (len(ids.grid) - 1)})
        assert spectral.phi_many is not original
        assert curves.phi_many is spectral.phi_many
        ids = spectral.IdsEstimate(grid=[0.0, 1.0, 2.0], values=[0.0, 0.5, 1.0], n_used=1,
                                   realizations_used=1, support=(0.0, 2.0))
        curves.phi_many(ids, [1j, 2j])
    finally:
        tracer.restore()
    agg = aggregate(tracer.take())
    assert agg["spectral.phi_many"]["cells"] == 4
    assert spectral.phi_many is original and curves.phi_many is original
