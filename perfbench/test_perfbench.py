"""Tests of the benchmark's own helpers (not of the program it measures)."""

from __future__ import annotations

import json

import pytest

from perfbench import gen, measure, verify
from perfbench.spans import Hooks, LayerTable, Span, Tracer, self_times


@pytest.mark.parametrize(
    ("n_samples", "expected"),
    [(200, 95.0), (199, 94.0), (100, 90.0), (1000, 99.0), (20, 50.0), (10, 0.0), (3, 0.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n_samples, expected):
    assert measure.tail_percentile(n_samples) == expected


def test_slowdown_weighs_samples_by_how_busy_their_cpu_was():
    ref = measure.PROBE_REFERENCE_S
    # A busy CPU running at half speed beside an idle one at full speed.
    samples = [(float(k), ref * 2 if k % 2 else ref, 1.0 if k % 2 else 0.0) for k in range(10)]
    assert measure.slowdown(samples, 0.0, 9.0) == pytest.approx(2.0)
    # A phase too short for its own samples borrows the nearest ones.
    assert measure.slowdown(samples, 4.4, 4.6) == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        measure.slowdown(samples[:2], 0.0, 9.0)


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert measure.percentile(values, 50) == pytest.approx(50.5)
    assert measure.percentile(values, 90) == pytest.approx(90.1)
    assert measure.percentile([7.0], 95) == 7.0


def _span(name, start, end, parent=-1, request=None):
    span = Span(name, start, parent, request)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
        _span("c", 7.0, 8.0, parent=0),
        _span("c.inner", 7.2, 7.7, parent=3),
        _span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)
    assert own[3] == pytest.approx(0.5)
    assert own[1] == pytest.approx(2.0)


def test_layer_table_overhead_is_run_wall_minus_inner_self_time():
    spans = [
        _span("pipeline.run", 0.0, 10.0, request="r1"),
        _span("cache.key", 1.0, 4.0, parent=0, request="r1"),
        _span("parsers.pymupdf", 5.0, 6.0, parent=0, request="r1"),
        _span("gateway.submit_rpc", 20.0, 21.0, request="r1"),
    ]
    table = LayerTable(spans)
    assert table.inner_overhead("pipeline.run", ("cache.", "parsers.")) == pytest.approx(6.0)
    assert table.per_call_us("cache.key") == pytest.approx(3e6)


def test_tracer_nests_per_thread_and_hooks_are_removed():
    from repro.cache import cache as cache_module

    original = cache_module.ParseCache.lookup
    tracer = Tracer()
    hooks = Hooks(tracer)
    hooks.install()
    try:
        assert cache_module.ParseCache.lookup is not original
        store = cache_module.ParseCache()
        outer = tracer.begin("outer")
        assert store.lookup("missing-key") is None
        tracer.end(outer)
    finally:
        hooks.remove()
    assert cache_module.ParseCache.lookup is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("cache.lookup_miss", 0)]


def test_same_seed_gives_the_same_inputs_digest(tmp_path):
    first = gen.stage_corpus(5, tmp_path / "a", n_documents=3)
    again = gen.stage_corpus(5, tmp_path / "b", n_documents=3)
    other = gen.stage_corpus(6, tmp_path / "c", n_documents=3)
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert gen.service_plan(9).digest == gen.service_plan(9).digest
    assert gen.service_plan(9).digest != gen.service_plan(10).digest


def test_service_plan_repeats_about_half():
    plan = gen.service_plan(3)
    share = sum(plan.repeats) / len(plan.repeats)
    assert 0.45 < share < 0.55
    assert len(set(plan.specs)) == len(plan.specs) - sum(plan.repeats)


def test_a_flipped_output_byte_is_caught():
    import repro

    report = repro.ParsePipeline().run(
        repro.ParseRequest(
            parser="pymupdf", source="synthetic:2?seed=3&min_pages=1&max_pages=2"
        )
    )
    expected = verify.records_from_report(report)
    payload = json.loads(json.dumps(report.to_json_dict(include_text=True)))
    assert verify.count_mismatches(expected, verify.records_from_json(payload)) == 0

    text = payload["results"][1]["page_texts"][0]
    flipped = chr(ord(text[3]) ^ 1)
    payload["results"][1]["page_texts"][0] = text[:3] + flipped + text[4:]
    assert verify.count_mismatches(expected, verify.records_from_json(payload)) == 1

    payload["results"].pop()
    assert verify.count_mismatches(expected, verify.records_from_json(payload)) == 1


def test_tally_counts_failures_against_attempts():
    tally = verify.Tally()
    tally.add(10)
    tally.add(5, 2, "rejected")
    assert (tally.attempted, tally.failed) == (15, 2)
    assert tally.failed_share == pytest.approx(2 / 15)
    assert tally.reasons == {"rejected": 2}
