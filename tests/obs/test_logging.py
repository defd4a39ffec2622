"""Unit tests of structured logging: setup idempotence, formats, trace ids."""

from __future__ import annotations

import io
import json
import logging

from repro.obs import tracing
from repro.obs.logging import get_logger, log_event, setup
from repro.obs.tracing import TraceContext


def test_get_logger_prefixes_bare_names():
    assert get_logger("gateway").name == "repro.gateway"
    assert get_logger("repro.cluster").name == "repro.cluster"
    assert get_logger().name == "repro"


def test_setup_is_idempotent():
    setup(stream=io.StringIO())
    root = setup(stream=io.StringIO())
    obs_handlers = [
        h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
    ]
    assert len(obs_handlers) == 1
    assert root.propagate is False


def test_json_mode_emits_ndjson_with_fields():
    stream = io.StringIO()
    setup(level="debug", json_mode=True, stream=stream)
    log_event(get_logger("test"), "info", "thing_happened", count=3, name="x")
    (line,) = stream.getvalue().splitlines()
    payload = json.loads(line)
    assert payload["event"] == "thing_happened"
    assert payload["level"] == "info"
    assert payload["logger"] == "repro.test"
    assert payload["count"] == 3
    assert payload["name"] == "x"
    assert "ts" in payload


def test_json_mode_injects_active_trace_id():
    stream = io.StringIO()
    setup(json_mode=True, stream=stream)
    context = TraceContext.new()
    with tracing.activate(context):
        log_event(get_logger("test"), "info", "traced")
    payload = json.loads(stream.getvalue())
    assert payload["trace_id"] == context.trace_id


def test_text_mode_single_line_with_kv_pairs():
    stream = io.StringIO()
    setup(stream=stream)
    log_event(get_logger("test"), "warning", "watch_out", ticket="t1")
    (line,) = stream.getvalue().splitlines()
    assert "WARNING" in line
    assert "repro.test" in line
    assert "watch_out" in line
    assert "ticket=t1" in line


def test_log_event_accepts_int_and_string_levels():
    stream = io.StringIO()
    setup(level="warning", json_mode=True, stream=stream)
    logger = get_logger("test")
    log_event(logger, "debug", "suppressed")
    log_event(logger, logging.ERROR, "kept_int")
    log_event(logger, "error", "kept_str")
    events = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
    assert events == ["kept_int", "kept_str"]


def test_level_filtering():
    stream = io.StringIO()
    setup(level="error", json_mode=True, stream=stream)
    log_event(get_logger("test"), "info", "quiet")
    assert stream.getvalue() == ""


def test_unconfigured_library_is_silent(capsys):
    # No setup(): the NullHandler swallows records without complaints.
    log_event(get_logger("silent"), "info", "nobody_listens")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""
