"""The three workloads: stage inputs, set up, run timed repetitions, check.

Every workload returns an :class:`Outcome` holding all end-to-end metrics
(measured on untraced operations) and all per-layer metrics (measured on
traced operations, which only run with ``--trace 1``).  A layer a workload
does not exercise reports 0 for it.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import repro
from repro.documents.sources import ExplicitSource, SimPdfDirSource
from repro.metrics.bleu import bleu_score

from perfbench import gen, measure
from perfbench.spans import Hooks, LayerTable, Tracer
from perfbench.verify import Tally, count_mismatches, records_from_report

#: Cold starts (or worker spawns) per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Service requests whose documents are scored for ``accuracy_bleu``.
SERVICE_BLEU_SPECS = 20

#: Alternating untraced/traced blocks of a traced ``service`` window.
SERVICE_TRACE_BLOCKS = 6

#: Scale-out corpus: four default 64-document batches per repetition, two per
#: worker, which fills the remote backend's default window of two per worker.
#: With one batch per worker the repetition time swings with whichever
#: worker the host slows down.
SCALEOUT_DOCUMENTS = 256

#: Layers whose self time is part of a ``ParsePipeline.run`` call.
PIPELINE_INNER = ("documents.", "parsers.", "core.", "cache.")

#: Span names that do not belong to a named layer (excluded from coverage).
NOT_LAYERS = ("pipeline.run", "error", "?")

LAYER_METRICS = (
    "documents.simpdf_read_us_per_doc",
    "documents.synth_ms_per_doc",
    "parsers.pymupdf_us_per_doc",
    "parsers.nougat_us_per_doc",
    "core.validate_us_per_doc",
    "core.score_us_per_doc",
    "core.budget_us_per_batch",
    "core.routed_frac",
    "core.train_s",
    "cache.key_us_per_doc",
    "cache.lookup_hit_us",
    "cache.lookup_miss_us",
    "cache.store_us",
    "cache.flush_ms",
    "cache.bytes_written_per_doc",
    "cache.hit_ratio",
    "cache.coalesced",
    "pipeline.report_encode_us_per_doc",
    "pipeline.report_decode_us_per_doc",
    "pipeline.run_overhead_us_per_doc",
    "serve.queue_wait_ms",
    "serve.execute_ms",
    "gateway.submit_rpc_ms",
    "gateway.result_rpc_ms",
    "gateway.bytes_per_request",
    "gateway.rejected",
    "cluster.bytes_per_doc",
    "cluster.doc_payloads_per_doc",
    "cluster.codec_us_per_doc",
    "cluster.reassigned",
    "cluster.efficiency",
    "trace.overhead_frac",
    "trace.coverage",
)


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    #: ``perf_counter`` intervals of the "setup" and "timed" phases.
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)


@dataclass
class Outcome:
    end_to_end: dict[str, float]
    layers: dict[str, float]
    tally: Tally
    record: dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    """One timed operation: a repetition, or a service request."""

    wall: float
    docs: int
    cpu: float = 0.0
    traced: bool = False


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def mean_bleu(pairs: list[tuple[str, str]]) -> float:
    """Mean document BLEU of (output text, ground truth) pairs."""
    return statistics.fmean(bleu_score(text, truth) for text, truth in pairs)


def end_to_end(
    ops: list[Op], setup_s: float, accuracy: float, rss_mb: float
) -> dict[str, float]:
    """End-to-end metrics over untraced operations."""
    timed = [op for op in ops if not op.traced]
    if not timed:
        raise RuntimeError("no untraced operation completed within the run")
    docs = sum(op.docs for op in timed)
    walls_ms = [op.wall * 1e3 for op in timed]
    return {
        "docs_per_s": docs / sum(op.wall for op in timed),
        "request_p50_ms": measure.percentile(walls_ms, 50),
        "request_p90_ms": measure.percentile(walls_ms, 90),
        "cpu_ms_per_doc": 1e3 * sum(op.cpu for op in timed) / docs,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
        "accuracy_bleu": accuracy,
    }


#: End-to-end metrics that the host's speed moves, with the phase whose
#: probe samples adjust each and whether it is a rate (multiplied by the
#: host's slowdown) or a time (divided by it).
HOST_ADJUSTED = {
    "docs_per_s": ("timed", "rate"),
    "request_p50_ms": ("timed", "time"),
    "request_p90_ms": ("timed", "time"),
    "cpu_ms_per_doc": ("timed", "time"),
    "setup_s": ("setup", "time"),
}


def host_adjusted(
    values: dict[str, float], probe: measure.HostProbe, phases: dict[str, tuple[float, float]]
) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics on the reference host, and each phase's slowdown."""
    slowdown = {phase: probe.slowdown(*interval) for phase, interval in phases.items()}
    adjusted = dict(values)
    for name, (phase, kind) in HOST_ADJUSTED.items():
        factor = slowdown[phase]
        adjusted[name] = values[name] * factor if kind == "rate" else values[name] / factor
    return adjusted, slowdown


def layer_metrics(
    ops: list[Op], table: LayerTable | None, **public: float
) -> dict[str, float]:
    """Per-layer metrics from the traced spans plus public program counters.

    Tracing overhead is traced minus untraced median operation time, as a
    share of the untraced median; coverage is the summed self time of the
    named layers per traced operation over the untraced median.
    """
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    traced = [op.wall for op in ops if op.traced]
    untraced = [op.wall for op in ops if not op.traced]
    if table is not None and traced and untraced:
        base = statistics.median(untraced)
        layer_names = [n for n in table.self_s if n not in NOT_LAYERS]
        metrics["trace.overhead_frac"] = (statistics.median(traced) - base) / base
        metrics["trace.coverage"] = table.total_self(layer_names) / len(traced) / base
        traced_docs = sum(op.docs for op in ops if op.traced)
        metrics.update(
            {
                "documents.simpdf_read_us_per_doc": table.per_item_us("documents.simpdf_read"),
                "parsers.pymupdf_us_per_doc": table.per_item_us("parsers.pymupdf"),
                "parsers.nougat_us_per_doc": table.per_item_us("parsers.nougat"),
                "core.validate_us_per_doc": table.per_item_us("core.validate"),
                "core.score_us_per_doc": table.per_item_us("core.score")
                + table.per_item_us("core.score_cls2"),
                "core.budget_us_per_batch": table.per_call_us("core.budget"),
                "cache.key_us_per_doc": table.per_item_us("cache.key"),
                "cache.lookup_hit_us": table.per_call_us("cache.lookup_hit"),
                "cache.lookup_miss_us": table.per_call_us("cache.lookup_miss"),
                "cache.store_us": table.per_call_us("cache.store"),
                "cache.flush_ms": table.per_call_us("cache.flush") / 1e3,
                "pipeline.report_encode_us_per_doc": table.per_item_us(
                    "pipeline.report_encode"
                ),
                "pipeline.report_decode_us_per_doc": table.per_item_us(
                    "pipeline.report_decode"
                ),
                "pipeline.run_overhead_us_per_doc": 1e6
                * table.inner_overhead("pipeline.run", PIPELINE_INNER)
                / traced_docs,
                "cluster.codec_us_per_doc": 1e6
                * table.total_self(["cluster.codec", "cluster.codec_decode"])
                / traced_docs,
            }
        )
    metrics.update(public)
    unknown = set(metrics) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"unknown layer metrics {sorted(unknown)}")
    return metrics


def timed_reps(
    ctx: Context,
    hooks: Hooks,
    execute: Callable[[int], Any],
    check: Callable[[int, Any], None],
    cpu: Callable[[], float] = measure.cpu_seconds,
    docs: Callable[[Any], int] = lambda report: report.n_documents,
) -> list[Op]:
    """Repeat ``execute`` for ``ctx.seconds`` of wall time (checks included).

    With tracing, odd repetitions run with the span hooks installed and even
    ones without, so both see the same host conditions.  A repetition that
    raises is passed to ``check`` as the exception and is not timed.  The
    garbage of the previous repetition and its check is collected before
    the next one starts, so no repetition pays for another's.
    """
    ops: list[Op] = []
    opened = perf_counter()
    deadline = opened + ctx.seconds
    index = 0
    while perf_counter() < deadline or not any(not op.traced for op in ops):
        gc.collect()
        traced = ctx.trace and index % 2 == 1
        if traced:
            hooks.tracer.request = f"rep-{index}"
            hooks.install()
        cpu_before = cpu()
        started = perf_counter()
        try:
            report = execute(index)
        except Exception as exc:  # a failed operation; the run goes on
            traceback.print_exc()
            report = exc
        else:
            wall = perf_counter() - started
            ops.append(Op(wall, docs(report), cpu() - cpu_before, traced))
        finally:
            hooks.remove()
        check(index, report)
        index += 1
    hooks.tracer.request = None
    ctx.phases["timed"] = (opened, perf_counter())
    return ops


def cold_start_seconds(ctx: Context, *args: str) -> float:
    """Median seconds from spawning ``coldstart.py`` to its ready line."""
    opened = perf_counter()
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(ctx.root / "perfbench" / "coldstart.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ctx.root,
        )
        try:
            line = child.stdout.readline()
            samples.append(perf_counter() - started)
        finally:
            child.stdout.close()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"cold start {args} failed: {line!r}, exit {code}")
    ctx.phases["setup"] = (opened, perf_counter())
    return statistics.median(samples)


def check_against(tally: Tally, expected: list, report: Any) -> bool:
    """Count the documents of one repetition; False when it raised."""
    if isinstance(report, Exception):
        tally.add(len(expected), len(expected), type(report).__name__)
        return False
    tally.add(len(expected), count_mismatches(expected, records_from_report(report)))
    return True


# --------------------------------------------------------------------------- #
# campaign: adaparse_ft, serial, cache off, a SimPDF corpus
# --------------------------------------------------------------------------- #
def campaign(ctx: Context) -> Outcome:
    staged = gen.stage_corpus(ctx.seed, ctx.work / "docs")
    tracer = Tracer()
    hooks = Hooks(tracer)
    pipeline = repro.ParsePipeline()
    if ctx.trace:
        hooks.install()
    started = perf_counter()
    engine = pipeline.resolve_parser("adaparse_ft")
    ctx.phases["setup"] = (started, perf_counter())
    setup_s = ctx.phases["setup"][1] - started
    hooks.remove()
    train_table = LayerTable(tracer.spans) if ctx.trace else None
    tracer.reset()

    request = repro.ParseRequest(
        parser="adaparse_ft", source=SimPdfDirSource(staged.directory), backend="serial"
    )
    reference = pipeline.run(request)
    expected = records_from_report(reference)
    truth = {doc.doc_id: doc.ground_truth_text() for doc in staged.documents}
    accuracy = mean_bleu([(r.text, truth[r.doc_id]) for r in reference.results])
    high_quality = engine.config.high_quality_parser
    routed = sum(d.chosen_parser == high_quality for d in reference.decisions)

    tally = Tally()
    ops = timed_reps(
        ctx,
        hooks,
        execute=lambda i: pipeline.run(request),
        check=lambda i, report: check_against(tally, expected, report),
    )
    table = LayerTable(tracer.spans) if ctx.trace else None
    public = {
        "documents.synth_ms_per_doc": 1e3 * staged.synth_seconds / len(staged.documents),
        "core.routed_frac": routed / len(staged.documents),
    }
    if train_table is not None:
        public["core.train_s"] = train_table.self_s["core.train"]
    return Outcome(
        end_to_end(ops, setup_s, accuracy, measure.peak_rss_mb()),
        layer_metrics(ops, table, **public),
        tally,
        {"inputs": staged.record(repeat_share=0.0)},
    )


# --------------------------------------------------------------------------- #
# service: GatewayServer over ParseService, two closed-loop clients
# --------------------------------------------------------------------------- #
@dataclass
class _Served:
    index: int
    spec: str
    wall: float
    traced: bool
    records: list | None = None
    error: str | None = None
    events: dict[str, float] = field(default_factory=dict)
    cache: dict[str, Any] = field(default_factory=dict)
    rpc: tuple[float, float] = (0.0, 0.0)


def wire_bytes(stats: dict[str, Any]) -> int:
    """Bytes both ways on every gateway connection so far."""
    return stats["bytes_in"] + stats["bytes_out"]


def service(ctx: Context) -> Outcome:
    from repro.gateway.client import GatewayError

    plan = gen.service_plan(ctx.seed)
    setup_s = cold_start_seconds(ctx, "service")
    tracer = Tracer()
    hooks = Hooks(tracer)
    served: list[_Served] = []
    lock = threading.Lock()
    cursor = iter(range(len(plan.specs)))
    stop = threading.Event()
    phase = {"block": 0}

    svc = repro.ParseService(
        repro.ParsePipeline(cache=repro.ParseCache()),
        repro.ServiceConfig(backend_options={"n_jobs": 2}),
    )
    gateway = repro.GatewayServer(svc, port=0).start()
    clients = [repro.GatewayClient("127.0.0.1", gateway.port).connect() for _ in range(2)]

    def one_request(client: Any, index: int) -> _Served:
        spec = plan.specs[index]
        block = phase["block"]
        traced = block % 2 == 1

        def rpc(name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, fn, *args, **kwargs) if traced else fn(*args, **kwargs)

        request = repro.ParseRequest(parser="pymupdf", source=spec, cache="readwrite")
        started = perf_counter()
        try:
            ticket = rpc("gateway.submit_rpc", client.submit, request)
            submitted = perf_counter()
            ticket.wait(timeout=60)
            completed = perf_counter()
            payload = rpc("gateway.result_rpc", client.result, ticket, include_text=True)
            fetched = perf_counter()
            report = repro.ParseReport.from_json_dict(payload)
            wall = perf_counter() - started
            events = {event.kind: event.timestamp for event in ticket.events(timeout=5)}
        except Exception as exc:  # refused, lost, timed out or broken: a failed request
            if not isinstance(exc, (GatewayError, TimeoutError)):
                traceback.print_exc()
            wall = perf_counter() - started
            return _Served(index, spec, wall, traced, error=type(exc).__name__)
        if phase["block"] != block:
            traced = None  # straddled a switch: checked, but not timed
        return _Served(
            index,
            spec,
            wall,
            traced,
            records_from_report(report),
            events=events,
            cache=dict(payload.get("cache", {})),
            rpc=(submitted - started, fetched - completed),
        )

    def loop(client: Any) -> None:
        while not stop.is_set():
            with lock:
                index = next(cursor)
            outcome = one_request(client, index)
            with lock:
                served.append(outcome)

    threads = [
        threading.Thread(target=loop, args=(client,), name=f"bench-client-{k}")
        for k, client in enumerate(clients)
    ]
    stats_before = gateway.stats()
    cpu_before = measure.cpu_seconds()
    started = perf_counter()
    for thread in threads:
        thread.start()
    try:
        if ctx.trace:
            # Alternate blocks, so that traced and untraced requests see the
            # same cache warmth and host conditions.
            for block in range(SERVICE_TRACE_BLOCKS):
                if block % 2:
                    hooks.install()
                else:
                    hooks.remove()
                phase["block"] = block
                stop.wait(ctx.seconds / SERVICE_TRACE_BLOCKS)
        else:
            stop.wait(ctx.seconds)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        hooks.remove()
    ctx.phases["timed"] = (started, perf_counter())
    window = ctx.phases["timed"][1] - started
    cpu_used = measure.cpu_seconds() - cpu_before
    stats_after = gateway.stats()
    for client in clients:
        client.close()
    gateway.stop()
    svc.close()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a service client did not finish")

    # References: each distinct spec once, serial, cache off.
    registry = repro.default_registry()
    reference_pipeline = repro.ParsePipeline(registry=registry)
    used = sorted({s.index for s in served})
    first_use: dict[str, int] = {}
    for index in used:
        first_use.setdefault(plan.specs[index], index)
    expected: dict[str, list] = {}
    bleu_pairs: list[tuple[str, str]] = []
    for spec in sorted(first_use, key=first_use.get):
        source = repro.ParseRequest(parser="pymupdf", source=spec).resolve_source()
        docs = list(source.iter_documents())
        report = reference_pipeline.run(
            repro.ParseRequest(parser="pymupdf", source=ExplicitSource(docs), backend="serial")
        )
        expected[spec] = records_from_report(report)
        if len(bleu_pairs) < SERVICE_BLEU_SPECS * gen.SERVICE_DOCS_PER_REQUEST:
            bleu_pairs += [
                (r.text, d.ground_truth_text()) for r, d in zip(report.results, docs)
            ]

    tally = Tally()
    for s in served:
        if s.error is not None:
            tally.add(1, 1, s.error)
        else:
            tally.add(1, int(count_mismatches(expected[s.spec], s.records) > 0))
    docs_per_request = gen.SERVICE_DOCS_PER_REQUEST
    ok = [s for s in served if s.error is None]
    timed = [s for s in ok if s.traced is not None]
    ops = [Op(s.wall, docs_per_request, 0.0, bool(s.traced)) for s in timed]
    untraced = [op for op in ops if not op.traced]
    # Throughput and CPU are over the whole closed-loop window.
    e2e = end_to_end(ops, setup_s, mean_bleu(bleu_pairs), measure.peak_rss_mb())
    e2e["docs_per_s"] = docs_per_request * len(ok) / window
    e2e["cpu_ms_per_doc"] = 1e3 * cpu_used / (docs_per_request * len(served))
    table = LayerTable(tracer.spans) if ctx.trace else None
    hits = sum(s.cache.get("hits", 0) for s in ok)
    looked_up = sum(s.cache.get(k, 0) for s in ok for k in ("hits", "misses", "coalesced"))
    public = {
        "documents.synth_ms_per_doc": (
            table.per_item_us("documents.synth") / 1e3 if table else 0.0
        ),
        "cache.bytes_written_per_doc": sum(s.cache.get("bytes_written", 0) for s in ok)
        / (docs_per_request * len(ok)),
        "cache.hit_ratio": hits / looked_up if looked_up else 0.0,
        "cache.coalesced": float(sum(s.cache.get("coalesced", 0) for s in ok)),
        "serve.queue_wait_ms": 1e3
        * statistics.median(s.events["started"] - s.events["queued"] for s in ok),
        "serve.execute_ms": 1e3
        * statistics.median(s.events["completed"] - s.events["started"] for s in ok),
        "gateway.submit_rpc_ms": 1e3 * statistics.median(s.rpc[0] for s in ok),
        "gateway.result_rpc_ms": 1e3 * statistics.median(s.rpc[1] for s in ok),
        "gateway.bytes_per_request": (wire_bytes(stats_after) - wire_bytes(stats_before))
        / len(served),
        "gateway.rejected": float(stats_after["rejected"] - stats_before["rejected"]),
    }
    repeats = sum(plan.repeats[s.index] for s in served)
    return Outcome(
        e2e,
        layer_metrics(ops, table, **public),
        tally,
        {
            "inputs": {
                "digest": plan.digest,
                "requests": len(served),
                "docs": docs_per_request * len(served),
                "distinct_specs": len(first_use),
                "repeat_share": repeats / len(served),
                "p90_supported": measure.tail_percentile(len(untraced)) >= 90,
            }
        },
    )


# --------------------------------------------------------------------------- #
# scaleout: nougat on the remote backend over two spawned workers
# --------------------------------------------------------------------------- #
class Workers:
    """Two ``repro.cli worker`` daemons spawned from the checkout."""

    def __init__(self, ctx: Context, count: int = 2) -> None:
        self.procs: list[subprocess.Popen] = []
        self.addresses: list[str] = []
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        started = perf_counter()
        for k in range(count):
            self.procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker", "--port", "0"]
                    + ["--name", f"bench-w{k}"],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    text=True,
                    cwd=ctx.root,
                    env=env,
                )
            )
        try:
            for proc in self.procs:
                line = proc.stdout.readline()
                self.addresses.append(json.loads(line)["address"])
        except (ValueError, KeyError):
            self.stop()
            raise RuntimeError("a worker did not print its ready line") from None
        self.spawn_seconds = perf_counter() - started

    def cpu_seconds(self) -> float:
        return sum(measure.proc_cpu_seconds(p.pid) for p in self.procs)

    def peak_rss_mb(self) -> float:
        return sum(measure.proc_peak_rss_mb(p.pid) for p in self.procs)

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=20)
            proc.stdout.close()


def scaleout(ctx: Context) -> Outcome:
    staged = gen.stage_corpus(ctx.seed, ctx.work / "docs", n_documents=SCALEOUT_DOCUMENTS)
    registry = repro.default_registry()
    source = SimPdfDirSource(staged.directory)
    serial_request = repro.ParseRequest(parser="nougat", source=source, backend="serial")
    serial_pipeline = repro.ParsePipeline(registry=registry)
    # Serial docs/s is only needed for cluster.efficiency, a traced metric.
    serial_walls = []
    for _ in range(SETUP_SAMPLES if ctx.trace else 1):
        started = perf_counter()
        reference = serial_pipeline.run(serial_request)
        serial_walls.append(perf_counter() - started)
    serial_docs_per_s = len(staged.documents) / statistics.median(serial_walls)
    expected = records_from_report(reference)
    truth = {doc.doc_id: doc.ground_truth_text() for doc in staged.documents}
    # BLEU costs about as much as parsing; the other batch workloads' share
    # of documents is enough for a steady mean.
    scored = reference.results[: gen.BATCH_DOCUMENTS]
    accuracy = mean_bleu([(r.text, truth[r.doc_id]) for r in scored])

    tracer = Tracer()
    hooks = Hooks(tracer)
    serial_table = None
    if ctx.trace:
        hooks.install()
        serial_pipeline.run(serial_request)
        hooks.remove()
        serial_table = LayerTable(tracer.spans)
        tracer.reset()

    spawns = []
    workers = None
    try:
        opened = perf_counter()
        for _ in range(SETUP_SAMPLES):
            if workers is not None:
                workers.stop()
            workers = Workers(ctx)
            spawns.append(workers.spawn_seconds)
        ctx.phases["setup"] = (opened, perf_counter())
        setup_s = statistics.median(spawns)
        request = repro.ParseRequest(
            parser="nougat",
            source=source,
            backend="remote",
            backend_options={"workers": ",".join(workers.addresses), "worker_cache": "off"},
        )
        pipeline = repro.ParsePipeline(registry=registry)
        tally = Tally()
        # One untimed repetition opens the connections and warms the workers.
        check_against(tally, expected, pipeline.run(request))
        extras: list[dict[str, Any]] = []

        def check(i: int, report: Any) -> None:
            if not check_against(tally, expected, report):
                return
            extra = report.execution.extra
            extras.append(extra)
            if extra.get("cluster_remote_cache_hits", 0):
                tally.add(0, int(extra["cluster_remote_cache_hits"]), "worker_cache_hit")

        ops = timed_reps(
            ctx,
            hooks,
            execute=lambda i: pipeline.run(request),
            check=check,
            cpu=lambda: measure.cpu_seconds() + workers.cpu_seconds(),
        )
        rss_mb = measure.peak_rss_mb() + workers.peak_rss_mb()
    finally:
        if workers is not None:
            workers.stop()

    table = LayerTable(tracer.spans) if ctx.trace else None
    n_docs = len(staged.documents) * len(extras)
    untraced = [op for op in ops if not op.traced]
    remote_docs_per_s = sum(op.docs for op in untraced) / sum(op.wall for op in untraced)

    def extra_sum(key: str) -> float:
        return sum(extra.get(key, 0) for extra in extras)

    public = {
        "documents.synth_ms_per_doc": 1e3 * staged.synth_seconds / len(staged.documents),
        "cluster.bytes_per_doc": (
            extra_sum("cluster_bytes_sent") + extra_sum("cluster_bytes_received")
        )
        / n_docs,
        "cluster.doc_payloads_per_doc": extra_sum("cluster_doc_payloads_sent") / n_docs,
        "cluster.reassigned": float(extra_sum("cluster_shards_reassigned")),
        "cluster.efficiency": remote_docs_per_s / (len(workers.addresses) * serial_docs_per_s),
    }
    if serial_table is not None:
        public["parsers.nougat_us_per_doc"] = serial_table.per_item_us("parsers.nougat")
    return Outcome(
        end_to_end(ops, setup_s, accuracy, rss_mb),
        layer_metrics(ops, table, **public),
        tally,
        {"inputs": staged.record(repeat_share=0.0), "serial_docs_per_s": serial_docs_per_s},
    )


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "campaign": campaign,
    "service": service,
    "scaleout": scaleout,
}
