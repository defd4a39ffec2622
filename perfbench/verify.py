"""Output checks: every repetition against an in-process reference.

The reference is the same inputs through ``ParsePipeline`` on the serial
backend with the cache off.  A document's output is compared as canonical
bytes of its page texts, usage, success flag, error and routing decision,
so a single flipped byte anywhere in them is a failure.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

_RESULT_KEYS = ("doc_id", "parser_name", "page_texts", "usage", "succeeded", "error")
_DECISION_KEYS = ("doc_id", "chosen_parser", "stage", "predicted_improvement", "doc_type")

#: One document's output: (doc id, canonical bytes).
Record = tuple[str, bytes]


def _canonical(result: Mapping[str, Any], decision: Mapping[str, Any] | None) -> bytes:
    payload = {
        "result": {key: result[key] for key in _RESULT_KEYS},
        "decision": None,
    }
    if decision is not None:
        payload["decision"] = {key: decision[key] for key in _DECISION_KEYS}
    return json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")


def records_from_json(report: Mapping[str, Any]) -> list[Record]:
    """Records from a report's JSON form (``include_text=True``)."""
    decisions = {d["doc_id"]: d for d in report.get("decisions", [])}
    return [
        (entry["doc_id"], _canonical(entry, decisions.get(entry["doc_id"])))
        for entry in report.get("results", [])
    ]


def records_from_report(report: Any) -> list[Record]:
    """Records from a :class:`repro.ParseReport` (or anything with results/decisions)."""
    decisions = {
        d.doc_id: {key: getattr(d, key) for key in _DECISION_KEYS} for d in report.decisions
    }
    records = []
    for result in report.results:
        entry = {
            "doc_id": result.doc_id,
            "parser_name": result.parser_name,
            "page_texts": list(result.page_texts),
            "usage": result.usage.to_json_dict(),
            "succeeded": result.succeeded,
            "error": result.error,
        }
        records.append((result.doc_id, _canonical(entry, decisions.get(result.doc_id))))
    return records


def count_mismatches(expected: list[Record], got: list[Record]) -> int:
    """Documents of ``expected`` that are missing, misplaced or differ in ``got``.

    Documents in ``got`` that ``expected`` lacks count as failures too.
    """
    failed = 0
    for index, (doc_id, blob) in enumerate(expected):
        if index >= len(got) or got[index] != (doc_id, blob):
            failed += 1
    return failed + max(0, len(got) - len(expected))


class Tally:
    """Operations attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def add(self, attempted: int, failed: int = 0, reason: str = "mismatch") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons[reason] = self.reasons.get(reason, 0) + failed

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
