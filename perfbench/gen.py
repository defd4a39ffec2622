"""Seeded input generation and staging.

Every input a workload feeds the program is derived from the workload seed
here and nowhere else, so the same seed stages byte-identical inputs.  The
program only ever sees the staged files (or, for ``service``, the request
specs); ground truth stays in the benchmark for the accuracy metric.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.document import SciDocument, TextLayerQuality
from repro.documents.simpdf import SimPdfWriter

#: Documents staged by the batch workloads (campaign, scaleout).
BATCH_DOCUMENTS = 128

#: Request shape of the ``service`` workload.
SERVICE_SPEC = "synthetic:8?seed={seed}&min_pages=2&max_pages=6"
SERVICE_DOCS_PER_REQUEST = 8

#: Share of ``service`` requests that repeat an earlier spec.
SERVICE_REPEAT_SHARE = 0.5


@dataclass
class StagedCorpus:
    """A synthetic corpus written to disk as SimPDF files."""

    documents: list[SciDocument]
    directory: Path
    synth_seconds: float
    n_bytes: int
    digest: str

    @property
    def n_pages(self) -> int:
        return sum(doc.n_pages for doc in self.documents)

    def record(self, repeat_share: float) -> dict[str, object]:
        """The inputs record printed with every run."""
        n = len(self.documents)
        return {
            "digest": self.digest,
            "docs": n,
            "pages": self.n_pages,
            "bytes": self.n_bytes,
            "repeat_share": repeat_share,
            "scanned_share": sum(d.image_layer.is_scanned for d in self.documents) / n,
            "non_clean_text_share": sum(
                d.text_layer.quality is not TextLayerQuality.CLEAN for d in self.documents
            )
            / n,
        }


def stage_corpus(seed: int, directory: Path, n_documents: int = BATCH_DOCUMENTS) -> StagedCorpus:
    """Synthesise ``n_documents`` from ``seed`` and write them as SimPDF files."""
    started = perf_counter()
    config = CorpusConfig(n_documents=n_documents, seed=seed, name=f"bench-{seed}")
    corpus = build_corpus(config)
    synth_seconds = perf_counter() - started
    documents = list(corpus)
    writer = SimPdfWriter(directory)
    digest = hashlib.sha256()
    n_bytes = 0
    for doc in documents:
        path = writer.write(doc)
        blob = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + blob)
        n_bytes += len(blob)
    return StagedCorpus(documents, directory, synth_seconds, n_bytes, digest.hexdigest())


@dataclass
class ServicePlan:
    """The request-spec sequence of the ``service`` workload."""

    specs: list[str]
    repeats: list[bool] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.specs).encode()).hexdigest()


def service_plan(seed: int, n_requests: int = 4000) -> ServicePlan:
    """Draw request specs so that about half repeat an earlier one.

    The sequence is fixed by ``seed``; the closed-loop clients consume it
    in order, so a run uses a prefix whose length depends on speed.
    """
    rng = random.Random(seed)
    specs: list[str] = []
    repeats: list[bool] = []
    for _ in range(n_requests):
        if specs and rng.random() < SERVICE_REPEAT_SHARE:
            specs.append(specs[rng.randrange(len(specs))])
            repeats.append(True)
        else:
            specs.append(SERVICE_SPEC.format(seed=rng.randrange(1, 10**9)))
            repeats.append(False)
    return ServicePlan(specs, repeats)
