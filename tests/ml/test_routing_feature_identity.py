"""Byte-identity of the memoised routing feature extractors.

The fastText bucket ids and the CLS I text statistics feed the trained
routing models, whose weights are part of every engine's cache
fingerprint.  The fast implementations must therefore reproduce the
straightforward ones bit for bit.  Those straightforward versions are
kept here as references: a per-call hashing loop for
:meth:`FastTextModel.bucket_ids` and per-character numpy masks for
:meth:`TextStatisticsExtractor.extract`.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.documents import lexicon
from repro.ml import fasttext
from repro.ml.fasttext import FastTextConfig, FastTextModel
from repro.ml.features import TextStatisticsExtractor
from repro.ml.quality_model import ParserQualityPredictor
from repro.utils.hashing import stable_hash

_VOWELS = set("aeiou")
_MATH_GLYPHS = set("∂∇Σ∫∞αβγλμσθφωε·×√^_{}\\=+")
_WORD_RE = re.compile(r"[A-Za-z]+")
_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def reference_bucket_ids(model: FastTextModel, text: str) -> np.ndarray:
    """Hash every word and char n-gram on every call (no memo)."""
    cfg = model.config
    words = _TOKEN_RE.findall(text.lower())[: cfg.max_tokens]
    ids: list[int] = []
    for word in words:
        ids.append(stable_hash("ft-word", word) % cfg.n_buckets)
        padded = f"<{word}>"
        for n in range(cfg.char_ngram_min, cfg.char_ngram_max + 1):
            if len(padded) < n:
                continue
            for i in range(len(padded) - n + 1):
                ids.append(stable_hash("ft-char", padded[i : i + n]) % cfg.n_buckets)
    if not ids:
        ids = [0]
    return np.asarray(ids, dtype=np.int64)


def reference_extract(text: str, max_chars: int = 6000) -> np.ndarray:
    """CLS I statistics from per-character numpy masks."""
    text = text[:max_chars]
    n_chars = len(text)
    if n_chars == 0:
        return np.zeros(18, dtype=np.float64)
    chars = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    whitespace = np.isin(chars, np.asarray([ord(c) for c in " \t\n\r"], dtype=np.uint32))
    is_alpha = np.asarray([c.isalpha() for c in text], dtype=bool)
    is_digit = np.asarray([c.isdigit() for c in text], dtype=bool)
    is_upper = np.asarray([c.isupper() for c in text], dtype=bool)
    non_ascii = chars > 127
    math_glyphs = np.asarray([c in _MATH_GLYPHS for c in text], dtype=bool)
    punctuation = ~(is_alpha | is_digit | whitespace)

    words = text.split()
    n_words = max(1, len(words))
    word_lengths = np.asarray([len(w) for w in words], dtype=np.float64) if words else np.zeros(1)
    alpha_words = [w for w in words if _WORD_RE.fullmatch(w)]
    vowel_free = sum(1 for w in alpha_words if len(w) >= 4 and not (set(w.lower()) & _VOWELS))
    long_words = sum(1 for w in words if len(w) > 18)
    single_char_words = sum(1 for w in words if len(w) == 1)
    repeated_runs = len(re.findall(r"(.)\1{3,}", text))
    lines = [ln for ln in text.split("\n") if ln.strip()]
    line_length_mean = float(np.mean([len(ln) for ln in lines])) if lines else 0.0
    hyphen_breaks = text.count("-\n")

    lowercase_words = {w.lower().strip(".,;:()") for w in words}
    scientific_terms = set(lexicon.all_scientific_terms()) | set(lexicon.ACADEMIC_NOUNS)
    lexicon_hits = len(lowercase_words & scientific_terms)

    return np.asarray(
        [
            math.log1p(n_chars),
            math.log1p(len(words)),
            float(np.mean(word_lengths)),
            float(np.mean(whitespace)),
            float(np.mean(is_alpha)),
            float(np.mean(is_digit)),
            float(np.mean(punctuation)),
            float(np.mean(is_upper)),
            float(np.mean(non_ascii)),
            float(np.mean(math_glyphs)),
            vowel_free / n_words,
            long_words / n_words,
            single_char_words / n_words,
            repeated_runs / max(1, len(lines)),
            line_length_mean / 100.0,
            lexicon_hits / n_words,
            len(lowercase_words) / n_words,
            hyphen_breaks / max(1, len(lines)),
        ],
        dtype=np.float64,
    )


EDGE_CASES = [
    "",
    " ",
    "   \n\n  \t ",
    "\t\r\n",
    "col\tumn\r\nhy-\nphen-\nated line",
    "x",
    "a" * 7000,
    ("The catalyst yield rose 12.5% (p < 0.05).\n" * 200)[:6500],
    "x² + y² = z²",
    "½ + ¼ = ¾",
    "Chapter Ⅻ and ⅷ",
    "٣٤٥ Arabic-Indic digits",
    "é ñ combining ä marks",
    "∂S/∂T = Σ αβγ · √λ ∫ f(x) dx ≤ ∞",
    "数据分析和机器学习。",
    "MIXED Case ΑΒΓ ÄÖÜ ǅ title",
    "aaaa bbbbb .... ----",
    "rhythm CRWTH nth Tsktsk crypts ſtrs \u212atrs xyzzy.",
]


@pytest.fixture(scope="module")
def corpus_texts(small_corpus, registry) -> list[str]:
    """PyMuPDF extractions and ground truth of the shared small corpus."""
    parser = registry.get("pymupdf")
    texts: list[str] = []
    for document in small_corpus.documents:
        texts.append(parser.parse(document).text)
        texts.append(document.ground_truth_text())
    return texts


class TestBucketIds:
    CONFIG = FastTextConfig(embedding_dim=8, n_buckets=1 << 12)

    def test_corpus_and_edge_cases_match_reference(self, corpus_texts):
        model = FastTextModel(self.CONFIG, n_outputs=2)
        for text in corpus_texts + EDGE_CASES:
            ids = model.bucket_ids(text)
            assert ids.dtype == np.int64
            assert ids.tobytes() == reference_bucket_ids(model, text).tobytes()

    def test_repeat_calls_return_fresh_writable_arrays(self):
        model = FastTextModel(self.CONFIG, n_outputs=2)
        first = model.bucket_ids("catalyst yield")
        first[:] = -1
        assert model.bucket_ids("catalyst yield").tobytes() == (
            reference_bucket_ids(model, "catalyst yield").tobytes()
        )

    def test_memo_is_bounded_and_stays_exact_after_eviction(self):
        bound = 1 << 15
        model = FastTextModel(self.CONFIG, n_outputs=2)
        per_text = self.CONFIG.max_tokens
        texts = [
            " ".join(f"w{i}" for i in range(start, start + per_text))
            for start in range(0, bound + 2 * per_text, per_text)
        ]
        for text in texts:
            model.bucket_ids(text)
        assert fasttext._word_bucket_ids.cache_info().currsize <= bound
        for text in (texts[0], texts[-1]):  # evicted, then still resident
            assert model.bucket_ids(text).tobytes() == reference_bucket_ids(model, text).tobytes()

    def test_trained_weights_fingerprint_is_pinned(self):
        texts = [
            "the robust framework demonstrates a significant result in catalyst analysis",
            "t h e r o b u s t frmaework dmonstrtes a sginificnt rselut",
            "Thermodynamic ∂S/∂T ≥ 0 holds for the polymer (see Eq. 3).",
            "数据分析 naïve café Ⅻ ½ x² ٣",
            "",
            "catalyst catalyst catalyst yield 42 %",
        ]
        targets = np.array(
            [[0.9, 0.7], [0.2, 0.7], [0.8, 0.6], [0.4, 0.5], [0.1, 0.1], [0.7, 0.3]]
        )
        config = FastTextConfig(embedding_dim=8, n_buckets=1 << 9, n_epochs=2, batch_size=4, seed=5)
        model = ParserQualityPredictor(
            ["pymupdf", "nougat"], backend="fasttext", fasttext_config=config
        )
        model.fit(texts, targets)
        assert model.weights_fingerprint() == "4f33056400b78db9ada01e88d3e2bf09"


class TestTextStatistics:
    def test_corpus_and_edge_cases_match_reference(self, corpus_texts):
        extractor = TextStatisticsExtractor()
        for text in corpus_texts + EDGE_CASES:
            assert extractor.extract(text).tobytes() == reference_extract(text).tobytes(), text[:40]

    def test_truncation_bound_matches_reference(self, corpus_texts):
        extractor = TextStatisticsExtractor(max_chars=4000)
        for text in corpus_texts[:6] + EDGE_CASES:
            assert extractor.extract(text).tobytes() == reference_extract(text, 4000).tobytes()
