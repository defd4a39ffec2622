"""The n-gram counts behind BLEU match the slice-per-position reference.

BLEU labels are the regression targets of the trained selector, so the
counting must give the same integers (and hence the same BLEU floats) as
the straightforward form kept here: one ``tuple(tokens[i:i + n])`` per
position, and clipped matches summed gram by gram.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.metrics.bleu import BleuStatistics, bleu_statistics
from repro.metrics.tokenize import clipped_ngram_matches, ngrams, word_tokenize


def reference_ngrams(tokens, n: int) -> Counter:
    if len(tokens) < n:
        return Counter()
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def reference_clipped(candidate, reference, n: int) -> tuple[int, int]:
    cand = reference_ngrams(candidate, n)
    ref = reference_ngrams(reference, n)
    matches = sum(min(count, ref[gram]) for gram, count in cand.items())
    return matches, max(0, len(candidate) - n + 1)


# A small alphabet makes repeated n-grams (and so clipping) common.
tokens = st.lists(st.sampled_from(["a", "b", "c", "the", "Σ", ""]), max_size=30)
orders = st.integers(min_value=1, max_value=4)


@settings(max_examples=300, deadline=None)
@given(tokens, orders)
def test_ngrams_match_reference(sequence, n):
    counts = ngrams(sequence, n)
    assert counts == reference_ngrams(sequence, n)
    assert all(type(gram) is tuple and len(gram) == n for gram in counts)


@settings(max_examples=300, deadline=None)
@given(tokens, tokens, orders)
def test_clipped_matches_match_reference(candidate, reference, n):
    assert clipped_ngram_matches(candidate, reference, n) == reference_clipped(candidate, reference, n)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab c\n", max_size=80), orders)
def test_string_sequences_count_characters(text, n):
    # A str is a Sequence[str] too: its n-grams are character tuples.
    assert ngrams(text, n) == reference_ngrams(text, n)
    assert ngrams(word_tokenize(text), n) == reference_ngrams(word_tokenize(text), n)


@settings(max_examples=100, deadline=None)
@given(tokens, tokens)
def test_bleu_statistics_match_reference_counts(candidate, reference):
    cand_text, ref_text = " ".join(candidate), " ".join(reference)
    cand, ref = word_tokenize(cand_text), word_tokenize(ref_text)
    counts = [reference_clipped(cand, ref, n) for n in range(1, 5)]
    expected = BleuStatistics(
        matches=tuple(m for m, _ in counts),
        totals=tuple(t for _, t in counts),
        candidate_length=len(cand),
        reference_length=len(ref),
    )
    stats = bleu_statistics(cand_text, ref_text)
    assert stats == expected
    assert stats.score() == expected.score()
