"""fastText-style text model: hashed bag-of-n-gram embeddings + linear head.

AdaParse (FT), the cheaper engine variant, does not run an LLM: it uses
pre-computed fastText word embeddings to decide whether the extracted text is
acceptable or the document should go straight to the high-quality parser.
This module provides that model: words and character n-grams are hashed into
an embedding table, averaged into a text vector, and fed to a linear head that
is trained either as a multi-output regressor (predicting per-parser accuracy)
or as a classifier.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ml.tokenizer import HashingTokenizer
from repro.ml.trainer import AdamOptimizer, TrainingHistory, minibatch_indices
from repro.utils.hashing import stable_hash
from repro.utils.rng import rng_from


@dataclass(frozen=True)
class FastTextConfig:
    """Hyper-parameters of the fastText-style model."""

    embedding_dim: int = 64
    n_buckets: int = 1 << 15
    char_ngram_min: int = 3
    char_ngram_max: int = 5
    max_tokens: int = 300
    learning_rate: float = 5e-3
    n_epochs: int = 25
    batch_size: int = 32
    l2: float = 1e-5
    seed: int = 17


@functools.lru_cache(maxsize=1 << 15)
def _word_bucket_ids(word: str, n_buckets: int, ngram_min: int, ngram_max: int) -> bytes:
    """Bucket ids of one word: its word hash, then every char n-gram hash.

    N-grams are taken over ``<word>`` for ``n`` in ``[ngram_min, ngram_max]``,
    shortest first.  The ids are returned as the bytes of an ``int32`` array:
    immutable, so the memo can share them, and joined with one
    ``bytes.join`` per text.
    """
    padded = f"<{word}>"
    ids = [stable_hash("ft-word", word) % n_buckets]
    for n in range(ngram_min, ngram_max + 1):
        ids.extend(
            stable_hash("ft-char", padded[i : i + n]) % n_buckets
            for i in range(len(padded) - n + 1)
        )
    return np.asarray(ids, dtype=np.int32).tobytes()


class FastTextModel:
    """Hashed n-gram embedding model with a linear output head.

    Parameters
    ----------
    config:
        Model hyper-parameters.
    n_outputs:
        Output dimension (one accuracy per parser for the regression use, or
        number of classes for classification).
    task:
        ``"regression"`` (squared error) or ``"classification"`` (softmax
        cross-entropy).
    """

    def __init__(self, config: FastTextConfig, n_outputs: int, task: str = "regression") -> None:
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task {task!r}")
        self.config = config
        self.n_outputs = n_outputs
        self.task = task
        self._tokenizer = HashingTokenizer(vocab_size=1 << 20, max_length=config.max_tokens + 1)
        rng = rng_from(config.seed, "fasttext-init", n_outputs, task)
        scale = 1.0 / np.sqrt(config.embedding_dim)
        self.embeddings = rng.normal(0.0, scale, size=(config.n_buckets, config.embedding_dim))
        self.head_weight = rng.normal(0.0, scale, size=(config.embedding_dim, n_outputs))
        self.head_bias = np.zeros(n_outputs, dtype=np.float64)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def bucket_ids(self, text: str) -> np.ndarray:
        """Hashed feature ids (words + character n-grams) of a text.

        Each word's ids come from :func:`_word_bucket_ids`, a module-level
        memo bounded at ``1 << 15`` words (least recently used evicted), so a
        word seen before costs one lookup instead of a BLAKE2b hash per
        n-gram (a dozen or more).  The memo lives at module level rather
        than on the model, so pickling a model into worker processes carries
        no extra bytes; its entries are pure functions of the word and the
        hashing hyper-parameters, so ids are identical with or without it.
        """
        cfg = self.config
        words = self._tokenizer.words(text)[: cfg.max_tokens]
        if not words:
            return np.zeros(1, dtype=np.int64)
        packed = b"".join(
            _word_bucket_ids(word, cfg.n_buckets, cfg.char_ngram_min, cfg.char_ngram_max)
            for word in words
        )
        return np.frombuffer(packed, dtype=np.int32).astype(np.int64)

    def text_vector(self, text: str) -> np.ndarray:
        """Mean embedding of a text's hashed features."""
        ids = self.bucket_ids(text)
        return self.embeddings[ids].mean(axis=0)

    def text_vectors(self, texts: Sequence[str]) -> np.ndarray:
        """Matrix of text vectors ``[n_texts, embedding_dim]``."""
        return np.stack([self.text_vector(t) for t in texts], axis=0)

    # ------------------------------------------------------------------ #
    # Forward / loss
    # ------------------------------------------------------------------ #
    def predict(self, texts: Sequence[str]) -> np.ndarray:
        """Model outputs: regression values or class probabilities."""
        hidden = self.text_vectors(texts)
        logits = hidden @ self.head_weight + self.head_bias
        if self.task == "classification":
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            return exp / exp.sum(axis=1, keepdims=True)
        return logits

    def _loss_and_grad_logits(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        n = logits.shape[0]
        if self.task == "regression":
            diff = logits - targets
            loss = float(np.mean(diff * diff))
            grad = 2.0 * diff / (n * max(1, logits.shape[1]))
            return loss, grad
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        labels = targets.astype(np.int64).reshape(-1)
        loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-12)))
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return loss, grad / n

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        texts: Sequence[str],
        targets: np.ndarray,
        validation: tuple[Sequence[str], np.ndarray] | None = None,
    ) -> TrainingHistory:
        """Train the embedding table and head on (text, target) pairs."""
        cfg = self.config
        targets = np.asarray(targets, dtype=np.float64)
        if self.task == "regression" and targets.ndim == 1:
            targets = targets[:, None]
        if self.task == "regression" and not np.any(self.head_bias):
            # Start the head at the marginal target means so early epochs fit
            # residuals rather than the global offset.
            self.head_bias = targets.mean(axis=0).astype(np.float64)
        cached_ids = [self.bucket_ids(t) for t in texts]
        # The embedding gradient is an exact float64 scatter (see below).
        assert self.embeddings.dtype == np.float64
        # Refilled every batch: one column per embedding dimension, then the
        # C-contiguous (n_buckets, dim) gradient handed to the optimiser.
        grad_columns = np.empty((cfg.embedding_dim, cfg.n_buckets), dtype=np.float64)
        grad_emb = np.empty(self.embeddings.shape, dtype=np.float64)
        optimizer = AdamOptimizer(learning_rate=cfg.learning_rate, weight_decay=cfg.l2)
        params = {
            "embeddings": self.embeddings,
            "head_weight": self.head_weight,
            "head_bias": self.head_bias,
        }
        for epoch in range(cfg.n_epochs):
            epoch_loss = 0.0
            n_batches = 0
            for batch in minibatch_indices(len(texts), cfg.batch_size, cfg.seed, epoch):
                ids_batch = [cached_ids[i] for i in batch]
                hidden = np.stack([self.embeddings[ids].mean(axis=0) for ids in ids_batch], axis=0)
                logits = hidden @ self.head_weight + self.head_bias
                loss, grad_logits = self._loss_and_grad_logits(logits, targets[batch])
                epoch_loss += loss
                n_batches += 1
                grad_head_w = hidden.T @ grad_logits
                grad_head_b = grad_logits.sum(axis=0)
                grad_hidden = grad_logits @ self.head_weight.T
                # Each text spreads grad_hidden[row] / len(ids) over its ids.
                # bincount is exactly the scatter-add: for every bucket it
                # adds the weights into a zeroed float64 slot in input order,
                # one rounding per add, so each (bucket, dim) sees the same
                # sum in the same order as a per-row np.add.at would.
                lengths = np.fromiter((len(ids) for ids in ids_batch), dtype=np.int64)
                all_ids = np.concatenate(ids_batch)
                per_row = grad_hidden / lengths[:, None]
                for dim in range(cfg.embedding_dim):
                    grad_columns[dim] = np.bincount(
                        all_ids,
                        weights=np.repeat(per_row[:, dim], lengths),
                        minlength=cfg.n_buckets,
                    )
                np.copyto(grad_emb, grad_columns.T)
                grads = {
                    "embeddings": grad_emb,
                    "head_weight": grad_head_w,
                    "head_bias": grad_head_b,
                }
                optimizer.step(params, grads)
            train_loss = epoch_loss / max(1, n_batches)
            val_loss = None
            if validation is not None:
                val_texts, val_targets = validation
                val_loss = self.evaluate_loss(val_texts, np.asarray(val_targets, dtype=np.float64))
            self.history.record(train_loss, val_loss)
        return self.history

    def evaluate_loss(self, texts: Sequence[str], targets: np.ndarray) -> float:
        """Loss of the current model on a labelled set."""
        targets = np.asarray(targets, dtype=np.float64)
        if self.task == "regression" and targets.ndim == 1:
            targets = targets[:, None]
        hidden = self.text_vectors(texts)
        logits = hidden @ self.head_weight + self.head_bias
        loss, _ = self._loss_and_grad_logits(logits, targets)
        return loss
