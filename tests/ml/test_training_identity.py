"""Byte-identity of the fastText training step and the Adam optimiser.

The trained selector's weights are part of every engine's cache
fingerprint, so the fast training code must reproduce the plain one bit
for bit.  The plain versions are kept here as references: the
allocating Adam update and a fastText ``fit`` whose embedding gradient is
a per-text ``np.add.at`` scatter into a fresh zero table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.fasttext import FastTextConfig, FastTextModel
from repro.ml.trainer import AdamOptimizer, minibatch_indices


class ReferenceAdam:
    """Adam written as whole-array expressions, allocating every step."""

    def __init__(
        self, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8, weight_decay=0.0
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params, grads):
        self._t += 1
        t = self._t
        for name, grad in grads.items():
            if name not in params:
                continue
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * params[name]
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(grad)
                v = np.zeros_like(grad)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * (grad * grad)
            self._m[name] = m
            self._v[name] = v
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def reference_fit(model: FastTextModel, texts, targets) -> None:
    """``FastTextModel.fit`` with an ``np.add.at`` scatter and :class:`ReferenceAdam`."""
    cfg = model.config
    targets = np.asarray(targets, dtype=np.float64)
    if model.task == "regression" and targets.ndim == 1:
        targets = targets[:, None]
    if model.task == "regression" and not np.any(model.head_bias):
        model.head_bias = targets.mean(axis=0).astype(np.float64)
    cached_ids = [model.bucket_ids(t) for t in texts]
    optimizer = ReferenceAdam(learning_rate=cfg.learning_rate, weight_decay=cfg.l2)
    params = {
        "embeddings": model.embeddings,
        "head_weight": model.head_weight,
        "head_bias": model.head_bias,
    }
    for epoch in range(cfg.n_epochs):
        for batch in minibatch_indices(len(texts), cfg.batch_size, cfg.seed, epoch):
            ids_batch = [cached_ids[i] for i in batch]
            hidden = np.stack([model.embeddings[ids].mean(axis=0) for ids in ids_batch], axis=0)
            logits = hidden @ model.head_weight + model.head_bias
            _, grad_logits = model._loss_and_grad_logits(logits, targets[batch])
            grad_hidden = grad_logits @ model.head_weight.T
            grad_emb = np.zeros_like(model.embeddings)
            for row, ids in enumerate(ids_batch):
                np.add.at(grad_emb, ids, grad_hidden[row] / len(ids))
            grads = {
                "embeddings": grad_emb,
                "head_weight": hidden.T @ grad_logits,
                "head_bias": grad_logits.sum(axis=0),
            }
            optimizer.step(params, grads)


def _weights(model: FastTextModel) -> tuple[bytes, bytes, bytes]:
    return model.embeddings.tobytes(), model.head_weight.tobytes(), model.head_bias.tobytes()


@pytest.fixture(scope="module")
def corpus_texts(small_corpus, registry) -> list[str]:
    parser = registry.get("pymupdf")
    texts: list[str] = ["", "catalyst catalyst catalyst"]
    for document in small_corpus.documents:
        texts.append(parser.parse(document).text)
        texts.append(document.ground_truth_text())
    return texts


class TestFitIdentity:
    CONFIG = FastTextConfig(
        embedding_dim=16, n_buckets=1 << 12, n_epochs=3, batch_size=8, l2=1e-3, seed=3
    )

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_fit_matches_add_at_and_allocating_adam(self, corpus_texts, task):
        rng = np.random.default_rng(11)
        n = len(corpus_texts)
        if task == "regression":
            targets = rng.uniform(size=(n, 3))
        else:
            targets = rng.integers(0, 3, size=n).astype(np.float64)
        fast = FastTextModel(self.CONFIG, n_outputs=3, task=task)
        slow = FastTextModel(self.CONFIG, n_outputs=3, task=task)
        assert _weights(fast) == _weights(slow)
        fast.fit(corpus_texts, targets)
        reference_fit(slow, corpus_texts, targets)
        assert _weights(fast) == _weights(slow)


class TestAdamIdentity:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_steps_match_allocating_adam(self, weight_decay):
        rng = np.random.default_rng(5)
        shapes = {"table": (64, 8), "bias": (8,), "scalar": ()}
        fast_params = {k: rng.normal(size=s) for k, s in shapes.items()}
        slow_params = {k: v.copy() for k, v in fast_params.items()}
        fast = AdamOptimizer(learning_rate=0.05, weight_decay=weight_decay)
        slow = ReferenceAdam(learning_rate=0.05, weight_decay=weight_decay)
        for step in range(12):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            table = grads["table"]
            table[::3] = -0.0  # signed zeros, in rows that also saw non-zero steps
            table[1::7] = 0.0
            if step % 4 == 0:
                table[:, 2] = -0.0
            grads["unknown"] = np.ones(3)  # skipped by both
            kept = {k: v.copy() for k, v in grads.items()}
            fast.step(fast_params, grads)
            slow.step(slow_params, grads)
            for name in shapes:
                assert fast_params[name].tobytes() == slow_params[name].tobytes(), (step, name)
                assert grads[name].tobytes() == kept[name].tobytes()  # gradients only read

    def test_first_step_on_all_negative_zero_gradient(self):
        fast_params = {"x": np.array([1.0, -2.0, 0.0, -0.0])}
        slow_params = {"x": fast_params["x"].copy()}
        grad = {"x": np.full(4, -0.0)}
        AdamOptimizer().step(fast_params, grad)
        ReferenceAdam().step(slow_params, grad)
        assert fast_params["x"].tobytes() == slow_params["x"].tobytes()

    def test_reset_clears_moments_and_scratch(self):
        optimizer = AdamOptimizer()
        params = {"x": np.ones(4)}
        optimizer.step(params, {"x": np.ones(4)})
        optimizer.reset()
        assert (optimizer._t, optimizer._m, optimizer._v, optimizer._scratch) == (0, {}, {}, {})
        # After a reset the optimiser behaves like a fresh one.
        fresh = {"x": params["x"].copy()}
        optimizer.step(params, {"x": np.full(4, 0.5)})
        ReferenceAdam().step(fresh, {"x": np.full(4, 0.5)})
        assert params["x"].tobytes() == fresh["x"].tobytes()
