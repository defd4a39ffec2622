"""Optimiser and training-loop utilities shared by the numpy models.

Provides a parameter container, an Adam optimiser operating on named parameter
dictionaries, mini-batch iteration, and a small training-history record.  The
fastText and Transformer models express their gradients as name → array
dictionaries so the same optimiser drives both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.utils.rng import rng_from

#: A named set of parameters (or gradients): name → array.
ParamDict = dict[str, np.ndarray]


@dataclass
class AdamOptimizer:
    """Adam optimiser over a named parameter dictionary.

    Per parameter name it keeps the moments ``m`` and ``v`` and two scratch
    arrays of the gradient's shape, and :meth:`step` updates all four in
    place (``out=``).  A step therefore allocates nothing parameter-sized,
    except the new gradient that weight decay makes (``g + wd * p``); the
    caller's gradient arrays are only read.  The in-place form performs the
    same floating-point operations in the same order as the textbook
    expression, one rounding each, so the parameters come out bit for bit
    the same:

    - ``m = b1 * m + (1 - b1) * g``
    - ``v = b2 * v + (1 - b2) * (g * g)``
    - ``m_hat = m / (1 - b1**t)``, then ``lr * m_hat``
    - ``v_hat = v / (1 - b2**t)``, then ``sqrt(v_hat) + eps``
    - ``p -= (lr * m_hat) / (sqrt(v_hat) + eps)``
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    _m: ParamDict = field(default_factory=dict, init=False, repr=False)
    _v: ParamDict = field(default_factory=dict, init=False, repr=False)
    _scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )
    _t: int = field(default=0, init=False, repr=False)

    def step(self, params: ParamDict, grads: ParamDict) -> None:
        """Update ``params`` in place given ``grads`` (missing keys are skipped)."""
        self._t += 1
        t = self._t
        b1, b2 = self.beta1, self.beta2
        for name, grad in grads.items():
            if name not in params:
                continue
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * params[name]
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(grad)
                self._v[name] = np.zeros_like(grad)
                self._scratch[name] = (np.empty_like(grad), np.empty_like(grad))
            v = self._v[name]
            step_size, denom = self._scratch[name]
            np.multiply(m, b1, out=m)
            np.multiply(grad, 1.0 - b1, out=step_size)
            np.add(m, step_size, out=m)
            np.multiply(grad, grad, out=denom)
            np.multiply(denom, 1.0 - b2, out=denom)
            np.multiply(v, b2, out=v)
            np.add(v, denom, out=v)
            np.divide(m, 1.0 - b1**t, out=step_size)
            np.multiply(step_size, self.learning_rate, out=step_size)
            np.divide(v, 1.0 - b2**t, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, self.epsilon, out=denom)
            np.divide(step_size, denom, out=step_size)
            params[name] -= step_size

    def reset(self) -> None:
        """Clear optimiser state (moments, scratch arrays and step counter)."""
        self._m.clear()
        self._v.clear()
        self._scratch.clear()
        self._t = 0


@dataclass
class SGDOptimizer:
    """Plain SGD with optional momentum (used by the smaller models)."""

    learning_rate: float = 0.05
    momentum: float = 0.0
    _velocity: ParamDict = field(default_factory=dict, init=False, repr=False)

    def step(self, params: ParamDict, grads: ParamDict) -> None:
        """Update ``params`` in place given ``grads``."""
        for name, grad in grads.items():
            if name not in params:
                continue
            if self.momentum > 0.0:
                velocity = self._velocity.get(name)
                if velocity is None:
                    velocity = np.zeros_like(grad)
                velocity = self.momentum * velocity - self.learning_rate * grad
                self._velocity[name] = velocity
                params[name] += velocity
            else:
                params[name] -= self.learning_rate * grad


@dataclass
class TrainingHistory:
    """Per-epoch loss record (train and optional validation)."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)

    def record(self, train: float, validation: float | None = None) -> None:
        self.train_loss.append(float(train))
        if validation is not None:
            self.validation_loss.append(float(validation))

    @property
    def best_validation_loss(self) -> float | None:
        return min(self.validation_loss) if self.validation_loss else None


def minibatch_indices(
    n_examples: int, batch_size: int, seed: int, epoch: int
) -> Iterator[np.ndarray]:
    """Yield shuffled mini-batch index arrays for one epoch."""
    if n_examples <= 0:
        return
    rng = rng_from(seed, "minibatch", epoch)
    order = rng.permutation(n_examples)
    for start in range(0, n_examples, batch_size):
        yield order[start : start + batch_size]


def clip_gradients(grads: ParamDict, max_norm: float) -> float:
    """Clip gradients to a global L2 norm; returns the pre-clip norm."""
    total = 0.0
    for grad in grads.values():
        total += float(np.sum(grad * grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * scale
    return norm


def numerical_gradient(
    loss_fn: Callable[[], float], parameter: np.ndarray, epsilon: float = 1e-5
) -> np.ndarray:
    """Central-difference numerical gradient (used by gradient-check tests)."""
    grad = np.zeros_like(parameter)
    flat = parameter.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        loss_plus = loss_fn()
        flat[i] = original - epsilon
        loss_minus = loss_fn()
        flat[i] = original
        grad_flat[i] = (loss_plus - loss_minus) / (2.0 * epsilon)
    return grad
