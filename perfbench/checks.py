"""Correctness checks the benchmark applies to every round it times.

Each check compares the program's output with a value computed here, apart
from the program (a closed form, a cross-entropy evaluated in numpy, a sim
reference run), or with a property the method must have.  None compares
with a stored copy of an earlier output.  Every function returns ``None``
when the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

#: the documented cross-backend tolerance: mp and net parameters equal the
#: sim's to 1e-4 (relative), with an absolute floor for near-zero weights
PARAM_RTOL = 1e-4
PARAM_ATOL = 1e-5


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, float]:
    """Mean cross-entropy (nats) and accuracy of ``logits`` against ``labels``."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    labels = np.asarray(labels, dtype=np.int64)
    loss = -float(log_probs[np.arange(len(labels)), labels].mean())
    acc = float((z.argmax(axis=1) == labels).mean())
    return loss, acc


def params_match(reference: np.ndarray, got: np.ndarray) -> Optional[str]:
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(got, dtype=np.float64)
    if a.shape != b.shape:
        return f"parameter shapes differ: {a.shape} vs {b.shape}"
    bad = np.abs(a - b) > PARAM_ATOL + PARAM_RTOL * np.abs(a)
    if bad.any():
        worst = float(np.max(np.abs(a - b)))
        return (
            f"{int(bad.sum())} parameters differ from the sim reference "
            f"beyond rtol {PARAM_RTOL} (max |diff| {worst:.3g})"
        )
    return None


def all_finite(params: np.ndarray) -> Optional[str]:
    n_bad = int((~np.isfinite(params)).sum())
    return f"{n_bad} parameters are not finite" if n_bad else None


def steps_per_learner(epochs: int, n_train: int, p: int, batch: int) -> int:
    """Minibatch steps each learner takes to cover ``epochs`` collective passes."""
    return max(1, math.ceil(epochs * n_train / (p * batch)))


def expected_pushes(epochs: int, n_train: int, p: int, batch: int, T: int) -> int:
    """Downpour pushes: every T-th local step and the last one, per learner."""
    return p * math.ceil(steps_per_learner(epochs, n_train, p, batch) / T)


def pushes_match(applied: int, expected: int) -> Optional[str]:
    if applied != expected:
        return f"the shard applied {applied} pushes, the learners made {expected}"
    return None


def ring_sasgd_bytes(intervals: int, p: int, model_bytes: float) -> float:
    """SASGD bytes per epoch on a ring: one broadcast plus ``intervals``
    allreduces, each a reduce-scatter and an allgather of (p-1)/p of the
    model per learner: (2k + 1)(p - 1) m."""
    return (2 * intervals + 1) * (p - 1) * model_bytes


def bytes_match(measured: float, expected: float) -> Optional[str]:
    if measured != expected:
        return f"moved {measured:.0f} bytes, the closed form gives {expected:.0f}"
    return None


def sample_count(samples: int, budget: int) -> Optional[str]:
    if samples != budget:
        return f"processed {samples} samples, the budget is {budget}"
    return None


def below(name: str, value: float, bound: float) -> Optional[str]:
    if not value < bound:
        return f"{name} {value:.4g} is not below {bound:.4g}"
    return None


def above(name: str, value: float, bound: float) -> Optional[str]:
    if not value > bound:
        return f"{name} {value:.4g} is not above {bound:.4g}"
    return None
