"""Reference predictors that see only shallow state features.

The constant baseline answers the modal training label. The linear baseline
is a one-vs-rest hinge-loss classifier trained by full-batch subgradient
descent on standardized hand-built features, the classical flat-feature
point of comparison for the learned embeddings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .sexpr import print_sexpr
from .terms import TermId, TermStore

# Reported when the context is empty and there is no hypothesis to compare.
EDIT_SENTINEL = 10_000


@dataclass(frozen=True)
class HeuristicFeatures:
    context_size: int
    goal_size: int
    min_edit_distance: int

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.context_size, self.goal_size, self.min_edit_distance],
            dtype=np.float64,
        )


def token_edit_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance over token sequences."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (tok_a != tok_b))
        prev = cur
    return prev[-1]


def extract_features(
    store: TermStore, ctx: tuple[tuple[str, TermId], ...], goal: TermId
) -> HeuristicFeatures:
    goal_tokens = print_sexpr(store, goal).split()
    distances = [
        token_edit_distance(print_sexpr(store, ty).split(), goal_tokens) for _, ty in ctx
    ]
    return HeuristicFeatures(
        context_size=len(ctx),
        goal_size=store.tree_size(goal),
        min_edit_distance=min(distances) if distances else EDIT_SENTINEL,
    )


def constant_baseline(labels: list[int]) -> int:
    """Modal label; ties break toward the lowest class id."""
    if not labels:
        raise ValueError("no labels")
    counts: dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return min(counts, key=lambda c: (-counts[c], c))


@dataclass
class LinearBaseline:
    n_classes: int
    weights: np.ndarray  # (C, F)
    bias: np.ndarray  # (C,)
    mean: np.ndarray
    std: np.ndarray

    def scores(self, features: np.ndarray) -> np.ndarray:
        x = (features - self.mean) / self.std
        return x @ self.weights.T + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        """1-based class ids; argmax ties break toward the lowest id."""
        return self.scores(features).argmax(axis=1) + 1


def train_linear_baseline(
    features: np.ndarray,
    labels: list[int],
    n_classes: int,
    epochs: int = 500,
    lr: float = 0.5,
    l2: float = 1e-4,
) -> LinearBaseline:
    """One-vs-rest hinge loss, full-batch subgradient descent. Deterministic."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    present = set(int(v) for v in y)
    missing = set(range(1, n_classes + 1)) - present
    if missing:
        warnings.warn(f"classes absent from training labels: {sorted(missing)}")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    xs = (x - mean) / std
    n, n_feat = xs.shape
    weights = np.zeros((n_classes, n_feat))
    bias = np.zeros(n_classes)
    signs = np.where(y[None, :] == np.arange(1, n_classes + 1)[:, None], 1.0, -1.0)  # (C, N)
    for t in range(epochs):
        step = lr / np.sqrt(t + 1.0)
        margins = signs * (xs @ weights.T + bias).T  # (C, N)
        active = (margins < 1.0).astype(np.float64) * signs
        grad_w = -(active @ xs) / n + l2 * weights
        grad_b = -active.sum(axis=1) / n
        weights -= step * grad_w
        bias -= step * grad_b
    return LinearBaseline(n_classes, weights, bias, mean, std)
