"""Supervised prediction tasks over proof states.

Two classification targets share one architecture (embed the state, apply a
linear head, softmax): remaining-proof-depth bins and the rewrite tactic
space of the toy domain. A third task scores each context entry for
appearing as a tactic argument. Each task has one fixed class space.
Training is deterministic given seeds: fixed shuffles, per-pass seeds
derived from (seed, epoch, batch), Adam updates.
"""

from __future__ import annotations

import random
import warnings
import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .autodiff import Adam, CompGraph, Tensor, forward_backward, run_forward
from .embeddings import (
    CELLS,
    EmbedConfig,
    EmbedParams,
    StateEmbedder,
    load_checkpoint,
    save_checkpoint,
    tensor_shapes,
)
from .engine import Law, Rewrite, tactic_from_call, tactic_text
from .rewrite import TEST_PREFIX
from .terms import TermId, TermStore
from .traces import DEPTH_BOUNDS, TraceRecord, bin_depth, record_steps_below

INFERENCE_SEED = 0


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class LabeledState:
    lemma: str
    ctx: tuple[tuple[str, TermId], ...]
    goal: TermId
    label: int | None = None
    arg_flags: tuple[bool, ...] | None = None


# -- class spaces ----------------------------------------------------------------

TOY_MAX_POS = 9
_LAW_ORDER = (Law.LEFT, Law.RIGHT)


@dataclass(frozen=True)
class ClassSpace:
    task: str
    names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.names)


def encode_toy_tactic(pos: int, law: Law) -> int:
    if not (1 <= pos <= TOY_MAX_POS):
        raise ModelError(f"rewrite position {pos} outside the class space (1..{TOY_MAX_POS})")
    return (pos - 1) * 2 + _LAW_ORDER.index(law) + 1


def decode_toy_tactic(class_id: int) -> Rewrite:
    if not (1 <= class_id <= TOY_MAX_POS * 2):
        raise ModelError(f"class id {class_id} outside the toy tactic space")
    pos, law_ix = divmod(class_id - 1, 2)
    return Rewrite(pos + 1, _LAW_ORDER[law_ix])


def toy_tactic_space() -> ClassSpace:
    names = tuple(tactic_text(decode_toy_tactic(i)) for i in range(1, TOY_MAX_POS * 2 + 1))
    return ClassSpace("tac", names)


def pos_eval_space() -> ClassSpace:
    return ClassSpace("pos", ("close", "medium", "far"))


def argument_space() -> ClassSpace:
    """Two-way presence of one context entry among the tactic's arguments."""
    return ClassSpace("arg", ("absent", "present"))


# -- labels from trace records ------------------------------------------------------


def group_by_lemma(records: list[TraceRecord]) -> dict[str, list[TraceRecord]]:
    out: dict[str, list[TraceRecord]] = {}
    for rec in records:
        out.setdefault(rec.lemma, []).append(rec)
    return out


def pos_eval_states(records: list[TraceRecord]) -> list[LabeledState]:
    out: list[LabeledState] = []
    for lemma, recs in group_by_lemma(records).items():
        depths = record_steps_below(recs)
        for rec in recs:
            out.append(
                LabeledState(lemma, rec.ctx, rec.goal, label=bin_depth(depths[rec.state_id]))
            )
    return out


def toy_tactic_states(records: list[TraceRecord]) -> list[LabeledState]:
    out: list[LabeledState] = []
    for rec in records:
        if rec.tactic.class_name != "rewrite":
            continue
        tactic = tactic_from_call(rec.tactic)
        label = encode_toy_tactic(tactic.pos, tactic.law)
        out.append(LabeledState(rec.lemma, rec.ctx, rec.goal, label=label))
    return out


def argument_states(records: list[TraceRecord]) -> list[LabeledState]:
    """States paired with one presence flag per context entry."""
    out: list[LabeledState] = []
    for rec in records:
        if not rec.ctx:
            continue
        locals_used = {a.value for a in rec.tactic.args if a.kind == "local"}
        flags = tuple(name in locals_used for name, _ in rec.ctx)
        out.append(LabeledState(rec.lemma, rec.ctx, rec.goal, arg_flags=flags))
    return out


# Task -> (its labeled states, its class space): one fixed space per task.
_TASKS = {
    "pos": (pos_eval_states, pos_eval_space),
    "tac": (toy_tactic_states, toy_tactic_space),
    "arg": (argument_states, argument_space),
}


def task_space(task: str) -> ClassSpace:
    """The one class space of `task`; raises ModelError for an unknown task."""
    if task not in _TASKS:
        raise ModelError(f"unknown task {task!r}")
    return _TASKS[task][1]()


def states_for_task(records: list[TraceRecord], task: str) -> tuple[list[LabeledState], ClassSpace]:
    """Labeled states plus the task's class space."""
    space = task_space(task)
    return _TASKS[task][0](records), space


def partition_lemmas(records: list[TraceRecord], seed: int = 0) -> tuple[set[str], set[str], set[str]]:
    """(train, valid, test) lemma names: the one split that `split`, `train`,
    `eval --subset` and `bench` share.

    The test prefix selects test. A corpus of at least 3 lemmas without the
    prefix holds out a tenth of them (at least one), those whose names hash
    lowest, so its test set does not depend on seed either. seed carves a
    tenth of the rest (at least one lemma) into valid.
    """
    names = sorted({rec.lemma for rec in records})
    test = {n for n in names if n.startswith(TEST_PREFIX)}
    if not test and len(names) >= 3:
        n_test = max(1, round(0.1 * len(names)))
        test = set(sorted(names, key=lambda n: zlib.crc32(n.encode("utf-8")))[:n_test])
    rest = [n for n in names if n not in test]
    rng = random.Random(seed)
    rng.shuffle(rest)
    n_valid = max(1, round(0.1 * len(rest))) if len(rest) > 1 else 0
    return set(rest[n_valid:]), set(rest[:n_valid]), test


def filter_states(states: list[LabeledState], lemmas: set[str]) -> list[LabeledState]:
    return [st for st in states if st.lemma in lemmas]


# -- shared model plumbing ------------------------------------------------------------


@dataclass
class TrainConfig:
    cell: str = "gru"
    dim: int = 128
    batch_size: int = 32
    lr: float = 0.001
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cell not in CELLS:
            raise ModelError(f"unknown cell {self.cell!r}")
        if self.dim < 1 or self.batch_size < 1:
            raise ModelError(f"dimension and batch size must be >= 1, got {self.dim} and {self.batch_size}")


def _pass_seed(seed: int, epoch: int, batch: int) -> int:
    return (seed * 1000 + epoch) * 100_000 + batch + 1


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _snapshot(tensors: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: t.value.copy() for name, t in tensors.items()}


# Checkpoint kind -> (weight name, bias name, init seed offset, input width in
# dims). The argument head reads [state; entry] for each context entry, the
# classifier head the state.
_HEADS = {"classifier": ("head_W", "head_b", 1, 1), "argument": ("arg_W", "arg_b", 2, 2)}


def _kind(space: ClassSpace) -> str:
    return "argument" if space.task == "arg" else "classifier"


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


@dataclass(eq=False)
class Classifier:
    """Recursive state embedding plus a linear softmax head.

    With the argument space it ranks context entries: a two-way head over
    [state; entry] for each entry. Every other space has one head over the
    state.
    """

    embed: EmbedParams
    head_w: Tensor
    head_b: Tensor
    space: ClassSpace

    @classmethod
    def create(cls, store: TermStore, space: ClassSpace, cfg: TrainConfig) -> "Classifier":
        embed = EmbedParams.create(list(store.symbols()), cfg.cell, cfg.dim, seed=cfg.seed)
        weight, bias, seed_offset, width = _HEADS[_kind(space)]
        rng = np.random.default_rng(cfg.seed + seed_offset)
        scale = 1.0 / np.sqrt(width * cfg.dim)
        head_w = Tensor(weight, rng.uniform(-scale, scale, (space.n_classes, width * cfg.dim)))
        head_b = Tensor(bias, np.zeros(space.n_classes))
        return cls(embed, head_w, head_b, space)

    def tensors(self) -> dict[str, Tensor]:
        out = dict(self.embed.tensors)
        out[self.head_w.name] = self.head_w
        out[self.head_b.name] = self.head_b
        return out

    def config(self, train: bool, pass_seed: int) -> EmbedConfig:
        return EmbedConfig(cell=self.embed.cell, dim=self.embed.dim, train=train, pass_seed=pass_seed)

    def _head(self, graph: CompGraph, h: int) -> int:
        return graph.add(graph.matmul(graph.param(self.head_w), h), graph.param(self.head_b))

    def _logit_nodes(self, graph: CompGraph, emb: StateEmbedder, state: LabeledState) -> list[int]:
        """One logit node for the state, or one per context entry for the argument head."""
        if _kind(self.space) == "classifier":
            return [self._head(graph, emb.embed_state(state.ctx, state.goal))]
        state_h, entries = emb.embed_state_with_entries(state.ctx, state.goal)
        return [self._head(graph, graph.concat([state_h, entry_h])) for entry_h in entries]

    def embedder(self, store: TermStore) -> StateEmbedder:
        """An inference embedder on a fresh graph."""
        return StateEmbedder(CompGraph(), self.embed, store, self.config(train=False, pass_seed=INFERENCE_SEED))

    def _softmax_rows(
        self, emb: StateEmbedder, states: list[LabeledState], batched: bool = True
    ) -> list[list[np.ndarray]]:
        """Per state, the softmax of each of its logit nodes, added to `emb`'s graph."""
        per_state = [self._logit_nodes(emb.graph, emb, st) for st in states]
        run_forward(emb.graph, batched=batched)
        return [[_softmax(emb.graph.nodes[nid].value) for nid in ids] for ids in per_state]

    def _states_only(self) -> None:
        if _kind(self.space) != "classifier":
            raise ModelError("an argument model scores context entries, not states")

    def predict_proba(self, store: TermStore, states: list[LabeledState], batched: bool = True) -> np.ndarray:
        self._states_only()
        parts = [self._softmax_rows(self.embedder(store), part, batched) for part in _chunks(states, 64)]
        rows = [per_state[0] for part in parts for per_state in part]
        return np.stack(rows) if rows else np.zeros((0, self.space.n_classes))

    def predict(self, store: TermStore, state: LabeledState, emb: StateEmbedder | None = None) -> np.ndarray:
        """Distribution over 1-based class ids for one state. Given `emb` (from
        `embedder`), only the nodes the state adds to its graph are computed;
        the result can then differ from a fresh graph's in its last bits."""
        self._states_only()
        if emb is None:
            emb = self.embedder(store)
        elif emb.params is not self.embed or emb.store is not store:
            raise ModelError("the embedder was built for another model or term store")
        return self._softmax_rows(emb, [state])[0][0]

    def scores(self, store: TermStore, states: list[LabeledState]) -> list[np.ndarray]:
        """Per state: presence probability for each context entry."""
        if _kind(self.space) != "argument":
            raise ModelError("only an argument model scores context entries")
        per_state = [rows for part in _chunks(states, 32) for rows in self._softmax_rows(self.embedder(store), part)]
        return [np.array([float(row[1]) for row in rows]) for rows in per_state]

    def save(self, path: str) -> None:
        meta = {
            "model": _kind(self.space),
            "task": self.space.task,
            "classes": list(self.space.names),
            "cell": self.embed.cell,
            "dim": self.embed.dim,
            "symbols": sorted(self.embed.symbol_index, key=self.embed.symbol_index.get),
        }
        save_checkpoint(path, self.tensors(), meta)

    @classmethod
    def load(cls, path: str) -> "Classifier":
        arrays, meta = load_checkpoint(path)
        kind = meta.get("model")
        if not isinstance(kind, str) or kind not in _HEADS:
            raise ModelError(f"checkpoint model {kind!r} is not a known model kind")
        missing = [key for key in ("task", "cell", "dim", "symbols") if key not in meta]
        if missing:
            raise ModelError(f"checkpoint meta lacks {missing[0]!r}")
        for key in ("task", "cell"):
            if not isinstance(meta[key], str):
                raise ModelError(f"checkpoint {key} {meta[key]!r} is not a string")
        symbols = meta["symbols"]
        if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
            raise ModelError("checkpoint symbols are not a list of strings")
        if len(set(symbols)) != len(symbols):
            raise ModelError("checkpoint symbols are not distinct")
        space = task_space(meta["task"])
        if kind != _kind(space):
            raise ModelError(f"checkpoint of task {space.task!r} holds model kind {kind!r}")
        if meta.get("classes", list(space.names)) != list(space.names):
            raise ModelError(f"checkpoint classes are not the fixed {space.task!r} classes")
        # older checkpoints record their depth bins and embedding level; only the fixed ones load
        if meta.get("bins") not in (None, list(DEPTH_BOUNDS)):
            raise ModelError(f"checkpoint depth bins {meta['bins']!r} are not the fixed bins {list(DEPTH_BOUNDS)}")
        if meta.get("level") not in (None, "kernel"):
            raise ModelError(f"checkpoint level {meta['level']!r} is not 'kernel', the only embedding level")
        cell, dim = meta["cell"], meta["dim"]
        if cell not in CELLS:
            raise ModelError(f"checkpoint cell {cell!r} is not one of {', '.join(CELLS)}")
        if type(dim) is not int or dim < 1:
            raise ModelError(f"checkpoint dim {dim!r} is not a positive integer")
        weight, bias, _, width = _HEADS[kind]
        shapes = {
            **tensor_shapes(cell, dim, len(symbols)),
            weight: (space.n_classes, width * dim),
            bias: (space.n_classes,),
        }
        for name, shape in shapes.items():
            if name not in arrays:
                raise ModelError(f"checkpoint lacks tensor {name!r}")
            if arrays[name].shape != shape:
                raise ModelError(f"checkpoint tensor {name!r} has shape {arrays[name].shape}, expected {shape}")
        tensors = {name: Tensor(name, arrays[name]) for name in shapes if name not in (weight, bias)}
        embed = EmbedParams(tensors, {s: i for i, s in enumerate(symbols)}, cell, dim)
        return cls(embed, Tensor(weight, arrays[weight]), Tensor(bias, arrays[bias]), space)


def _adam_step(
    model: Classifier,
    store: TermStore,
    adam: Adam,
    pass_seed: int,
    losses: Callable[[CompGraph, StateEmbedder], list[int]],
) -> float:
    """One Adam update on the mean of the loss nodes that `losses` builds."""
    graph = CompGraph(dropout_seed=pass_seed + 500_000_000)
    emb = StateEmbedder(graph, model.embed, store, model.config(train=True, pass_seed=pass_seed))
    loss = graph.vmean(graph.concat(losses(graph, emb)))
    value, _ = forward_backward(graph, loss)
    adam.step()
    return value


def train_step(
    clf: Classifier,
    store: TermStore,
    batch: list[LabeledState],
    adam: Adam,
    pass_seed: int,
) -> float:
    """One Adam update on the mean cross-entropy over the batch."""

    def losses(graph: CompGraph, emb: StateEmbedder) -> list[int]:
        out = []
        for st in batch:
            if st.label is None:
                raise ModelError("state without a label in a training batch")
            (logits,) = clf._logit_nodes(graph, emb, st)
            out.append(graph.softmax_xent(logits, st.label - 1))
        return out

    return _adam_step(clf, store, adam, pass_seed, losses)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    valid_accuracy: float


def _fit(
    model: Classifier,
    cfg: TrainConfig,
    epoch_items: Callable[[], list],
    step: Callable[[list, Adam, int], float],
    score: Callable[[], float],
    log,
    metric: str,
) -> list[EpochStats]:
    """Epoch loop of both trainers: Adam over `epoch_items()` in batches, then
    `score()` on the validation set. Keeps the best-scoring weights and stops
    after `cfg.patience` epochs without a gain."""
    adam = Adam(model.tensors(), lr=cfg.lr)
    best_score = -1.0
    best = _snapshot(model.tensors())
    history: list[EpochStats] = []
    stale = 0
    for epoch in range(cfg.max_epochs):
        batches = _chunks(epoch_items(), cfg.batch_size)
        total = 0.0
        for i, batch in enumerate(batches):
            total += step(batch, adam, _pass_seed(cfg.seed, epoch, i))
        valid = score()
        history.append(EpochStats(epoch, total / max(len(batches), 1), valid))
        if log:
            log(f"epoch {epoch}: loss {history[-1].mean_loss:.4f} valid {metric} {valid:.4f}")
        if valid > best_score:
            best_score = valid
            best = _snapshot(model.tensors())
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    for name, t in model.tensors().items():
        t.value = best[name].copy()
    return history


def train_classifier(
    store: TermStore,
    train_states: list[LabeledState],
    valid_states: list[LabeledState],
    space: ClassSpace,
    cfg: TrainConfig,
    log=None,
) -> tuple[Classifier, list[EpochStats]]:
    """Minimize mean cross-entropy with Adam; early-stop on validation accuracy."""
    if not train_states:
        raise ModelError("no training states")
    present = {st.label for st in train_states}
    missing = set(range(1, space.n_classes + 1)) - present
    if missing:
        warnings.warn(f"classes absent from training labels: {sorted(missing)}")
    clf = Classifier.create(store, space, cfg)
    order = list(train_states)
    rng = random.Random(cfg.seed)

    def shuffled() -> list[LabeledState]:
        rng.shuffle(order)
        return order

    def step(batch: list[LabeledState], adam: Adam, pass_seed: int) -> float:
        return train_step(clf, store, batch, adam, pass_seed)

    def accuracy() -> float:
        return evaluate(clf, store, valid_states)["accuracy"] if valid_states else 0.0

    return clf, _fit(clf, cfg, shuffled, step, accuracy, log, "acc")


def evaluate(clf: Classifier, store: TermStore, states: list[LabeledState]) -> dict:
    """Accuracy, per-class accuracy, and confusion matrix (JSON-ready)."""
    if not states:
        return {"n": 0, "accuracy": 0.0, "per_class": {}, "confusion": []}
    probs = clf.predict_proba(store, states)
    preds = probs.argmax(axis=1) + 1
    k = clf.space.n_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for st, pred in zip(states, preds):
        confusion[st.label - 1][pred - 1] += 1
    correct = int(np.trace(confusion))
    per_class = {}
    for i, name in enumerate(clf.space.names):
        row = confusion[i].sum()
        if row:
            per_class[name] = float(confusion[i][i] / row)
    return {
        "n": len(states),
        "accuracy": correct / len(states),
        "per_class": per_class,
        "confusion": confusion.tolist(),
    }


# -- argument presence -----------------------------------------------------------------


def train_argument_model(
    store: TermStore,
    train_states: list[LabeledState],
    valid_states: list[LabeledState],
    cfg: TrainConfig,
    log=None,
) -> tuple[Classifier, list[EpochStats]]:
    """Weighted two-way training over (state, entry) pairs.

    The positive class weight is the negative/positive ratio of the full
    training set; negatives are subsampled each epoch to at most four per
    positive.
    """
    pairs = [(st, i, st.arg_flags[i]) for st in train_states for i in range(len(st.ctx))]
    positives = [p for p in pairs if p[2]]
    negatives = [p for p in pairs if not p[2]]
    if not positives:
        raise ModelError("argument training needs at least one positive pair")
    weight = len(negatives) / len(positives)
    model = Classifier.create(store, argument_space(), cfg)
    rng = random.Random(cfg.seed)
    cap = 4 * len(positives)

    def subsampled() -> list[tuple[LabeledState, int, bool]]:
        kept_neg = rng.sample(negatives, cap) if len(negatives) > cap else negatives
        epoch_pairs = positives + kept_neg
        rng.shuffle(epoch_pairs)
        return epoch_pairs

    def step(batch: list[tuple[LabeledState, int, bool]], adam: Adam, pass_seed: int) -> float:
        def losses(graph: CompGraph, emb: StateEmbedder) -> list[int]:
            embedded: dict[int, tuple[int, list[int]]] = {}  # each state is embedded once
            out = []
            for st, entry_ix, flag in batch:
                if id(st) not in embedded:
                    embedded[id(st)] = emb.embed_state_with_entries(st.ctx, st.goal)
                state_h, entries = embedded[id(st)]
                logits = model._head(graph, graph.concat([state_h, entries[entry_ix]]))
                xent = graph.softmax_xent(logits, 1 if flag else 0)
                out.append(graph.affine(xent, weight if flag else 1.0, 0.0))
            return out

        return _adam_step(model, store, adam, pass_seed, losses)

    def precision() -> float:
        return average_precision(pr_curve_for(model, store, valid_states)) if valid_states else 0.0

    return model, _fit(model, cfg, subsampled, step, precision, log, "AP")


def pr_curve_for(model: Classifier, store: TermStore, states: list[LabeledState]) -> list[tuple[float, float, float]]:
    scores: list[float] = []
    labels: list[bool] = []
    per_state = model.scores(store, states)
    for st, probs in zip(states, per_state):
        for i, flag in enumerate(st.arg_flags):
            scores.append(float(probs[i]))
            labels.append(bool(flag))
    return pr_curve(scores, labels)


def pr_curve(scores: list[float], labels: list[bool]) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) at each distinct score, descending.

    Empty when there are no positive labels: precision is undefined at every
    threshold.
    """
    n_pos = sum(labels)
    if n_pos == 0:
        return []
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], not labels[i]))
    out: list[tuple[float, float, float]] = []
    tp = fp = 0
    i = 0
    while i < len(order):
        threshold = scores[order[i]]
        while i < len(order) and scores[order[i]] == threshold:
            if labels[order[i]]:
                tp += 1
            else:
                fp += 1
            i += 1
        out.append((threshold, tp / (tp + fp), tp / n_pos))
    return out


def recall_at_precision(curve: list[tuple[float, float, float]], min_precision: float) -> float:
    eligible = [recall for _, precision, recall in curve if precision >= min_precision]
    return max(eligible) if eligible else 0.0


def average_precision(curve: list[tuple[float, float, float]]) -> float:
    """Area under the PR sweep (step interpolation).

    Unlike recall at a fixed precision floor, this keeps improving as the
    ranking sharpens even when the floor is below the positive base rate, so
    it is the model-selection score for argument training.
    """
    ap = 0.0
    prev_recall = 0.0
    for _, precision, recall in curve:
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def pr_curve_csv(curve: list[tuple[float, float, float]]) -> str:
    lines = ["precision,recall"]
    for _, precision, recall in curve:
        lines.append(f"{precision:.6f},{recall:.6f}")
    return "\n".join(lines) + "\n"
