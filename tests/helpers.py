"""Shared test fixtures: independent oracles and corpus builders.

The finite-difference oracle here is the ground truth for every gradient
test; it never touches the library's backward pass. The depth-first rewrite
search is the reference the reachability oracle in `proofgym.rewrite` must
agree with, proof for proof.
"""

from __future__ import annotations

import numpy as np

from proofgym.autodiff import CompGraph, Tensor, forward_backward
from proofgym.engine import (
    GOAL_VAR,
    LEFT_IDENTITY,
    OP_SYMBOL,
    RIGHT_IDENTITY,
    Law,
    Reflexivity,
    Rewrite,
    Tactic,
)
from proofgym.rewrite import OracleError
from proofgym.terms import TermId, TermStore, op_positions, replace_at
from proofgym.traces import TacticArg, TacticCall, TraceRecord


def central_differences(build, tensors: dict[str, Tensor], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Numerical loss gradients; `build() -> (graph, loss_nid)` must be pure
    in everything except the tensor values."""
    out: dict[str, np.ndarray] = {}
    for name, tensor in tensors.items():
        grad = np.zeros_like(tensor.value)
        it = np.nditer(tensor.value, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = tensor.value[ix]
            tensor.value[ix] = orig + h
            graph, loss = build()
            plus, _ = forward_backward(graph, loss)
            tensor.value[ix] = orig - h
            graph, loss = build()
            minus, _ = forward_backward(graph, loss)
            tensor.value[ix] = orig
            grad[ix] = (plus - minus) / (2.0 * h)
        out[name] = grad
    return out


def max_relative_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic[name]
        denom = np.maximum(1e-8, np.abs(num) + np.abs(ana))
        worst = max(worst, float(np.max(np.abs(num - ana) / denom)))
    return worst


# -- reference rewrite search --------------------------------------------------------


def dfs_moves(store: TermStore, expr: TermId) -> list[tuple[Rewrite, TermId]]:
    """Applicable rewrites in tie-break order: position ascending, LEFT first."""
    out: list[tuple[Rewrite, TermId]] = []
    e_id = store.const(LEFT_IDENTITY)
    m_id = store.const(RIGHT_IDENTITY)
    for pos, node_id in op_positions(store, expr, OP_SYMBOL):
        node = store.term(node_id)
        if len(node.args) != 2:
            continue
        left, right = node.args[0][0], node.args[1][0]
        if left == e_id:
            out.append((Rewrite(pos, Law.LEFT), replace_at(store, expr, pos, right, OP_SYMBOL)))
        if right == m_id:
            out.append((Rewrite(pos, Law.RIGHT), replace_at(store, expr, pos, left, OP_SYMBOL)))
    return out


def dfs_oracle_proof(store: TermStore, expr: TermId, target: TermId | None = None) -> list[Tactic]:
    """Depth-first rewrite sequence reducing `expr` to `target`, plus Reflexivity.

    Tries smaller positions first and the left law before the right one, and
    backtracks out of dead ends; the returned proof itself is straight-line.
    Exponential in the length of `expr`.
    """
    if target is None:
        target = store.var(GOAL_VAR)
    dead: set[TermId] = set()

    def dfs(cur: TermId) -> list[Rewrite] | None:
        if cur == target:
            return []
        if cur in dead:
            return None
        for move, nxt in dfs_moves(store, cur):
            rest = dfs(nxt)
            if rest is not None:
                return [move] + rest
        dead.add(cur)
        return None

    steps = dfs(expr)
    if steps is None:
        raise OracleError("expression does not reduce to the target")
    return list(steps) + [Reflexivity()]


def dfs_completable(store: TermStore, expr: TermId, target: TermId | None = None) -> bool:
    """Whether the depth-first search can rewrite `expr` all the way to `target`."""
    try:
        dfs_oracle_proof(store, expr, target)
        return True
    except OracleError:
        return False


# -- synthetic generic corpus -------------------------------------------------------

_CTX_TYPES = ("nat", "boolean", "listT")


def make_generic_corpus(store: TermStore, n_lemmas: int = 12) -> list[TraceRecord]:
    """Hand-built ingested-style traces exercising the generic tactic path.

    Layout per lemma i: root --intro--> s1 --<varied tactic>--> s2
    --reflexivity--> s3(final). The middle tactic cycles through raw names so
    the equivalence map matters, and its local argument is the context entry
    whose type the goal mentions. The used type per co-occurring pair is kept
    consistent (nat over boolean over listT) so the rule stays realizable by
    an additive score over the state and entry vectors; the used entry still
    alternates between the two context slots, so slot position alone cannot
    explain the labels.
    """
    for sym in _CTX_TYPES + ("P", "holds"):
        store.declare(sym)
    raws = ("intros", "apply", "elim", "destruct", "induction", "case")
    holds = store.const("holds")
    records: list[TraceRecord] = []
    for i in range(n_lemmas):
        lemma = f"gen_{i:03d}"
        ty_a = store.const(_CTX_TYPES[i % 3])
        ty_b = store.const(_CTX_TYPES[(i + 1) % 3])
        ctx = (("a", ty_a), ("z", ty_b))
        # higher-priority type of the pair; for (listT, nat) that is "z"
        arg_name = "a" if i % 3 in (0, 1) else "z"
        goal = store.app(holds, [ty_a if arg_name == "a" else ty_b])
        prod = store.prod("a", ty_a, store.prod("z", ty_b, goal))
        raw = raws[(i + 1) % len(raws)]
        records.extend(
            [
                TraceRecord(
                    lemma, 0, None, (), prod,
                    TacticCall("intro", "intros a z"), (1,),
                ),
                TraceRecord(
                    lemma, 1, 0, ctx, goal,
                    TacticCall(raw if raw != "intros" else "intro", f"{raw} {arg_name}",
                               (TacticArg("local", arg_name),)),
                    (2,),
                ),
                TraceRecord(
                    lemma, 2, 1, ctx, goal,
                    TacticCall("reflexivity", "reflexivity"), (3,),
                ),
            ]
        )
    return records
