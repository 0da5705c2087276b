"""Shared test fixtures: independent oracles and corpus builders.

The finite-difference oracle here is the ground truth for every gradient
test; it never touches the library's backward pass. The depth-first rewrite
search is the reference the reachability oracle in `proofgym.rewrite` must
agree with, proof for proof, and the recurrent steps composed of primitive
nodes are the reference for the fused `gru_cell`, `tanh_cell` and
`treelstm_cell` nodes. `term_strategy` draws the random terms that property
tests share.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from hypothesis import strategies as st

from proofgym.autodiff import CompGraph, Tensor, forward_backward
from proofgym.embeddings import State, StateEmbedder
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
from proofgym.terms import TermId, TermStore
from proofgym.traces import TacticArg, TacticCall, TraceRecord
from terms_reference import op_positions, replace_at


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


# -- reference recurrent cells ------------------------------------------------------


def primitive_gate(self: StateEmbedder, prefix: str, gate: str, x: int, h: int) -> int:
    g = self.graph
    wx = g.matmul(self._param(f"{prefix}_W{gate}"), x)
    uh = g.matmul(self._recurrent(f"{prefix}_U{gate}"), h)
    return g.add(g.add(wx, uh), self._param(f"{prefix}_b{gate}"))


def primitive_step(self: StateEmbedder, prefix: str, x: int, h: int) -> int:
    if self.cfg.cell == "tanh":
        return self.graph.tanh(primitive_gate(self, prefix, "", x, h))
    g = self.graph
    z = g.sigmoid(primitive_gate(self, prefix, "z", x, h))
    r = g.sigmoid(primitive_gate(self, prefix, "r", x, h))
    h_bar = g.tanh(primitive_gate(self, prefix, "h", x, g.mul(r, h)))
    return g.add(g.mul(g.affine(z, -1.0, 1.0), h), g.mul(z, h_bar))


def primitive_compose_lstm(self: StateEmbedder, prefix: str, x: int, children: list[State]) -> State:
    # Child-sum: one forget gate per child, shared input/output/update gates.
    g = self.graph
    h_sum = children[0][0]
    for h_k, _ in children[1:]:
        h_sum = g.add(h_sum, h_k)
    i = g.sigmoid(primitive_gate(self, prefix, "i", x, h_sum))
    o = g.sigmoid(primitive_gate(self, prefix, "o", x, h_sum))
    u = g.tanh(primitive_gate(self, prefix, "u", x, h_sum))
    c = g.mul(i, u)
    for h_k, c_k in children:
        f_k = g.sigmoid(primitive_gate(self, prefix, "f", x, h_k))
        c = g.add(c, g.mul(f_k, c_k))
    return (g.mul(o, g.tanh(c)), c)


_PRIMITIVE = {
    "_step": primitive_step,
    "_compose_lstm": primitive_compose_lstm,
}


@contextmanager
def primitive_cells():
    """Within the block, StateEmbedder builds every tanh, GRU and TreeLSTM
    step from matmul, add, sigmoid, tanh, mul and affine nodes instead of one
    fused node."""
    fused = {name: getattr(StateEmbedder, name) for name in _PRIMITIVE}
    for name, method in _PRIMITIVE.items():
        setattr(StateEmbedder, name, method)
    try:
        yield
    finally:
        for name, method in fused.items():
            setattr(StateEmbedder, name, method)


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
        left, right = node.args
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


# -- deeply nested terms ---------------------------------------------------------


def deep_term(store: TermStore, depth: int) -> TermId:
    """`e (+) (e (+) ( ... (e (+) b)))` with `depth` operator nodes, built bottom-up."""
    op, e = store.const(OP_SYMBOL), store.const(LEFT_IDENTITY)
    tid = store.var(GOAL_VAR)
    for _ in range(depth):
        tid = store.app(op, [e, tid])
    return tid


def deep_text(depth: int) -> str:
    """The s-expression of `deep_term(store, depth)`, written without the printer."""
    return f"(app {OP_SYMBOL} (c {LEFT_IDENTITY}) " * depth + f"(v {GOAL_VAR})" + ")" * depth


# -- random terms --------------------------------------------------------------------


@st.composite
def term_strategy(draw, depth=0):
    kind = draw(st.sampled_from(["var", "const", "app", "prod"] if depth < 3 else ["var", "const"]))
    if kind == "var":
        return ("var", draw(st.sampled_from("xyz")))
    if kind == "const":
        return ("const", draw(st.sampled_from(["e", "m", "G"])))
    if kind == "app":
        left = draw(term_strategy(depth=depth + 1))
        right = draw(term_strategy(depth=depth + 1))
        return ("app", left, right)
    ty = draw(term_strategy(depth=depth + 1))
    body = draw(term_strategy(depth=depth + 1))
    return ("prod", draw(st.sampled_from("xyz")), ty, body)


def build(store: TermStore, spec: tuple) -> TermId:
    """Intern a `term_strategy` spec; apps use the binary symbol `f`."""
    if spec[0] == "var":
        return store.var(spec[1])
    if spec[0] == "const":
        return store.const(spec[1])
    if spec[0] == "app":
        return store.app(store.const("f"), [build(store, spec[1]), build(store, spec[2])])
    return store.prod(spec[1], build(store, spec[2]), build(store, spec[3]))


def binder_wrapped(store: TermStore, spec: tuple) -> list[TermId]:
    """A drawn term and two wrappers that put redexes under binders.

    Drawn terms put operator nodes under products and in binder types. The
    first wrapper adds a left redex in a binder type and a right one in its
    body; the second is a product in head position, applied to two
    arguments.
    """
    tid = build(store, spec)
    wrapped = build(store, ("prod", "x", ("app", ("const", "e"), spec), ("app", spec, ("const", "m"))))
    redex = store.app(store.const("f"), [store.const("e"), tid])
    return [tid, wrapped, store.app(store.prod("x", redex, tid), [tid, redex])]


# -- hand-built argument corpus ------------------------------------------------------

_CTX_TYPES = ("nat", "boolean", "listT")


def make_generic_corpus(store: TermStore, n_lemmas: int = 12) -> list[TraceRecord]:
    """Hand-built traces whose tactics take local arguments, for the argument
    ranker, lemma splits and the dataset format.

    Layout per lemma i: root --intro--> s1 --<varied tactic>--> s2
    --reflexivity--> s3(final). The middle tactic cycles through raw names
    that are not primitive tactics, so the records hold no rewrite, and its
    local argument is the context entry whose type the goal mentions. The used type per co-occurring pair is kept
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
