"""The algebraic rewrite benchmark.

Theorems state `forall b:G, X = b` where X is drawn from the grammar
`X ::= b | e | m | X (+) X`, built so that contracting left identities
(`e (+) Y ~> Y`) and right identities (`Y (+) m ~> Y`) reduces X to b. The
length of an expression is its leaf count; a proof of a length-L theorem is
exactly L-1 rewrites plus one reflexivity, since every rewrite removes one
leaf and one operator node.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

from .engine import (
    CARRIER,
    EQ_SYMBOL,
    GOAL_VAR,
    LEFT_IDENTITY,
    OP_SYMBOL,
    RIGHT_IDENTITY,
    Law,
    ProofSession,
    Reflexivity,
    Rewrite,
    Tactic,
    declare_domain,
    start_session,
)
from .terms import App, Const, Prod, TermId, TermStore, Var, replace_at

# Lemma-name prefix of held-out theorems; the model split and `bench` select by it.
TEST_PREFIX = "thm_test_"


class GenerationError(Exception):
    pass


class OracleError(Exception):
    pass


def gen_expression(store: TermStore, rng: random.Random, length: int) -> TermId:
    """One random expression with exactly `length` leaves that reduces to b.

    Recursive construction: a leaf target is emitted directly; otherwise a
    fair coin picks which side carries the target value and the other side
    gets the matching identity (m on the right of the value, or e on its
    left), with the leaf budget split uniformly between the sides.
    """
    if length < 1:
        raise GenerationError(f"length must be >= 1, got {length}")
    leaf = {
        GOAL_VAR: lambda: store.var(GOAL_VAR),
        LEFT_IDENTITY: lambda: store.const(LEFT_IDENTITY),
        RIGHT_IDENTITY: lambda: store.const(RIGHT_IDENTITY),
    }

    def build(budget: int, target: str) -> TermId:
        if budget == 1:
            return leaf[target]()
        split = rng.randint(1, budget - 1)
        if rng.random() < 0.5:
            left = build(split, target)
            right = build(budget - split, RIGHT_IDENTITY)
        else:
            left = build(split, LEFT_IDENTITY)
            right = build(budget - split, target)
        return store.app(store.const(OP_SYMBOL), [left, right])

    return build(length, GOAL_VAR)


def statement_for(store: TermStore, expr: TermId) -> TermId:
    """Wrap an expression as the closed theorem `forall b:G, expr = b`."""
    goal = store.app(store.const(EQ_SYMBOL), [expr, store.var(GOAL_VAR)])
    return store.prod(GOAL_VAR, store.const(CARRIER), goal)


def eval_word(store: TermStore, tid: TermId) -> tuple[str, ...]:
    """Denotation in the free monoid over {b}: identities vanish, (+) concatenates."""
    term = store.term(tid)
    if isinstance(term, Var):
        return (term.name,)
    if isinstance(term, Const):
        if term.symbol in (LEFT_IDENTITY, RIGHT_IDENTITY):
            return ()
        return (term.symbol,)
    if isinstance(term, App):
        head = store.term(term.head)
        if isinstance(head, Const) and head.symbol == OP_SYMBOL and len(term.args) == 2:
            return eval_word(store, term.args[0][0]) + eval_word(store, term.args[1][0])
    raise OracleError(f"no denotation for term {tid}")


class _Reachability:
    """Which terms a term can be rewritten into, memoised for one oracle call.

    `reaches(x, t)` holds when some sequence of identity rewrites turns `x`
    into `t`. A rewrite removes one operator node and one leaf, so a term
    never reaches one with more leaves, and the top node of `x` is either
    contracted at some point or never touched:

    - `x == t`;
    - `x = X (+) Y` with X reaching `e` and Y reaching `t` (the top node is
      finally contracted by the left law), or X reaching `t` and Y reaching
      `m` (by the right law);
    - `x` and `t` share constructor, head and implicit flags and each child
      of `x` reaches its counterpart in `t` (the top node is never touched).

    Terms are hash-consed, so the memo on `(x, t)` pairs is shared by every
    step of one proof; with a leaf target each subterm is asked about at
    most three targets (the target, `e` and `m`).
    """

    def __init__(self, store: TermStore) -> None:
        self.store = store
        self.e_id = store.const(LEFT_IDENTITY)
        self.m_id = store.const(RIGHT_IDENTITY)
        self._memo: dict[tuple[TermId, TermId], bool] = {}
        self._ops: dict[TermId, int] = {}

    def reaches(self, x: TermId, t: TermId) -> bool:
        if x == t:
            return True
        key = (x, t)
        ok = self._memo.get(key)
        if ok is None:
            ok = self._memo[key] = self._compute(x, t)
        return ok

    def _compute(self, x: TermId, t: TermId) -> bool:
        store = self.store
        if store.leaf_count(x) < store.leaf_count(t):
            return False
        tx = store.term(x)
        if isinstance(tx, App):
            if self._is_op(tx) and len(tx.args) == 2:
                left, right = tx.args[0][0], tx.args[1][0]
                if self.reaches(left, self.e_id) and self.reaches(right, t):
                    return True
                if self.reaches(left, t) and self.reaches(right, self.m_id):
                    return True
        tt = store.term(t)
        return self._same_shape(tx, tt) and all(
            self.reaches(a, b) for a, b in zip(_children(tx), _children(tt))
        )

    def _is_op(self, term: App) -> bool:
        head = self.store.term(term.head)
        return isinstance(head, Const) and head.symbol == OP_SYMBOL

    def _same_shape(self, tx, tt) -> bool:
        if isinstance(tx, App):
            return isinstance(tt, App) and [imp for _, imp in tx.args] == [imp for _, imp in tt.args]
        return isinstance(tx, Prod) and isinstance(tt, Prod) and tx.binder == tt.binder

    def op_count(self, x: TermId) -> int:
        """Operator positions inside `x`, itself included."""
        n = self._ops.get(x)
        if n is None:
            term = self.store.term(x)
            n = int(isinstance(term, App) and self._is_op(term))
            n += sum(self.op_count(c) for c in _children(term))
            self._ops[x] = n
        return n

    def first_move(self, cur: TermId, target: TermId) -> tuple[Rewrite, TermId]:
        """The first move in tie-break order whose result still reaches `target`.

        Walks `cur` in preorder carrying the terms each subterm may become
        for the whole to reach `target`, the rest of the term staying fixed,
        and stops at the first redex whose contraction reaches one of them.
        Subterms without positions, or that may become nothing, are skipped,
        their positions counted. Returns the move and the subterm that
        replaces the redex; raises OracleError when no move reaches `target`,
        that is when `cur` does not.
        """
        pos = 0

        def walk(x: TermId, goals: set[TermId]) -> tuple[Rewrite, TermId] | None:
            nonlocal pos
            term = self.store.term(x)
            if isinstance(term, App) and self._is_op(term):
                pos += 1
                if len(term.args) == 2:
                    left, right = term.args[0][0], term.args[1][0]
                    if left == self.e_id and any(self.reaches(right, g) for g in goals):
                        return Rewrite(pos, Law.LEFT), right
                    if right == self.m_id and any(self.reaches(left, g) for g in goals):
                        return Rewrite(pos, Law.RIGHT), left
            children = _children(term)
            for i, child in enumerate(children):
                ops = self.op_count(child)
                if ops == 0:
                    continue
                sub = self._child_goals(term, children, i, goals)
                if not sub:
                    pos += ops
                    continue
                found = walk(child, sub)
                if found is not None:
                    return found
            return None

        found = walk(cur, {target})
        if found is None:
            raise OracleError("expression does not reduce to the target")
        return found

    def _child_goals(self, term, children: list[TermId], i: int, goals: set[TermId]) -> set[TermId]:
        """What child `i` may become for `term` to reach a member of `goals`."""
        out: set[TermId] = set()
        if i > 0 and isinstance(term, App) and self._is_op(term) and len(term.args) == 2:
            # children are (head, left, right): contract the node later, the
            # other operand staying as it is
            left, right = children[1], children[2]
            if i == 1:
                if any(self.reaches(right, g) for g in goals):
                    out.add(self.e_id)
                if self.reaches(right, self.m_id):
                    out |= goals
            else:
                if self.reaches(left, self.e_id):
                    out |= goals
                if any(self.reaches(left, g) for g in goals):
                    out.add(self.m_id)
        for g in goals:
            tg = self.store.term(g)
            if not self._same_shape(term, tg):
                continue
            targets = _children(tg)
            if all(self.reaches(c, t) for j, (c, t) in enumerate(zip(children, targets)) if j != i):
                out.add(targets[i])
        return out


def _children(term) -> list[TermId]:
    """Subterms in the preorder the operator positions are counted in."""
    if isinstance(term, App):
        return [term.head] + [c for c, _ in term.args]
    if isinstance(term, Prod):
        return [term.ty, term.body]
    return []


def oracle_moves(store: TermStore, expr: TermId, target: TermId | None = None) -> Iterator[Rewrite]:
    """The rewrites reducing `expr` to `target`, one at a time.

    Each step takes the first applicable rewrite, by position ascending and
    the left law before the right one, whose result can still be rewritten
    into `target` (see `_Reachability`). The moves are the first proof in that
    order, found without search: each one costs one walk of the term with
    reachability memoised across the steps, so taking only the first move
    costs one walk, and all of a length-L proof O(L^2) term visits.
    """
    if target is None:
        target = store.var(GOAL_VAR)
    cur = expr
    if cur == target:
        return
    oracle = _Reachability(store)
    try:
        while cur != target:
            move, kept = oracle.first_move(cur, target)
            yield move
            cur = replace_at(store, cur, move.pos, kept, OP_SYMBOL)
    except RecursionError:
        raise OracleError(f"term {cur} is nested too deeply for the oracle") from None


def oracle_proof(store: TermStore, expr: TermId, target: TermId | None = None) -> list[Tactic]:
    """The whole of `oracle_moves` plus the closing Reflexivity."""
    return [*oracle_moves(store, expr, target), Reflexivity()]


def completable(store: TermStore, expr: TermId, target: TermId | None = None) -> bool:
    """Whether `expr` can be rewritten all the way to `target`.

    One memoised reachability check, linear in the size of `expr` for a leaf
    target; no proof is built.
    """
    if target is None:
        target = store.var(GOAL_VAR)
    try:
        return expr == target or _Reachability(store).reaches(expr, target)
    except RecursionError:
        raise OracleError(f"term {expr} is nested too deeply for the oracle") from None


@dataclass(frozen=True)
class TheoremSpec:
    name: str
    expr: TermId
    statement: TermId
    proof: tuple[Tactic, ...]


@dataclass(frozen=True)
class DatasetSpec:
    n_train: int
    n_test: int
    length: int
    seed: int


def gen_theorems(store: TermStore, spec: DatasetSpec) -> tuple[list[TheoremSpec], list[TheoremSpec]]:
    """Distinct theorems split in generation order: first n_train, then n_test."""
    total = spec.n_train + spec.n_test
    if spec.length < 3 and total > (1 if spec.length == 1 else 2):
        raise GenerationError(
            f"cannot draw {total} distinct expressions of length {spec.length}"
        )
    rng = random.Random(spec.seed)
    seen: set[TermId] = set()
    exprs: list[TermId] = []
    attempts = 0
    while len(exprs) < total:
        attempts += 1
        if attempts > 1000 * total:
            raise GenerationError("uniqueness sampling stalled; length too small for request")
        expr = gen_expression(store, rng, spec.length)
        if expr in seen:
            continue
        seen.add(expr)
        exprs.append(expr)

    def make(expr: TermId, name: str) -> TheoremSpec:
        return TheoremSpec(
            name=name,
            expr=expr,
            statement=statement_for(store, expr),
            proof=tuple(oracle_proof(store, expr)),
        )

    train = [make(e, f"thm_train_{i:04d}") for i, e in enumerate(exprs[: spec.n_train])]
    test = [make(e, f"{TEST_PREFIX}{i:04d}") for i, e in enumerate(exprs[spec.n_train :])]
    return train, test


def prove_with_oracle(store: TermStore, thm: TheoremSpec) -> ProofSession:
    """Run the oracle proof through the engine, returning the finished session."""
    session = start_session(store, thm.statement, lemma=thm.name)
    current = session.open_goals[0]
    for tactic in thm.proof:
        result = session.apply_tactic(current, tactic)
        if isinstance(result, list):
            current = result[0]
    if not session.completed:
        raise OracleError(f"oracle proof left {thm.name} incomplete")
    return session


def gen_dataset_records(store: TermStore, spec: DatasetSpec):
    """Records for all generated theorems plus the manifest describing them."""
    train, test = gen_theorems(store, spec)
    records = []
    for thm in train + test:
        records.extend(prove_with_oracle(store, thm).export_tree())
    manifest = {
        "kind": "toy",
        "n_train": spec.n_train,
        "n_test": spec.n_test,
        "length": spec.length,
        "seed": spec.seed,
    }
    return records, manifest


def enumerate_expressions(store: TermStore, length: int) -> set[TermId]:
    """Every expression the generator can emit at this length (oracle use)."""
    leafset = {
        GOAL_VAR: {store.var(GOAL_VAR)},
        LEFT_IDENTITY: {store.const(LEFT_IDENTITY)},
        RIGHT_IDENTITY: {store.const(RIGHT_IDENTITY)},
    }
    cache: dict[tuple[int, str], set[TermId]] = {}

    def all_of(budget: int, target: str) -> set[TermId]:
        if budget == 1:
            return set(leafset[target])
        key = (budget, target)
        if key in cache:
            return cache[key]
        out: set[TermId] = set()
        op = store.const(OP_SYMBOL)
        for split in range(1, budget):
            for left in all_of(split, target):
                for right in all_of(budget - split, RIGHT_IDENTITY):
                    out.add(store.app(op, [left, right]))
            for left in all_of(split, LEFT_IDENTITY):
                for right in all_of(budget - split, target):
                    out.add(store.app(op, [left, right]))
        cache[key] = out
        return out

    return all_of(length, GOAL_VAR)
