"""The recursive operator-position walkers, kept as a test reference.

`proofgym.engine.rewrite_lhs` finds an operator node and the spine above it
in one preorder walk, and the oracle in `proofgym.rewrite` records that spine
as it finds a move; both rebuild the term with `engine.rebuild_spine`. These
are the walkers they replaced: `op_positions` lists every application of an
operator symbol by its 1-based preorder rank, `op_node_at` finds one, and
`replace_at` rebuilds a term around a replaced node with a second walk from
the root. The differential tests in `test_engine.py` and
`test_rewrite.py` hold the fast paths to the same results, the same errors
and the same nodes interned in the same order.
"""

from __future__ import annotations

from proofgym.terms import App, Const, Prod, TermError, TermId, TermStore

Position = int


class PositionError(TermError):
    pass


def _is_op_node(store: TermStore, tid: TermId, op_symbol: str) -> bool:
    term = store.term(tid)
    if not isinstance(term, App):
        return False
    head = store.term(term.head)
    return isinstance(head, Const) and head.symbol == op_symbol


def op_positions(store: TermStore, tid: TermId, op_symbol: str) -> list[tuple[Position, TermId]]:
    """(rank, id) for every application of `op_symbol`, in preorder, 1-based."""
    out: list[tuple[Position, TermId]] = []

    def walk(t: TermId) -> None:
        term = store.term(t)
        if isinstance(term, App):
            if _is_op_node(store, t, op_symbol):
                out.append((len(out) + 1, t))
            walk(term.head)
            for child in term.args:
                walk(child)
        elif isinstance(term, Prod):
            walk(term.ty)
            walk(term.body)

    walk(tid)
    return out


def op_node_at(store: TermStore, tid: TermId, pos: Position, op_symbol: str) -> TermId | None:
    """Id of the application of `op_symbol` at rank `pos` (1-based preorder),
    or None when there is none; the walk stops at that node."""
    if pos < 1:
        return None
    rank = 0
    stack = [tid]
    while stack:
        t = stack.pop()
        term = store.term(t)
        if isinstance(term, App):
            if _is_op_node(store, t, op_symbol):
                rank += 1
                if rank == pos:
                    return t
            stack.extend(reversed(term.args))
            stack.append(term.head)
        elif isinstance(term, Prod):
            stack.append(term.body)
            stack.append(term.ty)
    return None


def replace_at(
    store: TermStore, tid: TermId, pos: Position, new: TermId, op_symbol: str
) -> TermId:
    """Rebuild `tid` with the operator node at `pos` replaced by `new`.

    Persistent: the original term is untouched and unaffected subterms stay
    shared.
    """
    if pos < 1:
        raise PositionError(f"position {pos} out of range")
    counter = [0]

    def walk(t: TermId) -> TermId:
        if counter[0] >= pos:
            return t  # the replacement is done; nothing after it changes
        term = store.term(t)
        if isinstance(term, App):
            if _is_op_node(store, t, op_symbol):
                counter[0] += 1
                if counter[0] == pos:
                    return new
            head = walk(term.head)
            args = tuple(walk(c) for c in term.args)
            if head == term.head and args == term.args:
                return t
            return store.app(head, args)
        if isinstance(term, Prod):
            ty = walk(term.ty)
            body = walk(term.body)
            if ty == term.ty and body == term.body:
                return t
            return store.prod(term.binder, ty, body)
        return t

    result = walk(tid)
    if counter[0] < pos:
        raise PositionError(f"position {pos} out of range")
    return result
