"""Hash-consed term language.

Terms live in a TermStore as a DAG: structurally equal terms are interned to
a single dense integer id, so equality is id equality and shared subterms are
stored once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

TermId = int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    symbol: str


@dataclass(frozen=True)
class App:
    # args pair each child id with an implicit-argument flag.
    head: TermId
    args: tuple[tuple[TermId, bool], ...]


@dataclass(frozen=True)
class Prod:
    binder: str
    ty: TermId
    body: TermId


Term = Var | Const | App | Prod


class TermError(Exception):
    """Base class for term construction and lookup errors."""


class UndeclaredSymbol(TermError):
    pass


class DanglingChild(TermError):
    pass


class ArityMismatch(TermError):
    pass


class MalformedTerm(TermError):
    pass


class TermStore:
    """Interning store over a symbol table.

    Constant symbols must be declared before use; a declared arity (None
    means unchecked) is enforced when the symbol heads an application.
    Reads are lock-free; interning takes an internal lock so one store can
    be shared across threads with a single-writer discipline.
    """

    def __init__(self) -> None:
        self._nodes: list[Term] = []
        self._ids: dict[Term, TermId] = {}
        self._arity: dict[str, int | None] = {}
        # Per-node metadata, filled at intern time (terms are immutable).
        self._free_vars: list[tuple[str, ...]] = []
        self._leaf_count: list[int] = []
        self._binder_count: list[int] = []
        self._tree_size: list[int] = []
        self._lock = threading.Lock()

    # -- symbol table ------------------------------------------------------

    def declare(self, symbol: str, arity: int | None = None) -> None:
        with self._lock:
            old = self._arity.get(symbol)
            if old is not None and arity is not None and old != arity:
                raise ArityMismatch(f"symbol {symbol!r} redeclared with arity {arity}, was {old}")
            if symbol not in self._arity or arity is not None:
                self._arity[symbol] = arity

    def is_declared(self, symbol: str) -> bool:
        return symbol in self._arity

    def symbols(self) -> tuple[str, ...]:
        """Declared symbols, sorted."""
        return tuple(sorted(self._arity))

    def arity(self, symbol: str) -> int | None:
        if symbol not in self._arity:
            raise UndeclaredSymbol(f"symbol {symbol!r} is not declared")
        return self._arity[symbol]

    # -- interning ---------------------------------------------------------

    def intern(self, term: Term) -> TermId:
        """Return the id of `term`, creating it if new. Idempotent."""
        self._validate(term)
        with self._lock:
            tid = self._ids.get(term)
            if tid is not None:
                return tid
            tid = len(self._nodes)
            self._nodes.append(term)
            self._ids[term] = tid
            self._free_vars.append(self._compute_free_vars(term))
            self._leaf_count.append(self._compute_leaf_count(term))
            self._binder_count.append(self._compute_binder_count(term))
            self._tree_size.append(self._compute_tree_size(term))
            return tid

    def _validate(self, term: Term) -> None:
        if isinstance(term, Var):
            if not term.name:
                raise MalformedTerm("empty variable name")
        elif isinstance(term, Const):
            if term.symbol not in self._arity:
                raise UndeclaredSymbol(f"symbol {term.symbol!r} is not declared")
        elif isinstance(term, App):
            if not term.args:
                raise MalformedTerm("application with no arguments")
            self._check_child(term.head)
            if isinstance(self._nodes[term.head], App):
                raise MalformedTerm("application head must not itself be an application")
            for child, _ in term.args:
                self._check_child(child)
            head = self._nodes[term.head]
            if isinstance(head, Const):
                declared = self._arity.get(head.symbol)
                if declared is not None and declared != len(term.args):
                    raise ArityMismatch(
                        f"{head.symbol!r} applied to {len(term.args)} args, declared arity {declared}"
                    )
        elif isinstance(term, Prod):
            if not term.binder:
                raise MalformedTerm("empty binder name")
            self._check_child(term.ty)
            self._check_child(term.body)
        else:
            raise MalformedTerm(f"not a term: {term!r}")

    def _check_child(self, tid: TermId) -> None:
        if not isinstance(tid, int) or not (0 <= tid < len(self._nodes)):
            raise DanglingChild(f"child id {tid!r} is not in the store")

    # -- convenience constructors -------------------------------------------

    def var(self, name: str) -> TermId:
        return self.intern(Var(name))

    def const(self, symbol: str) -> TermId:
        return self.intern(Const(symbol))

    def app(self, head: TermId, args) -> TermId:
        """Apply `head` to `args`; applications in head position are flattened.

        Each arg is a TermId or an (id, implicit) pair.
        """
        norm: list[tuple[TermId, bool]] = []
        for a in args:
            if isinstance(a, tuple):
                norm.append((a[0], bool(a[1])))
            else:
                norm.append((a, False))
        self._check_child(head)
        head_term = self._nodes[head]
        if isinstance(head_term, App):
            norm = list(head_term.args) + norm
            head = head_term.head
        return self.intern(App(head, tuple(norm)))

    def prod(self, binder: str, ty: TermId, body: TermId) -> TermId:
        return self.intern(Prod(binder, ty, body))

    # -- lookups -------------------------------------------------------------

    def term(self, tid: TermId) -> Term:
        if type(tid) is int and 0 <= tid < len(self._nodes):
            return self._nodes[tid]  # the hot path: skip the call to _check_child
        self._check_child(tid)
        return self._nodes[tid]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, tid: object) -> bool:
        return isinstance(tid, int) and 0 <= tid < len(self._nodes)

    def kind(self, tid: TermId) -> str:
        return type(self.term(tid)).__name__

    def free_vars(self, tid: TermId) -> tuple[str, ...]:
        """Free variable names in first-occurrence order."""
        self._check_child(tid)
        return self._free_vars[tid]

    def leaf_count(self, tid: TermId) -> int:
        """Var/Const leaf occurrences with multiplicity; heads do not count."""
        self._check_child(tid)
        return self._leaf_count[tid]

    def binder_count(self, tid: TermId) -> int:
        self._check_child(tid)
        return self._binder_count[tid]

    def tree_size(self, tid: TermId) -> int:
        """Node count of the fully expanded tree view, heads included."""
        self._check_child(tid)
        return self._tree_size[tid]

    # -- metadata (children are already interned, so lookups are O(1)) -------

    def _compute_free_vars(self, term: Term) -> tuple[str, ...]:
        if isinstance(term, Var):
            return (term.name,)
        if isinstance(term, Const):
            return ()
        seen: dict[str, None] = {}
        if isinstance(term, App):
            for name in self._free_vars[term.head]:
                seen.setdefault(name)
            for child, _ in term.args:
                for name in self._free_vars[child]:
                    seen.setdefault(name)
        else:
            for name in self._free_vars[term.ty]:
                seen.setdefault(name)
            for name in self._free_vars[term.body]:
                if name != term.binder:
                    seen.setdefault(name)
        return tuple(seen)

    def _compute_leaf_count(self, term: Term) -> int:
        if isinstance(term, (Var, Const)):
            return 1
        if isinstance(term, App):
            return sum(self._leaf_count[c] for c, _ in term.args)
        return self._leaf_count[term.ty] + self._leaf_count[term.body]

    def _compute_binder_count(self, term: Term) -> int:
        if isinstance(term, (Var, Const)):
            return 0
        if isinstance(term, App):
            return self._binder_count[term.head] + sum(self._binder_count[c] for c, _ in term.args)
        return 1 + self._binder_count[term.ty] + self._binder_count[term.body]

    def _compute_tree_size(self, term: Term) -> int:
        if isinstance(term, (Var, Const)):
            return 1
        if isinstance(term, App):
            return 1 + self._tree_size[term.head] + sum(self._tree_size[c] for c, _ in term.args)
        return 1 + self._tree_size[term.ty] + self._tree_size[term.body]


# -- alpha equivalence --------------------------------------------------------


def alpha_eq(store: TermStore, a: TermId, b: TermId) -> bool:
    """Structural equality up to consistent renaming of bound variables."""

    def go(x: TermId, y: TermId, envx: dict[str, int], envy: dict[str, int], depth: int) -> bool:
        tx, ty = store.term(x), store.term(y)
        if type(tx) is not type(ty):
            return False
        if isinstance(tx, Var):
            bx, by = envx.get(tx.name), envy.get(ty.name)
            if bx is None and by is None:
                return tx.name == ty.name
            return bx == by
        if isinstance(tx, Const):
            return tx.symbol == ty.symbol
        if isinstance(tx, App):
            if len(tx.args) != len(ty.args):
                return False
            if not go(tx.head, ty.head, envx, envy, depth):
                return False
            for (cx, ix), (cy, iy) in zip(tx.args, ty.args):
                if ix != iy or not go(cx, cy, envx, envy, depth):
                    return False
            return True
        if not go(tx.ty, ty.ty, envx, envy, depth):
            return False
        envx2 = dict(envx)
        envy2 = dict(envy)
        envx2[tx.binder] = depth
        envy2[ty.binder] = depth
        return go(tx.body, ty.body, envx2, envy2, depth + 1)

    return go(a, b, {}, {}, 0)
