"""Hash-consed term language.

Terms live in a TermStore as a DAG: structurally equal terms are interned to
a single dense integer id, so equality is id equality and shared subterms are
stored once.

An intern hit is one lock-free dict read. A miss takes the store's lock,
validates the term, appends it and its metadata and publishes its id last,
so a reader that finds an id also finds its node and metadata. A hit skips
validation, so a stored node must stay valid as the symbol table grows:
`declare`, under the same lock, refuses to fix an arity that an interned
application of the symbol already breaks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain

TermId = int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    symbol: str


@dataclass(frozen=True)
class App:
    head: TermId
    args: tuple[TermId, ...]


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
    Reads and intern hits are lock-free; a miss takes an internal lock, so
    one store can be shared across threads.
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
            if old is None and arity is not None:
                self._refuse_arity(symbol, arity)
            if symbol not in self._arity or arity is not None:
                self._arity[symbol] = arity

    def _refuse_arity(self, symbol: str, arity: int) -> None:
        """Raise if an interned application of `symbol` breaks `arity`."""
        head = self._ids.get(Const(symbol))
        if head is None:
            return
        for node in self._nodes:
            if isinstance(node, App) and node.head == head and len(node.args) != arity:
                raise ArityMismatch(
                    f"cannot declare {symbol!r} with arity {arity}: "
                    f"an application to {len(node.args)} args is interned"
                )

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
        """Return the id of `term`, creating it if new. Idempotent.

        A hit is decided by equality, so child ids equal to a stored node's
        (1.0 or np.int64(1) for 1) find that node; only a miss checks types.
        """
        tid = self._ids.get(term)
        if tid is not None:
            return tid
        with self._lock:
            tid = self._ids.get(term)  # another thread may have interned it
            if tid is not None:
                return tid
            self._validate(term)
            free_vars, leaves, binders, size = self._metadata(term)
            self._free_vars.append(free_vars)
            self._leaf_count.append(leaves)
            self._binder_count.append(binders)
            self._tree_size.append(size)
            tid = len(self._nodes)
            self._nodes.append(term)
            self._ids[term] = tid
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
            for child in term.args:
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
        """Apply `head` to the ids `args`; applications in head position are flattened."""
        head_term = self.term(head)
        if isinstance(head_term, App):
            return self.intern(App(head_term.head, head_term.args + tuple(args)))
        return self.intern(App(head, tuple(args)))

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

    def _metadata(self, term: Term) -> tuple[tuple[str, ...], int, int, int]:
        """(free vars, leaf count, binder count, tree size) of a new node."""
        if isinstance(term, Var):
            return (term.name,), 1, 0, 1
        if isinstance(term, Const):
            return (), 1, 0, 1
        fv, leaves, binders, size = self._free_vars, self._leaf_count, self._binder_count, self._tree_size
        if isinstance(term, App):
            head, args = term.head, term.args
            names = chain(fv[head], *(fv[c] for c in args))
            return (
                tuple(dict.fromkeys(names)),
                sum(leaves[c] for c in args),
                binders[head] + sum(binders[c] for c in args),
                1 + size[head] + sum(size[c] for c in args),
            )
        ty, body = term.ty, term.body
        names = chain(fv[ty], (name for name in fv[body] if name != term.binder))
        return (
            tuple(dict.fromkeys(names)),
            leaves[ty] + leaves[body],
            1 + binders[ty] + binders[body],
            1 + size[ty] + size[body],
        )
