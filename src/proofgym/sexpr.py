"""Textual term syntax.

Grammar:
    sexpr ::= (v <ident>) | (c <symbol>) | (app <head> <sexpr>...) | (prod <ident> <sexpr> <sexpr>)
    head  ::= <symbol> | <sexpr>

Identifiers match [A-Za-z_][A-Za-z0-9_']*. Printing is canonical (single
spaces, constant heads printed bare), so parse(print(t)) is identity.

Parsing finds a bad character and tokenises in two regex passes, then
reads the tokens recursively; line and column are computed only for a
ParseError. Each bracketed span that parses is memoised by its tokens
joined with single spaces, and each bare application head by its symbol,
so a repeated subterm is read once.

The memo's invariant: a span's id is a function of its tokens and the
store. Interning is idempotent, and a span that parsed once parses again
to the same id while the symbol table only grows, as it does within one
dataset read, where `auto_declare` adds symbols of unchecked arity. So the
memo belongs to the caller and to one store: `traces.read_dataset` passes
one per read and drops it after, and a one-shot call makes its own. A span
enters the memo only once it has parsed, so an error part-way through a
read leaves the memo sound. Spans wider than `_MEMO_WIDTH` tokens get no
key, which keeps deeply nested input linear in its length.
"""

from __future__ import annotations

import re
from itertools import accumulate, repeat

from .terms import App, Const, Prod, TermError, TermId, TermStore, Var

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
TOKEN_RE = re.compile(r"[()]|" + IDENT_RE.pattern)
# The first character no token can take: one outside identifiers, brackets
# and blanks, or a digit or prime that does not continue an identifier.
BAD_RE = re.compile(r"[^A-Za-z0-9_'() \t\r\n]|(?<![A-Za-z0-9_'])[0-9']")
_DELTA = {"(": 1, ")": -1}
# Spans wider than this many tokens are read without a memo key, so that
# finding and joining a span costs at most this much at each nesting level.
_MEMO_WIDTH = 4096


class ParseError(TermError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class _Parser:
    """One call's tokens, read against the caller's span memo."""

    def __init__(self, store: TermStore, text: str, auto: bool, memo: dict[str, TermId]) -> None:
        self.store = store
        self.text = text
        self.auto = auto
        self.memo = memo
        self.toks = toks = TOKEN_RE.findall(text)
        # Brackets open after each token: the '(' at i is closed by the first
        # token k >= i with depth[k] == depth[i] - 1.
        self.depth = list(accumulate(map(_DELTA.get, toks, repeat(0))))
        self.pos = 0  # the term being read, for the nesting error

    def error(self, message: str, k: int) -> ParseError:
        """A ParseError at token k; k == len(toks) is the end of input."""
        starts = [m.start() for m in TOKEN_RE.finditer(self.text)]
        return _error(self.text, starts[k] if k < len(starts) else len(self.text), message)

    def term(self, i: int) -> tuple[TermId, int]:
        """The term whose '(' is token i, and the index just past it."""
        self.pos = i
        toks = self.toks
        if i == len(toks):
            raise self.error("expected a term, found end of input", i)
        if toks[i] != "(":
            raise self.error(f"expected '(', found {toks[i]!r}", i)
        try:
            j = self.depth.index(self.depth[i] - 1, i, i + _MEMO_WIDTH) + 1
        except ValueError:
            return self._form(i)  # unclosed or too wide
        key = " ".join(toks[i:j])
        tid = self.memo.get(key)
        if tid is not None:
            return tid, j
        tid, end = self._form(i)
        if end == j:  # as it always is once a form has parsed
            self.memo[key] = tid
        return tid, end

    def _form(self, i: int) -> tuple[TermId, int]:
        toks, store = self.toks, self.store
        n = len(toks)
        k = i + 1
        if k == n:
            raise self.error("expected a form keyword, found end of input", k)
        kw = toks[k]
        if kw == "v":
            name = self._ident(k + 1, "a variable name")
            end = self._close(k + 2)
            return store.var(name), end
        if kw == "c":
            symbol = self._ident(k + 1, "a constant symbol")
            end = self._close(k + 2)
            return self._const(symbol), end
        if kw == "app":
            k += 1
            if k == n:
                raise self.error("expected an application head, found end of input", k)
            if toks[k] == "(":
                head, k = self.term(k)
            else:
                symbol = self._ident(k, "an application head")
                head = self.memo.get(symbol)
                if head is None:
                    head = self.memo[symbol] = self._const(symbol)
                k += 1
            args: list[TermId] = []
            while True:
                if k == n:
                    raise self.error("unclosed application", k)
                tok = toks[k]
                if tok == ")":
                    break
                if tok != "(":
                    raise self.error(f"expected '(', found {tok!r}", k)
                arg, k = self.term(k)
                args.append(arg)
            if not args:
                raise self.error("application needs at least one argument", i + 1)
            return store.app(head, args), k + 1
        if kw == "prod":
            binder = self._ident(k + 1, "a binder name")
            ty, k = self.term(k + 2)
            body, k = self.term(k)
            k = self._close(k)
            return store.prod(binder, ty, body), k
        raise self.error(f"unknown form {kw!r}", k)

    def _ident(self, k: int, what: str) -> str:
        if k == len(self.toks):
            raise self.error(f"expected {what}, found end of input", k)
        tok = self.toks[k]
        if tok == "(" or tok == ")":
            raise self.error(f"expected {what}, found {tok!r}", k)
        return tok

    def _close(self, k: int) -> int:
        if k == len(self.toks):
            raise self.error("expected ')', found end of input", k)
        if self.toks[k] != ")":
            raise self.error(f"expected ')', found {self.toks[k]!r}", k)
        return k + 1

    def _const(self, symbol: str) -> TermId:
        if self.auto and not self.store.is_declared(symbol):
            self.store.declare(symbol)
        return self.store.const(symbol)


def _error(text: str, offset: int, message: str) -> ParseError:
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def parse_sexpr(
    store: TermStore, text: str, auto_declare: bool = False, *, memo: dict[str, TermId] | None = None
) -> TermId:
    """Parse one term and intern it. `auto_declare` admits unseen constants.

    `memo` maps span texts to ids on this store (see the module docstring);
    without one, the call memoises its own subterms only.
    """
    bad = BAD_RE.search(text)
    if bad is not None:
        raise _error(text, bad.start(), f"unexpected character {bad.group()!r}")
    parser = _Parser(store, text, auto_declare, {} if memo is None else memo)
    try:
        tid, end = parser.term(0)
    except RecursionError:
        raise parser.error("term nested too deeply", parser.pos) from None
    if end < len(parser.toks):
        raise parser.error(f"trailing input {parser.toks[end]!r}", end)
    return tid


def print_sexpr(store: TermStore, tid: TermId) -> str:
    try:
        return _print(store, tid)
    except RecursionError:
        raise TermError(f"term {tid} is nested too deeply to print") from None


def _print(store: TermStore, tid: TermId) -> str:
    term = store.term(tid)
    if isinstance(term, Var):
        return f"(v {term.name})"
    if isinstance(term, Const):
        return f"(c {term.symbol})"
    if isinstance(term, App):
        head_term = store.term(term.head)
        head = head_term.symbol if isinstance(head_term, Const) else _print(store, term.head)
        return " ".join([f"(app {head}", *(_print(store, child) for child in term.args)]) + ")"
    return f"(prod {term.binder} {_print(store, term.ty)} {_print(store, term.body)})"
