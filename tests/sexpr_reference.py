"""The character-walking s-expression parser, kept as a test reference.

`proofgym.sexpr.parse_sexpr` tokenises with regular expressions and memoises
subterm spans; this is the straightforward parser it replaced, one character
and one token at a time. The differential tests in `test_sexpr.py` hold the
two to equal ids, equal store nodes, and equal `ParseError` messages, lines
and columns.
"""

from __future__ import annotations

from proofgym.sexpr import IDENT_RE, ParseError
from proofgym.terms import TermId, TermStore


class _Tokens:
    def __init__(self, text: str) -> None:
        self.toks: list[tuple[str, int, int]] = []
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
            elif ch in " \t\r":
                col += 1
                i += 1
            elif ch in "()":
                self.toks.append((ch, line, col))
                col += 1
                i += 1
            else:
                m = IDENT_RE.match(text, i)
                if m is None:
                    raise ParseError(f"unexpected character {ch!r}", line, col)
                self.toks.append((m.group(), line, col))
                col += len(m.group())
                i = m.end()
        self.pos = 0
        self.end = (line, col)

    def peek(self) -> tuple[str, int, int] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self, what: str) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {what}, found end of input", *self.end)
        self.pos += 1
        return tok


def reference_parse(store: TermStore, text: str, auto_declare: bool = False) -> TermId:
    """Parse one term and intern it. `auto_declare` admits unseen constants."""
    toks = _Tokens(text)
    try:
        tid = _parse(store, toks, auto_declare)
    except RecursionError:
        _, line, col = toks.peek() or (None, *toks.end)
        raise ParseError("term nested too deeply", line, col) from None
    trailing = toks.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing[0]!r}", trailing[1], trailing[2])
    return tid


def _ident(toks: _Tokens, what: str) -> str:
    tok, line, col = toks.next(what)
    if not IDENT_RE.fullmatch(tok):
        raise ParseError(f"expected {what}, found {tok!r}", line, col)
    return tok


def _const(store: TermStore, symbol: str, auto_declare: bool) -> TermId:
    if auto_declare and not store.is_declared(symbol):
        store.declare(symbol)
    return store.const(symbol)


def _parse(store: TermStore, toks: _Tokens, auto: bool) -> TermId:
    tok, line, col = toks.next("a term")
    if tok != "(":
        raise ParseError(f"expected '(', found {tok!r}", line, col)
    kw, kline, kcol = toks.next("a form keyword")
    if kw == "v":
        name = _ident(toks, "a variable name")
        _close(toks)
        return store.var(name)
    if kw == "c":
        symbol = _ident(toks, "a constant symbol")
        _close(toks)
        return _const(store, symbol, auto)
    if kw == "app":
        head_tok = toks.peek()
        if head_tok is None:
            raise ParseError("expected an application head, found end of input", *toks.end)
        if head_tok[0] == "(":
            head = _parse(store, toks, auto)
        else:
            head = _const(store, _ident(toks, "an application head"), auto)
        args: list[TermId] = []
        while True:
            nxt = toks.peek()
            if nxt is None:
                raise ParseError("unclosed application", *toks.end)
            if nxt[0] == ")":
                toks.next(")")
                break
            args.append(_parse(store, toks, auto))
        if not args:
            raise ParseError("application needs at least one argument", kline, kcol)
        return store.app(head, args)
    if kw == "prod":
        binder = _ident(toks, "a binder name")
        ty = _parse(store, toks, auto)
        body = _parse(store, toks, auto)
        _close(toks)
        return store.prod(binder, ty, body)
    raise ParseError(f"unknown form {kw!r}", kline, kcol)


def _close(toks: _Tokens) -> None:
    tok, line, col = toks.next("')'")
    if tok != ")":
        raise ParseError(f"expected ')', found {tok!r}", line, col)
