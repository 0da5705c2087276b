"""Reference model of the rewrite domain, written apart from proofgym.

It reads and prints the wire s-expressions, applies `rewrite <pos>
<left|right>` by 1-based preorder rank of the operator node, computes an
expression's word in the free monoid over {b}, checks whole proofs, and
predicts every protocol response. The benchmark checks the program's outputs
against it, so it shares no code with the package it checks.

Terms are nested tuples:
    ("v", name) | ("c", symbol) | ("app", head, ((arg, implicit), ...))
    | ("prod", binder, ty, body)
"""

from __future__ import annotations

import json
import random
import re

OP, EQ, LEFT_ID, RIGHT_ID, CARRIER, VAR = "f", "eq", "e", "m", "G", "b"
B = ("v", VAR)
E = ("c", LEFT_ID)
M = ("c", RIGHT_ID)

_TOKEN = re.compile(r"\s*(?:(\()|(\))|([A-Za-z_][A-Za-z0-9_']*))")


class RefError(Exception):
    """A proof or a term the reference model does not accept."""


class RuleError(RefError):
    """A rewrite the engine must refuse; `code` names the engine's error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# -- s-expressions -----------------------------------------------------------


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    text = text.rstrip()
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None or m.end() == i:
            raise RefError(f"bad character at {i} in {text!r}")
        out.append(m.group(1) or m.group(2) or m.group(3))
        i = m.end()
    return out


def parse(text: str):
    toks = _tokens(text)
    try:
        term, i = _parse(toks, 0)
    except IndexError:
        raise RefError(f"unexpected end of {text!r}") from None
    if i != len(toks):
        raise RefError(f"trailing input in {text!r}")
    return term


def _expect(toks: list[str], i: int, tok: str) -> int:
    if i >= len(toks) or toks[i] != tok:
        raise RefError(f"expected {tok!r} at token {i}")
    return i + 1


def _parse(toks: list[str], i: int):
    i = _expect(toks, i, "(")
    if i >= len(toks):
        raise RefError("unexpected end of input")
    kw = toks[i]
    i += 1
    if kw in ("v", "c"):
        term = (kw, toks[i])
        return term, _expect(toks, i + 1, ")")
    if kw == "prod":
        binder = toks[i]
        ty, i = _parse(toks, i + 1)
        body, i = _parse(toks, i)
        return ("prod", binder, ty, body), _expect(toks, i, ")")
    if kw == "app":
        if toks[i] == "(":
            head, i = _parse(toks, i)
        else:
            head, i = ("c", toks[i]), i + 1
        args = []
        while i < len(toks) and toks[i] != ")":
            if toks[i + 1] == "impl":
                arg, j = _parse(toks, i + 2)
                args.append((arg, True))
                i = _expect(toks, j, ")")
            else:
                arg, i = _parse(toks, i)
                args.append((arg, False))
        if not args:
            raise RefError("application without arguments")
        return ("app", head, tuple(args)), _expect(toks, i, ")")
    raise RefError(f"unknown form {kw!r}")


def show(term) -> str:
    kind = term[0]
    if kind in ("v", "c"):
        return f"({kind} {term[1]})"
    if kind == "prod":
        return f"(prod {term[1]} {show(term[2])} {show(term[3])})"
    head = term[1][1] if term[1][0] == "c" else show(term[1])
    args = [f"(impl {show(a)})" if imp else show(a) for a, imp in term[2]]
    return f"(app {head} " + " ".join(args) + ")"


# -- the rewrite domain ----------------------------------------------------------


def op(left, right):
    return ("app", ("c", OP), ((left, False), (right, False)))


def is_op(term) -> bool:
    return term[0] == "app" and term[1] == ("c", OP)


def operands(term):
    return term[2][0][0], term[2][1][0]


def count_ops(term) -> int:
    if is_op(term):
        left, right = operands(term)
        return 1 + count_ops(left) + count_ops(right)
    return 0


def word(term) -> tuple[str, ...]:
    """Denotation in the free monoid over {b}: identities vanish, (+) concatenates."""
    if term[0] == "v":
        return (term[1],)
    if term in (E, M):
        return ()
    if is_op(term):
        left, right = operands(term)
        return word(left) + word(right)
    raise RefError(f"no denotation for {show(term)}")


def statement(expr):
    """`forall b:G, expr = b`, as the generator states it."""
    return ("prod", VAR, ("c", CARRIER), equation(expr))


def equation(lhs):
    return ("app", ("c", EQ), ((lhs, False), (B, False)))


def lhs_of(goal):
    if goal[0] != "app" or goal[1] != ("c", EQ) or len(goal[2]) != 2:
        raise RefError(f"goal {show(goal)} is not an equation")
    return goal[2][0][0]


def expr_of(stmt):
    """The X of a statement `forall b:G, X = b`; raises on any other statement."""
    if stmt[0] == "prod":
        expr = lhs_of(stmt[3])
        if stmt == statement(expr):
            return expr
    raise RefError(f"statement {show(stmt)} is not forall b:G, X = b")


def rewrite(term, pos: int, law: str):
    """`term` with the operator node of preorder rank `pos` contracted by `law`."""
    n = count_ops(term)
    if not 1 <= pos <= n:
        raise RuleError("InvalidPosition", f"position {pos} out of range, goal has {n} operator nodes")
    seen = 0

    def walk(t):
        nonlocal seen
        if not is_op(t):
            return t
        seen += 1
        left, right = operands(t)
        if seen == pos:
            if law == "left":
                if left != E:
                    raise RuleError("PatternMismatch", f"node at {pos} does not match e (+) Y")
                return right
            if right != M:
                raise RuleError("PatternMismatch", f"node at {pos} does not match Y (+) m")
            return left
        new_left = walk(left)
        return op(new_left, walk(right))

    if law not in ("left", "right"):
        raise RefError(f"unknown law {law!r}")
    return walk(term)


def check_proof(expr, steps: list[tuple]) -> None:
    """Accept a complete proof of `expr = b` or raise RefError.

    `steps` holds ("rewrite", pos, law) and ("reflexivity",) in order; a
    complete proof is len-1 rewrites, each keeping the word b, then one
    reflexivity at b itself.
    """
    cur = expr
    if word(cur) != (VAR,):
        raise RefError(f"{show(expr)} does not denote b")
    for i, step in enumerate(steps):
        if step[0] == "reflexivity":
            if cur != B or i != len(steps) - 1:
                raise RefError(f"reflexivity at step {i} on {show(cur)}")
            return
        cur = rewrite(cur, step[1], step[2])
        if word(cur) != (VAR,):
            raise RefError(f"step {i} changed the word to {word(cur)}")
    raise RefError("proof does not end in reflexivity")


# -- generated sessions for the protocol ----------------------------------------


def gen_planned(rng: random.Random, length: int, target: str = VAR):
    """A random expression of `length` leaves reducing to `target`.

    Returns a plan tree: ("leaf", term) or ("node", law, left, right), where
    `law` is the rewrite that contracts the node once both children are
    leaves.
    """
    if length == 1:
        return ("leaf", {VAR: B, LEFT_ID: E, RIGHT_ID: M}[target])
    split = rng.randint(1, length - 1)
    if rng.random() < 0.5:
        return ("node", "right", gen_planned(rng, split, target), gen_planned(rng, length - split, RIGHT_ID))
    return ("node", "left", gen_planned(rng, split, LEFT_ID), gen_planned(rng, length - split, target))


def plan_term(plan):
    if plan[0] == "leaf":
        return plan[1]
    return op(plan_term(plan[2]), plan_term(plan[3]))


def plan_proof(rng: random.Random, plan) -> list[tuple[int, str]]:
    """A valid rewrite sequence: contract a random node whose children are leaves."""
    steps: list[tuple[int, str]] = []
    while plan[0] == "node":
        ready: list[tuple[int, tuple[int, ...]]] = []
        rank = 0

        def walk(p, path):
            nonlocal rank
            if p[0] == "leaf":
                return
            rank += 1
            if p[2][0] == "leaf" and p[3][0] == "leaf":
                ready.append((rank, path))
            walk(p[2], path + (2,))
            walk(p[3], path + (3,))

        walk(plan, ())
        pos, path = ready[rng.randrange(len(ready))]
        plan, law = _contract(plan, path)
        steps.append((pos, law))
    return steps


def _contract(plan, path):
    """`plan` with the node at `path` replaced by the child its law keeps."""
    if not path:
        law = plan[1]
        return (plan[3] if law == "left" else plan[2]), law
    kids = list(plan)
    kids[path[0]], law = _contract(plan[path[0]], path[1:])
    return tuple(kids), law


def protocol_session(rng: random.Random, length: int, undo_share: float, invalid_share: float) -> list[tuple[str, str]]:
    """(request, expected response) pairs for one proof session.

    The session states a generated theorem, then at each step asks for the
    state and applies the next planned rewrite. A seeded share of steps is
    first tried as an invalid rewrite that must answer ERR, and another share
    is undone and redone. It closes with reflexivity.
    """
    plan = gen_planned(rng, length)
    expr = plan_term(plan)
    out = [(f"THEOREM {show(statement(expr))}", f"OK state=1 goal={show(equation(expr))}")]
    cur, sid = expr, 1
    for pos, law in plan_proof(rng, plan) + [(0, "reflexivity")]:
        out.append(("STATE", f"OK state={sid} ctx={{b:(c G)}} goal={show(equation(cur))}"))
        if rng.random() < invalid_share:
            bad_pos, bad_law = _invalid_rewrite(rng, cur)
            try:
                rewrite(cur, bad_pos, bad_law)
                raise RefError(f"rewrite {bad_pos} {bad_law} applies to {show(cur)}")
            except RuleError as exc:
                out.append((f"TACTIC rewrite {bad_pos} {bad_law}", f"ERR {exc.code} {exc}"))
        if law == "reflexivity":
            out.append(("TACTIC reflexivity", "OK closed=true"))
            break
        nxt = rewrite(cur, pos, law)
        request = f"TACTIC rewrite {pos} {law}"
        response = f"OK state={sid + 1} goal={show(equation(nxt))} final=false"
        out.append((request, response))
        if rng.random() < undo_share:
            out.append(("UNDO", f"OK state={sid} goal={show(equation(cur))}"))
            out.append((request, response))
        cur, sid = nxt, sid + 1
    return out


def _invalid_rewrite(rng: random.Random, term) -> tuple[int, str]:
    """A rewrite the engine must refuse: out of range, or a law that does not match."""
    n = count_ops(term)
    mismatches = []
    for pos in range(1, n + 1):
        for law in ("left", "right"):
            try:
                rewrite(term, pos, law)
            except RuleError:
                mismatches.append((pos, law))
    if mismatches and rng.random() < 0.5:
        return mismatches[rng.randrange(len(mismatches))]
    return n + 1 + rng.randrange(3), rng.choice(("left", "right"))


# -- generated datasets --------------------------------------------------------------


def check_dataset(text: str, length: int) -> dict[str, tuple]:
    """Verify every lemma of a generated dataset; returns lemma -> expression.

    Each lemma must be one intro, length-1 rewrites and one reflexivity, in
    a straight line of state ids; every record's goal must be the previous
    goal rewritten as its tactic says; the proof must pass check_proof.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#manifest "):
        raise RefError("dataset does not start with a manifest")
    table: list = []
    by_lemma: dict[str, list[dict]] = {}
    for line in lines[1:]:
        if line.startswith("#term "):
            fid, _, sexpr = line[len("#term ") :].partition(" ")
            if int(fid) != len(table):
                raise RefError(f"term id {fid} out of order")
            table.append(parse(sexpr))
        else:
            rec = json.loads(line)
            by_lemma.setdefault(rec["lemma"], []).append(rec)
    out: dict[str, tuple] = {}
    for lemma, recs in by_lemma.items():
        if len(recs) != length + 1:
            raise RefError(f"{lemma}: {len(recs)} records, expected {length + 1}")
        intro = recs[0]
        if intro["tactic"]["class"] != "intro" or intro["parent_id"] is not None or intro["ctx"]:
            raise RefError(f"{lemma}: first record is not the intro")
        expr = expr_of(table[intro["goal"]])
        cur = expr
        steps: list[tuple] = []
        for i, rec in enumerate(recs):
            if (rec["state_id"], rec["children"]) != (i, [i + 1]) or (i and rec["parent_id"] != i - 1):
                raise RefError(f"{lemma}: record {i} breaks the chain of state ids")
            if i == 0:
                continue
            ctx = [(name, table[fid]) for name, fid in rec["ctx"]]
            if ctx != [(VAR, ("c", CARRIER))] or table[rec["goal"]] != equation(cur):
                raise RefError(f"{lemma}: record {i} does not hold the expected state")
            words = rec["tactic"]["raw"].split()
            wanted = "rewrite" if i < length else "reflexivity"
            if rec["tactic"]["class"] != wanted or words[0] != wanted:
                raise RefError(f"{lemma}: record {i} is {rec['tactic']['raw']!r}, expected a {wanted}")
            if wanted == "rewrite":
                steps.append(("rewrite", int(words[1]), words[2]))
                cur = rewrite(cur, int(words[1]), words[2])
            else:
                steps.append(("reflexivity",))
        check_proof(expr, steps)
        out[lemma] = expr
    return out
