"""Proof states, tactics, and interactive sessions.

A session turns a closed theorem statement into a tree of proof states. The
two primitive tactics operate on equality goals: Rewrite contracts one
operator application on the left-hand side using a left or right identity
law, and Reflexivity closes a goal whose two sides are the same term. Closing
an edge creates a fresh final child state, so final states never have
outgoing edges and the number of edges below a state measures the remaining
proof work. A session logs each edge once, as a trace record, and `undo`
retracts the last one.

`tactic_text` and `parse_tactic` are the only printer and parser of the
primitive tactics' text form.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .terms import App, Const, Prod, TermId, TermStore
from .traces import TacticArg, TacticCall, TraceRecord, record_steps_below

# Canonical symbols of the rewrite domain. `f` is the binary operator, `e`
# its left identity, `m` its right identity, `G` the carrier, `eq` equality.
OP_SYMBOL = "f"
EQ_SYMBOL = "eq"
LEFT_IDENTITY = "e"
RIGHT_IDENTITY = "m"
CARRIER = "G"
GOAL_VAR = "b"


def declare_domain(store: TermStore) -> None:
    store.declare(CARRIER, 0)
    store.declare(LEFT_IDENTITY, 0)
    store.declare(RIGHT_IDENTITY, 0)
    store.declare(OP_SYMBOL, 2)
    store.declare(EQ_SYMBOL, 2)


class Law(Enum):
    LEFT = "left"    # e (+) Y  ~>  Y
    RIGHT = "right"  # Y (+) m  ~>  Y

    @property
    def lemma_name(self) -> str:
        return "left_id" if self is Law.LEFT else "right_id"


@dataclass(frozen=True)
class Rewrite:
    pos: int
    law: Law


@dataclass(frozen=True)
class Reflexivity:
    pass


Tactic = Rewrite | Reflexivity


@dataclass(frozen=True)
class ProofState:
    ctx: tuple[tuple[str, TermId], ...]
    goal: TermId
    sid: int


class _Closed:
    def __repr__(self) -> str:
        return "Closed"


CLOSED = _Closed()


class EngineError(Exception):
    code = "EngineError"


class OpenTerm(EngineError):
    code = "OpenTerm"


class StateClosed(EngineError):
    code = "StateClosed"


class InvalidPosition(EngineError):
    code = "InvalidPosition"


class PatternMismatch(EngineError):
    code = "PatternMismatch"


class NotTrivial(EngineError):
    code = "NotTrivial"


class ReplayMismatch(EngineError):
    code = "ReplayMismatch"


class NothingToUndo(EngineError):
    code = "NothingToUndo"


class BadTactic(EngineError):
    code = "BadArgument"


def tactic_text(tactic: Rewrite | Reflexivity) -> str:
    """The one text form of a primitive tactic, read back by parse_tactic."""
    if isinstance(tactic, Reflexivity):
        return "reflexivity"
    return f"rewrite {tactic.pos} {tactic.law.value}"


def parse_tactic(text: str) -> Rewrite | Reflexivity:
    """`rewrite <pos> <left|right>` or `reflexivity`; raises BadTactic otherwise."""
    words = text.split()
    if words == ["reflexivity"]:
        return Reflexivity()
    if len(words) != 3 or words[0] != "rewrite":
        raise BadTactic(f"expected 'rewrite <pos> <left|right>' or 'reflexivity', got {text.strip()!r}")
    try:
        pos = int(words[1])
    except ValueError:
        pos = None
    # accept only what tactic_text prints; int() also takes "+1", "01" and "1_0"
    if pos is None or str(pos) != words[1]:
        raise BadTactic(f"position {words[1]!r} is not an integer")
    if words[2] not in ("left", "right"):
        raise BadTactic(f"law {words[2]!r} is not left or right")
    return Rewrite(pos, Law(words[2]))


def goal_sides(store: TermStore, goal: TermId) -> tuple[TermId, TermId]:
    """(lhs, rhs) of an `eq` goal; raises PatternMismatch on any other goal."""
    term = store.term(goal)
    if isinstance(term, App) and len(term.args) == 2:
        head = store.term(term.head)
        if isinstance(head, Const) and head.symbol == EQ_SYMBOL:
            return term.args
    raise PatternMismatch("goal is not an equality")


def rewrite_lhs(store: TermStore, lhs: TermId, tactic: Rewrite) -> TermId:
    """Left side of the goal after one identity rewrite; pure, no session needed.

    A rewrite's position is the 1-based preorder rank of the operator node it
    contracts, counting only applications of `f`: an application comes
    before its head and its arguments, a product's binder type before its
    body. Raises InvalidPosition or PatternMismatch exactly as tactic
    application would, which makes it usable as a dry run. One preorder walk
    finds the operator node and the spine above it; `rebuild_spine`, which
    the oracle shares, re-interns only that spine.
    """
    rank = 0
    spine: list[tuple[TermId | None, int]] = []  # per node on the path, (parent, slot), root first
    stack = [(lhs, 0, None, 0)]  # (node, depth, parent, slot in the parent)
    while stack:
        t, depth, parent, slot = stack.pop()
        del spine[depth:]
        spine.append((parent, slot))
        node = store.term(t)
        if isinstance(node, App):
            head = store.term(node.head)
            if isinstance(head, Const) and head.symbol == OP_SYMBOL:
                rank += 1
                if rank == tactic.pos:
                    break
            depth += 1
            stack.extend((node.args[k - 1], depth, t, k) for k in range(len(node.args), 0, -1))
            stack.append((node.head, depth, t, 0))
        elif isinstance(node, Prod):
            stack.append((node.body, depth + 1, t, 1))
            stack.append((node.ty, depth + 1, t, 0))
    else:
        raise InvalidPosition(f"position {tactic.pos} out of range, goal has {rank} operator nodes")
    if len(node.args) != 2:
        raise PatternMismatch(f"node at {tactic.pos} is not a binary operator application")
    left, right = node.args
    if tactic.law is Law.LEFT:
        if store.term(left) != Const(LEFT_IDENTITY):
            raise PatternMismatch(f"node at {tactic.pos} does not match e (+) Y")
        new = right
    else:
        if store.term(right) != Const(RIGHT_IDENTITY):
            raise PatternMismatch(f"node at {tactic.pos} does not match Y (+) m")
        new = left
    return rebuild_spine(store, spine[:0:-1], new)


def rebuild_spine(store: TermStore, ancestors: Iterable[tuple[TermId, int]], new: TermId) -> TermId:
    """The root of a term whose subterm at the end of a path becomes `new`.

    `ancestors` are the replaced node's ancestors, innermost first, each with
    the slot its child on the path sits in: 0 is an application's head or a
    product's binder type, k >= 1 an application's k-th argument, and 1 a
    product's body. Only those ancestors are re-interned, bottom up; every
    other subterm stays shared and the original term is untouched.
    """
    for parent, slot in ancestors:
        up = store.term(parent)
        if isinstance(up, Prod):
            new = store.prod(up.binder, new, up.body) if slot == 0 else store.prod(up.binder, up.ty, new)
        elif slot == 0:
            new = store.app(new, up.args)
        else:
            new = store.app(up.head, up.args[: slot - 1] + (new,) + up.args[slot:])
    return new


class ProofSession:
    """Single-theorem proof-in-progress with its trace log."""

    def __init__(self, store: TermStore, theorem: TermId, lemma: str = "lemma") -> None:
        if store.free_vars(theorem):
            raise OpenTerm(f"theorem has free variables {store.free_vars(theorem)}")
        self.store = store
        self.lemma = lemma
        root = ProofState(ctx=(), goal=theorem, sid=0)
        self.states: dict[int, ProofState] = {0: root}
        self.finals: set[int] = set()
        self.records: list[TraceRecord] = []  # one per edge, in application order
        self._parent: dict[int, int] = {}  # child state -> state its edge leaves
        self._slots: list[int] = []  # per edge, its parent's index in open_goals
        self._next_id = 1
        self.open_goals: list[int] = [0]
        # A product statement enters interaction with its binders introduced;
        # all leading products are consumed by one intro edge.
        ctx: list[tuple[str, TermId]] = []
        body = theorem
        top = store.term(body)
        while isinstance(top, Prod):
            ctx.append((top.binder, top.ty))
            body = top.body
            top = store.term(body)
        if ctx:
            intro = ProofState(ctx=tuple(ctx), goal=body, sid=self._fresh())
            self._attach(0, TacticCall("intro", "intro"), (intro,), close=False)

    # -- internals -----------------------------------------------------------

    def _fresh(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def _attach(
        self,
        parent: int,
        call: TacticCall,
        children: tuple[ProofState, ...],
        close: bool,
    ) -> list[int]:
        state = self.states[parent]
        ids = tuple(c.sid for c in children)
        for child in children:
            self.states[child.sid] = child
            self._parent[child.sid] = parent
        self.records.append(
            TraceRecord(
                lemma=self.lemma,
                state_id=parent,
                parent_id=self._parent.get(parent),
                ctx=state.ctx,
                goal=state.goal,
                tactic=call,
                children=ids,
            )
        )
        at = self.open_goals.index(parent)
        self._slots.append(at)
        if close:
            del self.open_goals[at]
            self.finals.update(ids)
        else:
            self.open_goals[at : at + 1] = ids
        return list(ids)

    # -- queries --------------------------------------------------------------

    def state(self, sid: int) -> ProofState:
        if sid not in self.states:
            raise EngineError(f"unknown state {sid}")
        return self.states[sid]

    def is_final(self, sid: int) -> bool:
        """True iff the goal is an equality whose sides are the same term."""
        try:
            lhs, rhs = self.goal_sides(sid)
        except PatternMismatch:
            return False
        return lhs == rhs

    def goal_sides(self, sid: int) -> tuple[TermId, TermId]:
        return goal_sides(self.store, self.state(sid).goal)

    @property
    def completed(self) -> bool:
        return not self.open_goals

    # -- tactics ----------------------------------------------------------------

    def apply_tactic(self, sid: int, tactic: Tactic) -> list[int] | _Closed:
        if sid not in self.states:
            raise EngineError(f"unknown state {sid}")
        if sid not in self.open_goals:
            raise StateClosed(f"state {sid} is not open")
        if isinstance(tactic, Rewrite):
            return self._apply_rewrite(sid, tactic)
        if isinstance(tactic, Reflexivity):
            return self._apply_reflexivity(sid)
        raise BadTactic(f"not a primitive tactic: {tactic!r}")

    def _apply_rewrite(self, sid: int, tactic: Rewrite) -> list[int]:
        store = self.store
        state = self.state(sid)
        lhs, _ = self.goal_sides(sid)
        new_lhs = rewrite_lhs(store, lhs, tactic)
        goal_app = store.term(state.goal)
        assert isinstance(goal_app, App)
        new_goal = store.app(goal_app.head, (new_lhs, goal_app.args[1]))
        child = ProofState(ctx=state.ctx, goal=new_goal, sid=self._fresh())
        call = TacticCall("rewrite", tactic_text(tactic), (TacticArg("global", tactic.law.lemma_name),))
        return self._attach(sid, call, (child,), close=False)

    def _apply_reflexivity(self, sid: int) -> _Closed:
        if not self.is_final(sid):
            raise NotTrivial(f"goal of state {sid} is not a trivial equality")
        state = self.state(sid)
        final = ProofState(ctx=state.ctx, goal=state.goal, sid=self._fresh())
        call = TacticCall("reflexivity", tactic_text(Reflexivity()))
        self._attach(sid, call, (final,), close=True)
        return CLOSED

    def undo(self) -> int:
        """Retract the last edge and reopen the state it left; returns that id.

        Afterwards the session equals a fresh one that applied every other
        tactic: the same records, states, open goals, finals and next fresh
        id. The intro edge a product statement opens with is not a tactic and
        is never retracted.
        """
        if not self.records or self.records[-1].tactic.class_name == "intro":
            raise NothingToUndo("no tactic to undo")
        rec = self.records.pop()
        at = self._slots.pop()
        children = rec.children
        if children[0] in self.finals:
            self.finals.difference_update(children)
        else:
            del self.open_goals[at : at + len(children)]
        self.open_goals.insert(at, rec.state_id)
        for child in children:
            del self.states[child]
            del self._parent[child]
        self._next_id = children[0]
        return rec.state_id

    def export_tree(self) -> list[TraceRecord]:
        """Trace records, one per edge, in application order."""
        return list(self.records)


def start_session(store: TermStore, theorem: TermId, lemma: str = "lemma") -> ProofSession:
    return ProofSession(store, theorem, lemma)


def steps_below(session: ProofSession, sid: int) -> int:
    """Edges in the completed subtree rooted at `sid`.

    Raises if any descendant is still open.
    """
    session.state(sid)  # raises on an unknown state
    for goal in session.open_goals:
        cur: int | None = goal
        while cur is not None:
            if cur == sid:
                raise EngineError(f"subtree below {sid} is incomplete: state {goal} is open")
            cur = session._parent.get(cur)
    return record_steps_below(session.records).get(sid, 0)


def tactic_from_call(call: TacticCall) -> Tactic:
    """The primitive tactic a trace call records. Raises BadTactic unless the
    call is a rewrite or a reflexivity whose class matches its text."""
    tactic = parse_tactic(call.raw)
    kind = "reflexivity" if isinstance(tactic, Reflexivity) else "rewrite"
    if call.class_name != kind:
        raise BadTactic(f"{call.class_name} call {call.raw!r} is a {kind}")
    return tactic


def replay_trace(store: TermStore, records: list[TraceRecord]) -> ProofSession:
    """Rebuild a session from exported records, checking ids as it goes."""
    if not records:
        raise ReplayMismatch("empty trace")
    first = records[0]
    if first.state_id != 0:
        raise ReplayMismatch(f"trace must start at state 0, got {first.state_id}")
    session = ProofSession(store, first.goal, lemma=first.lemma)
    start = len(session.records)  # the intro edge a product statement opens with
    if session.records != records[:start]:
        raise ReplayMismatch(f"intro mismatch: expected {first}, produced {session.records[0]}")
    for rec in records[start:]:
        session.apply_tactic(rec.state_id, tactic_from_call(rec.tactic))
        produced = session.records[-1].children
        if produced != rec.children:
            raise ReplayMismatch(
                f"children mismatch at state {rec.state_id}: {produced} != {rec.children}"
            )
    return session
