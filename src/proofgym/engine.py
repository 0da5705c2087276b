"""Proof states, tactics, and interactive sessions.

A session turns a closed theorem statement into a tree of proof states. The
two primitive tactics operate on equality goals: Rewrite contracts one
operator application on the left-hand side using a left or right identity
law, and Reflexivity closes a goal whose two sides are the same term. Closing
an edge creates a fresh final child state, so final states never have
outgoing edges and the number of edges below a state measures the remaining
proof work. A session logs each edge once, as a trace record.

`tactic_text` and `parse_tactic` are the only printer and parser of the
primitive tactics' text form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .terms import App, Const, Prod, TermId, TermStore, Var, op_node_at, op_positions, replace_at
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


@dataclass(frozen=True)
class Generic:
    name: str
    args: tuple[TacticArg, ...] = ()


Tactic = Rewrite | Reflexivity | Generic


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
            return term.args[0][0], term.args[1][0]
    raise PatternMismatch("goal is not an equality")


def rewrite_lhs(store: TermStore, lhs: TermId, tactic: Rewrite) -> TermId:
    """Left side of the goal after one identity rewrite; pure, no session needed.

    Raises InvalidPosition or PatternMismatch exactly as tactic application
    would, which makes it usable as a dry run.
    """
    at = op_node_at(store, lhs, tactic.pos, OP_SYMBOL)
    if at is None:
        ops = len(op_positions(store, lhs, OP_SYMBOL))
        raise InvalidPosition(f"position {tactic.pos} out of range, goal has {ops} operator nodes")
    node = store.term(at)
    if not isinstance(node, App) or len(node.args) != 2:
        raise PatternMismatch(f"node at {tactic.pos} is not a binary operator application")
    left, right = node.args[0][0], node.args[1][0]
    if tactic.law is Law.LEFT:
        if store.term(left) != Const(LEFT_IDENTITY):
            raise PatternMismatch(f"node at {tactic.pos} does not match e (+) Y")
        kept = right
    else:
        if store.term(right) != Const(RIGHT_IDENTITY):
            raise PatternMismatch(f"node at {tactic.pos} does not match Y (+) m")
        kept = left
    return replace_at(store, lhs, tactic.pos, kept, OP_SYMBOL)


class ProofSession:
    """Single-theorem proof-in-progress with its trace log."""

    def __init__(
        self,
        store: TermStore,
        theorem: TermId,
        lemma: str = "lemma",
        intro_call: TacticCall | None = None,
    ) -> None:
        if store.free_vars(theorem):
            raise OpenTerm(f"theorem has free variables {store.free_vars(theorem)}")
        self.store = store
        self.lemma = lemma
        root = ProofState(ctx=(), goal=theorem, sid=0)
        self.states: dict[int, ProofState] = {0: root}
        self.finals: set[int] = set()
        self.records: list[TraceRecord] = []  # one per edge, in application order
        self._parent: dict[int, int] = {}  # child state -> state its edge leaves
        self._next_id = 1
        self.open_goals: list[int] = [0]
        # A product statement enters interaction with its binders introduced;
        # all leading products are consumed by one implicit intro edge.
        ctx: list[tuple[str, TermId]] = []
        body = theorem
        top = store.term(body)
        while isinstance(top, Prod):
            ctx.append((top.binder, top.ty))
            body = top.body
            top = store.term(body)
        if ctx:
            intro = ProofState(ctx=tuple(ctx), goal=body, sid=self._fresh())
            call = intro_call or TacticCall("intro", "intro")
            self._attach(0, call, (intro,), close=False)

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
        raise EngineError("generic tactics need explicit child states; use apply_generic")

    def _apply_rewrite(self, sid: int, tactic: Rewrite) -> list[int]:
        store = self.store
        state = self.state(sid)
        lhs, _ = self.goal_sides(sid)
        new_lhs = rewrite_lhs(store, lhs, tactic)
        goal_app = store.term(state.goal)
        assert isinstance(goal_app, App)
        new_goal = store.app(goal_app.head, [(new_lhs, goal_app.args[0][1]), goal_app.args[1]])
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

    def apply_generic(
        self,
        sid: int,
        call: TacticCall,
        children: list[tuple[tuple[tuple[str, TermId], ...], TermId]] | None,
    ) -> list[int] | _Closed:
        """Graft an externally specified tactic edge.

        `children` lists (ctx, goal) pairs for the new open states; None means
        the edge closes the state, creating a final child that copies it.
        """
        if sid not in self.states:
            raise EngineError(f"unknown state {sid}")
        if sid not in self.open_goals:
            raise StateClosed(f"state {sid} is not open")
        if children is None:
            state = self.state(sid)
            final = ProofState(ctx=state.ctx, goal=state.goal, sid=self._fresh())
            self._attach(sid, call, (final,), close=True)
            return CLOSED
        states = tuple(ProofState(ctx=ctx, goal=goal, sid=self._fresh()) for ctx, goal in children)
        return self._attach(sid, call, states, close=False)

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
    if call.class_name == "rewrite":
        tactic = parse_tactic(call.raw)
        if not isinstance(tactic, Rewrite):
            raise BadTactic(f"rewrite call {call.raw!r} is not a rewrite")
        return tactic
    # Ingested corpora record closing tactics under many raw names.
    if call.class_name == "reflexivity":
        return Reflexivity()
    return Generic(call.raw, call.args)


def replay_trace(store: TermStore, records: list[TraceRecord]) -> ProofSession:
    """Rebuild a session from exported records, checking ids as it goes."""
    if not records:
        raise ReplayMismatch("empty trace")
    first = records[0]
    if first.state_id != 0:
        raise ReplayMismatch(f"trace must start at state 0, got {first.state_id}")
    by_state = {rec.state_id: rec for rec in records}
    start = 1 if first.tactic.class_name == "intro" and first.parent_id is None else 0
    intro_call = first.tactic if start == 1 else None
    session = ProofSession(store, first.goal, lemma=first.lemma, intro_call=intro_call)
    if start == 1 and session.records[:1] != [first]:
        got = session.records[0] if session.records else None
        raise ReplayMismatch(f"intro mismatch: expected {first}, produced {got}")
    for rec in records[start:]:
        tactic = tactic_from_call(rec.tactic)
        if isinstance(tactic, Reflexivity) and not session.is_final(rec.state_id):
            # Ingested traces close goals our trivial-equality check cannot
            # recognize; replay them as generic closing edges instead.
            tactic = Generic(rec.tactic.raw, rec.tactic.args)
        if isinstance(tactic, Generic):
            kids = None
            if any(child in by_state for child in rec.children):
                kids = []
                for child in rec.children:
                    child_rec = by_state.get(child)
                    if child_rec is None:
                        raise ReplayMismatch(f"state {child} has no record and siblings do")
                    kids.append((child_rec.ctx, child_rec.goal))
            result = session.apply_generic(rec.state_id, rec.tactic, kids)
        else:
            result = session.apply_tactic(rec.state_id, tactic)
        produced = session.records[-1].children
        if produced != rec.children:
            raise ReplayMismatch(
                f"children mismatch at state {rec.state_id}: {produced} != {rec.children}"
            )
        del result
    return session
