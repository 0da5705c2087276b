import random

import pytest
from helpers import binder_wrapped, term_strategy
from hypothesis import given, settings
from hypothesis import strategies as st

from proofgym.engine import (
    CLOSED,
    BadTactic,
    EngineError,
    InvalidPosition,
    Law,
    NothingToUndo,
    NotTrivial,
    OpenTerm,
    PatternMismatch,
    ProofState,
    Reflexivity,
    ReplayMismatch,
    Rewrite,
    StateClosed,
    declare_domain,
    parse_tactic,
    replay_trace,
    rewrite_lhs,
    start_session,
    steps_below,
    tactic_from_call,
    tactic_text,
)
from proofgym.models import TOY_MAX_POS, decode_toy_tactic, toy_tactic_space
from proofgym.protocol import ProtocolServer
from proofgym.rewrite import enumerate_expressions, gen_expression, oracle_proof, statement_for
from proofgym.sexpr import parse_sexpr, print_sexpr
from proofgym.terms import Const, TermStore
from proofgym.traces import TacticCall, record_steps_below
from terms_reference import op_node_at, op_positions, replace_at


@pytest.fixture
def store():
    s = TermStore()
    declare_domain(s)
    return s


def statement(store, text):
    return parse_sexpr(store, text)


RIGHT_ID_THM = "(prod b (c G) (app eq (app f (v b) (c m)) (v b)))"


def test_start_session_intro(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    assert session.open_goals == [1]
    state = session.state(1)
    assert [name for name, _ in state.ctx] == ["b"]
    assert print_sexpr(store, state.ctx[0][1]) == "(c G)"
    assert print_sexpr(store, state.goal) == "(app eq (app f (v b) (c m)) (v b))"


def test_intro_recorded_as_edge(store):
    session = start_session(store, statement(store, RIGHT_ID_THM), lemma="right_id")
    records = session.export_tree()
    assert len(records) == 1
    rec = records[0]
    assert rec.state_id == 0
    assert rec.parent_id is None
    assert rec.tactic.class_name == "intro"
    assert rec.children == (1,)


def test_root_state_keeps_statement(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    assert session.state(0).ctx == ()
    assert print_sexpr(store, session.state(0).goal) == RIGHT_ID_THM


def test_open_statement_rejected(store):
    goal = parse_sexpr(store, "(app eq (v b) (v b))")
    with pytest.raises(OpenTerm):
        start_session(store, goal)


def test_non_prod_closed_statement_allowed(store):
    goal = parse_sexpr(store, "(app eq (c e) (c e))")
    session = start_session(store, goal)
    assert session.open_goals == [0]  # no intro edge
    assert session.export_tree() == []


def test_rewrite_right(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    children = session.apply_tactic(1, Rewrite(1, Law.RIGHT))
    assert children == [2]
    assert print_sexpr(store, session.state(2).goal) == "(app eq (v b) (v b))"
    assert not session.completed


def test_rewrite_left(store):
    thm = statement(store, "(prod b (c G) (app eq (app f (c e) (v b)) (v b)))")
    session = start_session(store, thm)
    session.apply_tactic(1, Rewrite(1, Law.LEFT))
    assert print_sexpr(store, session.state(2).goal) == "(app eq (v b) (v b))"


def test_rewrite_law_mismatch(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    with pytest.raises(PatternMismatch):
        session.apply_tactic(1, Rewrite(1, Law.LEFT))


def test_rewrite_position_out_of_range(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    with pytest.raises(InvalidPosition):
        session.apply_tactic(1, Rewrite(9, Law.LEFT))


def test_rewrite_positions_count_lhs_only(store):
    # rhs contains operator applications too; they must not shift positions
    thm = statement(
        store, "(prod b (c G) (app eq (app f (c e) (v b)) (app f (c e) (v b))))"
    )
    session = start_session(store, thm)
    with pytest.raises(InvalidPosition):
        session.apply_tactic(1, Rewrite(2, Law.LEFT))


def test_second_position_targets_inner_redex(store):
    # b (+) (e (+) m): position 2 is the inner node
    thm = statement(
        store,
        "(prod b (c G) (app eq (app f (v b) (app f (c e) (c m))) (v b)))",
    )
    session = start_session(store, thm)
    session.apply_tactic(1, Rewrite(2, Law.LEFT))
    assert print_sexpr(store, session.state(2).goal) == "(app eq (app f (v b) (c m)) (v b))"


def test_reflexivity_closes_with_fresh_final_child(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    session.apply_tactic(1, Rewrite(1, Law.RIGHT))
    result = session.apply_tactic(2, Reflexivity())
    assert result is CLOSED
    assert session.completed
    assert session.finals == {3}
    # final child copies its parent
    assert session.state(3).goal == session.state(2).goal
    assert session.state(3).ctx == session.state(2).ctx
    # finals have no outgoing edges
    assert all(rec.state_id != 3 for rec in session.records)


def test_reflexivity_requires_trivial_goal(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    with pytest.raises(NotTrivial):
        session.apply_tactic(1, Reflexivity())


def test_closed_state_rejects_tactics(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    session.apply_tactic(1, Rewrite(1, Law.RIGHT))
    session.apply_tactic(2, Reflexivity())
    with pytest.raises(StateClosed):
        session.apply_tactic(2, Reflexivity())


def test_unknown_state_rejected(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    with pytest.raises(EngineError):
        session.apply_tactic(99, Reflexivity())


def test_is_final_requires_identical_sides(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    assert not session.is_final(1)
    session.apply_tactic(1, Rewrite(1, Law.RIGHT))
    assert session.is_final(2)


def _oracle_session(store, length):
    expr = gen_expression(store, random.Random(length), length)
    session = start_session(store, statement_for(store, expr), lemma=f"len{length}")
    sid = 1
    for tactic in oracle_proof(store, expr):
        result = session.apply_tactic(sid, tactic)
        if isinstance(result, list):
            sid = result[0]
    return session


def test_steps_below_examples(store):
    session = _oracle_session(store, 10)
    assert session.completed
    # final state: nothing below
    final = next(iter(session.finals))
    assert steps_below(session, final) == 0
    # post-intro state of a length-10 proof: 9 rewrites + 1 closing edge
    assert steps_below(session, 1) == 10
    assert steps_below(session, 0) == 11


def test_steps_below_incomplete_raises(store):
    session = start_session(store, statement(store, RIGHT_ID_THM))
    with pytest.raises(EngineError):
        steps_below(session, 1)
    session.apply_tactic(1, Rewrite(1, Law.RIGHT))
    # state 2 is open below both 1 and 0
    for sid in (0, 1, 2):
        with pytest.raises(EngineError, match="incomplete"):
            steps_below(session, sid)
    with pytest.raises(EngineError, match="unknown"):
        steps_below(session, 9)


@pytest.mark.parametrize("length", [4, 7, 10, 14])
def test_steps_below_matches_the_record_count(store, length):
    session = _oracle_session(store, length)
    below = record_steps_below(session.records)
    assert all(steps_below(session, rec.state_id) == below[rec.state_id] for rec in session.records)
    assert all(steps_below(session, sid) == 0 for sid in session.finals)


def test_branching_session_after_undo_logs_every_edge():
    # UNDO retracts the last edge; the session then logs each later edge once,
    # as a session that never undid would.
    server = ProtocolServer()
    theorem = "(prod b (c G) (app eq (app f (c e) (app f (v b) (c m))) (v b)))"
    server.handle(f"THEOREM {theorem}")
    server.handle("TACTIC rewrite 1 left")
    server.handle("TACTIC rewrite 1 right")
    assert server.handle("UNDO") == "OK state=2 goal=(app eq (app f (v b) (c m)) (v b))"
    session = server.session
    assert session.open_goals == [2] and [rec.state_id for rec in session.records] == [0, 1]
    (done,) = session.apply_tactic(2, Rewrite(1, Law.RIGHT))
    session.apply_tactic(done, Reflexivity())
    assert session.completed

    assert [rec.state_id for rec in session.records] == [0, 1, 2, done]
    assert session.records[2].children == (done,)
    assert len(session.finals) == 1 and session.finals.isdisjoint(r.state_id for r in session.records)
    assert steps_below(session, 0) == len(session.records) == 4
    assert (steps_below(session, 2), steps_below(session, done)) == (2, 1)
    straight = start_session(server.store, parse_sexpr(server.store, theorem))
    for sid, tactic in ((1, Rewrite(1, Law.LEFT)), (2, Rewrite(1, Law.RIGHT)), (done, Reflexivity())):
        straight.apply_tactic(sid, tactic)
    assert straight.records == session.records


def _view(session):
    return session.records, session.states, session.open_goals, session.finals, session._next_id


@pytest.mark.parametrize("length", [4, 10, 14])
def test_undo_equals_a_fresh_session_of_the_kept_tactics(store, length):
    session = _oracle_session(store, length)
    tactics = [tactic_from_call(rec.tactic) for rec in session.records[1:]]
    for kept in range(len(tactics) - 1, -1, -1):
        reopened = session.records[-1].state_id
        assert session.undo() == reopened
        fresh = start_session(store, session.state(0).goal, lemma=session.lemma)
        for tactic in tactics[:kept]:
            fresh.apply_tactic(fresh.open_goals[0], tactic)
        assert _view(session) == _view(fresh)
        assert session.open_goals == [reopened]
    with pytest.raises(NothingToUndo, match="^no tactic to undo$"):
        session.undo()
    assert [rec.tactic.class_name for rec in session.records] == ["intro"]


def test_undo_without_an_intro_edge_reaches_the_root(store):
    session = start_session(store, statement(store, "(app eq (app f (c e) (c e)) (c e))"))
    with pytest.raises(NothingToUndo):
        session.undo()
    (child,) = session.apply_tactic(0, Rewrite(1, Law.LEFT))
    session.apply_tactic(child, Reflexivity())
    assert session.undo() == child
    assert (session.open_goals, session.finals, session._next_id) == ([child], set(), 2)
    assert session.undo() == 0
    assert (session.records, list(session.states), session.open_goals, session._parent) == ([], [0], [0], {})
    assert session.apply_tactic(0, Rewrite(1, Law.LEFT)) == [child]


def test_undo_reopens_the_parent_where_it_was_among_open_goals(store):
    # no primitive tactic branches, so attach a two-child edge by hand
    session = start_session(store, statement(store, "(app eq (app f (c e) (c e)) (c e))"))
    root = session.state(0)
    left, right = (ProofState(root.ctx, root.goal, session._fresh()) for _ in range(2))
    session._attach(0, TacticCall("split", "split"), (left, right), close=False)
    (child,) = session.apply_tactic(right.sid, Rewrite(1, Law.LEFT))
    session.apply_tactic(left.sid, Rewrite(1, Law.LEFT))
    before_close = (list(session.open_goals), dict(session.states), session._next_id)
    session.apply_tactic(child, Reflexivity())
    assert session.open_goals == [4]
    session.undo()
    assert (session.open_goals, session.states, session._next_id) == before_close
    session.undo()
    assert session.open_goals == [1, child]
    session.undo()
    assert session.open_goals == [1, 2]
    session.undo()
    assert (session.open_goals, list(session.states), session._next_id) == ([0], [0], 1)


def test_rewrite_records(store):
    session = start_session(store, statement(store, RIGHT_ID_THM), lemma="right_id")
    session.apply_tactic(1, Rewrite(1, Law.RIGHT))
    rec = session.export_tree()[-1]
    assert rec.tactic.class_name == "rewrite"
    assert rec.tactic.raw == "rewrite 1 right"
    assert [(a.kind, a.value) for a in rec.tactic.args] == [("global", "right_id")]
    assert rec.state_id == 1
    assert rec.children == (2,)


def test_rewrite_lhs_pure(store):
    thm = statement(store, RIGHT_ID_THM)
    session = start_session(store, thm)
    lhs, _ = session.goal_sides(1)
    new_lhs = rewrite_lhs(store, lhs, Rewrite(1, Law.RIGHT))
    assert print_sexpr(store, new_lhs) == "(v b)"
    with pytest.raises(InvalidPosition):
        rewrite_lhs(store, lhs, Rewrite(2, Law.RIGHT))
    with pytest.raises(PatternMismatch):
        rewrite_lhs(store, lhs, Rewrite(1, Law.LEFT))


def _listed_rewrite_lhs(store, lhs, tactic):
    """rewrite_lhs by listing every operator node first: the slow reference."""
    ops = op_positions(store, lhs, "f")
    if not (1 <= tactic.pos <= len(ops)):
        raise InvalidPosition(f"position {tactic.pos} out of range, goal has {len(ops)} operator nodes")
    left, right = store.term(ops[tactic.pos - 1][1]).args
    if tactic.law is Law.LEFT:
        if store.term(left) != Const("e"):
            raise PatternMismatch(f"node at {tactic.pos} does not match e (+) Y")
        return replace_at(store, lhs, tactic.pos, right, "f")
    if store.term(right) != Const("m"):
        raise PatternMismatch(f"node at {tactic.pos} does not match Y (+) m")
    return replace_at(store, lhs, tactic.pos, left, "f")


def _two_walk_rewrite_lhs(store, lhs, tactic):
    """rewrite_lhs as `op_node_at` to find the node, then `replace_at` to rebuild."""
    at = op_node_at(store, lhs, tactic.pos, "f")
    if at is None:
        ops = len(op_positions(store, lhs, "f"))
        raise InvalidPosition(f"position {tactic.pos} out of range, goal has {ops} operator nodes")
    node = store.term(at)
    if len(node.args) != 2:
        raise PatternMismatch(f"node at {tactic.pos} is not a binary operator application")
    left, right = node.args
    if tactic.law is Law.LEFT:
        if store.term(left) != Const("e"):
            raise PatternMismatch(f"node at {tactic.pos} does not match e (+) Y")
        return replace_at(store, lhs, tactic.pos, right, "f")
    if store.term(right) != Const("m"):
        raise PatternMismatch(f"node at {tactic.pos} does not match Y (+) m")
    return replace_at(store, lhs, tactic.pos, left, "f")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EngineError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("length", range(1, 7))
def test_rewrite_lhs_matches_the_listing_reference(store, length):
    # every position from 0 to one past the end, both laws, same messages
    for expr in sorted(enumerate_expressions(store, length)):
        for pos in range(-1, length + 1):
            for law in Law:
                tactic = Rewrite(pos, law)
                assert _outcome(rewrite_lhs, store, expr, tactic) == _outcome(_listed_rewrite_lhs, store, expr, tactic)


def _interned(store, fn, *args):
    """fn's outcome and the nodes it interned, in order."""
    before = len(store)
    return _outcome(fn, store, *args), [store.term(t) for t in range(before, len(store))]


@pytest.mark.parametrize("length", range(1, 8))
def test_one_walk_rewrite_lhs_matches_two_walks(length):
    # separate stores that start equal, so the nodes each call interns compare too
    one, two = TermStore(), TermStore()
    for s in (one, two):
        declare_domain(s)
    exprs = sorted(enumerate_expressions(one, length))
    assert sorted(enumerate_expressions(two, length)) == exprs
    for expr in exprs:
        for pos in range(-1, length + 1):
            for law in Law:
                tactic = Rewrite(pos, law)
                assert _interned(one, rewrite_lhs, expr, tactic) == _interned(two, _two_walk_rewrite_lhs, expr, tactic)


@settings(max_examples=200, deadline=None)
@given(term_strategy())
def test_one_walk_rewrite_lhs_matches_two_walks_under_binders(spec):
    one, two = TermStore(), TermStore()
    for s in (one, two):
        declare_domain(s)
    terms = binder_wrapped(one, spec)
    assert binder_wrapped(two, spec) == terms
    for tid in terms:
        _assert_one_walk_matches(one, two, tid)


def _assert_one_walk_matches(one, two, tid):
    for pos in range(-1, len(op_positions(one, tid, "f")) + 2):
        for law in Law:
            tactic = Rewrite(pos, law)
            assert _interned(one, rewrite_lhs, tid, tactic) == _interned(two, _two_walk_rewrite_lhs, tid, tactic)


def test_tactic_from_call_round_trip(store):
    assert tactic_from_call(TacticCall("rewrite", "rewrite 3 left")) == Rewrite(3, Law.LEFT)
    assert tactic_from_call(TacticCall("reflexivity", "reflexivity")) == Reflexivity()
    # only the primitive tactics, each under its own class
    for call in (
        TacticCall("intro", "intros a b"),
        TacticCall("reflexivity", "done"),
        TacticCall("rewrite", "reflexivity"),
        TacticCall("reflexivity", "rewrite 1 left"),
        TacticCall("apply", "rewrite 1 left"),
    ):
        with pytest.raises(BadTactic):
            tactic_from_call(call)


def test_tactic_text_round_trips_through_the_parser():
    toy = [decode_toy_tactic(i) for i in range(1, TOY_MAX_POS * 2 + 1)]
    for tactic in [*toy, Reflexivity()]:
        assert parse_tactic(tactic_text(tactic)) == tactic
    assert list(toy_tactic_space().names) == [tactic_text(t) for t in toy]


@pytest.mark.parametrize(
    "text",
    ["", "rewrite one left", "rewrite 1 sideways", "rewrite 1", "reflexivity now", "induction",
     "rewrite 01 left", "rewrite +1 left", "rewrite 1_0 left"],
)
def test_parse_tactic_rejects_malformed_text(text):
    with pytest.raises(BadTactic) as err:
        parse_tactic(text)
    assert err.value.code == "BadArgument"


@given(
    st.lists(
        st.sampled_from(["rewrite", "reflexivity", "left", "right", "0", "1", "12", "-1", "01", "+1", "1_0", "x"]),
        max_size=4,
    ),
    st.sampled_from([" ", "  ", "\t", " \t "]),
)
def test_accepted_tactic_text_prints_back_as_written(words, sep):
    text = sep.join(words)
    try:
        tactic = parse_tactic(text)
    except BadTactic:
        return
    assert tactic_text(tactic) == " ".join(text.split())


def test_replay_trace_full_proof(store):
    import random

    rng = random.Random(11)
    expr = gen_expression(store, rng, 7)
    session = start_session(store, statement_for(store, expr), lemma="replayme")
    sid = 1
    for tactic in oracle_proof(store, expr):
        result = session.apply_tactic(sid, tactic)
        if isinstance(result, list):
            sid = result[0]
    records = session.export_tree()
    rebuilt = replay_trace(store, records)
    assert rebuilt.completed
    assert rebuilt.export_tree() == records


def test_replay_trace_checks_the_intro_record_and_refuses_other_tactics(store):
    from dataclasses import replace

    session = start_session(store, statement(store, RIGHT_ID_THM), lemma="t")
    session.apply_tactic(1, Rewrite(1, Law.RIGHT))
    session.apply_tactic(2, Reflexivity())
    records = session.export_tree()
    renamed = replace(records[0], tactic=TacticCall("intro", "intros b"))
    with pytest.raises(ReplayMismatch, match="intro mismatch"):
        replay_trace(store, [renamed, *records[1:]])
    other = replace(records[1], tactic=TacticCall("apply", "apply right_id"))
    with pytest.raises(BadTactic):
        replay_trace(store, [records[0], other, records[2]])


def test_replay_trace_detects_tampering(store):
    session = start_session(store, statement(store, RIGHT_ID_THM), lemma="t")
    session.apply_tactic(1, Rewrite(1, Law.RIGHT))
    session.apply_tactic(2, Reflexivity())
    records = session.export_tree()
    # corrupt a child pointer
    from dataclasses import replace

    bad = [records[0], replace(records[1], children=(9,)), records[2]]
    with pytest.raises(ReplayMismatch):
        replay_trace(store, bad)
