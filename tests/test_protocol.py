import io
import random
import string
from collections import Counter

import pytest
from helpers import dfs_moves
from hypothesis import given, settings
from hypothesis import strategies as st
from protocol_reference import ReplayServer

from proofgym import engine, protocol
from proofgym.engine import declare_domain, goal_sides
from proofgym.protocol import ProtocolServer, serve
from proofgym.rewrite import gen_expression, statement_for
from proofgym.sexpr import print_sexpr
from proofgym.terms import ArityMismatch, TermStore
from proofgym.traces import read_dataset

THEOREM = "THEOREM (prod b (c G) (app eq (app f (c e) (app f (v b) (c m))) (v b)))"


def run_script(lines):
    server = ProtocolServer()
    out = []
    for line in lines:
        out.append(server.handle(line))
    return out


# -- golden transcript ---------------------------------------------------------------


def test_golden_transcript():
    # full session: start, rewrite twice, inspect, close, reopen via undo
    script = [
        THEOREM,
        "TACTIC rewrite 1 left",
        "STATE",
        "TACTIC rewrite 1 right",
        "TACTIC reflexivity",
        "UNDO",
        "TACTIC rewrite 9 left",
        "QUIT",
    ]
    expected = [
        "OK state=1 goal=(app eq (app f (c e) (app f (v b) (c m))) (v b))",
        "OK state=2 goal=(app eq (app f (v b) (c m)) (v b)) final=false",
        "OK state=2 ctx={b:(c G)} goal=(app eq (app f (v b) (c m)) (v b))",
        "OK state=3 goal=(app eq (v b) (v b)) final=false",
        "OK closed=true",
        "OK state=3 goal=(app eq (v b) (v b))",
        "ERR InvalidPosition position 9 out of range, goal has 0 operator nodes",
        None,
    ]
    assert run_script(script) == expected


def test_one_step_session_exact_bytes():
    script = [
        "THEOREM (prod b (c G) (app eq (app f (v b) (c m)) (v b)))",
        "TACTIC rewrite 1 right",
        "TACTIC reflexivity",
        "THEOREM (prod b (c G) (app eq (app f (v b) (c m)) (v b)))",
        "TACTIC rewrite 9 left",
    ]
    responses = run_script(script)
    assert responses[:3] == [
        "OK state=1 goal=(app eq (app f (v b) (c m)) (v b))",
        "OK state=2 goal=(app eq (v b) (v b)) final=false",
        "OK closed=true",
    ]
    assert responses[4].startswith("ERR InvalidPosition ")


def test_serve_stream_transcript_bytes():
    text = "\n".join(
        [
            THEOREM,
            "TACTIC rewrite 1 left",
            "",  # blank lines are skipped without a response
            "TACTIC rewrite 1 right",
            "TACTIC reflexivity",
            "QUIT",
        ]
    )
    out = io.StringIO()
    serve(io.StringIO(text + "\n"), out)
    assert out.getvalue() == (
        "OK state=1 goal=(app eq (app f (c e) (app f (v b) (c m))) (v b))\n"
        "OK state=2 goal=(app eq (app f (v b) (c m)) (v b)) final=false\n"
        "OK state=3 goal=(app eq (v b) (v b)) final=false\n"
        "OK closed=true\n"
        "OK bye\n"
    )


def test_serve_stops_at_eof_without_quit():
    out = io.StringIO()
    serve(io.StringIO(THEOREM + "\n"), out)
    assert out.getvalue().startswith("OK state=1 ")


# -- error responses --------------------------------------------------------------


def test_no_session_errors():
    responses = run_script(["TACTIC rewrite 1 left", "STATE", "UNDO"])
    assert responses[0].startswith("ERR NoSession ")
    assert responses[1].startswith("ERR NoSession ")
    assert responses[2].startswith("ERR NoSession ")


def test_unknown_command():
    assert run_script(["PING"])[0].startswith("ERR UnknownCommand ")


def test_bad_arguments():
    server = ProtocolServer()
    server.handle(THEOREM)
    assert server.handle("THEOREM").startswith("ERR BadArgument ")
    assert server.handle("TACTIC").startswith("ERR BadArgument ")
    assert server.handle("TACTIC rewrite one left").startswith("ERR BadArgument ")
    assert server.handle("TACTIC rewrite 1 sideways").startswith("ERR BadArgument ")
    assert server.handle("TACTIC rewrite 1").startswith("ERR BadArgument ")
    assert server.handle("TACTIC reflexivity now").startswith("ERR BadArgument ")
    assert server.handle("TACTIC induction").startswith("ERR BadArgument ")
    for pos in ("01", "+1", "1_0"):
        assert server.handle(f"TACTIC rewrite {pos} left").startswith("ERR BadArgument "), pos


def test_undo_on_fresh_theorem():
    responses = run_script([THEOREM, "UNDO"])
    assert responses[1].startswith("ERR NothingToUndo ")


def test_theorem_parse_and_symbol_errors():
    server = ProtocolServer()
    assert server.handle("THEOREM (app eq (v b)").startswith("ERR ParseError ")
    assert server.handle("THEOREM (c mystery)").startswith("ERR UndeclaredSymbol ")
    # the server survives and still accepts a valid theorem afterwards
    assert server.handle(THEOREM).startswith("OK state=1 ")


def test_theorem_with_an_impl_argument_is_a_parse_error():
    server = ProtocolServer()
    response = server.handle("THEOREM (prod b (c G) (app eq (app f (impl (c e)) (v b)) (v b)))")
    assert response == "ERR ParseError unknown form 'impl' at line 1, column 31"
    assert server.handle(THEOREM).startswith("OK state=1 ")


def test_tactic_after_close_is_state_closed():
    responses = run_script(
        [
            "THEOREM (prod b (c G) (app eq (v b) (v b)))",
            "TACTIC reflexivity",
            "TACTIC rewrite 1 left",
            "STATE",
        ]
    )
    assert responses[1] == "OK closed=true"
    assert responses[2].startswith("ERR StateClosed ")
    assert responses[3].startswith("ERR StateClosed ")


def test_inapplicable_rewrite_reports_engine_code():
    responses = run_script([THEOREM, "TACTIC rewrite 1 right"])
    assert responses[1].startswith("ERR PatternMismatch ")


def test_premature_reflexivity_reports_engine_code():
    responses = run_script([THEOREM, "TACTIC reflexivity"])
    assert responses[1].startswith("ERR NotTrivial ")


# -- session semantics -----------------------------------------------------------


def test_theorem_resets_session():
    server = ProtocolServer()
    server.handle(THEOREM)
    server.handle("TACTIC rewrite 1 left")
    # a new THEOREM discards progress; state numbering restarts from intro
    first = server.handle("THEOREM (prod b (c G) (app eq (app f (c e) (v b)) (v b)))")
    assert first == "OK state=1 goal=(app eq (app f (c e) (v b)) (v b))"
    assert server.handle("UNDO").startswith("ERR NothingToUndo ")


def test_server_keeps_an_empty_store():
    store = TermStore()
    assert ProtocolServer(store).store is store


def test_server_refuses_a_read_store_that_breaks_the_domain_arities():
    # Reading declares `f` with no arity; the domain would fix it at 2, which
    # the stored one-argument application breaks.
    _, store, _ = read_dataset("#manifest {}\n#term 0 (app f (c e))\n")
    with pytest.raises(ArityMismatch, match="cannot declare 'f' with arity 2"):
        ProtocolServer(store)
    assert store.arity("f") is None
    # a read store whose terms fit the domain is served
    _, store, _ = read_dataset("#manifest {}\n#term 0 (app f (c e) (c m))\n")
    assert ProtocolServer(store).handle(THEOREM).startswith("OK state=1 ")


def test_undo_retracts_last_edge():
    server = ProtocolServer()
    server.handle(THEOREM)
    a = server.handle("TACTIC rewrite 1 left")
    b = server.handle("TACTIC rewrite 1 right")
    undone = server.handle("UNDO")
    # back to the state after the first rewrite
    assert undone == "OK state=2 goal=(app eq (app f (v b) (c m)) (v b))"
    redo = server.handle("TACTIC rewrite 1 right")
    assert redo == b
    assert server.handle("TACTIC reflexivity") == "OK closed=true"


def test_undo_chain_to_root():
    server = ProtocolServer()
    server.handle(THEOREM)
    server.handle("TACTIC rewrite 1 left")
    server.handle("TACTIC rewrite 1 right")
    assert server.handle("UNDO").startswith("OK state=2 ")
    assert server.handle("UNDO") == "OK state=1 goal=(app eq (app f (c e) (app f (v b) (c m))) (v b))"
    assert server.handle("UNDO") == "ERR NothingToUndo no tactic to undo"


def test_undo_after_close_reopens():
    server = ProtocolServer()
    server.handle("THEOREM (prod b (c G) (app eq (app f (c e) (v b)) (v b)))")
    server.handle("TACTIC rewrite 1 left")
    assert server.handle("TACTIC reflexivity") == "OK closed=true"
    assert server.handle("UNDO") == "OK state=2 goal=(app eq (v b) (v b))"
    assert server.handle("TACTIC reflexivity") == "OK closed=true"


def test_undo_on_a_statement_without_binders():
    # no intro edge: the root itself is the goal, and UNDO can reach it
    server = ProtocolServer()
    assert server.handle("THEOREM (app eq (c e) (c e))") == "OK state=0 goal=(app eq (c e) (c e))"
    assert server.handle("TACTIC reflexivity") == "OK closed=true"
    assert server.handle("UNDO") == "OK state=0 goal=(app eq (c e) (c e))"
    assert server.handle("UNDO") == "ERR NothingToUndo no tactic to undo"
    assert server.handle("TACTIC reflexivity") == "OK closed=true"


def _chain_theorem(steps):
    """A statement whose proof is steps-1 `rewrite 1 left`, one `rewrite 1 right`."""
    lhs = "(app f (v b) (c m))"
    for _ in range(steps - 1):
        lhs = f"(app f (c e) {lhs})"
    return f"THEOREM (prod b (c G) (app eq {lhs} (v b)))"


def test_undo_calls_neither_the_rewriter_nor_start_session(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(engine, "rewrite_lhs", counting("rewrite_lhs", engine.rewrite_lhs))
    start = counting("start_session", engine.start_session)
    monkeypatch.setattr(engine, "start_session", start)
    monkeypatch.setattr(protocol, "start_session", start)
    server = ProtocolServer()
    assert server.handle(_chain_theorem(13)).startswith("OK state=1 ")
    for _ in range(12):
        assert server.handle("TACTIC rewrite 1 left").startswith("OK state=")
    last = server.handle("TACTIC rewrite 1 right")
    assert last == "OK state=14 goal=(app eq (v b) (v b)) final=false"
    assert calls == Counter(start_session=1, rewrite_lhs=13)

    calls.clear()
    assert server.handle("UNDO").startswith("OK state=13 ")
    assert calls == Counter()
    # the retracted edge's state id is handed out again
    assert server.handle("TACTIC rewrite 1 right") == last


def test_state_shows_context_entry():
    responses = run_script([THEOREM, "STATE"])
    assert responses[1] == (
        "OK state=1 ctx={b:(c G)} goal=(app eq (app f (c e) (app f (v b) (c m))) (v b))"
    )


# -- robustness ------------------------------------------------------------------


def test_responses_are_single_lines():
    junk = [
        "THEOREM (app eq",
        "TACTIC rewrite 1 left",
        "THEOREM",
        "%%%",
        "THEOREM (prod b (c G) (app eq (v b) (v b)))",
        "TACTIC rewrite 0 left",
    ]
    for response in run_script(junk):
        assert response is not None
        assert "\n" not in response
        assert response.startswith(("OK ", "ERR "))


@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + " ()%\t'\"\\_-",
        max_size=60,
    )
)
def test_fuzz_never_crashes(line):
    server = ProtocolServer()
    server.handle(THEOREM)
    response = server.handle(line)
    if response is not None:
        assert response.startswith(("OK ", "ERR "))
    # the server is still usable afterwards
    follow_up = server.handle("STATE")
    assert follow_up.startswith(("OK ", "ERR "))


def test_replaying_requests_reproduces_responses():
    script = [
        THEOREM,
        "TACTIC rewrite 1 left",
        "STATE",
        "UNDO",
        "TACTIC rewrite 1 left",
        "TACTIC rewrite 1 right",
        "TACTIC reflexivity",
    ]
    assert run_script(script) == run_script(script)


# -- UNDO against the replay it replaced ----------------------------------------------

# a product statement (intro edge), and two closed statements without binders
FIXED_THEOREMS = [
    THEOREM,
    "THEOREM (app eq (c e) (c e))",
    "THEOREM (app eq (app f (c e) (app f (c e) (c m))) (c e))",
]


def _servers():
    # one store, so that term ids compare across the two sessions
    store = TermStore()
    return ProtocolServer(store), ReplayServer(store)


def _session_view(server):
    session = server.session
    if session is None:
        return None
    return session.records, session.states, session.open_goals, session.finals, session._next_id


def _assert_same(server, reference, line):
    assert server.handle(line) == reference.handle(line), line
    assert _session_view(server) == _session_view(reference), line


def _seeded_requests(rng, server, theorems):
    """Requests chosen from the live session: mostly valid steps, with invalid
    rewrites, early reflexivity, STATE, new theorems and runs of UNDO."""
    roll = rng.random()
    if server.session is None or roll < 0.04:
        return [rng.choice(theorems)]
    if roll < 0.6:
        if server.session.completed:
            return ["UNDO"]
        goal = server.session.state(server.session.open_goals[0]).goal
        try:
            moves = dfs_moves(server.store, goal_sides(server.store, goal)[0])
        except engine.PatternMismatch:
            moves = []
        tactic = rng.choice(moves)[0] if moves else engine.Reflexivity()
        return [f"TACTIC {engine.tactic_text(tactic)}"]
    if roll < 0.7:
        return [f"TACTIC rewrite {rng.randrange(-1, 9)} {rng.choice(('left', 'right'))}"]
    if roll < 0.75:
        return ["TACTIC reflexivity"]
    if roll < 0.82:
        return ["STATE"]
    return ["UNDO"] * rng.choice((1, 1, 1, 2, 3, 5))


@pytest.mark.parametrize("seed", range(12))
def test_undo_matches_the_replay_reference_on_seeded_scripts(seed):
    rng = random.Random(seed)
    scratch = TermStore()
    declare_domain(scratch)
    generated = [
        f"THEOREM {print_sexpr(scratch, statement_for(scratch, gen_expression(scratch, rng, length)))}"
        for length in (6, 10)
    ]
    theorems = FIXED_THEOREMS + generated
    server, reference = _servers()
    _assert_same(server, reference, theorems[seed % len(theorems)])
    for _ in range(150):
        for line in _seeded_requests(rng, reference, theorems):
            _assert_same(server, reference, line)


REQUESTS = st.sampled_from(
    FIXED_THEOREMS
    + [f"TACTIC rewrite {pos} {law}" for pos in range(0, 5) for law in ("left", "right")]
    + ["TACTIC reflexivity", "STATE", "UNDO", "UNDO", "UNDO"]
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIXED_THEOREMS), st.lists(REQUESTS, max_size=40))
def test_undo_matches_the_replay_reference_on_drawn_scripts(theorem, lines):
    server, reference = _servers()
    for line in [theorem] + lines:
        _assert_same(server, reference, line)
