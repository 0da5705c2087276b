import io
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proofgym.protocol import ProtocolServer, serve

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


def test_undo_replays_prefix():
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
    assert server.handle("UNDO").startswith("ERR NothingToUndo ")


def test_undo_after_close_reopens():
    server = ProtocolServer()
    server.handle("THEOREM (prod b (c G) (app eq (app f (c e) (v b)) (v b)))")
    server.handle("TACTIC rewrite 1 left")
    assert server.handle("TACTIC reflexivity") == "OK closed=true"
    assert server.handle("UNDO") == "OK state=2 goal=(app eq (v b) (v b))"
    assert server.handle("TACTIC reflexivity") == "OK closed=true"


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
