"""Line-oriented proof service over stdio.

One session at a time, one response line per request line, errors in-band as
`ERR <code> <message>`; the server never raises on malformed input. UNDO
retracts the session's last edge (`ProofSession.undo`), at a cost that does
not grow with the length of the session.

    THEOREM <sexpr>              OK state=<id> goal=<sexpr>
    TACTIC rewrite <pos> <law>   OK state=<id> goal=<sexpr> final=false
    TACTIC reflexivity           OK closed=true
    STATE                        OK state=<id> ctx={nm:(sexpr),..} goal=<sexpr>
    UNDO                         OK state=<id> goal=<sexpr>
    QUIT                         OK bye
"""

from __future__ import annotations

import sys
from typing import IO

from .engine import (
    EngineError,
    ProofSession,
    Reflexivity,
    declare_domain,
    parse_tactic,
    start_session,
)
from .sexpr import parse_sexpr, print_sexpr
from .terms import TermError, TermStore


class ProtocolError(Exception):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _one_line(text: str) -> str:
    return " ".join(str(text).split()) or "error"


class ProtocolServer:
    """Parses commands, drives one ProofSession, formats responses."""

    def __init__(self, store: TermStore | None = None) -> None:
        self.store = TermStore() if store is None else store
        declare_domain(self.store)
        self.session: ProofSession | None = None

    # -- response helpers -------------------------------------------------------

    def _current_sid(self) -> int:
        assert self.session is not None
        if not self.session.open_goals:
            raise ProtocolError("StateClosed", "proof is complete")
        return self.session.open_goals[0]

    def _state_line(self, with_ctx: bool) -> str:
        sid = self._current_sid()
        state = self.session.state(sid)
        goal = print_sexpr(self.store, state.goal)
        if not with_ctx:
            return f"OK state={sid} goal={goal}"
        entries = ",".join(f"{name}:{print_sexpr(self.store, ty)}" for name, ty in state.ctx)
        return f"OK state={sid} ctx={{{entries}}} goal={goal}"

    # -- commands -------------------------------------------------------------------

    def handle(self, line: str) -> str | None:
        """Response for one request line; None means shut down (after QUIT/EOF)."""
        try:
            return self._dispatch(line)
        except ProtocolError as exc:
            return f"ERR {exc.code} {_one_line(exc.args[0])}"
        except EngineError as exc:
            return f"ERR {exc.code} {_one_line(exc.args[0] if exc.args else exc)}"
        except TermError as exc:
            return f"ERR {type(exc).__name__} {_one_line(exc.args[0] if exc.args else exc)}"
        except Exception as exc:  # malformed input must never kill the loop
            return f"ERR Internal {_one_line(f'{type(exc).__name__}: {exc}')}"

    def _dispatch(self, line: str) -> str | None:
        parts = line.split(maxsplit=1)
        if not parts:
            raise ProtocolError("UnknownCommand", "empty request")
        cmd, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if cmd == "THEOREM":
            return self._cmd_theorem(rest)
        if cmd == "TACTIC":
            return self._cmd_tactic(rest)
        if cmd == "STATE":
            self._need_session()
            return self._state_line(with_ctx=True)
        if cmd == "UNDO":
            return self._cmd_undo()
        if cmd == "QUIT":
            return None
        raise ProtocolError("UnknownCommand", f"unknown command {cmd!r}")

    def _need_session(self) -> ProofSession:
        if self.session is None:
            raise ProtocolError("NoSession", "no theorem has been started")
        return self.session

    def _cmd_theorem(self, rest: str) -> str:
        if not rest.strip():
            raise ProtocolError("BadArgument", "THEOREM needs a term")
        tid = parse_sexpr(self.store, rest)
        self.session = start_session(self.store, tid)
        return self._state_line(with_ctx=False)

    def _cmd_tactic(self, rest: str) -> str:
        session = self._need_session()
        tactic = parse_tactic(rest)
        sid = self._current_sid()
        result = session.apply_tactic(sid, tactic)
        if isinstance(tactic, Reflexivity):
            return "OK closed=true"
        child = result[0]
        goal = print_sexpr(self.store, session.state(child).goal)
        return f"OK state={child} goal={goal} final=false"

    def _cmd_undo(self) -> str:
        self._need_session().undo()
        return self._state_line(with_ctx=False)


def serve(in_stream: IO[str] | None = None, out_stream: IO[str] | None = None) -> None:
    """Run the request/response loop until QUIT or EOF."""
    in_stream = in_stream or sys.stdin
    out_stream = out_stream or sys.stdout
    server = ProtocolServer()
    for raw in in_stream:
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        response = server.handle(line)
        if response is None:
            out_stream.write("OK bye\n")
            out_stream.flush()
            return
        out_stream.write(response + "\n")
        out_stream.flush()
