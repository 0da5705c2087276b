"""The replay-based UNDO, kept as a test reference.

`proofgym.protocol.ProtocolServer` answers UNDO with `ProofSession.undo`,
which retracts the session's last edge. `ReplayServer` is the server it
replaced: it remembers the theorem and every tactic that succeeded, and
answers UNDO by starting a fresh session and applying all but the last of
them again, at a cost that grows with the session. The differential tests in
`test_protocol.py` hold the two to the same response lines and the same
session after every request.
"""

from __future__ import annotations

from proofgym.engine import Reflexivity, Tactic, parse_tactic, start_session
from proofgym.protocol import ProtocolError, ProtocolServer
from proofgym.sexpr import parse_sexpr, print_sexpr
from proofgym.terms import TermStore


class ReplayServer(ProtocolServer):
    def __init__(self, store: TermStore | None = None) -> None:
        super().__init__(store)
        self.theorem: int | None = None
        self.tactics: list[Tactic] = []

    def _cmd_theorem(self, rest: str) -> str:
        if not rest.strip():
            raise ProtocolError("BadArgument", "THEOREM needs a term")
        tid = parse_sexpr(self.store, rest)
        self.session = start_session(self.store, tid)
        self.theorem = tid
        self.tactics = []
        return self._state_line(with_ctx=False)

    def _cmd_tactic(self, rest: str) -> str:
        session = self._need_session()
        tactic = parse_tactic(rest)
        sid = self._current_sid()
        result = session.apply_tactic(sid, tactic)
        self.tactics.append(tactic)
        if isinstance(tactic, Reflexivity):
            return "OK closed=true"
        child = result[0]
        goal = print_sexpr(self.store, session.state(child).goal)
        return f"OK state={child} goal={goal} final=false"

    def _cmd_undo(self) -> str:
        self._need_session()
        if not self.tactics:
            raise ProtocolError("NothingToUndo", "no tactic to undo")
        kept = self.tactics[:-1]
        session = start_session(self.store, self.theorem)
        for tactic in kept:
            session.apply_tactic(session.open_goals[0], tactic)
        self.session = session
        self.tactics = kept
        return self._state_line(with_ctx=False)
