"""The reference checker against the program, exhaustively at small lengths.

Run from the repository root: python -m pytest perfbench
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import refcheck  # noqa: E402
from proofgym.engine import EngineError, Law, Reflexivity, Rewrite, declare_domain, start_session  # noqa: E402
from proofgym.protocol import ProtocolServer  # noqa: E402
from proofgym.rewrite import (  # noqa: E402
    DatasetSpec,
    enumerate_expressions,
    gen_dataset_records,
    oracle_proof,
    statement_for,
)
from proofgym.sexpr import print_sexpr  # noqa: E402
from proofgym.terms import TermStore  # noqa: E402
from proofgym.traces import write_dataset  # noqa: E402


def as_steps(proof) -> list[tuple]:
    return [
        ("reflexivity",) if isinstance(t, Reflexivity) else ("rewrite", t.pos, t.law.value)
        for t in proof
    ]


def engine_accepts(store: TermStore, statement: int, steps: list[tuple]) -> bool:
    """Whether the program's engine closes the goal with exactly these steps."""
    session = start_session(store, statement)
    try:
        for step in steps:
            tactic = Reflexivity() if step[0] == "reflexivity" else Rewrite(step[1], Law(step[2]))
            session.apply_tactic(session.open_goals[0], tactic)
    except (EngineError, IndexError):
        return False
    return session.completed


def ref_accepts(expr, steps: list[tuple]) -> bool:
    try:
        refcheck.check_proof(expr, steps)
    except refcheck.RefError:
        return False
    return True


def alterations(steps: list[tuple]):
    """One-step changes: each step dropped, its law flipped, its position moved up."""
    for i, step in enumerate(steps):
        yield steps[:i] + steps[i + 1 :]
        if step[0] == "rewrite":
            flipped = "left" if step[2] == "right" else "right"
            yield steps[:i] + [("rewrite", step[1], flipped)] + steps[i + 1 :]
            yield steps[:i] + [("rewrite", step[1] + 1, step[2])] + steps[i + 1 :]


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_every_oracle_proof_accepted_and_every_alteration_judged_like_the_engine(length):
    store = TermStore()
    declare_domain(store)
    rejected = 0
    for expr_id in sorted(enumerate_expressions(store, length)):
        expr = refcheck.parse(print_sexpr(store, expr_id))
        assert refcheck.show(expr) == print_sexpr(store, expr_id)
        assert refcheck.word(expr) == ("b",)
        steps = as_steps(oracle_proof(store, expr_id))
        assert len(steps) == length
        assert ref_accepts(expr, steps)
        statement = statement_for(store, expr_id)
        for altered in alterations(steps):
            verdict = ref_accepts(expr, altered)
            assert verdict == engine_accepts(store, statement, altered), altered
            rejected += not verdict
        for i in range(len(steps)):
            # Dropping a step always leaves a leaf too many.
            assert not ref_accepts(expr, steps[:i] + steps[i + 1 :])
    assert length == 1 or rejected > 0


def test_dataset_check_accepts_generated_data_and_rejects_a_changed_step():
    store = TermStore()
    declare_domain(store)
    records, manifest = gen_dataset_records(store, DatasetSpec(6, 2, 7, seed=3))
    text = write_dataset(records, store, manifest)
    exprs = refcheck.check_dataset(text, 7)
    assert len(exprs) == 8
    first_rewrite = next(line for line in text.splitlines() if '"raw": "rewrite ' in line)
    pos = first_rewrite.split('"raw": "rewrite ')[1].split()[0]
    broken = text.replace(f'"raw": "rewrite {pos} ', f'"raw": "rewrite {int(pos) + 9} ', 1)
    with pytest.raises(refcheck.RefError):
        refcheck.check_dataset(broken, 7)


@pytest.mark.parametrize("length", [3, 8, 14])
def test_protocol_sessions_match_the_server(length):
    rng = random.Random(length)
    server = ProtocolServer()
    for _ in range(20):
        for request, expected in refcheck.protocol_session(rng, length, 0.3, 0.3):
            assert server.handle(request) == expected, request
