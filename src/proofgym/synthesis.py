"""End-to-end proof search driven by a trained tactic predictor.

Greedy synthesis proposes the predictor's top tactic at each open state. In
strict mode a proposal the engine rejects ends the attempt. With the oracle
fallback enabled a proposal is first dry-run and checked for completability;
wrong proposals are rejected (never applied) and an oracle step is taken
instead, so every generated theorem still closes while the fallback counter
records how often the model needed help.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Protocol

from .engine import (
    EngineError,
    PatternMismatch,
    ProofSession,
    Reflexivity,
    Rewrite,
    Tactic,
    goal_sides,
    rewrite_lhs,
    start_session,
)
from .models import Classifier, LabeledState, ModelError, decode_toy_tactic

# perfbench/tracer.py wraps `oracle_proof`, `completable`, `rewrite_lhs` and
# `start_session` under this module's names as well as their own, so each must
# stay importable from here; this module no longer calls `oracle_proof`.
from .rewrite import TheoremSpec, completable, oracle_moves, oracle_proof  # noqa: F401
from .terms import Prod, TermId, TermStore


class SynthesisError(Exception):
    pass


class Predictor(Protocol):
    """Proposes tactics. One that caches may also define `fresh()`, returning
    a predictor with empty caches; `run_benchmark` proves each theorem with
    its own."""

    def propose(self, store: TermStore, ctx: tuple[tuple[str, TermId], ...], goal: TermId) -> Tactic:
        """Top tactic for one open proof state."""


class ModelPredictor:
    """Greedy argmax over a trained rewrite-tactic classifier.

    Trivial equalities short-circuit to Reflexivity; the classifier only
    ranks rewrites. A predictor keeps each scored state's probabilities and
    each subterm's embedding rows (`Classifier.predict`'s `known`) for as long
    as it lives, so it must outlive no change to the classifier's weights.
    Rows it reuses may differ from freshly built ones in their last bits.
    """

    def __init__(self, classifier: Classifier) -> None:
        if classifier.space.task != "tac":
            raise ModelError(f"a {classifier.space.task!r} model does not predict toy rewrite tactics")
        self.classifier = classifier
        self._store: TermStore | None = None  # term ids key both caches
        self._known: dict = {}
        self._probs: dict = {}

    def fresh(self) -> "ModelPredictor":
        return ModelPredictor(self.classifier)

    def propose(self, store: TermStore, ctx, goal) -> Tactic:
        lhs, rhs = goal_sides(store, goal)
        if lhs == rhs:
            return Reflexivity()
        if store is not self._store:
            self._store, self._known, self._probs = store, {}, {}
        probs = self._probs.get((ctx, goal))
        if probs is None:
            probs = self.classifier.predict(store, LabeledState("", ctx, goal), known=self._known)
            self._probs[(ctx, goal)] = probs
        return decode_toy_tactic(int(probs.argmax()) + 1)


class OraclePredictor:
    """Always proposes the oracle's next step."""

    def propose(self, store: TermStore, ctx, goal) -> Tactic:
        lhs, rhs = goal_sides(store, goal)
        return next(oracle_moves(store, lhs, rhs), Reflexivity())


@dataclass(frozen=True)
class StepOutcome:
    state: int
    tactic: Tactic
    accepted: bool  # the predictor's proposal was taken, not a fallback


@dataclass
class SynthesisResult:
    lemma: str
    outcome: str  # completed | failed
    steps: list[StepOutcome] = field(default_factory=list)
    fallback_uses: int = 0

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    @property
    def accepted_steps(self) -> int:
        return sum(1 for s in self.steps if s.accepted)


def _sound(store: TermStore, session: ProofSession, sid: int, tactic: Tactic) -> bool:
    """Dry-run check: the tactic applies and leaves the goal completable."""
    if isinstance(tactic, Reflexivity):
        return session.is_final(sid)
    if not isinstance(tactic, Rewrite):
        return False
    lhs, rhs = session.goal_sides(sid)
    try:
        new_lhs = rewrite_lhs(store, lhs, tactic)
    except EngineError:
        return False
    return completable(store, new_lhs, rhs)


def synthesize(
    store: TermStore,
    statement: TermId,
    predictor: Predictor,
    fallback: bool = False,
    lemma: str = "thm",
    budget: int | None = None,
) -> SynthesisResult:
    """Drive one proof attempt; returns the outcome and the steps taken.

    The step budget defaults to the leaf count of the goal's left side, which
    is exactly enough for any non-wasteful rewrite sequence plus Reflexivity.
    """
    session = start_session(store, statement, lemma)
    result = SynthesisResult(lemma, "failed")
    if budget is None:
        sid = session.open_goals[0]
        budget = store.leaf_count(session.goal_sides(sid)[0])
    for _ in range(budget):
        if session.completed:
            break
        sid = session.open_goals[0]
        state = session.state(sid)
        tactic = predictor.propose(store, state.ctx, state.goal)
        accepted = True
        if fallback and not _sound(store, session, sid, tactic):
            tactic = OraclePredictor().propose(store, state.ctx, state.goal)
            accepted = False
            result.fallback_uses += 1
        try:
            session.apply_tactic(sid, tactic)
        except EngineError:
            if fallback:
                raise  # oracle-vetted steps must apply; this is a bug
            return result
        result.steps.append(StepOutcome(sid, tactic, accepted))
    if session.completed:
        result.outcome = "completed"
    return result


@dataclass
class BenchmarkReport:
    n: int
    completed_strict: int
    completed_fallback: int
    mean_fallback_uses: float
    tactic_accuracy: float
    per_theorem: list[dict]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "completed_strict": self.completed_strict,
            "completed_fallback": self.completed_fallback,
            "mean_fallback_uses": self.mean_fallback_uses,
            "tactic_accuracy": self.tactic_accuracy,
            "per_theorem": self.per_theorem,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def theorems_from_records(
    store: TermStore, records, lemma_prefix: str | None = None
) -> list[TheoremSpec]:
    """Recover (name, statement) theorems from trace records via their roots.

    A lemma's root record is the one without a parent; its goal is the closed
    statement. `lemma_prefix` filters by name; falls back to all lemmas when
    nothing matches.
    """
    roots: dict[str, int] = {}
    for rec in records:
        if rec.parent_id is None and rec.lemma not in roots:
            roots[rec.lemma] = rec.goal
    names = sorted(roots)
    if lemma_prefix is not None:
        chosen = [n for n in names if n.startswith(lemma_prefix)]
        names = chosen or names
    out: list[TheoremSpec] = []
    for name in names:
        statement = roots[name]
        term = store.term(statement)
        try:
            lhs, _ = goal_sides(store, term.body if isinstance(term, Prod) else statement)
        except PatternMismatch:
            raise SynthesisError(f"lemma {name!r} is not an equality statement") from None
        out.append(TheoremSpec(name, lhs, statement, proof=()))
    return out


def run_benchmark(
    store: TermStore, theorems: list[TheoremSpec], predictor: Predictor
) -> BenchmarkReport:
    """Strict and fallback synthesis over a theorem list, aggregated."""
    per_theorem: list[dict] = []
    completed_strict = completed_fallback = 0
    fallback_total = 0
    accepted = proposed = 0
    for thm in theorems:
        # The two attempts at a theorem share one predictor's caches; the
        # next theorem starts with empty ones.
        fresh = getattr(predictor, "fresh", None)
        attempt = fresh() if fresh is not None else predictor
        strict = synthesize(store, thm.statement, attempt, fallback=False, lemma=thm.name)
        loose = synthesize(store, thm.statement, attempt, fallback=True, lemma=thm.name)
        completed_strict += strict.completed
        completed_fallback += loose.completed
        fallback_total += loose.fallback_uses
        accepted += loose.accepted_steps
        proposed += len(loose.steps)
        per_theorem.append(
            {
                "lemma": thm.name,
                "strict": strict.outcome,
                "strict_steps": len(strict.steps),
                "fallback": loose.outcome,
                "fallback_uses": loose.fallback_uses,
            }
        )
    n = len(theorems)
    return BenchmarkReport(
        n=n,
        completed_strict=completed_strict,
        completed_fallback=completed_fallback,
        mean_fallback_uses=fallback_total / n if n else 0.0,
        tactic_accuracy=accepted / proposed if proposed else 0.0,
        per_theorem=per_theorem,
    )
