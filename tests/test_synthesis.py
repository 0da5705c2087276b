import random
from contextlib import contextmanager

import numpy as np
import pytest

from proofgym import models, synthesis
from proofgym.autodiff import Adam
from proofgym.engine import Law, Reflexivity, Rewrite, declare_domain, goal_sides
from proofgym.models import Classifier, LabeledState, TrainConfig, decode_toy_tactic, states_for_task, train_step
from proofgym.rewrite import DatasetSpec, gen_dataset_records, gen_theorems, statement_for
from proofgym.sexpr import parse_sexpr, print_sexpr
from proofgym.synthesis import (
    BenchmarkReport,
    ModelPredictor,
    OraclePredictor,
    SynthesisError,
    run_benchmark,
    synthesize,
    theorems_from_records,
)
from proofgym.terms import TermStore

from helpers import dfs_completable, dfs_moves, dfs_oracle_proof


@pytest.fixture
def store():
    s = TermStore()
    declare_domain(s)
    return s


def statement_of(store, text):
    return statement_for(store, parse_sexpr(store, text))


class ConstantPredictor:
    """Always proposes the same tactic; deliberately often wrong."""

    def __init__(self, tactic):
        self.tactic = tactic

    def propose(self, store, ctx, goal):
        return self.tactic


# -- oracle-driven synthesis ------------------------------------------------------


def test_oracle_strict_completes_everything(store):
    theorems, _ = gen_theorems(store, DatasetSpec(n_train=20, n_test=0, length=6, seed=3))
    predictor = OraclePredictor()
    for thm in theorems:
        result = synthesize(store, thm.statement, predictor, fallback=False, lemma=thm.name)
        assert result.completed
        assert result.fallback_uses == 0
        assert all(step.accepted for step in result.steps)
        # length-6 expressions: 5 rewrites + reflexivity
        assert len(result.steps) == 6


def test_oracle_steps_match_oracle_proof(store):
    thm, = gen_theorems(store, DatasetSpec(n_train=1, n_test=0, length=5, seed=1))[0]
    result = synthesize(store, thm.statement, OraclePredictor())
    assert [s.tactic for s in result.steps] == list(thm.proof)


def test_trivial_theorem_closes_in_one_step(store):
    statement = statement_of(store, "(v b)")  # forall b, b = b
    result = synthesize(store, statement, OraclePredictor())
    assert result.completed
    assert [s.tactic for s in result.steps] == [Reflexivity()]


# -- strict mode failure shapes ----------------------------------------------------


def test_strict_fails_on_inapplicable_tactic(store):
    statement = statement_of(store, "(app f (c e) (v b))")
    bad = ConstantPredictor(Rewrite(9, Law.LEFT))  # position out of range
    result = synthesize(store, statement, bad, fallback=False)
    assert not result.completed
    assert result.steps == []


def test_strict_fails_without_reflexivity(store):
    # e (+) (e (+) b): position-1 rewrites reduce the left side to b, but the
    # predictor never proposes Reflexivity and its third rewrite cannot apply
    statement = statement_of(store, "(app f (c e) (app f (c e) (v b)))")
    loop = ConstantPredictor(Rewrite(1, Law.LEFT))
    result = synthesize(store, statement, loop, fallback=False)
    assert not result.completed
    assert len(result.steps) == 2


def test_budget_override(store):
    statement = statement_of(store, "(app f (c e) (v b))")
    stuck = ConstantPredictor(Reflexivity())
    result = synthesize(store, statement, stuck, fallback=False, budget=1)
    assert not result.completed
    assert len(result.steps) <= 1


# -- fallback mode ------------------------------------------------------------------


def test_fallback_always_completes(store):
    theorems, _ = gen_theorems(store, DatasetSpec(n_train=15, n_test=0, length=6, seed=5))
    wrong = ConstantPredictor(Rewrite(9, Law.RIGHT))
    for thm in theorems:
        result = synthesize(store, thm.statement, wrong, fallback=True, lemma=thm.name)
        assert result.completed
        # every step needed the oracle
        assert result.fallback_uses == len(result.steps) == 6
        assert result.accepted_steps == 0


def test_fallback_unused_when_predictor_is_right(store):
    thm, = gen_theorems(store, DatasetSpec(n_train=1, n_test=0, length=7, seed=2))[0]
    result = synthesize(store, thm.statement, OraclePredictor(), fallback=True)
    assert result.completed
    assert result.fallback_uses == 0
    assert result.accepted_steps == len(result.steps)


def test_fallback_rejects_dead_end_rewrite(store):
    # b (+) (e (+) m): RIGHT at position 2 gives b (+) e, a dead end the
    # dry-run must veto even though the rewrite itself applies
    statement = statement_of(store, "(app f (v b) (app f (c e) (c m)))")
    trap = ConstantPredictor(Rewrite(2, Law.RIGHT))
    result = synthesize(store, statement, trap, fallback=True)
    assert result.completed
    assert result.accepted_steps == 0
    assert result.fallback_uses == len(result.steps) == 3


def test_fallback_accepts_valid_non_oracle_move(store):
    # e (+) (e (+) b): both positions are sound left-identity rewrites; the
    # oracle would pick position 1 but position 2 must be accepted as-is
    statement = statement_of(store, "(app f (c e) (app f (c e) (v b)))")
    alt = ConstantPredictor(Rewrite(2, Law.LEFT))
    result = synthesize(store, statement, alt, fallback=True)
    assert result.completed
    assert result.steps[0].tactic == Rewrite(2, Law.LEFT)
    assert result.steps[0].accepted


def test_fallback_vetoes_premature_reflexivity(store):
    statement = statement_of(store, "(app f (c e) (v b))")
    eager = ConstantPredictor(Reflexivity())
    result = synthesize(store, statement, eager, fallback=True)
    assert result.completed
    # first proposal (reflexivity on e (+) b = b) is unsound; the final one is not
    assert result.fallback_uses == 1
    assert result.steps[-1].tactic == Reflexivity()
    assert result.steps[-1].accepted


class TricksterPredictor:
    """Mixes dead-end, inapplicable and sound proposals.

    Each choice is seeded by the printed goal and judged with the reference
    search, so the proposals do not depend on the oracle under test or on
    term ids.
    """

    def propose(self, store, ctx, goal):
        lhs, rhs = store.term(goal).args
        rng = random.Random(print_sexpr(store, goal))
        successors = dfs_moves(store, lhs)
        moves = [move for move, _ in successors]
        dead = [move for move, nxt in successors if not dfs_completable(store, nxt, rhs)]
        roll = rng.random()
        if dead and roll < 0.4:
            return rng.choice(dead)
        if roll < 0.6:
            return Rewrite(rng.randint(1, 12), rng.choice(list(Law)))  # often inapplicable
        if roll < 0.7 or not moves:
            return Reflexivity()
        return rng.choice(moves)


def _fallback_runs(length):
    store = TermStore()
    declare_domain(store)
    theorems, _ = gen_theorems(store, DatasetSpec(n_train=6, n_test=0, length=length, seed=length))
    predictor = TricksterPredictor()
    return [
        synthesize(store, thm.statement, predictor, fallback=True, lemma=thm.name)
        for thm in theorems
    ]


@pytest.mark.parametrize("length", range(8, 13))
def test_fallback_synthesis_matches_dfs_oracle(monkeypatch, length):
    results = _fallback_runs(length)
    monkeypatch.setattr(synthesis, "oracle_proof", dfs_oracle_proof)
    monkeypatch.setattr(synthesis, "completable", dfs_completable)
    reference = _fallback_runs(length)
    assert [r.steps for r in results] == [r.steps for r in reference]
    assert [r.fallback_uses for r in results] == [r.fallback_uses for r in reference]
    assert all(r.completed for r in results)
    # the proposals did go wrong and were also taken
    assert 0 < sum(r.fallback_uses for r in results) < sum(len(r.steps) for r in results)


# -- theorem recovery from traces -----------------------------------------------------


def test_theorems_from_records_roots(store):
    records, _ = gen_dataset_records(store, DatasetSpec(n_train=3, n_test=2, length=4, seed=0))
    theorems = theorems_from_records(store, records)
    assert [t.name for t in theorems] == [
        "thm_test_0000",
        "thm_test_0001",
        "thm_train_0000",
        "thm_train_0001",
        "thm_train_0002",
    ]
    for thm in theorems:
        assert thm.statement == statement_for(store, thm.expr)


def test_theorems_from_records_prefix_filter(store):
    records, _ = gen_dataset_records(store, DatasetSpec(n_train=3, n_test=2, length=4, seed=0))
    test_only = theorems_from_records(store, records, lemma_prefix="thm_test_")
    assert [t.name for t in test_only] == ["thm_test_0000", "thm_test_0001"]
    # an unmatched prefix selects nothing
    assert theorems_from_records(store, records, lemma_prefix="nope_") == []


def test_theorems_from_records_rejects_non_equality(store):
    store.declare("holds")
    goal = store.app(store.const("holds"), [store.const("e")])
    from proofgym.traces import TacticCall, TraceRecord

    rec = TraceRecord("odd", 0, None, (), goal, TacticCall("intro", "intro"), (1,))
    with pytest.raises(SynthesisError, match="equality"):
        theorems_from_records(store, [rec])


# -- benchmark aggregation --------------------------------------------------------


def test_run_benchmark_with_oracle(store):
    theorems, _ = gen_theorems(store, DatasetSpec(n_train=8, n_test=0, length=5, seed=4))
    report = run_benchmark(store, theorems, OraclePredictor())
    assert report.n == 8
    assert report.completed_strict == 8
    assert report.completed_fallback == 8
    assert report.mean_fallback_uses == 0.0
    assert report.tactic_accuracy == 1.0
    assert len(report.per_theorem) == 8
    assert all(row["strict"] == "completed" for row in report.per_theorem)


def test_run_benchmark_with_hopeless_predictor(store):
    theorems, _ = gen_theorems(store, DatasetSpec(n_train=5, n_test=0, length=5, seed=6))
    report = run_benchmark(store, theorems, ConstantPredictor(Rewrite(9, Law.LEFT)))
    assert report.completed_strict == 0
    assert report.completed_fallback == 5
    assert report.mean_fallback_uses == 5.0  # every length-5 proof takes 5 steps
    assert report.tactic_accuracy == 0.0


def test_run_benchmark_empty(store):
    report = run_benchmark(store, [], OraclePredictor())
    assert report.n == 0
    assert report.mean_fallback_uses == 0.0
    assert report.tactic_accuracy == 0.0


def test_benchmark_report_json_round_trip(store):
    import json

    theorems, _ = gen_theorems(store, DatasetSpec(n_train=2, n_test=0, length=4, seed=7))
    report = run_benchmark(store, theorems, OraclePredictor())
    parsed = json.loads(report.to_json())
    assert parsed["n"] == 2
    assert parsed["completed_strict"] == 2
    assert len(parsed["per_theorem"]) == 2


# -- model-backed predictor -----------------------------------------------------------


def test_model_predictor_round_trip(store):
    # an untrained model still yields decodable proposals the engine can try
    from proofgym.models import Classifier, TrainConfig, toy_tactic_space

    clf = Classifier.create(store, toy_tactic_space(), TrainConfig(dim=16, seed=0))
    predictor = ModelPredictor(clf)
    statement = statement_of(store, "(app f (c e) (v b))")
    result = synthesize(store, statement, predictor, fallback=True)
    assert result.completed


def test_model_predictor_short_circuits_reflexivity(store):
    from proofgym.models import Classifier, TrainConfig, toy_tactic_space

    clf = Classifier.create(store, toy_tactic_space(), TrainConfig(dim=16, seed=0))
    predictor = ModelPredictor(clf)
    goal = parse_sexpr(store, "(app eq (v b) (v b))")
    assert predictor.propose(store, (), goal) == Reflexivity()


# -- the per-theorem inference graph ----------------------------------------------------


class UncachedPredictor:
    """ModelPredictor's proposals, each state scored by a graph of its own."""

    def __init__(self, classifier):
        self.classifier = classifier
        self.probs = {}

    def propose(self, store, ctx, goal):
        lhs, rhs = goal_sides(store, goal)
        if lhs == rhs:
            return Reflexivity()
        probs = self.classifier.predict(store, LabeledState("", ctx, goal))
        self.probs[(ctx, goal)] = probs
        return decode_toy_tactic(int(probs.argmax()) + 1)


def _trained_prover(cell, length):
    store = TermStore()
    declare_domain(store)
    records, _ = gen_dataset_records(store, DatasetSpec(n_train=40, n_test=12, length=length, seed=0))
    states, space = states_for_task(records, "tac")
    cfg = TrainConfig(cell=cell, dim=24, batch_size=16, seed=0)
    clf = Classifier.create(store, space, cfg)
    adam = Adam(clf.tensors(), lr=0.01)
    for i in range(8):
        train_step(clf, store, states[16 * i : 16 * i + 16], adam, pass_seed=i + 1)
    return store, clf, theorems_from_records(store, records, lemma_prefix="thm_test_")


@contextmanager
def counting_graph_nodes(counts):
    """Per forward run: (nodes computed before it, nodes it adds, param nodes among them)."""
    original = models.run_forward

    def counted(graph, *args, **kwargs):
        new = graph.nodes[graph.computed :]
        counts.append((graph.computed, len(new), sum(node.op == "param" for node in new)))
        return original(graph, *args, **kwargs)

    models.run_forward = counted
    try:
        yield
    finally:
        models.run_forward = original


@pytest.mark.parametrize("cell,length", [("gru", 10), ("treelstm", 14)])
def test_cached_prover_matches_uncached_predict(cell, length):
    store, clf, theorems = _trained_prover(cell, length)
    cached_nodes, fresh_nodes = [], []
    for thm in theorems:
        cached = ModelPredictor(clf)
        fresh = UncachedPredictor(clf)
        for fallback in (False, True):
            with counting_graph_nodes(cached_nodes):
                got = synthesize(store, thm.statement, cached, fallback=fallback, lemma=thm.name)
            with counting_graph_nodes(fresh_nodes):
                want = synthesize(store, thm.statement, fresh, fallback=fallback, lemma=thm.name)
            assert got.steps == want.steps, (thm.name, fallback)
            assert (got.outcome, got.fallback_uses) == (want.outcome, want.fallback_uses)
        assert cached._probs.keys() == fresh.probs.keys()
        for key, probs in fresh.probs.items():
            np.testing.assert_allclose(cached._probs[key], probs, rtol=1e-9, atol=0)
    # each state is scored once, on its theorem's graph: only the graph's
    # first run builds parameter nodes, and reused subterms build no nodes
    assert len(cached_nodes) < len(fresh_nodes)
    assert all((computed == 0) == (params > 0) for computed, _, params in cached_nodes)
    assert any(computed > 0 for computed, _, _ in cached_nodes)
    assert all(computed == 0 for computed, _, _ in fresh_nodes)
    assert sum(added for _, added, _ in cached_nodes) < 0.5 * sum(added for _, added, _ in fresh_nodes)


def test_run_benchmark_keeps_nothing_between_theorems():
    store, clf, theorems = _trained_prover("gru", 10)
    predictor = ModelPredictor(clf)
    runs = []
    for _ in range(2):
        runs.append([])
        with counting_graph_nodes(runs[-1]):
            report = run_benchmark(store, theorems[:1], predictor)
        assert report.n == 1
    assert runs[0] == runs[1] and runs[0]
    assert predictor._emb is None and not predictor._probs  # every theorem proves with a fresh() copy


def test_model_predictor_drops_its_caches_for_another_store():
    store, clf, theorems = _trained_prover("gru", 10)
    predictor = ModelPredictor(clf)
    synthesize(store, theorems[0].statement, predictor, fallback=True)
    assert predictor._emb.store is store and predictor._probs
    other = TermStore()
    declare_domain(other)
    goal = parse_sexpr(other, "(app eq (app f (c e) (v b)) (v b))")
    predictor.propose(other, (("b", other.const("G")),), goal)
    assert predictor._emb.store is other and predictor._emb.graph.computed > 0
    assert len(predictor._probs) == 1
