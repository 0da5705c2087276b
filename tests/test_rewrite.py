import random

import pytest
from hypothesis import given, settings, strategies as st

from proofgym.engine import Law, Reflexivity, Rewrite, declare_domain, start_session
from proofgym.rewrite import (
    DatasetSpec,
    GenerationError,
    OracleError,
    completable,
    enumerate_expressions,
    eval_word,
    gen_dataset_records,
    gen_expression,
    gen_theorems,
    oracle_moves,
    oracle_proof,
    prove_with_oracle,
    statement_for,
)
from proofgym.sexpr import parse_sexpr, print_sexpr
from proofgym.synthesis import OraclePredictor
from proofgym.terms import TermStore

from helpers import deep_term, dfs_moves, dfs_oracle_proof


@pytest.fixture
def store():
    s = TermStore()
    declare_domain(s)
    return s


def parse(store, text):
    return parse_sexpr(store, text)


# -- the denotation oracle ------------------------------------------------------------


def test_eval_word_identities_vanish(store):
    assert eval_word(store, parse(store, "(c e)")) == ()
    assert eval_word(store, parse(store, "(c m)")) == ()
    assert eval_word(store, parse(store, "(v b)")) == ("b",)


def test_eval_word_concatenates(store):
    t = parse(store, "(app f (app f (c e) (v b)) (c m))")
    assert eval_word(store, t) == ("b",)


def test_eval_word_rejects_foreign_terms(store):
    with pytest.raises(OracleError):
        eval_word(store, parse(store, "(prod x (c G) (v x))"))


# -- generation ------------------------------------------------------------------


@pytest.mark.parametrize("length", range(1, 12))
def test_gen_expression_length_and_value(store, length):
    rng = random.Random(length * 17)
    for _ in range(25):
        expr = gen_expression(store, rng, length)
        assert store.leaf_count(expr) == length
        assert eval_word(store, expr) == ("b",)


def test_gen_expression_contains_exactly_one_value_leaf(store):
    rng = random.Random(5)
    for _ in range(50):
        expr = gen_expression(store, rng, 8)
        text = print_sexpr(store, expr)
        assert text.count("(v b)") == 1


def test_gen_expression_deterministic(store):
    a = [print_sexpr(store, gen_expression(store, random.Random(42), 9)) for _ in range(5)]
    b = [print_sexpr(store, gen_expression(store, random.Random(42), 9)) for _ in range(5)]
    assert a == b


def test_statement_for_shape(store):
    expr = parse(store, "(app f (v b) (c m))")
    st_ = statement_for(store, expr)
    assert print_sexpr(store, st_) == "(prod b (c G) (app eq (app f (v b) (c m)) (v b)))"


def test_gen_theorems_distinct_and_named(store):
    train, test = gen_theorems(store, DatasetSpec(n_train=6, n_test=3, length=7, seed=0))
    assert len(train) == 6 and len(test) == 3
    exprs = {t.expr for t in train + test}
    assert len(exprs) == 9
    assert train[0].name == "thm_train_0000"
    assert test[-1].name == "thm_test_0002"


def test_gen_theorems_infeasible_request(store):
    with pytest.raises(GenerationError):
        gen_theorems(store, DatasetSpec(n_train=5, n_test=5, length=1, seed=0))


def test_gen_theorems_proofs_attached(store):
    train, _ = gen_theorems(store, DatasetSpec(n_train=2, n_test=1, length=5, seed=3))
    for thm in train:
        assert len(thm.proof) == 5  # 4 rewrites + reflexivity
        assert isinstance(thm.proof[-1], Reflexivity)


# -- the search oracle ---------------------------------------------------------------


def test_oracle_proof_length_law(store):
    rng = random.Random(0)
    for length in range(1, 11):
        expr = gen_expression(store, rng, length)
        proof = oracle_proof(store, expr)
        rewrites = [t for t in proof if isinstance(t, Rewrite)]
        assert len(rewrites) == length - 1
        assert isinstance(proof[-1], Reflexivity)


def test_oracle_proof_replays_to_closed_session(store):
    rng = random.Random(1)
    expr = gen_expression(store, rng, 9)
    session = start_session(store, statement_for(store, expr))
    sid = 1
    for tactic in oracle_proof(store, expr):
        result = session.apply_tactic(sid, tactic)
        if isinstance(result, list):
            sid = result[0]
    assert session.completed


def test_oracle_prefers_first_applicable_move(store):
    # e (+) (b (+) m): LEFT at 1 applies and wins the tie-break
    expr = parse(store, "(app f (c e) (app f (v b) (c m)))")
    proof = oracle_proof(store, expr)
    assert proof[0] == Rewrite(1, Law.LEFT)


def test_oracle_backtracks_out_of_dead_ends(store):
    # b (+) (e (+) m): RIGHT at position 2 leads to the dead end b (+) e;
    # the oracle must pick LEFT at 2 then RIGHT at 1.
    expr = parse(store, "(app f (v b) (app f (c e) (c m)))")
    proof = oracle_proof(store, expr)
    assert proof == [Rewrite(2, Law.LEFT), Rewrite(1, Law.RIGHT), Reflexivity()]


def test_dead_end_is_unprovable(store):
    expr = parse(store, "(app f (v b) (c e))")  # b (+) e: no redex
    with pytest.raises(OracleError):
        oracle_proof(store, expr)


def test_oracle_on_trivial_expression(store):
    assert oracle_proof(store, parse(store, "(v b)")) == [Reflexivity()]


def test_completable(store):
    assert completable(store, parse(store, "(app f (c e) (v b))"))
    assert completable(store, parse(store, "(v b)"))  # trivially, zero rewrites
    assert not completable(store, parse(store, "(app f (v b) (c e))"))


def test_deep_nesting_raises_oracle_error(store):
    deep = deep_term(store, 5000)
    with pytest.raises(OracleError, match="nested too deeply"):
        oracle_proof(store, deep)
    with pytest.raises(OracleError, match="nested too deeply"):
        completable(store, deep)
    with pytest.raises(OracleError, match="nested too deeply"):
        next(oracle_moves(store, deep))


def test_oracle_custom_target(store):
    # reduce e (+) (b (+) m) down to b (+) m rather than b
    expr = parse(store, "(app f (c e) (app f (v b) (c m)))")
    target = parse(store, "(app f (v b) (c m))")
    proof = oracle_proof(store, expr, target)
    assert proof == [Rewrite(1, Law.LEFT), Reflexivity()]


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_oracle_solves_every_generated_expression(length, seed):
    store = TermStore()
    declare_domain(store)
    expr = gen_expression(store, random.Random(seed), length)
    proof = oracle_proof(store, expr)
    assert len(proof) == length


def test_enumerate_expressions_small_lengths(store):
    assert len(enumerate_expressions(store, 1)) == 1  # just b
    two = enumerate_expressions(store, 2)
    # e (+) b and b (+) m
    assert {print_sexpr(store, t) for t in two} == {
        "(app f (c e) (v b))",
        "(app f (v b) (c m))",
    }


def test_generator_image_subset_of_enumeration(store):
    universe = enumerate_expressions(store, 5)
    rng = random.Random(9)
    for _ in range(200):
        assert gen_expression(store, rng, 5) in universe


def test_prove_with_oracle_and_records(store):
    records, manifest = gen_dataset_records(store, DatasetSpec(3, 2, 4, seed=2))
    assert manifest["kind"] == "toy"
    # 5 theorems, each with intro + 3 rewrites + reflexivity = 5 records
    assert len(records) == 25
    lemmas = {r.lemma for r in records}
    assert len(lemmas) == 5
    train, test = gen_theorems(store, DatasetSpec(3, 2, 4, seed=2))
    session = prove_with_oracle(store, train[0])
    assert session.completed


# -- differential checks against the depth-first reference ------------------------------


def _proof_or_none(oracle, store, expr, target=None):
    try:
        return oracle(store, expr, target)
    except OracleError:
        return None


def _moves_then_reflexivity(store, expr, target):
    return [*oracle_moves(store, expr, target), Reflexivity()]


def _assert_agrees(store, expr, target=None):
    expected = _proof_or_none(dfs_oracle_proof, store, expr, target)
    assert _proof_or_none(oracle_proof, store, expr, target) == expected
    assert _proof_or_none(_moves_then_reflexivity, store, expr, target) == expected
    assert completable(store, expr, target) == (expected is not None)
    goal = store.app(store.const("eq"), [expr, store.var("b") if target is None else target])
    if expected is None:
        with pytest.raises(OracleError):
            OraclePredictor().propose(store, (), goal)
    else:
        assert OraclePredictor().propose(store, (), goal) == expected[0]


@pytest.mark.parametrize("length", range(1, 8))
def test_oracle_matches_dfs_on_every_expression_and_successor(store, length):
    # successors include every dead end one wrong rewrite away
    for expr in sorted(enumerate_expressions(store, length)):
        _assert_agrees(store, expr)
        for _, successor in dfs_moves(store, expr):
            _assert_agrees(store, successor)


def _subterms(store, tid):
    out = {tid}
    term = store.term(tid)
    for child, _ in getattr(term, "args", ()):
        out |= _subterms(store, child)
    return out


@pytest.mark.parametrize("length", range(1, 6))
def test_oracle_matches_dfs_on_subterm_targets(store, length):
    for expr in sorted(enumerate_expressions(store, length)):
        for target in sorted(_subterms(store, expr)):
            _assert_agrees(store, expr, target)


@pytest.mark.parametrize("length", range(10, 17))
def test_oracle_matches_dfs_on_random_draws(store, length):
    rng = random.Random(1000 + length)
    for _ in range(15):
        _assert_agrees(store, gen_expression(store, rng, length))


def test_long_theorems_prove_by_the_length_law(store):
    # far beyond what an exhaustive search reaches
    train, test = gen_theorems(store, DatasetSpec(n_train=2, n_test=1, length=100, seed=0))
    for thm in train + test:
        rewrites = [t for t in thm.proof if isinstance(t, Rewrite)]
        assert len(rewrites) == 99
        assert len(thm.proof) == 100 and isinstance(thm.proof[-1], Reflexivity)
        assert prove_with_oracle(store, thm).completed
