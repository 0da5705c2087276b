import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_generic_corpus
from proofgym.engine import Law, Rewrite, declare_domain
from proofgym.models import (
    TOY_MAX_POS,
    Classifier,
    LabeledState,
    ModelError,
    TrainConfig,
    argument_space,
    argument_states,
    average_precision,
    decode_toy_tactic,
    encode_toy_tactic,
    evaluate,
    filter_states,
    group_by_lemma,
    partition_lemmas,
    pos_eval_space,
    pos_eval_states,
    pr_curve,
    pr_curve_csv,
    pr_curve_for,
    recall_at_precision,
    states_for_task,
    toy_tactic_space,
    toy_tactic_states,
    train_argument_model,
    train_classifier,
)
from proofgym.embeddings import CELLS, load_checkpoint, save_checkpoint
from proofgym.rewrite import DatasetSpec, gen_dataset_records
from proofgym.sexpr import parse_sexpr
from proofgym.terms import TermStore
from proofgym.traces import DatasetError, TacticCall, TraceRecord, bin_depth, record_steps_below

SMALL = TrainConfig(dim=16, batch_size=8, lr=0.01, max_epochs=4, patience=2, seed=0)


@pytest.fixture
def store():
    s = TermStore()
    declare_domain(s)
    return s


@pytest.fixture
def toy_records(store):
    records, _ = gen_dataset_records(store, DatasetSpec(n_train=6, n_test=2, length=5, seed=0))
    return records


# -- toy tactic class space -----------------------------------------------------------


def test_encode_toy_tactic_goldens():
    assert encode_toy_tactic(1, Law.LEFT) == 1
    assert encode_toy_tactic(1, Law.RIGHT) == 2
    assert encode_toy_tactic(2, Law.LEFT) == 3
    assert encode_toy_tactic(9, Law.RIGHT) == 18


@given(st.integers(min_value=1, max_value=TOY_MAX_POS), st.sampled_from([Law.LEFT, Law.RIGHT]))
def test_toy_tactic_round_trip(pos, law):
    tac = decode_toy_tactic(encode_toy_tactic(pos, law))
    assert (tac.pos, tac.law) == (pos, law)


@given(st.integers(min_value=1, max_value=2 * TOY_MAX_POS))
def test_toy_class_ids_cover_bijectively(class_id):
    tac = decode_toy_tactic(class_id)
    assert encode_toy_tactic(tac.pos, tac.law) == class_id


def test_toy_tactic_out_of_range():
    with pytest.raises(ModelError):
        encode_toy_tactic(0, Law.LEFT)
    with pytest.raises(ModelError):
        encode_toy_tactic(10, Law.LEFT)
    with pytest.raises(ModelError):
        decode_toy_tactic(19)


def test_toy_space_names():
    space = toy_tactic_space()
    assert space.n_classes == 18
    assert space.names[0] == "rewrite 1 left"
    assert space.names[17] == "rewrite 9 right"


# -- labels from trace records ---------------------------------------------------------


def test_pos_eval_labels_count_descends(store, toy_records):
    states = pos_eval_states(toy_records)
    assert len(states) == len(toy_records)
    # every lemma's root carries the largest label of its lemma
    by_lemma = {}
    for rec, stt in zip(toy_records, states):
        by_lemma.setdefault(rec.lemma, []).append((rec, stt))
    for pairs in by_lemma.values():
        root_label = next(s.label for r, s in pairs if r.parent_id is None)
        assert root_label == max(s.label for _, s in pairs)


def test_pos_eval_binning_golden(store, toy_records):
    # length-5 proofs: root has 6 edges below (intro + 4 rewrites + reflexivity),
    # so per lemma the labels are one medium (root) and five close
    states = pos_eval_states(toy_records)
    by_lemma = {}
    for stt in states:
        by_lemma.setdefault(stt.lemma, []).append(stt.label)
    for labels in by_lemma.values():
        assert sorted(labels) == [1, 1, 1, 1, 1, 2]


def _recursive_steps_below(records):
    """Reference edge counts: one recursive call per state."""
    by_state = {rec.state_id: rec for rec in records}

    def below(sid):
        rec = by_state.get(sid)
        return 0 if rec is None else 1 + sum(below(child) for child in rec.children)

    return {sid: below(sid) for sid in by_state}


@pytest.mark.parametrize("length", [4, 7, 10, 14])
def test_steps_below_matches_recursive_reference(store, length):
    records, _ = gen_dataset_records(store, DatasetSpec(n_train=8, n_test=2, length=length, seed=length))
    records += make_generic_corpus(store, n_lemmas=3)
    for recs in group_by_lemma(records).values():
        assert record_steps_below(recs) == _recursive_steps_below(recs)


def _chain(store, n, close=True):
    """One lemma whose proof is a chain of n states; the last one closes or loops back."""
    goal = store.const("e")
    tactic = TacticCall("rewrite", "rewrite 1 left")
    return [
        TraceRecord("deep", i, i - 1 if i else None, (), goal, tactic,
                    (i + 1,) if i + 1 < n else (() if close else (0,)))
        for i in range(n)
    ]


def test_pos_eval_labels_on_a_chain_deeper_than_the_recursion_limit(store):
    n = 3_000
    states = pos_eval_states(_chain(store, n))
    assert [s.label for s in states] == [bin_depth(n - i) for i in range(n)]


def test_steps_below_rejects_a_cycle(store):
    with pytest.raises(DatasetError, match="own descendant"):
        pos_eval_states(_chain(store, 50, close=False))


def test_toy_tactic_states_skip_non_rewrites(store, toy_records):
    states = toy_tactic_states(toy_records)
    n_rewrites = sum(1 for r in toy_records if r.tactic.class_name == "rewrite")
    assert len(states) == n_rewrites
    assert all(1 <= s.label <= 18 for s in states)


def test_toy_tactic_states_label_matches_raw(store, toy_records):
    states = toy_tactic_states(toy_records)
    rewrites = [r for r in toy_records if r.tactic.class_name == "rewrite"]
    for rec, stt in zip(rewrites, states):
        tac = decode_toy_tactic(stt.label)
        assert rec.tactic.raw == f"rewrite {tac.pos} {tac.law.value}"


def test_argument_states_flags(store):
    records = make_generic_corpus(store, n_lemmas=4)
    states = argument_states(records)
    # root records (empty ctx) are dropped
    assert all(len(s.ctx) >= 1 for s in states)
    for stt in states:
        assert len(stt.arg_flags) == len(stt.ctx)
    # the middle step flags exactly one entry, reflexivity flags none
    flagged = [s for s in states if any(s.arg_flags)]
    assert all(sum(s.arg_flags) == 1 for s in flagged)
    assert len(flagged) == 4


def test_states_for_task_dispatch(store, toy_records):
    states, space = states_for_task(toy_records, "pos")
    assert space.task == "pos" and space.n_classes == 3
    states, space = states_for_task(toy_records, "tac")
    assert space.n_classes == 18
    generic = make_generic_corpus(store, n_lemmas=3)
    states, space = states_for_task(generic, "arg")
    assert space == argument_space()
    assert space.task == "arg" and space.names == ("absent", "present")
    for task in ("no-such-task", "tac-generic"):
        with pytest.raises(ModelError):
            states_for_task(toy_records, task)


# -- lemma partitioning -----------------------------------------------------------


def _split_corpora(store, toy_records):
    """The toy fixture and two corpora without `thm_test_` lemmas."""
    no_test, _ = gen_dataset_records(store, DatasetSpec(n_train=30, n_test=0, length=4, seed=0))
    return {"toy": toy_records, "toy without test lemmas": no_test, "generic": make_generic_corpus(store)}


def test_partition_lemmas_prefix_and_disjoint(store, toy_records):
    train, valid, test = partition_lemmas(toy_records)
    names = {r.lemma for r in toy_records}
    assert test == {n for n in names if n.startswith("thm_test_")}
    assert len(valid) == 1  # 6 train lemmas, 10% rounds to 1
    for corpus, records in _split_corpora(store, toy_records).items():
        train, valid, test = partition_lemmas(records)
        names = {r.lemma for r in records}
        assert train | valid | test == names, corpus
        assert not (train & valid or train & test or valid & test), corpus
        if corpus != "toy":  # a tenth of the lemmas, since none is a test lemma
            assert len(test) == round(0.1 * len(names)), corpus


def test_partition_lemmas_deterministic(store, toy_records):
    for corpus, records in _split_corpora(store, toy_records).items():
        assert partition_lemmas(records, seed=7) == partition_lemmas(records, seed=7), corpus


def test_partition_lemmas_seed_picks_only_the_valid_slice(store, toy_records):
    for corpus, records in _split_corpora(store, toy_records).items():
        splits = [partition_lemmas(records, seed=seed) for seed in range(4)]
        assert len({frozenset(test) for _, _, test in splits}) == 1, corpus
        assert len({frozenset(valid) for _, valid, _ in splits}) > 1, corpus


@pytest.mark.parametrize("n_lemmas,sizes", [(2, (1, 1, 0)), (3, (1, 1, 1))])  # 1 lemma: the next test
def test_partition_lemmas_small_corpora(store, n_lemmas, sizes):
    parts = partition_lemmas(make_generic_corpus(store, n_lemmas=n_lemmas))
    assert tuple(len(p) for p in parts) == sizes
    assert set().union(*parts) == {f"gen_{i:03d}" for i in range(n_lemmas)}


def test_partition_single_lemma_keeps_it_trainable(store):
    records = make_generic_corpus(store, n_lemmas=1)
    train, valid, test = partition_lemmas(records)
    assert train == {"gen_000"} and valid == set() and test == set()


def test_filter_states(store, toy_records):
    states, _ = states_for_task(toy_records, "pos")
    kept = filter_states(states, {"thm_train_0000"})
    assert kept and all(s.lemma == "thm_train_0000" for s in kept)


# -- train config -----------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ModelError):
        TrainConfig(cell="lstm")
    for bad in ({"dim": 0}, {"dim": -4}, {"batch_size": 0}, {"batch_size": -1}):
        with pytest.raises(ModelError, match=">= 1"):
            TrainConfig(**bad)
    TrainConfig(cell="treelstm", dim=1, batch_size=1)  # valid combinations pass


# -- classifier training ------------------------------------------------------------


def test_train_classifier_learns_toy_task(store):
    records, _ = gen_dataset_records(store, DatasetSpec(n_train=12, n_test=2, length=4, seed=1))
    states, space = states_for_task(records, "tac")
    train_l, _, _ = partition_lemmas(records)
    train_states = filter_states(states, train_l)
    # validate on the train split: a tiny held-out set saturates instantly and
    # the best-accuracy snapshot would freeze the first epoch
    cfg = TrainConfig(dim=24, batch_size=8, lr=0.01, max_epochs=100, patience=100, seed=0)
    with pytest.warns(UserWarning):  # tiny corpus misses some of the 18 classes
        clf, history = train_classifier(store, train_states, train_states, space, cfg)
    assert len(history) >= 1
    report = evaluate(clf, store, train_states)
    assert report["accuracy"] >= 0.9


def test_train_classifier_restores_best_snapshot(store, toy_records):
    states, space = states_for_task(toy_records, "tac")
    train_l, valid_l, _ = partition_lemmas(toy_records)
    train_states = filter_states(states, train_l)
    valid_states = filter_states(states, valid_l)
    with pytest.warns(UserWarning):
        clf, history = train_classifier(store, train_states, valid_states, space, SMALL)
    best = max(h.valid_accuracy for h in history)
    assert evaluate(clf, store, valid_states)["accuracy"] == pytest.approx(best)


def test_train_classifier_early_stops(store, toy_records):
    states, space = states_for_task(toy_records, "pos")
    train_l, valid_l, _ = partition_lemmas(toy_records)
    cfg = TrainConfig(dim=8, batch_size=32, lr=0.0, max_epochs=30, patience=2, seed=0)
    clf, history = train_classifier(
        store, filter_states(states, train_l), filter_states(states, valid_l), space, cfg
    )
    # zero lr never improves after the first epoch, so patience cuts the run
    assert len(history) == 3


def test_train_classifier_rejects_empty(store):
    with pytest.raises(ModelError):
        train_classifier(store, [], [], toy_tactic_space(), SMALL)


def test_train_classifier_deterministic(store, toy_records):
    states, space = states_for_task(toy_records, "pos")
    train_l, valid_l, _ = partition_lemmas(toy_records)
    runs = []
    for _ in range(2):
        clf, history = train_classifier(
            store, filter_states(states, train_l), filter_states(states, valid_l), space, SMALL
        )
        runs.append((clf, [h.mean_loss for h in history]))
    assert runs[0][1] == runs[1][1]
    for name, t in runs[0][0].tensors().items():
        assert np.array_equal(t.value, runs[1][0].tensors()[name].value)


def test_evaluate_confusion_golden(store, toy_records):
    states, space = states_for_task(toy_records, "pos")
    clf = Classifier.create(store, space, SMALL)
    report = evaluate(clf, store, states)
    confusion = np.array(report["confusion"])
    assert confusion.shape == (3, 3)
    assert confusion.sum() == len(states) == report["n"]
    assert report["accuracy"] == pytest.approx(np.trace(confusion) / len(states))
    for i, name in enumerate(space.names):
        if confusion[i].sum():
            assert report["per_class"][name] == pytest.approx(
                confusion[i][i] / confusion[i].sum()
            )


def test_evaluate_empty(store):
    clf = Classifier.create(store, pos_eval_space(), SMALL)
    assert evaluate(clf, store, [])["n"] == 0


# -- checkpointing ---------------------------------------------------------------


def _checkpoint_case(store, kind):
    """A fresh model of the kind plus states its outputs are compared on."""
    if kind == "argument":
        states = argument_states(make_generic_corpus(store, n_lemmas=3))
        return Classifier.create(store, argument_space(), SMALL), states
    states, space = states_for_task(
        gen_dataset_records(store, DatasetSpec(n_train=3, n_test=0, length=5, seed=0))[0], "pos"
    )
    return Classifier.create(store, space, SMALL), states


def _outputs(model, store, states):
    if model.space.task == "arg":
        return np.concatenate(model.scores(store, states))
    return model.predict_proba(store, states)


@pytest.mark.parametrize("kind", ["classifier", "argument"])
def test_save_load_bitwise(store, tmp_path, kind):
    model, states = _checkpoint_case(store, kind)
    path = str(tmp_path / f"{kind}.npz")
    model.save(path)
    loaded = Classifier.load(path)
    assert list(loaded.tensors()) == list(model.tensors())
    for name, t in model.tensors().items():
        assert np.array_equal(t.value, loaded.tensors()[name].value)
    assert loaded.space == model.space
    assert np.array_equal(_outputs(model, store, states), _outputs(loaded, store, states))


@pytest.mark.parametrize("kind", ["classifier", "argument"])
def test_load_checkpoint_written_with_separate_model_meta(store, tmp_path, kind):
    # the meta that checkpoints carried when the argument ranker was a class
    # of its own: the argument meta has no classes, bins or eq_map keys. Both
    # carried a model dropout rate, which only training read.
    model, states = _checkpoint_case(store, kind)
    meta = {
        "model": kind,
        "task": model.space.task,
        "cell": model.embed.cell,
        "dim": model.embed.dim,
        "level": "kernel",
        "dropout": 0.3,
        "symbols": sorted(model.embed.symbol_index, key=model.embed.symbol_index.get),
    }
    if kind == "classifier":
        meta.update(classes=list(model.space.names), bins=[5, 19], eq_map=None)
    path = str(tmp_path / f"{kind}.npz")
    save_checkpoint(path, model.tensors(), meta)
    loaded = Classifier.load(path)
    assert loaded.space == model.space
    assert {"classifier": "head_W", "argument": "arg_W"}[kind] in loaded.tensors()
    assert np.array_equal(_outputs(model, store, states), _outputs(loaded, store, states))


def test_load_rejects_unknown_model_kind(store, tmp_path):
    model, _ = _checkpoint_case(store, "classifier")
    path = str(tmp_path / "other.npz")
    save_checkpoint(path, model.tensors(), {"model": "regressor", "task": "pos"})
    with pytest.raises(ModelError, match="regressor"):
        Classifier.load(path)


def test_load_rejects_an_unknown_cell(store, tmp_path):
    model, _ = _checkpoint_case(store, "classifier")
    path = str(tmp_path / "cell.npz")
    model.save(path)
    _, meta = load_checkpoint(path)
    save_checkpoint(path, model.tensors(), {**meta, "cell": "lstm"})
    with pytest.raises(ModelError, match="cell 'lstm'"):
        Classifier.load(path)


def test_load_rejects_depth_bins_other_than_the_fixed_ones(store, tmp_path):
    model, _ = _checkpoint_case(store, "classifier")
    path = str(tmp_path / "bins.npz")
    model.save(path)
    _, meta = load_checkpoint(path)
    assert "bins" not in meta and "dropout" not in meta
    save_checkpoint(path, model.tensors(), {**meta, "bins": [2, 4, 8]})
    with pytest.raises(ModelError, match="bins"):
        Classifier.load(path)


def test_state_and_entry_heads_reject_each_others_calls(store):
    clf, states = _checkpoint_case(store, "classifier")
    with pytest.raises(ModelError):
        clf.scores(store, states)
    model, states = _checkpoint_case(store, "argument")
    with pytest.raises(ModelError):
        model.predict_proba(store, states)


@pytest.mark.parametrize("cell", CELLS)
def test_predict_on_one_embedder_matches_fresh_graphs(store, cell):
    # a goal with a binder, scored again after another state on the same
    # graph: every subterm and parameter node is reused, and as each binder
    # subterm sits at the same binder-stream position as on a fresh graph,
    # the value is a fresh graph's up to the last bits
    clf = Classifier.create(store, toy_tactic_space(), TrainConfig(cell=cell, dim=16, seed=0))
    ctx = (("b", store.const("G")),)
    binder_goal = "(prod x (c G) (app eq (app f (v x) (v b)) (app f (c e) (v x))))"
    binder = LabeledState("", ctx, parse_sexpr(store, binder_goal))
    other = LabeledState("", ctx, parse_sexpr(store, "(prod y (c G) (app eq (app f (c e) (v y)) (v b)))"))
    emb = clf.embedder(store)
    first = clf.predict(store, binder, emb)
    clf.predict(store, other, emb)
    built = len(emb.graph.nodes)
    again = clf.predict(store, binder, emb)
    new = emb.graph.nodes[built:]
    assert not any(node.op in ("param", "const", "gather") for node in new)
    assert len(new) == (len(ctx) + 1) * (3 if cell == "treelstm" else 1) + 2  # the context fold and the head
    fresh = clf.predict(store, binder)
    np.testing.assert_allclose(first, fresh, rtol=1e-9, atol=0)
    np.testing.assert_allclose(again, fresh, rtol=1e-9, atol=0)


@pytest.mark.parametrize("cell", CELLS)
def test_predict_after_a_binder_subterm_matches_a_fresh_graph(store, cell):
    # a binder subterm reused from an earlier state keeps the vectors a fresh
    # graph draws for it, so a state's values do not depend on the states
    # predicted before it
    clf = Classifier.create(store, toy_tactic_space(), TrainConfig(cell=cell, dim=16, seed=0))
    ctx = (("b", store.const("G")),)
    p = "(prod x (c G) (app eq (app f (v x) (v b)) (v b)))"
    q = "(prod y (c G) (app eq (app f (c e) (v y)) (c e)))"
    alone = LabeledState("", ctx, parse_sexpr(store, p))
    pair = LabeledState("", ctx, parse_sexpr(store, f"(app eq {q} {p})"))
    emb = clf.embedder(store)
    clf.predict(store, alone, emb)
    after = clf.predict(store, pair, emb)
    fresh = clf.predict(store, pair)
    assert np.max(np.abs(after - fresh)) <= 1e-9 * np.max(np.abs(fresh))
    again = clf.embedder(store)
    clf.predict(store, alone, again)
    np.testing.assert_array_equal(clf.predict(store, pair, again), after)  # the same order gives the same values


def test_predict_refuses_an_embedder_of_another_model_or_store(store):
    clf = Classifier.create(store, toy_tactic_space(), TrainConfig(dim=16, seed=0))
    state = LabeledState("", (), parse_sexpr(store, "(app eq (app f (c e) (c m)) (c e))"))
    other_clf = Classifier.create(store, toy_tactic_space(), TrainConfig(dim=16, seed=1))
    other_store = TermStore()
    declare_domain(other_store)
    for emb in (other_clf.embedder(store), clf.embedder(other_store)):
        with pytest.raises(ModelError, match="another model or term store"):
            clf.predict(store, state, emb)
    clf.predict(store, state, clf.embedder(store))


# -- argument model ------------------------------------------------------------------


def test_argument_model_learns_type_match_rule(store):
    records = make_generic_corpus(store, n_lemmas=12)
    states = argument_states(records)
    flagged = [s for s in states if any(s.arg_flags)]
    cfg = TrainConfig(dim=24, batch_size=8, lr=0.01, max_epochs=40, patience=40, seed=0)
    model, history = train_argument_model(store, flagged, flagged, cfg)
    curve = pr_curve_for(model, store, flagged)
    assert recall_at_precision(curve, 0.10) == 1.0
    # the rule (entry type mentioned by the goal) is learnable here
    assert recall_at_precision(curve, 0.9) >= 0.9
    assert average_precision(curve) >= 0.95


def test_argument_model_requires_positives(store):
    records = make_generic_corpus(store, n_lemmas=2)
    states = [s for s in argument_states(records) if not any(s.arg_flags)]
    with pytest.raises(ModelError, match="positive"):
        train_argument_model(store, states, states, SMALL)


def test_argument_scores_shapes(store):
    records = make_generic_corpus(store, n_lemmas=3)
    states = argument_states(records)
    model = Classifier.create(store, argument_space(), SMALL)
    scores = model.scores(store, states)
    assert len(scores) == len(states)
    for stt, probs in zip(states, scores):
        assert probs.shape == (len(stt.ctx),)
        assert np.all((probs >= 0) & (probs <= 1))


# -- precision/recall ------------------------------------------------------------------


def test_pr_curve_hand_golden():
    scores = [0.9, 0.8, 0.7, 0.6]
    labels = [True, False, True, False]
    curve = pr_curve(scores, labels)
    assert curve == [
        (0.9, 1.0, 0.5),
        (0.8, 0.5, 0.5),
        (0.7, 2 / 3, 1.0),
        (0.6, 0.5, 1.0),
    ]


def test_pr_curve_groups_ties():
    curve = pr_curve([0.5, 0.5, 0.5], [True, False, True])
    assert curve == [(0.5, 2 / 3, 1.0)]


def test_pr_curve_no_positives_is_empty():
    assert pr_curve([0.9, 0.1], [False, False]) == []


def test_recall_at_precision_goldens():
    curve = [(0.9, 1.0, 0.5), (0.7, 2 / 3, 1.0), (0.6, 0.5, 1.0)]
    assert recall_at_precision(curve, 0.10) == 1.0
    assert recall_at_precision(curve, 0.7) == 0.5
    assert recall_at_precision(curve, 2 / 3) == 1.0
    assert recall_at_precision([], 0.10) == 0.0


def test_average_precision_goldens():
    perfect = pr_curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
    assert average_precision(perfect) == 1.0
    # one inversion: positives at ranks 1 and 3
    curve = pr_curve([0.9, 0.8, 0.7, 0.6], [True, False, True, False])
    assert average_precision(curve) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
    assert average_precision([]) == 0.0


def test_pr_curve_csv_golden():
    curve = [(0.9, 1.0, 0.5), (0.7, 2 / 3, 1.0)]
    assert pr_curve_csv(curve) == "precision,recall\n1.000000,0.500000\n0.666667,1.000000\n"
