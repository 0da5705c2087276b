"""Release gate: the deliverable behaviors checked end to end at full scale.

Each criterion prints exactly one PASS/FAIL summary line (run with -s to
watch them scroll by); the assertion carries the same detail, so a FAIL line
always comes with a pytest failure naming the violated clause.
"""

import random
import time

import numpy as np
import pytest

from helpers import central_differences, max_relative_error
from test_autodiff import op_builders
from proofgym.autodiff import CompGraph, Tensor, forward_backward, run_backward, run_forward
from proofgym.baselines import constant_baseline, extract_features, train_linear_baseline
from proofgym.embeddings import EmbedConfig, EmbedParams, StateEmbedder
from proofgym.engine import Reflexivity, Rewrite, declare_domain
from proofgym.models import (
    TrainConfig,
    evaluate,
    filter_states,
    partition_lemmas,
    pos_eval_space,
    states_for_task,
    train_classifier,
)
from proofgym.protocol import ProtocolServer
from proofgym.rewrite import (
    DatasetSpec,
    TheoremSpec,
    gen_dataset_records,
    gen_expression,
    oracle_proof,
    prove_with_oracle,
    statement_for,
)
from proofgym.sexpr import print_sexpr
from proofgym.synthesis import ModelPredictor, run_benchmark, theorems_from_records
from proofgym.terms import App, Prod, TermStore
from proofgym.traces import bin_depth, read_dataset, write_dataset


def report(num: int, name: str, t0: float, checks: dict[str, bool]) -> None:
    """One summary line per criterion, then the hard assertion."""
    status = "PASS" if all(checks.values()) else "FAIL"
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num}] {status} {name} ({elapsed:.1f}s)")
    failing = [clause for clause, ok in checks.items() if not ok]
    assert not failing, f"criterion {num} ({name}) violated: " + "; ".join(failing)


def fresh_domain() -> TermStore:
    store = TermStore()
    declare_domain(store)
    return store


@pytest.fixture(scope="module")
def toy_corpus():
    """The default benchmark corpus: 400 train / 50 test lemmas at length 10."""
    store = fresh_domain()
    records, manifest = gen_dataset_records(store, DatasetSpec(400, 50, 10, 0))
    return store, records


def partitioned(records, states):
    train_l, valid_l, test_l = partition_lemmas(records, seed=0)
    return tuple(filter_states(states, part) for part in (train_l, valid_l, test_l))


# -- 1: proof-length law -----------------------------------------------------------


def test_criterion_1_proof_length_law():
    t0 = time.perf_counter()
    store = fresh_domain()
    n_checked = 0
    length_law = True
    replays = True
    for length in range(2, 11):
        # lengths 2 and 3 admit fewer distinct expressions than draws, so the
        # sample is with replacement; the law is per proof either way
        rng = random.Random(1000 + length)
        for i in range(1000):
            expr = gen_expression(store, rng, length)
            proof = oracle_proof(store, expr)
            rewrites = sum(isinstance(t, Rewrite) for t in proof)
            if rewrites != length - 1 or not isinstance(proof[-1], Reflexivity):
                length_law = False
            thm = TheoremSpec(f"acc1_{length}_{i}", expr, statement_for(store, expr), tuple(proof))
            if not prove_with_oracle(store, thm).completed:
                replays = False
            n_checked += 1
    elapsed = time.perf_counter() - t0
    report(1, "proof-length law", t0, {
        f"{n_checked} proofs checked": n_checked == 9000,
        "every oracle proof has exactly L-1 rewrites then reflexivity": length_law,
        "every oracle proof replays to a closed session": replays,
        f"runtime {elapsed:.1f}s < 30s": elapsed < 30.0,
    })


# -- 2: end-to-end toy benchmark ----------------------------------------------------


def test_criterion_2_end_to_end_benchmark(toy_corpus):
    t0 = time.perf_counter()
    store, records = toy_corpus
    states, space = states_for_task(records, "tac")
    train_s, valid_s, test_s = partitioned(records, states)
    cfg = TrainConfig(cell="gru", dim=128, batch_size=32, lr=0.001, seed=0)
    clf, _ = train_classifier(store, train_s, valid_s, space, cfg)
    accuracy = evaluate(clf, store, test_s)["accuracy"]
    theorems = theorems_from_records(store, records, lemma_prefix="thm_test_")
    bench = run_benchmark(store, theorems, ModelPredictor(clf))
    elapsed = time.perf_counter() - t0
    report(2, "end-to-end toy benchmark", t0, {
        "benchmark covers the 50 held-out theorems": bench.n == 50,
        f"held-out tactic accuracy {accuracy:.4f} >= 0.85": accuracy >= 0.85,
        f"strict completions {bench.completed_strict}/50 >= 5": bench.completed_strict >= 5,
        f"fallback completions {bench.completed_fallback}/50 == 50": bench.completed_fallback == 50,
        f"mean fallback uses {bench.mean_fallback_uses:.2f} <= 3": bench.mean_fallback_uses <= 3.0,
        f"runtime {elapsed:.0f}s < 30min": elapsed < 1800.0,
    })


# -- 3: baseline ordering -----------------------------------------------------------


def test_criterion_3_baseline_ordering(toy_corpus):
    t0 = time.perf_counter()
    store, records = toy_corpus
    states, space = states_for_task(records, "pos")
    train_s, valid_s, test_s = partitioned(records, states)
    test_labels = np.array([s.label for s in test_s])

    const_label = constant_baseline([s.label for s in train_s])
    const_acc = float((test_labels == const_label).mean())

    def features(split):
        return np.array([extract_features(store, s.ctx, s.goal).as_array() for s in split])

    with pytest.warns(UserWarning):  # L=10 proofs never reach the far bin
        linear = train_linear_baseline(features(train_s), [s.label for s in train_s], space.n_classes)
    linear_acc = float((linear.predict(features(test_s)) == test_labels).mean())

    cfg = TrainConfig(cell="gru", dim=32, batch_size=32, lr=0.001, max_epochs=10, patience=3, seed=0)
    clf, _ = train_classifier(store, train_s, valid_s, space, cfg)
    recurrent_acc = evaluate(clf, store, test_s)["accuracy"]

    report(3, "baseline ordering on position evaluation", t0, {
        f"constant {const_acc:.4f} <= linear {linear_acc:.4f}": const_acc <= linear_acc,
        f"linear {linear_acc:.4f} <= recurrent {recurrent_acc:.4f}": linear_acc <= recurrent_acc,
        f"recurrent beats constant by {100 * (recurrent_acc - const_acc):.1f}pts >= 10":
            recurrent_acc - const_acc >= 0.10,
    })


# -- 4: gradient correctness --------------------------------------------------------


def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    worst_op = 0.0
    for _, tensors, build in op_builders():
        graph, loss = build()
        _, grads = forward_backward(graph, loss)
        worst_op = max(worst_op, max_relative_error(grads, central_differences(build, tensors)))

    rng = np.random.default_rng(7)
    drop_x = Tensor("x", rng.standard_normal(6))

    def build_dropout():
        g = CompGraph(dropout_seed=99)
        return g, g.vsum(g.mul(g.dropout(g.param(drop_x), 0.5), g.param(drop_x)))

    graph, loss = build_dropout()
    _, grads = forward_backward(graph, loss)
    worst_op = max(
        worst_op, max_relative_error(grads, central_differences(build_dropout, {"x": drop_x}))
    )

    # full proof-state loss: embed a state with a binder, classify, cross-entropy
    store = fresh_domain()
    params = EmbedParams.create(list(store.symbols()), cell="gru", dim=4, seed=3)
    head_w = Tensor("head_w", rng.standard_normal((3, 4)) * 0.5)
    head_b = Tensor("head_b", np.zeros(3))
    tensors = dict(params.tensors)
    tensors["head_w"] = head_w
    tensors["head_b"] = head_b
    n_params = sum(t.value.size for t in tensors.values())

    G, f, eq, e = (store.const(s) for s in ("G", "f", "eq", "e"))
    goal = store.prod(
        "k", G, store.app(eq, [store.app(f, [e, store.var("k")]), store.var("b")])
    )
    ctx = (("b", G),)

    def build_state_loss():
        g = CompGraph()
        emb = StateEmbedder(g, params, store, EmbedConfig(cell="gru", dim=4, pass_seed=5))
        h = emb.embed_state(ctx, goal)
        logits = g.add(g.matmul(g.param(head_w), h), g.param(head_b))
        return g, g.softmax_xent(logits, 1)

    graph, loss = build_state_loss()
    _, grads = forward_backward(graph, loss)
    composite_err = max_relative_error(grads, central_differences(build_state_loss, tensors))

    elapsed = time.perf_counter() - t0
    report(4, "gradient correctness", t0, {
        f"per-op max relative error {worst_op:.2e} < 1e-4": worst_op < 1e-4,
        f"proof-state loss graph has {n_params} <= 500 parameters": n_params <= 500,
        f"proof-state loss max relative error {composite_err:.2e} < 1e-4": composite_err < 1e-4,
        f"runtime {elapsed:.1f}s < 1min": elapsed < 60.0,
    })


# -- 5: sharing and batching equivalence --------------------------------------------


def _unique_subterms(store: TermStore, tid) -> int:
    seen = set()
    stack = [tid]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        term = store.term(cur)
        if isinstance(term, App):
            stack.append(term.head)
            stack.extend(term.args)
        elif isinstance(term, Prod):
            stack.extend((term.ty, term.body))
    return len(seen)


def test_criterion_5_sharing_and_batching():
    t0 = time.perf_counter()
    store = fresh_domain()
    f, eq, G = store.const("f"), store.const("eq"), store.const("G")
    t = store.var("x")
    for _ in range(10):
        t = store.app(f, [t, t])
    goal = store.app(eq, [t, t])
    ctx = (("x", G),)
    expanded = store.tree_size(goal)
    duplication = expanded / _unique_subterms(store, goal)

    params = EmbedParams.create(list(store.symbols()), cell="gru", dim=128, seed=0)
    cfg = EmbedConfig(cell="gru", dim=128, pass_seed=2)

    def build(memoize: bool):
        g = CompGraph()
        emb = StateEmbedder(g, params, store, cfg, memoize=memoize)
        return g, g.vsum(emb.embed_state(ctx, goal))

    # naive path: no sharing, one op at a time
    t_naive0 = time.perf_counter()
    g_naive, loss_naive = build(False)
    run_forward(g_naive, batched=False)
    grads_naive = run_backward(g_naive, loss_naive, batched=False)
    t_naive = time.perf_counter() - t_naive0

    t_fast0 = time.perf_counter()
    g_fast, loss_fast = build(True)
    run_forward(g_fast, batched=True)
    grads_fast = run_backward(g_fast, loss_fast, batched=True)
    t_fast = time.perf_counter() - t_fast0
    speedup = t_naive / t_fast

    # memoized forward must be bit-identical to naive under unbatched execution
    g_memo, loss_memo = build(True)
    run_forward(g_memo, batched=False)
    bitwise = np.array_equal(g_memo.nodes[loss_memo].value, g_naive.nodes[loss_naive].value)

    value_delta = float(np.max(np.abs(g_memo.nodes[loss_memo].value - g_fast.nodes[loss_fast].value)))
    grads_unbatched = run_backward(g_memo, loss_memo, batched=False)
    grad_delta = max(
        float(np.max(np.abs(grads_unbatched[name] - grads_fast[name]))) for name in grads_fast
    )

    elapsed = time.perf_counter() - t0
    report(5, "sharing and batching equivalence", t0, {
        f"synthetic state has {expanded} >= 2000 expanded nodes": expanded >= 2000,
        f"subterm duplication {duplication:.0f}x >= 4x": duplication >= 4.0,
        "memoized forward bitwise-equals naive forward": bitwise,
        f"batched vs unbatched values {value_delta:.1e} <= 1e-9": value_delta <= 1e-9,
        f"batched vs unbatched gradients {grad_delta:.1e} <= 1e-7": grad_delta <= 1e-7,
        f"sharing+batching speedup {speedup:.0f}x >= 2x": speedup >= 2.0,
        f"runtime {elapsed:.1f}s < 2min": elapsed < 120.0,
    })


# -- 6: alpha-invariance and environment semantics ----------------------------------


def test_criterion_6_alpha_invariance():
    t0 = time.perf_counter()
    store = fresh_domain()
    G, f = store.const("G"), store.const("f")
    params = EmbedParams.create(list(store.symbols()), cell="gru", dim=16, seed=1)

    def embed_alone(tid, pass_seed: int) -> np.ndarray:
        g = CompGraph()
        emb = StateEmbedder(g, params, store, EmbedConfig(cell="gru", dim=16, pass_seed=pass_seed))
        nid = emb.embed_term(tid)
        run_forward(g)
        return g.nodes[nid].value

    ident_x = store.prod("x", G, store.var("x"))
    ident_y = store.prod("y", G, store.var("y"))
    vec_x = embed_alone(ident_x, 0)
    alpha = np.array_equal(vec_x, embed_alone(ident_y, 0))
    reseeded = not np.array_equal(vec_x, embed_alone(ident_x, 7))

    # three occurrences of one binder: exactly one per-pass vector is drawn,
    # even when nothing is memoized
    triple = store.prod(
        "x", G, store.app(f, [store.var("x"), store.app(f, [store.var("x"), store.var("x")])])
    )
    g = CompGraph()
    emb = StateEmbedder(g, params, store, EmbedConfig(cell="gru", dim=16, pass_seed=0), memoize=False)
    emb.embed_term(triple)
    one_vector = sum(key[0] == "pass_const" for key in g.memo) == 1

    # Πx:G. Πy:G. f x y against f y x: nested binders must not share a vector
    def nested(first: str, second: str):
        body = store.app(f, [store.var(first), store.var(second)])
        return store.prod("x", G, store.prod("y", G, body))

    distinct = not np.array_equal(embed_alone(nested("x", "y"), 0), embed_alone(nested("y", "x"), 0))

    # a binder subterm embedded alone, then reused after another term on the
    # same graph, gives the value it has on a fresh graph
    reused = store.app(f, [ident_y, triple])
    g = CompGraph()
    emb = StateEmbedder(g, params, store, EmbedConfig(cell="gru", dim=16, pass_seed=0))
    emb.embed_term(triple)
    run_forward(g)
    nid = emb.embed_term(reused)
    run_forward(g)
    fresh = embed_alone(reused, 0)
    shared_delta = float(np.max(np.abs(g.nodes[nid].value - fresh)) / np.max(np.abs(fresh)))

    report(6, "alpha-invariance and environment semantics", t0, {
        "renaming the binder leaves the embedding bit-identical": alpha,
        "all occurrences of one bound variable share one drawn vector": one_vector,
        "a different pass seed changes the binder embedding": reseeded,
        "binders in scope of each other draw distinct vectors": distinct,
        f"a binder subterm embedded after another term on one graph matches a fresh graph "
        f"({shared_delta:.1e} <= 1e-9)": shared_delta <= 1e-9,
    })


# -- 7: data plumbing ---------------------------------------------------------------


def _corpus_shape(records, store):
    return [
        (
            rec.lemma,
            rec.state_id,
            rec.parent_id,
            rec.children,
            rec.tactic.class_name,
            rec.tactic.raw,
            tuple((a.kind, a.value) for a in rec.tactic.args),
            tuple((name, print_sexpr(store, ty)) for name, ty in rec.ctx),
            print_sexpr(store, rec.goal),
        )
        for rec in records
    ]


def test_criterion_7_data_plumbing():
    t0 = time.perf_counter()
    store = fresh_domain()
    records, manifest = gen_dataset_records(store, DatasetSpec(100, 0, 6, 1))
    sizes = {lemma: 0 for lemma in {r.lemma for r in records}}
    for rec in records:
        sizes[rec.lemma] += 1
    uniform = len(sizes) == 100 and len(set(sizes.values())) == 1

    text = write_dataset(records, store, manifest)
    read_records, read_store, read_manifest = read_dataset(text)
    read_manifest.pop("version")  # the writer's own format tag, not corpus structure
    round_trip = (
        _corpus_shape(records, store) == _corpus_shape(read_records, read_store)
        and manifest == read_manifest
    )

    split = partition_lemmas(records, seed=4)
    again = partition_lemmas(records, seed=4)
    parts = list(split)
    disjoint = sum(len(p) for p in parts) == len(parts[0] | parts[1] | parts[2])
    exhaustive = (parts[0] | parts[1] | parts[2]) == set(sizes)
    shares = [sum(sizes[lemma] for lemma in part) / len(records) for part in parts]
    within = all(abs(share - target) <= 0.02 for share, target in zip(shares, (0.8, 0.1, 0.1)))

    names = pos_eval_space().names
    golden = {0: "close", 5: "close", 6: "medium", 19: "medium", 20: "far"}
    bins_ok = all(names[bin_depth(steps) - 1] == want for steps, want in golden.items())

    report(7, "data plumbing", t0, {
        "synthetic corpus has 100 uniform-size lemmas": uniform,
        "dataset round-trip is structure-identical": round_trip,
        "split is deterministic": split == again,
        "split is disjoint": disjoint,
        "split is exhaustive": exhaustive,
        f"record shares {[f'{s:.3f}' for s in shares]} within 2pts of 80/10/10": within,
        "bin golden cases hold": bins_ok,
    })


# -- 8: protocol replay -------------------------------------------------------------

GOLDEN_SCRIPT = [
    "THEOREM (prod b (c G) (app eq (app f (c e) (app f (v b) (c m))) (v b)))",
    "TACTIC rewrite 1 left",
    "STATE",
    "TACTIC rewrite 1 right",
    "TACTIC reflexivity",
    "UNDO",
    "TACTIC rewrite 9 left",
    "QUIT",
]

GOLDEN_RESPONSES = [
    "OK state=1 goal=(app eq (app f (c e) (app f (v b) (c m))) (v b))",
    "OK state=2 goal=(app eq (app f (v b) (c m)) (v b)) final=false",
    "OK state=2 ctx={b:(c G)} goal=(app eq (app f (v b) (c m)) (v b))",
    "OK state=3 goal=(app eq (v b) (v b)) final=false",
    "OK closed=true",
    "OK state=3 goal=(app eq (v b) (v b))",
    "ERR InvalidPosition position 9 out of range, goal has 0 operator nodes",
    None,
]


def test_criterion_8_protocol_replay():
    t0 = time.perf_counter()
    # two fresh servers must both reproduce the frozen transcript byte for byte
    server_a, server_b = ProtocolServer(), ProtocolServer()
    first = [server_a.handle(line) for line in GOLDEN_SCRIPT]
    second = [server_b.handle(line) for line in GOLDEN_SCRIPT]
    report(8, "protocol replay", t0, {
        "golden transcript reproduced byte for byte": first == GOLDEN_RESPONSES,
        "independent replay is byte-identical": second == first,
    })
