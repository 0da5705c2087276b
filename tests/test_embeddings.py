import contextlib
import random
from dataclasses import replace

import numpy as np
import pytest

from proofgym.autodiff import CompGraph, forward_backward, run_forward
from proofgym.embeddings import (
    CELLS,
    EmbedConfig,
    EmbeddingError,
    EmbedParams,
    StateEmbedder,
    UnboundVariable,
    UnknownSymbol,
    default_dropout,
    load_checkpoint,
    save_checkpoint,
)
from proofgym.engine import declare_domain
from proofgym.rewrite import gen_expression, statement_for
from proofgym.sexpr import parse_sexpr
from proofgym.terms import TermStore
from proofgym.autodiff import Tensor

from helpers import deep_term, primitive_cells

DIM = 12


@pytest.fixture
def store():
    s = TermStore()
    declare_domain(s)
    return s


@pytest.fixture
def params(store):
    return EmbedParams.create(list(store.symbols()), "gru", DIM, seed=0)


def cfg_for(cell="gru", **kw):
    base = dict(cell=cell, dim=DIM, drop_implicit=False, dropout=None, train=False, pass_seed=1)
    base.update(kw)
    return EmbedConfig(**base)


def embed_value(store, params, tid, cfg=None, memoize=True, batched=True, ctx=()):
    g = CompGraph()
    emb = StateEmbedder(g, params, store, cfg or cfg_for(), memoize=memoize)
    if ctx is not None and ctx != ():
        nid = emb.embed_state(ctx, tid)
    else:
        nid = emb.embed_term(tid)
    run_forward(g, batched=batched)
    return g.nodes[nid].value


# -- invariants straight from the embedding semantics --------------------------------


def test_alpha_invariance_bitwise(store, params):
    px = parse_sexpr(store, "(prod x (c G) (v x))")
    py = parse_sexpr(store, "(prod y (c G) (v y))")
    vx = embed_value(store, params, px)
    vy = embed_value(store, params, py)
    assert np.array_equal(vx, vy)


def test_pass_seed_changes_prod_embedding(store, params):
    px = parse_sexpr(store, "(prod x (c G) (v x))")
    v1 = embed_value(store, params, px, cfg_for(pass_seed=1))
    v2 = embed_value(store, params, px, cfg_for(pass_seed=2))
    assert not np.array_equal(v1, v2)


def test_bound_occurrences_share_one_node(store, params):
    # Πx:G. x (+) x: both occurrences of x must reuse one graph node
    px = parse_sexpr(store, "(prod x (c G) (app f (v x) (v x)))")
    # both occurrences draw the same per-pass binder vector, so memoized and
    # unshared traversals both see one value per binder
    v1 = embed_value(store, params, px, memoize=True, batched=False)
    v2 = embed_value(store, params, px, memoize=False, batched=False)
    assert np.array_equal(v1, v2)


def test_unbound_variable_rejected(store, params):
    tid = parse_sexpr(store, "(v loose)")
    with pytest.raises(UnboundVariable):
        embed_value(store, params, tid)


def test_unknown_symbol_rejected(store, params):
    store.declare("newsym")
    tid = parse_sexpr(store, "(c newsym)")
    with pytest.raises(UnknownSymbol):
        embed_value(store, params, tid)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_memoized_equals_naive_bitwise(store, cell):
    params = EmbedParams.create(list(store.symbols()), cell, DIM, seed=1)
    goal = parse_sexpr(
        store,
        "(app eq (app f (app f (c e) (c m)) (app f (app f (c e) (c m)) (app f (c e) (c m)))) (v b))",
    )
    g_ty = parse_sexpr(store, "(c G)")
    ctx = (("b", g_ty),)
    cfg = cfg_for(cell=cell)

    def state_value(memoize):
        g = CompGraph()
        emb = StateEmbedder(g, params, store, cfg, memoize=memoize)
        nid = emb.embed_state(ctx, goal)
        run_forward(g, batched=False)
        return g.nodes[nid].value, len(g.nodes)

    v_memo, n_memo = state_value(True)
    v_naive, n_naive = state_value(False)
    assert np.array_equal(v_memo, v_naive)
    assert n_memo < n_naive  # sharing actually shrank the graph


def test_memoization_shares_subterm_nodes(store, params):
    dup = parse_sexpr(store, "(app f (app f (c e) (c m)) (app f (c e) (c m)))")
    g = CompGraph()
    emb = StateEmbedder(g, params, store, cfg_for())
    emb.embed_term(dup)
    n_shared = len(g.nodes)
    g2 = CompGraph()
    emb2 = StateEmbedder(g2, params, store, cfg_for(), memoize=False)
    emb2.embed_term(dup)
    assert n_shared < len(g2.nodes)


def test_ctx_order_sensitivity(store, params):
    # two independent entries; permuting them must change the state embedding
    g_ty = parse_sexpr(store, "(c G)")
    goal = parse_sexpr(store, "(app eq (v b) (v b))")
    ctx1 = (("a", g_ty), ("b", g_ty))
    ctx2 = (("b", g_ty), ("a", g_ty))

    def state_value(ctx):
        g = CompGraph()
        emb = StateEmbedder(g, params, store, cfg_for())
        nid = emb.embed_state(ctx, goal)
        run_forward(g)
        return g.nodes[nid].value

    assert not np.array_equal(state_value(ctx1), state_value(ctx2))


def test_ctx_entries_bind_for_goal(store, params):
    g_ty = parse_sexpr(store, "(c G)")
    goal = parse_sexpr(store, "(app eq (v h) (v h))")
    g = CompGraph()
    emb = StateEmbedder(g, params, store, cfg_for())
    nid = emb.embed_state((("h", g_ty),), goal)
    run_forward(g)
    assert g.nodes[nid].value.shape == (DIM,)
    # without the entry the goal has an unbound variable
    with pytest.raises(UnboundVariable):
        emb2 = StateEmbedder(CompGraph(), params, store, cfg_for())
        emb2.embed_state((), goal)


def test_later_ctx_types_see_earlier_entries(store, params):
    store.declare("pred", 1)
    params2 = EmbedParams.create(list(store.symbols()), "gru", DIM, seed=0)
    g_ty = parse_sexpr(store, "(c G)")
    dep_ty = parse_sexpr(store, "(app pred (v a))")
    goal = parse_sexpr(store, "(app eq (c e) (c e))")
    g = CompGraph()
    emb = StateEmbedder(g, params2, store, cfg_for())
    nid = emb.embed_state((("a", g_ty), ("hp", dep_ty)), goal)
    run_forward(g)
    assert g.nodes[nid].value.shape == (DIM,)


def test_embed_state_with_entries_consistent(store, params):
    g_ty = parse_sexpr(store, "(c G)")
    goal = parse_sexpr(store, "(app eq (v b) (v b))")
    ctx = (("b", g_ty),)
    g = CompGraph()
    emb = StateEmbedder(g, params, store, cfg_for())
    state_h, entries = emb.embed_state_with_entries(ctx, goal)
    assert len(entries) == 1
    g2 = CompGraph()
    emb2 = StateEmbedder(g2, params, store, cfg_for())
    state_only = emb2.embed_state(ctx, goal)
    run_forward(g)
    run_forward(g2)
    assert np.array_equal(g.nodes[state_h].value, g2.nodes[state_only].value)


def test_deep_state_raises_embedding_error(store, params):
    deep = deep_term(store, 5000)
    emb = StateEmbedder(CompGraph(), params, store, cfg_for())
    with pytest.raises(EmbeddingError):
        emb.embed_state((), statement_for(store, deep))
    with pytest.raises(EmbeddingError):
        emb.embed_term(deep)


# -- fused cells against the primitive reference ------------------------------------


def _cells_run(store, params, cfg, states, batched, primitive):
    with primitive_cells() if primitive else contextlib.nullcontext():
        g = CompGraph()
        emb = StateEmbedder(g, params, store, cfg)
        hs = [emb.embed_state(ctx, goal) for ctx, goal in states]
    # Both graphs create their dropout nodes in the same order, and masks are
    # keyed by that order, so fused and primitive runs drop the same units.
    drops = [(n.shape, n.aux) for n in g.nodes if n.op == "dropout"]
    loss = g.vmean(g.concat([g.vsum(g.mul(h, h)) for h in hs]))
    _, grads = forward_backward(g, loss, batched=batched)
    return np.stack([g.nodes[h].value for h in hs]), grads, drops, g


def _assert_fused_matches_primitive(store, params, cfg, states, batched=True):
    """Fused and primitive runs agree; returns the fused graph."""
    value, grads, drops, g = _cells_run(store, params, cfg, states, batched, False)
    ref_value, ref_grads, ref_drops, g_ref = _cells_run(store, params, cfg, states, batched, True)
    assert drops == ref_drops
    assert len(g.nodes) < len(g_ref.nodes)
    assert np.max(np.abs(value - ref_value)) <= 1e-12 * np.max(np.abs(ref_value))
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert np.max(np.abs(grads[name] - ref)) <= 1e-10 * np.max(np.abs(ref)), name
    return g


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "naive"])
@pytest.mark.parametrize(
    "cell,dropout",
    [("gru", 0.0), ("gru", 0.3), ("tanh", 0.0), ("tanh", 0.3), ("treelstm", 0.0), ("treelstm", 0.3)],
)
@pytest.mark.parametrize("length", [6, 10, 14])
def test_fused_cells_match_primitive_reference(store, cell, dropout, batched, length):
    params = EmbedParams.create(list(store.symbols()), cell, 16, seed=length)
    cfg = EmbedConfig(cell=cell, dim=16, dropout=dropout, train=dropout > 0, pass_seed=3)
    rng = random.Random(length)
    g_ty = store.const("G")
    states = [
        ((("b", g_ty),), store.app(store.const("eq"), [gen_expression(store, rng, length), store.var("b")]))
        for _ in range(4)
    ]
    states.append(((), statement_for(store, gen_expression(store, rng, length))))
    g = _assert_fused_matches_primitive(store, params, cfg, states, batched)
    if cell == "treelstm":
        # the context fold composes one child at a time, an App node three
        # (head and two arguments); weights and x come first
        arities = {(len(n.inputs) - 13) // 2 for n in g.nodes if n.op == "treelstm_cell"}
        assert {1, 3} <= arities


def test_fused_cells_match_primitive_on_shared_state():
    # criterion 5's synthetic state: f(t, t) nested ten deep over one variable
    store = TermStore()
    declare_domain(store)
    f, eq, G = store.const("f"), store.const("eq"), store.const("G")
    t = store.var("x")
    for _ in range(10):
        t = store.app(f, [t, t])
    params = EmbedParams.create(list(store.symbols()), "gru", 128, seed=0)
    cfg = EmbedConfig(cell="gru", dim=128, pass_seed=2)
    _assert_fused_matches_primitive(store, params, cfg, [((("x", G),), store.app(eq, [t, t]))])


# -- implicit arguments --------------------------------------------------------------


def test_drop_implicit_changes_embedding(store):
    store.declare("pair")
    params = EmbedParams.create(list(store.symbols()), "gru", DIM, seed=0)
    tid = parse_sexpr(store, "(app pair (impl (c G)) (c e) (c m))")
    keep = embed_value(store, params, tid, cfg_for(drop_implicit=False))
    drop = embed_value(store, params, tid, cfg_for(drop_implicit=True))
    assert not np.array_equal(keep, drop)


def test_drop_implicit_equals_explicit_elision(store):
    store.declare("pair")
    params = EmbedParams.create(list(store.symbols()), "gru", DIM, seed=0)
    with_impl = parse_sexpr(store, "(app pair (impl (c G)) (c e) (c m))")
    without = parse_sexpr(store, "(app pair (c e) (c m))")
    dropped = embed_value(store, params, with_impl, cfg_for(drop_implicit=True))
    plain = embed_value(store, params, without, cfg_for(drop_implicit=True))
    assert np.array_equal(dropped, plain)


def test_binder_stream_consistent_across_memoized_implicit_skips(store):
    # Prods inside implicit args consume binder indices even when skipped,
    # so memoized and unshared traversals agree.
    store.declare("pair")
    params = EmbedParams.create(list(store.symbols()), "gru", DIM, seed=0)
    inner_prod = "(prod q (c G) (v q))"
    text = f"(app pair (impl {inner_prod}) (prod r (c G) (v r)) (c m))"
    tid = parse_sexpr(store, text)
    dup = store.app(store.const("f"), [tid, tid])
    v_memo = embed_value(store, params, dup, cfg_for(drop_implicit=True), memoize=True, batched=False)
    v_fresh = embed_value(store, params, dup, cfg_for(drop_implicit=True), memoize=False, batched=False)
    assert np.array_equal(v_memo, v_fresh)
    # draws after the re-encounter continue from the aligned position
    trail = parse_sexpr(store, "(prod s (c G) (v s))")
    outer = store.app(store.const("f"), [dup, trail])
    v_memo = embed_value(store, params, outer, cfg_for(drop_implicit=True), memoize=True, batched=False)
    v_fresh = embed_value(store, params, outer, cfg_for(drop_implicit=True), memoize=False, batched=False)
    assert np.array_equal(v_memo, v_fresh)


# -- dropout configuration ------------------------------------------------------------


def test_default_dropout_per_cell():
    assert default_dropout("treelstm") == 0.1
    assert default_dropout("gru") == 0.0
    assert default_dropout("tanh") == 0.0


def test_eval_mode_forces_zero_rate(store):
    cfg = EmbedConfig(cell="treelstm", dim=DIM, drop_implicit=False, dropout=0.5, train=False, pass_seed=1)
    assert cfg.rate == 0.0
    cfg_train = EmbedConfig(cell="treelstm", dim=DIM, drop_implicit=False, dropout=0.5, train=True, pass_seed=1)
    assert cfg_train.rate == 0.5


def test_train_dropout_applies_masks(store):
    params = EmbedParams.create(list(store.symbols()), "treelstm", DIM, seed=0)
    goal = parse_sexpr(store, "(app eq (app f (c e) (v b)) (v b))")
    g_ty = parse_sexpr(store, "(c G)")
    cfg = EmbedConfig(cell="treelstm", dim=DIM, drop_implicit=False, dropout=0.3, train=True, pass_seed=1)
    g = CompGraph(dropout_seed=5)
    emb = StateEmbedder(g, params, store, cfg)
    emb.embed_state((("b", g_ty),), goal)
    assert any(n.op == "dropout" for n in g.nodes)
    run_forward(g)


def test_known_refuses_dropout(store):
    params = EmbedParams.create(list(store.symbols()), "treelstm", DIM, seed=0)
    cfg = EmbedConfig(cell="treelstm", dim=DIM, drop_implicit=False, dropout=0.3, train=True, pass_seed=1)
    with pytest.raises(EmbeddingError):
        StateEmbedder(CompGraph(dropout_seed=5), params, store, cfg, known={})
    StateEmbedder(CompGraph(dropout_seed=5), params, store, cfg)  # without a cache it builds
    StateEmbedder(CompGraph(), params, store, replace(cfg, train=False), known={})


@pytest.mark.parametrize("cell", CELLS)
def test_known_rows_rebuild_the_same_state(store, cell):
    # a second graph reads every composite subterm from `known` and gives the
    # value a graph built from scratch gives, up to the last bits
    params = EmbedParams.create(list(store.symbols()), cell, DIM, seed=0)
    ctx = (("b", parse_sexpr(store, "(c G)")),)
    first = parse_sexpr(store, "(app eq (app f (app f (c e) (v b)) (app f (c e) (c m))) (v b))")
    second = parse_sexpr(store, "(app eq (app f (v b) (app f (c e) (c m))) (v b))")
    known = {}

    def state_value(goal, known):
        g = CompGraph()
        emb = StateEmbedder(g, params, store, cfg_for(cell), known=known)
        nid = emb.embed_state(ctx, goal)
        run_forward(g)
        if known is not None:
            emb.remember()
        return g, g.nodes[nid].value

    state_value(first, known)
    inner = parse_sexpr(store, "(app f (c e) (c m))")
    keys = {key[0]: key for key in known}
    assert keys[inner] == (inner, (), False)  # closed
    bound = parse_sexpr(store, "(app f (c e) (v b))")
    assert keys[bound] == (bound, ((0, 0),), False)  # b is context slot 0
    g, cached = state_value(second, known)
    _, fresh = state_value(second, None)
    np.testing.assert_allclose(cached, fresh, rtol=1e-12, atol=1e-15)
    assert sum(n.op == "const" for n in g.nodes) > 2  # zeros, the slot vector and reused rows


def test_known_skips_binders_and_binder_bound_variables(store, params):
    # forall x:G, f x m: the product draws a binder vector, and `f x m`
    # depends on it; neither may be reused in another pass
    prod = parse_sexpr(store, "(prod x (c G) (app f (v x) (c m)))")
    known = {}
    g = CompGraph()
    emb = StateEmbedder(g, params, store, cfg_for(), known=known)
    emb.embed_state((), parse_sexpr(store, "(app eq (app f (c e) (c m)) (app eq (c e) (c e)))"))
    emb.embed_term(prod)
    run_forward(g)
    emb.remember()
    cached = {key[0] for key in known}
    assert prod not in cached
    assert parse_sexpr(store, "(app f (v x) (c m))") not in cached
    assert parse_sexpr(store, "(app f (c e) (c m))") in cached


def test_visited_tracks_unique_terms(store, params):
    dup = parse_sexpr(store, "(app f (app f (c e) (c m)) (app f (c e) (c m)))")
    g = CompGraph()
    emb = StateEmbedder(g, params, store, cfg_for())
    emb.embed_term(dup)
    inner = parse_sexpr(store, "(app f (c e) (c m))")
    assert inner in emb.visited
    assert dup in emb.visited


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path, params):
    path = str(tmp_path / "ckpt.npz")
    meta = {"cell": "gru", "dim": DIM, "note": "x"}
    save_checkpoint(path, params.tensors, meta)
    arrays, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert set(arrays) == set(params.tensors)
    for name, tensor in params.tensors.items():
        assert np.array_equal(arrays[name], tensor.value)
        assert arrays[name].dtype == np.float64


def test_checkpoint_rejects_unknown_version(tmp_path):
    import json

    path = str(tmp_path / "bad.npz")
    blob = np.frombuffer(json.dumps({"format_version": 99, "meta": {}}).encode(), dtype=np.uint8)
    np.savez(path, __meta__=blob)
    with pytest.raises(Exception):
        load_checkpoint(path)


def test_embed_params_create_deterministic(store):
    a = EmbedParams.create(list(store.symbols()), "gru", DIM, seed=3)
    b = EmbedParams.create(list(store.symbols()), "gru", DIM, seed=3)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name].value, b.tensors[name].value)
    c = EmbedParams.create(list(store.symbols()), "gru", DIM, seed=4)
    assert any(
        not np.array_equal(a.tensors[n].value, c.tensors[n].value) for n in a.tensors
    )


def test_symbol_rows_match_sorted_vocab(store):
    params = EmbedParams.create(["zz", "aa", "mm"], "tanh", DIM, seed=0)
    assert params.symbol_index == {"aa": 0, "mm": 1, "zz": 2}
