import gc
import weakref

import numpy as np
import pytest

from proofgym.autodiff import (
    Adam,
    CompGraph,
    GraphError,
    NumericsError,
    Tensor,
    forward_backward,
    run_backward,
    run_forward,
    seeded_normal,
)

from helpers import central_differences, max_relative_error

RNG = np.random.default_rng(12345)


def tensor(name, shape, scale=1.0):
    return Tensor(name, RNG.normal(size=shape) * scale)


# -- op-by-op gradcheck ----------------------------------------------------------------

D = 5


def op_builders():
    """(name, tensors, build) triples; build() -> (graph, scalar loss nid)."""
    w = tensor("w", (D, D))
    x = tensor("x", (D,))
    y = tensor("y", (D,))
    table = tensor("table", (4, D))

    def reduce_loss(g, nid):
        # squares keep every op's gradient path informative
        return g.vsum(g.mul(nid, nid))

    cases = []

    def case(name, tensors, body):
        def build():
            g = CompGraph()
            return g, body(g)
        cases.append((name, tensors, build))

    case("matmul", {"w": w, "x": x}, lambda g: reduce_loss(g, g.matmul(g.param(w), g.param(x))))
    case("add", {"x": x, "y": y}, lambda g: reduce_loss(g, g.add(g.param(x), g.param(y))))
    case("mul", {"x": x, "y": y}, lambda g: reduce_loss(g, g.mul(g.param(x), g.param(y))))
    case("affine", {"x": x}, lambda g: reduce_loss(g, g.affine(g.param(x), 2.5, -0.75)))
    case("tanh", {"x": x}, lambda g: reduce_loss(g, g.tanh(g.param(x))))
    case("sigmoid", {"x": x}, lambda g: reduce_loss(g, g.sigmoid(g.param(x))))
    case("concat", {"x": x, "y": y}, lambda g: reduce_loss(g, g.concat([g.param(x), g.param(y)])))
    case("gather", {"table": table}, lambda g: reduce_loss(g, g.gather(g.param(table), 2)))
    case("softmax_xent", {"x": x}, lambda g: g.softmax_xent(g.param(x), 3))
    case("vsum", {"x": x}, lambda g: g.vsum(g.mul(g.param(x), g.param(x))))
    case("vmean", {"x": x}, lambda g: g.vmean(g.mul(g.param(x), g.param(x))))
    case("slice", {"x": x}, lambda g: reduce_loss(g, g.slice(g.param(x), 1, 4)))

    # Recurrent cells: x, h and (W, U, b) per gate as parameters. They draw
    # from a generator of their own, so every call builds the same graph; see
    # test_cell_cases_have_informative_gradients for why that matters.
    def cell_case(name, gates):
        rng = np.random.default_rng(0)
        cx = Tensor("cell_x", rng.normal(size=D))
        ch = Tensor("cell_h", rng.normal(size=D))
        weights = [
            Tensor(f"{name}_{part}{i}", rng.normal(size=shape) * 0.5)
            for i in range(gates)
            for part, shape in (("W", (D, D)), ("U", (D, D)), ("b", (D,)))
        ]
        tensors = {"cell_x": cx, "cell_h": ch, **{t.name: t for t in weights}}
        cell = getattr(CompGraph, name)
        case(name, tensors, lambda g: reduce_loss(
            g, cell(g, g.param(cx), g.param(ch), tuple(g.param(t) for t in weights))
        ))

    cell_case("gru_cell", 3)
    cell_case("tanh_cell", 1)

    # TreeLSTM: an outer composition of three children, the middle one an
    # inner composition whose h and c are the halves of its [h; c] row.
    rng = np.random.default_rng(0)
    lx = Tensor("lstm_x", rng.normal(size=D))
    leaves = [Tensor(f"lstm_{part}{k}", rng.normal(size=D)) for k in range(3) for part in "hc"]
    weights = [
        Tensor(f"lstm_{part}{gate}", rng.normal(size=shape) * 0.5)
        for gate in "iouf"
        for part, shape in (("W", (D, D)), ("U", (D, D)), ("b", (D,)))
    ]

    def lstm(g):
        ws = tuple(g.param(t) for t in weights)
        h0, c0, h1, c1, h2, c2 = (g.param(t) for t in leaves)
        inner = g.treelstm_cell(g.param(lx), [(h1, c1)], ws)
        middle = (g.slice(inner, 0, D), g.slice(inner, D, 2 * D))
        return reduce_loss(g, g.treelstm_cell(g.param(lx), [(h0, c0), middle, (h2, c2)], ws))

    case("treelstm_cell", {t.name: t for t in [lx, *leaves, *weights]}, lstm)
    return cases


@pytest.mark.parametrize("name,tensors,build", op_builders(), ids=lambda v: v if isinstance(v, str) else "")
def test_gradcheck_per_op(name, tensors, build):
    graph, loss = build()
    _, grads = forward_backward(graph, loss)
    numeric = central_differences(build, tensors)
    assert max_relative_error(grads, numeric) < 1e-6


def test_cell_cases_have_informative_gradients():
    # Central differences carry about 1e-10 of absolute error, and
    # max_relative_error compares element by element with a floor of 1e-8, so
    # an element near 1e-8 would measure noise instead of the backward
    # kernel. A GRU gate's weight gradient can cancel that far for some
    # inputs; the cell cases use inputs where none does.
    for name, _, build in op_builders():
        if name.endswith("_cell"):
            graph, loss = build()
            _, grads = forward_backward(graph, loss)
            assert min(float(np.min(np.abs(g))) for g in grads.values()) > 1e-5, name


def test_gradcheck_dropout_with_fixed_mask():
    x = tensor("x", (D,))

    def build():
        g = CompGraph(dropout_seed=99)
        return g, g.vsum(g.mul(g.dropout(g.param(x), 0.5), g.param(x)))

    graph, loss = build()
    _, grads = forward_backward(graph, loss)
    numeric = central_differences(build, {"x": x})
    assert max_relative_error(grads, numeric) < 1e-6


def test_gradcheck_composite_graph():
    w1 = tensor("w1", (D, D), 0.5)
    w2 = tensor("w2", (3, 2 * D), 0.5)
    b1 = tensor("b1", (D,), 0.1)
    x = tensor("xin", (D,))
    tensors = {"w1": w1, "w2": w2, "b1": b1, "xin": x}

    def build():
        g = CompGraph()
        h = g.tanh(g.add(g.matmul(g.param(w1), g.param(x)), g.param(b1)))
        h2 = g.sigmoid(g.matmul(g.param(w1), h))
        logits = g.matmul(g.param(w2), g.concat([h, h2]))
        return g, g.softmax_xent(logits, 1)

    graph, loss = build()
    _, grads = forward_backward(graph, loss)
    numeric = central_differences(build, tensors)
    assert max_relative_error(grads, numeric) < 1e-4


# -- semantics ---------------------------------------------------------------------


def test_forward_values_golden():
    g = CompGraph()
    a = g.const(np.array([1.0, 2.0]))
    b = g.const(np.array([3.0, 4.0]))
    s = g.add(a, b)
    p = g.mul(a, b)
    total = g.vsum(g.concat([s, p]))
    run_forward(g)
    assert g.nodes[s].value.tolist() == [4.0, 6.0]
    assert g.nodes[p].value.tolist() == [3.0, 8.0]
    assert g.nodes[total].value == 21.0


def test_const_memoized_by_key():
    g = CompGraph()
    a = g.const(np.zeros(3), key=("zeros", 3))
    b = g.const(np.zeros(3), key=("zeros", 3))
    assert a == b
    c = g.const(np.zeros(3))
    assert c != a


def test_param_keeps_the_value_of_the_pass_that_computed_it():
    t = Tensor("p", np.ones(3))
    g = CompGraph()
    nid = g.vsum(g.param(t))
    run_forward(g)
    assert g.nodes[nid].value == 3.0
    t.value = np.full(3, 2.0)
    again = g.vsum(g.param(t))  # the same param node, already computed
    run_forward(g)
    assert g.nodes[nid].value == 3.0
    assert g.nodes[again].value == 3.0


# -- graphs that grow between passes ------------------------------------------------


def _cell_sums(g, w, b, xs):
    """sum(tanh(w x + b)) for each x, on graph g."""
    return [g.vsum(g.tanh(g.add(g.matmul(g.param(w), g.param(x)), g.param(b)))) for x in xs]


@pytest.mark.parametrize("batched", [True, False])
def test_second_run_computes_only_the_new_nodes(batched):
    w, b = tensor("w", (D, D)), tensor("b", (D,))
    xs = [tensor(f"x{i}", (D,)) for i in range(5)]
    g = CompGraph()
    _cell_sums(g, w, b, xs[:2])
    run_forward(g, batched=batched)
    before = [node.value for node in g.nodes]
    assert g.computed == len(g.nodes)
    grown = _cell_sums(g, w, b, xs[2:])
    run_forward(g, batched=batched)
    assert g.computed == len(g.nodes)
    assert all(node.value is value for node, value in zip(g.nodes, before))
    fresh = CompGraph()
    want = _cell_sums(fresh, w, b, xs[2:])
    run_forward(fresh, batched=batched)
    for got_nid, want_nid in zip(grown, want):
        np.testing.assert_allclose(g.nodes[got_nid].value, fresh.nodes[want_nid].value, rtol=1e-9, atol=0)


@pytest.mark.parametrize("batched", [True, False])
def test_backward_refuses_a_run_that_started_past_node_zero(batched):
    w, b = tensor("w", (D, D)), tensor("b", (D,))
    xs = [tensor(f"x{i}", (D,)) for i in range(2)]
    g = CompGraph()
    (first,) = _cell_sums(g, w, b, xs[:1])
    run_forward(g, batched=batched)
    (second,) = _cell_sums(g, w, b, xs[1:])
    run_forward(g, batched=batched)
    with pytest.raises(GraphError, match="from node 0"):
        run_backward(g, second, batched=batched)
    run_forward(g, batched=batched)  # nothing new: a pass of no nodes, not from node 0
    with pytest.raises(GraphError, match="from node 0"):
        run_backward(g, first, batched=batched)


@pytest.mark.parametrize("batched", [True, False])
def test_buckets_describe_one_pass(batched):
    w, b = tensor("w", (D, D)), tensor("b", (D,))
    xs = [tensor(f"x{i}", (D,)) for i in range(4)]
    g = CompGraph()
    _cell_sums(g, w, b, xs[:2])
    first_pass = g.buckets()
    run_forward(g, batched=batched)
    assert g.buckets() == first_pass  # read after the pass, as a profiler does
    n_first = len(g.nodes)
    _cell_sums(g, w, b, xs[2:])
    second_pass = g.buckets()
    assert second_pass and all(nid >= n_first for _, nids in second_pass for nid in nids)
    assert [key[1:] for key, _ in second_pass] == [key[1:] for key, _ in first_pass]
    run_forward(g, batched=batched)
    assert g.buckets() == second_pass


def test_param_name_collision_rejected():
    g = CompGraph()
    g.param(Tensor("w", np.ones(2)))
    with pytest.raises(GraphError):
        g.param(Tensor("w", np.ones(3)))


def test_shape_inference_errors():
    g = CompGraph()
    v = g.const(np.ones(4))
    m = g.const(np.ones((2, 3)))
    with pytest.raises(GraphError):
        g.matmul(m, v)  # 3 != 4
    with pytest.raises(GraphError):
        g.add(v, g.const(np.ones(5)))
    with pytest.raises(GraphError):
        g.gather(m, 7)
    with pytest.raises(GraphError):
        g.dropout(v, 1.0)
    with pytest.raises(GraphError):
        g.vmean(g.concat([]))


def test_cell_shape_errors():
    g = CompGraph()
    v = g.const(np.ones(4))
    sq = g.const(np.ones((4, 4)))
    b = g.const(np.ones(4))
    assert g.nodes[g.tanh_cell(v, v, (sq, sq, b))].shape == (4,)
    with pytest.raises(GraphError):
        g.tanh_cell(v, v, (sq, sq))  # one weight short
    with pytest.raises(GraphError):
        g.gru_cell(v, v, (sq, sq, b))  # three gates need nine weights
    with pytest.raises(GraphError):
        g.tanh_cell(v, v, (sq, g.const(np.ones((4, 3))), b))
    with pytest.raises(GraphError):
        g.tanh_cell(g.const(np.ones(3)), v, (sq, sq, b))  # W is 4x4, x has 3 rows

    weights = (sq, sq, b) * 4
    cell = g.treelstm_cell(v, [(v, v)], weights)
    assert g.nodes[cell].shape == (8,)  # the row [h; c]
    h, c = g.slice(cell, 0, 4), g.slice(cell, 4, 8)
    assert g.nodes[h].shape == g.nodes[c].shape == (4,)
    assert g.nodes[g.treelstm_cell(v, [(h, c), (v, v)], weights)].shape == (8,)
    with pytest.raises(GraphError):
        g.treelstm_cell(v, [], weights)  # no children
    with pytest.raises(GraphError):
        g.treelstm_cell(v, [(v, v)], weights[:9])  # four gates need twelve weights
    with pytest.raises(GraphError):
        g.treelstm_cell(v, [(v, cell)], weights)  # c is a vector of the cell's size, not a row
    with pytest.raises(GraphError):
        g.slice(cell, 4, 9)
    with pytest.raises(GraphError):
        g.slice(cell, 3, 3)


def test_backward_needs_forward_in_the_same_mode():
    g = CompGraph()
    loss = g.vsum(g.param(Tensor("p", np.ones(3))))
    with pytest.raises(GraphError):
        run_backward(g, loss)
    run_forward(g, batched=False)
    with pytest.raises(GraphError):
        run_backward(g, loss, batched=True)


def test_sxent_label_bounds():
    g = CompGraph()
    v = g.const(np.ones(4))
    with pytest.raises(GraphError):
        g.softmax_xent(v, 4)


def test_stable_sigmoid_extremes():
    g = CompGraph()
    v = g.const(np.array([-1000.0, 0.0, 1000.0]))
    s = g.sigmoid(v)
    run_forward(g)
    out = g.nodes[s].value
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0


def test_stable_softmax_xent_extremes():
    g = CompGraph()
    v = g.const(np.array([1000.0, 0.0, -1000.0]))
    s = g.softmax_xent(v, 0)
    run_forward(g)
    assert g.nodes[s].value == 0.0  # fully confident, correct


def test_nonfinite_detection():
    g = CompGraph()
    v = g.const(np.array([1.0, np.inf]))
    s = g.vsum(v)
    with pytest.raises(NumericsError):
        run_forward(g)


# -- batching ------------------------------------------------------------------------


def _shared_param_graph(n=24):
    w = Tensor("w", RNG.normal(size=(D, D)))
    b = Tensor("b", RNG.normal(size=D))
    xs = [Tensor(f"x{i}", RNG.normal(size=D)) for i in range(n)]

    def build():
        g = CompGraph()
        losses = []
        for i, x in enumerate(xs):
            h = g.tanh(g.add(g.matmul(g.param(w), g.param(x)), g.param(b)))
            losses.append(g.softmax_xent(g.matmul(g.param(w), h), i % D))
        return g, g.vmean(g.concat(losses))

    return build, {"w": w, "b": b}


def test_batched_matches_naive():
    build, tensors = _shared_param_graph()
    g1, l1 = build()
    v1, grads1 = forward_backward(g1, l1, batched=False)
    g2, l2 = build()
    v2, grads2 = forward_backward(g2, l2, batched=True)
    assert abs(v1 - v2) < 1e-9
    for name in grads1:
        assert np.max(np.abs(grads1[name] - grads2[name])) < 1e-7


def test_batched_buckets_group_by_depth_and_signature():
    build, _ = _shared_param_graph(n=8)
    g, _ = build()
    buckets = g.buckets()
    # every group is homogeneous in op and depth
    for (depth, *_), nodes in buckets:
        assert len({g.nodes[n].op for n in nodes}) == 1
        assert len({g.nodes[n].depth for n in nodes}) == 1
    matmul_groups = [ns for (_, *_), ns in buckets if g.nodes[ns[0]].op == "matmul"]
    assert any(len(ns) >= 8 for ns in matmul_groups)  # the shared-w matmuls batch


def test_graph_freed_without_the_cycle_collector():
    # A graph's arrays must go when its last reference does: every training
    # step and inference chunk builds a fresh graph, and arrays that wait for
    # the cyclic collector pile up between its runs.
    build, _ = _shared_param_graph(n=4)
    gc.disable()
    try:
        g, loss = build()
        forward_backward(g, loss)
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_run_backward_returns_zero_for_unused_params():
    g = CompGraph()
    used = Tensor("used", np.ones(3))
    unused = Tensor("unused", np.ones(3))
    loss = g.vsum(g.param(used))
    g.param(unused)
    run_forward(g)
    grads = run_backward(g, loss)
    assert np.array_equal(grads["used"], np.ones(3))
    assert np.array_equal(grads["unused"], np.zeros(3))


# -- dropout determinism ----------------------------------------------------------


def test_dropout_mask_cached_within_pass():
    t = Tensor("x", np.ones(1000))
    g = CompGraph(dropout_seed=7)
    d = g.dropout(g.param(t), 0.5)
    run_forward(g)
    first = g.nodes[d].value.copy()
    g2 = CompGraph(dropout_seed=7)  # another graph, same seed: identical mask
    d2 = g2.dropout(g2.param(t), 0.5)
    run_forward(g2)
    assert np.array_equal(first, g2.nodes[d2].value)
    kept = np.count_nonzero(first)
    assert 400 < kept < 600
    assert np.allclose(first[first != 0], 2.0)  # inverted scaling 1/(1-rate)


def test_partial_backward_through_a_dropout_bucket():
    # Two dropout nodes share a bucket and only the second reaches the loss,
    # so the backward kernel reads a subset of the masks the forward one saved.
    t = Tensor("x", np.ones(50))
    u = Tensor("y", np.ones(50))
    w = Tensor("w", np.arange(50.0))
    for batched in (True, False):
        g = CompGraph(dropout_seed=7)
        first = g.dropout(g.param(t), 0.5)
        second = g.dropout(g.param(u), 0.5)
        loss = g.vsum(g.mul(second, g.param(w)))
        assert [nids for _, nids in g.buckets() if g.nodes[nids[0]].op == "dropout"] == [[first, second]]
        _, grads = forward_backward(g, loss, batched=batched)
        mask = g.nodes[second].value  # the input is all ones
        assert not np.array_equal(mask, g.nodes[first].value)
        assert np.array_equal(grads["y"], mask * w.value)
        assert np.array_equal(grads["x"], np.zeros(50))


def test_dropout_masks_keyed_by_creation_order_not_node_id():
    t = Tensor("x", np.ones(200))
    u = Tensor("y", np.ones(50))

    def build(padding, seed=7):
        g = CompGraph(dropout_seed=seed)
        drops = []
        for k in range(3):
            for _ in range(padding * k):  # unrelated nodes shift every later node id
                g.tanh(g.const(np.ones(3)))
            drops.append(g.dropout(g.param(t if k != 1 else u), 0.5))
        return g, drops

    g1, d1 = build(0)
    g2, d2 = build(4)
    assert d1 != d2
    for g in (g1, g2):
        run_forward(g)
    first = [g1.nodes[n].value.copy() for n in d1]
    for a, n in zip(first, d2):
        assert np.array_equal(a, g2.nodes[n].value)
    assert not np.array_equal(first[0], first[2])  # each ordinal draws its own mask

    # naive runs draw the same masks as batched ones
    g4, d4 = build(4)
    run_forward(g4, batched=False)
    for a, n in zip(first, d4):
        assert np.array_equal(a, g4.nodes[n].value)

    # another dropout seed draws other masks
    g3, d3 = build(4, seed=8)
    run_forward(g3)
    for a, n in zip(first, d3):
        assert not np.array_equal(a, g3.nodes[n].value)


def test_pass_const_deterministic_by_key():
    a = seeded_normal((3, 1, 0), 8)
    b = seeded_normal((3, 1, 0), 8)
    c = seeded_normal((3, 1, 1), 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- optimizer -----------------------------------------------------------------------


def test_adam_first_step_magnitude():
    # with bias correction the first update is lr * sign(grad)
    t = Tensor("w", np.array([1.0, -2.0]))
    t.grad = np.array([0.5, -3.0])
    opt = Adam({"w": t}, lr=0.01)
    opt.step()
    assert np.allclose(t.value, [1.0 - 0.01, -2.0 + 0.01], atol=1e-8)


def test_adam_skips_missing_grads():
    t = Tensor("w", np.ones(2))
    t.grad = None
    opt = Adam({"w": t}, lr=0.1)
    opt.step()
    assert np.array_equal(t.value, np.ones(2))


def test_adam_converges_on_quadratic():
    t = Tensor("w", np.array([5.0, -3.0]))
    opt = Adam({"w": t}, lr=0.1)
    for _ in range(500):
        t.grad = 2 * t.value  # d/dw ||w||^2
        opt.step()
    assert np.max(np.abs(t.value)) < 1e-3
