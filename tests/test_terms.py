import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofgym.terms import (
    App,
    ArityMismatch,
    Const,
    DanglingChild,
    MalformedTerm,
    Prod,
    TermError,
    TermStore,
    UndeclaredSymbol,
    Var,
)

from terms_reference import PositionError, op_node_at, op_positions, replace_at


@pytest.fixture
def store():
    s = TermStore()
    for sym, arity in (("G", 0), ("e", 0), ("m", 0), ("f", 2), ("eq", 2)):
        s.declare(sym, arity)
    return s


def op(store, a, b):
    return store.app(store.const("f"), [a, b])


def test_interning_dedupes(store):
    a = store.intern(Var("x"))
    b = store.intern(Var("x"))
    assert a == b
    assert store.intern(Var("y")) != a


def test_structural_sharing_in_apps(store):
    e = store.const("e")
    t1 = op(store, e, e)
    t2 = op(store, e, e)
    assert t1 == t2


def test_term_accessors(store):
    t = op(store, store.const("e"), store.var("b"))
    node = store.term(t)
    assert isinstance(node, App)
    assert len(node.args) == 2


def test_undeclared_symbol_rejected(store):
    with pytest.raises(UndeclaredSymbol):
        store.const("mystery")


def test_arity_enforced(store):
    with pytest.raises(ArityMismatch):
        store.app(store.const("f"), [store.var("x")])


def test_arity_unchecked_when_undeclared_arity(store):
    store.declare("g")  # no arity
    g = store.const("g")
    assert store.app(g, [store.var("x")])
    assert store.app(g, [store.var("x"), store.var("y")])


def test_conflicting_redeclare_raises(store):
    with pytest.raises(ArityMismatch):
        store.declare("f", 3)
    store.declare("f", 2)  # consistent redeclare is fine


def test_declare_refuses_an_arity_an_interned_app_breaks(store):
    # An intern hit skips validation, so declare must not fix an arity that
    # a stored node breaks.
    store.declare("g")
    g, x, y = store.const("g"), store.var("x"), store.var("y")
    one = store.app(g, [x])
    with pytest.raises(ArityMismatch, match="cannot declare 'g' with arity 2"):
        store.declare("g", 2)
    assert store.arity("g") is None
    store.declare("g", 1)  # the stored application has one argument
    assert store.app(g, [x]) == one
    with pytest.raises(ArityMismatch):
        store.app(g, [x, y])
    # over applications of two arities, every arity is refused
    store.declare("h")
    h = store.const("h")
    store.app(h, [x])
    store.app(h, [x, y])
    for arity in (0, 1, 2, 3):
        with pytest.raises(ArityMismatch):
            store.declare("h", arity)
    assert store.arity("h") is None
    store.declare("k")
    store.declare("k", 0)  # a symbol whose constant was never interned is free
    assert store.arity("k") == 0


def test_empty_app_rejected(store):
    with pytest.raises(MalformedTerm):
        store.intern(App(store.const("f"), ()))


def test_app_head_flattening(store):
    # app(app(f, x), y) flattens to app(f, x, y) when built through app()
    store.declare("h")
    h = store.const("h")
    partial = store.app(h, [store.var("x")])
    full = store.app(partial, [store.var("y")])
    node = store.term(full)
    assert node.head == h
    assert len(node.args) == 2


def test_dangling_child_rejected(store):
    with pytest.raises(DanglingChild):
        store.intern(App(10_000, (0,)))


@pytest.mark.parametrize(
    "bad", [lambda n: -1, lambda n: n, lambda n: "0", lambda n: 1.0, lambda n: np.int64(0), lambda n: None]
)
def test_term_rejects_ids_outside_the_store(store, bad):
    store.var("x")
    with pytest.raises(DanglingChild):
        store.term(bad(len(store)))


def test_term_reads_bools_as_ints(store):
    # isinstance(True, int) holds, so the lookup check lets bools through
    x, y = store.var("x"), store.var("y")
    assert store.term(False) == store.term(x) and store.term(True) == store.term(y)


def test_free_vars_first_occurrence_order(store):
    t = op(store, store.var("y"), op(store, store.var("x"), store.var("y")))
    assert store.free_vars(t) == ("y", "x")


def test_free_vars_bound_excluded(store):
    body = op(store, store.var("x"), store.var("z"))
    t = store.prod("x", store.const("G"), body)
    assert store.free_vars(t) == ("z",)


def test_leaf_count_excludes_heads(store):
    # e (+) b: leaves e, b; the operator head does not count
    t = op(store, store.const("e"), store.var("b"))
    assert store.leaf_count(t) == 2


def test_tree_size_includes_heads(store):
    t = op(store, store.const("e"), store.var("b"))
    assert store.tree_size(t) == 4  # App, f, e, b


def test_binder_count(store):
    t = store.prod("x", store.const("G"), store.prod("y", store.const("G"), store.var("x")))
    assert store.binder_count(t) == 2


def test_metadata_on_shared_subterms(store):
    e = store.const("e")
    inner = op(store, e, e)
    outer = op(store, inner, inner)
    assert store.leaf_count(outer) == 4
    assert store.tree_size(outer) == 2 * store.tree_size(inner) + 2


# -- the reference position walkers ------------------------------------------------


def test_op_positions_preorder(store):
    # b (+) (e (+) m): positions 1 (outer) then 2 (inner)
    inner = op(store, store.const("e"), store.const("m"))
    t = op(store, store.var("b"), inner)
    pos = op_positions(store, t, "f")
    assert [p for p, _ in pos] == [1, 2]
    assert op_node_at(store, t, 1, "f") == t
    assert op_node_at(store, t, 2, "f") == inner


def test_op_positions_skip_other_heads(store):
    t = store.app(store.const("eq"), [op(store, store.var("b"), store.const("m")), store.var("b")])
    pos = op_positions(store, t, "f")
    assert len(pos) == 1


def test_op_positions_under_binders(store):
    body = op(store, store.const("e"), store.var("x"))
    t = store.prod("x", store.const("G"), body)
    assert len(op_positions(store, t, "f")) == 1


def test_op_node_at_out_of_range(store):
    t = op(store, store.const("e"), store.const("m"))
    for pos in (0, -1, 2):
        assert op_node_at(store, t, pos, "f") is None


def test_replace_at_rebuilds(store):
    inner = op(store, store.const("e"), store.const("m"))
    t = op(store, store.var("b"), inner)
    replaced = replace_at(store, t, 2, store.const("m"), "f")
    expected = op(store, store.var("b"), store.const("m"))
    assert replaced == expected
    # original untouched
    assert op_node_at(store, t, 2, "f") == inner


def test_replace_at_persistent_sharing(store):
    e = store.const("e")
    inner = op(store, e, e)
    t = op(store, inner, inner)
    replaced = replace_at(store, t, 3, e, "f")
    node = store.term(replaced)
    assert node.args[0] == inner  # left subtree shared, untouched


def test_replace_at_bad_positions(store):
    t = op(store, store.const("e"), store.const("m"))
    for pos in (0, -1, 2):
        with pytest.raises(PositionError):
            replace_at(store, t, pos, store.const("e"), "f")


_STORE_SYMBOLS = ("g", "h")
_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("declare"), st.sampled_from(_STORE_SYMBOLS), st.none() | st.integers(0, 2)),
        st.tuples(st.just("var"), st.sampled_from("xyz")),
        st.tuples(st.just("const"), st.sampled_from(_STORE_SYMBOLS)),
        st.tuples(
            st.just("app"),
            st.sampled_from(_STORE_SYMBOLS) | st.integers(0, 63),  # a constant head, or any node
            st.lists(st.integers(0, 63), min_size=1, max_size=3),
        ),
        st.tuples(st.just("prod"), st.sampled_from("xyz"), st.integers(0, 63), st.integers(0, 63)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_STORE_OPS)
def test_every_stored_node_stays_valid(ops):
    # After each operation, successful or refused, every stored node passes
    # validation against the current symbol table and interns to its own id.
    store = TermStore()
    for op in ops:
        n = len(store)
        try:
            if op[0] == "declare":
                store.declare(op[1], op[2])
            elif op[0] == "var":
                store.var(op[1])
            elif op[0] == "const":
                store.const(op[1])
            elif op[0] == "app" and n:
                head = store.const(op[1]) if isinstance(op[1], str) else op[1] % n
                store.app(head, [a % n for a in op[2]])
            elif op[0] == "prod" and n:
                store.prod(op[1], op[2] % n, op[3] % n)
        except TermError:
            pass
        for tid in range(len(store)):
            node = store.term(tid)
            store._validate(node)
            assert store.intern(node) == tid


def test_interning_thread_safety(store):
    # concurrent interning of overlapping terms must stay consistent
    errors = []

    def worker(seed):
        try:
            for i in range(200):
                t = op(store, store.var(f"x{(seed + i) % 7}"), store.const("e"))
                assert store.term(t)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    seen = set()
    for x in range(7):
        seen.add(op(store, store.var(f"x{x}"), store.const("e")))
    assert len(seen) == 7


def test_symbols_sorted(store):
    assert store.symbols() == ("G", "e", "eq", "f", "m")
