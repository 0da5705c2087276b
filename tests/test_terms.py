import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from proofgym.terms import (
    App,
    ArityMismatch,
    Const,
    DanglingChild,
    MalformedTerm,
    PositionError,
    Prod,
    TermStore,
    UndeclaredSymbol,
    Var,
    alpha_eq,
    op_positions,
    replace_at,
    subterm_at,
)


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
    assert store.kind(t) == "App"
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
    with pytest.raises(Exception):
        store.intern(App(10_000, ((0, False),)))


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


# -- positions ----------------------------------------------------------------------


def test_op_positions_preorder(store):
    # b (+) (e (+) m): positions 1 (outer) then 2 (inner)
    inner = op(store, store.const("e"), store.const("m"))
    t = op(store, store.var("b"), inner)
    pos = op_positions(store, t, "f")
    assert [p for p, _ in pos] == [1, 2]
    assert subterm_at(store, t, 1, "f") == t
    assert subterm_at(store, t, 2, "f") == inner


def test_op_positions_skip_other_heads(store):
    t = store.app(store.const("eq"), [op(store, store.var("b"), store.const("m")), store.var("b")])
    pos = op_positions(store, t, "f")
    assert len(pos) == 1


def test_op_positions_under_binders(store):
    body = op(store, store.const("e"), store.var("x"))
    t = store.prod("x", store.const("G"), body)
    assert len(op_positions(store, t, "f")) == 1


def test_subterm_at_out_of_range(store):
    t = op(store, store.const("e"), store.const("m"))
    with pytest.raises(PositionError):
        subterm_at(store, t, 2, "f")


def test_replace_at_rebuilds(store):
    inner = op(store, store.const("e"), store.const("m"))
    t = op(store, store.var("b"), inner)
    replaced = replace_at(store, t, 2, store.const("m"), "f")
    expected = op(store, store.var("b"), store.const("m"))
    assert replaced == expected
    # original untouched
    assert subterm_at(store, t, 2, "f") == inner


def test_replace_at_persistent_sharing(store):
    e = store.const("e")
    inner = op(store, e, e)
    t = op(store, inner, inner)
    replaced = replace_at(store, t, 3, e, "f")
    node = store.term(replaced)
    assert node.args[0][0] == inner  # left subtree shared, untouched


def test_replace_at_bad_positions(store):
    t = op(store, store.const("e"), store.const("m"))
    for pos in (0, -1, 2):
        with pytest.raises(PositionError):
            replace_at(store, t, pos, store.const("e"), "f")


# -- alpha equivalence -------------------------------------------------------------


def test_alpha_eq_renames_binders(store):
    g = store.const("G")
    t1 = store.prod("x", g, store.var("x"))
    t2 = store.prod("y", g, store.var("y"))
    assert alpha_eq(store, t1, t2)


def test_alpha_eq_free_vars_by_name(store):
    g = store.const("G")
    t1 = store.prod("x", g, store.var("z"))
    t2 = store.prod("y", g, store.var("w"))
    assert not alpha_eq(store, t1, t2)


def test_alpha_eq_shadowing(store):
    g = store.const("G")
    inner1 = store.prod("x", g, store.var("x"))
    t1 = store.prod("x", g, inner1)
    inner2 = store.prod("z", g, store.var("z"))
    t2 = store.prod("y", g, inner2)
    assert alpha_eq(store, t1, t2)


def test_alpha_eq_distinguishes_structure(store):
    g = store.const("G")
    t1 = store.prod("x", g, store.var("x"))
    t2 = store.prod("x", g, store.const("e"))
    assert not alpha_eq(store, t1, t2)


@st.composite
def term_strategy(draw, depth=0):
    kind = draw(st.sampled_from(["var", "const", "app", "prod"] if depth < 3 else ["var", "const"]))
    if kind == "var":
        return ("var", draw(st.sampled_from("xyz")))
    if kind == "const":
        return ("const", draw(st.sampled_from(["e", "m", "G"])))
    if kind == "app":
        left = draw(term_strategy(depth=depth + 1))
        right = draw(term_strategy(depth=depth + 1))
        return ("app", left, right)
    ty = draw(term_strategy(depth=depth + 1))
    body = draw(term_strategy(depth=depth + 1))
    return ("prod", draw(st.sampled_from("xyz")), ty, body)


def build(store, spec):
    if spec[0] == "var":
        return store.var(spec[1])
    if spec[0] == "const":
        return store.const(spec[1])
    if spec[0] == "app":
        return store.app(store.const("f"), [build(store, spec[1]), build(store, spec[2])])
    return store.prod(spec[1], build(store, spec[2]), build(store, spec[3]))


@given(term_strategy())
def test_alpha_eq_reflexive(spec):
    store = TermStore()
    for sym, arity in (("G", 0), ("e", 0), ("m", 0), ("f", 2)):
        store.declare(sym, arity)
    t = build(store, spec)
    assert alpha_eq(store, t, t)


@given(term_strategy())
def test_alpha_eq_implies_same_shape(spec):
    store = TermStore()
    for sym, arity in (("G", 0), ("e", 0), ("m", 0), ("f", 2)):
        store.declare(sym, arity)
    t = build(store, spec)
    renamed = _rename(spec, {"x": "u", "y": "v", "z": "w"})
    t2 = build(store, renamed)
    # uniform renaming of binders AND free vars is alpha-equal only if no
    # free vars; here we check the cheap invariants instead
    if alpha_eq(store, t, t2):
        assert store.leaf_count(t) == store.leaf_count(t2)
        assert len(op_positions(store, t, "f")) == len(op_positions(store, t2, "f"))


def _rename(spec, mapping):
    if spec[0] == "var":
        return ("var", mapping[spec[1]])
    if spec[0] == "const":
        return spec
    if spec[0] == "app":
        return ("app", _rename(spec[1], mapping), _rename(spec[2], mapping))
    return ("prod", mapping[spec[1]], _rename(spec[2], mapping), _rename(spec[3], mapping))


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
