import pytest
from hypothesis import given

from proofgym.sexpr import ParseError, parse_sexpr, print_sexpr
from proofgym.terms import TermError, TermStore

from helpers import build, deep_term, deep_text, term_strategy


@pytest.fixture
def store():
    s = TermStore()
    for sym, arity in (("G", 0), ("e", 0), ("m", 0), ("f", 2), ("eq", 2)):
        s.declare(sym, arity)
    return s


GOLDEN = [
    "(v b)",
    "(c e)",
    "(app f (v b) (c m))",
    "(app eq (app f (c e) (v b)) (v b))",
    "(prod b (c G) (app eq (app f (v b) (c m)) (v b)))",
]


@pytest.mark.parametrize("text", GOLDEN)
def test_print_parse_identity_on_goldens(store, text):
    tid = parse_sexpr(store, text)
    assert print_sexpr(store, tid) == text


def test_parse_whitespace_insensitive(store):
    a = parse_sexpr(store, "(app f  (v b)\n   (c m))")
    b = parse_sexpr(store, "(app f (v b) (c m))")
    assert a == b


def test_implicit_args_round_trip(store):
    store.declare("pair")
    text = "(app pair (impl (c G)) (v x) (v y))"
    tid = parse_sexpr(store, text)
    assert print_sexpr(store, tid) == text
    node = store.term(tid)
    assert [impl for _, impl in node.args] == [True, False, False]


def test_parse_bare_head_is_const(store):
    tid = parse_sexpr(store, "(app f (c e) (c m))")
    head = store.term(store.term(tid).head)
    assert head.symbol == "f"


def test_parse_sexpr_head(store):
    store.declare("g")
    tid = parse_sexpr(store, "(app (c g) (v x))")
    assert store.term(store.term(tid).head).symbol == "g"


def test_parse_rejects_trailing_input(store):
    with pytest.raises(ParseError):
        parse_sexpr(store, "(v b) (v c)")


def test_parse_rejects_unbalanced(store):
    with pytest.raises(ParseError):
        parse_sexpr(store, "(app f (v b)")


def test_parse_rejects_unknown_form(store):
    with pytest.raises(ParseError):
        parse_sexpr(store, "(lambda x (v x))")


def test_parse_undeclared_symbol(store):
    with pytest.raises(Exception) as exc_info:
        parse_sexpr(store, "(c zig)")
    assert "zig" in str(exc_info.value)


def test_auto_declare(store):
    tid = parse_sexpr(store, "(c zig)", auto_declare=True)
    assert store.term(tid).symbol == "zig"


def test_parse_error_carries_position(store):
    with pytest.raises(ParseError) as exc_info:
        parse_sexpr(store, "(app f\n  @)")
    err = exc_info.value
    assert err.line == 2
    assert err.col >= 1


def test_deep_nesting_raises_typed_errors(store):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_sexpr(store, deep_text(5000))
    with pytest.raises(TermError, match="nested too deeply"):
        print_sexpr(store, deep_term(store, 5000))
    shallow = deep_term(store, 200)
    assert parse_sexpr(store, print_sexpr(store, shallow)) == shallow
    assert print_sexpr(store, shallow) == deep_text(200)


def test_parse_empty_input(store):
    with pytest.raises(ParseError):
        parse_sexpr(store, "   ")


def test_identifier_with_prime(store):
    tid = parse_sexpr(store, "(v x')")
    assert store.term(tid).name == "x'"


@given(term_strategy())
def test_round_trip_property(spec):
    store = TermStore()
    for sym, arity in (("G", 0), ("e", 0), ("m", 0), ("f", 2)):
        store.declare(sym, arity)
    tid = build(store, spec)
    text = print_sexpr(store, tid)
    assert parse_sexpr(store, text) == tid
