import random
import re
import string
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proofgym.engine import declare_domain
from proofgym.rewrite import DatasetSpec, gen_dataset_records
from proofgym.sexpr import _MEMO_WIDTH, ParseError, parse_sexpr, print_sexpr
from proofgym.terms import TermError, TermStore
from proofgym.traces import write_dataset

from helpers import build, deep_term, deep_text, term_strategy
from sexpr_reference import reference_parse


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


def test_impl_is_an_unknown_form(store):
    text = "(app f\n  (impl (c e)) (c m))"
    for parse in (parse_sexpr, reference_parse):
        with pytest.raises(ParseError, match=r"^unknown form 'impl' at line 2, column 4$") as exc_info:
            parse(store, text)
        assert (exc_info.value.line, exc_info.value.col) == (2, 4)


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


@given(st.lists(term_strategy(), min_size=1, max_size=12), st.booleans())
def test_round_trip_property(specs, auto):
    source = TermStore()
    for sym, arity in (("G", 0), ("e", 0), ("m", 0), ("f", 2)):
        source.declare(sym, arity)
    tids = [build(source, spec) for spec in specs]
    # One memo across the terms, as in a dataset read. With auto_declare the
    # texts read into an empty store; without it, into their own.
    store = TermStore() if auto else source
    memo: dict = {}
    for tid, text in zip(tids, [print_sexpr(source, tid) for tid in tids]):
        got = parse_sexpr(store, text, auto_declare=auto, memo=memo)
        assert print_sexpr(store, got) == text
        assert parse_sexpr(store, text) == got
        if not auto:
            assert got == tid


# -- the parser against the character-walking reference ---------------------------

# perfbench's workloads: `short` reads 400 + 50 lemmas at length 10, `long`
# 60 + 100 at length 14.
CORPORA = {"short": (10, 400, 50), "long": (14, 60, 100)}
MUTATION_CHARS = "() \n\t" + string.ascii_letters + string.digits + "_'-"


@cache
def corpus_term_lines(workload: str) -> tuple[str, ...]:
    length, n_train, n_test = CORPORA[workload]
    store = TermStore()
    declare_domain(store)
    records, _ = gen_dataset_records(store, DatasetSpec(n_train, 0, length, seed=0))
    more, manifest = gen_dataset_records(store, DatasetSpec(0, n_test, length, seed=1000))
    text = write_dataset(records + more, store, manifest)
    return tuple(line.split(" ", 2)[2] for line in text.splitlines() if line.startswith("#term "))


def mutate(rng: random.Random, text: str) -> str:
    """Delete, insert or replace 1-3 characters."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op, at = rng.randrange(3), rng.randrange(len(chars) + 1)
        if op == 1:
            chars.insert(at, rng.choice(MUTATION_CHARS))
        elif at < len(chars):
            if op == 0:
                del chars[at]
            else:
                chars[at] = rng.choice(MUTATION_CHARS)
    return "".join(chars)


def outcomes(parse, texts, auto, **kwargs):
    """Each text's id or error, and the store's nodes after reading them all in turn."""
    store = TermStore()
    if not auto:
        declare_domain(store)
    out: list = []
    for text in texts:
        try:
            out.append(parse(store, text, auto, **kwargs))
        except ParseError as exc:
            out.append(("ParseError", str(exc), exc.line, exc.col))
        except TermError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out, [store.term(tid) for tid in range(len(store))]


@pytest.mark.parametrize("auto", [True, False], ids=["auto", "declared"])
@pytest.mark.parametrize("workload", sorted(CORPORA))
def test_parser_matches_reference_on_corpus_lines_and_mutations(workload, auto):
    lines = list(corpus_term_lines(workload))
    rng = random.Random(f"{workload}-{auto}")
    mutants = [mutate(rng, rng.choice(lines)) for _ in range(1500)]
    mixed = lines + mutants
    rng.shuffle(mixed)
    # one memo per sequence, as in one dataset read
    for texts in (lines, mixed):
        want, want_nodes = outcomes(reference_parse, texts, auto)
        got, got_nodes = outcomes(parse_sexpr, texts, auto, memo={})
        assert got == want
        assert got_nodes == want_nodes
    # the mutants reach many kinds of error, not one
    kinds = {re.sub(r"'[^']*'|\"[^\"]*\"| at line .*", "", o[1]) for o in want if isinstance(o, tuple)}
    assert len(kinds) >= 8, kinds


@pytest.mark.parametrize(
    "bad",
    [
        "(app f (app f (c e) (v b)) (c m)",  # unclosed after two good spans
        "(app f (app f (c e) (v b)) (c m)) (v b)",  # trailing input
        "(app f (app f (c e) (v b)) (c m) (c e))",  # arity, raised by the store
        "(app f (app f (c e) (v b)) (c zz))",  # undeclared symbol
        "(app f (app f (c e) (v b)) (lambda x))",  # unknown form
        "(app f (app f (c e) (v b)) (c m) @)",  # bad character: nothing is read
    ],
)
def test_an_error_part_way_through_a_read_leaves_the_memo_sound(store, bad):
    memo: dict = {}
    with pytest.raises(TermError):
        parse_sexpr(store, bad, memo=memo)
    # every entry, spans and bare heads alike, is what a fresh read gives
    for key, tid in memo.items():
        assert (reference_parse(store, key) if key.startswith("(") else store.const(key)) == tid
    good = "(app f (app f (c e) (v b)) (c m))"
    assert parse_sexpr(store, good, memo=memo) == reference_parse(store, good)


def test_spans_wider_than_the_memo_width_read_as_the_reference(store):
    store.declare("g")
    wide = "(app g " + "(app f (c e) (v b)) " * 1500 + ")"
    text = f"(app g {wide} {wide})"
    memo: dict = {}
    assert parse_sexpr(store, text, memo=memo) == reference_parse(store, text)
    assert "( app f ( c e ) ( v b ) )" in memo
    assert max(len(key.split()) for key in memo) <= _MEMO_WIDTH
