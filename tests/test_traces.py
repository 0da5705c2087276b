import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proofgym.engine import declare_domain
from proofgym.rewrite import DatasetSpec, gen_dataset_records
from proofgym.terms import TermStore
from proofgym.traces import (
    DEPTH_BOUNDS,
    DatasetError,
    TacticArg,
    TacticCall,
    TraceRecord,
    bin_depth,
    format_table,
    histograms,
    read_dataset,
    write_dataset,
)

from helpers import build, make_generic_corpus, term_strategy


@pytest.fixture
def store():
    s = TermStore()
    declare_domain(s)
    return s


def toy_records(store, n_train=4, n_test=2, length=5, seed=0):
    return gen_dataset_records(store, DatasetSpec(n_train, n_test, length, seed))


# -- serialization -------------------------------------------------------------------


def test_write_read_round_trip(store):
    records, manifest = toy_records(store)
    text = write_dataset(records, store, manifest)
    records2, store2, manifest2 = read_dataset(text)
    assert len(records2) == len(records)
    assert manifest2["kind"] == "toy"
    assert manifest2["version"] == 1
    # structure-identical re-serialization
    assert write_dataset(records2, store2, manifest2) == text


def test_write_header_shape(store):
    records, manifest = toy_records(store, 2, 1, 4, 1)
    lines = write_dataset(records, store, manifest).splitlines()
    assert lines[0].startswith("#manifest ")
    manifest_json = json.loads(lines[0][len("#manifest "):])
    assert manifest_json["version"] == 1
    term_lines = [ln for ln in lines if ln.startswith("#term ")]
    ids = [int(ln.split()[1]) for ln in term_lines]
    assert ids == list(range(len(ids)))  # dense, first-use order


def test_record_lines_are_json(store):
    records, manifest = toy_records(store, 2, 1, 4, 1)
    lines = write_dataset(records, store, manifest).splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    rec = json.loads(body[0])
    assert set(rec) == {"lemma", "state_id", "parent_id", "ctx", "goal", "tactic", "children"}
    assert set(rec["tactic"]) == {"class", "raw", "args"}


def test_read_rejects_garbage_manifest():
    with pytest.raises(DatasetError):
        read_dataset("#manifest not-json\n")
    for manifest in ("[1, 2]", '"toy"', "3", "null"):
        with pytest.raises(DatasetError, match="^line 1: manifest must be a JSON object"):
            read_dataset(f"#manifest {manifest}\n")


def test_read_rejects_an_impl_argument():
    text = "#manifest {}\n#term 0 (c G)\n#term 1 (app f (impl (c e)) (c m))\n"
    with pytest.raises(DatasetError, match=r"^line 3: unknown form 'impl' at line 1, column 9$"):
        read_dataset(text)


def test_read_rejects_non_dense_term_ids():
    with pytest.raises(DatasetError):
        read_dataset('#manifest {}\n#term 1 (c G)\n')
    # only the ids write_dataset prints, though int() reads each of these as 0
    for fid in ("+0", "-0", "00", "0_0", "\u0660"):
        with pytest.raises(DatasetError, match=re.escape(f"line 2: bad term id {fid!r}")):
            read_dataset(f"#manifest {{}}\n#term {fid} (c G)\n")


def test_read_rejects_dangling_term_ref(store):
    records, manifest = toy_records(store, 2, 1, 4, 1)
    text = write_dataset(records, store, manifest)
    lines = text.splitlines()
    # the first record with a context entry; bool is an int subclass, so
    # true and false must not read as table entries 1 and 0
    body_ix = next(i for i, ln in enumerate(lines) if not ln.startswith("#") and json.loads(ln)["ctx"])
    for field, value in (("goal", 10_000), ("goal", True), ("ctx", [["h", False]])):
        rec = json.loads(lines[body_ix])
        rec[field] = value
        bad = lines[:body_ix] + [json.dumps(rec)] + lines[body_ix + 1 :]
        with pytest.raises(DatasetError, match=f"^line {body_ix + 1}: dangling term ref"):
            read_dataset("\n".join(bad) + "\n")


def test_read_rejects_duplicate_state(store):
    records, manifest = toy_records(store, 2, 1, 4, 1)
    text = write_dataset(records, store, manifest)
    lines = text.splitlines()
    body_ix = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines.append(lines[body_ix])
    with pytest.raises(DatasetError):
        read_dataset("\n".join(lines) + "\n")


def test_read_rejects_table_line_after_records(store):
    records, manifest = toy_records(store, 2, 1, 4, 1)
    text = write_dataset(records, store, manifest)
    with pytest.raises(DatasetError):
        read_dataset(text + "#term 99 (c G)\n")


@given(term_strategy(), st.data())
def test_bad_term_line_error_names_its_line_and_position(spec, data):
    store = TermStore()
    declare_domain(store)
    goal = build(store, spec)
    rec = TraceRecord("lemma", 0, None, (), goal, TacticCall("reflexivity", "reflexivity"), ())
    lines = write_dataset([rec], store).splitlines()
    term_lines = [n for n, line in enumerate(lines) if line.startswith("#term ")]
    n = data.draw(st.sampled_from(term_lines))
    _, fid, sexpr = lines[n].split(" ", 2)
    at = data.draw(st.integers(0, len(sexpr)))
    lines[n] = f"#term {fid} {sexpr[:at]}@{sexpr[at:]}"
    with pytest.raises(DatasetError) as exc_info:
        read_dataset("\n".join(lines) + "\n")
    assert str(exc_info.value) == f"line {n + 1}: unexpected character '@' at line 1, column {at + 1}"


def test_read_into_existing_store(store):
    records, manifest = toy_records(store, 2, 1, 4, 1)
    text = write_dataset(records, store, manifest)
    target = TermStore()
    declare_domain(target)
    records2, store2, _ = read_dataset(text, store=target)
    assert store2 is target
    assert len(records2) == len(records)


def test_generic_corpus_round_trip(store):
    records = make_generic_corpus(store)
    text = write_dataset(records, store, {"kind": "ingested"})
    records2, store2, manifest2 = read_dataset(text)
    assert manifest2["kind"] == "ingested"
    assert write_dataset(records2, store2, manifest2) == text


# -- depth bins ------------------------------------------------------------------


def test_bin_depth_goldens():
    assert DEPTH_BOUNDS == (5, 19)
    for steps, expected in [(0, 1), (5, 1), (6, 2), (19, 2), (20, 3), (100, 3)]:
        assert bin_depth(steps) == expected


def test_bin_depth_rejects_negative():
    with pytest.raises(DatasetError):
        bin_depth(-1)


# -- histograms ---------------------------------------------------------------------


def test_histogram_node_kind_golden(store):
    from proofgym.sexpr import parse_sexpr

    # goal-only encoding of b (+) m = b: App eq, App f, consts eq/f/m, vars b/b
    goal = parse_sexpr(store, "(app eq (app f (v b) (c m)) (v b))")
    rec = TraceRecord("one", 1, 0, (), goal, TacticCall("rewrite", "rewrite 1 right"), (2,))
    kind_counts, tactic_counts = histograms([rec], store)
    assert kind_counts == {"App": 2, "Const": 3, "Var": 2}
    assert tactic_counts == {"rewrite": 1}
    # context entry types count too: [(b, G)] adds one Const
    g_ty = parse_sexpr(store, "(c G)")
    with_ctx = TraceRecord("two", 1, 0, (("b", g_ty),), goal, TacticCall("rewrite", "rewrite 1 right"), (2,))
    kind_counts, _ = histograms([with_ctx], store)
    assert kind_counts == {"App": 2, "Const": 4, "Var": 2}


def test_histogram_counts_expanded_occurrences(store):
    from proofgym.sexpr import parse_sexpr

    # shared subterm e (+) e appears twice in the expanded view
    goal = parse_sexpr(store, "(app f (app f (c e) (c e)) (app f (c e) (c e)))")
    rec = TraceRecord("s", 0, None, (), goal, TacticCall("x", "x"), ())
    kind_counts, _ = histograms([rec], store)
    assert kind_counts["App"] == 3
    assert kind_counts["Const"] == 7  # f, f, e, e, f, e, e


def test_histogram_tactic_classes(store):
    records = make_generic_corpus(store, n_lemmas=6)
    _, tactic_counts = histograms(records, store)
    assert tactic_counts["reflexivity"] == 6
    assert sum(tactic_counts.values()) == 18


def test_format_table_sorted():
    text = format_table({"b": 2, "a": 2, "c": 9}, "stuff")
    assert text.splitlines() == ["# stuff", "c\t9", "a\t2", "b\t2"]
