"""End-to-end runs of the command-line entry points.

Each test drives main() directly so argument parsing, exit codes, and the
stdout/stderr split get exercised together with the subcommand bodies. The
trained checkpoints here are deliberately tiny; quality is covered elsewhere.
"""

import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from helpers import make_generic_corpus
from proofgym import cli
from proofgym.cli import build_parser, main
from proofgym.embeddings import load_checkpoint, save_checkpoint
from proofgym.engine import declare_domain, start_session
from proofgym.models import Classifier
from proofgym.rewrite import oracle_proof
from proofgym.sexpr import parse_sexpr
from proofgym.terms import TermStore
from proofgym.traces import read_dataset, write_dataset

TINY = ["--dim", "16", "--batch", "8", "--max-epochs", "2", "--patience", "1", "--seed", "0"]

TRIVIAL = "(prod b (c G) (app eq (v b) (v b)))"
TWO_STEP = "(prod b (c G) (app eq (app f (c e) (v b)) (v b)))"
THREE_STEP = "(prod b (c G) (app eq (app f (c e) (app f (v b) (c m))) (v b)))"
UNPROVABLE = "(prod b (c G) (app eq (app f (c m) (c m)) (v b)))"
TWO_BINDER = "(prod a (c G) (prod b (c G) (app eq (app f (c e) (v b)) (v b))))"


def run(argv):
    """main() with stdout/stderr captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def toy_file(ws):
    path = ws / "toy.ds"
    code, out, err = run(
        ["gen", "--train", "6", "--test", "2", "--length", "4", "--seed", "0", "--out", str(path)]
    )
    assert code == 0
    assert out == ""
    assert "wrote" in err and "8 lemmas" in err
    return str(path)


@pytest.fixture(scope="module")
def tac_ckpt(ws, toy_file):
    path = ws / "tac.npz"
    code, out, _ = run(["train", "--task", "tac", *TINY, "--in", toy_file, "--out", str(path)])
    assert code == 0
    return str(path), json.loads(out)


@pytest.fixture(scope="module")
def pos_ckpt(ws, toy_file):
    path = ws / "pos.npz"
    code, out, _ = run(["train", "--task", "pos", *TINY, "--in", toy_file, "--out", str(path)])
    assert code == 0
    return str(path), json.loads(out)


@pytest.fixture(scope="module")
def generic_file(ws):
    store = TermStore()
    records = make_generic_corpus(store)
    path = ws / "generic.ds"
    path.write_text(write_dataset(records, store, {"kind": "generic"}), encoding="utf-8")
    return str(path)


# -- gen / stats / split ---------------------------------------------------------


def test_gen_round_trips(toy_file):
    with open(toy_file, encoding="utf-8") as fh:
        records, store, manifest = read_dataset(fh.read())
    assert manifest["kind"] == "toy"
    assert manifest["length"] == 4
    lemmas = {r.lemma for r in records}
    assert len(lemmas) == 8
    assert sum(name.startswith("thm_test_") for name in lemmas) == 2
    # L=4 statements: intro, 3 rewrites, reflexivity per lemma
    assert len(records) == 8 * 5


def test_gen_is_deterministic(ws, toy_file):
    again = ws / "toy-again.ds"
    code, _, _ = run(
        ["gen", "--train", "6", "--test", "2", "--length", "4", "--seed", "0", "--out", str(again)]
    )
    assert code == 0
    with open(toy_file, encoding="utf-8") as fh:
        first = fh.read()
    assert again.read_text(encoding="utf-8") == first


@pytest.mark.parametrize(
    "counts,message",
    [
        (["--train", "-1", "--test", "2"], "theorem counts must be >= 0"),
        (["--train", "3", "--test", "-2"], "theorem counts must be >= 0"),
        (["--train", "6", "--test", "2", "--length", "0"], "length must be >= 1"),
    ],
)
def test_gen_rejects_negative_counts_and_lengths(ws, counts, message):
    path = ws / "rejected.ds"
    code, _, err = run(["gen", *counts, "--seed", "0", "--out", str(path)])
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not path.exists()


def test_stats_prints_both_tables(toy_file):
    code, out, _ = run(["stats", "--in", toy_file])
    assert code == 0
    assert "# ast node kinds" in out
    assert "# tactic classes" in out
    for row in ("App", "Const", "Var", "rewrite", "reflexivity", "intro"):
        assert re.search(rf"^{row}\t\d+$", out, flags=re.M), row


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec: [1, 2],
        lambda rec: {**rec, "children": 7},
        lambda rec: {**rec, "ctx": [5]},
        lambda rec: {**rec, "ctx": [["b", 0, 1]]},
        lambda rec: {**rec, "state_id": "zero"},
        lambda rec: {**rec, "state_id": True},
        lambda rec: {**rec, "parent_id": 0.5},
        lambda rec: {**rec, "children": ["1"]},
        lambda rec: {**rec, "lemma": 5},
        lambda rec: {**rec, "tactic": {**rec["tactic"], "raw": 5}},
        lambda rec: {**rec, "ctx": [[["b"], 0]]},
        lambda rec: {**rec, "tactic": {**rec["tactic"], "args": [{"kind": 5, "value": "b"}]}},
        lambda rec: {**rec, "tactic": {**rec["tactic"], "args": [{"kind": "local", "value": ["b"]}]}},
    ],
    ids=["list", "int-children", "int-ctx-entry", "long-ctx-entry", "str-state", "bool-state",
         "float-parent", "str-child", "int-lemma", "int-raw", "list-ctx-name", "int-arg-kind",
         "list-arg-value"],
)
def test_stats_rejects_a_malformed_record(ws, toy_file, edit):
    with open(toy_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[n] = json.dumps(edit(json.loads(lines[n])))
    bad = ws / "malformed.ds"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(["stats", "--in", str(bad)])
    assert code == 2
    assert err.startswith(f"error: line {n + 1}: ")


def test_split_reports_disjoint_lemma_sets(toy_file):
    code, out, _ = run(["split", "--in", toy_file, "--seed", "3"])
    assert code == 0
    split = json.loads(out)
    parts = [set(split["train"]), set(split["valid"]), set(split["test"])]
    assert sum(len(p) for p in parts) == len(parts[0] | parts[1] | parts[2]) == 8
    with open(toy_file, encoding="utf-8") as fh:
        records, _, _ = read_dataset(fh.read())
    assert sum(split["records"].values()) == len(records)

    code, out2, _ = run(["split", "--in", toy_file, "--seed", "3"])
    assert code == 0 and out2 == out


@pytest.mark.parametrize("corpus", ["toy_file", "generic_file"])
def test_split_prints_the_sets_train_and_eval_use(ws, request, monkeypatch, corpus):
    path = request.getfixturevalue(corpus)
    code, out, _ = run(["split", "--in", path, "--seed", "3"])
    assert code == 0
    printed = {part: set(lemmas) for part, lemmas in json.loads(out).items() if part != "records"}
    assert printed["test"]  # the generic corpus has no thm_test_ lemma, yet holds some out

    used = {"evaluated": []}
    train_classifier, evaluate = cli.train_classifier, cli.evaluate

    def train_spy(store, train_states, valid_states, *rest, **kwargs):
        used["train"] = {s.lemma for s in train_states}
        used["valid"] = {s.lemma for s in valid_states}
        return train_classifier(store, train_states, valid_states, *rest, **kwargs)

    def evaluate_spy(model, store, states):
        used["evaluated"].append({s.lemma for s in states})
        return evaluate(model, store, states)

    monkeypatch.setattr(cli, "train_classifier", train_spy)
    monkeypatch.setattr(cli, "evaluate", evaluate_spy)
    ckpt = str(ws / f"split-{corpus}.npz")
    code, _, _ = run(["train", "--task", "pos", *TINY[:-1], "3", "--in", path, "--out", ckpt])
    assert code == 0
    for subset in ("valid", "test"):
        code, _, _ = run(["eval", "--ckpt", ckpt, "--in", path, "--subset", subset, "--seed", "3"])
        assert code == 0
    assert (used["train"], used["valid"]) == (printed["train"], printed["valid"])
    assert used["evaluated"] == [printed["test"], printed["valid"], printed["test"]]


def test_readme_commands_parse():
    # every `proofgym ...` line of the README's shell blocks names real flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [words for words in commands if words[:1] == ["proofgym"]]
    assert {words[1] for words in commands} >= {"gen", "stats", "split", "train", "eval", "bench", "prove"}
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(words)}")


# -- train / eval ----------------------------------------------------------------


def test_train_tac_writes_checkpoint_and_metrics(tac_ckpt):
    path, metrics = tac_ckpt
    assert metrics["task"] == "tac"
    assert metrics["epochs"] >= 1
    assert 0.0 <= metrics["accuracy"] <= 1.0
    clf = Classifier.load(path)
    assert clf.space.task == "tac"


@pytest.mark.parametrize("flags", [["--dim", "0"], ["--batch", "0"], ["--batch", "-1"]])
def test_train_rejects_a_dimension_or_batch_below_one(ws, toy_file, flags):
    out_path = ws / "rejected.npz"
    code, out, err = run(["train", "--task", "tac", *flags, "--in", str(toy_file), "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert "dimension and batch size must be >= 1" in err and "Traceback" not in err
    assert not out_path.exists()


def test_train_rejects_a_manifest_that_is_not_an_object(ws, toy_file):
    with open(toy_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    bad = ws / "list-manifest.ds"
    bad.write_text("\n".join(["#manifest [1, 2]", *lines[1:]]) + "\n", encoding="utf-8")
    out_path = ws / "list-manifest.npz"
    code, out, err = run(["train", "--task", "tac", *TINY, "--in", str(bad), "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: manifest must be a JSON object") and "Traceback" not in err
    assert not out_path.exists()


def test_train_pos_metrics(pos_ckpt):
    path, metrics = pos_ckpt
    assert metrics["task"] == "pos"
    assert metrics["n"] > 0
    assert Classifier.load(path).space.task == "pos"


def test_eval_subsets(pos_ckpt, toy_file):
    path, _ = pos_ckpt
    code, out, _ = run(["eval", "--ckpt", path, "--in", toy_file])
    assert code == 0
    full = json.loads(out)
    code, out, _ = run(["eval", "--ckpt", path, "--in", toy_file, "--subset", "test"])
    assert code == 0
    test_only = json.loads(out)
    assert full["task"] == test_only["task"] == "pos"
    assert full["n"] == 8 * 5
    assert test_only["n"] == 2 * 5  # the thm_test_ lemmas


@pytest.mark.parametrize("ckpt", ["tac_ckpt", "pos_ckpt"])
def test_eval_pr_out_rejects_a_classifier_checkpoint(ws, request, toy_file, ckpt):
    path, _ = request.getfixturevalue(ckpt)
    csv_path = ws / f"curve-{ckpt}.csv"
    code, out, err = run(["eval", "--ckpt", path, "--in", toy_file, "--pr-out", str(csv_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: --pr-out needs an 'arg' checkpoint")
    assert not csv_path.exists()


def test_eval_rejects_a_checkpoint_with_other_depth_bins(ws, pos_ckpt, toy_file):
    path, _ = pos_ckpt
    _, meta = load_checkpoint(path)
    bad = str(ws / "pos-bins.npz")
    save_checkpoint(bad, Classifier.load(path).tensors(), {**meta, "bins": [2, 4, 8]})
    code, out, err = run(["eval", "--ckpt", bad, "--in", toy_file])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "bins" in err


def test_eval_and_bench_reject_a_symbol_outside_the_vocabulary(ws, tac_ckpt):
    path, _ = tac_ckpt
    # at length 6 both test theorems hold the renamed symbol
    corpus = ws / "length6.ds"
    code, _, _ = run(["gen", "--train", "2", "--test", "2", "--length", "6", "--seed", "0", "--out", str(corpus)])
    assert code == 0
    text = corpus.read_text(encoding="utf-8")
    assert "(c m)" in text
    unknown = ws / "unknown-symbol.ds"
    unknown.write_text(text.replace("(c m)", "(c zz)"), encoding="utf-8")
    for argv in (
        ["eval", "--ckpt", path, "--in", str(unknown)],
        ["bench", "--ckpt", path, "--in", str(unknown), "--report", str(ws / "zz-report.json")],
    ):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "'zz'" in err


def test_bench_names_the_unknown_symbol_when_the_file_lacks_a_domain_symbol(ws, tac_ckpt, toy_file):
    # With every `m` renamed, the file never declares `m`, which the oracle
    # vetting fallback steps needs; the first test theorem holds no `zz`.
    path, _ = tac_ckpt
    text = open(toy_file, encoding="utf-8").read()
    assert "(c m)" in text
    unknown = ws / "no-m.ds"
    unknown.write_text(text.replace("(c m)", "(c zz)"), encoding="utf-8")
    for argv in (
        ["eval", "--ckpt", path, "--in", str(unknown)],
        ["bench", "--ckpt", path, "--in", str(unknown), "--report", str(ws / "no-m-report.json")],
    ):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == "error: symbol 'zz' is not in the embedding vocabulary\n"


def _rewrite_checkpoint(path, out, version=1, drop_meta=(), drop_tensors=(), meta=None, rows=None):
    """A copy of a checkpoint with meta keys dropped or set (`meta`), tensors
    dropped, or tensors cut to their first rows (`rows`, name -> count)."""
    arrays, old_meta = load_checkpoint(path)
    new_meta = {**{k: v for k, v in old_meta.items() if k not in drop_meta}, **(meta or {})}
    payload = {"format_version": version, "meta": new_meta}
    blob = np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)
    arrays = {k: v[: (rows or {}).get(k, len(v))] for k, v in arrays.items() if k not in drop_tensors}
    np.savez(out, __meta__=blob, **{f"tensor:{k}": v for k, v in arrays.items()})
    return str(out)


@pytest.mark.parametrize(
    "edit,message",
    [
        (dict(version=2), "version 2"),
        (dict(drop_meta=("symbols",)), "meta lacks 'symbols'"),
        (dict(drop_tensors=("head_W",)), "tensor 'head_W'"),
        (dict(drop_tensors=("term_Uz",)), "tensor 'term_Uz'"),
        (dict(meta={"task": "tac-generic"}), "unknown task 'tac-generic'"),
        (dict(meta={"level": "mid"}), "level 'mid'"),
        (dict(meta={"classes": ["absent", "present"]}), "classes are not the fixed 'tac' classes"),
        (dict(meta={"model": "argument"}), "task 'tac' holds model kind 'argument'"),
        (dict(rows={"head_W": 3, "head_b": 3}), "tensor 'head_W' has shape (3, 16), expected (18, 16)"),
        (dict(rows={"symbol_table": 3}), "tensor 'symbol_table' has shape (3, 16), expected (5, 16)"),
        (dict(meta={"dim": 32}), "tensor 'kind_table' has shape (2, 16), expected (2, 32)"),
        (dict(meta={"dim": 0}), "dim 0 is not a positive integer"),
        (dict(drop_meta=("model",)), "model None is not a known model kind"),
        (dict(meta={"model": ["classifier"]}), "model ['classifier'] is not a known model kind"),
        (dict(meta={"task": ["tac"]}), "task ['tac'] is not a string"),
        (dict(meta={"cell": ["gru"]}), "cell ['gru'] is not a string"),
        (dict(meta={"symbols": 5}), "symbols are not a list of strings"),
        (dict(meta={"symbols": ["G", "e", 3, "f", "m"]}), "symbols are not a list of strings"),
        (dict(meta={"symbols": ["G", "e", "e", "f", "m"]}), "symbols are not distinct"),
    ],
)
def test_eval_rejects_a_malformed_checkpoint(ws, tac_ckpt, toy_file, edit, message):
    path, _ = tac_ckpt
    bad = _rewrite_checkpoint(path, ws / "malformed.npz", **edit)
    code, out, err = run(["eval", "--ckpt", bad, "--in", toy_file])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err, err


@pytest.mark.parametrize(
    "edit",
    [dict(drop_meta=("classes",)), dict(meta={"level": "kernel", "eq_map": None})],
)
def test_eval_loads_older_checkpoints(ws, tac_ckpt, toy_file, edit):
    # older checkpoints may record `level: "kernel"` and `eq_map: null`, and a
    # checkpoint without `classes` gets its task's fixed classes
    path, _ = tac_ckpt
    older = _rewrite_checkpoint(path, ws / "older.npz", **edit)
    assert Classifier.load(older).space == Classifier.load(path).space
    assert run(["eval", "--ckpt", older, "--in", toy_file]) == run(["eval", "--ckpt", path, "--in", toy_file])


def test_train_and_eval_argument_model(ws, generic_file):
    ckpt = ws / "arg.npz"
    code, out, _ = run(
        ["train", "--task", "arg", *TINY[:4], "--max-epochs", "3", "--patience", "2",
         "--seed", "0", "--in", generic_file, "--out", str(ckpt)]
    )
    assert code == 0
    metrics = json.loads(out)
    assert metrics["task"] == "arg"
    assert 0.0 <= metrics["test_recall_at_p10"] <= 1.0
    assert Classifier.load(str(ckpt)).space.task == "arg"

    csv_path = ws / "curve.csv"
    code, out, _ = run(
        ["eval", "--ckpt", str(ckpt), "--in", generic_file, "--pr-out", str(csv_path)]
    )
    assert code == 0
    metrics = json.loads(out)
    assert metrics["task"] == "arg"
    assert 0.0 <= metrics["recall_at_p10"] <= 1.0
    assert csv_path.read_text(encoding="utf-8").startswith("precision,recall\n")


def test_train_tac_rejects_a_dataset_without_rewrites(ws, generic_file):
    code, out, err = run(["train", "--task", "tac", *TINY, "--in", generic_file, "--out", str(ws / "none.npz")])
    assert (code, out) == (2, "")
    assert err.endswith("error: no training states\n")


@pytest.mark.parametrize("flag", [["--level", "mid"], ["--classes", "map.tsv"]])
def test_train_has_no_level_or_classes_option(ws, toy_file, flag):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--task", "tac", *flag, "--in", toy_file, "--out", str(ws / "none.npz")])
    assert exc.value.code == 2


def test_train_arg_rejects_dataset_without_arguments(ws, toy_file):
    code, _, err = run(
        ["train", "--task", "arg", *TINY, "--in", toy_file, "--out", str(ws / "nope.npz")]
    )
    assert code == 2
    assert err.splitlines()[-1].startswith("error:")


# -- prove -----------------------------------------------------------------------


def test_prove_trivial_goal_strict(tac_ckpt):
    path, _ = tac_ckpt
    code, out, _ = run(["prove", "--ckpt", path, "--theorem", TRIVIAL])
    assert code == 0
    result = json.loads(out)
    assert result["outcome"] == "completed"
    assert result["fallback_uses"] == 0
    assert [s["tactic"] for s in result["steps"]] == ["reflexivity"]
    assert all(s["accepted"] for s in result["steps"])


def test_prove_with_fallback_completes(tac_ckpt):
    path, _ = tac_ckpt
    code, out, _ = run(["prove", "--ckpt", path, "--theorem", THREE_STEP, "--fallback"])
    assert code == 0
    result = json.loads(out)
    assert result["outcome"] == "completed"
    tactics = [s["tactic"] for s in result["steps"]]
    assert len(tactics) == 3 and tactics[-1] == "reflexivity"
    assert all(t.startswith("rewrite ") for t in tactics[:2])


def test_prove_unprovable_statement_exits_1(tac_ckpt):
    path, _ = tac_ckpt
    code, out, _ = run(["prove", "--ckpt", path, "--theorem", UNPROVABLE])
    assert code == 1
    assert json.loads(out)["outcome"] == "failed"


def test_prove_rejects_malformed_theorem(tac_ckpt):
    path, _ = tac_ckpt
    code, _, err = run(["prove", "--ckpt", path, "--theorem", "(app f"])
    assert code == 2
    assert err.startswith("error:")


def test_prove_rejects_an_impl_argument(tac_ckpt):
    path, _ = tac_ckpt
    theorem = "(prod b (c G) (app eq (app f (impl (c e)) (v b)) (v b)))"
    code, out, err = run(["prove", "--ckpt", path, "--theorem", theorem])
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown form 'impl' at line 1, column 31")


def test_prove_rejects_interactive_with_fallback(tac_ckpt, capsys):
    # the REPL never falls back, so asking for both is a usage error
    path, _ = tac_ckpt
    with pytest.raises(SystemExit) as exc:
        main(["prove", "--ckpt", path, "--theorem", TWO_STEP, "--interactive", "--fallback"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_prove_interactive_explicit_tactics(tac_ckpt, monkeypatch):
    path, _ = tac_ckpt
    answers = iter(["rewrite 1 left", "reflexivity", "quit", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code, out, _ = run(["prove", "--ckpt", path, "--theorem", TWO_STEP, "--interactive"])
    assert code == 0
    assert "proof complete" in out
    assert "state 1" in out and "state 2" in out


def test_prove_interactive_accepts_suggestion(tac_ckpt, monkeypatch):
    path, _ = tac_ckpt
    monkeypatch.setattr("builtins.input", lambda prompt="": "")
    # trivial goal: the suggestion is reflexivity, accepted by pressing enter
    code, out, _ = run(["prove", "--ckpt", path, "--theorem", TRIVIAL, "--interactive"])
    assert code == 0
    assert "proof complete" in out


def test_prove_interactive_quit_and_eof(tac_ckpt, monkeypatch):
    path, _ = tac_ckpt
    monkeypatch.setattr("builtins.input", lambda prompt="": "quit")
    code, _, _ = run(["prove", "--ckpt", path, "--theorem", TWO_STEP, "--interactive"])
    assert code == 1

    def eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", eof)
    code, _, _ = run(["prove", "--ckpt", path, "--theorem", TWO_STEP, "--interactive"])
    assert code == 1


def test_prove_interactive_reprompts_on_garbage(tac_ckpt, monkeypatch):
    path, _ = tac_ckpt
    answers = iter(["frobnicate", "rewrite x left", "reflexivity"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code, out, _ = run(["prove", "--ckpt", path, "--theorem", TRIVIAL, "--interactive"])
    assert code == 0
    assert "unrecognized tactic" in out
    assert "is not an integer" in out


# -- bench / serve ---------------------------------------------------------------


def test_bench_report(ws, tac_ckpt, toy_file):
    path, _ = tac_ckpt
    report_path = ws / "report.json"
    code, out, _ = run(
        ["bench", "--ckpt", path, "--in", toy_file, "--report", str(report_path)]
    )
    assert code == 0
    line = out.strip()
    assert re.fullmatch(
        r"strict \d+/2 fallback 2/2 mean_fallback_uses \d+\.\d{3} tactic_accuracy \d+\.\d{3}",
        line,
    ), line
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["n"] == 2
    assert report["completed_fallback"] == 2
    assert len(report["per_theorem"]) == 2
    assert {t["lemma"] for t in report["per_theorem"]} == {"thm_test_0000", "thm_test_0001"}


def test_bench_proves_the_split_test_set_of_a_corpus_without_test_lemmas(ws, tac_ckpt):
    path, _ = tac_ckpt
    corpus = ws / "no-test-lemmas.ds"
    code, _, _ = run(["gen", "--train", "30", "--test", "0", "--length", "4", "--seed", "0", "--out", str(corpus)])
    assert code == 0
    code, out, _ = run(["split", "--in", str(corpus)])
    assert code == 0
    test = json.loads(out)["test"]
    assert len(test) == 3 and all(name.startswith("thm_train_") for name in test)
    report_path = ws / "no-test-lemmas-report.json"
    code, out, err = run(["bench", "--ckpt", path, "--in", str(corpus), "--report", str(report_path)])
    assert code == 0, err
    assert out.startswith("strict ") and " fallback 3/3 " in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [t["lemma"] for t in report["per_theorem"]] == test


def test_bench_proves_a_lemma_with_several_binders(ws, tac_ckpt):
    # a session introduces every leading binder, and so must bench
    path, _ = tac_ckpt
    store = TermStore()
    declare_domain(store)
    session = start_session(store, parse_sexpr(store, TWO_BINDER), lemma="thm_test_0000")
    lhs, rhs = session.goal_sides(1)
    for tactic in oracle_proof(store, lhs, rhs):
        session.apply_tactic(session.open_goals[0], tactic)
    corpus = ws / "two-binders.ds"
    corpus.write_text(write_dataset(session.export_tree(), store, {"kind": "toy"}), encoding="utf-8")
    report_path = ws / "two-binders-report.json"
    code, out, err = run(["bench", "--ckpt", path, "--in", str(corpus), "--report", str(report_path)])
    assert code == 0, err
    assert out.startswith("strict ") and " fallback 1/1 " in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [t["lemma"] for t in report["per_theorem"]] == ["thm_test_0000"]


def test_prove_and_bench_reject_a_non_tactic_checkpoint(ws, pos_ckpt, toy_file):
    path, _ = pos_ckpt
    code, out, err = run(["prove", "--ckpt", path, "--theorem", TWO_STEP])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'pos'" in err
    code, out, err = run(
        ["bench", "--ckpt", path, "--in", toy_file, "--report", str(ws / "pos-report.json")]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'pos'" in err


def test_serve_runs_protocol_on_stdio(monkeypatch):
    script = (
        "THEOREM (prod b (c G) (app eq (app f (c e) (v b)) (v b)))\n"
        "\n"
        "TACTIC rewrite 1 left\n"
        "TACTIC reflexivity\n"
        "QUIT\n"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code, out, _ = run(["serve"])
    assert code == 0
    assert out.splitlines() == [
        "OK state=1 goal=(app eq (app f (c e) (v b)) (v b))",
        "OK state=2 goal=(app eq (v b) (v b)) final=false",
        "OK closed=true",
        "OK bye",
    ]


def test_serve_handles_eof_without_quit(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("STATE\n"))
    code, out, _ = run(["serve"])
    assert code == 0
    assert out == "ERR NoSession no theorem has been started\n"


# -- top-level error handling ----------------------------------------------------


def test_missing_dataset_exits_2():
    code, _, err = run(["stats", "--in", "/nonexistent/nowhere.ds"])
    assert code == 2
    assert err.startswith("error:")
