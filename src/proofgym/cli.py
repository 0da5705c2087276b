"""Command-line entry points: dataset jobs, training, proving, serving.

Everything here is thin plumbing over the library modules; metrics go to
stdout as JSON, progress logs to stderr, artifacts to the paths given.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .embeddings import CELLS, EmbeddingError
from .engine import BadTactic, EngineError, declare_domain, parse_tactic, start_session, tactic_text
from .models import (
    Classifier,
    ModelError,
    TrainConfig,
    evaluate,
    filter_states,
    partition_lemmas,
    pr_curve_csv,
    pr_curve_for,
    recall_at_precision,
    states_for_task,
    train_argument_model,
    train_classifier,
)
from .rewrite import DatasetSpec, GenerationError, OracleError, gen_dataset_records
from .sexpr import ParseError, parse_sexpr, print_sexpr
from .synthesis import (
    ModelPredictor,
    SynthesisError,
    run_benchmark,
    synthesize,
    theorems_from_records,
)
from .terms import TermError, TermStore
from .traces import (
    DatasetError,
    format_table,
    histograms,
    read_dataset,
    write_dataset,
)

KNOWN_ERRORS = (
    TermError,
    EngineError,
    EmbeddingError,
    DatasetError,
    ModelError,
    GenerationError,
    OracleError,
    SynthesisError,
    ParseError,
    OSError,
    ValueError,
)


def _read_dataset(path: str, store: TermStore | None = None):
    with open(path, encoding="utf-8") as fh:
        return read_dataset(fh.read(), store)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    store = TermStore()
    declare_domain(store)
    spec = DatasetSpec(n_train=args.train, n_test=args.test, length=args.length, seed=args.seed)
    records, manifest = gen_dataset_records(store, spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_dataset(records, store, manifest))
    lemmas = len({r.lemma for r in records})
    _log(f"wrote {len(records)} records for {lemmas} lemmas to {args.out}")
    return 0


def cmd_stats(args) -> int:
    records, store, _ = _read_dataset(args.infile)
    kind_counts, tactic_counts = histograms(records, store)
    print(format_table(kind_counts, "ast node kinds"))
    print()
    print(format_table(tactic_counts, "tactic classes"))
    return 0


def cmd_split(args) -> int:
    records, _, _ = _read_dataset(args.infile)
    sizes = Counter(rec.lemma for rec in records)
    parts = dict(zip(("train", "valid", "test"), partition_lemmas(records, seed=args.seed)))
    out = {name: sorted(lemmas) for name, lemmas in parts.items()}
    out["records"] = {name: sum(sizes[lemma] for lemma in lemmas) for name, lemmas in parts.items()}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _partitioned_states(records, task, seed):
    states, space = states_for_task(records, task)
    train_l, valid_l, test_l = partition_lemmas(records, seed=seed)
    return (
        filter_states(states, train_l),
        filter_states(states, valid_l),
        filter_states(states, test_l),
        space,
    )


def cmd_train(args) -> int:
    records, store, _ = _read_dataset(args.infile)
    cfg = TrainConfig(
        cell=args.cell,
        dim=args.dim,
        batch_size=args.batch,
        lr=args.lr,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )
    train_states, valid_states, test_states, space = _partitioned_states(records, args.task, args.seed)
    _log(
        f"task {args.task}: {len(train_states)} train / {len(valid_states)} valid / "
        f"{len(test_states)} test states"
    )
    if args.task == "arg":
        model, history = train_argument_model(store, train_states, valid_states, cfg, log=_log)
        model.save(args.out)
        curve = pr_curve_for(model, store, test_states)
        metrics = {
            "task": "arg",
            "epochs": len(history),
            "test_recall_at_p10": recall_at_precision(curve, 0.10),
            "n_test_states": len(test_states),
        }
    else:
        clf, history = train_classifier(store, train_states, valid_states, space, cfg, log=_log)
        clf.save(args.out)
        metrics = evaluate(clf, store, test_states)
        metrics["task"] = args.task
        metrics["epochs"] = len(history)
    _log(f"saved checkpoint to {args.out}")
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    records, store, _ = _read_dataset(args.infile)
    model = Classifier.load(args.ckpt)
    if args.pr_out and model.space.task != "arg":
        raise ModelError(f"--pr-out needs an 'arg' checkpoint, got task {model.space.task!r}")
    states, _ = states_for_task(records, model.space.task)
    states = _subset(records, states, args.subset, args.seed)
    if model.space.task == "arg":
        curve = pr_curve_for(model, store, states)
        if args.pr_out:
            with open(args.pr_out, "w", encoding="utf-8") as fh:
                fh.write(pr_curve_csv(curve))
        metrics = {
            "n_states": len(states),
            "recall_at_p10": recall_at_precision(curve, 0.10),
        }
    else:
        metrics = evaluate(model, store, states)
    metrics["task"] = model.space.task
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _subset(records, states, subset: str, seed: int):
    if subset == "all":
        return states
    train_l, valid_l, test_l = partition_lemmas(records, seed=seed)
    chosen = {"train": train_l, "valid": valid_l, "test": test_l}[subset]
    return filter_states(states, chosen)


def cmd_prove(args) -> int:
    clf = Classifier.load(args.ckpt)
    store = TermStore()
    declare_domain(store)
    statement = parse_sexpr(store, args.theorem)
    predictor = ModelPredictor(clf)
    if args.interactive:
        return _interactive(store, statement, predictor)
    result = synthesize(store, statement, predictor, fallback=args.fallback)
    out = {
        "outcome": result.outcome,
        "fallback_uses": result.fallback_uses,
        "steps": [
            {"state": s.state, "tactic": tactic_text(s.tactic), "accepted": s.accepted}
            for s in result.steps
        ],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if result.completed else 1


def _interactive(store, statement, predictor) -> int:
    """Suggest-and-confirm REPL; empty input takes the suggestion."""
    session = start_session(store, statement)
    print("commands: <enter>=accept, rewrite <pos> <left|right>, reflexivity, quit")
    while not session.completed:
        sid = session.open_goals[0]
        state = session.state(sid)
        print(f"state {sid}  goal {print_sexpr(store, state.goal)}")
        suggestion = predictor.propose(store, state.ctx, state.goal)
        try:
            line = input(f"[{tactic_text(suggestion)}]> ").strip()
        except EOFError:
            print()
            return 1
        if line == "quit":
            return 1
        try:
            tactic = parse_tactic(line) if line else suggestion
        except BadTactic as exc:
            print(f"unrecognized tactic: {exc}")
            continue
        try:
            session.apply_tactic(sid, tactic)
        except EngineError as exc:
            print(f"rejected: {exc}")
    print("proof complete")
    return 0


def cmd_bench(args) -> int:
    clf = Classifier.load(args.ckpt)
    # The oracle that vets fallback steps needs every domain symbol, including
    # those the file never mentions.
    store = TermStore()
    declare_domain(store)
    records, _, _ = _read_dataset(args.infile, store)
    _, _, test_l = partition_lemmas(records)
    theorems = theorems_from_records(store, [rec for rec in records if rec.lemma in test_l])
    report = run_benchmark(store, theorems, ModelPredictor(clf))
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    _log(f"wrote report to {args.report}")
    print(
        f"strict {report.completed_strict}/{report.n} "
        f"fallback {report.completed_fallback}/{report.n} "
        f"mean_fallback_uses {report.mean_fallback_uses:.3f} "
        f"tactic_accuracy {report.tactic_accuracy:.3f}"
    )
    return 0


def cmd_serve(args) -> int:
    from .protocol import serve

    serve()
    return 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proofgym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a rewrite-domain dataset")
    p.add_argument("--train", type=int, default=400)
    p.add_argument("--test", type=int, default=50)
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="dataset histograms")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="the lemma split train, eval and bench use, as JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--task", choices=("pos", "tac", "arg"), required=True)
    p.add_argument("--cell", choices=CELLS, default="gru")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--subset", choices=("all", "train", "valid", "test"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pr-out", help="write the PR curve CSV here (arg checkpoints only)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prove", help="synthesize a proof for one theorem")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--theorem", required=True)
    mode = p.add_mutually_exclusive_group()  # the REPL takes no fallback
    mode.add_argument("--fallback", action="store_true")
    mode.add_argument("--interactive", action="store_true")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("bench", help="strict/fallback benchmark over test theorems")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="line protocol on stdio")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
