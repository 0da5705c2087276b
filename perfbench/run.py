"""Stage-by-stage benchmark of the proofgym pipeline.

One run takes one workload through the pipeline a user drives from the
command line, in stages, by calling the library's public functions:

    gen    generate theorems, prove them with the oracle, write the dataset text
    load   read that text back (every train, eval and bench command starts so)
    train  a fixed number of train_step Adam updates, no early stop
    eval   batched inference over the held-out states
    prove  run_benchmark, strict and fallback, over the held-out theorems
    serve  scripted proof sessions through protocol.serve() on in-memory streams

Every output is checked against refcheck.py or a required property. The last
line of standard output is one JSON object: whether the run-level checks
held, how many operations were attempted and failed, and the end-to-end
metrics (or, with --trace 1, the per-layer metrics of tracer.py).

    python3 perfbench/run.py --workload short --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload long --repeat 10 --seconds 50

--repeat N runs seeds seed..seed+N-1, each in a process of its own, and
prints each metric's median and quartile spread beside its bound.
"""

from __future__ import annotations

import os
import sys
import time

START = float(os.environ.get("PERFBENCH_T0", time.time()))
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # The hash seed and BLAS threads are read at interpreter start: re-execute
    # this process with them fixed, keeping the original start time.
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV, "PERFBENCH_T0": repr(START)})

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    length: int  # leaves per theorem; a proof is length-1 rewrites + reflexivity
    n_train: int  # lemmas in the corpus
    n_test: int  # held-out lemmas in the corpus
    gen_round: int  # theorems per later gen round
    cell: str
    sessions: int  # proof sessions per serve() call
    # Share of the run's time for each stage. Training does a fixed number of
    # steps; its share sets how much other work is interleaved with them.
    shares: dict[str, float]


WORKLOADS = {
    # The README tour's sizes and training lemmas: model inference and
    # autodiff dominate, the oracle is nearly free.
    "short": Workload(
        length=10, n_train=400, n_test=50, gen_round=50, cell="gru", sessions=30,
        shares={"train": 0.3, "gen": 0.15, "load": 0.06, "serve": 0.1, "eval": 0.08, "prove": 0.35},
    ),
    # Longer theorems: the oracle's exponential search dominates generation
    # and proving, sessions are long, and training runs the TreeLSTM cell
    # with its default dropout. One theorem's oracle time varies about as
    # much as its mean, so gen and prove get most of the time, to average
    # over many theorems.
    "long": Workload(
        length=14, n_train=60, n_test=100, gen_round=10, cell="treelstm", sessions=12,
        shares={"train": 0.3, "gen": 0.35, "load": 0.04, "serve": 0.06, "eval": 0.05, "prove": 0.35},
    ),
}
DIM, BATCH, TRAIN_STEPS = 128, 32, 40
UNDO_SHARE = 0.2  # share of session steps undone and redone
INVALID_SHARE = 0.15  # share of session steps first tried as an invalid rewrite
# Held-out theorems proved before the prove stage may end; per-layer counts
# come from each stage's first rounds.
PROVE_MIN_ROUNDS = 10
EVAL_SLICE = 64  # states per later eval round: one predict_proba chunk
WARM_UP_REPEATS = 5
# The training lemmas and their batch order do not depend on --seed. With
# them drawn from the seed, the 40-step model's quality varied from seed to
# seed, and with it how often proving fell back to the oracle: over ten seeds
# prove_theorems_per_s on `long` spread by 0.23 of its median.
TRAIN_CORPUS_SEED = 0
SCRIPTS = 8  # distinct serve() inputs, used in turn


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run this many seeds and summarise")
    return parser.parse_args(argv)


# -- bookkeeping ------------------------------------------------------------------


class Stage:
    """One pipeline stage: a round function and the rounds it has run.

    run_round(i) returns (work done, seconds timed); only the library calls
    are inside the timed part, the checks are not.
    """

    def __init__(self, name: str, share: float, run_round, min_rounds: int = 1, max_rounds: int | None = None) -> None:
        self.name = name
        self.share = share
        self.run_round = run_round
        self.min_rounds = min_rounds
        self.max_rounds = max_rounds
        self.rounds: list[tuple[float, float]] = []

    @property
    def finished(self) -> bool:
        return self.max_rounds is not None and len(self.rounds) >= self.max_rounds

    def rate(self) -> float:
        """Work over time: every theorem counts, however long it took."""
        return sum(w for w, _ in self.rounds) / sum(s for _, s in self.rounds)

    def median_rate(self) -> float:
        """Median of per-round rates: a slow stretch of the machine, or a few
        rounds far costlier than the rest, move it less than the mean."""
        return statistics.median(w / s for w, s in self.rounds)


class Run:
    """Operation counts, run-level checks and the stage schedule of one run."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def ops(self, stage: str, n: int, failed: int, why: str = "") -> None:
        self.attempted += n
        self.failed += failed
        if failed:
            print(f"[{stage}] {failed} of {n} operations failed: {why}", file=sys.stderr)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            print(f"check failed: {what}", file=sys.stderr)

    def step(self, stage: Stage) -> float:
        """Run the stage's next round; returns the wall time it took, checks included."""
        gc.collect()
        t = perf_counter()
        i = len(stage.rounds)
        self.tracer.stage = stage.name
        self.tracer.first = i < stage.min_rounds
        stage.rounds.append(stage.run_round(i))
        self.tracer.first = False
        return perf_counter() - t

    def interleave(self, stages: list[Stage], done) -> None:
        """Run rounds, each time of the stage furthest below its share of this
        phase's time, until done() holds and every stage has its first rounds.

        Interleaving spreads every stage over the whole run, so a stretch of
        time in which the machine runs slower touches all stages alike.
        """
        spent = {s.name: 0.0 for s in stages}
        while not (done() and all(len(s.rounds) >= s.min_rounds for s in stages)):
            ready = [s for s in stages if not s.finished]
            stage = min(ready, key=lambda s: spent[s.name] / s.share)
            spent[stage.name] += self.step(stage)

    @staticmethod
    def settle() -> None:
        """Collect garbage, then exempt what survives from later collections."""
        gc.collect()
        gc.freeze()


def steps_of(result) -> list[tuple]:
    from proofgym.engine import Reflexivity

    return [
        ("reflexivity",) if isinstance(s.tactic, Reflexivity) else ("rewrite", s.tactic.pos, s.tactic.law.value)
        for s in result.steps
    ]


@contextmanager
def capturing_synthesis(results: list):
    """Keep each SynthesisResult run_benchmark makes, so its steps can be checked."""
    from proofgym import synthesis

    original = synthesis.synthesize

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append((bool(kwargs.get("fallback")), result))
        return result

    synthesis.synthesize = capture
    try:
        yield
    finally:
        synthesis.synthesize = original


# -- set-up ----------------------------------------------------------------------------


def build_scripts(w: Workload, seed: int, refcheck) -> list[tuple[str, str, int]]:
    """serve() inputs and the transcripts refcheck predicts: (requests, responses, count)."""
    rng = random.Random(f"serve-{seed}")
    scripts = []
    for _ in range(SCRIPTS):
        pairs = []
        for _ in range(w.sessions):
            pairs.extend(refcheck.protocol_session(rng, w.length, UNDO_SHARE, INVALID_SHARE))
        pairs.append(("QUIT", "OK bye"))
        requests = "".join(req + "\n" for req, _ in pairs)
        responses = "".join(resp + "\n" for _, resp in pairs)
        scripts.append((requests, responses, len(pairs)))
    return scripts


def warm_up(w: Workload, script: str) -> None:
    """Run every stage once on tiny inputs, so lazy set-up happens before timing."""
    from proofgym import autodiff, engine, models, protocol, rewrite, synthesis, terms, traces

    store = terms.TermStore()
    engine.declare_domain(store)
    records, manifest = rewrite.gen_dataset_records(store, rewrite.DatasetSpec(3, 2, min(w.length, 8), seed=7))
    records, store, _ = traces.read_dataset(traces.write_dataset(records, store, manifest))
    states, space = models.states_for_task(records, "tac")
    cfg = models.TrainConfig(cell=w.cell, dim=DIM, batch_size=BATCH, seed=0)
    clf = models.Classifier.create(store, space, cfg)
    models.train_step(clf, store, states[:4], autodiff.Adam(clf.tensors(), lr=cfg.lr), pass_seed=1)
    clf.predict_proba(store, states[:4])
    theorems = synthesis.theorems_from_records(store, records)[:1]
    synthesis.run_benchmark(store, theorems, synthesis.ModelPredictor(clf))
    protocol.serve(io.StringIO(script), io.StringIO())


# -- one run ------------------------------------------------------------------------------


def run_once(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "proofgym" / "__init__.py").is_file():
        raise SystemExit(f"proofgym sources not found under {SRC}")
    sys.path[:0] = [str(HERE), str(SRC)]
    import numpy as np

    import refcheck
    from proofgym import autodiff, engine, models, protocol, rewrite, synthesis, terms, traces
    from tracer import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    run = Run(tracer)
    tracer.first = False
    import_s = time.time() - START
    setups = []
    for _ in range(WARM_UP_REPEATS):
        t = perf_counter()
        scripts = build_scripts(w, seed, refcheck)
        warm_up(w, scripts[0][0])
        setups.append(perf_counter() - t)
    setup_s = import_s + statistics.median(setups)
    run.settle()
    start = perf_counter()

    # gen: round 0 is the corpus the later stages use. Its training lemmas are
    # the same in every run, so every run trains the same model; the seed
    # picks its held-out lemmas. Each later round draws a smaller dataset from
    # a seed of its own, so a run averages over more theorems.
    corpus: dict = {}

    def gen_round(i: int):
        store = terms.TermStore()
        engine.declare_domain(store)
        t = perf_counter()
        if i == 0:
            fixed = rewrite.DatasetSpec(w.n_train, 0, w.length, seed=TRAIN_CORPUS_SEED)
            records, _ = rewrite.gen_dataset_records(store, fixed)
            held_out = rewrite.DatasetSpec(0, w.n_test, w.length, seed=seed * 1000)
            more, manifest = rewrite.gen_dataset_records(store, held_out)
            records += more
            manifest["n_train"] = w.n_train
        else:
            spec = rewrite.DatasetSpec(w.gen_round, 0, w.length, seed=seed * 1000 + i)
            records, manifest = rewrite.gen_dataset_records(store, spec)
        text = traces.write_dataset(records, store, manifest)
        dt = perf_counter() - t
        n = w.n_train + w.n_test if i == 0 else w.gen_round
        try:
            exprs = refcheck.check_dataset(text, w.length)
            run.ops("gen", n, n - len(exprs), "lemmas missing from the dataset")
        except (refcheck.RefError, LookupError, ValueError) as exc:
            run.ops("gen", n, n, f"reference check: {exc}")
            exprs = {}
        if i == 0:
            corpus.update(text=text, exprs=exprs)
        return n, dt

    loaded: dict = {}

    def load_round(i: int):
        t = perf_counter()
        records, store, manifest = traces.read_dataset(corpus["text"])
        dt = perf_counter() - t
        if i == 0:
            loaded.update(records=records, store=store)
            again = traces.write_dataset(records, store, manifest)
            run.require(again == corpus["text"], "write -> read -> write changes the dataset text")
            run.ops("load", 1, 0)
        else:
            run.ops("load", 1, int(records != loaded["records"]), "a repeated read differs")
        return len(records), dt

    gen = Stage("gen", w.shares["gen"], gen_round)
    load = Stage("load", w.shares["load"], load_round)
    run.step(gen)
    run.step(load)
    records, store = loaded["records"], loaded["store"]
    states, space = models.states_for_task(records, "tac")
    train_l, valid_l, test_l = models.partition_lemmas(records, seed=0)
    train_states = models.filter_states(states, train_l | valid_l)
    test_states = models.filter_states(states, test_l)
    cfg = models.TrainConfig(cell=w.cell, dim=DIM, batch_size=BATCH, seed=0)
    clf = models.Classifier.create(store, space, cfg)
    adam = autodiff.Adam(clf.tensors(), lr=cfg.lr)
    order = list(train_states)
    random.Random(TRAIN_CORPUS_SEED).shuffle(order)

    def train_round(i: int):
        batch = [order[(i * BATCH + j) % len(order)] for j in range(BATCH)]
        t = perf_counter()
        loss = models.train_step(clf, store, batch, adam, pass_seed=i + 1)
        dt = perf_counter() - t
        run.ops("train", 1, int(not math.isfinite(loss)), f"loss {loss}")
        return len(batch), dt

    def serve_round(i: int):
        requests, expected, n = scripts[i % len(scripts)]
        out = io.StringIO()
        t = perf_counter()
        protocol.serve(io.StringIO(requests), out)
        dt = perf_counter() - t
        got, want = out.getvalue().splitlines(), expected.splitlines()
        bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        run.ops("serve", n, min(bad, n), "responses differ from the reference transcript")
        return n, dt

    train = Stage("train", w.shares["train"], train_round, TRAIN_STEPS, TRAIN_STEPS)
    serve = Stage("serve", w.shares["serve"], serve_round)
    run.settle()
    run.interleave([train, gen, load, serve], lambda: train.finished)

    probs: dict = {}
    slices = range(0, len(test_states), EVAL_SLICE)

    def eval_round(i: int):
        lo = 0 if i == 0 else slices[(i - 1) % len(slices)]
        part = test_states if i == 0 else test_states[lo : lo + EVAL_SLICE]
        t = perf_counter()
        p = clf.predict_proba(store, part)
        dt = perf_counter() - t
        if i == 0:
            probs["first"] = p
            bad = int(np.sum(np.abs(p.sum(axis=1) - 1.0) > 1e-9))
            run.ops("eval", len(part), bad, "probability rows that do not sum to 1")
        else:
            same = np.array_equal(p, probs["first"][lo : lo + len(part)])
            run.ops("eval", len(part), 0 if same else len(part), "a repeated pass differs")
        return len(part), dt

    theorems = synthesis.theorems_from_records(store, records, lemma_prefix="thm_test_")
    predictor = synthesis.ModelPredictor(clf)
    attempts: list = []

    def prove_round(i: int):
        thm = theorems[i % len(theorems)]
        attempts.clear()
        t = perf_counter()
        report = synthesis.run_benchmark(store, [thm], predictor)
        dt = perf_counter() - t
        try:
            check_attempt(refcheck, corpus["exprs"][thm.name], w.length, report, attempts)
            run.ops("prove", 1, 0)
        except (refcheck.RefError, LookupError, ValueError) as exc:
            run.ops("prove", 1, 1, f"{thm.name}: {exc}")
        return 1, dt

    evaluate = Stage("eval", w.shares["eval"], eval_round)
    prove = Stage("prove", w.shares["prove"], prove_round, PROVE_MIN_ROUNDS)
    run.settle()
    with capturing_synthesis(attempts):
        run.interleave([evaluate, prove, gen, load, serve], lambda: perf_counter() - start >= seconds)
    tracer.remove()

    p = probs["first"]
    labels = np.array([st.label - 1 for st in test_states])
    heldout_loss = float(-np.mean(np.log(p[np.arange(len(labels)), labels])))
    run.require(heldout_loss < math.log(space.n_classes), f"held-out loss {heldout_loss} >= ln {space.n_classes}")
    pick = random.Random(seed).sample(range(len(test_states)), min(8, len(test_states)))
    sample = [test_states[k] for k in pick]
    unbatched = clf.predict_proba(store, sample, batched=False)
    run.require(
        np.allclose(clf.predict_proba(store, sample), unbatched, rtol=1e-9, atol=1e-12)
        and np.allclose(p[pick], unbatched, rtol=1e-9, atol=1e-12),
        "batched and unbatched predict_proba disagree",
    )

    stages = [gen, load, train, evaluate, prove, serve]
    rates = {
        "gen_theorems_per_s": (gen.rate(), "theorems/s"),
        "load_records_per_s": (load.median_rate(), "records/s"),
        "train_states_per_s": (train.median_rate(), "states/s"),
        "eval_states_per_s": (evaluate.median_rate(), "states/s"),
        "prove_theorems_per_s": (prove.median_rate(), "theorems/s"),
        "serve_requests_per_s": (serve.median_rate(), "requests/s"),
    }
    for stage, (name, (value, unit)) in zip(stages, rates.items()):
        timed = sum(s for _, s in stage.rounds)
        print(f"{name} {value:.4f} {unit} ({len(stage.rounds)} rounds, {timed:.2f} s timed)", file=sys.stderr)
    if trace:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            **rates,
            "heldout_loss": (heldout_loss, "nats"),
        }
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def check_attempt(refcheck, expr, length: int, report, attempts: list) -> None:
    """One theorem's strict and fallback attempts, against the reference checker."""
    modes = dict(attempts)
    if sorted(modes) != [False, True] or len(attempts) != 2:
        raise refcheck.RefError(f"expected one strict and one fallback attempt, got {len(attempts)}")
    strict, loose = modes[False], modes[True]
    if not loose.completed:
        raise refcheck.RefError("fallback attempt did not complete")
    for result in (strict, loose):
        steps = steps_of(result)
        if result.completed:
            if len(steps) != length:
                raise refcheck.RefError(f"completed proof has {len(steps)} steps, expected {length}")
            refcheck.check_proof(expr, steps)
        else:
            cur = expr
            for step in steps:
                cur = refcheck.rewrite(cur, step[1], step[2])
    if (report.n, report.completed_strict, report.completed_fallback) != (1, int(strict.completed), 1):
        raise refcheck.RefError("benchmark report disagrees with the attempts")


# -- repeated runs --------------------------------------------------------------------------


def repeat(args: argparse.Namespace) -> int:
    """Run seeds seed..seed+N-1 in turn; print median and quartile spread per metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_T0"}
    results = []
    for k in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed + k),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {args.seed + k}: {json.dumps(results[-1])}", file=sys.stderr)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"repeat-{args.workload}-trace{args.trace}.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"{'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        mark = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE" if spread > bound else "wide")
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{name:32} {med:12.4f} {spread:8.3f} {shown:>6} {mark}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"attempted {attempted} failed {failed} correct {all(r['correct'] for r in results)}")
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.repeat == 1 or args.repeat < 0:
        raise SystemExit("--repeat needs at least two runs to give a spread")
    if args.repeat:
        return repeat(args)
    result = run_once(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
