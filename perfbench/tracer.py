"""Per-module timers and counters, installed from outside the program.

`Tracer.install()` replaces public functions and methods of proofgym's
modules with timing wrappers. A module-level function is replaced under every
name its callers look it up by (for example `rewrite.oracle_proof` and
`synthesis.oracle_proof`), so calls between modules are seen too. `remove()`
puts the originals back.

Timings are kept from every round of a stage. Counts are kept only while
`first` is true, that is during a stage's first, fixed rounds, so that for a
given seed they repeat exactly however long the stage runs.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter

from proofgym import autodiff, embeddings, engine, models, protocol, rewrite, sexpr, synthesis, terms, traces


class Tracer:
    def __init__(self) -> None:
        self.stage = "setup"
        self.first = True
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.times: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.totals: dict[tuple[str, str], float] = defaultdict(float)
        # Time spent inside one train step or one prediction, by part.
        self._parts: dict[str, float] | None = None
        self._print_depth = 0
        self._in_predict = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        if self.first:
            self.counts[(self.stage, key)] += n

    def sample(self, key: str, seconds: float) -> None:
        self.times[(self.stage, key)].append(seconds)

    def add(self, key: str, amount: float) -> None:
        self.totals[(self.stage, key)] += amount

    def _part(self, key: str, seconds: float) -> None:
        if self._parts is not None:
            self._parts[key] += seconds

    # -- installation -------------------------------------------------------------

    def _patch(self, owners: list, name: str, make) -> None:
        original = getattr(owners[0], name)
        wrapper = functools.wraps(original)(make(original))
        for owner in owners:
            if getattr(owner, name) is not original:
                raise RuntimeError(f"{owner.__name__}.{name} is not the function it should wrap")
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapper)

    def _timed(self, key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.sample(key, perf_counter() - t)
                    self.count(key)

            return wrapper

        return make

    def _part_timer(self, key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._part(key, perf_counter() - t)

            return wrapper

        return make

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._patch([rewrite, synthesis], "oracle_proof", self._timed("oracle"))
        self._patch([rewrite, synthesis], "completable", self._completable)
        self._patch([rewrite], "gen_expression", self._timed("gen_expression"))
        self._patch([autodiff], "run_forward", self._part_timer("forward"))
        self._patch([autodiff], "run_backward", self._part_timer("backward"))
        self._patch([autodiff.Adam], "step", self._part_timer("adam"))
        self._patch([models], "run_forward", self._part_timer("infer_forward"))
        self._patch([embeddings.StateEmbedder], "embed_state", self._part_timer("build"))
        self._patch([models], "forward_backward", self._forward_backward)
        self._patch([models], "train_step", self._with_parts("train_step"))
        self._patch([models.Classifier], "predict", self._predict)
        self._patch([models.Classifier], "predict_proba", self._predict_proba)
        self._patch([synthesis.ModelPredictor], "propose", self._timed("propose"))
        self._patch([synthesis], "synthesize", self._synthesize)
        self._patch([traces], "write_dataset", self._write_dataset)
        self._patch([traces], "read_dataset", self._read_dataset)
        self._patch([sexpr, traces, protocol], "parse_sexpr", self._timed("parse"))
        self._patch([sexpr, traces, protocol], "print_sexpr", self._print_sexpr)
        self._patch([terms.TermStore], "intern", self._intern)
        self._patch([engine.ProofSession], "apply_tactic", self._timed("apply_tactic"))
        self._patch([engine, protocol, synthesis, rewrite], "start_session", self._timed("start_session"))
        self._patch([engine, synthesis], "rewrite_lhs", self._timed("rewrite_lhs"))
        self._patch([protocol.ProtocolServer], "handle", self._handle)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- wrappers with more to record ----------------------------------------------

    def _completable(self, fn):
        def wrapper(*args, **kwargs):
            ok = fn(*args, **kwargs)
            self.count("completable")
            self.count("completable_true", ok)
            return ok

        return wrapper

    def _forward_backward(self, fn):
        def wrapper(graph, *args, **kwargs):
            out = fn(graph, *args, **kwargs)
            self.add("nodes", len(graph.nodes))
            self.add("buckets", len(graph.buckets()))
            return out

        return wrapper

    def _with_parts(self, key: str):
        """Time the call and, separately, the parts timed inside it."""

        def make(fn):
            def wrapper(*args, **kwargs):
                outer = self._parts
                self._parts = defaultdict(float)
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.sample(key, perf_counter() - t)
                    self.count(key)
                    for part, seconds in self._parts.items():
                        self.add(f"{key}.{part}", seconds)
                    self._parts = outer

            return wrapper

        return make

    def _predict(self, fn):
        inner = self._with_parts("predict")(fn)

        def wrapper(*args, **kwargs):
            self._in_predict = True
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_predict = False

        return wrapper

    def _predict_proba(self, fn):
        def wrapper(clf, store, states, *args, **kwargs):
            if self._in_predict:
                return fn(clf, store, states, *args, **kwargs)
            t = perf_counter()
            out = fn(clf, store, states, *args, **kwargs)
            self.add("predict_proba_s", perf_counter() - t)
            self.add("predict_proba_states", len(states))
            return out

        return wrapper

    def _synthesize(self, fn):
        def wrapper(*args, **kwargs):
            t = perf_counter()
            result = fn(*args, **kwargs)
            self.sample("synthesize", perf_counter() - t)
            self.count("synthesize")
            self.count("steps", len(result.steps))
            if kwargs.get("fallback"):
                self.count("fallback_theorems")
                self.count("fallback_uses", result.fallback_uses)
                self.count("fallback_steps", len(result.steps))
                self.count("fallback_accepted", result.accepted_steps)
            return result

        return wrapper

    def _write_dataset(self, fn):
        def wrapper(*args, **kwargs):
            t = perf_counter()
            text = fn(*args, **kwargs)
            self.add("write_s", perf_counter() - t)
            self.add("write_bytes", len(text.encode("utf-8")))
            return text

        return wrapper

    def _read_dataset(self, fn):
        def wrapper(text, *args, **kwargs):
            t = perf_counter()
            out = fn(text, *args, **kwargs)
            self.add("read_s", perf_counter() - t)
            self.add("read_bytes", len(text.encode("utf-8")))
            self.count("store_nodes", len(out[1]))
            self.count("dataset_bytes", len(text.encode("utf-8")))
            return out

        return wrapper

    def _print_sexpr(self, fn):
        # print_sexpr calls itself through the name wrapped here; time only
        # the outermost call.
        def wrapper(*args, **kwargs):
            if self._print_depth:
                return fn(*args, **kwargs)
            self._print_depth += 1
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._print_depth -= 1
                self.sample("print", perf_counter() - t)
                self.count("print")

        return wrapper

    def _intern(self, fn):
        def wrapper(store, term):
            before = len(store)
            tid = fn(store, term)
            self.count("intern")
            self.count("intern_hit", len(store) == before)
            return tid

        return wrapper

    def _handle(self, fn):
        def wrapper(server, line):
            words = line.split(maxsplit=1)
            t = perf_counter()
            response = fn(server, line)
            seconds = perf_counter() - t
            self.sample("request", seconds)
            self.sample(f"request.{words[0] if words else ''}", seconds)
            self.count("request")
            self.count("err", response is not None and response.startswith("ERR"))
            return response

        return wrapper

    # -- the per-layer metrics --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, t, tot = self.counts, self.times, self.totals

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def mean_ms(stage: str, key: str) -> float:
            return 1e3 * ratio(sum(t[(stage, key)]), len(t[(stage, key)]))

        def q_us(stage: str, key: str, q: float) -> float:
            xs = sorted(t[(stage, key)])
            return 1e6 * xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0

        oracle = t[("gen", "oracle")] + t[("prove", "oracle")]
        steps = len(t[("train", "train_step")])
        predicts = len(t[("prove", "predict")])
        mb = 1e6
        return {
            "rewrite.oracle_calls": (c[("gen", "oracle")] + c[("prove", "oracle")], "count"),
            "rewrite.oracle_ms": (1e3 * ratio(sum(oracle), len(oracle)), "ms"),
            "rewrite.oracle_ms.p50": (1e3 * statistics.median(oracle) if oracle else 0.0, "ms"),
            "rewrite.completable_calls": (c[("prove", "completable")], "count"),
            "rewrite.completable_true_ratio": (ratio(c[("prove", "completable_true")], c[("prove", "completable")]), "ratio"),
            "rewrite.gen_expression_ms": (mean_ms("gen", "gen_expression"), "ms"),
            "autodiff.forward_ms_per_step": (1e3 * ratio(tot[("train", "train_step.forward")], steps), "ms"),
            "autodiff.backward_ms_per_step": (1e3 * ratio(tot[("train", "train_step.backward")], steps), "ms"),
            "autodiff.adam_ms_per_step": (1e3 * ratio(tot[("train", "train_step.adam")], steps), "ms"),
            "autodiff.nodes_per_step": (ratio(tot[("train", "nodes")], steps), "count"),
            "autodiff.buckets_per_step": (ratio(tot[("train", "buckets")], steps), "count"),
            "autodiff.infer_forward_ms": (1e3 * ratio(tot[("prove", "predict.infer_forward")], predicts), "ms"),
            "embeddings.build_ms_per_step": (1e3 * ratio(tot[("train", "train_step.build")], steps), "ms"),
            "embeddings.infer_build_ms": (1e3 * ratio(tot[("prove", "predict.build")], predicts), "ms"),
            "models.train_step_ms.p50": (q_us("train", "train_step", 0.5) / 1e3, "ms"),
            "models.predict_ms.p50": (q_us("prove", "predict", 0.5) / 1e3, "ms"),
            "models.predict_proba_ms": (
                1e3 * ratio(tot[("eval", "predict_proba_s")], tot[("eval", "predict_proba_states")]),
                "ms/state",
            ),
            "synthesis.propose_ms": (mean_ms("prove", "propose"), "ms"),
            "synthesis.theorem_ms.p50": (q_us("prove", "synthesize", 0.5) / 1e3, "ms"),
            "synthesis.steps": (ratio(c[("prove", "steps")], c[("prove", "synthesize")]), "steps"),
            "synthesis.accepted_ratio": (
                ratio(c[("prove", "fallback_accepted")], c[("prove", "fallback_steps")]),
                "ratio",
            ),
            "synthesis.fallback_uses": (
                ratio(c[("prove", "fallback_uses")], c[("prove", "fallback_theorems")]),
                "count",
            ),
            "traces.write_mb_per_s": (ratio(tot[("gen", "write_bytes")] / mb, tot[("gen", "write_s")]), "MB/s"),
            "traces.read_mb_per_s": (ratio(tot[("load", "read_bytes")] / mb, tot[("load", "read_s")]), "MB/s"),
            "traces.dataset_mb": (c[("load", "dataset_bytes")] / mb, "MB"),
            "sexpr.parse_calls": (c[("load", "parse")], "count"),
            "sexpr.parse_us.p50": (q_us("load", "parse", 0.5), "us"),
            "sexpr.print_calls": (c[("gen", "print")], "count"),
            "sexpr.print_us.p50": (q_us("gen", "print", 0.5), "us"),
            "terms.intern_calls": (c[("load", "intern")], "count"),
            "terms.intern_hit_ratio": (ratio(c[("load", "intern_hit")], c[("load", "intern")]), "ratio"),
            "terms.store_nodes": (c[("load", "store_nodes")], "count"),
            "engine.apply_tactic_calls": (c[("serve", "apply_tactic")], "count"),
            "engine.apply_tactic_us.p50": (q_us("serve", "apply_tactic", 0.5), "us"),
            "engine.start_session_calls": (c[("serve", "start_session")], "count"),
            "engine.start_session_us.p50": (q_us("serve", "start_session", 0.5), "us"),
            "engine.rewrite_lhs_calls": (c[("serve", "rewrite_lhs")], "count"),
            "protocol.requests": (c[("serve", "request")], "count"),
            "protocol.theorem_us.p50": (q_us("serve", "request.THEOREM", 0.5), "us"),
            "protocol.tactic_us.p50": (q_us("serve", "request.TACTIC", 0.5), "us"),
            "protocol.state_us.p50": (q_us("serve", "request.STATE", 0.5), "us"),
            "protocol.undo_us.p50": (q_us("serve", "request.UNDO", 0.5), "us"),
            "protocol.request_us.p99": (q_us("serve", "request", 0.99), "us"),
            "protocol.err_responses": (c[("serve", "err")], "count"),
        }
