"""The benchmark's tracer against the package it wraps.

`perfbench/tracer.py` replaces library functions and methods by name. A
refactor that renames or drops one of them fails here, in the test suite,
rather than when the benchmark next runs.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402

from proofgym import autodiff, embeddings, models, protocol, sexpr, synthesis, terms, traces  # noqa: E402
from proofgym.engine import declare_domain  # noqa: E402
from proofgym.rewrite import DatasetSpec, gen_dataset_records  # noqa: E402
from proofgym.terms import TermStore  # noqa: E402

HOOKED = [
    (autodiff, "run_forward"),
    (autodiff, "run_backward"),
    (models, "forward_backward"),
    (models, "run_forward"),
    (models, "train_step"),
    (embeddings.StateEmbedder, "embed_state"),
    (autodiff.Adam, "step"),
    (models.Classifier, "predict"),
    (models.Classifier, "predict_proba"),
    (synthesis.ModelPredictor, "propose"),
    (synthesis, "synthesize"),
    (synthesis, "oracle_proof"),
    (sexpr, "parse_sexpr"),
    (traces, "parse_sexpr"),
    (protocol, "parse_sexpr"),
    (traces, "read_dataset"),
    (terms.TermStore, "intern"),
]


def test_tracer_installs_counts_and_removes():
    # the `short` workload's cell, which trains without dropout
    _traced_step_and_prediction("gru", rate=0.0)


def test_tracer_on_the_treelstm_path():
    # the `long` workload's cell, with its default dropout
    _traced_step_and_prediction("treelstm", rate=0.1)


def test_traced_read_counts_one_parse_per_term_line():
    store = TermStore()
    declare_domain(store)
    records, manifest = gen_dataset_records(store, DatasetSpec(4, 2, 5, seed=0))
    text = traces.write_dataset(records, store, manifest)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.stage = "load"
        _, read_store, _ = traces.read_dataset(text)
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    term_lines = sum(line.startswith("#term ") for line in text.splitlines())
    assert metrics["sexpr.parse_calls"][0] == term_lines
    assert metrics["terms.store_nodes"][0] == len(read_store)
    # interning is idempotent: at least one call per node the read created
    assert metrics["terms.intern_calls"][0] >= len(read_store)


def _traced_step_and_prediction(cell, rate):
    originals = {(owner, name): getattr(owner, name) for owner, name in HOOKED}
    store = TermStore()
    declare_domain(store)
    records, _ = gen_dataset_records(store, DatasetSpec(4, 0, 5, seed=0))
    states, space = models.states_for_task(records, "tac")
    cfg = models.TrainConfig(cell=cell, dim=8, batch_size=4, seed=0)
    clf = models.Classifier.create(store, space, cfg)
    assert clf.config(train=True, pass_seed=1).rate == rate

    tracer = Tracer()
    tracer.install()
    try:
        for owner, name in HOOKED:
            assert getattr(owner, name) is not originals[(owner, name)], name
        tracer.stage = "train"
        models.train_step(clf, store, states[:4], autodiff.Adam(clf.tensors(), lr=cfg.lr), pass_seed=1)
        tracer.stage = "prove"
        assert np.isclose(clf.predict(store, states[0]).sum(), 1.0)
        theorems = synthesis.theorems_from_records(store, records)[:1]
        # nodes each prove-stage forward run finds computed, seen through the
        # tracer's own wrapper
        traced, computed_before = models.run_forward, []

        def spy(graph, *args, **kwargs):
            computed_before.append(graph.computed)
            return traced(graph, *args, **kwargs)

        models.run_forward = spy
        try:
            assert synthesis.run_benchmark(store, theorems, synthesis.ModelPredictor(clf)).completed_fallback == 1
        finally:
            models.run_forward = traced
    finally:
        tracer.remove()
    for owner, name in HOOKED:
        assert getattr(owner, name) is originals[(owner, name)], name

    metrics = tracer.metrics()
    # CompGraph.nodes and CompGraph.buckets() are read inside the wrappers.
    assert metrics["autodiff.nodes_per_step"][0] > metrics["autodiff.buckets_per_step"][0] > 0
    for key in ("autodiff.forward_ms_per_step", "autodiff.backward_ms_per_step", "embeddings.build_ms_per_step"):
        assert metrics[key][0] > 0, key
    assert metrics["models.predict_ms.p50"][0] > 0
    # the prover reaches the model through the wrapped entry points
    assert tracer.counts[("prove", "predict")] > 1
    assert tracer.counts[("prove", "propose")] > 0
    assert tracer.counts[("prove", "synthesize")] == 2
    # one graph per theorem: later predictions run on what earlier ones computed
    assert computed_before[0] == 0 and max(computed_before) > 0
