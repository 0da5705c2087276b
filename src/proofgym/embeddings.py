"""Recursive embeddings of terms and proof states.

Every AST node folds its children's embeddings with a recurrent cell: a
composition at an App or Prod node feeds the node-kind vector first, starting
from a zero hidden state. Bound variables embed to vectors drawn from a
counter-based stream keyed by (pass_seed, stream, index), so a renamed binder
embeds identically within a pass and differently across passes. The embedder
memoizes per (term, free-variable bindings, implicit-mode) so shared subterms
cost one subgraph and gradients accumulate through the sharing.

With dropout off, a subterm's embedding depends only on the model, the term
and the context slots its free variables are bound to. An embedder given a
`known` dict reuses such embeddings across graphs: a subterm found there
enters the graph as constant rows, and `remember()` adds the ones it built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import CompGraph, Tensor
from .terms import App, Const, Prod, TermId, TermStore, Var

KIND_ORDER = ("App", "Prod")
CTX_STREAM = 0
BINDER_STREAM = 1
CELLS = ("tanh", "gru", "treelstm")


class EmbeddingError(Exception):
    pass


class UnboundVariable(EmbeddingError):
    pass


class UnknownSymbol(EmbeddingError):
    pass


def default_dropout(cell: str) -> float:
    return 0.1 if cell == "treelstm" else 0.0


@dataclass(frozen=True)
class EmbedConfig:
    cell: str = "gru"
    dim: int = 128
    drop_implicit: bool = False
    dropout: float | None = None  # None: cell default (0.1 for treelstm)
    train: bool = False
    pass_seed: int = 0

    @property
    def rate(self) -> float:
        rate = default_dropout(self.cell) if self.dropout is None else self.dropout
        return rate if self.train else 0.0


_CELL_GATES = {"tanh": ("",), "gru": ("z", "r", "h"), "treelstm": ("i", "f", "o", "u")}
# The TreeLSTM node takes the three gates that read the children's summed h
# first, then the per-child forget gate: the order the primitive composition
# creates their weight-dropout nodes in, so both draw the same masks.
_FUSED_GATES = {**_CELL_GATES, "treelstm": ("i", "o", "u", "f")}


class EmbedParams:
    """Tables and cell weights; one recurrent cell for terms, one for contexts."""

    def __init__(self, tensors: dict[str, Tensor], symbol_index: dict[str, int], cell: str, dim: int) -> None:
        self.tensors = tensors
        self.symbol_index = symbol_index
        self.kind_index = {kind: i for i, kind in enumerate(KIND_ORDER)}
        self.cell = cell
        self.dim = dim

    @classmethod
    def create(cls, symbols: list[str], cell: str = "gru", dim: int = 128, seed: int = 0) -> "EmbedParams":
        if cell not in CELLS:
            raise EmbeddingError(f"unknown cell {cell!r}")
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        vocab = sorted(set(symbols))
        tensors: dict[str, Tensor] = {}

        def table(name: str, rows: int) -> None:
            tensors[name] = Tensor(name, rng.standard_normal((rows, dim)) * scale)

        table("kind_table", len(KIND_ORDER))
        table("symbol_table", max(len(vocab), 1))
        for prefix in ("term", "ctx"):
            for gate in _CELL_GATES[cell]:
                for part, shape in (("W", (dim, dim)), ("U", (dim, dim)), ("b", (dim,))):
                    name = f"{prefix}_{part}{gate}"
                    init = np.zeros(shape) if part == "b" else rng.uniform(-scale, scale, shape)
                    tensors[name] = Tensor(name, init)
        return cls(tensors, {s: i for i, s in enumerate(vocab)}, cell, dim)


State = tuple[int, int | None]  # (hidden nid, cell-state nid for treelstm)
# (tid, ((CTX_STREAM, slot) per free variable), drop_implicit) -> (h row, c row
# for treelstm); valid for one model, term store and pass seed.
Known = dict[tuple, tuple[np.ndarray, np.ndarray | None]]


class StateEmbedder:
    """Builds embedding subgraphs for terms and proof states on one graph."""

    def __init__(
        self,
        graph: CompGraph,
        params: EmbedParams,
        store: TermStore,
        cfg: EmbedConfig,
        memoize: bool = True,
        known: Known | None = None,
    ) -> None:
        if cfg.cell != params.cell:
            raise EmbeddingError(f"config cell {cfg.cell!r} != params cell {params.cell!r}")
        if known is not None and cfg.rate > 0.0:
            raise EmbeddingError("embeddings drawn with dropout cannot be reused across graphs")
        self.graph = graph
        self.params = params
        self.store = store
        self.cfg = cfg
        self.memoize = memoize
        self.visited: set[TermId] = set()
        self._binder_ix = 0
        # First-encounter stream position per memo key, so unshared traversals
        # assign repeated subterms the same binder vectors a memoized one would.
        self._binder_starts: dict[tuple, int] = {}
        self._weights: dict[str, tuple[int, ...]] = {}
        self.known = known
        self._slots: dict[int, tuple[int, int]] = {}  # context-entry vector nid -> its stream key
        self._missed: list[tuple[tuple, State]] = []  # known keys built in this graph

    # -- building blocks -------------------------------------------------------

    def _zeros(self) -> int:
        return self.graph.const(np.zeros(self.params.dim), key=("zeros", self.params.dim))

    def _leaf(self, h: int) -> State:
        return (h, self._zeros() if self.cfg.cell == "treelstm" else None)

    def _param(self, name: str) -> int:
        return self.graph.param(self.params.tensors[name])

    def _recurrent(self, name: str) -> int:
        """Recurrent weight, with one weight-dropout mask per pass."""
        nid = self._param(name)
        if self.cfg.rate <= 0.0:
            return nid
        key = ("wdrop", name)
        hit = self.graph.memo.get(key)
        if hit is None:
            hit = self.graph.dropout(nid, self.cfg.rate)
            self.graph.memo[key] = hit
        return hit

    def _dropped(self, x: int) -> int:
        if self.cfg.rate <= 0.0:
            return x
        key = ("idrop", x)
        hit = self.graph.memo.get(key)
        if hit is None:
            hit = self.graph.dropout(x, self.cfg.rate)
            self.graph.memo[key] = hit
        return hit

    def _cell_weights(self, prefix: str) -> tuple[int, ...]:
        """(W, U, b) per gate of the cell, in the order its fused node takes
        them, U with weight dropout."""
        hit = self._weights.get(prefix)
        if hit is None:
            hit = self._weights[prefix] = tuple(
                nid
                for gate in _FUSED_GATES[self.cfg.cell]
                for nid in (
                    self._param(f"{prefix}_W{gate}"),
                    self._recurrent(f"{prefix}_U{gate}"),
                    self._param(f"{prefix}_b{gate}"),
                )
            )
        return hit

    def _step_tanh(self, prefix: str, x: int, h: int) -> int:
        return self.graph.tanh_cell(x, h, self._cell_weights(prefix))

    def _step_gru(self, prefix: str, x: int, h: int) -> int:
        return self.graph.gru_cell(x, h, self._cell_weights(prefix))

    def _compose_lstm(self, prefix: str, x: int, children: list[State]) -> State:
        # Child-sum: one forget gate per child, shared input/output/update gates.
        cell = self.graph.treelstm_cell(x, children, self._cell_weights(prefix))
        dim = self.params.dim
        return (self.graph.slice(cell, 0, dim), self.graph.slice(cell, dim, 2 * dim))

    def _compose(self, prefix: str, kind_vec: int, children: list[State]) -> State:
        x = self._dropped(kind_vec)
        if self.cfg.cell == "treelstm":
            return self._compose_lstm(prefix, x, children)
        h = self._zeros()
        step = self._step_tanh if self.cfg.cell == "tanh" else self._step_gru
        h = step(prefix, x, h)
        for child_h, _ in children:
            h = step(prefix, self._dropped(child_h), h)
        return (h, None)

    def _fold_seq(self, prefix: str, inputs: list[State]) -> State:
        if self.cfg.cell == "treelstm":
            state: State = (self._zeros(), self._zeros())
            for h_in, _ in inputs:
                state = self._compose_lstm(prefix, self._dropped(h_in), [state])
            return state
        h = self._zeros()
        step = self._step_tanh if self.cfg.cell == "tanh" else self._step_gru
        for h_in, _ in inputs:
            h = step(prefix, self._dropped(h_in), h)
        return (h, None)

    def _kind_vec(self, kind: str) -> int:
        return self.graph.gather(self._param("kind_table"), self.params.kind_index[kind])

    def _symbol_vec(self, symbol: str) -> int:
        row = self.params.symbol_index.get(symbol)
        if row is None:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the embedding vocabulary")
        return self.graph.gather(self._param("symbol_table"), row)

    def _binder_vec(self) -> int:
        ix = self._binder_ix
        self._binder_ix += 1
        return self.graph.pass_const(self.cfg.pass_seed, (BINDER_STREAM, ix), self.params.dim)

    # -- terms -------------------------------------------------------------------

    def embed_term(self, tid: TermId, env: dict[str, State] | None = None) -> int:
        """Embedding node of one term; the binder stream restarts per call."""
        self._binder_ix = 0
        try:
            return self._embed(tid, env or {})[0]
        except RecursionError:
            raise EmbeddingError(f"term {tid} is nested too deeply to embed") from None

    def _embed(self, tid: TermId, env: dict[str, State]) -> State:
        store = self.store
        try:
            bindings = tuple(env[name][0] for name in store.free_vars(tid))
        except KeyError as exc:
            raise UnboundVariable(f"variable {exc.args[0]!r} is not bound") from None
        key = ("emb", tid, bindings, self.cfg.drop_implicit)
        if self.memoize:
            hit = self.graph.memo.get(key)
            if hit is not None:
                # Keep the draw counter where an unshared traversal would leave it.
                self._binder_ix += store.binder_count(tid)
                return hit
        known_key = self._known_key(tid, bindings)
        if known_key is not None:
            rows = self.known.get(known_key)
            if rows is not None:
                h, c = rows
                state = (self.graph.const(h), None if c is None else self.graph.const(c))
                if self.memoize:
                    self.graph.memo[key] = state
                return state
        resume = None
        start = self._binder_starts.setdefault(key, self._binder_ix)
        if start != self._binder_ix:
            # Re-encounter without a memo hit: rewind to the first encounter's
            # position so the rebuilt nodes draw identical binder vectors, then
            # resume as if the draws had been consumed in place.
            resume = self._binder_ix + store.binder_count(tid)
            self._binder_ix = start
        term = store.term(tid)
        self.visited.add(tid)
        if isinstance(term, Var):
            state = env[term.name]
        elif isinstance(term, Const):
            state = self._leaf(self._symbol_vec(term.symbol))
        elif isinstance(term, App):
            children = [self._embed(term.head, env)]
            for child, implicit in term.args:
                if implicit and self.cfg.drop_implicit:
                    self._binder_ix += store.binder_count(child)
                    continue
                children.append(self._embed(child, env))
            state = self._compose("term", self._kind_vec("App"), children)
        else:
            ty_state = self._embed(term.ty, env)
            binder_state = self._leaf(self._binder_vec())
            body_state = self._embed(term.body, {**env, term.binder: binder_state})
            state = self._compose("term", self._kind_vec("Prod"), [ty_state, body_state])
        if self.memoize:
            self.graph.memo[key] = state
        if known_key is not None:
            self._missed.append((known_key, state))
        if resume is not None:
            self._binder_ix = resume
        return state

    def _known_key(self, tid: TermId, bindings: tuple[int, ...]) -> tuple | None:
        """Key of `tid` in `known`, or None when it is not to be reused: leaves
        cost less than constant rows, binders draw per-pass vectors, and a
        variable bound by a binder has no context slot."""
        if self.known is None or self.store.binder_count(tid) or not isinstance(self.store.term(tid), App):
            return None
        sources = tuple([self._slots.get(h) for h in bindings])
        if None in sources:
            return None
        return (tid, sources, self.cfg.drop_implicit)

    def remember(self) -> None:
        """After the graph's forward pass: copy the rows of every subterm built
        here into `known`, copies so they do not keep their buckets' arrays."""
        nodes = self.graph.nodes
        for known_key, (h, c) in self._missed:
            self.known[known_key] = (nodes[h].value.copy(), None if c is None else nodes[c].value.copy())
        self._missed.clear()

    # -- proof states ---------------------------------------------------------------

    def embed_state(self, ctx: tuple[tuple[str, TermId], ...], goal: TermId) -> int:
        """Fold entry-type embeddings (in order) and the goal embedding.

        Each entry binds its identifier to a fresh stream vector after its
        type is embedded, so later types and the goal see earlier entries.
        """
        return self.embed_state_with_entries(ctx, goal)[0]

    def embed_state_with_entries(
        self, ctx: tuple[tuple[str, TermId], ...], goal: TermId
    ) -> tuple[int, list[int]]:
        """State embedding plus the per-entry type embeddings it folded."""
        env: dict[str, State] = {}
        inputs: list[State] = []
        entries: list[int] = []
        try:
            for i, (name, ty) in enumerate(ctx):
                self._binder_ix = 0
                st = self._embed(ty, env)
                inputs.append(st)
                entries.append(st[0])
                v = self.graph.pass_const(self.cfg.pass_seed, (CTX_STREAM, i), self.params.dim)
                self._slots[v] = (CTX_STREAM, i)
                env[name] = self._leaf(v)
            self._binder_ix = 0
            inputs.append(self._embed(goal, env))
        except RecursionError:
            raise EmbeddingError("proof state is nested too deeply to embed") from None
        return self._fold_seq("ctx", inputs)[0], entries


# -- checkpoints ---------------------------------------------------------------------


def save_checkpoint(path: str, tensors: dict[str, Tensor], meta: dict) -> None:
    """Versioned container of named float64 arrays; round-trips bitwise."""
    payload = {"format_version": 1, "meta": meta}
    blob = np.frombuffer(json.dumps(payload, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    arrays = {f"tensor:{name}": t.value for name, t in tensors.items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=blob, **arrays)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path) as data:
        payload = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if payload.get("format_version") != 1:
            raise EmbeddingError(f"unsupported checkpoint version {payload.get('format_version')}")
        arrays = {
            key[len("tensor:") :]: data[key] for key in data.files if key.startswith("tensor:")
        }
    return arrays, payload["meta"]
