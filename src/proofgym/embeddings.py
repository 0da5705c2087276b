"""Recursive embeddings of terms and proof states.

Every AST node folds its children's embeddings with a recurrent cell: a
composition at an App or Prod node feeds the node-kind vector first, starting
from a zero hidden state. A bound variable embeds to a per-pass random vector
keyed by (pass_seed, number of binders in its product's body). Nested scopes
hold strictly fewer binders, so binders in scope of each other draw distinct
vectors, and alpha-equivalent subterms embed identically wherever they sit
within a pass and differently across passes. A subterm's embedding is thus a
function of (term, free-variable bindings), the key the embedder memoizes
on, so shared subterms cost one subgraph and gradients accumulate through
the sharing.

The memo lives on the graph, so an embedder that adds state after state to
one graph (the prover's, one per theorem) builds each subterm once: a
context slot is one node per graph, and every state gets the values a fresh
graph would give it, up to the last bits of batched arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


# Training dropout rate per cell; a cell not listed trains without dropout.
DROPOUT = {"treelstm": 0.1}


@dataclass(frozen=True)
class EmbedConfig:
    cell: str = "gru"
    dim: int = 128
    train: bool = False
    pass_seed: int = 0

    @property
    def rate(self) -> float:
        return DROPOUT.get(self.cell, 0.0) if self.train else 0.0


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
        for name, shape in tensor_shapes(cell, dim, len(vocab)).items():
            if name.endswith("_table"):
                init = rng.standard_normal(shape) * scale
            elif len(shape) == 1:
                init = np.zeros(shape)
            else:
                init = rng.uniform(-scale, scale, shape)
            tensors[name] = Tensor(name, init)
        return cls(tensors, {s: i for i, s in enumerate(vocab)}, cell, dim)


def tensor_shapes(cell: str, dim: int, n_symbols: int) -> dict[str, tuple[int, ...]]:
    """The shape of each tensor `EmbedParams.create` makes, in draw order."""
    rows = {"kind_table": len(KIND_ORDER), "symbol_table": max(n_symbols, 1)}
    shapes = {name: (n, dim) for name, n in rows.items()}
    for prefix in ("term", "ctx"):
        for gate in _CELL_GATES[cell]:
            shapes.update({f"{prefix}_W{gate}": (dim, dim), f"{prefix}_U{gate}": (dim, dim), f"{prefix}_b{gate}": (dim,)})
    return shapes


State = tuple[int, int | None]  # (hidden nid, cell-state nid for treelstm)


class StateEmbedder:
    """Builds embedding subgraphs for terms and proof states on one graph."""

    def __init__(
        self,
        graph: CompGraph,
        params: EmbedParams,
        store: TermStore,
        cfg: EmbedConfig,
        memoize: bool = True,
    ) -> None:
        if cfg.cell != params.cell:
            raise EmbeddingError(f"config cell {cfg.cell!r} != params cell {params.cell!r}")
        self.graph = graph
        self.params = params
        self.store = store
        self.cfg = cfg
        self.memoize = memoize
        self._weights: dict[str, tuple[int, ...]] = {}

    # -- building blocks -------------------------------------------------------

    def _zeros(self) -> int:
        return self.graph.const(np.zeros(self.params.dim), key=("zeros", self.params.dim))

    def _leaf(self, h: int) -> State:
        return (h, self._zeros() if self.cfg.cell == "treelstm" else None)

    def _param(self, name: str) -> int:
        return self.graph.param(self.params.tensors[name])

    def _dropout(self, key: tuple, nid: int) -> int:
        """`nid` under one dropout mask per key and pass; `nid` itself at rate 0."""
        if self.cfg.rate <= 0.0:
            return nid
        hit = self.graph.memo.get(key)
        if hit is None:
            hit = self.graph.memo[key] = self.graph.dropout(nid, self.cfg.rate)
        return hit

    def _recurrent(self, name: str) -> int:
        """Recurrent weight, with one weight-dropout mask per pass."""
        return self._dropout(("wdrop", name), self._param(name))

    def _dropped(self, x: int) -> int:
        return self._dropout(("idrop", x), x)

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

    def _step(self, prefix: str, x: int, h: int) -> int:
        cell = self.graph.tanh_cell if self.cfg.cell == "tanh" else self.graph.gru_cell
        return cell(x, h, self._cell_weights(prefix))

    def _compose_lstm(self, prefix: str, x: int, children: list[State]) -> State:
        # Child-sum: one forget gate per child, shared input/output/update gates.
        cell = self.graph.treelstm_cell(x, children, self._cell_weights(prefix))
        dim = self.params.dim
        return (self.graph.slice(cell, 0, dim), self.graph.slice(cell, dim, 2 * dim))

    def _compose(self, prefix: str, kind_vec: int, children: list[State]) -> State:
        x = self._dropped(kind_vec)
        if self.cfg.cell == "treelstm":
            return self._compose_lstm(prefix, x, children)
        h = self._step(prefix, x, self._zeros())
        for child_h, _ in children:
            h = self._step(prefix, self._dropped(child_h), h)
        return (h, None)

    def _fold_seq(self, prefix: str, inputs: list[State]) -> State:
        if self.cfg.cell == "treelstm":
            state: State = (self._zeros(), self._zeros())
            for h_in, _ in inputs:
                state = self._compose_lstm(prefix, self._dropped(h_in), [state])
            return state
        h = self._zeros()
        for h_in, _ in inputs:
            h = self._step(prefix, self._dropped(h_in), h)
        return (h, None)

    def _kind_vec(self, kind: str) -> int:
        return self.graph.gather(self._param("kind_table"), self.params.kind_index[kind])

    def _symbol_vec(self, symbol: str) -> int:
        row = self.params.symbol_index.get(symbol)
        if row is None:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the embedding vocabulary")
        return self.graph.gather(self._param("symbol_table"), row)

    def _binder_vec(self, prod: Prod) -> int:
        # Keyed by the binders below it: nested scopes count strictly fewer,
        # so binders in scope of each other draw distinct vectors.
        ix = self.store.binder_count(prod.body)
        return self.graph.pass_const(self.cfg.pass_seed, (BINDER_STREAM, ix), self.params.dim)

    # -- terms -------------------------------------------------------------------

    def embed_term(self, tid: TermId, env: dict[str, State] | None = None) -> int:
        """Embedding node of one term, with free variables bound by `env`."""
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
        key = ("emb", tid, bindings)
        if self.memoize:
            hit = self.graph.memo.get(key)
            if hit is not None:
                return hit
        term = store.term(tid)
        if isinstance(term, Var):
            state = env[term.name]
        elif isinstance(term, Const):
            state = self._leaf(self._symbol_vec(term.symbol))
        elif isinstance(term, App):
            children = [self._embed(term.head, env)]
            children.extend(self._embed(child, env) for child in term.args)
            state = self._compose("term", self._kind_vec("App"), children)
        else:
            ty_state = self._embed(term.ty, env)
            binder_state = self._leaf(self._binder_vec(term))
            body_state = self._embed(term.body, {**env, term.binder: binder_state})
            state = self._compose("term", self._kind_vec("Prod"), [ty_state, body_state])
        if self.memoize:
            self.graph.memo[key] = state
        return state

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
                st = self._embed(ty, env)
                inputs.append(st)
                entries.append(st[0])
                v = self.graph.pass_const(self.cfg.pass_seed, (CTX_STREAM, i), self.params.dim)
                env[name] = self._leaf(v)
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
        payload = json.loads(bytes(data["__meta__"]).decode("utf-8")) if "__meta__" in data.files else None
        if not isinstance(payload, dict) or not isinstance(payload.get("meta"), dict):
            raise EmbeddingError(f"{path} holds no checkpoint metadata")
        if payload.get("format_version") != 1:
            raise EmbeddingError(f"unsupported checkpoint version {payload.get('format_version')}")
        arrays = {
            key[len("tensor:") :]: data[key] for key in data.files if key.startswith("tensor:")
        }
    return arrays, payload["meta"]
