"""Reverse-mode computation graphs over float64 numpy arrays.

Nodes are appended in topological order. Every operation is one entry of
`KERNELS`: a forward kernel and a backward kernel over stacked rows, one row
per node. The batched executor groups nodes with the same operation,
signature, and dependency depth into buckets and runs each kernel once per
bucket; the naive executor runs the same kernels one node at a time, so the
two agree up to summation-order effects inside dot products. Gradients are
one reverse sweep with accumulation at shared nodes.

A recurrent-cell application (`gru_cell`, `tanh_cell`, `treelstm_cell`) is
one node whose inputs are its gate weights, then `x` and the children's
states, so a bucket of cell steps costs a few stacked matmuls instead of a
dozen primitive buckets.

A graph may grow between passes: `run_forward` computes only the nodes added
since its last call, so the prover keeps one graph per theorem; backward needs
a pass from node 0. A graph's dropout seed is fixed at construction, and each
dropout node carries its rate and its (seed, ordinal) key, so the dropout
kernel draws its masks from the node alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class GraphError(ValueError):
    pass


class NumericsError(RuntimeError):
    pass


def seeded_normal(key: tuple[int, ...], dim: int) -> np.ndarray:
    """Standard-normal vector fully determined by the integer key."""
    return np.random.default_rng(key).standard_normal(dim)


class Tensor:
    """Named trainable array with a gradient slot."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value) -> None:
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor({self.name!r}, shape={self.value.shape})"


class Node:
    __slots__ = ("nid", "op", "inputs", "shape", "depth", "aux", "value", "grad")

    def __init__(self, nid, op, inputs, shape, depth, aux) -> None:
        self.nid = nid
        self.op = op
        self.inputs = inputs
        self.shape = shape
        self.depth = depth
        self.aux = aux
        self.value: np.ndarray | None = None
        self.grad: np.ndarray | None = None


class CompGraph:
    def __init__(self, dropout_seed: int = 0) -> None:
        self.nodes: list[Node] = []
        self.memo: dict = {}
        self.dropout_seed = dropout_seed
        self._params: dict[str, int] = {}
        # Masks are keyed by a dropout node's ordinal among dropout nodes, not
        # by its node id, so a graph that creates its dropout nodes in the same
        # order draws the same masks however many other nodes it has.
        self._dropouts = 0
        self.computed = 0  # nodes[:computed] hold the values of earlier passes
        self._buckets: list[tuple[tuple, list[int]]] | None = None
        # (batched, per-group records, start node) of the last forward pass,
        # until a node is added; for backward and for `buckets()`.
        self._run: tuple[bool, list[_Group], int] | None = None

    # -- construction -------------------------------------------------------

    def _add(self, op: str, inputs: tuple[int, ...], shape: tuple[int, ...], aux=None) -> int:
        nodes = self.nodes
        depth = 0
        for i in inputs:
            if not (0 <= i < len(nodes)):
                raise GraphError(f"input {i} does not exist")
            if nodes[i].depth >= depth:
                depth = nodes[i].depth + 1
        node = Node(len(nodes), op, inputs, shape, depth, aux)
        nodes.append(node)
        self._buckets = None
        self._run = None
        return node.nid

    def const(self, value, key=None) -> int:
        if key is not None:
            hit = self.memo.get(("const", key))
            if hit is not None:
                return hit
        arr = np.asarray(value, dtype=np.float64)
        nid = self._add("const", (), arr.shape, None)
        self.nodes[nid].value = arr
        if key is not None:
            self.memo[("const", key)] = nid
        return nid

    def pass_const(self, pass_seed: int, suffix: tuple[int, ...], dim: int) -> int:
        """Standard-normal constant drawn from (pass_seed, *suffix), one per suffix."""
        key = ("pass_const",) + suffix
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        nid = self.const(seeded_normal((pass_seed,) + suffix, dim))
        self.memo[key] = nid
        return nid

    def param(self, tensor: Tensor) -> int:
        hit = self._params.get(tensor.name)
        if hit is not None:
            if self.nodes[hit].aux is not tensor:
                raise GraphError(f"two tensors named {tensor.name!r} in one graph")
            return hit
        nid = self._add("param", (), tensor.value.shape, tensor)
        self._params[tensor.name] = nid
        return nid

    def matmul(self, w: int, x: int) -> int:
        ws, xs = self.nodes[w].shape, self.nodes[x].shape
        if len(ws) != 2 or len(xs) != 1 or ws[1] != xs[0]:
            raise GraphError(f"matmul shapes {ws} @ {xs}")
        return self._add("matmul", (w, x), (ws[0],))

    def _binary(self, op: str, a: int, b: int) -> int:
        sa, sb = self.nodes[a].shape, self.nodes[b].shape
        if sa != sb:
            raise GraphError(f"{op} shapes {sa} vs {sb}")
        return self._add(op, (a, b), sa)

    def add(self, a: int, b: int) -> int:
        return self._binary("add", a, b)

    def mul(self, a: int, b: int) -> int:
        return self._binary("mul", a, b)

    def affine(self, a: int, alpha: float, beta: float) -> int:
        return self._add("affine", (a,), self.nodes[a].shape, (float(alpha), float(beta)))

    def tanh(self, a: int) -> int:
        return self._add("tanh", (a,), self.nodes[a].shape)

    def sigmoid(self, a: int) -> int:
        return self._add("sigmoid", (a,), self.nodes[a].shape)

    def concat(self, parts: list[int]) -> int:
        if not parts:
            raise GraphError("concat of nothing")
        lens = []
        for p in parts:
            shape = self.nodes[p].shape
            if len(shape) != 1:
                raise GraphError(f"concat needs vectors, got {shape}")
            lens.append(shape[0])
        return self._add("concat", tuple(parts), (sum(lens),))

    def gather(self, table: int, row: int) -> int:
        shape = self.nodes[table].shape
        if len(shape) != 2 or not (0 <= row < shape[0]):
            raise GraphError(f"gather row {row} from shape {shape}")
        return self._add("gather", (table,), (shape[1],), int(row))

    def dropout(self, a: int, rate: float) -> int:
        if not (0.0 <= rate < 1.0):
            raise GraphError(f"dropout rate {rate}")
        key = (self.dropout_seed, self._dropouts)
        nid = self._add("dropout", (a,), self.nodes[a].shape, (float(rate), key))
        self._dropouts += 1
        return nid

    def slice(self, a: int, start: int, stop: int) -> int:
        """Entries start..stop-1 of a vector."""
        shape = self.nodes[a].shape
        if len(shape) != 1 or not (0 <= start < stop <= shape[0]):
            raise GraphError(f"slice {start}:{stop} of shape {shape}")
        return self._add("slice", (a,), (stop - start,), (int(start), int(stop)))

    def gru_cell(self, x: int, h: int, weights: tuple[int, ...]) -> int:
        """GRU step; `weights` are (W, U, b) for the z, r and candidate gates."""
        return self._cell("gru_cell", x, h, weights, 3)

    def tanh_cell(self, x: int, h: int, weights: tuple[int, ...]) -> int:
        """tanh(W x + U h + b); `weights` are (W, U, b)."""
        return self._cell("tanh_cell", x, h, weights, 1)

    def _cell(self, op: str, x: int, h: int, weights: tuple[int, ...], gates: int) -> int:
        xs, hs = self.nodes[x].shape, self.nodes[h].shape
        if len(xs) != 1 or len(hs) != 1 or len(weights) != 3 * gates:
            raise GraphError(f"{op} of {xs}, {hs} with {len(weights)} weights")
        shapes = tuple([self.nodes[w].shape for w in weights])
        want = ((hs[0], xs[0]), (hs[0], hs[0]), hs) * gates
        if shapes != want:
            raise GraphError(f"{op} weight shapes {shapes}, not {want}")
        return self._add(op, tuple(weights) + (x, h), hs)

    def treelstm_cell(self, x: int, children: list[tuple[int, int]], weights: tuple[int, ...]) -> int:
        """Child-sum TreeLSTM composition over (h, c) children; its value is
        the row [h; c]. `weights` are (W, U, b) for the i, o, u and f gates."""
        xs = self.nodes[x].shape
        if len(xs) != 1 or not children or len(weights) != 12:
            raise GraphError(f"treelstm_cell of {xs} with {len(children)} children and {len(weights)} weights")
        dim = self.nodes[weights[2]].shape[0]
        shapes = tuple([self.nodes[w].shape for w in weights])
        want = ((dim, xs[0]), (dim, dim), (dim,)) * 4
        if shapes != want:
            raise GraphError(f"treelstm_cell weight shapes {shapes}, not {want}")
        inputs = tuple([nid for child in children for nid in child])
        if any(self.nodes[nid].shape != (dim,) for nid in inputs):
            raise GraphError(f"treelstm_cell children {[self.nodes[nid].shape for nid in inputs]} for dim {dim}")
        return self._add("treelstm_cell", tuple(weights) + (x,) + inputs, (2 * dim,))

    def softmax_xent(self, logits: int, label: int) -> int:
        shape = self.nodes[logits].shape
        if len(shape) != 1 or not (0 <= label < shape[0]):
            raise GraphError(f"label {label} for logits {shape}")
        return self._add("sxent", (logits,), (1,), int(label))

    def vsum(self, a: int) -> int:
        return self._add("sum", (a,), (1,))

    def vmean(self, a: int) -> int:
        if self.nodes[a].shape[0] == 0:
            raise GraphError("mean of empty vector")
        return self._add("mean", (a,), (1,))

    # -- grouping for the batched path ----------------------------------------

    def buckets(self) -> list[tuple[tuple, list[int]]]:
        """Non-leaf nodes of the pending pass, or of the last one until a node
        is added, grouped by depth, op, weights, shape and kernel key.

        Nodes of one bucket share their weights; their other inputs become
        stacked rows, so they must have equal shapes. The output shape and
        the weights fix those shapes except where the kernel's key adds them.
        """
        if self._buckets is None:
            start = self.computed if self._run is None else self._run[2]
            grouped: dict[tuple, list[int]] = {}
            for node in self.nodes[start:]:
                kernel = KERNELS.get(node.op)
                if kernel is None:
                    continue  # const and param nodes hold their values
                extra = kernel.key and kernel.key(self, node)
                key = (node.depth, node.op, node.inputs[: kernel.shared], node.shape, extra)
                grouped.setdefault(key, []).append(node.nid)
            self._buckets = [(key, grouped[key]) for key in sorted(grouped, key=lambda k: (k[0], grouped[k][0]))]
        return self._buckets


# -- execution ----------------------------------------------------------------


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # np.where evaluates both branches; the discarded one may overflow to
    # inf/inf, so silence both the overflow and the resulting invalid-divide.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def _softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


class _Group:
    """One kernel application: a bucket, or a single node when naive.

    `ws` are the shared leading inputs (weights), `xs` the other inputs,
    stacked one row per node when a kernel first reads them, `out` the
    stacked outputs, and `saved` a tuple of stacked arrays the forward kernel
    keeps for the backward one.
    """

    # Holds the node list, not the graph: the graph keeps these records, and
    # a cycle would leave every graph's arrays to the cyclic collector.
    __slots__ = ("nodes", "group", "shared", "ws", "out", "saved", "_xs")

    def __init__(self, nodes: list[Node], group: list[Node], shared: int, out=None, saved: tuple = ()) -> None:
        self.nodes = nodes
        self.group = group
        self.shared = shared
        self.ws = [nodes[i].value for i in group[0].inputs[:shared]]
        self.out = out
        self.saved = saved
        self._xs: list[np.ndarray] | None = None

    @property
    def xs(self) -> list[np.ndarray]:
        if self._xs is None:
            nodes, group = self.nodes, self.group
            self._xs = [
                _stack([nodes[n.inputs[j]].value for n in group]) for j in range(self.shared, len(group[0].inputs))
            ]
        return self._xs


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    # A lone row is common (single-state inference) and needs no copy.
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


@dataclass(frozen=True, slots=True)
class Kernel:
    forward: Callable  # (group) -> stacked output rows; may set group.saved
    backward: Callable  # (group, g) -> (grads of ws, stacked grads of xs)
    shared: int = 0  # leading inputs that are one node across a bucket
    key: Callable | None = None  # (graph, node) -> what else a bucket must share


def _aux_key(graph: CompGraph, node: Node):
    return node.aux


def _input_shapes(graph: CompGraph, node: Node) -> tuple:
    return tuple([graph.nodes[i].shape for i in node.inputs])


def _slice_key(graph: CompGraph, node: Node) -> tuple:
    return node.aux, graph.nodes[node.inputs[0]].shape


def _slice_backward(b: _Group, g: np.ndarray):
    start, stop = b.group[0].aux
    dx = np.zeros((len(b.group),) + b.nodes[b.group[0].inputs[0]].shape)
    dx[:, start:stop] = g
    return [], [dx]


def _gather_forward(b: _Group) -> np.ndarray:
    return b.ws[0][np.array([n.aux for n in b.group])]


def _gather_backward(b: _Group, g: np.ndarray):
    table = np.zeros(b.ws[0].shape)
    np.add.at(table, np.array([n.aux for n in b.group]), g)
    return [table], []


def _rate_key(graph: CompGraph, node: Node) -> float:
    return node.aux[0]


def _dropout_forward(b: _Group) -> np.ndarray:
    rate = b.group[0].aux[0]  # the bucket key
    keep = np.stack([np.random.default_rng(n.aux[1]).random(n.shape) >= rate for n in b.group])
    b.saved = (keep / (1.0 - rate),)
    return b.xs[0] * b.saved[0]


def _labels(b: _Group) -> tuple[np.ndarray, np.ndarray]:
    return np.arange(len(b.group)), np.array([n.aux for n in b.group])


def _sxent_forward(b: _Group) -> np.ndarray:
    z = b.xs[0]
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return (lse - z[_labels(b)])[:, None]


def _sxent_backward(b: _Group, g: np.ndarray):
    p = _softmax(b.xs[0])
    p[_labels(b)] -= 1.0
    return [], [p * g]


def _concat_backward(b: _Group, g: np.ndarray):
    cuts = np.cumsum([x.shape[1] for x in b.xs[:-1]])
    return [], np.split(g, cuts, axis=1)


def _gru_forward(b: _Group) -> np.ndarray:
    wz, uz, bz, wr, ur, br, wh, uh, bh = b.ws
    x, h = b.xs
    z = _stable_sigmoid(x @ wz.T + h @ uz.T + bz)
    r = _stable_sigmoid(x @ wr.T + h @ ur.T + br)
    h_bar = np.tanh(x @ wh.T + (r * h) @ uh.T + bh)
    b.saved = (z, r, h_bar)
    return (-1.0 * z + 1.0) * h + z * h_bar


def _gru_backward(b: _Group, g: np.ndarray):
    wz, uz, _, wr, ur, _, wh, uh, _ = b.ws
    x, h = b.xs
    z, r, h_bar = b.saved
    dz = (g * h_bar - g * h) * z * (1.0 - z)
    dh_bar = g * z * (1.0 - h_bar**2)
    drh = dh_bar @ uh
    dr = drh * h * r * (1.0 - r)
    dx = dz @ wz + dr @ wr + dh_bar @ wh
    dh = g * (1.0 - z) + drh * r + dz @ uz + dr @ ur
    dws = []
    for d, hin in ((dz, h), (dr, h), (dh_bar, r * h)):
        dws += [d.T @ x, d.T @ hin, d.sum(axis=0)]
    return dws, [dx, dh]


def _tanh_cell_backward(b: _Group, g: np.ndarray):
    w, u, _ = b.ws
    x, h = b.xs
    d = g * (1.0 - b.out**2)
    return [d.T @ x, d.T @ h, d.sum(axis=0)], [d @ w, d @ u]


def _lstm_forward(b: _Group) -> np.ndarray:
    wi, ui, bi, wo, uo, bo, wu, uu, bu, wf, uf, bf = b.ws
    x, *kids = b.xs
    hs, cs = kids[0::2], kids[1::2]
    h_sum = sum(hs[1:], hs[0])
    i = _stable_sigmoid(x @ wi.T + h_sum @ ui.T + bi)
    o = _stable_sigmoid(x @ wo.T + h_sum @ uo.T + bo)
    u = np.tanh(x @ wu.T + h_sum @ uu.T + bu)
    fx = x @ wf.T
    c = i * u
    fs = []
    for h_k, c_k in zip(hs, cs):
        fs.append(_stable_sigmoid(fx + h_k @ uf.T + bf))
        c = c + fs[-1] * c_k
    tc = np.tanh(c)
    b.saved = (i, o, u, tc, *fs)
    return np.concatenate([o * tc, c], axis=1)


def _lstm_backward(b: _Group, g: np.ndarray):
    wi, ui, _, wo, uo, _, wu, uu, _, wf, uf, _ = b.ws
    i, o, u, tc, *fs = b.saved
    dim = i.shape[1]
    x, *kids = b.xs
    hs, cs = kids[0::2], kids[1::2]
    h_sum = sum(hs[1:], hs[0])
    gh = g[:, :dim]
    dc = g[:, dim:] + gh * o * (1.0 - tc**2)
    di = dc * u * i * (1.0 - i)
    do = gh * tc * o * (1.0 - o)
    du = dc * i * (1.0 - u**2)
    dfs = [dc * c_k * f_k * (1.0 - f_k) for c_k, f_k in zip(cs, fs)]
    df = sum(dfs[1:], dfs[0])
    dws = []
    for d in (di, do, du):
        dws += [d.T @ x, d.T @ h_sum, d.sum(axis=0)]
    dws += [df.T @ x, sum(d_k.T @ h_k for d_k, h_k in zip(dfs, hs)), df.sum(axis=0)]
    dh_sum = di @ ui + do @ uo + du @ uu
    dxs = [di @ wi + do @ wo + du @ wu + df @ wf]
    for d_k, f_k in zip(dfs, fs):
        dxs += [dh_sum + d_k @ uf, dc * f_k]
    return dws, dxs


KERNELS: dict[str, Kernel] = {
    "matmul": Kernel(lambda b: b.xs[0] @ b.ws[0].T, lambda b, g: ([g.T @ b.xs[0]], [g @ b.ws[0]]), shared=1),
    "add": Kernel(lambda b: b.xs[0] + b.xs[1], lambda b, g: ([], [g, g])),
    "mul": Kernel(lambda b: b.xs[0] * b.xs[1], lambda b, g: ([], [g * b.xs[1], g * b.xs[0]])),
    "affine": Kernel(
        lambda b: b.group[0].aux[0] * b.xs[0] + b.group[0].aux[1],
        lambda b, g: ([], [b.group[0].aux[0] * g]),
        key=_aux_key,
    ),
    "tanh": Kernel(lambda b: np.tanh(b.xs[0]), lambda b, g: ([], [g * (1.0 - b.out**2)])),
    "sigmoid": Kernel(lambda b: _stable_sigmoid(b.xs[0]), lambda b, g: ([], [g * b.out * (1.0 - b.out)])),
    "concat": Kernel(lambda b: np.concatenate(b.xs, axis=1), _concat_backward, key=_input_shapes),
    "gather": Kernel(_gather_forward, _gather_backward, shared=1),
    "dropout": Kernel(_dropout_forward, lambda b, g: ([], [g * b.saved[0]]), key=_rate_key),
    "sxent": Kernel(_sxent_forward, _sxent_backward, key=_input_shapes),
    "sum": Kernel(
        lambda b: b.xs[0].sum(axis=1, keepdims=True),
        lambda b, g: ([], [np.broadcast_to(g, b.xs[0].shape)]),
        key=_input_shapes,
    ),
    "mean": Kernel(
        lambda b: b.xs[0].mean(axis=1, keepdims=True),
        lambda b, g: ([], [np.broadcast_to(g / b.xs[0].shape[1], b.xs[0].shape)]),
        key=_input_shapes,
    ),
    "slice": Kernel(lambda b: b.xs[0][:, slice(*b.group[0].aux)], _slice_backward, key=_slice_key),
    "gru_cell": Kernel(_gru_forward, _gru_backward, shared=9),
    "treelstm_cell": Kernel(_lstm_forward, _lstm_backward, shared=12, key=_input_shapes),
    "tanh_cell": Kernel(
        lambda b: np.tanh(b.xs[0] @ b.ws[0].T + b.xs[1] @ b.ws[1].T + b.ws[2]), _tanh_cell_backward, shared=3
    ),
}


def _acc(node: Node, grad: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros(node.shape)
    node.grad += grad


def run_forward(graph: CompGraph, batched: bool = True) -> None:
    """Compute the nodes added since the last call, one kernel call per bucket
    (or per node); a computed node, a parameter's too, keeps its value."""
    nodes = graph.nodes
    start = graph.computed
    new = nodes[start:]
    for node in new:
        if node.op == "param":
            node.value = node.aux.value
    if graph._run is not None:  # nothing added since the last pass
        graph._run = graph._buckets = None
    if batched:
        groups = [nids for _, nids in graph.buckets()]
    else:
        groups = [[node.nid] for node in new if node.op in KERNELS]
    records = []
    for nids in groups:
        group = [nodes[i] for i in nids]
        first = group[0]
        kernel = KERNELS[first.op]
        b = _Group(nodes, group, kernel.shared)
        b.out = kernel.forward(b)
        if not np.all(np.isfinite(b.out)):
            raise NumericsError(f"non-finite value produced by {first.op} node {first.nid} at depth {first.depth}")
        for node, row in zip(group, b.out):
            node.value = row
        b._xs = None  # stacked again if the backward kernel reads them, not held meanwhile
        records.append(b)
    graph.computed = len(nodes)
    graph._run = (batched, records, start)


def run_backward(graph: CompGraph, loss: int, batched: bool = True) -> dict[str, np.ndarray]:
    """Backpropagate from `loss`; returns and installs per-tensor gradients.

    Runs the kernels of the last `run_forward`, which must have used the same
    `batched` flag and computed the whole graph.
    """
    nodes = graph.nodes
    if graph._run is None or graph._run[0] != batched or graph._run[2] != 0:
        raise GraphError(f"run_backward(batched={batched}) needs a run_forward from node 0 with the same flag first")
    for node in nodes:
        node.grad = None
    root = nodes[loss]
    if root.shape != (1,):
        raise GraphError(f"loss must be a scalar, got shape {root.shape}")
    root.grad = np.ones(1)
    for b in reversed(graph._run[1]):
        keep = [i for i, node in enumerate(b.group) if node.grad is not None]
        if not keep:
            continue
        if len(keep) < len(b.group):
            b = _Group(nodes, [b.group[i] for i in keep], b.shared, b.out[keep], tuple(s[keep] for s in b.saved))
        dws, dxs = KERNELS[b.group[0].op].backward(b, _stack([node.grad for node in b.group]))
        for nid, d in zip(b.group[0].inputs, dws):
            _acc(nodes[nid], d)
        for i, node in enumerate(b.group):
            for nid, d in zip(node.inputs[b.shared :], dxs):
                _acc(nodes[nid], d[i])
        b._xs = None
    grads: dict[str, np.ndarray] = {}
    for node in nodes:
        if node.op == "param":
            tensor: Tensor = node.aux
            grad = node.grad if node.grad is not None else np.zeros(tensor.value.shape)
            tensor.grad = grad.copy()
            grads[tensor.name] = tensor.grad
    return grads


def forward_backward(graph: CompGraph, loss: int, batched: bool = True) -> tuple[float, dict[str, np.ndarray]]:
    run_forward(graph, batched=batched)
    grads = run_backward(graph, loss, batched=batched)
    return float(graph.nodes[loss].value[0]), grads


class Adam:
    """Bias-corrected Adam over a fixed set of tensors."""

    def __init__(
        self,
        tensors: dict[str, Tensor],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.tensors = dict(tensors)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros(t.value.shape) for name, t in self.tensors.items()}
        self._v = {name: np.zeros(t.value.shape) for name, t in self.tensors.items()}

    def step(self) -> None:
        self.t += 1
        for name, tensor in self.tensors.items():
            g = tensor.grad
            if g is None:
                continue
            m = self._m[name] = self.beta1 * self._m[name] + (1 - self.beta1) * g
            v = self._v[name] = self.beta2 * self._v[name] + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            tensor.value = tensor.value - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
