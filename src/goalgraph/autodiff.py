"""Reverse-mode autodiff over numpy arrays (float64), tape-based.

A Tensor holds a value and a link to its GradNode; the tape is made of
grad nodes, not values. A grad node holds an op's backward closure, its
parents' grad nodes and a grad slot. The closure saves only the arrays and
shapes its backward reads (a parent's value, a bool mask, the op's own
output) and returns one gradient per parent, or None for none. So an op
output that no backward reads dies when Python drops its Tensor, and a
saved one when its reader's closure has run. Some ops rebuild in their
backward what they would otherwise save: `mlp_leaky` keeps its input and
recomputes its hidden layer from it, with the forward's expressions, so
the gradients have the same bits. `backward()` runs a reverse
topological sweep over the grad nodes. `no_grad()` disables recording for
cheap forward-only evaluation (finite differences, inference): every op
computes the same value either way, and only links it into the tape with
grad on.

One backward per forward: `backward()` consumes the tape it sweeps. Once an
op's closure has run, its grad node drops its grad, closure and parents, so
the tape is freed as the sweep goes; leaves (parameters, constants) keep
their grads. A later backward that reaches a consumed node raises
StructuralError.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeError, StructuralError

_grad_enabled = True

# When not None, each LeakyReLU op's forward appends the sign mask of its
# pre-activation here (used by grad_check to detect kink crossings between
# perturbed runs).
kink_monitor = None


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class GradNode:
    """A tape entry: the grad slot, the parents' grad nodes and the backward
    closure, g -> one gradient (or None) per parent. A leaf has no parents
    and no closure; a consumed op has parents None."""

    __slots__ = ("grad", "_parents", "_backward", "__weakref__")

    def __init__(self, parents=(), backward=None):
        self.grad = None
        self._parents = parents
        self._backward = backward


class Tensor:
    """A value and a link to its grad node."""

    __slots__ = ("value", "node", "__weakref__")

    def __init__(self, value):
        """A leaf: a parameter or a constant. Op outputs come from `_op`."""
        self.value = np.asarray(value, dtype=np.float64)
        self.node = GradNode()

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def _parents(self):
        """The grad nodes of the op inputs, so a tape walk can start here."""
        return self.node._parents

    def backward(self):
        if self.value.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        order = []
        seen = set()
        stack = [(self.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise StructuralError("backward through a tape that an earlier backward consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.node.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if node._backward is not None:  # an op: run it once, then let it go
                if node.grad is not None:
                    for p, g in zip(node._parents, node._backward(node.grad)):
                        if g is not None:
                            _accum(p, g)
                node.grad, node._backward, node._parents = None, None, None


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class Segments:
    """Stable CSR layout of a row -> segment id array, for O(rows) segment
    reductions with `ufunc.reduceat`.

    `order` sorts the rows by segment (stably), `starts` is where each
    non-empty segment begins in that order, `present` holds those segments'
    ids and `rank` each row's position in `present`. An EdgeLayout builds
    the layouts of an edge set's ids once.
    """

    __slots__ = ("ids", "order", "starts", "present", "rank")

    def __init__(self, ids):
        self.ids = np.asarray(ids, dtype=int)
        self.order = np.argsort(self.ids, kind="stable")
        s = self.ids[self.order]
        first = np.ones(len(s), dtype=bool)
        first[1:] = s[1:] != s[:-1]
        self.starts = np.flatnonzero(first)
        self.present = s[self.starts]
        self.rank = np.empty(len(s), dtype=int)
        self.rank[self.order] = np.cumsum(first) - 1


class EdgeLayout:
    """The layouts of an edge set that edge_attention and edge_sum_leaky
    read, built once per set from its src, dst and feature-row id arrays.

    `by_src`, `by_dst` and `by_row` are the Segments of those ids.
    edge_attention works in destination order (by_dst.order), where each
    destination's in-edges are one run of rows: `dst_sorted` is the Segments
    of the destination ids in that order, `src_by_dst` and `row_by_dst` the
    edges' src and row ids in it, and `to_src` and `to_row` the positions in
    it of the edges in by_src's and by_row's orders.
    """

    __slots__ = ("by_src", "by_dst", "by_row", "dst_sorted", "src_by_dst", "row_by_dst",
                 "to_src", "to_row")

    def __init__(self, src, dst, row):
        self.by_src, self.by_dst, self.by_row = Segments(src), Segments(dst), Segments(row)
        order = self.by_dst.order
        self.dst_sorted = Segments(self.by_dst.ids[order])
        self.src_by_dst, self.row_by_dst = self.by_src.ids[order], self.by_row.ids[order]
        at = np.empty_like(order)
        at[order] = np.arange(len(order))
        self.to_src, self.to_row = at[self.by_src.order], at[self.by_row.order]


def _reduce(ufunc, x: np.ndarray, seg: Segments) -> np.ndarray:
    """ufunc-reduce the rows of x within each present segment."""
    return ufunc.reduceat(x[seg.order], seg.starts, axis=0)


def _scatter_add(x: np.ndarray, seg: Segments, n_rows: int) -> np.ndarray:
    """Sum the rows of x into n_rows buckets by segment id."""
    return _scatter_sorted(x[seg.order], seg, n_rows)


def _scatter_sorted(x: np.ndarray, seg: Segments, n_rows: int) -> np.ndarray:
    """_scatter_add of rows that are already in seg's order."""
    out = np.zeros((n_rows,) + x.shape[1:])
    out[seg.present] = np.add.reduceat(x, seg.starts, axis=0)
    return out


def _op(value, parents, backward) -> Tensor:
    """An op's output: its grad node links the grad nodes of the parent
    Tensors into the tape, or is a bare leaf under no_grad(). Skips
    Tensor.__init__, whose dtype conversion fresh float64 arrays do not need."""
    t = Tensor.__new__(Tensor)
    t.value = value if type(value) is np.ndarray else np.asarray(value, dtype=np.float64)
    t.node = GradNode(tuple([p.node for p in parents]), backward) if _grad_enabled else GradNode()
    return t


def _accum(node: GradNode, g: np.ndarray):
    # Lazy: first contribution owns a copy, later ones add in place.
    if node.grad is None:
        node.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        node.grad += g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"add: incompatible shapes {av.shape} and {bv.shape}")
    return _op(av + bv, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"sub: incompatible shapes {av.shape} and {bv.shape}")
    return _op(av - bv, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"mul: incompatible shapes {av.shape} and {bv.shape}")
    return _op(av * bv, (a, b), lambda g: (g * bv, g * av))


def scalar_mul(a, c: float) -> Tensor:
    a = _as_tensor(a)
    return _op(a.value * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    return _op(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def affine(x, w, b) -> Tensor:
    """Fused x @ w + b with b broadcast over rows."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xv, wv = x.value, w.value
    return _op(_affine_value(xv, wv, b.value, "affine"), (x, w, b),
               lambda g: _affine_grads(xv, wv, g))


def _affine_value(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray, op: str) -> np.ndarray:
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != (wv.shape[1],):
        raise ShapeError(f"{op}: incompatible shapes {xv.shape}, {wv.shape}, {bv.shape}")
    out = xv @ wv
    out += bv
    return out


def _affine_grads(xv: np.ndarray, wv: np.ndarray, g: np.ndarray):
    return g @ wv.T, xv.T @ g, g.sum(axis=0)


LEAKY_SLOPE = 0.01


def _leaky(pre: np.ndarray):
    """max(pre, LEAKY_SLOPE * pre), written over pre, and the bool mask of
    pre >= 0 that the backward needs."""
    pos = pre >= 0.0
    # max() into one buffer avoids a branchy per-element select
    np.maximum(pre, pre * LEAKY_SLOPE, out=pre)
    return pre, pos


def _report_kinks(pos: np.ndarray):
    """Hand a forward's LeakyReLU sign mask to kink_monitor, if one is set."""
    if kink_monitor is not None:
        kink_monitor.append(pos)


def _leaky_grad(g: np.ndarray, pos: np.ndarray) -> np.ndarray:
    # the same bits as g times a (1, LEAKY_SLOPE) float mask
    return np.where(pos, g, g * LEAKY_SLOPE)


def mlp_leaky(x, w0, b0, w1, b1, p: float, rng: np.random.Generator | None) -> Tensor:
    """affine -> LeakyReLU -> dropout -> affine as one op; the dropout runs
    only with rng and p > 0 and draws its mask as `dropout` does.

    The op keeps x, the weights and the dropout's bool mask, and no hidden
    layer: its backward rebuilds the pre-activation, the sign mask and the
    dropped hidden layer from x with the forward's expressions, so the
    gradients have the bits of the three ops composed. Only the forward
    reports its sign mask to kink_monitor.
    """
    x, w0, b0, w1, b1 = (_as_tensor(t) for t in (x, w0, b0, w1, b1))
    xv, w0v, b0v, w1v = x.value, w0.value, b0.value, w1.value
    h, pos = _leaky(_affine_value(xv, w0v, b0v, "mlp_leaky"))
    _report_kinks(pos)
    kept = None
    if rng is not None and p > 0.0:
        kept = rng.random(h.shape) >= p  # bools; scaled where they are used
        h = h * (kept / (1.0 - p))
    out = _affine_value(h, w1v, b1.value, "mlp_leaky")

    def bw(g):
        h, pos = _leaky(_affine_value(xv, w0v, b0v, "mlp_leaky"))
        gh = g @ w1v.T
        if kept is not None:  # in place: the same bits as the forward's h * scale
            scale = kept / (1.0 - p)
            h *= scale
            gh *= scale
        gw1 = h.T @ g
        del h  # freed before _leaky_grad's two temporaries of its size
        gx, gw0, gb0 = _affine_grads(xv, w0v, _leaky_grad(gh, pos))
        return gx, gw0, gb0, gw1, g.sum(axis=0)

    return _op(out, (x, w0, b0, w1, b1), bw)


def concat(tensors, axis=1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    widths = [t.value.shape[axis] for t in tensors]

    def bw(g):
        grads, lo = [], 0
        for n in widths:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, lo + n)
            grads.append(g[tuple(sl)])
            lo += n
        return grads

    return _op(np.concatenate([t.value for t in tensors], axis=axis), tensors, bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    a_shape = a.value.shape
    return _op(a.value.reshape(shape), (a,), lambda g: (g.reshape(a_shape),))


def _slice(a, key) -> Tensor:
    a = _as_tensor(a)
    a_shape = a.value.shape

    def bw(g):
        ga = np.zeros(a_shape)
        ga[key] = g
        return (ga,)

    return _op(a.value[key], (a,), bw)


def slice_cols(a, lo, hi) -> Tensor:
    return _slice(a, (slice(None), slice(lo, hi)))


def slice_rows(a, lo, hi) -> Tensor:
    return _slice(a, slice(lo, hi))


def gather_rows(a, idx) -> Tensor:
    """Rows a[idx] of an index array idx."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=int)
    n_rows = a.value.shape[0]
    return _op(a.value[idx], (a,), lambda g: (_scatter_add(g, Segments(idx), n_rows),))


# embedding lookup is a row gather from a learnable table
embedding_lookup = gather_rows


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    a_shape = a.value.shape
    return _op(a.value.sum(), (a,), lambda g: (np.full(a_shape, float(g)),))


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    return scalar_mul(sum_all(a), 1.0 / a.value.size)


def cumsum_axis(a, axis) -> Tensor:
    a = _as_tensor(a)
    return _op(np.cumsum(a.value, axis=axis), (a,),
               lambda g: (np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis),))


def abs_(a) -> Tensor:
    a = _as_tensor(a)
    av = a.value
    return _op(np.abs(av), (a,), lambda g: (g * np.sign(av),))


def log(a) -> Tensor:
    a = _as_tensor(a)
    av = a.value
    return _op(np.log(av), (a,), lambda g: (g / av,))


def pow_const(a, p: float) -> Tensor:
    a = _as_tensor(a)
    av = a.value
    return _op(np.power(av, p), (a,),
               lambda g: (None if p == 0.0 else g * p * np.power(av, p - 1.0),))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"div: incompatible shapes {av.shape} and {bv.shape}")
    return _op(av / bv, (a, b), lambda g: (g / bv, -g * av / (bv * bv)))


def clamp_min(a, c: float) -> Tensor:
    a = _as_tensor(a)
    av = a.value
    return _op(np.maximum(av, c), (a,), lambda g: (g * (av >= c).astype(float),))


def huber_elts(a, delta: float) -> Tensor:
    """Per-element Huber penalty of a residual tensor."""
    a = _as_tensor(a)
    av = a.value
    absa = np.abs(av)
    quad = absa <= delta
    return _op(np.where(quad, 0.5 * av ** 2, delta * (absa - 0.5 * delta)), (a,),
               lambda g: (g * np.where(quad, av, delta * np.sign(av)),))


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    av = a.value
    return _op(np.logaddexp(0.0, av), (a,), lambda g: (g * (1.0 / (1.0 + np.exp(-av))),))


LAYER_NORM_EPS = 1e-5


def layer_norm(a, gain, bias) -> Tensor:
    """Row-wise layer normalization over the last axis with learnable gain/bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    av, gv = a.value, gain.value
    d = av.shape[-1]
    if gv.shape != (d,) or bias.value.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gv.shape}/{bias.value.shape} vs width {d}")
    diff = av - av.sum(axis=-1, keepdims=True) / d
    var = (diff * diff).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = diff * inv

    def bw(g):
        gx = g * gv
        ga = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return ga, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _op(xhat * gv + bias.value, (a, gain, bias), bw)


def dropout(a, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout with rate p, drawn from rng; the identity without rng."""
    if rng is None or p <= 0.0:
        return _as_tensor(a)
    a = _as_tensor(a)
    kept = rng.random(a.value.shape) >= p  # bools; scaled where they are used
    return _op(a.value * (kept / (1.0 - p)), (a,), lambda g: (g * (kept / (1.0 - p)),))


def softmax_grouped(logits, seg: Segments, num_groups: int) -> Tensor:
    """Softmax of the (E,) logits normalized independently within each group:
    seg is the Segments layout of the rows' group ids in range(num_groups).
    Each group's max is subtracted before exp, so no group underflows to 0/0.
    The backward reads the op's own output.
    """
    logits = _as_tensor(logits)
    if len(seg.ids) != logits.value.shape[0]:
        raise ShapeError(f"softmax_grouped: {len(seg.ids)} group ids for {logits.value.shape[0]} logits")
    if len(seg.present) and (seg.present[0] < 0 or seg.present[-1] >= num_groups):
        raise IndexError("softmax_grouped: group id out of range")
    p = _softmax(logits.value[:, None], seg)

    def bw(g):
        g2 = g[:, None]
        return ((p * (g2 - _reduce(np.add, p * g2, seg)[seg.rank]))[:, 0],)

    return _op(p[:, 0], (logits,), bw)


def _softmax(x: np.ndarray, seg: Segments) -> np.ndarray:
    """Softmax of each column of x (E, H) within each segment of rows."""
    ex = np.exp(x - _reduce(np.maximum, x, seg)[seg.rank])
    return ex / _reduce(np.add, ex, seg)[seg.rank]


def _edge_rows(qv, kv, vv, ev, edges: EdgeLayout, heads: int):
    """Each edge's q[dst], k[src] + e[row] and v[src] + e[row], in
    destination order, each (E, heads, d_head)."""
    er = ev[edges.row_by_dst]
    rows = (qv[edges.dst_sorted.ids], kv[edges.src_by_dst] + er, vv[edges.src_by_dst] + er)
    n_e, d = len(er), qv.shape[1]
    return (a.reshape(n_e, heads, d // heads) for a in rows)


def edge_attention(q, k, v, e, edges: EdgeLayout, heads: int) -> Tensor:
    """Each destination's multi-head attention message over its in-edges.

    Edge i attends from q[dst[i]] to key k[src[i]] + e[row[i]] and value
    v[src[i]] + e[row[i]], for the ids that the EdgeLayout edges was built
    from. Rows of q without in-edges get zeros. The op works in destination
    order and keeps its parents' values and the (E, heads) softmax weights:
    its backward gathers the edge rows again from those values.
    """
    q, k, v, e = _as_tensor(q), _as_tensor(k), _as_tensor(v), _as_tensor(e)
    qv, kv, vv, ev = q.value, k.value, v.value, e.value
    dst = edges.dst_sorted
    n_e, (n_dst, d) = len(dst.ids), qv.shape
    c = 1.0 / np.sqrt(d // heads)
    qh, kh, vh = _edge_rows(qv, kv, vv, ev, edges, heads)
    p = _softmax((qh * kh).sum(axis=-1) * c, dst)  # (E, heads)

    def bw(g):
        qh, kh, vh = _edge_rows(qv, kv, vv, ev, edges, heads)
        g3 = g[dst.ids].reshape(vh.shape)
        ga = (g3 * vh).sum(axis=-1)
        gl = p * (ga - _reduce(np.add, p * ga, dst)[dst.rank]) * c
        gq = (gl[..., None] * kh).reshape(n_e, d)
        gk = (gl[..., None] * qh).reshape(n_e, d)
        gv = (g3 * p[..., None]).reshape(n_e, d)
        return (_scatter_sorted(gq, dst, n_dst),
                _scatter_sorted(gk[edges.to_src], edges.by_src, kv.shape[0]),
                _scatter_sorted(gv[edges.to_src], edges.by_src, vv.shape[0]),
                _scatter_sorted((gk + gv)[edges.to_row], edges.by_row, ev.shape[0]))

    msg = _scatter_sorted((vh * p[..., None]).reshape(n_e, d), dst, n_dst)
    return _op(msg, (q, k, v, e), bw)


def edge_sum_leaky(hi, hj, hij, edges: EdgeLayout) -> Tensor:
    """LeakyReLU(hi[s] + hj[t] + hij[r]) for each edge s -> t with feature
    row r of the EdgeLayout edges, as one op: hi holds one row per source
    in edges.by_src.present, hj one per destination in edges.by_dst.present
    and hij one per feature row. The op keeps its bool sign mask; its
    backward sums the edges' gradients into those rows through the src,
    dst and row layouts."""
    hi, hj, hij = _as_tensor(hi), _as_tensor(hj), _as_tensor(hij)
    n_rows = hij.value.shape[0]
    pre = hi.value[edges.by_src.rank] + hj.value[edges.by_dst.rank]
    pre += hij.value[edges.by_row.ids]
    out, pos = _leaky(pre)
    _report_kinks(pos)

    def bw(g):
        gp = _leaky_grad(g, pos)
        return (_reduce(np.add, gp, edges.by_src), _reduce(np.add, gp, edges.by_dst),
                _scatter_add(gp, edges.by_row, n_rows))

    return _op(out, (hi, hj, hij), bw)
