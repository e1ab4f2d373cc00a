"""Reverse-mode autodiff over numpy arrays (float64), tape-based.

Each Tensor records its parents and a backward closure; `backward()` runs a
reverse topological sweep. `no_grad()` disables recording for cheap
forward-only evaluation (finite differences, inference): every op computes
the same value either way, and only links it into the tape with grad on.
Work that only the backward needs is done inside the backward closure, and
an op keeps only the arrays its backward reads: a parent's value is read
from the parent, and a mask is kept as bools.

One backward per forward: `backward()` consumes the tape it sweeps. Once an
op's closure has run, the op drops its grad and closure, and its parents
become None, so the tape is freed as the sweep goes; leaves (parameters,
constants) keep their grads. A later backward that reaches a consumed op
raises StructuralError.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeError, StructuralError

_grad_enabled = True

# When not None, each LeakyReLU op appends the sign mask of its
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


class Tensor:
    """A node in the computation tape."""

    __slots__ = ("value", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, value):
        """A leaf: a parameter or a constant. Op outputs come from `_node`."""
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        if self.value.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
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
        self.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if node._backward is not None:  # an op: run it once, then let it go
                if node.grad is not None:
                    node._backward(node.grad)
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


def _node(value, parents, backward) -> Tensor:
    """An op's output: linked into the tape, or a bare leaf under no_grad().
    Skips Tensor.__init__, whose dtype conversion fresh float64 arrays do not need."""
    t = Tensor.__new__(Tensor)
    t.value = value if type(value) is np.ndarray else np.asarray(value, dtype=np.float64)
    t.grad = None
    if _grad_enabled:
        t._parents, t._backward = parents, backward
    else:
        t._parents, t._backward = (), None
    return t


def _accum(t: Tensor, g: np.ndarray):
    # Lazy: first contribution owns a copy, later ones add in place.
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        t.grad += g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"add: incompatible shapes {av.shape} and {bv.shape}")

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _node(av + bv, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"sub: incompatible shapes {av.shape} and {bv.shape}")

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _node(av - bv, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"mul: incompatible shapes {av.shape} and {bv.shape}")

    def bw(g):
        _accum(a, g * bv)
        _accum(b, g * av)

    return _node(av * bv, (a, b), bw)


def scalar_mul(a, c: float) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, g * c)

    return _node(a.value * c, (a,), bw)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")

    def bw(g):
        _accum(a, g @ bv.T)
        _accum(b, av.T @ g)

    return _node(av @ bv, (a, b), bw)


def affine(x, w, b) -> Tensor:
    """Fused x @ w + b with b broadcast over rows."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)

    def bw(g):
        _affine_backward(x, w, b, g)

    return _node(_affine_value(x, w, b, "affine"), (x, w, b), bw)


def _affine_value(x: Tensor, w: Tensor, b: Tensor, op: str) -> np.ndarray:
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != (wv.shape[1],):
        raise ShapeError(f"{op}: incompatible shapes {xv.shape}, {wv.shape}, {bv.shape}")
    out = xv @ wv
    out += bv
    return out


def _affine_backward(x: Tensor, w: Tensor, b: Tensor, g: np.ndarray):
    _accum(x, g @ w.value.T)
    _accum(w, x.value.T @ g)
    _accum(b, g.sum(axis=0))


LEAKY_SLOPE = 0.01


def _leaky(pre: np.ndarray):
    """max(pre, LEAKY_SLOPE * pre), written over pre, and the bool mask of
    pre >= 0 that the backward needs; the mask also goes to kink_monitor."""
    pos = pre >= 0.0
    if kink_monitor is not None:
        kink_monitor.append(pos)
    # max() into one buffer avoids a branchy per-element select
    np.maximum(pre, pre * LEAKY_SLOPE, out=pre)
    return pre, pos


def _leaky_grad(g: np.ndarray, pos: np.ndarray) -> np.ndarray:
    # the same bits as g times a (1, LEAKY_SLOPE) float mask
    return np.where(pos, g, g * LEAKY_SLOPE)


def affine_leaky(x, w, b) -> Tensor:
    """LeakyReLU(x @ w + b) as one op, which keeps the bool sign mask in
    place of the pre-activation."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    out, pos = _leaky(_affine_value(x, w, b, "affine_leaky"))

    def bw(g):
        _affine_backward(x, w, b, _leaky_grad(g, pos))

    return _node(out, (x, w, b), bw)


def concat(tensors, axis=1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]

    def bw(g):
        lo = 0
        for t in tensors:
            hi = lo + t.value.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])
            lo = hi

    return _node(np.concatenate([t.value for t in tensors], axis=axis), tuple(tensors), bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, g.reshape(a.value.shape))

    return _node(a.value.reshape(shape), (a,), bw)


def _slice(a, key) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        ga = np.zeros_like(a.value)
        ga[key] = g
        _accum(a, ga)

    return _node(a.value[key], (a,), bw)


def slice_cols(a, lo, hi) -> Tensor:
    return _slice(a, (slice(None), slice(lo, hi)))


def slice_rows(a, lo, hi) -> Tensor:
    return _slice(a, slice(lo, hi))


def gather_rows(a, idx) -> Tensor:
    """Rows a[idx] of an index array idx."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=int)

    def bw(g):
        _accum(a, _scatter_add(g, Segments(idx), a.value.shape[0]))

    return _node(a.value[idx], (a,), bw)


# embedding lookup is a row gather from a learnable table
embedding_lookup = gather_rows


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, np.full_like(a.value, float(g)))

    return _node(a.value.sum(), (a,), bw)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    return scalar_mul(sum_all(a), 1.0 / a.value.size)


def cumsum_axis(a, axis) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis))

    return _node(np.cumsum(a.value, axis=axis), (a,), bw)


def abs_(a) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, g * np.sign(a.value))

    return _node(np.abs(a.value), (a,), bw)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, g / a.value)

    return _node(np.log(a.value), (a,), bw)


def pow_const(a, p: float) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        if p == 0.0:
            return
        _accum(a, g * p * np.power(a.value, p - 1.0))

    return _node(np.power(a.value, p), (a,), bw)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"div: incompatible shapes {av.shape} and {bv.shape}")

    def bw(g):
        _accum(a, g / bv)
        _accum(b, -g * av / (bv * bv))

    return _node(av / bv, (a, b), bw)


def clamp_min(a, c: float) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, g * (a.value >= c).astype(float))

    return _node(np.maximum(a.value, c), (a,), bw)


def huber_elts(a, delta: float) -> Tensor:
    """Per-element Huber penalty of a residual tensor."""
    a = _as_tensor(a)
    av = a.value
    absa = np.abs(av)
    quad = absa <= delta

    def bw(g):
        _accum(a, g * np.where(quad, av, delta * np.sign(av)))

    return _node(np.where(quad, 0.5 * av ** 2, delta * (absa - 0.5 * delta)), (a,), bw)


def softplus(a) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, g * (1.0 / (1.0 + np.exp(-a.value))))

    return _node(np.logaddexp(0.0, a.value), (a,), bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(a, gain, bias) -> Tensor:
    """Row-wise layer normalization over the last axis with learnable gain/bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    av = a.value
    d = av.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gain.value.shape}/{bias.value.shape} vs width {d}")
    diff = av - av.sum(axis=-1, keepdims=True) / d
    var = (diff * diff).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = diff * inv

    def bw(g):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        gx = g * gain.value
        _accum(a, inv * (gx - gx.mean(axis=-1, keepdims=True)
                         - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return _node(xhat * gain.value + bias.value, (a, gain, bias), bw)


def dropout(a, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout with rate p, drawn from rng; the identity without rng."""
    if rng is None or p <= 0.0:
        return _as_tensor(a)
    a = _as_tensor(a)
    kept = rng.random(a.value.shape) >= p  # bools; scaled where they are used

    def bw(g):
        _accum(a, g * (kept / (1.0 - p)))

    return _node(a.value * (kept / (1.0 - p)), (a,), bw)


def softmax_grouped(logits, seg: Segments, num_groups: int) -> Tensor:
    """Softmax of the (E,) logits normalized independently within each group:
    seg is the Segments layout of the rows' group ids in range(num_groups).
    Each group's max is subtracted before exp, so no group underflows to 0/0.
    """
    logits = _as_tensor(logits)
    if len(seg.ids) != logits.value.shape[0]:
        raise ShapeError(f"softmax_grouped: {len(seg.ids)} group ids for {logits.value.shape[0]} logits")
    if len(seg.present) and (seg.present[0] < 0 or seg.present[-1] >= num_groups):
        raise IndexError("softmax_grouped: group id out of range")
    p = _softmax(logits.value[:, None], seg)

    def bw(g):
        g2 = g[:, None]
        gx = p * (g2 - _reduce(np.add, p * g2, seg)[seg.rank])
        _accum(logits, gx[:, 0])

    return _node(p[:, 0], (logits,), bw)


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
    order and keeps only the (E, heads) softmax weights: its backward
    gathers the edge rows again from its parents' values.
    """
    q, k, v, e = _as_tensor(q), _as_tensor(k), _as_tensor(v), _as_tensor(e)
    dst = edges.dst_sorted
    n_e, (n_dst, d) = len(dst.ids), q.value.shape
    c = 1.0 / np.sqrt(d // heads)
    qh, kh, vh = _edge_rows(q.value, k.value, v.value, e.value, edges, heads)
    p = _softmax((qh * kh).sum(axis=-1) * c, dst)  # (E, heads)

    def bw(g):
        qh, kh, vh = _edge_rows(q.value, k.value, v.value, e.value, edges, heads)
        g3 = g[dst.ids].reshape(vh.shape)
        ga = (g3 * vh).sum(axis=-1)
        gl = p * (ga - _reduce(np.add, p * ga, dst)[dst.rank]) * c
        gq = (gl[..., None] * kh).reshape(n_e, d)
        gk = (gl[..., None] * qh).reshape(n_e, d)
        gv = (g3 * p[..., None]).reshape(n_e, d)
        _accum(q, _scatter_sorted(gq, dst, n_dst))
        _accum(k, _scatter_sorted(gk[edges.to_src], edges.by_src, k.value.shape[0]))
        _accum(v, _scatter_sorted(gv[edges.to_src], edges.by_src, v.value.shape[0]))
        _accum(e, _scatter_sorted((gk + gv)[edges.to_row], edges.by_row, e.value.shape[0]))

    msg = _scatter_sorted((vh * p[..., None]).reshape(n_e, d), dst, n_dst)
    return _node(msg, (q, k, v, e), bw)


def edge_sum_leaky(hi, hj, hij, edges: EdgeLayout) -> Tensor:
    """LeakyReLU(hi[s] + hj[t] + hij[r]) for each edge s -> t with feature
    row r of the EdgeLayout edges, as one op: hi holds one row per source
    in edges.by_src.present, hj one per destination in edges.by_dst.present
    and hij one per feature row. The op keeps its bool sign mask; its
    backward sums the edges' gradients into those rows through the src,
    dst and row layouts."""
    hi, hj, hij = _as_tensor(hi), _as_tensor(hj), _as_tensor(hij)
    pre = hi.value[edges.by_src.rank] + hj.value[edges.by_dst.rank]
    pre += hij.value[edges.by_row.ids]
    out, pos = _leaky(pre)

    def bw(g):
        gp = _leaky_grad(g, pos)
        _accum(hi, _reduce(np.add, gp, edges.by_src))
        _accum(hj, _reduce(np.add, gp, edges.by_dst))
        _accum(hij, _scatter_add(gp, edges.by_row, hij.value.shape[0]))

    return _node(out, (hi, hj, hij), bw)
