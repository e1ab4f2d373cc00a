"""Reverse-mode autodiff over numpy arrays (float64), tape-based.

Each Tensor records its parents and a backward closure; `backward()` runs a
reverse topological sweep. `no_grad()` disables recording for cheap
forward-only evaluation (finite differences, inference): every op computes
the same value either way, and only links it into the tape with grad on.
Work that only the backward needs is done inside the backward closure.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeError

_grad_enabled = True

# When not None, leaky_relu appends sign masks of its pre-activations here
# (used by grad_check to detect kink crossings between perturbed runs).
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

    __slots__ = ("value", "grad", "_parents", "_backward", "name", "__weakref__")

    def __init__(self, value, name=None):
        """A leaf: a parameter or a constant. Op outputs come from `_node`."""
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._backward = None
        self.name = name

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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class Segments:
    """Stable CSR layout of a row -> segment id array, for O(rows) segment
    reductions with `ufunc.reduceat`.

    `order` sorts the rows by segment (stably), `starts` is where each
    non-empty segment begins in that order, `present` holds those segments'
    ids and `rank` each row's position in `present`. Graph edge sets build
    theirs once; the ops accept a raw id array as well and lay it out per call.
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


def segments(ids) -> Segments:
    return ids if isinstance(ids, Segments) else Segments(ids)


def _reduce(ufunc, x: np.ndarray, seg: Segments) -> np.ndarray:
    """ufunc-reduce the rows of x within each present segment."""
    return ufunc.reduceat(x[seg.order], seg.starts, axis=0)


def _scatter_add(x: np.ndarray, seg: Segments, n_rows: int) -> np.ndarray:
    """Sum the rows of x into n_rows buckets by segment id."""
    out = np.zeros((n_rows,) + x.shape[1:])
    out[seg.present] = _reduce(np.add, x, seg)
    return out


def _node(value, parents, backward) -> Tensor:
    """An op's output: linked into the tape, or a bare leaf under no_grad().
    Skips Tensor.__init__, whose dtype conversion fresh float64 arrays do not need."""
    t = Tensor.__new__(Tensor)
    t.value = value if type(value) is np.ndarray else np.asarray(value, dtype=np.float64)
    t.grad = None
    t.name = None
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
    if av.shape != bv.shape and not (av.ndim == 2 and bv.ndim == 1
                                     and av.shape[1] == bv.shape[0]):
        raise ShapeError(f"add: incompatible shapes {av.shape} and {bv.shape}")

    def bw(g):
        _accum(a, g)
        _accum(b, g.sum(axis=0) if bv.ndim < g.ndim else g)

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
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != (wv.shape[1],):
        raise ShapeError(f"affine: incompatible shapes {xv.shape}, {wv.shape}, {bv.shape}")
    out_val = xv @ wv
    out_val += bv

    def bw(g):
        _accum(x, g @ wv.T)
        _accum(w, xv.T @ g)
        _accum(b, g.sum(axis=0))

    return _node(out_val, (x, w, b), bw)


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
    """Rows a[idx]; idx is an index array or a Segments layout of one."""
    a = _as_tensor(a)
    ids = idx.ids if isinstance(idx, Segments) else np.asarray(idx, dtype=int)

    def bw(g):
        _accum(a, _scatter_add(g, segments(idx), a.value.shape[0]))

    return _node(a.value[ids], (a,), bw)


# embedding lookup is a row gather from a learnable table
embedding_lookup = gather_rows


def segment_sum(a, seg_ids, num_segments) -> Tensor:
    """Sum rows of a into num_segments buckets given per-row bucket ids
    (an id array in any order, or its Segments layout)."""
    a = _as_tensor(a)
    seg = segments(seg_ids)

    def bw(g):
        _accum(a, g[seg.ids])

    return _node(_scatter_add(a.value, seg, num_segments), (a,), bw)


def scale_last(a, w) -> Tensor:
    """Multiply a (..., d) tensor by per-row weights w (...,): a * w[..., None]."""
    a, w = _as_tensor(a), _as_tensor(w)
    av, wv = a.value, w.value
    if av.shape[:-1] != wv.shape:
        raise ShapeError(f"scale_last: {av.shape} vs weights {wv.shape}")

    def bw(g):
        _accum(a, g * wv[..., None])
        _accum(w, (g * av).sum(axis=-1))

    return _node(av * wv[..., None], (a, w), bw)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, np.full_like(a.value, float(g)))

    return _node(a.value.sum(), (a,), bw)


def sum_axis(a, axis) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, np.expand_dims(g, axis) * np.ones_like(a.value))

    return _node(a.value.sum(axis=axis), (a,), bw)


def sum_rows(a) -> Tensor:
    """Sum over rows: (N, d) -> (d,)."""
    return sum_axis(a, 0)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    return scalar_mul(sum_all(a), 1.0 / a.value.size)


def cumsum_axis(a, axis) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accum(a, np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis))

    return _node(np.cumsum(a.value, axis=axis), (a,), bw)


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    """max(x, slope * x), for 0 <= slope <= 1."""
    a = _as_tensor(a)
    av = a.value
    # max() into one buffer avoids a branchy per-element select
    out = av * slope
    np.maximum(av, out, out=out)
    if kink_monitor is not None:
        kink_monitor.append(av >= 0.0)

    def bw(g):
        mask = (av >= 0.0).astype(np.float64)
        np.maximum(mask, slope, out=mask)
        _accum(a, g * mask)

    return _node(out, (a,), bw)


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


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization over the last axis with learnable gain/bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    av = a.value
    d = av.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gain.value.shape}/{bias.value.shape} vs width {d}")
    diff = av - av.sum(axis=-1, keepdims=True) / d
    var = (diff * diff).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = diff * inv

    def bw(g):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        gx = g * gain.value
        _accum(a, inv * (gx - gx.mean(axis=-1, keepdims=True)
                         - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return _node(xhat * gain.value + bias.value, (a, gain, bias), bw)


def dropout(a, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    if not train or p <= 0.0:
        return _as_tensor(a)
    a = _as_tensor(a)
    keep = (rng.random(a.value.shape) >= p) / (1.0 - p)

    def bw(g):
        _accum(a, g * keep)

    return _node(a.value * keep, (a,), bw)


def softmax_grouped(logits, group_ids, num_groups=None) -> Tensor:
    """Softmax normalized independently within each group of rows.

    logits: (E,) or (E, H); group_ids: (E,) ints in any order, or their
    Segments layout. With 2D logits the grouping applies per column. Each
    group's max is subtracted before exp, so no group underflows to 0/0.
    """
    logits = _as_tensor(logits)
    seg = segments(group_ids)
    if len(seg.ids) != logits.value.shape[0]:
        raise ShapeError(f"softmax_grouped: {len(seg.ids)} group ids for {logits.value.shape[0]} logits")
    if num_groups is None:
        num_groups = int(seg.present[-1]) + 1 if len(seg.present) else 0
    if len(seg.present) and (seg.present[0] < 0 or seg.present[-1] >= num_groups):
        raise IndexError("softmax_grouped: group id out of range")
    x = logits.value
    squeeze = x.ndim == 1
    x2 = x[:, None] if squeeze else x
    ex = np.exp(x2 - _reduce(np.maximum, x2, seg)[seg.rank])
    p = ex / _reduce(np.add, ex, seg)[seg.rank]

    def bw(g):
        g2 = g[:, None] if squeeze else g
        gx = p * (g2 - _reduce(np.add, p * g2, seg)[seg.rank])
        _accum(logits, gx[:, 0] if squeeze else gx)

    return _node(p[:, 0] if squeeze else p, (logits,), bw)
