import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import goalgraph.autodiff as ad
from conftest import (affine_leaky_oracle, dropout_oracle, edge_attention_oracle,
                      edge_sum_leaky_oracle, scale_last, segment_sum, sum_axis)
from goalgraph.autodiff import Tensor
from goalgraph.errors import ShapeError, StructuralError

rng = np.random.default_rng(0)


def tensor(shape, scale=1.0, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    return Tensor(r.standard_normal(shape) * scale)


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at numpy array x."""
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        o = flat[i]
        flat[i] = o + h
        fp = f()
        flat[i] = o - h
        fm = f()
        flat[i] = o
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_op(build, *shapes, seed=0, tol=1e-6):
    """Generic gradient check: build(tensors) -> scalar Tensor."""
    ts = [tensor(s, seed=seed + i) for i, s in enumerate(shapes)]
    loss = build(*ts)
    loss.backward()
    for t in ts:
        with ad.no_grad():
            fd = fd_grad(lambda: float(build(*ts).value), t.value)
        assert t.grad is not None
        assert np.allclose(t.grad, fd, atol=tol), f"max err {np.abs(t.grad - fd).max()}"


def test_backward_requires_scalar():
    t = tensor((3, 2))
    with pytest.raises(ShapeError):
        t.backward()


def test_matmul_grad():
    check_op(lambda a, b: ad.sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
             (4, 3), (3, 5))


def test_matmul_hand_derivative():
    # loss = sum(x @ W) -> dL/dW[i, j] = sum of column i of x
    x, W = tensor((5, 3), seed=1), tensor((3, 4), seed=2)
    ad.sum_all(ad.matmul(x, W)).backward()
    assert np.allclose(W.grad, np.repeat(x.value.sum(axis=0)[:, None], 4, axis=1))
    assert np.allclose(x.grad, np.repeat(W.value.sum(axis=1)[None, :], 5, axis=0))


def test_mul_sub_div():
    check_op(lambda a, b: ad.sum_all(ad.div(ad.mul(a, a), ad.add(ad.mul(b, b), Tensor(np.ones((4, 3)) * 2)))),
             (4, 3), (4, 3))
    check_op(lambda a, b: ad.sum_all(ad.mul(ad.sub(a, b), ad.sub(a, b))), (3, 3), (3, 3))


def test_concat_slice_reshape():
    check_op(lambda a, b: ad.sum_all(ad.mul(ad.concat([a, b], axis=1),
                                            ad.concat([a, b], axis=1))), (4, 2), (4, 3))
    check_op(lambda a: ad.sum_all(ad.mul(ad.slice_cols(a, 1, 3), ad.slice_cols(a, 1, 3))), (4, 5))
    check_op(lambda a: ad.sum_all(ad.mul(ad.reshape(a, (2, 6)), ad.reshape(a, (2, 6)))), (4, 3))


def test_gather_segment():
    """Row gathers (their backward sums rows into segments), and the test
    oracle's segment_sum against np.add.at."""
    idx = np.array([0, 2, 2, 1])
    check_op(lambda a: ad.sum_all(ad.mul(ad.gather_rows(a, idx), ad.gather_rows(a, idx))), (3, 4))
    # sorted ids; unsorted ids with empty segments 1 and 3
    for seg, n in ((np.array([0, 0, 1, 1, 1]), 2), (np.array([2, 0, 2, 0, 2]), 4)):
        check_op(lambda a: ad.sum_all(ad.mul(segment_sum(a, seg, n),
                                             segment_sum(a, seg, n))), (5, 3))
        out = segment_sum(tensor((5, 3), seed=4), seg, n).value
        ref = np.zeros((n, 3))
        np.add.at(ref, seg, tensor((5, 3), seed=4).value)
        assert np.allclose(out, ref, atol=1e-12)


def test_scale_last():
    """The test oracle's per-row weighting of attention values."""
    w = np.array([0.5, 2.0, -1.0])
    check_op(lambda a: ad.sum_all(ad.mul(scale_last(a, ad.mul(Tensor(w), Tensor(np.ones(3)))),
                                         a)), (3, 4))


def test_cumsum():
    t = Tensor(np.array([[0.1, 0.0]] * 5))
    out = ad.cumsum_axis(t, 0)
    assert np.allclose(out.value[:, 0], 0.1 * np.arange(1, 6))
    check_op(lambda a: ad.sum_all(ad.mul(ad.cumsum_axis(a, 0), ad.cumsum_axis(a, 0))), (5, 2))


def test_leaky_relu_values_and_grad():
    t = Tensor(np.array([[-1.0, 2.0]]))
    out = ad.affine_leaky(t, Tensor(np.eye(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.value, [[-0.01, 2.0]])
    ad.sum_all(out).backward()
    assert np.allclose(t.grad, [[0.01, 1.0]])


def test_smooth_unary_grads():
    check_op(lambda a: ad.sum_all(ad.log(ad.add(ad.mul(a, a), Tensor(np.ones((3, 3)))))), (3, 3))
    check_op(lambda a: ad.sum_all(ad.softplus(a)), (4, 3))
    check_op(lambda a: ad.sum_all(ad.pow_const(ad.add(ad.mul(a, a), Tensor(np.ones((3, 2)))), 1.7)), (3, 2))


def test_huber_elts():
    t = Tensor(np.array([[0.5, 3.0, -0.25, -4.0]]))
    out = ad.huber_elts(t, 1.0)
    assert np.allclose(out.value, [[0.125, 2.5, 0.03125, 3.5]])
    # grad: e inside, delta*sign(e) outside
    ad.sum_all(out).backward()
    assert np.allclose(t.grad, [[0.5, 1.0, -0.25, -1.0]])


def test_clamp_min():
    t = Tensor(np.array([[-5.0, 2.0]]))
    out = ad.clamp_min(t, 1e-3)
    assert np.allclose(out.value, [[1e-3, 2.0]])
    ad.sum_all(out).backward()
    assert np.allclose(t.grad, [[0.0, 1.0]])


def test_layer_norm_constant_vector():
    t = Tensor(np.full((2, 6), 3.7))
    out = ad.layer_norm(t, Tensor(np.ones(6)), Tensor(np.zeros(6)))
    assert np.allclose(out.value, 0.0, atol=1e-9)


def test_layer_norm_grad():
    def build(a, g, b):
        return ad.sum_all(ad.mul(ad.layer_norm(a, g, b), ad.layer_norm(a, g, b)))
    check_op(build, (4, 6), (6,), (6,), tol=1e-5)


def test_dropout_identity_cases():
    t = tensor((5, 4), seed=3)
    assert np.array_equal(ad.dropout(t, 0.3).value, t.value)
    assert np.array_equal(ad.dropout(t, 0.0, rng=np.random.default_rng(0)).value, t.value)


def test_softmax_grouped_basic():
    out = ad.softmax_grouped(Tensor(np.zeros(2)), ad.Segments(np.array([0, 0])), 1)
    assert np.allclose(out.value, [0.5, 0.5])


def test_softmax_grouped_sums_and_positive():
    r = np.random.default_rng(5)
    logits = Tensor(r.standard_normal(50) * 3)
    groups = np.sort(r.integers(0, 7, 50))
    out = ad.softmax_grouped(logits, ad.Segments(groups), 7)
    assert (out.value > 0).all()
    sums = np.zeros(7)
    np.add.at(sums, groups, out.value)
    assert np.allclose(sums[np.unique(groups)], 1.0, atol=1e-9)


# sorted groups; unsorted groups with group 1 of 3 empty
SOFTMAX_GROUPINGS = [(np.array([0, 0, 0, 1, 1]), 2),
                     (np.array([2, 0, 2, 0, 2]), 3)]


def test_softmax_grouped_grad():
    w = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    for groups, n in SOFTMAX_GROUPINGS:
        def build(a):
            return ad.sum_all(ad.mul(ad.softmax_grouped(a, ad.Segments(groups), n), Tensor(w)))
        check_op(build, (5,))


def test_softmax_grouped_multihead_grad():
    """ad._softmax on several columns, as edge_attention calls it with one
    column per head: each column equals softmax_grouped of that column
    alone, bit for bit (the unfused attention oracle relies on it), and sums
    to 1 within each group even for large logits. test_edge_attention_grad
    checks its gradient."""
    for groups, n in [(np.array([0, 0, 1]), 2)] + SOFTMAX_GROUPINGS:
        seg = ad.Segments(groups)
        x = tensor((len(groups), 4), scale=30.0, seed=6).value
        p = ad._softmax(x, seg)
        for h in range(4):
            assert np.array_equal(p[:, h], ad.softmax_grouped(Tensor(x[:, h]), seg, n).value)
        for gid in np.unique(groups):
            assert np.allclose(p[groups == gid].sum(axis=0), 1.0, atol=1e-12)


def test_backward_linearity():
    # backward(l1 + l2) == backward(l1) then backward(l2), exactly
    x = tensor((4, 3), seed=9)

    def l1():
        return ad.sum_all(ad.mul(x, x))

    def l2():
        return ad.sum_all(ad.affine_leaky(x, Tensor(np.eye(3)), Tensor(np.zeros(3))))

    ad.add(l1(), l2()).backward()
    g_joint = x.grad.copy()
    x.grad = None
    l1().backward()
    l2().backward()
    assert np.array_equal(x.grad, g_joint)


def test_unused_tensor_grad_is_none():
    x, y = tensor((2, 2), seed=1), tensor((2, 2), seed=2)
    ad.sum_all(x).backward()
    assert y.grad is None


def test_no_grad_builds_no_tape():
    x = tensor((2, 2))
    with ad.no_grad():
        out = ad.sum_all(ad.mul(x, x))
    assert out._parents == ()


@settings(max_examples=30)
@given(st.integers(2, 6), st.integers(1, 5))
def test_sum_axis_matches_numpy(n, d):
    """The test oracle's sum_axis: axis 0 of a matrix, and axis 2 of a 3-D
    input as attention sums each head's q.k products; values and gradients."""
    x = np.random.default_rng(n * 7 + d).standard_normal((n, d))
    assert np.allclose(sum_axis(Tensor(x), 0).value, x.sum(axis=0))
    x3 = np.random.default_rng(n * 7 + d + 1).standard_normal((n, 3, d))
    assert np.allclose(sum_axis(Tensor(x3), 2).value, x3.sum(axis=2))
    check_op(lambda a: ad.sum_all(ad.mul(sum_axis(a, 0), sum_axis(a, 0))), (n, d),
             seed=n * 7 + d)
    check_op(lambda a: ad.sum_all(ad.mul(sum_axis(a, 2), sum_axis(a, 2))), (n, 3, d),
             seed=n * 7 + d)


# Edges with unsorted src and dst ids; destination 1 of 4 has no in-edges,
# edge rows repeat and row 3 of 4 feeds no edge.
ATT_SRC = np.array([2, 0, 1, 2, 0, 1])
ATT_DST = np.array([3, 0, 3, 2, 0, 3])
ATT_ROW = np.array([2, 0, 2, 1, 1, 0])


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("row", [ATT_ROW, pytest.param(np.arange(len(ATT_SRC)), id="per-edge")])
def test_edge_attention_grad(heads, row):
    """Gradients on q, k, v and e against central differences, with 1 head
    and with one head per column; e with shared rows, and with one row per edge."""
    shared = row is ATT_ROW
    n_rows = 4 if shared else len(ATT_SRC)
    edges = ad.EdgeLayout(ATT_SRC, ATT_DST, row)
    w = np.random.default_rng(3).standard_normal((4, 4))

    def build(q, k, v, e):
        out = ad.edge_attention(q, k, v, e, edges, heads)
        return ad.sum_all(ad.mul(out, Tensor(w)))
    check_op(build, (4, 4), (3, 4), (3, 4), (n_rows, 4), seed=heads)
    q, k, v, e = (tensor(s, seed=i) for i, s in enumerate([(4, 4), (3, 4), (3, 4), (n_rows, 4)]))
    build(q, k, v, e).backward()
    out = ad.edge_attention(q, k, v, e, edges, heads).value
    assert not out[1].any() and not q.grad[1].any()  # no in-edges
    if shared:
        assert not e.grad[3].any()  # feeds no edge


def test_backward_releases_tape():
    """backward frees each op's grad node once its closure has run, while
    the loss is still alive; leaves keep their grads."""
    x = tensor((3, 2), seed=1)
    h = ad.mul(x, x)
    ref = weakref.ref(h.node)
    loss = ad.sum_all(h)
    del h
    assert ref() is not None
    loss.backward()
    assert ref() is None
    assert loss._parents is None and loss.grad is None
    assert np.array_equal(x.grad, 2.0 * x.value)


def test_second_backward_raises():
    """One backward per forward: a second sweep of a consumed tape, or a new
    loss built on one of its ops, raises rather than return no gradient."""
    x = tensor((3, 2), seed=2)
    h = ad.mul(x, x)
    loss = ad.sum_all(h)
    loss.backward()
    g = x.grad.copy()
    with pytest.raises(StructuralError, match="consumed"):
        loss.backward()
    with pytest.raises(StructuralError, match="consumed"):
        ad.sum_all(ad.add(h, x)).backward()
    assert np.array_equal(x.grad, g)


def test_unread_op_output_dies_with_its_tensor():
    """An affine output that only feeds an add is read by no backward: its
    value dies once the caller drops its Tensor. The matmul's parents'
    values stay alive for its backward, whose gradients equal the hand
    computation bit for bit; a second backward raises."""
    r = np.random.default_rng(6)
    x, w, b = (Tensor(r.standard_normal(s)) for s in ((4, 3), (3, 5), (5,)))
    m = Tensor(r.standard_normal((5, 2)))
    h = ad.affine(x, w, b)
    dead = weakref.ref(h.value)
    s = ad.add(h, Tensor(r.standard_normal((4, 5))))
    del h
    assert dead() is None
    alive = weakref.ref(s.value)
    out = ad.matmul(s, m)
    sv = s.value
    del s
    assert alive() is not None
    gw = r.standard_normal((4, 2))
    loss = ad.sum_all(ad.mul(out, Tensor(gw)))
    del out
    loss.backward()
    assert same_bits(m.grad, sv.T @ gw)
    gs = gw @ m.value.T
    assert same_bits(x.grad, gs @ w.value.T)
    assert same_bits(w.grad, x.value.T @ gs)
    assert same_bits(b.grad, gs.sum(axis=0))
    del sv
    assert alive() is None  # the matmul's closure has run and let go
    with pytest.raises(StructuralError, match="consumed"):
        loss.backward()


# Bitwise oracle tests: each op that keeps only what its backward needs
# against the op it replaced (conftest), value and every input gradient.
# Every case feeds one input twice, and no input's gradient may alias
# another's.

def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def kept_arrays(t, inputs) -> tuple:
    """The numpy arrays that t's backward closure holds: the positions of
    the inputs whose values it saves, and its other arrays. It holds no
    Tensor, so it reaches no value that it did not save."""
    cells = [c.cell_contents for c in t.node._backward.__closure__]
    assert not any(isinstance(c, Tensor) for c in cells)
    arrays = [a for a in cells if isinstance(a, np.ndarray)]
    saved = sorted({i for i, x in enumerate(inputs) for a in arrays if a is x.value})
    return saved, [a for a in arrays if not any(a is x.value for x in inputs)]


def run_both(op, oracle, values, call, twice) -> list:
    """Asserts that op and its oracle, each on fresh leaves of `values`, give
    the same bits: the no_grad value, the taped value, every leaf's gradient
    of sum(out * w) + sum(x * x) for the leaf x = leaves[twice], and the
    kink masks reported. Returns what op's backward holds (kept_arrays)."""
    results, kept = [], None
    for f in (op, oracle):
        leaves = [Tensor(v.copy()) for v in values]
        with ad.no_grad():
            plain = call(f, leaves).value
        ad.kink_monitor = masks = []
        try:
            out = call(f, leaves)
        finally:
            ad.kink_monitor = None
        kept = kept_arrays(out, leaves) if kept is None else kept
        w = np.random.default_rng(5).standard_normal(out.shape)
        x = leaves[twice]
        ad.add(ad.sum_all(ad.mul(out, Tensor(w))), ad.sum_all(ad.mul(x, x))).backward()
        grads = [t.grad for t in leaves]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[:i])
        results.append([plain, out.value, *grads, *masks])
    assert len(results[0]) == len(results[1])
    for a, b in zip(*results):
        assert same_bits(a, b)
    return kept


def random_edges(r, n_src, n_dst, n_rows, n_e):
    """n_e edges in no order, with repeated rows; destination 1 and
    source 0 have no edges."""
    src = r.integers(1, n_src, n_e)
    dst = r.integers(0, n_dst, n_e)
    dst[dst == 1] = 2
    return ad.EdgeLayout(src, dst, r.integers(0, n_rows, n_e))


@pytest.mark.parametrize("d_head", [1, 2, 4, 16])
@pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "random"])
def test_edge_attention_matches_oracle_bitwise(d_head, fixed):
    """Keys and values come from one tensor, and q feeds a second op."""
    r = np.random.default_rng(d_head)
    heads = 3
    d = heads * d_head
    if fixed:
        edges = ad.EdgeLayout(ATT_SRC, ATT_DST, ATT_ROW)
        n_src, n_dst, n_rows = 3, 4, 4
    else:
        n_src, n_dst, n_rows = 9, 12, 10
        edges = random_edges(r, n_src, n_dst, n_rows, 80)
    values = [r.standard_normal(s) * 2.0 for s in ((n_dst, d), (n_src, d), (n_rows, d))]
    kept = run_both(ad.edge_attention, edge_attention_oracle, values,
                    lambda f, t: f(t[0], t[1], t[1], t[2], edges, heads), twice=0)
    saved, own = kept
    assert saved == [0, 1, 2]  # q, k and v (one tensor), e
    floats = [a for a in own if a.dtype == np.float64]
    assert [a.shape for a in floats] == [(len(edges.by_dst.ids), heads)]  # the softmax weights only


def test_affine_leaky_matches_oracle_bitwise():
    """Column 1 sits on the kink (zero weights and bias); x feeds a second op."""
    r = np.random.default_rng(1)
    w, b = r.standard_normal((3, 4)), r.standard_normal(4)
    w[:, 1], b[1] = 0.0, 0.0
    values = [r.standard_normal((6, 3)), w, b]
    saved, own = run_both(ad.affine_leaky, affine_leaky_oracle, values, lambda f, t: f(*t),
                          twice=0)
    assert saved == [0, 1] and [a.dtype for a in own] == [np.bool_]  # x, w and the sign mask


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "random"])
def test_edge_sum_leaky_matches_oracle_bitwise(fixed):
    """hi, hj and hij rows by source, destination and feature row; column 0
    sums to zero on the kink. hj feeds a second op."""
    r = np.random.default_rng(2)
    edges, n_rows = ((ad.EdgeLayout(ATT_SRC, ATT_DST, ATT_ROW), 4) if fixed
                     else (random_edges(r, 9, 12, 10, 80), 10))
    shapes = [(len(edges.by_src.present), 5), (len(edges.by_dst.present), 5), (n_rows, 5)]
    values = [r.standard_normal(s) for s in shapes]
    for v in values:
        v[:, 0] = 0.0
    saved, own = run_both(ad.edge_sum_leaky, edge_sum_leaky_oracle, values,
                          lambda f, t: f(*t, edges), twice=1)
    assert saved == [] and [a.dtype for a in own] == [np.bool_]


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_dropout_matches_oracle_bitwise(p):
    """The same rng draws; negative inputs keep the sign of their zeros."""
    values = [np.random.default_rng(3).standard_normal((7, 5))]
    saved, own = run_both(lambda a: ad.dropout(a, p, np.random.default_rng(4)),
                          lambda a: dropout_oracle(a, p, np.random.default_rng(4)), values,
                          lambda f, t: f(t[0]), twice=0)
    assert saved == [] and [a.dtype for a in own] == [np.bool_]
