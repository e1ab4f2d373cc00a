import numpy as np
import pytest

import goalgraph.autodiff as ad
import goalgraph.nn as nn
from conftest import unfused_edge_attention
from goalgraph.autodiff import Tensor
from goalgraph.graph import EdgeSet
from goalgraph.nn import ParamStore


def make_edges(src, dst, E=None):
    src = np.asarray(src)
    dst = np.asarray(dst)
    return EdgeSet(src, dst, np.zeros((len(src), 6)), None)


def test_param_store_unique_names():
    ps = ParamStore(seed=0)
    ps.create("w", (2, 2))
    with pytest.raises(Exception):
        ps.create("w", (2, 2))


def test_param_store_init_families():
    ps = ParamStore(seed=0)
    w = ps.create("a.W", (50, 60), init="affine", decay=True)
    b = ps.create("a.b", (60,), init="zeros")
    g = ps.create("n.g", (8,), init="ones")
    e = ps.create("t.tab", (5, 16), init="embedding")
    bound = np.sqrt(6.0 / 110)
    assert np.abs(w.value).max() <= bound
    assert np.all(b.value == 0) and np.all(g.value == 1)
    assert abs(e.value.std() - 0.02) < 0.01
    assert ps.decay["a.W"] and not ps.decay.get("a.b", False)


def test_param_store_seeded_determinism():
    v1 = ParamStore(seed=7).create("w", (4, 4)).value
    v2 = ParamStore(seed=7).create("w", (4, 4)).value
    assert np.array_equal(v1, v2)


def test_mlp_zero_weights_zero_output():
    ps = ParamStore(seed=0)
    nn.create_mlp(ps, "m", [4, 8, 2])
    for name in ps.names():
        ps.params[name].value[:] = 0.0
    out = nn.mlp(ps, "m", Tensor(np.random.default_rng(0).standard_normal((3, 4))), 2)
    assert np.all(out.value == 0)


def test_affine_identity():
    ps = ParamStore(seed=0)
    nn.create_affine(ps, "a", 3, 3)
    ps["a.W"].value[:] = np.eye(3)
    ps["a.b"].value[:] = 0.0
    x = np.random.default_rng(1).standard_normal((5, 3))
    assert np.allclose(nn.affine(ps, "a", Tensor(x)).value, x)


def test_mlp_matches_matrix_oracle():
    ps = ParamStore(seed=3)
    nn.create_mlp(ps, "m", [4, 8, 2])
    x = np.random.default_rng(2).standard_normal((6, 4))
    out = nn.mlp(ps, "m", Tensor(x), 2).value
    h = x @ ps["m.l0.W"].value + ps["m.l0.b"].value
    h = np.where(h > 0, h, 0.01 * h)
    oracle = h @ ps["m.l1.W"].value + ps["m.l1.b"].value
    assert np.allclose(out, oracle, atol=1e-12)


def gal(ps, src, dst, edges, fe, heads=2):
    return nn.graph_attention_layer(ps, "g", src, dst, edges.src, edges.dst,
                                    fe, heads=heads, p_drop=0.0)


def _gal_setup(seed=0, d_h=8, heads=2, n_src=3, n_dst=2):
    ps = ParamStore(seed=seed)
    nn.create_graph_attention_layer(ps, "g", d_h, ffn_hidden=16)
    r = np.random.default_rng(seed + 10)
    src = Tensor(r.standard_normal((n_src, d_h)))
    dst = Tensor(r.standard_normal((n_dst, d_h)))
    fe = Tensor(r.standard_normal((4, d_h)))
    edges = make_edges([0, 1, 2, 0], [0, 0, 1, 1])
    return ps, src, dst, fe, edges


def test_gal_output_shape_and_finite():
    ps, src, dst, fe, edges = _gal_setup()
    out = gal(ps, src, dst, edges, fe)
    assert out.value.shape == dst.value.shape
    assert np.isfinite(out.value).all()


def test_gal_matches_dense_oracle():
    """Straight-line dense recomputation of the attention layer."""
    d_h, heads = 8, 2
    dd = d_h // heads
    ps, src, dst, fe, edges = _gal_setup(d_h=d_h, heads=heads)
    out = gal(ps, src, dst, edges, fe, heads=heads).value

    def ln(x, prefix):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        xn = (x - mu) / np.sqrt(var + 1e-5)
        return xn * ps[prefix + ".g"].value + ps[prefix + ".b"].value

    def aff(x, prefix):
        return x @ ps[prefix + ".W"].value + ps[prefix + ".b"].value

    s_n = ln(src.value, "g.ln_src")
    d_n = ln(dst.value, "g.ln_dst")
    q = aff(d_n, "g.q")
    e_proj = aff(fe.value, "g.edge")  # one row per edge
    k = aff(s_n, "g.k")[edges.src] + e_proj
    v = aff(s_n, "g.v")[edges.src] + e_proj
    att_out = np.zeros_like(d_n)
    for i in range(len(d_n)):
        eidx = [j for j, d in enumerate(edges.dst) if d == i]
        if not eidx:
            continue
        for h in range(heads):
            sl = slice(h * dd, (h + 1) * dd)
            logits = np.array([q[i, sl] @ k[j, sl] for j in eidx]) / np.sqrt(dd)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            att_out[i, sl] = sum(wj * v[j, sl] for wj, j in zip(w, eidx))
    x = dst.value + aff(d_n, "g.skip") + att_out
    xn = ln(x, "g.ln_ffn")
    h1 = aff(xn, "g.ffn.l0")
    h1 = np.where(h1 > 0, h1, 0.01 * h1)
    oracle = x + aff(h1, "g.ffn.l1")
    assert np.allclose(out, oracle, atol=1e-9)


def test_gal_edge_rows_match_per_edge_embeddings():
    """With edge_row, each edge embedding row is projected once and gathered
    per edge: the output of one embedding row per edge, and the same gradient."""
    ps, src, dst, fe, edges = _gal_setup()
    rows = np.array([1, 0, 1, 3])
    outs, grads = [], []
    for shared in (True, False):
        fe.grad = None
        out = (nn.graph_attention_layer(ps, "g", src, dst, edges.src, edges.dst, fe, heads=2,
                                        edge_row=rows) if shared
               else gal(ps, src, dst, edges, ad.gather_rows(fe, rows)))
        ad.sum_all(ad.mul(out, out)).backward()
        outs.append(out.value)
        grads.append(fe.grad.copy())
    assert np.array_equal(outs[0], outs[1])
    assert np.allclose(grads[0], grads[1], rtol=1e-12, atol=0.0)
    assert not grads[0][2].any()  # row 2 feeds no edge


@pytest.mark.parametrize("heads", [1, 2, 8])
def test_gal_matches_unfused_attention(monkeypatch, heads):
    """The layer with the fused edge-attention op equals the layer with its
    unfused composition bit for bit: the output with grad on and under
    no_grad, and every parameter and input gradient."""
    results = []
    for op in (ad.edge_attention, unfused_edge_attention):
        monkeypatch.setattr(ad, "edge_attention", op)
        ps, src, dst, fe, edges = _gal_setup(n_src=4, n_dst=3)
        edges = make_edges([3, 0, 2, 0, 3, 1], [2, 0, 2, 2, 0, 2])  # dst 1 has no in-edges
        row = np.array([1, 0, 1, 3, 0, 1])  # row 2 feeds no edge

        def layer():
            return nn.graph_attention_layer(ps, "g", src, dst, edges.src, edges.dst, fe,
                                            heads=heads, edge_row=row)
        with ad.no_grad():
            plain = layer().value
        out = layer()
        ad.sum_all(ad.mul(out, out)).backward()
        results.append([plain, out.value, src.grad, dst.grad, fe.grad]
                       + [ps[n].grad for n in ps.names()])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_gal_singleton_edge_weight_one():
    # one in-edge: attention output equals that edge's value row
    ps, src, dst, fe, _ = _gal_setup()
    e1 = make_edges([2], [0])
    e2 = make_edges([2, 2], [0, 0])  # two identical edges, weights 0.5/0.5
    o1 = gal(ps, src, dst, e1, ad.gather_rows(fe, [0]))
    o2 = gal(ps, src, dst, e2, ad.gather_rows(fe, [0, 0]))
    assert np.allclose(o1.value, o2.value, atol=1e-12)


def test_gal_zero_in_edges_skip_path():
    ps, src, dst, fe, edges = _gal_setup()
    only_node0 = make_edges([0, 1], [0, 0])
    out = gal(ps, src, dst, only_node0, ad.gather_rows(fe, [0, 1]))
    empty = make_edges([], [])
    out_empty = gal(ps, src, dst, empty, Tensor(np.zeros((0, 8))))
    # node 1 has no in-edges in either graph -> identical skip+FFN result
    assert np.allclose(out.value[1], out_empty.value[1], atol=1e-12)


def test_gal_edge_permutation_equivariance():
    ps, src, dst, fe, edges = _gal_setup()
    out0 = gal(ps, src, dst, edges, fe).value
    perm = np.array([3, 1, 0, 2])
    edges_p = EdgeSet(edges.src[perm], edges.dst[perm],
                      edges.feat[perm], None)
    out1 = gal(ps, src, dst, edges_p, ad.gather_rows(fe, perm)).value
    assert np.allclose(out0, out1, atol=1e-12)


def test_gal_gradients_flow():
    ps, src, dst, fe, edges = _gal_setup()
    out = gal(ps, src, dst, edges, fe)
    ad.sum_all(ad.mul(out, out)).backward()
    assert all(ps.params[n].grad is not None for n in ps.names())


def test_checkpoint_roundtrip(tmp_path):
    ps = ParamStore(seed=4)
    nn.create_mlp(ps, "m", [4, 8, 2])
    nn.create_layer_norm(ps, "n", 8)
    path = str(tmp_path / "x.ckpt")
    nn.save_checkpoint(ps, path)
    ps2 = nn.load_checkpoint(path)
    assert ps2.names() == ps.names()
    assert ps2.seed == ps.seed
    for n in ps.names():
        assert np.array_equal(ps2[n].value, ps[n].value)
        assert ps2.decay.get(n, False) == ps.decay.get(n, False)


def test_checkpoint_header(tmp_path):
    ps = ParamStore(seed=0)
    ps.create("w", (2, 2))
    path = str(tmp_path / "x.ckpt")
    nn.save_checkpoint(ps, path)
    with open(path, "rb") as f:
        assert f.readline() == b"goalgraph-ckpt v1\n"


def test_grad_check_linear_exact():
    ps = ParamStore(seed=1)
    w = ps.create("w", (3, 2))
    x = np.random.default_rng(0).standard_normal((4, 3))

    def f():
        return ad.sum_all(ad.matmul(Tensor(x), ps["w"]))

    rep = nn.grad_check(f, ps, h=1e-5, tol=1e-10)
    assert rep["pass_fraction"] == 1.0


def test_grad_check_quadratic():
    ps = ParamStore(seed=2)
    ps.create("w", (2, 2))

    def f():
        return ad.sum_all(ad.mul(ps["w"], ps["w"]))

    rep = nn.grad_check(f, ps, h=1e-5, tol=1e-7)
    assert rep["pass_fraction"] == 1.0


def test_grad_check_excludes_kinks():
    ps = ParamStore(seed=3)
    w = ps.create("w", (1, 4))
    w.value[:] = [[0.5, -0.5, 1e-9, 2.0]]  # third coordinate sits on the kink

    def f():
        return ad.sum_all(ad.leaky_relu(ps["w"]))

    rep = nn.grad_check(f, ps, h=1e-5, tol=1e-6)
    assert rep["excluded"] >= 1
    assert rep["passed"] == rep["checked"]


def test_grad_check_restores_kink_monitor_when_f_raises():
    ps = ParamStore(seed=3)
    ps.create("w", (1, 2))
    calls = []

    def f():
        calls.append(1)
        if len(calls) > 1:  # the first perturbed pass fails
            raise FloatingPointError("diverged")
        return ad.sum_all(ad.leaky_relu(ps["w"]))

    with pytest.raises(FloatingPointError):
        nn.grad_check(f, ps)
    assert ad.kink_monitor is None


def test_grad_check_scoring_head():
    """Small scoring-style head: concat + MLP + grouped softmax + focal-ish loss."""
    d = 6
    ps = ParamStore(seed=5)
    nn.create_mlp(ps, "m", [3 * d, d, d])
    nn.create_affine(ps, "o", d, 1)
    r = np.random.default_rng(8)
    fi, fj, fe = (r.standard_normal((5, d)) for _ in range(3))
    groups = np.array([0, 0, 0, 1, 1])

    def f():
        h = nn.mlp(ps, "m", ad.concat([Tensor(fi), Tensor(fj), Tensor(fe)], axis=1), 2)
        logit = nn.affine(ps, "o", h)
        s = ad.softmax_grouped(ad.reshape(logit, (5,)), groups)
        p_t = ad.gather_rows(ad.reshape(s, (5, 1)), np.array([0, 3]))
        return ad.sum_all(ad.scalar_mul(ad.log(p_t), -1.0))

    rep = nn.grad_check(f, ps, h=1e-5, tol=1e-4)
    assert rep["pass_fraction"] >= 0.99
