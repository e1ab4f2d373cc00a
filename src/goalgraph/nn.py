"""Parameter store, layers (MLP, graph attention), checkpointing, grad check."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, ShapeError
from .graph import EdgeSet

CKPT_HEADER = "goalgraph-ckpt v1"


class ParamStore:
    """Named parameter tensors with gradients and a seeded initializer."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        self.decay: dict[str, bool] = {}

    def create(self, name: str, shape, init: str = "affine", decay: bool = False) -> Tensor:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if init == "affine":
            fan_in, fan_out = shape[0], shape[1]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            value = self.rng.uniform(-bound, bound, size=shape)
        elif init == "zeros":
            value = np.zeros(shape)
        elif init == "ones":
            value = np.ones(shape)
        elif init == "embedding":
            value = self.rng.normal(0.0, 0.02, size=shape)
        else:
            raise ConfigError(f"unknown init {init!r}")
        t = Tensor(value)
        self.params[name] = t
        self.decay[name] = decay
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def names(self):
        return sorted(self.params)


def create_affine(ps: ParamStore, prefix: str, d_in: int, d_out: int):
    ps.create(f"{prefix}.W", (d_in, d_out), "affine", decay=True)
    ps.create(f"{prefix}.b", (d_out,), "zeros")


def affine(ps: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ad.affine(x, ps[f"{prefix}.W"], ps[f"{prefix}.b"])


def affine_leaky(ps: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ad.affine_leaky(x, ps[f"{prefix}.W"], ps[f"{prefix}.b"])


def create_mlp(ps: ParamStore, prefix: str, d_in: int, d_hidden: int, d_out: int):
    create_affine(ps, f"{prefix}.l0", d_in, d_hidden)
    create_affine(ps, f"{prefix}.l1", d_hidden, d_out)


def mlp(ps: ParamStore, prefix: str, x: Tensor) -> Tensor:
    """Affine -> LeakyReLU (one ad.affine_leaky op) -> affine."""
    return affine(ps, f"{prefix}.l1", affine_leaky(ps, f"{prefix}.l0", x))


def create_layer_norm(ps: ParamStore, prefix: str, d: int):
    ps.create(f"{prefix}.g", (d,), "ones")
    ps.create(f"{prefix}.b", (d,), "zeros")


def layer_norm(ps: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, ps[f"{prefix}.g"], ps[f"{prefix}.b"])


def create_graph_attention_layer(ps: ParamStore, prefix: str, d_h: int, ffn_hidden: int):
    for nm in ("q", "k", "v", "skip", "edge"):
        create_affine(ps, f"{prefix}.{nm}", d_h, d_h)
    create_layer_norm(ps, f"{prefix}.ln_src", d_h)
    create_layer_norm(ps, f"{prefix}.ln_dst", d_h)
    create_layer_norm(ps, f"{prefix}.ln_ffn", d_h)
    create_mlp(ps, f"{prefix}.ffn", d_h, ffn_hidden, d_h)


def graph_attention_layer(ps: ParamStore, prefix: str, src_feats: Tensor,
                          dst_feats: Tensor, edges: EdgeSet, edge_emb: Tensor,
                          heads: int, p_drop: float, rng) -> Tensor:
    """Transformer-style attention over graph edges, then a residual FFN.

    Per head: query from dst, key and value from src with the projected edge
    embedding added to both; attention softmax runs over each destination
    node's in-edges. Destinations without in-edges pass through the
    skip + FFN path unchanged by attention. edge_emb holds one row per
    distinct edge feature row, edges.row[i] being edge i's; each row is
    projected once and `ad.edge_attention` gathers it per edge.
    Dropout with rate p_drop runs when rng is not None.
    """
    d_h = dst_feats.shape[1]
    if d_h % heads:
        raise ShapeError(f"width {d_h} not divisible by {heads} heads")

    s = layer_norm(ps, f"{prefix}.ln_src", src_feats)
    d0 = layer_norm(ps, f"{prefix}.ln_dst", dst_feats)

    attn = affine(ps, f"{prefix}.skip", d0)
    if edges.count:
        msg = ad.edge_attention(affine(ps, f"{prefix}.q", d0), affine(ps, f"{prefix}.k", s),
                                affine(ps, f"{prefix}.v", s),
                                affine(ps, f"{prefix}.edge", edge_emb), edges.layout, heads)
        attn = ad.add(attn, msg)
    x1 = ad.add(dst_feats, ad.dropout(attn, p_drop, rng))

    h = layer_norm(ps, f"{prefix}.ln_ffn", x1)
    h = affine_leaky(ps, f"{prefix}.ffn.l0", h)
    h = affine(ps, f"{prefix}.ffn.l1", ad.dropout(h, p_drop, rng))
    return ad.add(x1, h)


# ---------------------------------------------------------------------------
# Checkpoint I/O: header line, JSON manifest line, little-endian float64 blobs.

def save_checkpoint(ps: ParamStore, path: str) -> None:
    names = ps.names()
    manifest = {"seed": ps.seed, "params": []}
    offset = 0
    for name in names:
        t = ps.params[name]
        manifest["params"].append({"name": name, "shape": list(t.shape),
                                   "offset": offset, "decay": ps.decay[name]})
        offset += t.value.size * 8
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write((CKPT_HEADER + "\n").encode())
        f.write((json.dumps(manifest, sort_keys=True) + "\n").encode())
        for name in names:
            f.write(np.ascontiguousarray(ps.params[name].value, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> ParamStore:
    """Raises DataError for a file that cannot be read or is not a whole
    checkpoint (bad header, unparsable manifest, truncated blobs)."""
    try:
        with open(path, "rb") as f:
            header = f.readline().decode().rstrip("\n")
            if header != CKPT_HEADER:
                raise DataError(f"{path}: bad checkpoint header {header[:40]!r}")
            manifest = json.loads(f.readline().decode())
            blob = f.read()
        ps = ParamStore(seed=manifest["seed"])
        for rec in manifest["params"]:
            size = int(np.prod(rec["shape"])) if rec["shape"] else 1
            arr = np.frombuffer(blob, dtype="<f8", count=size,
                                offset=rec["offset"]).reshape(rec["shape"]).copy()
            t = Tensor(arr)
            ps.params[rec["name"]] = t
            ps.decay[rec["name"]] = rec["decay"]
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e.strerror}") from e
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: truncated or malformed checkpoint: {e}") from e
    return ps


# ---------------------------------------------------------------------------
# Gradient checking

def grad_check(f, ps: ParamStore, h: float = 1e-5, tol: float = 1e-4,
               rel_floor: float = 1e-6, names=None):
    """Compare analytic gradients of scalar f(ps) against central differences.

    Coordinates whose perturbed forward passes cross a LeakyReLU kink are
    excluded. `names` restricts the check to a subset of parameters.
    Returns a report dict with per-parameter worst errors.

    Central differences resolve gradients only down to eps*|f|/h (rounding
    noise in f swamps anything smaller), so the relative-error denominator
    is floored at that noise level divided by tol: coordinates whose true
    gradient is indistinguishable from zero at FD precision pass rather
    than failing on pure float noise.
    """
    check_names = sorted(names) if names is not None else ps.names()
    ps.zero_grad()
    loss = f()
    loss.backward()
    fd_noise = 10.0 * np.finfo(float).eps * abs(float(loss.value)) / h
    rel_floor = max(rel_floor, fd_noise / tol)
    analytic = {n: (ps.params[n].grad.copy() if ps.params[n].grad is not None
                    else np.zeros_like(ps.params[n].value)) for n in check_names}

    checked = passed = excluded = 0
    worst = {}
    failures = []
    for name in check_names:
        t = ps.params[name]
        flat = t.value.ravel()
        ga = analytic[name].ravel()
        wmax = 0.0
        for j in range(flat.size):
            orig = flat[j]
            signs = []
            vals = []
            for delta in (h, -h):
                flat[j] = orig + delta
                ad.kink_monitor = monitor = []
                try:
                    with ad.no_grad():
                        vals.append(float(f().value))
                finally:
                    ad.kink_monitor = None
                signs.append(monitor)
            flat[j] = orig
            crossed = any((a != b).any() for a, b in zip(*signs))
            if crossed:
                excluded += 1
                continue
            fd = (vals[0] - vals[1]) / (2.0 * h)
            denom = max(rel_floor, abs(ga[j]), abs(fd))
            err = abs(ga[j] - fd) / denom
            checked += 1
            wmax = max(wmax, err)
            if err < tol:
                passed += 1
            else:
                failures.append((name, j, ga[j], fd, err))
        worst[name] = wmax
    return {"checked": checked, "passed": passed, "excluded": excluded,
            "pass_fraction": passed / checked if checked else 1.0,
            "worst": worst, "failures": failures}
