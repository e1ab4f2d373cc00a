"""Tour of the reverse-mode autodiff engine.

Everything the model trains with runs on this tape. Each op's output is a
Tensor that holds its value and a link to a grad node; the grad node holds the
parents' grad nodes and a backward closure that saves only the arrays it
reads. So an intermediate that no backward reads dies with its Tensor.
`backward()` walks the grad nodes in reverse topological order and releases
each one once its closure has run (one backward per forward), and `no_grad()`
flips every op onto a bookkeeping-free fast path for inference. At the end we
cross-check an analytic gradient against central finite differences, which is
the same machinery the test suite uses on every parameter coordinate of a full
model.
"""

import weakref

import numpy as np

import goalgraph.autodiff as ad
from goalgraph import nn
from goalgraph.errors import StructuralError


def main():
    # 1. scalar chain rule by hand
    x = ad.Tensor(np.array([2.0]))
    y = ad.mul(x, x)            # x^2
    z = ad.add(y, ad.scalar_mul(x, 3.0))     # x^2 + 3x
    loss = ad.sum_all(z)
    loss.backward()
    print(f"d/dx (x^2 + 3x) at x=2: analytic {float(x.grad[0])}, expected {2 * 2 + 3}")

    # 2. scalar_mul's backward reads no value, so y's value dies with y; its
    #    grad node stays on the tape until backward has run it. backward
    #    consumes the tape: the leaf keeps its grad, and a second backward is
    #    an error
    y = ad.mul(x, x)
    value_ref, node_ref = weakref.ref(y.value), weakref.ref(y.node)
    loss = ad.sum_all(ad.scalar_mul(y, 3.0))
    del y
    print(f"before backward: value freed={value_ref() is None}, "
          f"grad node freed={node_ref() is None}")
    x.grad = None
    loss.backward()
    print(f"after backward: grad node freed={node_ref() is None}, loss={float(loss.value)}, "
          f"x.grad={float(x.grad[0])}")
    try:
        loss.backward()
    except StructuralError as e:
        print(f"second backward: StructuralError: {e}")

    # 3. the same ops under no_grad: a grad node without parents or backward
    with ad.no_grad():
        q = ad.mul(x, x)
    print(f"under no_grad: parents={q.node._parents}, backward={q.node._backward}")

    # 4. a small MLP checked coordinate-by-coordinate against finite differences
    ps = nn.ParamStore(seed=0)
    nn.create_mlp(ps, "demo", 4, 8, 1)
    x_in = np.random.default_rng(1).normal(size=(5, 4))

    def f():
        out = nn.mlp(ps, "demo", ad.Tensor(x_in))
        return ad.sum_all(ad.mul(out, out))

    rep = nn.grad_check(f, ps, h=1e-5, tol=1e-4)
    print(f"grad check: {rep['passed']}/{rep['checked']} coordinates within 1e-4, "
          f"worst relative error {max(rep['worst'].values()):.2e}, "
          f"{rep['excluded']} excluded at activation kinks")


if __name__ == "__main__":
    main()
