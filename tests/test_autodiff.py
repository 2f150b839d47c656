import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopestrike import autodiff as ad
from helpers import (finite_diff, max_rel_err, random_graph_cases, graph_gradients, eval_scalar,
                     _builders)


def test_add_elementwise():
    out = ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_maxpool_pairs():
    out = ad.maxpool1d(ad.constant([1.0, 3.0, 2.0, 5.0]), 2)
    assert np.array_equal(out.data, [3.0, 5.0])


def brute_conv1d(x, w, stride=1, dilation=1, causal=False):
    # direct convolution sum, one output point at a time
    k = len(w)
    pad = (k - 1) * dilation if causal else 0
    xp = np.concatenate([np.zeros(pad), x])
    span = (k - 1) * dilation + 1
    t_out = (len(xp) - span) // stride + 1
    out = np.zeros(t_out)
    for t in range(t_out):
        for j in range(k):
            out[t] += xp[t * stride + j * dilation] * w[j]
    return out


def test_conv1d_dilated_impulse_matches_brute_force():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    w = np.array([1.0, 2.0])
    got = ad.conv1d(ad.constant(x.reshape(1, 4)),
                    ad.constant(w.reshape(1, 1, 2)), dilation=2)
    expect = brute_conv1d(x, w, dilation=2, causal=True)
    assert got.data.shape == (1, 4)
    assert np.allclose(got.data[0], expect, atol=1e-15)
    # impulse at t=0: last tap responds first (causal), first tap after the
    # dilated offset
    assert expect[0] == w[1] and expect[2] == w[0] and expect[1] == expect[3] == 0.0


def test_backward_sum_of_squares():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    root = ad.tsum(ad.mul(x, x))
    ad.backward(root)
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_exp_closed_form():
    m = ad.Tensor(0.5, requires_grad=True)
    root = ad.texp(ad.mul(m, -2.0))
    ad.backward(root)
    assert abs(float(m.grad) - (-2.0 * math.exp(-1.0))) < 1e-12
    assert abs(float(m.grad) + 0.7357589) < 1e-6


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    w1, b1 = rng.normal(size=(6, 8)), rng.normal(size=(8,))
    w2, b2 = rng.normal(size=(8, 1)), rng.normal(size=(1,))

    def f(ts):
        h = ad.tanh(ad.affine(ts[0], ad.constant(w1), ad.constant(b1)))
        return ad.tsum(ad.affine(h, ad.constant(w2), ad.constant(b2)))

    x = rng.normal(size=(3, 6))
    analytic = graph_gradients(f, [x])[0]
    fd = finite_diff(lambda arrs: eval_scalar(f, arrs), [x.copy()])[0]
    assert max_rel_err(analytic, fd) < 1e-4


def test_hundred_random_graphs_finite_difference():
    worst = 0.0
    for f, arrays in random_graph_cases(100):
        analytic = graph_gradients(f, arrays)
        fd = finite_diff(lambda arrs: eval_scalar(f, arrs), [a.copy() for a in arrays])
        for a, b in zip(analytic, fd):
            worst = max(worst, max_rel_err(a, b))
    assert worst < 1e-4


def test_gradient_linearity():
    x0 = np.array([0.3, -1.2, 0.7, 2.0])

    def gf(scale_f, scale_g):
        x = ad.Tensor(x0.copy(), requires_grad=True)
        f = ad.tsum(ad.mul(x, x))
        g = ad.tsum(ad.texp(x))
        ad.backward(ad.add(ad.mul(f, scale_f), ad.mul(g, scale_g)))
        return x.grad

    a, b = 2.5, -0.75
    combined = gf(a, b)
    expected = a * gf(1.0, 0.0) + b * gf(0.0, 1.0)
    assert np.max(np.abs(combined - expected)) < 1e-10


def test_sign_contributes_exactly_zero_gradient():
    x = ad.Tensor([0.5, -2.0, 3.0], requires_grad=True)
    root = ad.add(ad.tsum(ad.mul(x, x)), ad.tsum(ad.mul(ad.sign(x), 7.0)))
    ad.backward(root)
    assert np.array_equal(x.grad, 2.0 * x.data)  # sign path added exactly 0


def test_clamp_gradient_zero_outside_pass_inside():
    x = ad.Tensor([-5.0, -1.0, 0.0, 1.0, 5.0], requires_grad=True)
    ad.backward(ad.tsum(ad.clamp(x, -1.0, 1.0)))
    # bounds count as inside
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_maxpool_routes_to_first_argmax_and_conserves_gradient():
    x = ad.Tensor([2.0, 2.0, 1.0, 0.0, 3.0, 3.0], requires_grad=True)
    out = ad.maxpool1d(x, 3)
    ad.backward(ad.tsum(ad.mul(out, ad.constant([5.0, 11.0]))))
    assert np.array_equal(x.grad, [5.0, 0.0, 0.0, 0.0, 11.0, 0.0])
    assert x.grad.sum() == 16.0


def test_double_backward_linear_critic_closed_form():
    # D(x) = w*x, gradient w.r.t. x is w, penalty (w-1)^2, d/dw = 2(w-1)
    w = ad.Tensor([[3.0]], requires_grad=True)
    x = ad.Tensor([[2.0]], requires_grad=True)
    root = ad.tsum(ad.matmul(x, w))

    def penalty(g):
        return ad.power(ad.add(ad.tsqrt(ad.tsum(ad.mul(g, g))), -1.0), 2.0)

    g = ad.gradient(root, x, create_graph=True)
    dw = ad.gradients(penalty(g), [w])[0]
    assert abs(dw.item() - 4.0) < 1e-12


def test_double_backward_tanh_matches_finite_differences():
    x_val, w_val = 0.5, 1.0

    def penalty_of(wv):
        w = ad.Tensor([[wv]], requires_grad=True)
        x = ad.Tensor([[x_val]], requires_grad=True)
        root = ad.tsum(ad.tanh(ad.matmul(x, w)))
        g = ad.gradient(root, x, create_graph=True)
        return ad.power(ad.add(ad.tsqrt(ad.tsum(ad.mul(g, g))), -1.0), 2.0), w

    pen, w = penalty_of(w_val)
    dw = ad.gradients(pen, [w])[0].item()
    h = 1e-5
    fd = (penalty_of(w_val + h)[0].item() - penalty_of(w_val - h)[0].item()) / (2 * h)
    assert max_rel_err([dw], [fd]) < 1e-4


def test_penalty_zero_at_unit_gradient_norm():
    w = ad.Tensor([[1.0]], requires_grad=True)
    x = ad.Tensor([[0.7]], requires_grad=True)
    root = ad.tsum(ad.matmul(x, w))

    def penalty(g):
        return ad.power(ad.add(ad.tsqrt(ad.tsum(ad.mul(g, g))), -1.0), 2.0)

    g = ad.gradient(root, x, create_graph=True)
    pen = penalty(g)
    assert pen.item() == 0.0
    dw = ad.gradients(pen, [w])[0]
    assert dw.item() == 0.0


def test_second_order_unsupported_op_is_reported():
    w = ad.Tensor([[2.0]], requires_grad=True)
    x = ad.Tensor([[1.5]], requires_grad=True)
    root = ad.tsum(ad.relu(ad.matmul(x, w)))
    with pytest.raises(ad.SecondOrderError, match="relu"):
        ad.gradient(root, x, create_graph=True)


def test_backward_twice_raises():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    root = ad.tsum(ad.mul(x, x))
    ad.backward(root)
    with pytest.raises(ad.GraphError):
        ad.backward(root)


def test_nonscalar_root_rejected():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.GraphError):
        ad.backward(ad.mul(x, x))


def test_shape_mismatch_names_operation():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.constant(np.ones((3, 4))), ad.constant(np.ones((5, 2))))
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))
    with pytest.raises(ad.ShapeError, match="slice"):
        ad.constant(np.ones(3))[[0, 0]]  # advanced indexing is not supported


def test_window_op_shape_errors_name_operation():
    with pytest.raises(ad.ShapeError, match="unfold"):
        ad.unfold(ad.constant(np.ones((4, 2))), 5)
    with pytest.raises(ad.ShapeError, match="fold"):
        ad.fold(ad.constant(np.ones((3, 2))), 5)  # 3 windows of 2 tile 4 days
    with pytest.raises(ad.ShapeError, match="unfold"):
        ad.unfold(ad.constant(np.ones((2, 4))), 5, 1)
    with pytest.raises(ad.ShapeError, match="fold"):
        ad.fold(ad.constant(np.ones((2, 3, 2))), 5, 1)


def test_log_and_div_domain_errors():
    with pytest.raises(ad.DomainError):
        ad.tlog(ad.constant([1.0, 0.0]))
    with pytest.raises(ad.DomainError):
        ad.div(ad.constant([1.0]), ad.constant([0.0]))


def test_no_grad_buffer_without_requires_grad():
    x = ad.Tensor([1.0, 2.0])
    y = ad.Tensor([3.0, 4.0], requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, y)))
    assert x.grad is None
    assert np.array_equal(y.grad, [1.0, 2.0])


def test_gradients_expose_interior_gradient():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    mid = ad.mul(x, 2.0)
    g_mid, g_x = ad.gradients(ad.tsum(ad.mul(mid, mid)), [mid, x])
    assert np.array_equal(g_mid.data, 2.0 * mid.data)
    assert np.array_equal(g_x.data, 4.0 * mid.data)
    assert mid.grad is None and x.grad is None


def test_gradients_equal_accumulated_backward_on_corpus():
    # every builder once; each leaf alone too, so constant-operand products are skipped
    for f, arrays in random_graph_cases(len(_builders())):
        accumulated = graph_gradients(f, arrays)
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
        asked = ad.gradients(f(ts), ts)
        for k, want in enumerate(accumulated):
            assert np.array_equal(asked[k].data, want)
            fresh = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
            assert np.array_equal(ad.gradient(f(fresh), fresh[k]).data, want)


def test_gradients_consume_the_graph():
    x = ad.Tensor([0.5, -1.0], requires_grad=True)
    root = ad.tsum(ad.tanh(ad.mul(x, x)))
    ad.gradient(root, x)
    assert root.node.freed and root.node.vjp is None
    with pytest.raises(ad.GraphError):
        ad.gradient(root, x)
    with pytest.raises(ad.GraphError):
        ad.backward(root)


def test_sgd_step_decays_matrices_and_leaves_biases_undecayed():
    w0, b0 = np.array([[1.0, -2.0], [0.5, 4.0]]), np.array([3.0, -1.0])
    params = {"w": ad.Tensor(w0.copy(), requires_grad=True),
              "b": ad.Tensor(b0.copy(), requires_grad=True)}
    loss = ad.tsum(ad.affine(ad.constant([[1.0, 2.0]]), params["w"], params["b"]))
    ad.sgd_step(params, loss, lr=0.1, weight_decay=0.5)
    # d loss / dw = x^T 1 and d loss / db = 1; only w is shrunk by 1 - lr * decay
    gw = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(params["w"].data, w0 * (1.0 - 0.1 * 0.5) - 0.1 * gw)
    assert np.array_equal(params["b"].data, b0 - 0.1 * np.ones(2))
    assert all(p.grad is None for p in params.values())


def test_trailing_broadcast_add_and_reduction():
    a = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ad.backward(ad.tsum(ad.add(a, b)))
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, [2.0, 2.0, 2.0])


def test_sort_last_routes_gradients_through_permutation():
    x = ad.Tensor([3.0, 1.0, 2.0], requires_grad=True)
    s = ad.sort_last(x)
    assert np.array_equal(s.data, [1.0, 2.0, 3.0])
    ad.backward(ad.tsum(ad.mul(s, ad.constant([10.0, 20.0, 30.0]))))
    assert np.array_equal(x.grad, [30.0, 10.0, 20.0])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8),
       st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_product_rule_property(xs, ys):
    n = min(len(xs), len(ys))
    a = ad.Tensor(np.array(xs[:n]), requires_grad=True)
    b = ad.Tensor(np.array(ys[:n]), requires_grad=True)
    ad.backward(ad.tsum(ad.mul(a, b)))
    assert np.allclose(a.grad, b.data, atol=1e-12)
    assert np.allclose(b.grad, a.data, atol=1e-12)


def test_distinct_graphs_on_distinct_threads():
    import threading

    results = {}

    def worker(name, scale):
        x = ad.Tensor(np.arange(1.0, 6.0), requires_grad=True)
        # interleave with the other thread: many small ops
        y = x
        for _ in range(50):
            y = ad.mul(y, scale)
        ad.backward(ad.tsum(y))
        results[name] = x.grad.copy()

    t1 = threading.Thread(target=worker, args=("a", 1.01))
    t2 = threading.Thread(target=worker, args=("b", 0.99))
    t1.start(); t2.start(); t1.join(); t2.join()
    assert np.allclose(results["a"], 1.01 ** 50, rtol=1e-12)
    assert np.allclose(results["b"], 0.99 ** 50, rtol=1e-12)
