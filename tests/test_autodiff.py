import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopestrike import autodiff as ad
from graph_ops import channel_bias, conv1d, div, fold, maxpool1d, sort_last, unfold
from helpers import (finite_diff, max_rel_err, random_graph_cases, graph_gradients, eval_scalar,
                     _builders)


def test_add_elementwise():
    out = ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_maxpool_pairs():
    out = maxpool1d(ad.constant([1.0, 3.0, 2.0, 5.0]), 2)
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
    got = conv1d(ad.constant(x.reshape(1, 1, 4)),
                 ad.constant(w.reshape(1, 1, 2)), dilation=2)
    expect = brute_conv1d(x, w, dilation=2, causal=True)
    assert got.data.shape == (1, 1, 4)
    assert np.allclose(got.data[0, 0], expect, atol=1e-15)
    # impulse at t=0: last tap responds first (causal), first tap after the
    # dilated offset
    assert expect[0] == w[1] and expect[2] == w[0] and expect[1] == expect[3] == 0.0


def _per_tap_conv(h, w, b, taps):
    # the causal conv as one GEMM over all rows per tap
    n = h.shape[0]
    wt = np.ascontiguousarray(w.transpose(2, 1, 0))
    z = np.zeros((n, w.shape[0]))
    for k, s in taps:
        z[s:] += h[:n - s] @ wt[k]
    return z + b


def _per_tap_conv_grads(gz, h, w, taps):
    # the gradients of w and h, one GEMM over all rows per tap
    n = h.shape[0]
    gw, gh = np.zeros(w.shape), np.zeros(h.shape)
    wk = np.ascontiguousarray(w.transpose(2, 0, 1))
    for k, s in taps:
        gw[:, :, k] = gz[s:].T @ h[:n - s]
        gh[:n - s] += gz[s:] @ wk[k]
    return gw, gh


# (C_in, C_out, K, dilation): the generator's four layers and 1x1 head, then
# the discriminator's three blocks
_CONV_LAYERS = [(2, 64, 3, 1), (64, 128, 5, 2), (128, 64, 5, 4), (64, 32, 3, 8), (32, 1, 1, 1),
                (1, 16, 5, 1), (16, 32, 5, 1), (32, 16, 5, 1)]


@pytest.mark.parametrize("layer", _CONV_LAYERS)
def test_causal_conv_row_blocks_equal_one_product_per_tap(layer):
    # row counts around the block edges (513 leaves a one-row remainder); with
    # B = 64 the dilated taps shift by a whole block or more
    cin, cout, K, d = layer
    rng = np.random.default_rng(cin * 1000 + cout)
    w, b = rng.uniform(-0.5, 0.5, (cout, cin, K)), rng.normal(size=cout)
    first = cin in (1, 2)  # callers ask no input gradient of a first layer
    for n in (1, ad.CONV_ROWS - 1, ad.CONV_ROWS, ad.CONV_ROWS + 1, 3 * ad.CONV_ROWS + 7):
        for B in (1, 32, 64):
            taps = [(k, s) for k, s in ad.tap_shifts(K, d, B, -(-n // B)) if s < n]
            h, gz = rng.normal(size=(n, cin)), rng.normal(size=(n, cout))
            assert np.array_equal(ad.causal_conv(h, w, b, taps), _per_tap_conv(h, w, b, taps))
            gw, gb, gh = ad.causal_conv_vjp(gz, h, w, taps, (True, True, not first))
            want_gw, want_gh = _per_tap_conv_grads(gz, h, w, taps)
            assert np.array_equal(gw, want_gw) and np.array_equal(gb, gz.sum(axis=0))
            assert gh is None if first else np.array_equal(gh, want_gh)


def test_backward_sum_of_squares():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    root = ad.tsum(ad.mul(x, x))
    assert np.array_equal(ad.gradient(root, x).data, [2.0, 4.0, 6.0])


def test_backward_exp_closed_form():
    m = ad.Tensor(0.5, requires_grad=True)
    root = ad.texp(ad.mul(m, -2.0))
    gm = ad.gradient(root, m).item()
    assert abs(gm - (-2.0 * math.exp(-1.0))) < 1e-12
    assert abs(gm + 0.7357589) < 1e-6


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
        return ad.gradient(ad.add(ad.mul(f, scale_f), ad.mul(g, scale_g)), x).data

    a, b = 2.5, -0.75
    combined = gf(a, b)
    expected = a * gf(1.0, 0.0) + b * gf(0.0, 1.0)
    assert np.max(np.abs(combined - expected)) < 1e-10


def test_clamp_gradient_zero_outside_pass_inside():
    x = ad.Tensor([-5.0, -1.0, 0.0, 1.0, 5.0], requires_grad=True)
    gx = ad.gradient(ad.tsum(ad.clamp(x, -1.0, 1.0)), x).data
    # bounds count as inside
    assert np.array_equal(gx, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_maxpool_routes_to_first_argmax_and_conserves_gradient():
    x = ad.Tensor([2.0, 2.0, 1.0, 0.0, 3.0, 3.0], requires_grad=True)
    out = maxpool1d(x, 3)
    gx = ad.gradient(ad.tsum(ad.mul(out, ad.constant([5.0, 11.0]))), x).data
    assert np.array_equal(gx, [5.0, 0.0, 0.0, 0.0, 11.0, 0.0])
    assert gx.sum() == 16.0


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
    ad.gradient(root, x)
    with pytest.raises(ad.GraphError):
        ad.gradient(root, x)


def test_nonscalar_root_rejected():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.GraphError):
        ad.gradient(ad.mul(x, x), x)


def test_shape_mismatch_names_operation():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.constant(np.ones((3, 4))), ad.constant(np.ones((5, 2))))
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))
    with pytest.raises(ad.ShapeError, match="slice"):
        ad.constant(np.ones(3))[[0, 0]]  # advanced indexing is not supported
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.constant(np.ones(4)), ad.constant(np.ones((4, 2))))  # 1-D operands
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.constant(np.ones((3, 4))), ad.constant(np.ones(4)))
    with pytest.raises(ad.ShapeError, match="channel_bias"):
        channel_bias(ad.constant(np.ones((2, 5))), ad.constant(np.ones(2)))  # (C, T)


def test_scalar_operand_gets_the_summed_gradient():
    x0 = np.arange(1.0, 7.0).reshape(2, 3)
    for op, want_s, want_x in [(ad.mul, x0.sum(), np.full((2, 3), 1.5)),
                               (ad.add, 6.0, np.ones((2, 3)))]:
        x = ad.Tensor(x0.copy(), requires_grad=True)
        s = ad.Tensor(1.5, requires_grad=True)
        gs, gx = ad.gradients(ad.tsum(op(x, s)), [s, x])
        assert gs.shape == () and gs.item() == want_s
        assert np.array_equal(gx.data, want_x)
        gs2, = ad.gradients(ad.tsum(op(s, x)), [s])  # the scalar on either side
        assert gs2.shape == () and gs2.item() == want_s


def test_window_op_shape_errors_name_operation():
    with pytest.raises(ad.ShapeError, match="unfold"):
        unfold(ad.constant(np.ones((4, 2))), 5)
    with pytest.raises(ad.ShapeError, match="fold"):
        fold(ad.constant(np.ones((3, 2))), 5)  # 3 windows of 2 tile 4 days
    with pytest.raises(ad.ShapeError, match="unfold"):
        unfold(ad.constant(np.ones((2, 4))), 5, 1)
    with pytest.raises(ad.ShapeError, match="fold"):
        fold(ad.constant(np.ones((2, 3, 2))), 5, 1)


@pytest.mark.parametrize("shape, size, axis", [((30, 4), 7, 0), ((3, 30, 4), 7, 1)])
def test_unfold_returns_a_read_only_view_of_its_input(shape, size, axis):
    x = np.random.default_rng(0).normal(size=shape)
    w = unfold(ad.constant(x), size, axis).data
    assert np.shares_memory(w, x) and not w.flags.writeable
    copies = np.stack([np.take(x, range(i, i + size), axis=axis)
                       for i in range(shape[axis] - size + 1)], axis=axis)
    assert np.array_equal(w, copies)


def test_log_and_div_domain_errors():
    with pytest.raises(ad.DomainError):
        ad.tlog(ad.constant([1.0, 0.0]))
    with pytest.raises(ad.DomainError):
        div(ad.constant([1.0]), ad.constant([0.0]))


def test_no_grad_buffer_without_requires_grad():
    x = ad.Tensor([1.0, 2.0])
    y = ad.Tensor([3.0, 4.0], requires_grad=True)
    gy = ad.gradient(ad.tsum(ad.mul(x, y)), y)
    assert np.array_equal(gy.data, [1.0, 2.0])
    assert not hasattr(x, "grad") and not hasattr(y, "grad")


def test_gradients_expose_interior_gradient():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    mid = ad.mul(x, 2.0)
    g_mid, g_x = ad.gradients(ad.tsum(ad.mul(mid, mid)), [mid, x])
    assert np.array_equal(g_mid.data, 2.0 * mid.data)
    assert np.array_equal(g_x.data, 4.0 * mid.data)


def test_gradients_equal_accumulated_backward_on_corpus():
    # every builder once: all inputs asked together, then each input alone, so
    # the products that reach only the other inputs are skipped
    for f, arrays in random_graph_cases(len(_builders())):
        together = graph_gradients(f, arrays)
        for k, want in enumerate(together):
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
        ad.gradients(root, [])


def test_sgd_step_decays_matrices_and_leaves_biases_undecayed():
    w0, b0 = np.array([[1.0, -2.0], [0.5, 4.0]]), np.array([3.0, -1.0])
    params = {"w": ad.Tensor(w0.copy(), requires_grad=True),
              "b": ad.Tensor(b0.copy(), requires_grad=True)}
    loss = ad.tsum(ad.affine(ad.constant([[1.0, 2.0]]), params["w"], params["b"]))
    arrays = {k: p.data for k, p in params.items()}
    ad.sgd_step(params, loss, lr=0.1, weight_decay=0.5)
    # d loss / dw = x^T 1 and d loss / db = 1; only w is shrunk by 1 - lr * decay
    gw = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(params["w"].data, w0 * (1.0 - 0.1 * 0.5) - 0.1 * gw)
    assert np.array_equal(params["b"].data, b0 - 0.1 * np.ones(2))
    # updated in place: each parameter keeps its array
    assert all(params[k].data is a for k, a in arrays.items())


def test_trailing_broadcast_add_and_reduction():
    a = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ga, gb = ad.gradients(ad.tsum(ad.add(a, b)), [a, b])
    assert np.array_equal(ga.data, np.ones((2, 3)))
    assert np.array_equal(gb.data, [2.0, 2.0, 2.0])


def test_sort_last_routes_gradients_through_permutation():
    x = ad.Tensor([3.0, 1.0, 2.0], requires_grad=True)
    s = sort_last(x)
    assert np.array_equal(s.data, [1.0, 2.0, 3.0])
    gx = ad.gradient(ad.tsum(ad.mul(s, ad.constant([10.0, 20.0, 30.0]))), x)
    assert np.array_equal(gx.data, [30.0, 10.0, 20.0])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8),
       st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_product_rule_property(xs, ys):
    n = min(len(xs), len(ys))
    a = ad.Tensor(np.array(xs[:n]), requires_grad=True)
    b = ad.Tensor(np.array(ys[:n]), requires_grad=True)
    ga, gb = ad.gradients(ad.tsum(ad.mul(a, b)), [a, b])
    assert np.allclose(ga.data, b.data, atol=1e-12)
    assert np.allclose(gb.data, a.data, atol=1e-12)


def test_distinct_graphs_on_distinct_threads():
    import threading

    results = {}

    def worker(name, scale):
        x = ad.Tensor(np.arange(1.0, 6.0), requires_grad=True)
        # interleave with the other thread: many small ops
        y = x
        for _ in range(50):
            y = ad.mul(y, scale)
        results[name] = ad.gradient(ad.tsum(y), x).data

    t1 = threading.Thread(target=worker, args=("a", 1.01))
    t2 = threading.Thread(target=worker, args=("b", 0.99))
    t1.start(); t2.start(); t1.join(); t2.join()
    assert np.allclose(results["a"], 1.01 ** 50, rtol=1e-12)
    assert np.allclose(results["b"], 0.99 ** 50, rtol=1e-12)
