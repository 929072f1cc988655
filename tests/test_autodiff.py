"""Engine-level checks: every primitive's gradient against central
differences, hand-verified values of the fused ops, broadcasting
reductions, graph traversal, the FLOP trace book-keeping the analytic
cost model is later validated against, and the grad_check utility itself
(it must both accept correct gradients and reject wrong ones)."""

import tracemalloc

import numpy as np
import pytest

from mixformer import autodiff as ad
from mixformer.errors import GraphReleasedError, MixformerError


def numeric_grad(fn, args, wrt, u, step=1e-6):
    """d<u, fn(args)>/d args[wrt] by central differences."""
    x = args[wrt]
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for c in range(flat.size):
        orig = flat[c]
        flat[c] = orig + step
        plus = float((u * fn(*args)).sum())
        flat[c] = orig - step
        minus = float((u * fn(*args)).sum())
        flat[c] = orig
        gf[c] = (plus - minus) / (2 * step)
    return g


def check_op(tensor_fn, arrays, rtol=1e-6):
    """Backward of <u, f(x...)> must match numeric J^T u for each input."""
    rng = np.random.default_rng(0)
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = tensor_fn(*leaves)
    u = rng.standard_normal(out.data.shape)
    out.backward(u)

    def np_fn(*args):
        with ad.no_grad():
            return tensor_fn(*[ad.Tensor(a) for a in args]).data

    for i, leaf in enumerate(leaves):
        num = numeric_grad(np_fn, [a.copy() for a in arrays], i, u)
        ana = leaf.grad
        assert ana is not None, f"input {i} got no gradient"
        np.testing.assert_allclose(ana, num, rtol=rtol, atol=1e-7)


RNG = np.random.default_rng(42)


class TestGradients:
    def test_add_broadcast(self):
        check_op(ad.add, [RNG.standard_normal((3, 4)), RNG.standard_normal((4,))])

    def test_mul_broadcast(self):
        check_op(ad.mul, [RNG.standard_normal((2, 3, 4)), RNG.standard_normal((3, 1))])

    def test_matmul_2d(self):
        check_op(ad.matmul, [RNG.standard_normal((3, 4)), RNG.standard_normal((4, 2))])

    def test_matmul_batched_broadcast(self):
        # stacked weights against a broadcast right operand
        check_op(
            ad.matmul,
            [RNG.standard_normal((5, 3, 4)), RNG.standard_normal((4, 2))],
        )
        check_op(
            ad.matmul,
            [RNG.standard_normal((2, 1, 3, 4)), RNG.standard_normal((1, 6, 4, 2))],
        )

    def test_matmul_one_row(self):
        # one row per head: (1, n, c) against (n, o, c)
        check_op(ad.head_matmul, [RNG.standard_normal((1, 2, 4)), RNG.standard_normal((2, 3, 4))])

    @pytest.mark.parametrize(
        "shapes",
        [
            ((2, 3, 1, 4), (3, 5, 4)),  # one x head for every task (task_logits)
            ((2, 3, 4, 4), (1, 5, 4)),  # one weight stack for every head (shared_of_ffn)
            ((2, 3, 4, 6), (2, 4, 5, 6)),  # a lead axis: each request's keys
        ],
        ids=["x_one_head", "w_one_head", "keys_lead"],
    )
    def test_head_matmul(self, shapes):
        arrays = [RNG.standard_normal(s) for s in shapes]
        check_op(ad.head_matmul, arrays)
        assert ad.grad_check(ad.head_matmul, arrays).passed

    def test_reshape_swapaxes(self):
        check_op(lambda x: ad.reshape(x, (3, 8)), [RNG.standard_normal((3, 2, 4))])
        check_op(lambda x: ad.swapaxes(x, 0, 2), [RNG.standard_normal((2, 3, 4))])

    def test_broadcast_to(self):
        check_op(
            lambda x: ad.broadcast_to(x, (5, 3, 4)), [RNG.standard_normal((1, 3, 4))]
        )

    def test_concat(self):
        check_op(
            lambda a, b: ad.concat([a, b], axis=1),
            [RNG.standard_normal((2, 3)), RNG.standard_normal((2, 5))],
        )

    def test_getitem(self):
        check_op(lambda x: ad.getitem(x, (slice(1, 3),)), [RNG.standard_normal((4, 3))])

    def test_sum_mean(self):
        check_op(lambda x: ad.sum_(x, axis=1), [RNG.standard_normal((3, 4))])
        check_op(
            lambda x: ad.mean(x, axis=0, keepdims=True), [RNG.standard_normal((3, 4))]
        )
        check_op(ad.mean, [RNG.standard_normal((2, 3))])

    def test_sigmoid_swish(self):
        check_op(ad.swish, [RNG.standard_normal((3, 4)) * 3])

    def test_softmax(self):
        check_op(ad.softmax, [RNG.standard_normal((2, 5)) * 4])

    def test_rms_norm(self):
        check_op(
            lambda x, s: ad.rms_norm(x, s, 1e-6),
            [RNG.standard_normal((3, 5)), RNG.standard_normal(5)],
            rtol=1e-5,
        )

    def test_layer_norm(self):
        check_op(
            lambda x, s: ad.layer_norm(x, s, 1e-6),
            [RNG.standard_normal((3, 5)), RNG.standard_normal(5)],
            rtol=1e-5,
        )

    def test_bce_with_logits(self):
        y = RNG.integers(0, 2, (4, 2)).astype(np.float64)
        check_op(
            lambda z: ad.bce_with_logits(z, y), [RNG.standard_normal((4, 2)) * 3]
        )

    def test_embedding_scatter_add(self):
        # repeated ids must accumulate, which np.add.at guarantees
        table = ad.Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        ids = np.array([1, 1, 4])
        out = ad.embedding(table, ids)
        out.backward(np.ones((3, 3)))
        expected = np.zeros((5, 3))
        expected[1] = 2.0
        expected[4] = 1.0
        np.testing.assert_array_equal(table.grad, expected)


# (a, b) shapes of the broadcast patterns the model multiplies
FOLD_PATTERNS = {
    "head_stack": ((4, 5, 3), (2, 3, 4, 3, 1)),  # (n, h, d) @ (B, K, n, d, 1)
    "shared_stack": ((1, 5, 3), (2, 3, 4, 3, 1)),  # one (h, d) for every head
    "flat_weight": ((2, 6, 5), (5, 4)),  # (B, t, w) @ (w, h)
    "keys": ((2, 1, 4, 6, 3), (2, 3, 4, 3, 1)),  # keys shared over K
    "ragged_lead": ((5, 3, 4), (2, 1, 4, 2)),  # both operands broadcast
}


class TestFoldedMatmulBackward:
    """matmul's backward folds broadcast axes into one GEMM per operand."""

    @pytest.mark.parametrize("pattern", sorted(FOLD_PATTERNS))
    def test_matches_materialized_reference(self, pattern, monkeypatch):
        a_shape, b_shape = FOLD_PATTERNS[pattern]
        rng = np.random.default_rng(7)
        a = ad.Tensor(rng.standard_normal(a_shape), requires_grad=True)
        b = ad.Tensor(rng.standard_normal(b_shape), requires_grad=True)
        out = ad.matmul(a, b)
        g = rng.standard_normal(out.shape)
        ga = ad._sum_to_shape(np.matmul(g, np.swapaxes(b.data, -1, -2)), a_shape)
        gb = ad._sum_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), g), b_shape)

        def forbidden(*args):
            raise AssertionError("matmul's backward reduced a broadcast product")

        monkeypatch.setattr(ad, "_sum_to_shape", forbidden)
        out.backward(g)
        np.testing.assert_allclose(a.grad, ga, rtol=1e-12)
        np.testing.assert_allclose(b.grad, gb, rtol=1e-12)

    @pytest.mark.parametrize("pattern", sorted(FOLD_PATTERNS))
    def test_grad_check(self, pattern):
        rng = np.random.default_rng(8)
        arrays = [rng.standard_normal(s) for s in FOLD_PATTERNS[pattern]]
        assert ad.grad_check(ad.matmul, arrays).passed

    def test_no_broadcast_product_allocated(self):
        rng = np.random.default_rng(9)
        w = ad.Tensor(rng.standard_normal((4, 64, 32)), requires_grad=True)
        x = ad.Tensor(rng.standard_normal((16, 64, 4, 32, 1)), requires_grad=True)
        out = ad.matmul(w, x)
        g = rng.standard_normal(out.shape)
        product_bytes = 16 * 64 * 4 * 64 * 32 * 8  # w's broadcast gradient, 67 MB
        tracemalloc.start()
        try:
            out.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < product_bytes / 8


class TestRowRounding:
    """A row of head_matmul rounds the same at any number of rows, so a
    stacked batch scores each candidate exactly as scoring it alone does.
    The shapes are the model's per-head weights, a score product whose
    column count is not a multiple of 8, and contractions of 384 and 768,
    the head widths of the corrected presets."""

    @pytest.mark.parametrize(
        "shape",
        [(32, 64), (64, 32), (10, 32), (128, 32), (32, 256), (256, 32), (32, 10),
         (384, 300), (768, 40)],
    )
    def test_one_row_equals_its_row_of_many(self, shape):
        rng = np.random.default_rng(11)
        # one head: rows (m, 1, c) against the (c, o) weight as (1, o, c)
        w = rng.standard_normal(shape).T[None]
        x = rng.standard_normal((1024, 1, shape[0]))
        alone = np.stack([ad.head_matmul(x[i : i + 1], w).data[0] for i in range(1024)])
        for m in (2, 3, 64, 1024):
            np.testing.assert_array_equal(ad.head_matmul(x[:m], w).data, alone[:m])

    def test_tiled_equals_plain_product(self):
        rng = np.random.default_rng(12)
        x, w = rng.standard_normal((2, 70, 3, 5)), rng.standard_normal((2, 3, 12, 5))
        np.testing.assert_allclose(
            ad.head_matmul(x, w).data,
            np.einsum("bknc,bnoc->bkno", x, w),
            rtol=1e-13,
            atol=1e-13,
        )

    def test_padding_is_not_counted(self):
        with ad.FlopTrace() as tr:
            out = ad.head_matmul(np.ones((1, 1, 32)), np.ones((1, 10, 32)))
        assert out.shape == (1, 1, 10)
        assert tr.total == 2 * 10 * 32


class TestHandValues:
    def test_rms_norm_hand_case(self):
        # [3,4]: root-mean-square is 5/sqrt(2), unit scale
        out = ad.rms_norm(np.array([3.0, 4.0]), np.ones(2), 0.0).data
        np.testing.assert_allclose(out, [0.8485281374238570, 1.1313708498984760])

    def test_rms_norm_scale_applies(self):
        out = ad.rms_norm(np.array([3.0, 4.0]), np.array([2.0, 0.5]), 0.0).data
        np.testing.assert_allclose(out, [2 * 0.8485281374238570, 0.5 * 1.1313708498984760])

    def test_layer_norm_hand_case(self):
        # population variance, gain-only
        out = ad.layer_norm(np.array([2.0, 4.0]), np.ones(2), 0.0).data
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-12)

    def test_swish_hand_case(self):
        # swish(2) = 2 * sigmoid(2)
        np.testing.assert_allclose(ad.swish(np.array([2.0])).data, [1.7615941559557646])

    def test_softmax_hand_case(self):
        np.testing.assert_allclose(
            ad.softmax(np.array([np.log(2.0), 0.0])).data, [2 / 3, 1 / 3]
        )

    def test_softmax_shift_invariant_at_extremes(self):
        out = ad.softmax(np.array([1000.0, 1000.0 + np.log(3.0)])).data
        np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-12)


class TestGraph:
    def test_diamond_reuse(self):
        # y = x*x + x*x: the shared node's gradient must be summed once per path
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        sq = ad.mul(x, x)
        out = ad.add(sq, sq)
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [12.0])

    def test_deep_chain_iterative(self):
        # would overflow the interpreter stack if backward recursed
        x = ad.Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = ad.add(y, x)
        ad.sum_(y).backward()
        np.testing.assert_allclose(x.grad, np.full(2, 3001.0))

    def test_backward_releases_interior_nodes(self):
        x = ad.Tensor(np.linspace(-1.0, 1.0, 4), requires_grad=True)
        sq = ad.mul(x, x)
        h = ad.swish(sq)
        out = ad.sum_(h)
        out.backward()
        assert sq._parents == h._parents == out._parents == ()
        assert x._vjp is None and x.grad is not None

    def test_second_backward_through_a_released_graph_raises(self):
        # a released node must not pass for a leaf and take a .grad
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        sq = ad.mul(x, x)
        out = ad.add(sq, sq)
        out.backward(np.array([1.0]))
        with pytest.raises(GraphReleasedError) as err:
            out.backward(np.array([1.0]))
        assert isinstance(err.value, MixformerError) and "\n" not in str(err.value)
        with pytest.raises(GraphReleasedError):
            ad.sum_(ad.mul(sq, sq)).backward()
        np.testing.assert_allclose(x.grad, [12.0])
        assert sq.grad is None

    def test_no_grad_blocks_graph(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y._parents == ()
        assert not y.requires_grad
        assert ad.grad_enabled()

    def test_backward_requires_scalar_or_seed(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        y = ad.mul(x, x)
        with pytest.raises(Exception):
            y.backward()  # non-scalar without explicit cotangent

    def test_float64_enforced(self):
        t = ad.Tensor(np.ones(3, dtype=np.float32))
        assert t.data.dtype == np.float64


class TestFlopTrace:
    def test_matmul_count(self):
        a = ad.Tensor(np.ones((3, 4)))
        b = ad.Tensor(np.ones((4, 5)))
        with ad.FlopTrace() as tr:
            ad.matmul(a, b)
        assert tr.total == 2 * 3 * 5 * 4

    def test_batched_matmul_counts_all_batches(self):
        a = ad.Tensor(np.ones((7, 3, 4)))
        b = ad.Tensor(np.ones((4, 5)))
        with ad.FlopTrace() as tr:
            ad.matmul(a, b)
        assert tr.total == 2 * 7 * 3 * 5 * 4

    def test_softmax_and_norms_five_per_element(self):
        x = ad.Tensor(np.ones((2, 6)))
        s = ad.Tensor(np.ones(6))
        with ad.FlopTrace() as tr:
            ad.softmax(x)
        assert tr.total == 5 * 12
        with ad.FlopTrace() as tr:
            ad.rms_norm(x, s, 1e-6)
        assert tr.total == 5 * 12
        with ad.FlopTrace() as tr:
            ad.layer_norm(x, s, 1e-6)
        assert tr.total == 5 * 12

    def test_free_ops_cost_nothing(self):
        x = ad.Tensor(np.ones((2, 6)))
        with ad.FlopTrace() as tr:
            ad.add(x, x)
            ad.mul(x, x)
            ad.reshape(x, (12,))
            ad.swapaxes(x, 0, 1)
            ad.concat([x, x], axis=0)
        assert tr.total == 0

    def test_nested_traces_are_independent(self):
        a = ad.Tensor(np.ones((2, 2)))
        with ad.FlopTrace() as outer:
            ad.matmul(a, a)
            with ad.FlopTrace() as inner:
                ad.matmul(a, a)
        assert inner.total == 16
        assert outer.total == 32


class TestGradCheck:
    def test_accepts_correct_gradient(self):
        rng = np.random.default_rng(1)
        rep = ad.grad_check(
            lambda a, b: ad.matmul(ad.swish(a), b),
            [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))],
        )
        assert rep.passed
        assert rep.max_rel_error < 1e-5

    def test_rejects_wrong_gradient(self):
        def square(x):
            y = ad.mul(x, x)
            y._vjp = lambda g: (g * x.data, None)  # missing the factor of 2
            return y

        rep = ad.grad_check(square, [np.array([1.0, 2.0, 3.0])])
        assert not rep.passed

    def test_max_coords_subsampling(self):
        rep = ad.grad_check(
            ad.swish, [np.random.default_rng(0).standard_normal((10, 10))], max_coords=7
        )
        assert rep.n_coordinates == 7
        assert rep.passed
