import math
import sys
import types
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from longroad import tensor as T
from longroad.errors import ContractError, NumericDomainError, ShapeError
from longroad.tensor import Tensor


def t64(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def rel_err(a, b):
    return np.abs(a - b) / (np.abs(b) + 1e-8)


def check_grads(fn, inputs, tol=1e-4):
    """Autodiff vs central finite differences on a float64 graph."""
    for t in inputs:
        t.zero_grad()
    loss = fn(*inputs)
    loss.backward()
    fd = T.finite_difference(fn, inputs)
    for t, g in zip(inputs, fd):
        assert t.grad is not None
        assert np.max(rel_err(t.grad, g)) <= tol


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(3, dtype=np.float64))
        out = T.matmul(eye, eye)
        np.testing.assert_array_equal(out.data, np.eye(3))

    def test_hand_contraction(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]], rg=False)
        b = t64([[1.0], [1.0]], rg=False)
        np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_zeros(self):
        z = Tensor(np.zeros((2, 3)))
        other = Tensor(np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32))
        np.testing.assert_array_equal(T.matmul(z, other).data, np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError) as ei:
            T.matmul(a, b)
        assert "(2, 3)" in str(ei.value) and "(4, 2)" in str(ei.value)

    @pytest.mark.parametrize("a, b, match", [((3,), (3, 2), "rank >= 2"),
                                             ((2, 3, 4), (3, 4, 5), "batch extents")])
    def test_rank_and_batch_errors(self, a, b, match):
        with pytest.raises(ShapeError, match=match):
            T.matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    def test_batched_grad(self):
        rng = np.random.default_rng(1)
        a = t64(rng.normal(size=(2, 3, 4)))
        b = t64(rng.normal(size=(4, 5)))
        check_grads(lambda a, b: T.reduce_sum(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b])


class TestElementwise:
    def test_gelu_at_zero(self):
        assert T.gelu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]

    def test_exp_of_zeros(self):
        np.testing.assert_array_equal(T.exp(Tensor(np.zeros((2, 2)))).data, np.ones((2, 2)))

    def test_broadcast_add_scalar(self):
        out = T.add(Tensor(np.array([1.0, 2.0])), 2.0)
        np.testing.assert_array_equal(out.data, [3.0, 4.0])

    def test_log_domain(self):
        with pytest.raises(NumericDomainError):
            T.log(Tensor(np.array([1.0, -1.0])))

    def test_sqrt_domain(self):
        with pytest.raises(NumericDomainError):
            T.sqrt(Tensor(np.array([-0.5])))

    @pytest.mark.parametrize("op", [T.exp, T.gelu, T.sigmoid, T.neg])
    def test_unary_grads(self, op):
        x = t64(np.random.default_rng(7).normal(size=(3, 4)))
        check_grads(lambda x: T.reduce_sum(op(x)), [x])

    def test_log_sqrt_grads(self):
        x = t64(np.random.default_rng(8).uniform(0.5, 2.0, size=(3, 4)))
        check_grads(lambda x: T.reduce_sum(T.log(x)), [x])
        check_grads(lambda x: T.reduce_sum(T.sqrt(x)), [x])

    def test_binary_grads_with_broadcast(self):
        rng = np.random.default_rng(9)
        a = t64(rng.normal(size=(2, 3)))
        b = t64(rng.normal(size=(3,)))
        check_grads(lambda a, b: T.reduce_sum(T.mul(T.add(a, b), T.sub(a, b))), [a, b])
        c = t64(rng.uniform(0.5, 1.5, size=(2, 3)))
        check_grads(lambda a, c: T.reduce_sum(T.div(a, c)), [a, c])


INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gelu_oracle(x):
    """GELU and its cdf as computed before the blocked kernel: scipy's erf."""
    with np.errstate(all="ignore"):
        cdf = 0.5 * (1 + scipy.special.erf(x * INV_SQRT2))
        return x * cdf, cdf


def gelu_grad_oracle(x, cdf, g):
    """The unchanged GELU backward, g * (cdf + x * pdf), in its op order."""
    with np.errstate(all="ignore"):
        pdf = x * x
        pdf *= -0.5
        np.exp(pdf, out=pdf)
        pdf *= 1.0 / math.sqrt(2.0 * math.pi)
        pdf *= x
        pdf += cdf
        pdf *= g
        return pdf


def assert_bit_equal(got, want):
    """Bit-equal, except that any NaN matches any NaN: the oracle's own NaN
    payloads depend on where an element sits in its array (numpy's multiply
    keeps the first operand's payload in a loop's first elements and the
    second's after), so they are no property of GELU."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = np.dtype(f"u{want.itemsize}")
    bad = np.flatnonzero((got.view(bits) != want.view(bits)) & ~nan)
    assert bad.size == 0, (got.ravel()[bad[:5]], want.ravel()[bad[:5]])


# values at the kernel's edges: zeros, subnormals, the main piece's end
# (|y| = 2), the saturation point, infinities and NaN, as x = y * sqrt 2
GELU_EDGES = np.array(
    [0.0, -0.0, 1e-45, -1.6623999e-38, 1.6624e-38, 2.828427, -2.8284273, 2.8284276,
     5.542594, -5.5425944, 40.0, -3.4e38, np.inf, -np.inf, np.nan],
    dtype=np.float32)
BLOCK = T._GELU_BLOCK


@st.composite
def gelu_inputs(draw):
    """float32 arrays of random bit patterns or activation-like values, with
    sizes around block boundaries and the kernel's edge values mixed in."""
    n = draw(st.sampled_from([0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5, 3 * BLOCK - 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32).view(np.float32)
    else:
        x = (rng.standard_normal(n) * draw(st.sampled_from([0.3, 1.1, 3.0]))).astype(np.float32)
    at = rng.integers(0, max(n, 1), min(n, len(GELU_EDGES)))
    x[at] = GELU_EDGES[:len(at)]
    if n % 5 == 0 and draw(st.booleans()):
        x = x.reshape(5, -1).T  # non-contiguous, as an op's output can be
    return x


class TestGeluFloat32:
    @settings(max_examples=40, deadline=None)
    @given(gelu_inputs())
    def test_forward_and_backward_bit_equal_to_scipy_erf(self, x):
        want, want_cdf = gelu_oracle(x)
        assert_bit_equal(T._gelu32(x, keep_cdf=False)[0], want)  # Tensor() copies x contiguous
        with T.no_grad():
            assert_bit_equal(T.gelu(Tensor(x)).data, want)
        xt = Tensor(x, requires_grad=True)
        out = T.gelu(xt)
        assert_bit_equal(out.data, want)
        g = np.random.default_rng(x.size).standard_normal(x.shape).astype(np.float32)
        with np.errstate(all="ignore"):  # inf and NaN inputs
            T.reduce_sum(T.mul(out, Tensor(g))).backward()
        assert_bit_equal(xt.grad, gelu_grad_oracle(x, want_cdf, g))

    def test_every_float32_with_magnitude_2_to_8(self):
        # |y| from 1.41 to 5.66: across |y| = 2, where the rational hands over
        # to scipy, and past 3.92, from where erf rounds to 1.0f
        lo, hi = np.array([2.0, 8.0], np.float32).view(np.uint32)
        chunk = 1 << 22
        for start in range(lo, hi, chunk):
            for sign in (0, 1 << 31):
                x = np.arange(start | sign, (start + chunk) | sign, dtype=np.uint32).view(np.float32)
                want, want_cdf = gelu_oracle(x)
                out, cdf = T._gelu32(x, keep_cdf=True)
                assert_bit_equal(out, want)
                assert_bit_equal(cdf, want_cdf)

    @pytest.mark.slow
    def test_all_float32_bit_patterns(self):
        chunk = 1 << 22
        for start in range(0, 1 << 32, chunk):
            x = np.arange(start, start + chunk, dtype=np.uint32).view(np.float32)
            want, want_cdf = gelu_oracle(x)
            out, cdf = T._gelu32(x, keep_cdf=True)
            assert_bit_equal(out, want)
            assert_bit_equal(cdf, want_cdf)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor(np.zeros(3)), axis=-1)
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-12)

    def test_no_overflow(self):
        out = T.softmax(Tensor(np.array([1000.0, 0.0])), axis=-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_hand_values(self):
        out = T.softmax(Tensor(np.log(np.array([1.0, 3.0]))), axis=-1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 7)).astype(np.float32))
        out = T.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-6)
        assert np.all(out.data >= 0)

    def test_grad(self):
        x = t64(np.random.default_rng(4).normal(size=(2, 5)))
        w = t64(np.random.default_rng(5).normal(size=(2, 5)))
        check_grads(lambda x, w: T.reduce_sum(T.mul(T.softmax(x, axis=-1), w)), [x, w])

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.zeros((2, 2))), axis=5)


class TestLayerNorm:
    def test_constant_input_gives_bias(self):
        x = Tensor(np.full((2, 4), 3.5))
        gain = Tensor(np.ones(4))
        bias = Tensor(np.arange(4.0))
        out = T.layer_norm(x, gain, bias, axis=-1, epsilon=1e-5)
        np.testing.assert_allclose(out.data, np.broadcast_to(np.arange(4.0), (2, 4)), atol=1e-6)

    def test_already_standardized(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), axis=-1, epsilon=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_zero_gain_gives_bias(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        bias = Tensor(np.full(5, 0.25))
        out = T.layer_norm(x, Tensor(np.zeros(5)), bias, axis=-1)
        np.testing.assert_allclose(out.data, np.broadcast_to(bias.data, (3, 5)))

    def test_pre_affine_moments(self):
        x = Tensor(np.random.default_rng(2).normal(2.0, 3.0, size=(6, 32)))
        out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)), axis=-1, epsilon=1e-12)
        assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-5
        assert np.max(np.abs(out.data.var(axis=-1) - 1.0)) < 1e-5

    def test_axis_not_last(self):
        x = t64(np.random.default_rng(11).normal(size=(4, 3)))
        g = t64(np.random.default_rng(12).normal(size=(4,)))
        b = t64(np.random.default_rng(13).normal(size=(4,)))
        check_grads(
            lambda x, g, b: T.reduce_sum(
                T.mul(T.layer_norm(x, g, b, axis=0), T.layer_norm(x, g, b, axis=0))
            ),
            [x, g, b],
        )

    def test_grad(self):
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(3, 6)))
        g = t64(rng.normal(size=(6,)))
        b = t64(rng.normal(size=(6,)))
        check_grads(lambda x, g, b: T.reduce_sum(T.exp(T.layer_norm(x, g, b))), [x, g, b])

    def test_zero_length_axis(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0)), axis=-1)

    def test_mismatched_gain(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestStructural:
    def test_mean(self):
        assert T.reduce_mean(Tensor(np.array([2.0, 4.0]))).item() == 3.0

    def test_concat_slice_round_trip(self):
        a = np.random.default_rng(1).normal(size=(2, 3)).astype(np.float32)
        b = np.random.default_rng(2).normal(size=(4, 3)).astype(np.float32)
        cat = T.concat([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_array_equal(cat.data[:2], a)
        np.testing.assert_array_equal(cat.data[2:], b)
        with pytest.raises(ShapeError, match="empty"):
            T.concat([])

    def test_gather_row(self):
        table = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(T.gather(table, [1]).data, [[3.0, 4.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather(Tensor(np.zeros((2, 2))), [5])

    def test_gather_grad_scatters_duplicates(self):
        table = t64(np.random.default_rng(3).normal(size=(4, 2)))
        out = T.reduce_sum(T.gather(table, [1, 1, 0]))
        out.backward()
        np.testing.assert_array_equal(table.grad, [[1, 1], [2, 2], [0, 0], [0, 0]])

    def test_structural_grads(self):
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(4, 6)))

        def fn(x):
            y = T.transpose(T.reshape(x, (2, 12)), (1, 0))
            z = T.concat([y, y], axis=1)
            return T.reduce_sum(T.mul(z[3:9, :], z[3:9, :]))

        check_grads(fn, [x])

    def test_slice_grad(self):
        x = t64(np.arange(12.0).reshape(3, 4))
        out = T.reduce_sum(x[1, 1:3])
        out.backward()
        expect = np.zeros((3, 4))
        expect[1, 1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expect)


class TestBackward:
    def test_sum_gives_ones(self):
        p = t64(np.random.default_rng(0).normal(size=(2, 3)))
        T.reduce_sum(p).backward()
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_repr(self):
        assert repr(t64(np.zeros((2, 3)))) == "Tensor(shape=(2, 3), dtype=float64, requires_grad=True)"

    def test_sampled_finite_difference(self):
        # `max_coords` probes that many coordinates and leaves the rest NaN
        p = t64(np.random.default_rng(1).normal(size=(4, 5)))
        T.reduce_sum(T.mul(p, p)).backward()
        (fd,) = T.finite_difference(lambda p: T.reduce_sum(T.mul(p, p)), [p], max_coords=6)
        probed = ~np.isnan(fd)
        assert probed.sum() == 6
        np.testing.assert_allclose(fd[probed], p.grad[probed], rtol=1e-6)

    def test_quadratic(self):
        p = t64([1.0, 2.0])
        loss = T.mul(T.reduce_sum(T.mul(p, p)), 0.5)
        loss.backward()
        np.testing.assert_allclose(p.grad, [1.0, 2.0], atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        p = t64(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            T.mul(p, 2.0).backward()

    def test_random_six_op_graph_matches_fd(self):
        rng = np.random.default_rng(42)
        a = t64(rng.uniform(0.5, 1.5, size=(3, 3)))
        b = t64(rng.normal(size=(3, 3)))
        c = t64(rng.normal(size=(3,)))

        def fn(a, b, c):
            h = T.matmul(a, b)
            h = T.add(h, c)
            h = T.gelu(h)
            h = T.softmax(h, axis=-1)
            h = T.mul(h, T.log(a))
            return T.reduce_mean(h)

        check_grads(fn, [a, b, c], tol=1e-4)

    def test_diamond_graph_accumulates_once(self):
        # value used twice downstream: grad = sum of both paths
        p = t64([3.0])
        y = T.add(T.mul(p, 2.0), T.mul(p, 5.0))
        T.reduce_sum(y).backward()
        np.testing.assert_allclose(p.grad, [7.0])

    def test_grad_accumulates_across_calls(self):
        p = t64([1.0, 1.0])
        T.reduce_sum(p).backward()
        T.reduce_sum(T.mul(p, 2.0)).backward()
        np.testing.assert_allclose(p.grad, [3.0, 3.0])

    def test_scalar_without_gradient_takes_only_the_seed(self):
        # a scalar off the tape takes the seed, ones, as its own grad, and
        # nothing it was computed from is touched
        x = Tensor(np.arange(3.0))
        for y in (Tensor(np.float64(2.0)), T.reduce_sum(T.mul(x, 2.0))):
            y.backward()
            assert not y.requires_grad and y.grad.tobytes() == np.ones(()).tobytes()
        assert x.grad is None and x._node is None

    def test_detach_blocks_gradient(self):
        p = t64([2.0])
        loss = T.reduce_sum(T.mul(p.detach(), p))
        loss.backward()
        np.testing.assert_allclose(p.grad, [2.0])


class TestDeterminism:
    def test_same_inputs_bit_identical(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=(8, 8)).astype(np.float32)
        w = rng.normal(size=(8, 8)).astype(np.float32)

        def run():
            return T.softmax(T.matmul(Tensor(x), Tensor(w)), axis=-1).data

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()

    def test_float32_stays_float32(self):
        x = Tensor(np.zeros((2, 2), dtype=np.float32))
        assert T.add(T.gelu(x), 1.0).dtype == np.float32
        assert T.softmax(x, axis=0).dtype == np.float32


class TestZeroDim:
    def test_scalar_tensor_stays_0d(self):
        assert Tensor(np.float64(2.0)).shape == ()

    def test_scalar_operand_keeps_0d(self):
        assert T.mul(Tensor(np.float64(2.0)), 0.5).shape == ()

    def test_sum_plus_constant_stays_0d(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        y = T.add(T.reduce_sum(x), 1.0)
        assert y.shape == ()
        y.backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_strided_input_copied_to_c_order(self):
        x = np.arange(12.0).reshape(3, 4)[:, ::2]
        t = Tensor(x)
        assert t.data.flags.c_contiguous and not np.shares_memory(t.data, x)
        np.testing.assert_array_equal(t.data, x)


# -- node-built layers ----------------------------------------------------------
# `linear`, `layer_norm` and `modulated_norm` once had backwards of their own,
# kept here as oracles. Built by `_node`, the ops must give the same bytes:
# output and every gradient, in either dtype, with frozen parents, a
# non-contiguous input and an output that two later ops read. The
# modulation's oracle reads shift and scale as (L, 1, H) tensors cut out of
# it by `sliced_modulation`.


def sliced_modulation(mods, h):
    """An (L, n*H) modulation's n (L, 1, H) blocks, cut out on the tape by
    generic ops: one reshape to (L, n, H) and a slice per block."""
    cut = T.reshape(mods, (mods.shape[0], -1, h))
    return [cut[:, i:i + 1] for i in range(cut.shape[1])]


def hand_linear(x, w, b):
    T._check_linear(x.shape, w, b)
    out = T._affine(x.data, w.data, b.data)

    def bw(_, g):
        d_in, d_out = w.shape
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            gx = np.empty(x.shape, dtype=g.dtype)
            np.matmul(g2, w.data.T, out=gx.reshape(-1, d_in))
        if w.requires_grad:
            T._accum(w, x.data.reshape(-1, d_in).T @ g2)
        if b.requires_grad:
            T._accum(b, g2.sum(axis=0))
        if x.requires_grad:
            T._accum(x, gx)

    return Tensor._from_op(out, (x, w, b), bw)


def hand_layer_norm(x, gain, bias, axis, epsilon=1e-5):
    n = x.shape[axis]
    ax = axis % x.ndim
    bshape = [1] * x.ndim
    bshape[ax] = n
    gd = gain.data.reshape(bshape)
    bd = bias.data.reshape(bshape)
    mu = x.data.mean(axis=ax, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=ax, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(epsilon, dtype=x.dtype))
    xhat = centered * inv
    out = gd * xhat + bd

    def bw(_, g):
        other = tuple(i for i in range(x.ndim) if i != ax)
        if gain.requires_grad:
            T._accum(gain, (g * xhat).sum(axis=other))
        if bias.requires_grad:
            T._accum(bias, g.sum(axis=other))
        if x.requires_grad:
            dxhat = g * gd
            m1 = dxhat.mean(axis=ax, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=ax, keepdims=True)
            T._accum(x, inv * (dxhat - m1 - xhat * m2))

    return Tensor._from_op(out, (x, gain, bias), bw)


def hand_modulated_norm(x, shift, scale):
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(1e-6, dtype=x.dtype))
    xhat *= inv
    gain = scale.data + 1.0
    out = xhat * gain
    out += shift.data

    def bw(_, g):
        if shift.requires_grad:
            T._accum(shift, T._unbroadcast(g, shift.shape))
        if scale.requires_grad:
            T._accum(scale, T._unbroadcast(g * xhat, scale.shape))
        if x.requires_grad:
            d = g * gain
            m2 = np.einsum("...i,...i->...", d, xhat)[..., None] / x.shape[-1]
            d -= d.mean(axis=-1, keepdims=True)
            d -= xhat * m2
            d *= inv
            T._accum(x, d)

    return Tensor._from_op(out, (x, shift, scale), bw)


NODE_BUILT = {  # name: (op, oracle, shapes of the two other parents for x (A, B, H))
    "linear": (T.linear, hand_linear, lambda a, b, h, k: [(h, k), (k,)]),
    "layer_norm_last": (lambda x, g, b: T.layer_norm(x, g, b, axis=-1),
                        lambda x, g, b: hand_layer_norm(x, g, b, axis=-1),
                        lambda a, b, h, k: [(h,), (h,)]),
    "layer_norm_first": (lambda x, g, b: T.layer_norm(x, g, b, axis=0),
                         lambda x, g, b: hand_layer_norm(x, g, b, axis=0),
                         lambda a, b, h, k: [(a,), (a,)]),
    "modulated_norm": (lambda x, mods: T.modulated_norm(x, mods, 1),
                       lambda x, mods: hand_modulated_norm(
                           x, *sliced_modulation(mods, x.shape[-1])[1:3]),
                       lambda a, b, h, k: [(a, 3 * h)]),
}


class TestNodeBuiltLayers:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(NODE_BUILT)),
           dtype=st.sampled_from([np.float32, np.float64]),
           dims=st.tuples(*[st.integers(1, 5)] * 4), seed=st.integers(0, 2**32 - 1),
           frozen=st.tuples(*[st.booleans()] * 3), transposed=st.booleans(),
           twice=st.booleans())
    def test_bit_equal_to_hand_written_backward(self, name, dtype, dims, seed, frozen,
                                                transposed, twice):
        op, oracle, other_shapes = NODE_BUILT[name]
        a, b, h, k = dims
        rng = np.random.default_rng(seed)

        def leaf(shape, frozen):
            return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=not frozen)

        # a transposed x is a view that the leaf's gradient flows back through
        x_leaf = leaf((b, a, h) if transposed else (a, b, h), frozen[0])
        others = [leaf(s, f) for s, f in zip(other_shapes(a, b, h, k), frozen[1:])]
        leaves = [x_leaf] + others
        results = []
        for fn in (op, oracle):
            for t in leaves:
                t.zero_grad()
            x = T.transpose(x_leaf, (1, 0, 2)) if transposed else x_leaf
            assert x.data.flags.c_contiguous == (not transposed or a == 1 or b == 1)
            y = fn(x, *others)
            w1, w2 = (Tensor(np.random.default_rng(seed + i).normal(size=y.shape).astype(dtype))
                      for i in (1, 2))
            loss = T.reduce_sum(T.mul(y, w1))
            if twice:
                loss = T.add(loss, T.reduce_sum(T.mul(T.mul(y, y), w2)))
            loss.backward()
            results.append([y.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


# -- fused layers ---------------------------------------------------------------
# The oracles are the compositions of primitive ops that `linear`, `attention`,
# `modulated_norm`, `mlp` and `gated_residual` replaced, the last two reading
# their modulation blocks through `sliced_modulation`. The first three sum
# in another order, so they are compared in float64 within 1e-10 of the
# largest oracle magnitude; the last two keep every operation and its order,
# and are also checked bit for bit in float32.


def oracle_linear(x, w, b):
    return T.add(T.matmul(x, w), b)


def oracle_attention(q, k, v, heads, scale, rope=None):
    def split(t):
        b, n, h = t.shape
        return T.transpose(T.reshape(t, (b, n, heads, h // heads)), (0, 2, 1, 3))

    def rotate(t):
        cos, sin = rope
        half = t.shape[-1] // 2
        x1, x2 = t[..., :half], t[..., half:]
        c, s = Tensor(cos[None, None]), Tensor(sin[None, None])
        return T.concat([T.sub(T.mul(x1, c), T.mul(x2, s)),
                         T.add(T.mul(x1, s), T.mul(x2, c))], axis=-1)

    qh, kh = split(q), split(k)
    if rope is not None:
        qh, kh = rotate(qh), rotate(kh)
    logits = T.mul(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), scale)
    out = T.matmul(T.softmax(logits, axis=-1), split(v))
    b, _, n, _ = out.shape
    return T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, n, v.shape[-1]))


def oracle_modulated_norm(x, shift, scale, eps=1e-6):
    h = x.shape[-1]
    normed = T.layer_norm(x, Tensor(np.ones(h)), Tensor(np.zeros(h)), axis=-1, epsilon=eps)
    return T.add(T.mul(normed, T.add(scale, 1.0)), shift)


def oracle_mlp(x, w1, b1, w2, b2):
    return T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2)


def oracle_gated_residual(x, gate, y):
    return T.add(x, T.mul(gate, y))


def unfused_modulated_norm(x, mods, i):
    """`modulated_norm`'s contract from the composition above."""
    return oracle_modulated_norm(x, *sliced_modulation(mods, x.shape[-1])[i:i + 2])


def unfused_gated_residual(x, mods, i, y):
    """`gated_residual`'s contract from the composition above."""
    return oracle_gated_residual(x, sliced_modulation(mods, x.shape[-1])[i], y)


def rope_for(n, dh, rng):
    ang = rng.uniform(-np.pi, np.pi, size=(n, dh // 2))
    return np.cos(ang), np.sin(ang)


def fused_cases():
    """(name, fused fn, oracle fn, float64 inputs) for every fused op."""
    rng = np.random.default_rng(40)

    def ins(*shapes):
        return [t64(rng.normal(size=s)) for s in shapes]

    rope = rope_for(5, 4, rng)
    return [
        ("linear", T.linear, oracle_linear, ins((2, 3, 4), (4, 5), (5,))),
        ("attention", lambda q, k, v: T.attention(q, k, v, 2, 0.7),
         lambda q, k, v: oracle_attention(q, k, v, 2, 0.7), ins(*[(2, 5, 8)] * 3)),
        ("attention_rope", lambda q, k, v: T.attention(q, k, v, 2, 0.7, rope),
         lambda q, k, v: oracle_attention(q, k, v, 2, 0.7, rope), ins(*[(3, 5, 8)] * 3)),
        ("attention_cross", lambda q, k, v: T.attention(q, k, v, 2, 0.5),
         lambda q, k, v: oracle_attention(q, k, v, 2, 0.5), ins((2, 4, 8), (2, 3, 8), (2, 3, 8))),
        ("modulated_norm", lambda x, m: T.modulated_norm(x, m, 1),
         lambda x, m: unfused_modulated_norm(x, m, 1), ins((3, 4, 6), (3, 18))),
        ("mlp", T.mlp, oracle_mlp, ins((2, 3, 4), (4, 6), (6,), (6, 4), (4,))),
        ("mlp_2d", T.mlp, oracle_mlp, ins((5, 3), (3, 3), (3,), (3, 3), (3,))),
        ("gated_residual", lambda x, m, y: T.gated_residual(x, m, 2, y),
         lambda x, m, y: unfused_gated_residual(x, m, 2, y), ins((3, 4, 6), (3, 18), (3, 4, 6))),
    ]


def weighted_sum(y, seed=41):
    """A scalar whose gradient differs at every output coordinate."""
    w = np.random.default_rng(seed).normal(size=y.shape)
    return T.reduce_sum(T.mul(y, Tensor(w)))


def named_ops(monkeypatch) -> dict:
    """From here on, name each op node after the op that made it: the first
    caller of `Tensor._from_op` that is not `_node` (`slice_`, `linear`,
    `gaussian_kl`, ...). Returns the map from the id of the output's tape
    node to the name."""
    names, from_op = {}, Tensor._from_op

    def named(data, parents, backward_fn):
        out = from_op(data, parents, backward_fn)
        frame = sys._getframe(1)
        while frame.f_code.co_name == "_node":
            frame = frame.f_back
        names[id(out._node)] = frame.f_code.co_name
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(named))
    return names


def tape_ops(loss, names=None) -> Counter:
    """The op nodes on `loss`'s tape, walked as perfbench's tape counter
    walks it, counted by name from `named_ops` or else all as "op". The
    parameter leaves the walk reaches are not counted."""
    seen, todo, ops = {id(loss._node)}, [loss._node], Counter()
    while todo:
        node = todo.pop()
        if node._backward is not None:
            ops[names[id(node)] if names else "op"] += 1
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return ops


class TestFusedOps:
    @pytest.mark.parametrize("case", fused_cases(), ids=lambda c: c[0])
    def test_finite_difference(self, case):
        _, fused, _, inputs = case
        check_grads(lambda *a: weighted_sum(fused(*a)), inputs, tol=1e-6)

    @pytest.mark.parametrize("case", fused_cases(), ids=lambda c: c[0])
    def test_matches_unfused_composition(self, case):
        _, fused, oracle, inputs = case
        results = []
        for fn in (fused, oracle):
            for t in inputs:
                t.zero_grad()
            y = fn(*inputs)
            weighted_sum(y).backward()
            results.append([y.data] + [t.grad for t in inputs])
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_one_tape_node_each(self):
        for _, fused, _, inputs in fused_cases():
            y = fused(*inputs)
            assert tape_ops(y) == {"op": 1} and y._parents == tuple(t._node for t in inputs)

    @pytest.mark.parametrize("name", ["mlp", "gated_residual"])
    def test_float32_bit_equal_to_unfused(self, name):
        # the fused node must train bit-identically: output and every
        # gradient equal the unfused composition's in float32; the MLP's
        # hidden layer spans several GELU blocks
        rng = np.random.default_rng(43)
        shapes = {"mlp": [(4, 70, 16), (16, 64), (64,), (64, 16), (16,)],
                  "gated_residual": [(4, 70, 16), (4, 48), (4, 70, 16)]}[name]
        fused, oracle = {"mlp": (T.mlp, oracle_mlp),
                         "gated_residual": (lambda x, m, y: T.gated_residual(x, m, 1, y),
                                            lambda x, m, y: unfused_gated_residual(x, m, 1, y))
                         }[name]
        inputs = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for s in shapes]
        g = Tensor(rng.normal(size=shapes[0]).astype(np.float32))
        results = []
        for fn in (fused, oracle):
            for t in inputs:
                t.zero_grad()
            y = fn(*inputs)
            T.reduce_sum(T.mul(y, g)).backward()
            results.append([y.data] + [t.grad for t in inputs])
        for got, want in zip(*results):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_mlp_tape_keeps_no_gelu_output(self):
        # the node keeps fc1's output and the GELU cdf; the GELU output,
        # the same size again, is rebuilt in the backward
        import tracemalloc

        rng = np.random.default_rng(44)
        shapes = [(64, 32, 16), (16, 64), (64,), (64, 16), (16,)]
        inputs = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for s in shapes]
        hidden = 64 * 32 * 64 * 4

        def kept(fn):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                y = fn(*inputs)
                return tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
            finally:
                tracemalloc.stop()

        assert kept(T.mlp) < 2.25 * hidden
        assert kept(oracle_mlp) > 2.75 * hidden

    def test_no_grad_mlp_keeps_nothing(self):
        rng = np.random.default_rng(45)
        inputs = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(3, 4), (4, 8), (8,), (8, 4), (4,)]]
        with T.no_grad():
            y = T.mlp(*inputs)
        assert not y.requires_grad and y._node is None
        assert y.data.tobytes() == oracle_mlp(*inputs).data.tobytes()

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))), t64(np.zeros(5)))
        with pytest.raises(ShapeError):
            T.mlp(*[t64(np.zeros(s)) for s in [(2, 3), (3, 4), (4,), (5, 3), (3,)]])
        with pytest.raises(ShapeError):
            T.mlp(*[t64(np.zeros(s)) for s in [(2, 3), (3, 4), (4,), (4, 3), (2,)]])
        with pytest.raises(ShapeError):
            T.attention(*[t64(np.zeros((1, 2, 6)))] * 3, heads=4, scale=1.0)

    def test_block_matches_oracle_with_fewer_tape_nodes(self, monkeypatch):
        from longroad import backbone as B

        cfg = B.ModelConfig(depth=1, hidden=8, heads=2, patch=2, channels=1, t_max=20,
                            text_vocab=8, max_original_index=64)
        model = B.VideoDenoiser(cfg, np.random.default_rng(0), dtype=np.float64)
        rng = np.random.default_rng(1)
        for p in model.parameters():
            p.data = rng.normal(0, 0.3, size=p.shape)
        block = model.blocks[0]
        x = rng.normal(size=(3, 4, 8))
        cond = B.ConditionSet(np.array([1, 2]), np.zeros(3, dtype=np.int64), 10.0, 4.0, 4.0)
        rope = B.rope_tables(B.RopePlan(np.array([0, 2, 5])), cfg.head_dim, np.float64,
                             cfg.rope_base)

        def run():
            model.zero_grad()
            c_mod = model.t_embed(np.array([3, 7, 11]), (10.0, 4.0, 4.0))
            out = block(t64(x), c_mod, model._condition_kv(cond, 3), rope)
            loss = weighted_sum(out)
            nodes = tape_ops(loss)["op"]
            loss.backward()
            return out.data, {k: p.grad for k, p in block.named_parameters().items()}, nodes

        out, grads, nodes = run()
        monkeypatch.setattr(T, "linear", oracle_linear)
        monkeypatch.setattr(T, "attention", oracle_attention)
        monkeypatch.setattr(T, "modulated_norm", unfused_modulated_norm)
        monkeypatch.setattr(T, "mlp", oracle_mlp)
        monkeypatch.setattr(T, "gated_residual", unfused_gated_residual)
        want_out, want_grads, want_nodes = run()

        assert np.max(np.abs(out - want_out)) <= 1e-10 * np.max(np.abs(want_out))
        # key-bias gradients are zero up to rounding (softmax ignores a shift
        # shared by all keys), so gradients are compared at the block's scale
        scale = max(np.max(np.abs(g)) for g in want_grads.values())
        for k, g in want_grads.items():
            assert np.max(np.abs(grads[k] - g)) <= 1e-10 * scale, k
        assert nodes < want_nodes


class TestModulationBlocks:
    """`modulated_norm` and `gated_residual` read their blocks in place from
    an (L, n*H) modulation through one layout check."""

    FAULTS = [None, "x rank 2", "x rank 4", "H 0", "mods rank 1", "mods rank 3", "other L",
              "block below 0", "block past width", "y shape"]

    @settings(max_examples=150, deadline=None)
    @given(dims=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4)),
           i=st.integers(0, 3), spare=st.integers(0, 2), gated=st.booleans(),
           fault=st.sampled_from(FAULTS))
    def test_every_bad_layout_is_shape_error(self, dims, i, spare, gated, fault):
        l, s, h = dims
        x_shape = {"x rank 2": (l, s), "x rank 4": (l, s, h, 1),
                   "H 0": (l, s, 0)}.get(fault, (l, s, h))
        i = -1 if fault == "block below 0" else i
        width = (i + (1 if gated else 2)) * h + (-1 if fault == "block past width" else spare)
        mods_shape = {"mods rank 1": (width,), "mods rank 3": (l, width, 1),
                      "other L": (l + 1, width)}.get(fault, (l, width))
        x, mods = t64(np.ones(x_shape)), t64(np.ones(mods_shape))
        y = t64(np.ones((l, s + 1, h) if fault == "y shape" else x_shape))
        call = ((lambda: T.gated_residual(x, mods, i, y)) if gated
                else (lambda: T.modulated_norm(x, mods, i)))
        if fault is None or (fault == "y shape" and not gated):
            assert call().shape == x_shape
        else:
            with pytest.raises(ShapeError):
                call()


def hand_attention(q, k, v, heads, scale, rope=None):
    """The one-shot attention that the blocked op replaced: the whole
    (B, heads, n_q, n_kv) softmax is built at once and kept for a
    hand-written backward."""
    def split(x):
        b, n, h = x.shape
        return x.reshape(b, n, heads, h // heads).transpose(0, 2, 1, 3)

    def merge(x):
        b, _, n, dh = x.shape
        out = np.empty((b, n, heads * dh), dtype=x.dtype)
        out.reshape(b, n, heads, dh)[...] = x.transpose(0, 2, 1, 3)
        return out

    def rotate(x, cos, sin):
        half = x.shape[-1] // 2
        x1, x2 = x[..., :half], x[..., half:]
        out = np.empty(x.shape, dtype=x.dtype)
        out[..., :half] = x1 * cos - x2 * sin
        out[..., half:] = x1 * sin + x2 * cos
        return out

    qh, kh = split(q.data), split(k.data)
    if rope is not None:
        qh, kh = rotate(qh, *rope), rotate(kh, *rope)
    p = np.matmul(qh, kh.swapaxes(-1, -2))
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    vh = split(v.data)

    def unrotate(gh):
        return gh if rope is None else rotate(gh, rope[0], -rope[1])

    def bw(_, g):
        gh = split(g)
        if v.requires_grad:
            T._accum(v, merge(np.matmul(p.swapaxes(-1, -2), gh)))
        ds = np.matmul(gh, vh.swapaxes(-1, -2))
        ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
        ds *= p
        ds *= scale
        if q.requires_grad:
            T._accum(q, merge(unrotate(np.matmul(ds, kh))))
        if k.requires_grad:
            T._accum(k, merge(unrotate(np.matmul(ds.swapaxes(-1, -2), qh))))

    return Tensor._from_op(merge(np.matmul(p, vh)), (q, k, v), bw)


def attention_run(fn, q, k, v, heads, scale, rope, seed=0):
    """Output and q/k/v gradients of a weighted sum of `fn`'s output."""
    for t in (q, k, v):
        t.zero_grad()
    y = fn(q, k, v, heads, scale, rope)
    w = np.random.default_rng(seed).normal(size=y.shape).astype(y.dtype)
    T.reduce_sum(T.mul(y, Tensor(w))).backward()
    return [y.data] + [t.grad for t in (q, k, v)]


class TestBlockedAttention:
    @settings(max_examples=150, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           dims=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 6),
                          st.integers(1, 3), st.sampled_from([2, 4])),
           use_rope=st.booleans(), shared=st.booleans(), frozen=st.tuples(*[st.booleans()] * 3),
           block=st.integers(1, 120), nonfinite=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_equal_to_one_shot(self, dtype, dims, use_rope, shared, frozen, block,
                                   nonfinite, seed):
        # blocks of `block` scores split the batch, unevenly, or one row's heads
        b, n_q, n_kv, heads, dh = dims
        if use_rope or shared:
            n_kv = n_q  # a rope table rotates queries and keys alike
        rng = np.random.default_rng(seed)
        data = [rng.normal(size=(b, n, heads * dh)).astype(dtype) for n in (n_q, n_kv, n_kv)]
        for _ in range(nonfinite):  # in q or k: a score row or column goes non-finite
            x = data[rng.integers(0, 2)].reshape(-1)
            x[rng.integers(0, x.size)] = rng.choice([np.inf, -np.inf, np.nan])
        q, k, v = (Tensor(x, requires_grad=not f) for x, f in zip(data, frozen))
        if shared:
            k = v = q
        rope = rope_for(n_q, dh, rng) if use_rope else None
        if rope is not None and dtype == np.float32:
            rope = tuple(t.astype(np.float32) for t in rope)
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(T, "_ATTN_BLOCK", block)
            got = attention_run(T.attention, q, k, v, heads, 0.7, rope, seed)
            want = attention_run(hand_attention, q, k, v, heads, 0.7, rope, seed)
        # finite entries and infinities bit for bit, NaN by position only: a
        # NaN's sign bit depends on which operand the loop numpy or BLAS picks
        # for a block's shape propagates, not on the input values
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.dtype == dtype
                assert_bit_equal(g, w)

    def test_zero_keys_is_shape_error(self):
        with pytest.raises(ShapeError):
            T.attention(t64(np.zeros((2, 3, 4))), *[t64(np.zeros((2, 0, 4)))] * 2,
                        heads=2, scale=1.0)

    def test_zero_heads_is_shape_error(self):
        with pytest.raises(ShapeError):
            T.attention(*[t64(np.zeros((2, 3, 4)))] * 3, heads=0, scale=1.0)

    def test_rope_tables_of_wrong_shape_are_shape_errors(self):
        # tables for 3 positions on 5 keys, and (3, 2) tables for head_dim 2
        for n_kv, table in ((5, (3, 1)), (3, (3, 2))):
            q, kv = t64(np.zeros((1, 3, 4))), t64(np.zeros((1, n_kv, 4)))
            rope = (np.ones(table), np.zeros(table))
            with pytest.raises(ShapeError, match="rope"):
                T.attention(q, kv, kv, heads=2, scale=1.0, rope=rope)
            with pytest.raises(ShapeError, match="rope"):
                T.attention_scores(q.data, kv.data, 2, 1.0, rope)

    @pytest.mark.parametrize("b, n_q", [(0, 3), (2, 0)])
    def test_empty_batch_or_queries(self, b, n_q):
        q, k, v = t64(np.zeros((b, n_q, 4))), t64(np.ones((b, 3, 4))), t64(np.ones((b, 3, 4)))
        got = attention_run(T.attention, q, k, v, 2, 1.0, None)
        want = attention_run(hand_attention, q, k, v, 2, 1.0, None)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_tape_keeps_no_weights(self):
        # the node keeps each row's max and sum, not the (B, heads, n_q, n_kv)
        # weights, and its backward rebuilds them one block at a time
        import tracemalloc

        rng = np.random.default_rng(46)
        b, n, heads = 16, 96, 4
        inputs = [Tensor(rng.normal(size=(b, n, 32)).astype(np.float32), requires_grad=True)
                  for _ in range(3)]
        weights = b * heads * n * n * 4
        assert weights > 4 * T._ATTN_BLOCK * 4

        def traced(fn):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                y = fn(*inputs, heads, 0.5)
                kept = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
                weighted_sum(y).backward()
                return kept, tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        kept, peak = traced(T.attention)
        one_shot_kept, one_shot_peak = traced(hand_attention)
        assert kept < weights <= one_shot_kept
        assert one_shot_peak - peak >= weights


def test_denoiser_float32_bit_equal_to_unfused_with_fewer_nodes(monkeypatch):
    """The fused MLP and gated-residual nodes change no bit of a float32
    forward or backward, and remove 6 tape nodes per block plus 2 for the
    timestep MLP; the unfused gates also cut their blocks out of the
    modulation, a reshape and a slice each, 8 nodes more per block."""
    from longroad import backbone as B

    cfg = B.ModelConfig(depth=2, hidden=16, heads=2, patch=2, channels=3, t_max=20,
                        text_vocab=8, max_original_index=64)
    model = B.VideoDenoiser(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for p in model.parameters():
        p.data = rng.normal(0, 0.3, size=p.shape).astype(np.float32)
    x = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
    cond = B.ConditionSet(np.array([1, 2]), np.array([0, 1, 2]), 10.0, 8.0, 8.0)
    plan = B.RopePlan(np.array([0, 2, 5]))
    eps = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)

    def run():
        model.zero_grad()
        pred = model.forward(x, np.array([0, 4, 9]), cond, plan)
        loss = T.reduce_sum(T.mul(T.add(pred.eps_hat, pred.v_hat), Tensor(eps)))
        nodes = tape_ops(loss)["op"]
        loss.backward()
        return loss.data, {k: p.grad for k, p in model.named_parameters().items()}, nodes

    loss, grads, nodes = run()
    monkeypatch.setattr(T, "mlp", oracle_mlp)
    monkeypatch.setattr(T, "gated_residual", unfused_gated_residual)
    want_loss, want_grads, want_nodes = run()
    assert loss.tobytes() == want_loss.tobytes()
    assert [k for k, g in grads.items() if g is None] == ["null_embed.table"]
    for k, g in want_grads.items():
        if g is not None:
            assert grads[k].dtype == np.float32 and grads[k].tobytes() == g.tobytes(), k
    assert want_nodes - nodes == (6 + 8) * cfg.depth + 2


# -- readers that keep a modulated norm's output ------------------------------------
# `linear` and `mlp` as they were before their backwards rebuilt a modulated
# norm's output: each keeps its input's value for its weight gradient. The
# rebuild must give the same bytes, in the spatial layout and in the
# temporal attention's transposed one.


def keeping_linear(x, w, b):
    T._check_linear(x.shape, w, b)
    xd, wd = x.data, w.data
    return T._node(T._affine(xd, wd, b.data), (x, w, b),
                   [lambda g: T._affine_grad_x(g, wd), lambda g: T._affine_grad_w(xd, g),
                    T._affine_grad_b])


def keeping_mlp(x, w1, b1, w2, b2):
    T._check_linear(x.shape, w1, b1)
    T._check_linear(x.shape[:-1] + w1.shape[1:], w2, b2)
    xd, w1d, w2d = x.data, w1.data, w2.data
    h = T._affine(xd, w1d, b1.data)
    act, cdf = T._gelu_forward(h, keep_cdf=True)

    def bw(parents, g):
        nx, nw1, nb1, nw2, nb2 = parents
        T._backprop((nw2, nb2), [lambda g: T._affine_grad_w(h * cdf, g), T._affine_grad_b], g)
        gh = T._gelu_backward(h, cdf, T._affine_grad_x(g, w2d))
        T._backprop((nx, nw1, nb1), [lambda g: T._affine_grad_x(g, w1d),
                                     lambda g: T._affine_grad_w(xd, g), T._affine_grad_b], gh)

    return Tensor._from_op(T._affine(act, w2d, b2.data), (x, w1, b1, w2, b2), bw)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("frames", [8, 32])
@pytest.mark.parametrize("cond_kind", ["captioned", "null_flag", "none"])
def test_denoiser_bit_equal_to_readers_that_keep_the_norm_output(monkeypatch, dtype, frames,
                                                                cond_kind):
    from longroad import backbone as B

    cfg = B.ModelConfig(depth=2, hidden=16, heads=2, patch=2, channels=3, t_max=20,
                        text_vocab=8, max_original_index=128)
    model = B.VideoDenoiser(cfg, np.random.default_rng(0), dtype=dtype)
    rng = np.random.default_rng(frames)
    for p in model.parameters():  # modulation and head too, which start at zero
        p.data = rng.normal(0, 0.3, size=p.shape).astype(dtype)
    x = rng.normal(size=(frames, 3, 8, 8)).astype(dtype)
    captioned = B.ConditionSet(np.array([1, 2, 5]), np.arange(frames) % 3, 10.0, 8.0, 8.0)
    cond = {"captioned": captioned, "null_flag": captioned.nulled(), "none": None}[cond_kind]
    plan = B.RopePlan(np.arange(frames) * 3)
    t = rng.integers(0, 21, size=frames)
    w = rng.normal(size=(frames, 3, 8, 8)).astype(dtype)

    def run():
        model.zero_grad()
        pred = model.forward(x, t, cond, plan)
        T.reduce_sum(T.mul(T.add(pred.eps_hat, pred.v_hat), Tensor(w))).backward()
        return ([pred.eps_hat.data, pred.v_hat.data],
                {k: p.grad for k, p in model.named_parameters().items()})

    outs, grads = run()
    monkeypatch.setattr(T, "linear", keeping_linear)
    monkeypatch.setattr(T, "mlp", keeping_mlp)
    want_outs, want_grads = run()
    for got, want in zip(outs, want_outs):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert grads.keys() == want_grads.keys()
    for k, g in want_grads.items():
        if g is None:
            assert grads[k] is None, k
        else:
            assert grads[k].dtype == dtype and grads[k].tobytes() == g.tobytes(), k


@settings(max_examples=40, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       dims=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2**32 - 1),
       frozen=st.tuples(*[st.booleans()] * 3))
def test_norm_readers_in_both_layouts_bit_equal_to_keeping_readers(dtype, dims, seed, frozen):
    # one norm output read directly (linear and mlp) and through a transpose
    # (two linears), with x, mods or the weights frozen: the rebuilt layouts
    # give the keeping readers' bytes
    l, s, h = dims
    rng = np.random.default_rng(seed)

    def leaf(shape, frozen=False):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=not frozen)

    x, mods = leaf((l, s, h), frozen[0]), leaf((l, 2 * h), frozen[1])
    w, b, w1, b1, w2, b2 = (leaf(sh, frozen[2]) for sh in
                            [(h, 3), (3,), (h, 5), (5,), (5, 2), (2,)])
    leaves = [x, mods, w, b, w1, b1, w2, b2]
    results = []
    for lin, mlp in ((T.linear, T.mlp), (keeping_linear, keeping_mlp)):
        for t in leaves:
            t.zero_grad()
        y = T.modulated_norm(x, mods, 0)
        yt = T.transpose(y, (1, 0, 2))
        outs = [lin(y, w, b), mlp(y, w1, b1, w2, b2), lin(yt, w, b), lin(yt, w, b)]
        flat = T.concat([T.reshape(o, (-1,)) for o in outs], axis=0)
        loss = T.reduce_sum(T.mul(flat, Tensor(np.random.default_rng(seed).normal(
            size=flat.shape).astype(dtype))))
        if loss.requires_grad:
            loss.backward()
        results.append([o.data for o in outs] + [t.grad for t in leaves])
    for got, want in zip(*results):
        if want is None:
            assert got is None
        else:
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_norm_output_rebuilt_once_and_released_by_the_norm(monkeypatch):
    # three linears read one transposed norm output, as temporal q/k/v do:
    # their weight gradients share one contiguous rebuild, and the norm's
    # backward frees it while the loss is still alive
    made, rebuilder = [], T._rebuilder

    def counting(*args):
        value, release = rebuilder(*args)

        def counted(axes):
            out = value(axes)
            made.append((id(out), out.flags.c_contiguous, weakref.ref(out)))
            return out

        return counted, release

    monkeypatch.setattr(T, "_rebuilder", counting)
    rng = np.random.default_rng(47)
    x, mods = t64(rng.normal(size=(3, 5, 4))), t64(rng.normal(size=(3, 8)))
    yt = T.transpose(T.modulated_norm(x, mods, 0), (1, 0, 2))
    outs = [T.linear(yt, t64(rng.normal(size=(4, 4))), t64(np.zeros(4))) for _ in range(3)]
    loss = T.reduce_sum(T.concat(outs, axis=0))
    loss.backward()
    assert len(made) == 3 and len({i for i, _, _ in made}) == 1
    assert all(contiguous and ref() is None for _, contiguous, ref in made)


# The score shapes attention takes a row max of, per block: temporal at w8,
# w16 and w32 (the last also rollout's, L = 32), cross at alpha 1 and 2
# (10 keys), spatial at alpha 1 and 2 (past the fold's width).
ROW_MAX_SHAPES = [(96, 4, 8, 8), (96, 4, 16, 16), (32, 4, 32, 32), (34, 4, 96, 10),
                  (8, 4, 384, 10), (3, 4, 96, 96), (1, 1, 384, 384)]


class TestRowMax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ROW_MAX_SHAPES)
    def test_matches_np_max(self, shape, dtype):
        # np.max's value up to the sign of a zero, and NaN in a row holding
        # one, on rows of NaN, +-0 and -inf mixes as well as plain ones
        rng = np.random.default_rng(sum(shape))
        s = rng.normal(size=shape).astype(dtype)
        rows = s.reshape(-1, shape[-1])
        n = shape[-1]
        specials = [np.nan, 0.0, -0.0, -np.inf]
        picked = rng.choice(rows.shape[0], size=min(rows.shape[0], 64), replace=False)
        for r, row in enumerate(picked):
            kind = r % 6
            if kind == 0:
                rows[row, rng.integers(n)] = np.nan
            elif kind == 1:
                rows[row] = rng.choice([0.0, -0.0], size=n)
            elif kind == 2:
                rows[row] = -np.inf
            elif kind == 3:
                rows[row] = rng.choice(specials, size=n)
            elif kind == 4:
                rows[row, [0, -1]] = np.nan
            else:
                rows[row] = rng.choice([-np.inf, -0.0, 0.0], size=n)
        got = T._row_max(s, np.empty(shape[:-1] + (1,), dtype))
        want = np.max(s, axis=-1, keepdims=True)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        plain = ~np.isnan(want) & (want != 0)
        assert got[plain].tobytes() == want[plain].tobytes()
        assert np.all(got[want == 0] == 0)

    def test_short_rows_fold(self):
        # the rows of temporal and cross attention take the fold
        assert max(shape[-1] for shape in ROW_MAX_SHAPES[:5]) <= T._FOLD_KEYS
        assert min(shape[-1] for shape in ROW_MAX_SHAPES[5:]) > T._FOLD_KEYS


def closure_objects(fn) -> list:
    """Every object a backward closure reaches through closure cells,
    defaults, tuples and lists."""
    found, todo, seen = [], [fn], set()
    while todo:
        obj = todo.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]
            todo += obj.__defaults__ or ()
        elif isinstance(obj, (tuple, list)):
            todo += obj
    return found


class TestTapeKeepsNoTensor:
    """Each backward keeps the arrays it reads and no tensor or node, so a
    value that no backward reads is freed once the forward drops it."""

    @pytest.fixture(scope="class")
    def desk_loss(self):
        # the loss of one desk-model captioned w8, alpha = 1 example, and
        # weak references to the residual stream (the gated_residual
        # outputs) and to the temporal q and k projections, which attention
        # keeps only as rotated copies
        from longroad import backbone as B
        from longroad import diffusion as D
        from longroad import training as TR

        refs = {"gated_residual": [], "temporal q/k": [], "modulated_norm": []}
        gated_residual, attention, modulated_norm = T.gated_residual, T.attention, T.modulated_norm

        def gated(*args):
            out = gated_residual(*args)
            refs["gated_residual"].append(weakref.ref(out.data))
            return out

        def attend(q, k, v, heads, scale, rope=None):
            if rope is not None:
                refs["temporal q/k"] += [weakref.ref(q.data), weakref.ref(k.data)]
            return attention(q, k, v, heads, scale, rope)

        def norm(*args):
            out = modulated_norm(*args)
            refs["modulated_norm"].append(weakref.ref(out.data))
            return out

        cfg = TR.TrainConfig()
        rng = np.random.default_rng(5)
        model = B.VideoDenoiser(B.ModelConfig(), rng)
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        part = D.FramePartition(8, 4)
        batch = D.make_batch(rng.uniform(-1, 1, (8, 3, 32, 48)).astype(np.float32), part,
                             sched, rng)
        cond = B.ConditionSet(np.array([3, 9, 27]), np.arange(8) % 3, 10.0, 32.0, 48.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "gated_residual", gated)
            mp.setattr(T, "attention", attend)
            mp.setattr(T, "modulated_norm", norm)
            pred = model.forward(batch.xt, batch.t, cond, B.RopePlan(np.arange(0, 16, 2)))
        loss = D.total_loss(batch, pred, D.loss_weights_for(part, cfg.lam), sched)
        return loss, refs

    def test_no_backward_holds_a_tensor(self, desk_loss):
        loss, _ = desk_loss
        seen, todo, ops = {id(loss._node)}, [loss._node], 0
        while todo:
            node = todo.pop()
            if node._backward is not None:
                ops += 1
                # nor a node: `Tensor.backward` hands each backward its parents'
                held = [type(o).__name__ for o in closure_objects(node._backward)
                        if isinstance(o, (Tensor, T._Node))]
                assert not held, held
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    todo.append(p)
        assert ops == 138  # every op node of TestTapeSize's example was looked into

    def test_residual_stream_and_temporal_projections_are_freed(self, desk_loss):
        # with the loss alive, the arrays no backward reads are gone
        loss, refs = desk_loss
        assert loss.requires_grad
        for name, count in (("gated_residual", 16), ("temporal q/k", 8)):
            assert [r() is None for r in refs[name]] == [True] * count, name

    def test_modulated_norm_outputs_are_freed(self, desk_loss):
        # with the loss alive, the 17 norm outputs (4 sublayers in each of 4
        # blocks, then the head's) are gone: their readers rebuild them
        loss, refs = desk_loss
        assert loss.requires_grad
        assert [r() is None for r in refs["modulated_norm"]] == [True] * 17
