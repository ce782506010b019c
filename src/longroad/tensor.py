"""Dense N-d float arrays with reverse-mode automatic differentiation.

numpy-backed, CPU-only, float32/float64. Every op is a pure function of its
inputs; tensors that participate in a tape are never mutated in place.
Broadcasting follows numpy's trailing-axis alignment. A tensor produced by an
op records its parents and a backward closure; `backward()` on a scalar loss
walks the tape once in reverse topological order.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, NumericDomainError, ShapeError

_ALLOWED_DTYPES = (np.float32, np.float64)

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording (values only, e.g. during sampling)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _recording(parents) -> bool:
    """Whether an op on `parents` goes on the tape: recording is on and some
    parent needs a gradient."""
    return _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense array plus its slot on the autodiff tape.

    `data` is the value, `grad` the accumulated gradient (same shape, filled
    by `backward`), `_parents`/`_backward` the op record for the chain rule.
    Leaf tensors created with `requires_grad=True` act as parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)  # float32 and float64 stay, anything else becomes float32
        self.data = np.ascontiguousarray(
            arr, arr.dtype if arr.dtype in _ALLOWED_DTYPES else np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _recording(parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward_fn
        else:
            out._parents = ()
            out._backward = None
        return out

    # -- basic protocol --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Same value, cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        return _node(self.data.astype(dtype), (self,), [lambda g: g.astype(self.dtype)])

    # -- autodiff ---------------------------------------------------------------

    def backward(self):
        """Reverse-mode pass from a scalar. Accumulates into `.grad` of every
        reachable tensor with `requires_grad`.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        seed = np.ones_like(self.data)
        _accum(self, seed)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None  # only leaves keep gradients; frees the tape early

    def __getitem__(self, idx):
        return slice_(self, idx)


def _accum(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = g.copy() if not g.flags.owndata else g
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


def _node(out: np.ndarray, parents: tuple[Tensor, ...], grads) -> Tensor:
    """The tape node of an op whose parents' gradients share no work.

    `grads[i](g)` is parent i's local gradient for the output gradient `g`;
    the node's backward is `_backprop` over all parents.

    Two ops keep a backward of their own, because one intermediate gradient
    feeds several parents and is built once: in `mlp`, fc1's output gradient
    `gh` feeds `x`, `w1` and `b1`; in `attention`, the score gradient `ds`
    feeds `q` and `k`. Both accumulate through `_backprop`.
    """
    return Tensor._from_op(out, parents, lambda g: _backprop(parents, grads, g))


def _backprop(parents: tuple[Tensor, ...], grads, g: np.ndarray):
    """Skip a parent that needs no gradient, sum the rest back to the
    parent's shape and accumulate them in parent order, so a tensor passed
    twice (`mul(x, x)`) adds its two terms in that order."""
    for p, grad in zip(parents, grads):
        if p.requires_grad:
            _accum(p, _unbroadcast(grad(g), p.shape))


# -- elementwise arithmetic ---------------------------------------------------


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """A binary op's operands as tensors: `a` is one, and a non-tensor `b`
    takes its dtype."""
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    return a, b


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data + b.data, (a, b), [lambda g: g, lambda g: g])


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data - b.data, (a, b), [lambda g: g, lambda g: -g])


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data * b.data, (a, b), [lambda g: g * b.data, lambda g: g * a.data])


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data / b.data, (a, b),
                 [lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)])


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), [lambda g: -g])


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), [lambda g: g * out])


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericDomainError("log requires strictly positive input")
    return _node(np.log(a.data), (a,), [lambda g: g / a.data])


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise NumericDomainError("sqrt requires nonnegative input")
    out = np.sqrt(a.data)
    return _node(out, (a,), [lambda g: g * 0.5 / out])


# -- GELU -----------------------------------------------------------------------
#
# GELU is x * Phi(x) = x * (1 + erf(x / sqrt 2)) / 2, and scipy's erf, ~12 ns an
# element, was a third of a denoiser forward. The float32 path computes erf in
# float64 from add/multiply/divide ufuncs, in cache-sized blocks, and rounds it
# to float32. Where that cannot settle the float32 value (|y| > 2, y not
# normal, or the float64 value within its error bound of a float32 rounding
# midpoint), the block hands the element to scipy, which stays the definition:
# the output is bit-equal to `x * (0.5 * (1 + scipy.special.erf(x * (1 / sqrt 2))))`
# at every float32 x, which tests/test_tensor.py checks over all 2**32 bit
# patterns (`slow`).


def _hex(*coeffs: str) -> tuple[float, ...]:
    return tuple(float.fromhex(c) for c in coeffs)


# erf(y) = y P(y^2) / Q(y^2) on |y| <= 2, ascending powers; Q is monic, and
# _ERF_Q holds its coefficients below the leading 1. A (4, 5) rational fitted
# to erf in 50-digit arithmetic; relative error 1.4e-11 as evaluated below.
# Every coefficient is positive, so Horner's rule adds no cancellation.
_ERF_P = _hex("0x1.01f68a8b94560p+16", "0x1.0fe7d4d8f70a5p+13", "0x1.4bb9de829cf71p+11",
              "0x1.cb8c98f06e701p+6", "0x1.48a166709b3d6p+3")
_ERF_Q = _hex("0x1.c93a4442e94efp+15", "0x1.a94dad9a0bcfap+14", "0x1.5c480e297c0d7p+12",
              "0x1.3b6a1f25d32e1p+9", "0x1.3a1a8011be42dp+5")
# Guard band, in float64 ulps of the value's binade, either side of a float32
# rounding midpoint (low 29 mantissa bits 1 << 28). It covers the
# approximation error (1.4e-11 relative is <= 1.24e5 ulps) with room for
# Horner's and scipy's few ulps; over every float32 |y| <= 2 the kernel's
# float64 erf and scipy's differ by at most 122,984 ulps. So a value outside
# the band rounds to float32 as scipy's does.
_ERF_GUARD = 1 << 18
_LOW29 = (1 << 29) - 1
# Blocks of 16K elements keep the float64 scratch (3 x 128 KB) in L2.
_GELU_BLOCK = 1 << 14
# |y| bits from the smallest normal float32 (below it erf is subnormal) to 2.0
_MAIN_LO = 0x00800000
_MAIN_SPAN = 0x40000000 - _MAIN_LO


def _horner(acc: np.ndarray, t: np.ndarray, coeffs: tuple[float, ...]):
    """Finish Horner's rule in place: acc <- (...(acc t + c[-1]) t ...) + c[0]."""
    for c in coeffs[::-1]:
        np.multiply(acc, t, out=acc)
        np.add(acc, c, out=acc)


def _gelu32(x: np.ndarray, keep_cdf: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """float32 GELU forward; returns (out, cdf), cdf None unless `keep_cdf`.

    One pass over 16K-element blocks. In each, the float64 rational gives
    erf(y), and the elements it cannot settle (|y| > 2; zero, subnormal or
    non-finite y; near a midpoint) get scipy's erf before the cdf is formed.
    Scratch is allocated once per call and reused block to block; without
    `keep_cdf` no array of x's size is made besides `out`.
    """
    flat = x.reshape(-1)
    n = flat.size
    out = np.empty_like(flat)
    cdf = np.empty_like(flat) if keep_cdf else None
    size = max(1, min(n, _GELU_BLOCK))
    f32, f64, flags = np.empty((2, size), np.float32), np.empty((3, size)), np.empty((2, size), bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, size):
            stop = min(start + size, n)
            k = stop - start
            (y, spare), (d, z, num), (hit, mid) = f32[:, :k], f64[:, :k], flags[:, :k]
            xb = flat[start:stop]
            np.multiply(xb, _INV_SQRT2, out=y)  # float32, as the reference rounds it
            d[...] = y
            bits = spare.view(np.uint32)
            np.bitwise_and(y.view(np.uint32), 0x7FFFFFFF, out=bits)
            np.subtract(bits, _MAIN_LO, out=bits)
            np.greater(bits, _MAIN_SPAN, out=hit)  # |y| > 2, zero, subnormal or not finite
            np.multiply(d, d, out=z)
            np.multiply(z, _ERF_P[4], out=num)
            np.add(num, _ERF_P[3], out=num)
            _horner(num, z, _ERF_P[:3])
            np.multiply(num, d, out=num)
            den = d  # d is no longer needed
            np.add(z, _ERF_Q[4], out=den)
            _horner(den, z, _ERF_Q[:4])
            np.divide(num, den, out=num)
            low = z.view(np.uint64)  # z is no longer needed
            np.subtract(num.view(np.uint64), (1 << 28) - _ERF_GUARD, out=low)
            np.bitwise_and(low, _LOW29, out=low)
            np.less(low, 2 * _ERF_GUARD, out=mid)  # near a float32 rounding midpoint
            np.logical_or(hit, mid, out=hit)
            idx = np.flatnonzero(hit)
            settled = spare[:idx.size]
            np.take(y, idx, out=settled, mode="clip")  # "raise" would buffer
            _erf(settled, out=settled)
            cb = cdf[start:stop] if keep_cdf else y
            cb[...] = num
            cb[idx] = settled
            cb += 1.0
            cb *= 0.5
            np.multiply(xb, cb, out=out[start:stop])
    return out.reshape(x.shape), None if cdf is None else cdf.reshape(x.shape)


def _gelu_forward(x: np.ndarray, keep_cdf: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU of an array and, if `keep_cdf`, its cdf; `out` is `x * cdf` bit
    for bit in both dtypes."""
    if x.dtype == np.float32:
        return _gelu32(x, keep_cdf)
    cdf = _erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_backward(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * (cdf + x * pdf), built in one buffer from the forward cdf."""
    pdf = x * x
    pdf *= -0.5
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT2PI
    pdf *= x
    pdf += cdf
    pdf *= g
    return pdf


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU; float32 through `_gelu32`, bit-equal to scipy's erf."""
    x = a.data
    out, cdf = _gelu_forward(x, keep_cdf=_recording((a,)))
    return _node(out, (a,), [lambda g: _gelu_backward(x, cdf, g)])


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _node(out, (a,), [lambda g: g * out * (1.0 - out)])


# -- softmax / layer norm -----------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis`."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    return _node(out, (a,), [lambda g: out * (g - (g * out).sum(axis=axis, keepdims=True))])


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, axis: int = -1,
               epsilon: float = 1e-5) -> Tensor:
    """Normalize `axis` to zero mean / unit variance, then apply gain and bias."""
    n = x.shape[axis] if -x.ndim <= axis < x.ndim else 0
    if n == 0:
        raise ShapeError(f"layer_norm axis {axis} is zero-length or invalid for shape {x.shape}")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias shapes {gain.shape}/{bias.shape} do not match axis extent {n}"
        )
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
    other = tuple(i for i in range(x.ndim) if i != ax)

    def grad_x(g):
        dxhat = g * gd
        # standard layer-norm backward over the normalized axis
        m1 = dxhat.mean(axis=ax, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=ax, keepdims=True)
        return inv * (dxhat - m1 - xhat * m2)

    return _node(out, (x, gain, bias),
                 [grad_x, lambda g: (g * xhat).sum(axis=other), lambda g: g.sum(axis=other)])


# -- contraction ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul batch extents not broadcastable: {a.shape} x {b.shape}") from e
    return _node(out, (a, b), [lambda g: np.matmul(g, b.data.swapaxes(-1, -2)),
                               lambda g: np.matmul(a.data.swapaxes(-1, -2), g)])


# -- fused layers: one tape node each ---------------------------------------------


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x @ w + b` over the last axis, the leading axes folded into one GEMM."""
    d_in, d_out = w.shape
    out = np.empty(x.shape[:-1] + (d_out,), dtype=np.result_type(x, w))
    np.matmul(x.reshape(-1, d_in), w, out=out.reshape(-1, d_out))
    out += b
    return out


# The local gradients of `_affine(x, w, b)` for its output gradient `g`, each
# over the folded 2-D view. The input gradient is a new array that `_accum`
# keeps without a copy.


def _affine_grad_x(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    d_in, d_out = w.shape
    gx = np.empty(g.shape[:-1] + (d_in,), dtype=g.dtype)
    np.matmul(g.reshape(-1, d_out), w.T, out=gx.reshape(-1, d_in))
    return gx


def _affine_grad_w(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _affine_grad_b(g: np.ndarray) -> np.ndarray:
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def _affine_grads(x: Tensor, w: Tensor) -> list:
    """The local gradients of x, w and b, as `_node` and `_backprop` take them."""
    return [lambda g: _affine_grad_x(g, w.data), lambda g: _affine_grad_w(x.data, g),
            _affine_grad_b]


def _check_linear(x_shape: tuple[int, ...], w: Tensor, b: Tensor):
    if w.ndim != 2 or len(x_shape) < 1 or x_shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs (..., d_in) x (d_in, d_out), got {x_shape} x {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} does not match weight {w.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` over the last axis of `x`. Leading axes fold into one 2-D
    GEMM, forward and backward, so the weight gradient is `x2ᵀ @ g2`."""
    _check_linear(x.shape, w, b)
    return _node(_affine(x.data, w.data, b.data), (x, w, b), _affine_grads(x, w))


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """`linear(gelu(linear(x, w1, b1)), w2, b2)`, the two-layer MLP with exact
    GELU. The tape keeps fc1's output and the GELU cdf, not the GELU output:
    fc2's weight gradient rebuilds that as their product, which is the
    forward's own `x * cdf` bit for bit."""
    _check_linear(x.shape, w1, b1)
    _check_linear(x.shape[:-1] + w1.shape[1:], w2, b2)
    parents = (x, w1, b1, w2, b2)
    track = _recording(parents)
    h = _affine(x.data, w1.data, b1.data)
    act, cdf = _gelu_forward(h, keep_cdf=track)
    if not track:
        h = None  # without a backward, fc1's output can go before fc2's GEMM
    out = _affine(act, w2.data, b2.data)

    def bw(g):
        need_h = x.requires_grad or w1.requires_grad or b1.requires_grad
        g_act = _affine_grad_x(g, w2.data) if need_h else None
        _backprop((w2, b2), [lambda g: _affine_grad_w(h * cdf, g), _affine_grad_b], g)
        if need_h:
            gh = _gelu_backward(h, cdf, g_act)
            del g_act
            _backprop((x, w1, b1), _affine_grads(x, w1), gh)

    return Tensor._from_op(out, parents, bw)


def gated_residual(x: Tensor, gate: Tensor, y: Tensor) -> Tensor:
    """`x + gate * y`, a gated residual update, as one node; `gate` broadcasts
    against `y`, whose shape is `x`'s. The backward reads only `gate` and
    `y`, so the tape keeps no product."""
    if y.shape != x.shape or gate.ndim > y.ndim or any(
            g not in (1, d) for g, d in zip(gate.shape[::-1], y.shape[::-1])):
        raise ShapeError(f"gated_residual needs x and y of one shape and a gate that "
                         f"broadcasts to it, got {x.shape}, {gate.shape}, {y.shape}")
    out = gate.data * y.data
    out += x.data
    return _node(out, (x, gate, y), [lambda g: g, lambda g: g * y.data, lambda g: g * gate.data])


# Attention runs in blocks of at most this many score elements (512 KB of
# float32), so each block's scores and weights stay in L2.
_ATTN_BLOCK = 1 << 17


def _split_heads(x: np.ndarray, heads: int, rope=None) -> np.ndarray:
    """(B, n, H) -> (B, heads, n, H/heads): a view, or with `rope` (cos, sin
    tables of shape (n, dh/2)) a rotated copy."""
    b, n, h = x.shape
    xh = x.reshape(b, n, heads, h // heads).transpose(0, 2, 1, 3)
    if rope is None:
        return xh
    if h // heads % 2 or any(np.shape(t) != (n, h // heads // 2) for t in rope):
        raise ShapeError(f"rope needs two (n, head_dim / 2) tables with n_q = n_kv = n, got "
                         f"{[np.shape(t) for t in rope]} for {x.shape} in {heads} heads")
    return _rotate(xh, *rope)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, out=None) -> np.ndarray:
    """Rotary encoding: turn the disjoint half-pairs of the last axis of
    (..., L, dh) by each position's angle, into `out` if given;
    `_rotate(y, cos, -sin)` undoes it."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    out = np.empty(x.shape, dtype=x.dtype) if out is None else out
    out[..., :half] = x1 * cos - x2 * sin
    out[..., half:] = x1 * sin + x2 * cos
    return out


def _scores(qh: np.ndarray, kh: np.ndarray, scale: float, out=None) -> np.ndarray:
    """Pre-softmax scores `qh @ khᵀ · scale` of split heads, into `out` if given."""
    s = np.matmul(qh, kh.swapaxes(-1, -2), out=out)
    s *= scale
    return s


def attention_scores(q: np.ndarray, k: np.ndarray, heads: int, scale: float,
                     rope=None) -> np.ndarray:
    """The (B, heads, n_q, n_kv) pre-softmax scores of (B, n, H) projections,
    split, rotated and scored as `attention` does it."""
    return _scores(_split_heads(q, heads, rope), _split_heads(k, heads, rope), scale)


def _attention_blocks(b: int, heads: int, n_q: int, n_kv: int) -> list[tuple[slice, slice]]:
    """(batch, head) slices covering (b, heads) in blocks of at most
    `_ATTN_BLOCK` scores, or of one head: whole batch rows, or one row's
    heads split. Queries and keys are never split (`gk` sums over queries)."""
    per_head = max(1, n_q * n_kv)
    rows, cols = _ATTN_BLOCK // (heads * per_head), min(heads, _ATTN_BLOCK // per_head)
    rows, cols = max(1, rows), max(1, cols)
    return [(slice(i, i + rows), slice(j, j + cols))
            for i in range(0, b, rows) for j in range(0, heads, cols)]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float,
              rope=None) -> Tensor:
    """Multi-head `softmax(q kᵀ · scale) v` over (B, n_q, H) queries and
    (B, n_kv, H) keys/values, heads merged back into (B, n_q, H).

    Each block of `_attention_blocks` builds its weights, writes them times
    v into the merged output and drops them. The tape keeps the rotated
    heads (views of q and k without `rope`) and each score row's max and
    sum, (B, heads, n_q, 1) each; the backward rebuilds each block's weights
    with the forward's operations, so every bit is a one-shot softmax's."""
    if (q.ndim != 3 or k.shape != v.shape or k.ndim != 3 or k.shape[0] != q.shape[0]
            or k.shape[2] != q.shape[2] or k.shape[1] == 0 or heads < 1
            or q.shape[2] % heads):
        raise ShapeError(f"attention needs (B, n_q, H) and two (B, n_kv >= 1, H) with H "
                         f"divisible by {heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    b, n_q, _ = q.shape
    qh, kh = _split_heads(q.data, heads, rope), _split_heads(k.data, heads, rope)
    vh = _split_heads(v.data, heads)
    blocks = _attention_blocks(b, heads, n_q, k.shape[1])
    # room for one block's scores: the first block is as large as any
    block_shape = (qh[blocks[0]].shape[:2] if blocks else (0, 0)) + (n_q, k.shape[1])
    dt, out_dt = np.result_type(qh, kh), np.result_type(qh, kh, vh)
    row_max, row_sum = np.empty((2, b, heads, n_q, 1), dt)

    def weights(blk, buf, fresh):
        # the block's weights in `buf`; `fresh` takes each row's max and sum
        qb = qh[blk]
        s = _scores(qb, kh[blk], scale, out=buf[:qb.shape[0], :qb.shape[1]])
        if fresh:
            np.max(s, axis=-1, keepdims=True, out=row_max[blk])
        s -= row_max[blk]
        np.exp(s, out=s)
        if fresh:
            np.sum(s, axis=-1, keepdims=True, out=row_sum[blk])
        s /= row_sum[blk]
        return s

    out = np.empty(q.shape, out_dt)
    out_h, buf = _split_heads(out, heads), np.empty(block_shape, dt)
    for blk in blocks:
        np.matmul(weights(blk, buf, True), vh[blk], out=out_h[blk])

    def head_grad(ds, xh, out):  # `ds @ xh`, unrotated, into a merged gradient
        if rope is None:
            return np.matmul(ds, xh, out=out)
        _rotate(np.matmul(ds, xh), rope[0], -rope[1], out=out)

    def bw(g):
        gh, g_dt = _split_heads(g, heads), np.result_type(out_dt, g)
        gv, gq, gk = (np.empty(t.shape, g_dt) if t.requires_grad else None for t in (v, q, k))
        p_buf, ds_buf = np.empty(block_shape, dt), np.empty(block_shape, g_dt)
        for blk in blocks:
            p = weights(blk, p_buf, False)
            if gv is not None:
                np.matmul(p.swapaxes(-1, -2), gh[blk], out=_split_heads(gv, heads)[blk])
            ds = np.matmul(gh[blk], vh[blk].swapaxes(-1, -2), out=ds_buf[:p.shape[0], :p.shape[1]])
            ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
            ds *= p
            ds *= scale                                     # d(scores)
            if gq is not None:
                head_grad(ds, kh[blk], _split_heads(gq, heads)[blk])
            if gk is not None:
                head_grad(ds.swapaxes(-1, -2), qh[blk], _split_heads(gk, heads)[blk])
        _backprop((v, q, k), (lambda _: gv, lambda _: gq, lambda _: gk), g)

    return Tensor._from_op(out, (q, k, v), bw)


def modulated_norm(x: Tensor, shift: Tensor, scale: Tensor) -> Tensor:
    """`layer_norm(x) · (1 + scale) + shift` over the last axis, epsilon
    1e-6, with no learned gain or bias (adaLN modulation); `shift` and
    `scale` broadcast against `x`."""
    if shift.shape != scale.shape or x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"modulated_norm got x {x.shape}, shift {shift.shape}, "
                         f"scale {scale.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(1e-6, dtype=x.dtype))
    xhat *= inv
    gain = scale.data + 1.0
    out = xhat * gain
    out += shift.data

    def grad_x(g):
        d = g * gain                                    # d(xhat)
        m2 = np.einsum("...i,...i->...", d, xhat)[..., None] / x.shape[-1]
        d -= d.mean(axis=-1, keepdims=True)
        d -= xhat * m2
        d *= inv
        return d

    return _node(out, (x, shift, scale), [grad_x, lambda g: g, lambda g: g * xhat])


# -- reductions -------------------------------------------------------------------


def _norm_axes(axes, ndim):
    """A tuple of axes, or None for all of them, as nonnegative axes."""
    return tuple(range(ndim)) if axes is None else tuple(a % ndim for a in axes)


def reduce_sum(a: Tensor, axes=None) -> Tensor:
    ax = _norm_axes(axes, a.ndim)
    return _node(a.data.sum(axis=ax), (a,),
                 [lambda g: np.broadcast_to(np.expand_dims(g, ax), a.shape).copy()])


def reduce_mean(a: Tensor, axes=None) -> Tensor:
    ax = _norm_axes(axes, a.ndim)
    count = 1
    for i in ax:
        count *= a.shape[i]
    return _node(a.data.mean(axis=ax), (a,),
                 [lambda g: np.broadcast_to(np.expand_dims(g, ax), a.shape) / count])


# -- structural ops ---------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    return _node(a.data.reshape(shape), (a,), [lambda g: g.reshape(a.shape)])


def transpose(a: Tensor, axes) -> Tensor:
    return _node(np.transpose(a.data, axes), (a,), [lambda g: np.transpose(g, np.argsort(axes))])


def slice_(a: Tensor, idx) -> Tensor:
    """Basic (int/slice/tuple) indexing; gradient scatters back into place."""
    def scatter(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return full

    return _node(a.data[idx], (a,), [scatter])


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    lead = (slice(None),) * (axis % out.ndim)
    # one index per parent, bound as a default: a closure would see the last
    parts = [lead + (slice(lo, hi),) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _node(out, tuple(tensors), [lambda g, part=part: g[part] for part in parts])


def gather(table: Tensor, indices) -> Tensor:
    """Row lookup `table[indices]`; gradients scatter-add into the table."""
    idx = np.asarray(indices)
    if idx.size and (idx.min() < -table.shape[0] or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather index out of range for table with {table.shape[0]} rows"
        )

    def scatter_add(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return full

    return _node(table.data[idx], (table,), [scatter_add])


# -- gradient checking (float64 oracle) --------------------------------------------


def finite_difference(fn, inputs: list[Tensor], h: float = 1e-6,
                      max_coords: int | None = None, rng=None) -> list[np.ndarray]:
    """Central-difference gradients of scalar `fn(*inputs)` w.r.t. each input.

    Independent of the tape: evaluates fn twice per coordinate. When
    `max_coords` is set, only a random sample of coordinates per input is
    probed and the rest are NaN (compare where finite).
    """
    grads = []
    for t in inputs:
        g = np.full(t.data.shape, np.nan, dtype=np.float64)
        flat = t.data.reshape(-1)
        n = flat.size
        coords = range(n)
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            hi = fn(*inputs).item()
            flat[i] = orig - step
            lo = fn(*inputs).item()
            flat[i] = orig
            g.reshape(-1)[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads
