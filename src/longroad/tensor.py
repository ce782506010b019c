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

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is None:
        dtype = arr.dtype if arr.dtype in _ALLOWED_DTYPES else np.float32
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return arr


class Tensor:
    """A dense array plus its slot on the autodiff tape.

    `data` is the value, `grad` the accumulated gradient (same shape, filled
    by `backward`), `_parents`/`_backward` the op record for the chain rule.
    Leaf tensors created with `requires_grad=True` act as parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
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
        out.requires_grad = _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents)
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
        src = self

        def bw(g):
            _accum(src, g.astype(src.dtype))

        return Tensor._from_op(self.data.astype(dtype), (self,), bw)

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


def _coerce(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


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


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float32))
    b = _coerce(b, a.dtype)
    out = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return Tensor._from_op(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float32))
    b = _coerce(b, a.dtype)
    out = a.data - b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape))

    return Tensor._from_op(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float32))
    b = _coerce(b, a.dtype)
    out = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out, (a, b), bw)


def div(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float32))
    b = _coerce(b, a.dtype)
    out = a.data / b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor._from_op(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, -g)

    return Tensor._from_op(-a.data, (a,), bw)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def bw(g):
        _accum(a, g * out)

    return Tensor._from_op(out, (a,), bw)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericDomainError("log requires strictly positive input")
    out = np.log(a.data)

    def bw(g):
        _accum(a, g / a.data)

    return Tensor._from_op(out, (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise NumericDomainError("sqrt requires nonnegative input")
    out = np.sqrt(a.data)

    def bw(g):
        _accum(a, g * 0.5 / out)

    return Tensor._from_op(out, (a,), bw)


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
    out, cdf = _gelu_forward(x, keep_cdf=_GRAD_ENABLED[-1] and a.requires_grad)

    def bw(g):
        _accum(a, _gelu_backward(x, cdf, g))

    return Tensor._from_op(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bw(g):
        _accum(a, g * out * (1.0 - out))

    return Tensor._from_op(out, (a,), bw)


# -- softmax / layer norm -----------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis`."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(a, out * (g - dot))

    return Tensor._from_op(out, (a,), bw)


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

    def bw(g):
        if gain.requires_grad:
            other = tuple(i for i in range(x.ndim) if i != ax)
            _accum(gain, (g * xhat).sum(axis=other))
        if bias.requires_grad:
            other = tuple(i for i in range(x.ndim) if i != ax)
            _accum(bias, g.sum(axis=other))
        if x.requires_grad:
            dxhat = g * gd
            # standard layer-norm backward over the normalized axis
            m1 = dxhat.mean(axis=ax, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=ax, keepdims=True)
            _accum(x, inv * (dxhat - m1 - xhat * m2))

    return Tensor._from_op(out, (x, gain, bias), bw)


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

    def bw(g):
        if a.requires_grad:
            ga = np.matmul(g, b.data.swapaxes(-1, -2))
            _accum(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(a.data.swapaxes(-1, -2), g)
            _accum(b, _unbroadcast(gb, b.shape))

    return Tensor._from_op(out, (a, b), bw)


# -- fused layers: one tape node each, hand-written backward -----------------------


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """`x @ w + b` over the last axis, the leading axes folded into one GEMM."""
    d_in, d_out = w.shape
    out = np.empty(x.shape[:-1] + (d_out,), dtype=np.result_type(x, w))
    np.matmul(x.reshape(-1, d_in), w, out=out.reshape(-1, d_out))
    if b is not None:
        out += b
    return out


def _affine_backward(x: np.ndarray, w: Tensor, b: Tensor | None, g: np.ndarray,
                     need_x: bool) -> np.ndarray | None:
    """Accumulate the weight and bias gradients of `_affine(x, w, b)` for the
    output gradient `g`; return the input gradient if `need_x`."""
    d_in, d_out = w.shape
    g2 = g.reshape(-1, d_out)
    gx = None
    if need_x:
        gx = np.empty(x.shape, dtype=g.dtype)
        np.matmul(g2, w.data.T, out=gx.reshape(-1, d_in))
    if w.requires_grad:
        _accum(w, x.reshape(-1, d_in).T @ g2)
    if b is not None and b.requires_grad:
        _accum(b, g2.sum(axis=0))
    return gx


def _check_linear(x_shape: tuple[int, ...], w: Tensor, b: Tensor | None):
    if w.ndim != 2 or len(x_shape) < 1 or x_shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs (..., d_in) x (d_in, d_out), got {x_shape} x {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} does not match weight {w.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """`x @ w + b` over the last axis of `x`. Leading axes fold into one 2-D
    GEMM, forward and backward, so the weight gradient is `x2ᵀ @ g2`."""
    _check_linear(x.shape, w, b)
    out = _affine(x.data, w.data, None if b is None else b.data)

    def bw(g):
        gx = _affine_backward(x.data, w, b, g, x.requires_grad)
        if gx is not None:
            _accum(x, gx)

    return Tensor._from_op(out, (x, w) if b is None else (x, w, b), bw)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """`linear(gelu(linear(x, w1, b1)), w2, b2)`, the two-layer MLP with exact
    GELU. The tape keeps fc1's output and the GELU cdf, not the GELU output:
    fc2's weight gradient rebuilds that as their product, which is the
    forward's own `x * cdf` bit for bit."""
    _check_linear(x.shape, w1, b1)
    _check_linear(x.shape[:-1] + w1.shape[1:], w2, b2)
    parents = (x, w1, b1, w2, b2)
    track = _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents)
    h = _affine(x.data, w1.data, b1.data)
    act, cdf = _gelu_forward(h, keep_cdf=track)
    if not track:
        h = None  # without a backward, fc1's output can go before fc2's GEMM
    out = _affine(act, w2.data, b2.data)

    def bw(g):
        need_h = x.requires_grad or w1.requires_grad or b1.requires_grad
        g_act = _affine_backward(h * cdf if w2.requires_grad else h, w2, b2, g, need_h)
        if need_h:
            gh = _gelu_backward(h, cdf, g_act)
            del g_act
            gx = _affine_backward(x.data, w1, b1, gh, x.requires_grad)
            if gx is not None:
                _accum(x, gx)

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

    def bw(g):
        if x.requires_grad:
            _accum(x, g)
        if gate.requires_grad:
            _accum(gate, _unbroadcast(g * y.data, gate.shape))
        if y.requires_grad:
            _accum(y, g * gate.data)

    return Tensor._from_op(out, (x, gate, y), bw)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(B, n, H) -> (B, heads, n, H/heads), a view."""
    b, n, h = x.shape
    return x.reshape(b, n, heads, h // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, heads, n, dh) -> a new (B, n, heads*dh) array."""
    b, heads, n, dh = x.shape
    out = np.empty((b, n, heads * dh), dtype=x.dtype)
    out.reshape(b, n, heads, dh)[...] = x.transpose(0, 2, 1, 3)
    return out


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary encoding: turn the disjoint half-pairs of the last axis of
    (..., L, dh) by each position's angle; `_rotate(y, cos, -sin)` undoes it."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    out = np.empty(x.shape, dtype=x.dtype)
    out[..., :half] = x1 * cos - x2 * sin
    out[..., half:] = x1 * sin + x2 * cos
    return out


def attention_scores(q: np.ndarray, k: np.ndarray, heads: int, scale: float,
                     rope=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split (B, n, H) projections into heads, rotate q and k by `rope`
    (cos, sin tables of shape (n, dh/2)), and return the rotated heads with
    the pre-softmax scores `qh @ khᵀ · scale` of shape (B, heads, n_q, n_kv)."""
    qh, kh = _split_heads(q, heads), _split_heads(k, heads)
    if rope is not None:
        cos, sin = rope
        qh, kh = _rotate(qh, cos, sin), _rotate(kh, cos, sin)
    scores = np.matmul(qh, kh.swapaxes(-1, -2))
    scores *= scale
    return qh, kh, scores


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float,
              rope=None) -> Tensor:
    """Multi-head `softmax(q kᵀ · scale) v` over (B, n_q, H) queries and
    (B, n_kv, H) keys/values, heads merged back into (B, n_q, H). The tape
    keeps only the attention weights and the rotated heads."""
    if (q.ndim != 3 or k.shape != v.shape or k.ndim != 3 or k.shape[0] != q.shape[0]
            or k.shape[2] != q.shape[2] or q.shape[2] % heads):
        raise ShapeError(f"attention needs (B, n_q, H) and two (B, n_kv, H) with H "
                         f"divisible by {heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    qh, kh, p = attention_scores(q.data, k.data, heads, scale, rope)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    vh = _split_heads(v.data, heads)

    def unrotate(gh):
        return gh if rope is None else _rotate(gh, rope[0], -rope[1])

    def bw(g):
        gh = _split_heads(g, heads)
        if v.requires_grad:
            _accum(v, _merge_heads(np.matmul(p.swapaxes(-1, -2), gh)))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = np.matmul(gh, vh.swapaxes(-1, -2))        # d(weights)
        ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
        ds *= p
        ds *= scale                                     # d(scores)
        if q.requires_grad:
            _accum(q, _merge_heads(unrotate(np.matmul(ds, kh))))
        if k.requires_grad:
            _accum(k, _merge_heads(unrotate(np.matmul(ds.swapaxes(-1, -2), qh))))

    return Tensor._from_op(_merge_heads(np.matmul(p, vh)), (q, k, v), bw)


def modulated_norm(x: Tensor, shift: Tensor, scale: Tensor, eps: float) -> Tensor:
    """`layer_norm(x) · (1 + scale) + shift` over the last axis, with no
    learned gain or bias (adaLN modulation); `shift` and `scale` broadcast
    against `x`."""
    if shift.shape != scale.shape or x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"modulated_norm got x {x.shape}, shift {shift.shape}, "
                         f"scale {scale.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat *= inv
    gain = scale.data + 1.0
    out = xhat * gain
    out += shift.data

    def bw(g):
        if shift.requires_grad:
            _accum(shift, _unbroadcast(g, shift.shape))
        if scale.requires_grad:
            _accum(scale, _unbroadcast(g * xhat, scale.shape))
        if x.requires_grad:
            d = g * gain                                # d(xhat)
            m2 = np.einsum("...i,...i->...", d, xhat)[..., None] / x.shape[-1]
            d -= d.mean(axis=-1, keepdims=True)
            d -= xhat * m2
            d *= inv
            _accum(x, d)

    return Tensor._from_op(out, (x, shift, scale), bw)


# -- reductions -------------------------------------------------------------------


def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(a % ndim for a in axes)


def reduce_sum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    ax = _norm_axes(axes, a.ndim)
    out = a.data.sum(axis=ax, keepdims=keepdims)

    def bw(g):
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, ax)
        _accum(a, np.broadcast_to(gg, a.shape).copy())

    return Tensor._from_op(out, (a,), bw)


def reduce_mean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    ax = _norm_axes(axes, a.ndim)
    count = 1
    for i in ax:
        count *= a.shape[i]
    out = a.data.mean(axis=ax, keepdims=keepdims)

    def bw(g):
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, ax)
        _accum(a, np.broadcast_to(gg, a.shape) / count)

    return Tensor._from_op(out, (a,), bw)


# -- structural ops ---------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.shape))

    return Tensor._from_op(out, (a,), bw)


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.data, axes)

    def bw(g):
        if axes is None:
            _accum(a, np.transpose(g))
        else:
            _accum(a, np.transpose(g, np.argsort(axes)))

    return Tensor._from_op(out, (a,), bw)


def slice_(a: Tensor, idx) -> Tensor:
    """Basic (int/slice/tuple) indexing; gradient scatters back into place."""
    out = a.data[idx]

    def bw(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return Tensor._from_op(out, (a,), bw)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def bw(g):
        offsets = np.cumsum([0] + sizes)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(t, g[tuple(sl)])

    return Tensor._from_op(out, tuple(tensors), bw)


def gather(table: Tensor, indices) -> Tensor:
    """Row lookup `table[indices]`; gradients scatter-add into the table."""
    idx = np.asarray(indices)
    if idx.size and (idx.min() < -table.shape[0] or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather index out of range for table with {table.shape[0]} rows"
        )
    out = table.data[idx]

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full)

    return Tensor._from_op(out, (table,), bw)


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
