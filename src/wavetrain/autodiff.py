"""Minimal deterministic reverse-mode automatic differentiation.

Tensors hold row-major float32 buffers, and each owns a node of the implicit
tape (the operation graph): its gradient, its backward rule, the nodes of its
parents that take gradient, and its shape. A leaf's node (a parameter or an
input) has no rule and no parents; a primitive that takes a tensor requiring
gradient gives its output both. The node does not hold the output's array,
and each rule keeps only the arrays it reads: conv2d its weight, plus its
input when the weight trains; batch norm x-hat and its scale, plus its input
for an eval-mode trainable gamma; relu a boolean mask; linear the other
operand; add, scale, the global average and the wavelet filters nothing but
shapes. So an activation dies as soon as the forward drops its last
reference, unless a rule reads that very array. A rule keeps such an
array by reference, not as a copy, so nothing may write to an array after a
primitive has read it until the backward is done: the model's in-place ReLU
overwrites only an activation the forward has just made, before any
primitive reads it, and the optimiser steps after the backward.

``no_grad(*leaves)`` is the one tape switch: inside it a primitive is
recorded only when one of its inputs is one of ``leaves`` or was recorded
from them there, so a gradient for one tensor (an attack's input, Grad-CAM's
features) builds no rule for any other; ``no_grad()`` records nothing.

``t.backward(grad)`` seeds the tape with ``grad``, the gradient with
respect to ``t`` (of t's shape), and replays the recorded rules in reverse
topological order, visiting each node exactly once. The walk consumes the
tape: as soon as a node's rule has run, the node lets go of its gradient, its
rule (and with it the arrays the rule saved) and its parents, so the graph is
freed while it is walked and only leaves keep ``grad``. Gradient that reaches
a walked node raises UsageError rather than being summed a second time.

Reductions (means, batch statistics, losses), dense products and a
convolution whose columns fit in one block accumulate in float64 before
rounding back to float32, which keeps finite-difference gradient checks
stable. Larger convolutions stream their im2col columns through batch blocks
of at most ``_BLOCK`` elements with float32 BLAS, so no full column matrix is
ever built or kept on the tape. Each block is zero-padded on its own, so a
conv holds one padded block and one column block at a time, in the forward
and in each gradient; no padded copy of a whole batch is made.

Convolution activations are channels-last: ``conv2d`` returns an NCHW view
of (N, H, W, K) memory, and the pointwise ops, batch norm and the global
average keep or read that order, so every caller still sees NCHW shapes. One
gather-and-GEMM helper does all three products of a convolution: it copies
each output pixel's window of a padded channels-last array as one row, taps
in (kh, kw, C) order, and multiplies the rows by the matching weight matrix.
The forward gathers the padded input; the weight gradient gathers it again
and multiplies by the output gradient read pixel-major. The input gradient
is a transposed convolution, i.e. a direct one with the flipped kernel
(Dumoulin & Visin 2016, arXiv:1603.07285): for each of the stride^2 input
phases (a, b), a stride-1 correlation of the zero-padded output gradient
with the flipped taps W[:, :, a::s, b::s] gives that phase's pixels.

Losses are not primitives: ``cross_entropy_rows`` and ``margin_rows`` are
numpy functions of the logits that return their per-row float64 values and
the float32 gradient of the rows' mean, the seed a backward from the logits
takes. Elementwise ``add`` takes equal shapes only: there is no
broadcasting. ``scale``, a float32 multiply, takes a constant.

There is no GPU path, no higher-order differentiation and no mixed
precision; single-sequence execution is bit-deterministic.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DimensionError, InputError, UsageError, check_range

_recordable = None  # inside no_grad: the nodes the tape records from


@contextlib.contextmanager
def no_grad(*leaves):
    """Record only the paths from ``leaves`` inside the context; with no
    leaves, record nothing (eval-only forward passes)."""
    global _recordable
    prev = _recordable
    _recordable = {t._node for t in leaves}
    try:
        yield
    finally:
        _recordable = prev


def _f32(x):
    return np.asarray(x, dtype=np.float32)


class _Node:
    """What the tape keeps of one tensor: its gradient, its rule, the nodes
    of its parents that take gradient (a leaf has neither), and its shape."""

    __slots__ = ("grad", "_backward", "_parents", "shape")

    def __init__(self, shape, parents, backward):
        self.grad = None
        self._backward = backward
        self._parents = parents
        self.shape = shape

    def _accumulate(self, g, fresh=False):
        """Add ``g`` into ``grad``. A ``fresh`` float32 array, built by the
        caller and referenced nowhere else, becomes the first gradient as is;
        any other array is copied in its own memory order, since it may be a
        view of another buffer."""
        g = _f32(g)
        if g.shape != self.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.shape}"
            )
        if self.grad is None:
            self.grad = g if fresh else g.copy(order="K")
        else:
            self.grad += g


class Tensor:
    """Dense float32 array and the tape node that holds its ``grad``: a
    leaf's, or one a primitive recorded with a rule and parents."""

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = _f32(data)
        self.requires_grad = bool(requires_grad)
        self._node = _Node(self.data.shape, (), None)

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    # -- autograd ------------------------------------------------------------

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def _backward(self):
        return self._node._backward

    @_backward.setter
    def _backward(self, rule):
        self._node._backward = rule

    def backward(self, grad):
        """Populate ``grad`` on every requires_grad leaf reachable from this
        tensor, starting from ``grad``, the seed: the gradient with respect
        to this tensor, of its shape. The graph is released as it is walked:
        once a node's rule has run, the node drops its gradient, its rule and
        its parents. A graph can be walked once; gradient that reaches a
        walked node raises UsageError. Calls on separate graphs without
        zeroing accumulate into the leaves they share."""
        order = _topo_order(self)
        self._node._accumulate(grad)
        while order:
            node = order.pop()
            if node._backward is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:  # else no path gave it gradient
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _walked, ()


def _walked(g):
    """The rule a walked node keeps: its saved arrays are gone."""
    raise UsageError("backward through a graph that was already walked")


def _topo_order(root):
    """Iterative post-order over the tape nodes that the tensor ``root``
    reaches (no recursion limit)."""
    order = []
    seen = set()
    stack = [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _grad_node(t):
    """The tape node that gradient for ``t`` goes to, or None when ``t``
    takes none or the tape does not record from it. A rule captures these,
    never its parent tensors, so it keeps no parent's array alive."""
    recorded = t.requires_grad if _recordable is None else t._node in _recordable
    return t._node if recorded else None


def _make(data, parents, backward):
    """The output tensor of a primitive. ``parents`` are the ``_grad_node``s
    of its inputs; it is recorded when one of them takes gradient."""
    out = Tensor(data)
    parents = tuple(p for p in parents if p is not None)
    if parents:
        out.requires_grad = True
        out._node = _Node(out.data.shape, parents, backward)
        if _recordable is not None:
            _recordable.add(out._node)
    return out


# -- elementwise and shape primitives -----------------------------------------


def _check_same_shape(a, b, what):
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"{what} expects equal shapes, got {a.data.shape} and {b.data.shape}"
        )


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b of equal shapes."""
    _check_same_shape(a, b, "add")
    na, nb = _grad_node(a), _grad_node(b)

    def backward(g):
        if na is not None:
            na._accumulate(g)
        if nb is not None:
            nb._accumulate(g)

    return _make(a.data + b.data, (na, nb), backward)


def scale(x: Tensor, s: float) -> Tensor:
    """x * s in float32, in x's memory order; the gradient is the same
    product."""
    nx, s = _grad_node(x), np.float32(s)

    def backward(g):
        nx._accumulate(g * s, fresh=True)

    return _make(x.data * s, (nx,), backward)


def relu(x: Tensor) -> Tensor:
    nx = _grad_node(x)
    # in x's memory order, as the gradient it shapes
    mask = x.data > 0 if nx is not None else None

    def backward(g):
        nx._accumulate(np.multiply(g, mask, out=np.empty_like(mask, dtype=np.float32)),
                       fresh=True)

    return _make(np.maximum(x.data, 0.0, dtype=np.float32), (nx,), backward)


# -- dense layers --------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[N,D] @ w[D,M] + b[M]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError("linear expects x[N,D], w[D,M], b[M]")
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"linear shapes incompatible: x{x.data.shape} w{w.data.shape} b{b.data.shape}"
        )
    data = (x.data.astype(np.float64) @ w.data.astype(np.float64)).astype(np.float32)
    data += b.data
    nx, nw, nb = _grad_node(x), _grad_node(w), _grad_node(b)
    # each side's gradient reads only the other operand
    x_data = x.data if nw is not None else None
    w_data = w.data if nx is not None else None

    def backward(g):
        g64 = g.astype(np.float64)
        if nx is not None:
            nx._accumulate((g64 @ w_data.astype(np.float64).T).astype(np.float32))
        if nw is not None:
            nw._accumulate((x_data.astype(np.float64).T @ g64).astype(np.float32))
        if nb is not None:
            nb._accumulate(g64.sum(axis=0).astype(np.float32))

    return _make(data, (nx, nw, nb), backward)


# -- convolution ----------------------------------------------------------------

# Largest number of im2col elements gathered at once (~1 MB of float32, so a
# block's columns stay in L2). Every product of a convolution runs over batch
# blocks of at most this many column elements; a forward whose columns fit in
# a single block accumulates its forward and weight gradient in float64, where
# the tight oracle tolerances bind.
_BLOCK = 1 << 18


def _nhwc(a):
    """The (N, H, W, C) order of an NCHW-shaped array: a view when its memory
    is channels-last already, else a copy."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _windows(src, kh, kw, stride, out_h, out_w, pads=(0, 0, 0, 0)):
    """Yield (s0, s1, cols) per batch block of the NHWC array ``src``, padded
    by ``pads`` (top, bottom, left, right) one block at a time into one block
    buffer: cols is the contiguous (nb*out_h*out_w, kh*kw*C) copy of the
    block's windows at (y*stride, x*stride), one row per output pixel, taps
    in (kh, kw, C) order. Every block's cols reuse one buffer, so a caller is
    done with them before it asks for the next block. A channel-major ``src``
    (such as the NCHW model input) is copied one channel plane at a time,
    which reads it in order."""
    n, h, w, c = src.shape
    top, bottom, left, right = pads
    rows = kh * kw * c
    step = min(n, max(1, _BLOCK // (rows * out_h * out_w)))
    if any(pads):
        padded = np.empty((step, top + h + bottom, left + w + right, c), dtype=np.float32)
        # only the border is zero-filled, once; each block fills the inside
        padded[:, :top] = 0.0
        padded[:, top + h :] = 0.0
        padded[:, top : top + h, :left] = 0.0
        padded[:, top : top + h, left + w :] = 0.0
    buf = np.empty((step, out_h, out_w, kh, kw, c), dtype=np.float32)
    for s0 in range(0, n, step):
        s1 = min(s0 + step, n)
        block = src[s0:s1]
        if any(pads):
            inner = padded[: s1 - s0, top : top + h, left : left + w]
            if block.strides[3] > block.strides[2]:
                for ch in range(c):
                    inner[..., ch] = block[..., ch]
            else:
                inner[...] = block
            block = padded[: s1 - s0]
        sn, sh, sw, sc = block.strides
        cols = buf[: s1 - s0]
        cols[...] = np.lib.stride_tricks.as_strided(
            block, cols.shape, (sn, sh * stride, sw * stride, sh, sw, sc))
        yield s0, s1, cols.reshape(-1, rows)


def _gemm(a, b, wide):
    """a @ b as float32, accumulated in float64 when ``wide``."""
    if wide:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
    return a @ b


def _correlate(src, w2, kh, kw, stride, out, wide, pads=(0, 0, 0, 0)):
    """out[n, y, x] = the (kh, kw) window at (y*stride, x*stride) of the NHWC
    array ``src`` padded by ``pads``, flattened in (kh, kw, C) order, times
    w2[kh*kw*C, K]: one gather and one pixel-major GEMM per batch block of
    ``_windows``, written into the contiguous (N, out_h, out_w, K) array
    ``out``. The float64 GEMM of ``wide`` runs in row chunks that are
    rounded into ``out`` as they come."""
    k = out.shape[3]
    w64 = w2.astype(np.float64) if wide else None
    for s0, s1, cols in _windows(src, kh, kw, stride, *out.shape[1:3], pads):
        dst = out[s0:s1].reshape(-1, k)
        if wide:
            step = max(1, (_BLOCK >> 3) // (cols.shape[1] + k))
            for r0 in range(0, len(cols), step):
                dst[r0 : r0 + step] = cols[r0 : r0 + step].astype(np.float64) @ w64
        else:
            np.matmul(cols, w2, out=dst)


def _phases(size, ksize, stride, padding, out_size):
    """The input-gradient phases along one axis. Input pixel y sits at padded
    position y + padding, which tap i of output y' reads when y + padding =
    y'*stride + i. So the pixels of phase a (y + padding = a mod stride) get a
    full convolution of the output gradient with the taps a::stride, i.e. a
    correlation with those taps flipped. Yields (a, first, pixels, read,
    pads): the phase's pixels first, first + stride, ... correlate the
    output-gradient rows ``read`` (a slice) with ``pads`` zero rows before
    and after them. A phase no tap reaches (ksize < stride) gets no
    gradient."""
    for a in range(min(ksize, stride)):
        first = (a - padding) % stride
        pixels = len(range(first, size, stride))
        taps = len(range(a, ksize, stride))
        if pixels:
            lo = (first + padding - a) // stride - (taps - 1)
            hi = lo + pixels + taps - 1
            read = slice(max(lo, 0), min(hi, out_size))
            yield a, first, pixels, read, (max(-lo, 0), max(hi - out_size, 0))


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x[N,C,H,W] with weight[K,C,kh,kw], no bias. The
    result is an NCHW view of channels-last (N, H, W, K) memory."""
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise DimensionError("conv2d expects x[N,C,H,W] and weight[K,C,kh,kw]")
    check_range("stride", stride, "[1,inf)", DimensionError)
    n, c, h, w = x.data.shape
    k, cw, kh, kw = weight.data.shape
    if cw != c:
        raise DimensionError(f"weight expects {cw} input channels, input has {c}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {hp}x{wp}"
        )
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1

    nx, nw = _grad_node(x), _grad_node(weight)
    xs = x.data.transpose(0, 2, 3, 1)
    pads = (padding,) * 4
    # dw re-gathers its columns from the input, padded block by block as in
    # the forward; dx needs only the weight
    saved = xs if nw is not None else None
    small = n * kh * kw * c * out_h * out_w <= _BLOCK
    out = np.empty((n, out_h, out_w, k), dtype=np.float32)
    _correlate(xs, weight.data.transpose(2, 3, 1, 0).reshape(-1, k), kh, kw, stride, out,
               small, pads)
    w_data = weight.data if nx is not None else None
    rows = list(_phases(h, kh, stride, padding, out_h))
    cols = list(_phases(w, kw, stride, padding, out_w))

    def backward(g):
        g = _nhwc(g)
        if nw is not None:
            dw = None
            for s0, s1, win in _windows(saved, kh, kw, stride, out_h, out_w, pads):
                part = _gemm(g[s0:s1].reshape(-1, k).T, win, small)
                dw = part if dw is None else dw + part
            dw = dw.reshape(k, kh, kw, c).transpose(0, 3, 1, 2)
            nw._accumulate(np.ascontiguousarray(dw), fresh=True)
        if nx is not None:
            nx._accumulate(input_grad(g), fresh=True)

    def input_grad(g):
        every_pixel = len(rows) * len(cols) == stride * stride
        dx = (np.empty if every_pixel else np.zeros)((n, h, w, c), dtype=np.float32)
        for a, y0, py, read_h, pad_h in rows:
            for b, x0, px, read_w, pad_w in cols:
                taps = w_data[:, :, a::stride, b::stride][:, :, ::-1, ::-1]
                th, tw = taps.shape[2:]
                dst = dx if stride == 1 else np.empty((n, py, px, c), dtype=np.float32)
                _correlate(g[:, read_h, read_w], taps.transpose(2, 3, 0, 1).reshape(-1, c), th,
                           tw, 1, dst, False, pad_h + pad_w)
                if stride > 1:
                    dx[:, y0::stride, x0::stride] = dst
        return dx.transpose(0, 3, 1, 2)

    return _make(out.transpose(0, 3, 1, 2), (nx, nw), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """x[N,C,H,W] -> [N,C]: the mean over each channel's map, in float64."""
    if x.data.ndim != 4:
        raise DimensionError("global_avg_pool expects x[N,C,H,W]")
    nx, shape = _grad_node(x), x.data.shape
    out = x.data.mean(axis=(2, 3), dtype=np.float64).astype(np.float32)

    def backward(g):
        nx._accumulate(np.broadcast_to((g / np.float32(shape[2] * shape[3]))[:, :, None, None],
                                       shape))

    return _make(out, (nx,), backward)


# -- batch normalisation ---------------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _channel_rows(a):
    """An NCHW-shaped float32 array as new float64 (N*H*W, C) rows, one
    pass over its memory whatever its order."""
    return np.array(a.transpose(0, 2, 3, 1), dtype=np.float64, order="C").reshape(-1, a.shape[1])


def _per_channel(v, shape):
    """v[C] repeated at every pixel of one sample of an NCHW array of
    ``shape``, in channels-last memory. Broadcast against channels-last
    activations it keeps numpy's inner loop over a whole sample instead of C
    values; the arithmetic is that of v[None, :, None, None]."""
    tiled = np.empty(shape[2:] + (len(v),), dtype=np.float32)
    tiled[...] = v
    return tiled.transpose(2, 0, 1)[None]


def _channel_sums(rows):
    """Per-channel float64 sums of (N*H*W, C) rows: one GEMV, which reads
    channels-last memory in order where a reduction over NCHW axes would
    stride across it."""
    return np.ones(len(rows)) @ rows


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel batch norm over NCHW. Eval mode reads running statistics
    only; training mode uses batch statistics and updates the running buffers
    in place (biased variance, EMA with momentum BN_MOMENTUM)."""
    if x.data.ndim != 4:
        raise DimensionError("batch_norm expects x[N,C,H,W]")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError("gamma/beta must have shape (C,)")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise DimensionError("running statistics must have shape (C,)")

    if training:
        m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        rows = _channel_rows(x.data)
        mean = _channel_sums(rows) / m
        rows -= mean
        rows *= rows
        var = _channel_sums(rows) / m
        del rows
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.astype(running_var.dtype)
    else:
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)

    shape = x.data.shape

    def chan(v):
        return _per_channel(v, shape)

    inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(np.float32)
    mean32 = mean.astype(np.float32)
    if training:
        xhat = (x.data - chan(mean32)) * chan(inv_std)
        out = xhat * chan(gamma.data)
        out += chan(beta.data)
    else:
        # fused affine: running statistics are constants here
        scale = gamma.data * inv_std
        xhat = None
        out = x.data * chan(scale)
        out += chan(beta.data - mean32 * scale)

    nx, ngamma, nbeta = _grad_node(x), _grad_node(gamma), _grad_node(beta)
    # eval mode builds x-hat only in the backward, for gamma's gradient
    x_data = x.data if xhat is None and ngamma is not None else None
    gamma_data = gamma.data

    def backward(g):
        if ngamma is not None:
            xh = xhat if xhat is not None else (x_data - chan(mean32)) * chan(inv_std)
            ngamma._accumulate(_channel_sums(_channel_rows(g * xh)).astype(np.float32))
        if nbeta is not None:
            nbeta._accumulate(_channel_sums(_channel_rows(g)).astype(np.float32))
        if nx is not None:
            if training:
                gx = g * chan(gamma_data)
                s1 = (_channel_sums(_channel_rows(gx)) / m).astype(np.float32)
                s2 = (_channel_sums(_channel_rows(gx * xhat)) / m).astype(np.float32)
                dx = chan(inv_std) * (gx - chan(s1) - xhat * chan(s2))
            else:
                dx = g * chan(scale)
            nx._accumulate(dx, fresh=True)

    return _make(out, (nx, ngamma, nbeta), backward)


# -- losses ----------------------------------------------------------------------


def check_labels(labels, n, num_classes):
    """``labels`` as int64 of shape ``(n,)``, each in ``[0, num_classes)``: the
    one label check of the losses, the attacks, clean accuracy and datasets."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InputError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InputError(f"labels must lie in [0,{num_classes}), got range "
                         f"[{labels.min()},{labels.max()}]")
    return labels.astype(np.int64, copy=False)


def _loss_inputs(logits, labels, what):
    """The logits as float64 [N,C] and the checked labels."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise DimensionError(f"{what} expects logits[N,C]")
    return z, check_labels(labels, *z.shape)


def cross_entropy_rows(logits, labels):
    """Per-row -log softmax(z)[label], with z the logits in float64,
    max-stabilised, and the gradient of their mean: softmax minus the one-hot
    labels, over N."""
    z, labels = _loss_inputs(logits, labels, "cross_entropy_rows")
    rows = np.arange(len(labels))
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    d = ez / denom
    d[rows, labels] -= 1.0
    return np.log(denom[:, 0]) - z[rows, labels], (1.0 / len(d) * d).astype(np.float32)


def margin_rows(logits, labels, kappa):
    """Per-row CW margin max(z_y - max_{c != y} z_c, -kappa) in float64, and
    the gradient of its mean: +1 at the label and -1 at the strongest other
    class, over N, on the rows not clipped at -kappa (a NaN margin is not
    clipped). Minimising it drives misclassification; attacks ascend on its
    negation."""
    z, labels = _loss_inputs(logits, labels, "margin_rows")
    rows = np.arange(len(labels))
    masked = z.copy()
    masked[rows, labels] = -np.inf
    best_other = masked.argmax(axis=1)
    margin = z[rows, labels] - masked[rows, best_other]
    live = rows[~(margin <= -kappa)]
    d = np.zeros(z.shape)
    d[live, labels[live]] += 1.0
    d[live, best_other[live]] -= 1.0
    return np.maximum(margin, -kappa), (1.0 / len(d) * d).astype(np.float32)


# -- optimiser ---------------------------------------------------------------------


class SGDMomentum:
    """SGD with momentum on a fixed parameter list. Each step updates every
    parameter and its velocity in place, in float32:
    v <- momentum*v + g + weight_decay*p, then p <- p - lr*v."""

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        check_range("lr", lr, "(0,inf)", InputError)
        check_range("momentum", momentum, "[0,1)", InputError)
        check_range("weight_decay", weight_decay, "[0,inf)", InputError)
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        lr, momentum, wd = (np.float32(v) for v in (self.lr, self.momentum, self.weight_decay))
        for p, v in zip(self.params, self.velocities):
            if p.grad is None:
                raise UsageError("sgd step before backward: parameter has no gradient")
            v *= momentum
            v += p.grad
            if self.weight_decay:
                v += wd * p.data
            p.data -= lr * v

    def zero_grad(self):
        for p in self.params:
            p.grad = None
