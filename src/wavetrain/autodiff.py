"""Minimal deterministic reverse-mode automatic differentiation.

Tensors hold row-major float32 buffers. Every primitive records its inputs
and a backward rule on the implicit tape (the operation graph); calling
``backward`` on a scalar replays the recorded rules in reverse topological
order, visiting each node exactly once.

Reductions (sums, means, batch statistics, losses), dense products and a
convolution whose columns fit in one block accumulate in float64 before
rounding back to float32, which keeps finite-difference gradient checks
stable. Larger convolutions stream their im2col columns through batch blocks
of at most ``_BLOCK`` elements with float32 BLAS, so no full column matrix is
ever built or kept on the tape.

There is no GPU path, no higher-order differentiation and no mixed
precision; single-sequence execution is bit-deterministic.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DimensionError, InputError, UsageError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (eval-only forward passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _f32(x):
    return np.asarray(x, dtype=np.float32)


class Tensor:
    """Dense float32 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = _f32(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    # -- autograd ------------------------------------------------------------

    def _accumulate(self, g):
        g = _f32(g)
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self):
        """Populate ``grad`` on every requires_grad tensor reachable from this
        scalar. Repeated calls without zeroing accumulate."""
        if self.data.size != 1:
            raise UsageError("backward requires a scalar loss tensor")
        order = _topo_order(self)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is None:
                continue
            if node.grad is None:
                # Not on any path that received gradient; skip its rule.
                continue
            node._backward(node.grad)

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return _affine(self, 1.0, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return _affine(self, float(other), 0.0)

    __rmul__ = __mul__

    def __neg__(self):
        return _affine(self, -1.0, 0.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, _affine(other, -1.0, 0.0))
        return _affine(self, 1.0, -float(other))

    def __rsub__(self, other):
        return _affine(self, -1.0, float(other))

    def sum(self):
        return sum_all(self)

    def mean(self):
        return _affine(sum_all(self), 1.0 / self.data.size, 0.0)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def _topo_order(root):
    """Iterative post-order over the recorded graph (no recursion limit)."""
    order = []
    seen = set()
    stack = [(root, False)]
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


def _make(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise and shape primitives -----------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def _affine(a: Tensor, scale: float, shift: float) -> Tensor:
    data = a.data * np.float32(scale) + np.float32(shift)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * np.float32(scale))

    return _make(data, (a,), backward)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0, dtype=np.float32)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return _make(data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)
    old = x.data.shape

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(old))

    return _make(data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    data = np.float32(x.data.sum(dtype=np.float64))

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.data.shape))

    return _make(data, (x,), backward)


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

    def backward(g):
        g64 = g.astype(np.float64)
        if x.requires_grad:
            x._accumulate((g64 @ w.data.astype(np.float64).T).astype(np.float32))
        if w.requires_grad:
            w._accumulate((x.data.astype(np.float64).T @ g64).astype(np.float32))
        if b.requires_grad:
            b._accumulate(g64.sum(axis=0).astype(np.float32))

    return _make(data, (x, w, b), backward)


# -- convolution ----------------------------------------------------------------

# Largest number of im2col elements gathered at once (~1 MB of float32, so a
# block's columns stay in L2). A convolution runs over batch blocks of at most
# this many column elements; one whose columns fit in a single block
# accumulates in float64, where the tight oracle tolerances bind.
_BLOCK = 1 << 18


def _im2col(xp, kh, kw, stride, out_h, out_w):
    """(N,C,Hp,Wp) -> contiguous (C,kh,kw,N,out_h,out_w) window copy."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, kh, kw, n, out_h, out_w),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
    )
    return np.ascontiguousarray(windows)


def _col2im(cols, acc, stride):
    """Adjoint of _im2col: scatter-add (C,kh,kw,N,out_h,out_w) columns into
    the (N,C,Hp,Wp) accumulator ``acc`` in place."""
    _, kh, kw, _, out_h, out_w = cols.shape
    for i in range(kh):
        for j in range(kw):
            acc[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[
                :, i, j
            ].transpose(1, 0, 2, 3)


def _gemm(a, b, wide):
    """a @ b as float32, accumulated in float64 when ``wide``."""
    if wide:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
    return a @ b


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x[N,C,H,W] with weight[K,C,kh,kw], no bias."""
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise DimensionError("conv2d expects x[N,C,H,W] and weight[K,C,kh,kw]")
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
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

    if padding:
        xp = np.zeros((n, c, hp, wp), dtype=np.float32)
        xp[:, :, padding : padding + h, padding : padding + w] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    rows = c * kh * kw
    per_sample = rows * out_h * out_w
    step = max(1, _BLOCK // per_sample)
    blocks = [(s, min(s + step, n)) for s in range(0, n, step)]
    small = n * per_sample <= _BLOCK
    w2 = weight.data.reshape(k, rows)

    # one GEMM per block: (K, C*kh*kw) @ (C*kh*kw, nb*out_h*out_w). Its rows
    # land unpermuted in a channel-major buffer, returned as an NCHW view:
    # per-channel ops downstream (batch norm) then sweep one contiguous slab
    # per channel.
    out = np.empty((k, n, out_h, out_w), dtype=np.float32)
    for s0, s1 in blocks:
        cols = _im2col(xp[s0:s1], kh, kw, stride, out_h, out_w).reshape(rows, -1)
        out[:, s0:s1] = _gemm(w2, cols, small).reshape(k, s1 - s0, out_h, out_w)
    out = out.transpose(1, 0, 2, 3)

    # the padded input is what dw re-gathers its columns from; dx needs only w2
    saved = xp if weight.requires_grad else None

    def backward(g):
        want_dw = saved is not None and weight.requires_grad
        dw = None
        dxp = np.zeros((n, c, hp, wp), dtype=np.float32) if x.requires_grad else None
        for s0, s1 in blocks:
            g2 = np.ascontiguousarray(g[s0:s1].transpose(1, 0, 2, 3)).reshape(k, -1)
            if want_dw:
                cols = _im2col(saved[s0:s1], kh, kw, stride, out_h, out_w).reshape(rows, -1)
                part = _gemm(g2, cols.T, small)
                dw = part if dw is None else dw + part
            if dxp is not None:
                dcols = (w2.T @ g2).reshape(c, kh, kw, s1 - s0, out_h, out_w)
                _col2im(dcols, dxp[s0:s1], stride)
        if want_dw:
            weight._accumulate(dw.reshape(weight.data.shape))
        if dxp is not None:
            x._accumulate(dxp[:, :, padding : padding + h, padding : padding + w])

    return _make(out, (x, weight), backward)


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling; kernel must divide both spatial dims."""
    if x.data.ndim != 4:
        raise DimensionError("avg_pool2d expects x[N,C,H,W]")
    n, c, h, w = x.data.shape
    if h % kernel or w % kernel:
        raise DimensionError(f"kernel {kernel} does not divide spatial dims {h}x{w}")
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = view.mean(axis=(3, 5), dtype=np.float64).astype(np.float32)

    def backward(g):
        if x.requires_grad:
            gexp = np.repeat(np.repeat(g, kernel, axis=2), kernel, axis=3)
            x._accumulate(gexp / np.float32(kernel * kernel))

    return _make(out, (x,), backward)


# -- batch normalisation ---------------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


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
        mean = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        var = x.data.var(axis=(0, 2, 3), dtype=np.float64)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.astype(running_var.dtype)
    else:
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)

    inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(np.float32)[None, :, None, None]
    mean32 = mean.astype(np.float32)[None, :, None, None]
    gam = gamma.data[None, :, None, None]
    if training:
        xhat = (x.data - mean32) * inv_std
        out = xhat * gam + beta.data[None, :, None, None]
    else:
        # fused affine: running statistics are constants here
        scale = gam * inv_std
        shift = beta.data[None, :, None, None] - mean32 * scale
        xhat = None
        out = x.data * scale + shift

    def backward(g):
        xh = xhat if xhat is not None else (x.data - mean32) * inv_std
        if gamma.requires_grad:
            gamma._accumulate(
                (g * xh).sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
            )
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32))
        if x.requires_grad:
            if training:
                m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                gx = g * gam
                s1 = gx.sum(axis=(0, 2, 3), dtype=np.float64, keepdims=True)
                s2 = (gx * xh).sum(axis=(0, 2, 3), dtype=np.float64, keepdims=True)
                dx = inv_std * (gx - (s1 / m).astype(np.float32)
                                - xh * (s2 / m).astype(np.float32))
            else:
                dx = g * (gam * inv_std)
            x._accumulate(dx)

    return _make(out, (x, gamma, beta), backward)


# -- losses ----------------------------------------------------------------------


def cross_entropy_rows(logits, labels):
    """Per-row -log softmax(z)[label] and the softmax itself, with z the
    logits in float64, max-stabilised."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    return np.log(denom[:, 0]) - z[np.arange(len(labels)), labels], ez / denom


def margin_rows(logits, labels):
    """Per-row margin z_y - max_{c != y} z_c in float64, and the strongest
    other class."""
    z = np.asarray(logits, dtype=np.float64)
    rows = np.arange(len(labels))
    masked = z.copy()
    masked[rows, labels] = -np.inf
    best_other = masked.argmax(axis=1)
    return z[rows, labels] - masked[rows, best_other], best_other


def _check_labels(logits, labels, what):
    if logits.data.ndim != 2:
        raise DimensionError(f"{what} expects logits[N,C]")
    labels = np.asarray(labels)
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise InputError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"labels must lie in [0,{c}), got range "
                         f"[{labels.min()},{labels.max()}]")
    return labels.astype(np.int64)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilised."""
    labels = _check_labels(logits, labels, "softmax_cross_entropy")
    n = len(labels)
    rows, probs = cross_entropy_rows(logits.data, labels)
    loss = np.float32(rows.mean())

    def backward(g):
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(n), labels] -= 1.0
            logits._accumulate((float(g.reshape(())) / n * d).astype(np.float32))

    return _make(loss, (logits,), backward)


def cw_margin_loss(logits: Tensor, labels, kappa: float = 0.0) -> Tensor:
    """Mean over the batch of max(z_y - max_{c != y} z_c, -kappa).

    Minimising this margin drives misclassification; attacks ascend on its
    negation. The backward rule routes gradient to the true-class logit and
    the strongest competing logit for samples not yet clipped at -kappa.
    """
    labels = _check_labels(logits, labels, "cw_margin_loss")
    n = len(labels)
    margin, best_other = margin_rows(logits.data, labels)
    clipped = margin <= -kappa
    loss = np.float32(np.maximum(margin, -kappa).mean())

    def backward(g):
        if logits.requires_grad:
            d = np.zeros(logits.data.shape)
            live = ~clipped
            rows = np.arange(n)[live]
            d[rows, labels[live]] += 1.0
            d[rows, best_other[live]] -= 1.0
            logits._accumulate((float(g.reshape(())) / n * d).astype(np.float32))

    return _make(loss, (logits,), backward)


# -- optimiser ---------------------------------------------------------------------


def sgd_momentum_step(param, grad, velocity, lr, momentum, weight_decay):
    """One SGD step on raw arrays: v <- momentum*v + g + wd*p; p <- p - lr*v.

    Mutates ``param`` and ``velocity`` in place and returns them.
    """
    if not (lr > 0):
        raise InputError(f"lr must be positive, got {lr}")
    if not (0 <= momentum < 1):
        raise InputError(f"momentum must be in [0,1), got {momentum}")
    if weight_decay < 0:
        raise InputError(f"weight_decay must be >= 0, got {weight_decay}")
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise DimensionError(
            f"param/grad/velocity shapes differ: {param.shape} {grad.shape} {velocity.shape}"
        )
    velocity *= np.float32(momentum)
    velocity += grad
    if weight_decay:
        velocity += np.float32(weight_decay) * param
    param -= np.float32(lr) * velocity
    return param, velocity


class SGDMomentum:
    """Velocity bookkeeping for a fixed parameter list."""

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.velocities):
            if p.grad is None:
                raise UsageError("sgd step before backward: parameter has no gradient")
            sgd_momentum_step(p.data, p.grad, v, self.lr, self.momentum, self.weight_decay)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
