"""Minimal deterministic reverse-mode automatic differentiation.

Tensors hold row-major float32 buffers. Every primitive records its inputs
and a backward rule on the implicit tape (the operation graph); calling
``backward`` on a scalar replays the recorded rules in reverse topological
order, visiting each node exactly once. The walk consumes the tape: as soon
as a node's rule has run, the node lets go of its gradient, its rule (and
with it the arrays the rule saved, such as padded inputs, batch norm's x-hat
and relu masks) and its parents, so the graph is freed while it is walked and
only leaves (parameters and inputs) keep ``grad``. Gradient that reaches a
walked node raises UsageError rather than being summed a second time.

Reductions (sums, means, batch statistics, losses), dense products and a
convolution whose columns fit in one block accumulate in float64 before
rounding back to float32, which keeps finite-difference gradient checks
stable. Larger convolutions stream their im2col columns through batch blocks
of at most ``_BLOCK`` elements with float32 BLAS, so no full column matrix is
ever built or kept on the tape. The convolution's input gradient is one
float32 GEMM per block over the output gradient laid out on the stride-phase
grids of the padded input, followed by one contiguous shifted add per kernel
tap (kn2row; Anderson et al. 2017, arXiv:1709.03395) - no scatter.

Elementwise ``add`` and ``mul`` take equal shapes only: there is no
broadcasting, and Tensor operators take Tensors, not scalars.

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

    def item(self):
        return float(self.data.reshape(-1)[0])

    # -- autograd ------------------------------------------------------------

    def _accumulate(self, g, fresh=False):
        """Add ``g`` into ``grad``. A ``fresh`` float32 array, built by the
        caller and referenced nowhere else, becomes the first gradient as is;
        any other array is copied, since it may be a view of another buffer."""
        g = _f32(g)
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g if fresh else g.copy()
        else:
            self.grad += g

    def backward(self):
        """Populate ``grad`` on every requires_grad leaf reachable from this
        scalar, releasing the graph as it goes: once a node's rule has run,
        the node drops its gradient, its rule and its parents. A graph can be
        walked once; gradient that reaches a walked node raises UsageError.
        Calls on separate graphs without zeroing accumulate into the leaves
        they share."""
        if self.data.size != 1:
            raise UsageError("backward requires a scalar loss tensor")
        order = _topo_order(self)
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:  # else no path gave it gradient
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _walked, ()

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else NotImplemented

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else NotImplemented

    def __neg__(self):
        return _neg(self)

    def sum(self):
        return sum_all(self)


def _walked(g):
    """The rule a walked node keeps: its saved arrays are gone."""
    raise UsageError("backward through a graph that was already walked")


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


# -- elementwise and shape primitives -----------------------------------------


def _check_same_shape(a, b, what):
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"{what} expects equal shapes, got {a.data.shape} and {b.data.shape}"
        )


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b of equal shapes."""
    _check_same_shape(a, b, "add")
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b of equal shapes."""
    _check_same_shape(a, b, "mul")
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _make(data, (a, b), backward)


def _neg(a: Tensor) -> Tensor:
    data = -a.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _make(data, (a,), backward)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0, dtype=np.float32)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0), fresh=True)

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
# accumulates its forward and weight gradient in float64, where the tight
# oracle tolerances bind. The input gradient walks the same blocks: its tap
# GEMM output spans each sample's stride-phase grids instead of its outputs,
# hq*wq / (out_h*out_w) times a block's columns (2.25x for a padded 3x3 conv
# on a 4x4 map).
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
    # per channel. A float32 block GEMM writes straight into its (K, nb*oh*ow)
    # window of that buffer.
    out = np.empty((k, n, out_h, out_w), dtype=np.float32)
    for s0, s1 in blocks:
        cols = _im2col(xp[s0:s1], kh, kw, stride, out_h, out_w).reshape(rows, -1)
        dst = out[:, s0:s1].reshape(k, -1)  # a view: each channel's rows are contiguous
        if small:
            dst[...] = _gemm(w2, cols, True)
        else:
            np.matmul(w2, cols, out=dst)
    out = out.transpose(1, 0, 2, 3)

    # the padded input is what dw re-gathers its columns from; dx needs only
    # the weight
    saved = xp if weight.requires_grad else None

    # dx (kn2row): output (oy, ox) of tap (i, j) reads padded input
    # (oy*s + i, ox*s + j), i.e. cell (oy + i//s, ox + j//s) of stride phase
    # (i%s, j%s). With g laid out on each sample's (hq, wq) phase grid, one
    # GEMM gives every tap's contribution, and tap (i, j) adds as one
    # contiguous run into its phase's flat channel-major block accumulator,
    # shifted by (i//s)*wq + j//s. Real cells never cross a grid row, so the
    # zero columns outside the (out_h, out_w) corner are all that shift into
    # the next row, channel or the tail.
    hq, wq = -(-hp // stride), -(-wp // stride)
    tail = (kh - 1) // stride * wq + (kw - 1) // stride
    ph, pw = min(kh, stride), min(kw, stride)  # the phases some tap reaches

    def backward(g):
        want_dw = saved is not None and weight.requires_grad
        dw = None
        if x.requires_grad:
            dx = np.zeros((n, c, h, w), dtype=np.float32)
            wt = weight.data.transpose(2, 3, 1, 0).reshape(kh * kw * c, k)
        for s0, s1 in blocks:
            if want_dw:
                g2 = np.ascontiguousarray(g[s0:s1].transpose(1, 0, 2, 3)).reshape(k, -1)
                cols = _im2col(saved[s0:s1], kh, kw, stride, out_h, out_w).reshape(rows, -1)
                part = _gemm(g2, cols.T, small)
                dw = part if dw is None else dw + part
            if x.requires_grad:
                nb = s1 - s0
                gp = np.zeros((k, nb, hq, wq), dtype=np.float32)
                gp[:, :, :out_h, :out_w] = g[s0:s1].transpose(1, 0, 2, 3)
                d = (wt @ gp.reshape(k, -1)).reshape(kh, kw, -1)
                span = d.shape[-1]
                phases = np.zeros((ph, pw, span + tail), dtype=np.float32)
                for i in range(kh):  # taps in increasing (i, j) order
                    for j in range(kw):
                        off = i // stride * wq + j // stride
                        phases[i % stride, j % stride, off : off + span] += d[i, j]
                grids = phases[:, :, :span].reshape(ph, pw, c, nb, hq, wq)
                # input row y sits in phase (y + padding) % s, cell (y + padding) // s
                for a in range(ph):
                    for b in range(pw):
                        ya, xb = (a - padding) % stride, (b - padding) % stride
                        dst = dx[s0:s1, :, ya::stride, xb::stride]
                        qa, qb = (ya + padding) // stride, (xb + padding) // stride
                        src = grids[a, b, :, :, qa : qa + dst.shape[2], qb : qb + dst.shape[3]]
                        dst[...] = src.transpose(1, 0, 2, 3)
        if want_dw:
            weight._accumulate(dw.reshape(weight.data.shape))
        if x.requires_grad:
            x._accumulate(dx, fresh=True)

    return _make(out, (x, weight), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """x[N,C,H,W] -> [N,C]: the mean over each channel's map, in float64."""
    if x.data.ndim != 4:
        raise DimensionError("global_avg_pool expects x[N,C,H,W]")
    h, w = x.data.shape[2:]
    out = x.data.mean(axis=(2, 3), dtype=np.float64).astype(np.float32)

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to((g / np.float32(h * w))[:, :, None, None],
                                          x.data.shape))

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
        out = x.data * scale
        out += shift

    def backward(g):
        if gamma.requires_grad:
            # eval mode builds x-hat only here, for gamma's gradient
            xh = xhat if xhat is not None else (x.data - mean32) * inv_std
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
                s2 = (gx * xhat).sum(axis=(0, 2, 3), dtype=np.float64, keepdims=True)
                dx = inv_std * (gx - (s1 / m).astype(np.float32)
                                - xhat * (s2 / m).astype(np.float32))
            else:
                dx = g * (gam * inv_std)
            x._accumulate(dx, fresh=True)

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


def check_labels(labels, n, num_classes):
    """``labels`` as int64 of shape ``(n,)``, each in ``[0, num_classes)``: the
    one label check of the losses, the attacks and clean accuracy."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InputError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InputError(f"labels must lie in [0,{num_classes}), got range "
                         f"[{labels.min()},{labels.max()}]")
    return labels.astype(np.int64, copy=False)


def _loss_labels(logits, labels, what):
    if logits.data.ndim != 2:
        raise DimensionError(f"{what} expects logits[N,C]")
    return check_labels(labels, *logits.data.shape)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilised."""
    labels = _loss_labels(logits, labels, "softmax_cross_entropy")
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
    labels = _loss_labels(logits, labels, "cw_margin_loss")
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


class SGDMomentum:
    """SGD with momentum on a fixed parameter list. Each step updates every
    parameter and its velocity in place, in float32:
    v <- momentum*v + g + weight_decay*p, then p <- p - lr*v."""

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        if not (lr > 0):
            raise InputError(f"lr must be positive, got {lr}")
        if not (0 <= momentum < 1):
            raise InputError(f"momentum must be in [0,1), got {momentum}")
        if not (weight_decay >= 0):
            raise InputError(f"weight_decay must be >= 0, got {weight_decay}")
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
