"""Numerical oracles shared by the gradient tests: central finite differences
and a floored relative error."""

import numpy as np


def relative_errors(a, b, floor_frac=0.01):
    """Elementwise |a-b| / max(|a|, |b|, floor), floor = floor_frac * |b|_inf.

    The floor keeps near-zero entries from blowing up the ratio while still
    flagging any error on an entry of significant magnitude.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    floor = floor_frac * max(np.abs(b).max(), 1e-30)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def central_differences(f, x, h=1e-3, dtype=np.float32):
    """Central finite differences of a scalar-valued f.

    dtype=float32 probes the float32 forward itself; dtype=float64 is for
    independent float64 oracle forwards.
    """
    x = np.asarray(x, dtype=dtype).copy()
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + dtype(h)
        fp = f(x)
        flat[i] = orig - dtype(h)
        fm = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (fp - fm) / (2.0 * h)
    return grad
