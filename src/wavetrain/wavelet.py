"""Two-channel filter banks, one-level 2-D DWT/IDWT with periodic boundary,
and the wavelet pooling layers built on them.

Conventions (fixed, since the literature varies):

* analysis is correlation + even-phase downsampling along an axis:
  ``y[k] = sum_n f[n] * x[(2k + n) mod L]``, width axis first, then height;
* synthesis is zero-upsampling + circular convolution, height axis first;
* with these operator directions the synthesis coefficients of an orthogonal
  bank equal its analysis coefficients (the usual time reversal is absorbed
  by using correlation on one side and convolution on the other);
* highpass filters derive from the opposite channel's lowpass:
  ``hi_a[n] = (-1)^n lo_s[L-1-n]`` and ``hi_s[n] = (-1)^n lo_a[L-1-n]``;
* subband naming: lh = lowpass vertical / highpass horizontal (horizontal
  detail), hl = the transpose pairing (vertical detail).

All coefficient tables are embedded constants. Every time a bank is built,
its filter sums and its perfect reconstruction, run on the periodic cores
below, are checked, so a transcription error cannot go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, UnsupportedBaseError

_SQRT2 = np.sqrt(2.0)

# Analysis/synthesis scaling (lowpass) coefficients per base. Orthogonal bases
# store one table used for both sides. Biorthogonal tables are padded with
# zeros to an even common length whose alignment was chosen so that the
# perfect-reconstruction identities below hold exactly.
_DB5_LO = [
    0.003335725285001549, -0.012580751999015526, -0.006241490213011705,
    0.07757149384006515, -0.03224486958502952, -0.24229488706619015,
    0.13842814590110342, 0.7243085284385744, 0.6038292697974729,
    0.160102397974125,
]

_SYM4_LO = [
    -0.07576571478927333, -0.02963552764599851, 0.49761866763201545,
    0.8037387518059161, 0.29785779560527736, -0.09921954357684722,
    -0.012603967262037833, 0.0322231006040427,
]

_COIF4_LO = [
    -1.7849850030882614e-06, -3.2596802368833675e-06, 3.1229875865345646e-05,
    6.233903446100713e-05, -0.00025997455248771324, -0.0005890207562443383,
    0.0012665619292989445, 0.003751436157278457, -0.00565828668661072,
    -0.015211731527946259, 0.025082261844864097, 0.03933442712333749,
    -0.09622044203398798, -0.06662747426342504, 0.4343860564914685,
    0.782238930920499, 0.41530840703043026, -0.05607731331675481,
    -0.08126669968087875, 0.026682300156053072, 0.016068943964776348,
    -0.0073461663276420935, -0.0016294920126017326, 0.0008923136685823146,
]

# bior3.1: analysis = sqrt2*[-1/4, 3/4, 3/4, -1/4], synthesis = the cubic
# spline sqrt2*[1/8, 3/8, 3/8, 1/8]; stored at length 8 (the published
# filter-size for this base), symmetrically zero padded.
_BIOR31_LO_A = [0.0, 0.0, -0.25 * _SQRT2, 0.75 * _SQRT2, 0.75 * _SQRT2, -0.25 * _SQRT2, 0.0, 0.0]
_BIOR31_LO_S = [0.0, 0.0, 0.125 * _SQRT2, 0.375 * _SQRT2, 0.375 * _SQRT2, 0.125 * _SQRT2, 0.0, 0.0]

# rbio2.2: analysis = the quadratic spline sqrt2*[1/4, 1/2, 1/4], synthesis =
# its dual sqrt2*[-1/8, 1/4, 3/4, 1/4, -1/8]; the one-slot relative offset is
# what makes the even-shift biorthogonality hold.
_RBIO22_LO_A = [0.0, 0.25 * _SQRT2, 0.5 * _SQRT2, 0.25 * _SQRT2, 0.0, 0.0]
_RBIO22_LO_S = [-0.125 * _SQRT2, 0.25 * _SQRT2, 0.75 * _SQRT2, 0.25 * _SQRT2, -0.125 * _SQRT2, 0.0]

_CATALOG = {
    "haar": ([1.0 / _SQRT2, 1.0 / _SQRT2], None),
    "db5": (_DB5_LO, None),
    "sym4": (_SYM4_LO, None),
    "coif4": (_COIF4_LO, None),
    "bior3.1": (_BIOR31_LO_A, _BIOR31_LO_S),
    "rbio2.2": (_RBIO22_LO_A, _RBIO22_LO_S),
}

SUPPORTED_BASES = tuple(_CATALOG)

_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class FilterBank:
    """Named quadruple of 1-D analysis/synthesis filters for one base."""

    name: str
    lo_a: np.ndarray
    hi_a: np.ndarray
    lo_s: np.ndarray
    hi_s: np.ndarray

    def __post_init__(self):
        _validate(self)

    @property
    def orthogonal(self) -> bool:
        """Synthesis reuses the analysis filters."""
        return np.array_equal(self.lo_s, self.lo_a)


def _alternating_reverse(f):
    n = np.arange(len(f))
    return (-1.0) ** n * f[::-1]


def filter_bank(name: str) -> FilterBank:
    """Look up a supported base and return its validated filter bank."""
    key = str(name).lower()
    if key == "dmey":
        raise UnsupportedBaseError(
            "dmey is not supported: the discrete Meyer base has infinite support "
            "and no finite filter representation"
        )
    if key not in _CATALOG:
        raise UnsupportedBaseError(
            f"unknown wavelet base {name!r}; supported: {', '.join(SUPPORTED_BASES)}"
        )
    lo_a, lo_s = _CATALOG[key]
    lo_a = np.asarray(lo_a, dtype=np.float64)
    lo_s = lo_a if lo_s is None else np.asarray(lo_s, dtype=np.float64)
    hi_a = _alternating_reverse(lo_s)
    hi_s = _alternating_reverse(lo_a)
    return FilterBank(key, lo_a, hi_a, lo_s, hi_s)


def _validate(fb: FilterBank):
    """Sum and perfect-reconstruction checks (1e-10) on the periodic cores."""
    if abs(fb.lo_a.sum() - _SQRT2) > _CHECK_TOL:
        raise ValueError(f"{fb.name}: lowpass sum differs from sqrt(2)")
    if abs(fb.hi_a.sum()) > _CHECK_TOL:
        raise ValueError(f"{fb.name}: highpass sum differs from 0")
    # analysis then synthesis of each unit impulse, both channels summed, gives
    # it back: at twice the filter length no filter shift wraps onto another
    eye = np.eye(2 * len(fb.lo_a))
    rec = sum(_up_convolve(_correlate_down(eye, a, -1), s, -1)
              for a, s in ((fb.lo_a, fb.lo_s), (fb.hi_a, fb.hi_s)))
    err = np.abs(rec - eye).max()
    if err > _CHECK_TOL:
        raise ValueError(f"{fb.name}: perfect reconstruction fails by {err:.3g}")


# -- 1-D periodic analysis/synthesis cores (polyphase, float64 accumulation) --
#
# Both cores work on strided slices of the signal, one tap at a time: tap n of
# the analysis filter reads the phase ``a[n::2]`` (plus its wrapped tail), and
# tap j of the synthesis adds into the output phase ``out[j % 2::2]`` shifted
# circularly by ``j // 2``. Zero taps are skipped. Taps are added in increasing
# index order into a float64 buffer that starts at zero, each term being an
# ``np.float64`` coefficient times a slice; only element-wise numpy ops run, so
# the rounding depends neither on buffer alignment nor on a BLAS path. The
# cores also run the bank checks, the WAP norm and the cascade wavelet.


def _along(axis, start=None, stop=None, step=None):
    """Index that slices the (negative) ``axis`` and keeps every other axis,
    so the cores filter an axis where it lies, with no transposed views."""
    return (..., slice(start, stop, step)) + (slice(None),) * (-1 - axis)


def _correlate_down(a, f, axis):
    """y[k] = sum_n f[n] a[(2k+n) mod L] along the negative ``axis``; halves
    that axis.

    Tap n (reduced mod L, so filters longer than the signal wrap) adds
    ``f[n] * a[n::2]`` to the first outputs and the wrapped tail
    ``f[n] * a[n % 2::2]`` to the rest.
    """
    length = a.shape[axis]
    half = length // 2
    shape = list(a.shape)
    shape[axis] = half
    out = np.zeros(shape, dtype=np.float64)
    for n, c in enumerate(f):
        if c == 0.0:
            continue
        c, r = np.float64(c), n % length
        m = (length - r + 1) // 2  # outputs whose taps stay inside the signal
        out[_along(axis, None, m)] += c * a[_along(axis, r, None, 2)]
        out[_along(axis, m)] += c * a[_along(axis, r % 2, 2 * (half - m), 2)]
    return out


def _up_convolve(a, f, axis):
    """Adjoint of _correlate_down with the same filter: zero-upsample along
    the negative ``axis`` then circularly convolve, i.e.
    out[(2k+j) mod L] += f[j] a[k].

    Tap j adds ``f[j] * a`` into the output phase ``out[j % 2::2]``, rotated
    by ``j // 2`` through two slices; no upsampled copy is built.
    """
    half = a.shape[axis]
    shape = list(a.shape)
    shape[axis] = 2 * half
    out = np.zeros(shape, dtype=np.float64)
    for j, c in enumerate(f):
        if c == 0.0:
            continue
        c, r = np.float64(c), j % (2 * half)
        phase, s = out[_along(axis, r % 2, None, 2)], r // 2
        phase[_along(axis, s)] += c * a[_along(axis, None, half - s)]
        phase[_along(axis, None, s)] += c * a[_along(axis, half - s)]
    return out


@dataclass
class SubbandSet:
    """One 2-D DWT level: approximation plus horizontal / vertical / diagonal
    detail, each of shape [N, C, H/2, W/2]."""

    ll: Tensor
    lh: Tensor
    hl: Tensor
    hh: Tensor

    def __post_init__(self):
        shapes = {t.shape for t in (self.ll, self.lh, self.hl, self.hh)}
        if len(shapes) != 1:
            raise DimensionError(f"subband shapes differ: {sorted(shapes)}")


def _check_even_spatial(x):
    if x.data.ndim != 4:
        raise DimensionError("expected a [N,C,H,W] tensor")
    h, w = x.data.shape[2:]
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise DimensionError(f"spatial dims must be even and >= 2, got {h}x{w}")


def _separable(x: Tensor, fh, fw) -> Tensor:
    """Filter-and-downsample with ``fw`` along width then ``fh`` along height;
    the backward is the adjoint, height first."""
    _check_even_spatial(x)
    res = _correlate_down(_correlate_down(x.data, fw, -1), fh, -2).astype(np.float32)

    node = ad._grad_node(x)

    def backward(grad):
        d = _up_convolve(_up_convolve(grad, fh, -2), fw, -1)
        node._accumulate(d.astype(np.float32), fresh=True)

    return ad._make(res, (node,), backward)


def dwt2d(x: Tensor, fb: FilterBank) -> SubbandSet:
    """One-level separable 2-D DWT with periodic extension; differentiable."""
    lo, hi = fb.lo_a, fb.hi_a
    return SubbandSet(
        ll=_separable(x, lo, lo),
        lh=_separable(x, lo, hi),
        hl=_separable(x, hi, lo),
        hh=_separable(x, hi, hi),
    )


def idwt2d(s: SubbandSet, fb: FilterBank) -> Tensor:
    """Upsample-and-filter synthesis; exact inverse of dwt2d. Used only to
    check reconstruction, so it records no tape node."""
    lo, hi = fb.lo_s, fb.hi_s
    branch_lo = _up_convolve(s.ll.data, lo, -2) + _up_convolve(s.hl.data, hi, -2)
    branch_hi = _up_convolve(s.lh.data, lo, -2) + _up_convolve(s.hh.data, hi, -2)
    return Tensor(_up_convolve(branch_lo, lo, -1) + _up_convolve(branch_hi, hi, -1))


def wap_filter(fb: FilterBank) -> np.ndarray:
    """The per-axis filter (lo_a + hi_a)/2 that wavelet average pooling runs."""
    return 0.5 * (fb.lo_a + fb.hi_a)


def wap_decimation(fb: FilterBank):
    """The coefficient c when the WAP filter's one nonzero tap is at offset 0,
    else None. Such a pool is a scaled decimation: along each axis
    ``y[k] = c * x[2k]``, so WAP(x) = c*c * x[..., ::2, ::2]. Of the supported
    banks only haar has one, c = 1/sqrt(2)."""
    f = wap_filter(fb)
    (taps,) = np.nonzero(f)
    return float(f[0]) if list(taps) == [0] else None


def wavelet_average_pool(x: Tensor, fb: FilterBank) -> Tensor:
    """Average of the four one-level subbands: 0.25*(ll+lh+hl+hh).

    Linear in x, halves both spatial dims, differentiable. Because all four
    subbands share one downsampling grid, the average factorizes exactly into
    separable filtering with ``wap_filter(fb)`` = (lo+hi)/2 along each axis,
    which is what runs here; ``dwt2d`` plus explicit averaging gives the same
    map.

    For haar that filter is [1/sqrt(2), 0]: the high band cancels the low one
    on every odd sample, so haar WAP is ½·x[:, :, ::2, ::2], a stride-2
    subsampling with no low-pass filter in front (``wap_decimation``). Such a
    stride aliases every frequency above the new Nyquist rate into the kept
    samples (Zhang 2019, "Making Convolutional Networks Shift-Invariant
    Again", arXiv:1904.11486); the longer banks filter before they subsample.

    Every base's WAP filter has even taps summing to 1/sqrt(2) and odd taps
    to 0, and every lowpass sums to 1/sqrt(2) on each parity. So a global
    average after WAP is ½ the mean of the even-even pixels, and after LPF 2×
    the mean, for any base: at ``after_final_relu`` the base cannot change
    the logits beyond rounding.
    """
    f = wap_filter(fb)
    return _separable(x, f, f)


def wavelet_low_pass_pool(x: Tensor, fb: FilterBank) -> Tensor:
    """Approximation-only pooling: keep ll, discard the detail subbands.

    Only the lowpass filter runs, so the result equals ``dwt2d(x, fb).ll``
    without computing the three detail subbands.
    """
    return _separable(x, fb.lo_a, fb.lo_a)


# wap_lipschitz_estimate's map size
LIPSCHITZ_MAP = 16


def wap_lipschitz_estimate(fb: FilterBank) -> float:
    """Largest singular value of the pooling map on a LIPSCHITZ_MAP square,
    exactly: the pool is D^T x D with D the (L x L/2) analysis matrix of
    ``wap_filter(fb)``, so its norm is sigma_max(D) squared."""
    d = _correlate_down(np.eye(LIPSCHITZ_MAP), wap_filter(fb), -1)
    return float(np.linalg.norm(d, 2) ** 2)
