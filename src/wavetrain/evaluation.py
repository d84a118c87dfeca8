"""Evaluation harnesses: accuracy under attack, Fourier heat maps, Grad-CAM,
and numerical checks of the wavelet coefficient decay bounds.

The decay harness probes the Hoelder-continuous function |x-b|^alpha against
dilated/translated wavelets evaluated by the cascade algorithm and fits the
log-log slope of |<f, psi_{a,b}>| against the scale a; the theory predicts
slope alpha + 1/2 for compactly supported bases. Multiplicative constants
are never asserted, only exponents and boundedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .attacks import AttackConfig, eval_logits, pgd
from .autodiff import Tensor
from .data import Dataset
from .errors import DimensionError, InputError, ResolutionError, check_range
from .wavelet import FilterBank, _up_convolve, filter_bank


# -- accuracy --------------------------------------------------------------------


def accuracy(model, dataset: Dataset, attack: Optional[AttackConfig] = None,
             attack_fn=pgd, seed: int = 0, batch_size: int = 256) -> float:
    """Fraction of samples whose eval-mode prediction matches the label, on
    the clean batch or, under ``attack``, on the batch ``attack_fn`` returns."""
    check_range("batch_size", batch_size, "[1,inf)", InputError)
    correct = 0
    for start in range(0, len(dataset), batch_size):
        xb = dataset.images[start : start + batch_size]
        yb = dataset.labels[start : start + batch_size]
        if attack is not None:
            xb = attack_fn(model, xb, yb, attack, seed=seed + start).x_adv
        logits = eval_logits(model, xb)
        yb = ad.check_labels(yb, len(xb), logits.shape[1])
        correct += int((logits.argmax(axis=1) == yb).sum())
    return correct / len(dataset)


# -- Fourier heat map ---------------------------------------------------------------


@dataclass
class HeatMapGrid:
    error_rates: np.ndarray   # [rows, cols] in [0,1]
    samples_per_cell: int


def fourier_basis_image(h: int, w: int, i: int, j: int) -> np.ndarray:
    """Unit-L2 real image whose spectrum lives at (i,j) and its conjugate."""
    spectrum = np.zeros((h, w), dtype=np.complex128)
    spectrum[i % h, j % w] += 1.0
    spectrum[(-i) % h, (-j) % w] += 1.0
    img = np.fft.ifft2(spectrum).real
    return (img / np.linalg.norm(img)).astype(np.float32)


def fourier_heat_map(model, dataset: Dataset, eps_f: float = 4.0,
                     samples_per_cell: int = 32, seed: int = 0,
                     rows: Optional[int] = None, cols: Optional[int] = None) -> HeatMapGrid:
    """Misclassification rate per frequency cell under perturbations aligned
    with single real Fourier basis vectors.

    Each perturbation has total L2 norm eps_f across all channels, with an
    independent random sign per sample and channel. The grid covers the
    half-spectrum: rows 0..H/2, all W columns (the remaining rows are the
    conjugate completion of these).
    """
    check_range("eps_f", eps_f, "(0,inf)", InputError)
    check_range("samples_per_cell", samples_per_cell, "[1,inf)", InputError)
    h, w = dataset.images.shape[2:]
    rows = rows if rows is not None else h // 2 + 1
    cols = cols if cols is not None else w
    # the cell grid lies within the image half-spectrum
    check_range("rows", rows, f"[1,{h // 2 + 1}]", DimensionError)
    check_range("cols", cols, f"[1,{w}]", DimensionError)
    rng = np.random.default_rng(seed)
    channels = dataset.images.shape[1]
    per_channel = eps_f / np.sqrt(channels)

    grid = np.zeros((rows, cols), dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            basis = fourier_basis_image(h, w, i, j) * per_channel
            idx = rng.choice(len(dataset), size=min(samples_per_cell, len(dataset)),
                             replace=False)
            signs = rng.choice([-1.0, 1.0], size=(len(idx), channels)).astype(np.float32)
            xb = dataset.images[idx] + signs[:, :, None, None] * basis[None, None]
            preds = eval_logits(model, xb).argmax(axis=1)
            grid[i, j] = float((preds != dataset.labels[idx]).mean())
    return HeatMapGrid(grid, samples_per_cell=samples_per_cell)


# -- Grad-CAM ------------------------------------------------------------------------


def gradcam(model, x, class_id: int) -> np.ndarray:
    """Gradient-weighted class activation map over the pre-pooling feature
    grid, min-max scaled to [0,1] (an all-constant map comes back as zeros)."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim == 3:
        x = x[None]
    if x.shape[0] != 1:
        raise InputError("gradcam expects a single image")
    check_range("class_id", class_id, f"[0,{model.cfg.num_classes})", InputError)

    # the full feature map, unrecorded, then a tape from it through the head
    features = model.features(Tensor(x))
    with ad.tape(features):
        logits = model.head(features)
    onehot = np.zeros(logits.shape, dtype=np.float32)
    onehot[0, class_id] = 1.0
    logits.backward(onehot)

    weights = features.grad[0].mean(axis=(1, 2))            # alpha_k
    cam = np.maximum((weights[:, None, None] * features.data[0]).sum(axis=0), 0.0)
    lo, hi = float(cam.min()), float(cam.max())
    if hi - lo < 1e-12:
        return np.zeros_like(cam)
    return ((cam - lo) / (hi - lo)).astype(np.float32)


# -- wavelet decay harness -------------------------------------------------------------


def cascade_wavelet(fb: FilterBank, levels: int = 12):
    """Dyadic samples of the synthesis-side wavelet via the cascade algorithm.

    Returns (grid, psi) with grid step 2**-levels over the support
    [0, len(filter)-1]. For orthogonal banks the synthesis side equals the
    analysis side. From a unit impulse on ``len(lo_s)`` samples, one highpass
    then ``levels - 1`` lowpass steps of ``sqrt(2) * _up_convolve`` each double
    the buffer, which stays longer than the support, so nothing wraps.
    """
    psi = np.zeros(len(fb.lo_s))
    psi[0] = 1.0
    for f in [fb.hi_s] + [fb.lo_s] * (levels - 1):
        psi = np.sqrt(2.0) * _up_convolve(psi, f, -1)
    length = (len(fb.lo_s) - 1) * (1 << levels) + 1
    return np.arange(length) / float(1 << levels), psi[:length]


@dataclass
class DecayFit:
    samples: list            # (scale, |<f, psi_{a,b}>|) pairs, scales decreasing
    fitted_slope: float
    theoretical_slope: float


def _coefficient(probe, b, a, grid, psi, x0, x1, points):
    """Quadrature value of <probe, psi_{a,b}> on a uniform grid over [x0,x1]."""
    x = np.linspace(x0, x1, points, endpoint=False)
    step = (x1 - x0) / points
    samples_under = a * grid[-1] / step
    if samples_under < 16:
        raise ResolutionError(
            f"only {samples_under:.1f} quadrature samples under scale {a}; need >= 16"
        )
    # the tabulated wavelet at the quadrature points, 0 outside its support
    psi_vals = np.interp((x - b) / a, grid, psi, left=0.0, right=0.0) / np.sqrt(a)
    return float((probe(x) * psi_vals).sum() * step)


# theorem_decay_check: the kink of its probe
DECAY_KINK = 0.25


def theorem_decay_check(base: str, alpha: float, scales: Sequence[float],
                        grid_points: int = 1 << 16, kink_frac: float = 0.0) -> DecayFit:
    """Fit the decay exponent of |<f, psi_{a,b}>| for a Hoelder-alpha probe.

    The probe is f(x) = |x - b|**alpha with b = DECAY_KINK, whose
    coefficients scale exactly like a**(alpha + 1/2) for compactly supported
    wavelets. ``kink_frac`` slides the wavelet so the probe's kink sits at
    that fraction of its support: bases with several vanishing moments
    annihilate an integer-alpha probe that is one-sided polynomial over the
    support (kink at the edge), so they need the kink strictly inside.
    """
    check_range("alpha", alpha, "(0,1]", InputError)
    check_range("kink_frac", kink_frac, "[0,1)", InputError)
    scales = sorted(set(float(s) for s in scales), reverse=True)
    if len(scales) < 2 or scales[-1] <= 0:
        raise InputError("need at least two positive scales")
    fb = filter_bank(base)
    grid, psi = cascade_wavelet(fb)
    b = DECAY_KINK
    probe = lambda x: np.abs(x - b) ** alpha

    support = grid[-1]
    x0 = b - scales[0] * kink_frac * support
    x1 = b + scales[0] * support
    samples = []
    for a in scales:
        shift = b - a * kink_frac * support
        coef = _coefficient(probe, shift, a, grid, psi, x0, x1, grid_points)
        samples.append((a, abs(coef)))
    mags = np.array([m for _, m in samples])
    if (mags <= 0).any():
        raise InputError("zero coefficient magnitude; probe does not excite the wavelet")
    slope = float(np.polyfit(np.log(np.array(scales)), np.log(mags), 1)[0])
    return DecayFit(samples=samples, fitted_slope=slope, theoretical_slope=alpha + 0.5)


@dataclass
class LocalRegularityResult:
    passed: bool
    max_ratio: float
    ratios_by_refinement: list         # per refinement: (max, median)
    modulus_halving_ratios: list       # M(d/2)/M(d), theory: 2**-alpha
    log_refined_max_ratio: float       # Theorem-3.4 style ratio, reported only

    def __bool__(self):
        return self.passed


# theorem_local_regularity_check: the probe's kink, the wavelet scales, the
# coarsest integration grid and the allowed relative miss of each halving ratio
REGULARITY_X0 = 0.5
REGULARITY_SCALES = (2**-2, 2**-3, 2**-4, 2**-5)
REGULARITY_GRID_POINTS = 1 << 14
HALVING_TOLERANCE = 0.2


def theorem_local_regularity_check(base: str, alpha: float,
                                   offsets: Sequence[float] = (0.0, 0.01, 0.02, 0.05, 0.1)
                                   ) -> LocalRegularityResult:
    """Check that |<f, psi_{a, x0+b}>| / (|a|^(1/2) (|a|^alpha + |b|^alpha))
    stays bounded across a grid of scales and offsets and two grid
    refinements, and that the dyadic modulus of continuity halves like
    2**-alpha.
    """
    check_range("alpha", alpha, "(0,1]", InputError)
    fb = filter_bank(base)
    grid, psi = cascade_wavelet(fb)
    x0, scales = REGULARITY_X0, REGULARITY_SCALES  # scales decreasing
    probe = lambda x: np.abs(x - x0) ** alpha
    offsets = sorted(set(float(abs(o)) for o in offsets))

    span0 = x0 + min(offsets)
    span1 = x0 + max(offsets) + scales[0] * grid[-1]

    per_refinement = []
    log_refined = 0.0
    for refine in (1, 2, 4):
        ratios = []
        for bb in offsets:
            for a in scales:
                coef = _coefficient(probe, x0 + bb, a, grid, psi,
                                       span0, span1, REGULARITY_GRID_POINTS * refine)
                bound = np.sqrt(a) * (a ** alpha + bb ** alpha)
                ratios.append(abs(coef) / bound)
                if refine == 4 and bb > 0 and abs(np.log(bb)) > 1e-9:
                    refined_bound = np.sqrt(a) * (a ** alpha + bb ** alpha / abs(np.log(bb)))
                    log_refined = max(log_refined, abs(coef) / refined_bound)
        ratios = np.array(ratios)
        per_refinement.append((float(ratios.max()), float(np.median(ratios))))

    bounded = all(np.isfinite(mx) and mx < 10.0 * med for mx, med in per_refinement)

    # dyadic modulus of continuity on the probe
    xs = np.linspace(x0 - 1.0, x0 + 1.0, 1 << 14)
    deltas = [2.0 ** -j for j in range(2, 8)]
    values = [float(np.abs(probe(xs + d) - probe(xs)).max()) for d in deltas]
    halving = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    target = 2.0 ** -alpha
    halving_ok = all(abs(r - target) <= HALVING_TOLERANCE * target for r in halving)

    return LocalRegularityResult(
        passed=bounded and halving_ok,
        max_ratio=per_refinement[0][0],
        ratios_by_refinement=per_refinement,
        modulus_halving_ratios=halving,
        log_refined_max_ratio=log_refined,
    )
