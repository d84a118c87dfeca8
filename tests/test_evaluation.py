import hashlib

import numpy as np
import pytest

from wavetrain import autodiff as ad
from wavetrain.attacks import (
    AttackConfig, NesConfig, eval_logits, logits_oracle, nes_attack, pgd,
)
from wavetrain.autodiff import Tensor
from wavetrain.data import Dataset, synthetic_dataset
from wavetrain.errors import InputError, NumericError, ResolutionError
from wavetrain.evaluation import (
    accuracy,
    cascade_wavelet,
    fourier_basis_image,
    fourier_heat_map,
    gradcam,
    theorem_decay_check,
    theorem_local_regularity_check,
)
from wavetrain.model import ModelConfig, build_model
from wavetrain.wavelet import SUPPORTED_BASES, filter_bank


def cascade_oracle(fb, levels):
    """The cascade by linear convolution: ``levels - 1`` upsample-and-convolve
    steps with the synthesis lowpass give phi, then each highpass tap adds a
    copy of phi at its dyadic shift."""
    lo, hi = fb.lo_s, fb.hi_s
    sqrt2 = np.sqrt(2.0)
    phi = np.array([1.0])
    for _ in range(levels - 1):
        up = np.zeros(2 * len(phi) - 1)
        up[::2] = phi
        phi = sqrt2 * np.convolve(up, lo)
    shift = 1 << (levels - 1)
    length = (len(lo) - 1) * (1 << levels) + 1
    psi = np.zeros(length)
    for k, g in enumerate(hi):
        if g == 0.0:
            continue
        start = k * shift
        stop = min(start + len(phi), length)
        psi[start:stop] += sqrt2 * g * phi[: stop - start]
    grid = np.arange(length) / float(1 << levels)
    return grid, psi


class ConstantModel:
    """Always predicts the same class."""

    def __init__(self, class_id, num_classes):
        self.class_id = class_id
        self.num_classes = num_classes

    def forward(self, x, training=False):
        logits = np.zeros((x.shape[0], self.num_classes), dtype=np.float32)
        logits[:, self.class_id] = 1.0
        return Tensor(logits)


class NonFiniteLogitModel(ConstantModel):
    """Predicts class 0 of 2, with ``value`` as every class-1 logit."""

    def __init__(self, value):
        super().__init__(0, 2)
        self.value = value

    def forward(self, x, training=False):
        logits = super().forward(x).data
        logits[:, 1] = self.value
        return Tensor(logits)


class SeededRandomLogitModel:
    """Logits drawn from a per-sample hash; a fair coin over classes."""

    def __init__(self, num_classes, seed=0):
        self.num_classes = num_classes
        self.seed = seed

    def forward(self, x, training=False):
        data = np.ascontiguousarray(x.data)
        out = np.empty((data.shape[0], self.num_classes), dtype=np.float32)
        for i in range(data.shape[0]):
            digest = hash((self.seed, data[i].tobytes())) & 0xFFFFFFFF
            out[i] = np.random.default_rng(digest).standard_normal(self.num_classes)
        return Tensor(out)


class HighFreqEnergyModel:
    """Two-class thresholder on high-frequency spectral energy."""

    def __init__(self, radius, threshold):
        self.radius = radius
        self.threshold = threshold
        self.num_classes = 2

    def _hf_energy(self, images):
        spec = np.fft.fft2(images.astype(np.float64), axes=(2, 3))
        h, w = images.shape[2:]
        fi = np.minimum(np.arange(h), h - np.arange(h))
        fj = np.minimum(np.arange(w), w - np.arange(w))
        rad = np.sqrt(fi[:, None] ** 2 + fj[None, :] ** 2)
        mask = rad >= self.radius
        energy = (np.abs(spec) ** 2 * mask).sum(axis=(2, 3)) / (h * w)
        return energy.mean(axis=1)

    def forward(self, x, training=False):
        e = self._hf_energy(np.asarray(x.data))
        logits = np.stack([self.threshold - e, e - self.threshold], axis=1)
        return Tensor(logits.astype(np.float32))


class SpatialMeanModel:
    """logits[:, c] = spatial mean of input channel c: the features are the
    input and the head is the average (as ``Model.features`` and ``head``)."""

    class _Cfg:
        num_classes = 3

    cfg = _Cfg()

    def features(self, x):
        return x

    def head(self, h):
        return ad.global_avg_pool(h)

    def forward(self, x, training=False):
        return self.head(self.features(x))


class TestAccuracy:
    def test_constant_model_on_its_class(self):
        ds = synthetic_dataset(2, 40, seed=0)
        ones = ds.subset(np.nonzero(ds.labels == 1)[0])
        assert accuracy(ConstantModel(1, 2), ones) == 1.0

    def test_random_logits_near_chance(self):
        ds = synthetic_dataset(10, 1500, seed=3)
        acc = accuracy(SeededRandomLogitModel(10), ds)
        # binomial oracle: p=0.1, n=1500 -> sd ~ 0.0077; allow 4 sigma
        assert abs(acc - 0.1) < 4 * np.sqrt(0.1 * 0.9 / 1500)

    def test_labels_beyond_the_model_classes_rejected(self):
        # a 10-class dataset scored by a 2-class model
        ds = synthetic_dataset(10, 40, seed=0)
        with pytest.raises(InputError, match="labels"):
            accuracy(ConstantModel(0, 2), ds)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        """batch_size=-1 used to score nothing and return 0.0, and 0 to raise
        range()'s ValueError."""
        ds = synthetic_dataset(2, 8, seed=0)
        with pytest.raises(InputError, match="batch_size"):
            accuracy(ConstantModel(0, 2), ds, batch_size=batch_size)

    def test_zero_epsilon_attack_equals_clean(self):
        ds = synthetic_dataset(2, 32, seed=1)
        model = build_model(
            ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="haar"), seed=0
        )
        clean = accuracy(model, ds)
        attacked = accuracy(model, ds, attack=AttackConfig(epsilon=0.0, steps=2))
        assert attacked == clean

    def test_attacked_accuracy_equals_fresh_forward_on_x_adv(self, boundary_wrn):
        model, ds = boundary_wrn
        batches = []

        def recording_pgd(model, xb, yb, cfg, seed=0):
            res = pgd(model, xb, yb, cfg, seed=seed)
            batches.append((res.x_adv, yb))
            return res

        acc = accuracy(model, ds, attack=AttackConfig(epsilon=1e-3, step_size=5e-4, steps=2),
                       attack_fn=recording_pgd, batch_size=10)
        fresh = sum(int((eval_logits(model, xa).argmax(axis=1) == yb).sum())
                    for xa, yb in batches)
        assert 0 < acc < 1
        assert acc == fresh / len(ds)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_attacked_batch_costs_one_forward_per_step_plus_one(self, boundary_wrn, steps,
                                                                 monkeypatch):
        # k gradient passes in the attack, then accuracy's one forward on the
        # batch it returns
        model, ds = boundary_wrn
        calls = []
        forward = model.forward

        def counting_forward(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward", counting_forward)
        accuracy(model, ds, attack=AttackConfig(epsilon=1e-3, step_size=5e-4, steps=steps),
                 batch_size=len(ds))
        assert len(calls) == steps + 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
class TestNonFiniteLogitsRaise:
    """argmax of a NaN row is 0, so each of these used to score such logits
    as a prediction and return a number."""

    def test_accuracy(self, value):
        ds = synthetic_dataset(2, 8, seed=0)
        with pytest.raises(NumericError, match="non-finite logits"):
            accuracy(NonFiniteLogitModel(value), ds)

    def test_heat_map(self, value):
        ds = synthetic_dataset(2, 8, seed=0)
        with pytest.raises(NumericError, match="non-finite logits"):
            fourier_heat_map(NonFiniteLogitModel(value), ds, rows=1, cols=1)

    def test_nes_oracle(self, value):
        ds = synthetic_dataset(2, 4, seed=0)
        cfg = NesConfig(max_queries=4, samples_per_step=2)
        with pytest.raises(NumericError, match="non-finite logits"):
            nes_attack(logits_oracle(NonFiniteLogitModel(value)), ds.images, ds.labels, cfg)


class TestFourierHeatMap:
    def test_basis_images_unit_norm(self):
        for (i, j) in [(0, 1), (3, 5), (16, 0), (7, 31)]:
            u = fourier_basis_image(32, 32, i, j)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-6

    def test_perturbation_norm_contract(self):
        # the three-channel perturbation carries total L2 norm eps_f
        eps_f = 4.0
        u = fourier_basis_image(32, 32, 5, 9) * (eps_f / np.sqrt(3))
        pert = np.stack([u, -u, u])
        assert abs(np.linalg.norm(pert) - eps_f) < 1e-5

    def test_robust_constant_model_all_zero_grid(self):
        ds = synthetic_dataset(2, 24, seed=2)
        zeros_only = ds.subset(np.nonzero(ds.labels == 0)[0])
        grid = fourier_heat_map(ConstantModel(0, 2), zeros_only, eps_f=2.0,
                                samples_per_cell=8, rows=4, cols=4)
        assert grid.error_rates.max() == 0.0

    def test_high_frequency_thresholder_flips_only_high_cells(self):
        n, hw = 12, 32
        images = np.full((n, 3, hw, hw), 0.5, dtype=np.float32)
        ds = Dataset(images, np.zeros(n, dtype=np.int64), 2)
        eps_f = 4.0
        # per-channel added HF energy is eps_f^2/3; threshold sits halfway
        model = HighFreqEnergyModel(radius=8.0, threshold=eps_f ** 2 / 6.0)
        grid = fourier_heat_map(model, ds, eps_f=eps_f, samples_per_cell=4,
                                rows=17, cols=32)
        fi = np.minimum(np.arange(17), 32 - np.arange(17))
        fj = np.minimum(np.arange(32), 32 - np.arange(32))
        rad = np.sqrt(fi[:, None] ** 2 + fj[None, :] ** 2)
        high = rad >= 8.0
        assert np.all(grid.error_rates[high] == 1.0)
        assert np.all(grid.error_rates[~high] == 0.0)

    def test_deterministic_under_fixed_seed(self):
        ds = synthetic_dataset(2, 32, seed=4)
        model = build_model(
            ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="haar"), seed=1
        )
        a = fourier_heat_map(model, ds, samples_per_cell=8, seed=9, rows=3, cols=4)
        b = fourier_heat_map(model, ds, samples_per_cell=8, seed=9, rows=3, cols=4)
        assert np.array_equal(a.error_rates, b.error_rates)

    def test_grid_limits_enforced(self):
        """rows=0 or cols=0 used to raise numpy's zero-size ValueError, and
        rows=-1 its negative-dimensions one."""
        ds = synthetic_dataset(2, 8, seed=0)
        from wavetrain.errors import DimensionError

        for rows, cols in ((40, 8), (0, 8), (-1, 8), (4, 0)):
            with pytest.raises(DimensionError):
                fourier_heat_map(ConstantModel(0, 2), ds, rows=rows, cols=cols)

    @pytest.mark.parametrize("kwargs", [
        {"samples_per_cell": 0}, {"samples_per_cell": -1},
        {"eps_f": 0.0}, {"eps_f": -1.0}, {"eps_f": float("nan")}, {"eps_f": float("inf")},
    ])
    def test_bad_settings_rejected(self, kwargs):
        """samples_per_cell=0 used to return an all-NaN grid, and eps_f=nan a
        grid of rates from NaN images."""
        ds = synthetic_dataset(2, 8, seed=0)
        with pytest.raises(InputError, match=next(iter(kwargs))):
            fourier_heat_map(ConstantModel(0, 2), ds, rows=1, cols=1, **kwargs)


class TestGradCam:
    def test_cam_proportional_to_relu_of_selected_map(self, rng):
        model = SpatialMeanModel()
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        cam = gradcam(model, x, class_id=0)
        want = np.maximum(x[0], 0.0)
        want = (want - want.min()) / (want.max() - want.min())
        assert np.abs(cam - want).max() < 1e-5

    def test_uniform_logit_shift_leaves_cam_unchanged(self, rng):
        class Shifted(SpatialMeanModel):
            def head(self, h):
                logits = super().head(h)
                return ad.add(logits, Tensor(np.full(logits.shape, 5.0, dtype=np.float32)))

        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            gradcam(SpatialMeanModel(), x, 1), gradcam(Shifted(), x, 1)
        )

    def test_weights_match_feature_map_finite_differences(self, rng):
        model = SpatialMeanModel()
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        class_id = 2

        features = model.features(Tensor(x[None]))
        with ad.tape(features):
            logits = model.head(features)
        onehot = np.zeros(logits.shape, dtype=np.float32)
        onehot[0, class_id] = 1.0
        logits.backward(onehot)
        alphas = features.grad[0].mean(axis=(1, 2))

        # finite differences: bump one whole feature map by h
        h = 1e-2
        hw = x.shape[1] * x.shape[2]
        for k in range(3):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            sp = model.forward(Tensor(xp[None])).data[0, class_id]
            sm = model.forward(Tensor(xm[None])).data[0, class_id]
            fd_alpha = (sp - sm) / (2 * h) / hw
            assert abs(alphas[k] - fd_alpha) <= 1e-2 * max(abs(fd_alpha), 1e-3)

    def test_output_in_unit_interval(self, rng):
        model = build_model(
            ModelConfig(depth=1, width=1, num_classes=2, wavelet_base="haar"), seed=2
        )
        cam = gradcam(model, rng.random((3, 32, 32)).astype(np.float32), 1)
        assert cam.min() >= 0.0 and cam.max() <= 1.0

    # sha256 prefixes of the maps for classes 0-2 of a seed-1 model, haar
    # then db5, taken from a backward that walked the whole trunk's tape with
    # the channels-last conv2d
    @pytest.mark.parametrize("position,digest", [
        ("after_first_conv", "75dd8e266e161394f1a07e4b60640ff5"),
        ("before_final_relu", "e1869e1d786d257cdd33e403b185fd1a"),
        ("after_final_relu", "010b899d7b8532e77dfa73ddad496775"),
        ("disabled", "1cc6a28a144d66f9522307839fc23f7f"),
    ])
    def test_bytes_match_the_full_graph_reference(self, position, digest):
        image = synthetic_dataset(3, 1, seed=2).images[0]
        h = hashlib.sha256()
        for base in ("haar", "db5"):
            model = build_model(ModelConfig(depth=1, width=1, num_classes=3,
                                            wap_position=position, wavelet_base=base), seed=1)
            for k in range(3):
                cam = gradcam(model, image, k)
                assert cam.max() == 1.0
                h.update(cam.tobytes())
        assert h.hexdigest()[:32] == digest

    def test_leaves_no_parameter_gradient(self, rng):
        model = build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=2)
        for class_id in (0, 1):
            gradcam(model, rng.random((3, 32, 32)).astype(np.float32), class_id)
        assert [name for name, p in model.params.items() if p.grad is not None] == []

    def test_class_out_of_range(self, rng):
        model = SpatialMeanModel()
        with pytest.raises(InputError):
            gradcam(model, rng.random((3, 8, 8)).astype(np.float32), 7)


SCALES = [2.0 ** -k for k in range(2, 8)]


class TestDecayCheck:
    def test_lipschitz_probe_haar(self):
        fit = theorem_decay_check("haar", 1.0, SCALES)
        assert abs(fit.fitted_slope - 1.5) < 0.1

    def test_half_hoelder_probe_haar(self):
        fit = theorem_decay_check("haar", 0.5, SCALES)
        assert abs(fit.fitted_slope - 1.0) < 0.1

    def test_multi_moment_base_with_interior_kink(self):
        fit = theorem_decay_check("db5", 1.0, SCALES[:5], kink_frac=0.37)
        assert abs(fit.fitted_slope - 1.5) < 0.1

    def test_grid_stability(self):
        coarse = theorem_decay_check("haar", 0.5, SCALES, grid_points=1 << 14)
        fine = theorem_decay_check("haar", 0.5, SCALES, grid_points=1 << 16)
        assert abs(coarse.fitted_slope - fine.fitted_slope) < 0.02

    def test_resolution_error_for_tiny_scale(self):
        with pytest.raises(ResolutionError):
            theorem_decay_check("haar", 1.0, [2 ** -2, 2 ** -15], grid_points=1 << 12)


class TestLocalRegularity:
    def test_singularity_probe_bounded_and_stable(self):
        res = theorem_local_regularity_check("haar", 1.0)
        assert res
        for mx, med in res.ratios_by_refinement:
            assert np.isfinite(mx) and mx < 10.0 * med

    def test_zero_offset_reduces_to_decay_bound(self):
        res = theorem_local_regularity_check("haar", 1.0, offsets=(0.0,))
        # ratio = |coef| / a^(alpha+1/2) is the decay constant: scale-free
        ratios = np.array([r for r, _ in [res.ratios_by_refinement[0]]])
        fit = theorem_decay_check("haar", 1.0, SCALES)
        consts = [m / a ** fit.theoretical_slope for a, m in fit.samples]
        assert abs(res.max_ratio - max(consts)) / max(consts) < 0.05

    def test_dyadic_modulus_halves_for_lipschitz_probe(self):
        res = theorem_local_regularity_check("haar", 1.0)
        for ratio in res.modulus_halving_ratios:
            assert abs(ratio - 0.5) <= 0.2 * 0.5

    def test_sqrt_probe_halving_matches_its_exponent(self):
        res = theorem_local_regularity_check("haar", 0.5)
        target = 2 ** -0.5
        for ratio in res.modulus_halving_ratios:
            assert abs(ratio - target) <= 0.2 * target

    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    @pytest.mark.parametrize("levels", [5, 12])
    def test_cascade_wavelet_matches_convolution_oracle(self, name, levels):
        fb = filter_bank(name)
        grid, psi = cascade_wavelet(fb, levels)
        want_grid, want = cascade_oracle(fb, levels)
        assert np.array_equal(grid, want_grid) and psi.shape == want.shape
        assert np.abs(psi - want).max() <= 1e-12 * np.abs(want).max()

    def test_cascade_wavelet_haar_is_square_wave(self):
        grid, psi = cascade_wavelet(filter_bank("haar"), levels=5)
        mid = len(psi) // 2
        assert np.allclose(psi[: mid - 1], 1.0)
        assert np.allclose(psi[mid + 1 : -1], -1.0)
        step = grid[1] - grid[0]
        assert abs((psi * psi).sum() * step - 1.0) < 0.1
        assert abs(psi.sum() * step) < 1e-9
