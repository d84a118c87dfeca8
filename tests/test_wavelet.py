import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrain import wavelet
from wavetrain.autodiff import Tensor
from wavetrain.errors import DimensionError, UnsupportedBaseError
from wavetrain.wavelet import (
    SUPPORTED_BASES,
    _correlate_down,
    _up_convolve,
    dwt2d,
    filter_bank,
    idwt2d,
    wap_decimation,
    wap_filter,
    wap_lipschitz_estimate,
    wavelet_average_pool,
    wavelet_low_pass_pool,
)

from gradcheck import central_differences, relative_errors

SQRT2 = np.sqrt(2.0)


def filt_down_oracle(x, f, axis):
    """Nested-loop periodic correlate-and-downsample, float64."""
    x = np.moveaxis(np.asarray(x, dtype=np.float64), axis, -1)
    length = x.shape[-1]
    out = np.zeros(x.shape[:-1] + (length // 2,))
    for k in range(length // 2):
        for n, c in enumerate(f):
            out[..., k] += c * x[..., (2 * k + n) % length]
    return np.moveaxis(out, -1, axis)


def up_conv_oracle(g, f, axis):
    """Nested-loop adjoint of filt_down_oracle, taps in increasing order."""
    g = np.moveaxis(np.asarray(g, dtype=np.float64), axis, -1)
    half = g.shape[-1]
    out = np.zeros(g.shape[:-1] + (2 * half,))
    for j, c in enumerate(f):
        for k in range(half):
            out[..., (2 * k + j) % (2 * half)] += c * g[..., k]
    return np.moveaxis(out, -1, axis)


def dwt2d_oracle(img, fb):
    """Separable width-then-height decomposition via the direct loop."""
    lw = filt_down_oracle(img, fb.lo_a, -1)
    hw = filt_down_oracle(img, fb.hi_a, -1)
    return {
        "ll": filt_down_oracle(lw, fb.lo_a, -2),
        "hl": filt_down_oracle(lw, fb.hi_a, -2),
        "lh": filt_down_oracle(hw, fb.lo_a, -2),
        "hh": filt_down_oracle(hw, fb.hi_a, -2),
    }


def correlate_down_moveaxis(a, f, axis):
    """The analysis core the in-place slicing replaced: the same taps on a
    view with the filtered axis moved last, returned moved back."""
    a = np.moveaxis(a, axis, -1)
    length = a.shape[-1]
    half = length // 2
    out = np.zeros(a.shape[:-1] + (half,), dtype=np.float64)
    for n, c in enumerate(f):
        if c == 0.0:
            continue
        c, r = np.float64(c), n % length
        m = (length - r + 1) // 2
        out[..., :m] += c * a[..., r::2]
        out[..., m:] += c * a[..., r % 2 : 2 * (half - m) : 2]
    return np.moveaxis(out, -1, axis)


def up_convolve_moveaxis(a, f, axis):
    """The synthesis core the in-place slicing replaced."""
    a = np.moveaxis(a, axis, -1)
    half = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (2 * half,), dtype=np.float64)
    for j, c in enumerate(f):
        if c == 0.0:
            continue
        c, r = np.float64(c), j % (2 * half)
        phase, s = out[..., r % 2 :: 2], r // 2
        phase[..., s:] += c * a[..., : half - s]
        phase[..., :s] += c * a[..., half - s :]
    return np.moveaxis(out, -1, axis)


class TestFilterBank:
    def test_haar_lowpass(self):
        fb = filter_bank("haar")
        assert np.allclose(fb.lo_a, [0.70710678, 0.70710678])
        assert np.allclose(fb.hi_a, [0.70710678, -0.70710678])

    def test_db5_identities(self):
        fb = filter_bank("db5")
        assert len(fb.lo_a) == 10
        assert abs(fb.lo_a.sum() - SQRT2) < 1e-10
        assert abs(fb.lo_a @ fb.lo_a - 1.0) < 1e-10
        for k in range(1, 5):
            assert abs(fb.lo_a[: 10 - 2 * k] @ fb.lo_a[2 * k :]) < 1e-10

    def test_dmey_rejected(self):
        with pytest.raises(UnsupportedBaseError, match="infinite support"):
            filter_bank("dmey")

    def test_unknown_rejected(self):
        with pytest.raises(UnsupportedBaseError):
            filter_bank("db99")

    @pytest.mark.parametrize("name,length", [
        ("haar", 2), ("db5", 10), ("sym4", 8), ("coif4", 24), ("bior3.1", 8),
    ])
    def test_published_filter_lengths(self, name, length):
        assert len(filter_bank(name).lo_a) == length

    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_highpass_sums_to_zero(self, name):
        assert abs(filter_bank(name).hi_a.sum()) < 1e-10

    @pytest.mark.parametrize("name", ["haar", "db5", "sym4", "coif4"])
    def test_orthogonal_synthesis_reuses_analysis(self, name):
        fb = filter_bank(name)
        assert fb.orthogonal
        assert np.array_equal(fb.lo_s, fb.lo_a)

    @pytest.mark.parametrize("name", ["bior3.1", "rbio2.2"])
    def test_biorthogonal_pr_identity(self, name):
        fb = filter_bank(name)
        assert not fb.orthogonal
        length = len(fb.lo_a)
        for k in range(-(length // 2), length // 2 + 1):
            acc = sum(
                fb.lo_a[n] * fb.lo_s[n + 2 * k] + fb.hi_a[n] * fb.hi_s[n + 2 * k]
                for n in range(length)
                if 0 <= n + 2 * k < length
            )
            assert abs(acc - (2.0 if k == 0 else 0.0)) < 1e-10


# every stored coefficient table: (base, 0) is its lo_a, (base, 1) its lo_s
_TABLES = [(name, 0) for name in SUPPORTED_BASES] + [("bior3.1", 1), ("rbio2.2", 1)]


def _edit_table(monkeypatch, name, side, deltas):
    """Put a copy of one catalog table with ``deltas`` ({tap: change}) added
    in the catalog; return the edited table."""
    entry = list(wavelet._CATALOG[name])
    table = np.array(entry[side], dtype=np.float64)
    for tap, change in deltas.items():
        table[tap] += change
    entry[side] = list(table)
    monkeypatch.setitem(wavelet._CATALOG, name, tuple(entry))
    return table


class TestValidation:
    """A transcription error in any table is refused when the bank is built."""

    @pytest.mark.parametrize("name,side", _TABLES)
    def test_every_moved_coefficient_refused(self, monkeypatch, name, side):
        for tap in np.flatnonzero(wavelet._CATALOG[name][side]):
            _edit_table(monkeypatch, name, side, {tap: 1e-6})
            with pytest.raises(ValueError):
                filter_bank(name)

    @pytest.mark.parametrize("name,side", [t for t in _TABLES if t[0] != "haar"])
    def test_sum_preserving_move_refused_by_reconstruction(self, monkeypatch, name, side):
        # shifting 1e-6 between two taps of one parity keeps the lowpass and
        # the alternating (highpass) sums, so only the reconstruction check
        # can see it; haar has no two taps of one parity
        table = np.asarray(wavelet._CATALOG[name][side], dtype=np.float64)
        taps = [n for n in np.flatnonzero(table) if n + 2 < len(table) and table[n + 2]]
        assert taps
        signs = (-1.0) ** np.arange(len(table))
        for n in taps:
            edited = _edit_table(monkeypatch, name, side, {n: 1e-6, n + 2: -1e-6})
            assert abs(edited.sum() - table.sum()) < 1e-12
            assert abs(signs @ edited - signs @ table) < 1e-12
            with pytest.raises(ValueError):
                filter_bank(name)


def _bank_filters(fb):
    return [fb.lo_a, fb.hi_a, fb.lo_s, fb.hi_s, 0.5 * (fb.lo_a + fb.hi_a)]


class TestPolyphaseCores:
    """The strided-slice cores against the nested-loop oracles. On float64
    input both sides add the same products in the same tap order, so the
    forward is compared bit for bit."""

    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize(
        "name,length",
        [(n, 2) for n in SUPPORTED_BASES]
        + [(n, 6) for n in SUPPORTED_BASES]
        + [("coif4", 4), ("db5", 4)],
    )
    def test_forward_matches_oracle(self, rng, name, length, axis):
        # L=6 has an odd half-length; coif4 (24 taps) and db5 (10 taps) at
        # L=2 and L=4 wrap around the signal more than once
        x = rng.standard_normal((2, 3, length, length))
        for f in _bank_filters(filter_bank(name)):
            np.testing.assert_array_equal(
                _correlate_down(x, f, axis), filt_down_oracle(x, f, axis)
            )

    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize("length", [2, 4, 6, 8, 16])
    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_backward_is_adjoint(self, rng, name, length, axis):
        shape = (2, 3, length, length)
        down = list(shape)
        down[axis] //= 2
        x = rng.standard_normal(shape)
        y = rng.standard_normal(down)
        for f in _bank_filters(filter_bank(name)):
            lhs = float((_correlate_down(x, f, axis) * y).sum())
            rhs = float((x * _up_convolve(y, f, axis)).sum())
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("shape", [(64, 16, 32, 32), (32, 64, 8, 8)])
    def test_haar_pool_bit_identical_to_oracle(self, rng, shape):
        # the two shapes the models pool: after the stem and after the last relu
        fb = filter_bank("haar")
        f = 0.5 * (fb.lo_a + fb.hi_a)
        x = rng.standard_normal(shape).astype(np.float32)
        g = rng.standard_normal(shape[:2] + (shape[2] // 2, shape[3] // 2)).astype(np.float32)

        t = Tensor(x, requires_grad=True)
        out = wavelet_average_pool(t, fb)
        out._backward(g)

        want_fwd = filt_down_oracle(filt_down_oracle(x, f, -1), f, -2).astype(np.float32)
        want_bwd = up_conv_oracle(up_conv_oracle(g, f, -2), f, -1).astype(np.float32)
        np.testing.assert_array_equal(out.data, want_fwd)
        np.testing.assert_array_equal(t.grad, want_bwd)

    @pytest.mark.parametrize("name", ["haar", "coif4"])
    def test_pool_bytes_independent_of_buffer_alignment(self, rng, name):
        fb = filter_bank(name)
        shape, down = (4, 3, 16, 16), (4, 3, 8, 8)
        x = rng.standard_normal(shape).astype(np.float32)
        g = rng.standard_normal(down).astype(np.float32)

        def offset_copy(a):
            # a view one float32 element into a larger buffer
            view = np.empty(a.size + 1, dtype=np.float32)[1:].reshape(a.shape)
            view[...] = a
            return view

        def run(xin, gin):
            t = Tensor(xin, requires_grad=True)
            out = wavelet_average_pool(t, fb)
            out._backward(gin)
            return out.data.tobytes(), t.grad.tobytes()

        x_off, g_off = offset_copy(x), offset_copy(g)
        assert x_off.ctypes.data % 8 != 0
        assert run(x_off, g_off) == run(x, g)


class TestCoreBytes:
    """The in-place cores against the moveaxis cores they replaced: same
    taps, same order, same float64 accumulation, so the same bytes, and the
    pooled map keeps its memory layout."""

    SHAPES = [(64, 16, 32, 32), (3, 5, 8, 8), (1, 1, 2, 2)]

    @staticmethod
    def _inputs(rng, shape):
        x = rng.standard_normal(shape).astype(np.float32)
        # the conv output's layout: an NCHW view of a channel-major buffer
        cnhw = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        return x, cnhw, x.astype(np.float64)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_cores_match_moveaxis_cores(self, rng, name, shape):
        fb = filter_bank(name)
        for x in self._inputs(rng, shape):
            for axis in (-1, -2):
                down = list(shape)
                down[axis] //= 2
                g = rng.standard_normal(down)
                for f in (fb.lo_a, fb.hi_a, fb.lo_s, 0.5 * (fb.lo_a + fb.hi_a)):
                    np.testing.assert_array_equal(
                        _correlate_down(x, f, axis), correlate_down_moveaxis(x, f, axis))
                    np.testing.assert_array_equal(
                        _up_convolve(g, f, axis), up_convolve_moveaxis(g, f, axis))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_pool_matches_moveaxis_pipeline(self, rng, name, shape):
        fb = filter_bank(name)
        f = 0.5 * (fb.lo_a + fb.hi_a)
        g = rng.standard_normal(shape[:2] + (shape[2] // 2, shape[3] // 2)).astype(np.float32)
        want_bwd = up_convolve_moveaxis(up_convolve_moveaxis(g, f, -2), f, -1).astype(np.float32)
        for x in self._inputs(rng, shape)[:2]:
            want = correlate_down_moveaxis(correlate_down_moveaxis(x, f, -1), f, -2).astype(
                np.float32)
            t = Tensor(x, requires_grad=True)
            out = wavelet_average_pool(t, fb)
            out._backward(g)
            assert out.data.tobytes() == want.tobytes()
            assert t.grad.tobytes() == want_bwd.tobytes()


class TestDwt2d:
    def test_constant_image_haar(self):
        c = 0.8
        x = Tensor(np.full((1, 1, 8, 8), c))
        s = dwt2d(x, filter_bank("haar"))
        assert np.allclose(s.ll.data, 2 * c, atol=1e-6)
        for band in (s.lh, s.hl, s.hh):
            assert np.abs(band.data).max() < 1e-6

    def test_haar_two_by_two_block(self):
        a, b, c, d = 1.0, 2.0, -0.5, 3.0
        x = Tensor(np.array([[a, b], [c, d]]).reshape(1, 1, 2, 2))
        s = dwt2d(x, filter_bank("haar"))
        assert abs(s.ll.data.item() - (a + b + c + d) / 2) < 1e-6
        assert abs(s.lh.data.item() - (a - b + c - d) / 2) < 1e-6
        assert abs(s.hl.data.item() - (a + b - c - d) / 2) < 1e-6
        assert abs(s.hh.data.item() - (a - b - c + d) / 2) < 1e-6

    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_matches_direct_filtering_oracle(self, rng, name):
        fb = filter_bank(name)
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        s = dwt2d(Tensor(x), fb)
        want = dwt2d_oracle(x, fb)
        for key, got in (("ll", s.ll), ("lh", s.lh), ("hl", s.hl), ("hh", s.hh)):
            assert np.abs(got.data - want[key]).max() < 1e-5

    def test_parseval_db5(self, rng):
        fb = filter_bank("db5")
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        s = dwt2d(Tensor(x), fb)
        total = sum(float((b.data.astype(np.float64) ** 2).sum()) for b in (s.ll, s.lh, s.hl, s.hh))
        energy = float((x.astype(np.float64) ** 2).sum())
        assert abs(total - energy) / energy < 1e-4

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionError):
            dwt2d(Tensor(np.zeros((1, 1, 7, 8))), filter_bank("haar"))


class TestIdwt2d:
    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_round_trip(self, rng, name):
        fb = filter_bank(name)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        recon = idwt2d(dwt2d(Tensor(x), fb), fb)
        assert np.abs(recon.data - x).max() < 1e-5

    def test_zero_subbands_give_zero_image(self):
        fb = filter_bank("sym4")
        z = [Tensor(np.zeros((1, 1, 4, 4))) for _ in range(4)]
        from wavetrain.wavelet import SubbandSet

        out = idwt2d(SubbandSet(*z), fb)
        assert np.abs(out.data).max() == 0.0

    def test_ll_only_reconstructs_constant(self):
        fb = filter_bank("haar")
        c = 1.25
        x = Tensor(np.full((1, 1, 8, 8), c))
        s = dwt2d(x, fb)
        from wavetrain.wavelet import SubbandSet

        zeros = lambda: Tensor(np.zeros_like(s.ll.data))
        out = idwt2d(SubbandSet(s.ll, zeros(), zeros(), zeros()), fb)
        assert np.abs(out.data - c).max() < 1e-6

    def test_mismatched_subband_shapes_rejected(self):
        from wavetrain.wavelet import SubbandSet

        with pytest.raises(DimensionError):
            SubbandSet(
                Tensor(np.zeros((1, 1, 4, 4))),
                Tensor(np.zeros((1, 1, 2, 2))),
                Tensor(np.zeros((1, 1, 4, 4))),
                Tensor(np.zeros((1, 1, 4, 4))),
            )


class TestWaveletAveragePool:
    def test_constant_image_halves_value(self):
        c = 0.6
        out = wavelet_average_pool(Tensor(np.full((1, 2, 8, 8), c)), filter_bank("haar"))
        assert out.shape == (1, 2, 4, 4)
        assert np.abs(out.data - c / 2).max() < 1e-6

    def test_haar_corner_sampling(self, rng):
        # the four Haar subbands telescope: only the even-even sample survives
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        out = wavelet_average_pool(Tensor(x), filter_bank("haar"))
        assert np.abs(out.data - 0.5 * x[:, :, 0::2, 0::2]).max() < 1e-6

    def test_composition_oracle(self, rng):
        fb = filter_bank("db5")
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        got = wavelet_average_pool(Tensor(x), fb)
        want = dwt2d_oracle(x, fb)
        avg = 0.25 * (want["ll"] + want["lh"] + want["hl"] + want["hh"])
        assert np.abs(got.data - avg).max() < 1e-5

    def test_homogeneity(self, rng):
        fb = filter_bank("haar")
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        lhs = wavelet_average_pool(Tensor(3.0 * x), fb).data
        rhs = 3.0 * wavelet_average_pool(Tensor(x), fb).data
        assert np.abs(lhs - rhs).max() < 1e-6

    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_gradient_matches_finite_differences(self, rng, name):
        fb = filter_bank(name)
        x0 = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        r = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)

        t = Tensor(x0, requires_grad=True)
        wavelet_average_pool(t, fb).backward(r)

        def oracle(v):
            bands = dwt2d_oracle(v, fb)
            avg = 0.25 * (bands["ll"] + bands["lh"] + bands["hl"] + bands["hh"])
            return (avg * r.astype(np.float64)).sum()

        fd = central_differences(oracle, x0, dtype=np.float64)
        assert relative_errors(t.grad, fd).max() < 1e-3


class TestWapDecimation:
    def test_haar_is_one_tap_at_offset_zero(self):
        assert wap_decimation(filter_bank("haar")) == 1.0 / SQRT2

    @pytest.mark.parametrize("name,nonzero", [
        ("db5", 10), ("sym4", 8), ("coif4", 24), ("bior3.1", 4), ("rbio2.2", 5),
    ])
    def test_other_banks_filter_before_subsampling(self, name, nonzero):
        fb = filter_bank(name)
        assert np.count_nonzero(wap_filter(fb)) == nonzero
        assert wap_decimation(fb) is None

    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 2, 6, 10)])
    def test_haar_pool_is_scaled_decimation(self, rng, shape):
        x = rng.standard_normal(shape).astype(np.float32)
        c = wap_decimation(filter_bank("haar"))
        got = wavelet_average_pool(Tensor(x), filter_bank("haar")).data
        want = (c * (c * x[:, :, ::2, ::2].astype(np.float64))).astype(np.float32)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestLowPassPool:
    def test_constant_no_scaling(self):
        out = wavelet_low_pass_pool(Tensor(np.full((1, 1, 8, 8), 0.7)), filter_bank("haar"))
        assert np.abs(out.data - 1.4).max() < 1e-6

    def test_equals_ll_exactly(self, rng):
        fb = filter_bank("sym4")
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(
            wavelet_low_pass_pool(Tensor(x), fb).data, dwt2d(Tensor(x), fb).ll.data
        )

    @pytest.mark.parametrize("name", ["haar", "db5", "sym4", "coif4"])
    def test_norm_not_expanded_for_orthogonal(self, rng, name):
        fb = filter_bank(name)
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        out = wavelet_low_pass_pool(Tensor(x), fb)
        assert np.linalg.norm(out.data) <= np.linalg.norm(x) * (1 + 1e-4)


def multilevel_consistency_check(x, fb, levels, tol=1e-5):
    """Oracle for the resolution ladder of ``dwt2d``/``idwt2d``: at every
    level the decomposition of the current approximation reconstructs it
    exactly and a repeated decomposition is bit-identical (nested
    approximation spaces, deterministic recursion)."""
    if levels < 1:
        raise DimensionError("levels must be >= 1")
    h, w = x.data.shape[2:] if x.data.ndim == 4 else (0, 0)
    if x.data.ndim != 4 or h % (1 << levels) or w % (1 << levels):
        raise DimensionError(
            f"spatial dims must be divisible by 2^{levels}, got {x.data.shape}"
        )
    cur = Tensor(x.data.copy())
    for _ in range(levels):
        s = dwt2d(cur, fb)
        again = dwt2d(cur, fb)
        for a, b in ((s.ll, again.ll), (s.lh, again.lh), (s.hl, again.hl), (s.hh, again.hh)):
            if not np.array_equal(a.data, b.data):
                return False
        recon = idwt2d(s, fb)
        atol = tol * max(1.0, float(np.abs(cur.data).max()))
        if np.abs(recon.data - cur.data).max() > atol:
            return False
        cur = s.ll
    return True


class TestMultilevelConsistency:
    def test_one_level_trivially_true(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 8, 8)).astype(np.float32))
        assert multilevel_consistency_check(x, filter_bank("haar"), 1)

    def test_three_levels_haar(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
        assert multilevel_consistency_check(x, filter_bank("haar"), 3)

    def test_insufficient_divisibility(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 8, 8)).astype(np.float32))
        with pytest.raises(DimensionError):
            multilevel_consistency_check(x, filter_bank("haar"), 4)

    def test_zeroed_ll_kills_level_two_approximation(self, rng):
        # decomposition oracle: drop the approximation at level 1, rebuild,
        # re-decompose twice; the level-2 approximation must be ~0 for Haar
        from wavetrain.wavelet import SubbandSet

        fb = filter_bank("haar")
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        s = dwt2d(Tensor(x), fb)
        modified = idwt2d(
            SubbandSet(Tensor(np.zeros_like(s.ll.data)), s.lh, s.hl, s.hh), fb
        )
        lvl1 = dwt2d(modified, fb)
        lvl2 = dwt2d(lvl1.ll, fb)
        assert np.abs(lvl2.ll.data).max() < 1e-5


class TestLipschitz:
    """Exact operator norms from polyphase analysis pin the pool's norm.

    Orthogonal banks: every singular value equals 0.5. rbio2.2: 0.625.
    bior3.1: 1.0625 (= 17/16); no valid sign/shift convention brings this
    base at or below 1, so the catalog documents the measured value. The
    norm is exact up to the tables' own accuracy: coif4, validated to 1e-10,
    reads 0.5 + 7e-11.
    """

    EXPECTED = {
        "haar": 0.5,
        "db5": 0.5,
        "sym4": 0.5,
        "coif4": 0.5,
        "rbio2.2": 0.625,
        "bior3.1": 1.0625,
    }

    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_power_iteration_matches_polyphase_value(self, name):
        got = wap_lipschitz_estimate(filter_bank(name))
        assert abs(got - self.EXPECTED[name]) < 1e-9

    def test_haar_is_half(self):
        assert abs(wap_lipschitz_estimate(filter_bank("haar")) - 0.5) < 1e-9


class TestBaseUnderGlobalAverage:
    """Along one axis the pooled samples sum to (even tap sum) x (sum of the
    even samples) + (odd tap sum) x (sum of the odd samples). Every WAP
    filter's tap sums are 1/sqrt(2) and 0, every lowpass's 1/sqrt(2) and
    1/sqrt(2), so a global average after the pool is the same for every base."""

    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_tap_sums_by_parity(self, name):
        fb = filter_bank(name)
        f = wap_filter(fb)
        sums = [f[::2].sum(), f[1::2].sum(), fb.lo_a[::2].sum(), fb.lo_a[1::2].sum()]
        assert np.allclose(sums, [1 / SQRT2, 0.0, 1 / SQRT2, 1 / SQRT2], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", SUPPORTED_BASES)
    def test_global_average_after_pool(self, rng, name):
        fb = filter_bank(name)
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        wap = wavelet_average_pool(Tensor(x), fb).data.mean(axis=(2, 3))
        lpf = wavelet_low_pass_pool(Tensor(x), fb).data.mean(axis=(2, 3))
        x64 = x.astype(np.float64)
        assert np.allclose(wap, 0.5 * x64[:, :, ::2, ::2].mean(axis=(2, 3)), rtol=0, atol=1e-5)
        assert np.allclose(lpf, 2.0 * x64.mean(axis=(2, 3)), rtol=0, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(SUPPORTED_BASES),
    h=st.sampled_from([4, 6, 8, 12]),
    w=st.sampled_from([4, 6, 8, 12]),
    seed=st.integers(0, 2**31 - 1),
)
def test_perfect_reconstruction_property(name, h, w, seed):
    fb = filter_bank(name)
    x = np.random.default_rng(seed).standard_normal((1, 2, h, w)).astype(np.float32)
    recon = idwt2d(dwt2d(Tensor(x), fb), fb)
    assert np.abs(recon.data - x).max() < 1e-5


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(["haar", "db5", "sym4", "coif4"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_parseval_property_orthogonal(name, seed):
    fb = filter_bank(name)
    x = np.random.default_rng(seed).standard_normal((1, 1, 8, 8)).astype(np.float32)
    s = dwt2d(Tensor(x), fb)
    total = sum(float((b.data.astype(np.float64) ** 2).sum()) for b in (s.ll, s.lh, s.hl, s.hh))
    energy = float((x.astype(np.float64) ** 2).sum())
    assert abs(total - energy) / energy < 1e-4


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(SUPPORTED_BASES),
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_wap_linearity_property(name, a, b, seed):
    fb = filter_bank(name)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
    y = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
    lhs = wavelet_average_pool(Tensor(a * x + b * y), fb).data
    rhs = a * wavelet_average_pool(Tensor(x), fb).data + b * wavelet_average_pool(Tensor(y), fb).data
    assert np.abs(lhs - rhs).max() < 1e-5
