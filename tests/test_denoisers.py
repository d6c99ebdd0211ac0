import warnings

import numpy as np
import pytest

from pnpkit import (
    CirculantOp,
    DenseOp,
    DivergenceError,
    DiagonalOp,
    GmmPrior,
    Rng,
    ShapeError,
    compose,
    estimate_residual_lipschitz,
    gaussian_filter_denoiser,
    gaussian_kernel,
    gaussian_smoother,
    gs_denoiser,
    homogeneity_defect,
    jacobian_asymmetry,
    linear_spectral_denoiser,
    make_blur,
    make_mask,
    mmse_gmm_denoiser,
    nlm_denoiser,
    operator_norm,
    prox_tv,
    tv_denoiser,
)
from pnpkit.denoisers import Denoiser
from pnpkit.solvers import RegSlot


def nlm_quadruple_loop(image, patch_radius, window_radius, h):
    """Direct NLM oracle: loops over pixels, window offsets, and patch entries."""
    rows, cols = image.shape
    out = np.zeros_like(image)
    for i in range(rows):
        for j in range(cols):
            num = 0.0
            den = 0.0
            for di in range(-window_radius, window_radius + 1):
                for dj in range(-window_radius, window_radius + 1):
                    dist2 = 0.0
                    for pi in range(-patch_radius, patch_radius + 1):
                        for pj in range(-patch_radius, patch_radius + 1):
                            a = image[(i + pi) % rows, (j + pj) % cols]
                            b = image[(i + di + pi) % rows, (j + dj + pj) % cols]
                            dist2 += (a - b) ** 2
                    w = np.exp(-dist2 / (h * h))
                    num += w * image[(i + di) % rows, (j + dj) % cols]
                    den += w
            out[i, j] = num / den
    return out


DENOISER_KINDS = {
    "gaussian": lambda: gaussian_filter_denoiser(1.0),
    "nlm": lambda: nlm_denoiser(1, 1, 0.3),
    "tv": lambda: tv_denoiser(1.0),
    "spectral": lambda: linear_spectral_denoiser((8, 8), 0.5),
    "gs": lambda: gs_denoiser(gaussian_smoother((8, 8), 1.5, floor=0.15), weight=0.7),
    "gmm": lambda: mmse_gmm_denoiser(GmmPrior(np.ones(1), np.zeros((1, 64)), np.ones(1))),
}


@pytest.mark.parametrize("sigma", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", sorted(DENOISER_KINDS))
def test_a_sigma_that_is_not_finite_is_rejected(kind, sigma):
    den = DENOISER_KINDS[kind]()
    x = np.full((8, 8), 0.5)
    assert np.all(np.isfinite(den.apply(x, 0.1)))
    with pytest.raises(ValueError, match="sigma must be finite"):
        den.apply(x, sigma)
    with pytest.raises(ValueError, match="sigma must be finite"):
        RegSlot(denoiser=den, sigma=sigma)


@pytest.mark.parametrize("bad_shape", [(8, 9), (64,), (8,)], ids=str)
@pytest.mark.parametrize("kind,hook", [
    ("gs", "apply"), ("gs", "potential"), ("gs", "grad_potential"), ("gs", "prox_potential"),
    ("spectral", "apply"), ("spectral", "prox_potential"),
])
def test_a_shape_fixed_hook_rejects_another_shape(kind, hook, bad_shape):
    den = DENOISER_KINDS[kind]()
    with pytest.raises(ValueError, match=r"expected shape \(8, 8\), got"):
        getattr(den, hook)(np.ones(bad_shape), 0.0)


class TestGaussianFilter:
    def test_constant_preserved(self):
        d = gaussian_filter_denoiser(1.5)
        x = np.full((12, 12), 0.6)
        np.testing.assert_allclose(d.apply(x), x, atol=1e-13)

    def test_delta_gives_kernel(self):
        d = gaussian_filter_denoiser(1.0, radius=2)
        x = np.zeros((9, 9))
        x[4, 4] = 1.0
        out = d.apply(x)
        kernel = gaussian_kernel(1.0, ndim=2, radius=2)
        np.testing.assert_allclose(out[2:7, 2:7], kernel, atol=1e-13)

    def test_white_noise_variance_ratio(self):
        # output/input variance equals ||h||_2^2 for white noise
        d = gaussian_filter_denoiser(1.2, radius=3)
        kernel = gaussian_kernel(1.2, ndim=2, radius=3)
        rng = Rng(11)
        x = rng.standard_normal((1000, 1000))
        out = d.apply(x)
        ratio = np.var(out) / np.var(x)
        assert ratio == pytest.approx(float(np.sum(kernel**2)), rel=0.01)

    def test_symmetric_jacobian(self):
        d = gaussian_filter_denoiser(1.0, radius=1)
        x = Rng(0).uniform(0, 1, (4, 4))
        assert jacobian_asymmetry(d, x, 0.1) <= 1e-6

    def test_negative_radius_rejected(self):
        # clamped to 0, it made the filter the identity
        with pytest.raises(ValueError, match="radius"):
            gaussian_kernel(1.0, radius=-2)
        with pytest.raises(ValueError, match="radius"):
            gaussian_filter_denoiser(1.0, radius=-2)
        np.testing.assert_array_equal(gaussian_kernel(1.0, radius=0), np.ones((1, 1)))

    @pytest.mark.parametrize("sigma", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("build", [
        gaussian_kernel, lambda s: gaussian_smoother((8, 8), s), gaussian_filter_denoiser,
    ], ids=["kernel", "smoother", "denoiser"])
    def test_a_kernel_sigma_that_is_not_finite_is_rejected_where_built(self, build, sigma):
        with pytest.raises(ValueError, match="kernel sigma must be finite and positive"):
            build(sigma)

    @pytest.mark.parametrize("sigma", [1e-300, 5e-324, 1e-160])
    def test_a_tiny_sigma_gives_the_delta_without_warnings(self, sigma):
        # (t / sigma)^2 overflows to inf off the centre, and exp(-inf) = 0
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = gaussian_kernel(sigma)
        np.testing.assert_array_equal(kernel, delta)


class TestNlm:
    def test_constant_preserved(self):
        d = nlm_denoiser(1, 2, 0.5)
        x = np.full((8, 8), 0.3)
        np.testing.assert_allclose(d.apply(x), x, atol=1e-13)

    def test_huge_h_gives_window_mean(self, rng):
        d = nlm_denoiser(1, 2, 1e9)
        x = rng.uniform(0, 1, (8, 8))
        out = d.apply(x)
        # all weights equal -> periodic moving average over the window
        window = np.zeros((8, 8))
        for di in range(-2, 3):
            for dj in range(-2, 3):
                window += np.roll(x, (-di, -dj), axis=(0, 1))
        np.testing.assert_allclose(out, window / 25.0, atol=1e-6)

    def test_vs_quadruple_loop_oracle(self, rng):
        x = rng.uniform(0, 1, (6, 6))
        d = nlm_denoiser(1, 2, 0.4)
        oracle = nlm_quadruple_loop(x, 1, 2, 0.4)
        assert np.max(np.abs(d.apply(x) - oracle)) <= 1e-12

    def test_colour_image_raises_shape_error(self):
        with pytest.raises(ShapeError, match="1-D and 2-D"):
            nlm_denoiser(1, 2, 0.3).apply(np.full((4, 4, 3), 0.5))

    @pytest.mark.parametrize("h", [0.0, -0.3, float("nan"), float("inf"), 1e-200])
    def test_bad_h_raises_at_construction(self, h):
        # 1e-200 squares to 0, so every weight would be exp(-d/0)
        with pytest.raises(ValueError, match="h must be finite and positive"):
            nlm_denoiser(1, 2, h)

    def test_jacobian_asymmetry_positive(self, rng):
        d = nlm_denoiser(1, 2, 0.3)
        x = rng.uniform(0, 1, (5, 5))
        assert jacobian_asymmetry(d, x, 0.1) > 1e-4


class TestTvDenoiser:
    def test_sigma_zero_identity(self, rng):
        d = tv_denoiser()
        x = rng.uniform(0, 1, (6, 6))
        np.testing.assert_array_equal(d.apply(x, 0.0), x)

    def test_three_d_input_raises_at_sigma_zero(self):
        for sigma in (0.0, 0.1):
            with pytest.raises(ShapeError):
                tv_denoiser().apply(np.ones((2, 2, 2)), sigma)

    def test_delegates_to_prox_tv(self, rng):
        d = tv_denoiser(c=2.0, tol=1e-12)
        x = rng.uniform(0, 1, (6, 6))
        sigma = 0.25
        expected = prox_tv(x, 2.0 * sigma**2, tol=1e-12)
        np.testing.assert_array_equal(d.apply(x, sigma), expected)

    def test_calls_outside_a_run_are_cold(self, rng):
        d = tv_denoiser()
        x = rng.uniform(0, 1, (16, 16))
        first = d.apply(x, 0.2)
        d.apply(rng.uniform(0, 1, (16, 16)), 0.2)  # no dual carries over to the next call
        np.testing.assert_array_equal(d.apply(x, 0.2), first)

    def test_two_point_analytic(self):
        d = tv_denoiser(c=0.5, tol=1e-14)  # lam = c * sigma^2 = 0.5 at sigma = 1
        out = d.apply(np.array([1.0, -1.0]), 1.0)
        np.testing.assert_allclose(out, [0.5, -0.5], atol=1e-6)

    def test_residual_lipschitz_at_most_one(self):
        # prox of a convex function: residual map is nonexpansive
        d = tv_denoiser(c=1.0, tol=1e-13)
        eps = estimate_residual_lipschitz(d, 0.3, (4, 4), probes=2, rng=Rng(5))
        assert eps <= 1.0 + 1e-3

    def test_non_finite_input_raises_divergence(self):
        x = np.full((16, 16), 0.5)
        x[2, 2] = np.nan
        with pytest.raises(DivergenceError):
            tv_denoiser().apply(x, 0.2)


class TestSpectralDenoiser:
    def test_flat_family_is_uniform_shrinkage(self, rng):
        lam = 0.4
        d = linear_spectral_denoiser((8,), lam, transform="dct")
        x = rng.standard_normal(8)
        np.testing.assert_allclose(d.apply(x), x / (1 + lam), atol=1e-12)
        assert d.residual_norm == pytest.approx(lam / (1 + lam), abs=1e-15)

    def test_lam_zero_is_identity(self, rng):
        d = linear_spectral_denoiser((8,), 0.0)
        x = rng.standard_normal(8)
        np.testing.assert_allclose(d.apply(x), x, atol=1e-12)

    def test_out_of_range_lam_rejected(self):
        with pytest.raises(ValueError):
            linear_spectral_denoiser((4,), -0.5)

    @pytest.mark.parametrize("lam,transform,profile", [
        (np.inf, "dct", None),
        (np.nan, "dct", None),
        (-0.5, "dct", None),
        (0.5, "dct", [1.0, 0.5, 1.0, 1.0]),
        (0.5, "dct", [1.0, np.inf, 1.0, 1.0]),
        (0.5, "dct", [1.0, 1.0, 1.0]),
        (0.5, "fourier", None),
        (1e308, "dct", [1.0, 2.0, 1.0, 1.0]),
    ], ids=["lam-inf", "lam-nan", "lam-negative", "profile-below-one", "profile-inf",
            "profile-shape", "unknown-transform", "lam-times-profile-overflows"])
    def test_bad_input_rejected(self, lam, transform, profile):
        with pytest.raises(ValueError):
            linear_spectral_denoiser((4,), lam, transform=transform, profile=profile)

    def test_odd_side_haar_rejected_at_construction(self):
        with pytest.raises(ShapeError):
            linear_spectral_denoiser((6, 7), 0.5, transform="haar")

    def test_spectral_norm_vs_power_iteration(self, rng):
        profile = 1.0 + rng.uniform(0, 3, (8,))
        lam = 0.7
        d = linear_spectral_denoiser((8,), lam, transform="dct", profile=profile)
        mat = np.empty((8, 8))
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1.0
            mat[:, j] = d.apply(e)
        norm = operator_norm(DenseOp(mat), Rng(2), iters=10000, tol=1e-16)
        expected = float(np.max(1.0 / (1.0 + lam * profile)))
        assert abs(norm - expected) <= 1e-6

    def test_residual_lipschitz_matches_exact_and_monotone(self):
        previous = -1.0
        for lam in (0.05, 0.2, 0.8):
            d = linear_spectral_denoiser((6,), lam, transform="haar")
            est = estimate_residual_lipschitz(d, 0.0, (6,), probes=1, rng=Rng(1))
            assert abs(est - d.residual_norm) <= 1e-6
            assert est >= previous
            previous = est

    def test_prox_potential_consistency(self, rng):
        # D = prox of the exposed quadratic: check the optimality condition
        lam = 0.5
        d = linear_spectral_denoiser((8,), lam, transform="dct")
        v = rng.standard_normal(8)
        x = d.apply(v)
        h = 1e-6
        for _ in range(4):
            z = x + h * rng.standard_normal(8)
            fx = d.prox_potential(x, 0.0) + 0.5 * np.sum((x - v) ** 2)
            fz = d.prox_potential(z, 0.0) + 0.5 * np.sum((z - v) ** 2)
            assert fz >= fx - 1e-12


class TestGsDenoiser:
    def test_identity_smoother_gives_identity(self, rng):
        d = gs_denoiser(CirculantOp(np.ones(4), (6,)))
        x = rng.standard_normal(6)
        np.testing.assert_allclose(d.apply(x), x, atol=1e-14)
        assert d.potential(x, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_zero_smoother(self, rng):
        d = gs_denoiser(CirculantOp(np.zeros(4), (6,)))
        x = rng.standard_normal(6)
        np.testing.assert_allclose(d.apply(x), np.zeros(6), atol=1e-14)
        assert d.potential(x, 0.0) == pytest.approx(0.5 * np.sum(x**2), abs=1e-12)

    def test_gradient_vs_finite_differences(self, rng):
        smoother = gaussian_smoother((6, 6), 1.0, floor=0.2)
        d = gs_denoiser(smoother)
        x = rng.uniform(0, 1, (6, 6))
        grad = d.grad_potential(x, 0.0)
        fd = np.zeros_like(x)
        h = 1e-6
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            e = np.zeros_like(x)
            e[idx] = h
            fd[idx] = (d.potential(x + e, 0.0) - d.potential(x - e, 0.0)) / (2 * h)
            it.iternext()
        assert np.max(np.abs(grad - fd)) <= 1e-6

    def test_asymmetric_smoother_rejected(self):
        with pytest.raises(ValueError, match=r"not symmetric \(complex spectrum\)"):
            gs_denoiser(CirculantOp(np.full((4, 3), 1j), (4, 4)))

    def test_potential_decreases_along_denoising_flow(self, rng):
        smoother = gaussian_smoother((8, 8), 1.5, floor=0.1)
        d = gs_denoiser(smoother)
        x = rng.uniform(0, 1, (8, 8))
        g_prev = d.potential(x, 0.0)
        for _ in range(20):
            x = d.apply(x)
            g = d.potential(x, 0.0)
            assert g <= g_prev + 1e-12
            g_prev = g

    def test_grad_lipschitz_at_most_one(self):
        d = gs_denoiser(gaussian_smoother((8, 8), 1.0, floor=0.0))
        assert d.grad_lipschitz is not None and d.grad_lipschitz <= 1.0 + 1e-12

    def test_other_denoisers_have_no_grad_lipschitz(self):
        prior = GmmPrior(np.ones(1), np.zeros((1, 16)), np.ones(1))
        for d in (tv_denoiser(), gaussian_filter_denoiser(1.0), nlm_denoiser(1, 1, 0.1),
                  linear_spectral_denoiser((4, 4), 0.5), mmse_gmm_denoiser(prior)):
            assert d.grad_lipschitz is None

    @pytest.mark.parametrize("smoother", [
        DenseOp(np.eye(3)),
        DiagonalOp([0.5, 0.8, 1.0]),
        make_mask(np.array([True, False, True, True])),
        compose(DiagonalOp([0.5, 0.8, 1.0]), DiagonalOp([0.5, 0.8, 1.0])),
    ], ids=["dense", "diagonal", "mask", "composite"])
    def test_smoother_that_is_not_circulant_rejected(self, smoother):
        with pytest.raises(TypeError, match=smoother.kind):
            gs_denoiser(smoother)

    def test_prox_potential_optimality(self, rng):
        smoother = gaussian_smoother((6,), 1.0, floor=0.3)
        d = gs_denoiser(smoother)
        assert d.prox_potential is not None
        v = rng.standard_normal(6)
        x = d.apply(v)
        base = d.prox_potential(x, 0.0) + 0.5 * np.sum((x - v) ** 2)
        for _ in range(16):
            z = x + 1e-4 * rng.standard_normal(6)
            assert d.prox_potential(z, 0.0) + 0.5 * np.sum((z - v) ** 2) >= base - 1e-12


class TestGsSingleFilter:
    @pytest.mark.parametrize("shape", [(9,), (10,), (8, 8), (7, 9), (6, 5), (8, 7, 3)])
    def test_d_matches_gradient_step(self, rng, shape):
        d = gs_denoiser(gaussian_smoother(shape, 1.2, floor=0.1))
        x = rng.standard_normal(shape)
        expected = x - d.grad_potential(x, 0.0)
        err = np.max(np.abs(d.apply(x) - expected)) / np.max(np.abs(expected))
        assert err <= 1e-12

    @pytest.mark.parametrize("shape", [(9,), (10,), (8, 8), (7, 9), (6, 5), (8, 7, 3)])
    def test_phi_matches_full_spectrum_formula(self, rng, shape):
        smoother = gaussian_smoother(shape, 1.2, floor=0.2)
        d = gs_denoiser(smoother)
        spatial = shape[:2]
        axes = tuple(range(len(spatial)))
        delta = np.zeros(shape)
        delta[(0,) * len(shape)] = 1.0
        impulse = smoother.apply(delta)  # channel 0 holds the impulse response
        a = np.real(np.fft.fftn(impulse[..., 0] if len(shape) > 2 else impulse))
        quad = 1.0 / (1.0 - (1.0 - a) ** 2) - 1.0
        x = rng.standard_normal(shape)
        power = np.abs(np.fft.fftn(x, axes=axes)) ** 2
        if len(shape) > len(spatial):
            quad = quad[..., None]
        expected = 0.5 * float(np.sum(quad * power)) / np.prod(spatial)
        assert d.prox_potential(x, 0.0) == pytest.approx(expected, rel=1e-12)


class TestMmseDenoiser:
    def test_single_component_example(self):
        d = mmse_gmm_denoiser(GmmPrior([1.0], [[0.0, 0.0]], [1.0]))
        out = d.apply(np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-14)

    def test_sigma_zero_identity(self, rng):
        d = mmse_gmm_denoiser(GmmPrior([0.5, 0.5], [[-1.0], [1.0]], [0.5, 0.5]))
        x = rng.standard_normal(1)
        np.testing.assert_array_equal(d.apply(x, 0.0), x)

    def test_large_sigma_prior_mean(self):
        prior = GmmPrior([0.3, 0.7], [[2.0], [-1.0]], [0.5, 0.5])
        d = mmse_gmm_denoiser(prior)
        out = d.apply(np.array([10.0]), 1e6)
        assert out[0] == pytest.approx(float(prior.mean[0]), abs=1e-5)

    def test_symmetric_jacobian(self, rng):
        # an exact posterior mean has a symmetric Jacobian
        prior = GmmPrior([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.5]], [0.4, 0.8])
        d = mmse_gmm_denoiser(prior)
        x = rng.standard_normal(2)
        assert jacobian_asymmetry(d, x, 0.7) <= 1e-6


class TestResidualLipschitz:
    def test_scaled_identity_exact(self):
        for alpha in (0.3, 1.0, 1.4):
            d = Denoiser(lambda arr, s, a=alpha: a * arr, tag="scale")
            est = estimate_residual_lipschitz(d, 0.0, (5,), probes=1, rng=Rng(0))
            assert est == pytest.approx(abs(alpha - 1.0), abs=1e-7)

    def test_circulant_filter_exact(self):
        d = gaussian_filter_denoiser(1.0, radius=2)
        kernel = gaussian_kernel(1.0, ndim=2, radius=2)
        op = make_blur(kernel, (8, 8))
        expected = float(np.max(np.abs(1.0 - op.half_response)))
        est = estimate_residual_lipschitz(d, 0.0, (8, 8), probes=1, rng=Rng(4))
        assert abs(est - expected) <= 1e-6

    def test_random_dense_linear_vs_svd(self, rng):
        mat = rng.standard_normal((16, 16)) / 4.0
        d = Denoiser(lambda arr, s: mat @ arr, tag="dense")
        est = estimate_residual_lipschitz(d, 0.0, (16,), probes=1, rng=Rng(7))
        exact = np.linalg.svd(mat - np.eye(16), compute_uv=False)[0]
        assert abs(est - exact) / exact <= 1e-3

    def test_nonfinite_output_raises(self):
        from pnpkit import DivergenceError

        bad = Denoiser(lambda arr, s: arr * np.inf, tag="bad")
        with pytest.raises(DivergenceError):
            estimate_residual_lipschitz(bad, 0.0, (3,), probes=1, rng=Rng(0))


class TestJacobianAsymmetry:
    def test_upper_triangular_matches_dense_algebra(self):
        mat = np.triu(np.ones((4, 4)))
        d = Denoiser(lambda arr, s: mat @ arr, tag="tri")
        measured = jacobian_asymmetry(d, np.zeros(4), 0.0)
        expected = np.linalg.norm(mat - mat.T) / np.linalg.norm(mat)
        assert measured == pytest.approx(expected, abs=1e-7)


class TestHomogeneity:
    def test_linear_denoiser_zero_defect(self, rng):
        d = linear_spectral_denoiser((6,), 0.3)
        x = rng.standard_normal(6)
        assert homogeneity_defect(d, x, 0.0) <= 1e-10

    def test_constant_shift_defect(self, rng):
        c = np.full(5, 0.7)
        d = Denoiser(lambda arr, s: arr + c, tag="shift")
        x = rng.standard_normal(5)
        dx = x + c
        expected = np.linalg.norm(c) / np.linalg.norm(dx)
        assert homogeneity_defect(d, x, 0.0, delta=1e-3) == pytest.approx(expected, rel=1e-9)

    def test_delta_zero_convention(self, rng):
        d = gaussian_filter_denoiser(1.0)
        assert homogeneity_defect(d, rng.uniform(0, 1, (4, 4)), 0.0, delta=0.0) == 0.0


class TestConstructorChecks:
    @pytest.mark.parametrize("build", [
        lambda: tv_denoiser(c=-0.5),
        lambda: gaussian_filter_denoiser(0.0),
        lambda: gaussian_filter_denoiser(-1.0),
        lambda: gs_denoiser(CirculantOp([0.5, 0.5], (2,)), weight=0.0),
        lambda: gs_denoiser(CirculantOp([0.5, 0.5], (2,)), weight=-1.0),
        lambda: gs_denoiser(CirculantOp([0.5, 0.5], (2,)), weight=float("inf")),
        lambda: gs_denoiser(CirculantOp([0.5, 0.5], (2,)), weight=float("nan")),
    ], ids=["tv-c", "gaussian-zero", "gaussian-negative", "gs-zero", "gs-negative", "gs-inf",
            "gs-nan"])
    def test_bad_parameter_rejected_at_construction(self, build):
        with pytest.raises(ValueError):
            build()
