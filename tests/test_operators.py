import numpy as np
import pytest

from pnpkit import (
    CirculantOp,
    DenseOp,
    DiagonalOp,
    GmmPrior,
    Rng,
    ShapeError,
    adjoint_defect,
    as_dense,
    compose,
    haar_inverse,
    haar_transform,
    identity_op,
    l1_prox,
    load_signal,
    make_blur,
    make_mask,
    naive_svd_solve,
    operator_norm,
    posterior_mean,
    prox_tv,
    save_signal,
    Signal,
    smoothed_score,
    solve_shifted_normal,
    tikhonov_solve,
    tv_denoiser,
)
from pnpkit.core import _irfftn, _rfftn
from pnpkit.operators import CompositeOp, half_spectrum_weights


def spatial_convolve_periodic(image, kernel):
    """O(n^2) direct periodic convolution, the blur oracle."""
    h, w = image.shape
    kh, kw = kernel.shape
    cy, cx = kh // 2, kw // 2
    out = np.zeros_like(image)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    ii = (i - (a - cy)) % h
                    jj = (j - (b - cx)) % w
                    acc += kernel[a, b] * image[ii, jj]
            out[i, j] = acc
    return out


class TestBlur:
    def test_delta_kernel_is_identity(self, rng):
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        op = make_blur(kernel, (8, 8))
        x = rng.standard_normal((8, 8))
        np.testing.assert_allclose(op.apply(x), x, atol=1e-13)

    def test_constant_preserved(self):
        op = make_blur(np.ones((5, 5)) / 25.0, (16, 16))
        x = np.full((16, 16), 0.42)
        np.testing.assert_allclose(op.apply(x), x, atol=1e-13)

    def test_against_spatial_oracle(self, rng):
        kernel = rng.uniform(0, 1, (3, 5))
        kernel /= kernel.sum()
        op = make_blur(kernel, (8, 8))
        x = rng.standard_normal((8, 8))
        expected = spatial_convolve_periodic(x, kernel)
        assert np.max(np.abs(op.apply(x) - expected)) <= 1e-12

    def test_adjoint_is_flipped_kernel(self, rng):
        kernel = rng.uniform(0, 1, (3, 3))
        kernel /= kernel.sum()
        op = make_blur(kernel, (8, 8))
        x = rng.standard_normal((8, 8))
        flipped = kernel[::-1, ::-1]
        expected = spatial_convolve_periodic(x, flipped)
        assert np.max(np.abs(op.adjoint(x) - expected)) <= 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            make_blur(np.ones((2, 3)), (8, 8))

    def test_channelwise_on_color(self, rng):
        kernel = np.ones((3, 3)) / 9.0
        op = make_blur(kernel, (8, 8, 3))
        x = rng.standard_normal((8, 8, 3))
        out = op.apply(x)
        mono = make_blur(kernel, (8, 8))
        for c in range(3):
            np.testing.assert_allclose(out[:, :, c], mono.apply(x[:, :, c]), atol=1e-12)


class TestMask:
    def test_all_true_identity(self, rng):
        op = make_mask(np.ones((4, 4)))
        x = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(op.apply(x), x)

    def test_all_false_zero(self, rng):
        op = make_mask(np.zeros((4, 4)))
        x = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(op.apply(x), np.zeros((4, 4)))

    def test_projection_idempotent(self, rng):
        mask = rng.uniform(0, 1, (6, 6)) > 0.5
        op = make_mask(mask)
        x = rng.standard_normal((6, 6))
        np.testing.assert_array_equal(op.apply(op.apply(x)), op.apply(x))


class TestAdjoints:
    def build_ops(self, rng):
        kernel = rng.uniform(0, 1, (3, 3))
        kernel /= kernel.sum()
        return [
            make_blur(kernel, (8, 8)),
            make_mask(rng.uniform(0, 1, (8, 8)) > 0.4),
            DenseOp(rng.standard_normal((6, 9))),
            DiagonalOp(rng.standard_normal(12)),
            compose(DenseOp(rng.standard_normal((4, 6))), DenseOp(rng.standard_normal((6, 5)))),
        ]

    def test_adjoint_probes(self, rng):
        for op in self.build_ops(rng):
            assert adjoint_defect(op, Rng(777), probes=100) <= 1e-10

    def test_circulant_norm_matches_power_iteration(self, rng):
        kernel = np.ones((5, 5)) / 25.0
        op = make_blur(kernel, (16, 16))
        estimated = operator_norm(op, Rng(3), iters=5000, tol=1e-15)
        assert abs(op.spectral_norm - estimated) <= 1e-10


class TestTikhonov:
    def test_identity_small_alpha_limit(self, rng):
        y = rng.standard_normal(10)
        x = tikhonov_solve(identity_op((10,)), y, 1e-12)
        np.testing.assert_allclose(x, y, atol=1e-10)

    def test_diagonal_closed_form(self):
        # sigma_i * y_i / (sigma_i^2 + alpha) = (0.8, 0.5)
        op = DiagonalOp(np.array([2.0, 1.0]))
        x = tikhonov_solve(op, np.array([2.0, 1.0]), 1.0)
        np.testing.assert_allclose(x, [0.8, 0.5], atol=1e-12)

    def test_circulant_vs_dense_cg_oracle(self, rng):
        kernel = rng.uniform(0, 1, (3, 3))
        kernel /= kernel.sum()
        op = make_blur(kernel, (6, 6))
        y = rng.standard_normal((6, 6))
        alpha = 0.05
        x = tikhonov_solve(op, y, alpha)

        k_mat = np.array(as_dense(op).matrix)
        oracle = np.linalg.solve(k_mat.T @ k_mat + alpha * np.eye(36),
                                 k_mat.T @ y.reshape(-1))
        assert np.max(np.abs(x.reshape(-1) - oracle)) <= 1e-8

    def test_euler_lagrange_condition(self, rng):
        op = DenseOp(rng.standard_normal((7, 7)))
        y = rng.standard_normal(7)
        alpha = 0.3
        x = tikhonov_solve(op, y, alpha)
        residual = op.adjoint(op.apply(x) - y) + alpha * x
        assert np.linalg.norm(residual) <= 1e-8 * max(np.linalg.norm(y), 1.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            tikhonov_solve(identity_op((3,)), np.zeros(3), 0.0)


class TestNaiveSvd:
    def test_amplification(self):
        op = DenseOp(np.diag([1.0, 1e-3]))
        x = naive_svd_solve(op, np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [1.0, 1000.0], atol=1e-9)

    def test_truncation(self):
        op = DenseOp(np.diag([1.0, 1e-3]))
        x = naive_svd_solve(op, np.array([1.0, 1.0]), tol=1e-2)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    def test_vs_normal_equations_oracle(self, rng):
        mat = rng.standard_normal((5, 5))
        op = DenseOp(mat)
        y = rng.standard_normal(5)
        x = naive_svd_solve(op, y)
        oracle = np.linalg.solve(mat.T @ mat, mat.T @ y)
        assert np.max(np.abs(x - oracle)) <= 1e-8

    def test_zero_on_a_zero_diagonal_entry(self):
        x = naive_svd_solve(DiagonalOp(np.array([2.0, 0.0, 0.5])), np.array([1.0, 3.0, 1.0]))
        assert x[1] == 0.0
        np.testing.assert_allclose(x, [0.5, 0.0, 2.0], rtol=1e-15)

    def test_recovers_x_on_singular_values_down_to_3_to_the_minus_11(self):
        # demo 01's matrix: through K^T y the condition number would be squared
        rng = Rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        op = DenseOp(u @ np.diag(3.0 ** -np.arange(12)) @ v.T)
        x_true = rng.standard_normal(12)
        assert np.linalg.norm(naive_svd_solve(op, op.apply(x_true)) - x_true) <= 1e-10


class TestShiftedNormal:
    def test_zero_operator(self, rng):
        op = DiagonalOp(np.zeros(6))
        b = rng.standard_normal(6)
        np.testing.assert_allclose(solve_shifted_normal(op, 2.0, b), b / 2.0, atol=1e-14)

    def test_identity_operator(self, rng):
        b = rng.standard_normal(6)
        out = solve_shifted_normal(identity_op((6,)), 3.0, b)
        np.testing.assert_allclose(out, b / 4.0, atol=1e-14)

    def test_circulant_vs_dense_oracle(self, rng):
        kernel = rng.uniform(0, 1, (3, 3))
        kernel /= kernel.sum()
        op = make_blur(kernel, (5, 5))
        b = rng.standard_normal((5, 5))
        rho = 0.7
        x = solve_shifted_normal(op, rho, b)
        k_mat = np.array(as_dense(op).matrix)
        oracle = np.linalg.solve(k_mat.T @ k_mat + rho * np.eye(25), b.reshape(-1))
        assert np.max(np.abs(x.reshape(-1) - oracle)) <= 1e-9

    def test_dense_cg_matches_direct(self, rng):
        mat = rng.standard_normal((8, 8))
        op = DenseOp(mat)
        b = rng.standard_normal(8)
        x = solve_shifted_normal(op, 0.4, b)
        oracle = np.linalg.solve(mat.T @ mat + 0.4 * np.eye(8), b)
        assert np.max(np.abs(x - oracle)) <= 1e-8

    def test_rho_must_be_positive(self):
        for rho in (0.0, np.nan):
            with pytest.raises(ValueError):
                solve_shifted_normal(identity_op((3,)), rho, np.zeros(3))

    def test_residual_certified(self, rng):
        mat = rng.standard_normal((10, 10))
        op = DenseOp(mat)
        b = rng.standard_normal(10)
        x = solve_shifted_normal(op, 0.1, b)
        res = np.linalg.norm(mat.T @ (mat @ x) + 0.1 * x - b) / np.linalg.norm(b)
        assert res <= 1e-10


class TestDenseIo:
    def test_load_dense_operator(self, tmp_path, rng):
        mat = rng.standard_normal((3, 4))
        path = tmp_path / "op.raw"
        save_signal(mat, path)
        op = DenseOp(load_signal(path))
        np.testing.assert_array_equal(op.matrix, mat)

    def test_load_dense_rejects_vector(self, tmp_path):
        path = tmp_path / "vec.raw"
        save_signal(np.zeros(4), path)
        with pytest.raises(ShapeError):
            DenseOp(load_signal(path))

    def test_caller_matrix_stays_writable(self):
        m = np.eye(3)
        op = DenseOp(m)
        m[0, 0] = 2.0
        np.testing.assert_array_equal(op.matrix, np.eye(3))
        assert not op.matrix.flags.writeable

    @pytest.mark.parametrize("in_shape,out_shape", [((7,), (5,)), ((7, 1), (1, 5))])
    def test_as_dense_of_a_dense_operator_is_its_matrix(self, rng, in_shape, out_shape):
        m = rng.standard_normal((5, 7))
        dense = as_dense(DenseOp(m, in_shape, out_shape))
        np.testing.assert_array_equal(dense.matrix, m)
        assert (dense.in_shape, dense.out_shape) == (in_shape, out_shape)


def hermitian_part(freq):
    """(H(k) + conj(H(-k)))/2 on the full FFT grid."""
    mirrored = np.conj(np.flip(freq))
    for ax in range(freq.ndim):
        mirrored = np.roll(mirrored, 1, axis=ax)
    return 0.5 * (freq + mirrored)


def half_of(freq):
    """The half spectrum of the real FFT that a circulant operator takes, from a full-grid H."""
    return hermitian_part(freq)[..., : freq.shape[-1] // 2 + 1]


def complex_filter(x, response):
    """Re(ifftn(response * fftn(x))) over the response's axes, per channel for 3-D x."""
    axes = tuple(range(response.ndim))
    if x.ndim == response.ndim + 1:
        response = response[..., None]
    return np.fft.ifftn(np.fft.fftn(x, axes=axes) * response, axes=axes).real


def rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - b))) / max(float(np.max(np.abs(b))), 1e-300)


CIRCULANT_CASES = [((9,), (9,)), ((10,), (10,)), ((8, 6), (8, 6)), ((7, 5), (7, 5)),
                   ((8, 7), (8, 7, 3))]


def random_response(rng, spatial, even):
    if even:  # real and even in k: the response of a symmetric kernel
        r = rng.uniform(-1.0, 1.0, spatial)
        return np.real(hermitian_part(r))
    return rng.standard_normal(spatial) + 1j * rng.standard_normal(spatial)


class TestRealFftCirculant:
    @pytest.mark.parametrize("spatial,shape", CIRCULANT_CASES)
    @pytest.mark.parametrize("even", [False, True])
    def test_matches_complex_fft_reference(self, rng, spatial, shape, even):
        freq = random_response(rng, spatial, even)
        op = CirculantOp(half_of(freq), shape)
        assert np.iscomplexobj(op.half_response) == (not even)
        x = rng.standard_normal(shape)
        kx = complex_filter(x, freq)
        assert rel_err(op.apply(x), kx) <= 1e-12
        assert rel_err(op.adjoint(x), complex_filter(x, np.conj(freq))) <= 1e-12
        assert rel_err(op.normal(x), complex_filter(kx, np.conj(freq))) <= 1e-12
        rho = 0.5
        denom = np.abs(hermitian_part(freq)) ** 2 + rho
        assert rel_err(solve_shifted_normal(op, rho, x), complex_filter(x, 1.0 / denom)) <= 1e-12

    @pytest.mark.parametrize("spatial,shape", CIRCULANT_CASES)
    @pytest.mark.parametrize("even", [False, True])
    def test_parseval_least_squares_value(self, rng, spatial, shape, even):
        # odd and even sides, a 3-D per-channel input, real and complex responses
        op = CirculantOp(half_of(random_response(rng, spatial, even)), shape)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        pixel = 0.5 * float(np.sum((op._apply(x) - y) ** 2))
        assert op.least_squares_value(y)(x) == pytest.approx(pixel, rel=1e-12)

    @pytest.mark.parametrize("spatial,shape", CIRCULANT_CASES)
    @pytest.mark.parametrize("even", [False, True])
    def test_least_squares_maps_are_one_filter_each(self, rng, spatial, shape, even):
        # the shifted solve and the prox multiply by reciprocals, which has the
        # bits of the written quotients: numpy divides a complex Z by a real c
        # as Z * (1/c)
        op = CirculantOp(half_of(random_response(rng, spatial, even)), shape)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        axes = tuple(range(len(spatial)))
        gram = op._gram if x.ndim == op._gram.ndim else op._gram[..., None]
        spec, kty_hat = _rfftn(x, axes), _rfftn(op._adjoint(y), axes)
        lam = 0.7
        prox = op.least_squares_prox(y)(x, lam)
        grad = op.least_squares_grad(y)(x)
        for got, product in [(op.shifted_solve(0.5, x), spec / (gram + 0.5)),
                             (prox, (spec / lam + kty_hat) / (gram + 1.0 / lam)),
                             (grad, spec * gram - kty_hat)]:
            want = _irfftn(product, spatial, axes)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rel_err(grad, op.adjoint(op.apply(x) - y)) <= 1e-12
        assert rel_err(prox, solve_shifted_normal(op, 1.0 / lam, op.adjoint(y) + x / lam)) <= 1e-12

    @pytest.mark.parametrize("spatial,shape", CIRCULANT_CASES)
    @pytest.mark.parametrize("even", [False, True])
    def test_parseval_quadratic_value(self, rng, spatial, shape, even):
        op = CirculantOp(half_of(random_response(rng, spatial, even)), shape)
        x = rng.standard_normal(shape)
        pixel = 0.5 * float(np.vdot(x, op._apply(x)))
        assert op.quadratic_value()(x) == pytest.approx(pixel, rel=1e-12)

    @pytest.mark.parametrize("shape", [(9, 12), (12, 9), (8, 10, 3)])
    def test_real_response_filters_keep_the_bits_of_the_real_product(self, rng, shape):
        # apply, adjoint and the normal map multiply by complex128 copies of a real
        # response, cast once: the bits of numpy's cast on every product
        spatial = shape[:2]
        half = rng.uniform(-1.0, 1.0, spatial[:-1] + (spatial[-1] // 2 + 1,))
        op = CirculantOp(half, shape)
        assert not np.iscomplexobj(op.half_response)
        x = rng.standard_normal(shape)
        spec = _rfftn(x, (0, 1))
        response = half if x.ndim == 2 else half[..., None]
        for got, product in [(op.apply(x), spec * response), (op.adjoint(x), spec * response),
                             (op.normal(x), spec * response**2)]:
            want = _irfftn(product, spatial, (0, 1))
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # inf and NaN entries too, product by product
        half[0, 1], half[1, 0], half[1, 1] = np.inf, -np.inf, np.nan
        op = CirculantOp(half, shape)
        spec = rng.standard_normal(half.shape) + 1j * rng.standard_normal(half.shape)
        with np.errstate(invalid="ignore"):
            for copy, real in [(op._response_c, op.half_response),
                               (op._conj_response_c, op._conj_response), (op._gram_c, op._gram)]:
                np.testing.assert_array_equal((spec * copy).view(np.uint64),
                                              (spec * real).view(np.uint64))

    @pytest.mark.parametrize("shape", [(9, 12), (12, 9), (8, 10, 3)])
    def test_parseval_value_of_a_non_even_kernel(self, rng, shape):
        kernel = rng.uniform(0.0, 1.0, (3, 5))
        op = make_blur(kernel, shape)
        assert np.iscomplexobj(op.half_response)
        x, y = rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape)
        kx = (spatial_convolve_periodic(x, kernel) if x.ndim == 2 else np.stack(
            [spatial_convolve_periodic(x[..., c], kernel) for c in range(shape[2])], axis=-1))
        pixel = 0.5 * float(np.sum((kx - y) ** 2))
        assert op.least_squares_value(y)(x) == pytest.approx(pixel, rel=1e-12)

    @pytest.mark.parametrize("spatial", [(7,), (8,), (6, 9), (5, 4)])
    def test_half_spectrum_weights_give_the_squared_norm(self, rng, spatial):
        x = rng.standard_normal(spatial)
        spec = np.fft.rfftn(x)
        total = float(np.sum(half_spectrum_weights(spatial) * np.abs(spec) ** 2))
        assert total == pytest.approx(float(np.sum(x * x)), rel=1e-13)

    def test_non_hermitian_shifted_solve_regression(self, rng):
        freq = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = CirculantOp(half_of(freq), (8, 8))
        b = rng.standard_normal((8, 8))
        rho = 0.5
        x = solve_shifted_normal(op, rho, b)
        residual = op.adjoint(op.apply(x)) + rho * x - b
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)
        assert adjoint_defect(op, Rng(5), probes=50) <= 1e-12
        estimated = operator_norm(op, Rng(6), iters=5000, tol=1e-15)
        assert abs(op.spectral_norm - estimated) <= 1e-8

    def test_blur_of_even_kernel_has_real_response(self):
        op = make_blur(np.full((3, 3), 1.0 / 9.0), (8, 8))
        assert not np.iscomplexobj(op.half_response)
        assert op.half_response.shape == (8, 5)

    def test_response_must_fit_image(self):
        with pytest.raises(ShapeError):
            CirculantOp(np.ones((8, 8)), (8, 6))
        with pytest.raises(ShapeError):  # a full-grid response is not a half spectrum
            CirculantOp(np.ones((8, 8)), (8, 8))


def pinv_filter(t):
    return np.divide(1.0, t, out=np.zeros_like(t), where=t > 1e-24)


def posterior_filter(t):
    return 1.0 / (t / 0.25 + 1.0 / 1.09)


def calculus_cases():
    rng = Rng(7)
    for spatial, shape in CIRCULANT_CASES:
        for even in (False, True):
            yield CirculantOp(half_of(random_response(rng, spatial, even)), shape)
    yield DiagonalOp(np.array([1.5, 0.0, -0.7, 2.0]))
    yield DenseOp(rng.standard_normal((7, 5)))
    yield DenseOp(rng.standard_normal((5, 7)))
    yield CompositeOp(DenseOp(rng.standard_normal((6, 5))), DiagonalOp(rng.uniform(0.5, 1.5, 5)))


class TestSpectralCalculus:
    @pytest.mark.parametrize("op", list(calculus_cases()), ids=lambda op: op.kind)
    def test_matches_dense_pinv_and_precision_inverse(self, rng, op):
        m = as_dense(op).matrix
        y = rng.standard_normal(op.out_shape)
        pinv = np.linalg.pinv(m) @ y.reshape(-1)
        assert rel_err(op.adjoint_filter(pinv_filter, y).reshape(-1), pinv) <= 1e-12
        precision = m.T @ m / 0.25 + np.eye(op.in_size) / 1.09
        cov = np.linalg.inv(precision)
        got = op.adjoint_filter(posterior_filter, y).reshape(-1)
        assert rel_err(got, cov @ m.T @ y.reshape(-1)) <= 1e-12
        values, diagonal = op.gram_spectrum(posterior_filter)
        assert diagonal.shape == op.in_shape
        assert rel_err(diagonal.reshape(-1), np.diag(cov)) <= 1e-12
        eig = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        assert max(rel_err(v, eig[np.argmin(np.abs(eig - v))]) for v in values.ravel()) <= 1e-12
        assert rel_err(np.max(values) / np.min(values), np.linalg.cond(precision)) <= 1e-12

    def test_dense_fallback_is_capped(self):
        with pytest.raises(ShapeError, match="limited to dimension 512"):
            naive_svd_solve(DenseOp(np.ones((1, 513))), np.ones(1))


class TestCirculantCompose:
    @pytest.mark.parametrize("spatial,shape", CIRCULANT_CASES)
    @pytest.mark.parametrize("even", [False, True])
    def test_two_circulants_compose_to_a_circulant(self, rng, spatial, shape, even):
        outer = CirculantOp(half_of(random_response(rng, spatial, even)), shape)
        inner = CirculantOp(half_of(random_response(rng, spatial, not even)), shape)
        op = compose(outer, inner)
        chained = CompositeOp(outer, inner)
        assert op.kind == "circulant-conv"
        assert adjoint_defect(op, Rng(5), probes=50) <= 1e-10
        x = rng.standard_normal(shape)
        assert rel_err(op.apply(x), chained.apply(x)) <= 1e-12
        assert rel_err(op.adjoint(x), chained.adjoint(x)) <= 1e-12
        rho = 0.5
        assert rel_err(solve_shifted_normal(op, rho, x), chained.shifted_solve(rho, x)) <= 1e-8

    def test_mismatched_grids_stay_composite(self, rng):
        per_channel = make_blur(np.full((3, 3), 1.0 / 9.0), (8, 6, 3))
        volume = CirculantOp(half_of(random_response(rng, (8, 6, 3), True)), (8, 6, 3))
        assert compose(per_channel, volume).kind == "composite"
        with pytest.raises(ShapeError):
            compose(make_blur(np.ones((3, 3)), (8, 8)), make_blur(np.ones((3, 3)), (8, 6)))


class TestShiftedSolveMethods:
    def test_each_kind_solves_its_system(self, rng):
        kernel = rng.uniform(0, 1, (3, 3))
        ops = [make_blur(kernel / kernel.sum(), (6, 6)), DiagonalOp(rng.standard_normal((6, 6))),
               make_mask(rng.uniform(0, 1, (6, 6)) > 0.5), DenseOp(rng.standard_normal((36, 36)),
                                                                 (6, 6), (6, 6))]
        b = rng.standard_normal((6, 6))
        for op in ops:
            x = op.shifted_solve(0.3, b)
            residual = op.adjoint(op.apply(x)) + 0.3 * x - b
            assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(b), op.kind
            np.testing.assert_array_equal(solve_shifted_normal(op, 0.3, b), x)


class TestSpectralFacts:
    def test_spectral_norm_matches_power_iteration(self, rng):
        kernel = rng.uniform(0, 1, (3, 3))
        ops = [DenseOp(rng.standard_normal((7, 5))),
               DiagonalOp(rng.standard_normal((4, 3))),
               make_mask(rng.uniform(0, 1, (6, 6)) > 0.5),
               make_mask(np.zeros((4, 4))),
               make_blur(kernel / kernel.sum(), (8, 8)),
               compose(DenseOp(rng.standard_normal((4, 6))), DiagonalOp(rng.standard_normal(6)))]
        for op in ops:
            estimated = operator_norm(op, Rng(3), iters=5000, tol=1e-15)
            assert abs(op.spectral_norm - estimated) <= 1e-8 * max(estimated, 1.0), op.kind

    def test_diagonal_normal_is_adjoint_of_apply_bit_for_bit(self, rng):
        d = np.concatenate([rng.standard_normal(12), [1e200, 1e-200, 0.0, -3.0]])
        x = np.concatenate([rng.standard_normal(12), [1e200, 1e-200, 5.0, np.nan]])
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for shape in ((16,), (4, 4)):
                op, v = DiagonalOp(d.reshape(shape)), x.reshape(shape)
                assert op.normal(v).tobytes() == op._adjoint(op._apply(v)).tobytes()


_BLUR = make_blur(np.full((3, 3), 1.0 / 9.0), (8, 8))
_PRIOR = GmmPrior([0.4, 0.6], [[-1.0, 0.5, 0.0], [1.0, 0.0, 2.0]], [0.5, 1.3])

# Each map called on a converter applied to its signal arguments: the identity
# for the array call, Signal.from_array for the Signal call.
_MAPS = {
    "apply": lambda s, x, p: _BLUR.apply(s(x)),
    "adjoint": lambda s, x, p: _BLUR.adjoint(s(x)),
    "solve_shifted_normal": lambda s, x, p: solve_shifted_normal(_BLUR, 0.5, s(x)),
    "tikhonov_solve": lambda s, x, p: tikhonov_solve(_BLUR, s(x), 0.5),
    "naive_svd_solve": lambda s, x, p: naive_svd_solve(DenseOp(np.diag([2.0, 1.0, 0.5])),
                                                       s(p)),
    "prox_tv": lambda s, x, p: prox_tv(s(x), 0.1),
    "haar_transform": lambda s, x, p: haar_transform(s(x), 2),
    "haar_inverse": lambda s, x, p: haar_inverse(s(x), 2),
    "ProxMap.evaluate": lambda s, x, p: l1_prox(0.3).evaluate(s(x), 1.0),
    "Denoiser.apply": lambda s, x, p: tv_denoiser().apply(s(x), 0.3),
    "posterior_mean": lambda s, x, p: posterior_mean(_PRIOR, s(p), 0.4),
    "smoothed_score": lambda s, x, p: smoothed_score(_PRIOR, s(p), 0.4),
}


@pytest.mark.parametrize("name", list(_MAPS))
def test_signal_input_gives_array(name, rng):
    x = rng.uniform(0.0, 1.0, (8, 8))
    point = rng.standard_normal(3)
    from_array = _MAPS[name](lambda a: a, x, point)
    from_signal = _MAPS[name](Signal.from_array, x, point)
    assert type(from_array) is np.ndarray
    assert type(from_signal) is np.ndarray
    np.testing.assert_array_equal(from_signal, from_array)
