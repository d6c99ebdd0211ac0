import numpy as np
import pytest

from pnpkit import (
    CirculantOp,
    DenseOp,
    DiagonalOp,
    Rng,
    ShapeError,
    adjoint_defect,
    as_dense,
    compose,
    identity_op,
    load_dense_operator,
    make_blur,
    make_mask,
    naive_svd_solve,
    operator_norm,
    save_signal,
    Signal,
    solve_shifted_normal,
    svd_factors,
    tikhonov_solve,
)
from pnpkit.operators import CompositeOp


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

    def test_signal_in_signal_out(self, rng):
        y = Signal.from_array(rng.standard_normal(5))
        x = tikhonov_solve(identity_op((5,)), y, 0.5)
        assert isinstance(x, Signal)


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

    def test_factor_reconstruction(self, rng):
        mat = rng.standard_normal((6, 4))
        f = svd_factors(DenseOp(mat))
        recon = f.u @ np.diag(f.s) @ f.vt
        assert np.linalg.norm(recon - mat) / np.linalg.norm(mat) <= 1e-10
        assert np.all(np.diff(f.s) <= 0)


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
        save_signal(Signal.from_array(mat), path)
        op = load_dense_operator(path)
        np.testing.assert_array_equal(op.matrix, mat)

    def test_load_dense_rejects_vector(self, tmp_path):
        path = tmp_path / "vec.raw"
        save_signal(Signal.from_array(np.zeros(4)), path)
        with pytest.raises(ShapeError):
            load_dense_operator(path)


def hermitian_part(freq):
    """(H(k) + conj(H(-k)))/2 on the full FFT grid."""
    mirrored = np.conj(np.flip(freq))
    for ax in range(freq.ndim):
        mirrored = np.roll(mirrored, 1, axis=ax)
    return 0.5 * (freq + mirrored)


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
        op = CirculantOp(freq, shape)
        assert np.iscomplexobj(op.half_response) == (not even)
        x = rng.standard_normal(shape)
        kx = complex_filter(x, freq)
        assert rel_err(op.apply(x), kx) <= 1e-12
        assert rel_err(op.adjoint(x), complex_filter(x, np.conj(freq))) <= 1e-12
        assert rel_err(op.normal(x), complex_filter(kx, np.conj(freq))) <= 1e-12
        rho = 0.5
        denom = np.abs(hermitian_part(freq)) ** 2 + rho
        assert rel_err(solve_shifted_normal(op, rho, x), complex_filter(x, 1.0 / denom)) <= 1e-12
        assert rel_err(op.freq_response, hermitian_part(freq)) <= 1e-15

    def test_non_hermitian_shifted_solve_regression(self, rng):
        freq = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = CirculantOp(freq, (8, 8))
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
        with pytest.raises(ShapeError):
            CirculantOp.from_half_response(np.ones((8, 8)), (8, 8))


class TestCirculantCompose:
    @pytest.mark.parametrize("spatial,shape", CIRCULANT_CASES)
    @pytest.mark.parametrize("even", [False, True])
    def test_two_circulants_compose_to_a_circulant(self, rng, spatial, shape, even):
        outer = CirculantOp(random_response(rng, spatial, even), shape)
        inner = CirculantOp(random_response(rng, spatial, not even), shape)
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
        volume = CirculantOp(random_response(rng, (8, 6, 3), True), (8, 6, 3))
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

    def test_symmetric_spectrum_of_each_kind(self, rng):
        a = rng.standard_normal((5, 5))
        sym = a + a.T
        np.testing.assert_allclose(np.sort(DenseOp(sym).symmetric_spectrum()),
                                   np.linalg.eigvalsh(sym), atol=1e-12)
        d = rng.standard_normal(6)
        np.testing.assert_array_equal(DiagonalOp(d).symmetric_spectrum(), d)
        mask = rng.uniform(0, 1, (3, 3)) > 0.5
        np.testing.assert_array_equal(make_mask(mask).symmetric_spectrum(),
                                      mask.astype(float))
        blur = make_blur(np.full((3, 3), 1.0 / 9.0), (8, 8))
        np.testing.assert_array_equal(blur.symmetric_spectrum(), blur.half_response)
        assert compose(DiagonalOp(d), DiagonalOp(d)).symmetric_spectrum() is None

    def test_huge_diagonal_is_symmetric(self):
        spectrum = DiagonalOp([1e200, 1.0, 1.0]).symmetric_spectrum()
        np.testing.assert_array_equal(spectrum, [1e200, 1.0, 1.0])

    @pytest.mark.parametrize("op,message", [
        (DenseOp([[1.0, 2.0], [0.0, 1.0]]), "smoother matrix is not symmetric"),
        (CirculantOp(np.arange(16.0).reshape(4, 4) * 1j, (4, 4)),
         r"circulant smoother is not symmetric \(complex spectrum\)"),
        (compose(DiagonalOp([1.0, 2.0]), DenseOp(np.ones((2, 2)))),
         "smoother fails the self-adjointness probe"),
    ], ids=["dense", "complex-circulant", "composite"])
    def test_symmetric_spectrum_rejects_asymmetric(self, op, message):
        with pytest.raises(ValueError, match=message):
            op.symmetric_spectrum()
