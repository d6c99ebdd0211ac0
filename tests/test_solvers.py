import contextlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pnpkit import (
    CirculantOp,
    DenseOp,
    DiagonalOp,
    DivergenceError,
    Denoiser,
    Rng,
    RegSlot,
    SmoothFn,
    ShapeError,
    SolveError,
    SolverConfig,
    UlaConfig,
    box_prox,
    contraction_factor,
    gaussian_posterior_oracle,
    gaussian_smoother,
    gs_denoiser,
    identity_op,
    l1_prox,
    linear_spectral_denoiser,
    make_blur,
    make_mask,
    quadratic_fidelity_prox,
    quadratic_prox,
    run_admm,
    run_apgd,
    run_drs,
    run_hqs,
    run_pgd,
    run_red_apg,
    run_red_gd,
    run_red_pg,
    run_pnp_ula,
    solve_shifted_normal,
    tv_value,
    zero_prox,
)
from pnpkit import solvers
from pnpkit.core import scoped_run
from pnpkit.operators import as_dense


def lasso_cd_oracle(k_mat, y, weight, sweeps=20000):
    """Coordinate descent for 0.5*||Kx - y||^2 + weight*||x||_1."""
    n = k_mat.shape[1]
    gram = k_mat.T @ k_mat
    kty = k_mat.T @ y
    x = np.zeros(n)
    for _ in range(sweeps):
        for i in range(n):
            c = kty[i] - gram[i] @ x + gram[i, i] * x[i]
            x[i] = np.sign(c) * max(abs(c) - weight, 0.0) / gram[i, i]
    return x


@pytest.fixture
def lasso_instance():
    rng = Rng(2024)
    k_mat = rng.standard_normal((5, 5))
    y = rng.standard_normal(5)
    weight = 0.2
    return k_mat, y, weight


def identity_denoiser():
    return Denoiser(lambda arr, s: arr, tag="identity")


def never_called_denoiser():
    """A denoiser whose call fails the test: a driver must reject its input before stepping."""

    def fn(arr, sigma):
        raise AssertionError("the driver took a step before it rejected its parameters")

    return Denoiser(fn, tag="never-called")


# Each consumer of data y, called with a y that does not have the operator's
# output shape; each forms K^T y (or K x - y) at setup.
_WRONG_Y = {
    "quadratic_fidelity_prox": quadratic_fidelity_prox,
    "SmoothFn.least_squares": SmoothFn.least_squares,
    "run_admm": lambda op, y: run_admm(op, y, RegSlot(prox=l1_prox(0.1)),
                                       SolverConfig(max_iter=5)),
    "run_hqs": lambda op, y: run_hqs(op, y, RegSlot(prox=l1_prox(0.1)), SolverConfig(max_iter=5)),
    "run_red_gd": lambda op, y: run_red_gd(op, y, identity_denoiser(), lam=1.0, sigma=1.0,
                                           cfg=SolverConfig(step=0.1, max_iter=5)),
    "run_red_pg": lambda op, y: run_red_pg(op, y, identity_denoiser(), lam=1.0, L=2.0,
                                           cfg=SolverConfig(max_iter=5)),
    "run_red_apg": lambda op, y: run_red_apg(op, y, identity_denoiser(), lam=1.0, L=2.0,
                                             cfg=SolverConfig(max_iter=5)),
    "run_pnp_ula": lambda op, y: run_pnp_ula(op, y, identity_denoiser(),
                                             UlaConfig(delta=1e-3, sigma=1.0, sigma_w=1.0,
                                                       kept=2)),
    "gaussian_posterior_oracle": lambda op, y: gaussian_posterior_oracle(op, y, 1.0, 0.1, 0.5),
}


@pytest.mark.parametrize("name", list(_WRONG_Y))
def test_data_of_the_wrong_shape_raises_shape_error(name):
    # unchecked, y = [2.0] broadcasts against K = diag(1, 2, 3); most consumers then return
    with pytest.raises(ShapeError):
        _WRONG_Y[name](DiagonalOp([1.0, 2.0, 3.0]), np.array([2.0]))


class TestPgd:
    def test_one_step_box_clamp(self):
        # f = 0.5 ||x - c||^2, lam = 1: first iterate is clamp(c)
        c = np.array([1.7, -0.3, 0.5])
        f = SmoothFn(grad=lambda x: x - c, value=lambda x: 0.5 * np.sum((x - c) ** 2))
        cfg = SolverConfig(step=1.0, max_iter=5, tol=1e-15)
        x, trace = run_pgd(f, RegSlot(prox=box_prox(0.0, 1.0)), cfg, np.zeros(3))
        np.testing.assert_allclose(x, np.clip(c, 0.0, 1.0), atol=1e-15)
        assert trace.stop_reason == "tolerance"

    def test_lasso_vs_coordinate_descent(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        lip = np.linalg.norm(k_mat, 2) ** 2
        cfg = SolverConfig(step=1.0 / lip, max_iter=20000, tol=1e-14)
        x, _ = run_pgd(SmoothFn.least_squares(op, y), RegSlot(prox=l1_prox(weight)),
                       cfg, np.zeros(5))
        oracle = lasso_cd_oracle(k_mat, y, weight)
        assert np.max(np.abs(x - oracle)) <= 1e-8

    def test_linear_contraction_rate(self):
        # rho = max(|1 - lam*L|, |1 - lam*mu|) = 0.9 for diag(1, 10), lam = 0.1
        h = np.array([1.0, 10.0])
        f = SmoothFn(grad=lambda x: h * x)
        cfg = SolverConfig(step=0.1, max_iter=60, tol=0.0)
        x0 = np.array([3.0, 2.0])
        x = x0.copy()
        ratios = []
        for _ in range(40):
            x_new, _ = run_pgd(f, RegSlot(prox=zero_prox()), SolverConfig(step=0.1, max_iter=1, tol=0.0), x)
            num = np.linalg.norm(x_new)
            den = np.linalg.norm(x)
            if den > 1e-14:
                ratios.append(num / den)
            x = x_new
        assert max(ratios[1:]) <= 0.9 + 1e-6

    def test_objective_nonincreasing(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        lip = np.linalg.norm(k_mat, 2) ** 2
        cfg = SolverConfig(step=1.0 / lip, max_iter=500, tol=0.0)
        _, trace = run_pgd(SmoothFn.least_squares(op, y), RegSlot(prox=l1_prox(weight)),
                           cfg, np.zeros(5))
        obj = trace.column("objective")
        assert np.all(np.diff(obj) <= 1e-12)

    def test_min_residual_decays_like_one_over_k(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        lip = np.linalg.norm(k_mat, 2) ** 2
        cfg = SolverConfig(step=1.0 / lip, max_iter=800, tol=0.0)
        _, trace = run_pgd(SmoothFn.least_squares(op, y), RegSlot(prox=l1_prox(weight)),
                           cfg, np.zeros(5))
        r = trace.column("step_residual")[1:]
        mins = np.minimum.accumulate(r)
        k = np.arange(1, r.size + 1)
        bound = 1.2 * mins[19] * 20
        assert np.all(mins[19:] * k[19:] <= bound + 1e-18)

    def test_bit_for_bit_classical(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        step = 0.05
        cfg = SolverConfig(step=step, max_iter=50, tol=0.0)
        fid = SmoothFn.least_squares(op, y)
        x, _ = run_pgd(fid, RegSlot(prox=l1_prox(weight)), cfg, np.zeros(5))

        z = np.zeros(5)
        for _ in range(50):
            v = z - step * op._adjoint(op._apply(z) - y)
            tau = (step * 1.0) * weight
            z = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
        np.testing.assert_array_equal(x, z)

    def test_divergence_detected(self):
        f = SmoothFn(grad=lambda x: -x)  # concave: iterates explode
        cfg = SolverConfig(step=1.5, max_iter=500, tol=0.0)
        with pytest.raises(DivergenceError) as exc:
            run_pgd(f, RegSlot(prox=zero_prox()), cfg, np.ones(4))
        assert exc.value.last is not None
        assert np.all(np.isfinite(exc.value.last))


class TestApgd:
    def test_alpha_one_recovers_pgd(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        fid = SmoothFn.least_squares(op, y)
        cfg = SolverConfig(step=0.05, alpha=1.0, max_iter=80, tol=0.0)
        x_a, _ = run_apgd(fid, RegSlot(prox=l1_prox(weight)), cfg, np.zeros(5))
        x_p, _ = run_pgd(fid, RegSlot(prox=l1_prox(weight)),
                         SolverConfig(step=0.05, max_iter=80, tol=0.0), np.zeros(5))
        assert np.max(np.abs(x_a - x_p)) <= 1e-12

    def test_limit_matches_pgd_limit(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        fid = SmoothFn.least_squares(op, y)
        lip = np.linalg.norm(k_mat, 2) ** 2
        cfg = SolverConfig(step=0.5 / lip, alpha=0.5, max_iter=40000, tol=1e-14)
        x_a, _ = run_apgd(fid, RegSlot(prox=l1_prox(weight)), cfg, np.zeros(5))
        x_p, _ = run_pgd(fid, RegSlot(prox=l1_prox(weight)),
                         SolverConfig(step=1.0 / lip, max_iter=40000, tol=1e-15),
                         np.zeros(5))
        assert np.max(np.abs(x_a - x_p)) <= 1e-6

    def test_lyapunov_nonincreasing_gs_slot(self):
        # denoiser slot with an exact proximal potential; alpha = 0.5
        shape = (8, 8)
        rng = Rng(5)
        kernel = np.ones((3, 3)) / 9.0
        op = make_blur(kernel, shape)
        x_true = rng.uniform(0, 1, shape)
        y = op._apply(x_true) + 0.03 * rng.standard_normal(shape)
        den = gs_denoiser(gaussian_smoother(shape, 1.0, floor=0.2))
        alpha, lam = 0.5, 1.0
        cfg = SolverConfig(step=lam, alpha=alpha, max_iter=500, tol=0.0)
        _, trace = run_apgd(SmoothFn.least_squares(op, y), RegSlot(denoiser=den), cfg,
                            op._adjoint(y))
        obj = trace.column("objective")
        r = trace.column("step_residual")
        coef = (alpha / 2.0) * (1.0 - 1.0 / alpha) ** 2
        lyap = obj[1:] + coef * r[1:] ** 2
        assert np.all(np.diff(lyap) <= 1e-10)

    def test_bit_for_bit_classical(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        fid = SmoothFn.least_squares(op, y)
        step, alpha = 0.04, 0.7
        cfg = SolverConfig(step=step, alpha=alpha, max_iter=40, tol=0.0)
        x, _ = run_apgd(fid, RegSlot(prox=l1_prox(weight)), cfg, np.zeros(5))

        xk = np.zeros(5)
        yk = np.zeros(5)
        for _ in range(40):
            q = (1.0 - alpha) * xk + alpha * yk
            v = yk - step * op._adjoint(op._apply(q) - y)
            tau = (step * 1.0) * weight
            yk = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
            xk = (1.0 - alpha) * xk + alpha * yk
        np.testing.assert_array_equal(x, xk)

    def test_min_residual_sqrt_k_bounded(self):
        # min_{l<=k} ||x_{l+1} - x_l|| = O(1/sqrt(k)), C fitted at k = 25
        shape = (8, 8)
        rng = Rng(5)
        op = make_blur(np.ones((3, 3)) / 9.0, shape)
        y = op._apply(rng.uniform(0, 1, shape)) + 0.03 * rng.standard_normal(shape)
        den = gs_denoiser(gaussian_smoother(shape, 1.0, floor=0.2))
        cfg = SolverConfig(step=1.0, alpha=0.5, max_iter=500, tol=0.0)
        _, trace = run_apgd(SmoothFn.least_squares(op, y), RegSlot(denoiser=den), cfg,
                            op._adjoint(y))
        r = trace.column("step_residual")[1:]
        mins = np.minimum.accumulate(r)
        k = np.arange(1, r.size + 1)
        scaled = mins * np.sqrt(k)
        assert np.all(scaled[24:] <= 1.2 * scaled[24])


class TestDrs:
    def test_midpoint_of_two_quadratics(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, -2.0])
        cfg = SolverConfig(step=1.0, max_iter=2000, tol=1e-14)
        x, _ = run_drs(RegSlot(prox=quadratic_prox(a)), RegSlot(prox=quadratic_prox(b)),
                       cfg, np.zeros(2))
        np.testing.assert_allclose(x, (a + b) / 2.0, atol=1e-10)

    def test_lasso_matches_pgd(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        cfg = SolverConfig(step=0.5, max_iter=5000, tol=1e-14)
        x_drs, _ = run_drs(quadratic_fidelity_prox(op, y), RegSlot(prox=l1_prox(weight)),
                           cfg, np.zeros(5))
        lip = np.linalg.norm(k_mat, 2) ** 2
        x_pgd, _ = run_pgd(SmoothFn.least_squares(op, y), RegSlot(prox=l1_prox(weight)),
                           SolverConfig(step=1.0 / lip, max_iter=40000, tol=1e-15),
                           np.zeros(5))
        assert np.max(np.abs(x_drs - x_pgd)) <= 1e-7

    def test_residual_rate_one_over_k(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        cfg = SolverConfig(step=0.5, max_iter=1000, tol=0.0)
        _, trace = run_drs(quadratic_fidelity_prox(op, y), RegSlot(prox=l1_prox(weight)),
                           cfg, np.zeros(5))
        e2 = trace.column("fp_residual")[1:] ** 2
        k = np.arange(1, e2.size + 1)
        bound = 1.5 * 10 * e2[9]
        assert np.all(k[9:] * e2[9:] <= bound + 1e-30)

    def test_bit_for_bit_classical(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        lam = 0.8
        cfg = SolverConfig(step=lam, max_iter=60, tol=0.0)
        out, _ = run_drs(quadratic_fidelity_prox(op, y), RegSlot(prox=l1_prox(weight)),
                         cfg, np.zeros(5))

        x = np.zeros(5)
        yk = x
        fidelity = quadratic_fidelity_prox(op, y)
        for _ in range(60):
            yk = np.asarray(fidelity.evaluate(x, lam * 1.0))
            v = 2.0 * yk - x
            tau = (lam * 1.0) * weight
            zk = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
            x = x + zk - yk
        np.testing.assert_array_equal(out, yk)


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@pytest.mark.parametrize("algo", ["pgd", "apgd", "drs"])
def test_diagonal_runs_keep_the_bits_of_the_written_iterations(algo):
    # core.lincomb forms each combination with the operations written below
    rng = Rng(29)
    op = DiagonalOp(rng.uniform(0.5, 1.5, 12))
    y = rng.standard_normal(12)
    weight, step, alpha, steps = 0.1, 0.6, 0.7, 40

    def shrink(v):
        return np.sign(v) * np.maximum(np.abs(v) - step * weight, 0.0)

    cfg = SolverConfig(step=step, alpha=alpha, max_iter=steps, tol=0.0)
    slot = RegSlot(prox=l1_prox(weight))
    x, yk = np.zeros(12), np.zeros(12)
    if algo == "drs":
        fidelity = quadratic_fidelity_prox(op, y)
        out, _ = run_drs(fidelity, slot, cfg, x)
        for _ in range(steps):
            yk = np.asarray(fidelity.evaluate(x, step))
            x = x + shrink(2.0 * yk - x) - yk
        x = yk
    else:
        driver = run_pgd if algo == "pgd" else run_apgd
        out, _ = driver(SmoothFn.least_squares(op, y), slot, cfg, x)
        for _ in range(steps):
            if algo == "pgd":
                x = shrink(x - step * op._adjoint(op._apply(x) - y))
            else:
                q = (1.0 - alpha) * x + alpha * yk
                yk = shrink(yk - step * op._adjoint(op._apply(q) - y))
                x = (1.0 - alpha) * x + alpha * yk
    np.testing.assert_array_equal(_bits(out), _bits(x))


class TestAdmm:
    def test_identity_reg_gives_least_squares(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        op = DenseOp(k_mat)
        cfg = SolverConfig(rho=1.0, max_iter=4000, tol=1e-14)
        x, trace = run_admm(op, y, RegSlot(prox=zero_prox()), cfg)
        ls = np.linalg.solve(k_mat.T @ k_mat, k_mat.T @ y)
        assert np.max(np.abs(x - ls)) <= 1e-8
        assert trace.column("fp_residual")[-1] <= 1e-10

    def test_lasso_agrees_with_pgd_and_drs(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        cfg = SolverConfig(rho=2.0, max_iter=6000, tol=1e-14)
        x_admm, _ = run_admm(op, y, RegSlot(prox=l1_prox(weight)), cfg)
        oracle = lasso_cd_oracle(k_mat, y, weight)
        assert np.max(np.abs(x_admm - oracle)) <= 1e-6

    def test_fixed_point_subdifferential_inclusion(self, lasso_instance):
        # at the limit: K^T(Kx* - y) in -weight * subgradient(||x*||_1)
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        cfg = SolverConfig(rho=2.0, max_iter=8000, tol=1e-15)
        x, _ = run_admm(op, y, RegSlot(prox=l1_prox(weight)), cfg)
        g = k_mat.T @ (k_mat @ x - y)
        for gi, xi in zip(g, x):
            if abs(xi) > 1e-8:
                assert gi == pytest.approx(-weight * np.sign(xi), abs=1e-6)
            else:
                assert abs(gi) <= weight + 1e-6

    def test_bit_for_bit_classical(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        rho = 1.5
        cfg = SolverConfig(rho=rho, max_iter=70, tol=0.0)
        out, _ = run_admm(op, y, RegSlot(prox=l1_prox(weight)), cfg)

        kty = op._adjoint(y)
        x = kty.copy()
        z = x.copy()
        u = np.zeros(5)
        for _ in range(70):
            x = np.asarray(solve_shifted_normal(op, rho, kty + rho * (z - u)))
            v = x + u
            tau = ((1.0 / rho) * 1.0) * weight
            z = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
            u = u + x - z
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("reg", ["l1", "tv"])
    @pytest.mark.parametrize("kind", ["mask", "identity"])
    def test_idempotent_normal_runs_to_the_fixed_point(self, kind, reg):
        # K^T K idempotent: x_1 = K^T y = x_0 for every rho, so a stop on
        # ||x_{k+1} - x_k|| would end the run at step 1 with z and u still moving
        from pnpkit import tv_denoiser

        rng = Rng(5)
        shape = (16, 16)
        op = make_mask(rng.uniform(0, 1, shape) < 0.6) if kind == "mask" else identity_op(shape)
        y = op._apply(rng.uniform(0, 1, shape)) + 0.05 * rng.standard_normal(shape)
        slot = (RegSlot(prox=l1_prox(0.05)) if reg == "l1"
                else RegSlot(denoiser=tv_denoiser(), sigma=0.1))
        cfg = SolverConfig(rho=1.0, max_iter=3000, tol=1e-9, record_time=False)
        x, trace = run_admm(op, y, slot, cfg)
        nudged, _ = run_admm(op, y, slot, cfg, x0=op._adjoint(y) + 1e-6)
        assert trace.stop_reason == "tolerance" and len(trace) > 2
        assert trace.column("fp_residual")[-1] <= cfg.tol
        assert np.max(np.abs(x - nudged)) <= 1e-6


class TestHqs:
    def test_identity_reg_least_squares(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        op = DenseOp(k_mat)
        cfg = SolverConfig(rho=0.05, max_iter=30000, tol=1e-14)
        x, _ = run_hqs(op, y, RegSlot(prox=zero_prox()), cfg)
        ls = np.linalg.solve(k_mat.T @ k_mat, k_mat.T @ y)
        assert np.max(np.abs(x - ls)) <= 1e-5

    def test_bit_for_bit_classical(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        rho = 1.1
        cfg = SolverConfig(rho=rho, max_iter=40, tol=0.0)
        out, _ = run_hqs(op, y, RegSlot(prox=l1_prox(weight)), cfg)

        z = op._adjoint(y)
        fidelity = quadratic_fidelity_prox(op, y)
        for _ in range(40):
            x = np.asarray(fidelity.evaluate(z, 1.0 / rho))
            tau = ((1.0 / rho) * 1.0) * weight
            z = np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)
        np.testing.assert_array_equal(out, z)

    def test_decreasing_sigma_schedule_records_trace(self):
        rng = Rng(8)
        shape = (8, 8)
        op = make_blur(np.ones((3, 3)) / 9.0, shape)
        x_true = rng.uniform(0, 1, shape)
        y = op._apply(x_true) + 0.03 * rng.standard_normal(shape)
        from pnpkit import tv_denoiser

        slot = RegSlot(denoiser=tv_denoiser(), sigma=0.2)
        cfg = SolverConfig(rho=1.0, max_iter=30, tol=0.0)
        sigmas = np.geomspace(0.2, 0.01, 30)
        _, trace = run_hqs(op, y, slot, cfg, sigma_schedule=list(sigmas))
        assert len(trace) == 31
        assert trace.stop_reason in ("max_iter", "tolerance", "diverged")

    def test_traced_objective_is_at_the_steps_rho_and_sigma(self):
        # row k = 0.5*||K z_k - y||^2 + c*sigma_k^2*TV(z_k)*rho_k, row 0 at step 1's
        # rho and sigma; the slot's own sigma (0.5) is on no row
        from pnpkit import tv_denoiser

        rng = Rng(8)
        shape = (8, 8)
        op = make_blur(np.ones((3, 3)) / 9.0, shape)
        y = op._apply(rng.uniform(0, 1, shape)) + 0.03 * rng.standard_normal(shape)
        c, steps = 1.5, 6
        slot = RegSlot(denoiser=tv_denoiser(c), sigma=0.5)
        sigmas, rhos = list(np.geomspace(0.2, 0.02, steps)), list(np.geomspace(1.0, 4.0, steps))
        run = lambda n: run_hqs(op, y, slot, SolverConfig(max_iter=n, tol=0.0),
                                rho_schedule=rhos, sigma_schedule=sigmas)
        objective = run(steps)[1].column("objective")
        for k in range(steps + 1):
            z = run(k)[0] if k else op._adjoint(y)
            step = max(k, 1) - 1
            want = (0.5 * float(np.sum((op._apply(z) - y) ** 2))
                    + c * sigmas[step] ** 2 * tv_value(z) * rhos[step])
            assert objective[k] == pytest.approx(want, rel=1e-12)

    def test_non_finite_tv_input_records_divergence(self):
        from pnpkit import tv_denoiser

        y = np.full((8, 8), 0.5)
        y[4, 4] = np.nan
        slot = RegSlot(denoiser=tv_denoiser(), sigma=0.2)
        cfg = SolverConfig(rho=1.0, max_iter=5, tol=0.0)
        # the fidelity step turns the finite start into a NaN denoiser input
        with pytest.raises(DivergenceError) as exc:
            run_hqs(identity_op((8, 8)), y, slot, cfg, x0=np.zeros((8, 8)))
        err = exc.value
        assert err.trace.stop_reason == "diverged"
        assert err.step == 1 and len(err.trace) == 1
        np.testing.assert_array_equal(err.last, np.zeros((8, 8)))

    @pytest.mark.parametrize("schedules", [
        {"rho_schedule": []}, {"rho_schedule": [0.0]}, {"rho_schedule": [1.0, -1.0]},
        {"rho_schedule": [math.nan]}, {"rho_schedule": [math.inf]},
        {"sigma_schedule": []}, {"sigma_schedule": [0.1, -0.1]},
        {"sigma_schedule": [math.nan]},
    ])
    def test_bad_schedule_raises_value_error_up_front(self, schedules):
        cfg = SolverConfig(max_iter=3)
        with pytest.raises(ValueError, match="schedule"):
            run_hqs(identity_op((4,)), np.ones(4), RegSlot(prox=l1_prox(0.1)), cfg,
                    **schedules)


class TestTvWarmStart:
    @staticmethod
    def problem():
        from pnpkit.cli import builtin_image

        x_true = builtin_image("shapes", 64)
        op = make_blur(np.full((9, 9), 1.0 / 81.0), (64, 64))
        y = op._apply(x_true) + 0.03 * Rng(0).child(100).standard_normal((64, 64))
        return op, y

    def test_warm_run_within_certified_bound_of_cold_replay(self):
        from pnpkit import prox_tv, tv_denoiser

        op, y = self.problem()
        steps, sigma = 25, 0.05
        cfg = SolverConfig(step=1.0, max_iter=steps, tol=0.0, record_time=False)
        x0 = op._adjoint(y)
        warm, _ = run_pgd(SmoothFn.least_squares(op, y),
                          RegSlot(denoiser=tv_denoiser(), sigma=sigma), cfg, x0)
        grad = op.least_squares(y)[1]
        cold = x0
        largest = 0.0
        for _ in range(steps):
            v = cold - grad(cold)
            largest = max(largest, float(np.vdot(v, v)))
            cold = prox_tv(v, sigma * sigma)  # outside any run: a cold solve
        # Each step's TV prox is within sqrt(2*tol) of the exact one in both
        # runs, and the PGD map is nonexpansive, so k steps drift by at most
        # 2*k*sqrt(2*tol).
        tol = 1e-10 * max(x0.size, largest)
        gap = np.linalg.norm(warm - cold)
        assert 0.0 < gap <= 2 * steps * math.sqrt(2.0 * tol)

    def test_runs_share_no_dual(self):
        from pnpkit import tv_denoiser

        op, y = self.problem()
        slot = RegSlot(denoiser=tv_denoiser(), sigma=0.05)
        cfg = SolverConfig(step=1.0, max_iter=6, tol=0.0, record_time=False)
        first, trace_a = run_pgd(SmoothFn.least_squares(op, y), slot, cfg, op._adjoint(y))
        second, trace_b = run_pgd(SmoothFn.least_squares(op, y), slot, cfg, op._adjoint(y))
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(trace_a.column("objective"), trace_b.column("objective"))


class TestRedGd:
    def test_identity_denoiser_is_gradient_descent(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        op = DenseOp(k_mat)
        eta = 0.02
        cfg = SolverConfig(step=eta, max_iter=60, tol=0.0)
        x, _ = run_red_gd(op, y, identity_denoiser(), lam=1.0, sigma=1.0, cfg=cfg)
        z = op._adjoint(y)
        for _ in range(60):
            z = z - eta * (op._adjoint(op._apply(z) - y))
        np.testing.assert_allclose(x, z, atol=1e-13)

    def _linear_setup(self):
        rng = Rng(31)
        k_mat = rng.standard_normal((6, 6)) / 2.0
        y = rng.standard_normal(6)
        den = linear_spectral_denoiser((6,), 0.5, transform="dct")
        a_mat = np.empty((6, 6))
        for j in range(6):
            e = np.zeros(6)
            e[j] = 1.0
            a_mat[:, j] = den.apply(e)
        return DenseOp(k_mat), y, den, a_mat

    def test_linear_denoiser_closed_form(self):
        op, y, den, a_mat = self._linear_setup()
        lam, sigma = 0.8, 1.0
        w = lam / sigma**2
        closed = np.linalg.solve(op.matrix.T @ op.matrix + w * (np.eye(6) - a_mat),
                                 op.matrix.T @ y)
        lip = np.linalg.norm(op.matrix, 2) ** 2 + w
        cfg = SolverConfig(step=1.0 / lip, max_iter=50000, tol=1e-15)
        x, trace = run_red_gd(op, y, den, lam=lam, sigma=sigma, cfg=cfg)
        assert np.max(np.abs(x - closed)) <= 1e-8
        assert trace.column("fp_residual")[-1] <= 1e-8

    @pytest.mark.parametrize("lam,sigma,message", [
        (1.0, 0.0, "sigma"), (1.0, -1.0, "sigma"), (1.0, math.nan, "sigma"),
        (1.0, math.inf, "sigma"), (-1.0, 1.0, "lam"), (math.nan, 1.0, "lam"),
        (math.inf, 1.0, "lam"),
        # derived numbers: sigma*sigma underflows to 0 or overflows, lam/sigma^2 overflows
        (1.0, 1e-200, r"sigma\*sigma"), (1.0, 1e200, r"sigma\*sigma"),
        (1.0, 1e-160, r"lam/sigma\^2"),
    ])
    def test_rejects_bad_sigma_and_lam(self, lam, sigma, message):
        with pytest.raises(ValueError, match=f"^{message} must be finite"):
            run_red_gd(identity_op((4,)), np.zeros(4), never_called_denoiser(), lam=lam,
                       sigma=sigma, cfg=SolverConfig(max_iter=3))


class TestRedPg:
    def test_identity_denoiser_is_proximal_point(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        op = DenseOp(k_mat)
        lam, big_l = 1.0, 2.0
        cfg = SolverConfig(max_iter=30, tol=0.0)
        x, _ = run_red_pg(op, y, identity_denoiser(), lam=lam, L=big_l, cfg=cfg)
        v = op._adjoint(y)
        fidelity = quadratic_fidelity_prox(op, y)
        for _ in range(30):
            xk = np.asarray(fidelity.evaluate(v, 1.0 / (lam * big_l)))
            v = (1.0 / big_l) * xk - ((1.0 - big_l) / big_l) * xk
        np.testing.assert_allclose(x, xk, atol=1e-12)

    def test_requires_L_above_one(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        with pytest.raises(ValueError):
            run_red_pg(DenseOp(k_mat), y, identity_denoiser(), lam=1.0, L=1.0,
                       cfg=SolverConfig())

    def test_fixed_point_matches_red_gd(self):
        rng = Rng(31)
        k_mat = rng.standard_normal((6, 6)) / 2.0
        y = rng.standard_normal(6)
        den = linear_spectral_denoiser((6,), 0.5, transform="dct")
        lam = 0.8
        cfg = SolverConfig(max_iter=100000, tol=1e-15)
        x_pg, trace = run_red_pg(DenseOp(k_mat), y, den, lam=lam, L=2.0, cfg=cfg)
        lip = np.linalg.norm(k_mat, 2) ** 2 + lam
        x_gd, _ = run_red_gd(DenseOp(k_mat), y, den, lam=lam, sigma=1.0,
                             cfg=replace(cfg, step=1.0 / lip))
        assert np.max(np.abs(x_pg - x_gd)) <= 1e-7
        assert trace.column("fp_residual")[-1] <= 1e-8

    def test_step_residual_monotone_for_averaged_operator(self):
        rng = Rng(9)
        k_mat = rng.standard_normal((5, 5)) / 3.0
        y = rng.standard_normal(5)
        den = linear_spectral_denoiser((5,), 0.4, transform="identity")  # nonexpansive linear
        cfg = SolverConfig(max_iter=300, tol=0.0)
        _, trace = run_red_pg(DenseOp(k_mat), y, den, lam=1.0, L=2.0, cfg=cfg)
        r = trace.column("step_residual")[2:]
        assert np.all(np.diff(r) <= 1e-14)


@pytest.mark.parametrize("driver", ["red-gd", "red-pg"])
def test_red_one_denoiser_call_per_traced_row(driver):
    op, y, den = _circulant_gs_problem(side=16)
    calls = [0]

    def fn(arr, s):
        calls[0] += 1
        return den.apply(arr, s)

    counted = Denoiser(fn, tag="counted")
    cfg = SolverConfig(step=0.5, max_iter=12, tol=0.0, record_time=False)
    if driver == "red-gd":
        _, trace = run_red_gd(op, y, counted, lam=0.0025, sigma=0.05, cfg=cfg)
    else:
        _, trace = run_red_pg(op, y, counted, lam=0.5, L=2.0, cfg=cfg)
    assert len(trace) == cfg.max_iter + 1 and calls[0] == cfg.max_iter + 1
    assert np.all(np.isfinite(trace.column("fp_residual")))


class TestRedPgIsPgd:
    """RED-PG as PGD against the form v_k = (1/L)D(x_k) - ((1-L)/L)x_k, x_{k+1} = prox(v_k).

    That form starts from v_0 = K^T y, so its x_1 = prox(K^T y) starts the PGD run.
    """

    LAM, L, STEPS = 0.5, 2.0, 59

    def _runs(self, den, sigma, scope=contextlib.nullcontext):
        # the form's steps after x_1 run inside scope(); x_1 is outside it, as
        # the run's start (a copy of x_1) has no spectrum held for it
        rng = Rng(3)
        shape = (32, 32)
        op = make_blur(np.full((5, 5), 1.0 / 25.0), shape)
        y = op._apply(rng.uniform(0, 1, shape)) + 0.03 * rng.standard_normal(shape)
        fidelity = quadratic_fidelity_prox(op, y)
        xs = [np.asarray(fidelity.evaluate(op._adjoint(y), 1.0 / (self.LAM * self.L)))]
        with scope():
            for _ in range(self.STEPS):
                v = (1.0 / self.L) * den.apply(xs[-1], sigma) - ((1.0 - self.L) / self.L) * xs[-1]
                xs.append(np.asarray(fidelity.evaluate(v, 1.0 / (self.LAM * self.L))))
        cfg = SolverConfig(max_iter=self.STEPS, tol=0.0, record_time=False)
        out, _ = run_red_pg(op, y, den, lam=self.LAM, L=self.L, cfg=cfg, x0=xs[0],
                            sigma=sigma)
        return out, xs

    def test_linear_gs_denoiser_bit_for_bit(self):
        # in a solver run the denoiser reads the spectrum the fidelity prox held
        # for its output; the form's loop runs in a run of its own to do the same
        shape = (32, 32)
        den = gs_denoiser(gaussian_smoother(shape, 1.5, floor=0.15), weight=0.7)
        out, xs = self._runs(den, 0.0, scoped_run)
        np.testing.assert_array_equal(out, xs[-1])

    def test_tv_within_the_certificate(self):
        from pnpkit import tv_denoiser

        out, xs = self._runs(tv_denoiser(), 0.05)
        # each TV prox is within sqrt(2*tol) of the exact one in both runs (the
        # run's warm, the loop's cold), and the RED-PG map is nonexpansive
        tol = 1e-10 * max(out.size, max(float(np.vdot(x, x)) for x in xs))
        gap = float(np.linalg.norm(out - xs[-1]))
        assert 0.0 < gap <= 2 * self.STEPS * math.sqrt(2.0 * tol)


@pytest.mark.parametrize("driver", [run_red_pg, run_red_apg])
@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_red_pg_and_apg_reject_bad_lam(driver, lam):
    op = DiagonalOp(np.array([1.0, 0.5, 2.0]))
    with pytest.raises(ValueError, match="^lam must be finite and positive$"):
        driver(op, np.ones(3), identity_denoiser(), lam=lam, L=2.0,
               cfg=SolverConfig(max_iter=3))


@pytest.mark.parametrize("driver", [run_red_pg, run_red_apg])
@pytest.mark.parametrize("lam,big_l", [(1e-320, 2.0), (1e300, 1e10), (1.0, math.inf),
                                       (1.0, math.nan)])
def test_red_pg_and_apg_reject_a_step_that_is_not_finite(driver, lam, big_l):
    # 1/(lam*L) overflows to inf, or is 0 or NaN: found before the first step
    op = DiagonalOp(np.array([1.0, 0.5, 2.0]))
    with pytest.raises(ValueError, match=r"^the step 1/\(lam\*L\) must be finite and positive"):
        driver(op, np.ones(3), never_called_denoiser(), lam=lam, L=big_l,
               cfg=SolverConfig(max_iter=3))


class TestRedApg:
    def test_divergence_raises_with_step_last_and_trace(self):
        # an expansive map in the slot blows the momentum recursion up
        rng = Rng(1)
        op = DiagonalOp(np.full(4, 0.1))
        y = rng.standard_normal(4)
        expander = Denoiser(lambda arr, s: 10.0 * arr, tag="expander")
        cfg = SolverConfig(max_iter=2000, tol=0.0)
        with pytest.raises(DivergenceError) as exc:
            run_red_apg(op, y, expander, lam=1.0, L=1.5, cfg=cfg, x0=np.ones(4))
        err = exc.value
        assert err.trace.stop_reason == "diverged"
        assert err.step == 15 and len(err.trace) == 15
        last, _ = run_red_apg(op, y, expander, lam=1.0, L=1.5,
                              cfg=SolverConfig(max_iter=14, tol=0.0), x0=np.ones(4))
        np.testing.assert_array_equal(err.last, last)

    def test_identity_denoiser_matches_accelerated_proximal_point(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        op = DenseOp(k_mat)
        lam, big_l = 1.0, 2.0
        cfg = SolverConfig(max_iter=40, tol=0.0)
        out, _ = run_red_apg(op, y, identity_denoiser(), lam=lam, L=big_l, cfg=cfg)

        v = op._adjoint(y)
        x_prev = None
        t_prev = 1.0
        fidelity = quadratic_fidelity_prox(op, y)
        for _ in range(40):
            xk = np.asarray(fidelity.evaluate(v, 1.0 / (lam * big_l)))
            t = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev**2))
            z = xk if x_prev is None else xk + ((t_prev - 1.0) / t) * (xk - x_prev)
            v = (1.0 / big_l) * xk - ((1.0 - big_l) / big_l) * z
            x_prev, t_prev = xk, t
        np.testing.assert_array_equal(out, x_prev)


def _gs_pnp(op, y, den, cfg, lam, x0=None, backtracking=False):
    """GS-PnP: PGD with the data term in the prox slot and lam*g as the smooth term."""
    return run_pgd(SmoothFn.potential(den, lam), quadratic_fidelity_prox(op, y), cfg,
                   op._adjoint(y) if x0 is None else x0, backtracking=backtracking)


class TestGsPnp:
    def _deblur_setup(self, shape=(8, 8), floor=0.2):
        rng = Rng(21)
        op = make_blur(np.ones((3, 3)) / 9.0, shape)
        x_true = rng.uniform(0, 1, shape)
        y = op._apply(x_true) + 0.03 * rng.standard_normal(shape)
        den = gs_denoiser(gaussian_smoother(shape, 1.0, floor=floor), weight=0.5)
        return op, y, den

    def test_identity_smoother_is_proximal_point(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        op = DenseOp(k_mat)
        den = gs_denoiser(CirculantOp(np.ones(3), (5,)))
        cfg = SolverConfig(step=0.5, max_iter=25, tol=0.0)
        x, _ = _gs_pnp(op, y, den, cfg, lam=1.0)
        z = op._adjoint(y)
        fidelity = quadratic_fidelity_prox(op, y)
        for _ in range(25):
            z = np.asarray(fidelity.evaluate(z - 0.0, 0.5))
        np.testing.assert_allclose(x, z, atol=1e-13)

    def test_objective_nonincreasing(self):
        op, y, den = self._deblur_setup()
        lam = 0.5
        tau = 0.9 / (lam * den.grad_lipschitz)
        cfg = SolverConfig(step=tau, max_iter=300, tol=0.0)
        _, trace = _gs_pnp(op, y, den, cfg, lam=lam)
        obj = trace.column("objective")
        assert np.all(np.diff(obj) <= 1e-12)

    def test_limit_is_stationary(self):
        op, y, den = self._deblur_setup()
        lam = 0.5
        tau = 0.9 / (lam * den.grad_lipschitz)
        cfg = SolverConfig(step=tau, max_iter=5000, tol=1e-13)
        x, _ = _gs_pnp(op, y, den, cfg, lam=lam)
        grad_f = op._adjoint(op._apply(x) - y)
        grad = grad_f + lam * den.grad_potential(x, 0.0)
        assert np.linalg.norm(grad) <= 1e-6

    def test_backtracking_accepts_on_strongly_convex_instance(self):
        rng = Rng(3)
        op = identity_op((6,))
        y = rng.standard_normal(6)
        den = gs_denoiser(gaussian_smoother((6,), 1.0, floor=0.3))
        cfg = SolverConfig(step=0.4, max_iter=200, tol=1e-12)
        x, trace = _gs_pnp(op, y, den, cfg, lam=0.3, backtracking=True)
        obj = trace.column("objective")
        assert np.all(np.diff(obj) <= 1e-12)
        assert trace.stop_reason == "tolerance"

    def test_backtracking_exhaustion_raises(self, monkeypatch):
        # K = I, y = 0, g = 0.5*||x||^2, lam = 1e5: the smooth term is
        # 1e5-smooth, and the rule holds only once t <= 1/(lam - 1), 16
        # halvings below the trial step 0.5, so a search capped at 12
        # halvings exhausts them and errors out
        monkeypatch.setattr(solvers, "_HALVINGS", 12)
        op = identity_op((4,))
        den = gs_denoiser(CirculantOp(np.zeros(3), (4,)))  # g = 0.5*||x||^2
        cfg = SolverConfig(step=0.5, max_iter=5, tol=0.0)
        with pytest.raises(SolveError) as exc:
            _gs_pnp(op, np.zeros(4), den, cfg, lam=1e5, x0=2.0 * np.ones(4),
                    backtracking=True)
        assert "backtracking" in str(exc.value)

    def test_backtracking_step_underflow_raises(self):
        # halving a trial step of 1e-320 reaches 0 long before 60 halvings: the
        # search ends there, exhausted, instead of calling the prox at step 0
        op, y, den = _circulant_gs_problem(side=16)
        cfg = SolverConfig(step=1e-320, max_iter=5, tol=0.0, record_time=False)
        with pytest.raises(SolveError, match="the next step 0:"):
            _gs_pnp(op, y, den, cfg, lam=0.7, backtracking=True)

    def test_requires_potential(self):
        with pytest.raises(ValueError):
            SmoothFn.potential(identity_denoiser(), 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_lam(self, lam):
        with pytest.raises(ValueError):
            SmoothFn.potential(gs_denoiser(CirculantOp(np.zeros(3), (4,))), lam)


def _circulant_gs_problem(side=32):
    rng = Rng(13)
    shape = (side, side)
    op = make_blur(np.full((5, 5), 1.0 / 25.0), shape)
    y = op._apply(rng.uniform(0, 1, shape)) + 0.03 * rng.standard_normal(shape)
    den = gs_denoiser(gaussian_smoother(shape, 1.5, floor=0.15), weight=0.7)
    return op, y, den


# the five provable drivers of criterion 11, as the CLI builds them
PROVABLE_RUNS = {
    "pnp-pgd": lambda op, y, slot, cfg: run_pgd(SmoothFn.least_squares(op, y), slot, cfg,
                                                op._adjoint(y)),
    "pnp-drs": lambda op, y, slot, cfg: run_drs(slot, quadratic_fidelity_prox(op, y), cfg,
                                                op._adjoint(y)),
    "pnp-drsdiff": lambda op, y, slot, cfg: run_drs(quadratic_fidelity_prox(op, y), slot, cfg,
                                                    op._adjoint(y)),
    "gs-pnp": lambda op, y, slot, cfg: _gs_pnp(op, y, slot.denoiser, cfg, lam=0.7),
    "apgd": lambda op, y, slot, cfg: run_apgd(SmoothFn.least_squares(op, y), slot, cfg,
                                              op._adjoint(y)),
}


class TestObjectiveTransforms:
    def test_objective_is_the_sum_of_its_terms(self):
        op, y, den = _circulant_gs_problem(side=12)
        x = Rng(4).uniform(0, 1, y.shape)
        fid = SmoothFn.least_squares(op, y)
        slot = RegSlot(denoiser=den)
        prox_slot = RegSlot(prox=quadratic_fidelity_prox(op, y))
        parts = fid.value(x) + slot.reg_value(x, 0.5)
        assert solvers._objective(x, 0.5, fid, slot) == pytest.approx(parts, rel=1e-14)
        potential = SmoothFn.potential(den, 0.7)
        parts = potential.value(x) + prox_slot.reg_value(x, 1.0)
        assert solvers._objective(x, 1.0, potential, prox_slot) == pytest.approx(parts,
                                                                                 rel=1e-14)
        parts = slot.reg_value(x, 1.0) + prox_slot.reg_value(x, 1.0)
        assert solvers._objective(x, 1.0, None, slot, prox_slot) == pytest.approx(parts,
                                                                                  rel=1e-14)

    def test_no_spectrum_outlives_an_objective(self):
        op, y, den = _circulant_gs_problem(side=12)
        x = Rng(5).uniform(0, 1, y.shape)
        fid = SmoothFn.least_squares(op, y)
        slot = RegSlot(denoiser=den)
        solvers._objective(x, 1.0, fid, slot)
        x *= 2.0  # the same array object, changed in place
        assert fid.value(x) == pytest.approx(0.5 * float(np.sum((op._apply(x) - y) ** 2)),
                                             rel=1e-12)
        assert solvers._objective(x, 1.0, fid, slot) == pytest.approx(
            fid.value(x.copy()) + slot.reg_value(x.copy(), 1.0), rel=1e-14)

    @staticmethod
    def _count_transforms(monkeypatch):
        """A one-entry list that counts every real transform from now on."""
        from pnpkit import core, operators

        count = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                count[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the real FFT pair lives in core; operators binds its own name for the forward one
        for module, name in ((core, "_rfftn"), (core, "_irfftn"), (operators, "_rfftn")):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        return count

    @pytest.mark.parametrize("algo", sorted(PROVABLE_RUNS))
    def test_at_most_two_real_transforms_per_iteration(self, algo, monkeypatch):
        count = self._count_transforms(monkeypatch)
        op, y, den = _circulant_gs_problem()
        slot = RegSlot(denoiser=den)
        counts = {}
        for iters in (2, 8):
            count[0] = 0
            cfg = SolverConfig(step=1.0, max_iter=iters, tol=0.0, record_time=False)
            _, trace = PROVABLE_RUNS[algo](op, y, slot, cfg)
            assert np.all(np.isfinite(trace.column("objective")))
            counts[iters] = count[0]
        # each step is two filters: a filter reads the spectrum the run holds
        # for its input (a denoiser's or a prox's output, or a linear
        # combination of held spectra, core.lincomb), and the objective the
        # one of the traced point
        per_iteration = 2
        assert counts[2] > 0  # the counter sees the transforms the run makes
        assert counts[8] - counts[2] <= per_iteration * 6  # the set-up and row 0 cancel out
        assert counts[2] <= per_iteration * 2 + 8  # the set-up: K^T y, the transform of y, row 0

    @pytest.mark.parametrize("build", [SmoothFn.least_squares, quadratic_fidelity_prox],
                             ids=["smooth", "prox"])
    @pytest.mark.parametrize("shape", [(32, 32), (16, 16, 3)])
    @pytest.mark.parametrize("even", [True, False], ids=["even", "non-even"])
    def test_a_circulant_data_term_transforms_y_once(self, build, shape, even, monkeypatch):
        # (K^T y)^ = conj(H) Y and the Parseval value both come from the one Y
        kernel = np.full((5, 5), 1.0 / 25.0) if even else Rng(2).uniform(0.0, 1.0, (3, 5))
        op = make_blur(kernel, shape)
        y = Rng(3).uniform(0.0, 1.0, shape)
        count = self._count_transforms(monkeypatch)
        build(op, y)
        assert count[0] == 1

    @pytest.mark.parametrize("algo", sorted(PROVABLE_RUNS))
    def test_a_two_iteration_run_makes_eight_transforms(self, algo, monkeypatch):
        # Y, the start point K^T y (one round trip), row 0's objective and two
        # per iteration
        op, y, den = _circulant_gs_problem()
        cfg = SolverConfig(step=1.0, max_iter=2, tol=0.0, record_time=False)
        count = self._count_transforms(monkeypatch)
        PROVABLE_RUNS[algo](op, y, RegSlot(denoiser=den), cfg)
        assert count[0] == 8

    @pytest.mark.parametrize("algo, message", [
        ("pnp-pgd", "denoiser 'gs' produced non-finite output"),
        ("gs-pnp", "iterates diverged at step 2"),
    ], ids=["pnp-pgd", "gs-pnp"])
    def test_a_diverging_step_is_reported_once_without_warnings(self, algo, message):
        # step 1e308 overflows the step to inf and then to NaN inside the
        # filters; the run reports it only as a DivergenceError.  GS-PnP's
        # step x - t*grad g is filtered from its held spectrum, whose entries
        # sum over the grid, so it overflows a step before the spatial one
        # would
        op, y, den = _circulant_gs_problem(side=16)
        cfg = SolverConfig(step=1e308, max_iter=50, record_time=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=f"^{message}$"):
                PROVABLE_RUNS[algo](op, y, RegSlot(denoiser=den), cfg)

    @pytest.mark.parametrize("algo", sorted(set(PROVABLE_RUNS) - {"gs-pnp"}))
    def test_a_mask_run_makes_no_transform(self, algo, monkeypatch):
        # every term of every linear combination lacks a held spectrum, and
        # core.lincomb never transforms one to make it
        count = self._count_transforms(monkeypatch)
        rng = Rng(23)
        op = make_mask(rng.uniform(0, 1, (16, 16)) > 0.4)
        y = op._apply(rng.uniform(0, 1, (16, 16)))
        cfg = SolverConfig(step=1.0, max_iter=6, tol=0.0, record_time=False)
        _, trace = PROVABLE_RUNS[algo](op, y, RegSlot(prox=l1_prox(0.05)), cfg)
        assert np.all(np.isfinite(trace.column("objective")))
        assert count[0] == 0

    @pytest.mark.parametrize("algo", ["pgd", "apgd", "drs"])
    def test_a_mask_run_with_a_circulant_denoiser_matches_its_written_iteration(self, algo):
        # the denoiser's outputs have held spectra and the mask's do not, so
        # no combination of the two may hold one
        rng = Rng(31)
        shape = (16, 16)
        op = make_mask(rng.uniform(0, 1, shape) > 0.4)
        y = op._apply(rng.uniform(0, 1, shape))
        den = gs_denoiser(gaussian_smoother(shape, 1.5, floor=0.15), weight=0.7)
        step, alpha, steps = 1.0, 0.5, 8
        cfg = SolverConfig(step=step, alpha=alpha, max_iter=steps, tol=0.0, record_time=False)
        x0 = op._adjoint(y)
        x, yk = x0, x0
        if algo == "drs":
            fidelity = quadratic_fidelity_prox(op, y)
            out, _ = run_drs(fidelity, den, cfg, x0)
            for _ in range(steps):
                yk = fidelity.evaluate(x, step)
                x = x + den.apply(2.0 * yk - x) - yk
            x = yk
        else:
            fid = SmoothFn.least_squares(op, y)
            out, _ = (run_pgd if algo == "pgd" else run_apgd)(fid, den, cfg, x0)
            for _ in range(steps):
                if algo == "pgd":
                    x = den.apply(x - step * fid.grad(x))
                else:
                    yk = den.apply(yk - step * fid.grad((1.0 - alpha) * x + alpha * yk))
                    x = (1.0 - alpha) * x + alpha * yk
        np.testing.assert_allclose(out, x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("algo", sorted(PROVABLE_RUNS))
    def test_a_per_channel_run_traces_its_spatial_objective(self, algo):
        # a 2-D kernel on 16x16x3: every held spectrum is over the axes (0, 1)
        rng = Rng(17)
        shape = (16, 16, 3)
        op = make_blur(np.full((5, 5), 1.0 / 25.0), shape)
        y = op._apply(rng.uniform(0, 1, shape)) + 0.03 * rng.standard_normal(shape)
        den = gs_denoiser(gaussian_smoother(shape, 1.5, floor=0.15), weight=0.7)
        cfg = SolverConfig(step=1.0, max_iter=8, tol=0.0, record_time=False)
        x, trace = PROVABLE_RUNS[algo](op, y, RegSlot(denoiser=den), cfg)
        fidelity = 0.5 * float(np.sum((op.apply(x) - y) ** 2))
        reg = 0.7 * den.potential(x) if algo == "gs-pnp" else den.prox_potential(x) / cfg.step
        assert trace.last().objective == pytest.approx(fidelity + reg, rel=1e-12)

    @pytest.mark.parametrize("algo, adjoints", [("hqs", 1), ("admm", 1), ("red-pg", 1),
                                                ("red-apg", 1)])
    def test_traced_data_term_forms_no_extra_kty(self, algo, adjoints):
        # K^T y once, for the start point, which RED-PG's and RED-APG's traced
        # stationarity and ADMM's x-update reuse: the circulant data term's
        # (K^T y)^ is conj(H) Y
        op, y, den = _circulant_gs_problem(side=16)
        adjoint, calls = op._adjoint, [0]

        def counted(v):
            calls[0] += 1
            return adjoint(v)

        op._adjoint = counted
        cfg = SolverConfig(max_iter=6, tol=0.0, record_time=False)
        if algo.startswith("red"):
            driver = run_red_pg if algo == "red-pg" else run_red_apg
            _, trace = driver(op, y, den, lam=0.5, L=2.0, cfg=cfg)
            column = "fp_residual"  # the stationarity norm holds the data term
        else:
            driver = run_hqs if algo == "hqs" else run_admm
            _, trace = driver(op, y, RegSlot(denoiser=den), cfg)
            column = "objective"
        assert np.all(np.isfinite(trace.column(column)))
        assert calls[0] == adjoints


class TestBacktracking:
    @staticmethod
    def _lasso_run(lasso_instance, max_iter, backtracking):
        # a step of 5/L, where plain PGD needs one below 2/L
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        cfg = SolverConfig(step=5.0 / op.spectral_norm ** 2, max_iter=max_iter, tol=1e-12)
        return run_pgd(SmoothFn.least_squares(op, y), l1_prox(weight), cfg, np.zeros(5),
                       backtracking=backtracking)

    def test_lasso_step_above_two_over_l_halves_and_never_raises_f(self, lasso_instance):
        with pytest.raises(DivergenceError):
            self._lasso_run(lasso_instance, 200, False)
        # the full trial step is rejected: the first iterate is a halved step's
        first, _ = self._lasso_run(lasso_instance, 1, True)
        full, _ = self._lasso_run(lasso_instance, 1, False)
        assert np.max(np.abs(first - full)) > 1e-3
        _, trace = self._lasso_run(lasso_instance, 200, True)
        obj = trace.column("objective")
        assert np.all(np.diff(obj) <= 1e-12) and obj[-1] < obj[0]

    def test_lasso_backtracking_stops_on_tolerance(self, lasso_instance):
        x, trace = self._lasso_run(lasso_instance, 2000, True)
        assert trace.stop_reason == "tolerance"
        np.testing.assert_allclose(x, lasso_cd_oracle(*lasso_instance), atol=1e-8)

    def test_rejects_denoiser_slot(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        with pytest.raises(ValueError, match="backtracking"):
            run_pgd(SmoothFn.least_squares(DenseOp(k_mat), y), identity_denoiser(),
                    SolverConfig(), np.zeros(5), backtracking=True)

    def test_rejects_smooth_term_without_value(self, lasso_instance):
        k_mat, y, _ = lasso_instance
        grad = DenseOp(k_mat).least_squares(y)[1]
        with pytest.raises(ValueError, match="backtracking"):
            run_pgd(SmoothFn(grad=grad), l1_prox(0.2), SolverConfig(), np.zeros(5),
                    backtracking=True)


def _iterate_map(fn, cfg, x0):
    """Iterate x_{k+1} = fn(x_k) as PnP-PGD with no smooth term."""
    den = Denoiser(lambda arr, s: fn(arr), tag="map")
    return run_pgd(SmoothFn(grad=np.zeros_like), RegSlot(denoiser=den), cfg, x0)


class TestFixedPoint:
    def test_half_identity_contracts_at_half(self):
        cfg = SolverConfig(max_iter=200, tol=1e-12)
        x, trace = _iterate_map(lambda z: 0.5 * z, cfg, np.ones(3))
        assert np.linalg.norm(x) <= 1e-11
        assert contraction_factor(trace) == pytest.approx(0.5, abs=1e-9)

    def test_drsdiff_contraction_gate(self):
        # epsilon = lam/(1+lam); tau at twice the theorem threshold
        rng = Rng(4)
        n = 12
        lam = 1.0 / 9.0  # epsilon = 0.1
        eps = lam / (1.0 + lam)
        den = linear_spectral_denoiser((n,), lam, transform="dct")
        target = rng.standard_normal(n)
        prox_f = quadratic_prox(target, weight=1.0)  # mu = 1
        tau = 2.0 * eps / ((1.0 + eps - 2.0 * eps**2) * 1.0)
        cfg = SolverConfig(step=tau, max_iter=4000, tol=1e-13)
        x1, trace1 = run_drs(prox_f, RegSlot(denoiser=den), cfg, np.zeros(n))
        x2, trace2 = run_drs(prox_f, RegSlot(denoiser=den), cfg, 10.0 * rng.standard_normal(n))
        assert contraction_factor(trace1) < 1.0 and contraction_factor(trace2) < 1.0
        assert np.max(np.abs(x1 - x2)) <= 1e-8

    def test_fidelity_first_drs_matches_three_line_updates(self):
        # fidelity-first run_drs: y = prox_{tau f}(x), z = D(2y - x), x <- x + z - y
        rng = Rng(6)
        n = 5
        den = linear_spectral_denoiser((n,), 0.25, transform="identity")
        target = rng.standard_normal(n)
        prox_f = quadratic_prox(target)
        tau = 0.7
        x0 = rng.standard_normal(n)
        x = x0
        for _ in range(3):
            y = np.asarray(prox_f.evaluate(x, tau))
            x = x + den.apply(2.0 * y - x) - y
        cfg = SolverConfig(step=tau, max_iter=3, tol=0.0)
        out, _ = run_drs(prox_f, RegSlot(denoiser=den), cfg, x0)
        np.testing.assert_allclose(out, y, atol=1e-14)

    def test_nonconvergent_rotation_raises_with_factor(self):
        theta = 0.3
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        cfg = SolverConfig(max_iter=50, tol=1e-12)
        _, trace = _iterate_map(lambda z: rot @ z, cfg, np.array([1.0, 0.0]))
        with pytest.raises(SolveError) as exc:
            contraction_factor(trace)
        assert exc.value.residual is not None


class TestRegSlot:
    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            RegSlot()
        with pytest.raises(ValueError):
            RegSlot(prox=l1_prox(1.0), denoiser=identity_denoiser())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(step=0.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)


class TestCrossSolverConsistency:
    def test_lasso_minimizer_agreement(self, lasso_instance):
        k_mat, y, weight = lasso_instance
        op = DenseOp(k_mat)
        lip = np.linalg.norm(k_mat, 2) ** 2
        x_pgd, _ = run_pgd(SmoothFn.least_squares(op, y), RegSlot(prox=l1_prox(weight)),
                           SolverConfig(step=1.0 / lip, max_iter=60000, tol=1e-15),
                           np.zeros(5))
        x_drs, _ = run_drs(quadratic_fidelity_prox(op, y), RegSlot(prox=l1_prox(weight)),
                           SolverConfig(step=0.5, max_iter=20000, tol=1e-15), np.zeros(5))
        x_admm, _ = run_admm(op, y, RegSlot(prox=l1_prox(weight)),
                             SolverConfig(rho=2.0, max_iter=20000, tol=1e-15))
        assert np.max(np.abs(x_pgd - x_drs)) <= 1e-6
        assert np.max(np.abs(x_pgd - x_admm)) <= 1e-6

    def test_pnp_pgd_and_drsdiff_target_same_objective(self):
        shape = (8, 8)
        rng = Rng(13)
        op = make_blur(np.ones((3, 3)) / 9.0, shape)
        x_true = rng.uniform(0, 1, shape)
        y = op._apply(x_true) + 0.02 * rng.standard_normal(shape)
        den = gs_denoiser(gaussian_smoother(shape, 1.2, floor=0.25))
        fid = SmoothFn.least_squares(op, y)

        cfg = SolverConfig(step=1.0, max_iter=20000, tol=1e-13)
        x_pgd, _ = run_pgd(fid, RegSlot(denoiser=den), cfg, op._adjoint(y))
        x_drs, _ = run_drs(quadratic_fidelity_prox(op, y), RegSlot(denoiser=den), cfg,
                           op._adjoint(y))

        def objective(x):
            return 0.5 * np.sum((op._apply(x) - y) ** 2) + den.prox_potential(x, 0.0)

        f1 = objective(x_pgd)
        f2 = objective(x_drs)
        assert abs(f1 - f2) <= 1e-4


# ---------------------------------------------------------------------------
# What the shared iteration kernel guarantees for every driver
# ---------------------------------------------------------------------------

CONTRACT_OP = DiagonalOp(np.array([0.4, 0.3, 0.8, 0.6]))
CONTRACT_Y = np.array([1.0, -0.5, 0.25, 2.0])


def _scaling_denoiser(grow):
    c = 10.0 if grow else 0.6
    return Denoiser(lambda arr, s: c * arr, tag="scale")


def _quadratic_gs(grow):
    # g(x) = c/2 ||x||^2: convex for c > 0, and for c = -10 the step expands
    c = -10.0 if grow else 1.0
    return Denoiser(lambda arr, s: arr, tag="quadratic",
                    potential=lambda x, s: 0.5 * c * float(np.sum(x * x)),
                    grad_potential=lambda x, s: c * x)


def _fid():
    return SmoothFn.least_squares(CONTRACT_OP, CONTRACT_Y)


def _with_contraction(result):
    assert contraction_factor(result[1]) < 1.0
    return result


DRIVERS = {
    "pgd": lambda cfg, grow: run_pgd(
        _fid(), RegSlot(denoiser=_scaling_denoiser(grow)), cfg, np.ones(4)),
    "apgd": lambda cfg, grow: run_apgd(
        _fid(), RegSlot(denoiser=_scaling_denoiser(grow)), cfg, np.ones(4)),
    "drs": lambda cfg, grow: run_drs(
        RegSlot(denoiser=_scaling_denoiser(grow)),
        quadratic_fidelity_prox(CONTRACT_OP, CONTRACT_Y), cfg, np.ones(4)),
    "admm": lambda cfg, grow: run_admm(
        CONTRACT_OP, CONTRACT_Y, RegSlot(denoiser=_scaling_denoiser(grow)), cfg),
    "hqs": lambda cfg, grow: run_hqs(
        CONTRACT_OP, CONTRACT_Y, RegSlot(denoiser=_scaling_denoiser(grow)), cfg),
    "red_gd": lambda cfg, grow: run_red_gd(
        CONTRACT_OP, CONTRACT_Y, _scaling_denoiser(grow), lam=1.0, sigma=1.0, cfg=cfg),
    "red_pg": lambda cfg, grow: run_red_pg(
        CONTRACT_OP, CONTRACT_Y, _scaling_denoiser(grow), lam=1.0, L=2.0, cfg=cfg),
    "red_apg": lambda cfg, grow: run_red_apg(
        CONTRACT_OP, CONTRACT_Y, _scaling_denoiser(grow), lam=1.0, L=2.0, cfg=cfg),
    "gs_pnp": lambda cfg, grow: run_pgd(
        SmoothFn.potential(_quadratic_gs(grow), 1.0),
        quadratic_fidelity_prox(CONTRACT_OP, CONTRACT_Y), replace(cfg, step=0.5), np.ones(4)),
    # fidelity-first DRS whose trace must certify a contraction factor
    "fixed_point": lambda cfg, grow: _with_contraction(run_drs(
        quadratic_fidelity_prox(CONTRACT_OP, CONTRACT_Y),
        RegSlot(denoiser=_scaling_denoiser(grow)), cfg, np.ones(4))),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_contract(name):
    run = DRIVERS[name]
    _, trace = run(SolverConfig(max_iter=5000, tol=1e-10), False)
    assert trace.stop_reason == "tolerance"
    assert len(trace) == trace.last().iter + 1
    assert trace.last().step_residual <= 1e-10
    step = trace.column("step_residual")
    assert math.isnan(step[0])
    assert math.isnan(step[1]) == (name == "red_apg")

    if name == "fixed_point":
        with pytest.raises(SolveError):
            run(SolverConfig(max_iter=3, tol=0.0), False)
    else:
        _, trace = run(SolverConfig(max_iter=3, tol=0.0), False)
        assert trace.stop_reason == "max_iter"
        assert len(trace) == 4

    with pytest.raises(DivergenceError) as exc:
        run(SolverConfig(max_iter=500, tol=0.0), True)
    err = exc.value
    assert err.step >= 1 and len(err.trace) == err.step
    assert err.trace.stop_reason == "diverged"
    assert np.all(np.isfinite(err.last))


def _assert_read_only_array(x):
    assert type(x) is np.ndarray and x.dtype == np.float64
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_point_and_diverged_state_are_read_only_arrays(name):
    x, _ = DRIVERS[name](SolverConfig(max_iter=5000, tol=1e-10), False)
    _assert_read_only_array(x)
    with pytest.raises(DivergenceError) as exc:
        DRIVERS[name](SolverConfig(max_iter=500, tol=0.0), True)
    _assert_read_only_array(exc.value.last)


# Each driver that takes a start point, started from x0 with a zero prior
_FROM_X0 = {
    "pgd": lambda cfg, x0: run_pgd(_fid(), zero_prox(), cfg, x0),
    "apgd": lambda cfg, x0: run_apgd(_fid(), zero_prox(), cfg, x0),
    "drs": lambda cfg, x0: run_drs(zero_prox(),
                                   quadratic_fidelity_prox(CONTRACT_OP, CONTRACT_Y), cfg, x0),
    "admm": lambda cfg, x0: run_admm(CONTRACT_OP, CONTRACT_Y, zero_prox(), cfg, x0=x0),
    "hqs": lambda cfg, x0: run_hqs(CONTRACT_OP, CONTRACT_Y, zero_prox(), cfg, x0=x0),
    "red_gd": lambda cfg, x0: run_red_gd(CONTRACT_OP, CONTRACT_Y, identity_denoiser(),
                                         lam=1.0, sigma=1.0, cfg=cfg, x0=x0),
    "red_pg": lambda cfg, x0: run_red_pg(CONTRACT_OP, CONTRACT_Y, identity_denoiser(),
                                         lam=1.0, L=2.0, cfg=cfg, x0=x0),
    "red_apg": lambda cfg, x0: run_red_apg(CONTRACT_OP, CONTRACT_Y, identity_denoiser(),
                                           lam=1.0, L=2.0, cfg=cfg, x0=x0),
}


@pytest.mark.parametrize("name", sorted(_FROM_X0))
def test_driver_point_does_not_alias_x0(name):
    x0 = np.ones(4)
    x, _ = _FROM_X0[name](SolverConfig(max_iter=1, tol=0.0), x0)
    _assert_read_only_array(x)
    assert not np.shares_memory(x, x0)
    x0[0] = 2.0  # the caller's start stays its own, and writable


def _failing_denoiser(fail_at):
    calls = {"n": 0}

    def fn(arr, s):
        calls["n"] += 1
        return 0.5 * arr if calls["n"] < fail_at else np.full_like(arr, np.inf)

    return Denoiser(fn, tag="fails")


class TestDivergenceContext:
    def test_denoiser_error_carries_step_last_and_trace(self):
        cfg = SolverConfig(max_iter=10, tol=0.0)
        with pytest.raises(DivergenceError) as exc:
            run_pgd(_fid(), RegSlot(denoiser=_failing_denoiser(3)), cfg, np.ones(4))
        err = exc.value
        assert err.step == 3 and len(err.trace) == 3
        assert err.trace.stop_reason == "diverged"
        two_steps, _ = run_pgd(_fid(), RegSlot(denoiser=_failing_denoiser(99)),
                               SolverConfig(max_iter=2, tol=0.0), np.ones(4))
        np.testing.assert_array_equal(err.last, two_steps)

    def test_red_apg_error_carries_last_state_when_denoiser_fails(self):
        # calls: row 0, then one per step; the 4th call (step 3) fails
        cfg = SolverConfig(max_iter=10, tol=0.0)
        with pytest.raises(DivergenceError) as exc:
            run_red_apg(CONTRACT_OP, CONTRACT_Y, _failing_denoiser(4), lam=1.0, L=2.0, cfg=cfg)
        err = exc.value
        assert err.trace.stop_reason == "diverged"
        assert err.step == 3 and len(err.trace) == 3
        x2, _ = run_red_apg(CONTRACT_OP, CONTRACT_Y, _failing_denoiser(99), lam=1.0, L=2.0,
                            cfg=SolverConfig(max_iter=2, tol=0.0))
        np.testing.assert_array_equal(err.last, x2)

    @pytest.mark.parametrize("driver", [
        lambda den, x0: run_red_gd(CONTRACT_OP, CONTRACT_Y, den, lam=1.0, sigma=1.0,
                                   cfg=SolverConfig(max_iter=10, tol=0.0), x0=x0),
        lambda den, x0: run_red_apg(CONTRACT_OP, CONTRACT_Y, den, lam=1.0, L=2.0,
                                    cfg=SolverConfig(max_iter=10, tol=0.0), x0=x0),
    ], ids=["red_gd", "red_apg"])
    def test_row_0_failure_carries_step_0_and_the_start(self, driver):
        # row 0 traces the stationarity norm, so the first denoiser call is row 0's
        x0 = np.linspace(0.5, 2.0, 4)
        with pytest.raises(DivergenceError) as exc:
            driver(_failing_denoiser(1), x0)
        err = exc.value
        assert err.step == 0
        np.testing.assert_array_equal(err.last, x0)
        assert len(err.trace) == 0 and err.trace.stop_reason == "diverged"


@pytest.mark.filterwarnings("error")
def test_large_finite_state_diverges_without_overflow_warning():
    # the state stays finite, but its norm overflows to inf
    huge = Denoiser(lambda arr, s: 1e200 * arr, tag="huge")
    with pytest.raises(DivergenceError) as exc:
        run_pgd(_fid(), RegSlot(denoiser=huge), SolverConfig(max_iter=5, tol=0.0), np.ones(4))
    assert exc.value.step == 1


class TestNonFiniteStart:
    def test_hqs_rejects_non_finite_back_projection(self):
        from pnpkit import tv_denoiser

        y = np.full((8, 8), 0.5)
        y[4, 4] = np.nan
        slot = RegSlot(denoiser=tv_denoiser(), sigma=0.2)
        with pytest.raises(ValueError, match="start point"):
            run_hqs(identity_op((8, 8)), y, slot, SolverConfig(rho=1.0, max_iter=5, tol=0.0))

    def test_pgd_rejects_non_finite_x0(self):
        x0 = np.ones(4)
        x0[1] = np.inf
        with pytest.raises(ValueError, match="start point"):
            run_pgd(_fid(), RegSlot(prox=zero_prox()), SolverConfig(), x0)
