"""Acceptance suite: one test per verification criterion.

Each test prints a single PASS line (with the measured quantity and
runtime) once its assertions hold; run with ``pytest -s`` to see them live.
"""

import json
import time

import numpy as np
import pytest

from pnpkit import (
    DenseOp,
    DiagonalOp,
    GmmPrior,
    Rng,
    RegSlot,
    SmoothFn,
    SolverConfig,
    UlaConfig,
    adjoint_defect,
    box_prox,
    compose,
    contraction_factor,
    effective_sample_size,
    estimate_residual_lipschitz,
    gaussian_filter_denoiser,
    gaussian_posterior_oracle,
    gaussian_smoother,
    gs_denoiser,
    l1_prox,
    linear_spectral_denoiser,
    make_blur,
    make_mask,
    mmse_gmm_denoiser,
    moreau_check,
    quadratic_fidelity_prox,
    quadratic_prox,
    run_admm,
    run_apgd,
    run_drs,
    run_hqs,
    run_pgd,
    run_pnp_ula,
    run_red_gd,
    run_red_pg,
    solve_shifted_normal,
    tv_conj_prox,
    tv_prox,
    tweedie_check,
)
from pnpkit.cli import builtin_image, main


class _Budget:
    def __init__(self, limit_s):
        self.limit = limit_s
        self.t0 = time.perf_counter()

    def done(self, label, detail):
        elapsed = time.perf_counter() - self.t0
        print(f"ACCEPTANCE {label}: PASS  {detail}  [{elapsed:.2f}s / {self.limit:.0f}s]")
        assert elapsed < self.limit, f"{label} exceeded its {self.limit}s budget"


def deblur_instance(size=64, seed=0, noise=0.03):
    x_true = builtin_image("shapes", size)
    op = make_blur(np.full((9, 9), 1.0 / 81.0), (size, size))
    rng = Rng(seed)
    y = op._apply(x_true) + noise * rng.child(100).standard_normal((size, size))
    return x_true, op, y


def lasso_instance():
    rng = Rng(2024)
    k_mat = rng.standard_normal((5, 5))
    y = rng.standard_normal(5)
    return DenseOp(k_mat), y, 0.2


def test_criterion_01_tweedie_identity():
    budget = _Budget(5.0)
    rng = Rng(101)
    worst = 0.0
    for p in range(5):
        n = int(rng.child(p).integers(1, 9))
        j = int(rng.child(p + 50).integers(1, 6))
        gen = rng.child(p + 100)
        weights = gen.uniform(0.2, 1.0, j)
        weights = weights / weights.sum()
        prior = GmmPrior(weights, gen.standard_normal((j, n)),
                         gen.uniform(0.2, 2.0, j))
        for sigma in (0.1, 1.0, 10.0):
            worst = max(worst, tweedie_check(prior, sigma, 100, gen))
    assert worst <= 1e-8
    budget.done("1 tweedie", f"max defect {worst:.2e} <= 1e-8")


def test_criterion_02_moreau_identity():
    budget = _Budget(10.0)
    rng = Rng(7)
    worst_closed = 0.0
    for _ in range(1000):
        v = 3.0 * rng.standard_normal(12)
        worst_closed = max(worst_closed, moreau_check(l1_prox(1.0), box_prox(-1.0, 1.0), v))
        worst_closed = max(worst_closed,
                           moreau_check(quadratic_prox(0.0, 1.0), quadratic_prox(0.0, 1.0), v))
    assert worst_closed <= 1e-10

    worst_tv = 0.0
    p = tv_prox(0.3, tol=1e-13)
    p_conj = tv_conj_prox(0.3, tol=1e-13)
    for shape in ((16,), (4, 4)):
        for _ in range(16):
            v = rng.standard_normal(shape)
            worst_tv = max(worst_tv, moreau_check(p, p_conj, v))
    assert worst_tv <= 1e-5
    budget.done("2 moreau", f"closed-form defect {worst_closed:.2e} <= 1e-10, "
                            f"TV defect {worst_tv:.2e} <= 1e-5")


def test_criterion_03_pgd_linear_rate():
    budget = _Budget(1.0)
    h = np.array([1.0, 10.0])
    f = SmoothFn(grad=lambda x: h * x,
                 value=lambda x: 0.5 * float(x @ (h * x)))
    slot = RegSlot(prox=l1_prox(1.0))
    step = 0.1

    # coordinate-descent oracle for the minimizer of 0.5 x^T diag(h) x + ||x||_1
    x_star = np.array([1.0, 1.0])
    for _ in range(200):
        for i in range(2):
            c = -0.0 + h[i] * x_star[i] - h[i] * x_star[i]  # separable problem
            x_star[i] = np.sign(c) * max(abs(c) - 1.0, 0.0) / h[i]
    np.testing.assert_allclose(x_star, np.zeros(2), atol=1e-15)

    x = np.array([3.0, 2.0])
    ratios = []
    for k in range(1, 40):
        out, _ = run_pgd(f, slot, SolverConfig(step=step, max_iter=1, tol=0.0), x)
        x_new = out
        d_old = np.linalg.norm(x - x_star)
        d_new = np.linalg.norm(x_new - x_star)
        if k >= 5 and d_old > 1e-13:
            ratios.append(d_new / d_old)
        x = x_new
    assert ratios and max(ratios) <= 0.9 + 0.01
    budget.done("3 pgd-rate", f"max contraction {max(ratios):.4f} <= 0.91 for k >= 5")


def test_criterion_04_drsdiff_contraction():
    budget = _Budget(2.0)
    rng = Rng(11)
    n = 16
    target = rng.standard_normal(n)
    prox_f = quadratic_prox(target, weight=1.0)  # mu = 1
    details = []
    for eps in (0.05, 0.1, 0.2):
        lam = eps / (1.0 - eps)  # spectral family: residual norm lam/(1+lam) = eps
        den = linear_spectral_denoiser((n,), lam, "dct")
        assert den.residual_norm == pytest.approx(eps, abs=1e-12)
        tau = 2.0 * eps / ((1.0 + eps - 2.0 * eps * eps) * 1.0)
        cfg = SolverConfig(step=tau, max_iter=5000, tol=1e-13)
        x1, t1 = run_drs(prox_f, RegSlot(denoiser=den), cfg, np.zeros(n))
        x2, t2 = run_drs(prox_f, RegSlot(denoiser=den), cfg, 5.0 * rng.standard_normal(n))
        f1, f2 = contraction_factor(t1), contraction_factor(t2)
        assert f1 < 1.0 and f2 < 1.0
        gap = float(np.max(np.abs(x1 - x2)))
        assert gap <= 1e-8
        details.append(f"eps={eps}: factor {max(f1, f2):.3f}, init gap {gap:.1e}")
    budget.done("4 drsdiff-contraction", "; ".join(details))


def test_criterion_05_gs_pnp_objective_convergence():
    budget = _Budget(30.0)
    _, op, y = deblur_instance()
    den = gs_denoiser(gaussian_smoother((64, 64), 1.5, floor=0.15), weight=0.7)
    lam = 0.7
    tau = 1.0
    assert tau < 1.0 / (lam * den.grad_lipschitz)
    cfg = SolverConfig(step=tau, max_iter=500, tol=0.0)
    _, trace = run_pgd(SmoothFn.potential(den, lam), quadratic_fidelity_prox(op, y), cfg,
                       op._adjoint(y))
    obj = trace.column("objective")
    diffs = np.diff(obj)
    assert np.all(diffs <= 1e-12)

    r = trace.column("step_residual")[1:]
    mins = np.minimum.accumulate(r)
    k = np.arange(1, r.size + 1)
    scaled = mins * np.sqrt(k)
    bound = 1.2 * scaled[24]
    assert np.all(scaled[24:] <= bound)
    budget.done("5 gs-pnp-objective",
                f"max F increase {diffs.max():.1e} <= 1e-12, "
                f"max min-res*sqrt(k) {scaled[24:].max():.2e} <= 1.2x@k=25 {bound:.2e}")


def test_criterion_06_apgd_lyapunov():
    budget = _Budget(30.0)
    _, op, y = deblur_instance()
    den = gs_denoiser(gaussian_smoother((64, 64), 1.5, floor=0.15))
    alpha, lam = 0.5, 1.0
    lip_f = float(op.spectral_norm) ** 2
    assert lam < 1.0 / (alpha * lip_f)  # stated step bound with a convex potential
    cfg = SolverConfig(step=lam, alpha=alpha, max_iter=500, tol=0.0)
    _, trace = run_apgd(SmoothFn.least_squares(op, y), RegSlot(denoiser=den), cfg,
                        op._adjoint(y))
    obj = trace.column("objective")
    r = trace.column("step_residual")
    coef = (alpha / 2.0) * (1.0 - 1.0 / alpha) ** 2
    lyap = obj[1:] + coef * r[1:] ** 2
    diffs = np.diff(lyap)
    assert np.all(diffs <= 1e-10)
    budget.done("6 apgd-lyapunov", f"max Lyapunov increase {diffs.max():.1e} <= 1e-10")


def test_criterion_07_drs_residual_rate():
    budget = _Budget(5.0)
    op, y, weight = lasso_instance()
    cfg = SolverConfig(step=0.5, max_iter=1000, tol=0.0)
    _, trace = run_drs(quadratic_fidelity_prox(op, y), RegSlot(prox=l1_prox(weight)),
                       cfg, np.zeros(5))
    e2 = trace.column("fp_residual")[1:] ** 2
    k = np.arange(1, e2.size + 1)
    bound = 1.5 * 10.0 * e2[9]
    assert np.all(k[9:] * e2[9:] <= bound)
    budget.done("7 drs-rate", f"max k*e_k^2 {np.max(k[9:] * e2[9:]):.2e} <= {bound:.2e}")


def test_criterion_08_red_fixed_point():
    budget = _Budget(2.0)
    rng = Rng(31)
    n = 6
    k_mat = rng.standard_normal((n, n)) / 2.0
    op = DenseOp(k_mat)
    y = rng.standard_normal(n)
    lam = 0.8
    den = linear_spectral_denoiser((n,), 0.5, "dct")
    a_mat = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        a_mat[:, j] = den.apply(e)
    closed = np.linalg.solve(k_mat.T @ k_mat + lam * (np.eye(n) - a_mat),
                             k_mat.T @ y)

    lip = np.linalg.norm(k_mat, 2) ** 2 + lam
    cfg = SolverConfig(max_iter=100000, tol=1e-15)
    x_gd, tr_gd = run_red_gd(op, y, den, lam=lam, sigma=1.0,
                             cfg=SolverConfig(step=1.0 / lip, max_iter=100000, tol=1e-15))
    x_pg, tr_pg = run_red_pg(op, y, den, lam=lam, L=2.0, cfg=cfg)
    fc_gd = tr_gd.column("fp_residual")[-1]
    fc_pg = tr_pg.column("fp_residual")[-1]
    assert fc_gd <= 1e-8 and fc_pg <= 1e-8
    gap_gd = float(np.max(np.abs(x_gd - closed)))
    gap_pg = float(np.max(np.abs(x_pg - closed)))
    assert gap_gd <= 1e-7 and gap_pg <= 1e-7
    budget.done("8 red-fixed-point",
                f"fc norms {fc_gd:.1e}/{fc_pg:.1e} <= 1e-8, "
                f"closed-form gaps {gap_gd:.1e}/{gap_pg:.1e} <= 1e-7")


def test_criterion_09_pnp_ula_vs_oracle():
    budget = _Budget(60.0)
    n = 16
    gamma, sigma, sigma_w, delta = 1.0, 0.3, 0.5, 1e-3
    diag = np.linspace(1.0, 2.0, n)
    op = DiagonalOp(diag)
    rng = Rng(900)
    x_true = gamma * rng.child(1).standard_normal(n)
    y = diag * x_true + sigma_w * rng.child(2).standard_normal(n)

    prior = GmmPrior([1.0], [np.zeros(n)], [gamma**2])
    den = mmse_gmm_denoiser(prior)
    cfg = UlaConfig(delta=delta, sigma=sigma, sigma_w=sigma_w, kept=100000,
                    burn_in=30000, thin=3, seed=17)
    stats, samples = run_pnp_ula(op, y, den, cfg)
    oracle = gaussian_posterior_oracle(op, y, gamma, sigma, sigma_w)
    oracle_var = oracle.variance

    ess = np.array([effective_sample_size(samples[:, j]) for j in range(n)])
    se = np.sqrt(oracle_var / np.maximum(ess, 1.0))
    allowed = np.maximum(3.0 * se, 2.0 * delta)
    gaps = np.abs(stats.mean - oracle.mean)
    assert np.all(gaps <= allowed)
    var_err = np.abs(stats.variance / oracle_var - 1.0)
    assert np.all(var_err <= 0.10)
    budget.done("9 pnp-ula",
                f"max mean gap {gaps.max():.4f} (allowed {allowed.max():.4f}), "
                f"max var err {var_err.max():.2%} <= 10%")


def test_criterion_10_convergent_regularization_sweep(tmp_path):
    budget = _Budget(5.0)
    out = tmp_path / "sweep"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"task": "sweep", "seed": 0, "output": str(out)}))
    assert main(["sweep", "--config", str(cfg_path), "--assert"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    errors = [float(r.split(",")[2]) for r in rows]
    assert len(errors) == 8
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 0.05 * errors[0]
    budget.done("10 sweep", f"errors strictly decreasing, final/initial "
                            f"{errors[-1] / errors[0]:.3f} <= 0.05")


def test_criterion_11_deblurring_protocol(tmp_path):
    budget = _Budget(120.0)
    solve_out = tmp_path / "solve"
    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text(json.dumps({
        "task": "deblur",
        "image": {"builtin": "shapes", "size": 64},
        "operator": {"kind": "blur", "kernel": {"builtin": "uniform", "size": 9}},
        "noise": {"percent": 3.0},
        "denoiser": {"kind": "tv", "c": 1.0},
        "solver": {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.05,
                   "max_iter": 200, "tol": 1e-9},
        "seed": 0,
        "output": str(solve_out),
    }))
    assert main(["solve", "--config", str(solve_cfg)]) == 0
    summary = json.loads((solve_out / "summary.json").read_text())
    gain = summary["final_psnr"] - summary["input_psnr"]
    assert gain >= 2.0
    assert summary["iters"] <= 200

    compare_out = tmp_path / "compare"
    compare_cfg = tmp_path / "compare.json"
    provable = [
        {"algo": "pnp-pgd", "step": 1.0, "max_iter": 400, "tol": 1e-9},
        {"algo": "pnp-drs", "step": 1.0, "max_iter": 400, "tol": 1e-9},
        {"algo": "pnp-drsdiff", "step": 1.0, "max_iter": 400, "tol": 1e-9},
        {"algo": "gs-pnp", "lam": 0.7, "tau": 1.0, "step": 1.0,
         "max_iter": 400, "tol": 1e-9},
        {"algo": "apgd", "step": 1.0, "alpha": 0.5, "max_iter": 400, "tol": 1e-9},
    ]
    compare_cfg.write_text(json.dumps({
        "task": "compare",
        "images": [{"builtin": "shapes", "size": 64}],
        "operator": {"kind": "blur", "kernel": {"builtin": "uniform", "size": 9}},
        "noise": {"percent": 3.0},
        "denoiser": {"kind": "gs", "kernel_sigma": 1.5, "floor": 0.15, "weight": 0.7},
        "solvers": provable,
        "seed": 0,
        "output": str(compare_out),
    }))
    assert main(["compare", "--config", str(compare_cfg)]) == 0
    rows = (compare_out / "compare.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    slopes = {}
    for row in rows:
        solver, _, _, _, slope, converged = row.split(",")
        assert converged == "true"
        slopes[solver] = float(slope)
        assert float(slope) <= -0.5 + 0.15
    # the provable set reaches one common reconstruction family; the HQS
    # decreasing-sigma baseline is merely recorded, with no convergence claim
    hqs_out = tmp_path / "hqs"
    hqs_cfg = tmp_path / "hqs.json"
    hqs_cfg.write_text(json.dumps({
        "task": "compare",
        "images": [{"builtin": "shapes", "size": 64}],
        "operator": {"kind": "blur", "kernel": {"builtin": "uniform", "size": 9}},
        "noise": {"percent": 3.0},
        "denoiser": {"kind": "tv", "c": 1.0},
        "solvers": [
            {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.05, "max_iter": 80,
             "tol": 1e-9},
            {"algo": "hqs", "rho": 1.0, "sigma": 0.2, "max_iter": 80, "tol": 0.0,
             "sigma_schedule": list(np.geomspace(0.2, 0.02, 80))},
        ],
        "seed": 0,
        "output": str(hqs_out),
    }))
    assert main(["compare", "--config", str(hqs_cfg)]) == 0
    hqs_rows = (hqs_out / "compare.csv").read_text().splitlines()[1:]
    assert any(r.startswith("hqs,") for r in hqs_rows)  # recorded, not asserted
    budget.done("11 deblurring",
                f"TV gain {gain:.2f} dB >= 2, provable slopes "
                + ", ".join(f"{k} {v:.2f}" for k, v in slopes.items()))


def test_criterion_12_adjoint_and_consistency_suite():
    budget = _Budget(30.0)
    rng = Rng(55)

    # 12a: every constructed operator passes the adjoint probe test
    kernel = rng.uniform(0, 1, (5, 5))
    kernel /= kernel.sum()
    ops = [
        make_blur(np.full((9, 9), 1.0 / 81.0), (64, 64)),
        make_blur(kernel, (16, 16)),
        make_mask(rng.uniform(0, 1, (16, 16)) > 0.5),
        DenseOp(rng.standard_normal((12, 20))),
        DiagonalOp(rng.standard_normal(30)),
        compose(DenseOp(rng.standard_normal((6, 8))), DenseOp(rng.standard_normal((8, 10)))),
        gaussian_smoother((16, 16), 1.5, floor=0.1),
    ]
    worst_adjoint = max(adjoint_defect(op, rng.child(i), probes=100)
                        for i, op in enumerate(ops))
    assert worst_adjoint <= 1e-10

    # 12b: exact-prox slots reproduce the classical iterations bit-for-bit
    op, y, weight = lasso_instance()
    kty = op._adjoint(y)

    step = 0.05
    x_lib, _ = run_pgd(SmoothFn.least_squares(op, y), RegSlot(prox=l1_prox(weight)),
                       SolverConfig(step=step, max_iter=50, tol=0.0), np.zeros(5))
    z = np.zeros(5)
    for _ in range(50):
        v = z - step * op._adjoint(op._apply(z) - y)
        z = np.sign(v) * np.maximum(np.abs(v) - (step * 1.0) * weight, 0.0)
    assert np.array_equal(x_lib, z)

    alpha = 0.7
    x_lib, _ = run_apgd(SmoothFn.least_squares(op, y), RegSlot(prox=l1_prox(weight)),
                        SolverConfig(step=step, alpha=alpha, max_iter=40, tol=0.0),
                        np.zeros(5))
    xk = np.zeros(5)
    yk = np.zeros(5)
    for _ in range(40):
        q = (1.0 - alpha) * xk + alpha * yk
        v = yk - step * op._adjoint(op._apply(q) - y)
        yk = np.sign(v) * np.maximum(np.abs(v) - (step * 1.0) * weight, 0.0)
        xk = (1.0 - alpha) * xk + alpha * yk
    assert np.array_equal(x_lib, xk)

    lam = 0.8
    out, _ = run_drs(quadratic_fidelity_prox(op, y), RegSlot(prox=l1_prox(weight)),
                     SolverConfig(step=lam, max_iter=60, tol=0.0), np.zeros(5))
    x = np.zeros(5)
    fidelity = quadratic_fidelity_prox(op, y)
    for _ in range(60):
        yk = np.asarray(fidelity.evaluate(x, lam * 1.0))
        v = 2.0 * yk - x
        zk = np.sign(v) * np.maximum(np.abs(v) - (lam * 1.0) * weight, 0.0)
        x = x + zk - yk
    assert np.array_equal(out, yk)

    rho = 1.5
    out, _ = run_admm(op, y, RegSlot(prox=l1_prox(weight)),
                      SolverConfig(rho=rho, max_iter=70, tol=0.0))
    x = kty.copy()
    zz = x.copy()
    u = np.zeros(5)
    for _ in range(70):
        x = np.asarray(solve_shifted_normal(op, rho, kty + rho * (zz - u)))
        v = x + u
        zz = np.sign(v) * np.maximum(np.abs(v) - ((1.0 / rho) * 1.0) * weight, 0.0)
        u = u + x - zz
    assert np.array_equal(out, x)

    rho = 1.1
    out, _ = run_hqs(op, y, RegSlot(prox=l1_prox(weight)),
                     SolverConfig(rho=rho, max_iter=40, tol=0.0))
    zz = kty.copy()
    for _ in range(40):
        x = np.asarray(fidelity.evaluate(zz, 1.0 / rho))
        zz = np.sign(x) * np.maximum(np.abs(x) - ((1.0 / rho) * 1.0) * weight, 0.0)
    assert np.array_equal(out, zz)

    # 12c: the residual-Lipschitz estimator matches SVD on linear denoisers
    worst_rel = 0.0
    profile = 1.0 + rng.uniform(0.0, 2.0, (8,))
    den = linear_spectral_denoiser((8,), 0.4, "dct", profile=profile)
    mat = np.empty((8, 8))
    for j in range(8):
        e = np.zeros(8)
        e[j] = 1.0
        mat[:, j] = den.apply(e)
    exact = np.linalg.svd(mat - np.eye(8), compute_uv=False)[0]
    est = estimate_residual_lipschitz(den, 0.0, (8,), probes=1, rng=rng.child(70))
    worst_rel = max(worst_rel, abs(est - exact) / exact)

    gauss = gaussian_filter_denoiser(1.0, radius=2)
    gmat = np.empty((64, 64))
    for j in range(64):
        e = np.zeros(64)
        e[j] = 1.0
        gmat[:, j] = gauss.apply(e.reshape(8, 8)).reshape(-1)
    exact = np.linalg.svd(gmat - np.eye(64), compute_uv=False)[0]
    est = estimate_residual_lipschitz(gauss, 0.0, (8, 8), probes=1, rng=rng.child(71))
    worst_rel = max(worst_rel, abs(est - exact) / exact)
    assert worst_rel <= 1e-3

    budget.done("12 adjoint-consistency",
                f"adjoint defect {worst_adjoint:.1e} <= 1e-10, prox-slot runs "
                f"bit-identical, lipschitz-vs-SVD rel err {worst_rel:.1e} <= 1e-3")
