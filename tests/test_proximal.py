import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpkit import (
    DiagonalOp,
    DivergenceError,
    Rng,
    ShapeError,
    SolveError,
    box_prox,
    haar_inverse,
    haar_transform,
    identity_op,
    l1_prox,
    make_blur,
    moreau_check,
    prox_tv,
    quadratic_fidelity_prox,
    quadratic_prox,
    tv_conj_prox,
    tv_denoiser,
    tv_prox,
    tv_value,
    wavelet_l1_prox,
    zero_prox,
)
from pnpkit import proximal
from pnpkit.cli import builtin_image
from pnpkit.core import run_state, scoped_run
from pnpkit.operators import as_dense
from pnpkit.proximal import _TV_MAX_ITER, _grad, _tv_dual_solve, _warm_dual


class TestSoftThreshold:
    def test_shrinks_above_threshold(self):
        assert l1_prox(0.5).evaluate(np.array([1.5]), 1.0)[0] == pytest.approx(1.0)

    def test_kills_below_threshold(self):
        assert l1_prox(0.5).evaluate(np.array([-0.3]), 1.0)[0] == 0.0

    def test_tau_zero_identity(self, rng):
        v = rng.standard_normal(20)
        np.testing.assert_array_equal(l1_prox(0.0).evaluate(v, 1.0), v)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            l1_prox(-1.0).evaluate(np.zeros(2), 1.0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           st.floats(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_componentwise_formula(self, values, tau):
        v = np.array(values)
        out = l1_prox(tau).evaluate(v, 1.0)
        expected = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
        np.testing.assert_array_equal(out, expected)


class TestHaar:
    def test_energy_preserved(self, rng):
        v = rng.standard_normal(16)
        c = haar_transform(v, 2)
        assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_inverse(self, rng):
        v = rng.standard_normal((8, 8))
        c = haar_transform(v, 3)
        np.testing.assert_allclose(haar_inverse(c, 3), v, atol=1e-12)

    def test_shape_divisibility(self):
        with pytest.raises(ShapeError):
            haar_transform(np.zeros(6), 2)

    def _dense_haar_matrix(self, n, levels):
        mat = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            mat[:, j] = haar_transform(e, levels)
        return mat

    def test_matrix_is_orthonormal(self):
        mat = self._dense_haar_matrix(8, 3)
        np.testing.assert_allclose(mat.T @ mat, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("shape,levels", [((8, 16), 3), ((16, 4), 2)])
    def test_rectangular_round_trip(self, rng, shape, levels):
        v = rng.standard_normal(shape)
        np.testing.assert_allclose(haar_inverse(haar_transform(v, levels), levels), v,
                                   atol=1e-12)
        np.testing.assert_allclose(haar_transform(haar_inverse(v, levels), levels), v,
                                   atol=1e-12)

    @pytest.mark.parametrize("shape,levels", [((8, 16), 3), ((16, 4), 2)])
    def test_rectangular_matrix_is_orthonormal(self, shape, levels):
        n = int(np.prod(shape))
        mat = np.column_stack([haar_transform(e.reshape(shape), levels).reshape(-1)
                               for e in np.eye(n)])
        np.testing.assert_allclose(mat.T @ mat, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(mat @ mat.T, np.eye(n), atol=1e-12)

    def test_prox_matches_dense_matrix_oracle(self, rng):
        # explicit W: prox = W^T soft(W v)
        v = rng.standard_normal(8)
        tau = 0.3
        mat = self._dense_haar_matrix(8, 2)
        coeffs = mat @ v
        shrunk = np.sign(coeffs) * np.maximum(np.abs(coeffs) - tau, 0.0)
        oracle = mat.T @ shrunk
        assert np.max(np.abs(wavelet_l1_prox(tau, levels=2).evaluate(v, 1.0) - oracle)) <= 1e-12

    def test_tau_zero_identity(self, rng):
        v = rng.standard_normal((4, 4))
        np.testing.assert_allclose(wavelet_l1_prox(0.0, levels=1).evaluate(v, 1.0), v, atol=1e-13)

    def test_constant_signal_only_coarse_shrinks(self):
        v = np.full(8, 1.0)
        out = wavelet_l1_prox(0.1, levels=3).evaluate(v, 1.0)
        # detail coefficients are zero, so the output stays constant
        assert np.max(out) - np.min(out) <= 1e-12
        assert np.all(out < 1.0)


class TestProxTv:
    def test_lambda_zero_identity(self, rng):
        v = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(prox_tv(v, 0.0), v)

    def test_two_point_analytic(self):
        # argmin (t-1)^2 + 2*lam*|t| over antisymmetric pairs: t = 1 - lam
        out = prox_tv(np.array([1.0, -1.0]), 0.5, tol=1e-14)
        np.testing.assert_allclose(out, [0.5, -0.5], atol=1e-6)

    def test_two_point_saturation(self):
        for lam in (1.0, 1.7):
            out = prox_tv(np.array([1.0, -1.0]), lam, tol=1e-14)
            np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-6)

    def test_max_iter_error_carries_gap(self, rng):
        v = 10.0 * rng.standard_normal((16, 16))
        with pytest.raises(SolveError) as exc:
            prox_tv(v, 5.0, tol=1e-16, max_iter=3)
        assert exc.value.residual is not None and exc.value.residual > 0

    def test_gap_certificate_via_perturbation(self, rng):
        v = rng.standard_normal((6, 6))
        lam = 0.4
        x = prox_tv(v, lam, tol=1e-13)

        def primal(z):
            return 0.5 * np.sum((z - v) ** 2) + lam * tv_value(z)

        base = primal(x)
        for _ in range(64):
            z = x + 1e-3 * rng.standard_normal((6, 6))
            assert primal(z) >= base - 1e-12

    def test_nonexpansive_1d(self, rng):
        for _ in range(150):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            pu = prox_tv(u, 0.3, tol=1e-14)
            pv = prox_tv(v, 0.3, tol=1e-14)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-5

    def test_constant_is_fixed_point(self):
        v = np.full((4, 4), 0.7)
        np.testing.assert_allclose(prox_tv(v, 0.5, tol=1e-14), v, atol=1e-7)


class TestProxQuadraticFidelity:
    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
    def test_nonpositive_lam_rejected(self, lam):
        with pytest.raises(ValueError):
            quadratic_fidelity_prox(identity_op((6,)), np.zeros(6)).evaluate(np.zeros(6), lam)

    def test_zero_operator_returns_v(self, rng):
        v = rng.standard_normal(6)
        out = quadratic_fidelity_prox(DiagonalOp(np.zeros(6)), np.zeros(6)).evaluate(v, 0.8)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_identity_closed_form(self, rng):
        v = rng.standard_normal(6)
        y = rng.standard_normal(6)
        lam = 0.7
        out = quadratic_fidelity_prox(identity_op((6,)), y).evaluate(v, lam)
        np.testing.assert_allclose(out, (v + lam * y) / (1 + lam), atol=1e-12)

    def test_circulant_vs_dense_oracle(self, rng):
        kernel = rng.uniform(0, 1, (3, 3))
        kernel /= kernel.sum()
        op = make_blur(kernel, (5, 5))
        v = rng.standard_normal((5, 5))
        y = rng.standard_normal((5, 5))
        lam = 1.3
        out = quadratic_fidelity_prox(op, y).evaluate(v, lam)
        k_mat = np.array(as_dense(op).matrix)
        oracle = np.linalg.solve(
            np.eye(25) + lam * k_mat.T @ k_mat,
            v.reshape(-1) + lam * k_mat.T @ y.reshape(-1),
        )
        assert np.max(np.abs(out.reshape(-1) - oracle)) <= 1e-9


class TestProxBox:
    def test_inside_unchanged(self):
        v = np.array([0.2, 0.8])
        np.testing.assert_array_equal(box_prox(0.0, 1.0).evaluate(v, 1.0), v)

    def test_clamps(self):
        assert box_prox(0.0, 1.0).evaluate(np.array([2.0]), 1.0)[0] == 1.0

    def test_idempotent(self, rng):
        v = rng.standard_normal(30) * 3
        once = box_prox(-0.5, 0.5).evaluate(v, 1.0)
        np.testing.assert_array_equal(box_prox(-0.5, 0.5).evaluate(once, 1.0), once)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            box_prox(1.0, 0.0).evaluate(np.zeros(2), 1.0)

    def test_infinite_bound_is_nonnegativity_projection(self, rng):
        v = rng.standard_normal(30)
        np.testing.assert_array_equal(box_prox(0.0, np.inf).evaluate(v, 1.0), np.maximum(v, 0.0))


class TestMoreau:
    def test_l1_with_linf_ball(self):
        v = np.array([2.0, -0.4, 0.9])
        assert moreau_check(l1_prox(1.0), box_prox(-1.0, 1.0), v) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_self_conjugate(self, rng):
        v = rng.standard_normal(12)
        assert moreau_check(quadratic_prox(0.0, 1.0), quadratic_prox(0.0, 1.0), v) <= 1e-14

    def test_tv_pair_via_independent_dual_solves(self, rng):
        lam = 0.3
        p = tv_prox(lam, tol=1e-13)
        p_conj = tv_conj_prox(lam, tol=1e-13)
        for shape in ((12,), (4, 4)):
            for _ in range(5):
                v = rng.standard_normal(shape)
                assert moreau_check(p, p_conj, v) <= 1e-5


@pytest.mark.parametrize("make", [lambda: l1_prox(-1.0), lambda: tv_prox(-1.0),
                                  lambda: wavelet_l1_prox(-1.0),
                                  lambda: wavelet_l1_prox(1.0, levels=0),
                                  lambda: box_prox(1.0, 0.0),
                                  lambda: l1_prox(np.nan), lambda: l1_prox(np.inf),
                                  lambda: tv_prox(np.nan), lambda: tv_conj_prox(-1.0),
                                  lambda: tv_conj_prox(np.inf),
                                  lambda: wavelet_l1_prox(np.inf),
                                  lambda: quadratic_prox(0.0, -1.0),
                                  lambda: quadratic_prox(0.0, np.nan),
                                  lambda: quadratic_prox(np.zeros(3), -1.0),
                                  lambda: quadratic_prox(np.zeros(3), np.inf),
                                  lambda: box_prox(np.nan, 1.0), lambda: box_prox(0.0, np.nan)],
                         ids=["l1", "tv", "wavelet", "wavelet-levels", "box", "l1-nan", "l1-inf",
                              "tv-nan", "tv_conj-negative", "tv_conj-inf", "wavelet-inf",
                              "squared_l2-negative", "squared_l2-nan", "quadratic-negative",
                              "quadratic-inf", "box-nan-lo", "box-nan-hi"])
def test_prox_map_rejects_bad_parameters_at_construction(make):
    with pytest.raises(ValueError):
        make()


class TestProxMapProperties:
    def cases(self):
        return [
            (l1_prox(0.7), None),
            (box_prox(0.0, 1.0), None),
            (quadratic_prox(0.0, 2.0), None),
            (wavelet_l1_prox(0.5, levels=2), (8,)),
        ]

    def test_nonexpansive(self, rng):
        for prox, shape in self.cases():
            shape = shape or (10,)
            for _ in range(1000):
                u = rng.standard_normal(shape)
                v = rng.standard_normal(shape)
                pu = prox.evaluate(u, 1.0)
                pv = prox.evaluate(v, 1.0)
                assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-10

    def test_fixed_points_are_minimizers(self):
        # l1: 0 is the unique minimizer and the unique fixed point at any lam
        assert np.all(l1_prox(1.0).evaluate(np.zeros(4), 1.0) == 0.0)
        # box: any interior point is fixed
        v = np.array([0.25, 0.75])
        np.testing.assert_array_equal(box_prox(0.0, 1.0).evaluate(v, 1.0), v)
        # quadratic: origin is fixed
        assert np.all(quadratic_prox(0.0, 1.0).evaluate(np.zeros(3), 2.0) == 0.0)

    def test_variational_inequality(self, rng):
        # prox output beats random perturbations on the prox objective
        for prox, shape in self.cases():
            if prox.objective is None:
                continue
            shape = shape or (10,)
            v = rng.standard_normal(shape)
            lam = 0.8
            x = np.asarray(prox.evaluate(v, lam))

            def total(z):
                return prox.objective(z) + np.sum((z - v) ** 2) / (2 * lam)

            base = total(x)
            for _ in range(64):
                z = x + 1e-3 * rng.standard_normal(shape)
                assert total(z) >= base - 1e-12

    FACTORIES = {
        "l1": lambda: l1_prox(0.7),
        "box": lambda: box_prox(0.0, 1.0),
        "quadratic": lambda: quadratic_prox(0.0, 2.0),
        "zero": zero_prox,
        "tv": lambda: tv_prox(0.5),
        "tv_conj": lambda: tv_conj_prox(0.5),
        "wavelet_l1": lambda: wavelet_l1_prox(0.5, levels=2),
        "quadratic_fidelity": lambda: quadratic_fidelity_prox(DiagonalOp(np.full(8, 0.5)),
                                                              np.ones(8)),
    }

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @pytest.mark.parametrize("lam", [np.ones(8), 0.0, -1.0, math.nan],
                             ids=["array", "zero", "negative", "nan"])
    def test_evaluate_takes_only_a_positive_scalar_lam(self, name, lam, rng):
        prox = self.FACTORIES[name]()
        v = rng.standard_normal(8)
        assert prox.evaluate(v, 0.5).shape == v.shape
        with pytest.raises(ValueError, match="positive scalar"):
            prox.evaluate(v, lam)


def _reference_grad(x):
    grads = []
    for axis in range(x.ndim):
        g = np.zeros_like(x)
        src = [slice(None)] * x.ndim
        dst = [slice(None)] * x.ndim
        src[axis] = slice(1, None)
        dst[axis] = slice(0, -1)
        g[tuple(dst)] = x[tuple(src)] - x[tuple(dst)]
        grads.append(g)
    return grads


def _reference_grad_adjoint(p):
    out = np.zeros_like(p[0])
    for axis, pa in enumerate(p):
        shifted = np.roll(pa, 1, axis=axis)
        lead = [slice(None)] * pa.ndim
        lead[axis] = slice(0, 1)
        shifted[tuple(lead)] = 0.0
        out += shifted - pa
        tail = [slice(None)] * pa.ndim
        tail[axis] = slice(-1, None)
        out[tuple(tail)] += pa[tuple(tail)]
    return out


def _reference_zero_tail(p):
    for axis, pa in enumerate(p):
        tail = [slice(None)] * pa.ndim
        tail[axis] = slice(-1, None)
        pa[tuple(tail)] = 0.0


def _reference_dual_solve(v, lam, tol, max_iter, seed=None, restart=True):
    """The two-stencil FISTA loop: explicit extrapolation q, gap from primal - dual.

    With ``restart`` the momentum resets (q = p, t = 1) whenever the dual
    objective 0.5*||v||^2 - 0.5*||x||^2 falls; without it this is plain FISTA.
    The gap and the restart test run on the kernel's schedule, iterations
    1, 5, 9, ... and ``max_iter``; x_old follows every iteration.  Running
    out of iterations raises SolveError carrying the last gap, as the kernel does.
    """
    step = 1.0 / (4.0 * v.ndim)
    if seed is None:
        p = [np.zeros_like(v) for _ in range(v.ndim)]
    else:
        p = [np.clip(pa, -lam, lam) for pa in seed]
        _reference_zero_tail(p)
    q = [pa.copy() for pa in p]
    t = 1.0
    x_old = v - _reference_grad_adjoint(p)
    gap = math.inf
    for it in range(1, max_iter + 1):
        grad_h = _reference_grad(_reference_grad_adjoint(q) - v)
        p_new = [np.clip(qa - step * ga, -lam, lam) for qa, ga in zip(q, grad_h)]
        _reference_zero_tail(p_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        q = [pn + beta * (pn - po) for pn, po in zip(p_new, p)]
        p = p_new
        t = t_new
        div_p = _reference_grad_adjoint(p)
        x = v - div_p
        if it % 4 == 1 or it == max_iter:
            tv = sum(np.sum(np.abs(g)) for g in _reference_grad(x))
            primal = 0.5 * float(np.sum(div_p**2)) + lam * float(tv)
            dual = float(np.sum(v * div_p)) - 0.5 * float(np.sum(div_p**2))
            gap = primal - dual
            if gap <= tol:
                return x, div_p, it
            d = x - x_old
            if restart and 2.0 * float(np.vdot(d, x)) > float(np.vdot(d, d)):
                q = [pa.copy() for pa in p]
                t = 1.0
        x_old = x
    raise SolveError("reference solve did not converge", residual=gap)


def _piecewise_noisy(ndim):
    rng = np.random.default_rng(3)
    if ndim == 1:
        clean = np.repeat(rng.uniform(0.0, 1.0, 8), 16)
    else:
        clean = builtin_image("shapes", 32)
    return clean + 0.05 * rng.standard_normal(clean.shape)


def _conj_seed(v, seeded):
    """A fresh copy of the dual tv_conj_prox starts from, or None (a cold start).

    The kernel iterates a given dual in place, so each solve takes its own.
    """
    return (0.25 / v.ndim) * _grad(v) if seeded else None


# Flat-stencil edge cases: one row, one column (every entry is a row end),
# the shortest 1-D signal, and a non-square grid.
EDGE_SHAPES = [(1, 7), (7, 1), (2,), (9, 13)]


class TestTvStencil:
    @pytest.mark.parametrize("shape", [(17,), (9, 13), (1, 7), (7, 1), (2,)])
    def test_adjoint_identity(self, rng, shape):
        # The kernel's adjoint pass, read through its in/out dual: a solve from
        # a random p returns at iteration 1 (tol inf) with div_p = grad^T p_final.
        for _ in range(20):
            v = rng.standard_normal(shape)
            p = rng.standard_normal((len(shape),) + shape)
            x, div_p, _, it = _tv_dual_solve(v, 1.0, math.inf, 1, p)
            assert it == 1
            np.testing.assert_allclose(div_p, _reference_grad_adjoint(p), rtol=0.0, atol=1e-12)
            lhs = float(np.sum(_grad(x) * p))
            rhs = float(np.sum(x * div_p))
            assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    def test_matches_reference_stencils(self, rng, shape):
        # a strided x and a Fortran-ordered one read like their C copies
        every_other = (slice(None, None, 2),) * len(shape)
        strided = rng.standard_normal(tuple(2 * n for n in shape))[every_other]
        for x in (strided, np.asfortranarray(strided)):
            np.testing.assert_array_equal(_grad(x), np.stack(_reference_grad(x)))


class TestFusedDualKernel:
    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("lam", [0.0025, 0.04])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_matches_two_stencil_reference(self, ndim, lam, seeded):
        v = _piecewise_noisy(ndim)
        tol = 1e-10 * v.size
        seed = _conj_seed(v, seeded)
        ref_x, ref_div, ref_it = _reference_dual_solve(
            v, lam, tol, 100000, seed=None if seed is None else list(seed))
        x, div_p, gap, it = _tv_dual_solve(v, lam, tol, 100000, seed)
        assert it == ref_it
        assert gap <= tol
        assert np.max(np.abs(x - ref_x)) <= 1e-12
        assert np.max(np.abs(div_p - ref_div)) <= 1e-12

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("lam", [0.0025, 0.04])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_gap_bounds_distance_to_solution(self, ndim, lam, seeded):
        # The primal 0.5*||x - v||^2 + lam*TV(x) is 1-strongly convex, so any
        # x with gap g satisfies 0.5*||x - x*||^2 <= g, whatever produced it.
        v = _piecewise_noisy(ndim)
        tol = 1e-10 * v.size
        x, div_p, gap, _ = _tv_dual_solve(v, lam, tol, 100000, _conj_seed(v, seeded))
        x_star, _, gap_star, _ = _tv_dual_solve(v, lam, 1e-13, 100000, _conj_seed(v, seeded))
        primal = 0.5 * float(np.sum((x - v) ** 2)) + lam * tv_value(x)
        dual = 0.5 * float(np.sum(v**2)) - 0.5 * float(np.sum(x**2))
        assert 0.0 <= gap <= tol and 0.0 <= gap_star <= 1e-13
        assert abs((primal - dual) - gap) <= 1e-10
        np.testing.assert_array_equal(x, v - div_p)
        bound = np.sqrt(2.0 * gap) + np.sqrt(2.0 * gap_star)
        assert np.linalg.norm(x - x_star) <= bound

    # The lams of test_matches_two_stencil_reference.  At much larger lam the
    # two loops, which round differently, can split on a restart test whose d
    # is at rounding level.
    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    @pytest.mark.parametrize("lam", [0.0025, 0.04])
    def test_edge_shapes_match_reference(self, rng, shape, lam):
        v = rng.standard_normal(shape)
        tol = 1e-10 * v.size
        ref_x, ref_div, ref_it = _reference_dual_solve(v, lam, tol, 100000)
        x, div_p, gap, it = _tv_dual_solve(v, lam, tol, 100000)
        assert it == ref_it
        assert gap <= tol
        assert np.max(np.abs(x - ref_x)) <= 1e-12
        assert np.max(np.abs(div_p - ref_div)) <= 1e-12

    def test_non_contiguous_input_gives_the_bits_of_its_c_copy(self, rng):
        v = rng.standard_normal((24, 34))
        for view in (np.asfortranarray(v), v[::2, ::2], np.asfortranarray(v)[1::2, ::3]):
            assert not view.flags.c_contiguous
            copy = np.ascontiguousarray(view)
            x = prox_tv(view, 0.04)
            assert x.tobytes() == prox_tv(copy, 0.04).tobytes()
            conj = tv_conj_prox(0.04)
            assert conj.evaluate(view, 1.0).tobytes() == conj.evaluate(copy, 1.0).tobytes()
            got, want = _tv_dual_solve(view, 0.3, 1e-8, 5000), _tv_dual_solve(copy, 0.3, 1e-8, 5000)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            assert got[2:] == want[2:]

    def test_restart_at_least_halves_iterations(self):
        v = _piecewise_noisy(2)
        tol = 1e-10 * v.size
        _, _, plain_it = _reference_dual_solve(v, 0.04, tol, 100000, restart=False)
        _, _, _, it = _tv_dual_solve(v, 0.04, tol, 100000)
        assert 2 * it <= plain_it

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e150, 1e154])
    def test_near_overflow_input_ends_finite_or_diverges(self, rng, scale):
        # prox_tv(s*v, s*lam) = s*prox_tv(v, lam): the same problem near overflow
        v = scale * rng.standard_normal((16, 16))
        for solve in (prox_tv, lambda v, lam: tv_conj_prox(lam).evaluate(v, 1.0)):
            try:
                out = solve(v, 0.04 * scale)
            except DivergenceError:
                continue
            assert np.all(np.isfinite(out))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e154, 1e300])
    def test_moreau_identity_where_the_energy_overflows(self, rng, scale):
        # both halves rescale by a power of two, so the unit defect carries over
        v = rng.standard_normal((16, 16))
        defect = moreau_check(tv_prox(0.04 * scale), tv_conj_prox(0.04 * scale), scale * v)
        assert defect / scale <= 1e-6

    def test_nan_input_raises_divergence_at_once(self):
        v = np.zeros((16, 16))
        v[3, 5] = np.nan
        with pytest.raises(DivergenceError) as exc:
            prox_tv(v, 0.04)
        assert exc.value.step == 1

    def test_inf_input_raises_divergence(self):
        v = np.linspace(0.0, 1.0, 32)
        v[-1] = np.inf
        with pytest.raises(DivergenceError):
            prox_tv(v, 0.04)
        with pytest.raises(DivergenceError):
            tv_conj_prox(0.04).evaluate(v, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(32,), (8, 8)])
    def test_inf_input_raises_divergence_without_warning(self, shape):
        v = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
        v.flat[-1] = np.inf
        with pytest.raises(DivergenceError):
            prox_tv(v, 0.04)
        with pytest.raises(DivergenceError):
            tv_conj_prox(0.04).evaluate(v, 1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lam_rejected(self, lam):
        v = np.zeros((4, 4))
        with pytest.raises(ValueError):
            prox_tv(v, lam)
        with pytest.raises(ValueError):
            tv_conj_prox(lam).evaluate(v, 1.0)

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 7])
    def test_exhausted_solve_carries_the_gap_of_its_last_iteration(self, rng, max_iter):
        # 2 and 7 are off the check schedule: the gap is taken at max_iter all the
        # same.  It is a difference of O(10) sums, so it agrees to rounding, 1e-12.
        v = rng.standard_normal((16, 16))
        with pytest.raises(SolveError) as exc:
            prox_tv(v, 0.04, tol=0.0, max_iter=max_iter)
        with pytest.raises(SolveError) as ref:
            _reference_dual_solve(v, 0.04, 0.0, max_iter)
        assert abs(exc.value.residual - ref.value.residual) <= 1e-12

    def test_returns_on_a_checked_iteration_or_at_max_iter(self, rng):
        v = rng.standard_normal((16, 16))
        runs = []
        for lam in (0.0025, 0.04, 0.3):
            runs.append((_tv_dual_solve(v, lam, 1e-10 * v.size, 100000)[3], 100000))
            for max_iter in range(1, 13):
                with pytest.raises(SolveError) as exc:
                    _tv_dual_solve(v, lam, 0.0, max_iter)
                # the gap max_iter ends on is a tol that solve meets by max_iter
                it = _tv_dual_solve(v, lam, exc.value.residual, max_iter)[3]
                runs.append((it, max_iter))
        assert all(it % 4 == 1 or it == max_iter for it, max_iter in runs)
        assert any(it % 4 != 1 for it, _ in runs)

    def test_max_iter_zero_raises_with_an_infinite_gap(self, rng):
        # iteration 0 runs the passes on the starting dual and takes no gap
        v = rng.standard_normal((16, 16))
        for p in (None, np.zeros((2, 16, 16))):
            with pytest.raises(SolveError) as exc:
                _tv_dual_solve(v, 0.04, 1e10, 0, p)
            assert exc.value.residual == math.inf

    def test_max_iter_zero_tol_raises_with_gap(self, rng):
        v = rng.standard_normal((16, 16))
        with pytest.raises(SolveError) as exc:
            prox_tv(v, 0.04, tol=0.0, max_iter=25)
        assert exc.value.residual is not None and exc.value.residual > 0


class TestTvCertificateScale:
    # Seeds where the old absolute tolerance 1e-10*n lay below the rounding of
    # the gap: the solve ran out of iterations at one of these scales.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [4, 11])
    @pytest.mark.parametrize("scale", [1e150, 1e152, 1e154, 1e300])
    def test_scaled_input_certifies_the_scaled_solution(self, seed, scale):
        # prox_tv(s*v, s*lam) = s*prox_tv(v, lam); each solve's gap g bounds
        # its distance to the exact prox by sqrt(2g), so two honest
        # certificates put x/s within the sum of those radii of the unit solve.
        # From 1e154 on ||s*v||^2 overflows and prox_tv rescales by a power of
        # two, whose solve still certifies 1e-10*||s*v||^2.
        v = Rng(seed).standard_normal((16, 16))
        energy = float(np.vdot(v, v))
        x = prox_tv(scale * v, 0.04 * scale, max_iter=5000)
        unit = prox_tv(v, 0.04)
        bound = math.sqrt(2e-10 * energy) + math.sqrt(2e-10 * max(v.size, energy))
        assert np.linalg.norm(x / scale - unit) <= bound

    def test_overflowing_energy_with_an_inf_entry_still_raises(self):
        v = np.full((8, 8), 1e160)
        v[2, 3] = np.inf
        with pytest.raises(DivergenceError):
            prox_tv(v, 0.04)
        v[2, 3] = np.nan
        with pytest.raises(DivergenceError) as exc:
            prox_tv(v, 0.04)
        assert exc.value.step == 1

    def test_default_tolerance_is_absolute_on_unit_scale_data(self):
        v = _piecewise_noisy(2)
        assert float(np.vdot(v, v)) < v.size
        tol = 1e-10 * v.size
        np.testing.assert_array_equal(prox_tv(v, 0.04), _tv_dual_solve(v, 0.04, tol, 200000)[0])


class TestTvConjugateDomain:
    @pytest.mark.parametrize("shape", [(), (3, 3, 3)])
    def test_shape_error_like_prox_tv(self, shape):
        v = np.ones(shape)
        for lam in (0.1, 0.0):
            with pytest.raises(ShapeError):
                prox_tv(v, lam)
            with pytest.raises(ShapeError):
                tv_conj_prox(lam).evaluate(v, 1.0)


class TestTvTolerance:
    # No gap meets a NaN or negative tol, so a solve would run every inner
    # iteration for nothing: it is a ValueError at entry and when a map is built.
    @pytest.mark.parametrize("tol", [np.nan, -1e-3, -np.inf])
    def test_nan_or_negative_tol_rejected(self, tol):
        v = np.zeros((8, 8))
        with pytest.raises(ValueError, match="tol"):
            prox_tv(v, 0.1, tol=tol)
        for make in (tv_prox, tv_conj_prox):
            with pytest.raises(ValueError, match="tol"):
                make(1.0, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            tv_denoiser(tol=tol)

    def test_zero_tol_is_legal(self):
        # a constant input has gap 0 at once
        np.testing.assert_array_equal(prox_tv(np.full((8, 8), 0.5), 0.1, tol=0.0), 0.5)
        np.testing.assert_array_equal(tv_prox(1.0, tol=0.0).evaluate(np.full(9, 0.5), 0.1), 0.5)
        np.testing.assert_array_equal(tv_denoiser(tol=0.0).apply(np.full(9, 0.5), 0.3), 0.5)


class TestTvBlock:
    """The kernel's buffers: one block, 64-byte boundaries, fresh outputs."""

    @staticmethod
    def _recorded(monkeypatch):
        made = []

        def aligned_empty(*shapes):
            arrays = real(*shapes)
            made.append(arrays)
            return arrays

        real = proximal._aligned_empty
        monkeypatch.setattr(proximal, "_aligned_empty", aligned_empty)
        return made

    @pytest.mark.parametrize("shape", [(64, 64), (9, 13), (17,), (1, 5)])
    def test_buffers_and_warm_dual_start_on_64_byte_boundaries(self, monkeypatch, rng, shape):
        made = self._recorded(monkeypatch)
        v = rng.standard_normal(shape)
        prox_tv(v, 0.04)
        tv_conj_prox(0.04).evaluate(v, 1.0)
        with scoped_run():
            prox_tv(v, 0.04)
            prox_tv(v, 0.02)
            warm = run_state()[("prox_tv", shape)]
        stack = (len(shape),) + shape
        # cold: v, 8 work buffers and the dual; the conjugate's seeded dual, then 9;
        # the run's dual once, then 9 per solve
        assert [len(arrays) for arrays in made] == [10, 1, 9, 1, 9, 9]
        assert made[3][0] is warm and warm.shape == stack
        assert made[1][0].shape == stack
        for arrays in made:
            for arr in arrays:
                assert arr.ctypes.data % 64 == 0 and arr.flags.c_contiguous
        assert made[0][0].base is made[0][-1].base  # one block per solve

    def test_outputs_share_no_memory(self, rng):
        v, w = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        with scoped_run():
            x, div_p, _, _ = _tv_dual_solve(v, 0.04, 1e-8, 5000, _warm_dual(v))
            outputs = [x, div_p, prox_tv(v, 0.04), prox_tv(w, 0.02),
                       tv_conj_prox(0.04).evaluate(v, 1.0), _warm_dual(v)]
        for i, a in enumerate(outputs):
            for b in outputs[i + 1:]:
                assert not np.shares_memory(a, b)
        # fresh arrays, not views that would keep a solve's whole block alive
        assert all(out.base is None for out in outputs[:5])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (1, 1), (1, 6), (6, 1)])
    def test_degenerate_shapes_solve(self, rng, shape):
        v = rng.standard_normal(shape)
        cold = prox_tv(v, 0.3)
        conj = tv_conj_prox(0.3).evaluate(v, 1.0)
        with scoped_run():
            warm = [prox_tv(v, lam) for lam in (0.3, 0.1)]
        for out in [cold, conj] + warm:
            assert out.shape == shape and np.all(np.isfinite(out))
        assert np.max(np.abs(cold + conj - v), initial=0.0) <= 1e-6
        if v.size:
            ref = _reference_dual_solve(v, 0.3, 1e-10 * v.size, 100000)[0]
            assert np.max(np.abs(cold - ref)) <= 1e-8
        if v.size <= 1:  # no differences: the prox is v itself
            np.testing.assert_array_equal(cold, v)


def _rectangle(side, rows, cols, corner=False):
    """A rows x cols block of ones on a side x side grid of zeros, centred or in a corner."""
    v = np.zeros((side, side))
    top, left = (0, 0) if corner else ((side - rows) // 2, (side - cols) // 2)
    v[top:top + rows, left:left + cols] = 1.0
    return v


def _rectangle_prox(v, lam, edges):
    """The prox of lam*TV of a one-rectangle image while its two levels keep their order.

    The rectangle's level drops by lam*E/area and the background rises by
    lam*E/(N - area), E the grid edges its boundary cuts.
    """
    inside = v == 1.0
    area = int(inside.sum())
    x = np.where(inside, 1.0 - lam * edges / area, lam * edges / (v.size - area))
    assert x[inside][0] > x[~inside][0]
    return x


def _tv_objective(x, v, lam):
    return 0.5 * float(np.sum((x - v) ** 2)) + lam * tv_value(x)


class TestTvExactAnswers:
    """The TV kernel against closed-form proxes of piecewise-constant inputs.

    Anisotropic TV with a Neumann boundary; each closed form holds while no
    two levels merge, and past merging the prox is the constant mean.
    """

    @pytest.mark.parametrize("rows,cols,lam", [(16, 16, 0.5), (16, 16, 1.0), (10, 20, 0.3),
                                               (32, 32, 1.0), (8, 8, 0.5)])
    def test_centred_rectangle(self, rows, cols, lam):
        v = _rectangle(64, rows, cols)
        x = prox_tv(v, lam, tol=1e-13 * v.size)
        assert np.max(np.abs(x - _rectangle_prox(v, lam, 2 * (rows + cols)))) <= 1e-10

    def test_corner_rectangle(self):
        # two of its sides lie on the domain edge, which no difference crosses
        v = _rectangle(64, 20, 12, corner=True)
        x = prox_tv(v, 0.5, tol=1e-13 * v.size)
        assert np.max(np.abs(x - _rectangle_prox(v, 0.5, 20 + 12))) <= 1e-10

    def test_merged_levels_give_the_mean(self):
        v = _rectangle(16, 6, 6)
        x = prox_tv(v, 30.0, tol=1e-13 * v.size)
        assert np.max(np.abs(x - v.mean())) <= 1e-10

    def test_piecewise_constant_1d(self):
        # each segment moves by lam*(e_left + e_right)/length, e the sign of
        # (neighbour level - its level), 0 at a domain end
        v = np.zeros(200)
        v[50:80], v[120:160] = 1.0, 0.6
        lam = 0.1
        moves = {(0, 50): 1 / 50, (50, 80): -2 / 30, (80, 120): 2 / 40, (120, 160): -2 / 40,
                 (160, 200): 1 / 40}
        want = v.copy()
        for (lo, hi), move in moves.items():
            want[lo:hi] += lam * move
        x = prox_tv(v, lam, tol=1e-13 * v.size)
        assert np.max(np.abs(x - want)) <= 1e-10

    def test_warm_gap_bounds_the_objective_and_the_distance(self):
        # F(x) - F* <= gap by weak duality and 0.5*||x - x*||^2 <= gap by strong
        # convexity, for the gap of a run's solve from its warm dual
        v, lam = _rectangle(64, 16, 16), 0.5
        x_star = _rectangle_prox(v, lam, 64)
        f_star = _tv_objective(x_star, v, lam)
        default = 1e-10 * v.size
        for tol in (default, 1e4 * default):
            with scoped_run():
                prox_tv(v, 1.0)  # leaves a warm dual for the grid
                warm = _warm_dual(v).copy()
                assert np.any(warm)
                x_run = prox_tv(v, lam, tol=tol)
            x, _, gap, _ = _tv_dual_solve(v, lam, tol, _TV_MAX_ITER, warm)
            assert x.tobytes() == x_run.tobytes()
            assert 0.0 <= gap <= tol
            assert _tv_objective(x, v, lam) - f_star <= gap + 1e-12 * f_star
            assert 0.5 * float(np.sum((x - x_star) ** 2)) <= gap
