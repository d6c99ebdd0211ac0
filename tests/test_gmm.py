import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from pnpkit import (
    GmmPrior,
    Rng,
    load_gmm_prior,
    posterior_mean,
    smoothed_logpdf,
    smoothed_score,
    tweedie_check,
)
from pnpkit.gmm import _logsumexp


def quad_smoothed_pdf(prior, z, sigma):
    """Numerical integration of the 1-D noisy marginal, the independent oracle."""

    def clean_pdf(x):
        total = 0.0
        for w, m, v in zip(prior.weights, prior.means[:, 0], prior.variances):
            total += w * math.exp(-((x - m) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)
        return total

    def integrand(x):
        cond = math.exp(-((z - x) ** 2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
        return cond * clean_pdf(x)

    val, _ = quad(integrand, -40, 40, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def quad_posterior_mean(prior, z, sigma):
    def clean_pdf(x):
        total = 0.0
        for w, m, v in zip(prior.weights, prior.means[:, 0], prior.variances):
            total += w * math.exp(-((x - m) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)
        return total

    def cond(x):
        return math.exp(-((z - x) ** 2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)

    num, _ = quad(lambda x: x * cond(x) * clean_pdf(x), -40, 40,
                  epsabs=1e-13, epsrel=1e-13, limit=400)
    den, _ = quad(lambda x: cond(x) * clean_pdf(x), -40, 40,
                  epsabs=1e-13, epsrel=1e-13, limit=400)
    return num / den


@pytest.fixture
def two_component():
    return GmmPrior([0.4, 0.6], [[-1.5], [2.0]], [0.5, 1.3])


class TestPriorValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmPrior([0.5, 0.6], [[0.0], [1.0]], [1.0, 1.0])

    def test_weights_positive(self):
        with pytest.raises(ValueError):
            GmmPrior([1.2, -0.2], [[0.0], [1.0]], [1.0, 1.0])

    def test_variances_positive(self):
        with pytest.raises(ValueError):
            GmmPrior([1.0], [[0.0]], [0.0])

    @pytest.mark.parametrize("weights,means,variances", [
        ([math.nan], [[0.0]], [1.0]),
        ([1.0], [[math.nan]], [1.0]),
        ([1.0], [[0.0]], [math.nan]),
        ([1.0], [[0.0]], [math.inf]),
    ])
    def test_non_finite_entries_rejected(self, weights, means, variances):
        with pytest.raises(ValueError, match="finite"):
            GmmPrior(weights, means, variances)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            GmmPrior([1.0], [np.zeros(65)], [1.0])

    def test_caller_arrays_are_copied(self):
        w = np.array([0.4, 0.6])
        m = np.array([[-1.5, 0.0], [2.0, 1.0]])
        v = np.array([0.5, 1.3])
        prior = GmmPrior(w, m, v)
        x = np.array([0.3, -0.2])
        before = posterior_mean(prior, x, 0.7)
        assert w.flags.writeable and m.flags.writeable and v.flags.writeable
        w[0], m[0, 0], v[0] = 0.9, 5.0, 2.0
        np.testing.assert_array_equal(prior.weights, [0.4, 0.6])
        np.testing.assert_array_equal(prior.means, [[-1.5, 0.0], [2.0, 1.0]])
        np.testing.assert_array_equal(prior.variances, [0.5, 1.3])
        np.testing.assert_array_equal(posterior_mean(prior, x, 0.7), before)

    def test_json_roundtrip(self, tmp_path):
        doc = {"weights": [0.3, 0.7], "means": [[0.0, 1.0], [2.0, -1.0]],
               "variances": [0.5, 1.5]}
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(doc))
        prior = load_gmm_prior(path)
        assert prior.dim == 2
        np.testing.assert_allclose(prior.weights, [0.3, 0.7])

    def test_json_rejects_extra_keys(self, tmp_path):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps({"weights": [1.0], "means": [[0.0]],
                                    "variances": [1.0], "extra": 1}))
        with pytest.raises(ValueError):
            load_gmm_prior(path)


class TestSmoothedLogpdf:
    def test_standard_normal_at_zero(self):
        prior = GmmPrior([1.0], [[0.0]], [1.0])
        assert smoothed_logpdf(prior, [0.0], 0.0) == pytest.approx(
            math.log(1.0 / math.sqrt(2 * math.pi)), abs=1e-14
        )

    def test_variance_addition(self):
        # N(0,1) smoothed by sigma=1 is N(0,2)
        prior = GmmPrior([1.0], [[0.0]], [1.0])
        expected = -0.5 * math.log(2 * math.pi * 2.0)
        assert smoothed_logpdf(prior, [0.0], 1.0) == pytest.approx(expected, abs=1e-14)

    def test_vs_quadrature_oracle(self, two_component):
        for z in (-2.0, 0.3, 2.5):
            for sigma in (0.4, 1.0):
                ours = smoothed_logpdf(two_component, [z], sigma)
                oracle = math.log(quad_smoothed_pdf(two_component, z, sigma))
                assert abs(ours - oracle) <= 1e-10

    def test_negative_sigma_rejected(self, two_component):
        with pytest.raises(ValueError):
            smoothed_logpdf(two_component, [0.0], -1.0)


class TestSmoothedScore:
    def test_single_gaussian_closed_form(self):
        prior = GmmPrior([1.0], [[0.0, 0.0]], [0.7])
        x = np.array([1.5, -2.0])
        sigma = 0.9
        expected = -x / (0.7 + sigma**2)
        np.testing.assert_allclose(smoothed_score(prior, x, sigma), expected, atol=1e-13)

    def test_vs_finite_differences(self, two_component):
        x = np.array([0.8])
        sigma = 0.6
        score = smoothed_score(two_component, x, sigma)[0]
        h = 1e-6
        fd = (smoothed_logpdf(two_component, x + h, sigma)
              - smoothed_logpdf(two_component, x - h, sigma)) / (2 * h)
        assert abs(score - fd) <= 1e-6 * max(abs(fd), 1.0)

    def test_symmetric_mixture_midpoint(self):
        prior = GmmPrior([0.5, 0.5], [[-1.0], [1.0]], [0.4, 0.4])
        assert abs(smoothed_score(prior, [0.0], 0.5)[0]) <= 1e-14

    def test_sigma_zero_is_the_mixture_score(self, two_component):
        # sum_j r_j (mu_j - x) / v_j, r_j proportional to w_j N(x; mu_j, v_j)
        x = 0.3
        dens = [w * math.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
                for w, m, v in ((0.4, -1.5, 0.5), (0.6, 2.0, 1.3))]
        expected = (dens[0] * (-1.5 - x) / 0.5 + dens[1] * (2.0 - x) / 1.3) / sum(dens)
        assert smoothed_score(two_component, [x], 0.0)[0] == pytest.approx(expected, rel=1e-14)


class TestPosteriorMean:
    def test_single_component_shrinkage(self):
        # gamma^2 x / (gamma^2 + sigma^2) with gamma = sigma = 1 halves the input
        prior = GmmPrior([1.0], [[0.0, 0.0]], [1.0])
        out = posterior_mean(prior, np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-14)

    def test_sigma_zero_identity(self, two_component):
        x = np.array([0.123])
        np.testing.assert_array_equal(posterior_mean(two_component, x, 0.0), x)

    def test_large_sigma_approaches_prior_mean(self, two_component):
        out = posterior_mean(two_component, np.array([5.0]), 1e6)
        assert out[0] == pytest.approx(float(two_component.mean[0]), abs=1e-6)

    def test_vs_quadrature_oracle(self, two_component):
        for z in (-1.0, 0.5, 3.0):
            ours = posterior_mean(two_component, [z], 0.8)[0]
            oracle = quad_posterior_mean(two_component, z, 0.8)
            assert abs(ours - oracle) <= 1e-8


class TestTweedie:
    def test_single_gaussian_exact(self):
        prior = GmmPrior([1.0], [[0.0, 0.0, 0.0]], [2.0])
        assert tweedie_check(prior, 1.0, 50, Rng(0)) <= 1e-12

    def test_three_component_2d(self):
        prior = GmmPrior([0.2, 0.5, 0.3], [[0.0, 0.0], [1.0, -1.0], [-2.0, 0.5]],
                         [0.3, 1.0, 2.0])
        assert tweedie_check(prior, 0.7, 100, Rng(1)) <= 1e-8

    def test_heavy_smoothing(self):
        prior = GmmPrior([0.5, 0.5], [[-1.0], [1.0]], [0.4, 0.9])
        assert tweedie_check(prior, 10.0, 100, Rng(2)) <= 1e-8

    def test_small_sigma_denoiser_near_identity_at_modes(self):
        prior = GmmPrior([0.5, 0.5], [[-1.0], [1.0]], [0.2, 0.2])
        sigma = 1e-4
        rng = Rng(3)
        for _ in range(20):
            mode = prior.means[rng.choice(2, p=prior.weights)]
            x = mode + 0.05 * rng.standard_normal(1)
            out = posterior_mean(prior, x, sigma)
            assert np.max(np.abs(out - x)) <= 1e-3


def old_logpdfs(prior, x, sigma):
    """The per-point formulas the constants replaced, kept as the reference."""
    s = prior.variances + sigma * sigma
    diff2 = np.sum((x[None, :] - prior.means) ** 2, axis=1)
    return np.log(prior.weights) - 0.5 * prior.dim * np.log(2.0 * math.pi * s) - diff2 / (2.0 * s)


def old_responsibilities(prior, x, sigma):
    logs = old_logpdfs(prior, x, sigma)
    w = np.exp(logs - logs.max())
    return w / w.sum()


def old_score(prior, x, sigma):
    s = prior.variances + sigma * sigma
    return (old_responsibilities(prior, x, sigma) / s) @ (prior.means - x[None, :])


def old_posterior_mean(prior, x, sigma):
    s = prior.variances + sigma * sigma
    comp_means = (prior.variances[:, None] * x[None, :] + sigma * sigma * prior.means) / s[:, None]
    return old_responsibilities(prior, x, sigma) @ comp_means


PRIORS = {
    1: GmmPrior([1.0], [[0.5, -1.0, 2.0, 0.0]], [0.7]),
    3: GmmPrior([0.2, 0.5, 0.3],
                [[0.0, 0.0, 1.0, -1.0], [1.0, -1.0, 0.5, 0.5], [-2.0, 0.5, 0.0, 1.5]],
                [0.3, 1.0, 2.0]),
}


class TestBatchAndConstants:
    @pytest.mark.parametrize("j", [1, 3])
    def test_batch_rows_equal_single_calls(self, j):
        prior = PRIORS[j]
        batch = 1.5 * Rng(4).standard_normal((7, prior.dim))
        for sigma in (0.3, 1.1):
            lp = smoothed_logpdf(prior, batch, sigma)
            sc = smoothed_score(prior, batch, sigma)
            pm = posterior_mean(prior, batch, sigma)
            assert lp.shape == (7,) and sc.shape == pm.shape == batch.shape
            for c, row in enumerate(batch):
                assert lp[c] == smoothed_logpdf(prior, row, sigma)
                np.testing.assert_array_equal(sc[c], smoothed_score(prior, row, sigma))
                np.testing.assert_array_equal(pm[c], posterior_mean(prior, row, sigma))

    @pytest.mark.parametrize("j", [1, 3])
    def test_single_point_matches_old_formulas(self, j):
        # sigma changes between calls, so the one-entry cache is refilled and reread
        prior = PRIORS[j]
        rng = Rng(5)
        for sigma in (0.3, 1.1, 0.3, 4.0):
            for _ in range(20):
                x = 2.0 * rng.standard_normal(prior.dim)
                lp_old = logsumexp(old_logpdfs(prior, x, sigma))
                assert abs(smoothed_logpdf(prior, x, sigma) - lp_old) <= 1e-14 * abs(lp_old)
                for new, old in ((smoothed_score(prior, x, sigma), old_score(prior, x, sigma)),
                                 (posterior_mean(prior, x, sigma),
                                  old_posterior_mean(prior, x, sigma))):
                    assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))

    @pytest.mark.parametrize("value", [1e200, -1e200, 1e300])
    def test_far_point_gives_the_largest_variance_limit(self, value):
        # every squared distance overflows: the widest smoothed component takes it all
        prior = GmmPrior([0.2, 0.5, 0.3], [[0, 0, 0, 0], [1, 1, 1, 1], [-1, 0, 1, 0]],
                         [0.1, 0.2, 0.3])
        sigma, s = 0.5, 0.3 + 0.25
        x = np.full(4, value)
        batch = np.stack([x, np.zeros(4), -x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lp, sc, pm = (fn(prior, x, sigma)
                          for fn in (smoothed_logpdf, smoothed_score, posterior_mean))
            rows = [fn(prior, batch, sigma)
                    for fn in (smoothed_logpdf, smoothed_score, posterior_mean)]
        assert lp == -np.inf
        np.testing.assert_array_equal(pm, (0.3 / s) * x + 0.25 * prior.means[2] / s)
        np.testing.assert_array_equal(sc, (1.0 / s) * (prior.means[2] - x))
        for out, single in zip(rows, (smoothed_logpdf, smoothed_score, posterior_mean)):
            for c, row in enumerate(batch):
                np.testing.assert_array_equal(out[c], single(prior, row, sigma))

    def test_batch_shape_contract(self):
        prior = PRIORS[3]
        with pytest.raises(ValueError, match="dimension"):
            posterior_mean(prior, np.zeros((2, 3)), 0.5)
        with pytest.raises(ValueError, match="batch"):
            posterior_mean(prior, np.zeros((2, 2, 4)), 0.5)
        np.testing.assert_array_equal(posterior_mean(prior, np.ones((2, 4)), 0.0),
                                      np.ones((2, 4)))


class TestLogsumexp:
    """The private max-shifted logsumexp against scipy.special.logsumexp."""

    def test_matches_scipy(self):
        logs = Rng(6).standard_normal((50, 7)) * np.array([[0.1], [10.0], [700.0], [1e5], [1e300]]
                                                          ).repeat(10, axis=0)
        out = _logsumexp(logs)
        ref = logsumexp(logs, axis=-1)
        assert out.shape == (50,)
        assert np.all(np.abs(out - ref) <= 1e-15 * np.maximum(np.abs(ref), 1.0))

    def test_rows_equal_single_calls(self):
        logs = Rng(7).standard_normal((9, 3)) * 50.0
        out = _logsumexp(logs)
        for c, row in enumerate(logs):
            assert out[c] == _logsumexp(row)

    @pytest.mark.parametrize("row, expected", [
        ([-np.inf, -np.inf, -np.inf], -np.inf),
        ([1.0, np.inf, 0.0], np.inf),
        ([-np.inf, np.inf], np.inf),
        ([-np.inf, 0.0, -np.inf], 0.0),
    ])
    def test_infinite_rows_without_a_warning(self, row, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _logsumexp(np.array(row))
            batch = _logsumexp(np.array([row, [0.0] * len(row)]))
        assert out == expected == logsumexp(row) and batch[0] == expected
        assert batch[1] == pytest.approx(math.log(len(row)), rel=1e-15)

    @pytest.mark.parametrize("row", [[1e308, -1e308], [-1e308, -1e308], [1.7e308, 1.7e308, 1.7e308],
                                     [-1.7e308, 1.7e308, 0.0], [-1.7e308, -1e308, -1.7e308]])
    def test_spreads_near_the_float_limits_stay_finite(self, row):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = logsumexp(row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _logsumexp(np.array(row))
        assert np.isfinite(ref) and out == pytest.approx(ref, rel=1e-15)
