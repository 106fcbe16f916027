"""Gaussian-mixture modeling of the benign feature distribution and the
closed-form output-variance formulas for both protocols.

For a fixed adversarial input, the joint pre-activation score is a scalar
mixture of Gaussians. The sigmoid protocol's output variance uses two fitted
Gaussian stand-ins for the sigmoid (CDF scale 1.699, PDF scale 1.630, the
least-squares fits); the ReLU protocol's variance comes from truncated
normal moments. Every analytic value is cross-checkable against the
Monte-Carlo estimator in this module.

The standard normal CDF is computed here, as erfc(-x / sqrt 2) / 2 from
``math.erfc``. The hazard ratio phi/Phi is evaluated directly down to
x = -30; below that, where Phi nears underflow, it follows the Mills-ratio
asymptotic series (Abramowitz & Stegun 26.2.12).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Least-squares Gaussian stand-ins for the sigmoid and its derivative.
SIGMOID_CDF_SCALE = 1.699
SIGMOID_PDF_SCALE = 1.630

COV_FLOOR = 1e-9

_SQRT_2PI = np.sqrt(2.0 * np.pi)

_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def std_normal_cdf(x):
    return 0.5 * _erfc(-np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def std_normal_pdf(x):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _hazard_pos(x):
    """phi(x)/Phi(x); below -30, the Mills-ratio series to the x^-8 term."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = np.minimum(x, -30.0), np.maximum(x, -30.0)
    z = 1.0 / (lo * lo)
    series = -lo / (1.0 - z * (1.0 - z * (3.0 - z * (15.0 - 105.0 * z))))
    return np.where(x < -30.0, series, std_normal_pdf(hi) / std_normal_cdf(hi))


@dataclass
class Gmm:
    """K-component Gaussian mixture over a d-dimensional feature view."""

    weights: np.ndarray   # (K,)
    means: np.ndarray     # (K, d)
    covs: np.ndarray      # (K, d, d)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        self.means = np.asarray(self.means, dtype=np.float64)
        if self.means.ndim == 1:
            self.means = self.means[:, None]
        self.covs = np.asarray(self.covs, dtype=np.float64)
        k, d = self.means.shape
        if self.weights.shape != (k,):
            raise ValueError("one weight per component required")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")
        if self.covs.shape != (k, d, d):
            raise ValueError(f"covariances must be {(k, d, d)}")
        for cov in self.covs:
            if not np.allclose(cov, cov.T, atol=1e-9):
                raise ValueError("covariances must be symmetric")
            if np.linalg.eigvalsh(cov).min() < -1e-9:
                raise ValueError("covariances must be positive semi-definite")

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass
class ScalarMixture:
    """Projected 1-D mixture: per-component mean and standard deviation."""

    weights: np.ndarray
    mus: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        self.mus = np.asarray(self.mus, dtype=np.float64).ravel()
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64).ravel()
        if not (self.weights.shape == self.mus.shape == self.sigmas.shape):
            raise ValueError("component arrays must share one length")
        if np.any(self.sigmas < 0):
            raise ValueError("component standard deviations must be >= 0")


def _log_gauss(data: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = data.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = data - mean
    sol = np.linalg.solve(chol, diff.T)
    maha = np.sum(sol * sol, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (maha + logdet + d * np.log(2.0 * np.pi))


def _log_mixture(weights, means, covs, data: np.ndarray):
    """(n, K) log weight plus log density per component, and the (n, 1)
    log mixture density, by log-sum-exp over the components."""
    comp = np.stack([np.log(w) + _log_gauss(data, m, c)
                     for w, m, c in zip(weights, means, covs)], axis=1)
    mx = comp.max(axis=1, keepdims=True)
    return comp, mx + np.log(np.sum(np.exp(comp - mx), axis=1, keepdims=True))


def gmm_log_likelihood(gmm: Gmm, data: np.ndarray) -> float:
    return float(_log_mixture(gmm.weights, gmm.means, gmm.covs, data)[1].sum())


def fit_gmm_em(data, k: int, max_iters: int = 200,
               seed: int = 0) -> tuple[Gmm, list[float]]:
    """Expectation-maximization fit; returns (mixture, log-likelihood trace).

    Stops after ``max_iters`` steps, or once the log-likelihood moves by less
    than 1e-7 of its magnitude (plus one).

    Component covariances are floored at COV_FLOOR * I, so degenerate
    (near-Dirac) clusters stay numerically usable rather than erroring.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    n, d = data.shape
    if k < 1 or n < k:
        raise ValueError("need at least k data points")
    rng = np.random.default_rng(seed)
    floor = COV_FLOOR * np.eye(d)

    means = data[rng.choice(n, size=k, replace=False)].copy()
    base_cov = np.cov(data.T).reshape(d, d) if n > 1 else np.eye(d)
    covs = np.stack([base_cov + floor for _ in range(k)])
    weights = np.full(k, 1.0 / k)

    history: list[float] = []
    for _ in range(max_iters):
        # E step in log space.
        comp, log_norm = _log_mixture(weights, means, covs, data)
        history.append(float(log_norm.sum()))
        resp = np.exp(comp - log_norm)

        # M step.
        mass = resp.sum(axis=0)
        mass = np.maximum(mass, 1e-12)
        weights = mass / n
        means = (resp.T @ data) / mass[:, None]
        for j in range(k):
            diff = data - means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / mass[j]
            covs[j] = 0.5 * (cov + cov.T) + floor

        if len(history) > 1 and abs(history[-1] - history[-2]) < 1e-7 * (
                1.0 + abs(history[-2])):
            break

    weights = weights / weights.sum()
    return Gmm(weights, means, covs), history


def project_mixture(gmm: Gmm, vec, offset: float = 0.0) -> ScalarMixture:
    """Project the mixture through a linear functional plus offset."""
    vec = np.asarray(vec, dtype=np.float64).ravel()
    if vec.shape[0] != gmm.d:
        raise ValueError(f"vector length {vec.shape[0]} != mixture dim {gmm.d}")
    mus = offset + gmm.means @ vec
    variances = np.einsum("i,kij,j->k", vec, gmm.covs, vec)
    sigmas = np.sqrt(np.maximum(variances, 0.0))
    return ScalarMixture(gmm.weights.copy(), mus, sigmas)


def heterolr_variance(sm: ScalarMixture, clamp: bool = True) -> float:
    """Analytic output variance of the sigmoid protocol over the mixture.

    E[g] uses the Gaussian-CDF stand-in for the sigmoid; E[g'] uses the
    Gaussian-PDF stand-in; variance = E[g](1-E[g]) - E[g']. The raw value can
    dip slightly negative because both stand-ins are approximations, hence
    the clamp (pass clamp=False for the raw value).
    """
    denom_cdf = np.sqrt(SIGMOID_CDF_SCALE ** 2 + sm.sigmas ** 2)
    mean_g = float(np.sum(sm.weights * std_normal_cdf(sm.mus / denom_cdf)))
    var_pdf = sm.sigmas ** 2 + SIGMOID_PDF_SCALE ** 2
    mean_gprime = float(np.sum(
        sm.weights / _SQRT_2PI / np.sqrt(var_pdf)
        * np.exp(-0.5 * sm.mus ** 2 / var_pdf)))
    raw = mean_g * (1.0 - mean_g) - mean_gprime
    return max(raw, 0.0) if clamp else raw


def relu_moments(sm: ScalarMixture) -> tuple[float, float, float]:
    """(P(Y>0), E[Y 1(Y>0)], E[Y^2 1(Y>0)]) for the scalar mixture Y.

    Zero-sigma components contribute their deterministic value when positive.
    """
    p = 0.0
    m1 = 0.0
    m2 = 0.0
    for w, mu, sig in zip(sm.weights, sm.mus, sm.sigmas):
        if sig == 0.0:
            if mu > 0.0:
                p += w
                m1 += w * mu
                m2 += w * mu * mu
            continue
        r = mu / sig
        cdf = std_normal_cdf(r)
        pdf = std_normal_pdf(r)
        p += w * cdf
        m1 += w * (mu * cdf + sig * pdf)
        m2 += w * ((mu * mu + sig * sig) * cdf + mu * sig * pdf)
    return float(p), float(m1), float(m2)


def splitnn_unit_variance(sm: ScalarMixture, method: str = "exact") -> float:
    """Output variance of a scalar ReLU unit fed by the mixture.

    method="exact" evaluates Var(relu(Y)) = E[Y^2 1(Y>0)] - E[Y 1(Y>0)]^2
    from exact mixture truncated moments. method="per_component" combines
    per-component truncated-normal moments (P(Y>0) = sum w_k Phi(r_k),
    E[Y|Y>0] = sum w_k (mu_k + sigma_k h_k),
    Var(Y|Y>0) = sum w_k^2 sigma_k^2 (1 - r_k h_k - h_k^2) with
    h = phi/Phi). It equals the exact variance for a single component
    only: on w = (0.5, 0.5), mu = (-1, 2), sigma = (0.5, 1) it gives 0.4285,
    against 1.4851 exact and 1.4854 by Monte-Carlo over 10^6 draws. Either
    can dip slightly below zero, so the result is clamped at 0.
    """
    if method == "exact":
        _, m1, m2 = relu_moments(sm)
        return max(m2 - m1 * m1, 0.0)
    if method != "per_component":
        raise ValueError(f"unknown method {method!r}")
    p_pos = 0.0
    e_cond = 0.0
    v_cond = 0.0
    for w, mu, sig in zip(sm.weights, sm.mus, sm.sigmas):
        if sig == 0.0:
            if mu > 0.0:
                p_pos += w
                e_cond += w * mu
            continue
        r = mu / sig
        h = float(_hazard_pos(r))
        p_pos += w * std_normal_cdf(r)
        e_cond += w * (mu + sig * h)
        v_cond += w * w * sig * sig * (1.0 - r * h - h * h)
    return max(p_pos * (v_cond + e_cond * e_cond * (1.0 - p_pos)), 0.0)


def sample_scalar_mixture(sm: ScalarMixture, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    comps = rng.choice(sm.weights.shape[0], size=n, p=sm.weights / sm.weights.sum())
    return sm.mus[comps] + sm.sigmas[comps] * rng.standard_normal(n)


def sample_gmm(gmm: Gmm, n: int, rng: np.random.Generator) -> np.ndarray:
    comps = rng.choice(gmm.k, size=n, p=gmm.weights / gmm.weights.sum())
    out = np.empty((n, gmm.d))
    noise = rng.standard_normal((n, gmm.d))
    for j in range(gmm.k):
        mask = comps == j
        chol = np.linalg.cholesky(gmm.covs[j] + COV_FLOOR * np.eye(gmm.d))
        out[mask] = gmm.means[j] + noise[mask] @ chol.T
    return out


def variance_monte_carlo(scalar_fn, source: ScalarMixture, n: int,
                         seed: int = 0) -> float:
    """Unbiased sample variance of scalar_fn over n draws from the scalar
    mixture ``source``."""
    if n < 2:
        raise ValueError("need at least two draws")
    draws = sample_scalar_mixture(source, n, np.random.default_rng(seed))
    values = np.asarray(scalar_fn(draws), dtype=np.float64).ravel()
    if values.shape[0] != n:
        raise ValueError("scalar_fn must return one value per draw")
    return float(np.var(values, ddof=1))


def bounded_existence_check(r_max: float, r_min: float, mu_max: float,
                            mu_min: float, sigma_max: float, eps: float,
                            protocol: str, k: int = 1) -> bool:
    """Sufficient condition for a dominating input to exist when the
    adversarial features (hence the projected score bounds) are box-bounded.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if r_min > r_max or mu_min > mu_max:
        raise ValueError("bounds must satisfy min <= max")
    if protocol == "heterolr":
        disc = k * k - 4.0 * eps * k
        if disc < 0:
            return False
        return bool(std_normal_cdf(r_max) <= (k + np.sqrt(disc)) / 2.0)
    if protocol == "splitnn":
        phi_rmax = std_normal_cdf(r_max)
        bound = phi_rmax + 0.25 * phi_rmax * mu_min ** 2 + 0.25 * mu_max ** 2
        if sigma_max > 0.0:
            denom = std_normal_cdf(r_min)
            if denom == 0.0:
                return False
            bound += 0.25 * sigma_max ** 2 * (std_normal_pdf(r_max) / denom) ** 2
        return bool(bound <= eps)
    raise ValueError(f"unknown protocol {protocol!r}")
