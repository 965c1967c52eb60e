"""Heat regularization of symbols and the summability diagnostic.

The generator is Delta = (1/2) <d_X, (Phi''_XbarX)^-1 d_Xbar>, so a plane
wave exp(i Re<X, lam>) is an eigenfunction and the flow at time t multiplies
its coefficient by exp(-t h |mu|^2 / 8) with mu = R^-T lam the frequency in
the reduced frame (`geometry.freq_image`).  The closed forms read a
plane-wave sum only as its arrays c and lam: the flow and the summability
diagnostic (`sw_diagnostic`, `sw_l1_box`, `sw_l1_exact`) each damp all
frequency rows in one `heat_damping` call, the diagnostic weighting them
by |c|.  The same flow written as a Gaussian average and evaluated by
Gauss-Hermite quadrature,

    b_t(X) = pi^-n sum_k w_k b(X - R^-1 V_k),   V = sqrt(t h / 2)(s1 + i s2),

is kept as `heat_flow_quadrature`, the independent reference the closed
form is checked against; it accepts callable symbols too.

Times outside [0, 1] are rejected: the estimates downstream are stated on
that interval and nothing here extrapolates beyond it.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import SpaceContext, _as_points, freq_image
from .quadrature import complex_grid, gauss_hermite_rule
from .symbols import CallableSymbol, PlaneWaveSum, eval_symbol

__all__ = [
    "heat_flow",
    "heat_flow_quadrature",
    "heat_damping",
    "sw_diagnostic",
    "sw_l1",
    "sw_l1_box",
    "sw_l1_exact",
    "box_size",
]

# Most points one real axis of the `sw` lambda_grid may hold: `sw_l1_box`
# sums the box per term and axis (65 points at the default finest step).
MAX_BOX_POINTS = 20_000_000


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"heat time must lie in [0, 1], got {t}")
    return t


def heat_damping(ctx: SpaceContext, lam, t: float) -> np.ndarray:
    """Per-frequency decay factor exp(-t h |R^-T lam|^2 / 8)."""
    mu = freq_image(ctx, lam)
    return np.exp(-t * ctx.h * np.sum(np.abs(mu) ** 2, axis=-1) / 8.0)


def heat_flow(ctx: SpaceContext, b, t: float) -> PlaneWaveSum:
    """Flow b -> b_t: each coefficient of a plane-wave sum times the
    damping of its frequency."""
    t = _check_time(t)
    return PlaneWaveSum(b.n, b.c * heat_damping(ctx, b.lam, t), b.lam)


def heat_flow_quadrature(ctx: SpaceContext, b, t: float, order: int = 40):
    """Gaussian-average form of the flow, usable on any symbol.

    On plane-wave sums it must agree with `heat_flow` to quadrature
    accuracy; that agreement is the correctness check for this path.
    """
    t = _check_time(t)
    if t == 0.0:
        return b
    rule = gauss_hermite_rule(order)
    sigma = np.sqrt(t * ctx.h / 2.0)
    V, wt = complex_grid(rule, ctx.n, sigma)
    shifts = (ctx.Rinv @ V).T  # (npts, n)
    # wt integrates against exp(-|V|^2/sigma^2) L(dV), total mass (pi s^2)^n
    pref = (np.pi * sigma ** 2) ** (-ctx.n)

    def val(X):
        X = _as_points(X, ctx.n)
        moved = X[..., np.newaxis, :] - shifts
        vals = eval_symbol(b, moved)
        return pref * (vals @ wt)

    return CallableSymbol(n=ctx.n, func=val)


def box_size(lo: float, hi: float, step: float):
    """Number of points on one real axis of the box [lo, hi] of spacing
    `step` that `sw_l1_box` sums, np.arange(lo, hi + step / 2, step),
    counted without building any (inf when it overflows a float)."""
    per_axis = (hi + step / 2 - lo) / step
    return math.ceil(per_axis) if per_axis < math.inf else math.inf


def sw_diagnostic(ctx: SpaceContext, b, lam_grid) -> np.ndarray:
    """g(lam) = sup_X |(b^lam)_1(X)| * exp(-h |mu|^2 / 8), mu = R^-T lam.

    The modulated symbol b^lam = e^{i Re<., lam>} b is heat-regularized at
    t = 1 and the same full-time decay factor multiplies its sup norm, so
    the frequency weight appears twice.  Modulation shifts every frequency
    by lam and the flow damps each coefficient, so by `sup_norm`

        g(lam) = sum_j |c_j| exp(-h |mu_j + mu|^2 / 8) exp(-h |mu|^2 / 8),

    with mu_j = R^-T lam_j: the exact sup when `sup_norm(b)` is attained,
    an upper bound otherwise.  Summability of g over the frequency plane is
    the membership diagnostic for the symbol class behind the norm bounds.
    """
    lam = _as_points(lam_grid, ctx.n)
    g = heat_damping(ctx, lam[..., np.newaxis, :] + b.lam, 1.0) @ np.abs(b.c)
    return g * heat_damping(ctx, lam, 1.0)


def sw_l1(g: np.ndarray, step: float, n: int = 1) -> float:
    """Riemann sum of g over the frequency grid it was sampled on."""
    return float(np.sum(g) * step ** (2 * n))


def sw_l1_box(ctx: SpaceContext, b, lo: float, hi: float,
              step: float) -> float:
    """Riemann sum of the `sw_diagnostic` profile over lambda = R^T mu for
    mu on the box [lo, hi]^(2n) of spacing `step` in the real coordinates
    (Re mu, Im mu), with d lambda = |det R|^2 d mu.

    Completing the square, term j of the profile is
    exp(-h |mu_j|^2 / 16) prod_k exp(-h (x_k + a_jk / 2)^2 / 4) over the
    2n real coordinates x_k of mu and a_jk of mu_j, so the sum over the
    K^(2n) box points is a product of 2n sums of K points each, taken for
    every term and axis at once: O(T 2n K) work for T terms at any n, in
    chunks of 2^16 points (one at every default) to bound the temporaries.
    Each real axis holds the `box_size(lo, hi, step)` points of
    np.arange(lo, hi + step / 2, step), and the sum equals
    `sw_l1(sw_diagnostic(ctx, b, mu_box @ ctx.R), step, n)` times |det R|^2
    up to rounding, mu_box the K^(2n) points of the box.
    """
    axis = np.arange(lo, hi + step / 2, step)
    mu = freq_image(ctx, b.lam)
    a = np.concatenate([mu.real, mu.imag], axis=1)[..., np.newaxis]
    sums = sum(np.sum(np.exp(-ctx.h * (x + a / 2.0) ** 2 / 4.0), axis=-1)
               for x in np.split(axis, range(1 << 16, axis.size, 1 << 16)))
    weights = np.abs(b.c) * heat_damping(ctx, b.lam, 0.5)
    total = weights @ np.prod(sums, axis=1)
    jac = abs(np.linalg.det(ctx.R)) ** 2
    return float(total * jac * np.float64(step) ** (2 * ctx.n))


def sw_l1_exact(ctx: SpaceContext, b) -> float:
    """Integral of the `sw_diagnostic` profile over all of C^n,
    sum_j |c_j| |det R|^2 (4 pi / h)^n exp(-h |mu_j|^2 / 16); the last
    factor is the heat damping at t = 1/2."""
    jac = np.float64(4.0 * np.pi / ctx.h) ** ctx.n  # inf past float range
    jac = abs(np.linalg.det(ctx.R)) ** 2 * jac
    return float(jac * (heat_damping(ctx, b.lam, 0.5) @ np.abs(b.c)))
