"""Heat regularization of symbols and the summability diagnostic.

The generator is Delta = (1/2) <d_X, (Phi''_XbarX)^-1 d_Xbar>, so a plane
wave exp(i Re<X, lam>) is an eigenfunction and the flow at time t multiplies
its coefficient by exp(-t h |mu|^2 / 8) with mu = R^-T lam the frequency in
the reduced frame (`geometry.freq_image`).  The same flow written as a
Gaussian average and evaluated by Gauss-Hermite quadrature,

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
    "complex_box",
]

# Most points a box may hold: all K^(2n) of an egorov `X_grid` (729 at the
# n = 3 default), or the K points of one axis of the `sw` lambda_grid, which
# `sw_l1_box` sums one axis at a time (65 at the default finest step).
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


def box_size(lo: float, hi: float, step: float, axes: int):
    """Number of points on `axes` real axes of the box `complex_box`
    walks (all of it at axes = 2n), counted without building any (inf
    when the count per axis overflows a float)."""
    per_axis = (hi + step / 2 - lo) / step
    return math.ceil(per_axis) ** axes if per_axis < math.inf else math.inf


def complex_box(lo: float, hi: float, step: float, n: int = 1) -> np.ndarray:
    """Complex points of C^n from the real box [lo, hi]^(2n) with spacing
    `step`, lexicographic over (Re z_1, ..., Re z_n, Im z_1, ..., Im z_n).

    The array is allocated once and each coordinate is filled by
    broadcasting one axis, so its size is the only memory it takes."""
    axis = np.arange(lo, hi + step / 2, step)
    pts = np.empty((axis.size,) * (2 * n) + (n,), dtype=complex)
    for d in range(n):
        pts.real[..., d] = axis.reshape((-1,) + (1,) * (2 * n - 1 - d))
        pts.imag[..., d] = axis.reshape((-1,) + (1,) * (n - 1 - d))
    return pts.reshape(-1, n)


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
    g = sum(abs(c) * heat_damping(ctx, lam + lam_j, 1.0)
            for c, lam_j in zip(b.c, b.lam))
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
    K^(2n) box points is a product of 2n sums of K points each: O(terms *
    2n * K) work and O(K) memory at any n.  The box is the one
    `complex_box(lo, hi, step, n)` walks, and the sum equals
    `sw_l1(sw_diagnostic(ctx, b, mu_box @ ctx.R), step, n)` times
    |det R|^2 up to rounding.
    """
    axis = np.arange(lo, hi + step / 2, step)
    total = 0.0
    for c, lam_j in zip(b.c, b.lam):
        mu_j = freq_image(ctx, lam_j)
        term = abs(c) * float(heat_damping(ctx, lam_j, 0.5))
        for a in (*mu_j.real, *mu_j.imag):
            term *= np.sum(np.exp(-ctx.h * (axis + a / 2.0) ** 2 / 4.0))
        total += term
    jac = abs(np.linalg.det(ctx.R)) ** 2
    return float(total * jac * np.float64(step) ** (2 * ctx.n))


def sw_l1_exact(ctx: SpaceContext, b) -> float:
    """Integral of the `sw_diagnostic` profile over all of C^n,
    sum_j |c_j| |det R|^2 (4 pi / h)^n exp(-h |mu_j|^2 / 16); the last
    factor is the heat damping at t = 1/2."""
    jac = np.float64(4.0 * np.pi / ctx.h) ** ctx.n  # inf past float range
    jac = abs(np.linalg.det(ctx.R)) ** 2 * jac
    return float(jac * sum(abs(c) * heat_damping(ctx, lam, 0.5)
                           for c, lam in zip(b.c, b.lam)))
