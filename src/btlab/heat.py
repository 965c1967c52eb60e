"""Heat regularization of symbols and the summability diagnostic.

The generator is Delta = (1/2) <d_X, (Phi''_XbarX)^-1 d_Xbar>, so a plane
wave exp(i Re<X, lam>) is an eigenfunction and the flow at time t multiplies
its coefficient by exp(-t h |mu|^2 / 8) with mu = R^-T lam the frequency in
the reduced frame.  The same flow written as a Gaussian average and
evaluated by Gauss-Hermite quadrature,

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
from .symbols import (
    CallableSymbol,
    PlaneWaveSum,
    _require_plane_waves,
    eval_symbol,
)

__all__ = [
    "heat_flow",
    "heat_flow_quadrature",
    "heat_damping",
    "sw_diagnostic",
    "sw_l1",
    "sw_l1_exact",
    "box_size",
    "complex_box",
]

# Most points a box may hold; the n = 2 `sw` default has 65^4 = 17,850,625.
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
    """Flow b -> b_t, term by term on a plane-wave sum."""
    _require_plane_waves("heat_flow", b)
    t = _check_time(t)
    terms = tuple(
        (c * complex(heat_damping(ctx, lam, t)), lam) for c, lam in b.terms
    )
    return PlaneWaveSum(n=b.n, terms=terms)


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


def box_size(lo: float, hi: float, step: float, n: int = 1):
    """Number of points `complex_box` returns, counted without building
    any (inf when the count per axis overflows a float)."""
    per_axis = (hi + step / 2 - lo) / step
    return math.ceil(per_axis) ** (2 * n) if per_axis < math.inf else math.inf


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
    _require_plane_waves("sw_diagnostic", b)
    lam = np.asarray(lam_grid, dtype=complex)

    def re_pair(w):
        """Re<lam, w> at every grid point, from real parts only."""
        return lam.real @ w.real - lam.imag @ w.imag

    # One real value per point at a time, no (..., n) complex temporary:
    # mu_d = <lam, r_d> over the rows r_d of R^-T, and
    # |mu + mu_j|^2 = |mu|^2 + 2 Re<lam, R^-1 conj(mu_j)> + |mu_j|^2.
    mu2 = sum(re_pair(r) ** 2 + re_pair(-1j * r) ** 2 for r in ctx.RTinv)
    g = np.zeros(lam.shape[:-1])
    for c, lam_j in b.terms:
        mu_j = ctx.RTinv @ lam_j
        shift = (2.0 * re_pair(ctx.Rinv @ np.conj(mu_j))
                 + np.sum(np.abs(mu_j) ** 2))
        g += abs(c) * np.exp(-ctx.h * (mu2 + shift) / 8.0)
    return g * np.exp(-ctx.h * mu2 / 8.0)


def sw_l1(g: np.ndarray, step: float, n: int = 1) -> float:
    """Riemann sum of g over the frequency grid it was sampled on."""
    return float(np.sum(g) * step ** (2 * n))


def sw_l1_exact(ctx: SpaceContext, b) -> float:
    """Integral of the `sw_diagnostic` profile over all of C^n,
    sum_j |c_j| |det R|^2 (4 pi / h)^n exp(-h |mu_j|^2 / 16); the last
    factor is the heat damping at t = 1/2."""
    _require_plane_waves("sw_l1_exact", b)
    jac = abs(np.linalg.det(ctx.R)) ** 2 * (4.0 * np.pi / ctx.h) ** ctx.n
    return jac * float(sum(abs(c) * heat_damping(ctx, lam, 0.5)
                           for c, lam in b.terms))
