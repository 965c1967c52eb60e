"""Integral transform between L^2(R^n) and the weighted holomorphic space.

Every evaluator here works in weighted form: the primitive for the
transform is X -> e^{-Phi(X)/h} (Tu)(X), for the projector it is
X -> e^{-Phi(X)/h} (Pi f)(X).  The weighting matters: each integral is
arranged so the explicit exponential factor in the sampled integrand has
nonpositive real part (transform) or exactly zero real part (projector,
coefficient projection), so samples never exceed the size of the data and
quadrature is uniformly accurate in X.  The three exponent identities that
make this work are checked in the test suite.

Inner products of numerically evaluated functions are always taken through
coefficient projection onto the orthonormal basis followed by a finite
Parseval sum.  A direct quadrature of <f, g> e^{-2 Phi/h} in reweighted
coordinates looks plausible but multiplies samples by e^{+|W|^2/sigma^2},
which amplifies far-node evaluation error without bound; that route is
deliberately absent from this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import HSpaceVector, MultiIndexSet, monomial_table
from .errors import UnsupportedSymbol
from .geometry import SpaceContext, _as_points, phase_phi, phi_weight, psi
from .heat import heat_flow
from .quadrature import QuadratureRule, _tensor_grid, complex_grid
from .symbols import PlaneWaveSum, eval_symbol, guillemin_symbol, polarize

__all__ = [
    "GaussianTestFn",
    "bargmann_transform",
    "bargmann_transform_weighted",
    "bargmann_adjoint_apply",
    "project_coeffs",
    "hspace_inner",
    "projector_apply_weighted",
    "real_weyl_planewave_apply",
    "egorov_guillemin_check",
]


@dataclass(frozen=True)
class GaussianTestFn:
    """amp * exp(i p0 . y) * exp(-|y - y0|^2 / (2 sigma^2)) on R^n.

    The same closed form serves as the analytic continuation, so complex
    arguments (needed by shifted Weyl factors) are legal.
    """

    y0: np.ndarray
    sigma: float
    p0: np.ndarray
    amp: complex = 1.0

    def __post_init__(self):
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        p0 = np.atleast_1d(np.asarray(self.p0, dtype=float))
        if y0.shape != p0.shape or y0.ndim != 1:
            raise ValueError("center and modulation must be real n-vectors")
        if not self.sigma > 0:
            raise ValueError("width must be positive")
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "amp", complex(self.amp))

    @property
    def n(self) -> int:
        return self.y0.shape[0]

    def __call__(self, y):
        y = _as_points(np.asarray(y, dtype=complex), self.n)
        d = y - self.y0
        expo = 1j * (y @ self.p0) - np.sum(d * d, axis=-1) / (
            2.0 * self.sigma ** 2
        )
        return self.amp * np.exp(expo)

    def l1_norm(self) -> float:
        return abs(self.amp) * (2.0 * np.pi * self.sigma ** 2) ** (
            self.n / 2.0
        )


def _y_nodes(ctx: SpaceContext, X: np.ndarray, rule: QuadratureRule):
    """Real integration path y(s) = y_c(X) + sqrt(2h) C_I^{-1/2} s and the
    matching volume factor; y_c completes the square of Re{i phi - Phi}."""
    yc = -np.imag(X @ ctx.phase.B) @ ctx.CIinv.T
    S, wt = _tensor_grid(rule, ctx.n)
    S = np.ascontiguousarray(S.T)  # (npts, n)
    step = np.sqrt(2.0 * ctx.h) * (S @ ctx.CIinvsqrt.T)
    y = yc[..., np.newaxis, :] + step
    vol = (2.0 * ctx.h) ** (ctx.n / 2.0) / np.sqrt(
        np.linalg.det(ctx.CI)
    )
    s2 = np.sum(S * S, axis=-1)
    return y, wt, vol, s2


def bargmann_transform_weighted(ctx: SpaceContext, u, X,
                                rule: QuadratureRule) -> np.ndarray:
    """e^{-Phi(X)/h} (Tu)(X) for a callable u sampled on real points.

    The sampled exponent [i phi(X, y) - Phi(X)]/h + |s|^2 has real part
    exactly zero along the recentered path, so the values are bounded by
    sup |u| for every X in C^n.
    """
    X = _as_points(np.asarray(X, dtype=complex), ctx.n)
    y, wt, vol, s2 = _y_nodes(ctx, X, rule)
    expo = (
        1j * phase_phi(ctx, X[..., np.newaxis, :], y)
        - phi_weight(ctx, X)[..., np.newaxis]
    ) / ctx.h + s2
    vals = np.exp(expo) * u(y)
    pref = ctx.Cphi * ctx.h ** (-0.75 * ctx.n) * vol
    return pref * (vals @ wt)


def bargmann_transform(ctx: SpaceContext, u, X,
                       rule: QuadratureRule) -> np.ndarray:
    """(Tu)(X); unweighted, so it grows like e^{Phi(X)/h} at large X."""
    X = _as_points(np.asarray(X, dtype=complex), ctx.n)
    w = bargmann_transform_weighted(ctx, u, X, rule)
    return w * np.exp(phi_weight(ctx, X) / ctx.h)


def _h_grid(ctx: SpaceContext, rule: QuadratureRule):
    """The sigma^2 = h grid in W = RX with its weights, the matching points
    X = R^-1 W, <X, Phi''_XX X> and |W|^2 there, and |det R|."""
    W, wt = complex_grid(rule, ctx.n, np.sqrt(ctx.h))
    Xp = (ctx.Rinv @ W).T
    quad = np.einsum("...i,ij,...j->...", Xp, ctx.PhiXX, Xp)
    w2 = np.sum(np.abs(W.T) ** 2, axis=-1)
    return W, wt, Xp, quad, w2, abs(np.linalg.det(ctx.R))


def project_coeffs(ctx: SpaceContext, fw, trunc: MultiIndexSet,
                   rule: QuadratureRule) -> HSpaceVector:
    """Basis coefficients <f, u_beta> from the weighted evaluator fw.

    fw must be X -> e^{-Phi(X)/h} f(X) on batched points.  On the
    sigma^2 = h grid the explicit factor multiplying fw has unit modulus
    (the weight identity Phi = |RX|^2 + Re<X, Phi''_XX X> makes the real
    parts cancel), so coefficients inherit the accuracy of fw itself.
    """
    W, wt, Xp, quad, w2, detR = _h_grid(ctx, rule)
    expo = (np.conj(quad) - phi_weight(ctx, Xp) + w2) / ctx.h
    base = np.asarray(fw(Xp), dtype=complex) * np.exp(expo)
    V = monomial_table(W, trunc, ctx.h)
    pref = (2.0 / (np.pi * ctx.h)) ** (ctx.n / 2.0) / detR
    coeffs = pref * (np.conj(V) @ (wt * base))
    return HSpaceVector(ctx=ctx, trunc=trunc, coeffs=coeffs)


def hspace_inner(ctx: SpaceContext, fw, gw, trunc: MultiIndexSet,
                 rule: QuadratureRule) -> complex:
    """<f, g> in the weighted space via coefficients and a Parseval sum."""
    cf = project_coeffs(ctx, fw, trunc, rule).coeffs
    cg = project_coeffs(ctx, gw, trunc, rule).coeffs
    return complex(np.sum(cf * np.conj(cg)))


def bargmann_adjoint_apply(ctx: SpaceContext, vec: HSpaceVector, y,
                           rule: QuadratureRule) -> np.ndarray:
    """(T* v)(y) for v given by basis coefficients, at real points y.

    Integrand assembled in W = RX coordinates on the sigma^2 = h grid;
    the explicit factor is bounded by one, the Gaussian in y keeping the
    far field harmless.
    """
    y = _as_points(np.asarray(y, dtype=float), ctx.n)
    W, wt, Xp, quad, w2, detR = _h_grid(ctx, rule)
    phi = phase_phi(ctx, Xp, y[..., np.newaxis, :])
    expo = (
        np.conj(1j * phi) + quad - 2.0 * phi_weight(ctx, Xp) + w2
    ) / ctx.h
    V = monomial_table(W, vec.trunc, ctx.h)
    series = vec.coeffs @ V
    pref = (
        ctx.Cphi
        * ctx.h ** (-0.75 * ctx.n)
        * (2.0 / (np.pi * ctx.h)) ** (ctx.n / 2.0)
        / detR
    )
    return pref * (np.exp(expo) * series) @ wt


def projector_apply_weighted(ctx: SpaceContext, fw, X,
                             rule: QuadratureRule, symbol=None) -> np.ndarray:
    """e^{-Phi(X)/h} Pi(b f)(X) with Pi the reproducing projector.

    With V = R(Y - X) on the sigma^2 = h grid the weighted kernel
    exp([2 Psi(X, Ybar) - Phi(X) - Phi(Y)]/h + |s|^2) has unit modulus,
    so the application is as stable as fw itself.  `symbol` multiplies
    under the integral and turns the projector into the compression of
    multiplication by it.
    """
    X = _as_points(np.asarray(X, dtype=complex), ctx.n)
    V, wt = complex_grid(rule, ctx.n, np.sqrt(ctx.h))
    Y = X[..., np.newaxis, :] + (ctx.Rinv @ V).T
    expo = (
        2.0 * psi(ctx, X[..., np.newaxis, :], np.conj(Y))
        - phi_weight(ctx, X)[..., np.newaxis]
        - phi_weight(ctx, Y)
    ) / ctx.h + np.sum(np.abs(V.T) ** 2, axis=-1) / ctx.h
    vals = np.exp(expo) * np.asarray(fw(Y), dtype=complex)
    if symbol is not None:
        vals = vals * eval_symbol(symbol, Y)
    return (2.0 / (np.pi * ctx.h)) ** ctx.n * (vals @ wt)


def real_weyl_planewave_apply(h: float, p, q, u, x) -> np.ndarray:
    """Weyl quantization of exp(i(<x, p> + <q, xi>)) applied to a Gaussian:
    the closed form e^{i<x,p> + i h <q,p>/2} u(x + h q)."""
    if not isinstance(u, GaussianTestFn):
        raise UnsupportedSymbol(
            "complex-shift evaluation is closed-form only for Gaussian probes"
        )
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    q = np.atleast_1d(np.asarray(q, dtype=complex))
    x = _as_points(np.asarray(x, dtype=complex), u.n)
    phase = np.exp(1j * (x @ p) + 0.5j * h * (q @ p))
    return phase * u(x + h * q)


def egorov_guillemin_check(ctx: SpaceContext, b: PlaneWaveSum,
                           u: GaussianTestFn, X_grid,
                           rule: QuadratureRule) -> float:
    """Max relative deviation between the two routes from (b, u) to a
    function on C^n: compressing multiplication after transforming, versus
    transforming after applying the matching real-side Weyl operator.

    The real-side symbol comes from the half-time-regularized polarization
    of b pushed through the canonical frame change; each term is a
    plane wave in (x, xi) with complex frequencies, applied in closed form.
    """
    if not isinstance(b, PlaneWaveSum):
        raise UnsupportedSymbol("the identity needs exact plane-wave terms")
    X_grid = _as_points(np.asarray(X_grid, dtype=complex), ctx.n)

    def tu_w(X):
        return bargmann_transform_weighted(ctx, u, X, rule)

    gs = guillemin_symbol(ctx, polarize(heat_flow(ctx, b, 0.5)))
    freqs = gs.cotangent_frequencies()

    def gu(y):
        out = np.zeros(np.asarray(y).shape[:-1], dtype=complex)
        for c, p, q in freqs:
            out = out + c * real_weyl_planewave_apply(ctx.h, p, q, u, y)
        return out

    # one grid point at a time: the left side nests two quadratures and
    # full-grid batching would hold (npts_X * npts_V * npts_y) temporaries
    worst = 0.0
    for Xp in X_grid.reshape(-1, ctx.n):
        lhs = complex(projector_apply_weighted(ctx, tu_w, Xp, rule,
                                               symbol=b))
        rhs = complex(bargmann_transform_weighted(ctx, gu, Xp, rule))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return float(worst)
