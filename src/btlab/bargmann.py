"""Integral transform between L^2(R^n) and the weighted holomorphic space.

Every evaluator here works in weighted form: the primitive for the
transform is X -> e^{-Phi(X)/h} (Tu)(X), for the projector it is
X -> e^{-Phi(X)/h} (Pi f)(X).  The weighting matters: each integral is
arranged so the explicit exponential factor in the sampled integrand has
nonpositive real part (transform) or exactly zero real part (projector),
so samples never exceed the size of the data and quadrature is uniformly
accurate in X.  The exponent identities that make this work are checked in
the test suite.

Plane-wave Toeplitz operators need no kernel: the reproducing kernel turns
the antiholomorphic half of a plane wave into a shift of the point
(`_kernel_shifts`, checked against the projector quadrature).  The
Egorov check applies that to each Gaussian's closed-form transform; its
right side is a sum of closed-form transforms too, since each real-side
Weyl image of a Gaussian is a Gaussian (with complex dtype parameters).
The closed-form transform takes stacks of centres, frequencies and
amplitudes, so the check concatenates every symbol's coefficient vector
and frequency rows once, damps and pulls back that one stack, and makes
two transform evaluations per probe, one for each side, sharing the
probe's M^-1 and det(M)^(1/2); each symbol then sums its range of terms.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedSymbol
from .geometry import (
    SpaceContext, _as_points, _qform, _Record, freq_image, kappa_T,
    phase_phi, phi_weight, psi,
)
from . import heat
from .quadrature import QuadratureRule, _tensor_grid, complex_grid
from .symbols import cotangent_frequencies, eval_symbol

__all__ = [
    "GaussianTestFn",
    "bargmann_transform_weighted",
    "projector_apply_weighted",
    "egorov_points",
    "egorov_guillemin_check",
]


class GaussianTestFn(_Record):
    """amp * exp(i p0 . y) * exp(-|y - y0|^2 / (2 sigma^2)) on R^n.

    The same closed form serves as the analytic continuation, so complex
    arguments (needed by shifted Weyl factors) are legal.
    """

    def __init__(self, y0, sigma: float, p0, amp: complex = 1.0):
        y0, p0 = (np.atleast_1d(np.asarray(v, dtype=complex))
                  for v in (y0, p0))
        if (y0.shape != p0.shape or y0.ndim != 1 or np.any(y0.imag)
                or np.any(p0.imag)):
            raise ValueError("center and modulation must be real n-vectors")
        if not sigma > 0:
            raise ValueError("width must be positive")
        vars(self).update(y0=y0.real.copy(), sigma=sigma, p0=p0.real.copy(),
                          amp=complex(amp))

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


def _transform_kernel(ctx: SpaceContext, X: np.ndarray, rule: QuadratureRule):
    """Nodes y, kernel, weights and prefactor of the weighted transform at
    the points X: e^{-Phi(X)/h} (Tu)(X) = pref * (kernel * u(y)) @ wt.

    The real path is y(s) = y_c(X) + sqrt(2h) C_I^{-1/2} s, with y_c
    completing the square of Re{i phi - Phi}; the kernel is exp of
    [i phi(X, y) - Phi(X)]/h + |s|^2, whose real part is exactly zero.
    """
    yc = -np.imag(X @ ctx.phase.B) @ ctx.CIinv.T
    S, wt = _tensor_grid(rule, ctx.n)
    S = np.ascontiguousarray(S.T)  # (npts, n)
    step = np.sqrt(2.0 * ctx.h) * (S @ ctx.CIinvsqrt.T)
    y = yc[..., np.newaxis, :] + step
    vol = (2.0 * ctx.h) ** (ctx.n / 2.0) / np.sqrt(
        np.linalg.det(ctx.CI)
    )
    s2 = np.sum(S * S, axis=-1)
    expo = (
        1j * phase_phi(ctx, X[..., np.newaxis, :], y)
        - phi_weight(ctx, X)[..., np.newaxis]
    ) / ctx.h + s2
    pref = ctx.Cphi * ctx.h ** (-0.75 * ctx.n) * vol
    return y, np.exp(expo), wt, pref


def bargmann_transform_weighted(ctx: SpaceContext, u, X,
                                rule: QuadratureRule) -> np.ndarray:
    """e^{-Phi(X)/h} (Tu)(X) for a callable u sampled on real points.

    The sampled exponent [i phi(X, y) - Phi(X)]/h + |s|^2 has real part
    exactly zero along the recentered path, so the values are bounded by
    sup |u| for every X in C^n.
    """
    X = _as_points(np.asarray(X, dtype=complex), ctx.n)
    y, K, wt, pref = _transform_kernel(ctx, X, rule)
    return pref * ((K * u(y)) @ wt)


def _gaussian_width(ctx: SpaceContext, sigma: float) -> tuple:
    """M^-1 and det(M)^(1/2) of M = I/sigma^2 - (i/h) C, the parts of the
    closed-form transform that depend on the probe's width alone.  The
    root is the product of the principal roots over the eigenvalues of M,
    the branch continuous from the real case."""
    M = np.eye(ctx.n) / sigma ** 2 - (1j / ctx.h) * ctx.phase.C
    return np.linalg.inv(M), np.prod(np.sqrt(np.linalg.eigvals(M)))


def _gaussian_transform(ctx: SpaceContext, X, y0, sigma, p0, amp,
                        width=None):
    """e^{-Phi(X)/h} (Tu)(X) for u = amp exp(i<p0, y> - <y - y0, y - y0> /
    (2 sigma^2)), in closed form and analytic in y0 and p0, so complex too.

    The integrand exp([i phi(X, y) - Phi(X)]/h) u(y) is the Gaussian
    exp(-y.My/2 + J.y + c0) in y, with M = I/sigma^2 - (i/h) C (complex
    symmetric, Re M > 0) and J = (i/h) B^T X + i p0 + y0/sigma^2, so the
    integral is (2 pi)^(n/2) det(M)^(-1/2) exp(c0 + J.M^-1 J/2).  Stacks
    of parameters, y0 and p0 of shape (..., n) and amp of shape (...),
    broadcast against the points X of shape (..., n), so one call
    evaluates many Gaussians of one width; `width` is that width's
    `_gaussian_width`, formed here unless passed in.
    """
    X = _as_points(np.asarray(X, dtype=complex), ctx.n)
    ph, h, s2 = ctx.phase, ctx.h, sigma ** 2
    Minv, root = _gaussian_width(ctx, sigma) if width is None else width
    J = (1j / h) * (X @ ph.B) + (1j * p0 + y0 / s2)
    expo = (
        (0.5j * _qform(X, ph.A, X) - phi_weight(ctx, X)) / h
        - np.sum(y0 * y0, axis=-1) / (2.0 * s2)
        + 0.5 * _qform(J, Minv, J)
    )
    pref = (amp * ctx.Cphi * h ** (-0.75 * ctx.n)
            * (2.0 * np.pi) ** (ctx.n / 2.0) / root)
    return pref * np.exp(expo)


def projector_apply_weighted(ctx: SpaceContext, fw, X,
                             rule: QuadratureRule, symbol=None) -> np.ndarray:
    """e^{-Phi(X)/h} Pi(b f)(X) with Pi the reproducing projector.

    On the nodes Y = X + R^-1 V of the sigma^2 = h grid the weighted
    kernel exp([2 Psi(X, Ybar) - Phi(X) - Phi(Y)]/h + |V|^2/h) has unit
    modulus, so the application is as stable as fw itself.  `symbol`
    multiplies under the integral and turns the projector into the
    compression of multiplication by it.
    """
    X = _as_points(np.asarray(X, dtype=complex), ctx.n)
    V, wt = complex_grid(rule, ctx.n, np.sqrt(ctx.h))
    Y = X[..., np.newaxis, :] + (ctx.Rinv @ V).T
    expo = (2.0 * psi(ctx, X[..., np.newaxis, :], np.conj(Y))
            - phi_weight(ctx, X)[..., np.newaxis] - phi_weight(ctx, Y)
            + np.sum(np.abs(V.T) ** 2, axis=-1)) / ctx.h
    vals = np.exp(expo) * np.asarray(fw(Y), dtype=complex)
    if symbol is not None:
        vals = vals * eval_symbol(symbol, Y)
    return (2.0 / (np.pi * ctx.h)) ** ctx.n * (vals @ wt)


def _kernel_shifts(ctx: SpaceContext, lams: np.ndarray, X: np.ndarray):
    """The shifted points X + a_t, shape (T, ..., n), and the factors
    exp(E_t), shape (T, ...), for the frequencies lams of shape (T, n) at
    the points X of shape (..., n): with fw = e^{-Phi/h} f for f in the
    space, e^{-Phi(X)/h} Pi(e^{i Re<., lam_t>} f)(X) = exp(E_t) fw(X + a_t).

    A term e^{i Re<Y, lam>} is e^{(i/2)<Y, lam>} e^{(i/2)<Ybar, conj(lam)>};
    with a = (ih/4) (Phi''_XXbar)^-T conj(lam) = (ih/4) R^-1 conj(mu),
    mu = `freq_image(lam)`, the second half moves the kernel,
    2 Psi(X, Ybar)/h + (i/2)<Ybar, conj(lam)> = 2 Psi(X + a, Ybar)/h
    - (2<a, Phi''_XX X> + <a, Phi''_XX a>)/h, and Pi fixes the holomorphic
    e^{(i/2)<Y, lam>} f.  So
    E = (i/2)<X + a, lam> - (2<a, Phi''_XX X> + <a, Phi''_XX a>)/h
    + (Phi(X + a) - Phi(X))/h: the Toeplitz composition law (Berger-Coburn,
    Trans. AMS 301, 1987) for the weight Phi, with no quadrature.
    """
    a = (0.25j * ctx.h) * (np.conj(freq_image(ctx, lams)) @ ctx.Rinv.T)
    a = a.reshape(a.shape[:1] + (1,) * (X.ndim - 1) + a.shape[1:])
    Xa = X + a
    aPhi = a @ ctx.PhiXX.T  # the rows Phi''_XX a_t
    expo = 0.5j * np.sum(Xa * lams.reshape(a.shape), axis=-1) + (
        phi_weight(ctx, Xa) - phi_weight(ctx, X)
        - 2.0 * np.sum(X * aPhi, axis=-1) - np.sum(a * aPhi, axis=-1)
    ) / ctx.h
    return Xa, np.exp(expo)


def _weyl_gaussian(h: float, c, p, q, u: GaussianTestFn) -> tuple:
    """(y0, sigma, p0, amp) of c Op^w(e^{i(<x,p> + <q,xi>)}) u, the
    Gaussian c e^{i<x,p> + ih<q,p>/2} u(x + hq), complex with p, q; one
    Gaussian per row of the stacks c (T,), p and q (T, n)."""
    return (u.y0 - h * q, u.sigma, u.p0 + p,
            c * u.amp * np.exp(0.5j * h * np.sum(q * p, axis=-1)
                               + 1j * h * (q @ u.p0)))


def _egorov_sides(ctx: SpaceContext, symbols, gaussians, X) -> tuple:
    """Both sides of the Egorov identity at the points X, flattened to
    (npts, n): arrays (lhs, rhs) of shape (len(symbols), len(gaussians),
    npts).  The terms of every symbol are stacked in order once; one
    `heat.heat_damping` call damps them to the half-time flow and one
    `cotangent_frequencies` call pulls their rows back to T*R^n, so both
    sides read the same term list.  Per probe one closed-form transform
    gives the left side at every term's shifted points X + a_t and one
    more the right side for every term's Weyl image, both with the
    probe's one `_gaussian_width`, and each symbol sums its contiguous
    range of terms."""
    # reading c and lam refuses a callable before any transform
    c = np.concatenate([np.zeros(0), *(b.c for b in symbols)])
    lams = np.concatenate([np.zeros((0, ctx.n)), *(b.lam for b in symbols)])
    if not all(isinstance(u, GaussianTestFn) for u in gaussians):
        raise UnsupportedSymbol(
            "the Egorov identity is closed-form only for Gaussian probes"
        )
    X = _as_points(np.asarray(X, dtype=complex), ctx.n).reshape(-1, ctx.n)
    cr = c * heat.heat_damping(ctx, lams, 0.5)
    p, q = cotangent_frequencies(ctx, lams)
    Xa, E = _kernel_shifts(ctx, lams, X)
    cE = c[:, np.newaxis] * E
    ends = np.cumsum([0] + [len(b.c) for b in symbols])
    shape = (len(symbols), len(gaussians), X.shape[0])
    lhs, rhs = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for g, u in enumerate(gaussians):
        width = _gaussian_width(ctx, u.sigma)
        left = cE * _gaussian_transform(ctx, Xa, u.y0, u.sigma, u.p0,
                                        u.amp, width)
        y0, sigma, p0, amp = _weyl_gaussian(ctx.h, cr, p, q, u)
        right = _gaussian_transform(ctx, X, y0[:, np.newaxis], sigma,
                                    p0[:, np.newaxis], amp[:, np.newaxis],
                                    width)
        for j, (lo, hi) in enumerate(zip(ends, ends[1:])):
            lhs[j, g] = np.sum(left[lo:hi], axis=0)
            rhs[j, g] = np.sum(right[lo:hi], axis=0)
    return lhs, rhs


def egorov_points(ctx: SpaceContext, gaussians) -> np.ndarray:
    """Points of C^n where the transform of each Gaussian probe lives:
    X = kappa_T(y0 + sigma s, h p0 + sqrt(h) t) at (s, t) = 0 and at +-1
    on each of the 2n real axes, 1 + 4n per probe, stacked in probe order.
    The probe sits near (y0, h p0) in T*R^n, so its transform stays O(1)
    near the image of that point at every h (the FBI picture of Sjostrand,
    Asterisque 95, 1982), while on a fixed box it underflows."""
    n = ctx.n
    st = np.concatenate([np.zeros((1, 2 * n)), np.eye(2 * n), -np.eye(2 * n)])
    return np.concatenate([
        kappa_T(ctx, u.y0 + u.sigma * st[:, :n],
                ctx.h * u.p0 + np.sqrt(ctx.h) * st[:, n:])[0]
        for u in gaussians])


def egorov_guillemin_check(ctx: SpaceContext, symbols, gaussians,
                           X) -> np.ndarray:
    """Max relative deviation over the points X (`egorov_points` in the
    suite), for every symbol b and Gaussian u, between the two routes from
    (b, u) to a function on C^n: compressing multiplication after
    transforming, versus transforming after applying the matching
    real-side Weyl operator.  Returns shape (len(symbols), len(gaussians)).

    The real-side symbol is the pull-back to T*R^n of the half-time heat
    flow of b (`cotangent_frequencies`); each term is a plane wave in
    (x, xi) that maps u to a Gaussian (`_weyl_gaussian`).  The left side
    is the composition law of `_kernel_shifts` on the closed-form
    transform of u, the right side the sum of the terms' closed-form
    transforms.  Both are evaluated for all symbols at once, two
    transform evaluations per probe (`_egorov_sides`).
    """
    lhs, rhs = _egorov_sides(ctx, tuple(symbols), tuple(gaussians), X)
    return np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)), axis=-1,
                  initial=0.0)
