"""Independent references the tests compare the package against.

None is on any verdict path: `real_weyl_planewave_apply` is the
closed-form real-side Weyl operator that `bargmann._weyl_gaussian` folds
into Gaussian parameters, `egorov_sides_per_term` evaluates both sides of
the Egorov identity one transform per (symbol term, probe), as the check
did before it stacked them, `wirtinger_fd` differentiates any function
numerically, for checks of Q and the bracket, and `u_alpha_eval`
evaluates the graded monomial basis of H_Phi pointwise in the unreduced
X frame, which the compressions never do.
"""

import math

import numpy as np

from btlab.bargmann import (
    GaussianTestFn, _gaussian_transform, gaussian_transform_weighted,
)
from btlab.errors import UnsupportedSymbol
from btlab.geometry import _as_points, _qform, freq_image, phi_weight
from btlab.heat import heat_flow
from btlab.symbols import cotangent_frequencies


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


def egorov_sides_per_term(ctx, symbols, gaussians, X):
    """(lhs, rhs) of `bargmann._egorov_sides`, shape (len(symbols),
    len(gaussians), npts), with one closed-form transform per term and
    probe: the composition law applied term by term on the left, and on
    the right one transform per Weyl image c e^{i<x,p> + ih<q,p>/2}
    u(x + hq) of the pulled-back terms."""
    h = ctx.h
    X = _as_points(np.asarray(X, dtype=complex), ctx.n).reshape(-1, ctx.n)
    shape = (len(symbols), len(gaussians), X.shape[0])
    lhs, rhs = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    phi = phi_weight(ctx, X)
    for j, b in enumerate(symbols):
        freqs = cotangent_frequencies(ctx, heat_flow(ctx, b, 0.5))
        for g, u in enumerate(gaussians):
            left = np.zeros(X.shape[0], dtype=complex)
            for c, lam in b.terms:
                a = (0.25j * h) * (ctx.Rinv @ np.conj(freq_image(ctx, lam)))
                Xa = X + a
                expo = 0.5j * (Xa @ lam) + (
                    phi_weight(ctx, Xa) - phi
                    - 2.0 * (X @ (ctx.PhiXX @ a)) - a @ ctx.PhiXX @ a
                ) / h
                left = left + c * np.exp(expo) * gaussian_transform_weighted(
                    ctx, u, Xa)
            right = np.zeros(X.shape[0], dtype=complex)
            for c, p, q in freqs:
                amp = c * u.amp * np.exp(0.5j * h * (q @ p)
                                         + 1j * h * (u.p0 @ q))
                right = right + _gaussian_transform(
                    ctx, X, u.y0 - h * q, u.sigma, u.p0 + p, amp)
            lhs[j, g], rhs[j, g] = left, right
    return lhs, rhs


def wirtinger_fd(f, X: np.ndarray, step: float):
    """Central finite-difference Wirtinger gradients of f at one point.

    Returns (d/dX f, d/dXbar f), each of shape (n,).
    """
    n = X.shape[0]
    dX = np.empty(n, dtype=complex)
    dXb = np.empty(n, dtype=complex)
    for d in range(n):
        e = np.zeros(n, dtype=complex)
        e[d] = 1.0
        fu = (f(X + step * e) - f(X - step * e)) / (2 * step)
        fv = (f(X + 1j * step * e) - f(X - 1j * step * e)) / (2 * step)
        dX[d] = 0.5 * (fu - 1j * fv)
        dXb[d] = 0.5 * (fu + 1j * fv)
    return dX, dXb


def _log_norm(ctx, alpha) -> float:
    """log of the u_alpha normalization constant, computed in log space."""
    deg = sum(alpha)
    val = math.log(ctx.CPhi) - ctx.n * math.log(ctx.h)
    val += deg * math.log(2.0 / ctx.h)
    val -= sum(math.lgamma(a + 1) for a in alpha)
    return 0.5 * val


def u_alpha_eval(ctx, alpha, X):
    """Pointwise basis element u_alpha(X); X batched with coordinates last."""
    X = _as_points(X, ctx.n)
    W = X @ ctx.R.T
    mono = np.ones(X.shape[:-1], dtype=complex)
    for d, a in enumerate(alpha):
        if a:
            mono = mono * W[..., d] ** a
    gauss = np.exp(_qform(X, ctx.PhiXX, X) / ctx.h)
    return math.exp(_log_norm(ctx, alpha)) * mono * gauss
