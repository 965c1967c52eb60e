"""Independent references the tests compare the package against.

None is on any verdict path: `canonical_terms` is the pair-by-pair
canonical form that `symbols.PlaneWaveSum` builds on arrays; the
`*_per_term` functions walk a plane-wave sum one term at a time where
`symbols.eval_symbol`, `heat.sw_diagnostic`, `heat.sw_l1_box`,
`heat.sw_l1_exact` and the right-hand side of
`operators.diagonal_sum_check` read its arrays at once;
`factor_seeds` maps a physical one-axis factor to the recurrence seeds
that `operators._terms` forms for whole operators at once;
`real_weyl_planewave_apply` is the closed-form real-side Weyl operator
that `bargmann._weyl_gaussian` folds into Gaussian parameters,
`egorov_sides_per_term` evaluates both sides of the Egorov identity one
transform per (symbol term, probe), as the check did before it stacked
them, `wirtinger_fd` differentiates any function numerically, for checks
of Q and the bracket, and `u_alpha_eval` evaluates the graded monomial
basis of H_Phi pointwise in the unreduced X frame, which the
compressions never do.

`legacy_random_phase` is the rejection sampler that gave the seeded
phases before they were built by construction; the tests draw their
fixture phases from it, and `legacy_phase_block` writes one as the
explicit config block that reproduces it bit for bit.
"""

import math
from functools import lru_cache

import numpy as np

from btlab.bargmann import (
    GaussianTestFn, _gaussian_transform, gaussian_transform_weighted,
)
from btlab.errors import UnsupportedSymbol
from btlab.geometry import (
    PhaseMatrices, _as_points, _qform, freq_image, phi_weight,
)
from btlab.heat import heat_damping, heat_flow
from btlab.symbols import cotangent_frequencies


def canonical_terms(terms, n: int) -> tuple:
    """The canonical form of the (coefficient, frequency) pairs `terms` on
    C^n, one pair at a time: equal frequencies merged in term order (the
    coefficients summed, the last frequency kept), terms at or below 1e-14
    of the largest |c| dropped, the rest sorted by (Re, Im) of each
    coordinate in turn.  Returns ((complex, ndarray (n,)), ...)."""
    merged: dict = {}
    for c, lam in terms:
        lam = np.asarray(lam, dtype=complex).reshape(n)
        key = tuple(zip(lam.real.tolist(), lam.imag.tolist()))
        if key in merged:
            merged[key] = (merged[key][0] + complex(c), lam)
        else:
            merged[key] = (complex(c), lam)
    scale = max((abs(c) for c, _ in merged.values()), default=0.0)
    kept = [
        (key, c, lam)
        for key, (c, lam) in merged.items()
        if abs(c) > 1e-14 * scale
    ]
    kept.sort(key=lambda item: item[0])
    return tuple((c, lam) for _, c, lam in kept)


def eval_symbol_per_term(b, X):
    """`symbols.eval_symbol` of a plane-wave sum, one term at a time."""
    X = _as_points(X, b.n)
    out = np.zeros(X.shape[:-1], dtype=complex)
    for c, lam in zip(b.c, b.lam):
        out = out + c * np.exp(1j * np.real(X @ lam))
    return out


def sw_diagnostic_per_term(ctx, b, lam_grid):
    """`heat.sw_diagnostic`, one damping call per term."""
    lam = _as_points(lam_grid, ctx.n)
    g = sum(abs(c) * heat_damping(ctx, lam + lam_j, 1.0)
            for c, lam_j in zip(b.c, b.lam))
    return g * heat_damping(ctx, lam, 1.0)


def sw_l1_box_per_term(ctx, b, lo, hi, step):
    """`heat.sw_l1_box`, the 2n axis sums of one term at a time."""
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


def sw_l1_exact_per_term(ctx, b):
    """`heat.sw_l1_exact`, one damping call per term."""
    jac = np.float64(4.0 * np.pi / ctx.h) ** ctx.n  # inf past float range
    jac = abs(np.linalg.det(ctx.R)) ** 2 * jac
    return float(jac * sum(abs(c) * heat_damping(ctx, lam, 0.5)
                           for c, lam in zip(b.c, b.lam)))


def diagonal_sum_rhs_per_term(ctx, b, ks):
    """The right-hand sides sum_j c_j(1) L_k^(n-1)(x_j) of
    `operators.diagonal_sum_check` for each k in ks, one frequency image
    and one product per term."""
    flowed = heat_flow(ctx, b, 1.0)
    x = np.array([ctx.h * np.sum(np.abs(freq_image(ctx, lam)) ** 2) / 8.0
                  for lam in flowed.lam])
    a = ctx.n - 1
    lag = [np.ones_like(x), 1.0 + a - x]  # L_k^(a)(x) by the recurrence
    for j in range(1, max(ks)):
        lag.append(((2 * j + 1 + a - x) * lag[j] - (j + a) * lag[j - 1])
                   / (j + 1))
    return [complex(sum(c * L for c, L in zip(flowed.c, lag[k])))
            for k in ks]


def factor_seeds(h, shift, mu, nu):
    """The seeds (alpha, gamma, w) of `basis.axis_matrices` for the
    one-axis factor e^{i Re(x mu) + nu x} v(x - shift) of x = r z,
    r = sqrt(h/2), in Python scalars: it is e^{alpha z + beta conj(z)}
    v(z - shift/r) with alpha = (i mu/2 + nu) r and beta = (i/2) conj(mu)
    r, so gamma = beta - shift/r and w = e^{alpha beta}.  A plane wave's
    factor is (0, mu_d, 0), a translation's (c_d, 0, (2/h) conj(c_d))."""
    r = math.sqrt(h / 2.0)
    alpha = (0.5j * mu + nu) * r
    beta = 0.5j * np.conj(mu) * r
    return complex(alpha), complex(beta - shift / r), complex(
        np.exp(alpha * beta))


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
        bt = heat_flow(ctx, b, 0.5)
        freqs = list(zip(bt.c, *cotangent_frequencies(ctx, bt.lam)))
        for g, u in enumerate(gaussians):
            left = np.zeros(X.shape[0], dtype=complex)
            for c, lam in zip(b.c, b.lam):
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


# Largest n `legacy_random_phase` draws for; see its docstring.
MAX_RANDOM_N = 5
# Most draws `legacy_random_phase` tests at once: 4096 x 6 x 5 x 5
# normals at n = 5 are 4.9 MB.
_MAX_DRAW_BATCH = 4096


@lru_cache(maxsize=16)
def legacy_random_phase(n: int, seed: int) -> PhaseMatrices:
    """Seeded random admissible phase with moderate conditioning.

    C_I = L L^T + I/2 is positive definite and A, C are symmetric by
    construction; the draw is rejection-sampled until |det B| >= 0.3,
    cond(B) <= 8 and the eigenvalues of the derived Phi''_XXbar sit in
    [0.2, 3.0].  The acceptance rate falls fast with n: some seeds need
    60,000 draws at n = 5, and seed 7 finds none in 400,000 at n = 6, so
    n >= 6 is refused with ValueError before the first draw.  Draws come
    in batches from one normal stream and are tested together; the first
    that passes is the one a draw-at-a-time loop would return.
    """
    if n > MAX_RANDOM_N:
        raise ValueError(f"random phases are drawn for n <= {MAX_RANDOM_N}, "
                         f"got n = {n}")
    rng = np.random.default_rng(seed)
    k = 8
    while True:
        # per draw, in stream order: S, T, Re B, Im B, Sc, L
        draws = rng.normal(size=(k, 6, n, n))
        B = draws[:, 2] + 1j * draws[:, 3]
        keep = np.flatnonzero((np.abs(np.linalg.det(B)) >= 0.3)
                              & (np.linalg.cond(B) <= 8))
        L = draws[keep, 5]
        ew, ev = np.linalg.eigh(L @ L.swapaxes(1, 2) + 0.5 * np.eye(n))
        CIinvsqrt = (ev / np.sqrt(ew)[:, None, :]) @ ev.swapaxes(1, 2)
        Bk = B[keep]
        ew = np.linalg.eigvalsh(
            Bk @ (CIinvsqrt @ CIinvsqrt) @ Bk.conj().swapaxes(1, 2) / 4)
        keep = keep[(ew.min(axis=1) >= 0.2) & (ew.max(axis=1) <= 3)]
        if keep.size:
            S, T, Br, Bi, Sc, L = draws[keep[0]]
            A = 0.5 * ((S + S.T) / 2 + 1j * (T + T.T) / 2)
            C = 0.5 * (Sc + Sc.T) / 2 + 1j * (L @ L.T + 0.5 * np.eye(n))
            return PhaseMatrices(n, A, Br + 1j * Bi, C)
        k = min(2 * k, _MAX_DRAW_BATCH)


def legacy_phase_block(n: int, seed: int) -> dict:
    """The explicit config phase block {"n", "A", "B", "C"} of
    `legacy_random_phase(n, seed)`: JSON writes each float as its shortest
    repr, so the block parses back to the same bits."""
    phase = legacy_random_phase(n, seed)
    return {"n": n, **{k: np.stack([M.real, M.imag], axis=-1).tolist()
                       for k, M in zip("ABC", (phase.A, phase.B, phase.C))}}
