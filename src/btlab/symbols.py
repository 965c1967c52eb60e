"""Symbols on C^n and their differential calculus.

Two symbol variants exist.  Finite plane-wave sums

    b(X) = sum_j c_j exp(i Re<X, lambda_j>),   lambda_j in C^n,

are the only symbols the calculus accepts: products, the bilinear form Q,
the bracket, translation, heat flow, the sup norm and the pull-back to
T*R^n (`cotangent_frequencies`) all act on the terms in closed form, so
every operation the theorems need stays exact.
The pairing <X, lambda> = sum X_d lambda_d is bilinear (no conjugation);
Re<X, lambda> is real even for complex frequencies, so plane waves always
have modulus one.  These sums are the building blocks of Sjostrand's
Wiener-type symbol algebra, the class the paper's estimates are stated in.

Callable symbols are references only: they can be evaluated and
heat-flowed by quadrature, which gives the closed forms an independent
check.  Every operation of the calculus reads `terms`, which a
`CallableSymbol` refuses with UnsupportedSymbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .errors import NonFiniteSample, UnsupportedSymbol
from .geometry import (
    SpaceContext, _as_points, freq_image, freq_pairing, kappa_affine,
)

__all__ = [
    "PlaneWaveSum",
    "CallableSymbol",
    "plane_wave_sum",
    "constant_symbol",
    "cosine_symbol",
    "sine_symbol",
    "eval_symbol",
    "multiply",
    "translate",
    "sup_norm",
    "q_form",
    "poisson",
    "cotangent_frequencies",
]

_DROP_TOL = 1e-14


def _freq(lam, n: int) -> np.ndarray:
    lam = np.asarray(lam, dtype=complex)
    if lam.ndim == 0:
        lam = lam[np.newaxis]
    if lam.shape != (n,):
        raise ValueError(f"frequency must have shape ({n},)")
    return lam


def _canonicalize(terms, n: int):
    merged: dict = {}
    for c, lam in terms:
        lam = _freq(lam, n)
        key = tuple(zip(lam.real.tolist(), lam.imag.tolist()))
        if key in merged:
            merged[key] = (merged[key][0] + complex(c), lam)
        else:
            merged[key] = (complex(c), lam)
    scale = max((abs(c) for c, _ in merged.values()), default=0.0)
    kept = [
        (key, c, lam)
        for key, (c, lam) in merged.items()
        if abs(c) > _DROP_TOL * scale
    ]
    kept.sort(key=lambda item: item[0])
    return tuple((c, lam) for _, c, lam in kept)


@dataclass(frozen=True)
class PlaneWaveSum:
    """Canonicalized finite sum of plane waves."""

    n: int
    terms: tuple  # of (complex coefficient, frequency ndarray (n,))

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonicalize(self.terms, self.n))


@dataclass(frozen=True)
class CallableSymbol:
    """Black-box reference symbol.  `func` maps points of shape (..., n) to
    values of shape (...)."""

    n: int
    func: Callable

    @property
    def terms(self):
        """Refused: only plane-wave sums have terms."""
        raise UnsupportedSymbol(
            "the calculus needs plane-wave sums; callable symbols are"
            " references only"
        )


def plane_wave_sum(terms, n: int = 1) -> PlaneWaveSum:
    return PlaneWaveSum(n=n, terms=tuple(terms))


def constant_symbol(value, n: int = 1) -> PlaneWaveSum:
    return PlaneWaveSum(n=n, terms=((value, np.zeros(n)),))


def cosine_symbol(lam, n: int = 1) -> PlaneWaveSum:
    """cos(Re<X, lam>) as an exact two-term sum."""
    lam = _freq(lam, n)
    return PlaneWaveSum(n=n, terms=((0.5, lam), (0.5, -lam)))


def sine_symbol(lam, n: int = 1) -> PlaneWaveSum:
    """sin(Re<X, lam>) as an exact two-term sum."""
    lam = _freq(lam, n)
    return PlaneWaveSum(n=n, terms=((-0.5j, lam), (0.5j, -lam)))


def _pw_eval(b: PlaneWaveSum, X: np.ndarray) -> np.ndarray:
    out = np.zeros(X.shape[:-1], dtype=complex)
    for c, lam in b.terms:
        out = out + c * np.exp(1j * np.real(X @ lam))
    return out


def eval_symbol(b, X):
    """Pointwise values of a symbol; X batched with coordinates last."""
    X = _as_points(X, b.n)
    if isinstance(b, PlaneWaveSum):
        return _pw_eval(b, X)
    vals = np.asarray(b.func(X), dtype=complex)
    if vals.shape != X.shape[:-1]:
        raise ValueError(
            f"callable symbol returned shape {vals.shape} for points of shape"
            f" {X.shape}; expected {X.shape[:-1]}"
        )
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSample("callable symbol returned NaN/Inf")
    return vals


def multiply(a, b):
    """Pointwise product."""
    terms = [(ca * cb, la + lb)
             for (ca, la), (cb, lb) in product(a.terms, b.terms)]
    return PlaneWaveSum(n=a.n, terms=tuple(terms))


def translate(b, lam):
    """b(. + lam)."""
    lam = _freq(lam, b.n)
    return PlaneWaveSum(
        n=b.n,
        terms=tuple(
            (c * np.exp(1j * np.real(lam @ mu)), mu) for c, mu in b.terms
        ),
    )


def _denominator(a: float) -> int:
    """Least q <= 12 with q a an integer to 1e-12, else 0."""
    for q in range(1, 13):
        if abs(q * a - round(q * a)) <= 1e-12 * q * max(1.0, abs(a)):
            return q
    return 0


def _shifts(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The 2 pi shifts k worth trying, one column per candidate.

    When every dependent row is sum_i (p_i/q_i) rows[keep_i] with
    q_i <= 12 (exact to 1e-12), whether it aligns depends on k_i only
    modulo q_i, so k_i in range(lcm of the q_i) covers every case.
    Otherwise, or past 4096 combinations, k_i in {-2, ..., 2}.
    """
    q = np.ones(len(keep), dtype=int)
    basis = rows[keep].T
    for j in sorted(set(range(len(rows))) - set(keep)):
        coef = np.linalg.lstsq(basis, rows[j], rcond=None)[0]
        dens = [_denominator(a) for a in coef]
        resid = np.max(np.abs(basis @ coef - rows[j]))
        if resid > 1e-12 * max(1.0, np.max(np.abs(rows[j]))) or 0 in dens:
            q = None
            break
        q = np.lcm(q, dens)
    if q is None or np.prod(q) > 4096:
        return np.indices((5,) * len(keep)).reshape(len(keep), -1) - 2
    return np.indices(tuple(q)).reshape(len(keep), -1)


def _witnesses(b: PlaneWaveSum) -> np.ndarray:
    """Candidate phase-alignment points X* in C^n, shape (m, n).

    Every term has the phase of the first at X* when Re<X*, lam_j - lam_1>
    = arg c_1 - arg c_j + 2 pi k_j with k_j integer.  Re<X, lam> is the real
    functional (Re lam, -Im lam) on (Re X, Im X) in R^{2n}: a real linear
    system.  Rows that depend on earlier ones hold wherever those do if any
    k aligns them, so X* solves the others, for the k of `_shifts`.
    """
    if len(b.terms) < 2:
        return np.zeros((1, b.n), dtype=complex)
    c1, l1 = b.terms[0]
    dl = np.array([lam - l1 for _, lam in b.terms[1:]])
    rows = np.concatenate([dl.real, -dl.imag], axis=1)
    rhs = np.array([np.angle(c1) - np.angle(c) for c, _ in b.terms[1:]])
    ranks = [np.linalg.matrix_rank(rows[:i + 1]) for i in range(len(rows))]
    keep = np.flatnonzero(np.diff(ranks, prepend=0))
    k = _shifts(rows, keep)
    x = np.linalg.pinv(rows[keep]) @ (rhs[keep, np.newaxis] + 2 * np.pi * k)
    return (x[:b.n] + 1j * x[b.n:]).T


def sup_norm(b) -> tuple:
    """(value, attained): value = sum_j |c_j| bounds |b| on all of C^n.

    attained is True when b at one of the phase-alignment candidates X*
    reaches the value to 1e-12 relative, so the bound is the exact sup;
    otherwise it is only an upper bound.  Positive factors on the c_j (heat
    damping) and a common shift of the lam_j (modulation) change neither
    the phases nor the differences lam_j - lam_1, so they keep X* a witness.
    """
    value = float(sum(abs(c) for c, _ in b.terms))
    reached = np.max(np.abs(eval_symbol(b, _witnesses(b))))
    return value, bool(abs(reached - value) <= 1e-12 * value)


# ---------------------------------------------------------------------------
# differential calculus


def q_form(ctx: SpaceContext, a, b):
    """Q(a, b) = <d_X a, (Phi''_XbarX)^-1 d_Xbar b> (bilinear pairing).

    Exact for plane-wave sums: the pair (c, lam), (d, mu) contributes
    -1/4 <lam, G mubar> c d exp(i Re<X, lam+mu>) with G = (Phi''_XbarX)^-1,
    and <lam, G mubar> is `freq_pairing(ctx, lam, mu)`.
    """
    terms = [(-0.25 * freq_pairing(ctx, la, lb) * ca * cb, la + lb)
             for (ca, la), (cb, lb) in product(a.terms, b.terms)]
    return PlaneWaveSum(n=ctx.n, terms=tuple(terms))


def poisson(ctx: SpaceContext, a, b):
    """Bracket {a, b} = i Q(a, b) - i Q(b, a)."""
    qab = q_form(ctx, a, b)
    qba = q_form(ctx, b, a)
    terms = tuple((1j * c, lam) for c, lam in qab.terms) + tuple(
        (-1j * c, lam) for c, lam in qba.terms
    )
    return PlaneWaveSum(n=ctx.n, terms=terms)


# ---------------------------------------------------------------------------
# pull-back to the real cotangent bundle


def cotangent_frequencies(ctx: SpaceContext, b) -> list:
    """Pull b back to T*R^n: (c, p, q) per term, with
    b(X(x, xi)) = sum c exp(i(<x, p> + <xi, q>)) at real (x, xi).

    The term (c, lam) polarizes to c exp((i/2)(<X, lam> + <Y, lambar>)),
    holomorphic in (X, Y) and equal to b at Y = Xbar.  Y(X, theta) is the
    unique point with theta = (2/i)(Phi''_XXbar Y + Phi''_XX X); on the
    graph theta = Theta(X) of the weight it is Xbar.  The canonical map
    kappa_T (x, xi) -> (X, Theta) = (P x + Q xi, B x + A X) lands on that
    graph, so Y = G (Kx x + Kxi xi), G = (Phi''_XXbar)^-1, is linear too,
    and the polarized exponent is i(<x, p> + <xi, q>); G^T lambar is
    R^-1 conj(mu), mu = R^-T lam, as in `toeplitz_apply_weighted`.
    """
    return _cotangent_terms(ctx, b.terms)


def _cotangent_terms(ctx: SpaceContext, terms) -> list:
    """(c, p, q) of `cotangent_frequencies` for each (c, lam) of `terms`,
    in order, with kappa_affine and the maps Kx, Kxi formed once."""
    A, B = ctx.phase.A, ctx.phase.B
    P, Q = kappa_affine(ctx)
    Kx = 0.5j * (B + A @ P) - ctx.PhiXX @ P
    Kxi = 0.5j * (A @ Q) - ctx.PhiXX @ Q
    out = []
    for c, lam in terms:
        lb = ctx.Rinv @ np.conj(freq_image(ctx, lam))  # G^T lambar
        p = 0.5 * (P.T @ lam + Kx.T @ lb)
        q = 0.5 * (Q.T @ lam + Kxi.T @ lb)
        out.append((c, p, q))
    return out
