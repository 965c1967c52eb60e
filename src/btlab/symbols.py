"""Symbols on C^n and their differential calculus.

Two symbol variants exist.  Finite plane-wave sums

    b(X) = sum_j c_j exp(i Re<X, lambda_j>),   lambda_j in C^n,

are the only symbols the calculus accepts.  A `PlaneWaveSum` stores them
as one coefficient vector c of shape (T,) and one array lam of shape
(T, n) of frequency rows, canonical on construction, so the sum is an
l^1 sequence over a finite set of frequencies.  Products, the bilinear
form Q, the bracket, translation, heat flow, the sup norm and the
pull-back to T*R^n (`cotangent_frequencies`) all act on those arrays in
closed form, products and Q as broadcasts over the term pairs, so every
operation the theorems need stays exact.
The pairing <X, lambda> = sum X_d lambda_d is bilinear (no conjugation);
Re<X, lambda> is real even for complex frequencies, so plane waves always
have modulus one.  These sums are the building blocks of Sjostrand's
Wiener-type symbol algebra, the class the paper's estimates are stated in.

Callable symbols are references only: they can be evaluated and
heat-flowed by quadrature, which gives the closed forms an independent
check.  Every operation of the calculus reads `c` or `lam`, which a
`CallableSymbol` refuses with UnsupportedSymbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteSample, UnsupportedSymbol
from .geometry import SpaceContext, _as_points, freq_image, freq_pairing

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


@dataclass(frozen=True)
class PlaneWaveSum:
    """Canonical finite sum of plane waves: coefficients c of shape (T,)
    and frequency rows lam of shape (T, n), both read-only.

    Construction merges equal frequencies in term order (the coefficients
    summed, the last row kept), drops the terms below _DROP_TOL of the
    largest |c| and sorts the rows by (Re, Im) of each coordinate in turn.
    """

    n: int
    c: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex).reshape(-1)
        lam = np.ascontiguousarray(self.lam, dtype=complex)
        if lam.shape != (c.size, self.n):
            raise ValueError(f"{c.size} coefficients need frequency rows of"
                             f" shape ({c.size}, {self.n}), got {lam.shape}")
        merged = {}  # frequency key -> (summed coefficient, last row index)
        keys = map(tuple, lam.view(float).tolist())
        for k, (ck, key) in enumerate(zip(c.tolist(), keys)):
            merged[key] = (merged[key][0] + ck, k) if key in merged else (ck, k)
        tol = _DROP_TOL * max((abs(v) for v, _ in merged.values()), default=0)
        kept = sorted((key, k) for key, (v, k) in merged.items()
                      if abs(v) > tol)
        c = np.array([merged[key][0] for key, _ in kept], dtype=complex)
        lam = lam.take([k for _, k in kept], axis=0) if kept else lam[:0]
        for name, arr in (("c", c), ("lam", lam)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _refused(self):
    raise UnsupportedSymbol(
        "the calculus needs plane-wave sums; callable symbols are"
        " references only"
    )


@dataclass(frozen=True)
class CallableSymbol:
    """Black-box reference symbol.  `func` maps points of shape (..., n) to
    values of shape (...)."""

    n: int
    func: Callable

    c = lam = property(_refused, doc="Refused: only plane-wave sums have"
                                     " coefficients and frequencies.")


def plane_wave_sum(terms, n: int = 1) -> PlaneWaveSum:
    """The plane-wave sum of the (coefficient, frequency) pairs `terms`."""
    terms = list(terms)
    lam = np.empty((len(terms), n), dtype=complex)
    for k, (_, freq) in enumerate(terms):
        lam[k] = _freq(freq, n)
    return PlaneWaveSum(n, [c for c, _ in terms], lam)


def constant_symbol(value, n: int = 1) -> PlaneWaveSum:
    return PlaneWaveSum(n, [value], np.zeros((1, n)))


def cosine_symbol(lam, n: int = 1) -> PlaneWaveSum:
    """cos(Re<X, lam>) as an exact two-term sum."""
    lam = _freq(lam, n)
    return PlaneWaveSum(n, [0.5, 0.5], [lam, -lam])


def sine_symbol(lam, n: int = 1) -> PlaneWaveSum:
    """sin(Re<X, lam>) as an exact two-term sum."""
    lam = _freq(lam, n)
    return PlaneWaveSum(n, [-0.5j, 0.5j], [lam, -lam])


def eval_symbol(b, X):
    """Pointwise values of a symbol; X batched with coordinates last."""
    X = _as_points(X, b.n)
    if isinstance(b, PlaneWaveSum):
        return np.exp(1j * np.real(X @ b.lam.T)) @ b.c
    vals = np.asarray(b.func(X), dtype=complex)
    if vals.shape != X.shape[:-1]:
        raise ValueError(
            f"callable symbol returned shape {vals.shape} for points of shape"
            f" {X.shape}; expected {X.shape[:-1]}"
        )
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSample("callable symbol returned NaN/Inf")
    return vals


def _pair_sum(a, b, c) -> PlaneWaveSum:
    """sum_jk c[j, k] exp(i Re<X, lam_j + mu_k>) over the term pairs of a
    (frequencies lam_j) and b (mu_k), a's index major."""
    lam = a.lam[:, np.newaxis] + b.lam
    return PlaneWaveSum(a.n, c.reshape(-1), lam.reshape(-1, a.n))


def multiply(a, b):
    """Pointwise product."""
    return _pair_sum(a, b, a.c[:, np.newaxis] * b.c)


def translate(b, lam):
    """b(. + lam)."""
    lam = _freq(lam, b.n)
    return PlaneWaveSum(b.n, b.c * np.exp(1j * np.real(b.lam @ lam)), b.lam)


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
    if len(b.c) < 2:
        return np.zeros((1, b.n), dtype=complex)
    dl = b.lam[1:] - b.lam[0]
    rows = np.concatenate([dl.real, -dl.imag], axis=1)
    rhs = np.angle(b.c[0]) - np.angle(b.c[1:])
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
    value = float(sum(map(abs, b.c.tolist())))
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
    pair = freq_pairing(ctx, a.lam, b.lam)
    return _pair_sum(a, b, -0.25 * pair * a.c[:, np.newaxis] * b.c)


def poisson(ctx: SpaceContext, a, b):
    """Bracket {a, b} = i Q(a, b) - i Q(b, a)."""
    qab = q_form(ctx, a, b)
    qba = q_form(ctx, b, a)
    return PlaneWaveSum(ctx.n, np.concatenate([1j * qab.c, -1j * qba.c]),
                        np.concatenate([qab.lam, qba.lam]))


# ---------------------------------------------------------------------------
# pull-back to the real cotangent bundle


def cotangent_frequencies(ctx: SpaceContext, lam) -> tuple:
    """Pull frequency rows lam of shape (T, n) back to T*R^n: rows (p, q),
    each of shape (T, n), with e^{i Re<X(x, xi), lam_t>} =
    e^{i(<x, p_t> + <xi, q_t>)} at real (x, xi), so a term keeps its
    coefficient.  The canonical maps are formed once for all rows.

    The wave e^{i Re<X, lam>} polarizes to exp((i/2)(<X, lam> +
    <Y, lambar>)), holomorphic in (X, Y) and equal to it at Y = Xbar.
    Y(X, theta) is the unique point with theta = (2/i)(Phi''_XXbar Y +
    Phi''_XX X); on the graph theta = Theta(X) of the weight it is Xbar.
    The canonical map kappa_T (x, xi) -> (X, Theta) = (P x + Q xi,
    B x + A X) lands on that graph, so Y = G (Kx x + Kxi xi),
    G = (Phi''_XXbar)^-1, is linear too, and the polarized exponent is
    i(<x, p> + <xi, q>); G^T lambar is R^-1 conj(mu), mu = R^-T lam, as
    in `bargmann._kernel_shifts`.
    """
    A, B, P, Q = ctx.phase.A, ctx.phase.B, ctx.P, ctx.Q
    Kx = 0.5j * (B + A @ P) - ctx.PhiXX @ P
    Kxi = 0.5j * (A @ Q) - ctx.PhiXX @ Q
    lb = np.conj(freq_image(ctx, lam)) @ ctx.Rinv.T  # rows G^T lambar
    return 0.5 * (lam @ P + lb @ Kx), 0.5 * (lam @ Q + lb @ Kxi)
