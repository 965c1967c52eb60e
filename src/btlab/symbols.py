"""Symbols on C^n and their differential calculus.

Two symbol variants exist.  Finite plane-wave sums

    b(X) = sum_j c_j exp(i Re<X, lambda_j>),   lambda_j in C^n,

are first-class: they are closed under products, the sesquilinear form Q,
the bracket, the Laplacian, modulation, translation, heat flow and
polarization, so every operation the theorems need stays exact.  The pairing
<X, lambda> = sum X_d lambda_d is bilinear (no conjugation); Re<X, lambda>
is real even for complex frequencies, so plane waves always have modulus one.

Callable symbols are second-class black boxes: calculus on them falls back
to Wirtinger finite differences when a step is declared, and polarization is
refused (it needs analytic structure a closure cannot supply).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteSample, UnsupportedSymbol
from .geometry import SpaceContext, _as_points, kappa_affine

__all__ = [
    "PlaneWaveSum",
    "CallableSymbol",
    "PolarizedPlaneWave",
    "GuilleminSymbol",
    "plane_wave_sum",
    "constant_symbol",
    "cosine_symbol",
    "sine_symbol",
    "eval_symbol",
    "multiply",
    "conjugate_symbol",
    "is_real_valued",
    "modulate",
    "translate",
    "q_form",
    "poisson",
    "laplace",
    "polarize",
    "guillemin_symbol",
    "wirtinger_fd",
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
    """Black-box symbol; membership in the symbol classes is declared by the
    caller, calculus needs `fd_step` to be set."""

    n: int
    func: Callable
    declared_bounded: bool = False
    declared_in_T: bool = False
    fd_step: Optional[float] = None


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
    try:
        vals = np.asarray(b.func(X), dtype=complex)
        ok = vals.shape == X.shape[:-1]
    except Exception:
        ok = False
    if not ok:
        # non-vectorized callable: sample one point at a time
        flat = X.reshape(-1, b.n)
        vals = np.array([complex(b.func(p)) for p in flat], dtype=complex)
        vals = vals.reshape(X.shape[:-1])
    if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
        raise NonFiniteSample("callable symbol returned NaN/Inf")
    return vals


def multiply(a, b):
    """Pointwise product; exact for plane-wave sums."""
    if isinstance(a, PlaneWaveSum) and isinstance(b, PlaneWaveSum):
        terms = [
            (ca * cb, la + lb) for ca, la in a.terms for cb, lb in b.terms
        ]
        return PlaneWaveSum(n=a.n, terms=tuple(terms))
    n = a.n
    return CallableSymbol(
        n=n,
        func=lambda X: eval_symbol(a, X) * eval_symbol(b, X),
        declared_bounded=_bounded(a) and _bounded(b),
        declared_in_T=_in_T(a) and _in_T(b),
        fd_step=_fd_step(a) or _fd_step(b),
    )


def _bounded(b) -> bool:
    return isinstance(b, PlaneWaveSum) or b.declared_bounded


def _in_T(b) -> bool:
    return isinstance(b, PlaneWaveSum) or b.declared_in_T


def _fd_step(b) -> Optional[float]:
    return None if isinstance(b, PlaneWaveSum) else b.fd_step


def conjugate_symbol(b: PlaneWaveSum) -> PlaneWaveSum:
    if not isinstance(b, PlaneWaveSum):
        raise UnsupportedSymbol("conjugation is closed-form only")
    return PlaneWaveSum(
        n=b.n, terms=tuple((np.conj(c), -lam) for c, lam in b.terms)
    )


def is_real_valued(b: PlaneWaveSum) -> bool:
    """True when the term list is conjugation-closed (so b maps to R)."""
    want = dict(
        (tuple(zip(lam.real.tolist(), lam.imag.tolist())), c)
        for c, lam in conjugate_symbol(b).terms
    )
    have = dict(
        (tuple(zip(lam.real.tolist(), lam.imag.tolist())), c)
        for c, lam in b.terms
    )
    if set(want) != set(have):
        return False
    return all(abs(want[k] - have[k]) <= 1e-14 for k in want)


def modulate(b, lam):
    """b^lam(X) = exp(i Re<X, lam>) b(X)."""
    if isinstance(b, PlaneWaveSum):
        lam = _freq(lam, b.n)
        return PlaneWaveSum(
            n=b.n, terms=tuple((c, mu + lam) for c, mu in b.terms)
        )
    lamv = _freq(lam, b.n)
    return replace(
        b,
        func=lambda X, f=b.func: np.exp(
            1j * np.real(_as_points(X, b.n) @ lamv)
        ) * f(X),
    )


def translate(b, lam):
    """b(. + lam)."""
    if isinstance(b, PlaneWaveSum):
        lam = _freq(lam, b.n)
        return PlaneWaveSum(
            n=b.n,
            terms=tuple(
                (c * np.exp(1j * np.real(lam @ mu)), mu) for c, mu in b.terms
            ),
        )
    lamv = _freq(lam, b.n)
    return replace(b, func=lambda X, f=b.func: f(_as_points(X, b.n) + lamv))


# ---------------------------------------------------------------------------
# differential calculus


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


def _require_fd(*symbols) -> float:
    steps = [s.fd_step for s in symbols if isinstance(s, CallableSymbol)]
    if any(s is None for s in steps):
        raise UnsupportedSymbol(
            "callable symbol has no finite-difference step declared"
        )
    return min(steps)


def _point_eval(b):
    return lambda X: complex(eval_symbol(b, X))


def q_form(ctx: SpaceContext, a, b):
    """Q(a, b) = <d_X a, (Phi''_XbarX)^-1 d_Xbar b> (bilinear pairing).

    Exact for plane-wave sums: the pair (c, lam), (d, mu) contributes
    -1/4 <lam, G mubar> c d exp(i Re<X, lam+mu>) with G = (Phi''_XbarX)^-1.
    """
    G = np.linalg.inv(ctx.PhiXXbar.conj())
    if isinstance(a, PlaneWaveSum) and isinstance(b, PlaneWaveSum):
        terms = []
        for ca, la in a.terms:
            for cb, lb in b.terms:
                coef = -0.25 * (la @ G @ np.conj(lb)) * ca * cb
                terms.append((coef, la + lb))
        return PlaneWaveSum(n=ctx.n, terms=tuple(terms))
    step = _require_fd(a, b)
    fa, fb = _point_eval(a), _point_eval(b)

    def val(X):
        da, _ = wirtinger_fd(fa, np.asarray(X, complex).reshape(-1), step)
        _, dbb = wirtinger_fd(fb, np.asarray(X, complex).reshape(-1), step)
        return da @ G @ dbb

    return CallableSymbol(n=ctx.n, func=val, fd_step=step)


def poisson(ctx: SpaceContext, a, b):
    """Bracket {a, b} = i Q(a, b) - i Q(b, a)."""
    qab = q_form(ctx, a, b)
    qba = q_form(ctx, b, a)
    if isinstance(qab, PlaneWaveSum):
        terms = tuple((1j * c, lam) for c, lam in qab.terms) + tuple(
            (-1j * c, lam) for c, lam in qba.terms
        )
        return PlaneWaveSum(n=ctx.n, terms=terms)
    return CallableSymbol(
        n=ctx.n,
        func=lambda X: 1j * qab.func(X) - 1j * qba.func(X),
        fd_step=qab.fd_step,
    )


def laplace(ctx: SpaceContext, b):
    """Delta b with Delta = (1/2) <d_X, (Phi''_XbarX)^-1 d_Xbar>.

    Plane-wave eigenvalue: -(1/8)<lam, G lambar> = -(1/8)|R^-T lam|^2.
    """
    G = np.linalg.inv(ctx.PhiXXbar.conj())
    if isinstance(b, PlaneWaveSum):
        terms = tuple(
            (-0.125 * (lam @ G @ np.conj(lam)) * c, lam) for c, lam in b.terms
        )
        return PlaneWaveSum(n=ctx.n, terms=terms)
    step = _require_fd(b)
    fb = _point_eval(b)

    def val(X):
        X = np.asarray(X, complex).reshape(-1)
        total = 0.0 + 0.0j
        for d in range(ctx.n):
            def dXbar_d(Y, d=d):
                _, g = wirtinger_fd(fb, Y, step)
                return g[d]

            dX_of_that, _ = wirtinger_fd(dXbar_d, X, step)
            total += 0.5 * (G[:, d] @ dX_of_that)
        return total

    return CallableSymbol(n=ctx.n, func=val, fd_step=step)


# ---------------------------------------------------------------------------
# polarization


@dataclass(frozen=True)
class PolarizedPlaneWave:
    """Holomorphic extension b(X, Y) of a plane-wave sum, with b(X, Xbar)
    recovering the original symbol.  Term (c, lam) stands for
    c exp((i/2)(<X, lam> + <Y, lambar>))."""

    n: int
    terms: tuple

    def __call__(self, X, Y):
        X = _as_points(X, self.n)
        Y = _as_points(Y, self.n)
        out = np.zeros(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]),
                       dtype=complex)
        for c, lam in self.terms:
            out = out + c * np.exp(0.5j * (X @ lam + Y @ np.conj(lam)))
        return out


def polarize(b) -> PolarizedPlaneWave:
    """Holomorphic-in-(X, Ybar) extension; refuses black-box symbols."""
    if not isinstance(b, PlaneWaveSum):
        raise UnsupportedSymbol(
            "polarization needs the exact plane-wave structure"
        )
    return PolarizedPlaneWave(n=b.n, terms=b.terms)


# ---------------------------------------------------------------------------
# substitution of the polarized symbol along the graph of the weight


@dataclass(frozen=True)
class GuilleminSymbol:
    """Polarized symbol evaluated along Y(X, theta), the unique point with
    theta = (2/i)(Phi''_XXbar Y + Phi''_XX X).  On the real graph
    theta = Theta(X) the value reduces to b(X)."""

    ctx: SpaceContext
    terms: tuple

    def y_point(self, X, theta):
        X = _as_points(X, self.ctx.n)
        theta = _as_points(theta, self.ctx.n)
        G = np.linalg.inv(self.ctx.PhiXXbar)
        return (0.5j * theta - X @ self.ctx.PhiXX.T) @ G.T

    def __call__(self, X, theta):
        X = _as_points(X, self.ctx.n)
        Y = self.y_point(X, theta)
        out = np.zeros(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]),
                       dtype=complex)
        for c, lam in self.terms:
            out = out + c * np.exp(0.5j * (X @ lam + Y @ np.conj(lam)))
        return out

    def cotangent_frequencies(self):
        """Rewrite each term as exp(i(<x, p> + <xi, q>)) on T*R^n via the
        linear change of frame (x, xi) -> (X(x, xi), Y(x, xi)).

        Returns a list of (coefficient, p, q) with p, q length-n vectors.
        """
        ctx = self.ctx
        A, B = ctx.phase.A, ctx.phase.B
        P, Q = kappa_affine(ctx)
        G = np.linalg.inv(ctx.PhiXXbar)
        Mx = G @ (0.5j * (B + A @ P) - ctx.PhiXX @ P)
        Mxi = G @ (0.5j * (A @ Q) - ctx.PhiXX @ Q)
        out = []
        for c, lam in self.terms:
            lb = np.conj(lam)
            p = 0.5 * (P.T @ lam + Mx.T @ lb)
            q = 0.5 * (Q.T @ lam + Mxi.T @ lb)
            out.append((c, p, q))
        return out


def guillemin_symbol(ctx: SpaceContext, b) -> GuilleminSymbol:
    pol = b if isinstance(b, PolarizedPlaneWave) else polarize(b)
    return GuilleminSymbol(ctx=ctx, terms=pol.terms)
