"""Galerkin compressions of Toeplitz operators and Weyl unitaries.

All matrices are plain arrays over the graded monomial basis of a
`MultiIndexSet` the caller holds, so a sub-truncation is always the leading
principal block.  Everything is assembled in the reduced frame W = RX on a
sigma = sqrt(h/2) Gauss-Hermite grid, where the weight e^{-2|W|^2/h} is
exactly the quadrature Gaussian:

    toeplitz   M[beta, alpha] = (2/pi h)^n int b(R^-1 W) v_a(W) conj(v_b(W))
    weyl       M[beta, alpha] = (2/pi h)^n e^{-|c|^2/h} int e^{(2/h)<W, cbar>}
                                v_a(W - c) conj(v_b(W)),   c = R lambda,

both against e^{-2|W|^2/h} L(dW).  For plane-wave symbols and for Weyl
unitaries every factor splits over the coordinates of W, so both are
assembled axis by axis (`basis.separable_pair_sum`).  Only a callable symbol
is sampled on the full order^(2n) tensor grid; that path is the full-grid
reference.  The right-hand side of `diagonal_sum_check` is closed form.

Identity checks (conjugation, deformation residuals) are read off an inner
sub-truncation: a plane-wave Toeplitz matrix couples only a band of degrees,
so products of compressions agree with compressions of products away from
the truncation boundary, and the outer shells carry pure edge error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import (MultiIndexSet, enumerate_multiindices,
                    separable_pair_sum, weighted_pair_sum)
from .errors import InvalidConfig, UnsupportedSymbol
from .geometry import PhaseMatrices, SpaceContext, build_context, freq_image
from .heat import heat_flow
from .quadrature import QuadratureRule, complex_grid
from .symbols import (
    PlaneWaveSum,
    eval_symbol,
    multiply,
    poisson,
    q_form,
    sup_norm,
    translate,
)

__all__ = [
    "NormTable",
    "BoundReport",
    "SweepResult",
    "toeplitz_matrix",
    "weyl_unitary_matrix",
    "operator_norm",
    "inner_block",
    "norm_converged",
    "weyl_conjugation_check",
    "bound_report",
    "diagonal_sum_check",
    "deformation_residuals",
    "deformation_sweep",
]


def inner_block(entries: np.ndarray, trunc: MultiIndexSet,
                keep_degree: int) -> np.ndarray:
    """Leading principal block of all indices with degree <= keep_degree."""
    m = trunc.count_through_degree(keep_degree)
    return entries[:m, :m]


def _require_symbol_class(b) -> None:
    if not (isinstance(b, PlaneWaveSum) or b.declared_in_T):
        raise UnsupportedSymbol(
            "callable symbol not declared to lie in the Toeplitz class"
        )


def toeplitz_matrix(ctx: SpaceContext, b, trunc: MultiIndexSet,
                    rule: QuadratureRule) -> np.ndarray:
    """Matrix of the multiplication-then-project operator for symbol b.

    A plane-wave term c e^{i Re<X, lam>} is c prod_d e^{i Re(W_d mu_d)}
    with mu = R^-T lam, so plane-wave sums are assembled axis by axis; a
    callable symbol is sampled on the full tensor grid.
    """
    _require_symbol_class(b)
    if isinstance(b, PlaneWaveSum):
        out = separable_pair_sum(trunc, ctx.h, rule, [
            (c, tuple((0.0, complex(m), 0.0) for m in ctx.Rinv.T @ lam))
            for c, lam in b.terms
        ])
    else:
        W, wt = complex_grid(rule, ctx.n, np.sqrt(ctx.h / 2.0))
        bv = eval_symbol(b, (ctx.Rinv @ W).T)
        out = weighted_pair_sum(trunc, ctx.h, W, W, wt * bv)
    return out * (2.0 / (np.pi * ctx.h)) ** ctx.n


def weyl_unitary_matrix(ctx: SpaceContext, lam, trunc: MultiIndexSet,
                        rule: QuadratureRule) -> np.ndarray:
    """Matrix of the phase-space translation unitary for displacement lam.

    Both the shift W - c and the weight e^{(2/h)<W, cbar>} factor over the
    coordinates, so the matrix is assembled axis by axis.
    """
    lam = np.asarray(lam, dtype=complex).reshape(ctx.n)
    c = ctx.R @ lam
    out = separable_pair_sum(trunc, ctx.h, rule, [
        (1.0, tuple((complex(cd), 0.0, (2.0 / ctx.h) * complex(np.conj(cd)))
                    for cd in c))
    ])
    pref = (2.0 / (np.pi * ctx.h)) ** ctx.n * np.exp(
        -np.sum(np.abs(c) ** 2) / ctx.h
    )
    return pref * out


def operator_norm(M: np.ndarray) -> float:
    """Largest singular value of the compression."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class NormTable:
    m_norm: float
    converged: bool


def norm_converged(ctx: SpaceContext, b, n_schedule: Sequence[int],
                   rule: QuadratureRule, rel_tol: float = 1e-3) -> NormTable:
    """Compression norm at the largest N of a strictly increasing schedule,
    and whether it is within rel_tol of the norm at the N before it.

    Nesting means one assembly at max(N) suffices; the smaller N is a
    leading principal block of the same matrix.  Earlier N are validated
    but not computed: no verdict reads them.
    """
    ns = [int(N) for N in n_schedule]
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise InvalidConfig("truncation schedule must be strictly increasing")
    top = enumerate_multiindices(ctx.n, ns[-1])
    M = toeplitz_matrix(ctx, b, top, rule)
    norms = [operator_norm(inner_block(M, top, N)) for N in ns[-2:]]
    last = norms[-1]
    converged = (len(norms) == 2 and abs(last - norms[0])
                 <= rel_tol * max(abs(last), 1e-300))
    return NormTable(m_norm=last, converged=converged)


def weyl_conjugation_check(ctx: SpaceContext, b, lam, W: np.ndarray,
                           Tb: np.ndarray, trunc: MultiIndexSet,
                           rule: QuadratureRule, drop: int = 4) -> float:
    """Max entry deviation of W* T_b W against the translated-symbol matrix,
    on the block of degrees <= N - drop.  W is the translation by lam and Tb
    the compression of b, both over `trunc`; only the translated symbol's
    compression is assembled here."""
    Ts = toeplitz_matrix(ctx, translate(b, lam), trunc, rule)
    dev = W.conj().T @ Tb @ W - Ts
    keep = max(trunc.N - drop, 0)
    return float(np.max(np.abs(inner_block(dev, trunc, keep))))


@dataclass(frozen=True)
class BoundReport:
    rows: tuple  # of (t, lhs, rhs, margin, passed)
    norm_table: NormTable
    slack: float
    passed: bool
    sup_attained: bool  # False: every lhs is the upper bound sum |c_j|


def bound_report(ctx: SpaceContext, b, t_grid: Sequence[float],
                 n_schedule: Sequence[int], rule: QuadratureRule,
                 slack: float = 0.02) -> BoundReport:
    """Check sup |b_t| <= (1+slack) M / (2t-1)^n on a time grid in (1/2, 1].

    The left side is `sup_norm` of the flowed symbol, sum |c_j|: the sup
    over all of C^n when attained, an upper bound otherwise
    (`sup_attained`).  The compression norm M under-estimates the true
    operator norm, hence the slack on the right-hand side.
    """
    for t in t_grid:
        if not 0.5 < float(t) <= 1.0:
            raise InvalidConfig(
                f"bound check needs t in (1/2, 1], got {t}"
            )
    table = norm_converged(ctx, b, n_schedule, rule)
    rows = []
    ok = True
    attained = True
    for t in t_grid:
        t = float(t)
        lhs, exact = sup_norm(heat_flow(ctx, b, t))
        attained = attained and exact
        rhs = table.m_norm * (1.0 + slack) / (2.0 * t - 1.0) ** ctx.n
        passed = lhs <= rhs
        ok = ok and passed
        rows.append((t, lhs, rhs, rhs - lhs, passed))
    return BoundReport(rows=tuple(rows), norm_table=table, slack=slack,
                       passed=ok, sup_attained=attained)


def diagonal_sum_check(ctx: SpaceContext, b, M: np.ndarray,
                       trunc: MultiIndexSet, ks):
    """Both sides of the degree-k diagonal-sum identity, for each k in ks.

    M is the Toeplitz compression of b over `trunc`; lhs sums its diagonal
    over |alpha| = k.  rhs is sum_j c_j(1) L_k^(n-1)(x_j), with
    x_j = h|R^-T lam_j|^2/8 and c_j(1) the coefficients of
    `heat_flow(ctx, b, 1)`: per axis the diagonal is
    e^{-x_d} L_{alpha_d}(x_d), summed over |alpha| = k by the Laguerre
    addition formula.  At k = 0 rhs is b_1(0).  Returns [(lhs, rhs), ...].
    """
    c1 = [c for c, _ in heat_flow(ctx, b, 1.0).terms]
    x = np.array([ctx.h * np.sum(np.abs(freq_image(ctx, lam)) ** 2) / 8.0
                  for _, lam in b.terms])
    a = ctx.n - 1
    lag = [np.ones_like(x), 1.0 + a - x]  # L_k^(a)(x) by the recurrence
    for j in range(1, max(ks)):
        lag.append(((2 * j + 1 + a - x) * lag[j] - (j + a) * lag[j - 1])
                   / (j + 1))
    diag = np.diag(M)
    return [(complex(np.sum(diag[trunc.degrees == k])),
             complex(sum(c * L for c, L in zip(c1, lag[k])))) for k in ks]


def deformation_residuals(ctx: SpaceContext, a, b, trunc: MultiIndexSet,
                          rule: QuadratureRule, drop: int = 4):
    """Spectral norms of the two second-order deformation defects,
    read on the block of degrees <= N - drop."""
    Ta = toeplitz_matrix(ctx, a, trunc, rule)
    Tb = toeplitz_matrix(ctx, b, trunc, rule)
    Tab = toeplitz_matrix(ctx, multiply(a, b), trunc, rule)
    Tq = toeplitz_matrix(ctx, q_form(ctx, a, b), trunc, rule)
    Tpb = toeplitz_matrix(ctx, poisson(ctx, a, b), trunc, rule)
    keep = max(trunc.N - drop, 0)
    d1 = Ta @ Tb - Tab + (ctx.h / 2.0) * Tq
    d2 = Ta @ Tb - Tb @ Ta - (0.5j * ctx.h) * Tpb
    r1 = operator_norm(inner_block(d1, trunc, keep))
    r2 = operator_norm(inner_block(d2, trunc, keep))
    return r1, r2


@dataclass(frozen=True)
class SweepResult:
    rows: tuple  # of (h, r1, r2)
    slope1: float
    slope2: float
    commuting: bool  # T_a T_b = T_b T_a exactly; r2 is truncation leakage


def _commute_exactly(ctx: SpaceContext, a, b) -> bool:
    """Whether the composition-law factor exp((h/8) lam^T G conj(mu)),
    G = (Phi''_XbarX)^-1, is symmetric for every term pair: then
    T_a T_b - T_b T_a vanishes identically and so does {a, b}."""
    G = np.linalg.inv(ctx.PhiXXbar.conj())
    scale = 1e-12 * np.linalg.norm(G, 2)
    return all(
        abs(la @ G @ np.conj(lb) - lb @ G @ np.conj(la))
        <= scale * np.linalg.norm(la) * np.linalg.norm(lb)
        for _, la in a.terms for _, lb in b.terms
    )


def _fit_slope(hs: np.ndarray, rs: np.ndarray) -> float:
    # residuals at quadrature floor carry no scaling information
    if np.max(rs) < 1e-10:
        return float("nan")
    return float(np.polyfit(np.log(hs), np.log(rs), 1)[0])


def deformation_sweep(phase: PhaseMatrices, a, b, h_list: Sequence[float],
                      N: int, rule: QuadratureRule,
                      drop: int = 4) -> SweepResult:
    """Deformation residuals across h, with log-log slope fits.

    Contexts are rebuilt per h so every normalization constant tracks the
    semiclassical parameter.  `commuting` names the pairs whose commutator
    residual has no h^2 term to fit (see `_commute_exactly`).
    """
    hs = [float(h) for h in h_list]
    if len(hs) < 4 or any(x <= y for x, y in zip(hs, hs[1:])):
        raise InvalidConfig(
            "h sweep needs a strictly decreasing list of length >= 4"
        )
    # build every context first, so an h outside (0, 1] fails before any work
    ctxs = [build_context(phase, h) for h in hs]
    rows = []
    for h, ctx in zip(hs, ctxs):
        trunc = enumerate_multiindices(ctx.n, N)
        r1, r2 = deformation_residuals(ctx, a, b, trunc, rule, drop=drop)
        rows.append((h, r1, r2))
    arr = np.asarray(rows, dtype=float)
    return SweepResult(
        rows=tuple(rows),
        slope1=_fit_slope(arr[:, 0], arr[:, 1]),
        slope2=_fit_slope(arr[:, 0], arr[:, 2]),
        commuting=_commute_exactly(ctxs[0], a, b),
    )
