"""Galerkin compressions of Toeplitz operators and Weyl unitaries.

All matrices are plain arrays over the graded monomial basis of a
`MultiIndexSet` the caller holds, so a sub-truncation is always the leading
principal block.  In the reduced frame z = sqrt(2/h) RX the basis is the
orthonormal monomial basis v_alpha of the standard Fock space, and

    toeplitz   M[beta, alpha] = <v_b, b(R^-1 W) v_a>
    weyl       M[beta, alpha] = e^{-|c|^2/h} <v_b, e^{(2/h)<W, cbar>}
                                v_a(W - c)>,   c = R lambda,

in the Fock inner product.  Toeplitz symbols are plane-wave sums, so for
both kinds every factor splits over the coordinates of W and the matrix
is a product of exact one-axis matrices (`basis.axis_matrices`); callable
symbols are refused.  `compressions` is the one path from operators to
matrices: it assembles any mix of both kinds from one stacked one-axis
recurrence over their distinct factors and yields the matrices one at a
time; the checks below hand it all their compressions at once.  The
right-hand side of `diagonal_sum_check` is closed form.

Identity checks (conjugation, deformation residuals) are read off an inner
sub-truncation: a plane-wave Toeplitz matrix couples only a band of degrees,
so products of compressions agree with compressions of products away from
the truncation boundary, and the outer shells carry pure edge error.  The
products are also formed only there: the inner block of A B is
A[:m] @ B[:, :m], which still sums over every index of the truncation, at
d m^2 work in place of d^3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import basis
from .basis import MultiIndexSet, enumerate_multiindices
from .errors import InvalidConfig
from .geometry import (
    PhaseMatrices,
    SpaceContext,
    _check_h,
    build_context,
    freq_image,
    freq_pairing,
)
from .heat import heat_flow
from .symbols import multiply, poisson, q_form, sup_norm, translate

__all__ = [
    "NormTable",
    "BoundReport",
    "SweepResult",
    "compressions",
    "toeplitz_matrix",
    "weyl_unitary_matrix",
    "operator_norm",
    "weyl_conjugation_check",
    "bound_report",
    "bound_reports",
    "diagonal_sum_check",
    "deformation_residuals",
    "deformation_sweep",
]


def _terms(ctx: SpaceContext, op):
    """The terms (c, axes) of op, one factor (shift, mu, nu) per coordinate
    in axes, and the scale applied after their sum.  A plane-wave term
    c e^{i Re<X, lam>} is c prod_d e^{i Re(W_d mu_d)} with mu = R^-T lam;
    a translation by lam has the shift W - c and the weight
    e^{(2/h)<W, cbar>}, c = R lam, and the scale e^{-|c|^2/h}."""
    if isinstance(op, np.ndarray):
        c = ctx.R @ np.asarray(op, dtype=complex).reshape(ctx.n)
        axes = tuple((complex(cd), 0.0, (2.0 / ctx.h) * complex(np.conj(cd)))
                     for cd in c)
        return [(1.0, axes)], np.exp(-np.sum(np.abs(c) ** 2) / ctx.h)
    return [(c, tuple((0.0, complex(m), 0.0) for m in freq_image(ctx, lam)))
            for c, lam in op.terms], None


def _dense_sum(stack: np.ndarray, idx: np.ndarray, terms,
               scale) -> np.ndarray:
    """scale * sum_t c_t prod_d stack[rows_t[d]] gathered on the index
    columns idx[d], for (c_t, rows_t) in `terms`: one matrix, built alone.
    The first term is written straight into the result, and each product
    keeps the operand order c_t * A_1 * A_2 ..., which fixes its rounding;
    the scale, if not None, multiplies the finished sum."""
    out = None
    for c, rows in terms:
        block = c
        for col, row in zip(idx, rows):
            # two takes gather faster than one np.ix_ index
            gathered = stack[row].take(col, 0).take(col, 1)
            block = np.multiply(block, gathered, out=gathered)
        if out is None:
            out = block
        else:
            out += block
    if out is None:  # no terms: the zero operator
        out = np.zeros((idx.shape[1],) * 2, dtype=complex)
    if scale is not None:
        out *= scale
    return out


def compressions(ctx: SpaceContext, trunc: MultiIndexSet, ops):
    """Yield the matrix of each op in turn over `trunc`: the Toeplitz
    compression of a plane-wave sum, or the translation unitary of a
    displacement given as an array lam of shape (n,).

    Equal factors are shared across all the ops, so one
    `basis.axis_matrices` call serves them all.  Each dense matrix is built
    only when asked for and this generator keeps none it has yielded, so a
    caller that drops a matrix before taking the next holds one at a time.
    """
    built = [_terms(ctx, op) for op in ops]
    rows = {}
    for terms, _ in built:
        for _, axes in terms:
            for factor in axes:
                rows.setdefault(factor, len(rows))
    stack = basis.axis_matrices(ctx.h, trunc.N, list(rows))
    idx = np.array(trunc.indices).T
    for terms, scale in built:
        yield _dense_sum(stack, idx, [
            (c, [rows[factor] for factor in axes]) for c, axes in terms],
            scale)


def toeplitz_matrix(ctx: SpaceContext, b,
                    trunc: MultiIndexSet) -> np.ndarray:
    """Matrix of the multiplication-then-project operator for the
    plane-wave sum b."""
    return next(compressions(ctx, trunc, [b]))


def weyl_unitary_matrix(ctx: SpaceContext, lam,
                        trunc: MultiIndexSet) -> np.ndarray:
    """Matrix of the phase-space translation unitary for displacement lam."""
    return next(compressions(ctx, trunc, [np.asarray(lam, dtype=complex)]))


def operator_norm(M: np.ndarray) -> float:
    """Largest singular value of the compression."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class NormTable:
    m_norm: float
    converged: bool


def weyl_conjugation_check(ctx: SpaceContext, b, lam, W: np.ndarray,
                           Tb: np.ndarray, trunc: MultiIndexSet,
                           drop: int = 4, Ts: np.ndarray = None) -> float:
    """Max entry deviation of W* T_b W against the translated-symbol matrix,
    formed on the block of degrees <= N - drop.  W is the translation by
    lam and Tb the compression of b, both over `trunc`; the translated
    symbol's compression Ts is assembled here unless it is passed in."""
    if Ts is None:
        Ts = toeplitz_matrix(ctx, translate(b, lam), trunc)
    m = trunc.count_through_degree(max(trunc.N - drop, 0))
    Wi = W[:, :m]
    return float(np.max(np.abs(Wi.conj().T @ (Tb @ Wi) - Ts[:m, :m])))


@dataclass(frozen=True)
class BoundReport:
    rows: tuple  # of (t, lhs, rhs, margin, passed)
    norm_table: NormTable
    passed: bool
    sup_attained: bool  # False: every lhs is the upper bound sum |c_j|


def bound_reports(ctx: SpaceContext, symbols, t_grid: Sequence[float],
                  n_schedule: Sequence[int], slack: float = 0.02):
    """Yield `bound_report` for each symbol in turn.  The t grid and the
    schedule are checked before anything is built.  Nesting means one
    compression at max(N) per symbol suffices: the norms at the last two N
    are taken on its leading principal blocks, and earlier N are validated
    but not computed, since no verdict reads them.  The compressions come
    from one stacked recurrence, one matrix at a time.  The heat flow damps
    the c_j by positive factors and keeps the lam_j, so it keeps the sup
    witnesses (`sup_norm`): they are searched once per symbol, and each t
    reads only sum |c_j(t)|."""
    for t in t_grid:
        if not 0.5 < float(t) <= 1.0:
            raise InvalidConfig(
                f"bound check needs t in (1/2, 1], got {t}"
            )
    ts = [float(t) for t in t_grid]
    ns = [int(N) for N in n_schedule]
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise InvalidConfig("truncation schedule must be strictly increasing")
    top = enumerate_multiindices(ctx.n, ns[-1])
    blocks = [top.count_through_degree(N) for N in ns[-2:]]
    mats = compressions(ctx, top, symbols)
    for b in symbols:
        M = next(mats)
        norms = [operator_norm(M[:m, :m]) for m in blocks]
        del M  # before the next matrix is built
        last = norms[-1]
        table = NormTable(m_norm=last, converged=(
            len(norms) == 2
            and abs(last - norms[0]) <= 1e-3 * max(abs(last), 1e-300)))
        rows = []
        for t in ts:
            lhs = float(sum(abs(c) for c, _ in heat_flow(ctx, b, t).terms))
            rhs = table.m_norm * (1.0 + slack) / (2.0 * t - 1.0) ** ctx.n
            rows.append((t, lhs, rhs, rhs - lhs, lhs <= rhs))
        yield BoundReport(rows=tuple(rows), norm_table=table,
                          passed=all(row[-1] for row in rows),
                          sup_attained=sup_norm(b)[1])


def bound_report(ctx: SpaceContext, b, t_grid: Sequence[float],
                 n_schedule: Sequence[int],
                 slack: float = 0.02) -> BoundReport:
    """Check sup |b_t| <= (1+slack) M / (2t-1)^n on a time grid in (1/2, 1].

    The left side is `sup_norm` of the flowed symbol, sum |c_j|: the sup
    over all of C^n when attained, an upper bound otherwise
    (`sup_attained`).  The compression norm M under-estimates the true
    operator norm, hence the slack on the right-hand side.
    """
    return next(bound_reports(ctx, [b], t_grid, n_schedule, slack))


def diagonal_sum_check(ctx: SpaceContext, b, M: np.ndarray,
                       trunc: MultiIndexSet, ks):
    """Both sides of the degree-k diagonal-sum identity, for each k in ks.

    M is the Toeplitz compression of b over `trunc`; lhs sums its diagonal
    over |alpha| = k.  rhs is sum_j c_j(1) L_k^(n-1)(x_j), with
    x_j = h|R^-T lam_j|^2/8 and c_j(1) the coefficients of
    `heat_flow(ctx, b, 1)`: per axis the diagonal is
    e^{-x_d} L_{alpha_d}(x_d), summed over |alpha| = k by the Laguerre
    addition formula.  At k = 0 rhs is b_1(0).  Returns [(lhs, rhs), ...].
    A k above trunc.N has no diagonal in M and is refused.
    """
    if max(ks) > trunc.N:
        raise InvalidConfig(
            f"diagonal sums need k <= N = {trunc.N}, got k = {max(ks)}"
        )
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
                          drop: int = 4):
    """Spectral norms of the two second-order deformation defects,
    formed on the block of degrees <= N - drop.  The five compressions
    share one stacked recurrence."""
    Ta, Tb, Tab, Tq, Tpb = compressions(ctx, trunc, [
        a, b, multiply(a, b), q_form(ctx, a, b), poisson(ctx, a, b)])
    m = trunc.count_through_degree(max(trunc.N - drop, 0))
    ab = Ta[:m] @ Tb[:, :m]
    d1 = ab - Tab[:m, :m] + (ctx.h / 2.0) * Tq[:m, :m]
    d2 = ab - Tb[:m] @ Ta[:, :m] - (0.5j * ctx.h) * Tpb[:m, :m]
    return operator_norm(d1), operator_norm(d2)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple  # of (h, r1, r2)
    slope1: float
    slope2: float
    commuting: bool  # T_a T_b = T_b T_a exactly; r2 is truncation leakage


def _commute_exactly(ctx: SpaceContext, a, b) -> bool:
    """Whether the composition-law factor exp((h/8) freq_pairing(lam, mu))
    is symmetric for every term pair: then T_a T_b - T_b T_a vanishes
    identically and so does {a, b}.  ||R^-1||_2^2 = ||(Phi''_XbarX)^-1||_2."""
    scale = 1e-12 * np.linalg.norm(ctx.Rinv, 2) ** 2
    return all(
        abs(freq_pairing(ctx, la, lb) - freq_pairing(ctx, lb, la))
        <= scale * np.linalg.norm(la) * np.linalg.norm(lb)
        for _, la in a.terms for _, lb in b.terms
    )


def _fit_slope(hs: np.ndarray, rs: np.ndarray) -> float:
    # residuals at rounding floor carry no scaling information
    if np.max(rs) < 1e-10:
        return float("nan")
    return float(np.polyfit(np.log(hs), np.log(rs), 1)[0])


def deformation_sweep(phase: PhaseMatrices, a, b, h_list: Sequence[float],
                      N: int, drop: int = 4) -> SweepResult:
    """Deformation residuals across h, with log-log slope fits.

    No field of the space context but h itself depends on h, so the phase
    is validated and its geometry derived once, after every h has been
    checked, and each h gets a copy of that context.  `commuting` names the
    pairs whose commutator residual has no h^2 term to fit (see
    `_commute_exactly`).
    """
    hs = [float(h) for h in h_list]
    if len(hs) < 4 or any(x <= y for x, y in zip(hs, hs[1:])):
        raise InvalidConfig(
            "h sweep needs a strictly decreasing list of length >= 4"
        )
    for h in hs:  # an h outside (0, 1] fails before any work
        _check_h(h)
    base = build_context(phase, hs[0])
    trunc = enumerate_multiindices(base.n, N)
    rows = []
    for h in hs:
        r1, r2 = deformation_residuals(replace(base, h=h), a, b, trunc,
                                       drop=drop)
        rows.append((h, r1, r2))
    arr = np.asarray(rows, dtype=float)
    return SweepResult(
        rows=tuple(rows),
        slope1=_fit_slope(arr[:, 0], arr[:, 1]),
        slope2=_fit_slope(arr[:, 0], arr[:, 2]),
        commuting=_commute_exactly(base, a, b),
    )
