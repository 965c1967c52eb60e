"""Galerkin compressions of Toeplitz operators and Weyl unitaries.

All matrices are plain arrays over the graded monomial basis of a
`MultiIndexSet` the caller holds, so a sub-truncation is always the leading
principal block.  In the reduced frame z = sqrt(2/h) RX the basis is the
orthonormal monomial basis v_alpha of the standard Fock space, and

    toeplitz   M[beta, alpha] = <v_b, b(R^-1 W) v_a>
    weyl       M[beta, alpha] = e^{-|c|^2/h} <v_b, e^{(2/h)<W, cbar>}
                                v_a(W - c)>,   c = R lambda,

in the Fock inner product.  Toeplitz symbols are plane-wave sums, so both
kinds are one form: coefficients times tensor products of one-axis
factors (a translation is one term, of coefficient e^{-|c|^2/h}), each
factor given by three seeds (`_terms`), and the matrix is the same sum
of entrywise products of exact one-axis matrices (`basis.axis_matrices`);
callable symbols are refused.  `compressions` is the one path from
operators to matrices: it assembles any mix of both kinds from one
one-axis recurrence over all their seeds and yields one read-out per
operator, one at a time, each only what its caller reads: a leading
block, the diagonal, the deviation max|M - I|, or the action V -> M V,
which runs one matmul per axis of the (N+1)^n coefficient cube and forms
no d x d matrix unless that is the smaller of the two; the checks below
hand it all their compressions at once.  Every dense value comes from
one generator of row bands (`_bands`), each of at most _BLOCK_ENTRIES
entries: a block is filled from it, and the deviation is reduced band by
band, so it never holds M.  The right-hand side of `diagonal_sum_check` is
closed form.

Identity checks (conjugation, deformation residuals) are read off an inner
sub-truncation: a plane-wave Toeplitz matrix couples only a band of degrees,
so products of compressions agree with compressions of products away from
the truncation boundary, and the outer shells carry pure edge error.  The
products are also formed only there: the inner block of A B is
A[:m] @ B[:, :m], which still sums over every index of the truncation, at
d m^2 work in place of d^3.  A compression read only on that block (a
translated symbol; the deformation's T_ab, T_q and bracket) is assembled
only there, a translation only on its first m columns, and weyl's T_b
only as its action on those columns.
"""

from __future__ import annotations

import itertools
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


# Most entries of one row band of a dense read-out: 4 MiB of complex
# entries per temporary, so every default block at n <= 2 is one band.
_BLOCK_ENTRIES = 1 << 18


def _terms(ctx: SpaceContext, op):
    """The coefficients (T,) and seeds (T, n, 3) of op: term t is coef[t]
    times the product over d of the one-axis factors of seeds[t, d]
    (`basis.axis_matrices`) in z = W/r, r = sqrt(h/2).  A plane-wave term
    c e^{i Re<X, lam>}, mu = R^-T lam, has alpha = (i/2) mu_d r,
    gamma = (i/2) conj(mu_d) r and w = e^{alpha gamma}; a translation by
    lam is one term of coefficient e^{-|c|^2/h}, c = R lam, with
    alpha = (2/h) conj(c_d) r, gamma = -c_d/r and w = 1."""
    r = np.sqrt(ctx.h / 2.0)
    if isinstance(op, np.ndarray):
        c = (ctx.R @ np.asarray(op, dtype=complex).reshape(ctx.n))[None]
        coef = np.exp(-np.sum(np.abs(c) ** 2, axis=1) / ctx.h)
        # -c/r part by part: numpy's complex division rounds 1/r first
        seeds = ((2.0 / ctx.h) * np.conj(c) * r,
                 (c.view(float) / -r).view(complex), np.ones(c.shape))
    else:
        alpha = (0.5j * r) * freq_image(ctx, op.lam)
        # gamma = -conj(alpha), so alpha gamma = -|alpha|^2
        coef, seeds = op.c, (alpha, -alpha.conj(), np.exp(
            -(alpha.real ** 2 + alpha.imag ** 2), dtype=complex))
    return coef, np.array(seeds).transpose(1, 2, 0)


def _product_sum(terms, idx: np.ndarray, gather, shape) -> np.ndarray:
    """sum_t c_t prod_d gather(rows_t[d], idx[d]) for (c_t, rows_t) in
    `terms`, of the given shape.  The first term is written straight into
    the result, and each product keeps the operand order c_t * A_1 * A_2
    ..., which fixes its rounding.  Every entry is computed on its own, so
    any gather of the same entries gives them bit for bit."""
    out = None
    for c, factors in terms:
        block = c
        for col, f in zip(idx, factors):
            gathered = gather(f, col)
            block = np.multiply(block, gathered, out=gathered)
        if out is None:
            out = block
        else:
            out += block
    if out is None:  # no terms: the zero operator
        out = np.zeros(shape, dtype=complex)
    return out


def _bands(stack: np.ndarray, idx: np.ndarray, terms, shape):
    """Yield (r, M[r, :cols]) for consecutive row slices r that cover the
    leading (rows, cols) = `shape` block of the matrix M of the terms over
    the graded indices (`_product_sum` of stack[f] gathered on the index
    columns idx[d]).  Each band holds at most _BLOCK_ENTRIES entries (at
    least one row), so its temporaries stay that small, and its entries
    are those of the full matrix bit for bit."""
    rows, cols = shape
    step = max(1, _BLOCK_ENTRIES // max(cols, 1))
    for start in range(0, rows, step):
        r = slice(start, min(start + step, rows))
        # two takes gather faster than one np.ix_ index
        yield r, _product_sum(
            terms, idx,
            lambda f, col: stack[f].take(col[r], 0).take(col[:cols], 1),
            (r.stop - r.start, cols))


def _dense_sum(stack: np.ndarray, idx: np.ndarray, terms, shape) -> np.ndarray:
    """The leading (rows, cols) = `shape` block of the matrix, filled from
    `_bands`, so it is the full matrix sliced to `shape` bit for bit."""
    out = np.empty(shape, dtype=complex)
    for r, band in _bands(stack, idx, terms, shape):
        out[r] = band
    return out


def _identity_deviation(stack: np.ndarray, idx: np.ndarray, terms) -> float:
    """max|M - I| over the full (d, d) matrix, taken band by band from
    `_bands`, so M is never held whole.  np.max keeps a NaN entry."""
    d = idx.shape[1]
    peaks = []
    for r, band in _bands(stack, idx, terms, (d, d)):
        band.flat[r.start::d + 1] -= 1.0  # the entries (i, i), i in r
        peaks.append(np.max(np.abs(band)))
    return float(np.max(peaks))


def _diagonal_sum(stack: np.ndarray, idx: np.ndarray, terms) -> np.ndarray:
    """The (d,) diagonal of the full `_dense_sum` matrix, from the same
    products, so it equals np.diag of that matrix bit for bit."""
    return _product_sum(terms, idx, lambda f, col: stack[f][col, col],
                        (idx.shape[1],))


def _applier(stack: np.ndarray, idx: np.ndarray, terms):
    """V -> M V for the full (d, d) matrix M of `_dense_sum`, without M.

    Each term's matrix is the Kronecker product of its one-axis factors
    restricted to the graded rows and columns, so M V embeds V's rows at
    their row-major positions in an (N+1)^n x k buffer, applies one factor
    per axis (a matmul over that axis of the buffer viewed as
    ((N+1)^axis, N+1, rest)) and gathers the graded rows back.  The buffer
    is used only when it is no larger than M itself,
    (N+1)^n k <= d^2; otherwise M is formed once, on first need, and
    multiplied.  Sums run in another order than in M V, so the two agree
    to rounding, not bit for bit."""
    n, d = idx.shape
    side = stack.shape[-1]
    flat = np.ravel_multi_index(idx, (side,) * n)
    dense = None

    def apply(V: np.ndarray) -> np.ndarray:
        nonlocal dense
        k = V.shape[1]
        if side ** n * k > d * d:
            if dense is None:
                dense = _dense_sum(stack, idx, terms, (d, d))
            return dense @ V
        buf = np.zeros((side ** n, k), dtype=complex)
        buf[flat] = V
        out = None
        for c, factors in terms:
            X = buf
            for axis, f in enumerate(factors):
                X = np.matmul(stack[f], X.reshape(side ** axis, side, -1))
            block = X.reshape(-1, k)[flat]
            block *= c
            if out is None:
                out = block
            else:
                out += block
        if out is None:
            out = np.zeros((d, k), dtype=complex)
        return out

    return apply


def compressions(ctx: SpaceContext, trunc: MultiIndexSet, ops, reads=None):
    """Yield the compression of each op over `trunc` in turn: the Toeplitz
    compression of a plane-wave sum, or the translation unitary of a
    displacement given as an array lam of shape (n,).  Each op is read
    only as its term list (`_terms`), coefficients over one-axis factors,
    so both kinds take the same read-outs.

    `reads`, if given, says per op which read-out of its d x d matrix M
    is yielded:
      (rows, cols)  the leading block M[:rows, :cols], as an array; with
                    the graded order it is the block of degrees <= some
                    k, and it equals the full matrix sliced bit for bit;
      "diagonal"    the (d,) diagonal of M, equal to np.diag(M) bit for
                    bit, built without M;
      "identity"    the float max|M - I|, equal to that of the full matrix
                    bit for bit, taken one row band at a time without
                    holding M;
      "apply"       a function V -> M V on (d, k) arrays, which forms M
                    only when M is smaller than the (N+1)^n x k buffer
                    its one-axis factors act on (see `_applier`).
    The default is the full (d, d) for every op.  `ctx` is one space
    context for every op, or a sequence of one per op (a sweep's contexts
    at several h).  The seeds of every op form one array, so one
    `basis.axis_matrices` call serves them all.  Each read-out is built
    only when asked for and this generator keeps none it has yielded, so
    a caller that drops one before taking the next holds one at a time.
    """
    pairs = (zip(itertools.repeat(ctx), ops) if isinstance(ctx, SpaceContext)
             else zip(ctx, ops, strict=True))
    built = [_terms(c, op) for c, op in pairs]
    d = len(trunc)
    if reads is None:
        reads = [(d, d)] * len(built)
    stack = basis.axis_matrices(trunc.N, np.concatenate(
        [np.empty((0, 3))] + [seeds.reshape(-1, 3) for _, seeds in built]))
    idx = np.array(trunc.indices).T
    rows = itertools.count()  # stack rows, in seed order
    for (coef, _), read in zip(built, reads, strict=True):
        terms = [(c, [next(rows) for _ in range(trunc.n)]) for c in coef]
        if read == "diagonal":
            yield _diagonal_sum(stack, idx, terms)
        elif read == "identity":
            yield _identity_deviation(stack, idx, terms)
        elif read == "apply":
            yield _applier(stack, idx, terms)
        else:
            yield _dense_sum(stack, idx, terms, read)


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
    """Largest singular value of the compression, LAPACK's first: the
    float np.linalg.norm(M, 2) gives, without that wrapper's call cost.
    NaN when an entry is not finite, where the SVD would not converge."""
    if not np.all(np.isfinite(M)):
        return float("nan")
    return float(np.linalg.svd(M, compute_uv=False)[0])


@dataclass(frozen=True)
class NormTable:
    m_norm: float
    converged: bool


def weyl_conjugation_check(ctx: SpaceContext, b, lam, W: np.ndarray,
                           Tb, trunc: MultiIndexSet, drop: int = 4,
                           Ts: np.ndarray = None) -> float:
    """Max entry deviation of W* T_b W against the translated-symbol matrix,
    formed on the block of degrees <= N - drop, of size m.  W is the
    translation by lam over `trunc` (only its first m columns are read) and
    Tb applies the compression of b, V -> T_b V (the "apply" read-out of
    `compressions`; a dense matrix M is passed as M.__matmul__); the
    translated symbol's compression Ts (only its leading m x m block is
    read) is assembled here, at that block, unless it is passed in."""
    m = trunc.count_through_degree(max(trunc.N - drop, 0))
    if Ts is None:
        Ts = next(compressions(ctx, trunc, [translate(b, lam)],
                               reads=[(m, m)]))
    Wi = W[:, :m]
    return float(np.max(np.abs(Wi.conj().T @ Tb(Wi) - Ts[:m, :m])))


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
            lhs = float(sum(map(abs, heat_flow(ctx, b, t).c.tolist())))
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


def diagonal_sum_check(ctx: SpaceContext, b, diag: np.ndarray,
                       trunc: MultiIndexSet, ks):
    """Both sides of the degree-k diagonal-sum identity, for each k in ks.

    diag is the (d,) diagonal of the Toeplitz compression of b over
    `trunc` (its "diagonal" read-out); lhs sums it over |alpha| = k.  rhs
    is sum_j c_j(1) L_k^(n-1)(x_j), with c_j(1) the coefficients of
    `heat_flow(ctx, b, 1)` and x_j = h|R^-T lam_j|^2/8 for its rows
    lam_j, so a term the flow drops leaves both: per axis the
    diagonal is e^{-x_d} L_{alpha_d}(x_d), summed over |alpha| = k by the
    Laguerre addition formula.  At k = 0 rhs is b_1(0).  Returns [(lhs, rhs), ...].
    A k above trunc.N has no diagonal entry and is refused.
    """
    if max(ks) > trunc.N:
        raise InvalidConfig(
            f"diagonal sums need k <= N = {trunc.N}, got k = {max(ks)}"
        )
    if np.shape(diag) != (len(trunc),):
        raise ValueError(f"expected the ({len(trunc)},) diagonal, got an "
                         f"array of shape {np.shape(diag)}")
    flowed = heat_flow(ctx, b, 1.0)
    x = ctx.h * np.sum(np.abs(freq_image(ctx, flowed.lam)) ** 2, axis=1) / 8.0
    a = ctx.n - 1
    lag = [np.ones_like(x), 1.0 + a - x]  # L_k^(a)(x) by the recurrence
    for j in range(1, max(ks)):
        lag.append(((2 * j + 1 + a - x) * lag[j] - (j + a) * lag[j - 1])
                   / (j + 1))
    block = trunc.count_through_degree
    return [(complex(np.sum(diag[block(k - 1):block(k)])),
             complex(flowed.c @ lag[k]))
            for k in ks]


def _defect_norms(ctxs, a, b, trunc: MultiIndexSet, drop: int) -> list:
    """(r1, r2) at each context of `ctxs`, contexts of one phase at
    several h: the spectral norms of the two second-order deformation
    defects, formed on the block of degrees <= N - drop, of size m.
    T_ab, T_q and the bracket do not depend on h and are built once.  The
    five compressions at every h share one stacked recurrence; T_a and
    T_b are built in full, since their products sum over every index, and
    T_ab, T_q and the bracket's only on the m x m block.  Each defect goes
    to `operator_norm` as it is formed, so one h's matrices are held at a
    time."""
    m = trunc.count_through_degree(max(trunc.N - drop, 0))
    d = len(trunc)
    ops = [a, b, multiply(a, b), q_form(ctxs[0], a, b),
           poisson(ctxs[0], a, b)]
    mats = compressions([ctx for ctx in ctxs for _ in ops], trunc,
                        ops * len(ctxs),
                        reads=([(d, d)] * 2 + [(m, m)] * 3) * len(ctxs))
    norms = []
    for ctx in ctxs:
        Ta, Tb, Tab, Tq, Tpb = (next(mats) for _ in ops)
        ab = Ta[:m] @ Tb[:, :m]
        d1 = ab - Tab  # + (h/2) Tq
        d1 += (ctx.h / 2.0) * Tq
        d2 = ab - Tb[:m] @ Ta[:, :m]  # - (ih/2) {a, b}
        d2 -= (0.5j * ctx.h) * Tpb
        norms.append((operator_norm(d1), operator_norm(d2)))
        del Ta, Tb, Tab, Tq, Tpb, ab, d1, d2  # before the next h's are built
    return norms


def deformation_residuals(ctx: SpaceContext, a, b, trunc: MultiIndexSet,
                          drop: int = 4):
    """Spectral norms (r1, r2) of the two second-order deformation
    defects at one h, formed on the block of degrees <= N - drop (see
    `_defect_norms`)."""
    return _defect_norms([ctx], a, b, trunc, drop)[0]


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
    skew = freq_pairing(ctx, a.lam, b.lam) - freq_pairing(ctx, b.lam, a.lam).T
    return bool(np.all(np.abs(skew) <= scale * np.outer(
        np.linalg.norm(a.lam, axis=1), np.linalg.norm(b.lam, axis=1))))


def _fit_slope(hs: np.ndarray, rs: np.ndarray) -> float:
    # residuals at rounding floor, or not finite, carry no scaling
    # information
    if not np.all(np.isfinite(rs)) or np.max(rs) < 1e-10:
        return float("nan")
    return float(np.polyfit(np.log(hs), np.log(rs), 1)[0])


def deformation_sweep(phase: PhaseMatrices, a, b, h_list: Sequence[float],
                      N: int, drop: int = 4) -> SweepResult:
    """Deformation residuals across h, with log-log slope fits.

    No field of the space context but h itself depends on h, so the phase
    is validated and its geometry derived once, after every h has been
    checked, and each h gets a copy of that context.  The h-independent
    symbols are built once, one `basis.axis_matrices` recurrence serves
    every h, and each h's two defect norms are taken by `operator_norm`
    (`_defect_norms`); each residual equals `deformation_residuals` at
    its h bit for bit.  `commuting` names the pairs whose commutator
    residual has no h^2 term to fit (see `_commute_exactly`).
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
    rows = [(h, r1, r2) for h, (r1, r2) in zip(hs, _defect_norms(
        [replace(base, h=h) for h in hs], a, b, trunc, drop))]
    arr = np.asarray(rows, dtype=float)
    return SweepResult(
        rows=tuple(rows),
        slope1=_fit_slope(arr[:, 0], arr[:, 1]),
        slope2=_fit_slope(arr[:, 0], arr[:, 2]),
        commuting=_commute_exactly(base, a, b),
    )
