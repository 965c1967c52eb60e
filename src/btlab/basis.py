"""Graded monomial basis of H_Phi and its coefficient-space machinery.

The basis elements are

    u_alpha(X) = {C_Phi/h^n * 2^|a| / (a! h^|a|)}^(1/2) (RX)^a
                 * exp(<X, Phi''_XX X>/h)

indexed by multi-indices alpha, ordered graded-lexicographically.  In the
coordinates W = RX the weighted products u_alpha conj(u_beta) e^{-2 Phi/h}
collapse to scaled monomials

    v_alpha(W) = (sqrt(2/h) W)^alpha / sqrt(alpha!)

against the weight e^{-2|W|^2/h}; all quadrature in this package samples
v_alpha through a per-axis recurrence, which keeps every sampled value O(1)
for any truncation degree.

The weight, the monomials, plane waves and phase-space translations all
factor over the coordinates of W, so Gram, plane-wave Toeplitz and Weyl
compressions are assembled axis by axis (`separable_pair_sum`) from
(N+1) x (N+1) one-axis pair sums; only a callable symbol needs the full
order^(2n) tensor grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SpaceContext, _as_points, _qform
from .quadrature import QuadratureRule, complex_grid

__all__ = [
    "MultiIndexSet",
    "enumerate_multiindices",
    "u_alpha_eval",
    "monomial_table",
    "weighted_pair_sum",
    "separable_pair_sum",
    "gram_matrix",
]

# Fixed node-axis chunk for the pair sum; partial sums are added in chunk
# order, so results are bit-identical from run to run.
_CHUNK = 16384


@dataclass(frozen=True)
class MultiIndexSet:
    """All multi-indices alpha in N_0^n with |alpha| <= N, graded-lex order."""

    n: int
    N: int
    indices: tuple
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "degrees", np.array([sum(a) for a in self.indices])
        )

    def __len__(self):
        return len(self.indices)

    def count_through_degree(self, k: int) -> int:
        """Number of indices with |alpha| <= k (a leading block)."""
        if k < 0:
            return 0
        return int(np.searchsorted(self.degrees, k, side="right"))


def enumerate_multiindices(n: int, N: int) -> MultiIndexSet:
    if n < 1 or N < 0:
        raise ValueError("need n >= 1 and N >= 0")
    out = []
    for deg in range(N + 1):
        level = []

        def emit(prefix, rem, slots):
            if slots == 1:
                level.append(tuple(prefix) + (rem,))
                return
            for k in range(rem, -1, -1):
                emit(prefix + [k], rem - k, slots - 1)

        emit([], deg, n)
        level.sort(reverse=True)
        out.extend(level)
    return MultiIndexSet(n=n, N=N, indices=tuple(out))


def _log_norm(ctx: SpaceContext, alpha) -> float:
    """log of the u_alpha normalization constant, computed in log space."""
    deg = sum(alpha)
    val = math.log(ctx.CPhi) - ctx.n * math.log(ctx.h)
    val += deg * math.log(2.0 / ctx.h)
    val -= sum(math.lgamma(a + 1) for a in alpha)
    return 0.5 * val


def u_alpha_eval(ctx: SpaceContext, alpha, X):
    """Pointwise basis element u_alpha(X); X batched with coordinates last."""
    X = _as_points(X, ctx.n)
    W = X @ ctx.R.T
    mono = np.ones(X.shape[:-1], dtype=complex)
    for d, a in enumerate(alpha):
        if a:
            mono = mono * W[..., d] ** a
    gauss = np.exp(_qform(X, ctx.PhiXX, X) / ctx.h)
    return math.exp(_log_norm(ctx, alpha)) * mono * gauss


def monomial_table(W: np.ndarray, mset: MultiIndexSet, h: float) -> np.ndarray:
    """Scaled monomials v_alpha(W) for all alpha, shape (len(mset), npts).

    W has shape (n, npts).  Built by the stable per-axis recurrence
    v_0 = 1, v_k = v_{k-1} * (sqrt(2/h) W) / sqrt(k).
    """
    n, npts = W.shape
    per_axis = []
    zz = np.sqrt(2.0 / h) * W
    for d in range(n):
        V = np.empty((mset.N + 1, npts), dtype=complex)
        V[0] = 1.0
        for k in range(1, mset.N + 1):
            V[k] = V[k - 1] * zz[d] / np.sqrt(k)
        per_axis.append(V)
    out = np.empty((len(mset), npts), dtype=complex)
    for j, alpha in enumerate(mset.indices):
        acc = per_axis[0][alpha[0]]
        for d in range(1, n):
            acc = acc * per_axis[d][alpha[d]]
        out[j] = acc
    return out


def weighted_pair_sum(
    mset: MultiIndexSet,
    h: float,
    W_bra: np.ndarray,
    W_ket: np.ndarray,
    wt: np.ndarray,
) -> np.ndarray:
    """OUT[b, a] = sum_k wt[k] conj(v_b(W_bra[:,k])) v_a(W_ket[:,k]).

    The contraction behind every compression.  The node axis is processed
    serially in fixed chunks, so a large grid never holds more than _CHUNK
    nodes of monomial tables at once.
    """
    out = 0
    for start in range(0, wt.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        Vb = monomial_table(W_bra[:, sl], mset, h)
        Vk = Vb if W_ket is W_bra else monomial_table(W_ket[:, sl], mset, h)
        out = out + (Vb.conj() * wt[sl]) @ Vk.T
    return out


def separable_pair_sum(trunc: MultiIndexSet, h: float, rule: QuadratureRule,
                       terms) -> np.ndarray:
    """OUT[b, a] = sum_t c_t prod_d A_{t,d}[b_d, a_d] for (c_t, axes_t) in
    `terms`, with one factor (shift, mu, nu) per coordinate in axes_t.

    A_{t,d} is `weighted_pair_sum` over the one-variable degrees 0..N on
    the one-axis grid w of complex_grid(rule, 1, sqrt(h/2)), with the ket
    sampled at w - shift and the extra weight exp(i Re(w mu) + nu w).  In
    W = RX the Gaussian weight, the monomials and every such factor split
    coordinate by coordinate, so this is the pair sum over the order^(2n)
    tensor grid with the product weight, at the cost of n one-axis sums.
    Terms that share every factor except the last are folded into one
    last-axis weight first; at n = 1 that is a single contraction.
    """
    w, wt = complex_grid(rule, 1, np.sqrt(h / 2.0))
    axis = enumerate_multiindices(1, trunc.N)
    idx = np.array(trunc.indices).T

    def pair(d, shift, weight):
        ket = w if shift == 0 else w - shift
        A = weighted_pair_sum(axis, h, w, ket, wt * weight)
        return A[np.ix_(idx[d], idx[d])]

    def axis_weight(mu, nu):
        return np.exp(1j * np.real(w[0] * mu) + nu * w[0])

    groups = {}
    for c, axes in terms:
        *head, (shift, mu, nu) = axes
        groups.setdefault((tuple(head), shift), []).append((c, mu, nu))
    out = np.zeros((len(trunc), len(trunc)), dtype=complex)
    for (head, shift), last in groups.items():
        weight = sum(c * axis_weight(mu, nu) for c, mu, nu in last)
        block = pair(-1, shift, weight)
        for d, (s, mu, nu) in enumerate(head):
            block = block * pair(d, s, axis_weight(mu, nu))
        out = out + block
    return out


def gram_matrix(ctx: SpaceContext, trunc: MultiIndexSet,
                rule: QuadratureRule) -> np.ndarray:
    """G[a, b] = <u_a, u_b> over H_Phi; identity for admissible phases.

    The prefactor C_Phi / (h^n |det R|^2) is the squared normalization of
    the u_alpha times the Jacobian of W = RX.  It equals (2/pi h)^n exactly
    when C_Phi and R belong to the phase, so the check sees both.
    """
    pref = ctx.CPhi / (ctx.h ** ctx.n * abs(np.linalg.det(ctx.R)) ** 2)
    out = separable_pair_sum(trunc, ctx.h, rule,
                             [(1.0, ((0.0, 0.0, 0.0),) * ctx.n)])
    # out[b, a] carries the conjugate on the first slot; <u_a, u_b>
    # conjugates the second, so transpose without conjugation.
    return pref * out.T

