"""Graded monomial basis of H_Phi and its coefficient-space machinery.

The basis elements are

    u_alpha(X) = {C_Phi/h^n * 2^|a| / (a! h^|a|)}^(1/2) (RX)^a
                 * exp(<X, Phi''_XX X>/h)

indexed by multi-indices alpha, ordered graded-lexicographically.  In the
coordinates W = RX, z = sqrt(2/h) W, the weighted products
u_alpha conj(u_beta) e^{-2 Phi/h} collapse to the orthonormal monomials

    v_alpha(W) = (sqrt(2/h) W)^alpha / sqrt(alpha!)

of the standard Fock space, whose inner product integrates against
pi^-n e^{-|z|^2} L(dz).

The weight, the monomials, plane waves and phase-space translations all
factor over the coordinates of W, so plane-wave Toeplitz and Weyl
compressions are entrywise products of exact (N+1) x (N+1) one-axis
matrices (`axis_matrices`, from the Berger-Coburn composition law) of
three seeds each: no compression integrates anything.
`operators.compressions` assembles them; the Gram matrix is the identity
times a closed-form prefactor.  `weighted_pair_sum` on a Gauss-Hermite
tensor grid is the reference they are tested against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidConfig
from .geometry import SpaceContext, _Record

__all__ = [
    "MultiIndexSet",
    "enumerate_multiindices",
    "monomial_table",
    "weighted_pair_sum",
    "axis_matrices",
    "gram_matrix",
]

# Fixed node-axis chunk for the pair sum; partial sums are added in chunk
# order, so results are bit-identical from run to run.
_CHUNK = 16384

# Most basis indices of a truncation: a dim^2 complex matrix is <= 256 MiB.
MAX_BASIS = 4096


class MultiIndexSet(_Record):
    """All multi-indices alpha in N_0^n with |alpha| <= N, graded-lex order."""

    def __init__(self, n: int, N: int, indices: tuple):
        vars(self).update(n=n, N=N, indices=indices)

    def __len__(self):
        return len(self.indices)

    def count_through_degree(self, k: int) -> int:
        """Number of indices with |alpha| <= k (a leading block)."""
        return math.comb(min(k, self.N) + self.n, self.n) if k >= 0 else 0


def enumerate_multiindices(n: int, N: int) -> MultiIndexSet:
    """All |alpha| <= N by degree, each degree in descending lexicographic
    order; over MAX_BASIS of them are refused unbuilt."""
    if n < 1 or N < 0:
        raise ValueError("need n >= 1 and N >= 0")
    if math.comb(N + n, n) > MAX_BASIS:
        raise InvalidConfig(f"N = {N} at n = {n} has {math.comb(N + n, n)} "
                            f"basis indices; at most {MAX_BASIS} are supported")
    # exact[k]: the indices of degree k over the trailing coordinates, in
    # that order; each pass prepends one coordinate, largest entry first
    exact = [[(k,)] for k in range(N + 1)]
    for _ in range(n - 1):
        exact = [[(a,) + rest for a in range(k, -1, -1)
                  for rest in exact[k - a]] for k in range(N + 1)]
    return MultiIndexSet(n=n, N=N,
                         indices=tuple(itertools.chain.from_iterable(exact)))


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

    The quadrature reference for `operators.compressions`: on a converged
    tensor grid it gives the same compressions times (pi h/2)^n.  The node
    axis is processed serially in fixed chunks, so a large grid never holds
    more than _CHUNK nodes of monomial tables at once.
    """
    out = 0
    for start in range(0, wt.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        Vb = monomial_table(W_bra[:, sl], mset, h)
        Vk = Vb if W_ket is W_bra else monomial_table(W_ket[:, sl], mset, h)
        out = out + (Vb.conj() * wt[sl]) @ Vk.T
    return out


def axis_matrices(N: int, seeds) -> np.ndarray:
    """A[f, b, a] = <v_b, e^{alpha z + beta conj(z)} v_a(z - s)> in the Fock
    inner product of one variable z, degrees 0..N, for each row
    f = (alpha, gamma, w) of the (F, 3) array `seeds`, gamma = beta - s and
    w = e^{alpha beta} (`operators._terms` forms them): shape (F, N+1, N+1).

    The projection turns e^{beta conj(z)} into translation by beta
    (Berger-Coburn).  So column 0 is w alpha^b / sqrt(b!) and column a+1
    is (Z + gamma) A[:, a] / sqrt(a+1), Z v_b = sqrt(b+1) v_{b+1}: exact
    on the truncation.  That recurrence cancels terms of size about
    e^{|s|^2/2}, so A is built along its diagonals instead,
    A[a+m, a] = w alpha^m sqrt(a!/(a+m)!) L_a^(m)(-alpha gamma)
    and A[a, a+m] the same with gamma for alpha, by the Laguerre recurrence
    in a rescaled to keep every value O(1).  One (N+1)-step recurrence runs
    over the whole stack, elementwise in f, so every slice is bit-identical
    to a one-row call.
    """
    seeds = np.asarray(seeds, dtype=complex)
    start, w = seeds[:, :2, None], seeds[:, 2:, None]  # (alpha, gamma), w
    al, ga = start[:, :1], start[:, 1:]
    # alpha gamma by parts, rounded as a scalar complex product is (numpy's
    # vector loop fuses a multiply-add, which moves the last bit)
    ag = ((al.real * ga.real - al.imag * ga.imag)
          + 1j * (al.real * ga.imag + al.imag * ga.real))
    m = np.arange(N + 1)
    # F_0[f][z][m] = w z^m / sqrt(m!) for z = alpha, gamma
    F = w * np.cumprod(np.concatenate(
        (np.ones_like(start), start / np.sqrt(m[1:])), axis=2), axis=2)
    A = np.empty((len(seeds), N + 1, N + 1), dtype=complex)
    prev = back = 0.0
    for a in range(N + 1):
        A[:, a:, a] = F[:, 0, :N + 1 - a]  # A[a+m, a]
        A[:, a, a:] = F[:, 1, :N + 1 - a]  # A[a, a+m]
        # Laguerre step a -> a+1 on every diagonal m; back is sqrt(a (a+m))
        root = np.sqrt((a + 1) * (a + 1 + m))
        prev, F = F, ((2 * a + 1 + ag + m) * F - back * prev) / root
        back = root
    return A


def _gram_prefactor(ctx: SpaceContext) -> float:
    """C_Phi (pi/2)^n / |det R|^2, the common square norm of the u_alpha.

    In the Fock frame the u_alpha are the orthonormal v_alpha times one
    common constant.  Its square collects the normalization of the
    u_alpha, the Jacobian of z = sqrt(2/h) RX and the pi^n of the Fock
    measure; it equals 1 exactly when C_Phi and R belong to the phase.
    """
    return ctx.CPhi * (np.pi / 2.0) ** ctx.n / abs(np.linalg.det(ctx.R)) ** 2


def gram_matrix(ctx: SpaceContext, trunc: MultiIndexSet) -> np.ndarray:
    """G[a, b] = <u_a, u_b> over H_Phi in closed form: `_gram_prefactor`
    times I.  The prefactor is 1 for admissible phases and reads both C_Phi
    and R, so the check sees both."""
    return _gram_prefactor(ctx) * np.eye(len(trunc), dtype=complex)
