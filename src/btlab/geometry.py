"""Phase data and derived geometry of generalized Segal-Bargmann spaces.

A space is specified by a quadratic phase

    phi(X, y) = <X, A X>/2 + <X, B y> + <y, C y>/2

on C^n x C^n with bilinear pairing <u, v> = sum_j u_j v_j (no conjugation
anywhere in the pairing).  Admissibility requires A and C symmetric, det B
nonzero and C_I = (C - conj(C))/2i positive definite.  From these the weight
Phi, its polarization Psi, the reduction matrix R and the normalization
constants of the transform are derived.  Everything downstream works in the
coordinates W = R X, where the space's Gaussian weight becomes exp(-2|W|^2/h).
A frequency lam enters every plane-wave formula only through mu = R^-T lam
(`freq_image`) and mu . conj(mu') (`freq_pairing`), the one frame map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    IllConditionedPhase,
    NonPositiveCI,
    NonSymmetricPhase,
    SingularB,
)

__all__ = [
    "PhaseMatrices",
    "SpaceContext",
    "build_context",
    "phi_weight",
    "psi",
    "phase_phi",
    "kappa_T",
    "theta_on_lambda",
    "freq_image",
    "freq_pairing",
    "fock_phase",
    "heat_phase",
    "random_phase",
]

_COND_LIMIT = 1e12
MAX_N = 64  # largest n of any phase a config names; suites cap n far below
# Results each memoized constructor keeps per process.  Phases and
# contexts are read-only values, so every caller can share one, and a
# process running several commands on one config draws and derives once.
_MEMO_SIZE = 16


def _as_matrix(M, n: int) -> np.ndarray:
    """A read-only complex copy of M, so the caller's array stays theirs."""
    M = np.array(M, dtype=complex)
    if M.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {M.shape}")
    M.setflags(write=False)
    return M


def _as_points(X, n: int) -> np.ndarray:
    """Coerce X to an array of points with coordinate axis last.

    Scalars and bare 1-D arrays of length n are accepted for convenience;
    the returned array always has shape (..., n).
    """
    X = np.asarray(X, dtype=complex)
    if n == 1 and (X.ndim == 0 or X.shape[-1] != 1):
        X = X[..., np.newaxis]
    if X.shape[-1] != n:
        raise ValueError(f"point array last axis must be {n}, got {X.shape}")
    return X


def _qform(X, M, Y):
    """Bilinear <X, M Y> = sum_ij X_i M_ij Y_j, batched over leading axes."""
    return np.einsum("...i,ij,...j->...", X, M, Y)


@dataclass(frozen=True, eq=False)
class PhaseMatrices:
    """Admissible phase data (A, B, C) in dimension n.

    Invariants (checked by :func:`validate_phase` / :func:`build_context`):
    A and C symmetric as stored, det B bounded away from zero relative to the
    scale of B, and C_I = (C - conj(C))/2i positive definite.  The matrices
    are read-only copies, and a phase equals and hashes as itself only, so
    it keys the context memo of :func:`build_context`.
    """

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, self.n))
        object.__setattr__(self, "B", _as_matrix(self.B, self.n))
        object.__setattr__(self, "C", _as_matrix(self.C, self.n))


def validate_phase(phase: PhaseMatrices):
    """Check admissibility; return C_I, det B and C_I's eigh pairs (ew, ev)."""
    A, B, C, n = phase.A, phase.B, phase.C, phase.n
    if not np.array_equal(A, A.T):
        raise NonSymmetricPhase("A is not symmetric as stored")
    if not np.array_equal(C, C.T):
        raise NonSymmetricPhase("C is not symmetric as stored")
    detB = np.linalg.det(B)
    # |det B| <= 1e-12 max(1, max|B|)^n in n-th roots, where none overflows
    big = max(1.0, float(np.max(np.abs(B))))
    if abs(detB) ** (1 / n) <= 1e-12 ** (1 / n) * big:
        raise SingularB("det B vanishes relative to the scale of B")
    CI = ((C - C.conj()) / 2j).real
    ew, ev = np.linalg.eigh(CI)
    if ew[0] <= 1e-10:
        raise NonPositiveCI(f"C_I must be positive definite; "
                            f"min eigenvalue {ew[0]:.3e}")
    return CI, detB, ew, ev


@dataclass(frozen=True)
class SpaceContext:
    """Immutable bundle of one phase, one value of h and all derived fields;
    every array is read-only."""

    phase: PhaseMatrices
    h: float
    CI: np.ndarray
    CIinv: np.ndarray
    CIinvsqrt: np.ndarray
    PhiXXbar: np.ndarray
    PhiXX: np.ndarray
    R: np.ndarray
    Rinv: np.ndarray
    Cphi: float
    CPhi: float
    P: np.ndarray  # X = P x + Q xi under kappa_T
    Q: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.phase.n)


def _inv_sqrt(ew: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Principal inverse square root of the SPD matrix of eigh pairs ew, ev."""
    return (ev / np.sqrt(ew)) @ ev.T


def _check_cond(name: str, c: float):
    if not np.isfinite(c) or c > _COND_LIMIT:
        raise IllConditionedPhase(f"{name} has condition number {c:.3e}")


def _check_h(h: float):
    """Refuse a semiclassical parameter outside (0, 1] with ValueError."""
    if not 0.0 < h <= 1.0:
        raise ValueError(f"h must lie in (0, 1], got {h}")


@lru_cache(maxsize=_MEMO_SIZE)
@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused
def build_context(phase: PhaseMatrices, h: float) -> SpaceContext:
    """Derive all geometric fields of an admissible phase.

    Raises the phase validation errors for inadmissible data,
    IllConditionedPhase when B, C_I or R has condition number above 1e12
    or when det B, det C_I or a derived field overflows a float, and
    ValueError for h outside (0, 1].  The identities tying the derived
    fields together (R^*R = conj Phi''_XbarX, C_Phi from det Phi''_XbarX)
    are not re-checked here: `space-info` and `gram` check them.  Memoized
    per (phase, h); a refused phase is not kept, so it raises every time.
    """
    _check_h(h)
    CI, detB, ew, ev = validate_phase(phase)
    A, B, C, n = phase.A, phase.B, phase.C, phase.n
    _check_cond("B", np.linalg.cond(B))
    _check_cond("C_I", ew[-1] / ew[0])
    CIinvsqrt = _inv_sqrt(ew, ev)
    CIinv = CIinvsqrt @ CIinvsqrt
    PhiXXbar = B @ CIinv @ B.conj().T / 4
    PhiXX = -B @ CIinv @ B.T / 4 - A / 2j
    R = CIinvsqrt @ B.T / 2
    _check_cond("R", np.linalg.cond(R))
    Rinv = np.linalg.inv(R)
    detCI = np.linalg.det(CI)
    Cphi = float(2 ** (-n / 2) * np.pi ** (-3 * n / 4)
                 * abs(detB) * detCI ** (-0.25))
    CPhi = float((2 / np.pi) ** n * np.linalg.det(PhiXXbar).real)
    Q = -np.linalg.inv(B.T)  # canonical transform X = -B^-T (C x + xi)
    P = Q @ C
    for name, v in (("det B", detB), ("det C_I", detCI), ("P", P), ("Q", Q),
                    ("Phi''_XbarX", PhiXXbar), ("Phi''_XX", PhiXX),
                    ("R^-1", Rinv), ("C_phi", Cphi), ("C_Phi", CPhi)):
        if not np.all(np.isfinite(v)):
            raise IllConditionedPhase(f"{name} overflows a float")
    for M in (CI, CIinv, CIinvsqrt, PhiXXbar, PhiXX, R, Rinv, P, Q):
        M.setflags(write=False)
    return SpaceContext(
        phase=phase, h=float(h), CI=CI, CIinv=CIinv, CIinvsqrt=CIinvsqrt,
        PhiXXbar=PhiXXbar, PhiXX=PhiXX, R=R, Rinv=Rinv,
        Cphi=Cphi, CPhi=CPhi, P=P, Q=Q,
    )


def phi_weight(ctx: SpaceContext, X) -> np.ndarray:
    """The weight Phi(X) = <X, Phi''_XXbar conj(X)> + Re <X, Phi''_XX X>.

    X may be a single point (shape (n,), or a scalar when n = 1) or a batch
    with coordinates along the last axis; the result drops that axis.
    """
    X = _as_points(X, ctx.n)
    return (_qform(X, ctx.PhiXXbar, X.conj()).real
            + np.real(_qform(X, ctx.PhiXX, X)))


def psi(ctx: SpaceContext, X, Y) -> np.ndarray:
    """Polarization Psi(X, Y); Psi(X, conj(X)) = Phi(X).

    Holomorphic in both arguments:
    Psi(X,Y) = <X, Phi''_XXbar Y> + <X, Phi''_XX X>/2 + <Y, conj(Phi''_XX) Y>/2.
    """
    X = _as_points(X, ctx.n)
    Y = _as_points(Y, ctx.n)
    return (_qform(X, ctx.PhiXXbar, Y)
            + 0.5 * _qform(X, ctx.PhiXX, X)
            + 0.5 * _qform(Y, ctx.PhiXX.conj(), Y))


def phase_phi(ctx: SpaceContext, X, y) -> np.ndarray:
    """The defining phase phi(X, y) = <X,AX>/2 + <X,By> + <y,Cy>/2."""
    X = _as_points(X, ctx.n)
    y = _as_points(y, ctx.n)
    ph = ctx.phase
    return (0.5 * _qform(X, ph.A, X) + _qform(X, ph.B, y)
            + 0.5 * _qform(y, ph.C, y))


def kappa_T(ctx: SpaceContext, x, xi):
    """Complex-linear canonical transform (x, xi) -> (X, Theta).

    X = -B^-T (C x + xi), Theta = B x + A X.  For real (x, xi) the image
    point (X, Theta) lies on the graph manifold of the weight: Theta equals
    theta_on_lambda(ctx, X).
    """
    x = _as_points(x, ctx.n)
    xi = _as_points(xi, ctx.n)
    X = x @ ctx.P.T + xi @ ctx.Q.T
    Theta = x @ ctx.phase.B.T + X @ ctx.phase.A.T
    return X, Theta


def theta_on_lambda(ctx: SpaceContext, X) -> np.ndarray:
    """Section Theta(X) = (2/i)(Phi''_XXbar conj(X) + Phi''_XX X)."""
    X = _as_points(X, ctx.n)
    return (2 / 1j) * (X.conj() @ ctx.PhiXXbar.T + X @ ctx.PhiXX.T)


def freq_image(ctx: SpaceContext, lam) -> np.ndarray:
    """Reduced frequency mu = R^-T lam: e^{i Re<X, lam>} = e^{i Re<W, mu>}
    at W = R X.  lam is one frequency or a batch with coordinates last."""
    return _as_points(lam, ctx.n) @ ctx.Rinv


def freq_pairing(ctx: SpaceContext, lam, mu) -> np.ndarray:
    """freq_image(lam) . conj(freq_image(mu)), which is
    <lam, (Phi''_XbarX)^-1 conj(mu)> since R^* R = Phi''_XbarX.  lam is
    one frequency or rows (T, n); mu one frequency, or rows (S, n) for
    the (T, S) pairings of every row pair."""
    return freq_image(ctx, lam) @ np.conj(freq_image(ctx, mu)).T


@lru_cache(maxsize=_MEMO_SIZE)
def fock_phase(n: int, beta: float = 1.0) -> PhaseMatrices:
    """Fock-model phase (A, B, C) = (i beta, -2i beta, 2i beta) x identity."""
    eye = np.eye(n)
    return PhaseMatrices(n, 1j * beta * eye, -2j * beta * eye, 2j * beta * eye)


@lru_cache(maxsize=_MEMO_SIZE)
def heat_phase(n: int) -> PhaseMatrices:
    """Heat-kernel-transform phase (A, B, C) = (i, -i, i) x identity."""
    eye = np.eye(n)
    return PhaseMatrices(n, 1j * eye, -1j * eye, 1j * eye)


@lru_cache(maxsize=_MEMO_SIZE)
def random_phase(n: int, seed: int) -> PhaseMatrices:
    """Seeded random phase, admissible by construction.

    One `numpy.random.default_rng(seed)` stream gives, in this order, the
    eight normal n x n matrices S, T, S_c, G, U', U'', V', V'' (one draw
    of shape (8, n, n)), then e uniform on [1, 4]^n and eta uniform on
    [0.2, 3]^n.  A = ((S + S^T) + i (T + T^T))/4 and Re C = (S_c +
    S_c^T)/4.  O, U and V are the Q factors of G, U' + iU'' and V' + iV'',
    so O is real orthogonal and U, V are unitary.  Then Im C = C_I =
    O diag(e) O^T, symmetrized as stored, H = U diag(eta) U^* and
    B = 2 H^1/2 V C_I^1/2, so that Phi''_XbarX = B C_I^-1 B^*/4 = H has
    the eigenvalues eta, cond B <= sqrt(15 * 4) < 7.75 and |det B| >=
    (2 sqrt(0.2))^n.  Every n <= `MAX_N` draws once.
    """
    rng = np.random.default_rng(seed)
    S, T, Sc, G, Ur, Ui, Vr, Vi = rng.normal(size=(8, n, n))
    e = rng.uniform(1.0, 4.0, size=n)
    eta = rng.uniform(0.2, 3.0, size=n)
    O = np.linalg.qr(G)[0]
    U, V = np.linalg.qr(np.stack([Ur + 1j * Ui, Vr + 1j * Vi]))[0]
    CI = (O * e) @ O.T
    B = 2.0 * ((U * np.sqrt(eta)) @ U.conj().T) @ V @ ((O * np.sqrt(e)) @ O.T)
    A = 0.5 * ((S + S.T) / 2 + 1j * (T + T.T) / 2)
    C = 0.5 * (Sc + Sc.T) / 2 + 1j * (CI + CI.T) / 2
    return PhaseMatrices(n, A, B, C)
