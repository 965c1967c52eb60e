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
    "kappa_affine",
    "theta_on_lambda",
    "freq_image",
    "freq_pairing",
    "fock_phase",
    "heat_phase",
    "random_phase",
]

_COND_LIMIT = 1e12
# Largest n `random_phase` draws for; see its docstring.
MAX_RANDOM_N = 5
# Most draws `random_phase` tests at once: 4096 x 6 x 5 x 5 normals at
# n = 5 are 4.9 MB.
_MAX_DRAW_BATCH = 4096
MAX_N = 64  # largest n of any phase a config names; suites cap n far below


def _as_matrix(M, n: int) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {M.shape}")
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


@dataclass(frozen=True)
class PhaseMatrices:
    """Admissible phase data (A, B, C) in dimension n.

    Invariants (checked by :func:`validate_phase` / :func:`build_context`):
    A and C symmetric as stored, det B bounded away from zero relative to the
    scale of B, and C_I = (C - conj(C))/2i positive definite.
    """

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, self.n))
        object.__setattr__(self, "B", _as_matrix(self.B, self.n))
        object.__setattr__(self, "C", _as_matrix(self.C, self.n))


def validate_phase(phase: PhaseMatrices) -> np.ndarray:
    """Check admissibility; return C_I on success."""
    A, B, C, n = phase.A, phase.B, phase.C, phase.n
    if not np.array_equal(A, A.T):
        raise NonSymmetricPhase("A is not symmetric as stored")
    if not np.array_equal(C, C.T):
        raise NonSymmetricPhase("C is not symmetric as stored")
    scale = max(1.0, float(np.max(np.abs(B)))) ** n
    if abs(np.linalg.det(B)) <= 1e-12 * scale:
        raise SingularB("det B vanishes relative to the scale of B")
    CI = ((C - C.conj()) / 2j).real
    eigvals = np.linalg.eigvalsh(CI)
    if eigvals.min() <= 1e-10:
        raise NonPositiveCI(
            f"C_I must be positive definite; min eigenvalue {eigvals.min():.3e}"
        )
    return CI


@dataclass(frozen=True)
class SpaceContext:
    """Immutable bundle of one phase, one value of h and all derived fields."""

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
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.phase.n)


def _inv_sqrt(M: np.ndarray) -> np.ndarray:
    """Principal inverse square root of a real SPD matrix."""
    ew, ev = np.linalg.eigh(M)
    return (ev / np.sqrt(ew)) @ ev.T


def _check_cond(name: str, M: np.ndarray):
    c = np.linalg.cond(M)
    if not np.isfinite(c) or c > _COND_LIMIT:
        raise IllConditionedPhase(f"{name} has condition number {c:.3e}")


def _check_h(h: float):
    """Refuse a semiclassical parameter outside (0, 1] with ValueError."""
    if not 0.0 < h <= 1.0:
        raise ValueError(f"h must lie in (0, 1], got {h}")


def build_context(phase: PhaseMatrices, h: float) -> SpaceContext:
    """Derive all geometric fields of an admissible phase.

    Raises the phase validation errors for inadmissible data,
    IllConditionedPhase when B, C_I or R has condition number above 1e12,
    and ValueError for h outside (0, 1].  The identities tying the derived
    fields together (R^*R = conj Phi''_XbarX, C_Phi from det Phi''_XbarX)
    are not re-checked here: `space-info` and `gram` check them.
    """
    _check_h(h)
    CI = validate_phase(phase)
    A, B, n = phase.A, phase.B, phase.n
    _check_cond("B", B)
    _check_cond("C_I", CI)
    CIinvsqrt = _inv_sqrt(CI)
    CIinv = CIinvsqrt @ CIinvsqrt
    PhiXXbar = B @ CIinv @ B.conj().T / 4
    PhiXX = -B @ CIinv @ B.T / 4 - A / 2j
    R = CIinvsqrt @ B.T / 2
    _check_cond("R", R)
    Rinv = np.linalg.inv(R)
    detB = np.linalg.det(B)
    detCI = np.linalg.det(CI)
    Cphi = float(2 ** (-n / 2) * np.pi ** (-3 * n / 4)
                 * abs(detB) * detCI ** (-0.25))
    CPhi = float((2 / np.pi) ** n * np.linalg.det(PhiXXbar).real)
    return SpaceContext(
        phase=phase, h=float(h), CI=CI, CIinv=CIinv, CIinvsqrt=CIinvsqrt,
        PhiXXbar=PhiXXbar, PhiXX=PhiXX, R=R, Rinv=Rinv,
        Cphi=Cphi, CPhi=CPhi,
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
    P, Q = kappa_affine(ctx)
    X = x @ P.T + xi @ Q.T
    Theta = x @ ctx.phase.B.T + X @ ctx.phase.A.T
    return X, Theta


def kappa_affine(ctx: SpaceContext):
    """Matrices (P, Q) with X = P x + Q xi under kappa_T."""
    BTinv = np.linalg.inv(ctx.phase.B.T)
    return -BTinv @ ctx.phase.C, -BTinv


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


def fock_phase(n: int, beta: float = 1.0) -> PhaseMatrices:
    """Fock-model phase (A, B, C) = (i beta, -2i beta, 2i beta) x identity."""
    eye = np.eye(n)
    return PhaseMatrices(n, 1j * beta * eye, -2j * beta * eye, 2j * beta * eye)


def heat_phase(n: int) -> PhaseMatrices:
    """Heat-kernel-transform phase (A, B, C) = (i, -i, i) x identity."""
    eye = np.eye(n)
    return PhaseMatrices(n, 1j * eye, -1j * eye, 1j * eye)


def random_phase(n: int, seed: int) -> PhaseMatrices:
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
