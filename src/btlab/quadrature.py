"""Deterministic tensorized Gauss-Hermite quadrature, for references only.

No CLI suite integrates: the closed forms are tested against quadrature
references (`basis.weighted_pair_sum`, the quadrature Bargmann transform
and projector, `heat.heat_flow_quadrature`) that reduce every integral to
Gaussian weight first, so one Gauss-Hermite engine covers all of C^n.
Complex integrals are real 2n-dim integrals over (Re W, Im W) with
L(dY) = |det R|^-2 L(dW) under Y = R^-1 W; axes are paired as
W_d = sigma (s_d + i s_{n+d}).

Determinism: tensor grids are enumerated in a fixed lexicographic order
(meshgrid with 'ij' indexing, then ravel) and summation uses numpy's pairwise
reduction over that fixed layout, so results are bit-identical across runs
and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderOutOfRange

__all__ = [
    "QuadratureRule",
    "gauss_hermite_rule",
    "complex_grid",
]


@dataclass(frozen=True)
class QuadratureRule:
    """One-dimensional Gauss-Hermite rule for the weight exp(-s^2)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule with `order` nodes, exact through degree 2*order-1.

    Raises OrderOutOfRange unless 2 <= order <= 256.
    """
    if not 2 <= order <= 256:
        raise OrderOutOfRange(f"order must be in [2, 256], got {order}")
    # imported here: no CLI suite builds a rule, so a run never loads
    # numpy.polynomial
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(order)
    return QuadratureRule(order=order, nodes=x, weights=w)


def _tensor_grid(rule: QuadratureRule, m: int):
    """Nodes (m, order^m) and combined weights (order^m,), lexicographic."""
    mesh = np.meshgrid(*([rule.nodes] * m), indexing="ij")
    S = np.stack([ax.ravel() for ax in mesh], axis=0)
    wmesh = np.meshgrid(*([rule.weights] * m), indexing="ij")
    wt = wmesh[0].ravel().copy()
    for ax in wmesh[1:]:
        wt *= ax.ravel()
    return S, wt


def complex_grid(rule: QuadratureRule, n: int, sigma: float):
    """Quadrature grid for int_{C^n} F(W) exp(-|W|^2/sigma^2) L(dW).

    Returns (W, wt) with W of shape (n, npts) complex and wt of shape (npts,)
    such that the integral is approximated by sum(wt * F(W)); the Gaussian
    weight is absorbed into wt, so F is sampled without it.  npts = order^2n.
    """
    S, wt = _tensor_grid(rule, 2 * n)
    W = sigma * (S[:n] + 1j * S[n:])
    return W, sigma ** (2 * n) * wt
