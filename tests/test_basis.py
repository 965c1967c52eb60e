import dataclasses
import math

import numpy as np
import pytest

from btlab.basis import (
    enumerate_multiindices,
    gram_matrix,
    monomial_table,
    u_alpha_eval,
)
from btlab.geometry import build_context, fock_phase, heat_phase, random_phase
from btlab.quadrature import gauss_hermite_rule


def test_multiindex_enumeration_nested():
    small = enumerate_multiindices(2, 3)
    big = enumerate_multiindices(2, 5)
    assert big.indices[: len(small)] == small.indices
    assert len(small) == 10  # (3+2 choose 2)
    assert small.count_through_degree(1) == 3
    assert small.count_through_degree(-1) == 0
    assert small.count_through_degree(3) == len(small)
    # graded order: degrees never decrease
    assert np.all(np.diff(small.degrees) >= 0)


def test_monomial_table_values():
    h = 0.7
    mset = enumerate_multiindices(1, 4)
    W = np.array([[0.3 - 0.2j, 1.1 + 0.4j]])
    V = monomial_table(W, mset, h)
    for i, alpha in enumerate(mset.indices):
        k = alpha[0]
        ref = (np.sqrt(2.0 / h) * W[0]) ** k / math.sqrt(math.factorial(k))
        assert np.max(np.abs(V[i] - ref)) < 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_u_alpha_explicit_formula():
    ctx = build_context(random_phase(1, 4), 0.6)
    X = np.array([[0.4 + 0.1j], [-0.2 - 0.3j]])
    for alpha in ((0,), (1,), (3,)):
        k = alpha[0]
        W = X @ ctx.R.T
        mono = (np.sqrt(2.0 / ctx.h) * W[:, 0]) ** k / math.sqrt(
            math.factorial(k)
        )
        quad = np.exp((X[:, 0] ** 2 * ctx.PhiXX[0, 0]) / ctx.h)
        ref = (
            (2.0 / (np.pi * ctx.h)) ** 0.5
            * abs(np.linalg.det(ctx.R))
            * mono
            * quad
        )
        got = u_alpha_eval(ctx, alpha, X)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_gram_identity_node_dim_one(rule60):
    trunc = enumerate_multiindices(1, 10)
    eye = np.eye(len(trunc))
    for ctx in (
        build_context(fock_phase(1, 1.0), 1.0),
        build_context(heat_phase(1), 1.0),
        build_context(random_phase(1, 9), 0.5),
    ):
        G = gram_matrix(ctx, trunc, rule60)
        assert np.max(np.abs(G - eye)) < 1e-10


def test_gram_identity_node_dim_two(rule30):
    ctx = build_context(fock_phase(2, 1.0), 0.4)
    trunc = enumerate_multiindices(2, 6)
    G = gram_matrix(ctx, trunc, rule30)
    assert np.max(np.abs(G - np.eye(len(trunc)))) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_gram_sees_normalization_and_reduction(rule30, n):
    """A context whose C_Phi and R do not belong to its phase fails the
    Gram check: C_Phi doubled and R tripled scale G by 2 / 9^n."""
    ctx = build_context(random_phase(n, 7), 1.0)
    bad = dataclasses.replace(ctx, CPhi=2 * ctx.CPhi, R=3 * ctx.R)
    trunc = enumerate_multiindices(n, 4)
    eye = np.eye(len(trunc))
    assert np.max(np.abs(gram_matrix(ctx, trunc, rule30) - eye)) < 1e-10
    dev = np.max(np.abs(gram_matrix(bad, trunc, rule30) - eye))
    assert abs(dev - (1.0 - 2.0 / 9.0 ** n)) < 1e-10
