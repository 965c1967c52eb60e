import dataclasses
import math

import numpy as np
import pytest

from reference import factor_seeds, u_alpha_eval
# the fixture phases: the seeded draw of earlier releases (see reference)
from reference import legacy_random_phase as random_phase

from btlab.basis import (
    MAX_BASIS,
    axis_matrices,
    enumerate_multiindices,
    gram_matrix,
    monomial_table,
)
from btlab.errors import InvalidConfig
from btlab.geometry import build_context, fock_phase, heat_phase


def test_multiindex_enumeration_nested():
    small = enumerate_multiindices(2, 3)
    big = enumerate_multiindices(2, 5)
    assert big.indices[: len(small)] == small.indices
    assert len(small) == 10  # (3+2 choose 2)
    assert small.count_through_degree(1) == 3
    assert small.count_through_degree(-1) == 0
    assert small.count_through_degree(3) == len(small)
    # graded order: degrees never decrease
    assert np.all(np.diff([sum(a) for a in small.indices]) >= 0)
    # the closed-form block ends match a direct count, past N too
    for n in range(1, 5):
        for N in range(7):
            mset = enumerate_multiindices(n, N)
            for k in range(-1, N + 3):
                want = sum(sum(a) <= k for a in mset.indices)
                assert mset.count_through_degree(k) == want, (n, N, k)


def _recursive_multiindices(n, N):
    """The earlier enumeration: each degree by recursion, then sorted in
    descending lexicographic order."""
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
    return tuple(out)


def test_multiindex_enumeration_matches_recursive_sort():
    for n in range(1, 5):
        for N in range(13):
            assert (enumerate_multiindices(n, N).indices
                    == _recursive_multiindices(n, N)), (n, N)


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


def test_gram_identity_node_dim_one():
    trunc = enumerate_multiindices(1, 10)
    eye = np.eye(len(trunc))
    for ctx in (
        build_context(fock_phase(1, 1.0), 1.0),
        build_context(heat_phase(1), 1.0),
        build_context(random_phase(1, 9), 0.5),
    ):
        G = gram_matrix(ctx, trunc)
        assert np.max(np.abs(G - eye)) < 1e-10


def test_gram_identity_node_dim_two():
    ctx = build_context(fock_phase(2, 1.0), 0.4)
    trunc = enumerate_multiindices(2, 6)
    G = gram_matrix(ctx, trunc)
    assert np.max(np.abs(G - np.eye(len(trunc)))) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_gram_sees_normalization_and_reduction(n):
    """A context whose C_Phi and R do not belong to its phase fails the
    Gram check: C_Phi doubled and R tripled scale G by 2 / 9^n."""
    ctx = build_context(random_phase(n, 7), 1.0)
    bad = dataclasses.replace(ctx, CPhi=2 * ctx.CPhi, R=3 * ctx.R)
    trunc = enumerate_multiindices(n, 4)
    eye = np.eye(len(trunc))
    assert np.max(np.abs(gram_matrix(ctx, trunc) - eye)) < 1e-10
    dev = np.max(np.abs(gram_matrix(bad, trunc) - eye))
    assert abs(dev - (1.0 - 2.0 / 9.0 ** n)) < 1e-10


def test_multiindex_count_is_bounded():
    """The index count is checked before any index is built."""
    assert len(enumerate_multiindices(3, 24)) == 2925
    assert len(enumerate_multiindices(1, MAX_BASIS - 1)) == MAX_BASIS
    for n, N in ((1, MAX_BASIS), (1, 10 ** 12), (3, 28)):
        with pytest.raises(InvalidConfig):
            enumerate_multiindices(n, N)


def _mixed_batch(h):
    """A zero factor, Toeplitz and general factors, Weyl factors with
    |shift|/r up to 5, and duplicates of some of them, as physical
    factors (shift, mu, nu)."""
    r = math.sqrt(h / 2.0)
    toeplitz = [(0.0, mu, 0.0) for mu in (1.4 - 0.6j, -0.3 + 2.0j, 2.0)]
    weyl = [(s, 0.0, (2.0 / h) * np.conj(s))
            for s in (5.0 * r, -3.0j * r, 5.0 * r * np.exp(0.7j))]
    factors = [(0.0, 0.0, 0.0), *toeplitz, *weyl,
               (0.3 - 0.2j, 0.7 + 0.4j, 0.2 - 0.5j)]
    return factors + factors[::3]


def _seeds(h, factors):
    return np.array([factor_seeds(h, *factor) for factor in factors])


@pytest.mark.parametrize("h, N", [(1.0, 0), (0.5, 12), (0.1, 24)])
def test_stacked_recurrence_equals_single_factors(h, N):
    """One recurrence over a mixed stack gives, slice by slice, the same
    bits as running it on each seed row alone."""
    seeds = _seeds(h, _mixed_batch(h))
    stack = axis_matrices(N, seeds)
    assert stack.shape == (len(seeds), N + 1, N + 1)
    for A, row in zip(stack, seeds):
        assert np.array_equal(A, axis_matrices(N, row[np.newaxis])[0])
    assert np.array_equal(stack[0], np.eye(N + 1))


def test_stack_over_several_h_equals_one_h_at_a_time():
    """Seeds formed at several h share one stack, and each slice is the
    one-row run bit for bit, so a sweep over h needs a single recurrence."""
    N = 16
    seeds = np.concatenate([_seeds(h, _mixed_batch(h))
                            for h in (0.4, 0.2, 0.1)])
    stack = axis_matrices(N, seeds)
    assert stack.shape == (len(seeds), N + 1, N + 1)
    for A, row in zip(stack, seeds):
        assert np.array_equal(A, axis_matrices(N, row[np.newaxis])[0])


@pytest.mark.parametrize("h, shift, mu, nu", [
    (1.0, 0.0, 0.0, 0.0),
    (0.5, 0.0, 1.4 - 0.6j, 0.0),
    (0.7, 0.3 - 0.2j, 0.7 + 0.4j, 0.2 - 0.5j),
    (1.0, 0.6 + 0.5j, 0.0, 2.0 * (0.6 - 0.5j)),  # a Weyl factor
])
def test_axis_matrix_obeys_composition_recurrence(h, shift, mu, nu):
    """Column 0 is e^{alpha beta} alpha^b / sqrt(b!) and column a+1 is
    (Z + beta - shift/r) (column a) / sqrt(a+1), the defining recurrence
    of the one-axis compression; zero factors give the identity exactly.
    The factor is read from the middle of a mixed stack."""
    N = 12
    batch = _mixed_batch(h)
    batch.insert(4, (shift, mu, nu))
    A = axis_matrices(N, _seeds(h, batch))[4]
    r = math.sqrt(h / 2.0)
    alpha, beta = (0.5j * mu + nu) * r, 0.5j * np.conj(mu) * r
    b = np.arange(N + 1)
    col0 = np.exp(alpha * beta) * np.array(
        [alpha ** k / math.sqrt(math.factorial(k)) for k in b])
    scale = np.max(np.abs(A))
    assert np.max(np.abs(A[:, 0] - col0)) <= 1e-14 * scale
    Z = np.diag(np.sqrt(b[1:]), -1)
    step = (Z + (beta - shift / r) * np.eye(N + 1)) @ A[:, :-1]
    assert np.max(np.abs(A[:, 1:] * np.sqrt(b[1:]) - step)) <= 1e-13 * scale
    if not (shift or mu or nu):
        assert np.array_equal(A, np.eye(N + 1))
