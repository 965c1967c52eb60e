"""Compression matrices: multiplication, unitary translations, norm
diagnostics and the second-order deformation residuals.

Two behaviors here are frozen from measurements of the exact compressions
rather than wishful tolerances: the translation-conjugation identity read at
the fixed four-degree buffer (truncation leakage dominates at N=16), and the
log-log slope of the commutator residual for the cosine/sine pair (the
exact composition law forces that commutator to vanish, so its measured
residual is pure leakage with a steep artificial slope).  See the module
tests below for the composition-law oracle itself.
"""

from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_dev
from reference import factor_seeds
# the fixture phases: the seeded draw of earlier releases (see reference)
from reference import legacy_random_phase as random_phase

import btlab.operators
from btlab.basis import enumerate_multiindices, weighted_pair_sum
from btlab.cli import Report, _weyl
from btlab.errors import InvalidConfig, UnsupportedSymbol
from btlab.geometry import (
    build_context,
    fock_phase,
    freq_image,
    heat_phase,
)
from btlab.heat import heat_flow
from btlab.operators import (
    bound_report,
    deformation_residuals,
    deformation_sweep,
    diagonal_sum_check,
    operator_norm,
    toeplitz_matrix,
    weyl_conjugation_check,
    weyl_unitary_matrix,
)
from btlab.quadrature import complex_grid, gauss_hermite_rule
from btlab.symbols import (
    CallableSymbol,
    constant_symbol,
    cosine_symbol,
    eval_symbol,
    multiply,
    plane_wave_sum,
    poisson,
    q_form,
    sine_symbol,
    translate,
)


def test_unit_symbol_gives_identity(ex1, ex2):
    trunc = enumerate_multiindices(1, 12)
    for ctx in (ex1, ex2):
        M = toeplitz_matrix(ctx, constant_symbol(1.0), trunc)
        assert np.max(np.abs(M - np.eye(len(trunc)))) < 1e-12


def test_corner_entry_is_smoothed_symbol_at_origin(ex1):
    trunc = enumerate_multiindices(1, 10)
    zero = np.array([[0.0 + 0.0j]])
    for lam in (2.0, 1.0, 0.5 + 0.3j):
        b = plane_wave_sum([(1.0, np.array([lam]))], n=1)
        M = toeplitz_matrix(ex1, b, trunc)
        ref = complex(eval_symbol(heat_flow(ex1, b, 1.0), zero)[0])
        assert abs(M[0, 0] - ref) < 1e-10
    # the lam = 2 case has the closed value e^{-1}
    b = plane_wave_sum([(1.0, np.array([2.0]))], n=1)
    M = toeplitz_matrix(ex1, b, trunc)
    assert abs(M[0, 0] - np.exp(-1.0)) < 1e-10


def test_diagonal_sums(ex1):
    trunc = enumerate_multiindices(1, 10)
    b = plane_wave_sum(
        [(0.5, np.array([1.0])), (0.3 - 0.2j, np.array([0.4 + 0.6j]))], n=1
    )
    M = toeplitz_matrix(ex1, b, trunc)
    diag = np.diag(M)
    for lhs, rhs in diagonal_sum_check(ex1, b, diag, trunc, (0, 1, 2)):
        assert abs(lhs - rhs) < 1e-12
    # k = N is the last degree with a diagonal; k = N + 1 has none
    (lhs, rhs), = diagonal_sum_check(ex1, b, diag, trunc, (10,))
    assert abs(lhs - rhs) < 1e-12
    with pytest.raises(InvalidConfig, match="k <= N = 10"):
        diagonal_sum_check(ex1, b, diag, trunc, range(12))


def test_real_symbol_hermitian_compression(ex1):
    trunc = enumerate_multiindices(1, 12)
    M = toeplitz_matrix(ex1, cosine_symbol(1.0), trunc)
    assert np.max(np.abs(M - M.conj().T)) < 1e-13


def test_nonnegative_symbol_positive_compression(ex1):
    trunc = enumerate_multiindices(1, 12)
    b = plane_wave_sum(
        [(1.0, np.array([0.0])), (0.5, np.array([1.0])),
         (0.5, np.array([-1.0]))], n=1
    )  # 1 + cos(Re X) >= 0
    M = toeplitz_matrix(ex1, b, trunc)
    ew = np.linalg.eigvalsh((M + M.conj().T) / 2)
    assert ew.min() > -1e-10


def test_compression_norm_contracts_sup(ex1):
    trunc = enumerate_multiindices(1, 16)
    M = toeplitz_matrix(ex1, cosine_symbol(1.0), trunc)
    assert operator_norm(M) <= 1.0 + 1e-10


def test_callable_symbol_needs_declaration(ex1):
    """Toeplitz compressions take plane-wave sums only; a callable symbol
    is refused whatever it computes."""
    trunc = enumerate_multiindices(1, 6)
    f = lambda X: np.cos(np.real(X[..., 0]))
    with pytest.raises(UnsupportedSymbol, match="plane-wave sums"):
        toeplitz_matrix(ex1, CallableSymbol(n=1, func=f), trunc)


def test_weyl_zero_frequency_is_identity(ex1):
    trunc = enumerate_multiindices(1, 10)
    W = weyl_unitary_matrix(ex1, np.array([0.0]), trunc)
    assert np.max(np.abs(W - np.eye(len(trunc)))) < 1e-12


def test_weyl_unitarity_inner_block(ex1, ex2):
    trunc = enumerate_multiindices(1, 16)
    keep = trunc.count_through_degree(4)
    for ctx in (ex1, ex2):
        for lam in (0.5, 0.6 + 0.8j):
            W = weyl_unitary_matrix(ctx, np.array([lam]), trunc)
            dev = np.max(np.abs((W.conj().T @ W - np.eye(len(trunc)))[:keep, :keep]))
            assert dev < 1e-5


_shift = st.builds(complex, st.floats(-0.35, 0.35), st.floats(-0.35, 0.35))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 40),
       h=st.sampled_from([0.5, 1.0]),
       z=st.lists(_shift, min_size=2, max_size=2))
def test_weyl_unitarity_deep_block_property(n, seed, h, z):
    """On random admissible phases the translation is unitary on the block
    of degrees <= 4, for shifts c = R lam of at most sqrt(h)/2 per
    coordinate in W = RX: truncation leakage grows with |c|^2/h (measured
    <= 2.2e-11 at n = 1, N = 16 and <= 1.4e-12 at n = 2, N = 20)."""
    ctx = build_context(random_phase(n, seed), h)
    lam = np.linalg.solve(ctx.R, np.sqrt(h) * np.array(z[:n]))
    trunc = enumerate_multiindices(n, 16 if n == 1 else 20)
    W = weyl_unitary_matrix(ctx, lam, trunc)
    m = trunc.count_through_degree(4)
    dev = (W.conj().T @ W - np.eye(len(trunc)))[:m, :m]
    assert np.max(np.abs(dev)) < 1e-8


def test_weyl_adjoint_is_negated_frequency(ex1):
    trunc = enumerate_multiindices(1, 16)
    keep = trunc.count_through_degree(4)
    lam = np.array([0.6 + 0.8j])
    Wp = weyl_unitary_matrix(ex1, lam, trunc)
    Wm = weyl_unitary_matrix(ex1, -lam, trunc)
    assert np.max(np.abs((Wp.conj().T - Wm)[:keep, :keep])) < 1e-12


def test_weyl_conjugation_deep_block(ex1):
    trunc = enumerate_multiindices(1, 16)
    b = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    lam = np.array([0.5])
    W = weyl_unitary_matrix(ex1, lam, trunc)
    Tb = toeplitz_matrix(ex1, b, trunc)
    # keep degrees <= 4, i.e. drop the top twelve shells
    dev = weyl_conjugation_check(ex1, b, lam, W, Tb.__matmul__, trunc,
                                 drop=12)
    assert dev < 1e-11


def test_weyl_conjugation_shallow_buffer_leaks(ex1, ex2):
    """At the fixed four-degree buffer the N=16 compression has visible
    truncation leakage; these bands document converged measurements, they
    are not tolerances anyone should tighten."""
    trunc = enumerate_multiindices(1, 16)
    b = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    lam = np.array([0.5])
    dev1, dev2 = (weyl_conjugation_check(
        ctx, b, lam, weyl_unitary_matrix(ctx, lam, trunc),
        toeplitz_matrix(ctx, b, trunc).__matmul__, trunc)
        for ctx in (ex1, ex2))
    assert 0.05 < dev1 < 0.10
    assert 0.01 < dev2 < 0.03



@pytest.mark.parametrize("n, N", [(1, 12), (2, 6)])
def test_compressions_equal_one_op_builds(n, N):
    """One `compressions` call over a mixed list (a zero symbol, plane-wave
    sums, translations by +-lambda, a translated symbol sharing T_b's
    frequencies and a repeated op) yields, in order, exactly the matrices
    of the one-op builds."""
    ctx = build_context(random_phase(n, 11), 0.7)
    trunc = enumerate_multiindices(n, N)
    rng = np.random.default_rng(n)
    lam = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    b = plane_wave_sum([
        (c, 0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        for c in (1.0, 0.5 - 0.3j)], n)
    ops = [plane_wave_sum([], n), b, lam, -lam, translate(b, lam),
           cosine_symbol(lam, n), b, lam]
    mats = list(btlab.operators.compressions(ctx, trunc, ops))
    assert len(mats) == len(ops)
    for op, M in zip(ops, mats):
        build = (weyl_unitary_matrix if isinstance(op, np.ndarray)
                 else toeplitz_matrix)
        assert np.array_equal(M, build(ctx, op, trunc))
    assert not mats[0].any()


@pytest.mark.parametrize("n, N, band_entries", [
    pytest.param(1, 6, None, id="1-6"),
    pytest.param(2, 3, None, id="2-3"),
    pytest.param(1, 6, 5, id="1-6-bands5"),
    pytest.param(2, 3, 5, id="2-3-bands5"),
])
def test_compressions_leading_blocks_equal_sliced_full(n, N, band_entries,
                                                       monkeypatch):
    """A requested (rows, cols) block is the full matrix F sliced to
    [:rows, :cols] bit for bit, for every block shape up to (d, d): on a
    multi-term plane-wave sum, a translation (one term, whose coefficient
    e^{-|c|^2/h} is not 1) and the zero operator.  "identity" is max|F - I| bit
    for bit, and "apply" past its buffer size, where it forms F, returns
    F V exactly.  All of it holds with row bands of at most 5 entries
    (uneven, some of one row) as with the default bands."""
    ctx = build_context(random_phase(n, 11), 0.7)
    trunc = enumerate_multiindices(n, N)
    d = len(trunc)
    rng = np.random.default_rng(n)
    b = plane_wave_sum([
        (c, 0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        for c in (1.0, 0.5 - 0.3j, -0.7j)], n)
    lam = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ops = [b, lam, plane_wave_sum([], n)]
    full = list(btlab.operators.compressions(ctx, trunc, ops))
    if band_entries:
        monkeypatch.setattr(btlab.operators, "_BLOCK_ENTRIES", band_entries)
    for rows in range(d + 1):
        for cols in range(d + 1):
            blocks = btlab.operators.compressions(
                ctx, trunc, ops, reads=[(rows, cols)] * len(ops))
            for M, F in zip(blocks, full, strict=True):
                assert np.array_equal(M, F[:rows, :cols]), (rows, cols)
    devs = btlab.operators.compressions(ctx, trunc, ops,
                                        reads=["identity"] * len(ops))
    for dev, F in zip(devs, full, strict=True):
        assert dev == np.max(np.abs(F - np.eye(d)))
    k = d * d // (N + 1) ** n + 1  # the least k whose buffer outgrows F
    V = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    applies = btlab.operators.compressions(ctx, trunc, ops,
                                           reads=["apply"] * len(ops))
    for apply, F in zip(applies, full, strict=True):
        assert np.array_equal(apply(V), F @ V)


def _three_ops(n, seed):
    """A zero symbol, a three-term plane-wave sum with complex frequencies
    and a translation (one term, whose coefficient e^{-|c|^2/h} is not 1)
    on C^n."""
    rng = np.random.default_rng(seed)

    def z():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    b = plane_wave_sum([
        (c, 0.8 * z()) for c in (1.0, 0.5 - 0.3j, -0.7j)], n)
    return [plane_wave_sum([], n), b, 0.6 * z()], rng


@pytest.mark.parametrize("n, N", [(1, 12), (2, 8), (3, 8)])
def test_compressions_diagonal_and_apply_read_outs(n, N, monkeypatch):
    """The "diagonal" read-out is np.diag of the dense matrix bit for bit.
    "apply" maps V to M V within 1e-13 ||M|| ||V|| through the one-axis
    factors, without forming M, for one column and for the m columns
    through degree 4 (m = 5, 15, 35)."""
    ctx = build_context(random_phase(n, 11), 0.7)
    trunc = enumerate_multiindices(n, N)
    d, m = len(trunc), trunc.count_through_degree(4)
    ops, rng = _three_ops(n, n)
    full = list(btlab.operators.compressions(ctx, trunc, ops))
    diags = btlab.operators.compressions(ctx, trunc, ops,
                                         reads=["diagonal"] * 3)
    for D, M in zip(diags, full, strict=True):
        assert np.array_equal(D, np.diag(M))

    def unbuilt(*args):
        raise AssertionError("apply formed a dense matrix")

    monkeypatch.setattr(btlab.operators, "_dense_sum", unbuilt)
    applies = btlab.operators.compressions(ctx, trunc, ops,
                                           reads=["apply"] * 3)
    for apply, M in zip(applies, full, strict=True):
        for k in (1, m):
            V = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            err = np.max(np.abs(apply(V) - M @ V))
            assert err <= 1e-13 * np.linalg.norm(M, 2) * np.linalg.norm(V, 2)


def test_apply_forms_the_matrix_once_past_its_size(monkeypatch):
    """Where the (N+1)^n x k buffer would outgrow the d x d matrix, "apply"
    forms M once, on first need, and returns M V exactly: at n = 5, N = 4
    (d = 126, 5^5 = 3125) that is every k >= 6, while k = 5 still runs
    through the buffer."""
    ctx = build_context(random_phase(5, 1), 1.0)
    trunc = enumerate_multiindices(5, 4)
    d = len(trunc)
    ops, rng = _three_ops(5, 5)
    full = list(btlab.operators.compressions(ctx, trunc, ops))
    built = []
    real = btlab.operators._dense_sum

    def recorded(stack, idx, terms, shape):
        built.append(shape)
        return real(stack, idx, terms, shape)

    monkeypatch.setattr(btlab.operators, "_dense_sum", recorded)
    applies = btlab.operators.compressions(ctx, trunc, ops,
                                           reads=["apply"] * 3)
    for apply, M in zip(applies, full, strict=True):
        del built[:]
        V = rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5))
        err = np.max(np.abs(apply(V) - M @ V))
        assert err <= 1e-13 * np.linalg.norm(M, 2) * np.linalg.norm(V, 2)
        assert built == []
        for k in (6, 6, d):
            V = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            assert np.array_equal(apply(V), M @ V)
        assert built == [(d, d)]


def test_composition_law_machine_precision():
    """T_{e_lam} T_{e_mu} = exp((h/8) lam^T (Phi''_XbarX)^{-1} conj(mu))
    T_{e_{lam+mu}} on a deep inner block.  This is the oracle behind the
    commutator-residual analysis: for real frequencies the factor is
    symmetric in (lam, mu), so cosine/sine compressions commute exactly."""
    la = np.array([0.9 + 0.2j])
    mu = np.array([-0.4 + 0.7j])
    trunc = enumerate_multiindices(1, 30)
    m = trunc.count_through_degree(10)
    for phase in (fock_phase(1, 1.0), heat_phase(1)):
        ctx = build_context(phase, 0.6)
        G = np.linalg.inv(ctx.PhiXXbar.conj())
        fac = np.exp((ctx.h / 8.0) * (la @ G @ np.conj(mu)))
        Ta = toeplitz_matrix(
            ctx, plane_wave_sum([(1.0, la)], 1), trunc
        )
        Tb = toeplitz_matrix(
            ctx, plane_wave_sum([(1.0, mu)], 1), trunc
        )
        Tab = toeplitz_matrix(
            ctx, plane_wave_sum([(1.0, la + mu)], 1), trunc
        )
        dev = operator_norm((Ta @ Tb - fac * Tab)[:m, :m])
        assert dev < 1e-12


def test_norm_schedule(ex1, monkeypatch):
    real = btlab.operators.operator_norm
    seen = []

    def counted(M):
        seen.append(len(M))
        return real(M)

    def table(schedule):
        return bound_report(ex1, cosine_symbol(1.0), [1.0],
                            schedule).norm_table

    monkeypatch.setattr(btlab.operators, "operator_norm", counted)
    full = table(range(8, 26, 2))
    assert full.converged
    assert abs(full.m_norm - 0.8727) < 5e-3
    # only the two norms the verdict reads are taken, at N = 22 and 24
    assert seen == [23, 25]
    monkeypatch.undo()
    assert full == table([22, 24])
    assert not table([10]).converged
    with pytest.raises(InvalidConfig):
        table([10, 10, 12])
    with pytest.raises(InvalidConfig):
        table([12, 10])


def test_bound_report_time_domain(ex1):
    with pytest.raises(InvalidConfig):
        bound_report(ex1, cosine_symbol(1.0), [0.5, 1.0],
                     range(8, 26, 2))


def test_bound_report_passes_for_cosine(ex1):
    rep = bound_report(ex1, cosine_symbol(1.0), [0.6, 0.75, 0.9, 1.0],
                       range(8, 26, 2))
    assert rep.passed
    assert rep.norm_table.converged
    for t, lhs, rhs, margin, ok in rep.rows:
        assert ok
        assert margin > 0


def test_deformation_degenerate_cases(ex1):
    trunc = enumerate_multiindices(1, 14)
    b = cosine_symbol(1.0)
    r1, r2 = deformation_residuals(ex1, constant_symbol(2.0), b, trunc)
    assert r1 < 1e-8
    assert r2 < 1e-8
    _, r2 = deformation_residuals(ex1, b, b, trunc)
    assert r2 < 1e-8


def test_deformation_residuals_linear_in_first_symbol(ex1):
    trunc = enumerate_multiindices(1, 14)
    a = cosine_symbol(1.0)
    b = sine_symbol(1.0)
    a2 = plane_wave_sum([(1.0, np.array([1.0])), (1.0, np.array([-1.0]))], n=1)
    r1, r2 = deformation_residuals(ex1, a, b, trunc)
    s1, s2 = deformation_residuals(ex1, a2, b, trunc)
    assert abs(s1 - 2.0 * r1) < 1e-10 * max(1.0, r1)
    assert abs(s2 - 2.0 * r2) < 1e-10 * max(1.0, r2)


def test_sweep_cosine_sine_slopes():
    res = deformation_sweep(
        fock_phase(1, 1.0), cosine_symbol(1.0), sine_symbol(1.0),
        [0.4, 0.28, 0.2, 0.14, 0.1], 20
    )
    # genuine O(h^2) scaling of the first defect
    assert 1.85 < res.slope1 < 1.95
    # the commutator defect is leakage-only here (see module docstring);
    # its fitted slope is far above the quadratic window
    assert 4.8 < res.slope2 < 5.5


def test_sweep_generic_complex_pair_is_quadratic():
    a = plane_wave_sum([(0.7, np.array([1.0 + 0.4j]))], n=1)
    b = plane_wave_sum([(0.5 - 0.2j, np.array([-0.6 + 0.8j]))], n=1)
    res = deformation_sweep(
        fock_phase(1, 1.0), a, b, [0.4, 0.28, 0.2, 0.14, 0.1], 20
    )
    assert 1.8 < res.slope1 < 2.3
    assert 1.8 < res.slope2 < 2.3


def test_sweep_takes_each_defect_norm_through_operator_norm(monkeypatch):
    """A sweep takes every spectral norm through `operator_norm`, one call
    per defect: two per h, each on the m x m block.  Each norm is
    np.linalg.norm(M, 2) bit for bit."""
    phase = random_phase(2, 7)
    a = plane_wave_sum([(0.7, np.array([1.0 + 0.4j, 0.3]))], n=2)
    b = plane_wave_sum([(0.5 - 0.2j, np.array([-0.6 + 0.8j, 0.0]))], n=2)
    defects = []
    real = btlab.operators.operator_norm

    def counted(M):
        defects.append(M.copy())
        return real(M)

    monkeypatch.setattr(btlab.operators, "operator_norm", counted)
    res = deformation_sweep(phase, a, b, [0.4, 0.3, 0.2, 0.1], 8)
    # m = 15 indices through degree 4
    assert [M.shape for M in defects] == [(15, 15)] * 8
    assert [r for row in res.rows for r in row[1:]] == [
        np.linalg.norm(M, 2) for M in defects]


def _cos_sin(n):
    e1 = np.eye(n)[0]
    return cosine_symbol(e1, n), sine_symbol(e1, n)


@pytest.mark.parametrize("phase, pair, commuting", [
    (fock_phase(1, 1.0), _cos_sin(1), True),
    (random_phase(1, 7), _cos_sin(1), True),
    (random_phase(2, 7), _cos_sin(2), True),
    (fock_phase(1, 1.0), (
        plane_wave_sum([(0.7, np.array([1.0 + 0.4j]))], n=1),
        plane_wave_sum([(0.5 - 0.2j, np.array([-0.6 + 0.8j]))], n=1),
    ), False),
], ids=["fock", "seed7-n1", "seed7-n2", "generic-complex"])
def test_sweep_flags_exactly_commuting_pairs(phase, pair, commuting):
    """Real frequencies make the composition-law factor symmetric, so the
    cosine/sine pair commutes exactly; the generic complex pair of
    test_sweep_generic_complex_pair_is_quadratic does not.  The flag
    reads no residual, so a small truncation and order do."""
    res = deformation_sweep(phase, *pair, [0.4, 0.3, 0.2, 0.1], 4)
    assert res.commuting is commuting


def test_sweep_degenerate_slope_is_nan():
    b = cosine_symbol(1.0)
    res = deformation_sweep(
        fock_phase(1, 1.0), b, b, [0.4, 0.28, 0.2, 0.14], 12
    )
    assert np.isnan(res.slope2)


def test_sweep_schedule_guard():
    a = cosine_symbol(1.0)
    with pytest.raises(InvalidConfig):
        deformation_sweep(fock_phase(1, 1.0), a, a, [0.4, 0.3, 0.2], 10)
    with pytest.raises(InvalidConfig):
        deformation_sweep(fock_phase(1, 1.0), a, a, [0.1, 0.2, 0.3, 0.4], 10)


def test_sweep_derives_the_geometry_once(monkeypatch):
    """A sweep builds one context and copies it per h, which gives the
    residuals of a fresh context at each h bit for bit; an h outside
    (0, 1] anywhere in the list fails before any context is built."""
    phase, (a, b) = random_phase(2, 7), _cos_sin(2)
    hs = [0.4, 0.3, 0.2, 0.1]
    built = []
    real = btlab.operators.build_context

    def counted(ph, h):
        built.append(h)
        return real(ph, h)

    monkeypatch.setattr(btlab.operators, "build_context", counted)
    res = deformation_sweep(phase, a, b, hs, 6)
    assert built == [0.4]
    trunc = enumerate_multiindices(2, 6)
    assert [row[1:] for row in res.rows] == [
        deformation_residuals(build_context(phase, h), a, b, trunc)
        for h in hs]
    built.clear()
    with pytest.raises(ValueError, match="h must lie in"):
        deformation_sweep(phase, a, b, [0.4, 0.3, 0.2, -0.1], 6)
    assert built == []


_z = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 3), seed=st.integers(0, 40), h=st.floats(0.05, 1.0),
       data=st.data())
def test_term_seeds_match_physical_factors(n, seed, h, data):
    """`_terms` forms, for a whole plane-wave sum (0 to 6 terms) or
    translation at once, the seeds that `factor_seeds` gives each physical
    factor one scalar at a time: (0, mu_d, 0) per term and axis with
    mu = R^-T lam, and (c_d, 0, (2/h) conj(c_d)) for the translation by
    lam, c = R lam, whose one term carries e^{-|c|^2/h}."""
    ctx = build_context(random_phase(n, seed), h)
    vec = st.lists(_z, min_size=n, max_size=n).map(lambda v: 2.0 * np.array(v))
    b = plane_wave_sum(data.draw(st.lists(st.tuples(_z, vec), max_size=6)), n)
    lam = data.draw(vec)
    c = ctx.R @ lam
    cases = [
        (b, b.c, [[(0.0, m, 0.0) for m in mu]
                  for mu in freq_image(ctx, b.lam).tolist()]),
        (lam, [np.exp(-np.sum(np.abs(c) ** 2) / h)],
         [[(cd, 0.0, (2.0 / h) * np.conj(cd)) for cd in c.tolist()]]),
    ]
    for op, coef_ref, factors in cases:
        coef, seeds = btlab.operators._terms(ctx, op)
        ref = np.array([[factor_seeds(h, *f) for f in axes]
                        for axes in factors]).reshape(-1, n, 3)
        assert seeds.shape == ref.shape
        assert np.all(np.abs(seeds - ref) <= 1e-15 * np.abs(ref))
        assert np.all(np.abs(coef - coef_ref) <= 1e-15 * np.abs(coef_ref))


def _assert_matches_tensor_grid(ctx, b, lam, trunc, order):
    """Plane-wave Toeplitz and Weyl matrices from the one-axis recurrence
    equal the same Fock inner products by quadrature on the order^(2n)
    tensor grid, to 1e-12 relative; `order` must converge the grid."""
    n, h = ctx.n, ctx.h

    def close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    W, wt = complex_grid(gauss_hermite_rule(order), n, np.sqrt(h / 2.0))
    ref = weighted_pair_sum(trunc, h, W, W,
                            wt * eval_symbol(b, (ctx.Rinv @ W).T))
    ref *= (2.0 / (np.pi * h)) ** n
    assert close(toeplitz_matrix(ctx, b, trunc), ref)

    c = ctx.R @ lam
    osc = np.exp((2.0 / h) * (W.T @ np.conj(c)))
    ref = weighted_pair_sum(trunc, h, W, W - c[:, np.newaxis], wt * osc)
    ref *= (2.0 / (np.pi * h)) ** n * np.exp(-np.sum(np.abs(c) ** 2) / h)
    assert close(weyl_unitary_matrix(ctx, lam, trunc), ref)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 40), h=st.sampled_from([0.5, 1.0]),
       N=st.integers(1, 10), data=st.data())
def test_axis_assembly_matches_tensor_grid(seed, h, N, data):
    """One variable, random phases and plane-wave sums, order 60."""
    ctx = build_context(random_phase(1, seed), h)
    terms = data.draw(st.lists(
        st.tuples(_z, _z.map(lambda z: np.array([2.0 * z]))),
        min_size=1, max_size=4))
    b = plane_wave_sum(terms, 1)
    lam = np.array([0.5 * data.draw(_z)])
    _assert_matches_tensor_grid(ctx, b, lam, enumerate_multiindices(1, N), 60)


@pytest.mark.parametrize("seed, h, N", [(3, 0.5, 6), (11, 1.0, 5),
                                        (29, 1.0, 6)])
def test_axis_assembly_matches_tensor_grid_two_variables(seed, h, N):
    """Two variables at order 24, which converges the grid at N <= 6."""
    ctx = build_context(random_phase(2, seed), h)
    rng = np.random.default_rng(seed)

    def z(*shape):
        return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

    b = plane_wave_sum([
        (complex(c), 2.0 * lam) for c, lam in zip(z(3), z(3, 2))], 2)
    _assert_matches_tensor_grid(ctx, b, 0.5 * z(2),
                                enumerate_multiindices(2, N), 24)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 40),
       h=st.sampled_from([0.5, 1.0]), data=st.data())
def test_diagonal_sums_match_radial_moment_quadrature(n, seed, h, data):
    """The closed-form Laguerre right side equals the radial-moment
    quadrature (2/pi h)^n sum w (2|W|^2/h)^k / k! b(R^-1 W) on the
    order^(2n) grid, and both equal the diagonal sums of the compression."""
    ctx = build_context(random_phase(n, seed), h)
    rule = gauss_hermite_rule(30)
    vec = st.lists(_z, min_size=n, max_size=n).map(np.array)
    terms = data.draw(st.lists(st.tuples(_z, vec.map(lambda v: 2.0 * v)),
                               min_size=1, max_size=3))
    b = plane_wave_sum(terms, n)
    trunc = enumerate_multiindices(n, 3)
    M = toeplitz_matrix(ctx, b, trunc)
    W, wt = complex_grid(rule, n, np.sqrt(h / 2.0))
    radial = np.sum(np.abs(W) ** 2, axis=0) * 2.0 / h
    bv = eval_symbol(b, (ctx.Rinv @ W).T)
    for k, (lhs, rhs) in enumerate(
            diagonal_sum_check(ctx, b, np.diag(M), trunc, range(4))):
        ref = (2.0 / (np.pi * h)) ** n * np.sum(
            wt * radial ** k * bv) / factorial(k)
        assert abs(rhs - ref) < 1e-12
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("n, seed", [(1, 3), (1, 19), (2, 5), (2, 23)])
def test_inner_block_products_match_full_products(n, seed):
    """The weyl verdicts and the deformation residuals, formed on the inner
    rows and columns only, equal the full products read on the inner block
    to rounding; a corrupted entry outside that block still moves the
    conjugation deviation."""
    ctx = build_context(random_phase(n, seed), 0.7)
    rng = np.random.default_rng(seed)

    def z(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def wave_sum():
        return plane_wave_sum([
            (complex(c), 0.8 * lam) for c, lam in zip(z(2), z(2, n))], n)

    N, inner = (10, 4) if n == 1 else (8, 4)
    trunc = enumerate_multiindices(n, N)
    a, b, lam = wave_sum(), wave_sum(), 0.5 * z(n)

    m = trunc.count_through_degree(inner)

    def block(M):
        return M[:m, :m]

    Tb = toeplitz_matrix(ctx, b, trunc)
    Wp = weyl_unitary_matrix(ctx, lam, trunc)
    Wm = weyl_unitary_matrix(ctx, -lam, trunc)
    Ts = toeplitz_matrix(ctx, translate(b, lam), trunc)
    full = [
        np.max(np.abs(block(Wp.conj().T @ Wp - np.eye(len(trunc))))),
        np.max(np.abs(block(Wp.conj().T - Wm))),
        np.max(np.abs(block(Wp.conj().T @ Tb @ Wp - Ts))),
    ]
    out = Report()
    _weyl(ctx, SimpleNamespace(
        N=N, inner_degree=inner, tol_weyl=1.0, lambda_list=[lam],
        symbol_b=b), out)
    assert rel_dev(out.rows[0][1:4], full) < 1e-13

    bad = Tb.copy()
    bad[-1, 0] += 1.0
    moved = weyl_conjugation_check(ctx, b, lam, Wp, bad.__matmul__, trunc,
                                   drop=N - inner)
    ref = np.max(np.abs(block(Wp.conj().T @ bad @ Wp - Ts)))
    assert rel_dev(moved, ref) < 1e-13
    assert abs(moved - full[2]) > 1e-6

    Ta = toeplitz_matrix(ctx, a, trunc)
    Tab = toeplitz_matrix(ctx, multiply(a, b), trunc)
    Tq = toeplitz_matrix(ctx, q_form(ctx, a, b), trunc)
    Tpb = toeplitz_matrix(ctx, poisson(ctx, a, b), trunc)
    d1 = Ta @ Tb - Tab + (ctx.h / 2.0) * Tq
    d2 = Ta @ Tb - Tb @ Ta - (0.5j * ctx.h) * Tpb
    r = deformation_residuals(ctx, a, b, trunc, drop=N - inner)
    assert rel_dev(r, [operator_norm(block(d1)),
                       operator_norm(block(d2))]) < 1e-13
