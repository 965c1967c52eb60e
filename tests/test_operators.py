"""Compression matrices: multiplication, unitary translations, norm
diagnostics and the second-order deformation residuals.

Two behaviors here are frozen from converged-quadrature measurements rather
than wishful tolerances: the translation-conjugation identity read at the
fixed four-degree buffer (truncation leakage dominates at N=16), and the
log-log slope of the commutator residual for the cosine/sine pair (the
exact composition law forces that commutator to vanish, so its measured
residual is pure leakage with a steep artificial slope).  See the module
tests below for the composition-law oracle itself.
"""

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_dev

import btlab.operators
from btlab.basis import enumerate_multiindices, weighted_pair_sum
from btlab.errors import InvalidConfig, UnsupportedSymbol
from btlab.geometry import build_context, fock_phase, heat_phase, random_phase
from btlab.heat import heat_flow
from btlab.operators import (
    bound_report,
    deformation_residuals,
    deformation_sweep,
    diagonal_sum_check,
    inner_block,
    norm_converged,
    operator_norm,
    toeplitz_matrix,
    weyl_conjugation_check,
    weyl_unitary_matrix,
)
from btlab.quadrature import complex_grid, gauss_hermite_rule
from btlab.symbols import (
    CallableSymbol,
    PlaneWaveSum,
    constant_symbol,
    cosine_symbol,
    eval_symbol,
    plane_wave_sum,
    sine_symbol,
)


def test_unit_symbol_gives_identity(rule60, ex1, ex2):
    trunc = enumerate_multiindices(1, 12)
    for ctx in (ex1, ex2):
        M = toeplitz_matrix(ctx, constant_symbol(1.0), trunc, rule60)
        assert np.max(np.abs(M - np.eye(len(trunc)))) < 1e-12


def test_corner_entry_is_smoothed_symbol_at_origin(rule60, ex1):
    trunc = enumerate_multiindices(1, 10)
    zero = np.array([[0.0 + 0.0j]])
    for lam in (2.0, 1.0, 0.5 + 0.3j):
        b = plane_wave_sum([(1.0, np.array([lam]))], n=1)
        M = toeplitz_matrix(ex1, b, trunc, rule60)
        ref = complex(eval_symbol(heat_flow(ex1, b, 1.0), zero)[0])
        assert abs(M[0, 0] - ref) < 1e-10
    # the lam = 2 case has the closed value e^{-1}
    b = plane_wave_sum([(1.0, np.array([2.0]))], n=1)
    M = toeplitz_matrix(ex1, b, trunc, rule60)
    assert abs(M[0, 0] - np.exp(-1.0)) < 1e-10


def test_diagonal_sums(rule60, ex1):
    trunc = enumerate_multiindices(1, 10)
    b = plane_wave_sum(
        [(0.5, np.array([1.0])), (0.3 - 0.2j, np.array([0.4 + 0.6j]))], n=1
    )
    M = toeplitz_matrix(ex1, b, trunc, rule60)
    for lhs, rhs in diagonal_sum_check(ex1, b, M, trunc, (0, 1, 2)):
        assert abs(lhs - rhs) < 1e-12


def test_real_symbol_hermitian_compression(rule60, ex1):
    trunc = enumerate_multiindices(1, 12)
    M = toeplitz_matrix(ex1, cosine_symbol(1.0), trunc, rule60)
    assert np.max(np.abs(M - M.conj().T)) < 1e-13


def test_nonnegative_symbol_positive_compression(rule60, ex1):
    trunc = enumerate_multiindices(1, 12)
    b = plane_wave_sum(
        [(1.0, np.array([0.0])), (0.5, np.array([1.0])),
         (0.5, np.array([-1.0]))], n=1
    )  # 1 + cos(Re X) >= 0
    M = toeplitz_matrix(ex1, b, trunc, rule60)
    ew = np.linalg.eigvalsh((M + M.conj().T) / 2)
    assert ew.min() > -1e-10


def test_compression_norm_contracts_sup(rule60, ex1):
    trunc = enumerate_multiindices(1, 16)
    M = toeplitz_matrix(ex1, cosine_symbol(1.0), trunc, rule60)
    assert operator_norm(M) <= 1.0 + 1e-10


def test_callable_symbol_needs_declaration(rule60, ex1):
    trunc = enumerate_multiindices(1, 6)
    f = lambda X: np.cos(np.real(X[..., 0]))
    with pytest.raises(UnsupportedSymbol):
        toeplitz_matrix(ex1, CallableSymbol(n=1, func=f), trunc, rule60)
    ok = CallableSymbol(n=1, func=f, declared_in_T=True)
    Mc = toeplitz_matrix(ex1, ok, trunc, rule60)
    Me = toeplitz_matrix(ex1, cosine_symbol(1.0), trunc, rule60)
    assert np.max(np.abs(Mc - Me)) < 1e-12


def test_weyl_zero_frequency_is_identity(rule60, ex1):
    trunc = enumerate_multiindices(1, 10)
    W = weyl_unitary_matrix(ex1, np.array([0.0]), trunc, rule60)
    assert np.max(np.abs(W - np.eye(len(trunc)))) < 1e-12


def test_weyl_unitarity_inner_block(rule60, ex1, ex2):
    trunc = enumerate_multiindices(1, 16)
    keep = trunc.count_through_degree(4)
    for ctx in (ex1, ex2):
        for lam in (0.5, 0.6 + 0.8j):
            W = weyl_unitary_matrix(ctx, np.array([lam]), trunc, rule60)
            dev = np.max(np.abs((W.conj().T @ W - np.eye(len(trunc)))[:keep, :keep]))
            assert dev < 1e-5


_shift = st.builds(complex, st.floats(-0.35, 0.35), st.floats(-0.35, 0.35))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 40),
       h=st.sampled_from([0.5, 1.0]),
       z=st.lists(_shift, min_size=2, max_size=2))
def test_weyl_unitarity_deep_block_property(rule60, n, seed, h, z):
    """On random admissible phases the translation is unitary on the block
    of degrees <= 4, for shifts c = R lam of at most sqrt(h)/2 per
    coordinate in W = RX: truncation leakage grows with |c|^2/h (measured
    <= 2.2e-11 at n = 1, N = 16 and <= 1.4e-12 at n = 2, N = 20)."""
    ctx = build_context(random_phase(n, seed), h)
    lam = np.linalg.solve(ctx.R, np.sqrt(h) * np.array(z[:n]))
    trunc = enumerate_multiindices(n, 16 if n == 1 else 20)
    W = weyl_unitary_matrix(ctx, lam, trunc, rule60)
    dev = inner_block(W.conj().T @ W - np.eye(len(trunc)), trunc, 4)
    assert np.max(np.abs(dev)) < 1e-8


def test_weyl_adjoint_is_negated_frequency(rule60, ex1):
    trunc = enumerate_multiindices(1, 16)
    keep = trunc.count_through_degree(4)
    lam = np.array([0.6 + 0.8j])
    Wp = weyl_unitary_matrix(ex1, lam, trunc, rule60)
    Wm = weyl_unitary_matrix(ex1, -lam, trunc, rule60)
    assert np.max(np.abs((Wp.conj().T - Wm)[:keep, :keep])) < 1e-12


def test_weyl_conjugation_deep_block(rule60, ex1):
    trunc = enumerate_multiindices(1, 16)
    b = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    lam = np.array([0.5])
    W = weyl_unitary_matrix(ex1, lam, trunc, rule60)
    Tb = toeplitz_matrix(ex1, b, trunc, rule60)
    # keep degrees <= 4, i.e. drop the top twelve shells
    dev = weyl_conjugation_check(ex1, b, lam, W, Tb, trunc, rule60, drop=12)
    assert dev < 1e-11


def test_weyl_conjugation_shallow_buffer_leaks(rule60, ex1, ex2):
    """At the fixed four-degree buffer the N=16 compression has visible
    truncation leakage; these bands document converged measurements, they
    are not tolerances anyone should tighten."""
    trunc = enumerate_multiindices(1, 16)
    b = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    lam = np.array([0.5])
    dev1, dev2 = (weyl_conjugation_check(
        ctx, b, lam, weyl_unitary_matrix(ctx, lam, trunc, rule60),
        toeplitz_matrix(ctx, b, trunc, rule60), trunc, rule60)
        for ctx in (ex1, ex2))
    assert 0.05 < dev1 < 0.10
    assert 0.01 < dev2 < 0.03


def test_composition_law_machine_precision(rule80):
    """T_{e_lam} T_{e_mu} = exp((h/8) lam^T (Phi''_XbarX)^{-1} conj(mu))
    T_{e_{lam+mu}} on a deep inner block.  This is the oracle behind the
    commutator-residual analysis: for real frequencies the factor is
    symmetric in (lam, mu), so cosine/sine compressions commute exactly."""
    la = np.array([0.9 + 0.2j])
    mu = np.array([-0.4 + 0.7j])
    trunc = enumerate_multiindices(1, 30)
    for phase in (fock_phase(1, 1.0), heat_phase(1)):
        ctx = build_context(phase, 0.6)
        G = np.linalg.inv(ctx.PhiXXbar.conj())
        fac = np.exp((ctx.h / 8.0) * (la @ G @ np.conj(mu)))
        Ta = toeplitz_matrix(
            ctx, PlaneWaveSum(n=1, terms=((1.0, la),)), trunc, rule80
        )
        Tb = toeplitz_matrix(
            ctx, PlaneWaveSum(n=1, terms=((1.0, mu),)), trunc, rule80
        )
        Tab = toeplitz_matrix(
            ctx, PlaneWaveSum(n=1, terms=((1.0, la + mu),)), trunc, rule80
        )
        dev = operator_norm(inner_block(Ta @ Tb - fac * Tab, trunc, 10))
        assert dev < 1e-12


def test_norm_schedule(rule60, ex1, monkeypatch):
    real = btlab.operators.operator_norm
    seen = []

    def counted(M):
        seen.append(len(M))
        return real(M)

    monkeypatch.setattr(btlab.operators, "operator_norm", counted)
    table = norm_converged(ex1, cosine_symbol(1.0), range(8, 26, 2), rule60)
    assert table.converged
    assert abs(table.m_norm - 0.8727) < 5e-3
    # only the two norms the verdict reads are taken, at N = 22 and 24
    assert seen == [23, 25]
    monkeypatch.undo()
    assert table == norm_converged(ex1, cosine_symbol(1.0), [22, 24], rule60)
    short = norm_converged(ex1, cosine_symbol(1.0), [10], rule60)
    assert not short.converged
    with pytest.raises(InvalidConfig):
        norm_converged(ex1, cosine_symbol(1.0), [10, 10, 12], rule60)
    with pytest.raises(InvalidConfig):
        norm_converged(ex1, cosine_symbol(1.0), [12, 10], rule60)


def test_bound_report_time_domain(rule60, ex1):
    with pytest.raises(InvalidConfig):
        bound_report(ex1, cosine_symbol(1.0), [0.5, 1.0],
                     range(8, 26, 2), rule60)


def test_bound_report_passes_for_cosine(rule60, ex1):
    rep = bound_report(ex1, cosine_symbol(1.0), [0.6, 0.75, 0.9, 1.0],
                       range(8, 26, 2), rule60)
    assert rep.passed
    assert rep.norm_table.converged
    for t, lhs, rhs, margin, ok in rep.rows:
        assert ok
        assert margin > 0


def test_deformation_degenerate_cases(rule60, ex1):
    trunc = enumerate_multiindices(1, 14)
    b = cosine_symbol(1.0)
    r1, r2 = deformation_residuals(ex1, constant_symbol(2.0), b, trunc, rule60)
    assert r1 < 1e-8
    assert r2 < 1e-8
    _, r2 = deformation_residuals(ex1, b, b, trunc, rule60)
    assert r2 < 1e-8


def test_deformation_residuals_linear_in_first_symbol(rule60, ex1):
    trunc = enumerate_multiindices(1, 14)
    a = cosine_symbol(1.0)
    b = sine_symbol(1.0)
    a2 = plane_wave_sum([(1.0, np.array([1.0])), (1.0, np.array([-1.0]))], n=1)
    r1, r2 = deformation_residuals(ex1, a, b, trunc, rule60)
    s1, s2 = deformation_residuals(ex1, a2, b, trunc, rule60)
    assert abs(s1 - 2.0 * r1) < 1e-10 * max(1.0, r1)
    assert abs(s2 - 2.0 * r2) < 1e-10 * max(1.0, r2)


def test_sweep_cosine_sine_slopes(rule60):
    res = deformation_sweep(
        fock_phase(1, 1.0), cosine_symbol(1.0), sine_symbol(1.0),
        [0.4, 0.28, 0.2, 0.14, 0.1], 20, rule60
    )
    # genuine O(h^2) scaling of the first defect
    assert 1.85 < res.slope1 < 1.95
    # the commutator defect is leakage-only here (see module docstring);
    # its fitted slope is far above the quadratic window
    assert 4.8 < res.slope2 < 5.5


def test_sweep_generic_complex_pair_is_quadratic(rule60):
    a = plane_wave_sum([(0.7, np.array([1.0 + 0.4j]))], n=1)
    b = plane_wave_sum([(0.5 - 0.2j, np.array([-0.6 + 0.8j]))], n=1)
    res = deformation_sweep(
        fock_phase(1, 1.0), a, b, [0.4, 0.28, 0.2, 0.14, 0.1], 20, rule60
    )
    assert 1.8 < res.slope1 < 2.3
    assert 1.8 < res.slope2 < 2.3


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
    res = deformation_sweep(phase, *pair, [0.4, 0.3, 0.2, 0.1], 4,
                            gauss_hermite_rule(12))
    assert res.commuting is commuting


def test_sweep_degenerate_slope_is_nan(rule60):
    b = cosine_symbol(1.0)
    res = deformation_sweep(
        fock_phase(1, 1.0), b, b, [0.4, 0.28, 0.2, 0.14], 12, rule60
    )
    assert np.isnan(res.slope2)


def test_sweep_schedule_guard(rule60):
    a = cosine_symbol(1.0)
    with pytest.raises(InvalidConfig):
        deformation_sweep(fock_phase(1, 1.0), a, a, [0.4, 0.3, 0.2], 10,
                          rule60)
    with pytest.raises(InvalidConfig):
        deformation_sweep(fock_phase(1, 1.0), a, a, [0.1, 0.2, 0.3, 0.4], 10,
                          rule60)


_z = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 40),
       h=st.sampled_from([0.5, 1.0]), N=st.integers(1, 6),
       order=st.integers(6, 14), data=st.data())
def test_axis_assembly_matches_tensor_grid(n, seed, h, N, order, data):
    """Plane-wave Toeplitz and Weyl matrices assembled axis by axis equal
    the same sums over the order^(2n) tensor grid."""
    ctx = build_context(random_phase(n, seed), h)
    rule = gauss_hermite_rule(order)
    trunc = enumerate_multiindices(n, N)
    vec = st.lists(_z, min_size=n, max_size=n).map(np.array)
    terms = data.draw(st.lists(st.tuples(_z, vec.map(lambda v: 2.0 * v)),
                               min_size=1, max_size=4))
    b = PlaneWaveSum(n=n, terms=tuple(terms))

    def close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    full = CallableSymbol(n=n, func=lambda X: eval_symbol(b, X),
                          declared_in_T=True)
    assert close(toeplitz_matrix(ctx, b, trunc, rule),
                 toeplitz_matrix(ctx, full, trunc, rule))

    lam = 0.5 * data.draw(vec)
    c = ctx.R @ lam
    W, wt = complex_grid(rule, n, np.sqrt(h / 2.0))
    osc = np.exp((2.0 / h) * (W.T @ np.conj(c)))
    ref = weighted_pair_sum(trunc, h, W, W - c[:, np.newaxis], wt * osc)
    ref *= (2.0 / (np.pi * h)) ** n * np.exp(-np.sum(np.abs(c) ** 2) / h)
    assert close(weyl_unitary_matrix(ctx, lam, trunc, rule), ref)


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
    b = PlaneWaveSum(n=n, terms=tuple(terms))
    trunc = enumerate_multiindices(n, 3)
    M = toeplitz_matrix(ctx, b, trunc, rule)
    W, wt = complex_grid(rule, n, np.sqrt(h / 2.0))
    radial = np.sum(np.abs(W) ** 2, axis=0) * 2.0 / h
    bv = eval_symbol(b, (ctx.Rinv @ W).T)
    for k, (lhs, rhs) in enumerate(
            diagonal_sum_check(ctx, b, M, trunc, range(4))):
        ref = (2.0 / (np.pi * h)) ** n * np.sum(
            wt * radial ** k * bv) / factorial(k)
        assert abs(rhs - ref) < 1e-12
        assert abs(lhs - rhs) < 1e-12
