"""Plane-wave algebra and the bilinear differential forms.

The closed forms of Q and the bracket are cross-checked against Wirtinger
finite differences of the symbols' values at an asymmetric random phase in
two complex variables; the two computations share nothing but the context
object.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_dev
from reference import (
    canonical_terms,
    diagonal_sum_rhs_per_term,
    eval_symbol_per_term,
    sw_diagnostic_per_term,
    sw_l1_box_per_term,
    sw_l1_exact_per_term,
    wirtinger_fd,
)
# the fixture phases: the seeded draw of earlier releases (see reference)
from reference import legacy_random_phase as random_phase

from btlab.bargmann import GaussianTestFn, egorov_guillemin_check
from btlab.basis import enumerate_multiindices
from btlab.errors import NonFiniteSample, UnsupportedSymbol
from btlab.heat import (
    complex_box,
    heat_flow,
    sw_diagnostic,
    sw_l1_box,
    sw_l1_exact,
)
from btlab.operators import compressions, diagonal_sum_check
from btlab.geometry import build_context, kappa_T
from btlab.symbols import (
    CallableSymbol,
    PlaneWaveSum,
    _witnesses,
    constant_symbol,
    cosine_symbol,
    cotangent_frequencies,
    eval_symbol,
    multiply,
    plane_wave_sum,
    poisson,
    q_form,
    sine_symbol,
    sup_norm,
    translate,
)


def _pair(h=0.7):
    ctx = build_context(random_phase(2, 11), h)
    la = np.array([0.8 + 0.3j, -0.4 + 0.1j])
    mu = np.array([-0.2 + 0.5j, 0.6 - 0.7j])
    a = plane_wave_sum([(0.9 - 0.2j, la)], 2)
    b = plane_wave_sum([(0.4 + 0.6j, mu)], 2)
    return ctx, a, b


X0 = np.array([0.3 - 0.2j, -0.5 + 0.4j])


def test_canonicalization_merges_and_sorts():
    lam = np.array([1.0 + 0.5j])
    b = plane_wave_sum([(0.3, lam), (0.2, -lam), (0.4, lam)], n=1)
    assert len(b.c) == 2
    coeffs = {
        complex(l[0]): c for c, l in zip(b.c, b.lam)
    }
    assert abs(coeffs[complex(lam[0])] - 0.7) < 1e-15
    assert abs(coeffs[complex(-lam[0])] - 0.2) < 1e-15
    # negligible coefficients disappear entirely
    tiny = plane_wave_sum([(1.0, lam), (1e-16, -lam)], n=1)
    assert len(tiny.c) == 1


# Parts with repeats, signed zeros and, for coefficients, values at and
# below the drop tolerance relative to the others.
_FREQ_PART = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
_COEF_PART = st.one_of(st.sampled_from([0.0, -0.0, 1e-15, -1e-16, 1e-14]),
                       st.floats(-2.0, 2.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.integers(1, 3), data=st.data())
def test_plane_wave_sum_is_the_pairwise_canonical_form(n, data):
    """`plane_wave_sum` gives the coefficients and frequency rows of the
    pair-by-pair canonical form, bit for bit (signs of zero included) and
    in the same order, on lists with repeated frequencies, signed zeros,
    coefficients below the drop tolerance and no terms at all."""
    freq = st.lists(st.builds(complex, _FREQ_PART, _FREQ_PART),
                    min_size=n, max_size=n).map(np.array)
    terms = data.draw(st.lists(
        st.tuples(st.builds(complex, _COEF_PART, _COEF_PART), freq),
        max_size=8))
    ref = canonical_terms(terms, n)
    b = plane_wave_sum(terms, n)
    want_c = np.array([c for c, _ in ref], dtype=complex)
    want_lam = np.array([lam for _, lam in ref], dtype=complex).reshape(-1, n)
    assert b.c.shape == want_c.shape and b.lam.shape == want_lam.shape
    assert np.array_equal(b.c.view(np.int64), want_c.view(np.int64))
    assert np.array_equal(b.lam.view(np.int64), want_lam.view(np.int64))


def test_trigonometric_builders():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1))
    c = cosine_symbol(1.0)
    s = sine_symbol(1.0)
    assert rel_dev(eval_symbol(c, X), np.cos(np.real(X[:, 0]))) < 1e-14
    assert rel_dev(eval_symbol(s, X), np.sin(np.real(X[:, 0]))) < 1e-14
    one = constant_symbol(2.5)
    assert rel_dev(eval_symbol(one, X), 2.5 * np.ones(30)) < 1e-15


def test_multiply_is_pointwise():
    ctx, a, b = _pair()
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    ab = multiply(a, b)
    assert isinstance(ab, PlaneWaveSum)
    assert rel_dev(
        eval_symbol(ab, X), eval_symbol(a, X) * eval_symbol(b, X)
    ) < 1e-14


def test_translate_law():
    _, a, _ = _pair()
    lam = np.array([0.4 - 0.9j, 0.2 + 0.3j])
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))
    got = eval_symbol(translate(a, lam), X)
    assert rel_dev(got, eval_symbol(a, X + lam)) < 1e-14


def test_wirtinger_fd_on_polynomial():
    f = lambda X: X[..., 0] ** 2 + 3.0 * np.conj(X[..., 0])
    Xp = np.array([0.7 - 0.4j])
    dX, dXb = wirtinger_fd(f, Xp, 1e-5)
    assert abs(dX[0] - 2 * Xp[0]) < 1e-9
    assert abs(dXb[0] - 3.0) < 1e-9


def _fd_gradients(ctx, a, b, step=1e-4):
    """Wirtinger gradients of a and b at X0, and G = (Phi''_XbarX)^-1."""
    da, dab = wirtinger_fd(lambda X: eval_symbol(a, X), X0, step)
    db, dbb = wirtinger_fd(lambda X: eval_symbol(b, X), X0, step)
    G = np.linalg.inv(ctx.PhiXXbar.conj())
    return da, dab, db, dbb, G


def test_q_form_against_finite_differences():
    ctx, a, b = _pair()
    exact = complex(eval_symbol(q_form(ctx, a, b), X0))
    assert abs(exact - (-0.367707147381422 + 0.180795620442811j)) < 1e-12
    da, _, _, dbb, G = _fd_gradients(ctx, a, b)
    fd = da @ G @ dbb
    assert abs(exact - fd) < 1e-6


def test_poisson_against_finite_differences():
    ctx, a, b = _pair()
    exact = complex(eval_symbol(poisson(ctx, a, b), X0))
    assert abs(exact - (-0.260742477588457 - 0.769582877725041j)) < 1e-12
    da, dab, db, dbb, G = _fd_gradients(ctx, a, b)
    fd = 1j * (da @ G @ dbb) - 1j * (db @ G @ dab)
    assert abs(exact - fd) < 1e-6


def test_poisson_antisymmetry():
    ctx, a, b = _pair()
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    lhs = eval_symbol(poisson(ctx, a, b), X)
    rhs = eval_symbol(poisson(ctx, b, a), X)
    assert rel_dev(lhs, -rhs) < 1e-13


def test_nonfinite_callable_rejected():
    bad = CallableSymbol(n=1, func=lambda X: np.full(X.shape[:-1], np.inf))
    with pytest.raises(NonFiniteSample):
        eval_symbol(bad, np.array([[0.1 + 0.2j]]))


_REF = CallableSymbol(n=2, func=lambda X: np.cos(np.real(X[..., 0])))
_LAM = np.array([0.4 - 0.9j, 0.2 + 0.3j])


@pytest.mark.parametrize("op", [
    lambda ctx, a: multiply(a, _REF),
    lambda ctx, a: translate(_REF, _LAM),
    lambda ctx, a: q_form(ctx, a, _REF),
    lambda ctx, a: poisson(ctx, _REF, a),
    lambda ctx, a: heat_flow(ctx, _REF, 0.5),
    lambda ctx, a: sup_norm(_REF),
    lambda ctx, a: sw_diagnostic(ctx, _REF, _LAM),
    lambda ctx, a: sw_l1_box(ctx, _REF, -1.0, 1.0, 1.0),
    lambda ctx, a: sw_l1_exact(ctx, _REF),
    lambda ctx, a: egorov_guillemin_check(
        ctx, [_REF], [GaussianTestFn(np.zeros(2), 1.0, np.zeros(2))], _LAM),
    lambda ctx, a: diagonal_sum_check(
        ctx, _REF, np.ones(6), enumerate_multiindices(2, 2), [0, 1]),
    lambda ctx, a: next(compressions(
        ctx, enumerate_multiindices(2, 2), [a, _REF])),
], ids=["multiply", "translate", "q_form", "poisson", "heat_flow",
        "sup_norm", "sw_diagnostic", "sw_l1_box", "sw_l1_exact",
        "egorov_guillemin_check", "diagonal_sum_check", "compressions"])
def test_calculus_refuses_callables(op):
    """Callable symbols are references only: every operation of the
    calculus refuses them instead of building a black-box result.  The
    one refusal is `CallableSymbol.c` and `.lam`, so it reaches every
    consumer."""
    ctx, a, _ = _pair()
    with pytest.raises(UnsupportedSymbol, match="plane-wave sums"):
        op(ctx, a)


def test_zero_sum_does_not_hide_a_callable():
    """Both factors' terms are read before any pair is formed, so a zero
    plane-wave sum (no terms) still meets the refusal."""
    ctx, _, _ = _pair()
    zero = plane_wave_sum([], 2)
    for op in (lambda: multiply(zero, _REF), lambda: q_form(ctx, zero, _REF),
               lambda: poisson(ctx, zero, _REF)):
        with pytest.raises(UnsupportedSymbol, match="plane-wave sums"):
            op()


def test_callable_must_return_one_value_per_point():
    scalar = CallableSymbol(n=2, func=lambda X: 1.0)
    with pytest.raises(ValueError, match="shape"):
        eval_symbol(scalar, np.zeros((4, 2), dtype=complex))


def test_cotangent_frequencies_reconstruct_symbol():
    """The (p, q) data must reproduce the symbol through the canonical
    frame change at real phase-space points; callables are refused."""
    for seed in (3, 11):
        ctx = build_context(random_phase(2, seed), 0.9)
        lam = np.array([0.5 - 0.7j, -0.3 + 0.2j])
        b = plane_wave_sum([(1.1 + 0.4j, lam)], 2)
        ps, qs = cotangent_frequencies(ctx, b.lam)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((25, 2))
        xi = rng.standard_normal((25, 2))
        X, _ = kappa_T(ctx, x, xi)
        ref = eval_symbol(b, X)
        got = np.zeros(25, dtype=complex)
        for c, p, q in zip(b.c, ps, qs):
            got = got + c * np.exp(1j * (x @ p + xi @ q))
        assert rel_dev(got, ref) < 1e-12
    with pytest.raises(UnsupportedSymbol):
        cotangent_frequencies(ctx, CallableSymbol(
            n=2, func=lambda X: eval_symbol(b, X)).lam)


_z = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 40),
       h=st.sampled_from([0.5, 1.0]),
       t=st.floats(0.5, 1.0, exclude_min=True), data=st.data())
def test_sup_norm_bounds_every_sample(n, seed, h, t, data):
    """sum |c_j| bounds the flowed symbol on a box of C^n, and when it is
    attained a candidate witness of the unflowed symbol reaches it: heat
    damping only rescales the coefficients by positive factors."""
    ctx = build_context(random_phase(n, seed), h)
    vec = st.lists(_z, min_size=n, max_size=n).map(np.array)
    terms = data.draw(st.lists(st.tuples(_z, vec.map(lambda v: 2.0 * v)),
                               min_size=1, max_size=4))
    b = plane_wave_sum(terms, n)
    bt = heat_flow(ctx, b, t)
    value, attained = sup_norm(bt)
    X = complex_box(-3.0, 3.0, 0.25 if n == 1 else 0.5, n)
    assert np.max(np.abs(eval_symbol(bt, X))) <= value * (1.0 + 1e-12)
    if attained:
        reached = np.max(np.abs(eval_symbol(bt, _witnesses(b))))
        assert abs(reached - value) <= 1e-12 * value


def _agree(got, ref, floor):
    """|got - ref| <= 1e-13 max(|ref|, floor) entry by entry: relative,
    with the absolute floor where the terms cancel to (near) zero."""
    err = np.abs(np.asarray(got) - ref)
    assert np.all(err <= 1e-13 * np.maximum(np.abs(ref), floor)), err


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(1, 3), seed=st.integers(0, 40),
       h=st.sampled_from([0.5, 1.0]), data=st.data())
def test_array_forms_match_their_per_term_references(n, seed, h, data):
    """`eval_symbol`, `sw_diagnostic`, `sw_l1_box`, `sw_l1_exact` and the
    right-hand side of `diagonal_sum_check` read a sum's arrays at once;
    each matches its term-by-term reference in `tests/reference.py` to
    1e-13 relative, on sums of 0 to 6 terms whose frequencies repeat
    (and merge) and on the zero sum.  The floor of the evaluation is
    sum |c_j|, and that of the degree-k diagonal sum C(k+n-1, k) sum |c_j|,
    which bounds sum |c_j(1) L_k^(n-1)(x_j)| since c_j(1) = c_j e^{-x_j};
    the sw terms are all positive and need none."""
    ctx = build_context(random_phase(n, seed), h)
    vec = st.lists(_z, min_size=n, max_size=n).map(lambda v: 2.0 * np.array(v))
    pool = data.draw(st.lists(vec, min_size=1, max_size=6))
    terms = data.draw(st.lists(st.tuples(_z, st.sampled_from(pool)),
                               max_size=6))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3, 4, n)) + 1j * rng.standard_normal((3, 4, n))
    lam = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    trunc = enumerate_multiindices(n, 4)
    ks = list(range(5))
    for b in (plane_wave_sum(terms, n), plane_wave_sum([], n)):
        scale = float(np.sum(np.abs(b.c)))
        _agree(eval_symbol(b, X), eval_symbol_per_term(b, X), scale)
        _agree(sw_diagnostic(ctx, b, lam), sw_diagnostic_per_term(ctx, b, lam),
               0.0)
        _agree(sw_l1_box(ctx, b, -4.0, 4.0, 0.5),
               sw_l1_box_per_term(ctx, b, -4.0, 4.0, 0.5), 0.0)
        _agree(sw_l1_exact(ctx, b), sw_l1_exact_per_term(ctx, b), 0.0)
        rhs = [r for _, r in diagonal_sum_check(
            ctx, b, np.zeros(len(trunc)), trunc, ks)]
        _agree(rhs, diagonal_sum_rhs_per_term(ctx, b, ks),
               [math.comb(k + n - 1, k) * scale for k in ks])


def test_sup_norm_not_attained():
    """sin(Re X) + sin(2 Re X) peaks at 1.7602 (where 4 cos^2 + cos = 2),
    below sum |c_j| = 2: the value is then only an upper bound."""
    b = plane_wave_sum([*zip(sine_symbol(1.0).c, sine_symbol(1.0).lam),
                        *zip(sine_symbol(2.0).c, sine_symbol(2.0).lam)])
    value, attained = sup_norm(b)
    assert value == 2.0
    assert not attained
    grid = np.max(np.abs(eval_symbol(b, complex_box(-3.0, 3.0, 0.01, 1))))
    assert 1.7601 < grid < 1.7603
    # the defaults' symbols all attain their bound
    for sym in (cosine_symbol(1.0), plane_wave_sum(
            [(1.0, np.zeros(1)), *((0.5 * c, lam) for c, lam in zip(
                sine_symbol(1.0).c, sine_symbol(1.0).lam))])):
        assert sup_norm(sym) == (float(sum(abs(c) for c in sym.c)), True)


def test_sup_norm_attained_modulo_2pi():
    """1 - e^{i Re X} + e^{2i Re X} and 1 + e^{2i Re X} - e^{3i Re X}
    reach 3 at Re X = pi, where the phases align only modulo 2 pi (the
    second needs an odd multiple of pi from the e^{2i Re X} row);
    1 + i e^{2i Re X} + i e^{3i Re X} never aligns (Re X = 0 mod 2 pi
    would force 2 Re X = pi/2 mod 2 pi)."""
    zero, one, two, three = (np.array([v]) for v in (0.0, 1.0, 2.0, 3.0))
    for b in (plane_wave_sum([(1.0, zero), (-1.0, one), (1.0, two)]),
              plane_wave_sum([(1.0, zero), (1.0, two), (-1.0, three)])):
        assert sup_norm(b) == (3.0, True)
        assert np.max(np.abs(eval_symbol(b, _witnesses(b)))) > 3.0 - 1e-12
    assert sup_norm(plane_wave_sum(
        [(1.0, zero), (1j, two), (1j, three)])) == (3.0, False)


def test_sup_norm_attained_at_wide_shift():
    """1 + e^{6i Re X} - e^{7i Re X} reaches 3 at Re X = pi, which needs
    k = 3 on the e^{6i Re X} row: the 7/6 dependence makes the search try
    k modulo 6.  The largest denominator searched, 12, works the same."""
    zero, six, seven, twelve, thirteen = (
        np.array([v]) for v in (0.0, 6.0, 7.0, 12.0, 13.0))
    b = plane_wave_sum([(1.0, zero), (1.0, six), (-1.0, seven)])
    assert sup_norm(b) == (3.0, True)
    assert len(_witnesses(b)) == 6
    b = plane_wave_sum([(1.0, zero), (1.0, twelve), (-1.0, thirteen)])
    assert sup_norm(b) == (3.0, True)


@pytest.mark.parametrize("sign, attained", [(1.0, True), (-1.0, False)])
def test_sup_norm_irrational_dependence(sign, attained):
    """1 + e^{i Re X} +- e^{i sqrt(2) Re X}: the sqrt(2) row is no rational
    combination of the first, so the search falls back to k in
    {-2, ..., 2}, five witnesses.  With + the phases align at Re X = 0;
    with - they would need sqrt(2) 2 pi k = pi mod 2 pi, which no integer
    k gives, so the bound 3 is not attained."""
    zero, one, root2 = (np.array([v]) for v in (0.0, 1.0, np.sqrt(2.0)))
    b = plane_wave_sum([(1.0, zero), (1.0, one), (sign, root2)])
    assert sup_norm(b) == (3.0, attained)
    assert len(_witnesses(b)) == 5
