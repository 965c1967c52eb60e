import tracemalloc

import numpy as np
import pytest

from conftest import rel_dev
from reference import complex_box, sw_l1_box_per_term
# the fixture phases: the seeded draw of earlier releases (see reference)
from reference import legacy_random_phase as random_phase

from btlab.geometry import build_context, fock_phase, freq_image
from btlab.heat import (
    box_size,
    heat_damping,
    heat_flow,
    heat_flow_quadrature,
    sw_diagnostic,
    sw_l1,
    sw_l1_box,
    sw_l1_exact,
)
from btlab.symbols import (
    constant_symbol,
    cosine_symbol,
    eval_symbol,
    plane_wave_sum,
    sine_symbol,
    sup_norm,
)


def test_damping_closed_form_fock(ex1):
    lam = np.array([0.6 + 0.8j])
    for t in (0.25, 0.5, 1.0):
        got = float(heat_damping(ex1, lam, t))
        ref = np.exp(-t * 1.0 * abs(lam[0]) ** 2 / 4.0)
        assert abs(got - ref) < 1e-14
    # complex frequencies damp, never amplify
    assert 0.0 < float(heat_damping(ex1, np.array([2.0 - 3.0j]), 1.0)) <= 1.0


def test_time_domain_guard(ex1):
    b = cosine_symbol(1.0)
    for bad in (-0.1, 1.2):
        with pytest.raises(ValueError):
            heat_flow(ex1, b, bad)
        with pytest.raises(ValueError):
            heat_flow_quadrature(ex1, b, bad)


def test_plane_wave_flow_damps_each_term(ex1):
    b = plane_wave_sum(
        [(0.7, np.array([1.0])), (0.2 - 0.4j, np.array([-0.3 + 0.5j]))], n=1
    )
    bt = heat_flow(ex1, b, 0.6)
    ref = {
        complex(l[0]): c * heat_damping(ex1, l, 0.6)
        for c, l in zip(b.c, b.lam)
    }
    for c, lam in zip(bt.c, bt.lam):
        assert abs(c - ref[complex(lam[0])]) < 1e-14


def test_semigroup_plane_waves():
    ctx = build_context(random_phase(1, 8), 0.9)
    b = plane_wave_sum(
        [(1.0, np.array([0.8])), (0.5j, np.array([0.2 - 0.6j]))], n=1
    )
    lhs = heat_flow(ctx, heat_flow(ctx, b, 0.3), 0.45)
    rhs = heat_flow(ctx, b, 0.75)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))
    assert rel_dev(eval_symbol(lhs, X), eval_symbol(rhs, X)) < 5e-14


def test_quadrature_matches_closed_form():
    b = plane_wave_sum(
        [(0.5, np.array([1.0])), (0.5, np.array([-1.0])),
         (0.3 - 0.1j, np.array([0.4 + 0.2j]))], n=1
    )
    rng = np.random.default_rng(10)
    X = rng.standard_normal((15, 1)) + 0.5j * rng.standard_normal((15, 1))
    for h in (1.0, 0.1):
        ctx = build_context(fock_phase(1, 1.0), h)
        for t in (0.25, 0.5, 1.0):
            closed = eval_symbol(heat_flow(ctx, b, t), X)
            quad = eval_symbol(heat_flow_quadrature(ctx, b, t, order=40), X)
            assert rel_dev(quad, closed) < 1e-8


def test_kernel_unit_mass():
    """The smoothing kernel must integrate to one: constants are fixed
    points of the flow."""
    for h in (1.0, 0.1):
        ctx = build_context(fock_phase(1, 1.0), h)
        bq = heat_flow_quadrature(ctx, constant_symbol(1.0), 0.7, order=40)
        X = np.array([[0.0 + 0.0j], [1.3 - 0.4j]])
        assert rel_dev(eval_symbol(bq, X), np.ones(2)) < 1e-10


def test_semigroup_quadrature_path(ex1):
    b = cosine_symbol(1.0)
    half = heat_flow_quadrature(ex1, b, 0.25, order=40)
    again = heat_flow_quadrature(ex1, half, 0.25, order=40)
    X = np.array([[0.3 + 0.2j], [-0.8 + 0.1j]])
    ref = eval_symbol(heat_flow(ex1, b, 0.5), X)
    assert rel_dev(eval_symbol(again, X), ref) < 1e-8


def test_box_grid_lexicographic():
    """The real box is walked lexicographically over (Re z, Im z), last
    coordinate fastest."""
    cb = complex_box(-1.0, 1.0, 1.0, 1)
    assert cb.shape == (9, 1)
    assert np.array_equal(cb[:3, 0], [-1.0 - 1.0j, -1.0, -1.0 + 1.0j])
    assert cb[-1, 0] == 1.0 + 1.0j
    axis = np.arange(-1.0, 1.25, 0.5)
    mesh = np.meshgrid(*([axis] * 4), indexing="ij")
    cb = complex_box(-1.0, 1.0, 0.5, 2)
    assert np.array_equal(cb.real, np.stack([m.ravel() for m in mesh[:2]], -1))
    assert np.array_equal(cb.imag, np.stack([m.ravel() for m in mesh[2:]], -1))


def test_sw_diagnostic_gaussian_profile(ex1):
    """For the constant symbol both damping factors act, so the profile is
    exp(-|lam|^2/2) and its integral 2 pi."""
    b = constant_symbol(1.0)
    for step in (1.0, 0.5):
        lam = complex_box(-8.0, 8.0, step, 1)
        g = sw_diagnostic(ex1, b, lam)
        ref = np.exp(-np.abs(lam[:, 0]) ** 2 / 2.0)
        assert rel_dev(g, ref) < 1e-12
        est = sw_l1(g, step, 1)
        assert abs(est - 2.0 * np.pi) < 1e-6 * 2.0 * np.pi


_ONE_PLUS_HALF_SIN = plane_wave_sum(
    [(1.0, np.zeros(1)), *((0.5 * c, lam) for c, lam in
                           zip(sine_symbol(1.0).c, sine_symbol(1.0).lam))])


@pytest.mark.parametrize("phase, h", [
    (fock_phase(1, 1.0), 1.0), (random_phase(1, 7), 0.5),
], ids=["fock", "seed7"])
@pytest.mark.parametrize("b", [constant_symbol(1.0), _ONE_PLUS_HALF_SIN],
                         ids=["one", "one_plus_half_sin"])
def test_sw_riemann_sums_approach_closed_form_l1(phase, h, b):
    """With mu = R^-T lam, the profile integrates in closed form:
    sum_j |c_j| |det R|^2 (4 pi / h)^n exp(-h |mu_j|^2 / 16)."""
    ctx = build_context(phase, h)
    assert sup_norm(b)[1]
    jac = abs(np.linalg.det(ctx.R)) ** 2 * (4.0 * np.pi / h) ** ctx.n
    ref = sum(
        abs(c) * jac * np.exp(-h * np.sum(np.abs(freq_image(ctx, lam)) ** 2)
                              / 16.0)
        for c, lam in zip(b.c, b.lam)
    )
    assert abs(sw_l1_exact(ctx, b) - ref) <= 1e-14 * ref
    devs = []
    for step in (1.0, 0.5, 0.25):
        lam = complex_box(-8.0, 8.0, step, 1)
        devs.append(abs(sw_l1(sw_diagnostic(ctx, b, lam), step, 1) - ref)
                    / ref)
    assert devs[0] < 1e-7
    assert max(devs[1:]) < 1e-13


@pytest.mark.parametrize("b", [
    constant_symbol(1.0), _ONE_PLUS_HALF_SIN,
    plane_wave_sum([*zip(sine_symbol(1.0).c, sine_symbol(1.0).lam),
                    *zip(sine_symbol(2.0).c, sine_symbol(2.0).lam)]),
], ids=["one", "one_plus_half_sin", "sin_plus_sin2"])
def test_sw_profile_dominates_box_samples(b):
    """The closed-form profile is never below the box-sampled one: the
    modulated symbol flowed to t = 1 and sampled on an X box."""
    ctx = build_context(random_phase(1, 7), 0.5)
    lam = complex_box(-4.0, 4.0, 1.0, 1)
    X = complex_box(-6.0, 6.0, 0.5, 1)
    g = sw_diagnostic(ctx, b, lam)
    for k, shift in enumerate(lam):
        moved = plane_wave_sum([(c, mu + shift)
                                for c, mu in zip(b.c, b.lam)], 1)
        old = np.max(np.abs(eval_symbol(heat_flow(ctx, moved, 1.0), X)))
        assert old * float(heat_damping(ctx, shift, 1.0)) <= g[k] * (
            1.0 + 1e-12)


@pytest.mark.parametrize("seed", [7, 11])
def test_sw_profile_is_damped_term_sum(seed):
    """At n = 2, where R mixes the coordinates, the profile equals
    sum_j |c_j| damping(lam + lam_j) damping(lam) term by term."""
    ctx = build_context(random_phase(2, seed), 0.7)
    b = plane_wave_sum([(0.6, np.array([0.5, -0.2])),
                        (0.3 - 0.2j, np.array([-0.4 + 0.3j, 0.1j])),
                        (0.25j, np.zeros(2))], n=2)
    lam = complex_box(-2.0, 2.0, 1.0, 2)
    ref = sum(abs(c) * heat_damping(ctx, lam + lj, 1.0)
              for c, lj in zip(b.c, b.lam))
    ref = ref * heat_damping(ctx, lam, 1.0)
    assert np.max(np.abs(sw_diagnostic(ctx, b, lam) - ref)) < 1e-14


@pytest.mark.parametrize("n, lo, hi, step", [
    (1, -4.0, 4.0, 0.5), (2, -4.0, 4.0, 0.5), (3, -3.0, 3.0, 1.0),
])
def test_sw_l1_box_matches_brute_force_sum(n, lo, hi, step):
    """The per-axis product equals the Riemann sum of the profile over
    every point of the mu box, mapped to lambda = R^T mu, times the
    Jacobian |det R|^2 of that map."""
    ctx = build_context(random_phase(n, 7), 0.7)
    rng = np.random.default_rng(n)
    b = plane_wave_sum([
        (complex(*rng.normal(size=2)),
         rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(3)],
        n=n)
    M = complex_box(lo, hi, step, n)
    brute = (sw_l1(sw_diagnostic(ctx, b, M @ ctx.R), step, n)
             * abs(np.linalg.det(ctx.R)) ** 2)
    got = sw_l1_box(ctx, b, lo, hi, step)
    assert abs(got - brute) <= 1e-13 * brute


def test_sw_l1_box_sums_long_axes_in_bounded_memory():
    """A three-term sum on 2,000,001 points per axis (seed-7 n = 1,
    h = 0.5) is summed in chunks: its traced peak stays under 32 MiB,
    where one (T, 2n, K) temporary alone takes 96 MB, and it agrees with
    the unchunked per-term sums to 1e-12 relative."""
    ctx = build_context(random_phase(1, 7), 0.5)
    b = plane_wave_sum([(0.6, np.array([0.5])),
                        (0.3 - 0.2j, np.array([-0.4 + 0.3j])),
                        (0.25j, np.zeros(1))], n=1)
    lo, hi, step = -10.0, 10.0, 1e-5
    assert box_size(lo, hi, step) == 2_000_001
    tracemalloc.start()
    try:
        got = sw_l1_box(ctx, b, lo, hi, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    ref = sw_l1_box_per_term(ctx, b, lo, hi, step)
    assert abs(got - ref) <= 1e-12 * ref


def test_sw_l1_box_constant_symbol_is_phase_independent():
    """In mu the constant symbol's profile is exp(-h |mu|^2 / 4) for every
    phase, and |det R|^2 scales the sum and the exact integral alike, so
    the default box misses the exact integral by the same relative
    amount on every phase."""
    for n, h, seeds in ((1, 0.5, range(10)), (2, 1.0, range(5))):
        b = constant_symbol(1.0, n)
        devs = []
        for seed in seeds:
            ctx = build_context(random_phase(n, seed), h)
            exact = sw_l1_exact(ctx, b)
            devs.append((sw_l1_box(ctx, b, -8.0, 8.0, 0.25) - exact) / exact)
        assert max(devs) - min(devs) <= 1e-12, devs
