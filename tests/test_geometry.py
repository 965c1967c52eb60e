"""Closed forms for the two worked examples and the admissibility guards."""

import collections
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import invoke, rel_dev
from reference import legacy_random_phase

from btlab.config import phase_from_config
from btlab.errors import (
    IllConditionedPhase,
    NonPositiveCI,
    NonSymmetricPhase,
    SingularB,
)
from btlab.geometry import (
    _MEMO_SIZE,
    PhaseMatrices,
    build_context,
    fock_phase,
    freq_image,
    freq_pairing,
    heat_phase,
    kappa_T,
    phase_phi,
    phi_weight,
    psi,
    random_phase,
    theta_on_lambda,
)
from btlab.symbols import cotangent_frequencies


def _cpoints(rng, npts, n, scale=3.0):
    return scale * (
        (rng.random((npts, n)) - 0.5) + 1j * (rng.random((npts, n)) - 0.5)
    )


def test_fock_example_closed_forms():
    rng = np.random.default_rng(11)
    for beta in (0.5, 1.0, 2.0):
        ctx = build_context(fock_phase(1, beta), 0.7)
        X = _cpoints(rng, 100, 1)
        Y = _cpoints(rng, 100, 1)
        assert rel_dev(phi_weight(ctx, X), beta * np.abs(X[:, 0]) ** 2 / 2) < 1e-12
        assert rel_dev(psi(ctx, X, Y), beta * X[:, 0] * Y[:, 0] / 2) < 1e-12
        assert rel_dev(ctx.PhiXX, np.zeros((1, 1))) < 1e-12
        assert rel_dev(ctx.PhiXXbar, np.array([[beta / 2]])) < 1e-12
        x = 3.0 * (rng.random((100, 1)) - 0.5)
        xi = 3.0 * (rng.random((100, 1)) - 0.5)
        Xk, Th = kappa_T(ctx, x, xi)
        assert rel_dev(Xk, x - 1j * xi / (2 * beta)) < 1e-12
        assert rel_dev(Th, -1j * beta * x + xi / 2) < 1e-12


def test_heat_example_closed_forms():
    rng = np.random.default_rng(12)
    ctx = build_context(heat_phase(1), 0.7)
    X = _cpoints(rng, 100, 1)
    Y = _cpoints(rng, 100, 1)
    assert rel_dev(phi_weight(ctx, X), np.imag(X[:, 0]) ** 2 / 2) < 1e-12
    assert rel_dev(psi(ctx, X, Y), -((X[:, 0] - Y[:, 0]) ** 2) / 8) < 1e-12
    assert rel_dev(ctx.PhiXX, np.array([[-0.25]])) < 1e-12
    assert rel_dev(ctx.PhiXXbar, np.array([[0.25]])) < 1e-12
    x = 3.0 * (rng.random((100, 1)) - 0.5)
    xi = 3.0 * (rng.random((100, 1)) - 0.5)
    Xk, Th = kappa_T(ctx, x, xi)
    assert rel_dev(Xk, x - 1j * xi) < 1e-12
    assert rel_dev(Th, xi + 0j) < 1e-12


def test_polarization_diagonal_is_weight():
    for seed in range(4):
        for n in (1, 2):
            ctx = build_context(legacy_random_phase(n, seed), 0.5)
            rng = np.random.default_rng(100 + seed)
            X = _cpoints(rng, 40, n)
            assert rel_dev(psi(ctx, X, X.conj()), phi_weight(ctx, X)) < 1e-12


def test_kappa_graph_relation():
    """Real phase-space points land on the graph section of the weight."""
    for ctx in (
        build_context(fock_phase(1, 1.0), 1.0),
        build_context(heat_phase(1), 1.0),
        build_context(legacy_random_phase(2, 3), 0.8),
    ):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, ctx.n))
        xi = rng.standard_normal((50, ctx.n))
        X, Th = kappa_T(ctx, x, xi)
        assert rel_dev(Th, theta_on_lambda(ctx, X)) < 1e-12


def test_kappa_affine_consistency(ex1):
    """kappa_T meets its definition X = -B^-T (C x + xi), Theta = B x + A X,
    solved here from B^T X = -(C x + xi) without the context's P and Q."""
    rng = np.random.default_rng(5)
    for ctx in (ex1, build_context(legacy_random_phase(2, 3), 0.8)):
        A, B, C = ctx.phase.A, ctx.phase.B, ctx.phase.C
        x = rng.standard_normal((20, ctx.n))
        xi = rng.standard_normal((20, ctx.n))
        X, Th = kappa_T(ctx, x, xi)
        assert rel_dev(X, np.linalg.solve(B.T, -(C @ x.T + xi.T)).T) < 1e-14
        assert rel_dev(Th, x @ B.T + X @ A.T) < 1e-14


def test_context_factors_each_matrix_once(monkeypatch):
    """One build_context takes one eigh of C_I (admissibility, cond C_I and
    C_I^-1/2), one det each of B, C_I and Phi''_XbarX, the cond of B and R
    and the inverses of R and B^T; the canonical maps then read P and Q
    from the context and call numpy.linalg no more."""
    phase = legacy_random_phase(2, 7)
    calls = collections.Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, counted(name, real))
    ctx = build_context(phase, 1.0)
    assert dict(calls) == {"eigh": 1, "det": 3, "cond": 2, "inv": 2}
    calls.clear()
    kappa_T(ctx, np.ones((3, 2)), np.ones((3, 2)))
    cotangent_frequencies(ctx, np.array([[1.0, 0.0], [0.6j, 0.8]]))
    assert not calls


def test_phase_and_context_arrays_are_read_only():
    """Every caller in a process shares one phase and one context, so an
    in-place write to any of their arrays raises, while the array a caller
    passed into PhaseMatrices stays the caller's to write."""
    A = np.zeros((2, 2), dtype=complex)
    own = PhaseMatrices(2, A, -2j * np.eye(2), 2j * np.eye(2))
    A[0, 1] = 1.0
    assert own.A[0, 1] == 0
    for phase in (own, fock_phase(1), heat_phase(2),
                  legacy_random_phase(2, 7)):
        ctx = build_context(phase, 0.5)
        arrays = [v for obj in (phase, ctx) for v in vars(obj).values()
                  if isinstance(v, np.ndarray)]
        assert len(arrays) == 12
        for M in arrays:
            with pytest.raises(ValueError, match="read-only"):
                M[...] = 0


def test_memos_are_bounded():
    """The context memo keeps at most _MEMO_SIZE entries, and evicts the
    least recently used one first."""
    phase = fock_phase(1)
    first = build_context(phase, 1.0)
    for k in range(3 * _MEMO_SIZE):
        build_context(phase, 1.0 / (k + 2))
        assert build_context.cache_info().currsize <= _MEMO_SIZE
    assert build_context.cache_info().currsize == _MEMO_SIZE
    assert build_context(phase, 1.0) is not first


def test_exponent_square_completion():
    """Re{i phi(X, y) - Phi(X)} = -|C_I^{1/2}(y - y_c)|^2 / 2 with the
    recentering y_c = -C_I^{-1} Im(B^T X); this is what keeps every
    transform integrand bounded by one."""
    for seed, n in ((0, 1), (5, 2)):
        ctx = build_context(legacy_random_phase(n, seed), 0.6)
        rng = np.random.default_rng(20 + seed)
        X = _cpoints(rng, 30, n)
        y = 4.0 * (rng.random((30, n)) - 0.5)
        yc = -np.imag(X @ ctx.phase.B) @ ctx.CIinv.T
        lhs = np.real(1j * phase_phi(ctx, X, y)) - phi_weight(ctx, X)
        ew, ev = np.linalg.eigh(ctx.CI)
        root = (ev * np.sqrt(ew)) @ ev.T
        rhs = -0.5 * np.sum(((y - yc) @ root.T) ** 2, axis=-1)
        assert rel_dev(lhs, rhs) < 1e-12


def test_normalization_constants(ex1):
    assert abs(ex1.Cphi - 0.5039588710767615) < 1e-15
    assert abs(ex1.CPhi - 1.0 / np.pi) < 1e-15


def test_r_factorization():
    for seed in range(5):
        for n in (1, 2):
            ctx = build_context(legacy_random_phase(n, seed), 1.0)
            dev = np.max(
                np.abs(ctx.R.conj().T @ ctx.R - ctx.PhiXXbar.conj())
            )
            assert dev < 1e-12
            ew = np.linalg.eigvalsh((ctx.PhiXXbar + ctx.PhiXXbar.conj().T) / 2)
            assert ew.min() > 0


def test_freq_image_fock_scaling():
    lam = np.array([[0.6 + 0.8j]])
    for beta in (0.5, 1.0, 2.0):
        ctx = build_context(fock_phase(1, beta), 1.0)
        got = np.abs(freq_image(ctx, lam)[0, 0]) ** 2
        assert abs(got - 2.0 * abs(lam[0, 0]) ** 2 / beta) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_map_matches_inverse_hessian_forms(n):
    """The reduced-frame forms equal the inverse-Hessian forms they
    replace: the pairing <lam, (Phi''_XbarX)^-1 conj(mu)>, the
    composition-law shift (ih/4) (Phi''_XXbar)^-T conj(lam), and
    G = (Phi''_XXbar)^-1 = conj(R^-1) R^-T of the cotangent pull-back."""
    ctx = build_context(legacy_random_phase(n, 7), 0.7)
    rng = np.random.default_rng(n)
    lam, mu = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))

    def close(got, ref):
        scale = max(np.max(np.abs(ref)), 1e-300)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    Hinv = np.linalg.inv(ctx.PhiXXbar)
    close(freq_pairing(ctx, lam, mu), lam @ Hinv.conj() @ np.conj(mu))
    close(freq_pairing(ctx, lam, lam),
          np.sum(np.abs(freq_image(ctx, lam)) ** 2))
    shift = (0.25j * ctx.h) * (ctx.Rinv @ np.conj(freq_image(ctx, lam)))
    close(shift, (0.25j * ctx.h) * Hinv.T @ np.conj(lam))
    close(np.conj(ctx.Rinv) @ ctx.Rinv.T, Hinv)
    # batched frequencies map row by row
    both = np.stack([lam, mu])
    close(freq_image(ctx, both)[1], freq_image(ctx, mu))
    close(freq_pairing(ctx, both, mu), np.array(
        [freq_pairing(ctx, lam, mu), freq_pairing(ctx, mu, mu)]))


def test_rejects_nonsymmetric_blocks():
    eye = np.eye(2)
    A = np.array([[0.0, 1.0], [0.0, 0.0]]) * 1j
    with pytest.raises(NonSymmetricPhase):
        build_context(PhaseMatrices(2, A, -2j * eye, 2j * eye), 1.0)
    Cbad = np.array([[2.0, 0.5], [0.0, 2.0]]) * 1j
    with pytest.raises(NonSymmetricPhase):
        build_context(PhaseMatrices(2, 1j * eye, -2j * eye, Cbad), 1.0)


def test_rejects_singular_b():
    eye = np.eye(1)
    with pytest.raises(SingularB):
        build_context(PhaseMatrices(1, 1j * eye, 0.0 * eye, 2j * eye), 1.0)


def test_rejects_nonpositive_ci():
    eye = np.eye(1)
    # C real symmetric, so Im C = 0
    with pytest.raises(NonPositiveCI):
        build_context(PhaseMatrices(1, 1j * eye, -2j * eye, 1.0 * eye), 1.0)


def test_rejects_ill_conditioned_ci():
    A = np.zeros((2, 2))
    B = -2j * np.eye(2)
    C = 1j * np.diag([1.0e3, 1.1e-10])
    with pytest.raises(IllConditionedPhase):
        build_context(PhaseMatrices(2, A, B, C), 1.0)


def test_h_domain():
    ph = fock_phase(1, 1.0)
    with pytest.raises(ValueError):
        build_context(ph, 0.0)
    with pytest.raises(ValueError):
        build_context(ph, 1.5)


# B and C_I are well conditioned (43.9 and 8.5), but cond Phi''_XbarX is
# 1.01e4, so det Phi''_XbarX carries rounding of about 1e-12 relative.
ANISOTROPIC = {
    "n": 2, "A": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "B": [[[1.773, -3.716], [-1.499, -1.423]],
          [[-2.399, -3.196], [-1.703, 0.762]]],
    "C": [[[0, 0.046], [0, 0.046]], [[0, 0.046], [0, 0.317]]],
}


def test_admits_phase_with_rounding_in_the_derived_constants(tmp_path):
    """A phase that is admissible and conditioned below 1e12 builds, even
    though its two forms of C_Phi differ by about 1e-12 relative (1.35e-12
    on a 2-vCPU x86-64 VM); space-info checks them at its own tolerance
    and passes, and gram at tol_gram cond(R)^2 (cond R = 100.5), the
    threshold its CSV records."""
    ctx = build_context(phase_from_config(ANISOTROPIC), 1.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"phase": ANISOTROPIC, "h": 1.0}))
    for cmd in (["space-info"], ["verify", "gram"]):
        res = invoke([*cmd, "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
    row = (tmp_path / "gram.csv").read_text().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1e-12 * np.linalg.cond(ctx.R) ** 2,
                                          rel=1e-10)


# sha256 over the A, B, C bytes of legacy_random_phase(n, seed), seeds in
# order: the fixture phases of every test
PHASE_DIGESTS = {
    (1, 30): "4248b2f4e044769e094503e8be0d2322ca6b3bc5dfa040d0943c9c6fa3969271",
    (2, 30): "ea64b41ab18dbd9d5050b16f33ce57428725ea877f41b664f6c47427e5065535",
    (3, 30): "f4a017901b0645807081a23fc48c4a6976a93c38bd24fbaea6b6fb8c9f2c2a15",
    (4, 10): "c99205d2c93f64e32603df8f816d35fad97d54139f69e9e357b85f517ee48d66",
}
# the same over random_phase(n, seed) for seeds 0-19: the phases of the
# seeded config form
CONSTRUCTED_DIGESTS = {
    1: "5c629e10378bef836ae29015781cf8516f0c760d783e149326bcc88942703033",
    2: "e77876175edbf16156a574535494faa4a2f2c684fe5ab60d2a44c457da5aaab6",
    3: "cc0763e09e8ca61ccfcec951c593c18b355b9be9424d42860b4f5b3372499477",
    4: "eb2ea0eff4e528fcbfe75819df4b7f5b39d5928760b64d1ffdd33822486058fa",
    5: "2febeb87e9f29af2845c23ca95d29cd6768aaee21394fc68248be41b3c2af09f",
    6: "86975a5f2bcb42c07f9b23f897c4dd1535dcb1f9e191cc49413239e6258da8df",
    7: "25c9a5634f57962c1b9c4720ffa1d57bfb7087e4819cb98ee44ee066afc3351d",
    8: "fc8cc60a47d6397e9ee35386f9c4edb29573eed83998059638655848952e59b4",
}


def _phase_digest(draw, n, seeds):
    digest = hashlib.sha256()
    for seed in range(seeds):
        phase = draw(n, seed)
        for M in (phase.A, phase.B, phase.C):
            digest.update(M.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n, seeds", list(PHASE_DIGESTS))
def test_random_phase_bytes_are_pinned(n, seeds):
    """Every test keeps its fixture phase: seeds 0..seeds-1 of the legacy
    sampler hash to the digest of the phases it drew one at a time."""
    digest = _phase_digest(legacy_random_phase, n, seeds)
    assert digest == PHASE_DIGESTS[n, seeds]


def _check_constructed(n, seed):
    """random_phase(n, seed) is admissible by construction: A and C are
    symmetric as stored, the context builds, cond B <= 8, |det B| >=
    (2 sqrt(0.2))^n and the eigenvalues of Phi''_XbarX lie in [0.2, 3]."""
    phase = random_phase(n, seed)
    assert np.array_equal(phase.A, phase.A.T)
    assert np.array_equal(phase.C, phase.C.T)
    ctx = build_context(phase, 1.0)
    assert np.linalg.cond(phase.B) <= 8
    assert (abs(np.linalg.det(phase.B))
            >= (2 * np.sqrt(0.2)) ** n * (1 - 1e-12))
    ew = np.linalg.eigvalsh(ctx.PhiXXbar)
    assert 0.2 * (1 - 1e-12) <= ew[0] and ew[-1] <= 3 * (1 + 1e-12)


@pytest.mark.parametrize("n", list(CONSTRUCTED_DIGESTS))
def test_constructed_phase_bytes_are_pinned(n):
    """Every seeded config keeps its phase: seeds 0-19 hash to the digest
    of the draw order that `random_phase` documents, and each is
    admissible with the constructed bounds."""
    assert _phase_digest(random_phase, n, 20) == CONSTRUCTED_DIGESTS[n]
    for seed in range(20):
        _check_constructed(n, seed)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 63))
def test_random_phase_is_admissible_by_construction(n, seed):
    _check_constructed(n, seed)
