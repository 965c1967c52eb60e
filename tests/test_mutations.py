"""Planted bugs and the commands that catch them.

Each case patches one function in-process, runs space-info and all seven
verify suites on the Fock phase at h = 1 and on the legacy seed-7 n = 1
phase (`reference.legacy_random_phase`) at h = 0.5, and pins the exact
set of commands that fail (exit 1).  No planted bug may turn into
invalid input (exit 2): a wrong derived quantity must fail the suite
that checks it, not every command.  A change that makes a
suite blind to one of these bugs fails here instead of passing silently.
"""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from conftest import invoke
from reference import legacy_phase_block

import btlab.bargmann
import btlab.basis
import btlab.cli
import btlab.geometry
import btlab.heat
import btlab.operators
import btlab.symbols
from btlab.cli import SUITES

CONFIGS = {
    "fock": {"phase": {"preset": "fock"}, "h": 1.0},
    "seed7": {"phase": legacy_phase_block(1, 7), "h": 0.5},
}
COMMANDS = [["space-info"]] + [["verify", s] for s in SUITES]


def _inv_sqrt_scaled(monkeypatch):
    real = btlab.geometry._inv_sqrt
    monkeypatch.setattr(btlab.geometry, "_inv_sqrt",
                        lambda ew, ev: 1.001 * real(ew, ev))


def _cphi_scaled(monkeypatch):
    real = btlab.cli.build_context

    def build(phase, h):
        ctx = real(phase, h)
        return dataclasses.replace(ctx, CPhi=1.001 * ctx.CPhi)

    monkeypatch.setattr(btlab.cli, "build_context", build)


def _heat_rate_over_7(monkeypatch):
    def damping(ctx, lam, t):
        mu = btlab.geometry.freq_image(ctx, lam)
        return np.exp(-t * ctx.h * np.sum(np.abs(mu) ** 2, axis=-1) / 7.0)

    monkeypatch.setattr(btlab.heat, "heat_damping", damping)


def _bracket_negated(monkeypatch):
    real = btlab.symbols.poisson

    def negated(ctx, a, b):
        br = real(ctx, a, b)
        return dataclasses.replace(br, c=-br.c)

    monkeypatch.setattr(btlab.operators, "poisson", negated)


def _q_form_scaled(monkeypatch):
    real = btlab.symbols.q_form

    def scaled(ctx, a, b):
        q = real(ctx, a, b)
        return dataclasses.replace(q, c=1.2 * q.c)

    monkeypatch.setattr(btlab.operators, "q_form", scaled)


def _translate_conjugated(monkeypatch):
    def translate(b, lam):
        lam = np.asarray(lam, dtype=complex).reshape(b.n)
        return dataclasses.replace(
            b, c=b.c * np.exp(-1j * np.real(b.lam @ lam)))

    monkeypatch.setattr(btlab.cli, "translate", translate)


def _translation_weight_scaled(monkeypatch):
    # the coefficient e^{-|c|^2/h} of a translation's one term
    real = btlab.operators._terms

    def terms(ctx, op):
        coef, seeds = real(ctx, op)
        if isinstance(op, np.ndarray):
            coef = 1.01 * coef
        return coef, seeds

    monkeypatch.setattr(btlab.operators, "_terms", terms)


def _compression_scaled(monkeypatch):
    real = btlab.basis.axis_matrices
    monkeypatch.setattr(btlab.basis, "axis_matrices",
                        lambda N, seeds: 0.97 * real(N, seeds))


def _edit_source(monkeypatch, module, name, old, new):
    """Replace module.name by its own source with the one occurrence of
    `old` changed to `new`, run in a copy of the module's namespace."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    scope = dict(vars(module))
    exec(source.replace(old, new), scope)
    monkeypatch.setattr(module, name, scope[name])


def _gamma_loses_conj(monkeypatch):
    # a plane wave's gamma = (i/2) mu r = alpha, where conj(mu) belongs
    _edit_source(monkeypatch, btlab.operators, "_terms",
                 "-alpha.conj()", "alpha")


def _laguerre_sign(monkeypatch):
    # L_a^(m)(alpha gamma) in place of L_a^(m)(-alpha gamma)
    _edit_source(monkeypatch, btlab.basis, "axis_matrices",
                 "(2 * a + 1 + ag + m)", "(2 * a + 1 - ag + m)")


def _freq_image_transposed(monkeypatch):
    def freq_image(ctx, lam):  # R^-1 where R^-T belongs
        return btlab.geometry._as_points(lam, ctx.n) @ ctx.Rinv.T

    for mod in (btlab.geometry, btlab.bargmann, btlab.heat, btlab.operators,
                btlab.symbols):
        monkeypatch.setattr(mod, "freq_image", freq_image)


def _kernel_shift_scaled(monkeypatch):
    # only the composition law's kernel shift a = (ih/4) R^-1 conj(mu)
    # moves; the real-side pull-back keeps the true frequency image
    real = btlab.geometry.freq_image
    monkeypatch.setattr(btlab.bargmann, "freq_image",
                        lambda ctx, lam: 1.01 * real(ctx, lam))


def _sw_exact_scaled(monkeypatch):
    real = btlab.cli.sw_l1_exact
    monkeypatch.setattr(btlab.cli, "sw_l1_exact",
                        lambda ctx, b: 1.01 ** ctx.n * real(ctx, b))


MUTATIONS = {
    "none": (lambda monkeypatch: None, set()),
    "inv_sqrt_x1.001": (_inv_sqrt_scaled, {"space-info"}),
    "cphi_x1.001": (_cphi_scaled, {"space-info", "gram"}),
    "heat_rate_over_7": (_heat_rate_over_7, {"diag", "egorov"}),
    "bracket_negated": (_bracket_negated, {"deformation"}),
    "q_form_x1.2": (_q_form_scaled, {"deformation"}),
    "translate_conjugated": (_translate_conjugated, {"weyl"}),
    "translation_weight_x1.01": (_translation_weight_scaled, {"weyl"}),
    # every one-axis factor, so every compression, scaled: the inner blocks
    # weyl and deformation build must still see an assembly error
    "compression_x0.97": (_compression_scaled,
                          {"weyl", "diag", "deformation"}),
    # the Toeplitz side of egorov alone: its shift of the kernel's point
    "kernel_shift_x1.01": (_kernel_shift_scaled, {"egorov"}),
    # the seeds of a plane wave, and the Laguerre recurrence of every
    # one-axis factor; deformation reads only slopes, and with the wrong
    # argument the n = 1 defects still fall as h^2 (1.93 and 2.17 on Fock)
    "gamma_loses_conj": (_gamma_loses_conj, {"weyl", "diag", "deformation"}),
    "laguerre_sign": (_laguerre_sign, {"weyl", "diag"}),
    # Blind spots at n = 1 (ROADMAP items 2 and 3): R is 1 x 1 there, so
    # R^-1 = R^-T, and a 1% error in sw's closed form stays inside its 1%
    # rel_tol.  The n = 2 rows below catch both.
    "freq_image_transposed": (_freq_image_transposed, set()),
    "sw_exact_x1.01^n": (_sw_exact_scaled, set()),
}


# The legacy seed-7 phase at n = 2 with the benchmark's two lambda: there weyl
# applies T_b through one matmul per axis rather than one in all.
SEED7_N2 = {"phase": legacy_phase_block(2, 7), "h": 1.0,
            "lambda_list": [[[1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.6, 0.8]]]}
N2_CAUGHT = {
    "none": set(),
    "inv_sqrt_x1.001": {"space-info"},
    "cphi_x1.001": {"space-info", "gram"},
    # bound's inequality is one-sided, and a wrong heat rate passes it
    "heat_rate_over_7": {"diag", "egorov"},
    "bracket_negated": {"deformation"},
    "q_form_x1.2": {"deformation"},
    "translate_conjugated": {"weyl"},
    "translation_weight_x1.01": {"weyl"},
    # 0.97 per axis scales each compression's norm by 0.9409 at n = 2,
    # which bound's 2% slack no longer covers
    "compression_x0.97": {"weyl", "diag", "deformation", "bound"},
    "freq_image_transposed": {"weyl", "egorov"},
    "kernel_shift_x1.01": {"egorov"},
    "sw_exact_x1.01^n": {"sw"},
    "gamma_loses_conj": {"weyl", "diag", "deformation"},
    # here the deformation slopes fall to 1.52 and 1.79
    "laguerre_sign": {"weyl", "diag", "deformation"},
}


def _caught(cfg, tmp_path):
    """Run every command on cfg; the commands that fail (exit 1), after
    checking that none refused its input (exit 2)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    exits = {}
    for cmd in COMMANDS:
        res = invoke(
            [*cmd, "--config", str(path), "--out", str(tmp_path)])
        exits[cmd[-1]] = res.exit_code
    assert 2 not in exits.values(), exits
    return {name for name, code in exits.items() if code != 0}


@pytest.mark.parametrize("bug", list(MUTATIONS))
def test_planted_bug_fails_exactly_its_suites(bug, tmp_path, monkeypatch):
    plant, expected = MUTATIONS[bug]
    plant(monkeypatch)
    for label, cfg in CONFIGS.items():
        assert _caught(cfg, tmp_path) == expected, label


@pytest.mark.parametrize("bug", list(N2_CAUGHT))
def test_planted_bug_fails_exactly_its_suites_at_two_variables(
        bug, tmp_path, monkeypatch):
    MUTATIONS[bug][0](monkeypatch)
    assert _caught(SEED7_N2, tmp_path) == N2_CAUGHT[bug]
