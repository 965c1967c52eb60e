"""Planted bugs and the commands that catch them.

Each case patches one function in-process, runs space-info and all seven
verify suites on the Fock phase at h = 1 and on the seed-7 n = 1 phase at
h = 0.5, and pins the exact set of commands that fail (exit 1).  No planted
bug may turn into invalid input (exit 2): a wrong derived quantity must
fail the suite that checks it, not every command.  A change that makes a
suite blind to one of these bugs fails here instead of passing silently.
"""

import dataclasses
import json

import numpy as np
import pytest

from conftest import invoke

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
    "seed7": {"phase": {"seed": 7, "n": 1}, "h": 0.5},
}
COMMANDS = [["space-info"]] + [["verify", s] for s in SUITES]


def _inv_sqrt_scaled(monkeypatch):
    real = btlab.geometry._inv_sqrt
    monkeypatch.setattr(btlab.geometry, "_inv_sqrt",
                        lambda M: 1.001 * real(M))


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


def _compression_scaled(monkeypatch):
    real = btlab.basis.axis_matrices
    monkeypatch.setattr(btlab.basis, "axis_matrices",
                        lambda h, N, factors: 0.97 * real(h, N, factors))


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
    # every one-axis factor, so every compression, scaled: the inner blocks
    # weyl and deformation build must still see an assembly error
    "compression_x0.97": (_compression_scaled,
                          {"weyl", "diag", "deformation"}),
    # the Toeplitz side of egorov alone: its shift of the kernel's point
    "kernel_shift_x1.01": (_kernel_shift_scaled, {"egorov"}),
    # Blind spots at n = 1 (ROADMAP items 2 and 3): R is 1 x 1 there, so
    # R^-1 = R^-T, and a 1% error in sw's closed form stays inside its 1%
    # rel_tol.  The n = 2 rows below catch both.
    "freq_image_transposed": (_freq_image_transposed, set()),
    "sw_exact_x1.01^n": (_sw_exact_scaled, set()),
}


# The seed-7 phase at n = 2 with the benchmark's two lambda: there weyl
# applies T_b through one matmul per axis rather than one in all.
SEED7_N2 = {"phase": {"seed": 7, "n": 2}, "h": 1.0,
            "lambda_list": [[[1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.6, 0.8]]]}
N2_CAUGHT = {
    "none": set(),
    "translate_conjugated": {"weyl"},
    # 0.97 per axis scales each compression's norm by 0.9409 at n = 2,
    # which bound's 2% slack no longer covers
    "compression_x0.97": {"weyl", "diag", "deformation", "bound"},
    "freq_image_transposed": {"weyl", "egorov"},
    "kernel_shift_x1.01": {"egorov"},
    "sw_exact_x1.01^n": {"sw"},
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
