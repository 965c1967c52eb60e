import gc
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import btlab.bargmann
import btlab.basis
import btlab.cli
import btlab.heat
import btlab.operators
import btlab.quadrature
import btlab.symbols
from btlab.cli import main
from btlab.config import (
    complex_entry,
    complex_matrix,
    complex_vector,
    gaussian_from_config,
    load_config,
    phase_from_config,
    symbol_from_config,
)
from btlab.errors import InvalidConfig
from btlab.geometry import build_context, fock_phase


FOCK = {"phase": {"preset": "fock", "beta": 1.0}, "h": 1.0}
# Every suite at a small size, along the lines of the benchmark smoke run.
SMALL = dict(FOCK, N=4, n_schedule=[4, 6], t_grid=[1.0],
             h_list=[0.4, 0.3, 0.2, 0.1],
             lambda_grid={"lo": -2.0, "hi": 2.0, "steps": [1.0, 0.5]},
             X_grid={"lo": -1.0, "hi": 1.0, "step": 1.0})


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_load_config_errors(tmp_path):
    with pytest.raises(InvalidConfig):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_config(str(bad))
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(InvalidConfig):
        load_config(str(lst))


def test_complex_parsers():
    assert complex_entry([1.5, -2.0], "z") == 1.5 - 2.0j
    with pytest.raises(InvalidConfig):
        complex_entry(3, "z")
    with pytest.raises(InvalidConfig):
        complex_entry("nope", "z")
    with pytest.raises(InvalidConfig):
        complex_entry([True, 0.0], "z")
    v = complex_vector([[1.0, 0.0], [0.0, 1.0]], 2, "v")
    assert np.allclose(v, [1.0, 1.0j])
    with pytest.raises(InvalidConfig):
        complex_vector([[1.0, 0.0]], 2, "v")
    M = complex_matrix([[[0.0, 1.0]]], 1, "M")
    assert M.shape == (1, 1)
    assert M[0, 0] == 1.0j


def test_phase_presets():
    ph = phase_from_config({"preset": "fock", "beta": 2.0})
    assert np.allclose(ph.B, -4.0j * np.eye(1))
    ph = phase_from_config({"preset": "heat", "n": 2})
    assert ph.n == 2
    ph = phase_from_config({"seed": 5, "n": 1})
    build_context(ph, 1.0)  # must be admissible
    with pytest.raises(InvalidConfig):
        phase_from_config({"preset": "fock", "beta": -1.0})
    with pytest.raises(InvalidConfig):
        phase_from_config({"preset": "unknown"})
    with pytest.raises(InvalidConfig):
        phase_from_config({"seed": 7.5, "n": 1})


def test_phase_explicit_matrices():
    blk = {
        "n": 1,
        "A": [[[0.0, 1.0]]],
        "B": [[[0.0, -2.0]]],
        "C": [[[0.0, 2.0]]],
    }
    ph = phase_from_config(blk)
    ref = fock_phase(1, 1.0)
    assert np.allclose(ph.A, ref.A)
    assert np.allclose(ph.B, ref.B)
    assert np.allclose(ph.C, ref.C)


def test_symbol_and_gaussian_parsing():
    b = symbol_from_config([[0.5, 0.0, 1.0, 0.0], [0.5, 0.0, -1.0, 0.0]], 1)
    assert len(b.terms) == 2
    with pytest.raises(InvalidConfig):
        symbol_from_config([[0.5, 0.0, 1.0]], 1)  # bad flat length
    with pytest.raises(InvalidConfig):
        symbol_from_config([[0.5, 0.0, "1", 0.0]], 1)
    g = gaussian_from_config(
        {"y0": [0.4], "sigma": 0.8, "p0": [0.6], "amp": [0.9, 0.4]}, 1
    )
    assert abs(g.amp - (0.9 + 0.4j)) < 1e-15
    with pytest.raises(InvalidConfig):
        gaussian_from_config({"y0": [0.0], "sigma": -1.0, "p0": [0.0]}, 1)
    with pytest.raises(InvalidConfig):
        gaussian_from_config({"y0": ["0.4"]}, 1)
    with pytest.raises(InvalidConfig, match="sgima"):
        gaussian_from_config({"y0": [0.4], "sgima": 0.8}, 1)


def test_space_info_command(tmp_path):
    runner = CliRunner()
    cfg = _write(tmp_path, FOCK)
    out = str(tmp_path / "reports")
    res = runner.invoke(main, ["space-info", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    assert "result: PASS" in res.output
    csv = (tmp_path / "reports" / "space_info.csv").read_text()
    assert csv.splitlines()[0] == "quantity,re,im"
    assert "C_phi" in csv
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert res.output.strip().endswith("version 0.1.0")


def test_verify_gram_passes(tmp_path):
    runner = CliRunner()
    cfg = _write(tmp_path, FOCK)
    res = runner.invoke(
        main, ["verify", "gram", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    # every effective value is echoed back
    assert "N = 10" in res.output
    assert "tol_gram = 1e-12" in res.output
    assert (tmp_path / "gram.csv").exists()


def test_verify_order_changes_nothing(tmp_path):
    """`--order` is still accepted, but every compression is closed form:
    a two-node order gives the same exit code, report and CSV bytes."""
    runner = CliRunner()
    cfg = _write(tmp_path, FOCK)
    for suite in ("gram", "diag", "weyl"):
        runs = []
        for tag, extra in (("plain", []), ("order2", ["--order", "2"])):
            out = tmp_path / tag
            res = runner.invoke(main, ["verify", suite, "--config", cfg,
                                       "--out", str(out), *extra])
            runs.append((res.exit_code, res.output.replace(str(out), ""),
                         (out / f"{suite}.csv").read_bytes()))
        assert runs[0] == runs[1], suite
        assert runs[0][0] == 0, runs[0][1]


def test_verify_rejects_bad_inputs(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["verify", "gram", "--config", str(tmp_path / "none.json"),
         "--out", str(tmp_path)],
    )
    assert res.exit_code == 2
    # inadmissible phase: C real means C_I = 0
    cfg = _write(tmp_path, {"phase": {"n": 1, "A": [[[0.0, 1.0]]],
                                      "B": [[[0.0, -2.0]]],
                                      "C": [[[2.0, 0.0]]]}, "h": 1.0})
    res = runner.invoke(
        main, ["verify", "gram", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2
    assert "NonPositiveCI" in res.output
    # bound suite must refuse t outside (1/2, 1]
    cfg = _write(tmp_path, dict(FOCK, t_grid=[0.5, 1.0]), "tbad.json")
    res = runner.invoke(
        main, ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2
    # worker count must be positive
    cfg = _write(tmp_path, FOCK, "ok.json")
    res = runner.invoke(
        main,
        ["verify", "gram", "--config", cfg, "--out", str(tmp_path),
         "--threads", "0"],
    )
    assert res.exit_code == 2


@pytest.mark.parametrize("suite, extra", [
    ("gram", {"tol_gram": [1]}),
    ("sw", {"lambda_grid": {"lo": [1]}}),
    ("bound", {"t_grid": [[0.7]]}),
    ("bound", {"phase": {"seed": [1], "n": 1}}),
    ("sw", {"lambda_grid": {"steps": [0]}}),
    ("gram", {"N": True}),
    ("gram", {"h": True}),
    ("gram", {"tol_gram": "1e-3"}),
    ("egorov", {"X_grid": {"step": 1e-4}}),
    ("sw", {"lambda_grid": {"lo": -1e308, "hi": 1e308}}),
    # objects refuse fields they do not read
    ("sw", {"lambda_grid": {"lo": -4, "hi": 4, "step": 0.5}}),
    ("egorov", {"X_grid": {"steps": [0.5]}}),
    ("gram", {"phase": {"preset": "fock", "seed": 7, "n": 2}}),
    ("gram", {"phase": {"preset": "fock", "bta": 2.0}}),
    ("gram", {"phase": {"preset": "heat", "beta": 2.0}}),
    ("gram", {"phase": {"seed": 7, "n": 1, "beta": 2.0}}),
    ("gram", {"phase": {"n": 1, "A": [[[0.0, 1.0]]], "B": [[[0.0, -2.0]]],
                        "C": [[[0.0, 2.0]]], "seeds": 7}}),
    ("egorov", {"gaussians": [{"y0": [0.0], "sgima": 0.5}]}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_verify_rejects_malformed_values(tmp_path, suite, extra):
    cfg = _write(tmp_path, {**FOCK, **extra})
    res = CliRunner().invoke(
        main, ["verify", suite, "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2, res.output
    assert "InvalidConfig" in res.output


def _readme_csv_columns():
    """{csv stem: header line} from the README's list of CSV columns."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return {
        stem: ",".join(col.strip() for col in cols.split(","))
        for stem, cols in re.findall(r"`(\w+)\.csv`\s*\(([^)]*)\)", text)
    }


# Common echo keys a command does not print: space-info has no suite name
# or threads, deformation sweeps its own h_list.
_UNECHOED = {"space-info": {"suite", "threads"}, "deformation": {"h"}}
# SMALL is too coarse for two suites to pass: weyl truncates at N = 4, and
# sw refines its lambda grid only from step 1 to 0.5.  Every other command
# must pass on it.
_MAY_FAIL = {"weyl", "sw"}


@pytest.mark.parametrize("command", [
    "space-info", "gram", "weyl", "bound", "diag", "deformation", "egorov",
    "sw",
])
def test_every_command_reports_and_writes_documented_csv(tmp_path, command):
    cfg = _write(tmp_path, SMALL)
    argv = ["space-info"] if command == "space-info" else ["verify", command]
    res = CliRunner().invoke(
        main, [*argv, "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code in ((0, 1) if command in _MAY_FAIL else (0,)), \
        res.output
    stem = command.replace("-", "_")
    header = (tmp_path / f"{stem}.csv").read_text().splitlines()[0]
    assert header == _readme_csv_columns()[stem]
    for key in ("suite", "phase", "n", "h", "threads"):
        echoed = key not in _UNECHOED.get(command, ())
        assert (f"\n  {key} = " in res.output) == echoed, key
    assert "\n  order = " not in res.output


def test_verify_h_domain(tmp_path):
    runner = CliRunner()
    cfg = _write(tmp_path, {"phase": {"preset": "fock"}, "h": 1.5})
    res = runner.invoke(
        main, ["verify", "gram", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2


def test_verify_diag_suite(tmp_path):
    runner = CliRunner()
    cfg = _write(tmp_path, FOCK)
    res = runner.invoke(
        main, ["verify", "diag", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert (tmp_path / "diag.csv").exists()


def _count_built(monkeypatch):
    """Count the matrices taken from `compressions`, by kind: translation
    unitaries (array ops) and Toeplitz compressions (symbols)."""
    built = {"weyl_unitary_matrix": 0, "toeplitz_matrix": 0}
    real = btlab.operators.compressions

    def counted(ctx, trunc, ops):
        ops = list(ops)
        for op, M in zip(ops, real(ctx, trunc, ops)):
            kind = ("weyl_unitary_matrix" if isinstance(op, np.ndarray)
                    else "toeplitz_matrix")
            built[kind] += 1
            yield M

    for mod in (btlab.cli, btlab.operators):
        monkeypatch.setattr(mod, "compressions", counted)
    return built


def test_verify_diag_builds_each_toeplitz_once(tmp_path, monkeypatch):
    """One compression for the identity and one per default symbol: every
    diagonal sum of a symbol reads the same matrix."""
    built = _count_built(monkeypatch)
    cfg = _write(tmp_path, FOCK)
    res = CliRunner().invoke(
        main, ["verify", "diag", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert built == {"weyl_unitary_matrix": 0, "toeplitz_matrix": 4}


def test_verify_weyl_builds_each_matrix_once(tmp_path, monkeypatch):
    """Per lambda the suite builds W(lambda), W(-lambda) and the translated
    symbol's compression; T_b is built once per run."""
    built = _count_built(monkeypatch)
    cfg = _write(tmp_path, FOCK)
    res = CliRunner().invoke(
        main, ["verify", "weyl", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert built == {"weyl_unitary_matrix": 8, "toeplitz_matrix": 5}


def test_verify_bound_holds_one_matrix_at_a_time(tmp_path, monkeypatch):
    """bound drops each compression before it asks for the next, so a run
    over several symbols keeps one d x d matrix alive at a time."""
    real = btlab.operators.compressions
    taken, alive = [], []

    def watched(ctx, trunc, ops):
        for M in real(ctx, trunc, ops):
            gc.collect()
            alive.append(sum(ref() is not None for ref in taken))
            taken.append(weakref.ref(M))
            yield M

    monkeypatch.setattr(btlab.operators, "compressions", watched)
    cfg = _write(tmp_path, FOCK)
    res = CliRunner().invoke(
        main, ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert alive == [0, 0, 0]


def test_verify_suites_run_one_stacked_recurrence(tmp_path, monkeypatch):
    """diag, weyl and bound each run one `axis_matrices` recurrence for
    all their compressions, deformation one per h, and gram, a closed form,
    none; equal factors are shared, so weyl's translated symbols reuse
    T_b's frequency and the five deformation compressions of each h stack
    only the frequencies +-lambda and +-2 lambda of the default cos/sin
    pair."""
    stacks = []
    real = btlab.basis.axis_matrices

    def counted(h, N, factors):
        stacks.append(len(factors))
        return real(h, N, factors)

    monkeypatch.setattr(btlab.basis, "axis_matrices", counted)
    cfg = _write(tmp_path, FOCK)
    # factors per stack: the n = 1 defaults of each suite
    expected = {"gram": [], "diag": [4], "weyl": [1 + 2 * 4],
                "bound": [4], "deformation": [4] * 5}
    for suite, sizes in expected.items():
        stacks.clear()
        res = CliRunner().invoke(
            main, ["verify", suite, "--config", cfg, "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        assert stacks == sizes, suite


def test_verify_bound_searches_witnesses_once_per_symbol(tmp_path,
                                                         monkeypatch):
    """The heat flow keeps the sup witnesses, so a default bound run
    searches them once per symbol (3), not once per symbol and t (12)."""
    searches = []
    real = btlab.symbols._witnesses

    def counted(b):
        searches.append(b)
        return real(b)

    monkeypatch.setattr(btlab.symbols, "_witnesses", counted)
    cfg = _write(tmp_path, FOCK)
    res = CliRunner().invoke(
        main, ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert len(searches) == 3


def test_verify_weyl_holds_few_dense_matrices(tmp_path):
    """The two-variable weyl suite (N = 24, d = 325) with two lambdas
    yields its matrices lazily and drops each lambda's before the next are
    built: its traced peak stays under 9.9 MB, about six d^2 complex
    arrays, while the seven matrices alone would take 11.8 MB at once."""
    path = _write(tmp_path, {
        "phase": {"seed": 7, "n": 2}, "h": 1.0,
        "lambda_list": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]],
    })
    argv = ["verify", "weyl", "--config", path, "--out", str(tmp_path)]
    CliRunner().invoke(main, argv)  # first use: imports and caches
    tracemalloc.start()
    try:
        res = CliRunner().invoke(main, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak <= 9.9e6


def test_verify_two_variable_suites_build_no_grid(tmp_path, monkeypatch):
    """Every compression is assembled from closed-form one-axis matrices:
    gram, weyl, bound, diag and deformation pass at n = 2 defaults without
    building a single quadrature grid."""
    _no_quadrature(monkeypatch)
    cfg = _write(tmp_path, {
        "phase": {"seed": 7, "n": 2}, "h": 1.0,
        "lambda_list": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]],
    })
    for suite in ("gram", "weyl", "bound", "diag", "deformation"):
        res = CliRunner().invoke(
            main, ["verify", suite, "--config", cfg, "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        assert "[FAIL]" not in res.output


def _refused_small(tmp_path, suite, cfg):
    """Run `suite` on cfg; return its exit code, output and the peak
    traced allocation of the run in bytes."""
    path = _write(tmp_path, cfg)
    tracemalloc.start()
    try:
        res = CliRunner().invoke(
            main, ["verify", suite, "--config", path, "--out", str(tmp_path)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res.exit_code, res.output, peak


def test_verify_refuses_oversized_truncation(tmp_path):
    """N = 100000 would need a 100001^2 compression: the index count is
    refused before any index or matrix is built."""
    code, output, peak = _refused_small(tmp_path, "gram", dict(FOCK, N=100000))
    assert code == 2, output
    assert "InvalidConfig" in output and "100001 basis indices" in output
    assert peak < 2e6
    assert not (tmp_path / "gram.csv").exists()


def test_verify_sw_refuses_oversized_box(tmp_path):
    """The lambda box is summed one real axis at a time, so n = 3 defaults
    (17^6 to 65^6 box points) pass in a few kilobytes of axis sums.  The
    cap counts the points of one axis: a step of 5e-7 puts 32,000,001 on
    each and is refused before the sum of the first step, 1.0, runs."""
    code, output, peak = _refused_small(
        tmp_path, "sw", {"phase": {"seed": 7, "n": 3}, "h": 1.0})
    assert code == 0, output
    assert "[FAIL]" not in output
    assert peak < 5e6
    (tmp_path / "sw.csv").unlink()
    code, output, peak = _refused_small(tmp_path, "sw", {
        "phase": {"seed": 7, "n": 1}, "h": 1.0,
        "lambda_grid": {"steps": [1.0, 5e-7]}})
    assert code == 2, output
    assert "InvalidConfig" in output
    assert "step 5e-07 gives 32000001 points per axis" in output
    assert peak < 2e6
    assert not (tmp_path / "sw.csv").exists()


def test_verify_sw_passes_at_defaults_on_random_phases(tmp_path):
    """The default mu box holds the profile for every phase: default sw
    passes on seeds 0-9 at n = 1, h = 0.5 and seeds 0-4 at n = 2, h = 1."""
    runner = CliRunner()
    for n, h, seeds in ((1, 0.5, range(10)), (2, 1.0, range(5))):
        for seed in seeds:
            cfg = _write(tmp_path, {"phase": {"seed": seed, "n": n}, "h": h})
            res = runner.invoke(
                main, ["verify", "sw", "--config", cfg, "--out",
                       str(tmp_path)])
            assert res.exit_code == 0, (n, seed, res.output)


def test_verify_refuses_random_phase_above_five_variables(tmp_path):
    """Rejection sampling finds no admissible n = 6 phase in practice, so
    the seeded form refuses n >= 6 before the first draw."""
    cfg = _write(tmp_path, {"phase": {"seed": 7, "n": 6}})
    t0 = time.perf_counter()
    res = CliRunner().invoke(
        main, ["verify", "gram", "--config", cfg, "--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 2, res.output
    assert "n <= 5" in res.output
    assert not (tmp_path / "gram.csv").exists()


def test_verify_diag_refuses_k_above_truncation(tmp_path):
    """A degree k > N has an empty diagonal in the compression: the suite
    refuses it as unusable input instead of reporting a failed identity."""
    cfg = _write(tmp_path, dict(FOCK, N=3, k_max=5))
    res = CliRunner().invoke(
        main, ["verify", "diag", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2, res.output
    assert "InvalidConfig" in res.output and "k <= N = 3" in res.output
    assert not (tmp_path / "diag.csv").exists()
    cfg = _write(tmp_path, dict(FOCK, N=3, k_max=3), "edge.json")
    res = CliRunner().invoke(
        main, ["verify", "diag", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output


def test_verify_sw_checks_closed_form_l1(tmp_path):
    """A truncated box whose refinements agree to 2.4e-3 still misses the
    exact L1 integral 2 pi by 29%: the closed-form check fails it."""
    cfg = _write(tmp_path, dict(FOCK, lambda_grid={
        "lo": -2.0, "hi": 2.0, "steps": [0.02, 0.01]}))
    res = CliRunner().invoke(
        main, ["verify", "sw", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 1, res.output
    assert "[PASS] sw refinement rel_delta" in res.output
    assert "[FAIL] sw closed-form L1" in res.output
    assert f"exact {2.0 * np.pi:.6e}" in res.output


def _cli_child(*args):
    """Run the CLI in a new interpreter, where a RuntimeWarning prints as it
    would for a user instead of raising as it does under pytest."""
    src = str(Path(btlab.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "btlab.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)


def test_verify_sw_fails_an_overflowing_estimate(tmp_path):
    """At n = 30, h = 1e-9 every box sum overflows to inf; inf == inf must
    not read as a converged refinement."""
    cfg = _write(tmp_path, {
        "phase": {"preset": "fock", "n": 30}, "h": 1e-9,
        "lambda_grid": {"lo": -1e5, "hi": 1e5, "steps": [0.5, 0.25]}})
    res = _cli_child("verify", "sw", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1, res.stdout + res.stderr
    assert "[PASS]" not in res.stdout
    assert "[FAIL] sw refinement" in res.stdout
    assert "an estimate overflows a float" in res.stdout
    assert res.stderr == ""
    rows = (tmp_path / "sw.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1:] for r in rows] == [
        ["inf", "nan", "true"], ["inf", "nan", "false"]]


def test_verify_sw_fails_an_overflowing_exact_integral(tmp_path):
    """At n = 64, h = 1e-5 the closed-form integral (4 pi / h)^n passes the
    float range: the check fails and names it, sw.csv is still written and
    no traceback escapes."""
    cfg = _write(tmp_path, {"phase": {"preset": "fock", "n": 64}, "h": 1e-5})
    res = _cli_child("verify", "sw", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1, res.stdout + res.stderr
    assert "Traceback" not in res.stderr
    assert "[FAIL] sw closed-form L1" in res.stdout
    assert "exact inf" in res.stdout and "overflows a float" in res.stdout
    assert (tmp_path / "sw.csv").exists()


def test_phase_dimension_is_bounded_before_allocation(tmp_path):
    """Every phase form refuses n > 64 as invalid input, before an n x n
    matrix is built."""
    cfg = _write(tmp_path, {"phase": {"preset": "fock", "n": 1000000000}})
    t0 = time.perf_counter()
    res = CliRunner().invoke(main, ["space-info", "--config", cfg])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 2, res.output
    assert "InvalidConfig" in res.output and "n <= 64" in res.output
    for block in ({"preset": "heat", "n": 65}, {"seed": 0, "n": 65},
                  {"n": 65, "A": [], "B": [], "C": []}):
        with pytest.raises(InvalidConfig, match="n <= 64"):
            phase_from_config(block)


def test_verify_sw_zero_symbol(tmp_path):
    """A zero symbol has a zero profile: equal refinements give rel_delta
    0 and the exact L1 is 0, so the run passes cleanly."""
    cfg = _write(tmp_path, {"phase": {"preset": "fock"}, "b": [[0, 0, 0, 0]]})
    res = CliRunner().invoke(
        main, ["verify", "sw", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert res.exception is None
    rows = (tmp_path / "sw.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == [
        "nan", "0.00000000000e+00", "0.00000000000e+00"]


def test_verify_bound_csv_agrees_with_report(tmp_path):
    """A norm schedule that is not Cauchy-converged is only warned about:
    the CSV then holds no row that failed, as the report has no FAIL."""
    cfg = _write(tmp_path, {"phase": {"seed": 3, "n": 1}, "h": 0.5})
    res = CliRunner().invoke(
        main, ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert "[WARN] b0: norm schedule not Cauchy-converged" in res.output
    rows = (tmp_path / "bound.csv").read_text().splitlines()
    assert len(rows) == 13
    assert all(r.split(",")[7] == "true" for r in rows[1:])


def test_verify_deformation_names_commuting_pair(tmp_path):
    """The default cosine/sine pair commutes exactly, so its commutator
    residual is named, not checked against slope_min."""
    cfg = _write(tmp_path, FOCK)
    res = CliRunner().invoke(
        main, ["verify", "deformation", "--config", cfg, "--out",
               str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert ("[PASS] slope r2: a and b commute exactly; residual is "
            "truncation leakage\n") in res.output
    assert "slope r2 >=" not in res.output
    assert "[PASS] slope r1 >= 1.8" in res.output


def test_sup_not_attained_is_flagged(tmp_path):
    """sin(Re X) + sin(2 Re X) peaks below sum |c_j| = 2: bound marks its
    rows upper_bound and sw warns that its profile is an upper bound."""
    sym = [[0.0, -0.5, 1.0, 0.0], [0.0, 0.5, -1.0, 0.0],
           [0.0, -0.5, 2.0, 0.0], [0.0, 0.5, -2.0, 0.0]]
    cfg = _write(tmp_path, dict(SMALL, symbols=[sym], b=sym))
    res = CliRunner().invoke(
        main, ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert "[WARN] b0: sup not attained" in res.output
    row = (tmp_path / "bound.csv").read_text().splitlines()[1].split(",")
    # at t = 1 on Fock the terms damp by exp(-|lam|^2 / 4)
    assert abs(float(row[2]) - np.exp(-0.25) - np.exp(-1.0)) < 1e-10
    assert row[-1] == "upper_bound"
    res = CliRunner().invoke(
        main, ["verify", "sw", "--config", cfg, "--out", str(tmp_path)]
    )
    assert "[WARN] sup of b not attained" in res.output
    res = CliRunner().invoke(
        main, ["verify", "sw", "--config", _write(tmp_path, SMALL),
               "--out", str(tmp_path)]
    )
    assert "[WARN]" not in res.output


def _no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran")

    for mod in (btlab.quadrature, btlab.bargmann, btlab.heat):
        monkeypatch.setattr(mod, "complex_grid", refuse)
    monkeypatch.setattr(btlab.bargmann, "_transform_kernel", refuse)


def _egorov_errs(tmp_path, n, h):
    """Exit code and max_rel_err column of `verify egorov` on seed 7."""
    cfg = _write(tmp_path, {"phase": {"seed": 7, "n": n}, "h": h})
    res = CliRunner().invoke(
        main, ["verify", "egorov", "--config", cfg, "--out", str(tmp_path)])
    errs = [float(row.split(",")[2]) for row in
            (tmp_path / "egorov.csv").read_text().splitlines()[1:]]
    assert len(errs) == 6, res.output
    return res.exit_code, errs


def test_verify_egorov_two_variables_passes_at_defaults(tmp_path,
                                                        monkeypatch):
    """Both sides are closed form, so n = 1 and n = 2 pass at defaults
    with no quadrature at all.  Dropping the half-time regularization of the
    real-side symbol breaks the identity, and the check sees it at n = 1
    and n = 2 on every pair."""
    _no_quadrature(monkeypatch)
    for n, h in ((1, 0.5), (2, 1.0)):
        code, errs = _egorov_errs(tmp_path, n, h)
        assert code == 0 and max(errs) <= 1e-12
    monkeypatch.setattr(btlab.bargmann, "heat_flow", lambda ctx, b, t: b)
    for n, h in ((1, 0.5), (2, 1.0)):
        code, errs = _egorov_errs(tmp_path, n, h)
        assert code == 1 and min(errs) > 1e-3


def test_verify_egorov_three_variables_passes_in_seconds(tmp_path,
                                                         monkeypatch):
    """n = 3 defaults (729 X points, 6 pairs) pass with no quadrature."""
    _no_quadrature(monkeypatch)
    t0 = time.perf_counter()
    code, errs = _egorov_errs(tmp_path, 3, 1.0)
    assert time.perf_counter() - t0 < 5.0
    assert code == 0 and max(errs) <= 1e-12


def test_verify_weyl_two_variables_passes_at_default_N(tmp_path):
    """At N = 16 the n = 2 translations leak ~4.5e-4 into the inner block;
    the default N = 24 makes the suite pass."""
    runner = CliRunner()
    cfg = _write(tmp_path, {
        "phase": {"seed": 7, "n": 2}, "h": 1.0,
        "lambda_list": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]],
    })
    res = runner.invoke(main, ["verify", "weyl", "--config", cfg, "--out",
                               str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "  N = 24" in res.output



def test_verify_weyl_one_variable_passes_at_default_N(tmp_path):
    """At N = 16 the Fock translations at h = 0.5 leak 1e-4 to 8e-4 into
    the inner block; the default N = 24, the same at every n, passes."""
    cfg = _write(tmp_path, {"phase": {"preset": "fock", "beta": 1.0},
                            "h": 0.5})
    res = CliRunner().invoke(main, ["verify", "weyl", "--config", cfg,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "  N = 24" in res.output

def test_csv_bytes_independent_of_threads(tmp_path):
    """Identical configs at different thread counts must serialize to the
    same CSV bytes."""
    runner = CliRunner()
    cfg = _write(tmp_path, FOCK)
    paths = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        res = runner.invoke(
            main,
            ["verify", "gram", "--config", cfg, "--out", str(out),
             "--threads", threads],
        )
        assert res.exit_code == 0, res.output
        paths.append(out / "gram.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_bytes_independent_of_invocation_order(tmp_path):
    """All seven suites on two n = 1 spaces, run twice in one process (the
    second time in reverse order), write the same CSV bytes: no assembly
    state carries over from one invocation to the next."""
    runner = CliRunner()
    cfgs = {
        "fock": _write(tmp_path, FOCK, "fock.json"),
        "seeded": _write(tmp_path, {"phase": {"seed": 7, "n": 1}, "h": 0.5},
                         "seeded.json"),
    }
    runs = [(space, suite) for suite in btlab.cli.SUITES for space in cfgs]
    for tag, order in (("first", runs), ("second", runs[::-1])):
        for space, suite in order:
            res = runner.invoke(main, [
                "verify", suite, "--config", cfgs[space],
                "--out", str(tmp_path / tag / space)])
            assert res.exit_code == 0, res.output
    for space, suite in runs:
        name = f"{space}/{suite}.csv"
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes(), name


def test_default_symbols_attain_their_sup(tmp_path):
    """The default bound and sw symbols attain sum |c_j| at every t of the
    default grid, so neither suite flags an upper bound."""
    runner = CliRunner()
    small = {k: v for k, v in SMALL.items() if k != "t_grid"}
    for phase in ({"preset": "fock", "beta": 1.0}, {"seed": 7, "n": 1},
                  {"seed": 7, "n": 2}):
        cfg = _write(tmp_path, dict(small, phase=phase, h=1.0))
        for suite in ("bound", "sw"):
            res = runner.invoke(main, ["verify", suite, "--config", cfg,
                                       "--out", str(tmp_path)])
            assert res.exit_code in (0, 1), res.output
            assert "not attained" not in res.output
        rows = (tmp_path / "bound.csv").read_text().splitlines()[1:]
        assert len(rows) == 12 and all(r.endswith(",") for r in rows)
