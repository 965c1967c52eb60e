import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

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
SMALL = dict(FOCK, order=10, N=4, n_schedule=[4, 6], t_grid=[1.0],
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
    assert "order = 60" in res.output
    assert "N = 10" in res.output
    assert (tmp_path / "gram.csv").exists()


def test_verify_gram_fails_at_tiny_order(tmp_path):
    runner = CliRunner()
    cfg = _write(tmp_path, FOCK)
    res = runner.invoke(
        main,
        ["verify", "gram", "--config", cfg, "--out", str(tmp_path),
         "--order", "2"],
    )
    assert res.exit_code == 1
    assert "result: FAIL" in res.output


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


# Common echo keys a command does not print: space-info has no suite name,
# rule or threads, deformation sweeps its own h_list, sw uses no rule.
_UNECHOED = {"space-info": {"suite", "order", "threads"},
             "deformation": {"h"}, "sw": {"order"}}


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
    assert res.exit_code in (0, 1), res.output
    stem = command.replace("-", "_")
    header = (tmp_path / f"{stem}.csv").read_text().splitlines()[0]
    assert header == _readme_csv_columns()[stem]
    for key in ("suite", "phase", "n", "h", "order", "threads"):
        echoed = key not in _UNECHOED.get(command, ())
        assert (f"\n  {key} = " in res.output) == echoed, key


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


def test_verify_weyl_two_variables_passes_at_default_N(tmp_path):
    """At N = 16 the n = 2 translations leak ~4.5e-4 into the inner block
    whatever the order; the n >= 2 default N = 24 makes the suite pass."""
    runner = CliRunner()
    cfg = _write(tmp_path, {
        "phase": {"seed": 7, "n": 2}, "h": 1.0,
        "lambda_list": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]],
    })
    res = runner.invoke(main, ["verify", "weyl", "--config", cfg, "--out",
                               str(tmp_path), "--order", "16"])
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
