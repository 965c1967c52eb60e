import gc
import hashlib
import json
import math
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

from conftest import clear_memos, invoke
from reference import legacy_phase_block

import btlab.bargmann
import btlab.basis
import btlab.cli
import btlab.heat
import btlab.operators
import btlab.quadrature
import btlab.symbols
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
    assert len(b.c) == 2
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
    cfg = _write(tmp_path, FOCK)
    out = str(tmp_path / "reports")
    res = invoke(["space-info", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    assert "result: PASS" in res.output
    csv = (tmp_path / "reports" / "space_info.csv").read_text()
    assert csv.splitlines()[0] == "quantity,re,im"
    assert "C_phi" in csv
    res = invoke(["--version"])
    assert res.exit_code == 0
    assert res.output.strip().endswith("version 0.1.0")


def test_verify_gram_passes(tmp_path):
    cfg = _write(tmp_path, FOCK)
    res = invoke(
        ["verify", "gram", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    # every effective value is echoed back
    assert "N = 10" in res.output
    assert "tol_gram = 1e-12" in res.output
    assert (tmp_path / "gram.csv").exists()


def test_verify_order_changes_nothing(tmp_path):
    """`--order` is still accepted, but every compression is closed form:
    a two-node order gives the same exit code, report and CSV bytes."""
    cfg = _write(tmp_path, FOCK)
    for suite in ("gram", "diag", "weyl"):
        runs = []
        for tag, extra in (("plain", []), ("order2", ["--order", "2"])):
            out = tmp_path / tag
            res = invoke(["verify", suite, "--config", cfg,
                          "--out", str(out), *extra])
            runs.append((res.exit_code, res.output.replace(str(out), ""),
                         (out / f"{suite}.csv").read_bytes()))
        assert runs[0] == runs[1], suite
        assert runs[0][0] == 0, runs[0][1]


def test_verify_rejects_bad_inputs(tmp_path):
    res = invoke(
        ["verify", "gram", "--config", str(tmp_path / "none.json"),
         "--out", str(tmp_path)],
    )
    assert res.exit_code == 2
    # inadmissible phase: C real means C_I = 0
    cfg = _write(tmp_path, {"phase": {"n": 1, "A": [[[0.0, 1.0]]],
                                      "B": [[[0.0, -2.0]]],
                                      "C": [[[2.0, 0.0]]]}, "h": 1.0})
    res = invoke(
        ["verify", "gram", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2
    assert "NonPositiveCI" in res.output
    # bound suite must refuse t outside (1/2, 1]
    cfg = _write(tmp_path, dict(FOCK, t_grid=[0.5, 1.0]), "tbad.json")
    res = invoke(
        ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2
    # worker count must be positive
    cfg = _write(tmp_path, FOCK, "ok.json")
    res = invoke(
        ["verify", "gram", "--config", cfg, "--out", str(tmp_path),
         "--threads", "0"],
    )
    assert res.exit_code == 2


# Refused command lines, with "CFG" for a valid config path and "FILE" for
# an existing file; every one exits 2 before any suite runs.
_REFUSED = {
    "no command": [],
    "unknown command": ["nope", "--config", "CFG"],
    "unknown suite": ["verify", "nope", "--config", "CFG"],
    "missing config": ["verify", "gram"],
    "space-info missing config": ["space-info"],
    "order not an integer": ["verify", "gram", "--config", "CFG",
                             "--order", "2.5"],
    "threads not an integer": ["verify", "gram", "--config", "CFG",
                               "--threads", "x"],
    "threads zero": ["verify", "gram", "--config", "CFG", "--threads", "0"],
    "abbreviated option": ["verify", "gram", "--conf", "CFG"],
    "short help": ["-h"],
    "out is a file": ["verify", "gram", "--config", "CFG", "--out", "FILE"],
    "space-info out is a file": ["space-info", "--config", "CFG",
                                 "--out", "FILE"],
}
# Refusals whose message must name the argument refused, not a required
# one that the refused argument left missing.
_UNRECOGNIZED = {"abbreviated option": "--conf", "short help": "-h"}
# Help texts and the names each must show.
_HELP = {
    "program help": (["--help"], ("space-info", "verify")),
    "verify help": (["verify", "--help"], tuple(btlab.cli.SUITES)),
    "space-info help": (["space-info", "--help"], ("--config", "--out")),
}


@pytest.mark.parametrize("case", [*_REFUSED, *_HELP])
def test_command_line_contract(tmp_path, monkeypatch, case):
    """Each refused command line exits 2 with its message on stderr alone
    and writes no CSV, even to the default output directory; --help
    exits 0 and names the commands or suites."""
    monkeypatch.chdir(tmp_path)
    if case in _HELP:
        argv, names = _HELP[case]
        res = invoke(argv)
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        assert all(name in res.output for name in names), res.output
        return
    cfg = _write(tmp_path, FOCK)
    (tmp_path / "taken").write_text("")
    sub = {"CFG": cfg, "FILE": str(tmp_path / "taken")}
    res = invoke([sub.get(arg, arg) for arg in _REFUSED[case]])
    assert res.exit_code == 2, res.output
    assert res.exception is None
    assert res.stderr and res.output == res.stderr
    assert not list(tmp_path.rglob("*.csv"))
    if case in _UNRECOGNIZED:
        assert (f"unrecognized arguments: {_UNRECOGNIZED[case]}"
                in res.stderr), res.stderr


# Output directories that pass the --out check but cannot take the CSV,
# with "FILE" for an existing file and "DIR" for a directory that holds a
# directory named gram.csv, and the error each raises.  Not in _REFUSED:
# that directory would match its search for a written CSV.
_UNWRITABLE = {
    "verify out under a file": (["verify", "gram"], "FILE/sub",
                                "NotADirectoryError"),
    "verify csv is a directory": (["verify", "gram"], "DIR",
                                  "IsADirectoryError"),
    "space-info out under a file": (["space-info"], "FILE/sub",
                                    "NotADirectoryError"),
}


@pytest.mark.parametrize("case", list(_UNWRITABLE))
def test_unwritable_output_exits_2(tmp_path, case):
    """A CSV that cannot be written is unusable input, not a failed
    check: exit 2 with one error line on stderr and nothing on stdout,
    since the report is printed only after the write."""
    argv, out, error = _UNWRITABLE[case]
    (tmp_path / "taken").write_text("")
    (tmp_path / "dir" / "gram.csv").mkdir(parents=True)
    out = out.replace("FILE", str(tmp_path / "taken")).replace(
        "DIR", str(tmp_path / "dir"))
    res = invoke([*argv, "--config", _write(tmp_path, FOCK), "--out", out])
    assert res.exit_code == 2, res.output
    assert res.exception is None
    assert res.output == res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith(f"error: {error}: "), res.stderr


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
    res = invoke(
        ["verify", suite, "--config", cfg, "--out", str(tmp_path)]
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
    res = invoke(
        [*argv, "--config", cfg, "--out", str(tmp_path)]
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
    cfg = _write(tmp_path, {"phase": {"preset": "fock"}, "h": 1.5})
    res = invoke(
        ["verify", "gram", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2


def test_verify_diag_pairs_each_flowed_term_with_its_frequency(tmp_path):
    """The t = 1 flow drops the lambda = -40 term, which sorts first: the
    Laguerre side must drop its frequency too, not pair the next term's
    coefficient with it, so every degree passes."""
    cfg = _write(tmp_path, {"phase": {"preset": "fock"}, "h": 1.0,
                            "symbols": [[[1, 0, -40, 0], [1, 0, 0, 0],
                                         [1, 0, 1, 0]]]})
    res = invoke(["verify", "diag", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


def test_verify_diag_suite(tmp_path):
    cfg = _write(tmp_path, FOCK)
    res = invoke(
        ["verify", "diag", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert (tmp_path / "diag.csv").exists()


def _record_built(monkeypatch):
    """Record each read-out taken from `compressions` as (kind, read): kind
    "weyl" for a translation unitary (an array op) and "toeplitz" for a
    Toeplitz compression (a symbol), and read what was requested: a
    leading (rows, cols) block, which the yielded array must have,
    "diagonal", a (d,) array, "identity", a float, or "apply", a function
    from (d, k) arrays to (d, k) arrays.  Returns that record and the list
    of the shapes of every dense block built, including any an "apply"
    read-out forms for itself."""
    built = []
    built_dense = []
    real = btlab.operators.compressions
    real_dense = btlab.operators._dense_sum

    def dense(stack, idx, terms, shape):
        built_dense.append(shape)
        return real_dense(stack, idx, terms, shape)

    def recorded(ctx, trunc, ops, reads=None):
        ops = list(ops)
        d = len(trunc)
        if reads is None:
            reads = [(d, d)] * len(ops)
        for op, read, M in zip(ops, reads, real(ctx, trunc, ops, reads)):
            if read == "apply":
                def M(V, apply=M):
                    out = apply(V)
                    assert out.shape == V.shape == (d, V.shape[1])
                    return out
            elif read == "diagonal":
                assert M.shape == (d,)
            elif read == "identity":
                assert isinstance(M, float)
            else:
                assert M.shape == read
            kind = "weyl" if isinstance(op, np.ndarray) else "toeplitz"
            built.append((kind, read))
            yield M

    for mod in (btlab.cli, btlab.operators):
        monkeypatch.setattr(mod, "compressions", recorded)
    monkeypatch.setattr(btlab.operators, "_dense_sum", dense)
    return built, built_dense


def test_verify_diag_builds_each_toeplitz_once(tmp_path, monkeypatch):
    """One compression for the identity, read only as max|T_1 - I| and
    never formed as a d x d array, and one per default symbol, of which
    only the diagonal is built: every diagonal sum of a symbol reads the
    same diagonal."""
    built, dense = _record_built(monkeypatch)
    cfg = _write(tmp_path, FOCK)
    res = invoke(
        ["verify", "diag", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert built == [("toeplitz", "identity")] + [
        ("toeplitz", "diagonal")] * 3
    assert dense == []


def test_verify_weyl_builds_each_matrix_once(tmp_path, monkeypatch):
    """T_b is taken once per run, as its action V -> T_b V, and never
    formed as a d x d array.  Per lambda the suite builds W(lambda) on its
    inner columns, and W(-lambda) and the translated symbol's compression
    on the inner block: d = 25 indices at N = 24 and m = 5 through
    inner_degree 4, for the four default lambdas."""
    built, dense = _record_built(monkeypatch)
    cfg = _write(tmp_path, FOCK)
    res = invoke(
        ["verify", "weyl", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    d, m = 25, 5
    assert built == [("toeplitz", "apply")] + [
        ("weyl", (d, m)), ("weyl", (m, m)), ("toeplitz", (m, m))] * 4
    assert dense == [(d, m), (m, m), (m, m)] * 4


def test_verify_deformation_builds_inner_blocks(tmp_path, monkeypatch):
    """Per h, T_a and T_b are built whole, since their products sum over
    every index; T_ab, T_q and the bracket only on the block of degrees
    <= N - drop: d = 21 at N = 20 and m = 17 at drop 4, five h values."""
    built, dense = _record_built(monkeypatch)
    cfg = _write(tmp_path, FOCK)
    res = invoke(
        ["verify", "deformation", "--config", cfg,
               "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    d, m = 21, 17
    assert built == ([("toeplitz", (d, d))] * 2
                     + [("toeplitz", (m, m))] * 3) * 5
    assert dense == [read for _, read in built]


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
    res = invoke(
        ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert alive == [0, 0, 0]


def test_verify_suites_run_one_stacked_recurrence(tmp_path, monkeypatch):
    """diag, weyl, bound and deformation each run one `axis_matrices`
    recurrence for all their compressions, deformation's over all its h,
    and gram, a closed form, none.  The stack holds one seed row per term
    and axis of each compression: weyl's one-wave T_b and, per lambda, two
    translations and a translated T_b; bound's three default symbols hold
    7 terms; deformation's five one-term compressions at each of its five
    h."""
    stacks = []
    real = btlab.basis.axis_matrices

    def counted(N, seeds):
        stacks.append(len(seeds))
        return real(N, seeds)

    monkeypatch.setattr(btlab.basis, "axis_matrices", counted)
    cfg = _write(tmp_path, FOCK)
    # seed rows per stack: the n = 1 defaults of each suite
    expected = {"gram": [], "diag": [4], "weyl": [1 + 3 * 4],
                "bound": [7], "deformation": [5 * 5]}
    for suite, sizes in expected.items():
        stacks.clear()
        res = invoke(
            ["verify", suite, "--config", cfg, "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        assert stacks == sizes, suite


# sha256 of the CSV of a default run of space-info and each suite on the
# DIGEST_CONFIGS: a change that keeps every float keeps these bytes
CSV_DIGESTS = {
    ("deformation", "fock"):
        "920177eca3d794a105e0764b8468f726f61c9b4a018ccbdbbf8accc1f8a0fcf1",
    ("deformation", "seed7"):
        "a8204877f72e5aef04aa6e85a376bf7f6e5a2d79391991502f662eaec04318c4",
    ("deformation", "seed7-n2"):
        "e7ca25009d247aa8baef4ae775b79ef1e63279087c2f3595b31b4233f02dabe8",
    ("egorov", "fock"):
        "98180d4132c82bf1d8428b97491d71571a788845bf5f18a0a5e5c3d39fb15832",
    ("gram", "fock"):
        "3ff7abc7dbe956cbfd2d497313f6a3abc38ec3dc93b49a6e978fcf035755c53d",
    ("gram", "seed7"):
        "3ff7abc7dbe956cbfd2d497313f6a3abc38ec3dc93b49a6e978fcf035755c53d",
    ("weyl", "fock"):
        "e22c715e19e81882f7af055490aef3cd82b317624bc48038e2ba35b761560630",
    ("weyl", "seed7"):
        "a94e427bb047c9a731dfc82af2a41eb60538dfc15fa7b64f2c5c9f0a419f9689",
    # a translation's weight e^{-|c|^2/h} is the coefficient of its one
    # term, so at n = 2 it multiplies before the second axis's factor
    ("weyl", "seed7-n2"):
        "82f6139159f6a5c5a538f970c40e59a1255ed623c747ed3c143f029c331f60e6",
    ("bound", "fock"):
        "bbc948ea29f338bdc84cd1372cd9128bf6251ba9206ff1ae7abdc1c413f30c23",
    ("bound", "seed7"):
        "8a28026c90fa9bceb4b1c1d42d87f06d5b8de95219398b47d58db44207066caf",
    ("diag", "fock"):
        "2e9d1748ca269a1ba1bea64f2b32e29972e9018981ef4a7134cf65a634395821",
    ("diag", "seed7"):
        "a30cc871fffb0e358ca0651a50d1dc08f2812d9571a300c62443ddde36b49672",
    ("sw", "fock"):
        "a6e82fb8bee63a4eca2339971adc52cf7b1aa8ee863dd63ff0414cf410524acb",
    ("sw", "seed7"):
        "e5e138c1c8d666e5d9ec6a310c117e471289c63dd25b9990e4b07893946f6142",
    ("space-info", "fock"):
        "836e8b34856a2e9beec925f3b230d9e7fdb634538b34f90c11c81bb50d03ea8f",
    ("space-info", "seed7"):
        "268f58a0487681ebffc1a5580f0313e8163189fb1dea206a6f99f57da35df125",
    ("space-info", "seed7-n2"):
        "dad268324c0274e0c0a4745ce4157a927fde591b0d938a49652fd7b3d869d9e2",
    ("egorov", "seed7"):
        "4c0d6bdd7ba93cf76269e9653cd39e9fcd4122d0101e1eb90897eddc4af6b742",
    ("egorov", "seed7-n2"):
        "a32e7c1db81362c09a5252087059778ad61351d8e37fe9efb59ecf3e837a0916",
    ("space-info", "heat"):
        "495e93528462b3070de20349c002f0bd97918e47ab8b8ae1c112e5b810771133",
    ("gram", "heat"):
        "54bc9d25b851fb821b00145290470290a6a2e159a7a7f2f9574bcc47990b742f",
    ("weyl", "heat"):
        "1531bd9aaa0e7e734298e65c5c6e0c9a11a8b1386bdc2dd1ea647c70d5fa17d1",
    ("bound", "heat"):
        "bbc948ea29f338bdc84cd1372cd9128bf6251ba9206ff1ae7abdc1c413f30c23",
    ("diag", "heat"):
        "8efc6339e7df495aeef7b31894f9745a3d0064161d14a88ed9049d06e50a0c43",
    ("deformation", "heat"):
        "800d8dbe6e7bcff4be9e54de36ee3754adaf8281d79b8cde9eee5935dc3215e3",
    ("egorov", "heat"):
        "5cb2c8953be373206bae152302c49d0268f65cdcdd8acfe6bc1718900f692bad",
    ("sw", "heat"):
        "7e79a065393165e015fa66fbca052697b7d28ce192640390dbbcfc6a5c5a3496",
    ("space-info", "seed3"):
        "2746443f68d5387037f0a4b0b1f4ea58419d166f7c942f73ffcdac6bc63da118",
    ("gram", "seed3"):
        "a04982e048c2e2b0a66f8cdbdc6eefe9ceecafbf6a5f443c0afddabb2eb58c7f",
    ("weyl", "seed3"):
        "e4f9e8b0bcddb5e05cb5eaddbf218860e06b6fd5d43f71901837132e6e05185d",
    ("bound", "seed3"):
        "85f053958f1dbbf947e953e3b8a547ba2aa81bed876bd22e5c678e7a43e05274",
    ("diag", "seed3"):
        "cd8bbcf4577e63d758bf0ddb557eab63f56cea79c712f2b69190e9ac45a5f48c",
    ("deformation", "seed3"):
        "4b43083deb98e3fc992e17bb478b096184d535c4c141d94b50f899884e304507",
    ("egorov", "seed3"):
        "dc55d3555af49f83032a52dcb706c74311e01af4c40a7c734ab9b79b87afd072",
    ("sw", "seed3"):
        "e2c29ffb4238ceeed4c7b77f183f722af524c859e26ac2d2f9b7bc1d409a87bf",
    ("space-info", "seed1-n2"):
        "782f5363e92c4c454083f99c0855345f44cfd8f3e3dfd9dc3169587a61dbc9a8",
    ("gram", "seed1-n2"):
        "35e1e77305b044ce2181cac25f3e5e06a3b2deb2b5f2b9b6eec25f1005378e00",
    ("weyl", "seed1-n2"):
        "30b4541062d67eaaefdcb0f6c13d4f264137670f135069f69a8d67eeccfdcbda",
    ("bound", "seed1-n2"):
        "8c818803c5bf877847fe6c7e04ef779f3ce6fdcfd67fde16e5f4ba0c4e326e4c",
    ("diag", "seed1-n2"):
        "662135fd8a50dc9ce3698dee01cc7c52dccd4cb61fb94f52b8057a8b1c65c876",
    ("deformation", "seed1-n2"):
        "ac15304dc799defe815e1e28c6b8fe9486e163e3ddf59ca4741b986ca5e46478",
    ("egorov", "seed1-n2"):
        "3f36f73c16a02a926d53c08bb1493005c9d02c57216d54ae5943bf4f1bddd861",
    ("sw", "seed1-n2"):
        "8b61a12039b714eae10462a3fa124c235d9ec7783e782fb478daf9d6113d6fa7",
}
# weyl needs lambda_list at n = 2; the other suites do not read it.  The
# seeded configs give the legacy phases as explicit blocks, so their pins
# do not move with the seeded draw.
_N2_LAMBDAS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]]
DIGEST_CONFIGS = {
    "fock": FOCK,
    "heat": {"phase": {"preset": "heat"}, "h": 0.5},
    "seed7": {"phase": legacy_phase_block(1, 7), "h": 0.5},
    "seed3": {"phase": legacy_phase_block(1, 3), "h": 0.5},
    "seed7-n2": {"phase": legacy_phase_block(2, 7), "h": 1.0,
                 "lambda_list": _N2_LAMBDAS},
    "seed1-n2": {"phase": legacy_phase_block(2, 1), "h": 0.5,
                 "lambda_list": _N2_LAMBDAS},
}
# a pinned run that fails a check: weyl's default N = 24 does not resolve
# the legacy seed-1 n = 2 phase at h = 0.5 (ROADMAP items 6 and 11)
PINNED_EXITS = {("weyl", "seed1-n2"): 1}


def _pinned_run(command, config, tmp_path):
    """Run `command` at its defaults on DIGEST_CONFIGS[config]; it must
    exit with its PINNED_EXITS code, 0 by default.  Returns its report
    less the csv: line, and its CSV bytes."""
    cfg = _write(tmp_path, DIGEST_CONFIGS[config])
    argv = ["space-info"] if command == "space-info" else ["verify", command]
    res = invoke([*argv, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == PINNED_EXITS.get((command, config), 0), res.output
    assert res.exception is None
    assert res.stderr == ""
    report = "".join(line for line in res.output.splitlines(keepends=True)
                     if not line.startswith("csv: "))
    stem = command.replace("-", "_")
    return report, (tmp_path / f"{stem}.csv").read_bytes()


@pytest.mark.parametrize("suite, config", list(CSV_DIGESTS))
def test_verify_csv_bytes_are_pinned(suite, config, tmp_path):
    csv = _pinned_run(suite, config, tmp_path)[1]
    assert hashlib.sha256(csv).hexdigest() == CSV_DIGESTS[suite, config]


# sha256 of the report of a default run, less its csv: line (the one line
# that names the output directory): the config echo, every [PASS]/[FAIL]
# and [WARN] line with its numbers, and the result line
REPORT_DIGESTS = {
    ("space-info", "fock"):
        "eee67d9dffb0597dc65eba9e436b817859741970a877867cd5e48c5d03a7d870",
    ("gram", "fock"):
        "66996425316a834d12b8996df3451b4974b7ad3612e3019a2daf7b7e3583a381",
    ("weyl", "fock"):
        "535839ceebea112135e264cb12db7f7c707af7655864c3f04959d10b359766f1",
    ("bound", "fock"):
        "0aa9db1ba4b7465cb028b90dd1d4c78b5ec292f5558fe544c61587dd2ed10ae9",
    ("diag", "fock"):
        "364aeda2369833c92d62cf57d95144f1c666df22978c1bfd7c0b104b1a34e14e",
    ("deformation", "fock"):
        "c0da9f74d4591a5bbee09ba60c673c07cd31b71c6d4bf86ce18e1883c01ab1dd",
    ("egorov", "fock"):
        "39942d1856281260fe4ce098d3e1eae6aad2a6acd99950103b60d52fa4e4469f",
    ("sw", "fock"):
        "07c94e41d1464ccd7d7b01f9ea40ea41adeef6f63627034e15edc00c0f59ad19",
    ("space-info", "seed7"):
        "dd97575cfdce976b0b2ee50125e84975a8d64f7e50c306c3510b1039434575c0",
    ("gram", "seed7"):
        "f0f591028498ab6756acd19802c9e08277fdfa13efe3016b5720ad6df22e6071",
    ("weyl", "seed7"):
        "e1b44490428cf7baa57134cd1346238081e0e260372a032e186e28f6e5f2d6f7",
    ("bound", "seed7"):
        "1a29ef40b3ff3c9bd7258baec56b340ef529b45a6c587cfa2c9867149842a005",
    ("diag", "seed7"):
        "38a7c1f4011bbadba938afbd400d3804274787b2ae52085fbfe47089324f32f4",
    ("deformation", "seed7"):
        "a59d145177347fb4697875601fd22551ae8a009221a8efc14a5308482673cb60",
    ("egorov", "seed7"):
        "175206cb29fdd81602b88b962973a28ece4feadbac289536b48838299da288c7",
    ("sw", "seed7"):
        "4211979e8ab23cd5134f7d9337e7be52398b13627a55cd16352a50e774108b41",
    ("space-info", "seed7-n2"):
        "c1c23d4d6283d3042a788794e92abc7967d8e9fa7165bd8d318d58366ee5d519",
    ("gram", "seed7-n2"):
        "29e603603715ac6e133a3e83df54cc9d4fdacff0b9bef1d344b4652bd93efcef",
    ("weyl", "seed7-n2"):
        "7ca62fe88f8db00a006e93f5f378609c127cc679460ff5e35c4f88542071ed3c",
    ("bound", "seed7-n2"):
        "0695faf8353fce85352e40f0603a88e1eba808ed8371cebb1889022e9adad3d9",
    ("diag", "seed7-n2"):
        "c9e98073b2be19103c0892ed47868f345914ee1236e472b5f2ba6c0e82e84621",
    ("deformation", "seed7-n2"):
        "8d837443cb84ed9ad41f3190f3cfdac9800ef02d6632f982823f11ba67bdbe5a",
    ("egorov", "seed7-n2"):
        "f93debe175de22f1e51658c42e35758c705a2698a478b59f44636ee0dee3d126",
    ("sw", "seed7-n2"):
        "a9bfc6095ed6efc1eb0381a03c206e7728f36bde2b05cde80b33b90c6499df37",
    ("space-info", "heat"):
        "75d28a3379972c09a97ca6c3583f973abe1e4de931f101668960d46974a2f633",
    ("gram", "heat"):
        "29cce6299a1edc3058060d70c32595677a80bc8643649a3d52f24ef34c6a37fa",
    ("weyl", "heat"):
        "76a1430a4481c964628421d5f3b9deb536fa5bc97cd532299b2aff626c4908a9",
    ("bound", "heat"):
        "0a99977c350900c3b4658419c08e0a752eedcebb07d438ce9d9dd6ea021c6680",
    ("diag", "heat"):
        "d44a8092b9cf52e059b1af71ae5d2933782a5708f7a919c848e66669060566a5",
    ("deformation", "heat"):
        "c39bd7d34b210f2e64b1787b846d0c648c6e8ce1341f1362ce2b5d649122303d",
    ("egorov", "heat"):
        "f5a4bde873f19ae040fd2ffedb0a072cdf237fc2b2921a7c22bef681a3340ae2",
    ("sw", "heat"):
        "b88bfd829dd96d10ebdc339417a4c3682a5c49af4494f446a30d92310f760e81",
    ("space-info", "seed3"):
        "3cd0ddc3eb7240329f54ee900454c8a6cf88538253fd34bd72a52d66148a0d47",
    ("gram", "seed3"):
        "9e29275da7648c593660886f0e554d545916b9dd2994b41dc535410643b3bec1",
    ("weyl", "seed3"):
        "cf9f5c761d7de449b5eccc9e2602899a73ed589782c207acd60bde748466eb83",
    ("bound", "seed3"):
        "1b882bdf56752d95962c8b194eb16237ea6697d83537997dc807fe75641fde05",
    ("diag", "seed3"):
        "e740a8aed4ec70ec590450fb77d61032e7df16fce6b6c7e77ed0df693ffe0011",
    ("deformation", "seed3"):
        "bcecb66b26d7556bd3111bedad2ea4204ea8e897843e7ac6689ca1d15cf416dc",
    ("egorov", "seed3"):
        "7d542d2aca8c97686f938fed717d37aa28c60ca4290bded0ce153967fce372e6",
    ("sw", "seed3"):
        "b53f3ef11862a46c12c648048e9beb1c05fbd14c66f58ad9dcb8d77e0b813de8",
    ("space-info", "seed1-n2"):
        "7990ed1bb64a8ab5dc21e768fcb6673c4939d626685f2532f7ec8e2408151fcf",
    ("gram", "seed1-n2"):
        "97bbbc951f9f345d28296ed88100e6f6d46f0c95b5dcd88f7d78896dbbea6579",
    ("weyl", "seed1-n2"):
        "6d4f2bc6e1c67801b01dce5fe091c988c8cb6105fd8d70209fedec1be00dd4b1",
    ("bound", "seed1-n2"):
        "c607172b3865922c0b7bec96b51e2aa44f857c050a51d0e691c9d7ad1c6201f7",
    ("diag", "seed1-n2"):
        "15fd611f18b7bf41d6793ce8a1144c81c48509ee6d752b3335cd971a5ad986e6",
    ("deformation", "seed1-n2"):
        "13773ba3dc1e164ab90a3416c99e180c49c674926c99a93a04bc0bbb70ada8cb",
    ("egorov", "seed1-n2"):
        "d381aeb9f23dede001054de62af4b14d0bbe6380b0d472eda4f11a3f96b1cb86",
    ("sw", "seed1-n2"):
        "ebe2c8a8d0360bce90a8bfc7d3f95202045b28908057d372fa840e9e48aa7bb3",
}


@pytest.mark.parametrize("command, config", list(REPORT_DIGESTS))
def test_report_bytes_are_pinned(command, config, tmp_path):
    report = _pinned_run(command, config, tmp_path)[0]
    digest = hashlib.sha256(report.encode())
    assert digest.hexdigest() == REPORT_DIGESTS[command, config]


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
    res = invoke(
        ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert len(searches) == 3


def test_verify_weyl_holds_few_dense_matrices(tmp_path):
    """The two-variable weyl suite (N = 24, d = 325) with two lambdas
    applies T_b through its one-axis factors and drops each lambda's
    matrices before the next are built: its traced peak stays under 2 MB
    (0.75 MB measured on x86-64), while forming T_b as a d x d matrix
    takes it to 3.65 MB."""
    path = _write(tmp_path, {
        "phase": legacy_phase_block(2, 7), "h": 1.0,
        "lambda_list": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]],
    })
    argv = ["verify", "weyl", "--config", path, "--out", str(tmp_path)]
    invoke(argv)  # first use: imports and caches
    tracemalloc.start()
    try:
        res = invoke(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak <= 2e6


def test_verify_weyl_three_variables_stays_small(tmp_path):
    """At n = 3 (N = 24, d = 2925, m = 35) T_b is applied through its
    one-axis factors on a 25^3 x 35 buffer instead of being formed as a
    137 MB d x d matrix: the traced peak of the run stays under 64 MB
    (263 MB when T_b was formed)."""
    z = [0.0, 0.0]
    path = _write(tmp_path, {
        "phase": legacy_phase_block(3, 7), "h": 1.0,
        "lambda_list": [[[1.0, 0.0], z, z], [z, [0.6, 0.8], z]],
    })
    argv = ["verify", "weyl", "--config", path, "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        res = invoke(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak < 64e6


@pytest.mark.parametrize("suite, cfg, bound", [
    # d = 3003: T_1 is reduced to max|T_1 - I| one row band at a time
    # (13 MB traced on x86-64; 217 MB when T_1 was formed whole)
    ("diag", {"phase": {"preset": "fock", "n": 5}, "h": 1.0}, 32e6),
    # d = 3654: G = prefactor x I is read as its one scalar (0.33 MB
    # traced; 534 MB when G, I, G - I and its abs were formed)
    ("gram", {"phase": {"preset": "fock", "n": 3}, "h": 1.0, "N": 26}, 2e6),
], ids=["diag", "gram"])
def test_verify_reductions_form_no_square_array(tmp_path, suite, cfg,
                                                bound):
    """diag's identity check and gram's deviation each reduce a d x d
    array to one number without holding that array."""
    path = _write(tmp_path, cfg)
    argv = ["verify", suite, "--config", path, "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        res = invoke(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak < bound


def test_verify_two_variable_suites_build_no_grid(tmp_path, monkeypatch):
    """Every compression is assembled from closed-form one-axis matrices:
    gram, weyl, bound, diag and deformation pass at n = 2 defaults without
    building a single quadrature grid."""
    _no_quadrature(monkeypatch)
    cfg = _write(tmp_path, {
        "phase": legacy_phase_block(2, 7), "h": 1.0,
        "lambda_list": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]],
    })
    for suite in ("gram", "weyl", "bound", "diag", "deformation"):
        res = invoke(
            ["verify", suite, "--config", cfg, "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        assert "[FAIL]" not in res.output


def _refused_small(tmp_path, suite, cfg):
    """Run `suite` on cfg; return its exit code, output and the peak
    traced allocation of the run in bytes."""
    path = _write(tmp_path, cfg)
    tracemalloc.start()
    try:
        res = invoke(
            ["verify", suite, "--config", path, "--out", str(tmp_path)]
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
        tmp_path, "sw", {"phase": legacy_phase_block(3, 7), "h": 1.0})
    assert code == 0, output
    assert "[FAIL]" not in output
    assert peak < 5e6
    (tmp_path / "sw.csv").unlink()
    code, output, peak = _refused_small(tmp_path, "sw", {
        "phase": legacy_phase_block(1, 7), "h": 1.0,
        "lambda_grid": {"steps": [1.0, 5e-7]}})
    assert code == 2, output
    assert "InvalidConfig" in output
    assert "step 5e-07 gives 32000001 points per axis" in output
    assert peak < 2e6
    assert not (tmp_path / "sw.csv").exists()


def test_verify_sw_passes_at_defaults_on_random_phases(tmp_path):
    """The default mu box holds the profile for every phase: default sw
    passes on seeds 0-9 at n = 1, h = 0.5 and seeds 0-4 at n = 2, h = 1."""
    for n, h, seeds in ((1, 0.5, range(10)), (2, 1.0, range(5))):
        for seed in seeds:
            cfg = _write(tmp_path, {"phase": legacy_phase_block(n, seed),
                                    "h": h})
            res = invoke(
                ["verify", "sw", "--config", cfg, "--out",
                       str(tmp_path)])
            assert res.exit_code == 0, (n, seed, res.output)


def test_space_info_on_seeded_eight_variable_phase(tmp_path):
    """A seeded phase is admissible by construction at every n, so
    space-info on seed 7 at n = 8 draws it once and passes in under 1 s."""
    cfg = _write(tmp_path, {"phase": {"seed": 7, "n": 8}})
    t0 = time.perf_counter()
    res = invoke(["space-info", "--config", cfg, "--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 0, res.output
    assert "[FAIL]" not in res.output
    assert (tmp_path / "space_info.csv").exists()


def test_verify_diag_refuses_k_above_truncation(tmp_path):
    """A degree k > N has an empty diagonal in the compression: the suite
    refuses it as unusable input instead of reporting a failed identity."""
    cfg = _write(tmp_path, dict(FOCK, N=3, k_max=5))
    res = invoke(
        ["verify", "diag", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 2, res.output
    assert "InvalidConfig" in res.output and "k <= N = 3" in res.output
    assert not (tmp_path / "diag.csv").exists()
    cfg = _write(tmp_path, dict(FOCK, N=3, k_max=3), "edge.json")
    res = invoke(
        ["verify", "diag", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output


def test_verify_sw_checks_closed_form_l1(tmp_path):
    """A truncated box whose refinements agree to 2.4e-3 still misses the
    exact L1 integral 2 pi by 29%: the closed-form check fails it."""
    cfg = _write(tmp_path, dict(FOCK, lambda_grid={
        "lo": -2.0, "hi": 2.0, "steps": [0.02, 0.01]}))
    res = invoke(
        ["verify", "sw", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 1, res.output
    assert "[PASS] sw refinement rel_delta" in res.output
    assert "[FAIL] sw closed-form L1" in res.output
    assert f"exact {2.0 * np.pi:.6e}" in res.output


def _child(*argv):
    """Run the interpreter on argv in a new process that imports this
    btlab, where a RuntimeWarning prints as it would for a user instead of
    raising as it does under pytest."""
    src = str(Path(btlab.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def _cli_child(*args):
    """Run the CLI in a new interpreter (see `_child`)."""
    return _child("-m", "btlab.cli", *args)


def test_commands_warn_nothing_in_dev_mode(tmp_path):
    """All eight commands on seed-7 n = 2, run in one interpreter under
    `-X dev -W error`, end with exit 0 or 1 and write nothing to stderr,
    so no warning raised on an accepted phase reaches a user unseen."""
    cfg = _write(tmp_path, {
        "phase": legacy_phase_block(2, 7), "h": 1.0,
        "lambda_list": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]]})
    commands = [["space-info"]] + [["verify", s] for s in btlab.cli.SUITES]
    code = ("import json, sys, btlab.cli\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        btlab.cli.main(argv + sys.argv[2:])\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            "print(*codes)\n")
    res = _child("-X", "dev", "-W", "error", "-c", code, json.dumps(commands),
                 "--config", cfg, "--out", str(tmp_path))
    assert res.stderr == ""
    codes = res.stdout.splitlines()[-1].split()
    assert len(codes) == len(commands) and set(codes) <= {"0", "1"}, codes


# Phases whose det B or a derived field overflows a float, by the field
# each refusal names: det B = 1e400 at n = 2, and Phi''_XbarX = B^2/8 with
# B = 1e300 at n = 1.
_OVERFLOWING = {
    "det B": {"n": 2, "A": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]],
              "B": [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]],
              "C": [[[0, 2], [0, 0]], [[0, 0], [0, 2]]]},
    "Phi''_XbarX": {"n": 1, "A": [[[0, 1]]], "B": [[[1e300, 0]]],
                    "C": [[[0, 2]]]},
}


@pytest.mark.parametrize("field", list(_OVERFLOWING))
def test_overflowing_phase_is_refused(tmp_path, field):
    """Every command refuses a phase that overflows a float with exit 2
    and one error line naming the field, not with a traceback or with
    nan checks after a screen of warnings."""
    cfg = _write(tmp_path, {"phase": _OVERFLOWING[field], "h": 1.0})
    for argv in [["space-info"]] + [["verify", s] for s in btlab.cli.SUITES]:
        res = invoke([*argv, "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert res.output == res.stderr == (
            f"error: IllConditionedPhase: {field} overflows a float\n")


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
        ["inf", "nan", "false"], ["inf", "nan", "false"]]


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


_WAVE_1E6 = [[0.7, 0, 1e6, 0]]


@pytest.mark.parametrize("suite, extra", [
    pytest.param("weyl", {"h": 1e-12}, id="weyl-1e-12"),
    pytest.param("egorov", {"h": 1e-30}, id="egorov-1e-30"),
    pytest.param("deformation", {"a": _WAVE_1E6, "N": 100},
                 id="deformation-wave-1e6"),
    pytest.param("bound", {"symbols": [_WAVE_1E6], "n_schedule": [98, 100]},
                 id="bound-wave-1e6"),
])
def test_values_past_the_float_range_fail_their_checks(suite, extra,
                                                       tmp_path):
    """On Fock the one-axis recurrence (weyl at h = 1e-12, and the
    compressions of a wave of frequency 1e6 at N = 100) and the Bargmann
    transforms (egorov at h = 1e-30) pass the float range: the inf or NaN
    values fail their checks, a spectral norm of a matrix with such an
    entry and a slope fitted to such a residual read NaN, with no numpy
    warning (an error under this suite's filterwarnings) on stderr and no
    exception."""
    cfg = _write(tmp_path, {**FOCK, **extra})
    res = invoke(["verify", suite, "--config", cfg, "--out", str(tmp_path)])
    assert res.exception is None
    assert res.exit_code == 1, res.output
    assert "[FAIL] " in res.output
    assert res.stderr == ""


def test_phase_dimension_is_bounded_before_allocation(tmp_path):
    """Every phase form refuses n > 64 as invalid input, before an n x n
    matrix is built."""
    cfg = _write(tmp_path, {"phase": {"preset": "fock", "n": 1000000000}})
    t0 = time.perf_counter()
    res = invoke(["space-info", "--config", cfg])
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
    res = invoke(
        ["verify", "sw", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert res.exception is None
    rows = (tmp_path / "sw.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == [
        "nan", "0.00000000000e+00", "0.00000000000e+00"]


def test_verify_bound_csv_agrees_with_report(tmp_path):
    """A norm schedule that is not Cauchy-converged is only warned about:
    the CSV then holds no row that failed, as the report has no FAIL."""
    cfg = _write(tmp_path, {"phase": legacy_phase_block(1, 3), "h": 0.5})
    res = invoke(
        ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert "[WARN] b0: norm schedule not Cauchy-converged" in res.output
    rows = (tmp_path / "bound.csv").read_text().splitlines()
    assert len(rows) == 13
    assert all(r.split(",")[7] == "true" for r in rows[1:])


# Inputs at which some checks fail on the seed-7 n = 1 space at h = 0.5,
# where every default passes.  bound's t = 1 row of b1 fails once its norm
# is read at N = 2.
_TIGHT = {
    "gram": {"tol_gram": 0},
    "weyl": {"tol_weyl": 1e-15},
    "bound": {"n_schedule": [1, 2]},
    "diag": {"tol_diag": 0},
    "egorov": {"tol_egorov": 1e-16},
    "sw": {"rel_tol": 1e-5},
}


@pytest.mark.parametrize("suite", list(_TIGHT))
def test_passed_cells_are_the_report_verdicts(tmp_path, suite):
    """The rows whose `passed` is false are exactly those of the [FAIL]
    lines: a weyl row fails when any of its lambda's three lines does, sw's
    last row carries the refinement verdict and its earlier rows their
    isfinite, and sw's closed-form check has no row.  Every row has as
    many cells as the header."""
    cfg = _write(tmp_path, {"phase": legacy_phase_block(1, 7), "h": 0.5,
                            **_TIGHT[suite]})
    res = invoke(["verify", suite, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    verdicts = [line.startswith("[PASS]")
                for line in res.output.splitlines()
                if line.startswith(("[PASS]", "[FAIL]"))]
    header, *rows = [line.split(",") for line in
                     (tmp_path / f"{suite}.csv").read_text().splitlines()]
    assert all(len(row) == len(header) for row in rows)
    if suite == "weyl":
        verdicts = [all(verdicts[i:i + 3])
                    for i in range(0, len(verdicts), 3)]
    elif suite == "sw":  # the default lambda_grid has three steps
        verdicts = [math.isfinite(float(row[1])) for row in rows[:2]] + [
            verdicts[0]]
    cells = [row[header.index("passed")] for row in rows]
    assert cells == ["true" if v else "false" for v in verdicts]
    assert "false" in cells


def test_verify_deformation_names_commuting_pair(tmp_path):
    """The cosine/sine pair commutes exactly, so its commutator residual
    is named, not checked against slope_min."""
    cfg = _write(tmp_path, dict(
        FOCK, a=[[0.5, 0, 1, 0], [0.5, 0, -1, 0]],
        b=[[0, -0.5, 1, 0], [0, 0.5, -1, 0]]))
    res = invoke(
        ["verify", "deformation", "--config", cfg, "--out",
               str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert ("[PASS] slope r2: a and b commute exactly; residual is "
            "truncation leakage\n") in res.output
    assert "slope r2 >=" not in res.output
    assert "[PASS] slope r1 >= 1.8" in res.output


def test_verify_deformation_names_degenerate_fit(tmp_path):
    """A constant a = 2 makes T_a = 2 I, so both residuals sit at the
    rounding floor: r1 is named degenerate instead of slope-fitted, and r2
    is named as a commuting pair."""
    cfg = _write(tmp_path, dict(FOCK, a=[[2, 0, 0, 0]]))
    res = invoke(
        ["verify", "deformation", "--config", cfg, "--out",
               str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert ("[PASS] slope r1: residuals at floor, fit undefined "
            "(degenerate)\n") in res.output
    assert ("[PASS] slope r2: a and b commute exactly; residual is "
            "truncation leakage\n") in res.output
    assert "slope r1 >=" not in res.output


def test_sup_not_attained_is_flagged(tmp_path):
    """sin(Re X) + sin(2 Re X) peaks below sum |c_j| = 2: bound marks its
    rows upper_bound and sw warns that its profile is an upper bound."""
    sym = [[0.0, -0.5, 1.0, 0.0], [0.0, 0.5, -1.0, 0.0],
           [0.0, -0.5, 2.0, 0.0], [0.0, 0.5, -2.0, 0.0]]
    cfg = _write(tmp_path, dict(SMALL, symbols=[sym], b=sym))
    res = invoke(
        ["verify", "bound", "--config", cfg, "--out", str(tmp_path)]
    )
    assert "[WARN] b0: sup not attained" in res.output
    row = (tmp_path / "bound.csv").read_text().splitlines()[1].split(",")
    # at t = 1 on Fock the terms damp by exp(-|lam|^2 / 4)
    assert abs(float(row[2]) - np.exp(-0.25) - np.exp(-1.0)) < 1e-10
    assert row[-1] == "upper_bound"
    res = invoke(
        ["verify", "sw", "--config", cfg, "--out", str(tmp_path)]
    )
    assert "[WARN] sup of b not attained" in res.output
    res = invoke(
        ["verify", "sw", "--config", _write(tmp_path, SMALL),
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
    cfg = _write(tmp_path, {"phase": legacy_phase_block(n, 7), "h": h})
    res = invoke(
        ["verify", "egorov", "--config", cfg, "--out", str(tmp_path)])
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
    real = btlab.heat.heat_damping
    monkeypatch.setattr(btlab.heat, "heat_damping",
                        lambda ctx, lam, t: real(ctx, lam, 0.0))
    for n, h in ((1, 0.5), (2, 1.0)):
        code, errs = _egorov_errs(tmp_path, n, h)
        assert code == 1 and min(errs) > 1e-3


def test_verify_egorov_symbols_keep_their_terms_through_the_flow(tmp_path):
    """A term the half-time flow damps below the drop tolerance (lambda =
    40 on Fock at h = 1) stays in the stacked term list on both sides, so
    the next symbol's terms line up: every pair passes to rounding."""
    cfg = _write(tmp_path, {"phase": {"preset": "fock"}, "h": 1.0,
                            "symbols": [[[1, 0, 0, 0], [1, 0, 40, 0]],
                                        [[1, 0, 1, 0]]]})
    res = invoke(
        ["verify", "egorov", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    errs = [float(row.split(",")[2]) for row in
            (tmp_path / "egorov.csv").read_text().splitlines()[1:]]
    assert len(errs) == 4 and max(errs) < 1e-12


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
    cfg = _write(tmp_path, {
        "phase": legacy_phase_block(2, 7), "h": 1.0,
        "lambda_list": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.8]]],
    })
    res = invoke(["verify", "weyl", "--config", cfg, "--out",
                  str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "  N = 24" in res.output



def test_verify_weyl_one_variable_passes_at_default_N(tmp_path):
    """At N = 16 the Fock translations at h = 0.5 leak 1e-4 to 8e-4 into
    the inner block; the default N = 24, the same at every n, passes."""
    cfg = _write(tmp_path, {"phase": {"preset": "fock", "beta": 1.0},
                            "h": 0.5})
    res = invoke(["verify", "weyl", "--config", cfg,
                  "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "  N = 24" in res.output

def test_csv_bytes_independent_of_threads(tmp_path):
    """Identical configs at different thread counts must serialize to the
    same CSV bytes."""
    cfg = _write(tmp_path, FOCK)
    paths = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        res = invoke(
            ["verify", "gram", "--config", cfg, "--out", str(out),
             "--threads", threads],
        )
        assert res.exit_code == 0, res.output
        paths.append(out / "gram.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_bytes_independent_of_invocation_order(tmp_path):
    """space-info and all seven suites on two n = 1 spaces, run three times
    in one process (forward, in reverse order, and with the phase and
    context memos emptied before each command as in a new process), write
    the same CSV bytes: no assembly state carries over from one invocation
    to the next, and a memoized phase or context is the one a new process
    would build."""
    cfgs = {
        "fock": _write(tmp_path, FOCK, "fock.json"),
        "seeded": _write(tmp_path,
                         {"phase": legacy_phase_block(1, 7), "h": 0.5},
                         "seeded.json"),
    }
    commands = [["space-info"]] + [["verify", s] for s in btlab.cli.SUITES]
    runs = [(space, cmd) for cmd in commands for space in cfgs]
    for tag, order in (("first", runs), ("second", runs[::-1]),
                       ("fresh", runs)):
        for space, cmd in order:
            if tag == "fresh":
                clear_memos()
            res = invoke([*cmd, "--config", cfgs[space],
                          "--out", str(tmp_path / tag / space)])
            assert res.exit_code == 0, res.output
    for space, cmd in runs:
        name = f"{space}/{cmd[-1].replace('-', '_')}.csv"
        first = (tmp_path / "first" / name).read_bytes()
        for tag in ("second", "fresh"):
            assert first == (tmp_path / tag / name).read_bytes(), (tag, name)


def test_commands_on_one_config_share_phase_and_context(tmp_path,
                                                        monkeypatch):
    """Two commands in one process on one seeded config draw the phase
    once and derive its context once."""
    real, draws = np.random.default_rng, []

    def counted(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(np.random, "default_rng", counted)
    cfg = _write(tmp_path, {"phase": {"seed": 7, "n": 1}, "h": 0.5})
    for suite in ("gram", "bound"):
        res = invoke(["verify", suite, "--config", cfg,
                      "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
    assert draws == [(7,)]
    info = build_context.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_default_symbols_attain_their_sup(tmp_path):
    """The default bound and sw symbols attain sum |c_j| at every t of the
    default grid, so neither suite flags an upper bound."""
    small = {k: v for k, v in SMALL.items() if k != "t_grid"}
    for phase in ({"preset": "fock", "beta": 1.0}, legacy_phase_block(1, 7),
                  legacy_phase_block(2, 7)):
        cfg = _write(tmp_path, dict(small, phase=phase, h=1.0))
        for suite in ("bound", "sw"):
            res = invoke(["verify", suite, "--config", cfg,
                          "--out", str(tmp_path)])
            assert res.exit_code in (0, 1), res.output
            assert "not attained" not in res.output
        rows = (tmp_path / "bound.csv").read_text().splitlines()[1:]
        assert len(rows) == 12 and all(r.endswith(",") for r in rows)
