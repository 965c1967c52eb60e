"""Configuration-driven verification harness.

Determinism contract: identical config means byte-identical CSV.  Two
ingredients make that hold: BLAS/OpenMP pools are pinned to one thread
before numpy is first imported (the package __init__ imports nothing, so
this module runs first under the console entry point), and all assembly is
serial, in an order fixed by the config alone (see `operators`).
``--threads`` is accepted, validated and echoed, and ``verify --order``
is still parsed, but neither reaches anything below this module (no
suite reads a quadrature order), so they cannot change the work or a
single output bit.

The command line is read by one stdlib ``argparse`` parser, built once
at import so a call pays only for parsing.  The report is one write to
stdout; an error is one line on stderr (usage errors are argparse's
usage and message lines there).

Float range: suite bodies run with numpy's overflow and invalid warnings
off, so an inf or NaN value fails its ``<=`` check and the run exits 1.

Exit codes: 0 all checks pass, 1 a check fails, 2 unusable input or output.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .bargmann import (  # noqa: E402
    GaussianTestFn,
    egorov_guillemin_check,
    egorov_points,
)
from .basis import _gram_prefactor, enumerate_multiindices  # noqa: E402
from .config import ConfigReader, load_config, vector_text  # noqa: E402
from .errors import BtlabError  # noqa: E402
from .geometry import (  # noqa: E402
    build_context,
    kappa_T,
    phi_weight,
    psi,
    theta_on_lambda,
)
from .heat import sw_l1_box, sw_l1_exact  # noqa: E402
from .operators import (  # noqa: E402
    bound_reports,
    compressions,
    deformation_sweep,
    diagonal_sum_check,
    weyl_conjugation_check,
)
from .symbols import (  # noqa: E402
    PlaneWaveSum,
    constant_symbol,
    cosine_symbol,
    plane_wave_sum,
    sup_norm,
    translate,
)


class Report:
    """Check lines and CSV rows of one run."""

    def __init__(self):
        self.lines = []
        self.rows = []
        self.ok = True

    def check(self, name: str, passed, detail: str = "", row=None, tail=()):
        """Record one check: its [PASS]/[FAIL] line, its share of `ok` and,
        with `row`, the CSV row [*row, passed, *tail].  Returns the verdict."""
        passed = bool(passed)
        self.ok = self.ok and passed
        tag = "PASS" if passed else "FAIL"
        self.lines.append(f"[{tag}] {name}" + (detail and f": {detail}"))
        if row is not None:
            self.rows.append([*row, passed, *tail])
        return passed

    def le(self, name: str, value: float, threshold: float, row=None):
        """Check value <= threshold; with `row`, the CSV row is
        [*row, value, threshold, passed]."""
        return self.check(
            name, value <= threshold, f"{value:.3e} <= {threshold:.3e}",
            None if row is None else [*row, value, threshold])

    def warn(self, text: str):
        self.lines.append(f"[WARN] {text}")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".11e")
    return str(v)


def _write_csv(outdir: str, name: str, header: str, rows) -> Path:
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")
    return path


_TOL_RESIDUAL = 1e-10


def _e1(n: int, z=1.0) -> np.ndarray:
    """z times the first coordinate vector of C^n."""
    lam = np.zeros(n, dtype=complex)
    lam[0] = z
    return lam


def _wave(n: int, z=1.0) -> PlaneWaveSum:
    """The plane wave exp(i Re<X, z e_1>) on C^n."""
    return plane_wave_sum([(1.0, _e1(n, z))], n)


def _probe_points(rows: int, n: int) -> np.ndarray:
    """A fixed (rows, n) table of generic reals in [-2, 2), any n: the
    golden-ratio sequence 4 frac(k / phi) - 2 at k = 1, 2, ... in row-major
    order, so no two entries are equal or on a lattice."""
    k = np.arange(1, rows * n + 1, dtype=float).reshape(rows, n)
    return 4.0 * np.modf(k * 0.6180339887498949)[0] - 2.0


def _space_info(ctx, p, out):
    tol = _TOL_RESIDUAL
    dev_r = float(np.max(np.abs(
        ctx.R.conj().T @ ctx.R - ctx.PhiXXbar.conj()
    )))
    alt = ((2 * np.pi) ** (-ctx.n) * abs(np.linalg.det(ctx.phase.B)) ** 2
           / np.linalg.det(ctx.CI))
    dev_c = abs(ctx.CPhi - alt) / abs(alt)
    probe = _probe_points(36, ctx.n)
    X = probe[:12] + 1j * probe[12:24]
    dev_phi = float(np.max(np.abs(
        psi(ctx, X, np.conj(X)) - phi_weight(ctx, X)
    )))
    Xk, Theta = kappa_T(ctx, probe[24:30], probe[30:])
    dev_k = float(np.max(np.abs(Theta - theta_on_lambda(ctx, Xk))))

    out.le("R*R matches mixed Hessian", dev_r, tol)
    out.le("normalization constant consistency", dev_c, tol)
    out.le("weight equals polarization on the diagonal", dev_phi, tol)
    out.le("canonical image satisfies the graph relation", dev_k, tol)

    rows = out.rows
    rows.extend([
        ["n", float(ctx.n), 0.0],
        ["h", ctx.h, 0.0],
        ["C_phi", ctx.Cphi, 0.0],
        ["C_Phi", ctx.CPhi, 0.0],
        ["abs_det_B", abs(np.linalg.det(ctx.phase.B)), 0.0],
        ["min_eig_CI", float(np.min(np.linalg.eigvalsh(ctx.CI))), 0.0],
    ])
    for name, M in (("PhiXXbar", ctx.PhiXXbar), ("PhiXX", ctx.PhiXX),
                    ("R", ctx.R)):
        for i in range(ctx.n):
            for j in range(ctx.n):
                rows.append(
                    [f"{name}[{i}][{j}]", M[i, j].real, M[i, j].imag]
                )
    e1, zero = np.eye(ctx.n)[0], np.zeros(ctx.n)
    for at, (xk, tk) in (("e1,0", kappa_T(ctx, e1, zero)),
                         ("0,e1", kappa_T(ctx, zero, e1))):
        rows.append([f"kappa({at}).X[0]", xk[0].real, xk[0].imag])
        rows.append([f"kappa({at}).Theta[0]", tk[0].real, tk[0].imag])


def _gram(ctx, p, out):
    # G is the prefactor times I at every N, so max|G - I| is one scalar;
    # the truncation is still enumerated, which refuses N past MAX_BASIS
    enumerate_multiindices(ctx.n, p.N)
    dev = float(abs(_gram_prefactor(ctx) - 1.0))
    # C_Phi and |det R|^2 round at about eps cond(R)^2; cond R is 1 at
    # n = 1 and on Fock and heat phases
    tol = p.tol_gram * float(np.linalg.cond(ctx.R)) ** 2
    out.le("gram max|G - I|", dev, tol, row=[ctx.n, p.N])


def _weyl(ctx, p, out):
    trunc = enumerate_multiindices(ctx.n, p.N)
    inner, tol = p.inner_degree, p.tol_weyl
    d, m = len(trunc), trunc.count_through_degree(inner)
    b = p.symbol_b
    # T_b, then W(lam), W(-lam) and T_{b(. + lam)} per lambda, from one
    # stacked recurrence: T_b only as its action V -> T_b V, W(lam) on its
    # inner columns, the other two on the inner block; each lambda's
    # matrices go before the next are built
    mats = compressions(ctx, trunc, [b] + [
        op for lam in p.lambda_list for op in (lam, -lam, translate(b, lam))],
        reads=["apply"] + [(d, m), (m, m), (m, m)] * len(p.lambda_list))
    Tb = next(mats)
    for lam in p.lambda_list:
        Wp = next(mats)
        unit = float(np.max(np.abs(Wp.conj().T @ Wp - np.eye(m))))
        Wm = next(mats)
        adj = float(np.max(np.abs(Wp[:m].conj().T - Wm)))
        del Wm
        conj = weyl_conjugation_check(ctx, b, lam, Wp, Tb, trunc,
                                      drop=trunc.N - inner, Ts=next(mats))
        del Wp
        lam_s = vector_text(lam)
        passed = all([out.le(f"unitarity lambda={lam_s}", unit, tol),
                      out.le(f"adjoint lambda={lam_s}", adj, tol),
                      out.le(f"conjugation lambda={lam_s}", conj, tol)])
        out.rows.append([lam_s, unit, adj, conj, tol, passed])


def _bound(ctx, p, out):
    reports = bound_reports(ctx, p.symbols, p.t_grid, p.n_schedule,
                            slack=p.slack)
    for k, rep in enumerate(reports):
        label = f"b{k}"
        note = "" if rep.sup_attained else "upper_bound"
        if note:
            out.warn(f"{label}: sup not attained, lhs_sup is the upper bound"
                     " sum |c_j|")
        for t, lhs, rhs, margin, passed in rep.rows:
            out.check(f"bound {label} t={t:g}", passed,
                      f"sup|b_t| {lhs:.6e} <= {rhs:.6e}",
                      row=[label, t, lhs, rhs, margin, rep.norm_table.m_norm,
                           rep.norm_table.converged], tail=[note])
        if not rep.norm_table.converged:
            out.warn(f"{label}: norm schedule not Cauchy-converged")


def _diag(ctx, p, out):
    trunc = enumerate_multiindices(ctx.n, p.N)
    tol = p.tol_diag
    # T_1 is compared to I entry by entry, one row band at a time; of
    # each symbol's compression only the diagonal is read
    mats = compressions(ctx, trunc, [constant_symbol(1.0, ctx.n), *p.symbols],
                        reads=["identity"] + ["diagonal"] * len(p.symbols))
    dev = next(mats)
    out.le("toeplitz identity max|T_1 - I|", dev, tol,
           row=["identity", "1", ""])
    for j, b in enumerate(p.symbols):
        label = f"b{j}"
        sides = diagonal_sum_check(ctx, b, next(mats), trunc,
                                   range(p.k_max + 1))
        for k, (lhs, rhs) in enumerate(sides):
            out.le(f"diagsum {label} k={k}", abs(lhs - rhs), tol,
                   row=["diagsum", label, k])


def _deformation(phase, p, out):
    res = deformation_sweep(phase, p.a, p.b, p.h_list, p.N, drop=p.drop)
    for k, (name, slope) in enumerate((("r1", res.slope1),
                                       ("r2", res.slope2)), 1):
        finite = all(math.isfinite(row[k]) for row in res.rows)
        if name == "r2" and res.commuting:
            out.check("slope r2", True, "a and b commute exactly; residual"
                      " is truncation leakage")
        elif np.isnan(slope) and finite:
            out.check(f"slope {name}", True,
                      "residuals at floor, fit undefined (degenerate)")
        else:
            out.check(f"slope {name} >= {p.slope_min:g}",
                      slope >= p.slope_min, f"fitted {slope:.4f}")
    out.rows += [[h, r1, r2, res.slope1, res.slope2] for h, r1, r2 in res.rows]


def _egorov(ctx, p, out):
    errs = egorov_guillemin_check(ctx, p.symbols, p.gaussians,
                                  egorov_points(ctx, p.gaussians))
    for (j, g), err in np.ndenumerate(errs):
        out.le(f"egorov b{j} g{g}", float(err), p.tol_egorov,
               row=[f"b{j}", f"g{g}"])


def _sw(ctx, p, out):
    lo, hi, steps = p.lambda_grid
    if not sup_norm(p.b)[1]:
        out.warn("sup of b not attained: the profile is an upper bound")
    rows, l1 = [], None
    for step in steps:
        prev, l1 = l1, sw_l1_box(ctx, p.b, lo, hi, float(step))
        delta = float("nan")
        if prev is not None:  # equal estimates (a zero symbol) agree exactly,
            same = l1 == prev and math.isfinite(l1)  # but inf == inf does not
            delta = 0.0 if same else abs(l1 - prev) / abs(l1)
        rows.append([float(step), l1, delta, math.isfinite(l1)])
    finite = all(row[-1] for row in rows)  # each row's isfinite
    out.rows += rows[:-1]  # the last row's verdict is the refinement check
    out.check(
        f"sw refinement rel_delta <= {p.rel_tol:g}",
        finite and (len(steps) < 2 or delta <= p.rel_tol),
        f"final estimate {l1:.6e}, last delta {delta:.3e}"
        + ("" if finite else "; an estimate overflows a float"),
        row=rows[-1][:-1])
    exact = sw_l1_exact(ctx, p.b)
    dev = abs(l1 - exact) / exact if exact else abs(l1)
    out.check(f"sw closed-form L1 rel_dev <= {p.rel_tol:g}", dev <= p.rel_tol,
              f"exact {exact:.6e}, rel dev {dev:.3e}"
              + ("" if math.isfinite(exact) else "; it overflows a float"))


class Suite(NamedTuple):
    """One report: its CSV header line and whether it reads the top-level
    h (then `body` gets the space context, otherwise the phase).  `params`
    reads the suite's own keys from a ConfigReader; `body(ctx, p, out)`
    gets them as attributes of `p` and fills the Report `out` with checks
    and CSV rows."""

    header: str
    body: Callable
    params: Callable = lambda k: {}
    h: bool = True


_SPACE_INFO = Suite("quantity,re,im", _space_info)

SUITES = {
    "gram": Suite(
        "n,N,max_abs_dev,threshold,passed", _gram,
        lambda k: {
            "N": k.count("N", 10),
            "tol_gram": k.number("tol_gram", 1e-12, lo=0),
        }),
    "weyl": Suite(
        "lambda,unitarity_dev,adjoint_dev,conjugation_dev,threshold,passed",
        _weyl,
        lambda k: {
            # a translation's degree band widens with |R lambda|^2 / h: at
            # N = 16 the inner block leaks 1e-4 to 8e-4 at n = 1, h = 0.5
            # and ~4.5e-4 at n = 2, h = 1; N = 24 brings both to ~1e-9
            "N": k.count("N", 24),
            "inner_degree": k.count("inner_degree", 4),
            "tol_weyl": k.number("tol_weyl", 1e-5, lo=0),
            "lambda_list": k.vectors("lambda_list", [
                np.array([v]) for v in (0.25, 0.5, 1.0, 0.6 + 0.8j)
            ] if k.n == 1 else None),
            "symbol_b": k.symbol("symbol_b", _wave(k.n)),
        }),
    "bound": Suite(
        "symbol,t,lhs_sup,rhs_bound,margin,m_norm,converged,passed,note",
        _bound,
        lambda k: {
            "slack": k.number("slack", 0.02, lo=0),
            "t_grid": k.numbers("t_grid", [0.6, 0.75, 0.9, 1.0]),
            "n_schedule": k.numbers("n_schedule", list(range(8, 26, 2)),
                                    integer=True),
            "symbols": k.symbols("symbols", [  # cos, 1 + sin / 2, two waves
                cosine_symbol(_e1(k.n), k.n),
                # 0.0 - 0.25j, not -0.25j: the echo prints (0-0.25j)
                plane_wave_sum([(1.0, np.zeros(k.n)), (0.0 - 0.25j, _e1(k.n)),
                                (0.25j, -_e1(k.n))], k.n),
                plane_wave_sum([(0.8, _e1(k.n)),
                                (0.5 - 0.3j, _e1(k.n, -0.7 + 0.2j))], k.n),
            ]),
        }),
    "diag": Suite(
        "check,symbol,k,deviation,threshold,passed", _diag,
        lambda k: {
            "N": k.count("N", 10),
            "k_max": k.count("k_max", 2),
            "tol_diag": k.number("tol_diag", 1e-8, lo=0),
            "symbols": k.symbols("symbols", [
                _wave(k.n, z) for z in (2.0, 1.0, 0.5 + 0.3j)]),
        }),
    "deformation": Suite(
        "h,r1,r2,slope1,slope2", _deformation,
        lambda k: {
            "N": k.count("N", 20),
            "drop": k.count("drop", 4),
            "slope_min": k.number("slope_min", 1.8),
            "h_list": k.numbers("h_list", [0.4, 0.28, 0.2, 0.14, 0.1]),
            # a pair that does not commute, so r2 carries the Poisson
            # bracket and its slope is checked at defaults
            "a": k.symbol("a", plane_wave_sum(
                [(0.7, _e1(k.n, 1 + 0.4j))], k.n)),
            "b": k.symbol("b", plane_wave_sum(
                [(0.5 - 0.2j, _e1(k.n, -0.6 + 0.8j))], k.n)),
        },
        h=False),
    "egorov": Suite(
        "symbol,gaussian,max_rel_err,threshold,passed", _egorov,
        lambda k: {
            "tol_egorov": k.number("tol_egorov", 1e-6, lo=0),
            "symbols": k.symbols("symbols", [
                _wave(k.n), _wave(k.n, 0.5 + 0.3j),
                plane_wave_sum([(0.7, _e1(k.n)), (0.3, -_e1(k.n))], k.n),
            ]),
            "gaussians": k.gaussians("gaussians", [
                GaussianTestFn(y0=np.zeros(k.n), sigma=1.0, p0=np.zeros(k.n),
                               amp=1.0),
                GaussianTestFn(y0=np.full(k.n, 0.4), sigma=0.8,
                               p0=np.full(k.n, 0.6), amp=0.9 + 0.4j),
            ]),
        }),
    "sw": Suite(
        "step,l1_estimate,rel_delta,passed", _sw,
        lambda k: {
            "rel_tol": k.number("rel_tol", 0.01, lo=0),
            # a box in mu = R^-T lambda, summed one real axis at a time
            "lambda_grid": k.grid("lambda_grid", -8.0, 8.0,
                                  [1.0, 0.5, 0.25]),
            "b": k.symbol("b", constant_symbol(1.0, k.n)),
        }),
}


def _run(name: str, suite: Suite, config_path, outdir, echo: dict):
    """Read the config, build the phase and context, run the suite body,
    write `<name>.csv` into `outdir` (skipped when None) and print the
    report with the effective config.  Exits 2 on unusable input or an
    unwritable `outdir`, else 0 when every check passes and 1 otherwise."""
    try:
        keys = ConfigReader(load_config(config_path))
        phase = keys.phase()
        ctx = phase
        if suite.h:
            ctx = build_context(phase, keys.number("h", 1.0))
        out = Report()
        with np.errstate(over="ignore", invalid="ignore"):
            suite.body(ctx, SimpleNamespace(**suite.params(keys)), out)
        csv_path = None
        if outdir is not None:
            csv_path = _write_csv(outdir, name.replace("-", "_") + ".csv",
                                  suite.header, out.rows)
    except (BtlabError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        sys.exit(2)
    eff = {**echo, "n": phase.n, **keys.echo}
    lines = [f"suite: {name}", "config:"]
    lines += [f"  {key} = {eff[key]}" for key in sorted(eff)]
    lines += out.lines
    if csv_path is not None:
        lines.append(f"csv: {csv_path}")
    lines.append("result: " + ("PASS" if out.ok else "FAIL"))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(0 if out.ok else 1)


def _directory(path: str) -> str:
    """An ``--out`` value: any path but an existing file."""
    if os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"directory {path!r} is a file")
    return path


def _build_parser():
    """The program's parser and its command parsers by name.  No option
    may be abbreviated, and the program and each command have ``--help``
    but no ``-h``.  The command and ``--config`` are checked after
    parsing, so an unrecognized argument is the one reported."""
    flags = {"add_help": False, "allow_abbrev": False}
    parser = argparse.ArgumentParser(
        prog="btlab",
        description="Numerical checks for weighted-space Toeplitz "
                    "quantization.",
        **flags)
    parser.add_argument("--version", action="version",
                        version=f"btlab, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands = {}
    for name, doc, outdir in (
        ("space-info", "Derived geometry, constants and internal-identity "
                       "residuals.", None),
        ("verify", "Run one verification suite and emit a CSV alongside "
                   "the report.", "."),
    ):
        cmd = commands[name] = sub.add_parser(
            name, help=doc, description=doc, **flags)
        cmd.add_argument("--config", dest="config_path", metavar="PATH",
                         help="JSON config file (required).")
        cmd.add_argument("--out", dest="outdir", default=outdir,
                         type=_directory, metavar="DIRECTORY",
                         help="CSV output directory.")
    verify = commands["verify"]
    verify.add_argument("suite", choices=tuple(SUITES))
    verify.add_argument(
        "--order", type=int, metavar="INTEGER",
        help="Ignored: every compression is assembled in closed form, so "
             "no suite reads a quadrature order.")
    verify.add_argument(
        "--threads", default=1, type=int, metavar="INTEGER",
        help="Accepted and echoed; assembly is serial, so it changes no "
             "output bit.  (default: %(default)s)")
    for cmd in commands.values():
        cmd.add_argument("--help", action="help",
                         help="Show this message and exit.")
    return parser, commands


_PARSER, _COMMANDS = _build_parser()


def main(argv=None, prog_name: str = "btlab"):
    """Run the command in `argv` (default ``sys.argv[1:]``) and leave
    through SystemExit with the exit code of the module docstring.  The
    parser is built once, for the console script's name, so usage lines
    name ``btlab`` whatever `prog_name` a caller passes."""
    args = _PARSER.parse_args(argv)
    if args.command is None:
        _PARSER.error("the following arguments are required: COMMAND")
    if args.config_path is None:
        _COMMANDS[args.command].error(
            "the following arguments are required: --config")
    if args.command == "space-info":
        name, suite = "space-info", _SPACE_INFO
        echo = {"tol_residual": _TOL_RESIDUAL}
    else:
        if args.threads < 1:
            sys.stderr.write("error: InvalidConfig: threads must be >= 1\n")
            sys.exit(2)
        name, suite = args.suite, SUITES[args.suite]
        echo = {"suite": name, "threads": args.threads}
    _run(name, suite, args.config_path, args.outdir, echo)


if __name__ == "__main__":
    main()
