"""Experiment configuration: JSON schema and parsers.

Complex numbers are always [re, im] pairs, matrices row-major lists of rows,
so a config is plain JSON with no custom syntax.  A phase block takes one of
four forms, each with n <= `geometry.MAX_N` (64):

    {"preset": "fock", "beta": 1.0}      built-in diagonal model
    {"preset": "heat"}                   built-in degenerate-weight model
    {"n": 1, "seed": 7}                  seeded random phase, admissible
                                         by construction at every n
    {"n": 1, "A": [[[0,1]]], "B": [[[0,-2]]], "C": [[[0,2]]]}

Numbers must be finite JSON numbers: booleans and strings are refused.
A phase, grid or Gaussian object refuses fields it does not read, while
unread top-level keys are ignored so that one config serves every suite.
Every violation raises InvalidConfig; the CLI maps that to exit code 2.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .bargmann import GaussianTestFn
from .errors import InvalidConfig
from .geometry import (
    MAX_N, PhaseMatrices, fock_phase, heat_phase, random_phase,
)
from .heat import MAX_BOX_POINTS, box_size
from .symbols import PlaneWaveSum

__all__ = [
    "load_config",
    "complex_entry",
    "complex_matrix",
    "complex_vector",
    "phase_from_config",
    "symbol_from_config",
    "gaussian_from_config",
    "ConfigReader",
]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidConfig("config root must be a JSON object")
    return cfg


def _number(v, name: str, lo: float = -math.inf, above: bool = False):
    """`v` unchanged if it is a JSON number, finite as a float, >= lo (> lo
    if `above`)."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max or v < lo
            or (above and v == lo)):
        bound = f" {'>' if above else '>='} {lo:g}" if lo > -math.inf else ""
        raise InvalidConfig(
            f"{name} must be a finite number{bound}, got {v!r}")
    return v


def _count(v, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise InvalidConfig(f"{name} must be a nonnegative integer, got {v!r}")
    return v


def _items(v, name: str, parse) -> list:
    """A nonempty list, each entry passed through parse(entry, label)."""
    if not isinstance(v, list) or not v:
        raise InvalidConfig(f"{name} must be a nonempty list")
    return [parse(x, f"{name}[{k}]") for k, x in enumerate(v)]


def _fields(spec: dict, name: str, allowed) -> None:
    """Refuse a field of the object `spec` that no parse reads, so a
    misspelled field cannot fall back to its default unnoticed."""
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise InvalidConfig(f"{name}: unknown fields {unknown}; "
                            f"expected some of {sorted(allowed)}")


def complex_entry(obj, name: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise InvalidConfig(f"{name}: complex values are [re, im] pairs")
    return complex(_number(obj[0], name), _number(obj[1], name))


def complex_vector(obj, n: int, name: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != n:
        raise InvalidConfig(f"{name}: expected {n} [re, im] pairs")
    return np.array(
        [complex_entry(v, f"{name}[{k}]") for k, v in enumerate(obj)]
    )


def complex_matrix(obj, n: int, name: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != n:
        raise InvalidConfig(f"{name}: expected {n} rows")
    return np.stack(
        [complex_vector(row, n, f"{name} row {k}") for k, row in
         enumerate(obj)]
    )


def phase_from_config(block) -> PhaseMatrices:
    if not isinstance(block, dict):
        raise InvalidConfig("phase must be an object")
    preset = block.get("preset")
    n = block.get("n", 1)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidConfig("phase needs a positive integer n")
    if n > MAX_N:  # before any n x n matrix is built
        raise InvalidConfig(f"phase needs n <= {MAX_N}, got n = {n}")
    if preset == "fock":
        _fields(block, "phase", ("preset", "beta", "n"))
        beta = _number(block.get("beta", 1.0), "phase.beta", 0, above=True)
        return fock_phase(n, float(beta))
    if preset == "heat":
        _fields(block, "phase", ("preset", "n"))
        return heat_phase(n)
    if preset is not None:
        raise InvalidConfig(f"unknown phase preset {preset!r}")
    if "seed" in block:
        _fields(block, "phase", ("seed", "n"))
        return random_phase(n, _count(block["seed"], "phase.seed"))
    _fields(block, "phase", ("n", "A", "B", "C"))
    missing = [k for k in ("A", "B", "C") if k not in block]
    if missing:
        raise InvalidConfig(f"phase is missing matrices: {missing}")
    return PhaseMatrices(
        n=n,
        A=complex_matrix(block["A"], n, "phase.A"),
        B=complex_matrix(block["B"], n, "phase.B"),
        C=complex_matrix(block["C"], n, "phase.C"),
    )


def symbol_from_config(spec, n: int, name: str = "symbol") -> PlaneWaveSum:
    """Plane-wave sum from a list of flat terms
    [re_c, im_c, re_l1, im_l1, ..., re_ln, im_ln]: read as complex, each
    row is the coefficient followed by the frequency."""
    if not isinstance(spec, (list, tuple)) or not spec:
        raise InvalidConfig(f"{name}: expected a nonempty list of terms")
    for k, row in enumerate(spec):
        if not isinstance(row, (list, tuple)) or len(row) != 2 + 2 * n:
            raise InvalidConfig(
                f"{name} term {k}: expected {2 + 2 * n} numbers "
                "[re_c, im_c, re/im per frequency coordinate]"
            )
        for v in row:
            _number(v, f"{name} term {k} entry")
    rows = np.array(spec, dtype=float).view(complex)
    return PlaneWaveSum(n, rows[:, 0], rows[:, 1:])


def gaussian_from_config(spec, n: int, name: str = "gaussian") -> GaussianTestFn:
    if not isinstance(spec, dict):
        raise InvalidConfig(f"{name}: expected an object")
    _fields(spec, name, ("y0", "sigma", "p0", "amp"))
    y0, p0 = (np.asarray(_items(spec.get(key, [0.0] * n), f"{name}.{key}",
                                _number), dtype=float) for key in ("y0", "p0"))
    sigma = _number(spec.get("sigma", 1.0), f"{name}.sigma", 0, above=True)
    amp = complex(1.0)
    if "amp" in spec:
        amp = complex_entry(spec["amp"], f"{name}.amp")
    if y0.shape != (n,) or p0.shape != (n,):
        raise InvalidConfig(f"{name}: y0/p0 must have length {n}")
    return GaussianTestFn(y0=y0, sigma=float(sigma), p0=p0, amp=amp)


def _symbol_text(b: PlaneWaveSum) -> str:
    parts = []
    for c, lam in zip(b.c.tolist(), b.lam.tolist()):
        lam_s = ";".join(f"{z.real:g}{z.imag:+g}j" for z in lam)
        parts.append(f"({c.real:g}{c.imag:+g}j)*e[{lam_s}]")
    return " + ".join(parts) if parts else "0"


def vector_text(lam) -> str:
    """Fixed-precision text of a complex vector, coordinates joined by ';'."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    return ";".join(f"{z.real:.11e}{z.imag:+.11e}j" for z in lam)


class ConfigReader:
    """Typed reads of one config's top-level keys.

    Each read checks the value's type and range, falls back to `default`
    when the key is absent (a `None` default makes the key required), and
    records in `echo` the text the report prints for the value.  Keys no
    read asks for are ignored, so one config can serve every suite.
    `phase()` comes first: it sets the dimension `n` that symbols, vectors
    and Gaussians are parsed in.
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.echo = {}
        self.n = None

    def _read(self, key, default, parse, text=lambda v: v):
        if key in self.cfg:
            value = parse(self.cfg[key], key)
        elif default is None:
            raise InvalidConfig(f"config needs a {key!r} entry")
        else:
            value = default
        self.echo[key] = text(value)
        return value

    def phase(self) -> PhaseMatrices:
        phase = phase_from_config(
            self._read("phase", None, lambda v, _: v, json.dumps))
        self.n = phase.n
        return phase

    def number(self, key: str, default: float, lo: float = -math.inf):
        """A finite number >= lo, as a float."""
        return self._read(key, default, lambda v, s: float(_number(v, s, lo)))

    def count(self, key: str, default: int) -> int:
        return self._read(key, default, _count)

    def numbers(self, key: str, default: list, integer: bool = False):
        """A nonempty list of finite numbers (nonnegative integers if
        `integer`), kept as given."""
        item = _count if integer else _number
        return self._read(key, default, lambda v, s: _items(v, s, item))

    def grid(self, key: str, lo: float, hi: float, steps: list):
        """Box {"lo", "hi", "steps"} in C^n with hi > lo and a nonempty
        list of spacings > 0, kept as given; absent fields take the
        defaults and other fields are refused.  A spacing that puts over
        MAX_BOX_POINTS points on one real axis of the box, which is summed
        axis by axis, is refused.  Returns (lo, hi, steps)."""
        spec = self.cfg.get(key, {})
        if not isinstance(spec, dict):
            raise InvalidConfig(f"{key} must be an object")
        _fields(spec, key, ("lo", "hi", "steps"))
        lo = float(_number(spec.get("lo", lo), f"{key}.lo"))
        hi = float(_number(spec.get("hi", hi), f"{key}.hi"))
        if not hi > lo:
            raise InvalidConfig(f"{key}: need hi > lo")
        steps = _items(spec.get("steps", steps), f"{key}.steps",
                       lambda v, s: _number(v, s, 0, above=True))
        self.echo[key] = f"lo={lo:g} hi={hi:g} steps={steps}"
        for s in steps:
            size = box_size(lo, hi, s)
            if size > MAX_BOX_POINTS:
                raise InvalidConfig(f"{key}: step {s} gives {size} points per"
                                    f" axis; at most {MAX_BOX_POINTS} are "
                                    "supported")
        return lo, hi, steps

    def symbol(self, key: str, default: PlaneWaveSum) -> PlaneWaveSum:
        return self._read(key, default,
                          lambda v, s: symbol_from_config(v, self.n, s),
                          _symbol_text)

    def symbols(self, key: str, default: list) -> list:
        return self._read(key, default, lambda v, s: _items(
            v, s, lambda b, t: symbol_from_config(b, self.n, t)
        ), lambda bs: "; ".join(_symbol_text(b) for b in bs))

    def gaussians(self, key: str, default: list) -> list:
        return self._read(key, default, lambda v, s: _items(
            v, s, lambda g, t: gaussian_from_config(g, self.n, t)
        ), len)

    def vectors(self, key: str, default) -> list:
        """Complex n-vectors; for n = 1 an entry may also be a flat
        [re, im] pair."""
        def vector(v, name):
            flat = self.n == 1 and isinstance(v, list) and len(v) == 2
            return complex_vector([v] if flat else v, self.n, name)
        return self._read(key, default, lambda v, s: _items(v, s, vector),
                          lambda vs: f"[{', '.join(map(vector_text, vs))}]")
