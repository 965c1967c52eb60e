"""Shared fixtures: a fresh phase and context memo for every test,
quadrature rules and the two worked example spaces, and `invoke`, which
runs the command line in-process."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
import pytest

import btlab.cli
from btlab.geometry import build_context, fock_phase, heat_phase, random_phase
from btlab.quadrature import gauss_hermite_rule


def clear_memos():
    """Empty the phase and context memos, as a new process starts."""
    for memo in (fock_phase, heat_phase, random_phase, build_context):
        memo.cache_clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    """Start each test with empty memos, so no test reads a context built
    before its own monkeypatch (or under another test's)."""
    clear_memos()


@pytest.fixture(scope="session")
def rule60():
    return gauss_hermite_rule(60)


@pytest.fixture(scope="session")
def rule80():
    return gauss_hermite_rule(80)


@pytest.fixture(scope="session")
def ex1():
    """Fock-model space at beta = 1, h = 1."""
    return build_context(fock_phase(1, 1.0), 1.0)


@pytest.fixture(scope="session")
def ex2():
    """Heat-transform space at h = 1."""
    return build_context(heat_phase(1), 1.0)


def rel_dev(got, ref):
    """max |got - ref| / (1 + |ref|), broadcast over arrays."""
    got = np.asarray(got)
    ref = np.asarray(ref)
    return float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))


@dataclass
class CliResult:
    """What one `invoke` printed and how it ended."""

    exit_code: int
    output: str  # stdout and stderr, in write order
    stderr: str
    exception: BaseException | None = None


class _Tee(io.StringIO):
    """A text buffer that also copies each write into `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, s):
        self.both.write(s)
        return super().write(s)


def invoke(args) -> CliResult:
    """Run `btlab.cli.main(args)` in this process.  A SystemExit gives its
    code (None gives 0); any other exception gives 1 and is kept."""
    both = io.StringIO()
    err = _Tee(both)
    code, exc = 0, None
    try:
        with redirect_stdout(both), redirect_stderr(err):
            btlab.cli.main(args)
    except SystemExit as e:
        code = 0 if e.code is None else e.code
    except Exception as e:
        code, exc = 1, e
    return CliResult(code, both.getvalue(), err.getvalue(), exc)
