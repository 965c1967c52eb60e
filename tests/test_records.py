"""The package's records: read-only, and copied only through `__init__`.

The five plain value records are named tuples; the six that validate,
canonicalize or compare by identity share `geometry._Record`, whose
`replace` builds the copy through `__init__` again.
"""

import numpy as np
import pytest

from btlab.bargmann import GaussianTestFn
from btlab.basis import enumerate_multiindices
from btlab.cli import SUITES
from btlab.geometry import PhaseMatrices, build_context, fock_phase
from btlab.operators import BoundReport, NormTable, SweepResult
from btlab.quadrature import gauss_hermite_rule
from btlab.symbols import CallableSymbol, cosine_symbol

RECORDS = {
    "Suite": lambda: SUITES["gram"],
    "QuadratureRule": lambda: gauss_hermite_rule(4),
    "NormTable": lambda: NormTable(1.0, True),
    "BoundReport": lambda: BoundReport((), NormTable(1.0, True), True, True),
    "SweepResult": lambda: SweepResult((), 2.0, 2.0, False),
    "PhaseMatrices": lambda: fock_phase(1),
    "SpaceContext": lambda: build_context(fock_phase(1), 1.0),
    "GaussianTestFn": lambda: GaussianTestFn([0.0], 1.0, [0.0]),
    "MultiIndexSet": lambda: enumerate_multiindices(1, 2),
    "PlaneWaveSum": lambda: cosine_symbol(1.0),
    "CallableSymbol": lambda: CallableSymbol(1, np.cos),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_refuses_assigning_and_deleting(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name
    field = rec._fields[0] if isinstance(rec, tuple) else next(iter(vars(rec)))
    value = getattr(rec, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, 0)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    assert getattr(rec, field) is value and not hasattr(rec, "extra")


def test_phase_equals_and_hashes_as_itself_only():
    """Equal matrices make two phases, each with its own context: the
    context memo keys on the phase object."""
    eye = np.eye(2)
    p, q = (PhaseMatrices(2, 1j * eye, -2j * eye, 2j * eye) for _ in range(2))
    assert p == p and p != q
    assert hash(p) == object.__hash__(p) and hash(q) == object.__hash__(q)
    assert build_context(p, 1.0) is build_context(p, 1.0)
    assert build_context(p, 1.0) is not build_context(q, 1.0)


def test_replace_runs_validation_again():
    """A copy is canonicalized and validated as a new record is."""
    b = cosine_symbol(1.0)
    merged = b.replace(lam=[[1.0], [1.0]])
    assert merged.c.tolist() == [1.0] and merged.lam.tolist() == [[1.0]]
    dropped = b.replace(c=[0.0, 2.0])
    assert dropped.c.tolist() == [2.0] and dropped.lam.tolist() == [[1.0]]
    for s in (merged, dropped):
        assert not (s.c.flags.writeable or s.lam.flags.writeable)
    assert b.c.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError, match="width must be positive"):
        GaussianTestFn([0.0], 1.0, [0.0]).replace(sigma=0)
    with pytest.raises(TypeError):
        b.replace(sigma=1.0)


def test_context_copy_at_new_h_shares_arrays_and_n():
    ctx = build_context(fock_phase(2), 1.0)
    copy = ctx.replace(h=0.25)
    assert (copy.h, ctx.h) == (0.25, 1.0)
    assert copy.n == ctx.n == 2 and copy.phase is ctx.phase
    assert vars(copy).keys() == vars(ctx).keys()
    for key, value in vars(ctx).items():
        if key != "h":
            assert vars(copy)[key] is value, key
