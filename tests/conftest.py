"""Shared fixtures: quadrature rules and the two worked example spaces."""

import numpy as np
import pytest

from btlab.geometry import build_context, fock_phase, heat_phase
from btlab.quadrature import gauss_hermite_rule


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
