"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from bitfold import autodiff as ad


@pytest.fixture
def float64():
    """Compute in float64 for the whole test, parameters included: for a
    reference that is float64 by construction, two paths compared at a
    tolerance below float32 rounding, or an input beyond float32's range."""
    with ad.precision(np.float64):
        yield
