"""Suite-wide guards."""

import mpmath
import numpy as np
import pytest


@pytest.fixture(autouse=True)
def numeric_state_unchanged():
    """No test leaves mpmath's global precision or numpy's error handling
    changed: the library must not alter either behind its caller's back."""
    prec, err = mpmath.mp.prec, np.geterr()
    yield
    assert (mpmath.mp.prec, np.geterr()) == (prec, err)
