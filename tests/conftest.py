"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from fedprof import nn


@pytest.fixture
def float64_engine(monkeypatch):
    """Run the engine in its float64 reference mode: for a test that checks
    an algorithm against a float64 reference at a float64 tolerance.  Data
    the test builds under it are float64 too, as ``LabeledDataset`` stores
    features in the engine dtype."""
    monkeypatch.setattr(nn, "DTYPE", np.float64)
