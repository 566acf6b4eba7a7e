import numpy as np
import pytest

from haar_sentinel.spectrum import EigenAssignment


@pytest.fixture
def one_hot_probes():
    """Probes that read squared amplitudes: column j of generate_probe_samples is |<j|psi>|^2."""
    return lambda n_dim: [EigenAssignment(row) for row in np.eye(n_dim)]
