"""Single Fourier modes on a periodic grid, the tests' exact states."""

import numpy as np

from fracwkb.spectral import state_from_values


def plane_wave(grid, k):
    """Single Fourier mode e^{i omega_k . x} for an integer index vector k."""
    k = np.atleast_1d(np.asarray(k, dtype=int))
    meshes = grid.meshes()
    phase = sum((2.0 * np.pi * kk / grid.length) * m for kk, m in zip(k, meshes))
    return state_from_values(grid, np.exp(1j * phase))
