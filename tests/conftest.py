"""Shared test helpers and calibrated constants.

The sketch-sizing formulas expose a multiplier ``c`` whose theory value is
unknown; the constants below were calibrated empirically against the
spectral-approximation certifier and the bound suites on this package's
synthetic matrices, and are recorded in the BoundReport params of the
acceptance runs that use them.
"""

# skpower before numpy: the package maps SKPOWER_THREADS to the BLAS thread
# variables, which BLAS reads once, when numpy loads it; CI runs part of the
# suite at SKPOWER_THREADS=1, which numpy imported first would ignore
import skpower  # noqa: F401

import numpy as np

from skpower.data_io import _haar_columns

# Gaussian sketch multiplier at which the certifier passes >= 90% of seeds
# for (polydecay 500x300, k=10, eps=0.5, delta=0.1); quartering the
# resulting r drops the pass rate to ~2%.
CALIBRATED_GAUSSIAN_C = 8.0

# CountSketch sizing multiplier for the powered range finder / low-rank
# factorization suites (l-level sizing).
CALIBRATED_COUNTSKETCH_C = 0.25

# Same formula at the larger intermediate rank used by the
# predicted-error-bound suite (l = 80 on 800x400), where c = 0.25 would
# produce r1 > n; calibrated separately.
CALIBRATED_COUNTSKETCH_C_WIDE = 0.075

# Start-block size, as a multiple of k, at which the unpowered Gaussian
# range-finder bounds (``gaussian_rangefinder_bound``) hold as an ensemble
# claim in >= 90% of trials.  The README states that the premise needs a
# ~4k block, and ``test_power`` checks the ensemble at this size; at 2k the
# per-trial rate on polydecay 400x200 (k=10) is only ~0.7.
GAUSSIAN_BLOCK_MULTIPLE = 4

DELTA = 0.1


def psd_polydecay(n: int, seed: int) -> np.ndarray:
    """Symmetric psd matrix with eigenvalues n/i rotated by a Haar basis."""
    v = _haar_columns(n, n, seed)
    lam = n / np.arange(1.0, n + 1.0)
    a = (v * lam) @ v.T
    return (a + a.T) / 2.0


def psd_sqrt(a, sym_tol: float = 1e-10, eig_tol: float = 1e-10) -> np.ndarray:
    """Symmetric psd square root ``B`` with ``B @ B == a``.

    ``a`` must be symmetric within ``sym_tol`` (relative to its largest
    entry) and have eigenvalues no smaller than ``-eig_tol * ||a||``;
    eigenvalues in that tolerance band are clamped to zero.
    """
    a = np.asarray(a, dtype=np.float64)
    scale = np.abs(a).max()
    if scale == 0.0:
        return np.zeros_like(a)
    if np.abs(a - a.T).max() > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    norm = np.abs(w).max()
    if w.min() < -eig_tol * norm:
        raise ValueError(
            f"matrix is not psd: min eigenvalue {w.min():.3e} < {-eig_tol * norm:.3e}"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return (root + root.T) / 2.0


def random_psd(n: int, seed: int) -> np.ndarray:
    """Generic random Gram matrix, scaled to O(1) eigenvalues."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = g @ g.T / n
    return (a + a.T) / 2.0


def random_lowrank(m: int, n: int, rank: int, seed: int) -> np.ndarray:
    """Exactly rank-``rank`` matrix with unit singular values."""
    u = _haar_columns(m, rank, seed)
    v = _haar_columns(n, rank, seed + 1)
    return u @ v.T
