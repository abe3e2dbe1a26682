"""Sketched power method toolkit.

Randomized low-rank approximation built around power iteration on a fast
sketch of the input matrix: range finding, randomized SVD, generalized
Nystrom low-rank factorization, and psd Nystrom approximation, together
with diagnostics that certify the regularized spectral approximation
property of a sketch and evaluate the predicted error bounds.
"""

import os as _os

# SKPOWER_THREADS caps internal (BLAS) parallelism.  The mapping must happen
# before numpy is imported anywhere in the process, which is why it lives at
# the very top of the package.
_threads = _os.environ.get("SKPOWER_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from . import bench, cli, data_io, diagnostics, linalg, power, sketching
from .linalg import (
    SvdResult,
    frobenius_norm,
    orthonormalize,
    pinv,
    thin_svd,
)
from .sketching import (
    SKETCH_KINDS,
    SketchOperator,
    countsketch_size,
    make_sketch,
    sketch_size,
    substream,
)
from .power import (
    FactorizationResult,
    NystromResult,
    RangeFinderSpec,
    choose_q,
    lowrank_factorize,
    nystrom_psd,
    power_iterate,
    randsvd,
    range_finder_classical,
    range_finder_sketched,
)
from .diagnostics import (
    BoundReport,
    MatrixGram,
    SpectralProfile,
    WarmStart,
    approximation_error_bound,
    approximation_residuals,
    certify_spectral_approx,
    estimate_spectral_norm,
    estimated_approximation_residuals,
    estimated_projection_residuals,
    gaussian_rangefinder_bound,
    matrix_gram,
    powered_rangefinder_bound,
    powered_tail_level,
    powered_tail_report,
    projection_residuals,
    regularization_level,
    relative_error,
)
from .data_io import (
    TrialRecord,
    gen_expdecay,
    gen_lowrank_plus_noise,
    gen_polydecay,
    read_binary,
    read_matrix_market,
    read_records_csv,
    write_binary,
    write_matrix_market,
    write_records_csv,
)
from .bench import BenchConfig, run_benchmark

__version__ = "0.1.0"
