import ast
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import psd_sqrt

import skpower
from skpower import diagnostics, linalg
from skpower.data_io import gen_expdecay, gen_polydecay
from skpower.diagnostics import estimated_approximation_residuals, matrix_gram
from skpower.power import RangeFinderSpec, lowrank_factorize, randsvd, range_finder_sketched
from skpower.linalg import orthonormalize, pinv, psd_eigenvalues, span_basis, thin_svd


class TestOrthonormalize:
    def test_idempotent_on_orthonormal_input(self):
        rng = np.random.default_rng(1)
        q0 = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        q = orthonormalize(q0)
        np.testing.assert_allclose(q @ q.T, q0 @ q0.T, atol=1e-12)

    def test_rank_one_duplication(self):
        v = np.array([3.0, 0.0, 4.0])
        q = orthonormalize(np.column_stack([v, 2.0 * v]))
        assert q.shape == (3, 1)
        np.testing.assert_allclose(np.abs(q[:, 0]), np.abs(v) / 5.0, atol=1e-14)

    def test_full_rank_random_matches_svd_projector(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((50, 10))
        q = orthonormalize(y)
        assert q.shape == (50, 10)
        np.testing.assert_allclose(q.T @ q, np.eye(10), atol=1e-12)
        u = sla.svd(y, full_matrices=False)[0]
        np.testing.assert_allclose(q @ q.T, u @ u.T, atol=1e-10)

    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(3)
        # rank-4 matrix plus noise below the numerical-rank rule max(m, c) eps
        y = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 8))
        y = y + 1e-17 * rng.standard_normal((30, 8))
        tol = linalg._default_rel_tol(y.shape)
        q = orthonormalize(y)
        assert q.shape[1] == 4
        resid = np.linalg.norm(y - q @ (q.T @ y))
        assert resid <= tol * np.linalg.norm(y)

    def test_all_zero_errors(self):
        with pytest.raises(ValueError, match="all-zero"):
            orthonormalize(np.zeros((4, 2)))

    def test_projector_idempotent_property(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            y = rng.standard_normal((25, 7))
            q1 = orthonormalize(y)
            q2 = orthonormalize(q1)
            np.testing.assert_allclose(q1 @ q1.T, q2 @ q2.T, atol=1e-10)


def _block(m, singular_values, seed):
    """m-by-c block with the given singular values and random singular vectors."""
    rng = np.random.default_rng(seed)
    c = len(singular_values)
    u = np.linalg.qr(rng.standard_normal((m, c)))[0]
    v = np.linalg.qr(rng.standard_normal((c, c)))[0]
    return (u * np.asarray(singular_values)) @ v.T


@pytest.fixture
def fallback_calls(monkeypatch):
    """Count the calls that reach the QR + SVD path of ``orthonormalize``."""
    calls = []
    qr_svd = linalg._qr_svd_basis

    def spy(y):
        calls.append(y.shape)
        return qr_svd(y)

    monkeypatch.setattr(linalg, "_qr_svd_basis", spy)
    return calls


class TestOrthonormalizePaths:
    def test_well_conditioned_block_takes_cholesky_qr2(self, fallback_calls):
        y = _block(300, np.logspace(0, -4, 40), seed=12)
        q = orthonormalize(y)
        assert fallback_calls == []
        assert q.shape == (300, 40)
        assert np.abs(q.T @ q - np.eye(40)).max() <= 1e-13
        u = sla.svd(y, full_matrices=False)[0]
        np.testing.assert_allclose(q @ q.T, u @ u.T, atol=1e-11)

    @pytest.mark.parametrize(
        "singular_values, rank",
        [
            (np.logspace(0, -10, 30), 30),  # cond 1e10
            (np.r_[np.logspace(0, -2, 22), np.zeros(8)], 22),  # exactly rank 22
        ],
        ids=["cond-1e10", "rank-deficient"],
    )
    def test_ill_conditioned_block_falls_back_to_qr_svd(self, fallback_calls, singular_values, rank):
        y = _block(200, singular_values, seed=13)
        q = orthonormalize(y)
        assert len(fallback_calls) == 1
        reference = linalg._qr_svd_basis(y)
        assert q.shape == reference.shape == (200, rank)
        assert np.abs(q.T @ q - np.eye(rank)).max() <= 1e-12
        np.testing.assert_allclose(q @ q.T, reference @ reference.T, atol=1e-12)
        # the kept span is the leading singular subspace, to within
        # eps times the condition number of the kept part
        u = sla.svd(y, full_matrices=False)[0][:, :rank]
        kept_cond = singular_values[0] / singular_values[rank - 1]
        atol = 100 * kept_cond * np.finfo(float).eps
        np.testing.assert_allclose(q @ q.T, u @ u.T, atol=atol)

    def test_stabilized_power_loop_survives_fallback(self, fallback_calls):
        # Rate 0.5 puts (sigma_1 / sigma_20)^2 of the sketch near 1e8, past
        # CholeskyQR2's condition limit, so the loop takes the QR + SVD path.
        a = gen_expdecay(300, 200, rate=0.5, seed=14)
        spec = RangeFinderSpec(
            k=10, l=40, r1=100, r2=20, q=40, eps=0.5, sketch_kind="gaussian", seed=15
        )
        q = range_finder_sketched(a, spec)
        assert fallback_calls
        assert np.all(np.isfinite(q))
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12


class TestSpanBasis:
    """The in-loop stabilizer: one CholeskyQR pass, ``orthonormalize`` as the fallback."""

    def test_well_conditioned_block_takes_one_pass(self, fallback_calls, monkeypatch):
        y = _block(300, np.logspace(0, -4, 40), seed=12)
        reference = orthonormalize(y)
        calls = []
        monkeypatch.setattr(linalg, "orthonormalize", lambda *args: calls.append(args))
        q = span_basis(y)
        assert calls == [] and fallback_calls == []
        assert q.shape == (300, 40)
        assert np.abs(q.T @ q - np.eye(40)).max() <= 0.1
        projector = q @ np.linalg.solve(q.T @ q, q.T)
        np.testing.assert_allclose(projector, reference @ reference.T, atol=1e-12)

    @pytest.mark.parametrize(
        "singular_values",
        [
            np.logspace(0, -10, 30),
            np.r_[np.logspace(0, -2, 22), np.zeros(8)],
            np.r_[np.logspace(0, -3, 24), np.full(6, 1e-9)],
        ],
        ids=["cond-1e10", "rank-deficient", "noise-1e-9"],
    )
    def test_ill_conditioned_block_falls_back_to_orthonormalize(
        self, fallback_calls, singular_values
    ):
        y = _block(200, singular_values, seed=13)
        q = span_basis(y)
        assert len(fallback_calls) == 1
        np.testing.assert_array_equal(q, orthonormalize(y))

    def test_pass_rejected_by_gram_test_falls_back(self, fallback_calls):
        # Gram entry 1 + 3e-16 rounds to 1 + eps: the Cholesky succeeds, but
        # the pass scales the second column by sqrt(3e-16 / eps) = 1.16
        y = np.array([[1.0, 1.0], [0.0, np.sqrt(3e-16)], [0.0, 0.0]])
        q = linalg._cholesky_qr_pass(y)
        assert np.abs(q.T @ q - np.eye(2)).max() > 0.1
        np.testing.assert_array_equal(span_basis(y), orthonormalize(y))
        assert len(fallback_calls) == 2

    def test_all_zero_errors(self):
        with pytest.raises(ValueError, match="all-zero"):
            span_basis(np.zeros((4, 2)))


def test_package_does_not_import_scipy_linalg():
    # scipy's dense linear algebra links a second BLAS runtime whose idle
    # threads stall numpy's; the package keeps to numpy.linalg.
    offenders = []
    for path in sorted(pathlib.Path(skpower.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}" for name in names if name.startswith("scipy.linalg")
            ]
    assert offenders == []


def test_importing_the_package_maps_no_scipy_blas_user():
    # scipy.special, like scipy's dense and sparse linear algebra, maps scipy's
    # own OpenBLAS into the process; only scipy.sparse's containers are used, by
    # CountSketch alone: the import loads no scipy module, and the engine's sketch
    # check loads scipy.sparse before its first step, outside every clock
    src = pathlib.Path(skpower.__file__).parents[1]
    code = (
        "import sys, skpower, numpy as np; from skpower import power\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "a = np.random.default_rng(0).standard_normal((30, 20))\n"
        "spec = power.RangeFinderSpec(k=2, l=4, r1=8, r2=4, q=1, eps=0.5, sketch_kind='countsketch')\n"
        "states = power._iterates(a, spec, 'sketched-randsvd')\n"
        "print('scipy.sparse' in sys.modules)\n"
        "next(states)\n"
        "print(sorted({'scipy.special', 'scipy.linalg', 'scipy.sparse.linalg'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "True", "[]"]


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize(
    "code, env, reason",
    [
        ("import skpower", {"SKPOWER_THREADS": "1"}, None),
        ("import skpower", {"SKPOWER_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}, None),
        ("import numpy, skpower", {}, None),
        ("import numpy, skpower", {"SKPOWER_THREADS": "1"}, "numpy was imported first, so BLAS keeps"),
        # OpenBLAS reads its own variable before OMP_NUM_THREADS, so this one still caps BLAS
        ("import skpower", {"SKPOWER_THREADS": "1", "OMP_NUM_THREADS": "2"},
         "OMP_NUM_THREADS=2 is already set and keeps its value"),
        ("import skpower", {"SKPOWER_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"},
         "OPENBLAS_NUM_THREADS=2 is already set and keeps its value"),
    ],
)
def test_a_thread_cap_that_cannot_apply_warns_once(code, env, reason):
    # BLAS reads its thread variables when numpy loads it: SKPOWER_THREADS set after
    # that is ignored, and a variable it maps to that holds another value keeps it
    src = pathlib.Path(skpower.__file__).parents[1]
    base = {key: value for key, value in os.environ.items()
            if key not in _BLAS_VARS and key != "SKPOWER_THREADS"}
    code += "; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env={**base, **env},
                         capture_output=True, text=True, check=True)
    warned = [line for line in out.stderr.splitlines() if "RuntimeWarning: " in line]
    if reason is None:
        assert warned == []
    else:
        assert len(warned) == 1 and reason in warned[0]
    # the variables it maps: every one not already set takes the cap
    assert out.stdout.strip() == env.get("OPENBLAS_NUM_THREADS", env.get("SKPOWER_THREADS", "None"))


class TestThinSvd:
    def test_diagonal(self):
        res = thin_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(res.sigma, [3.0, 2.0, 1.0], atol=1e-14)

    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        res = thin_svd(np.outer(u, v))
        np.testing.assert_allclose(res.sigma[0], np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-13)
        np.testing.assert_allclose(res.sigma[1:], 0.0, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 20))
        res = thin_svd(a)
        recon = res.U @ np.diag(res.sigma) @ res.V.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(20), atol=1e-10)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(20), atol=1e-10)
        assert np.all(np.diff(res.sigma) <= 0.0) and np.all(res.sigma >= 0.0)

    def test_singular_values_permutation_sign_invariant(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 9))
        p = np.eye(12)[rng.permutation(12)] * rng.choice([-1.0, 1.0], size=12)
        q = np.eye(9)[rng.permutation(9)]
        np.testing.assert_allclose(
            thin_svd(p @ a @ q).sigma, thin_svd(a).sigma, atol=1e-10
        )


class TestPinv:
    def test_invertible_matches_inverse(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(pinv(a), np.linalg.inv(a), atol=1e-10)

    def test_zero_matrix(self):
        out = pinv(np.zeros((3, 5)))
        assert out.shape == (5, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_penrose_identities_rank_deficient(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 8))
        mp = pinv(m)
        scale = np.linalg.norm(m)
        assert np.linalg.norm(m @ mp @ m - m) <= 1e-8 * scale
        assert np.linalg.norm(mp @ m @ mp - mp) <= 1e-8 * np.linalg.norm(mp)
        np.testing.assert_allclose(m @ mp, (m @ mp).T, atol=1e-8)
        np.testing.assert_allclose(mp @ m, (mp @ m).T, atol=1e-8)


def _svd_pinv(m, svd=None):
    """The pseudoinverse from LAPACK's SVD ``svd`` of ``m``, with pinv's cut-off: the reference for rejected inputs."""
    u, s, vh = np.linalg.svd(m, full_matrices=False) if svd is None else svd
    if s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    keep = s > max(m.shape) * np.finfo(float).eps * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vh.T.copy() * inv) @ u.T


def _assert_svd_within(a, res, tol):
    """``res`` is a thin SVD of ``a`` within ``tol * sigma_1``: values, reconstruction, orthonormality."""
    reference = np.linalg.svd(a, compute_uv=False)
    top = reference[0]
    p = reference.size
    assert res.U.shape == (a.shape[0], p) and res.V.shape == (a.shape[1], p)
    assert np.abs(res.sigma - reference).max() <= tol * top
    assert np.all(np.diff(res.sigma) <= 0.0) and res.sigma[-1] >= 0.0
    assert np.linalg.norm((res.U * res.sigma) @ res.V.T - a) <= tol * top  # Frobenius, above the 2-norm
    assert np.abs(res.U.T @ res.U - np.eye(p)).max() <= tol
    assert np.abs(res.V.T @ res.V - np.eye(p)).max() <= tol


def _assert_penrose(m, mp, tol):
    """The four Penrose identities within ``tol``: relative to the norms, and absolutely for the two projectors."""
    assert np.linalg.norm(m @ (mp @ m) - m) <= tol * np.linalg.norm(m)
    assert np.linalg.norm((mp @ m) @ mp - mp) <= tol * np.linalg.norm(mp)
    assert np.abs(m @ mp - (m @ mp).T).max() <= tol
    assert np.abs(mp @ m - (mp @ m).T).max() <= tol


@pytest.fixture
def lapack_calls(monkeypatch):
    """Shapes of the inputs that reach LAPACK's SVD in ``thin_svd`` and ``pinv``."""
    calls = []
    real = linalg._lapack_svd

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "_lapack_svd", spy)
    return calls


# the shapes the engine factors: randsvd's Q.T A, the regression's S2.T Y,
# bench-curve's S2.T Y and a left factor at criterion 8's scale; and a square one
_KERNEL_SHAPES = [(80, 1000), (400, 80), (150, 20), (4000, 80), (60, 60)]


class TestCholeskyQr2Kernel:
    """``thin_svd``, ``pinv`` and ``orthonormalize`` on the one CholeskyQR2 of ``linalg``."""

    @pytest.mark.parametrize("shape", _KERNEL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_thin_svd_and_pinv_match_lapack(self, lapack_calls, shape):
        m, n = shape
        p = min(shape)
        a = _block(max(shape), np.logspace(0, -3, p), seed=50 + p)
        a = a if m >= n else a.T
        res, mp = thin_svd(a), pinv(a)
        # a square input has no small factor: it takes LAPACK's SVD itself
        assert lapack_calls == ([shape, shape] if m == n else [])
        _assert_svd_within(a, res, 1e-13)
        _assert_penrose(a, mp, 1e-12)
        reference = _svd_pinv(a)
        assert np.abs(mp - reference).max() <= 1e-9 * np.abs(reference).max()

    def test_kernel_factors(self):
        y = _block(400, np.logspace(0, -5, 80), seed=51)
        q, r = linalg._cholesky_qr2(y)
        assert np.abs(q.T @ q - np.eye(80)).max() <= 1e-14
        assert np.linalg.norm(q @ r - y) <= 1e-14 * np.linalg.norm(y)
        np.testing.assert_array_equal(orthonormalize(y), q)

    def test_rule_rejects_rank_deficient_and_wide_blocks(self):
        y = _block(300, np.r_[np.ones(10), np.zeros(5)], seed=52)
        assert linalg._cholesky_qr2(y) is None
        assert linalg._cholesky_qr2(np.ones((3, 5))) is None
        assert linalg._cholesky_qr2(np.zeros((6, 2))) is None

    def test_pinv_and_orthonormalize_follow_one_rank_rule(self, monkeypatch):
        # 1e-5 is the rule max(m, n) eps of a matrix with about 4.5e10 rows, where
        # 1 / rule falls below eps^(-1/2): the kernel's bound must follow the rule
        monkeypatch.setattr(linalg, "_default_rel_tol", lambda shape: 1e-5)
        y = _block(300, np.logspace(0, -6, 20), seed=53)
        assert orthonormalize(y).shape == (300, 16)
        assert np.linalg.norm(pinv(y), 2) <= 1e5
        assert np.linalg.norm(pinv(y.T), 2) <= 1e5

    def test_near_rank_deficient_sweep(self, lapack_calls):
        # rank r < min(m, n) plus Gaussian noise of norm about 1e-16 .. 1e-4:
        # an input the rule accepts meets the bounds of the well-conditioned
        # case; one it rejects gets LAPACK's SVD and pseudoinverse bit for bit
        accepted = rejected = 0
        for shape in _KERNEL_SHAPES[:3]:
            p = min(shape)
            for rank in (1, p // 2, p - 1):
                for noise in 10.0 ** np.arange(-16.0, -3.0, 3.0):
                    rng = np.random.default_rng([rank, int(-np.log10(noise)), *shape])
                    a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
                    a = a / np.linalg.norm(a, 2) + noise * rng.standard_normal(shape) / np.sqrt(max(shape))
                    lapack_calls.clear()
                    res, mp = thin_svd(a), pinv(a)
                    if linalg._tall_qr(a) is not None:
                        accepted += 1
                        assert lapack_calls == []
                        _assert_svd_within(a, res, 1e-13)
                        _assert_penrose(a, mp, 1e-8)
                    else:
                        rejected += 1
                        assert lapack_calls == [shape, shape]
                        u, s, vh = svd = np.linalg.svd(a, full_matrices=False)
                        np.testing.assert_array_equal(res.U, u)
                        np.testing.assert_array_equal(res.sigma, s)
                        np.testing.assert_array_equal(res.V, vh.T)
                        np.testing.assert_array_equal(mp, _svd_pinv(a, svd))
        assert accepted >= 10 and rejected >= 10


def test_skinny_factorizations_run_no_lapack_panels(monkeypatch):
    # On a well-conditioned input every skinny factorization of the engine
    # (the basis, randsvd's Q.T A, the regression's S2.T Y, the residual's
    # left factor) runs CholeskyQR2: LAPACK's SVD and Householder QR see no
    # non-square operand.  The one exception is the block Krylov estimator's
    # extension step, whose SVD of a block of at most _KRYLOV_BLOCK rows stays
    # on LAPACK (faster there at n = 400, and the same at one BLAS thread)
    a = gen_polydecay(1200, 600, seed=60)
    spec = RangeFinderSpec(k=20, l=200, r1=200, r2=40, q=3, eps=0.5, seed=61)
    gram = matrix_gram(a)
    calls = []
    for name in ("svd", "qr"):
        real = getattr(np.linalg, name)

        def spy(x, *args, _real=real, _name=name, **kwargs):
            if x.shape[0] != x.shape[1]:
                calls.append((_name, x.shape, sys._getframe(1).f_code.co_name))
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    q = range_finder_sketched(a, spec)
    randsvd(a, q)
    factors = lowrank_factorize(a, spec)
    calls_before_residuals = list(calls)
    for left, right in ((q, q.T @ a), (factors.Y, factors.X)):
        estimated_approximation_residuals(a, left, right, seed=62, gram=gram)
    assert calls_before_residuals == []
    assert calls and all(
        (name, caller) == ("svd", "_extend") and shape[0] <= diagnostics._KRYLOV_BLOCK
        for name, shape, caller in calls
    )


class TestPsdEigenvalues:
    """The input check of nystrom: no silent symmetrization."""

    def test_rejects_non_square_asymmetric_and_indefinite(self):
        with pytest.raises(ValueError, match="square"):
            psd_eigenvalues(np.ones((3, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            psd_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not psd"):
            psd_eigenvalues(np.diag([1.0, -1.0]))


class TestPsdSqrt:
    """The test helper ``psd_sqrt`` (tests/conftest.py) the Nystrom tests rely on."""

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(5)), np.eye(5), atol=1e-12)

    def test_gram_matrix_squares_back(self):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((30, 20))
        a = g.T @ g
        b = psd_sqrt(a)
        assert np.linalg.norm(b @ b - a, 2) <= 1e-8 * np.linalg.norm(a, 2)
        np.testing.assert_allclose(b, b.T, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not psd"):
            psd_sqrt(np.diag([1.0, -1.0]))


def test_pythagorean_identity():
    rng = np.random.default_rng(11)
    for trial in range(5):
        a = rng.standard_normal((40, 25))
        q = orthonormalize(rng.standard_normal((40, 8)))
        proj = q @ (q.T @ a)
        total = np.linalg.norm(a) ** 2
        split = np.linalg.norm(proj) ** 2 + np.linalg.norm(a - proj) ** 2
        assert abs(total - split) <= 1e-8 * total


class TestAsMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_rejects_a_non_finite_entry_anywhere(self, bad, where, layout):
        base = np.random.default_rng(12).standard_normal((30, 42))
        a = {"C": base[:, :21].copy(), "F": np.asfortranarray(base[:, :21]), "sliced": base[:, ::2]}[layout]
        assert a.shape == (30, 21)
        index = {"first": (0, 0), "middle": (15, 10), "last": (29, 20)}[where]
        a[index] = bad
        with pytest.raises(ValueError, match="x contains non-finite entries"):
            linalg.as_matrix(a, "x")

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_accepts_entries_whose_squares_overflow(self, layout):
        # the sum of squares is inf, so the elementwise scan settles it: every entry is finite
        base = np.full((6, 8), 1e200)
        base[0, 0] = -1e200
        a = {"C": base, "F": np.asfortranarray(base), "sliced": base[::2, ::3]}[layout]
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(base.ravel(), base.ravel()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and the overflow stays silent
            np.testing.assert_array_equal(linalg.as_matrix(a), a)

    def test_returns_the_input_unchanged(self):
        a = np.asfortranarray(np.random.default_rng(13).standard_normal((5, 4)))
        assert linalg.as_matrix(a) is a
        np.testing.assert_array_equal(linalg.as_matrix(a[:, ::2]), a[:, ::2])
        with pytest.raises(ValueError, match="2-D"):
            linalg.as_matrix(np.ones(3))
        with pytest.raises(ValueError, match="non-empty"):
            linalg.as_matrix(np.ones((0, 3)))
