import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as sla

import skpower.diagnostics as diag_mod
import skpower.linalg as linalg_mod
from conftest import psd_polydecay, random_lowrank
from skpower.data_io import _haar_columns, gen_lowrank_plus_noise, gen_polydecay
from skpower.diagnostics import (
    BoundReport,
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
from skpower.linalg import orthonormalize
from skpower.power import _METHODS, RangeFinderSpec, _advance, choose_q
from skpower.sketching import make_sketch, substream


def profile_of(values):
    values = np.asarray(values, dtype=float)
    return SpectralProfile(values=values, shape=(len(values), len(values)))


class TestSpectralProfile:
    def test_from_matrix_descending(self):
        prof = SpectralProfile.from_matrix(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(prof.values, [3.0, 2.0, 1.0], atol=1e-14)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="descending"):
            profile_of([1.0, 2.0])

    @pytest.mark.parametrize("signs", ["psd", "indefinite"])
    def test_symmetric_profile_matches_svd(self, signs):
        # an exactly symmetric matrix takes |eigvalsh| instead of a full SVD
        n = 200
        a = psd_polydecay(n, seed=31)
        if signs == "indefinite":  # eigenvalues (-1)^i n / i
            v = _haar_columns(n, n, 32)
            a = (v * (n / np.arange(1.0, n + 1.0) * (-1.0) ** np.arange(n))) @ v.T
            a = (a + a.T) / 2.0
        assert np.array_equal(a, a.T)
        svd = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(SpectralProfile.from_matrix(a).values, svd, rtol=1e-13, atol=0.0)

    def test_profile_from_the_psd_check_eigenvalues(self):
        # an exactly symmetric input's (a + a.T) / 2 is a itself: the check's
        # eigenvalues are the profile's; a matrix symmetric only within the
        # check's tolerance takes its SVD whatever it is handed
        a = psd_polydecay(120, seed=33)
        w = linalg_mod.psd_eigenvalues(a)
        assert np.array_equal(SpectralProfile.from_matrix(a, w).values, SpectralProfile.from_matrix(a).values)
        near = a.copy()
        near[0, 1] += 1e-12
        assert np.array_equal(
            SpectralProfile.from_matrix(near, linalg_mod.psd_eigenvalues(near)).values,
            np.linalg.svd(near, compute_uv=False),
        )


class TestRegularizationLevel:
    def test_direct(self):
        assert regularization_level(profile_of([2.0, 1.0, 1.0]), 1) == 2.0

    def test_empty_tail(self):
        assert regularization_level(profile_of([2.0, 1.0]), 2) == 0.0

    def test_polydecay_brute_force(self):
        values = 100.0 / np.arange(1.0, 101.0)
        prof = profile_of(values)
        k = 10
        brute = sum(float(v) ** 2 for v in values[k:]) / k
        assert abs(regularization_level(prof, k) - brute) <= 1e-12 * brute

    def test_non_increasing_in_k(self):
        prof = profile_of(np.sort(np.random.default_rng(1).uniform(0, 10, 30))[::-1])
        levels = [regularization_level(prof, k) for k in range(1, 31)]
        assert all(a >= b for a, b in zip(levels, levels[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            regularization_level(profile_of([1.0]), 2)


class TestCertifier:
    def test_identity_sketch_measures_zero(self):
        a = gen_polydecay(30, 20, seed=2)
        report = certify_spectral_approx(a, make_sketch("identity", 20, 20, 0), lam=1.0, eps=0.0)
        assert report.measured <= 1e-12 and report.holds

    def test_eps_zero_strict(self):
        a = gen_polydecay(30, 20, seed=3)
        sketch = make_sketch("gaussian", 20, 10, seed=4)
        report = certify_spectral_approx(a, sketch, lam=10.0, eps=0.0)
        assert not report.holds and report.measured > 0.0

    # a a.T of a tall input has rank n < m, however well conditioned a is
    @pytest.mark.parametrize(
        "a", [random_lowrank(20, 15, rank=3, seed=5), gen_polydecay(20, 15, seed=5)], ids=["rank3", "full-rank"]
    )
    def test_lam_zero_singular_gram_errors(self, a):
        with pytest.raises(ValueError, match="singular"):
            certify_spectral_approx(a, make_sketch("identity", 15, 15, 0), lam=0.0, eps=0.5)

    @staticmethod
    def _pencil_deviation(a, a_s, lam):
        m = a.shape[0]
        pencil = sla.eigh(a_s @ a_s.T + lam * np.eye(m), a @ a.T + lam * np.eye(m), eigvals_only=True)
        return np.abs(pencil - 1.0).max()

    @pytest.mark.parametrize("kind", ["gaussian", "sign", "countsketch", "srht", "identity"])
    @pytest.mark.parametrize("shape", [(40, 30), (30, 40), (35, 35)], ids=["tall", "wide", "square"])
    def test_matches_generalized_eigenvalue_test(self, shape, kind):
        # the whitened norm equals the extreme deviation of the m x m pencil's eigenvalues
        a = gen_polydecay(*shape, seed=6)
        n = shape[1]
        lam = regularization_level(SpectralProfile.from_matrix(a), 5)
        sketch = make_sketch(kind, n, n if kind == "identity" else 25, seed=7)
        report = certify_spectral_approx(a, sketch, lam, eps=0.5)
        assert abs(self._pencil_deviation(a, sketch.apply_right(a), lam) - report.measured) <= 1e-8

    def test_lam_zero_square_full_rank_matches_pencil(self):
        a = gen_polydecay(35, 35, seed=6)
        sketch = make_sketch("gaussian", 35, 60, seed=7)
        report = certify_spectral_approx(a, sketch, 0.0, eps=0.5)
        assert abs(self._pencil_deviation(a, sketch.apply_right(a), 0.0) - report.measured) <= 1e-8

    @pytest.mark.parametrize("shape", [(40, 30), (30, 40)], ids=["tall", "wide"])
    def test_shared_certifier_gives_the_per_call_values(self, shape):
        # verify certifies every trial's sketch on one whitening of a: each
        # value is bit for bit that of its own certify_spectral_approx call
        a = gen_polydecay(*shape, seed=8)
        lam = regularization_level(SpectralProfile.from_matrix(a), 5)
        certify = diag_mod._certifier(a, lam)
        for seed in range(3):
            sketch = make_sketch("countsketch", shape[1], 20, seed=seed)
            assert certify(sketch, 0.5).as_row() == certify_spectral_approx(a, sketch, lam, 0.5).as_row()

    def test_report_row_shape(self):
        report = BoundReport(name="x", rhs=1.0, measured=0.5, params={"k": 3.0})
        row = report.as_row()
        assert row["holds"] is True and row["k"] == 3.0


class TestProjectionResiduals:
    def test_spanning_basis_gives_zero(self):
        a = random_lowrank(25, 18, rank=4, seed=8)
        q = orthonormalize(a)
        spec, frob = projection_residuals(a, q)
        assert spec <= 1e-8 and frob <= 1e-8

    def test_single_axis_example(self):
        a = np.diag([3.0, 2.0])
        q = np.array([[1.0], [0.0]])
        assert projection_residuals(a, q) == (2.0, 2.0)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((30, 22))
        q = orthonormalize(rng.standard_normal((30, 6)))
        spec, frob = projection_residuals(a, q)
        resid = a - q @ (q.T @ a)
        assert abs(spec - np.linalg.norm(resid, 2)) <= 1e-10 * spec
        assert abs(frob - np.linalg.norm(resid)) <= 1e-10 * frob

    def test_rejects_non_orthonormal(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="orthonormal"):
            projection_residuals(rng.standard_normal((10, 8)), rng.standard_normal((10, 3)))

    @pytest.mark.parametrize("residuals", [projection_residuals, estimated_projection_residuals])
    def test_rejects_row_mismatch(self, residuals):
        rng = np.random.default_rng(18)
        q = orthonormalize(rng.standard_normal((12, 3)))
        with pytest.raises(ValueError, match="same number of rows"):
            residuals(rng.standard_normal((10, 8)), q)


class TestApproximationErrorBound:
    def test_eps_zero_collapse(self):
        prof = profile_of([4.0, 3.0, 2.0, 1.0])
        assert approximation_error_bound(prof, 1, 2, 0.0) == 9.0

    def test_empty_tail(self):
        prof = profile_of([4.0, 3.0, 2.0])
        assert approximation_error_bound(prof, 1, 3, 0.5) == 1.5 * 9.0

    def test_polydecay_matches_direct_sum(self):
        values = 100.0 / np.arange(1.0, 101.0)
        prof = profile_of(values)
        k, l, eps = 10, 20, 0.5
        direct = (1 + eps) * values[k] ** 2 + eps / l * sum(float(v) ** 2 for v in values[l:])
        assert abs(approximation_error_bound(prof, k, l, eps) - direct) <= 1e-12 * direct

    def test_unsquared_flag(self):
        prof = profile_of([4.0, 3.0, 2.0, 1.0])
        assert approximation_error_bound(prof, 1, 2, 0.0, squared=False) == 3.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            approximation_error_bound(profile_of([1.0, 0.5]), 2, 1, 0.5)


class TestGaussianRangefinderBound:
    def test_flat_profile(self):
        assert gaussian_rangefinder_bound(profile_of([1.0, 1.0]), 1) == (2.0, 4.0)

    def test_exact_rank_profile(self):
        assert gaussian_rangefinder_bound(profile_of([5.0, 2.0, 0.0, 0.0]), 2) == (0.0, 0.0)

    def test_polydecay_matches_direct_sum(self):
        values = 50.0 / np.arange(1.0, 51.0)
        prof = profile_of(values)
        tail = sum(float(v) ** 2 for v in values[5:])
        spec, frob = gaussian_rangefinder_bound(prof, 5)
        assert abs(spec - 2 * tail / 5) <= 1e-12 * spec
        assert abs(frob - 4 * tail) <= 1e-12 * frob


class TestPoweredRangefinderBound:
    def test_lambda2_zero_collapse(self):
        prof = profile_of([1.0])
        spec, _ = powered_rangefinder_bound(3.0, 0.0, 0.25, 2, prof)
        assert spec == (1 + 0.5) * 0.25 * 3.0

    def test_large_q_boundary(self):
        prof = profile_of([1.0])
        lam2 = 0.7
        spec, _ = powered_rangefinder_bound(0.0, lam2, 0.0, 50, prof)
        assert abs(spec - (2 * lam2) ** (1.0 / 101.0)) <= 1e-14

    def test_frobenius_scan_matches_brute_force(self):
        values = 100.0 / np.arange(1.0, 101.0)
        prof = profile_of(values)
        lam1, lam2, eps, q = 3.0, 40.0, 0.25, 4
        level = lam2 ** (1.0 / (2 * q + 1)) + lam1
        brute = min(
            8 * r * level + sum(float(v) ** 2 for v in values[r:])
            for r in range(len(values) + 1)
        )
        _, frob = powered_rangefinder_bound(lam1, lam2, eps, q, prof)
        assert abs(frob - brute) <= 1e-12 * brute

    def test_monotone_in_parameters(self):
        prof = profile_of(100.0 / np.arange(1.0, 41.0))
        base = powered_rangefinder_bound(2.0, 5.0, 0.25, 3, prof)
        for kwargs in [dict(lambda1=3.0), dict(lambda2=6.0), dict(eps=0.4)]:
            params = dict(lambda1=2.0, lambda2=5.0, eps=0.25, q=3)
            params.update(kwargs)
            bumped = powered_rangefinder_bound(params["lambda1"], params["lambda2"], params["eps"], params["q"], prof)
            assert bumped[0] >= base[0] and bumped[1] >= base[1]


class TestPoweredTail:
    def test_flat_profile_direct(self):
        prof = profile_of([1.0, 1.0, 1.0])
        q = 1
        expected = (2.0 / 1 * 2.0) ** (1.0 / (2 * q + 1))
        assert abs(powered_tail_level(prof, 1, q) - expected) <= 1e-12

    def test_single_nonzero_tail(self):
        prof = profile_of([9.0, 2.0, 0.0, 0.0])
        for q in (1, 3, 8):
            expected = 2.0 ** (1.0 / (2 * q + 1)) * 4.0
            assert abs(powered_tail_level(prof, 1, q) - expected) <= 1e-12 * expected

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(11)
        values = np.sort(rng.uniform(0.1, 200.0, size=60))[::-1]
        prof = profile_of(values)
        k = 7
        q = choose_q(0.5, 60)
        t = 2 * q + 1
        mp.mp.dps = 60
        acc = mp.mpf(0)
        for v in values[k:]:
            acc += mp.mpf(float(v)) ** (2 * t)
        oracle = float((mp.mpf(2) / k * acc) ** (mp.mpf(1) / t))
        mine = powered_tail_level(prof, k, q)
        assert abs(mine - oracle) <= 1e-9 * oracle

    def test_no_overflow_at_large_q(self):
        values = np.sort(np.random.default_rng(12).uniform(1.0, 500.0, 40))[::-1]
        out = powered_tail_level(profile_of(values), 3, 30)
        assert np.isfinite(out) and out > 0.0

    def test_report_checks_q_threshold(self):
        prof = profile_of([4.0, 1.0, 0.5])
        with pytest.raises(ValueError, match="choose_q"):
            powered_tail_report(prof, 1, 0, sigma_kp1=1.0, lambda1=1.0, eps=0.5)
        q = choose_q(0.5, 3)
        report = powered_tail_report(prof, 1, q, sigma_kp1=2.0, lambda1=1.0, eps=0.5)
        assert report.rhs == 3.0 * 4.0 + 1.0
        assert report.params["q"] == q


class TestRelativeError:
    def test_values(self):
        prof = profile_of([5.0, 2.0])
        assert relative_error(2.0, prof, 1) == 0.0
        assert relative_error(4.0, prof, 1) == 1.0

    def test_zero_reference_errors(self):
        with pytest.raises(ValueError, match="zero"):
            relative_error(1.0, profile_of([5.0, 0.0]), 1)


class TestEstimatedResiduals:
    def test_estimator_matches_svd(self):
        a = gen_polydecay(150, 90, seed=13)
        exact = sla.svdvals(a)[0]
        est = estimate_spectral_norm(a, seed=1)
        assert abs(est - exact) <= 1e-6 * exact

    def test_estimated_residuals_match_exact(self):
        a = gen_polydecay(120, 80, seed=14)
        q = orthonormalize(np.random.default_rng(15).standard_normal((120, 10)))
        spec_e, frob_e = estimated_projection_residuals(a, q, seed=2)
        spec_x, frob_x = projection_residuals(a, q)
        assert abs(spec_e - spec_x) <= 1e-4 * spec_x
        assert frob_e == frob_x

    def test_estimator_deterministic(self):
        a = gen_polydecay(60, 40, seed=16)
        assert estimate_spectral_norm(a, seed=3) == estimate_spectral_norm(a, seed=3)


def _noisy_lowrank(shape, noise, psd, seed):
    """Rank 10 with unit singular values plus ``noise`` Gaussian entries, or a square psd analogue."""
    if not psd:
        return gen_lowrank_plus_noise(*shape, 10, noise, seed)
    n = shape[0]
    u = _haar_columns(n, 10, seed)
    g = np.random.default_rng(seed).standard_normal((n, n))
    a = u @ u.T + noise * (g @ g.T) / n
    return (a + a.T) / 2.0


_SHAPES = {"tall": (120, 70), "wide": (70, 120), "square": (90, 90)}


@pytest.mark.parametrize("noise, thin", [(1e-2, True), (1e-8, False)])
@pytest.mark.parametrize(
    "method, shape",
    [(method, shape) for method in sorted(_METHODS) for shape in ("tall", "wide") if method != "nystrom"]
    + [("nystrom", "square")],
)
def test_residual_norms_on_both_sides_of_the_cancellation_guard(monkeypatch, method, shape, noise, thin):
    # the thin form serves noise 1e-2; at 1e-8 its cancellation exceeds the
    # estimator's tolerance and the residual is formed: both sides match an SVD
    a = _noisy_lowrank(_SHAPES[shape], noise, method == "nystrom", seed=41)
    spec = RangeFinderSpec(k=10, l=30, r1=30, r2=10, q=1, eps=0.5, seed=42)
    left, right, _ = _METHODS[method].operands(a, _advance(a, spec, method)[0])
    resid = a - left @ right
    exact_spec, exact_frob = sla.svdvals(resid)[0], np.linalg.norm(resid)

    formed = []
    real = diag_mod._residual
    monkeypatch.setattr(diag_mod, "_residual", lambda *args: formed.append(1) or real(*args))
    gram = matrix_gram(a)
    spec_err, frob_err = estimated_approximation_residuals(a, left, right, seed=43, gram=gram)
    assert (not formed) == thin
    assert abs(spec_err - exact_spec) <= 1e-6 * exact_spec
    assert spec_err <= exact_spec * (1.0 + 1e-12)
    assert abs(frob_err - exact_frob) <= 1e-6 * exact_frob
    # a Gram formed inside gives the same numbers; the exact norms share the Frobenius
    assert estimated_approximation_residuals(a, left, right, seed=43) == (spec_err, frob_err)
    assert approximation_residuals(a, left, right)[1] == frob_err


@pytest.mark.parametrize("noise, thin", [(1e-2, True), (1e-8, False)])
def test_operands_checked_once_per_public_call(monkeypatch, noise, thin):
    # a, L and R are checked once per call, and the residual the fallback
    # forms from them is not checked again.  Each call forms the residual
    # only on the fallback
    a = _noisy_lowrank(_SHAPES["tall"], noise, False, seed=41)
    spec = RangeFinderSpec(k=10, l=30, r1=30, r2=10, q=1, eps=0.5, seed=42)
    left, right, _ = _METHODS["sketched-randsvd"].operands(a, _advance(a, spec, "sketched-randsvd")[0])
    gram = matrix_gram(a)
    checked, formed = [], []
    real_check, real_residual = diag_mod.as_matrix, diag_mod._residual
    monkeypatch.setattr(diag_mod, "as_matrix", lambda x, name: checked.append(name) or real_check(x, name))
    monkeypatch.setattr(diag_mod, "_residual", lambda *args: formed.append(1) or real_residual(*args))
    approximation_residuals(a, left, right)
    assert checked == ["a", "left", "right"]
    assert len(formed) == (not thin)
    checked.clear()
    formed.clear()
    estimated_approximation_residuals(a, left, right, seed=43, gram=gram)
    assert checked == ["a", "left", "right"]
    assert len(formed) == (not thin)
    # the projection wrappers check a and Q once each, in linalg's check of a
    # basis (Q.T a is formed from them)
    scanned = []
    real_linalg_check = linalg_mod.as_matrix
    monkeypatch.setattr(linalg_mod, "as_matrix", lambda x, name: scanned.append(name) or real_linalg_check(x, name))
    for wrapper in (projection_residuals, estimated_projection_residuals):
        checked.clear()
        formed.clear()
        scanned.clear()
        wrapper(a, left)
        assert checked == []
        assert scanned == ["a", "q_basis"] + ([] if thin else ["a"])  # and frobenius_norm of the formed residual
        assert len(formed) == (not thin)


def test_gram_of_another_shape_rejected():
    a = gen_polydecay(50, 30, seed=44)
    q = orthonormalize(a[:, :3])
    with pytest.raises(ValueError, match="gram is"):
        estimated_approximation_residuals(a, q, q.T @ a, gram=matrix_gram(a[:, :20]))


def _stretched(q, dev):
    """``q`` with its first column scaled so that ``max |Q.T Q - I|`` is about ``dev``."""
    q = q.copy()
    q[:, 0] *= math.sqrt(1.0 + dev)
    return q


@pytest.fixture
def factorizations(monkeypatch):
    """Every left factor the residual layer hands to CholeskyQR2."""
    seen = []
    real = diag_mod._cholesky_qr2
    monkeypatch.setattr(diag_mod, "_cholesky_qr2", lambda y: seen.append(y.shape) or real(y))
    return seen


def _engine_basis(a):
    spec = RangeFinderSpec(k=10, l=30, r1=30, r2=10, q=2, eps=0.5, seed=45)
    return _advance(a, spec, "sketched-randsvd")[0]["Q"]


def test_an_engine_basis_is_not_factored_again(factorizations):
    a = gen_polydecay(120, 70, seed=46)
    q = _engine_basis(a)
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= diag_mod._BASIS_DEV
    approximation_residuals(a, q, q.T @ a)
    estimated_approximation_residuals(a, q, q.T @ a, seed=47)
    projection_residuals(a, q)
    estimated_projection_residuals(a, q, seed=47)
    assert factorizations == []
    # a basis orthonormal to 1e-8 only is factored, on every path
    loose = _stretched(q, 1e-8)
    approximation_residuals(a, loose, loose.T @ a)
    estimated_approximation_residuals(a, loose, loose.T @ a, seed=47)
    projection_residuals(a, loose)
    estimated_projection_residuals(a, loose, seed=47)
    assert factorizations == [q.shape] * 4


@pytest.mark.parametrize("residuals", [projection_residuals, estimated_projection_residuals])
def test_a_projection_forms_its_basis_gram_once(monkeypatch, residuals):
    # the projection check's max |Q.T Q - I| also decides whether Q is factored
    a = gen_polydecay(120, 70, seed=46)
    formed = []
    real = linalg_mod._deviation
    spy = lambda q: formed.append(q.shape) or real(q)
    monkeypatch.setattr(linalg_mod, "_deviation", spy)
    monkeypatch.setattr(diag_mod, "_deviation", spy)
    q = _engine_basis(a)
    formed.clear()
    residuals(a, q)
    assert formed == [q.shape]


def test_a_basis_the_projection_check_accepts_is_factored_to_the_exact_norm():
    # 1e-7 from orthonormal passes the 1e-6 check; its QR keeps the norms
    # of a - Q Q.T a, where Q Q.T is not a projector, to rounding
    a = gen_polydecay(120, 70, seed=48)
    q = _stretched(_engine_basis(a), 1e-7)
    dev = np.abs(q.T @ q - np.eye(q.shape[1])).max()
    assert 5e-8 <= dev <= 1e-6
    resid = a - q @ (q.T @ a)
    spec_err, frob_err = projection_residuals(a, q)
    assert abs(spec_err - sla.svdvals(resid)[0]) <= 1e-10 * spec_err
    assert abs(frob_err - np.linalg.norm(resid)) <= 1e-10 * frob_err


@pytest.mark.parametrize("shape", ["tall", "wide"])
def test_projection_estimate_with_and_without_a_gram(shape):
    a = gen_polydecay(*_SHAPES[shape], seed=49)
    q = _engine_basis(a)
    assert estimated_projection_residuals(a, q, seed=50, gram=matrix_gram(a)) == estimated_projection_residuals(
        a, q, seed=50
    )


def rotated(m, n, sigma, seed):
    """m-by-n matrix with singular values ``sigma`` in Haar-random bases."""
    sigma = np.asarray(sigma, dtype=float)
    u = _haar_columns(m, sigma.size, seed)
    v = _haar_columns(n, sigma.size, seed + 1)
    return (u * sigma) @ v.T


@pytest.fixture
def extensions(monkeypatch):
    """Every basis extension of the estimator: (basis, new rows), one per step."""
    seen = []
    real = diag_mod._extend

    def spy(basis, y):
        rows = real(basis, y)
        seen.append((basis.copy(), rows))
        return rows

    monkeypatch.setattr(diag_mod, "_extend", spy)
    return seen


@pytest.fixture
def lanczos_runs(monkeypatch):
    """Every run of the block Lanczos routine: how often each applied its operator."""
    runs = []
    real = diag_mod._lanczos

    def spy(rows, *args, **kwargs):
        runs.append(0)

        def counted(q):
            runs[-1] += 1
            return rows(q)

        return real(counted, *args, **kwargs)

    monkeypatch.setattr(diag_mod, "_lanczos", spy)
    return runs


@pytest.mark.parametrize("noise, thin", [(1e-2, True), (1e-8, False)])
def test_every_estimate_is_one_lanczos_run(monkeypatch, lanczos_runs, extensions, noise, thin):
    # the plain estimate, the thin estimate and the fallback's estimate of the
    # formed residual each run the one routine once, and it applies its
    # operator once per basis extension that returned rows
    a = _noisy_lowrank(_SHAPES["tall"], noise, False, seed=41)
    spec = RangeFinderSpec(k=10, l=30, r1=30, r2=10, q=1, eps=0.5, seed=42)
    left, right, _ = _METHODS["sketched-randsvd"].operands(a, _advance(a, spec, "sketched-randsvd")[0])
    formed = []
    real_residual = diag_mod._residual
    monkeypatch.setattr(diag_mod, "_residual", lambda *args: formed.append(1) or real_residual(*args))
    for estimate, args in ((estimate_spectral_norm, (a,)), (estimated_approximation_residuals, (a, left, right))):
        lanczos_runs.clear()
        extensions.clear()
        estimate(*args, seed=43)
        assert len(lanczos_runs) == 1
        assert lanczos_runs[0] == sum(len(rows) > 0 for _, rows in extensions) > 0
    assert len(formed) == (not thin)


class TestSpectralNormEstimator:
    def test_close_top_gap(self):
        # sigma_2 / sigma_1 = 0.98, where power iteration converges slowly
        sigma = np.concatenate(([1.0, 0.98], 0.9 / np.arange(1.0, 119.0)))
        a = rotated(200, 150, sigma, seed=19)
        for seed in range(5):
            est = estimate_spectral_norm(a, seed=seed)
            assert abs(est - 1.0) <= 1e-6

    def test_start_vector_blind_to_top_direction(self):
        # the top right singular vector is orthogonal to the first start
        # vector; a single-vector Krylov method from it settles on sigma_2
        n, seed = 150, 7
        start = diag_mod._rng(seed).standard_normal((n, diag_mod._KRYLOV_BLOCK))[:, 0]
        v = _haar_columns(n, 40, 25)
        v[:, 0] -= start * (start @ v[:, 0]) / (start @ start)
        v, _ = np.linalg.qr(v)
        u = _haar_columns(200, 40, 26)
        a = (u * np.concatenate(([1.0, 0.98], 0.9 / np.arange(1.0, 39.0)))) @ v.T
        assert abs(estimate_spectral_norm(a, seed=seed) - 1.0) <= 1e-6

    def test_never_above_exact(self, monkeypatch):
        for seed in range(4):
            a = gen_polydecay(90, 70, seed=20 + seed)
            resid = a - np.outer(a[:, 0], a[0]) / a[0, 0]
            for m in (a, resid, a.T):
                exact = sla.svdvals(m)[0]
                for max_steps in (1, 2, 5, 1000):
                    monkeypatch.setattr(diag_mod, "_KRYLOV_MAX_STEPS", max_steps)
                    est = estimate_spectral_norm(m, seed=seed)
                    assert est <= exact * (1.0 + 1e-12)

    def test_bases_stay_orthonormal(self, extensions, monkeypatch):
        # an isolated small value converges early, after which a Krylov
        # basis built without reorthogonalization loses orthogonality
        sigma = np.concatenate((np.linspace(1.0, 0.9, 60), [1e-3] * 3))
        a = rotated(200, 150, sigma, seed=19)
        monkeypatch.setattr(diag_mod, "_ESTIMATOR_TOL", 1e-10)
        est = estimate_spectral_norm(a, seed=1)
        assert abs(est - 1.0) <= 1e-9
        assert len(extensions) > 5
        for basis, rows in extensions:
            q = np.vstack((basis, rows))
            assert np.abs(q @ q.T - np.eye(len(q))).max() <= 1e-13

    def test_zero_matrix(self):
        assert estimate_spectral_norm(np.zeros((7, 5))) == 0.0

    def test_exact_rank_stops_on_breakdown(self, extensions, monkeypatch):
        # tol = 0 stops only on an exactly repeated value; the Krylov space
        # of a rank-2 matrix is the column space, found by the first block
        a = rotated(60, 40, [3.0, 1.0], seed=21)
        monkeypatch.setattr(diag_mod, "_ESTIMATOR_TOL", 0.0)
        est = estimate_spectral_norm(a, seed=4)
        assert [len(rows) for _, rows in extensions] == [2, 0]
        assert abs(est - 3.0) <= 1e-12 * 3.0

    def test_vector_shapes(self):
        x = np.random.default_rng(22).standard_normal(30)
        for a in (x[None, :], x[:, None]):
            est = estimate_spectral_norm(a, seed=5)
            assert abs(est - np.linalg.norm(x)) <= 1e-14 * np.linalg.norm(x)

    def test_max_iter_caps_steps(self, extensions, monkeypatch):
        a = gen_polydecay(80, 60, seed=23)
        monkeypatch.setattr(diag_mod, "_ESTIMATOR_TOL", 0.0)
        monkeypatch.setattr(diag_mod, "_KRYLOV_MAX_STEPS", 3)
        estimate_spectral_norm(a, seed=6)
        assert len(extensions) == 3
        # one step: the top singular value of Q.T a with Q = orth(a Omega)
        omega = diag_mod._rng(6).standard_normal((60, diag_mod._KRYLOV_BLOCK))
        q, _ = np.linalg.qr(a @ omega)
        one = np.linalg.norm(q.T @ a, 2)
        monkeypatch.setattr(diag_mod, "_ESTIMATOR_TOL", 1e-6)
        monkeypatch.setattr(diag_mod, "_KRYLOV_MAX_STEPS", 1)
        assert abs(estimate_spectral_norm(a, seed=6) - one) <= 1e-13 * one

    def test_rejects_non_finite(self):
        a = np.ones((4, 3))
        for bad in (np.nan, np.inf):
            a[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                estimate_spectral_norm(a)


def test_powered_tail_inequality_holds_on_certified_pairs():
    # whenever the sketch certifies, the powered tail level stays below
    # (1 + 4 eps) sigma_{k+1}^2 + 2 lambda1 eps at q = choose_q(eps, rank)
    a = gen_polydecay(300, 200, seed=17)
    profile = SpectralProfile.from_matrix(a)
    k, eps = 10, 0.5
    lam = regularization_level(profile, k)
    sigma_kp1 = profile.values[k]
    checked = held = 0
    trial = 0
    while checked < 10 and trial < 40:
        sketch = make_sketch("gaussian", 200, 260, substream(4000, trial))
        trial += 1
        if certify_spectral_approx(a, sketch, lam, eps).holds:
            checked += 1
            sprof = SpectralProfile.from_matrix(sketch.apply_right(a))
            rank = int(np.count_nonzero(sprof.values > sprof.values[0] * 300 * np.finfo(float).eps))
            report = powered_tail_report(sprof, k, choose_q(eps, rank), sigma_kp1, lam, eps)
            held += report.holds
    assert checked == 10 and held >= 9


def test_warm_start_hands_the_ritz_directions_on(extensions):
    a = gen_polydecay(120, 70, seed=51)
    q = _engine_basis(a)
    cold = estimated_projection_residuals(a, q, seed=52)
    cold_steps = len(extensions)
    warm = WarmStart()
    assert estimated_projection_residuals(a, q, seed=52, warm=warm) == cold  # an empty holder starts cold
    assert warm.directions.shape == (diag_mod._KRYLOV_BLOCK - 1, 70)
    np.testing.assert_allclose(np.linalg.norm(warm.directions, axis=1), 1.0, rtol=1e-14)
    extensions.clear()
    # the same residual again, from its own Ritz directions
    spec_err, frob_err = estimated_projection_residuals(a, q, seed=52, warm=warm)
    assert len(extensions) < cold_steps
    assert abs(spec_err - cold[0]) <= 1e-6 * cold[0] and frob_err == cold[1]
    # a point whose thin form cancels forms its residual and passes nothing on
    noisy = _noisy_lowrank(_SHAPES["tall"], 1e-8, False, seed=41)
    spec = RangeFinderSpec(k=10, l=30, r1=30, r2=10, q=1, eps=0.5, seed=42)
    left, right, _ = _METHODS["lowrank-factorize"].operands(noisy, _advance(noisy, spec, "lowrank-factorize")[0])
    held = WarmStart(warm.directions)
    assert estimated_approximation_residuals(noisy, left, right, seed=43, warm=held) == (
        estimated_approximation_residuals(noisy, left, right, seed=43)
    )
    assert held.directions is None
