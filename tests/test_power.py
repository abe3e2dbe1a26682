from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from conftest import (
    CALIBRATED_COUNTSKETCH_C,
    DELTA,
    GAUSSIAN_BLOCK_MULTIPLE,
    psd_polydecay,
    psd_sqrt,
    random_lowrank,
    random_psd,
)
from skpower import power, sketching
from skpower.data_io import gen_polydecay
from skpower.diagnostics import (
    SpectralProfile,
    approximation_error_bound,
    approximation_residuals,
    certify_spectral_approx,
    gaussian_rangefinder_bound,
    projection_residuals,
    regularization_level,
    relative_error,
)
from skpower.linalg import orthonormalize, pinv
from skpower.power import (
    RangeFinderSpec,
    choose_q,
    lowrank_factorize,
    nystrom_psd,
    power_iterate,
    randsvd,
    range_finder_classical,
    range_finder_sketched,
)
from skpower.sketching import countsketch_size, make_sketch, substream


def literal_power(atil, omega, q):
    """``(atil atil.T)^q atil omega`` by alternating products, no re-basing: the textbook oracle."""
    y = atil @ omega
    for _ in range(q):
        y = atil @ (atil.T @ y)
    return y


def countsketch_spec(k, l, m, n, eps=0.5, seed=0, **overrides):
    """RangeFinderSpec with the calibrated CountSketch sizing."""
    r1, s = countsketch_size(l, eps, DELTA, CALIBRATED_COUNTSKETCH_C)
    r1 = min(r1, n)
    params = dict(
        k=k,
        l=l,
        r1=r1,
        r2=2 * k,
        q=choose_q(eps, min(m, r1)),
        eps=eps,
        sketch_kind="countsketch",
        seed=seed,
        s=s,
    )
    params.update(overrides)
    return RangeFinderSpec(**params)


class TestChooseQ:
    def test_direct_values(self):
        assert choose_q(0.5, 1) == 1
        assert choose_q(0.1, 100) == 27

    def test_monotone_in_eps(self):
        eps = 0.5
        for _ in range(6):
            assert choose_q(eps / 2, 50) >= choose_q(eps, 50)
            eps /= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_q(0.0, 10)
        with pytest.raises(ValueError):
            choose_q(0.6, 10)
        with pytest.raises(ValueError):
            choose_q(0.5, 0)


class TestPowerIterate:
    def test_q_zero_is_plain_product(self):
        rng = np.random.default_rng(0)
        atil = rng.standard_normal((10, 6))
        omega = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(power_iterate(atil, omega, 0), atil @ omega)

    def test_diagonal_powering(self):
        atil = np.diag([2.0, 1.0])
        omega = np.ones((2, 1))
        out = power_iterate(atil, omega, 3)
        literal = literal_power(atil, omega, 3)  # (2^7, 1)
        np.testing.assert_allclose(out[:, 0] / out[1, 0], literal[:, 0] / literal[1, 0], rtol=1e-14)

    def test_stabilized_same_projector(self):
        rng = np.random.default_rng(1)
        atil = rng.standard_normal((40, 30))
        omega = rng.standard_normal((30, 8))
        q1 = orthonormalize(literal_power(atil, omega, 2))
        q2 = orthonormalize(power_iterate(atil, omega, 2))
        np.testing.assert_allclose(q1 @ q1.T, q2 @ q2.T, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            power_iterate(np.ones((4, 3)), np.ones((4, 2)), 1)


class TestCorePath:
    """A compressing primary sketch (r1 < n) is powered on the r1 x r1 core."""

    @pytest.mark.parametrize("q", [1, 5, 15])
    @pytest.mark.parametrize("kind", ["countsketch", "gaussian", "srht"])
    def test_same_span_as_textbook_pair(self, kind, q):
        a = gen_polydecay(600, 300, seed=31)
        spec = RangeFinderSpec(k=10, l=40, r1=100, r2=20, q=q, eps=0.5, sketch_kind=kind, seed=32)
        q_core = range_finder_sketched(a, spec)
        atil = make_sketch(kind, 300, 100, substream(32, 0), s=spec.s).apply_right(a)
        omega = make_sketch("gaussian", 100, 20, substream(32, 1)).densify()
        q_pair = orthonormalize(power_iterate(atil, omega, q))
        assert q_core.shape == q_pair.shape
        assert np.abs(q_core @ q_core.T - q_pair @ q_pair.T).max() <= 1e-10

    def test_compressing_sketch_runs_no_m_row_pair(self, monkeypatch):
        def m_row_pair(*args, **kwargs):
            raise AssertionError("an m-row power pair ran on a compressing sketch")

        monkeypatch.setattr(power, "_pair", m_row_pair)
        monkeypatch.setattr(power, "power_iterate", m_row_pair)
        a = random_psd(60, seed=33)
        spec = RangeFinderSpec(k=4, l=8, r1=20, r2=8, q=3, eps=0.5, sketch_kind="gaussian", seed=34)
        range_finder_sketched(a, spec)
        lowrank_factorize(a, spec)
        nystrom_psd(a, spec)
        for method in ("sketched-randsvd", "lowrank-factorize", "nystrom"):  # stepped, as in bench
            list(islice(power._iterates(a, replace(spec, q=0), method), 4))

    def test_identity_sketch_keeps_textbook_pair(self):
        # the unsketched regression powers A itself (r1 = n = 40) whatever the caller's r1, and
        # takes S2 from the caller's Gaussian family and r1 = 20
        a = gen_polydecay(60, 40, seed=35)
        omega = make_sketch("gaussian", 40, 8, substream(36, 1)).densify()
        spec = RangeFinderSpec(k=4, l=10, r1=20, r2=8, q=3, eps=0.5, sketch_kind="gaussian", seed=36)
        expected = power_iterate(a, omega, 3)
        np.testing.assert_array_equal(range_finder_classical(a, 4, 8, 3, seed=36), orthonormalize(expected))
        factors, _, spec_run, _ = power._advance(a, spec, "lowrank-factorize-unsketched")
        np.testing.assert_array_equal(factors["Y"], expected)
        assert (spec_run.sketch_kind, spec_run.r1) == ("identity", 40)
        for state in islice(power._iterates(a, replace(spec, q=0), "lowrank-factorize-unsketched"), 4):
            np.testing.assert_array_equal(state.y, power_iterate(a, omega, state.q))
            assert state.s2.kind == "gaussian" and (state.s2.n, state.s2.r) == (60, 20)


class TestStartBlock:
    """The engine draws its Gaussian start block itself: no operator, no copy through ``densify``."""

    def test_no_densify_cap_and_the_oracle_block(self, monkeypatch):
        a = random_psd(60, seed=41)
        spec = RangeFinderSpec(k=4, l=8, r1=20, r2=8, q=1, eps=0.5, sketch_kind="gaussian", seed=42)
        omega = make_sketch("gaussian", 20, 8, substream(42, 1)).densify()
        monkeypatch.setattr(sketching, "_DENSIFY_CAP", 100)  # below r1 * r2 = 160, and n * r2 = 480
        range_finder_classical(a, 4, 8, 1, seed=42)
        range_finder_sketched(a, spec)
        lowrank_factorize(a, spec)
        nystrom_psd(a, spec)
        for method in ("sketched-randsvd", "lowrank-factorize", "nystrom"):
            state = next(power._iterates(a, replace(spec, q=0), method))
            assert np.array_equal(state.z, omega), method  # the start block itself at q = 0 on the core


class TestLowRank:
    """Each method's residual operands are the textbook approximation of its library factors."""

    @pytest.mark.parametrize("method", list(power._METHODS))
    def test_product_is_the_textbook_approximation(self, method):
        a = random_psd(50, seed=39)
        spec = RangeFinderSpec(k=4, l=8, r1=20, r2=8, q=2, eps=0.5, sketch_kind="gaussian", seed=40)
        if method == "classical-randsvd":
            factors = {"Q": range_finder_classical(a, 4, 8, 2, seed=40)}
        elif method == "sketched-randsvd":
            factors = {"Q": range_finder_sketched(a, spec)}
        elif method == "nystrom":
            factors = vars(nystrom_psd(a, spec))
        elif method == "lowrank-factorize":
            factors = vars(lowrank_factorize(a, spec))
        else:  # no public function: the engine's own run to q
            factors = power._advance(a, spec, method)[0]
        left, right, basis_dev = power._METHODS[method].operands(a, factors)
        assert (basis_dev is not None) == ("Q" in factors)
        if "Q" in factors:
            expected = factors["Q"] @ (factors["Q"].T @ a)
        elif "Y" in factors:
            expected = factors["Y"] @ factors["X"]
        else:
            expected = factors["C"] @ (pinv(factors["W"]) @ factors["C"].T)
        assert np.array_equal(left @ right, expected)


class TestInLoopStabilizer:
    """Between steps the iterate is re-based by ``span_basis``; only the final basis is orthonormalized."""

    def test_final_basis_is_the_only_orthonormalize(self, monkeypatch):
        shapes = []

        def spy(y):
            shapes.append(y.shape)
            return orthonormalize(y)

        monkeypatch.setattr(power, "orthonormalize", spy)
        a = gen_polydecay(600, 300, seed=39)
        spec = RangeFinderSpec(k=10, l=40, r1=100, r2=20, q=15, eps=0.5, sketch_kind="countsketch", seed=40)
        q = range_finder_sketched(a, spec)
        assert shapes == [(600, 20)]
        assert q.shape == (600, 20)

    @pytest.mark.parametrize("q", [3, 15, 40])
    @pytest.mark.parametrize("kind", ["countsketch", "gaussian", "srht"])
    def test_exact_rank_block_keeps_rank_columns(self, kind, q):
        # r2 = 60 on a rank-30 matrix: after the first core product the
        # iterate is rank deficient, so the stabilizer must fall back and drop columns
        a = random_lowrank(500, 300, rank=30, seed=41)
        spec = RangeFinderSpec(k=30, l=60, r1=120, r2=60, q=q, eps=0.5, sketch_kind=kind, seed=42)
        q_basis = range_finder_sketched(a, spec)
        assert q_basis.shape == (500, 30)
        resid = np.linalg.norm(a - q_basis @ (q_basis.T @ a), 2)
        assert resid <= 1e-12 * np.linalg.norm(a, 2)


class TestEveryStepStabilized:
    """Every method is stable at every q: its factors stay finite and full, and its error settles."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", list(power._METHODS))
    def test_high_q_settles(self, method):
        entry = power._METHODS[method]
        a = psd_polydecay(400, 1) if entry.core else gen_polydecay(400, 200, seed=1)
        profile = SpectralProfile.from_matrix(a)
        errs = {}
        for q in (0, 60, 200):
            spec = RangeFinderSpec(k=10, l=50, r1=50, r2=20, q=q, eps=0.5, seed=1)
            factors = power._advance(a, spec, method)[0]
            assert all(np.isfinite(f).all() for f in factors.values())
            left, right, _ = entry.operands(a, factors)
            assert left.shape[1] == 20
            errs[q] = relative_error(approximation_residuals(a, left, right)[0], profile, 10)
        assert abs(errs[200] - errs[60]) <= 0.01
        assert errs[200] < errs[0]

    def test_unstabilized_spec_is_rejected(self):
        a = random_psd(40, seed=43)
        spec = RangeFinderSpec(k=4, l=8, r1=20, r2=8, q=2, eps=0.5, stabilized=False)
        for run in (range_finder_sketched, lowrank_factorize, nystrom_psd):
            with pytest.raises(ValueError, match="stabilized"):
                run(a, spec)


class TestRangeFinderSketched:
    def test_rank_one_target(self):
        a = np.diag([5.0, 0.0, 0.0])
        spec = RangeFinderSpec(k=1, l=1, r1=3, r2=1, q=0, eps=0.5, sketch_kind="gaussian", seed=3)
        q = range_finder_sketched(a, spec)
        spec_err, _ = projection_residuals(a, q)
        assert spec_err <= 1e-8 * 5.0

    @pytest.mark.parametrize("kind,s", [("gaussian", 1), ("sign", 1), ("countsketch", 2), ("srht", 1)])
    def test_exact_rank_capture(self, kind, s):
        a = random_lowrank(60, 45, rank=6, seed=4)
        spec = RangeFinderSpec(k=6, l=8, r1=20, r2=8, q=0, eps=0.5, sketch_kind=kind, seed=5, s=s)
        q = range_finder_sketched(a, spec)
        spec_err, _ = projection_residuals(a, q)
        assert spec_err <= 1e-8 * np.linalg.norm(a, 2)

    def test_oversampling_error_bound_ensemble(self):
        # ||A - QQ^T A|| <= sqrt(k+1) * sigma_{k+1} across seeded trials
        a = gen_polydecay(400, 200, seed=42)
        profile = SpectralProfile.from_matrix(a)
        k, l = 20, 40
        bound = np.sqrt(k + 1) * profile.values[k]
        hits = 0
        for trial in range(20):
            spec = countsketch_spec(k, l, 400, 200, seed=substream(1000, trial))
            q = range_finder_sketched(a, spec)
            spec_err, _ = projection_residuals(a, q)
            hits += spec_err <= bound
        assert hits >= 18

    def test_q_has_at_most_r2_columns(self):
        a = gen_polydecay(50, 30, seed=6)
        spec = RangeFinderSpec(k=3, l=5, r1=10, r2=6, q=1, eps=0.5, sketch_kind="sign", seed=7)
        q = range_finder_sketched(a, spec)
        assert q.shape[1] <= 6
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)

    def test_seed_determinism(self):
        a = gen_polydecay(80, 50, seed=8)
        spec = countsketch_spec(5, 10, 80, 50, seed=123)
        q1 = range_finder_sketched(a, spec)
        q2 = range_finder_sketched(a, spec)
        np.testing.assert_array_equal(q1, q2)
        r1 = projection_residuals(a, q1)
        r2 = projection_residuals(a, q2)
        assert abs(r1[0] - r2[0]) <= 1e-12 and abs(r1[1] - r2[1]) <= 1e-12


class TestRangeFinderClassical:
    def test_matches_identity_sketch(self):
        a = gen_polydecay(40, 25, seed=9)
        spec = RangeFinderSpec(
            k=4, l=10, r1=25, r2=8, q=2, eps=0.5, sketch_kind="identity", seed=77
        )
        q_ident = range_finder_sketched(a, spec)
        q_classic = range_finder_classical(a, 4, 8, 2, seed=77)
        assert np.abs(q_ident - q_classic).max() <= 1e-12

    def test_full_capture_diagonal(self):
        a = np.diag([3.0, 2.0, 1.0])
        q = range_finder_classical(a, 3, 3, 0, seed=11)
        spec_err, _ = projection_residuals(a, q)
        assert spec_err <= 1e-8 * 3.0

    def test_certified_start_block_meets_bound(self):
        # deterministic implication: when the start block certifies as a
        # lam-regularized 1/2-spectral approximation, the projection error
        # obeys the 2*lam spectral bound.
        a = gen_polydecay(400, 200, seed=10)
        profile = SpectralProfile.from_matrix(a)
        k = 10
        lam = regularization_level(profile, k)
        bound_spec, bound_frob = gaussian_rangefinder_bound(profile, k)
        certified = 0
        for trial in range(12):
            sketch = make_sketch("gaussian", 200, 200, substream(2000, trial))
            omega = sketch.densify()
            report = certify_spectral_approx(a, sketch, lam, 0.5)
            if report.holds:
                certified += 1
                q = orthonormalize(a @ omega)
                spec_err, frob_err = projection_residuals(a, q)
                assert spec_err**2 <= bound_spec
                assert frob_err**2 <= bound_frob
        assert certified >= 6  # premise holds for most seeds at this block size

    def test_bound_ensemble_at_calibrated_block_size(self):
        # with a 4k Gaussian block the stated bounds hold in nearly every trial
        a = gen_polydecay(400, 200, seed=10)
        profile = SpectralProfile.from_matrix(a)
        k = 10
        bound_spec, bound_frob = gaussian_rangefinder_bound(profile, k)
        hits = 0
        for trial in range(20):
            q = range_finder_classical(
                a, k, GAUSSIAN_BLOCK_MULTIPLE * k, 0, seed=substream(3000, trial)
            )
            spec_err, frob_err = projection_residuals(a, q)
            hits += (spec_err**2 <= bound_spec) and (frob_err**2 <= bound_frob)
        assert hits >= 18


class TestRandsvd:
    def test_lossless_projection(self):
        a = random_lowrank(30, 20, rank=5, seed=12)
        q = orthonormalize(a)
        u, sigma, v = randsvd(a, q)
        recon = u @ np.diag(sigma) @ v.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)

    def test_residual_identity(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((60, 40))
        q = orthonormalize(rng.standard_normal((60, 10)))
        u, sigma, v = randsvd(a, q)
        approx_resid = np.linalg.norm(a - u @ np.diag(sigma) @ v.T)
        proj_resid = np.linalg.norm(a - q @ (q.T @ a))
        assert abs(approx_resid - proj_resid) <= 1e-10 * proj_resid
        spec_a = np.linalg.norm(a - u @ np.diag(sigma) @ v.T, 2)
        spec_p = np.linalg.norm(a - q @ (q.T @ a), 2)
        assert abs(spec_a - spec_p) <= 1e-10 * spec_p

    def test_rejects_non_orthonormal(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="orthonormal"):
            randsvd(rng.standard_normal((10, 5)), rng.standard_normal((10, 3)))


class TestLowrankFactorize:
    def test_identity_s2_is_exact_projection(self):
        # on a square input an identity sketch of r1 = n is also the identity S2 on m = n rows
        a = gen_polydecay(50, 50, seed=15)
        spec = RangeFinderSpec(k=5, l=8, r1=50, r2=10, q=1, eps=0.5, sketch_kind="identity", seed=16)
        result = lowrank_factorize(a, spec)
        yx_resid = np.linalg.norm(a - result.Y @ result.X)
        projector = result.Y @ (pinv(result.Y) @ a)
        proj_resid = np.linalg.norm(a - projector)
        assert abs(yx_resid - proj_resid) <= 1e-8 * max(proj_resid, 1.0)

    @pytest.mark.parametrize("kind,s", [("gaussian", 1), ("sign", 1), ("countsketch", 2), ("srht", 1)])
    def test_exact_rank_recovery(self, kind, s):
        a = random_lowrank(60, 45, rank=6, seed=17)
        spec = RangeFinderSpec(k=6, l=8, r1=24, r2=8, q=0, eps=0.5, sketch_kind=kind, seed=18, s=s)
        result = lowrank_factorize(a, spec)
        assert np.linalg.norm(a - result.Y @ result.X, 2) <= 1e-6 * np.linalg.norm(a, 2)

    def test_square_matrix_error_bound_ensemble(self):
        a = gen_polydecay(400, 400, seed=9)
        profile = SpectralProfile.from_matrix(a)
        k = 20
        l = 400 // k
        bound = np.sqrt(k + 1) * profile.values[k]
        hits = 0
        for trial in range(20):
            spec = countsketch_spec(k, l, 400, 400, seed=substream(600, trial))
            result = lowrank_factorize(a, spec)
            hits += np.linalg.norm(a - result.Y @ result.X, 2) <= bound
        assert hits >= 18

    def test_stage_timings_recorded(self):
        a = gen_polydecay(40, 30, seed=19)
        spec = RangeFinderSpec(k=3, l=5, r1=12, r2=6, q=1, eps=0.5, sketch_kind="sign", seed=20)
        result = lowrank_factorize(a, spec)
        assert set(result.elapsed) == {"sketch", "power", "regression"}
        assert all(t >= 0.0 for t in result.elapsed.values())


class TestNystromPsd:
    def test_exact_rank_psd_recovery(self):
        rng = np.random.default_rng(21)
        g = rng.standard_normal((40, 6))
        a = g @ g.T
        spec = RangeFinderSpec(k=6, l=8, r1=20, r2=8, q=0, eps=0.5, sketch_kind="gaussian", seed=22)
        ny = nystrom_psd(a, spec)
        approx = ny.C @ (pinv(ny.W) @ ny.C.T)
        assert np.linalg.norm(a - approx, 2) <= 1e-6 * np.linalg.norm(a, 2)

    def test_matches_half_power_range_finder(self):
        a = random_psd(80, seed=23)
        a_half = psd_sqrt(a)
        spec = RangeFinderSpec(
            k=5, l=8, r1=24, r2=10, q=2, eps=0.5, sketch_kind="countsketch", seed=24, s=2,
        )
        ny = nystrom_psd(a, spec)
        lhs = ny.C @ (pinv(ny.W) @ ny.C.T)
        q_basis = range_finder_sketched(a_half, spec)
        rhs = a_half @ (q_basis @ (q_basis.T @ a_half))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-7 * np.linalg.norm(a, 2)

    def test_stable_in_q(self):
        # Each W~ application is preceded by an orthonormalization; the
        # literal W~^q Omega collapsed to the top directions (rel_err 3.39
        # at q = 10 and 9.50 at q = 40, cond(W) 5e19).
        a = psd_polydecay(600, 1)
        sigma_next = 600 / 21  # eigenvalue n / (k + 1)
        errs, conds = {}, {}
        for q in (0, 2, 5, 10, 20, 40):
            spec = RangeFinderSpec(
                k=20, l=200, r1=200, r2=20, q=q, eps=0.5, sketch_kind="gaussian", seed=3
            )
            ny = nystrom_psd(a, spec)
            errs[q] = np.linalg.norm(a - ny.C @ (pinv(ny.W) @ ny.C.T), 2) / sigma_next - 1.0
            conds[q] = np.linalg.cond(ny.W)
        assert errs[10] <= 0.5 and errs[40] <= 0.5
        assert errs[40] <= 1.05 * errs[10]
        assert max(conds.values()) <= 1e6

    def test_psd_polydecay_error_bound_ensemble(self):
        a = psd_polydecay(300, seed=7)
        profile = SpectralProfile.from_matrix(a)
        k, l = 15, 20
        rhs = approximation_error_bound(profile, k, l, 0.5, squared=False)
        hits = 0
        for trial in range(20):
            spec = countsketch_spec(k, l, 300, 300, seed=substream(500, trial))
            ny = nystrom_psd(a, spec)
            resid = np.linalg.norm(a - ny.C @ (pinv(ny.W) @ ny.C.T), 2)
            hits += resid <= rhs
        assert hits >= 18

    def test_core_is_symmetric_psd(self):
        a = random_psd(50, seed=25)
        spec = RangeFinderSpec(k=4, l=6, r1=18, r2=8, q=1, eps=0.5, sketch_kind="sign", seed=26)
        ny = nystrom_psd(a, spec)
        w_norm = np.linalg.norm(ny.W, 2)
        assert np.abs(ny.W - ny.W.T).max() <= 1e-8 * w_norm
        assert np.linalg.eigvalsh(ny.W).min() >= -1e-8 * w_norm

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="not psd"):
            nystrom_psd(
                np.diag([1.0, -1.0]),
                RangeFinderSpec(k=1, l=1, r1=2, r2=1, q=0, eps=0.5, seed=0),
            )

    def test_rejects_asymmetric(self):
        rng = np.random.default_rng(27)
        with pytest.raises(ValueError, match="symmetric"):
            nystrom_psd(
                rng.standard_normal((5, 5)),
                RangeFinderSpec(k=1, l=2, r1=3, r2=2, q=0, eps=0.5, seed=0),
            )


def test_spec_validation():
    spec = RangeFinderSpec(k=5, l=3, r1=10, r2=8, q=0, eps=0.5, seed=0)
    with pytest.raises(ValueError, match="k <= l"):
        spec.validate(20, 20)
    spec = RangeFinderSpec(k=5, l=8, r1=10, r2=3, q=0, eps=0.5, seed=0)
    with pytest.raises(ValueError, match="r2"):
        spec.validate(20, 20)
    spec = RangeFinderSpec(k=5, l=8, r1=10, r2=8, q=0, eps=0.9, seed=0)
    with pytest.raises(ValueError, match="eps"):
        spec.validate(20, 20)
