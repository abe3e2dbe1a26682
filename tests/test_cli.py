import numpy as np
import pytest
import scipy.linalg as sla

from conftest import psd_polydecay
from skpower.cli import main
from skpower.data_io import load_matrix, read_binary, read_records_csv, write_binary
from skpower.diagnostics import projection_residuals
from skpower.power import (
    _METHODS,
    RangeFinderSpec,
    choose_q,
    lowrank_factorize,
    nystrom_psd,
    range_finder_classical,
    range_finder_sketched,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    values = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key] = value
    return values


class TestGen:
    def test_creates_readable_file(self, tmp_path, capsys):
        path = tmp_path / "a.skpw"
        code, out, _ = run_cli(
            capsys, "gen", "polydecay", "--m", "40", "--n", "20", "--seed", "7", "--out", str(path)
        )
        assert code == 0
        a = read_binary(path)
        assert a.shape == (40, 20)

    def test_deterministic_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "x.skpw", tmp_path / "y.skpw"
        for p in (p1, p2):
            code, _, _ = run_cli(
                capsys, "gen", "polydecay", "--m", "30", "--n", "15", "--seed", "9", "--out", str(p)
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_spectrum_matches_prescription(self, tmp_path, capsys):
        path = tmp_path / "p.skpw"
        run_cli(capsys, "gen", "polydecay", "--m", "40", "--n", "20", "--seed", "3", "--out", str(path))
        sv = sla.svdvals(read_binary(path))
        np.testing.assert_allclose(sv, 40.0 / np.arange(1.0, 21.0), rtol=1e-8)

    @pytest.mark.parametrize(
        "kind, options",
        [("polydecay", []), ("expdecay", ["--rate", "0.2"]), ("lowrank", ["--rank", "4", "--noise", "0"])],
    )
    def test_printed_spectrum_is_the_written_one(self, tmp_path, capsys, kind, options):
        path = tmp_path / "g.skpw"
        code, out, _ = run_cli(
            capsys, "gen", kind, "--m", "30", "--n", "20", "--seed", "4", *options, "--out", str(path)
        )
        assert code == 0
        values = parse_kv(out)
        sv = np.linalg.svd(read_binary(path), compute_uv=False)
        top = [float(v) for v in values["prescribed_top_singular_values"].strip("[]").split(", ") if v != "..."]
        np.testing.assert_allclose(top, sv[: len(top)], rtol=1e-10)
        # lowrank leaves min(m, n) - rank singular values at zero, up to rounding
        np.testing.assert_allclose(
            float(values["prescribed_sigma_min"]), sv[-1], rtol=1e-10, atol=1e-12 * sv[0]
        )

    def test_recipe_loads_the_generated_file(self, tmp_path, capsys):
        path = tmp_path / "e.skpw"
        code, _, _ = run_cli(
            capsys, "gen", "expdecay", "--m", "30", "--n", "20", "--rate", "0.2", "--seed", "4",
            "--out", str(path),
        )
        assert code == 0
        np.testing.assert_array_equal(load_matrix("expdecay:30x20:rate=0.2:seed=4"), read_binary(path))

    @pytest.mark.parametrize(
        "kind, options, recipe",
        [
            ("polydecay", [], "polydecay:30x20:seed=0"),
            ("lowrank", ["--noise", "0.5"], "lowrank:30x20:rank=10:noise=0.5"),
        ],
    )
    def test_omitted_flags_take_the_kind_defaults(self, tmp_path, capsys, kind, options, recipe):
        path = tmp_path / "d.skpw"
        code, _, _ = run_cli(capsys, "gen", kind, "--m", "30", "--n", "20", *options, "--out", str(path))
        assert code == 0
        np.testing.assert_array_equal(load_matrix(recipe), read_binary(path))

    def test_rejects_an_option_of_another_kind(self, tmp_path, capsys):
        path = tmp_path / "x.skpw"
        code, _, err = run_cli(
            capsys, "gen", "polydecay", "--m", "6", "--n", "4", "--rate", "5", "--rank", "2",
            "--out", str(path),
        )
        assert code == 2 and "bad polydecay option 'rate=5.0'" in err and "one of seed" in err
        assert not path.exists()

    def test_usage_error_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", "polydecay", "--m", "10")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("flag", ["--m", "--n"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_dimension_is_a_usage_error(self, tmp_path, capsys, flag, value):
        dims = {"--m": "6", "--n": "4", flag: value}
        out = tmp_path / "g.skpw"
        code, _, err = run_cli(capsys, "gen", "polydecay", "--m", dims["--m"], "--n", dims["--n"], "--out", str(out))
        assert code == 1
        assert f"argument {flag}: must be an integer >= 1, got '{value}'" in err
        assert not out.exists()


class TestRun:
    def test_exact_rank_input(self, tmp_path, capsys):
        path = tmp_path / "lr.skpw"
        run_cli(
            capsys, "gen", "lowrank", "--m", "60", "--n", "40", "--rank", "5",
            "--seed", "2", "--out", str(path),
        )
        code, out, _ = run_cli(
            capsys, "run", "--data", str(path), "--method", "sketched-randsvd",
            "--k", "5", "--r1", "20", "--r2", "8", "--q", "0", "--sketch", "gaussian",
            "--seed", "5",
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["spec_err"]) <= 1e-6  # top singular value is 1

    def test_deterministic_output(self, tmp_path, capsys):
        path = tmp_path / "d.skpw"
        run_cli(capsys, "gen", "polydecay", "--m", "50", "--n", "25", "--seed", "4", "--out", str(path))
        argv = [
            "run", "--data", str(path), "--method", "lowrank-factorize",
            "--k", "4", "--l", "8", "--eps", "0.5", "--seed", "21", "--s", "1",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        v1, v2 = parse_kv(out1), parse_kv(out2)
        for key in ("spec_err", "frob_err", "rel_err"):
            assert v1[key] == v2[key]

    def test_residuals_match_recomputation_from_saved_factors(self, tmp_path, capsys):
        path = tmp_path / "m.skpw"
        run_cli(capsys, "gen", "polydecay", "--m", "60", "--n", "30", "--seed", "6", "--out", str(path))
        prefix = str(tmp_path / "fac")
        code, out, _ = run_cli(
            capsys, "run", "--data", str(path), "--method", "sketched-randsvd",
            "--k", "5", "--l", "10", "--eps", "0.5", "--seed", "13",
            "--save-prefix", prefix,
        )
        assert code == 0
        values = parse_kv(out)
        a = read_binary(path)
        u = read_binary(prefix + ".U.skpw")
        sigma = read_binary(prefix + ".sigma.skpw").ravel()
        v = read_binary(prefix + ".V.skpw")
        resid = a - u @ np.diag(sigma) @ v.T
        assert abs(np.linalg.norm(resid) - float(values["frob_err"])) <= 1e-8 * max(
            float(values["frob_err"]), 1.0
        )
        assert abs(np.linalg.norm(resid, 2) - float(values["spec_err"])) <= 1e-8 * max(
            float(values["spec_err"]), 1.0
        )

    @pytest.mark.parametrize("method, names", [("lowrank-factorize", ("Y", "X")), ("nystrom", ("C", "W"))])
    def test_saved_factors_are_the_library_factors(self, tmp_path, capsys, method, names):
        # a method that is not a basis saves its own factors, bit for bit those of the library function
        path = tmp_path / "psd.skpw"
        write_binary(psd_polydecay(40, seed=7), path)
        prefix = str(tmp_path / "f")
        code, out, _ = run_cli(
            capsys, "run", "--data", str(path), "--method", method, "--k", "4", "--l", "8",
            "--r1", "12", "--r2", "8", "--q", "2", "--sketch", "gaussian", "--seed", "5", "--save-prefix", prefix,
        )
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("saved=")] == [
            f"saved={prefix}.{name}.skpw" for name in names
        ]
        a = read_binary(path)
        spec = RangeFinderSpec(k=4, l=8, r1=12, r2=8, q=2, eps=0.5, sketch_kind="gaussian", seed=5)
        library = lowrank_factorize(a, spec) if method == "lowrank-factorize" else nystrom_psd(a, spec)
        for name in names:
            assert np.array_equal(read_binary(f"{prefix}.{name}.skpw"), getattr(library, name))

    @pytest.mark.parametrize("recipe", ["polydecay:80x50:seed=2", "polydecay:50x80:seed=2"])
    def test_basis_is_judged_as_its_projection(self, capsys, recipe):
        code, out, _ = run_cli(
            capsys, "run", "--data", recipe, "--method", "sketched-randsvd", "--k", "4",
            "--r1", "20", "--r2", "8", "--q", "6", "--sketch", "gaussian", "--seed", "5",
        )
        assert code == 0
        a = load_matrix(recipe)
        spec = RangeFinderSpec(k=4, l=50, r1=20, r2=8, q=6, eps=0.5, sketch_kind="gaussian", seed=5)
        spec_err, frob_err = projection_residuals(a, range_finder_sketched(a, spec))
        values = parse_kv(out)
        assert values["spec_err"] == f"{spec_err:.12g}"
        assert values["frob_err"] == f"{frob_err:.12g}"

    def test_no_stabilize_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--data", "polydecay:80x50:seed=2", "--method", "sketched-randsvd",
            "--k", "4", "--l", "8", "--no-stabilize",
        )
        assert code == 1 and out == "" and "--no-stabilize" in err

    def test_unsketched_baseline_method(self, tmp_path, capsys):
        path = tmp_path / "b.skpw"
        run_cli(capsys, "gen", "polydecay", "--m", "40", "--n", "40", "--seed", "8", "--out", str(path))
        code, out, _ = run_cli(
            capsys, "run", "--data", str(path), "--method", "lowrank-factorize-unsketched",
            "--k", "4", "--l", "8", "--eps", "0.5", "--seed", "3",
        )
        assert code == 0
        assert float(parse_kv(out)["frob_err"]) >= 0.0

    def test_classical_baselines_derive_the_same_q(self, capsys):
        base = ["run", "--data", "polydecay:300x200:seed=5", "--k", "4", "--l", "8",
                "--sketch", "gaussian", "--c", "0.5"]
        printed = {}
        for method in ("classical-randsvd", "lowrank-factorize-unsketched"):
            code, out, _ = run_cli(capsys, *base, "--method", method)
            assert code == 0
            printed[method] = parse_kv(out)
        # both power all 200 columns of A: q = choose_q(0.5, min(m, n)), not sized from r1
        assert printed["classical-randsvd"]["q"] == str(choose_q(0.5, 200))
        assert printed["lowrank-factorize-unsketched"]["q"] == str(choose_q(0.5, 200))
        code, out, _ = run_cli(capsys, *base, "--method", "lowrank-factorize-unsketched", "--q", "2")
        assert code == 0
        assert parse_kv(out)["q"] == "2"

    def test_classical_randsvd_reports_the_identity_sketch(self, tmp_path, capsys):
        recipe = "polydecay:50x30:seed=4"
        prefix = str(tmp_path / "cl")
        code, out, _ = run_cli(
            capsys, "run", "--data", recipe, "--method", "classical-randsvd",
            "--k", "4", "--l", "8", "--eps", "0.5", "--seed", "6", "--save-prefix", prefix,
        )
        assert code == 0
        values = parse_kv(out)
        # no primary sketch is applied: the method runs on all n columns
        assert (values["sketch"], values["r1"], values["s"]) == ("identity", "30", "1")
        a = load_matrix(recipe)
        q_basis = range_finder_classical(a, 4, 8, int(values["q"]), seed=6)
        spec_err, frob_err = projection_residuals(a, q_basis)
        assert values["spec_err"] == f"{spec_err:.12g}"
        assert values["frob_err"] == f"{frob_err:.12g}"
        u = read_binary(prefix + ".U.skpw")
        np.testing.assert_allclose(u @ (u.T @ a), q_basis @ (q_basis.T @ a), atol=1e-10)

    def test_classical_randsvd_sizes_no_identity_sketch(self, capsys):
        # a method that applies no sketch takes r1 = n without asking a sizing rule
        code, out, _ = run_cli(
            capsys, "run", "--data", "polydecay:60x40:seed=1", "--method", "classical-randsvd",
            "--sketch", "identity", "--k", "4", "--l", "8",
        )
        assert code == 0
        values = parse_kv(out)
        assert (values["sketch"], values["r1"]) == ("identity", "40")

    def test_an_identity_sketch_is_sized_at_n(self, capsys):
        # the identity's only valid size is r1 = n: a sketched method on it powers A itself from the
        # start block the classical baseline draws, so both report the same errors
        base = ("run", "--data", "polydecay:60x40:seed=1", "--sketch", "identity", "--k", "4", "--l", "8")
        printed = {}
        for method in ("sketched-randsvd", "classical-randsvd"):
            code, out, _ = run_cli(capsys, *base, "--method", method)
            assert code == 0
            printed[method] = parse_kv(out)
        sketched, classical = printed["sketched-randsvd"], printed["classical-randsvd"]
        assert (sketched["sketch"], sketched["r1"]) == ("identity", "40")
        assert [sketched[key] for key in ("spec_err", "frob_err", "rel_err")] == [
            classical[key] for key in ("spec_err", "frob_err", "rel_err")
        ]

    def test_an_identity_regression_needs_a_square_input(self, capsys):
        flags = ("--method", "lowrank-factorize", "--sketch", "identity", "--k", "4", "--l", "8")
        code, out, _ = run_cli(capsys, "run", "--data", "polydecay:40x40:seed=1", *flags)
        assert code == 0
        assert parse_kv(out)["r1"] == "40"
        # S2 maps the m = 60 rows with the size r1 = n = 40, which no identity has
        code, _, err = run_cli(capsys, "run", "--data", "polydecay:60x40:seed=1", *flags)
        assert code == 2
        assert "identity sketch needs r == n, got n=60, r=40" in err

    @pytest.mark.parametrize(
        "method, assembly",
        [
            ("classical-randsvd", "basis"),
            ("sketched-randsvd", "basis"),
            ("lowrank-factorize", "regression"),
            ("lowrank-factorize-unsketched", "regression"),
            ("nystrom", "contract"),
        ],
    )
    def test_reports_the_engine_stage_timings(self, tmp_path, capsys, method, assembly):
        path = tmp_path / "psd.skpw"
        write_binary(psd_polydecay(40, seed=3), path)
        code, out, _ = run_cli(
            capsys, "run", "--data", str(path), "--method", method,
            "--k", "4", "--l", "8", "--eps", "0.5", "--seed", "6",
        )
        assert code == 0
        stages = {key for key in parse_kv(out) if key.startswith("stage_")}
        expected = {
            "stage_load_ms", "stage_sketch_ms", "stage_power_ms", f"stage_{assembly}_ms",
            "stage_profile_ms", "stage_error_ms",
        }
        if method.endswith("randsvd"):
            expected.add("stage_svd_assembly_ms")
        assert stages == expected

    def test_nystrom_run(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((30, 30))
        write_binary((g @ g.T) / 30.0, tmp_path / "psd.skpw")
        code, out, _ = run_cli(
            capsys, "run", "--data", str(tmp_path / "psd.skpw"), "--method", "nystrom",
            "--k", "4", "--r1", "15", "--r2", "8", "--q", "1", "--sketch", "gaussian",
            "--seed", "2",
        )
        assert code == 0
        assert float(parse_kv(out)["spec_err"]) > 0.0

    def test_nystrom_run_decomposes_the_input_once(self, tmp_path, capsys, monkeypatch):
        # the profile takes the psd check's eigenvalues
        a = psd_polydecay(30, seed=6)
        write_binary(a, tmp_path / "psd.skpw")
        decomposed = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: decomposed.append(np.array_equal(x, a)) or real(x))
        code, _, _ = run_cli(
            capsys, "run", "--data", str(tmp_path / "psd.skpw"), "--method", "nystrom", "--k", "4", "--l", "8",
        )
        assert code == 0 and decomposed.count(True) == 1

    @pytest.mark.parametrize("method", ["sketched-randsvd", "classical-randsvd"])
    def test_basis_run_projects_once(self, capsys, monkeypatch, method):
        # the residuals and the randomized SVD share one Q^T A and one check of Q^T Q - I
        import skpower.diagnostics as diag_mod
        import skpower.linalg as linalg_mod

        projected = []
        for module in (diag_mod, linalg_mod):
            real = module._projection
            monkeypatch.setattr(module, "_projection", lambda a, q, real=real: projected.append(q.shape) or real(a, q))
        code, out, _ = run_cli(
            capsys, "run", "--data", "polydecay:60x40:seed=1", "--method", method, "--k", "4", "--l", "8",
        )
        assert code == 0 and projected == [(60, 8)]

    def test_k_at_min_dimension_prints_nan_rel_err(self, capsys):
        # sigma_(k+1) does not exist at k = min(m, n): the run reports no relative error
        code, out, _ = run_cli(
            capsys, "run", "--data", "polydecay:20x10:seed=1", "--method", "sketched-randsvd",
            "--k", "10", "--r1", "10", "--r2", "10", "--q", "1",
        )
        assert code == 0
        values = parse_kv(out)
        assert values["rel_err"] == "nan" and float(values["spec_err"]) >= 0.0

    @pytest.mark.parametrize("r2, rank", [(None, 20), ("10", 10)])
    def test_prints_the_rank_rel_err_judges(self, capsys, r2, rank):
        # r2 = 2k by default: a rank-2k approximation's residual can fall below sigma_(k+1)
        argv = ["run", "--data", "polydecay:400x200:seed=1", "--method", "sketched-randsvd",
                "--k", "10", "--l", "40", "--seed", "2"]
        code, out, _ = run_cli(capsys, *argv, *(["--r2", r2] if r2 else []))
        assert code == 0
        values = parse_kv(out)
        assert values["rank"] == str(rank)
        if rank > 10:
            assert float(values["rel_err"]) < 0.0
        else:  # the exact norm of a rank-k residual is at least sigma_(k+1)
            assert float(values["rel_err"]) >= -1e-12

    def test_non_psd_nystrom_input_fails_before_the_profile(self, capsys, monkeypatch):
        import skpower.cli as cli_mod

        def no_profile(cls, a):
            raise AssertionError("the profile was computed for a rejected input")

        monkeypatch.setattr(cli_mod.diagnostics.SpectralProfile, "from_matrix", classmethod(no_profile))
        code, _, err = run_cli(
            capsys, "run", "--data", "polydecay:40x40:seed=1", "--method", "nystrom", "--k", "4", "--l", "8",
        )
        assert code == 2 and "not symmetric" in err

    def test_missing_file_is_runtime_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--data", "/nonexistent.skpw", "--method", "nystrom", "--k", "2"
        )
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("method", list(_METHODS))
    def test_printed_errors_come_from_diagnostics(self, tmp_path, capsys, monkeypatch, method):
        # wiring contract: the CLI reports exactly what the diagnostics
        # module computed, for every method
        import skpower.cli as cli_mod

        path = tmp_path / "w.skpw"
        write_binary(psd_polydecay(30, seed=1), path)
        sentinel = (123.25, 456.5)
        monkeypatch.setattr(
            cli_mod.diagnostics, "_exact_residuals", lambda a, left, right, basis_dev: sentinel
        )
        code, out, _ = run_cli(
            capsys, "run", "--data", str(path), "--method", method,
            "--k", "3", "--l", "6", "--seed", "2", "--s", "1",
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["spec_err"]) == sentinel[0]
        assert float(values["frob_err"]) == sentinel[1]


class TestVerify:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_trials_is_a_usage_error(self, tmp_path, capsys, value):
        # no trial is no verification: not a division by zero, nor a pass at threshold 0
        path = tmp_path / "t.skpw"
        run_cli(capsys, "gen", "polydecay", "--m", "20", "--n", "10", "--seed", "1", "--out", str(path))
        code, out, err = run_cli(
            capsys, "verify", "--data", str(path), "--sketch", "identity", "--r", "10",
            "--k", "2", "--trials", value, "--threshold", "0",
        )
        assert code == 1 and out == ""
        assert f"argument --trials: must be an integer >= 1, got '{value}'" in err

    def test_identity_sketch_always_passes(self, tmp_path, capsys):
        path = tmp_path / "v.skpw"
        run_cli(capsys, "gen", "polydecay", "--m", "50", "--n", "30", "--seed", "1", "--out", str(path))
        code, out, _ = run_cli(
            capsys, "verify", "--data", str(path), "--sketch", "identity", "--r", "30",
            "--k", "5", "--eps", "0.5", "--trials", "5",
        )
        assert code == 0
        assert float(parse_kv(out)["pass_rate"]) == 1.0

    def test_eps_zero_with_real_sketch_fails(self, tmp_path, capsys):
        path = tmp_path / "v0.skpw"
        run_cli(capsys, "gen", "polydecay", "--m", "50", "--n", "30", "--seed", "1", "--out", str(path))
        code, out, _ = run_cli(
            capsys, "verify", "--data", str(path), "--sketch", "gaussian", "--r", "20",
            "--k", "5", "--eps", "0.0", "--trials", "5",
        )
        assert code == 3
        assert float(parse_kv(out)["pass_rate"]) == 0.0

    def test_runs_above_two_thousand_rows(self, tmp_path, capsys):
        # the certifier works on the Gram of the smaller side: no row cap
        path = tmp_path / "tall.skpw"
        run_cli(capsys, "gen", "polydecay", "--m", "2100", "--n", "20", "--seed", "1", "--out", str(path))
        code, out, _ = run_cli(
            capsys, "verify", "--data", str(path), "--sketch", "identity", "--r", "20",
            "--k", "4", "--trials", "2",
        )
        assert code == 0
        assert float(parse_kv(out)["pass_rate"]) == 1.0

    def test_gram_decomposed_once_per_run(self, capsys, monkeypatch):
        # the whitening depends on the matrix alone: one eigh for all trials
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda x: calls.append(x.shape) or real(x))
        code, out, _ = run_cli(
            capsys, "verify", "--data", "polydecay:60x40:seed=1", "--sketch", "countsketch", "--r", "20",
            "--k", "4", "--trials", "3", "--threshold", "0",
        )
        assert code == 0 and calls == [(40, 40)]
        assert float(parse_kv(out)["trials"]) == 3


class TestBench:
    def test_bench_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--data", "polydecay:80x40:seed=2",
            "--methods", "sketched-randsvd", "--k", "4", "--l-values", "12",
            "--q-max", "1", "--trials", "2", "--seed", "3", "--out", str(out_csv),
        )
        assert code == 0
        records = read_records_csv(out_csv)
        assert len(records) == 4  # 2 trials x q in {0, 1}

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        out_csv = tmp_path / "o.csv"
        cfg.write_text(
            "dataset = polydecay:60x30:seed=5\n"
            "methods = classical-randsvd\n"
            "k = 3\n"
            "l_values = 6\n"
            "q_max = 0\n"
            "trials = 4\n"
            f"output = {out_csv}\n"
        )
        code, _, _ = run_cli(capsys, "bench", "--config", str(cfg), "--trials", "1")
        assert code == 0
        assert len(read_records_csv(out_csv)) == 1

    def test_k_at_min_dimension_fails_before_any_series(self, tmp_path, capsys):
        out_csv = tmp_path / "k.csv"
        code, _, err = run_cli(
            capsys, "bench", "--data", "polydecay:20x10:seed=1", "--k", "10", "--l-values", "10",
            "--out", str(out_csv),
        )
        assert code == 2 and "sigma_(k+1)" in err and "k must be in [1, 9], got 10" in err
        assert not out_csv.exists()

    def test_verbose_reports_each_series(self, tmp_path, capsys):
        out_csv = tmp_path / "v.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--data", "polydecay:60x40:seed=2",
            "--methods", "sketched-randsvd,classical-randsvd",
            "--k", "4", "--l-values", "8,12", "--q-max", "1", "--trials", "2", "--seed", "3",
            "--out", str(out_csv), "--verbose",
        )
        assert code == 0
        done = [line.split() for line in out.splitlines() if line.startswith("done ")]
        methods = ("sketched-randsvd", "classical-randsvd")
        series = [(m, l, t) for m in methods for l in (8, 12) for t in (0, 1)]
        assert [line[1:4] for line in done] == [[f"method={m}", f"l={l}", f"trial={t}"] for m, l, t in series]
        assert all(line[4] == "q_max=1" for line in done)
        last = {(r.method, r.l, r.trial): r for r in read_records_csv(out_csv)}  # the last row of each series
        assert [float(line[5].split("=")[1]) for line in done] == [
            pytest.approx(last[key].time_ms, abs=0.06) for key in series
        ]

    @pytest.mark.parametrize("l", ["50", "3"])
    def test_l_outside_k_to_min_dimension_is_rejected(self, tmp_path, capsys, l):
        out_csv = tmp_path / "over.csv"
        code, _, err = run_cli(
            capsys, "bench", "--data", "polydecay:60x40:seed=1", "--methods", "sketched-randsvd",
            "--k", "4", "--l-values", l, "--out", str(out_csv),
        )
        assert code == 2 and "need 1 <= k <= l <= min(m, n)" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("flag, value, low", [("--trials", "0", 1), ("--workers", "0", 1), ("--q-max", "-1", 0)])
    def test_out_of_range_count_is_a_usage_error(self, tmp_path, capsys, flag, value, low):
        # the same exit code as verify --trials 0; a config-file value is checked by BenchConfig (exit 2)
        out_csv = tmp_path / "bad.csv"
        code, out, err = run_cli(
            capsys, "bench", "--data", "polydecay:60x40:seed=1", "--k", "4", "--l-values", "8",
            flag, value, "--out", str(out_csv),
        )
        assert code == 1 and out == ""
        assert f"argument {flag}: must be an integer >= {low}, got '{value}'" in err
        assert not out_csv.exists()

    def test_out_of_range_config_value_is_a_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"dataset = polydecay:60x40:seed=1\nk = 4\nl_values = 8\ntrials = 0\noutput = {tmp_path / 'z.csv'}\n")
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 2 and "trials must be >= 1" in err
        assert not (tmp_path / "z.csv").exists()

    def test_missing_dataset_is_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--k", "4")
        assert code == 2 and "dataset" in err
