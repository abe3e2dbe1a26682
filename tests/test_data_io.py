import numpy as np
import pytest
import scipy.linalg as sla

from skpower.data_io import (
    RECIPES,
    TrialRecord,
    gen_expdecay,
    gen_lowrank_plus_noise,
    gen_polydecay,
    load_matrix,
    read_binary,
    read_matrix_market,
    read_records_csv,
    write_binary,
    write_matrix_market,
    write_records_csv,
)


class TestGenerators:
    def test_polydecay_small_spectrum(self):
        a = gen_polydecay(4, 4, seed=0)
        np.testing.assert_allclose(
            sla.svdvals(a), [4.0, 2.0, 4.0 / 3.0, 1.0], rtol=1e-8
        )

    def test_polydecay_spectrum_seed_invariant(self):
        s1 = sla.svdvals(gen_polydecay(40, 25, seed=1))
        s2 = sla.svdvals(gen_polydecay(40, 25, seed=2))
        np.testing.assert_allclose(s1, s2, rtol=1e-8)

    def test_polydecay_matches_prescription(self):
        a = gen_polydecay(300, 150, seed=3)
        expected = 300.0 / np.arange(1.0, 151.0)
        np.testing.assert_allclose(sla.svdvals(a), expected, rtol=1e-7)

    def test_polydecay_deterministic(self):
        np.testing.assert_array_equal(gen_polydecay(20, 10, seed=4), gen_polydecay(20, 10, seed=4))

    def test_expdecay_rate_zero(self):
        a = gen_expdecay(30, 20, rate=0.0, seed=5)
        np.testing.assert_allclose(sla.svdvals(a), 1.0, rtol=1e-8)

    def test_expdecay_spectrum(self):
        a = gen_expdecay(200, 100, rate=0.07, seed=6)
        expected = np.exp(-0.07 * np.arange(100))
        np.testing.assert_allclose(sla.svdvals(a), expected, rtol=1e-7)

    def test_lowrank_noise_zero_exact_rank(self):
        a = gen_lowrank_plus_noise(50, 30, r=7, noise=0.0, seed=7)
        sv = sla.svdvals(a)
        np.testing.assert_allclose(sv[:7], 1.0, rtol=1e-8)
        assert sv[7] <= 1e-10

    def test_lowrank_plus_noise_spectrum(self):
        a = gen_lowrank_plus_noise(200, 100, r=5, noise=1e-3, seed=8)
        sv = sla.svdvals(a)
        np.testing.assert_allclose(sv[:5], 1.0, rtol=5e-2)
        assert sv[5] <= 1e-3 * (np.sqrt(200) + np.sqrt(100)) * 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_polydecay(0, 5, seed=0)
        with pytest.raises(ValueError):
            gen_lowrank_plus_noise(10, 5, r=6, noise=0.0, seed=0)


class TestLoadMatrix:
    def test_recipes_run_their_generators(self):
        np.testing.assert_array_equal(load_matrix("polydecay:20x10:seed=4"), gen_polydecay(20, 10, 4))
        np.testing.assert_array_equal(load_matrix("expdecay:20x10"), gen_expdecay(20, 10, 0.1, 0))
        np.testing.assert_array_equal(
            load_matrix("lowrank:20x10:noise=0.01:rank=3:seed=2"),
            gen_lowrank_plus_noise(20, 10, 3, 0.01, 2),
        )

    def test_files_by_extension(self, tmp_path):
        a = np.random.default_rng(11).standard_normal((6, 4))
        write_binary(a, tmp_path / "a.skpw")
        write_matrix_market(a, tmp_path / "a.mtx")
        np.testing.assert_array_equal(load_matrix(str(tmp_path / "a.skpw")), a)
        np.testing.assert_array_equal(load_matrix(str(tmp_path / "a.mtx")), a)

    @pytest.mark.parametrize(
        "source, segment",
        [
            ("polydecay:6x4:sed=7", "sed=7"),  # a misspelled key
            ("polydecay:6x4:seed=0:rate=5", "rate=5"),  # a key of another kind
            ("expdecay:6x4:seed", "seed"),  # a segment with no '='
        ],
    )
    def test_bad_recipe_option_rejected(self, source, segment):
        kind = source.split(":")[0]
        with pytest.raises(ValueError) as info:
            load_matrix(source)
        assert repr(segment) in str(info.value)
        assert ", ".join(RECIPES[kind].options) in str(info.value)


class TestMatrixMarket:
    def test_array_format_column_major(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        np.testing.assert_array_equal(read_matrix_market(path), [[1.0, 3.0], [2.0, 4.0]])

    def test_coordinate_single_entry(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 5.0\n")
        out = read_matrix_market(path)
        expected = np.zeros((3, 3))
        expected[0, 0] = 5.0
        np.testing.assert_array_equal(out, expected)

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 3.0\n"
        )
        np.testing.assert_array_equal(read_matrix_market(path), [[1.0, 3.0], [3.0, 0.0]])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((20, 10))
        path = tmp_path / "r.mtx"
        write_matrix_market(a, path)
        back = read_matrix_market(path)
        assert np.abs(back - a).max() <= 1e-15

    def test_symmetric_array_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((8, 8))
        a = g + g.T
        path = tmp_path / "sym.mtx"
        write_matrix_market(a, path, symmetric=True)
        np.testing.assert_array_equal(read_matrix_market(path), a)

    def test_malformed_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%NotMatrixMarket\n1 1\n1\n")
        with pytest.raises(ValueError, match=r":1: malformed"):
            read_matrix_market(path)

    def test_out_of_bounds_index_reports_line(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(ValueError, match=r":3: .*out of bounds"):
            read_matrix_market(path)

    def test_non_real_field_rejected(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1\n")
        with pytest.raises(ValueError, match="real"):
            read_matrix_market(path)

    def test_non_real_value_reports_line(self, tmp_path):
        path = tmp_path / "val.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 2\n1.0\nbogus\n")
        with pytest.raises(ValueError, match=r":4: non-real"):
            read_matrix_market(path)


class TestBinaryCache:
    def test_one_by_one_is_29_bytes(self, tmp_path):
        path = tmp_path / "one.skpw"
        write_binary(np.array([[7.0]]), path)
        assert path.stat().st_size == 29

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((50, 50))
        path = tmp_path / "m.skpw"
        write_binary(a, path)
        np.testing.assert_array_equal(read_binary(path), a)

    def test_truncated_file_errors(self, tmp_path):
        path = tmp_path / "t.skpw"
        write_binary(np.ones((4, 4)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_binary(path)

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "b.skpw"
        write_binary(np.ones((2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            read_binary(path)
        blob[:4] = b"SKPW"
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            read_binary(path)


def _random_record(rng, trial, q_iter, time_ms):
    return TrialRecord(
        method="sketched-randsvd",
        dataset="unit",
        m=100,
        n=50,
        k=10,
        l=20,
        r1=20,
        r2=10,
        sketch_kind="countsketch",
        s=1,
        q_iter=q_iter,
        eps=0.5,
        seed=int(rng.integers(0, 2**63)),
        trial=trial,
        time_ms=time_ms,
        spec_err=float(rng.uniform(0, 10)),
        frob_err=float(rng.uniform(0, 30)),
        rel_err=float(rng.uniform(-1, 3)),
    )


class TestRecordsCsv:
    def test_empty_sequence_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv([], path)
        assert path.read_text().strip() == (
            "method,dataset,m,n,k,l,r1,r2,sketch_kind,s,q_iter,eps,seed,trial,time_ms,"
            "spec_err,frob_err,rel_err"
        )
        assert read_records_csv(path) == []

    def test_header_without_the_sketch_kind_names_it(self, tmp_path):
        # the 17-column header of rows that did not record their sketch kind
        path = tmp_path / "old.csv"
        path.write_text(
            "method,dataset,m,n,k,l,r1,r2,s,q_iter,eps,seed,trial,time_ms,spec_err,frob_err,rel_err\n"
        )
        with pytest.raises(ValueError, match=r"missing \['sketch_kind'\], unexpected \[\]"):
            read_records_csv(path)

    def test_header_with_an_extra_column_names_it(self, tmp_path):
        path = tmp_path / "extra.csv"
        write_records_csv([], path)
        path.write_text(path.read_text().strip() + ",extra\n")
        with pytest.raises(ValueError, match=r"missing \[\], unexpected \['extra'\]"):
            read_records_csv(path)

    def test_reordered_header_says_so(self, tmp_path):
        path = tmp_path / "swapped.csv"
        write_records_csv([], path)
        path.write_text(path.read_text().replace("method,dataset,", "dataset,method,", 1))
        with pytest.raises(ValueError, match=r"\['dataset', 'method', .*\], columns out of order"):
            read_records_csv(path)

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(12)
        records = []
        for trial in range(10):
            t = 0.0
            for q in range(10):
                t += float(rng.uniform(0, 5))
                records.append(_random_record(rng, trial, q, t))
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_monotonicity_enforced_on_read(self, tmp_path):
        rng = np.random.default_rng(13)
        records = [
            _random_record(rng, 0, 0, 5.0),
            _random_record(rng, 0, 1, 4.0),
        ]
        records[1].seed = records[0].seed
        path = tmp_path / "bad.csv"
        write_records_csv(records, path)
        with pytest.raises(ValueError, match="time_ms"):
            read_records_csv(path)
