import math
import tracemalloc

import numpy as np
import pytest

from skpower.data_io import gen_polydecay
from skpower.power import randsvd, range_finder_classical
from skpower.sketching import (
    SKETCH_KINDS,
    _kron_split,
    _sylvester,
    countsketch_size,
    make_sketch,
    sketch_size,
    substream,
)

RANDOM_KINDS = [("gaussian", None), ("sign", None), ("countsketch", 3), ("srht", None)]


class TestConstruction:
    def test_countsketch_one_nonzero_per_row(self):
        s = make_sketch("countsketch", 4, 2, seed=5, s=1)
        dense = s.densify()
        for row in dense:
            nz = row[row != 0.0]
            assert len(nz) == 1 and abs(nz[0]) == 1.0

    def test_countsketch_row_structure(self):
        s = make_sketch("countsketch", 40, 12, seed=6, s=4)
        dense = s.densify()
        assert np.all((dense != 0).sum(axis=1) == 4)
        nz = dense[dense != 0.0]
        np.testing.assert_array_equal(np.abs(nz), 0.5)
        np.testing.assert_array_equal((dense**2).sum(axis=1), 1.0)

    def test_gaussian_scaling_reproducible(self):
        s = make_sketch("gaussian", 3, 3, seed=17)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[17]))
        expected = rng.standard_normal((3, 3)) / math.sqrt(3)
        np.testing.assert_array_equal(s.densify(), expected)

    def test_deterministic_in_seed(self):
        for kind, s in RANDOM_KINDS:
            a = make_sketch(kind, 24, 8, seed=99, s=s).densify()
            b = make_sketch(kind, 24, 8, seed=99, s=s).densify()
            np.testing.assert_array_equal(a, b)
            c = make_sketch(kind, 24, 8, seed=100, s=s).densify()
            assert not np.array_equal(a, c)

    def test_srht_column_norms(self):
        # power-of-two n: no padding, column squared norms exactly n/r
        s = make_sketch("srht", 8, 4, seed=3)
        dense = s.densify()
        np.testing.assert_array_equal((dense**2).sum(axis=0), 2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_sketch("countsketch", 10, 4, seed=0, s=5)
        with pytest.raises(ValueError):
            make_sketch("gaussian", 10, 0, seed=0)
        with pytest.raises(ValueError):
            make_sketch("nope", 10, 4, seed=0)
        with pytest.raises(ValueError):
            make_sketch("identity", 10, 4, seed=0)

    def test_densify_cap(self):
        s = make_sketch("countsketch", 10**5, 200, seed=0, s=1)
        with pytest.raises(ValueError, match="cap"):
            s.densify()


class TestApply:
    @pytest.mark.parametrize("kind,s", RANDOM_KINDS)
    def test_identity_input_gives_densify(self, kind, s):
        op = make_sketch(kind, 20, 7, seed=11, s=s)
        np.testing.assert_array_equal(op.apply_right(np.eye(20)), op.densify())
        np.testing.assert_array_equal(op.apply_left_transpose(np.eye(20)), op.densify().T)

    @pytest.mark.parametrize("kind,s", RANDOM_KINDS)
    def test_zero_input(self, kind, s):
        op = make_sketch(kind, 20, 7, seed=11, s=s)
        np.testing.assert_array_equal(op.apply_right(np.zeros((5, 20))), np.zeros((5, 7)))

    @pytest.mark.parametrize("kind,s", RANDOM_KINDS)
    def test_matches_dense_oracle(self, kind, s):
        rng = np.random.default_rng(12)
        op = make_sketch(kind, 200, 40, seed=21, s=4 if kind == "countsketch" else s)
        a = rng.standard_normal((50, 200))
        fast = op.apply_right(a)
        dense = a @ op.densify()
        assert np.abs(fast - dense).max() <= 1e-10 * np.linalg.norm(a)
        b = rng.standard_normal((200, 30))
        fast_t = op.apply_left_transpose(b)
        dense_t = op.densify().T @ b
        assert np.abs(fast_t - dense_t).max() <= 1e-10 * np.linalg.norm(b)

    def test_left_transpose_associativity(self):
        rng = np.random.default_rng(13)
        op = make_sketch("countsketch", 60, 16, seed=31, s=2)
        a = rng.standard_normal((60, 25))
        x = rng.standard_normal((25, 1))
        lhs = op.apply_left_transpose(a @ x)
        rhs = op.apply_left_transpose(a) @ x
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_dimension_mismatch(self):
        op = make_sketch("gaussian", 10, 4, seed=0)
        with pytest.raises(ValueError, match="mismatch"):
            op.apply_right(np.ones((5, 11)))
        with pytest.raises(ValueError, match="mismatch"):
            op.apply_left_transpose(np.ones((11, 5)))

    def test_srht_padding_matches_padded_operator(self):
        rng = np.random.default_rng(14)
        op = make_sketch("srht", 24, 10, seed=41)  # pads to 32 internally
        op_padded = make_sketch("srht", 32, 10, seed=41)
        a = rng.standard_normal((7, 24))
        a_ext = np.zeros((7, 32))
        a_ext[:, :24] = a
        np.testing.assert_array_equal(op.apply_right(a), op_padded.apply_right(a_ext))

    def test_identity_kind_roundtrip(self):
        rng = np.random.default_rng(15)
        op = make_sketch("identity", 9, 9, seed=0)
        a = rng.standard_normal((4, 9))
        np.testing.assert_array_equal(op.apply_right(a), a)
        np.testing.assert_array_equal(op.densify(), np.eye(9))
        # the identity returns its validated input, not a copy
        assert op.apply_right(a) is a
        assert make_sketch("identity", 4, 4, seed=0).apply_left_transpose(a) is a
        # so a full classical-randsvd run, which powers A itself, must leave it unmodified
        a = gen_polydecay(60, 40, seed=17)
        before = a.copy()
        randsvd(a, range_finder_classical(a, 4, 8, 3, seed=18))
        np.testing.assert_array_equal(a, before)


def _sylvester_by_kron(n):
    # int8: exact, and an eighth of the float64 matrix at n = 4096
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int8)
    h = np.ones((1, 1), dtype=np.int8)
    while h.shape[0] < n:
        h = np.kron(h, h2)
    return h


@pytest.mark.parametrize("log_n", range(13))
def test_kron_factors_give_sylvester_matrix(log_n):
    # the factors the SRHT applies and densify use; _sylvester is asked only for them (<= 64)
    n = 1 << log_n
    big, small = _kron_split(n)
    assert big * small == n and small <= big <= 2 * small
    np.testing.assert_array_equal(np.kron(_sylvester(big), _sylvester(small)), _sylvester_by_kron(n))


@pytest.mark.parametrize("n", [1, 3, 24, 37, 100, 1000])
def test_srht_densify_equals_independent_oracle(n):
    # (1/sqrt(r)) D H[:, T] cut to n rows, with H built here: a dropped sign, column or row fails
    n_pad = 1 << (n - 1).bit_length()
    h = _sylvester_by_kron(n_pad)
    for r in sorted({1, _kron_split(n_pad)[1], n_pad}):
        op = make_sketch("srht", n, r, seed=substream(25, n, r))
        expected = (op._scaled_signs[:, None] * h[:, op._subset])[:n]
        dense = op.densify()
        np.testing.assert_array_equal(dense, expected, err_msg=str(r))
        assert dense.flags.c_contiguous, r


def test_applies_leave_inputs_unmodified():
    rng = np.random.default_rng(18)
    # every kind; srht padded and unpadded, countsketch across a row-block edge
    for kind in SKETCH_KINDS:
        s = 2 if kind == "countsketch" else None
        for n in (24, 32):
            op = make_sketch(kind, n, n if kind == "identity" else 10, seed=19, s=s)
            a = rng.standard_normal((300, n))
            b = rng.standard_normal((n, 5))
            a0, b0 = a.copy(), b.copy()
            op.apply_right(a)
            op.apply_left_transpose(b)
            np.testing.assert_array_equal(a, a0, err_msg=kind)
            np.testing.assert_array_equal(b, b0, err_msg=kind)


@pytest.mark.parametrize("s", [1, 2, 4])
def test_countsketch_apply_right_equals_scipy_product(s):
    # scipy's kernel on 256-row blocks: equal bit for bit, at every block edge
    rng = np.random.default_rng(30 + s)
    op = make_sketch("countsketch", 90, 25, seed=substream(30, s), s=s)
    for rows in (1, 255, 256, 257, 300):
        a = rng.standard_normal((rows, 90))
        fast, scipy_product = op.apply_right(a), np.asarray(a @ op._sparse)
        np.testing.assert_array_equal(fast, scipy_product, err_msg=str(rows))
        # the same memory order too, so every product formed from it rounds as scipy's would
        assert fast.flags.f_contiguous == scipy_product.flags.f_contiguous


@pytest.mark.parametrize("n", [20, 100])  # padded to 32 (split 8 x 4) and 128 (16 x 8)
def test_srht_keeping_one_or_every_row_gives_densify(n):
    # r = 1 leaves most big blocks with no kept row; r = n_pad keeps every row
    n_pad = 1 << (n - 1).bit_length()
    for r in (1, n_pad):
        op = make_sketch("srht", n, r, seed=substream(21, n, r))
        np.testing.assert_array_equal(op.apply_right(np.eye(n)), op.densify(), err_msg=str(r))
        np.testing.assert_array_equal(op.apply_left_transpose(np.eye(n)), op.densify().T, err_msg=str(r))


@pytest.mark.parametrize("n", [1000, 2000])  # padded to 1024 and 2048
def test_srht_apply_at_workload_padding(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((30, n))
    b = rng.standard_normal((n, 30))
    # the workload's r, then one kept row and every padded row kept
    for r in (400, 1, 1 << (n - 1).bit_length()):
        op = make_sketch("srht", n, r, seed=substream(20, n))
        dense = op.densify()
        expected = a @ dense
        gap = np.abs(op.apply_right(a) - expected).max() / np.abs(expected).max()
        assert gap <= 1e-12, r
        expected_t = dense.T @ b
        gap_t = np.abs(op.apply_left_transpose(b) - expected_t).max() / np.abs(expected_t).max()
        assert gap_t <= 1e-12, r


def _srht_inputs(rng, rows, n):
    """``rows x n`` inputs in the layouts an apply meets: C, F, a row-strided
    slice with one unit stride, and a view with none (copied before BLAS reads it)."""
    base = rng.standard_normal((2 * rows, 2 * n + 1))
    return {
        "C": np.ascontiguousarray(base[:rows, :n]),
        "F": np.asfortranarray(base[:rows, :n]),
        "sliced": base[::2, 1 : n + 1],
        "strided": base[::2, ::2][:, :n],
    }


@pytest.mark.parametrize("n", [1, 3, 20, 24, 37, 100, 1000, 1025, 2000])
def test_srht_applies_match_densify(n):
    # partial last blocks (3, 37, 100, 1000, 1025, 2000), the smallest splits, and the
    # workload's sizes; r = 1, one small-factor block, every padded row, and 400
    n_pad = 1 << (n - 1).bit_length()
    small = 1 << (n_pad.bit_length() - 1) // 2
    rng = np.random.default_rng(n)
    for r in sorted({1, small, n_pad} | ({400} if 400 <= n_pad else set())):
        op = make_sketch("srht", n, r, seed=substream(22, n, r))
        dense = op.densify()
        for rows in (1, 7):
            for layout, a in _srht_inputs(rng, rows, n).items():
                expected = a @ dense
                gap = np.abs(op.apply_right(a) - expected).max() / np.abs(expected).max()
                assert gap <= 1e-12, (r, rows, layout)
                b = a.T  # n x rows, every layout transposed
                expected_t = dense.T @ b
                gap_t = np.abs(op.apply_left_transpose(b) - expected_t).max() / np.abs(expected_t).max()
                assert gap_t <= 1e-12, (r, rows, layout)


@pytest.mark.parametrize("side", ["right", "left_transpose"])
def test_srht_apply_holds_at_most_one_input_sized_temporary(side):
    # 2000 x 1000 with n = 1000 (A S) or 2000 (S.T A); a padded, signed copy of the
    # input and a full second transform would each be input-sized
    a = np.random.default_rng(23).standard_normal((2000, 1000))
    n = a.shape[1] if side == "right" else a.shape[0]
    op = make_sketch("srht", n, 400, seed=24)
    apply = getattr(op, f"apply_{side}")
    tracemalloc.start()
    try:
        out = apply(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * a.nbytes + out.nbytes, peak / a.nbytes


class TestSketchSize:
    def test_gaussian_example(self):
        assert sketch_size("gaussian", 10, 0.5, 0.1, c=1.0) == 50

    def test_eps_halving_quadruples(self):
        # delta = e^-2 makes the pre-ceiling value integral
        delta = math.exp(-2.0)
        r1 = sketch_size("gaussian", 10, 0.5, delta, c=1.0)
        r2 = sketch_size("gaussian", 10, 0.25, delta, c=1.0)
        assert (r1, r2) == (48, 192)

    def test_countsketch_formulas(self):
        k, eps, delta, c = 25, 0.5, 0.1, 1.0
        log_kd = math.log(k / delta)
        r, s = countsketch_size(k, eps, delta, c)
        assert r == math.ceil(c * k * log_kd / eps**2)
        assert s == math.ceil(c * log_kd / eps)

    def test_srht_needs_n(self):
        with pytest.raises(ValueError, match="dimension n"):
            sketch_size("srht", 10, 0.5, 0.1)
        r = sketch_size("srht", 10, 0.5, 0.1, c=1.0, n=1024)
        assert r == math.ceil((10 + math.log(1024 / 0.1)) * math.log(100) / 0.25)

    def test_identity_takes_its_only_size_n(self):
        with pytest.raises(ValueError, match="identity sizing needs the input dimension n"):
            sketch_size("identity", 10, 0.5, 0.1)
        assert sketch_size("identity", 10, 0.5, 0.1, n=37) == 37

    def test_parameter_validation(self):
        for bad in [dict(k=0), dict(eps=0.0), dict(eps=1.0), dict(delta=0.0), dict(c=0.0)]:
            kwargs = dict(k=5, eps=0.5, delta=0.1, c=1.0)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                sketch_size("gaussian", **kwargs)


@pytest.mark.parametrize("kind,s", RANDOM_KINDS)
def test_isotropy_smoke(kind, s):
    # statistical smoke test: E[S S^T] = I, 200-seed mean within 0.15
    n, r = 32, 16
    acc = np.zeros((n, n))
    for seed in range(200):
        dense = make_sketch(kind, n, r, seed=seed, s=s).densify()
        acc += dense @ dense.T
    acc /= 200
    assert np.abs(acc - np.eye(n)).max() < 0.15


def test_substream_deterministic_and_distinct():
    assert substream(42, 0) == substream(42, 0)
    values = {substream(42, i) for i in range(100)}
    assert len(values) == 100
    assert substream(42, 1, 2) != substream(42, 2, 1)
