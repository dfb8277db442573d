"""Numerical floor: streams, QR, flattening; and the finite-difference
oracle the problem tests use."""

import math
import tracemalloc

import numpy as np
import pytest

from subzero.errors import RankDeficient, ShapeError
from oracles import fd_gradient
from subzero.numcore import (GaussianStream, derive_seed, derive_seeds,
                             gaussian_matrix, normals_block, qr_orthonormal,
                             stack_params, stack_rows, unstack_params, _BLOCK,
                             _mix64, _mix64_block)

MASK64 = (1 << 64) - 1
# (seed, first value index) of the ranges the libm equality tests draw; the
# last one crosses the 2**64 counter wrap
WRAP_RANGES = [(0xC0FFEE, 0), (1, 10 ** 6), (2, 2 ** 63 - 7), (3, 2 ** 64 - 2 ** 15)]


def stream_uniforms(seed, index, n):
    """The uniforms of stream values ``index .. index + n - 1`` of
    ``GaussianStream(seed)``, interleaved ``u1, u2`` as ``_box_muller``
    forms them: ``x[2j]`` hashes ``key + golden * (2j + 1)``."""
    key = _mix64(seed ^ 0x8BADF00D5EEDC0DE)
    first = (key + 0x9E3779B97F4A7C15 * (2 * index + 1)) & MASK64
    x = np.uint64(first) + np.arange(2 * n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((_mix64_block(x) >> 11) + 0.5) * 2.0 ** -53


def reference_splitmix64(seed, count):
    """Re-typed from the public-domain reference implementation."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class TestMix64:
    def test_matches_reference_implementation(self):
        for seed in (0, 1, 1234567, 2**63, MASK64):
            expected = reference_splitmix64(seed, 4)
            state = seed
            got = []
            for _ in range(4):
                state = (state + 0x9E3779B97F4A7C15) & MASK64
                got.append(_mix64(state))
            assert got == expected

    def test_known_output_sequence(self):
        # frozen from the reference implementation seeded with 1234567
        assert reference_splitmix64(1234567, 3) == [
            6457827717110365317, 3203168211198807973, 9817491932198370423]
        state = (1234567 + 0x9E3779B97F4A7C15) & MASK64
        assert _mix64(state) == 6457827717110365317

    def test_zero_maps_to_zero(self):
        assert _mix64(0) == 0

    def test_output_range(self):
        for x in (1, 77, 2**40, MASK64):
            assert 0 <= _mix64(x) <= MASK64


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)

    def test_sensitive_to_each_part(self):
        base = derive_seed(5, 1, 2)
        assert derive_seed(6, 1, 2) != base
        assert derive_seed(5, 2, 2) != base
        assert derive_seed(5, 1, 3) != base

    def test_order_sensitive(self):
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)

    def test_no_parts_differs_from_master(self):
        assert derive_seed(42) != 42

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            derive_seed(5, -1)

    def test_children_spread_out(self):
        children = {derive_seed(0, 0x51, t) for t in range(10_000)}
        assert len(children) == 10_000


class TestGaussianStream:
    def test_batching_invariance(self):
        a = GaussianStream(123).normals(64)
        s = GaussianStream(123)
        chunks = [s.normals(n) for n in (1, 5, 0, 30, 28)]
        b = np.concatenate(chunks)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("index", [0, 5, 2 ** 63 - 7, 2 ** 64 - 40])
    def test_values_match_the_definition_bit_for_bit(self, index):
        # every draw size up to 140, and one short of, exactly and one past
        # one to four blocks, so the scalar loop, whole, partial and
        # multi-block vectorized draws and counter wrap-around are all
        # compared with a re-typed scalar definition
        sizes = list(range(141)) + [k * _BLOCK + d for k in range(1, 5)
                                    for d in (-1, 0, 1)]
        longest = max(sizes)
        seed = 0xC0FFEE
        key = _mix64(seed ^ 0x8BADF00D5EEDC0DE)

        def uniform(k):
            x = _mix64((key + 0x9E3779B97F4A7C15 * (k + 1)) & MASK64)
            return ((x >> 11) + 0.5) * 2.0 ** -53

        expected = np.array([
            math.sqrt(-2.0 * math.log(uniform(2 * j)))
            * math.cos(2.0 * math.pi * uniform(2 * j + 1))
            for j in range(index, index + longest)])
        s = GaussianStream(seed)
        for n in sizes:
            s.reset(index)
            assert s.normals(n).tobytes() == expected[:n].tobytes(), n
        assert s.normal_at(index + longest - 1) == expected[-1]

    @pytest.mark.parametrize("seed, index", WRAP_RANGES)
    def test_numpy_cos_equals_libm_cos_on_the_streams_uniforms(self, seed, index):
        # the block path takes cos(2 pi u2) from np.cos and the scalar loop
        # from math.cos; 4 x 2**16 = 2**18 arguments, the last range crossing
        # the 2**64 counter wrap.  A numpy whose float64 cos is not the C
        # library's fails here by name, not only through the golden pins.
        args = 2.0 * math.pi * stream_uniforms(seed, index, 2 ** 16)[1::2]
        libm = np.fromiter(map(math.cos, args.tolist()), np.float64, args.size)
        assert np.cos(args).tobytes() == libm.tobytes()

    @pytest.mark.parametrize("seed, index", WRAP_RANGES)
    def test_numpy_strided_log_equals_libm_log_on_the_streams_uniforms(self, seed, index):
        # the block path takes log(u1) from np.log into a reversed output,
        # which numpy runs through its scalar loop over the C library's log
        # (its own SIMD log, taken for a unit-stride output, differs in the
        # last bit); 2**18 of the stream's u1, the last range crossing the
        # 2**64 counter wrap, and the 64 smallest and largest grid points
        # (k + 0.5) 2**-53 after the first range.  A numpy that dispatches
        # this call elsewhere fails here by name.
        u = stream_uniforms(seed, index, 2 ** 16)
        if index == 0:
            k = np.r_[0:64, 2 ** 53 - 64:2 ** 53].astype(np.uint64)
            grid = np.repeat((k + 0.5) * 2.0 ** -53, 2)
            u = np.concatenate([u, grid])
        m = u.size // 2
        r = np.empty(m)
        np.log(u[0::2], out=r[::-1])
        libm = np.fromiter(map(math.log, u[0::2].tolist()), np.float64, m)
        assert r[::-1].tobytes() == libm.tobytes()

    def test_block_scratch_stays_under_budget(self):
        # 8 B per value of output plus one block's scratch, 17.2 kB measured
        # at 512 values; the step-memory budgets above this module assume it
        s = GaussianStream(4)
        s.normals(4096)
        tracemalloc.start()
        try:
            s.normals(4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 4096 + 18_000

    def test_normal_at_matches_normals(self):
        s = GaussianStream(9)
        batch = s.normals(16)
        probe = GaussianStream(9)
        singles = np.array([probe.normal_at(j) for j in range(16)])
        assert np.array_equal(batch, singles)
        assert probe.index == 0  # normal_at leaves the counter alone

    def test_reset_replays_exactly(self):
        s = GaussianStream(77)
        first = s.normals(40)
        s.reset()
        again = s.normals(40)
        assert np.array_equal(first, again)
        s.reset(10)
        tail = s.normals(30)
        assert np.array_equal(first[10:], tail)

    def test_skip_equals_draw_and_discard(self):
        a = GaussianStream(3)
        a.skip(17)
        b = GaussianStream(3)
        b.normals(17)
        assert np.array_equal(a.normals(5), b.normals(5))

    def test_index_tracks_consumption(self):
        s = GaussianStream(1)
        assert s.index == 0
        s.normals(7)
        assert s.index == 7
        s.skip(3)
        assert s.index == 10

    def test_distinct_seeds_decorrelate(self):
        n = 40_000
        a = GaussianStream(1).normals(n)
        b = GaussianStream(2).normals(n)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 4.0 / math.sqrt(n)

    def test_moments_of_one_million_draws(self):
        n = 1_000_000
        x = GaussianStream(2024).normals(n)
        assert abs(float(np.mean(x))) < 4.0 / math.sqrt(n)
        assert abs(float(np.var(x)) - 1.0) < 4.0 * math.sqrt(2.0 / n)
        assert abs(float(np.mean(x**3))) < 4.0 * math.sqrt(15.0 / n)
        assert abs(float(np.mean(x**4)) - 3.0) < 4.0 * math.sqrt(96.0 / n)

    def test_tail_fractions_match_normal_cdf(self):
        n = 200_000
        x = GaussianStream(5).normals(n)
        for cut, p in ((1.0, 0.158655), (2.0, 0.0227501), (3.0, 0.0013499)):
            frac = float(np.mean(x > cut))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(frac - p) < 5.0 * se, (cut, frac, p)

    def test_values_are_finite(self):
        x = GaussianStream(0).normals(100_000)
        assert np.all(np.isfinite(x))

    def test_rejects_negative_counts(self):
        s = GaussianStream(0)
        with pytest.raises(ValueError):
            s.normals(-1)
        with pytest.raises(ValueError):
            s.skip(-1)
        with pytest.raises(ValueError):
            s.reset(-2)


class TestBlockSeedsAndValues:
    """The Monte Carlo block path's seeds and stream values equal the
    scalar definitions bit for bit."""

    MASTERS = (0, 7, MASK64)
    SAMPLES = (0, 63, 64, 2 ** 32 - 1, 2 ** 32)

    def test_vector_finalizer_matches_scalar(self):
        xs = [0, 1, 2 ** 63, MASK64] + reference_splitmix64(5, 200)
        got = _mix64_block(np.array(xs, dtype=np.uint64))
        assert [int(v) for v in got] == [_mix64(x) for x in xs]

    # int masters outside [0, 2**64) reduce modulo 2**64, as derive_seed's do
    @pytest.mark.parametrize("master", MASTERS + (-1, 2 ** 64, 2 ** 64 + 3))
    def test_block_seeds_match_derive_seed(self, master):
        seeds = derive_seeds(master, 0x61, last=self.SAMPLES)
        assert seeds.dtype == np.uint64
        assert [int(s) for s in seeds] == [derive_seed(master, 0x61, k)
                                           for k in self.SAMPLES]

    # MASTERS, then the run masters of the acceptance convergence battery
    ARRAY_MASTERS = np.array(MASTERS + tuple(derive_seed(0, 0x63, j) for j in range(32)),
                             dtype=np.uint64)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("parts", [(), (0x51,), (0x51, 7)])
    @pytest.mark.parametrize("last", [0, 1, 2 ** 32, MASK64 - 1])
    def test_array_of_masters_against_one_last(self, parts, last):
        seeds = derive_seeds(self.ARRAY_MASTERS, *parts, last=last)
        assert seeds.dtype == np.uint64 and seeds.shape == self.ARRAY_MASTERS.shape
        assert [int(s) for s in seeds] == [derive_seed(m, *parts, last)
                                           for m in self.ARRAY_MASTERS.tolist()]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("parts", [(), (0x51,), (0x51, 7)])
    def test_array_of_masters_against_several_last(self, parts):
        seeds = derive_seeds(self.ARRAY_MASTERS[:, None], *parts, last=self.SAMPLES)
        assert seeds.shape == (self.ARRAY_MASTERS.size, len(self.SAMPLES))
        assert [[int(s) for s in row] for row in seeds] == [
            [derive_seed(m, *parts, k) for k in self.SAMPLES]
            for m in self.ARRAY_MASTERS.tolist()]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("master", MASTERS)
    def test_int_master_against_one_last(self, master):
        seeds = derive_seeds(master, 0x51, last=3)
        assert [int(s) for s in seeds] == [derive_seed(master, 0x51, 3)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("parts", [(), (0x51,), (0x51, 7)])
    @pytest.mark.parametrize("master", MASTERS + (-1, -(2 ** 63), MASK64 - 1))
    def test_int_masters_match_derive_seed_at_the_ends(self, master, parts):
        # negative masters wrap modulo 2**64 in both functions
        seeds = derive_seeds(master, *parts, last=self.SAMPLES)
        assert seeds.dtype == np.uint64 and seeds.shape == (len(self.SAMPLES),)
        assert [int(s) for s in seeds] == [derive_seed(master, *parts, k)
                                           for k in self.SAMPLES]
        assert int(derive_seeds(master, *parts, last=3)[0]) == derive_seed(master, *parts, 3)

    def test_negative_parts_are_refused_for_arrays_too(self):
        with pytest.raises((ValueError, OverflowError)):
            derive_seeds(self.ARRAY_MASTERS, -1, last=0)
        with pytest.raises((ValueError, OverflowError)):
            derive_seeds(7, -1, last=0)
        with pytest.raises((ValueError, OverflowError)):
            derive_seeds(7, 0x51, last=-1)

    @pytest.mark.parametrize("master", MASTERS)
    def test_block_values_match_the_stream(self, master):
        # counters 0..99 cover the full-space 10x10 cell's draws
        seeds = derive_seeds(master, 0x61, last=self.SAMPLES)
        values = normals_block(seeds, 100)
        assert values.shape == (len(self.SAMPLES), 100)
        for row, seed in zip(values, seeds.tolist()):
            stream = GaussianStream(seed)
            expected = np.array([stream.normal_at(j) for j in range(100)])
            assert row.tobytes() == expected.tobytes()
            assert normals_block(np.array([seed], dtype=np.uint64), 3)[0].tobytes() \
                == expected[:3].tobytes()


class TestGaussianMatrix:
    def test_row_major_fill(self):
        flat = GaussianStream(8).normals(6)
        mat = gaussian_matrix(GaussianStream(8), 2, 3)
        assert np.array_equal(mat, flat.reshape(2, 3))

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ShapeError):
            gaussian_matrix(GaussianStream(0), 0, 3)


def gram_schmidt(a):
    """Independent orthonormalization oracle (modified Gram-Schmidt)."""
    a = np.array(a, dtype=np.float64)
    m, n = a.shape
    q = np.zeros((m, n))
    for j in range(n):
        v = a[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        v -= sum((q[:, i] @ v) * q[:, i] for i in range(j))  # reorthogonalize
        q[:, j] = v / np.linalg.norm(v)
    return q


class TestQrOrthonormal:
    def test_columns_orthonormal(self):
        for seed, (m, n) in ((0, (6, 3)), (1, (10, 1)), (2, (5, 5))):
            q = qr_orthonormal(gaussian_matrix(GaussianStream(seed), m, n))
            assert q.shape == (m, n)
            assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-12

    def test_spans_input_columns(self):
        a = gaussian_matrix(GaussianStream(3), 7, 3)
        q = qr_orthonormal(a)
        # projector onto range(Q) must reproduce A
        assert np.max(np.abs(q @ (q.T @ a) - a)) < 1e-10

    def test_matches_gram_schmidt_oracle(self):
        a = gaussian_matrix(GaussianStream(4), 8, 4)
        q1 = qr_orthonormal(a)
        q2 = gram_schmidt(a)
        assert np.max(np.abs(q1 - q2)) < 1e-9

    def test_sign_convention_positive_diagonal(self):
        for seed in range(5):
            a = gaussian_matrix(GaussianStream(seed), 6, 4)
            q = qr_orthonormal(a)
            r = q.T @ a
            assert np.all(np.diag(r) > 0)

    def test_sign_convention_ties_output_to_input(self):
        # flipping an input column flips exactly that output column, so the
        # factorization is a deterministic function of the draw
        a = gaussian_matrix(GaussianStream(9), 6, 2)
        q1 = qr_orthonormal(a)
        q2 = qr_orthonormal(a * np.array([1.0, -1.0]))
        assert np.max(np.abs(q1[:, 0] - q2[:, 0])) < 1e-14
        assert np.max(np.abs(q1[:, 1] + q2[:, 1])) < 1e-14

    def test_raises_on_duplicate_columns(self):
        col = gaussian_matrix(GaussianStream(5), 6, 1)
        with pytest.raises(RankDeficient):
            qr_orthonormal(np.hstack([col, col]))

    def test_raises_on_zero_matrix(self):
        with pytest.raises(RankDeficient):
            qr_orthonormal(np.zeros((4, 2)))

    def test_raises_on_wide_input(self):
        with pytest.raises(ShapeError):
            qr_orthonormal(np.ones((2, 4)))

    def test_raises_on_vector_input(self):
        with pytest.raises(ShapeError):
            qr_orthonormal(np.ones(4))

    def test_result_contiguous(self):
        q = qr_orthonormal(gaussian_matrix(GaussianStream(1), 5, 2))
        assert q.flags.c_contiguous


class TestStacking:
    def test_column_major_per_layer(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(stack_params([w]), [1.0, 3.0, 2.0, 4.0])

    def test_layers_concatenate_in_order(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([5.0, 6.0])
        assert np.array_equal(stack_params([a, b]), [1.0, 2.0, 5.0, 6.0])

    def test_round_trip(self):
        params = [gaussian_matrix(GaussianStream(0), 3, 4),
                  GaussianStream(1).normals(5),
                  gaussian_matrix(GaussianStream(2), 2, 2)]
        flat = stack_params(params)
        back = unstack_params(flat, [(3, 4), (5,), (2, 2)])
        for orig, rec in zip(params, back):
            assert np.array_equal(orig, rec)
            assert rec.flags.c_contiguous

    def test_empty_list(self):
        assert stack_params([]).size == 0

    def test_size_mismatch_raises(self):
        with pytest.raises(ShapeError):
            unstack_params(np.zeros(5), [(2, 3)])

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            stack_params([np.zeros((2, 2, 2))])

    @pytest.mark.parametrize("fortran", [False, True], ids=["c_order", "fortran_order"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_rows_stack_as_stack_params_bit_for_bit(self, k, fortran):
        # a native 3x2 layer, a 1-D layer, a square 3x3 layer (where a
        # row-major copy has the right shape but not the right order) and an
        # (8, 2) layer whose rows were formed in a 4x4 geometry
        s = GaussianStream(9)
        blocks = [s.normals(k * 6).reshape(k, 3, 2), s.normals(k * 5).reshape(k, 5),
                  s.normals(k * 9).reshape(k, 3, 3),
                  s.normals(k * 16).reshape(k, 4, 4).reshape(k, 8, 2)]
        if fortran:
            blocks = [np.asfortranarray(b) for b in blocks]
        rows = stack_rows(blocks)
        assert rows.shape == (k, 6 + 5 + 9 + 16)
        for i in range(k):
            assert rows[i].tobytes() == stack_params([b[i] for b in blocks]).tobytes()


class _Bowl:
    """f(w, c) = sum(w**2) + sum(sin(c)); hand gradient for the oracle test."""

    def loss(self, params, batch):
        w, c = params
        return float(np.sum(w * w) + np.sum(np.sin(c)))

    def hand_gradient(self, params):
        w, c = params
        return [2.0 * w, np.cos(c)]


class TestFiniteDifferences:
    def test_matches_hand_gradient(self):
        prob = _Bowl()
        params = [gaussian_matrix(GaussianStream(0), 3, 2),
                  GaussianStream(1).normals(4)]
        fd = fd_gradient(prob, params, batch=None)
        hand = prob.hand_gradient(params)
        for a, b in zip(fd, hand):
            assert np.max(np.abs(a - b)) < 1e-8

    def test_does_not_mutate_params(self):
        prob = _Bowl()
        params = [gaussian_matrix(GaussianStream(2), 2, 2),
                  GaussianStream(3).normals(3)]
        before = [w.copy() for w in params]
        fd_gradient(prob, params, batch=None)
        for w, b in zip(params, before):
            assert np.array_equal(w, b)

    def test_oracle_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            fd_gradient(_Bowl(), [np.zeros(2)], batch=None, delta=0.0)
