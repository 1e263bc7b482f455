"""The multi-shot trace kernel and its three evaluation paths."""

import itertools
import math

import numpy as np
import pytest

import shadowstream.kernel
from shadowstream import (
    Snapshot,
    UnsupportedOrderError,
    partial_transpose,
    pt_flip,
    snapshot_matrix,
    tuple_trace_direct,
)
from shadowstream.kernel import (
    CHAIN_NUMERATORS,
    CHAIN_TABLE_MAX,
    GROUPED_EXACT_QUBITS,
    PairSum,
    batch_code_traces,
    batch_tuple_traces,
    chain_trace_table,
    closing_tables,
    factors_from_codes,
    group_codes,
    group_width,
    pairs_sum_exactly,
    snapshot_codes,
    subset_index_chunks,
    transposed_factors,
    tuple_trace_dense,
)


def random_snapshots(rng, count, n_qubits):
    return [
        Snapshot(rng.integers(0, 3, n_qubits), rng.integers(0, 2, n_qubits))
        for _ in range(count)
    ]


class TestPtFlip:
    def test_flips_only_masked_y_bits(self):
        snap = Snapshot("YXYZ", [0, 0, 1, 0])
        flipped = pt_flip(snap, (0, 1, 3))
        # qubit 0 is Y and masked -> flips; qubit 2 is Y but unmasked;
        # X and Z qubits never flip.
        assert flipped.bits.tolist() == [1, 0, 1, 0]
        assert flipped.axes.tolist() == snap.axes.tolist()

    def test_involution(self):
        rng = np.random.default_rng(0)
        for snap in random_snapshots(rng, 20, 3):
            assert pt_flip(pt_flip(snap, (1, 2)), (1, 2)) == snap

    def test_matches_dense_partial_transpose(self):
        rng = np.random.default_rng(1)
        for snap in random_snapshots(rng, 50, 3):
            subset = tuple(np.flatnonzero(rng.integers(0, 2, 3)).tolist())
            dense = partial_transpose(snapshot_matrix(snap), subset)
            assert np.array_equal(snapshot_matrix(pt_flip(snap, subset)), dense)

    def test_out_of_range_mask(self):
        with pytest.raises(ValueError):
            pt_flip(Snapshot("XY", [0, 0]), (2,))


class TestDirectPath:
    # Single-qubit chains reduce to closed forms: factors are
    # f = I/2 + (3/2) s P, so tr(f^2) = 2 (1/4 + 9/4) = 5 for any axis,
    # and tr(f g) = 1/2 for factors on different axes.
    def test_frozen_single_qubit_pairs(self):
        z0 = Snapshot("Z", [0])
        x0 = Snapshot("X", [0])
        z1 = Snapshot("Z", [1])
        assert tuple_trace_direct([z0, z0], ()) == pytest.approx(5.0)
        assert tuple_trace_direct([z0, x0], ()) == pytest.approx(0.5)
        assert tuple_trace_direct([z0, z1], ()) == pytest.approx(-4.0)

    def test_frozen_two_qubit_product(self):
        # qubit 0: tr(f_X0 f_Z0) = 1/2; qubit 1: tr(f_Z0 f_Z1) = -4.
        a = Snapshot("XZ", [0, 0])
        b = Snapshot("ZZ", [0, 1])
        assert tuple_trace_direct([a, b], ()) == pytest.approx(-2.0)

    def test_single_snapshot_has_unit_trace(self):
        rng = np.random.default_rng(2)
        for snap in random_snapshots(rng, 10, 2):
            assert tuple_trace_direct([snap], (1,)) == pytest.approx(1.0)

    def test_transpose_invariance_of_pairs(self):
        # Purity is invariant under partial transposition, and so is
        # every two-factor kernel value: the flip hits both factors.
        rng = np.random.default_rng(3)
        for _ in range(25):
            pair = random_snapshots(rng, 2, 3)
            plain = tuple_trace_direct(pair, ())
            flipped = tuple_trace_direct(pair, (0, 2))
            assert flipped == pytest.approx(plain, rel=1e-15)

    def test_mismatched_qubit_counts(self):
        with pytest.raises(ValueError):
            tuple_trace_direct([Snapshot("X", [0]), Snapshot("XY", [0, 0])], ())

    def test_empty_tuple(self):
        with pytest.raises(ValueError):
            tuple_trace_direct([], ())


def table_trace(snaps, part) -> complex:
    """The kernel of one tuple through the chain-table lookup path."""
    axes = np.stack([s.axes for s in snaps])
    bits = np.stack([s.bits for s in snaps])
    codes = snapshot_codes(axes, bits, part)
    return complex(batch_code_traces(codes, np.arange(len(snaps))[None])[0])


class TestPathAgreement:
    @pytest.mark.parametrize("n_qubits,m", [(1, 3), (2, 2), (2, 4), (3, 3)])
    def test_three_paths_agree(self, n_qubits, m):
        rng = np.random.default_rng(100 * n_qubits + m)
        for _ in range(20):
            snaps = random_snapshots(rng, m, n_qubits)
            size = int(rng.integers(0, n_qubits + 1))
            part = tuple(sorted(rng.choice(n_qubits, size=size, replace=False).tolist()))
            direct = tuple_trace_direct(snaps, part)
            table = table_trace(snaps, part)
            dense = tuple_trace_dense(snaps, part)
            assert direct == pytest.approx(dense, rel=1e-12, abs=1e-12)
            assert table == direct

    def test_complex_values_survive(self):
        # Odd mixed-axis chains are genuinely complex; all paths must
        # agree on the imaginary part too, not just the real one.
        snaps = [Snapshot("X", [0]), Snapshot("Y", [0]), Snapshot("Z", [0])]
        direct = tuple_trace_direct(snaps, ())
        assert abs(direct.imag) > 1.0
        assert tuple_trace_dense(snaps, ()) == pytest.approx(direct)
        assert table_trace(snaps, ()) == direct


class TestBatchEvaluation:
    def test_matches_per_tuple_direct(self):
        rng = np.random.default_rng(5)
        snaps = random_snapshots(rng, 12, 2)
        axes = np.stack([s.axes for s in snaps])
        bits = np.stack([s.bits for s in snaps])
        factors = transposed_factors(axes, bits, (1,))
        indices = np.array(list(itertools.combinations(range(12), 3)))
        batch = batch_tuple_traces(factors, indices)
        for row, idx in enumerate(indices):
            expected = tuple_trace_direct([snaps[i] for i in idx], (1,))
            assert batch[row] == pytest.approx(expected, rel=1e-13)

    def test_repeated_indices_allowed(self):
        rng = np.random.default_rng(6)
        snaps = random_snapshots(rng, 3, 2)
        axes = np.stack([s.axes for s in snaps])
        bits = np.stack([s.bits for s in snaps])
        factors = transposed_factors(axes, bits, ())
        value = batch_tuple_traces(factors, np.array([[1, 1]]))[0]
        assert value == pytest.approx(tuple_trace_direct([snaps[1], snaps[1]], ()))

    def test_shape_validation(self):
        factors = transposed_factors(np.zeros((2, 1), dtype=np.uint8), np.zeros((2, 1), dtype=np.uint8), ())
        with pytest.raises(ValueError):
            batch_tuple_traces(factors, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            batch_tuple_traces(factors, np.zeros((3, 0), dtype=np.int64))


class TestCodePath:
    def test_codes_invert_to_transposed_factors(self):
        rng = np.random.default_rng(7)
        axes = rng.integers(0, 3, (25, 4), dtype=np.uint8)
        bits = rng.integers(0, 2, (25, 4), dtype=np.uint8)
        for part, dtype in itertools.product([(), (0,), (1, 3), (0, 1, 2, 3)], [np.uint8, int]):
            codes = snapshot_codes(axes.astype(dtype), bits.astype(dtype), part)
            assert codes.dtype == np.uint8
            assert np.array_equal(
                factors_from_codes(codes), transposed_factors(axes, bits, part)
            )

    def test_frozen_pair_table(self):
        # tr(f f') is 5 for identical factors, -4 for the same axis with
        # opposite bits, and 1/2 across axes.
        table = chain_trace_table(2)
        for a in range(6):
            for b in range(6):
                if a == b:
                    expected = 5.0
                elif a // 2 == b // 2:
                    expected = -4.0
                else:
                    expected = 0.5
                assert table[a * 6 + b] == expected
        assert np.array_equal(chain_trace_table(1), np.ones(6, dtype=np.complex128))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bitwise_equal_to_matmul_path(self, m):
        rng = np.random.default_rng(8 + m)
        axes = rng.integers(0, 3, (40, 3), dtype=np.uint8)
        bits = rng.integers(0, 2, (40, 3), dtype=np.uint8)
        codes = snapshot_codes(axes, bits, (0, 2))
        indices = rng.integers(0, 40, (200, m))  # repeats included
        via_table = batch_code_traces(codes, indices)
        via_matmul = batch_tuple_traces(factors_from_codes(codes), indices)
        assert np.array_equal(via_table, via_matmul)

    def test_table_length_cap(self):
        with pytest.raises(UnsupportedOrderError):
            chain_trace_table(0)
        with pytest.raises(UnsupportedOrderError):
            chain_trace_table(CHAIN_TABLE_MAX + 1)

    def test_rejects_mismatched_table(self):
        codes = np.zeros((4, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            batch_code_traces(codes, np.zeros((1, 3), dtype=np.int64), chain_trace_table(2))

    def test_tables_are_cached_and_frozen(self):
        table = chain_trace_table(3)
        assert chain_trace_table(3) is table
        assert not table.flags.writeable


class TestClosingTables:
    @pytest.mark.parametrize("m", range(1, CHAIN_TABLE_MAX + 1))
    def test_numerators_bound_the_chain_tables(self, m):
        scaled = chain_trace_table(m) * 2**m
        assert np.array_equal(scaled.real, np.round(scaled.real))
        assert np.array_equal(scaled.imag, np.round(scaled.imag))
        assert np.abs(scaled).max() == CHAIN_NUMERATORS[m]

    def test_group_widths(self):
        assert GROUPED_EXACT_QUBITS == {1: 53, 2: 12, 3: 9, 4: 6, 5: 5, 6: 4}
        widths = {(m, n): group_width(m, n) for m in range(1, 8) for n in (1, 2, 4, 9, 10, 12, 13)}
        assert [widths[2, n] for n in (1, 2, 4, 9, 10, 12, 13)] == [1, 2, 2, 2, 2, 2, 1]
        assert [widths[3, n] for n in (1, 2, 4, 9, 10, 12, 13)] == [1, 2, 2, 2, 1, 1, 1]
        assert {w for (m, _), w in widths.items() if m not in (2, 3)} == {1}

    @pytest.mark.parametrize("m, n", [(2, 4), (2, 5), (3, 3), (3, 4), (4, 2)])
    def test_grouped_lookup_matches_closed_tuples(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        codes = rng.integers(0, 6, (20, n)).astype(np.uint8)
        g = group_width(m, n)
        past = rng.integers(0, 19, (300, m - 1))
        closed = np.concatenate([past, np.full((300, 1), 19)], axis=1)
        folded = batch_code_traces(
            group_codes(codes[:19], g), past, closing_tables(m, codes[19], g)
        )
        assert np.array_equal(folded, batch_code_traces(codes, closed))

    def test_group_codes(self):
        codes = np.array([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], dtype=np.uint8)
        assert group_codes(codes, 2).tolist() == [[8, 22, 30], [34, 20, 6]]
        assert group_codes(codes, 1).tolist() == codes.tolist()


class TestSubsetEnumeration:
    @pytest.mark.parametrize("n,k", [(5, 0), (5, 1), (6, 2), (7, 3), (6, 6), (4, 5)])
    def test_matches_itertools(self, n, k):
        got = [
            tuple(row)
            for chunk in subset_index_chunks(n, k, rows=7)
            for row in chunk.tolist()
        ]
        assert got == list(itertools.combinations(range(n), k))

    @staticmethod
    def _reference_pair_blocks(n, rows):
        """Pairs from ``itertools.combinations``, cut after the first whole
        group of equal first index that brings a block to >= rows pairs."""
        blocks, current = [], []
        pairs = itertools.combinations(range(n), 2)
        for _, group in itertools.groupby(pairs, key=lambda pair: pair[0]):
            current.extend(group)
            if len(current) >= rows:
                blocks.append(current)
                current = []
        if current:
            blocks.append(current)
        return [np.array(block, dtype=np.int64) for block in blocks]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 17, 64, 401])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 9, 10, 11, 64, 1 << 16])
    def test_pair_blocks_match_reference(self, n, rows):
        got = list(subset_index_chunks(n, 2, rows=rows))
        want = self._reference_pair_blocks(n, rows)
        assert len(got) == len(want)
        for block, expected in zip(got, want):
            assert block.dtype == np.int64 and block.shape == expected.shape
            assert np.array_equal(block, expected)

    def test_pair_block_boundaries_at_default_rows(self):
        shapes = [block.shape for block in subset_index_chunks(400, 2)]
        assert shapes == [(65604, 2), (14196, 2)]

    def test_lexicographic_order_large(self):
        chunks = list(subset_index_chunks(40, 2, rows=64))
        stacked = np.concatenate(chunks)
        assert stacked.shape == (40 * 39 // 2, 2)
        # strictly increasing in lexicographic key
        keys = stacked[:, 0] * 40 + stacked[:, 1]
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("rows", [0, -1])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 9])
    def test_rows_below_one_raise(self, k, rows):
        with pytest.raises(ValueError, match="rows"):
            list(subset_index_chunks(5, k, rows=rows))

    @pytest.mark.parametrize("rows", [0, -1])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_pair_blocks_reject_rows_below_one(self, n, rows):
        # Also where there is no pair to cut into blocks.
        with pytest.raises(ValueError, match="rows"):
            list(subset_index_chunks(n, 2, rows=rows))


class TestPairBlocks:
    """The values of each index block of ``subset_index_chunks(n, 2)`` are
    the rows of one index array of every pair, byte for byte: the block
    cuts, which fix the reduction order of the sums, change no value."""

    @staticmethod
    def codes_and_tables(kind, n, rng):
        if kind == "grouped":
            # Order-3 closing tables over two-qubit groups of N = 4 qubits.
            assert group_width(3, 4) == 2
            codes = rng.integers(0, 6, (n, 4)).astype(np.uint8)
            last = rng.integers(0, 6, 4).astype(np.uint8)
            return group_codes(codes, 2), closing_tables(3, last, 2)
        if kind == "per-qubit":
            # Non-dyadic tables round in every product, so only the
            # left-to-right qubit order of .prod(axis=1) gives these bytes.
            assert group_width(3, 10) == 1
            codes = rng.integers(0, 6, (n, 10)).astype(np.uint8)
            return codes, rng.normal(size=(10, 6, 6)) + 1j * rng.normal(size=(10, 6, 6))
        return rng.integers(0, 6, (n, 1)).astype(np.uint8), None

    @pytest.mark.parametrize("kind", ["grouped", "per-qubit", "one-column"])
    @pytest.mark.parametrize("rows", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 33, 362, 363, 401])
    def test_values_equal_the_index_blocks(self, n, rows, kind):
        rng = np.random.default_rng(1000 * n + rows)
        codes, tables = self.codes_and_tables(kind, n, rng)
        pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)
        want = batch_code_traces(codes, pairs, tables)
        at = 0
        for chunk in subset_index_chunks(n, 2, rows):
            got = batch_code_traces(codes, chunk, tables)
            assert got.tobytes() == want[at : at + len(chunk)].tobytes()
            at += len(chunk)
        assert at == len(pairs)


class TestPairSums:
    """A :class:`PairSum` evaluates to the sum of the pair values that the
    index blocks of ``subset_index_chunks(n, 2)`` give, byte for byte,
    wherever ``pairs_sum_exactly`` holds."""

    # The last earlier-shot count whose closing pairs sum exactly at
    # order 3, and the last record length whose pairs sum exactly at
    # order 2, per qubit count.
    EXACT_TO = {4: 42_799, 5: 5_719, 6: 764, 7: 102, 8: 14, 9: 2}
    ORDER_TWO_EXACT_TO = {4: 335_544, 8: 839, 9: 188, 10: 42}

    @pytest.mark.parametrize("n", sorted(EXACT_TO))
    def test_exactness_bound_at_its_edges(self, n):
        t = self.EXACT_TO[n]
        assert pairs_sum_exactly(3, n, t) and not pairs_sum_exactly(3, n, t + 1)
        top = CHAIN_NUMERATORS[3] ** n
        assert math.comb(t, 2) * top <= 2**53 < math.comb(t + 1, 2) * top

    @pytest.mark.parametrize("n", sorted(ORDER_TWO_EXACT_TO))
    def test_order_two_bound_at_its_edges(self, n):
        t = self.ORDER_TWO_EXACT_TO[n]
        assert pairs_sum_exactly(2, n, t) and not pairs_sum_exactly(2, n, t + 1)
        top = CHAIN_NUMERATORS[2] ** n
        assert math.comb(t, 2) * top <= 2**53 < math.comb(t + 1, 2) * top

    def test_exactness_bound_outside_the_grouped_columns(self):
        # Past 9 qubits at order 3, and past 12 at order 2, no product of
        # chain traces is sure to be exact, and the index blocks serve
        # whatever the record length.
        assert [pairs_sum_exactly(3, n, 320_279) for n in (1, 2, 3)] == [True] * 3
        assert not any(pairs_sum_exactly(3, n, t) for n in (10, 13) for t in (0, 2, 50))
        assert pairs_sum_exactly(2, 12, 2) and not pairs_sum_exactly(2, 12, 3)
        assert not any(pairs_sum_exactly(2, n, t) for n in (13, 20) for t in (0, 2, 50))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 401])
    def test_len_counts_the_pairs(self, n):
        assert len(PairSum(n)) == math.comb(n, 2)

    @pytest.mark.parametrize("width", [1, 5, 64])
    @pytest.mark.parametrize(
        "qubits, n",
        [
            (qubits, n)
            for qubits in (1, 2, 4, 6, 8)
            for n in (0, 1, 2, 14, 63, 64, 65, 129, 200)
            if pairs_sum_exactly(3, qubits, n)
        ],
    )
    def test_sum_equals_the_span_values(self, monkeypatch, qubits, n, width):
        monkeypatch.setattr(shadowstream.kernel, "_SUM_COLUMNS", width)
        rng = np.random.default_rng(1000 * n + 10 * width + qubits)
        g = group_width(3, qubits)
        codes = group_codes(rng.integers(0, 6, (n, qubits)).astype(np.uint8), g)
        tables = closing_tables(3, rng.integers(0, 6, qubits).astype(np.uint8), g)
        want = 0.0 + 0.0j
        for chunk in subset_index_chunks(n, 2, rows=97):
            want += batch_code_traces(codes, chunk, tables).sum()
        got = batch_code_traces(codes, PairSum(n), tables)
        assert got.shape == (1,) and got.dtype == np.complex128
        assert np.complex128(0j + got.sum()).tobytes() == np.complex128(want).tobytes()
