"""Measurement simulation, snapshots, and record (de)serialization."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from shadowstream import (
    BornSampler,
    DensityMatrix,
    InvalidStateError,
    ShadowRecord,
    Snapshot,
    iter_snapshots,
    sample_snapshot,
    shot_rng,
    snapshot_matrix,
    stream_shadows,
    werner_state,
)
from shadowstream.sampler import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    FACTORS,
    codes_matrix,
    inverse_channel_factor,
)

PAULIS = {
    AXIS_X: np.array([[0, 1], [1, 0]], dtype=complex),
    AXIS_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    AXIS_Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def random_state(n_qubits, rng):
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def kron_chain(codes):
    """The qubit-by-qubit ``np.kron`` reference for a dense snapshot."""
    return functools.reduce(np.kron, [FACTORS[c >> 1, c & 1] for c in codes])


# U_a maps the P_a eigenbasis to the computational basis ("S^dag then H"
# for Y), so diag(U rho U^dag) holds the Born probabilities of basis a.
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
ROTATIONS = {
    AXIS_X: _HADAMARD,
    AXIS_Y: _HADAMARD @ np.diag([1.0, -1.0j]),
    AXIS_Z: np.eye(2, dtype=complex),
}


def basis_projector(axis, bit):
    """Rank-one projector onto the (-1)**bit eigenvector of the Pauli."""
    return (np.eye(2) + (-1.0) ** bit * PAULIS[axis]) / 2.0


class TestFactors:
    def test_frozen_x_factor(self):
        np.testing.assert_array_equal(
            FACTORS[AXIS_X, 0], np.array([[0.5, 1.5], [1.5, 0.5]])
        )

    def test_definition(self):
        for axis in (AXIS_X, AXIS_Y, AXIS_Z):
            for bit in (0, 1):
                expected = 0.5 * np.eye(2) + 1.5 * (-1.0) ** bit * PAULIS[axis]
                np.testing.assert_array_equal(inverse_channel_factor(axis, bit), expected)

    def test_unit_trace(self):
        assert all(np.trace(FACTORS[a, b]) == 1.0 for a in range(3) for b in range(2))

    def test_table_is_write_locked(self):
        with pytest.raises(ValueError):
            FACTORS[0, 0, 0, 0] = 99.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            inverse_channel_factor(3, 0)
        with pytest.raises(ValueError):
            inverse_channel_factor(0, 2)

    def test_single_qubit_channel_inversion(self):
        """The defining identity: averaging the factor over a uniformly
        random basis and Born-distributed outcome reproduces the state."""
        rng = np.random.default_rng(42)
        rho = random_state(1, rng).entries
        total = np.zeros((2, 2), dtype=complex)
        for axis in (AXIS_X, AXIS_Y, AXIS_Z):
            for bit in (0, 1):
                prob = np.trace(basis_projector(axis, bit) @ rho).real
                total += prob * FACTORS[axis, bit] / 3.0
        np.testing.assert_allclose(total, rho, atol=1e-14)

    def test_two_qubit_channel_inversion(self):
        # Full enumeration of the 9 axis pairs and 4 outcomes each.
        rng = np.random.default_rng(43)
        rho = random_state(2, rng).entries
        total = np.zeros((4, 4), dtype=complex)
        for a0 in range(3):
            for a1 in range(3):
                for b0 in range(2):
                    for b1 in range(2):
                        proj = np.kron(basis_projector(a0, b0), basis_projector(a1, b1))
                        prob = np.trace(proj @ rho).real
                        snap = Snapshot([a0, a1], [b0, b1])
                        total += prob * snapshot_matrix(snap) / 9.0
        np.testing.assert_allclose(total, rho, atol=1e-13)


class TestSnapshot:
    def test_axis_string_coercion(self):
        snap = Snapshot("XZY", [0, 1, 0])
        assert snap.axes.tolist() == [AXIS_X, AXIS_Z, AXIS_Y]
        assert snap.axis_string() == "XZY"
        assert snap.bit_string() == "010"

    def test_immutability(self):
        snap = Snapshot("XZ", [0, 1])
        with pytest.raises(AttributeError):
            snap.axes = np.array([1, 1])
        with pytest.raises(ValueError):
            snap.bits[0] = 1

    def test_equality_and_hash(self):
        a = Snapshot("XY", [0, 1])
        b = Snapshot([0, 1], [0, 1])
        c = Snapshot("XY", [1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            Snapshot([], [])
        with pytest.raises(ValueError):
            Snapshot([3], [0])
        with pytest.raises(ValueError):
            Snapshot([0], [2])
        with pytest.raises(ValueError):
            Snapshot([0, 1], [0])

    def test_matrix_is_kron_of_factors(self):
        snap = Snapshot("ZY", [1, 0])
        expected = np.kron(FACTORS[AXIS_Z, 1], FACTORS[AXIS_Y, 0])
        np.testing.assert_array_equal(snapshot_matrix(snap), expected)

    def test_matrix_unit_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            snap = Snapshot(rng.integers(0, 3, n), rng.integers(0, 2, n))
            assert np.trace(snapshot_matrix(snap)) == pytest.approx(1.0, abs=1e-15)


class TestCodesMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_code_matches_kron_chain(self, n):
        for codes in itertools.product(range(6), repeat=n):
            assert np.array_equal(codes_matrix(codes), kron_chain(codes))

    @pytest.mark.parametrize("n,count", [(6, 40), (8, 10)])
    def test_sampled_codes_match_kron_chain(self, n, count):
        rng = np.random.default_rng(n)
        for codes in rng.integers(0, 6, size=(count, n)):
            assert np.array_equal(codes_matrix(codes), kron_chain(codes))

    def test_snapshot_matrix_reads_the_codes(self):
        snap = Snapshot("XYZ", [1, 0, 1])
        assert np.array_equal(snapshot_matrix(snap), kron_chain([1, 2, 5]))

    def test_table_views_are_read_only(self):
        block = codes_matrix([3, 4])
        assert not block.flags.writeable

    def test_rejects_empty_codes(self):
        with pytest.raises(ValueError):
            codes_matrix([])


class TestShotRng:
    def test_reproducible_per_index(self):
        a = shot_rng(99, 5).random(4)
        b = shot_rng(99, 5).random(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_decorrelated(self):
        draws = np.array([shot_rng(99, i).random() for i in range(64)])
        assert np.unique(draws).size == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            shot_rng(-1, 0)
        with pytest.raises(ValueError):
            shot_rng(2**64, 0)
        with pytest.raises(ValueError):
            shot_rng(0, -1)


class TestBornSampler:
    def test_rejects_unphysical_states(self):
        bad = DensityMatrix(np.diag([1.5, -0.5]))
        with pytest.raises(InvalidStateError):
            BornSampler(bad)

    def test_z_basis_probabilities_are_diagonal(self):
        rng = np.random.default_rng(2)
        rho = random_state(2, rng)
        sampler = BornSampler(rho)
        np.testing.assert_allclose(
            sampler.probabilities("ZZ"), np.diag(rho.entries).real, atol=1e-14
        )

    def test_x_basis_probabilities(self):
        rng = np.random.default_rng(4)
        rho = random_state(1, rng)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        expected = [plus @ rho.entries @ plus, minus @ rho.entries @ minus]
        np.testing.assert_allclose(
            BornSampler(rho).probabilities("X"), np.real(expected), atol=1e-14
        )

    def test_y_basis_probabilities(self):
        rng = np.random.default_rng(6)
        rho = random_state(1, rng)
        ket = {0: np.array([1, 1j]) / np.sqrt(2), 1: np.array([1, -1j]) / np.sqrt(2)}
        expected = [np.real(ket[b].conj() @ rho.entries @ ket[b]) for b in (0, 1)]
        np.testing.assert_allclose(BornSampler(rho).probabilities("Y"), expected, atol=1e-14)

    def test_probabilities_normalized_per_basis(self):
        rng = np.random.default_rng(8)
        rho = random_state(3, rng)
        sampler = BornSampler(rho)
        for axes in ("XXX", "XYZ", "ZZY"):
            p = sampler.probabilities(axes)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empirical_mean_approaches_state(self):
        # Channel inversion in the large: the averaged snapshot matrix
        # drifts toward the true state at the statistical rate.
        rho = werner_state(2, 0.5)
        sampler = BornSampler(rho)
        total = np.zeros((4, 4), dtype=complex)
        shots = 4000
        for i in range(shots):
            total += snapshot_matrix(sampler.sample(shot_rng(12345, i)))
        assert np.abs(total / shots - rho.entries).max() < 0.15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_basis_matches_dense_rotation(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(2):
            rho = random_state(n, rng)
            sampler = BornSampler(rho)
            for axes in itertools.product(range(3), repeat=n):
                u = functools.reduce(np.kron, [ROTATIONS[a] for a in axes])
                dense = np.real(np.diag(u @ rho.entries @ u.conj().T))
                np.testing.assert_allclose(
                    sampler.probabilities(axes), dense, rtol=0, atol=1e-14
                )

    def test_sample_snapshot_helper(self):
        rho = werner_state(2, 0.5)
        snap = sample_snapshot(rho, shot_rng(0, 0))
        assert snap.n_qubits == 2


class TestShadowRecord:
    def test_append_and_indexing(self):
        rec = ShadowRecord(2)
        snaps = [Snapshot("XY", [0, 1]), Snapshot("ZZ", [1, 0]), Snapshot("YX", [1, 1])]
        rec.extend(snaps)
        assert len(rec) == 3
        assert rec[0] == snaps[0]
        assert rec[-1] == snaps[2]
        assert list(rec) == snaps
        with pytest.raises(IndexError):
            rec[3]

    def test_growth_beyond_initial_capacity(self):
        rng = np.random.default_rng(17)
        snaps = [
            Snapshot(rng.integers(0, 3, 2), rng.integers(0, 2, 2)) for _ in range(100)
        ]
        rec = ShadowRecord(2)
        rec.extend(snaps)
        assert len(rec) == 100
        assert list(rec) == snaps

    def test_slicing_returns_record(self):
        rec = stream_shadows(werner_state(2, 0.5), 10, seed=3)
        head = rec[:4]
        assert isinstance(head, ShadowRecord)
        assert len(head) == 4
        assert list(head) == list(rec)[:4]

    def test_qubit_count_mismatch(self):
        rec = ShadowRecord(2)
        with pytest.raises(ValueError):
            rec.append(Snapshot("X", [0]))

    def test_from_arrays_validation(self):
        with pytest.raises(ValueError):
            ShadowRecord.from_arrays(np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ShadowRecord.from_arrays(np.full((1, 2), 7), np.zeros((1, 2)))

    def test_binary_round_trip(self):
        rec = stream_shadows(werner_state(2, 0.9), 37, seed=11, descriptor="round trip")
        clone = ShadowRecord.from_bytes(rec.to_bytes())
        assert clone == rec
        assert clone.seed == 11
        assert clone.descriptor == "round trip"

    def test_binary_size_is_three_bits_per_qubit_shot(self):
        rec = stream_shadows(werner_state(2, 0.9), 1000, seed=1)
        header = ShadowRecord._HEADER.size + len(rec.descriptor.encode())
        payload = len(rec.to_bytes()) - header
        assert payload == -(-1000 * 2 * 3 // 8)  # ceil(T * N * 3 / 8)

    def test_file_round_trip(self, tmp_path):
        rec = stream_shadows(werner_state(2, 0.7), 23, seed=5)
        path = tmp_path / "shots.ssr"
        rec.save(path)
        assert ShadowRecord.load(path) == rec

    def test_json_round_trip(self):
        rec = stream_shadows(werner_state(2, 0.7), 9, seed=8)
        assert ShadowRecord.from_json(rec.to_json()) == rec

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError, match="magic"):
            ShadowRecord.from_bytes(b"XXXX" + bytes(30))
        with pytest.raises(ValueError, match="short"):
            ShadowRecord.from_bytes(b"\x00")

    def test_from_bytes_rejects_truncated_payload(self):
        blob = stream_shadows(werner_state(2, 0.5), 200, seed=3).to_bytes()
        for cut in (1, 5, 150):
            with pytest.raises(ValueError, match="needs"):
                ShadowRecord.from_bytes(blob[:-cut])

    def test_from_bytes_rejects_trailing_bytes(self):
        blob = stream_shadows(werner_state(2, 0.5), 200, seed=3).to_bytes()
        for junk in (b"\x00", b"junk"):
            with pytest.raises(ValueError, match="needs"):
                ShadowRecord.from_bytes(blob + junk)

    def test_unsupported_version(self):
        blob = bytearray(stream_shadows(werner_state(2, 0.5), 2, seed=0).to_bytes())
        blob[4] = 99
        with pytest.raises(ValueError, match="version"):
            ShadowRecord.from_bytes(bytes(blob))


class TestStreaming:
    def test_stream_is_pure_function_of_seed(self):
        rho = werner_state(2, 5.0 / 6.0)
        assert stream_shadows(rho, 200, 77) == stream_shadows(rho, 200, 77)

    def test_worker_count_does_not_change_record(self):
        rho = werner_state(2, 5.0 / 6.0)
        base = stream_shadows(rho, 151, 13)
        for workers in (2, 4):
            assert stream_shadows(rho, 151, 13, workers=workers) == base

    # SHA-256 of stream_shadows(werner_state(n, t), 2000, 20261018 + n)
    # as produced by the rotation-based sampler these records were first
    # generated with; a faster sampler must reproduce every byte.
    @pytest.mark.parametrize(
        "n,t,digest",
        [
            (2, 0.8333, "f04883bad21ea2af31a87474b6ad0861c0f9de6337d03120a65f3c5360a60928"),
            (4, 0.3, "dba619659387d25d58c3e7f21b73b41091bf13c18e5f8bb313bd884afd76faba"),
            (6, 0.5, "4e94f82cc5eab68715b8e0e1a01a49eec46328542758c31cf8d7f63392abbee6"),
            (8, 0.5, "b59723fe5c67598f171ed7a4000c1b440f22612cdf27177dc21b7bb408f027e1"),
        ],
    )
    def test_pinned_record_bytes(self, n, t, digest):
        record = stream_shadows(werner_state(n, t), 2000, 20261018 + n)
        assert hashlib.sha256(record.to_bytes()).hexdigest() == digest

    def test_iterator_matches_stream(self):
        rho = werner_state(2, 0.8)
        rec = stream_shadows(rho, 20, 21)
        assert list(iter_snapshots(rho, 20, 21)) == list(rec)

    def test_iterator_offset_matches_slice(self):
        rho = werner_state(2, 0.8)
        rec = stream_shadows(rho, 30, 9)
        tail = list(iter_snapshots(rho, 10, 9, start=20))
        assert tail == list(rec)[20:]

    def test_seed_changes_record(self):
        rho = werner_state(2, 0.8)
        assert stream_shadows(rho, 50, 1) != stream_shadows(rho, 50, 2)
