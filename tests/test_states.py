"""States, partial transposition, and the Werner reference family."""

import json
import math

import numpy as np
import pytest

from shadowstream import (
    Bipartition,
    CapacityError,
    DensityMatrix,
    InvalidStateError,
    exact_esp,
    exact_pt_moment,
    first_violated_order,
    load_density_matrix,
    partial_transpose,
    werner_pt_spectrum,
    werner_state,
)
from shadowstream.states import dump_density_matrix


def random_state(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


class TestDensityMatrix:
    def test_derives_qubit_count(self):
        rho = DensityMatrix(np.eye(8) / 8)
        assert rho.n_qubits == 3
        assert rho.dim == 8

    def test_rejects_non_square(self):
        with pytest.raises(InvalidStateError, match="square"):
            DensityMatrix(np.ones((2, 3)) / 6)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidStateError, match="power of two"):
            DensityMatrix(np.eye(3) / 3)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_negative_matrix_constructs_but_fails_physical_check(self):
        # Snapshot averages are valid DensityMatrix values despite not
        # being PSD, so positivity is a separate, explicit check.
        m = np.diag([1.5, -0.5])
        rho = DensityMatrix(m)
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            rho.assert_physical()

    def test_physical_check_passes_for_states(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            random_state(n, rng).assert_physical()

    def test_dense_qubit_cap(self):
        with pytest.raises(CapacityError):
            werner_state(14, 0.5)


class TestBipartition:
    def test_sorts_and_dedupes(self):
        part = Bipartition(4, (3, 1, 3))
        assert part.transposed == (1, 3)

    def test_balanced(self):
        assert Bipartition.balanced(2).transposed == (1,)
        assert Bipartition.balanced(6).transposed == (3, 4, 5)

    def test_balanced_rejects_odd(self):
        with pytest.raises(ValueError):
            Bipartition.balanced(3)

    @pytest.mark.parametrize("bad", [(), (0, 1), (5,), (-1,)])
    def test_rejects_improper_subsets(self, bad):
        with pytest.raises(ValueError):
            Bipartition(2, bad)


class TestPartialTranspose:
    def test_block_structure_two_qubits(self):
        """Viewed as a 2x2 grid of 2x2 blocks, transposing qubit 1
        transposes each block and transposing qubit 0 swaps the
        off-diagonal blocks."""
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

        expected_q1 = np.empty_like(m)
        expected_q0 = np.empty_like(m)
        for i in range(2):
            for j in range(2):
                expected_q1[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = m[
                    2 * i : 2 * i + 2, 2 * j : 2 * j + 2
                ].T
                expected_q0[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = m[
                    2 * j : 2 * j + 2, 2 * i : 2 * i + 2
                ]
        assert np.array_equal(partial_transpose(m, (1,)), expected_q1)
        assert np.array_equal(partial_transpose(m, (0,)), expected_q0)

    def test_entry_permutation_oracle(self):
        # (rho^{T_S})[i, j] = rho[i', j'] where i'/j' swap the bits in S.
        rng = np.random.default_rng(3)
        n = 3
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for subset in [(0,), (2,), (0, 2), (0, 1, 2)]:
            result = partial_transpose(m, subset)
            for i in range(8):
                for j in range(8):
                    ii, jj = i, j
                    for q in subset:
                        shift = n - 1 - q
                        bi, bj = (i >> shift) & 1, (j >> shift) & 1
                        ii = (ii & ~(1 << shift)) | (bj << shift)
                        jj = (jj & ~(1 << shift)) | (bi << shift)
                    assert result[i, j] == m[ii, jj]

    def test_involution(self):
        rng = np.random.default_rng(5)
        rho = random_state(3, rng)
        part = Bipartition(3, (1, 2))
        twice = partial_transpose(partial_transpose(rho, part), part)
        assert np.array_equal(twice, rho.entries)

    def test_empty_and_full_subsets(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(partial_transpose(m, ()), m)
        assert np.array_equal(partial_transpose(m, (0, 1)), m.T)

    def test_bipartition_size_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4) / 4, Bipartition(3, (1,)))

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(13)
        rho = random_state(2, rng)
        pt = partial_transpose(rho, (1,))
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(pt, pt.conj().T)


class TestWernerFamily:
    def test_singlet_limit(self):
        # t = 1 on two qubits is the projector onto (|01> - |10>)/sqrt(2)
        rho = werner_state(2, 1.0)
        singlet = np.zeros((4, 4))
        singlet[1, 1] = singlet[2, 2] = 0.5
        singlet[1, 2] = singlet[2, 1] = -0.5
        assert np.allclose(rho.entries, singlet, atol=1e-15)

    def test_is_physical_across_range(self):
        for n in (2, 4):
            for t in np.linspace(-1, 1, 9):
                werner_state(n, float(t)).assert_physical()

    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_odd_qubit_counts(self, n):
        with pytest.raises(ValueError):
            werner_state(n, 0.5)

    def test_rejects_out_of_range_mixing(self):
        with pytest.raises(ValueError):
            werner_state(2, 1.2)

    def test_spectrum_matches_dense_diagonalization(self):
        for n in (2, 4):
            for t in (-0.7, 0.0, 0.3, 1.0 / 2 ** (n // 2), 0.9):
                spectrum = werner_pt_spectrum(n, t)
                dense = partial_transpose(werner_state(n, t), Bipartition.balanced(n))
                np.testing.assert_allclose(
                    np.linalg.eigvalsh(dense), spectrum.eigenvalues(), atol=1e-12
                )

    def test_two_qubit_spectrum_fractions(self):
        # t = 5/6: lambda_- = (1 - 2 * 5/6) / (4 - 2 * 5/6) = -2/7,
        # lambda_+ = 1 / (7/3) = 3/7.
        spectrum = werner_pt_spectrum(2, 5.0 / 6.0)
        assert spectrum.lambda_minus == pytest.approx(-2.0 / 7.0, abs=1e-15)
        assert spectrum.lambda_plus == pytest.approx(3.0 / 7.0, abs=1e-15)


class TestExactMoments:
    # Hand-reduced fractions for the two-qubit Werner state at t = 5/6.
    SPECTRUM = werner_pt_spectrum(2, 5.0 / 6.0)

    @pytest.mark.parametrize(
        "order,expected",
        [(1, 1.0), (2, 31.0 / 49.0), (3, 73.0 / 343.0), (4, 259.0 / 2401.0)],
    )
    def test_frozen_moments(self, order, expected):
        assert exact_pt_moment(self.SPECTRUM, order) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "k,expected",
        [
            (0, 1.0),
            (1, 1.0),
            (2, 9.0 / 49.0),
            (3, -27.0 / 343.0),
            (4, -54.0 / 2401.0),
        ],
    )
    def test_frozen_esps(self, k, expected):
        assert exact_esp(self.SPECTRUM, k) == pytest.approx(expected, rel=1e-14, abs=1e-16)

    def test_esp_vanishes_beyond_dimension(self):
        assert exact_esp(self.SPECTRUM, 5) == 0.0

    def test_esp_generating_function(self):
        # prod(1 + lambda_i) telescopes the whole ESP sequence.
        for n, t in [(2, 0.4), (2, 0.95), (4, 0.8)]:
            spectrum = werner_pt_spectrum(n, t)
            d2 = spectrum.local_dim**2
            total = sum(exact_esp(spectrum, k) for k in range(d2 + 1))
            assert total == pytest.approx(float(np.prod(1 + spectrum.eigenvalues())), rel=1e-12)

    def test_moment_order_validation(self):
        with pytest.raises(ValueError):
            exact_pt_moment(self.SPECTRUM, 0)
        with pytest.raises(ValueError):
            exact_esp(self.SPECTRUM, -1)


class TestFirstViolatedOrder:
    def test_ppt_states_are_never_flagged(self):
        assert first_violated_order(2, 0.5) is None
        assert first_violated_order(2, 0.1) is None
        assert first_violated_order(4, 0.25) is None
        assert first_violated_order(2, -1.0) is None

    def test_matches_exact_esp_signs(self):
        for n in (2, 4, 6):
            d = 2 ** (n // 2)
            for t in np.linspace(0.01, 1.0, 40):
                predicted = first_violated_order(n, float(t))
                by_scan = next(
                    (
                        k
                        for k in range(1, d * d + 1)
                        if exact_esp(werner_pt_spectrum(n, float(t)), k) < 0
                    ),
                    None,
                )
                assert predicted == by_scan, f"n={n} t={t}"

    def test_singlet_boundary(self):
        # At t = 1 exactly, e_2 = 3/4 - 3/4 = 0: order 2 sits on the
        # boundary and the first strict violation is order 3.
        assert first_violated_order(2, 1.0) == 3
        assert exact_esp(werner_pt_spectrum(2, 1.0), 2) == pytest.approx(0.0, abs=1e-15)
        assert exact_esp(werner_pt_spectrum(2, 1.0), 3) == pytest.approx(-0.25, abs=1e-15)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        rho = random_state(2, rng)
        path = tmp_path / "state.json"
        dump_density_matrix(rho, path)
        loaded = load_density_matrix(path)
        np.testing.assert_allclose(loaded.entries, rho.entries, atol=1e-15)
        assert loaded.n_qubits == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"matrix": []}')
        with pytest.raises(InvalidStateError):
            load_density_matrix(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_qubits": 1, "matrix": [[1.0], [0, 0], [0, 0], [0, 0]]}',
            '{"n_qubits": 1, "matrix": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"n_qubits": 1, "matrix": [["a", 0], [0, 0], [0, 0], [0, 0]]}',
            '{"n_qubits": "one", "matrix": []}',
            '{"n_qubits": 1, "matrix": 5}',
            "[1, 2]",
        ],
    )
    def test_malformed_entries(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidStateError, match="malformed"):
            load_density_matrix(path)

    @pytest.mark.parametrize("n_qubits", [0, -1, 10**9])
    def test_qubit_count_out_of_range(self, tmp_path, n_qubits):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_qubits": n_qubits, "matrix": [[1.0, 0.0]]}))
        with pytest.raises(ValueError, match="qubit"):
            load_density_matrix(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"n_qubits": 1, "matrix": [[1.0, 0.0]]}')
        with pytest.raises(InvalidStateError, match="entries"):
            load_density_matrix(path)
