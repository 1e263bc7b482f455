"""Moments-to-ESP conversion and the certification read-outs."""

import numpy as np
import pytest

from shadowstream import (
    EspVector,
    certification_verdict,
    descartes_bound,
    exact_esp,
    exact_pt_moment,
    hierarchy_check,
    newton_girard,
    werner_pt_spectrum,
)


def esp_by_expansion(spectrum: np.ndarray) -> np.ndarray:
    """Coefficient-recursion reference: expand prod_i (1 + lambda_i x)."""
    coeffs = np.zeros(spectrum.size + 1)
    coeffs[0] = 1.0
    for lam in spectrum:
        coeffs[1:] += lam * coeffs[:-1].copy()
    return coeffs


class TestNewtonGirard:
    def test_two_qubit_werner_fractions(self):
        spectrum = werner_pt_spectrum(2, 5.0 / 6.0)
        p = [exact_pt_moment(spectrum, m) for m in range(1, 5)]
        esp = newton_girard(p)
        assert esp[0] == 1.0
        assert esp[1] == pytest.approx(1.0, rel=1e-14)
        assert esp[2] == pytest.approx(9.0 / 49.0, rel=1e-13)
        assert esp[3] == pytest.approx(-27.0 / 343.0, rel=1e-13)
        assert esp[4] == pytest.approx(-54.0 / 2401.0, rel=1e-12)

    def test_random_spectra_match_polynomial_expansion(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            spectrum = rng.uniform(-1.0, 1.0, size=d)
            p = [float(np.sum(spectrum**m)) for m in range(1, d + 1)]
            esp = newton_girard(p)
            expected = esp_by_expansion(spectrum)
            np.testing.assert_allclose(esp.values, expected, atol=1e-11)

    def test_source_is_carried(self):
        esp = newton_girard([1.0, 0.5], source="exact")
        assert esp.source == "exact"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            newton_girard(np.ones((2, 2, 2)))


class TestEspVector:
    def test_requires_unit_leading_entry(self):
        with pytest.raises(ValueError, match="e_0"):
            EspVector(np.array([0.9, 1.0]))

    def test_requires_entries(self):
        with pytest.raises(ValueError):
            EspVector(np.array([]))

    def test_values_read_only(self):
        esp = EspVector(np.array([1.0, 1.0, 0.2]))
        assert esp.max_order == 2
        with pytest.raises(ValueError):
            esp.values[1] = 5.0


class TestHierarchyCheck:
    def test_finds_first_negative(self):
        esp = EspVector(np.array([1.0, 1.0, 0.3, -0.01, -0.5]))
        assert hierarchy_check(esp) == 3

    def test_all_nonnegative(self):
        esp = EspVector(np.array([1.0, 1.0, 0.3, 0.0]))
        assert hierarchy_check(esp) is None

    def test_tolerance_masks_small_dips(self):
        esp = EspVector(np.array([1.0, 1.0, -1e-9]))
        assert hierarchy_check(esp) == 2
        assert hierarchy_check(esp, tolerance=1e-6) is None

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            hierarchy_check(EspVector(np.array([1.0])), tolerance=-1.0)

    def test_werner_first_violation_matches_closed_form(self):
        for n, t in [(2, 0.7), (2, 0.95), (4, 0.8), (4, 0.5)]:
            spectrum = werner_pt_spectrum(n, t)
            d2 = spectrum.local_dim**2
            esp = EspVector(
                np.array([exact_esp(spectrum, k) for k in range(d2 + 1)]), source="exact"
            )
            from shadowstream import first_violated_order

            assert hierarchy_check(esp) == first_violated_order(n, t)


class TestDescartesBound:
    def test_counts_sign_variations(self):
        esp = EspVector(np.array([1.0, 1.0, 0.2, -0.1, 0.05, -0.01]))
        bound = descartes_bound(esp)
        assert bound.variations == 3
        assert bound.parity == 1

    def test_zeros_are_dropped(self):
        esp = EspVector(np.array([1.0, 0.0, -0.5]))
        assert descartes_bound(esp).variations == 1

    def test_near_zeros_follow_tolerance(self):
        # A negative rounding crumb between positive entries: dropped it
        # contributes nothing, kept it fakes two variations.
        esp = EspVector(np.array([1.0, -1e-15, 0.5]))
        assert descartes_bound(esp).variations == 0
        assert descartes_bound(esp, zero_tolerance=0.0).variations == 2

    def test_bounds_true_negative_count(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            d = int(rng.integers(2, 10))
            spectrum = rng.uniform(-1.0, 1.0, size=d)
            esp = EspVector(esp_by_expansion(spectrum))
            bound = descartes_bound(esp)
            negatives = int(np.sum(spectrum < 0))
            assert negatives <= bound.variations
            assert negatives % 2 == bound.parity


class TestVerdict:
    def test_npt_werner(self):
        spectrum = werner_pt_spectrum(2, 5.0 / 6.0)
        esp = EspVector(
            np.array([exact_esp(spectrum, k) for k in range(5)]), source="exact"
        )
        verdict = certification_verdict(esp)
        assert verdict.entangled
        assert verdict.first_violated_order == 3
        assert verdict.negative_count_parity == 1  # exactly one negative level
        assert verdict.negative_count_bound >= 1
        assert verdict.source == "exact"

    def test_ppt_werner(self):
        spectrum = werner_pt_spectrum(2, 0.3)
        esp = EspVector(np.array([exact_esp(spectrum, k) for k in range(5)]), source="exact")
        verdict = certification_verdict(esp)
        assert not verdict.entangled
        assert verdict.first_violated_order is None
