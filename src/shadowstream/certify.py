"""Entanglement certification from partial-transpose moments.

A separable state has a positive semidefinite partial transpose, and a
PSD spectrum has nonnegative elementary symmetric polynomials (ESPs).
Estimated moments ``p_k = sum(lambda**k)`` therefore certify
entanglement as soon as any derived ``e_k`` is negative; the smallest
such order is the cheapest witness the moments can offer.

ESPs follow from power sums via the Newton-Girard recurrence

    k e_k = sum_{j=1}^{k} (-1)**(j-1) p_j e_{k-j},      e_0 = 1.

Because the characteristic polynomial of a Hermitian matrix has only
real roots, Descartes' rule applied to the ESP sign sequence bounds and
parity-matches the number of negative eigenvalues, which refines the
verdict beyond a single violated order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "EspVector",
    "newton_girard",
    "hierarchy_check",
    "DescartesBound",
    "descartes_bound",
    "CertificationVerdict",
    "certification_verdict",
]

# Magnitudes below this are treated as exact zeros when counting sign
# variations; estimated ESPs this small carry no usable sign.
ZERO_TOLERANCE = 1e-14


@dataclass(frozen=True)
class EspVector:
    """Elementary symmetric polynomials ``e_0 .. e_k`` with provenance.

    ``source`` records whether the values came from estimated moments
    or from an exact spectrum; downstream reporting keeps the two apart.
    """

    values: np.ndarray
    source: str = "estimated"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("an ESP vector needs at least the order-0 entry")
        if values[0] != 1.0:
            raise ValueError(f"e_0 must be exactly 1, got {values[0]}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def max_order(self) -> int:
        return self.values.size - 1

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def newton_girard(
    power_sums: Sequence[float] | np.ndarray, source: str = "estimated"
) -> EspVector | np.ndarray:
    """Convert power sums ``[p_1, p_2, ..., p_K]`` into ``e_0 .. e_K``.

    For trace moments of a unit-trace operator the first entry is 1,
    but the recurrence itself does not require that.  A ``(rows, K)``
    array converts every row with the same operation sequence and
    returns a plain ``(rows, K + 1)`` array whose rows equal the
    :class:`EspVector` values of the rows bit for bit; a NaN in ``p_j``
    makes every ``e_k`` with ``k >= j`` NaN.
    """
    p = np.asarray(power_sums, dtype=np.float64)
    if p.ndim not in (1, 2):
        raise ValueError(f"power sums must be a sequence or (rows, K) array, got shape {p.shape}")
    K = p.shape[-1]
    e = np.empty(p.shape[:-1] + (K + 1,))
    e[..., 0] = 1.0
    for k in range(1, K + 1):
        acc = 0.0
        for j in range(1, k + 1):
            term = p[..., j - 1] * e[..., k - j]
            acc = acc + (term if j % 2 else -term)
        e[..., k] = acc / k
    return EspVector(e, source=source) if p.ndim == 1 else e


def hierarchy_check(esp: EspVector, tolerance: float = 0.0) -> int | None:
    """Smallest order ``k >= 1`` with ``e_k < -tolerance``, or None.

    A hit means the underlying spectrum cannot be PSD, i.e. the state
    is entangled across the transposed cut.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    for k in range(1, esp.max_order + 1):
        if esp.values[k] < -tolerance:
            return k
    return None


class DescartesBound(NamedTuple):
    variations: int
    parity: int


def descartes_bound(esp: EspVector, zero_tolerance: float = ZERO_TOLERANCE) -> DescartesBound:
    """Sign-variation bound on the number of negative eigenvalues.

    Entries within ``zero_tolerance`` of zero are deleted, then sign
    changes of consecutive survivors are counted.  For a full ESP
    sequence of a real spectrum the negative-eigenvalue count is at
    most ``variations`` and has the same parity.
    """
    signs = [1.0]
    for value in esp.values[1:]:
        if abs(value) > zero_tolerance:
            signs.append(1.0 if value > 0 else -1.0)
    variations = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return DescartesBound(variations, variations % 2)


@dataclass(frozen=True)
class CertificationVerdict:
    """Combined verdict from one ESP vector."""

    entangled: bool
    first_violated_order: int | None
    negative_count_bound: int
    negative_count_parity: int
    source: str


def certification_verdict(esp: EspVector, tolerance: float = 0.0) -> CertificationVerdict:
    """Assemble the hierarchy and Descartes readings of one ESP vector."""
    first = hierarchy_check(esp, tolerance)
    bound = descartes_bound(esp)
    return CertificationVerdict(
        entangled=first is not None,
        first_violated_order=first,
        negative_count_bound=bound.variations,
        negative_count_parity=bound.parity,
        source=esp.source,
    )
