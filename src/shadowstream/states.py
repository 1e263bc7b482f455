"""Density matrices, partial transposition, and the Werner-state oracle.

Qubit convention used throughout the package: qubit 0 is the *most
significant* bit of a computational-basis index, so the basis state
``|b_0 b_1 ... b_{N-1}>`` has index ``sum(b_q * 2**(N-1-q))`` and an
N-qubit operator is the Kronecker product of its qubit-0 factor with the
qubit-1 factor and so on, left to right.

The Werner family on an even number of qubits provides exact reference
values for everything downstream.  With local dimension ``d = 2**(N/2)``
and swap operator ``F`` on the balanced split,

    rho_W(t) = (I - t F) / (d**2 - d t),      t in [-1, 1].

Its partial transpose has a closed-form spectrum (one non-degenerate
level plus one (d**2 - 1)-fold level), which makes moments, elementary
symmetric polynomials and the first certifiable moment order available
in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvalidStateError

__all__ = [
    "MAX_DENSE_QUBITS",
    "DensityMatrix",
    "Bipartition",
    "PtSpectrum",
    "partial_transpose",
    "werner_state",
    "werner_pt_spectrum",
    "exact_pt_moment",
    "exact_esp",
    "first_violated_order",
    "load_density_matrix",
    "dump_density_matrix",
]

# Dense 2**N x 2**N work (state construction, sampling, reconstruction)
# is capped here; streaming estimators that avoid dense objects are not
# subject to this limit.
MAX_DENSE_QUBITS = 12

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10


def _check_qubit_count(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense operations support at most {MAX_DENSE_QUBITS} qubits, got {n_qubits}"
        )


@dataclass(frozen=True)
class DensityMatrix:
    """A dense N-qubit operator with unit trace.

    Hermiticity and unit trace are enforced on construction.  Positive
    semidefiniteness is deliberately *not* enforced here: snapshot
    averages and partial transposes are legitimately non-positive.  Use
    :meth:`assert_physical` where an actual quantum state is required.
    """

    entries: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidStateError(f"expected a square matrix, got shape {entries.shape}")
        dim = entries.shape[0]
        n = dim.bit_length() - 1
        if 2**n != dim:
            raise InvalidStateError(f"dimension {dim} is not a power of two")
        _check_qubit_count(n)
        if not np.allclose(entries, entries.conj().T, atol=_HERMITICITY_TOL, rtol=0):
            raise InvalidStateError("matrix is not Hermitian")
        trace = complex(np.trace(entries))
        if abs(trace - 1.0) > _TRACE_TOL:
            raise InvalidStateError(f"trace {trace} differs from 1 beyond tolerance")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n_qubits", n)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def assert_physical(self, tol: float = _PSD_TOL) -> None:
        """Raise :class:`InvalidStateError` unless the matrix is PSD within tol."""
        lowest = float(np.linalg.eigvalsh(self.entries)[0])
        if lowest < -tol:
            raise InvalidStateError(f"matrix has negative eigenvalue {lowest:.3e}")


@dataclass(frozen=True)
class Bipartition:
    """A split of ``n_qubits`` qubits; ``transposed`` names the half to transpose.

    The transposed subsystem must be a nonempty proper subset, since
    transposing nothing or everything never reveals entanglement.
    """

    n_qubits: int
    transposed: tuple[int, ...]

    def __post_init__(self):
        qubits = _part_qubits(self.transposed, self.n_qubits)
        if not qubits:
            raise ValueError("transposed subsystem must be nonempty")
        if len(qubits) >= self.n_qubits:
            raise ValueError("transposed subsystem must be a proper subset")
        object.__setattr__(self, "transposed", qubits)

    @classmethod
    def balanced(cls, n_qubits: int) -> "Bipartition":
        """The default split: the last ``n_qubits // 2`` qubits are transposed."""
        if n_qubits < 2 or n_qubits % 2:
            raise ValueError(f"balanced bipartition needs an even qubit count, got {n_qubits}")
        return cls(n_qubits, tuple(range(n_qubits // 2, n_qubits)))


def _part_qubits(part, n_qubits: int) -> tuple[int, ...]:
    """The sorted, distinct qubits named by ``part`` among ``n_qubits``.

    ``part`` is a :class:`Bipartition` over ``n_qubits`` qubits or any
    iterable of qubit indices; every caller that transposes qubits
    (dense, bit-flip or code form) normalises through here.
    """
    if isinstance(part, Bipartition):
        if part.n_qubits != n_qubits:
            raise ValueError(
                f"bipartition is over {part.n_qubits} qubits, expected {n_qubits}"
            )
        return part.transposed
    qubits = tuple(sorted(set(int(q) for q in part)))
    if qubits and (qubits[0] < 0 or qubits[-1] >= n_qubits):
        raise ValueError(f"qubit indices {qubits} out of range for {n_qubits} qubits")
    return qubits


def partial_transpose(rho, part) -> np.ndarray:
    """Transpose the given qubits of a dense operator.

    ``rho`` may be a :class:`DensityMatrix` or a plain square array;
    ``part`` may be a :class:`Bipartition` or any iterable of qubit
    indices (the empty set is a copy, the full set a plain transpose).
    The result is always a new dense complex array.
    """
    entries = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    dim = entries.shape[0]
    n = dim.bit_length() - 1
    if entries.shape != (dim, dim) or 2**n != dim:
        raise ValueError(f"expected a square power-of-two matrix, got shape {entries.shape}")
    qubits = _part_qubits(part, n)
    legs = entries.reshape((2,) * (2 * n))
    order = list(range(2 * n))
    for q in qubits:
        order[q], order[n + q] = order[n + q], order[q]
    return np.ascontiguousarray(legs.transpose(order).reshape(dim, dim))


def _werner_local_dim(n_qubits: int, t: float) -> int:
    """Check Werner arguments and return the local dimension ``2**(N/2)``."""
    if n_qubits < 2 or n_qubits % 2:
        raise ValueError(f"Werner states need an even qubit count >= 2, got {n_qubits}")
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"mixing parameter must lie in [-1, 1], got {t}")
    return 2 ** (n_qubits // 2)


def werner_state(n_qubits: int, t: float) -> DensityMatrix:
    """The Werner state with mixing parameter ``t`` on ``n_qubits`` qubits.

    ``t = 1`` on two qubits gives the singlet projector; ``t`` at or
    below ``1/d`` gives a PPT (hence undetectable) state.
    """
    d = _werner_local_dim(n_qubits, t)
    _check_qubit_count(n_qubits)
    swap = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    entries = (np.eye(d * d, dtype=np.complex128) - t * swap) / (d * d - d * t)
    return DensityMatrix(entries)


@dataclass(frozen=True)
class PtSpectrum:
    """Closed-form partial-transpose spectrum of a Werner state.

    ``lambda_minus`` occurs once, ``lambda_plus`` with multiplicity
    ``local_dim**2 - 1``; together they sum to one.
    """

    local_dim: int
    lambda_minus: float
    lambda_plus: float

    def __post_init__(self):
        d2 = self.local_dim**2
        total = self.lambda_minus + (d2 - 1) * self.lambda_plus
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"spectrum sums to {total}, expected 1")

    def eigenvalues(self) -> np.ndarray:
        """The full spectrum as a sorted length ``local_dim**2`` array."""
        d2 = self.local_dim**2
        return np.sort(np.concatenate(([self.lambda_minus], np.full(d2 - 1, self.lambda_plus))))


def werner_pt_spectrum(n_qubits: int, t: float) -> PtSpectrum:
    """Analytic spectrum of the partially transposed Werner state."""
    d = _werner_local_dim(n_qubits, t)
    denom = d * d - d * t
    return PtSpectrum(local_dim=d, lambda_minus=(1.0 - d * t) / denom, lambda_plus=1.0 / denom)


def exact_pt_moment(spectrum: PtSpectrum, order: int) -> float:
    """The exact power sum ``sum(lambda**order)`` of a Werner PT spectrum."""
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
    d2 = spectrum.local_dim**2
    return spectrum.lambda_minus**order + (d2 - 1) * spectrum.lambda_plus**order


def exact_esp(spectrum: PtSpectrum, k: int) -> float:
    """The exact elementary symmetric polynomial ``e_k`` of a Werner PT spectrum.

    With one eigenvalue ``lm`` and ``d**2 - 1`` copies of ``lp``, any
    k-subset either avoids ``lm`` or contains it exactly once:

        e_k = C(d**2 - 1, k) lp**k + C(d**2 - 1, k - 1) lm lp**(k - 1)

    Orders beyond ``d**2`` return 0 and ``k = 0`` returns 1.
    """
    if k < 0:
        raise ValueError(f"ESP order must be >= 0, got {k}")
    if k == 0:
        return 1.0
    d2 = spectrum.local_dim**2
    if k > d2:
        return 0.0
    lp, lm = spectrum.lambda_plus, spectrum.lambda_minus
    return math.comb(d2 - 1, k) * lp**k + math.comb(d2 - 1, k - 1) * lm * lp ** (k - 1)


def first_violated_order(n_qubits: int, t: float) -> int | None:
    """Smallest ``k`` with ``e_k < 0`` for the Werner PT spectrum, or None.

    Negativity requires ``t > d/k``, so the first violated order is the
    smallest integer exceeding ``d/t``; for ``t <= 1/d`` the state is
    PPT and no order is ever violated.
    """
    d = _werner_local_dim(n_qubits, t)
    if t <= 1.0 / d:
        return None
    return math.floor(d / t) + 1


def load_density_matrix(path) -> DensityMatrix:
    """Read a density matrix from the JSON interchange format.

    The file holds ``{"n_qubits": N, "matrix": [[re, im], ...]}`` with
    the matrix given row-major as ``4**N`` real/imaginary pairs.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        n = int(payload["n_qubits"])
        flat = np.array([complex(re, im) for re, im in payload["matrix"]], dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStateError(
            f"malformed density-matrix file {path}: expected n_qubits and a list of "
            f"[re, im] pairs ({exc})"
        ) from None
    _check_qubit_count(n)
    dim = 2**n
    if flat.size != dim * dim:
        raise InvalidStateError(
            f"expected {dim * dim} matrix entries in {path}, found {flat.size}"
        )
    return DensityMatrix(flat.reshape(dim, dim))


def dump_density_matrix(rho: DensityMatrix, path) -> None:
    """Write ``rho`` in the format read by :func:`load_density_matrix`."""
    flat = rho.entries.reshape(-1)
    payload = {
        "n_qubits": rho.n_qubits,
        "matrix": [[float(z.real), float(z.imag)] for z in flat],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
