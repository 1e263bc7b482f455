"""Randomized local Pauli measurements and the classical records they produce.

Each shot measures every qubit in a uniformly random Pauli basis (X, Y
or Z) and keeps only the basis choice and the observed bit, three bits
of classical information per qubit.  The single-qubit inverse-channel
factor associated with outcome ``b`` in basis ``P`` is

    f = I/2 + (3/2) * (-1)**b * P,

and the tensor product of these factors across qubits is an unbiased
(if wildly unphysical) estimate of the measured state.

Randomness is counter-based: shot ``i`` of a stream is drawn from the
Philox4x64-10 generator ``shot_rng(seed, i)`` (key ``(seed, 0)``, counter
``(0, 0, i, 0)``), so any shot can be regenerated in isolation and
generation order (or thread count) cannot change the record.

Shots are generated in blocks.  ``shot_rng(seed, i)`` first bumps its
counter to ``(1, 0, i, 0)``, and the first two 64-bit words of that
Philox block settle the whole shot when nothing is rejected:

* axis ``q`` (``q < N <= 8``) is byte ``q`` of word 0, low byte first,
  mapped to ``(3 * byte) >> 8`` by numpy's Lemire rule for
  ``integers(0, 3)``; the rule rejects ``byte == 0`` and draws again;
* the outcome uniform is ``(word 1 >> 11) * 2**-53``, as in ``random()``.

:meth:`BornSampler.sample_block` computes those words for a whole block
at once with a numpy Philox (:func:`_philox_words`, after Salmon et al.,
SC'11), groups the block's shots by basis and looks each group's
uniforms up in the cached cumulative distribution.  A shot whose draws
those two words do not settle (a rejected byte, or more than 8 qubits)
is drawn through ``shot_rng`` and :meth:`BornSampler.sample` instead.
Both routes draw the same numbers, so records do not depend on which
one produced them, nor on how a stream is cut into blocks.  A
``sample_block`` call costs about as much for 64 shots as for 256 (the
Philox rounds are a fixed number of array operations), so callers draw
in chunks: ``stream_shadows`` in blocks of ``BLOCK_SHOTS``, and a
campaign run its opening 64 + 128 + 256 shots in one call.
"""

from __future__ import annotations

import functools
import json
import struct
from typing import Iterator

import numpy as np

from .states import DensityMatrix

__all__ = [
    "AXIS_X",
    "AXIS_Y",
    "AXIS_Z",
    "AXIS_CHARS",
    "Snapshot",
    "ShadowRecord",
    "inverse_channel_factor",
    "snapshot_matrix",
    "codes_matrix",
    "shot_rng",
    "sample_snapshot",
    "iter_snapshots",
    "stream_shadows",
    "BornSampler",
]

AXIS_X, AXIS_Y, AXIS_Z = 0, 1, 2
AXIS_CHARS = "XYZ"

_PAULIS = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

# Per-qubit map from a 2x2 block (r00, r01, r10, r11) of an operator to
# tr(block @ P) for P = I, X, Y, Z; tr(r P) sums r_ij P_ji.
_PAULI_MAP = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=np.complex128,
)

# FACTORS[a, b] = I/2 + (3/2) (-1)^b P_a, indexed by axis then outcome bit.
FACTORS = np.empty((3, 2, 2, 2), dtype=np.complex128)
for _a in range(3):
    for _b in range(2):
        FACTORS[_a, _b] = 0.5 * np.eye(2) + 1.5 * (-1.0) ** _b * _PAULIS[_a]
FACTORS.setflags(write=False)


def inverse_channel_factor(axis: int, bit: int) -> np.ndarray:
    """The 2x2 snapshot factor for one qubit's basis choice and outcome."""
    if not (0 <= axis < 3 and 0 <= bit < 2):
        raise ValueError(f"axis must be 0..2 and bit 0..1, got ({axis}, {bit})")
    return FACTORS[axis, bit]


def _coerce_fields(values, what: str, upper: int) -> np.ndarray:
    """One shot's ``what`` (axes or bits) as a new one-dimensional ``uint8``
    array, by the rule of :func:`_block_field`; axes may also be a string
    of axis letters."""
    arr = np.asarray(values)
    if arr.dtype.kind == "U" and what == "axes":
        arr = np.array([AXIS_CHARS.index(c) for c in "".join(arr.tolist())], dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
    return _block_field(arr, f"{what} entries must be integers 0 to {upper - 1}", upper, copy=True)


def _grown(rows: np.ndarray, done: int, total: int) -> np.ndarray:
    """A copy of the first ``done`` rows, memory order kept, with room for at least ``total``."""
    grown = np.empty_like(rows, shape=(max(16, 2 * total),) + rows.shape[1:])
    grown[:done] = rows[:done]
    return grown


def _coerce_block(axes, bits, n_qubits: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(B, N)`` axes and bits as ``uint8`` arrays, checked by the rule of
    :class:`Snapshot` row for row: matching 2-D shapes, ``n_qubits``
    columns when given, integer axes 0 to 2 and integer bits 0 or 1.
    Anything else raises ``ValueError``; values are checked before they
    are cast, so none wraps round into range."""
    axes, bits = np.asarray(axes), np.asarray(bits)
    if axes.ndim != 2 or axes.shape != bits.shape:
        raise ValueError(
            f"axes and bits must be matching (T, N) arrays, got {axes.shape} and {bits.shape}"
        )
    if n_qubits is not None and axes.shape[1] != n_qubits:
        raise ValueError(f"shots have {axes.shape[1]} qubits, expected {n_qubits}")
    return (
        _block_field(axes, "axis codes must be 0, 1 or 2", 3),
        _block_field(bits, "outcome bits must be 0 or 1", 2),
    )


def _block_field(values: np.ndarray, message: str, upper: int, copy: bool = False) -> np.ndarray:
    """``values`` as ``uint8`` if they are integers (or bools) in ``[0,
    upper)``, checked before the cast so that none wraps round into range;
    ``ValueError(message)`` otherwise."""
    if values.size and (
        values.dtype.kind not in "biu"
        or (values.dtype.kind == "i" and int(values.min()) < 0)
        or int(values.max()) >= upper
    ):
        raise ValueError(message)
    return values.astype(np.uint8, copy=copy)


class Snapshot:
    """One shot's classical data: a basis axis and an outcome bit per qubit.

    Axes may be given as integer codes or as a string like ``"XZY"``.
    Integer (or bool) axes 0 to 2 and bits 0 or 1 are accepted, checked
    before they are stored as ``uint8``, as :func:`_coerce_block` checks a
    block; anything else raises ``ValueError``.  Instances are immutable.
    """

    __slots__ = ("axes", "bits")

    def __init__(self, axes, bits):
        axes = _coerce_fields(axes, "axes", 3)
        bits = _coerce_fields(bits, "bits", 2)
        if axes.shape != bits.shape:
            raise ValueError(f"axes and bits differ in length: {axes.shape} vs {bits.shape}")
        if axes.size == 0:
            raise ValueError("a snapshot needs at least one qubit")
        axes.setflags(write=False)
        bits.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("Snapshot is immutable")

    @property
    def n_qubits(self) -> int:
        return self.axes.size

    def axis_string(self) -> str:
        return "".join(AXIS_CHARS[a] for a in self.axes)

    def bit_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return np.array_equal(self.axes, other.axes) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash((self.axes.tobytes(), self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"Snapshot({self.axis_string()!r}, {self.bit_string()!r})"


def snapshot_matrix(snapshot: Snapshot) -> np.ndarray:
    """Dense reconstruction of a snapshot: the Kronecker product of its factors.

    The result is Hermitian with unit trace but far from positive; only
    averages of many snapshots approach a physical state.  Built by
    :func:`codes_matrix` from the snapshot's codes ``2 * axis + bit``.
    """
    return codes_matrix(2 * snapshot.axes + snapshot.bits)


@functools.cache
def _pair_blocks() -> np.ndarray:
    """``np.kron(F[c0], F[c1])`` for every pair of factor codes, at ``6 * c0 + c1``.

    36 read-only 4x4 blocks (9 KB), built on first use.
    """
    flat = FACTORS.reshape(6, 2, 2)
    blocks = (flat[:, None, :, None, :, None] * flat[None, :, None, :, None, :]).reshape(36, 4, 4)
    blocks.setflags(write=False)
    return blocks


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes of ``a`` and ``b``, over their
    matching leading axes."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        a.shape[:-2] + (a.shape[-2] * b.shape[-2], -1)
    )


def codes_matrix(codes) -> np.ndarray:
    """Dense reconstruction from six-valued per-qubit codes (``2 * axis + bit``).

    ``codes`` is one shot's ``(N,)`` codes, giving a ``2**N x 2**N``
    matrix, or a ``(..., N)`` stack of shots, giving a ``(..., 2**N,
    2**N)`` stack; transposed codes (:func:`~shadowstream.kernel.snapshot_codes`)
    give the transposed snapshot.  Consecutive qubits are read as
    2-qubit blocks from a 36-entry table and joined with Kronecker
    products.  Every factor entry is 0, 0.5, 2, -1 or +-1.5 times 1 or
    i, so all products are exact and the result equals the qubit-by-qubit
    ``np.kron`` chain under ``==``.  Only the signs of zero entries can
    differ, and no running sum that starts from +0 can see those.  A
    one-shot result may be a read-only view into the table.
    """
    codes = np.asarray(codes, dtype=np.intp)
    if codes.ndim == 0 or codes.shape[-1] == 0:
        raise ValueError(f"expected nonempty codes along the last axis, got shape {codes.shape}")
    # One shot's codes as Python ints, which index faster than numpy scalars.
    columns = codes.tolist() if codes.ndim == 1 else np.moveaxis(codes, -1, 0)
    blocks = _pair_blocks()
    out = None
    for lo in range(0, len(columns), 2):
        if lo + 1 < len(columns):
            block = blocks[6 * columns[lo] + columns[lo + 1]]
        else:
            block = FACTORS[columns[lo] >> 1, columns[lo] & 1]
        out = block if out is None else _kron(out, block)
    return out


def shot_rng(seed: int, index: int) -> np.random.Generator:
    """The generator for shot ``index`` of the stream with the given seed.

    Distinct indices get disjoint Philox counter blocks, so shots can be
    generated in any order, in parallel, or re-generated individually.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if index < 0:
        raise ValueError(f"shot index must be nonnegative, got {index}")
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


# Most shots drawn (and, in the runner, estimated) as one array block.
BLOCK_SHOTS = 256

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_MUL_LO, _PHILOX_MUL_HI = _PHILOX_MUL & _LOW32, _PHILOX_MUL >> _SHIFT32
_PHILOX_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = np.arange(10, dtype=np.uint64)[:, None, None]


def _philox_words(seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The first two raw words of ``shot_rng(seed, i)`` for ``start <= i < stop``.

    Philox4x64-10 on counters ``(1, 0, i, 0)`` with key ``(seed, 0)``; the
    two multiplied words of each round are kept as one ``(2, B)`` array,
    and the high half of each 64x64-bit product is built from 32-bit halves.
    """
    keys = np.array([[seed], [0]], dtype=np.uint64) + _PHILOX_ROUNDS * _PHILOX_WEYL
    mul = np.empty((2, stop - start), dtype=np.uint64)
    mul[0] = 1
    mul[1] = np.arange(start, stop, dtype=np.uint64)
    mix = np.zeros_like(mul)
    for key in keys:
        low, high = mul & _LOW32, mul >> _SHIFT32
        carry = high * _PHILOX_MUL_LO
        carry += (low * _PHILOX_MUL_LO) >> _SHIFT32
        middle = low * _PHILOX_MUL_HI
        middle += carry & _LOW32
        high *= _PHILOX_MUL_HI
        high += carry >> _SHIFT32
        high += middle >> _SHIFT32
        mul *= _PHILOX_MUL
        # (c0, c1, c2, c3) <- (hi(c2) ^ c1 ^ k0, lo(c2), hi(c0) ^ c3 ^ k1, lo(c0))
        high = high[::-1]
        high ^= mix
        high ^= key
        mul, mix = high, mul[::-1]
    return mul[0], mix[0]


def _pauli_expectations(rho: DensityMatrix) -> np.ndarray:
    """``tr(rho P_s)`` for all 4**N Pauli strings, as float64.

    String ``s`` has digit ``p_q`` (0..3 for I, X, Y, Z) at place
    ``4**(N-1-q)``.  Computed by one 4x4 map per qubit over the
    entries of ``rho``; the values are real because ``rho`` is Hermitian.
    """
    n = rho.n_qubits
    legs = rho.entries.reshape((2,) * (2 * n))
    # Interleave row and column legs so qubit q owns the pair (i_q, j_q).
    order = [axis for q in range(n) for axis in (q, n + q)]
    t = legs.transpose(order).reshape((4,) * n)
    for q in range(n):
        t = _PAULI_MAP @ t.reshape(4**q, 4, -1)
    return np.ascontiguousarray(t.real).reshape(-1)


def _walsh_hadamard(values: np.ndarray) -> None:
    """In-place unnormalized Walsh-Hadamard transform of each row of ``(..., 2**N)``."""
    for q in range(values.shape[-1].bit_length() - 1):
        pairs = values.reshape(values.shape[:-1] + (1 << q, 2, -1))
        low, high = pairs[..., 0, :], pairs[..., 1, :]
        total = low + high
        np.subtract(low, high, out=high)
        low[...] = total


class BornSampler:
    """Samples snapshots from a fixed state, caching per-basis distributions.

    Construction checks ``rho`` once (``InvalidStateError`` if it is not
    physical), then keeps the real table of all 4**N Pauli expectations
    ``tr(rho P_s)`` instead of ``rho``.  Outcome ``b`` in basis ``a`` has
    probability ``2**-N sum_S (-1)**(b.S) tr(rho P_a[S])`` over qubit
    subsets ``S``, so a basis's distribution is the Walsh-Hadamard
    transform of the 2**N expectations of its ``{I, P_a}`` strings.  Each
    distinct axis combination's cumulative distribution is computed once
    and reused; the cache is skipped above 8 qubits where 3**N tables
    could dominate memory.
    """

    def __init__(self, rho: DensityMatrix):
        rho.assert_physical()
        n = rho.n_qubits
        self._n = n
        self._expectations = _pauli_expectations(rho)
        self._shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
        # Row S, column q: the place value 4**(N-1-q) of qubit q when S
        # contains it (qubit 0 is the most significant bit of S), else 0.
        shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
        self._places = ((np.arange(1 << n)[:, None] >> shifts) & 1) * 4**shifts
        self._cache: dict[bytes, np.ndarray] | None = {} if n <= 8 else None

    @property
    def n_qubits(self) -> int:
        return self._n

    def probabilities(self, axes) -> np.ndarray:
        """Born probabilities of all 2**N outcomes for one axis combination."""
        axes = _coerce_fields(axes, "axes", 3)
        if axes.size != self._n:
            raise ValueError(f"expected {self._n} axes, got {axes.size}")
        return self._cdfs(axes.reshape(1, -1))[0][0]

    def _cdfs(self, rows: np.ndarray) -> list:
        """``(probabilities, cdf)`` of each ``(B, N)`` axis row, the uncached
        rows in one stacked pass, each row's arithmetic as if alone."""
        cache = {} if self._cache is None else self._cache
        keys = [row.tobytes() for row in rows]
        missing = [i for i, key in enumerate(keys) if key not in cache]
        if missing:
            probs = self._expectations[(rows[missing].astype(np.int64) + 1) @ self._places.T]
            _walsh_hadamard(probs)
            probs *= 0.5**self._n
            np.clip(probs, 0.0, None, out=probs)
            probs /= probs.sum(axis=1, keepdims=True)
            cache.update(zip([keys[i] for i in missing], zip(probs, np.cumsum(probs, axis=1))))
        return [cache[key] for key in keys]

    def sample(self, rng: np.random.Generator) -> Snapshot:
        """Draw one snapshot: uniform axes, then Born-distributed outcome bits."""
        axes = rng.integers(0, 3, size=self._n, dtype=np.uint8)
        _, cdf = self._cdfs(axes[None])[0]
        u = rng.random()
        index = min(int(np.searchsorted(cdf, u, side="right")), cdf.size - 1)
        bits = ((index >> self._shifts) & 1).astype(np.uint8)
        return Snapshot(axes, bits)

    def sample_block(self, seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Shots ``start .. stop-1`` of the stream as ``(B, N)`` uint8 axes and bits.

        Row ``i`` equals ``self.sample(shot_rng(seed, start + i))``; see the
        module docstring for which shots take that route.
        """
        n, count = self._n, stop - start
        axes = np.empty((count, n), dtype=np.uint8)
        bits = np.empty((count, n), dtype=np.uint8)
        fallback = np.arange(count)
        if self._cache is not None and count > 0:
            raw_axes, raw_uniform = _philox_words(seed, start, stop)
            scaled = ((raw_axes[:, None] >> np.arange(0, 8 * n, 8, dtype=np.uint64)) & 0xFF) * 3
            settled = (scaled & 0xFF).all(axis=1)
            fallback = np.flatnonzero(~settled)
            drawn = axes[settled] = (scaled[settled] >> 8).astype(np.uint8)
            uniform = (raw_uniform[settled] >> np.uint64(11)) * 2.0**-53
            keys = drawn.astype(np.intp) @ 3 ** np.arange(n - 1, -1, -1)
            _, first, group = np.unique(keys, return_index=True, return_inverse=True)
            cdfs = np.array([cdf for _, cdf in self._cdfs(drawn[first])])
            # ``searchsorted(cdf, u, side="right")`` counts the entries <= u.
            below = np.count_nonzero(cdfs.reshape(-1, 1 << n)[group] <= uniform[:, None], axis=1)
            index = np.minimum(below, (1 << n) - 1)
            bits[settled] = (index[:, None] >> np.arange(n - 1, -1, -1)) & 1
        for i in fallback.tolist():
            snap = self.sample(shot_rng(seed, start + i))
            axes[i], bits[i] = snap.axes, snap.bits
        return axes, bits


def sample_snapshot(rho: DensityMatrix, rng: np.random.Generator) -> Snapshot:
    """Draw a single snapshot from ``rho`` (validates the state each call)."""
    return BornSampler(rho).sample(rng)


def iter_snapshots(
    rho: DensityMatrix, count: int, seed: int, start: int = 0
) -> Iterator[Snapshot]:
    """Yield snapshots ``start .. start+count-1`` of the stream, one at a time."""
    sampler = BornSampler(rho)
    for i in range(start, start + count):
        yield sampler.sample(shot_rng(seed, i))


class ShadowRecord:
    """An ordered, append-only sequence of snapshots plus its provenance.

    Internally two ``(T, N)`` byte arrays (axis codes and outcome bits)
    with amortized growth, so a record costs two bytes per qubit-shot in
    memory and three bits per qubit-shot on disk.
    """

    _MAGIC = b"SSHR"
    _VERSION = 1
    _HEADER = struct.Struct("<4sHHQBQI")

    def __init__(self, n_qubits: int, seed: int | None = None, descriptor: str = ""):
        if n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {n_qubits}")
        self._n = n_qubits
        self._len = 0
        self._axes = np.empty((16, n_qubits), dtype=np.uint8)
        self._bits = np.empty((16, n_qubits), dtype=np.uint8)
        self.seed = seed
        self.descriptor = descriptor

    @classmethod
    def from_arrays(
        cls, axes, bits, seed: int | None = None, descriptor: str = ""
    ) -> "ShadowRecord":
        axes, bits = _coerce_block(axes, bits)
        rec = cls(axes.shape[1], seed=seed, descriptor=descriptor)
        rec._axes = axes.copy()
        rec._bits = bits.copy()
        rec._len = axes.shape[0]
        return rec

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def axes(self) -> np.ndarray:
        """Axis codes, shape ``(len(self), n_qubits)`` (read-only view)."""
        view = self._axes[: self._len]
        view.setflags(write=False)
        return view

    @property
    def bits(self) -> np.ndarray:
        """Outcome bits, shape ``(len(self), n_qubits)`` (read-only view)."""
        view = self._bits[: self._len]
        view.setflags(write=False)
        return view

    def append(self, snapshot: Snapshot) -> None:
        if snapshot.n_qubits != self._n:
            raise ValueError(f"snapshot has {snapshot.n_qubits} qubits, record has {self._n}")
        done = self._len
        if done == len(self._axes):
            self._axes, self._bits = (_grown(a, done, done + 1) for a in (self._axes, self._bits))
        self._axes[done], self._bits[done] = snapshot.axes, snapshot.bits
        self._len += 1

    def extend(self, snapshots) -> None:
        for s in snapshots:
            self.append(s)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ShadowRecord.from_arrays(
                self.axes[key], self.bits[key], seed=self.seed, descriptor=self.descriptor
            )
        index = int(key)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(f"shot {key} out of range for record of length {self._len}")
        return Snapshot(self._axes[index], self._bits[index])

    def __iter__(self) -> Iterator[Snapshot]:
        for i in range(self._len):
            yield Snapshot(self._axes[i], self._bits[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShadowRecord):
            return NotImplemented
        return (
            self._n == other._n
            and self.seed == other.seed
            and self.descriptor == other.descriptor
            and np.array_equal(self.axes, other.axes)
            and np.array_equal(self.bits, other.bits)
        )

    def __repr__(self) -> str:
        return (
            f"ShadowRecord(n_qubits={self._n}, shots={self._len}, "
            f"seed={self.seed}, descriptor={self.descriptor!r})"
        )

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """The packed binary form: header plus 3 bits per qubit-shot."""
        stream = np.empty((self._len, self._n, 3), dtype=np.uint8)
        stream[..., 0] = self.axes >> 1
        stream[..., 1] = self.axes & 1
        stream[..., 2] = self.bits
        payload = np.packbits(stream.reshape(-1)).tobytes()
        desc = self.descriptor.encode("utf-8")
        header = self._HEADER.pack(
            self._MAGIC,
            self._VERSION,
            self._n,
            self._len,
            1 if self.seed is not None else 0,
            self.seed if self.seed is not None else 0,
            len(desc),
        )
        return header + desc + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ShadowRecord":
        """Decode :meth:`to_bytes` output.

        Only canonical blobs load: wrong magic, version or length, flag
        bits other than bit 0, a seed field set while the flag is clear,
        nonzero padding bits and axis code 3 all raise :class:`ValueError`,
        so every blob that loads re-encodes to itself.
        """
        if len(blob) < cls._HEADER.size:
            raise ValueError("buffer is too short to be a shadow record")
        magic, version, n, count, flags, seed, desc_len = cls._HEADER.unpack_from(blob)
        if magic != cls._MAGIC:
            raise ValueError(f"not a shadow record (bad magic {magic!r})")
        if version != cls._VERSION:
            raise ValueError(f"unsupported shadow record version {version}")
        if flags > 1 or (flags == 0 and seed != 0):
            raise ValueError(f"bad seed flags {flags} with seed field {seed}")
        offset = cls._HEADER.size + desc_len
        expected = offset + -(-3 * count * n // 8)
        if len(blob) != expected:
            raise ValueError(
                f"shadow record of {count} shots on {n} qubits needs {expected} bytes, "
                f"got {len(blob)}"
            )
        descriptor = blob[cls._HEADER.size : offset].decode("utf-8")
        raw = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=offset))
        if raw[3 * count * n :].any():
            raise ValueError("shadow record has nonzero padding bits")
        raw = raw[: 3 * count * n].reshape(count, n, 3)
        axes = ((raw[..., 0] << 1) | raw[..., 1]).astype(np.uint8)
        if axes.size and int(axes.max()) > 2:
            raise ValueError("record contains invalid axis codes")
        return cls.from_arrays(
            axes, raw[..., 2], seed=seed if flags & 1 else None, descriptor=descriptor
        )

    def save(self, path) -> None:
        """Write :meth:`to_bytes` to a file."""
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "ShadowRecord":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def to_json(self) -> str:
        """Human-readable form; round-trips exactly via :meth:`from_json`."""
        shots = [
            {"axes": s.axis_string(), "bits": s.bit_string()} for s in self
        ]
        return json.dumps(
            {
                "format": "shadow-record",
                "version": self._VERSION,
                "n_qubits": self._n,
                "count": self._len,
                "seed": self.seed,
                "descriptor": self.descriptor,
                "shots": shots,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ShadowRecord":
        """Decode :meth:`to_json` output; a malformed document, one with a
        version other than 1 or non-integer counts among them, raises :class:`ValueError`."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != "shadow-record":
            raise ValueError("not a shadow-record JSON document")
        try:
            n, count = payload["n_qubits"], payload["count"]
            shots = [(shot["axes"], shot["bits"]) for shot in payload["shots"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed shadow-record JSON: {exc!r}") from None
        version = payload.get("version", cls._VERSION)
        if any(type(v) is not int for v in (n, count, version)) or version != cls._VERSION:
            raise ValueError(f"malformed shadow-record JSON: n_qubits {n!r} and count {count!r} "
                             f"must be integers, version {version!r} must be 1 or absent")
        if n < 1 or count != len(shots):
            raise ValueError(
                f"shadow-record JSON with n_qubits {n} and count {count} "
                f"holds {len(shots)} shots"
            )
        seed, descriptor = payload.get("seed"), payload.get("descriptor", "")
        if seed is not None and not (type(seed) is int and 0 <= seed < 2**64):
            raise ValueError(f"seed must be null or a 64-bit unsigned integer, got {seed!r}")
        if not isinstance(descriptor, str):
            raise ValueError(f"descriptor must be a string, got {descriptor!r}")
        axes = np.empty((count, n), dtype=np.uint8)
        bits = np.empty((count, n), dtype=np.uint8)
        for i, (axis_text, bit_text) in enumerate(shots):
            if not (
                isinstance(axis_text, str)
                and isinstance(bit_text, str)
                and len(axis_text) == len(bit_text) == n
                and set(axis_text) <= set(AXIS_CHARS)
                and set(bit_text) <= {"0", "1"}
            ):
                raise ValueError(
                    f"shot {i} needs {n} axis letters from {AXIS_CHARS!r} and {n} bits, "
                    f"got {axis_text!r}, {bit_text!r}"
                )
            axes[i] = [AXIS_CHARS.index(c) for c in axis_text]
            bits[i] = [int(c) for c in bit_text]
        return cls.from_arrays(axes, bits, seed=seed, descriptor=descriptor)


def stream_shadows(
    rho: DensityMatrix,
    count: int,
    seed: int,
    descriptor: str | None = None,
    workers: int = 1,
) -> ShadowRecord:
    """Generate ``count`` snapshots and assemble them in shot order.

    The record is a pure function of ``(rho, count, seed)``; ``workers``
    only splits the index range across threads and cannot change it.
    """
    if count < 0:
        raise ValueError(f"shot count must be nonnegative, got {count}")
    sampler = BornSampler(rho)
    n = rho.n_qubits
    axes = np.empty((count, n), dtype=np.uint8)
    bits = np.empty((count, n), dtype=np.uint8)

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, BLOCK_SHOTS):
            stop = min(start + BLOCK_SHOTS, hi)
            axes[start:stop], bits[start:stop] = sampler.sample_block(seed, start, stop)

    if workers <= 1 or count < 2:
        fill(0, count)
    else:
        from concurrent.futures import ThreadPoolExecutor

        step = -(-count // workers)
        bounds = [(lo, min(lo + step, count)) for lo in range(0, count, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(fill, lo, hi) for lo, hi in bounds]:
                future.result()
    return ShadowRecord.from_arrays(
        axes,
        bits,
        seed=seed,
        descriptor=descriptor if descriptor is not None else f"{n}-qubit state",
    )
