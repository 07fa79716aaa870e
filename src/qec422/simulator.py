"""Dense statevector simulation for small registers, and the signed
Pauli frame that reads a circuit's read-out spectrum.

Conventions, fixed across the package:

* little-endian indexing: qubit q is bit q of the amplitude index, so
  basis index i encodes the computational state with qubit q in value
  ``(i >> q) & 1``;
* printed bitstrings list measured qubits in measurement order, qubit 0
  (or more precisely ``measured[0]``) leftmost;
* registers are capped at 12 qubits (circuits.MAX_QUBITS), enough for
  small ad-hoc circuits and far above what the [4,2,2] constructions need.

OutcomeDistribution and ShotCounts hold one dense vector, .vec, over the
read-out bits in the marginal_vector layout (entry j is the outcome whose
k-th bit is bit k of j); .probs and .counts are string views in sorted
order, for the I/O edge only.

No gate after the last RZ is simulated.  One backward sweep,
FlipMaskTable, carries each measured Z_t from the read-out to the start,
sign included (Aaronson & Gottesman, quant-ph/0406196), and records the
flip mask of every fault it passes, the frame just after the last RZ and
the frame at the start, where each RZ's Z adds a column.  So the
read-out spectrum, spectrum[s] = <prod_{t in s} Z_t>, is <Q_s> just
after that RZ, Q_s the product of the carried observables.
frame_spectrum reads it off |0...0> from the start frame, each entry 0
or +-1 in a Clifford circuit (so no statevector runs and the marginal
is exactly dyadic) and i**e over the RZ columns too, for noise.  Only
ideal_marginal and ftcheck read the statevector of the gates up to the
last RZ, since their cost is exponential in n, not in the RZ count.
spectrum_marginal is the one way back to a read-out vector, for ideal
and noisy spectra alike: the inverse Walsh-Hadamard transform, clipped
of rounding negatives and divided by its own sum.
Every gate that is run goes through one kernel, _evolve: a gather plus a
scale from index tables cached per (kind, targets, n), angle excluded,
so at most one entry per gate placement on at most MAX_QUBITS qubits.
The table build refuses a target outside the register (Circuit.gates is
a mutable list); PureState checks width, finiteness and norm once per
final_state call, on the result, and ideal_marginal builds no PureState.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .circuits import MAX_QUBITS, Circuit, CircuitError, GateKind

NORM_TOL = 1e-10
PRUNE_TOL = 1e-12
MAX_ENTRIES = 1 << 16  # the largest array a stacked step or a spectrum may hold

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# per-gate loops compare against these: an inline GateKind.H costs more than the test
_H, _S, _RZ, _X, _Y, _Z, _CNOT, _CZ, _SWAP = (
    GateKind[k] for k in ("H", "S", "RZ", "X", "Y", "Z", "CNOT", "CZ", "SWAP"))
_PHASES = np.array([1, 1j, -1, -1j])  # i**e for e mod 4
_SIGNS = np.array([[1.0], [-1.0]])  # a butterfly's two halves


@dataclass
class PureState:
    """Normalized amplitude vector over 2**n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise CircuitError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise CircuitError(
                f"expected {1 << self.n_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        if not np.all(np.isfinite(self.amplitudes.view(float))):
            raise CircuitError("non-finite amplitude")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise CircuitError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


class _OutcomeVector:
    """A dense vector, .vec, over the outcomes of n_bits read-out bits in
    the marginal_vector layout, built from a non-empty string mapping or
    from such a vector.  The string view keys its nonzero entries by
    bitstring, in sorted-string order."""

    def __init__(self, data: Mapping[str, float] | np.ndarray):
        if isinstance(data, Mapping):
            if not data:
                raise CircuitError("no outcomes given")
            data = outcome_vector(data, len(next(iter(data))))
        self.vec = np.asarray(data)
        d = len(self.vec) if self.vec.ndim == 1 else 0
        if d < 2 or d & (d - 1) or d > 1 << MAX_QUBITS:
            raise CircuitError(f"an outcome vector needs 2**n entries, 1 <= n <= {MAX_QUBITS}, "
                               f"got shape {self.vec.shape}")

    @classmethod
    def _trusted(cls, vec: np.ndarray):
        """An instance holding vec as it is, with no check: for vectors the
        package made itself, already of the class's form (the public
        constructor checks whatever a caller passes)."""
        out = cls.__new__(cls)
        out.vec = vec
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._strings()!r})"

    @property
    def n_bits(self) -> int:
        return len(self.vec).bit_length() - 1

    def _refuse(self, ok: np.ndarray, what: str) -> None:
        """Raise on the first entry where ok is false, naming its outcome."""
        if not ok.all():
            j = int(np.argmin(ok))
            raise CircuitError(f"{what}, got {self.vec[j]} for {bitstring_of(j, self.n_bits)!r}")

    def _strings(self) -> dict:
        order = string_order(self.n_bits)
        keep = order[self.vec[order] != 0]
        return {bitstring_of(j, self.n_bits): v
                for j, v in zip(keep.tolist(), self.vec[keep].tolist())}


def pruned(vec: np.ndarray) -> np.ndarray:
    """vec with its entries below PRUNE_TOL zeroed, as a new array."""
    return np.where(vec >= PRUNE_TOL, vec, 0.0)


class OutcomeDistribution(_OutcomeVector):
    """Probability vector; probs is its string view.  Entries below
    PRUNE_TOL are zeroed, and the rest must still sum to 1 within
    NORM_TOL (pruning is not a renormalization)."""

    def __init__(self, data: Mapping[str, float] | np.ndarray):
        super().__init__(data)
        self._refuse((self.vec >= 0.0) & (self.vec <= 1.0 + NORM_TOL),
                     "probabilities must be in [0, 1]")
        self.vec = pruned(self.vec)
        total = self.vec.sum()
        if not total:
            raise CircuitError("empty distribution")
        if abs(total - 1.0) > NORM_TOL:
            raise CircuitError(f"distribution mass {total} deviates from 1")

    probs = property(_OutcomeVector._strings)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.vec))


class ShotCounts(_OutcomeVector):
    """Integer outcome counts for one run; counts is their string view."""

    def __init__(self, data: Mapping[str, int] | np.ndarray):
        super().__init__(data)
        self._refuse(np.isfinite(self.vec) & (self.vec >= 0) & (self.vec == np.round(self.vec)),
                     "counts must be non-negative integers")
        self.vec = self.vec.astype(np.int64)

    counts = property(_OutcomeVector._strings)

    @property
    def total(self) -> int:
        return int(self.vec.sum())

    def to_distribution(self) -> OutcomeDistribution:
        """Empirical distribution counts/total."""
        r = self.total
        if r == 0:
            raise CircuitError("no shots to normalize")
        return OutcomeDistribution._trusted(pruned(self.vec / r))


# ---------------------------------------------------------------------------
# Gate application
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _table(kind: GateKind, targets: tuple[int, ...], n: int) -> tuple:
    """Read-only index tables of one gate placement on n qubits.

    H gives (lo, hi, c1): out = amp[lo] / sqrt 2 + c1 * amp[hi].  RZ gives
    (target bit,), its angle being applied per call.  Every other gate is
    monomial and gives (perm, phase): out = amp[perm] * phase, either part
    None when it is the identity.  A target outside the register raises,
    and a raised build is not cached.
    """
    for q in targets:
        if q >= n:
            raise CircuitError(f"gate targets qubit {q} on a {n}-qubit state")
    idx = np.arange(1 << n)
    a = targets[0]
    bit = (idx >> a) & 1
    b = targets[-1]
    bit_b = (idx >> b) & 1
    if kind is GateKind.H:
        out = (idx & ~(1 << a), idx | (1 << a), np.where(bit, -_INV_SQRT2, _INV_SQRT2))
    elif kind is GateKind.RZ:
        out = (bit.astype(bool),)
    elif kind in (GateKind.X, GateKind.Y):
        out = (idx ^ (1 << a), np.where(bit, 1j, -1j) if kind is GateKind.Y else None)
    elif kind is GateKind.Z:
        out = (None, np.where(bit, -1.0, 1.0))
    elif kind is GateKind.S:
        out = (None, np.where(bit, 1j, 1.0))
    elif kind is GateKind.CNOT:  # targets = (control, target): flip b where a is set
        out = (idx ^ (bit << b), None)
    elif kind is GateKind.CZ:
        out = (None, np.where(bit & bit_b, -1.0, 1.0))
    else:  # SWAP
        out = (idx ^ ((bit ^ bit_b) * ((1 << a) | (1 << b))), None)
    for arr in out:
        if arr is not None:
            arr.flags.writeable = False
    return out


def _evolve(amp: np.ndarray, gates, n: int) -> np.ndarray:
    """Amplitudes after applying gates in order to amp on n qubits."""
    for g in gates:
        t = _table(g.kind, g.targets, n)
        if g.kind is _H:
            amp = _INV_SQRT2 * amp[t[0]] + t[2] * amp[t[1]]
        elif g.kind is _RZ:
            half = 0.5 * g.angle
            amp = amp * np.where(t[0], np.exp(1j * half), np.exp(-1j * half))
        else:
            if t[0] is not None:
                amp = amp[t[0]]
            if t[1] is not None:
                amp = amp * t[1]
    return amp


@lru_cache(maxsize=256)
def _xor_index(cols: tuple[int, ...]) -> np.ndarray:
    """Read-only array whose entry i is the XOR of cols[q] over the set bits q of i."""
    out = np.zeros(1, dtype=np.intp)
    for col in cols:
        out = np.concatenate((out, out ^ col))
    out.setflags(write=False)
    return out


def block_rows(width: int) -> int:
    """Rows of width entries that a stacked step may hold: at most
    MAX_ENTRIES entries, and at least one row."""
    return max(1, MAX_ENTRIES // width)


def _zero(n: int) -> np.ndarray:
    """Amplitudes of |0...0> on n qubits."""
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = 1.0
    return amp


def final_state(circuit: Circuit) -> PureState:
    """Run every gate of the circuit from |0...0>."""
    n = circuit.n_qubits
    return PureState(n, _evolve(_zero(n), circuit.gates, n))


def marginal_vector(probs: np.ndarray, n: int, measured: list[int]) -> np.ndarray:
    """Marginal over the measured qubits, indexed little-endian in measured order."""
    bins = [0] * n
    for t, q in enumerate(measured):
        bins[q] = 1 << t
    return np.bincount(_xor_index(tuple(bins)), probs, 1 << len(measured))


def bitstring_of(index: int, n_bits: int) -> str:
    """Little-endian render: character k is bit k of index."""
    return "".join(str((index >> k) & 1) for k in range(n_bits))


def index_of(bitstring: str) -> int:
    return sum((c == "1") << k for k, c in enumerate(bitstring))


@lru_cache(maxsize=None)
def string_order(n_bits: int) -> np.ndarray:
    """Indices of the 2**n_bits outcomes in sorted-bitstring order, the
    order of every sum that reaches a CSV value."""
    order = np.array(sorted(range(1 << n_bits), key=lambda j: bitstring_of(j, n_bits)))
    order.setflags(write=False)  # cached and shared by every caller
    return order


def ordered_sum(vec: np.ndarray) -> float | list[float]:
    """Sum of an outcome vector, or of each row of a stack, in sorted-bitstring order."""
    order = string_order(vec.shape[-1].bit_length() - 1)
    return sum(vec[order].tolist()) if vec.ndim == 1 else [sum(r) for r in vec[:, order].tolist()]


def outcome_vector(entries: Mapping[str, float], n_bits: int) -> np.ndarray:
    """Dense float form of string-keyed counts or probabilities (so a count
    of 1.7 reaches ShotCounts' check untruncated); entry j is the outcome
    bitstring_of(j, n_bits), so index bit k is read-out bit k."""
    if not 1 <= n_bits <= MAX_QUBITS:
        raise CircuitError(f"outcome width must be in [1, {MAX_QUBITS}], got {n_bits}")
    vec = np.zeros(1 << n_bits)
    for s, v in entries.items():
        if len(s) != n_bits or set(s) - {"0", "1"}:
            raise CircuitError(f"expected {n_bits}-bit 0/1 strings, got {s!r}")
        vec[index_of(s)] = v
    return vec


# ---------------------------------------------------------------------------
# The signed Pauli frame
# ---------------------------------------------------------------------------
# The frame carries the m measured observables together, stored per qubit
# as bit columns over the observable index t: bit t of xcol[q] (zcol[q])
# says observable t has an X (Z) part on qubit q, and bit t of sign says
# it is -1 times i**popcount(x & z) X^x Z^z, the Hermitian Pauli of its
# masks.

def conjugate_frame(xcol: list[int], zcol: list[int], sign: int, kind: GateKind,
                    t: tuple[int, ...]) -> int:
    """Carry every observable P back through one gate G of H, S, CNOT, CZ
    and SWAP, to G^dagger P G, in place; returns the new sign column.  S
    is carried as S-dagger; FlipMaskTable reads a Pauli gate's sign change
    off the gate's own row."""
    a = t[0]
    if kind is _H:
        sign ^= xcol[a] & zcol[a]
        xcol[a], zcol[a] = zcol[a], xcol[a]
    elif kind is _S:
        sign ^= xcol[a] & ~zcol[a]
        zcol[a] ^= xcol[a]
    elif kind is _CNOT:  # t = (control, target)
        b = t[1]
        sign ^= xcol[a] & zcol[b] & ~(xcol[b] ^ zcol[a])
        xcol[b] ^= xcol[a]
        zcol[a] ^= zcol[b]
    elif kind is _CZ:
        b = t[1]
        sign ^= xcol[a] & xcol[b] & (zcol[a] ^ zcol[b])
        zcol[a] ^= xcol[b]
        zcol[b] ^= xcol[a]
    else:  # SWAP
        b = t[1]
        xcol[a], xcol[b] = xcol[b], xcol[a]
        zcol[a], zcol[b] = zcol[b], zcol[a]
    return sign


class FlipMaskTable:
    """Flip mask of every fault site, the signed frame just after the last
    RZ and the one at the start: the only backward sweep in the package.

    Each measured Z is carried back through the gates (conjugate_frame),
    and a fault flips bit t exactly when it anticommutes with the t-th
    carried observable.  So an X on q flips zcol[q], a Z flips xcol[q]
    and a Y flips both.  An RZ on q is carried as the identity, and the
    j-th RZ met adds Z_q as observable m + j, m the read-out width; rz[j]
    is its gate index.  As RZ(a) P = P RZ(-a) when the Pauli P has an X
    part on q, else P RZ(a), bit m + j of a fault's mask says it reverses
    RZ j, and its bits below m are its read-out flip.  The cost is linear
    in the gate count.

    gate_masks[i][k] is the mask of fault k after gate i: k = 0 is no
    fault, one-qubit faults use k in 1..3 (X, Y, Z) and two-qubit faults
    k in 1..15 indexing noise.TWO_QUBIT_PAULIS.  frame is (split, xcol,
    zcol, sign), carried back to just after the last RZ, gate split, or
    to the start, split = -1.  start is the frame at the start: zcol[q]
    is the mask of an X flip on qubit q before the circuit, and its bits
    below m are the frame of the circuit with its RZs removed.  The sweep
    starts from the read-out Z's or from a given frame (xcol, zcol, sign).
    """

    def __init__(self, circuit: Circuit, frame: tuple | None = None):
        gates, m = circuit.gates, len(circuit.measured)
        if frame is None:
            frame = [0] * circuit.n_qubits, [0] * circuit.n_qubits, 0
            for t, q in enumerate(circuit.measured):  # Z_t on measured[t] at the read-out
                frame[1][q] |= 1 << t
        xcol, zcol, sign = list(frame[0]), list(frame[1]), frame[2]
        rows = [(0, z, z ^ x, x) for x, z in zip(xcol, zcol)]  # flip masks of I, X, Y, Z
        pairs: dict[tuple, tuple[int, ...]] = {}  # each two-qubit row, built once
        masks: list[tuple[int, ...]] = [()] * len(gates)
        self.rz, self.frame = [], None
        for i in range(len(gates) - 1, -1, -1):
            kind, t = gates[i].kind, gates[i].targets
            row = masks[i] = rows[t[0]] if len(t) == 1 else pairs.get((rows[t[0]], rows[t[1]]))
            if row is None:  # a two-qubit row first met in this sweep
                a, b = rows[t[0]], rows[t[1]]
                row = masks[i] = pairs[a, b] = tuple([x ^ y for x in a for y in b])
            # a Pauli gate negates the observables a fault of its Pauli would flip
            if kind is _X:
                sign ^= row[1]
            elif kind is _Z:
                sign ^= row[3]
            elif kind is _Y:
                sign ^= row[2]
            elif kind is _RZ:
                self.frame = self.frame or (i, list(xcol), list(zcol), sign)  # the last RZ
                zcol[t[0]] |= 1 << (m + len(self.rz))
                self.rz.append(i)
                rows[t[0]] = (0, zcol[t[0]], zcol[t[0]] ^ xcol[t[0]], xcol[t[0]])
            elif kind is not _S or xcol[t[0]]:  # S fixes an X-free column, sign included
                sign = conjugate_frame(xcol, zcol, sign, kind, t)
                for q in t:
                    rows[q] = (0, zcol[q], zcol[q] ^ xcol[q], xcol[q])
        self.gate_masks, self.start = masks, (-1, xcol, zcol, sign)
        self.frame = self.frame or self.start


def frame_spectrum(circuit: Circuit, frame: tuple, columns: int | None = None) -> np.ndarray:
    """Spectrum[s] = <Q_s> from frame = (split, xcol, zcol, sign) as
    FlipMaskTable gives it, over its first columns bits, by default the m
    read-out bits.

    The products Q_s = i**e X^x Z^z are formed by doubling, the phase e
    kept mod 4 with plain ints.  A frame at the start (split -1) reads
    them on |0...0>: i**e where x = 0, else 0, real on the read-out bits,
    whose products are Hermitian, and complex past them, where a product
    with an RZ column can be anti-Hermitian.  Otherwise the m read-out
    bits are read as Tr(rho Q) = i**e sum_i rho[i, i ^ x] (-1)**popcount(z & i),
    rho the pure state after gates[:split + 1], in blocks of block_rows.
    """
    split, xcol, zcol, sign = frame
    n = circuit.n_qubits
    prods = [(0, 0, 0)]
    for t in range(len(circuit.measured) if columns is None else columns):
        x = sum(((c >> t) & 1) << q for q, c in enumerate(xcol))
        z = sum(((c >> t) & 1) << q for q, c in enumerate(zcol))
        e = (x & z).bit_count() + 2 * ((sign >> t) & 1)
        prods += [(e0 + e + 2 * (z0 & x).bit_count(), x0 ^ x, z0 ^ z) for e0, x0, z0 in prods]
    if split < 0:
        spectrum = np.array([0.0 if x else _PHASES[e & 3] for e, x, _ in prods])
        return spectrum if columns else spectrum.real.copy()
    amp = _evolve(_zero(n), circuit.gates[:split + 1], n)
    idx = np.arange(1 << n)
    signs = 1 - 2 * _xor_index((1,) * n)  # (-1)**popcount(i)
    out, step = [], block_rows(1 << n)
    for k in range(0, len(prods), step):
        e, x, z = np.array(prods[k:k + step]).T
        pairs = amp * np.conj(amp[idx ^ x[:, None]])
        out.append((_PHASES[e & 3] * (pairs * signs[z[:, None] & idx]).sum(axis=1)).real)
    return np.concatenate(out)


def _wht(vec: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis:
    out[..., s] = sum_j vec[..., j] (-1)^popcount(s & j)."""
    shape, h = vec.shape, 1
    while h < shape[-1]:
        a = vec.reshape(-1, 2, h)
        vec = a[:, :1] + _SIGNS * a[:, 1:]  # (lo + hi, lo - hi); x + -y is x - y, bit for bit
        h *= 2
    return vec.reshape(shape)


def spectrum_marginal(spectrum: np.ndarray) -> np.ndarray:
    """Read-out vector of a spectrum, ideal or noisy, or of each row of a
    stack: its inverse transform with rounding negatives at true zeros
    clipped, divided by its own sum (exactly 2**m on a Clifford ideal's
    dyadic spectrum, so that scale is exact)."""
    vec = np.maximum(_wht(spectrum), 0.0)
    return vec / vec.sum(axis=-1, keepdims=True)


def ideal_marginal(circuit: Circuit) -> np.ndarray:
    """Noiseless read-out vector over the circuit's measured qubits,
    indexed as marginal_vector, from its signed frame."""
    if not circuit.measured:
        raise CircuitError("circuit measures no qubits")
    return spectrum_marginal(frame_spectrum(circuit, FlipMaskTable(circuit).frame))


def ideal_distribution(circuit: Circuit) -> OutcomeDistribution:
    """Noiseless outcome distribution over the circuit's measured qubits."""
    return OutcomeDistribution._trusted(pruned(ideal_marginal(circuit)))
