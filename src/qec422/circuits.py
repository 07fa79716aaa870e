"""Gate-level circuit representation and its line-based text format.

A circuit file looks like::

    # optional comments
    qubits 4
    H 1
    CNOT 1 0
    RZ 1 0.7853981633974483
    MEASURE 0 1 2 3

The header names the register width, each gate line is NAME followed by
qubit indices (and a float angle for RZ), and the final line lists the
measured qubits in print order.  Bitstrings elsewhere in this package
follow that order: character k of a printed string is the outcome of
``measured[k]``.

The register cap, MAX_QUBITS, lives here: Circuit and the ``qubits N``
header refuse a wider register before anything allocates 2**n amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real

MAX_QUBITS = 12


class CircuitError(ValueError):
    """A structurally invalid circuit or gate."""


class CircuitParseError(CircuitError):
    """Malformed circuit text; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def finite_real(value, name: str) -> float:
    """value as a float, so that its repr is a literal the circuit and CSV
    readers take back; anything but a finite real number raises."""
    if not isinstance(value, Real) or not math.isfinite(value):
        raise CircuitError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


class GateKind(Enum):
    X = "X"
    Y = "Y"
    Z = "Z"
    H = "H"
    S = "S"
    RZ = "RZ"
    CNOT = "CNOT"
    CZ = "CZ"
    SWAP = "SWAP"
    __hash__ = object.__hash__  # members are singletons, so identity is equality

    def __init__(self, value: str):
        self.arity = 2 if value in ("CNOT", "CZ", "SWAP") else 1
        self.takes_angle = value == "RZ"


@dataclass(frozen=True)
class GateInstance:
    """One gate application: kind, target qubits, optional RZ angle.

    For two-qubit gates ``targets[0]`` is the control (CNOT) or the
    first listed qubit (CZ, SWAP); two-qubit Pauli fault labels follow
    the same order, first letter on ``targets[0]``.
    """

    kind: GateKind
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if len(self.targets) != self.kind.arity:
            raise CircuitError(
                f"{self.kind.value} takes {self.kind.arity} qubit(s), got {len(self.targets)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise CircuitError(f"{self.kind.value} targets must be distinct: {self.targets}")
        if any(q < 0 for q in self.targets):
            raise CircuitError(f"negative qubit index in {self.targets}")
        if self.kind.takes_angle:
            if self.angle is None:
                raise CircuitError("RZ requires an angle")
            object.__setattr__(self, "angle", finite_real(self.angle, "RZ angle"))
        elif self.angle is not None:
            raise CircuitError(f"{self.kind.value} takes no angle")


@dataclass
class Circuit:
    """A fixed-width register, an ordered gate list, and the measured qubits.

    Value semantics: treat instances as immutable once built.  ``measured``
    may be empty for intermediate gate blocks, but simulation to a
    distribution requires at least one measured qubit.
    """

    n_qubits: int
    gates: list[GateInstance] = field(default_factory=list)
    measured: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise CircuitError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        for g in self.gates:
            for q in g.targets:
                if q >= self.n_qubits:
                    raise CircuitError(
                        f"gate {g.kind.value} targets qubit {q} on a {self.n_qubits}-qubit register"
                    )
        if len(set(self.measured)) != len(self.measured):
            raise CircuitError(f"measured qubits must be distinct: {self.measured}")
        for q in self.measured:
            if not 0 <= q < self.n_qubits:
                raise CircuitError(f"measured qubit {q} out of range")

    @classmethod
    def _trusted(cls, n_qubits: int, gates: list[GateInstance], measured: list[int]) -> "Circuit":
        """A Circuit of parts already checked against n_qubits, skipping
        __post_init__ (build_pair joins blocks checked at import;
        parse_circuit checks each line as it reads it)."""
        circuit = cls.__new__(cls)
        circuit.n_qubits, circuit.gates, circuit.measured = n_qubits, gates, measured
        return circuit

    def with_gates(self, gates: list[GateInstance]) -> "Circuit":
        """Copy of this circuit with a different gate list."""
        return Circuit(self.n_qubits, list(gates), list(self.measured))


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; raises CircuitParseError with a line number."""
    n_qubits: int | None = None
    gates: list[GateInstance] = []
    measured: list[int] | None = None
    parsed: dict[str, GateInstance] = {}  # gate line -> its gate, parsed once

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if measured is None and raw in parsed:
            gates.append(parsed[raw])
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if n_qubits is None:
            if head != "qubits":
                raise CircuitParseError(f"expected 'qubits N' header, got {head!r}", line_no)
            if len(tokens) != 2:
                raise CircuitParseError("'qubits' takes exactly one integer", line_no)
            n_qubits = _parse_int(tokens[1], line_no)
            if not 1 <= n_qubits <= MAX_QUBITS:
                raise CircuitParseError(f"qubits must be in [1, {MAX_QUBITS}], got {n_qubits}", line_no)
            continue

        if measured is not None:
            raise CircuitParseError("MEASURE must be the final line", line_no)

        if head == "MEASURE":
            if len(tokens) < 2:
                raise CircuitParseError("MEASURE needs at least one qubit index", line_no)
            measured = [_parse_index(t, n_qubits, line_no) for t in tokens[1:]]
            if len(set(measured)) != len(measured):
                raise CircuitParseError(f"duplicate measured qubit in {measured}", line_no)
            continue

        try:
            kind = GateKind(head)
        except ValueError:
            raise CircuitParseError(f"unknown gate {head!r}", line_no) from None

        want = kind.arity + (1 if kind.takes_angle else 0)
        if len(tokens) - 1 != want:
            raise CircuitParseError(
                f"{kind.value} takes {kind.arity} qubit index(es)"
                + (" and an angle" if kind.takes_angle else "")
                + f", got {len(tokens) - 1} argument(s)",
                line_no,
            )
        targets = tuple(_parse_index(t, n_qubits, line_no) for t in tokens[1 : 1 + kind.arity])
        angle = None
        if kind.takes_angle:
            try:
                angle = float(tokens[-1])
            except ValueError:
                raise CircuitParseError(f"bad angle {tokens[-1]!r}", line_no) from None
        try:
            gates.append(parsed.setdefault(raw, GateInstance(kind, targets, angle)))
        except CircuitError as exc:
            raise CircuitParseError(str(exc), line_no) from None

    if n_qubits is None:
        raise CircuitParseError("empty circuit: missing 'qubits N' header", 1)
    if measured is None:
        raise CircuitParseError("missing MEASURE line", 1 + text.count("\n"))
    return Circuit._trusted(n_qubits, gates, measured)


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitParseError(f"expected integer, got {token!r}", line_no) from None


def _parse_index(token: str, n_qubits: int, line_no: int) -> int:
    q = _parse_int(token, line_no)
    if not 0 <= q < n_qubits:
        raise CircuitParseError(f"qubit index {q} out of range [0, {n_qubits})", line_no)
    return q


def serialize_circuit(circuit: Circuit) -> str:
    """Inverse of parse_circuit; floats use repr so angles round-trip exactly."""
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        parts = [g.kind.value, *map(str, g.targets)]
        if g.angle is not None:
            parts.append(repr(g.angle))
        lines.append(" ".join(parts))
    if circuit.measured:
        lines.append("MEASURE " + " ".join(map(str, circuit.measured)))
    return "\n".join(lines) + "\n"
