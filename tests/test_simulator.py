"""Statevector engine: gate semantics, conventions, distributions, sampling."""

import itertools

import numpy as np
import pytest

from qec422 import noise, simulator
from qec422.circuits import Circuit, CircuitError, GateInstance, GateKind
from qec422.code import LogicalGate
from qec422.experiments import GateSetId, SequenceSpec, build_pair, random_sequence
from qec422.simulator import (
    OutcomeDistribution,
    PureState,
    ShotCounts,
    _evolve,
    final_state,
    ideal_distribution,
    ideal_marginal,
)


def _g(kind, *targets, angle=None):
    return GateInstance(kind, targets, angle)


def _rand_state(rng: np.random.Generator, n: int) -> PureState:
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(n, amp / np.linalg.norm(amp))


def _zero(n: int) -> PureState:
    return final_state(Circuit(n, [], []))


def _apply(state: PureState, *gates) -> PureState:
    """state after gates, through the kernel."""
    return PureState(state.n_qubits, _evolve(state.amplitudes, gates, state.n_qubits))


class TestConventions:
    def test_qubit0_is_lowest_bit(self):
        """X on qubit 0 of |00> populates index 1, printed '10'."""
        c = Circuit(2, [_g(GateKind.X, 0)], [0, 1])
        assert ideal_distribution(c).probs == {"10": 1.0}

    def test_measured_order_controls_string_order(self):
        c = Circuit(2, [_g(GateKind.X, 0)], [1, 0])
        assert ideal_distribution(c).probs == {"01": 1.0}

    def test_qubit_cap(self):
        amp = np.zeros(1 << 13, dtype=complex)
        amp[0] = 1.0
        with pytest.raises(CircuitError, match=r"n_qubits must be in \[1, 12\]"):
            PureState(13, amp)
        PureState(12, amp[:1 << 12])

    def test_norm_enforced(self):
        with pytest.raises(CircuitError):
            PureState(1, np.array([1.0, 1.0]))


class TestGateSemantics:
    def test_cnot_truth_table(self):
        # control q1, target q0: |01> (index 2, q1 set) -> |11>
        c = Circuit(2, [_g(GateKind.X, 1), _g(GateKind.CNOT, 1, 0)], [0, 1])
        assert ideal_distribution(c).probs == {"11": 1.0}

    def test_cnot_leaves_control_clear(self):
        c = Circuit(2, [_g(GateKind.X, 0), _g(GateKind.CNOT, 1, 0)], [0, 1])
        assert ideal_distribution(c).probs == {"10": 1.0}

    def test_swap(self):
        c = Circuit(3, [_g(GateKind.X, 0), _g(GateKind.SWAP, 0, 2)], [0, 1, 2])
        assert ideal_distribution(c).probs == {"001": 1.0}

    def test_cz_phase(self):
        state = _apply(_zero(2), _g(GateKind.H, 0), _g(GateKind.X, 1), _g(GateKind.CZ, 0, 1))
        # |11> picked up a minus sign relative to |01>
        np.testing.assert_allclose(state.amplitudes[2], 1 / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(state.amplitudes[3], -1 / np.sqrt(2), atol=1e-12)

    def test_s_phase(self):
        state = _apply(_zero(1), _g(GateKind.X, 0), _g(GateKind.S, 0))
        np.testing.assert_allclose(state.amplitudes[1], 1j, atol=1e-12)

    def test_y_action(self):
        state = _apply(_zero(1), _g(GateKind.Y, 0))
        np.testing.assert_allclose(state.amplitudes, [0, 1j], atol=1e-12)

    def test_rz_relative_phase(self):
        theta = 0.8
        state = _apply(_zero(1), _g(GateKind.H, 0), _g(GateKind.RZ, 0, angle=theta))
        ratio = state.amplitudes[1] / state.amplitudes[0]
        np.testing.assert_allclose(ratio, np.exp(1j * theta), atol=1e-12)

    def test_single_qubit_gates_match_kron_oracle(self):
        """The kernel agrees with explicit kron-product matrices on 3 qubits."""
        mats = {
            GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
            GateKind.Y: np.array([[0, -1j], [1j, 0]]),
            GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
            GateKind.H: np.array([[1, 1], [1, -1]]) / np.sqrt(2),
            GateKind.S: np.array([[1, 0], [0, 1j]]),
        }
        rng = np.random.default_rng(5)
        eye = np.eye(2)
        for kind, mat in mats.items():
            for q in range(3):
                state = _rand_state(rng, 3)
                # little-endian kron: qubit 0 is the RIGHTMOST factor
                factors = [eye, eye, eye]
                factors[2 - q] = mat
                big = np.kron(np.kron(factors[0], factors[1]), factors[2])
                got = _apply(state, _g(kind, q)).amplitudes
                np.testing.assert_allclose(got, big @ state.amplitudes, atol=1e-12)


class TestAlgebraicProperties:
    def test_involutions(self):
        """X, Y, Z, H, CNOT, CZ, SWAP applied twice restore any state."""
        rng = np.random.default_rng(11)
        twice = [
            _g(GateKind.X, 0), _g(GateKind.Y, 1), _g(GateKind.Z, 2),
            _g(GateKind.H, 0), _g(GateKind.CNOT, 0, 2), _g(GateKind.CZ, 1, 2),
            _g(GateKind.SWAP, 0, 1),
        ]
        for gate in twice:
            state = _rand_state(rng, 3)
            out = _apply(state, gate, gate)
            np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-10)

    def test_rz_composition(self):
        """RZ(a) RZ(b) = RZ(a+b)."""
        rng = np.random.default_rng(12)
        a, b = 0.7, -1.9
        state = _rand_state(rng, 2)
        one = _apply(state, _g(GateKind.RZ, 1, angle=a), _g(GateKind.RZ, 1, angle=b))
        both = _apply(state, _g(GateKind.RZ, 1, angle=a + b))
        np.testing.assert_allclose(one.amplitudes, both.amplitudes, atol=1e-12)

    def test_norm_preserved_on_random_circuits(self):
        """Random <= 40-gate circuits keep the norm within 1e-10 throughout."""
        rng = np.random.default_rng(13)
        kinds = list(GateKind)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            state = _zero(n)
            for _ in range(int(rng.integers(1, 41))):
                kind = kinds[int(rng.integers(0, len(kinds)))]
                targets = tuple(int(q) for q in rng.choice(n, size=kind.arity, replace=False))
                angle = float(rng.normal()) if kind.takes_angle else None
                state = _apply(state, _g(kind, *targets, angle=angle))
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


# Reference unitaries, built only from np.kron of 2x2 factors.
_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1, -1]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)
_PAULI = dict(zip("IXYZ", (_I2, _X, _Y, _Z)))
_ONE_QUBIT = {GateKind.X: _X, GateKind.Y: _Y, GateKind.Z: _Z,
              GateKind.H: np.array([[1, 1], [1, -1]]) / np.sqrt(2), GateKind.S: np.diag([1, 1j])}


def _embed(factors: dict, n: int) -> np.ndarray:
    """kron over qubits n-1 .. 0 (qubit 0 rightmost, little-endian); identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, _I2))
    return out


def _unitary(gate: GateInstance, n: int) -> np.ndarray:
    kind, t = gate.kind, gate.targets
    if kind is GateKind.RZ:
        return _embed({t[0]: np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])}, n)
    if kind.arity == 1:
        return _embed({t[0]: _ONE_QUBIT[kind]}, n)
    a, b = t
    if kind is GateKind.CNOT:  # |0><0| x I + |1><1| x X
        return _embed({a: _I2 - _P1}, n) + _embed({a: _P1, b: _X}, n)
    if kind is GateKind.CZ:  # I - 2 |11><11|
        return _embed({}, n) - 2 * _embed({a: _P1, b: _P1}, n)
    # SWAP = (II + XX + YY + ZZ) / 2
    return sum(_embed({a: p, b: p}, n) for p in _PAULI.values()) / 2


def _random_gates(rng: np.random.Generator, n: int, n_extra: int) -> list:
    """Every gate kind that fits on n qubits at least once, then n_extra
    more, shuffled; RZ angles uniform in (-2 pi, 2 pi)."""
    kinds = [k for k in GateKind if k.arity <= n]
    kinds += [kinds[j] for j in rng.integers(0, len(kinds), n_extra)]
    gates = [_g(k, *(int(q) for q in rng.choice(n, k.arity, replace=False)),
                angle=float(rng.uniform(-2 * np.pi, 2 * np.pi)) if k.takes_angle else None)
             for k in kinds]
    rng.shuffle(gates)
    return gates


def _reference_marginal(amp: np.ndarray, n: int, measured: list) -> np.ndarray:
    vec = np.zeros(1 << len(measured))
    for i, a in enumerate(amp):
        vec[sum(((i >> q) & 1) << t for t, q in enumerate(measured))] += abs(a) ** 2
    return vec


class TestKernelAgainstUnitaries:
    def test_evolve_from_random_states(self):
        """_evolve from a random state, over all the gates at once and
        folded one gate at a time, and final_state from |0...0>, equal
        the product of reference unitaries."""
        rng = np.random.default_rng(21)
        for n in range(1, 7):
            for _ in range(6):
                gates = _random_gates(rng, n, int(rng.integers(0, 30)))
                initial = _rand_state(rng, n).amplitudes
                want, want_zero = initial, np.eye(1 << n)[0]
                for g in gates:
                    want, want_zero = _unitary(g, n) @ want, _unitary(g, n) @ want_zero
                np.testing.assert_allclose(_evolve(initial, gates, n), want, rtol=0, atol=1e-12)
                amp = initial
                for g in gates:
                    amp = _evolve(amp, [g], n)
                np.testing.assert_allclose(amp, want, rtol=0, atol=1e-12)
                got = final_state(Circuit(n, gates, [])).amplitudes
                np.testing.assert_allclose(got, want_zero, rtol=0, atol=1e-12)

    def test_ideal_marginal_with_inserted_faults(self):
        """ideal_marginal of a circuit with random preparation X flips and
        fault Paulis inserted into its gate list, the way verify-ft builds
        a faulted circuit, equals the reference marginal."""
        rng = np.random.default_rng(22)
        for n in range(1, 7):
            for _ in range(6):
                gates = _random_gates(rng, n, int(rng.integers(0, 20)))
                measured = [int(q) for q in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
                prep = int(rng.integers(0, 1 << n))
                faults = [int(rng.integers(0, 4 if g.kind.arity == 1 else 16)) * int(rng.random() < 0.5)
                          for g in gates[:int(rng.integers(0, len(gates) + 1))]]
                amp = np.zeros(1 << n, dtype=complex)
                amp[0] = 1.0
                faulted = []
                for q in range(n):
                    if (prep >> q) & 1:
                        amp = _embed({q: _X}, n) @ amp
                        faulted.append(_g(GateKind.X, q))
                for i, g in enumerate(gates):
                    amp = _unitary(g, n) @ amp
                    faulted.append(g)
                    k = faults[i] if i < len(faults) else 0
                    if k:
                        labels = noise.ONE_QUBIT_PAULIS if g.kind.arity == 1 else noise.TWO_QUBIT_PAULIS
                        amp = _embed({q: _PAULI[c] for c, q in zip(labels[k - 1], g.targets)}, n) @ amp
                        faulted += [_g(GateKind[c], q) for c, q in zip(labels[k - 1], g.targets) if c != "I"]
                got = ideal_marginal(Circuit(n, faulted, measured))
                np.testing.assert_allclose(got, _reference_marginal(amp, n, measured),
                                           rtol=0, atol=1e-12)


# A signed frame's test circuits: heavy in S, CZ, SWAP and the Paulis
_FRAME_KINDS = [GateKind.S, GateKind.CZ, GateKind.SWAP, GateKind.X, GateKind.Y, GateKind.Z] * 2 + [
    GateKind.H, GateKind.CNOT]


def _frame_circuits(rng: np.random.Generator, count: int):
    """count circuits on 1 to 5 qubits with 0 to 2 RZs at random places;
    measured qubits a random permuted subset."""
    for k in range(count):
        n = 1 + k % 5
        kinds = [kind for kind in _FRAME_KINDS if kind.arity <= n]
        gates = [_g(kinds[j], *(int(q) for q in rng.choice(n, kinds[j].arity, replace=False)))
                 for j in rng.integers(0, len(kinds), int(rng.integers(0, 30)))]
        for _ in range(k % 3):
            gates.insert(int(rng.integers(len(gates) + 1)),
                         _g(GateKind.RZ, int(rng.integers(n)), angle=float(rng.uniform(-3, 3))))
        measured = [int(q) for q in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
        yield Circuit(n, gates, measured)


def _signed_pauli(xcol: list, zcol: list, sign: int) -> np.ndarray:
    """Dense (-1)**sign i**popcount(x & z) X^x Z^z of observable 0."""
    factors = {q: _PAULI["IXZY"[(x & 1) + 2 * (z & 1)]] for q, (x, z) in enumerate(zip(xcol, zcol))}
    return (-1) ** (sign & 1) * _embed(factors, len(xcol))


class TestSignedFrame:
    """ideal_marginal reads the spectrum off the signed frame at the last
    RZ: off |0...0> in a Clifford circuit, else off the statevector up to
    that RZ."""

    def test_matches_the_full_statevector(self):
        """Spectrum and marginal against the full statevector's marginal and
        its transform, to 1e-13, on 2,400 random circuits."""
        rng = np.random.default_rng(26)
        for c in _frame_circuits(rng, 2400):
            want = simulator.marginal_vector(final_state(c).probabilities(), c.n_qubits, c.measured)
            spectrum = simulator.frame_spectrum(c, simulator.FlipMaskTable(c).frame)
            np.testing.assert_allclose(spectrum, simulator._wht(want), rtol=0, atol=1e-13, err_msg=str(c))
            np.testing.assert_allclose(ideal_marginal(c), want, rtol=0, atol=1e-13, err_msg=str(c))

    def test_each_gate_conjugates_like_its_unitary(self):
        """conjugate_frame sends every signed Pauli on three qubits to
        G^dagger P G, sign included, for every placement of each gate the
        sweep passes it: H, S, CNOT, CZ and SWAP."""
        n = 3
        for kind in (GateKind.H, GateKind.S, GateKind.CNOT, GateKind.CZ, GateKind.SWAP):
            for targets in itertools.permutations(range(n), kind.arity):
                U = _unitary(_g(kind, *targets), n)
                for x, z, sign in itertools.product(range(1 << n), range(1 << n), (0, 1)):
                    xcol, zcol = [(x >> q) & 1 for q in range(n)], [(z >> q) & 1 for q in range(n)]
                    want = U.conj().T @ _signed_pauli(xcol, zcol, sign) @ U
                    sign = simulator.conjugate_frame(xcol, zcol, sign, kind, targets)
                    np.testing.assert_allclose(_signed_pauli(xcol, zcol, sign), want, atol=1e-12,
                                               err_msg=f"{kind} {targets} {x} {z}")

    def test_pauli_gates_sign_the_frame_like_their_unitaries(self):
        """FlipMaskTable negates the carried observables that a Pauli gate
        anticommutes with, read off the gate's own row: every measured Z_t
        comes back as U^dagger Z_t U of the whole circuit, sign included,
        with H and S around the Pauli so that the observable it meets has
        an X part, a Y part or none."""
        n, around = 3, [(), (GateKind.H,), (GateKind.S,), (GateKind.H, GateKind.S),
                        (GateKind.S, GateKind.H)]
        for kind, q, before, after in itertools.product(
                (GateKind.X, GateKind.Y, GateKind.Z), range(n), around, around):
            gates = [_g(k, q) for k in before] + [_g(kind, q)] + [_g(k, q) for k in after]
            gates.append(_g(GateKind.CNOT, q, (q + 1) % n))
            U = np.eye(1 << n)
            for g in gates:
                U = _unitary(g, n) @ U
            split, xcol, zcol, sign = simulator.FlipMaskTable(Circuit(n, gates, [2, 0, 1])).frame
            assert split == -1
            for t, m in enumerate((2, 0, 1)):
                want = U.conj().T @ _embed({m: _Z}, n) @ U
                got = _signed_pauli([c >> t for c in xcol], [c >> t for c in zcol], sign >> t)
                np.testing.assert_allclose(got, want, atol=1e-12, err_msg=f"{gates} {t}")

    def test_clifford_marginals_are_dyadic(self):
        """A Clifford circuit's ideal marginal is exactly the true one: each
        entry the statevector's rounded to a multiple of 2**-m."""
        rng = np.random.default_rng(28)
        circuits = [c for c in _frame_circuits(rng, 600) if not any(g.kind is GateKind.RZ for g in c.gates)]
        for gate_set in (GateSetId.FULL, GateSetId.REDUCED):
            for L in (1, 5, 20, 100):
                for seed in range(5):
                    circuits += build_pair(random_sequence(SequenceSpec(gate_set, L, seed)))
        for c in circuits:
            got = ideal_marginal(c)
            d = len(got)
            want = simulator.marginal_vector(final_state(c).probabilities(), c.n_qubits, c.measured)
            assert np.array_equal(got, np.round(want * d) / d) and got.sum() == 1.0, c

    def test_statevector_stops_at_the_last_rz(self, monkeypatch):
        """Cost as a count: a Clifford ideal_marginal runs no gate, and with
        an RZ it runs the gates up to that RZ once."""
        seen = []
        original = simulator._evolve
        monkeypatch.setattr(simulator, "_evolve",
                            lambda amp, gates, n: seen.append(len(gates)) or original(amp, gates, n))
        reduced = build_pair(random_sequence(SequenceSpec(GateSetId.REDUCED, 100, 1)))
        full = build_pair(random_sequence(SequenceSpec(GateSetId.FULL, 100, 1)) + [LogicalGate.HHSWAP])
        for c in (*reduced, *full):
            ideal_marginal(c)
        assert seen == []
        coded = full[1]
        for at in (0, 5, len(coded.gates) - 1):
            gates = list(coded.gates)
            gates.insert(at, _g(GateKind.RZ, 1, angle=0.4))
            ideal_marginal(coded.with_gates(gates))
            assert seen.pop() == at + 1 and seen == []


class TestKernelValidation:
    def test_out_of_range_target_raises_every_time(self):
        """A failed table build is not cached, so a second call raises too."""
        before = simulator._table.cache_info().currsize
        circuit = Circuit(2, [_g(GateKind.H, 0)], [0])
        circuit.gates.append(_g(GateKind.CNOT, 0, 3))  # bypasses Circuit's own check
        for _ in range(2):
            with pytest.raises(CircuitError, match="qubit 2"):
                _evolve(_zero(2).amplitudes, [_g(GateKind.X, 2)], 2)
            with pytest.raises(CircuitError, match="qubit 3"):
                final_state(circuit)
        assert simulator._table.cache_info().currsize <= before + 1  # only H 0

    def test_bad_initial_state_refused(self):
        for amp in ([1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0], [1.0, 1j * np.inf]):
            with pytest.raises(CircuitError):
                PureState(1, np.array(amp))

    def test_one_validation_per_circuit(self, monkeypatch):
        """final_state checks its result alone, and ideal_marginal, which
        only reads probabilities, builds no PureState and no Circuit,
        whatever the gate count."""
        built = []
        for cls in (PureState, Circuit):
            monkeypatch.setattr(cls, "__post_init__", lambda self, check=cls.__post_init__:
                                built.append(type(self)) or check(self))
        rng = np.random.default_rng(23)
        for n_extra in (0, 10, 300):
            circuit = Circuit(4, _random_gates(rng, 4, n_extra), [0, 1, 2, 3])
            built.clear()
            final_state(circuit)
            assert built == [PureState]
            built.clear()
            ideal_marginal(circuit)
            assert built == []

    def test_cached_tables_are_read_only(self):
        """Every caller shares the cached arrays, so none may write them."""
        for kind in GateKind:
            for arr in simulator._table(kind, (1, 0)[:kind.arity], 2):
                assert arr is None or not arr.flags.writeable, kind

    def test_rz_angles_do_not_grow_the_cache(self):
        rng = np.random.default_rng(24)
        gates = _random_gates(rng, 3, 5)
        final_state(Circuit(3, [_g(GateKind.RZ, 1, angle=0.0)] + gates, []))
        size = simulator._table.cache_info().currsize
        for theta in rng.uniform(-np.pi, np.pi, 1000):
            final_state(Circuit(3, [_g(GateKind.RZ, 1, angle=float(theta))] + gates, []))
        assert simulator._table.cache_info().currsize == size


class TestDistributions:
    def test_pruning_drops_tiny_mass(self):
        d = OutcomeDistribution({"00": 1.0 - 1e-13, "11": 1e-13})
        assert set(d.probs) == {"00"}

    def test_mass_must_sum_to_one(self):
        with pytest.raises(CircuitError):
            OutcomeDistribution({"0": 0.6, "1": 0.5})

    def test_mixed_widths_rejected(self):
        with pytest.raises(CircuitError):
            OutcomeDistribution({"0": 0.5, "10": 0.5})

    def test_mapping_and_vector_constructors_agree(self):
        """Both forms hold the same vector, and the string views come out
        in sorted-string order whatever the order of the input."""
        rng = np.random.default_rng(25)
        for n_bits in (1, 2, 3, 5):
            vec = rng.random(1 << n_bits) * (rng.random(1 << n_bits) < 0.6)
            vec[rng.integers(1 << n_bits)] += 0.1
            counts = rng.integers(0, 50, 1 << n_bits) * (vec > 0)
            vec /= vec.sum()
            strings = {simulator.bitstring_of(j, n_bits): j for j in range(1 << n_bits)}
            keys = sorted(strings, key=lambda s: rng.random())
            d = OutcomeDistribution({s: float(vec[strings[s]]) for s in keys if vec[strings[s]]})
            assert np.array_equal(d.vec, OutcomeDistribution(vec).vec)
            assert list(d.probs) == sorted(d.probs) and d.n_bits == n_bits
            assert d.probs == {s: float(vec[j]) for s, j in strings.items() if vec[j]}
            c = ShotCounts({s: int(counts[strings[s]]) for s in keys})
            assert np.array_equal(c.vec, ShotCounts(counts).vec)
            assert list(c.counts) == sorted(c.counts) and c.total == counts.sum()
            assert c.counts == {s: int(counts[j]) for s, j in strings.items() if counts[j]}

    @pytest.mark.parametrize("data", [
        {"0": 0.5, "10": 0.5},          # mixed widths
        {"02": 0.5, "00": 0.5},         # not a 0/1 string
        {"0" * 13: 1.0},                # wider than MAX_QUBITS
        {},                             # nothing to hold
        np.full(3, 1 / 3),              # length not a power of two
        np.ones(1),                     # zero read-out bits
        np.array([np.nan, 1.0]),
        np.array([-0.25, 0.75, 0.25, 0.25]),
        np.full((2, 2), 0.25),          # not a vector
    ])
    def test_distribution_refusals(self, data):
        with pytest.raises(CircuitError):
            OutcomeDistribution(data)

    @pytest.mark.parametrize("data", [
        {"00": 3, "01": -1}, np.array([4, -2]), np.array([np.nan, 1.0]), {"0": 1, "x": 2}, {},
        np.array([0.5, 1.7]), {"0": 2, "1": 0.5}, np.array([np.inf, 1.0]),
    ])
    def test_count_refusals(self, data):
        with pytest.raises(CircuitError):
            ShotCounts(data)

    def test_integral_float_counts_pass(self):
        """A bincount's integral-valued floats are counts; a fraction is not
        truncated but refused."""
        c = ShotCounts(np.bincount([0, 1, 1, 3], weights=np.ones(4)))
        assert c.vec.dtype == np.int64 and c.counts == {"00": 1, "10": 2, "11": 1}
        with pytest.raises(CircuitError, match="non-negative integers, got 0.5"):
            ShotCounts(np.array([0.5, 1.7]))

    def test_ghz_marginal(self):
        c = Circuit(3, [_g(GateKind.H, 0), _g(GateKind.CNOT, 0, 1),
                        _g(GateKind.CNOT, 1, 2)], [0, 2])
        d = ideal_distribution(c)
        np.testing.assert_allclose(sorted(d.probs.values()), [0.5, 0.5])
        assert set(d.probs) == {"00", "11"}

    def test_unmeasured_circuit_rejected(self):
        with pytest.raises(CircuitError):
            ideal_distribution(Circuit(2, [], []))


class TestStackedRules:
    """A stack of vectors, one per row, through the rules every CSV value
    goes through: each row must come out bit for bit as the 1-D call."""

    @staticmethod
    def _stack(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
        """Signed spectra-like rows with exact zeros, ulp-scale entries and
        repeats, where a changed order or scale shows in the last bit."""
        stack = rng.uniform(-1.0, 1.0, (rows, 1 << m)) * 10.0 ** rng.integers(-17, 1, (rows, 1 << m))
        stack[rng.random(stack.shape) < 0.2] = 0.0
        stack[:, 0] = 1.0  # a spectrum's total mass
        if rows > 1:
            stack[-1] = stack[0]
        return stack

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rows", [1, 2, 3, 16, 37])
    def test_spectrum_marginal_rows_equal_the_1d_call(self, m, rows):
        """The transform runs along the last axis, so the normalization must
        be per row: dividing by the row count wrote D = 1.5."""
        stack = self._stack(np.random.default_rng([m, rows]), rows, m)
        got = simulator.spectrum_marginal(stack)
        assert got.shape == stack.shape
        for row, want in zip(got, map(simulator.spectrum_marginal, stack)):
            assert np.array_equal(row, want)
            assert np.array_equal(np.signbit(row), np.signbit(want))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rows", [1, 2, 3, 16, 37])
    def test_ordered_sum_rows_equal_the_1d_rule(self, m, rows):
        """Per-row sums in sorted-bitstring order, as Python floats."""
        stack = np.abs(self._stack(np.random.default_rng([m, rows, 1]), rows, m))
        got = simulator.ordered_sum(stack)
        assert isinstance(got, list) and len(got) == rows
        order = sorted(range(1 << m), key=lambda j: simulator.bitstring_of(j, m))
        for total, row in zip(got, stack):
            want = 0
            for j in order:
                want += float(row[j])
            assert type(total) is float and total == want == simulator.ordered_sum(row)


class TestSampling:
    def test_empirical_distribution(self):
        sc = ShotCounts({"00": 75, "11": 25})
        d = sc.to_distribution()
        assert d.probs == {"00": 0.75, "11": 0.25}

    def test_final_state_of_l00_core(self):
        c = Circuit(4, [_g(GateKind.H, 1), _g(GateKind.CNOT, 1, 0),
                        _g(GateKind.CNOT, 1, 2), _g(GateKind.CNOT, 2, 3)], [0, 1, 2, 3])
        amp = final_state(c).amplitudes
        np.testing.assert_allclose(amp[0b0000], 1 / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(amp[0b1111], 1 / np.sqrt(2), atol=1e-12)
