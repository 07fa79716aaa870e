"""The four benchmark workloads.

Each workload turns (seed, operation index) into inputs -- config files,
circuit text files, gate sequences and seeds -- runs one operation on
them through the package's public entry points, and checks the outputs
against the exact references in oracle.py.  Only ``run`` is timed.

Why these four: ``sweep`` makes many small ``noisy_counts`` calls, so
per-circuit set-up dominates; ``megashot`` makes one 2.5 x 10^5-shot
call, so per-shot work dominates; ``coherent`` forces one statevector per
unique fault configuration and bypasses the flip-mask table; ``ftcheck``
is the only path through ``ftcheck`` and ``circuits.parse_circuit`` and
samples nothing.  Where the benchmark builds the circuit itself, the gate
count is fixed and only the order is random, so an operation's cost does
not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from qec422 import analytics, cli, code, noise, simulator
from qec422.circuits import serialize_circuit
from qec422.code import LogicalGate
from qec422.experiments import (
    CSV_COLUMNS,
    GateSetId,
    SequenceSpec,
    build_pair,
    random_sequence,
    read_records_csv,
)
from qec422.noise import NoiseParams, insert_coherent_rotation

import oracle

# The criterion-5 operating point: strong two-qubit noise, eps2 = 40 eps1.
CRIT5 = {"eps1": 4e-3, "eps2": 0.16, "p_meas": 0.02}

TWO_GATE = (LogicalGate.X0, LogicalGate.X1, LogicalGate.Z0, LogicalGate.Z1)

SIZES = {
    "full": {
        "sweep": {"lengths": (20, 50, 100), "seeds_per_length": 1, "shots": 8192},
        # 82 two-gate + 18 CZZZ blocks: L = 100, 240 coded gates; 2.5 x 10^5
        # shots keeps about eight operations in one run
        "megashot": {"n_two": 82, "n_four": 18, "shots": 250_000},
        # HHSWAP repeated: every operation simulates the same 29-gate coded
        # circuit, so its cost does not depend on a random gate mix
        "coherent": {"length": 6, "shots": 8192},
        # 21 two-gate + 9 four-gate blocks: L = 30, 82 gates, 282 sites
        "ftcheck": {"n_two": 21, "n_four": 9},
    },
    "tiny": {
        "sweep": {"lengths": (2, 5), "seeds_per_length": 1, "shots": 512},
        "megashot": {"n_two": 4, "n_four": 1, "shots": 4096},
        "coherent": {"length": 2, "shots": 512},
        "ftcheck": {"n_two": 2, "n_four": 1},
    },
}


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _fixed_sequence(rng: np.random.Generator, n_two: int, n_four: int,
                    four_gates: tuple[LogicalGate, ...]) -> list[LogicalGate]:
    """Random order, fixed gate count: the circuit size does not depend on the seed."""
    seq = [TWO_GATE[i] for i in rng.integers(0, len(TWO_GATE), n_two)]
    seq += [four_gates[i] for i in rng.integers(0, len(four_gates), n_four)]
    rng.shuffle(seq)
    return seq


def _cli(argv: list[str]) -> dict:
    """cli.main in-process, stdout captured; looked up at call time so the
    traced run sees its wrapper."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


class Workload:
    name = ""
    item = "shots"

    def __init__(self, workdir: Path, seed: int, size: dict):
        self.workdir = workdir
        self.seed = seed
        self.size = size
        self.sv_shots = 0       # shots per operation that take the statevector path
        self.sites = 0          # fault sites classified per operation
        self.info: dict = {}    # G and N, for the provenance record

    def _opdir(self, k: int, tag: str) -> Path:
        d = self.workdir / f"op{k}{tag}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def summary_failures(self) -> list[str]:
        return []

    def facts(self, out: dict) -> dict:
        """Output-derived per-layer facts: retention, CSV size."""
        return {}


class _RecordsWorkload(Workload):
    """Shared checks for the CLI subcommands that write records CSV."""

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.mean_D: dict[tuple[int, str], list[float]] = {}

    def _records(self, out: dict) -> tuple[list, list[str]]:
        if out["rc"] != 0:
            return [], [f"exit code {out['rc']}"]
        with open(out["csv"], newline="") as fh:
            raw = list(csv.reader(fh))
        records = read_records_csv(out["csv"])
        fails = []
        if raw[0] != list(CSV_COLUMNS) or [r.to_csv_row() for r in records] != raw[1:]:
            fails.append("CSV read back through read_records_csv differs from what was written")
        return records, fails

    def facts(self, out: dict) -> dict:
        records = read_records_csv(out["csv"])
        r = [rec.r for rec in records if rec.scheme == "coded_ps"]
        return {"retention": sum(r) / len(r), "csv_bytes": out["csv"].stat().st_size}

    def run(self, inp: dict) -> dict:
        return {**_cli(inp["argv"]), "csv": inp["csv"]}

    def fingerprint(self, out: dict):
        """Records minus the timestamp column."""
        if out["rc"] != 0:
            return None
        with open(out["csv"], newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    def _check_pairs(self, records: list, expected_pairs: int, shots: int) -> list[str]:
        fails = []
        if len(records) != 3 * expected_pairs:
            return [f"{len(records)} records, expected {3 * expected_pairs}"]
        gates = 0
        for i in range(0, len(records), 3):
            u, raw, ps = records[i:i + 3]
            tag = f"L={u.L} seed={u.seed} theta={u.theta}"
            if (u.scheme, raw.scheme, ps.scheme) != ("uncoded", "coded_raw", "coded_ps"):
                fails.append(f"{tag}: schemes {u.scheme}, {raw.scheme}, {ps.scheme}")
                continue
            if any(r.shots != shots for r in (u, raw, ps)):
                fails.append(f"{tag}: shots differ from {shots}")
            params = NoiseParams(eps1=u.eps1, eps2=u.eps2, p_meas=u.p_meas, p_prep=u.p_prep)
            seq = random_sequence(SequenceSpec(GateSetId(u.gate_set), u.L, u.seed))
            unc, cod = build_pair(seq)
            ideal_u = oracle.exact_distribution(unc, NoiseParams())
            ideal_c = oracle.exact_distribution(cod, NoiseParams())
            if u.theta:
                cod = insert_coherent_rotation(cod, u.theta)
            gates += len(unc.gates) + len(cod.gates)
            ex_u = oracle.exact_distribution(unc, params)
            ex_c = oracle.exact_distribution(cod, params)
            ret, r = oracle.post_selected(ex_c)

            def near(name, got, want, tol):
                if abs(got - want) > tol:
                    fails.append(f"{tag}: {name} {got:.5f}, exact {want:.5f} +- {tol:.5f}")

            near("uncoded D", u.D, oracle.tv(ideal_u, ex_u), oracle.tv_tolerance(ex_u, shots))
            near("coded_raw D", raw.D, oracle.tv(ideal_c, ex_c), oracle.tv_tolerance(ex_c, shots))
            if not (u.gamma == shots and u.r == 1.0 and u.D_decoded == u.D):
                fails.append(f"{tag}: uncoded row keeps {u.gamma} shots, r {u.r}")
            if not oracle.within_binomial(ps.gamma, shots, r) or ps.r != ps.gamma / shots:
                fails.append(f"{tag}: retained {ps.gamma}/{shots}, exact retention {r:.5f}")
            if ps.gamma:
                near("coded_ps D", ps.D, oracle.tv(ideal_c, ret),
                     oracle.tv_tolerance(ret, ps.gamma))
                dec = oracle.decoded(ret)
                near("D_decoded", ps.D_decoded, oracle.tv(oracle.decoded(ideal_c), dec),
                     oracle.tv_tolerance(dec, ps.gamma))
            if raw.D_decoded != ps.D_decoded:
                fails.append(f"{tag}: coded rows disagree on D_decoded")
            if (u.output_dimension != int((ideal_u > 1e-12).sum())
                    or ps.output_dimension != int((ideal_c > 1e-12).sum())):
                fails.append(f"{tag}: output_dimension")
            for rec in (u, ps):
                self.mean_D.setdefault((rec.L, rec.scheme), []).append(rec.D)
        self.info.setdefault("G", gates)
        return fails


class Sweep(_RecordsWorkload):
    """qec422 run --config: the criterion-5 sweep, reduced gate set."""

    name = "sweep"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        n_runs = 2 * len(size["lengths"]) * size["seeds_per_length"]
        self.items_per_op = n_runs * size["shots"]
        self.info = {"N": size["shots"], "scheme_runs_per_op": n_runs}

    def prepare(self, k: int, tag: str = "") -> dict:
        d = self._opdir(k, tag)
        s = self.size
        out = d / "results.csv"
        _write_config(d / "sweep.cfg", {
            "gate_set": "reduced",
            "lengths": ", ".join(map(str, s["lengths"])),
            "seeds_per_length": s["seeds_per_length"],
            "master_seed": int(_rng(self.seed, k).integers(0, 2**31)),
            "shots": s["shots"],
            **CRIT5,
            "jobs": 1,
            "out": out,
        })
        return {"argv": ["run", "--config", str(d / "sweep.cfg")], "csv": out}

    def check(self, inp: dict, out: dict) -> list[str]:
        records, fails = self._records(out)
        if not records:
            return fails
        s = self.size
        with open(str(out["csv"]) + ".meta.json") as fh:
            meta = json.load(fh)
        if (meta["lengths"] != list(s["lengths"]) or meta["shots"] != s["shots"]
                or any(meta["params"][k] != v for k, v in CRIT5.items())):
            fails.append("meta.json does not match the config")
        return fails + self._check_pairs(records, len(s["lengths"]) * s["seeds_per_length"],
                                         s["shots"])

    def summary_failures(self) -> list[str]:
        """coded_ps beats uncoded on mean D at every L, once there are ten
        sequences per L to average (the criterion-5 claim)."""
        fails = []
        for L in self.size["lengths"]:
            ps, unc = self.mean_D.get((L, "coded_ps"), []), self.mean_D.get((L, "uncoded"), [])
            if len(ps) >= 10 and sum(ps) / len(ps) >= sum(unc) / len(unc):
                fails.append(f"L={L}: mean D coded_ps {sum(ps) / len(ps):.4f} "
                             f">= uncoded {sum(unc) / len(unc):.4f}")
        return fails


class Coherent(_RecordsWorkload):
    """qec422 sweep-theta, one theta in (0, pi) per operation: RZ after the
    encoder's H, one statevector per unique fault configuration."""

    name = "coherent"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.items_per_op = 2 * size["shots"]
        self.sv_shots = size["shots"]
        self.info = {"N": size["shots"], "scheme_runs_per_op": 2}

    def prepare(self, k: int, tag: str = "") -> dict:
        d = self._opdir(k, tag)
        s = self.size
        rng = _rng(self.seed, k)
        out = d / "theta.csv"
        _write_config(d / "theta.cfg", {
            "gate_set": "single_hhswap",
            "length": s["length"],
            "thetas": repr(float(rng.uniform(0.1, math.pi - 0.1))),
            "master_seed": int(rng.integers(0, 2**31)),
            "shots": s["shots"],
            **CRIT5,
            "out": out,
        })
        return {"argv": ["sweep-theta", "--config", str(d / "theta.cfg")], "csv": out}

    def check(self, inp: dict, out: dict) -> list[str]:
        records, fails = self._records(out)
        if not records:
            return fails
        return fails + self._check_pairs(records, 1, self.size["shots"])


class Megashot(Workload):
    """One large noisy_counts on an L = 100 coded circuit, then
    post_select, decode_distribution and trace_distance."""

    name = "megashot"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.items_per_op = size["shots"]
        self.params = NoiseParams(**CRIT5, p_prep=0.01)

    def prepare(self, k: int, tag: str = "") -> dict:
        rng = _rng(self.seed, k)
        seq = _fixed_sequence(rng, self.size["n_two"], self.size["n_four"], (LogicalGate.CZZZ,))
        circuit = build_pair(seq)[1]
        self.info = {"G": len(circuit.gates), "N": self.size["shots"]}
        return {"circuit": circuit, "seed": int(rng.integers(0, 2**63))}

    def run(self, inp: dict) -> dict:
        c = inp["circuit"]
        counts = noise.noisy_counts(c, self.params, self.size["shots"], inp["seed"])
        ps = code.post_select(counts)
        retained = ps.retained.to_distribution()
        ideal = simulator.ideal_distribution(c)
        D = analytics.trace_distance(ideal, retained)
        D_dec = analytics.trace_distance(code.decode_distribution(ideal),
                                         code.decode_distribution(retained))
        return {"counts": counts.counts, "accepted": ps.accepted, "D": D, "D_decoded": D_dec}

    def fingerprint(self, out: dict):
        return out["counts"]

    def facts(self, out: dict) -> dict:
        return {"retention": out["accepted"] / self.size["shots"]}

    def check(self, inp: dict, out: dict) -> list[str]:
        n = self.size["shots"]
        got = oracle.counts_vector(out["counts"], 4)
        exact = oracle.exact_distribution(inp["circuit"], self.params)
        ideal = oracle.exact_distribution(inp["circuit"], NoiseParams())
        fails = []
        if got.sum() != n:
            fails.append(f"counts sum to {got.sum()}, not {n}")
        bad = [j for j in range(16) if not oracle.within_binomial(got[j], n, exact[j])]
        if bad:
            fails.append(f"outcome counts off the exact distribution at {bad}")
        even = oracle.even_parity(16)
        gamma = int(got[even].sum())
        if out["accepted"] != gamma:
            fails.append(f"post_select kept {out['accepted']}, even-parity counts {gamma}")
        if gamma:
            emp = np.where(even, got, 0.0) / gamma
            if abs(out["D"] - oracle.tv(ideal, emp)) > 1e-12:
                fails.append(f"D {out['D']} differs from the counts' {oracle.tv(ideal, emp)}")
            dec = oracle.tv(oracle.decoded(ideal), oracle.decoded(emp))
            if abs(out["D_decoded"] - dec) > 1e-12:
                fails.append(f"D_decoded {out['D_decoded']} differs from the counts' {dec}")
        return fails


class FTCheck(Workload):
    """qec422 verify-ft --circuit <file> --json on an L = 30 full-set coded circuit."""

    name = "ftcheck"
    item = "sites"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        n1 = 2 * size["n_two"] + 4 * size["n_four"] + 1   # + the encoder's H
        self.sites = self.items_per_op = 3 * n1 + 15 * 3  # + the encoder's three CNOTs
        self.info = {"G": n1 + 3, "sites": self.sites}

    def prepare(self, k: int, tag: str = "") -> dict:
        rng = _rng(self.seed, k)
        seq = _fixed_sequence(rng, self.size["n_two"], self.size["n_four"],
                              (LogicalGate.CZZZ, LogicalGate.HHSWAP))
        circuit = build_pair(seq)[1]
        path = self._opdir(k, tag) / "circuit.txt"
        path.write_text(serialize_circuit(circuit))
        return {"argv": ["verify-ft", "--circuit", str(path), "--json"], "circuit": circuit}

    def run(self, inp: dict) -> dict:
        return _cli(inp["argv"])

    def fingerprint(self, out: dict):
        return out["stdout"]

    def check(self, inp: dict, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"exit code {out['rc']}"]
        report = json.loads(out["stdout"])
        verdicts, weight = oracle.classify_sites(inp["circuit"])
        got = {(s["gate_index"], s["pauli"]): s["classification"] for s in report["sites"]}
        fails = []
        if report["n_sites"] != self.sites or len(got) != self.sites:
            fails.append(f"{report['n_sites']} sites, expected {self.sites}")
        wrong = [site for site, v in verdicts.items() if got.get(site) != v]
        if wrong:
            fails.append(f"{len(wrong)} sites classified differently from the exact masks, "
                         f"first {wrong[0]}")
        tally = {c: list(verdicts.values()).count(c) for c in report["tally"]}
        if report["tally"] != tally:
            fails.append(f"tally {report['tally']}, expected {tally}")
        if report["undetected_fraction"] != weight:
            fails.append(f"undetected weight {report['undetected_fraction']!r}, "
                         f"expected {weight!r}")
        if report["fault_tolerant"] != (weight == "0"):
            fails.append("fault_tolerant flag disagrees with the undetected weight")
        return fails


WORKLOADS = {w.name: w for w in (Sweep, Megashot, Coherent, FTCheck)}


def make(name: str, workdir: Path, seed: int, scale: str = "full") -> Workload:
    return WORKLOADS[name](workdir, seed, SIZES[scale][name])
