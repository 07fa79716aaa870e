"""Command-line behavior, driven through main(argv)."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qec422
from qec422 import experiments
from qec422.circuits import Circuit, parse_circuit
from qec422.cli import _DEFAULTS, OUTPUT_DIR_ENV, build_parser, load_config, main
from qec422.code import EncoderVariant, LogicalGate, LogicalStateLabel, build_encoder, coded_gate_circuit
from qec422.experiments import DEFAULT_SHOTS, read_records_csv
from qec422.simulator import ideal_distribution


class TestEmitCircuit:
    def test_encoder_to_stdout(self, capsys):
        assert main(["emit-circuit", "--encoder", "L00"]) == 0
        out = capsys.readouterr().out
        circuit = parse_circuit(out)
        want = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)
        assert circuit == want

    def test_checked_variant(self, capsys):
        assert main(["emit-circuit", "--encoder", "L00",
                     "--variant", "AncillaChecked"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("qubits 5")

    def test_gate_block_parses_and_runs(self, capsys):
        assert main(["emit-circuit", "--gate", "HHSWAP", "--scheme", "uncoded"]) == 0
        circuit = parse_circuit(capsys.readouterr().out)
        dist = ideal_distribution(circuit)
        assert dist.support_size == 4
        assert all(abs(p - 0.25) < 1e-12 for p in dist.probs.values())

    def test_gate_block_defaults_to_coded(self, capsys):
        assert main(["emit-circuit", "--gate", "X0"]) == 0
        want = Circuit(4, coded_gate_circuit(LogicalGate.X0), [0, 1, 2, 3])
        assert parse_circuit(capsys.readouterr().out) == want

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "enc.txt"
        assert main(["emit-circuit", "--encoder", "L0plus", "--out", str(path)]) == 0
        parse_circuit(path.read_text())

    def test_needs_exactly_one_source(self, capsys):
        assert main(["emit-circuit"]) == 1
        assert main(["emit-circuit", "--encoder", "L00", "--gate", "X0"]) == 1
        assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["emit-circuit", "--gate", "X0", "--variant", "AncillaChecked"], "--variant"),
    (["emit-circuit", "--encoder", "L00", "--scheme", "uncoded"], "--scheme"),
    (["verify-ft", "--circuit", "enc.txt", "--variant", "AncillaChecked"], "--variant"),
])
def test_mode_flag_the_mode_does_not_read(capsys, argv, flag):
    """Each used to exit 0 with the flag ignored; verify-ft still reported
    postselect for an AncillaChecked --variant on a circuit file."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} does not apply to")
    assert captured.out == ""


class TestConfig:
    def test_parse_and_comment_handling(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# sweep setup\nlengths = 1, 2, 5  # short\nshots = 256\n"
                     "eps2 = 0.16\nanalytic_xi = true\n\n")
        cfg = load_config(str(p), "run")
        assert cfg == {"lengths": [1, 2, 5], "shots": 256,
                       "eps2": 0.16, "analytic_xi": True}

    def test_unknown_key_reports_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("shots = 10\nbogus = 3\n")
        with pytest.raises(Exception, match="c.cfg:2"):
            load_config(str(p), "run")

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("shots = many\n")
        with pytest.raises(Exception, match="bad value"):
            load_config(str(p), "run")

    def test_analytic_xi_accepts_only_boolean_words(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        for word, want in (("1", True), ("TRUE", True), ("Yes", True),
                           ("0", False), ("false", False), ("NO", False)):
            p.write_text(f"analytic_xi = {word}\n")
            assert load_config(str(p), "run") == {"analytic_xi": want}
        p.write_text("shots = 16\nanalytic_xi = ture\n")
        with pytest.raises(Exception, match=r"c.cfg:2: bad value 'ture'"):
            load_config(str(p), "run")
        out = tmp_path / "never.csv"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 1
        assert "bad value" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_refused(self, tmp_path, capsys):
        """A config that is not UTF-8 used to end in a UnicodeDecodeError traceback."""
        cfg, out = tmp_path / "latin1.cfg", tmp_path / "never.csv"
        cfg.write_bytes("# caf\xe9\nlengths = 1\n".encode("latin-1"))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xe9")
        assert not out.exists()

    def test_line_without_equals_reports_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# shots\nshots 10\n")
        with pytest.raises(Exception, match=r"c.cfg:2: expected 'key = value', got 'shots 10'$"):
            load_config(str(p), "run")

    def test_repeated_key_refused(self, tmp_path, capsys):
        """A later line used to win silently: shots = 10 then shots = 20 ran 20."""
        cfg, out = tmp_path / "c.cfg", tmp_path / "never.csv"
        cfg.write_text("lengths = 1\nshots = 10\nseeds_per_length = 1\nshots = 20\n")
        with pytest.raises(Exception, match=r"c.cfg:4: key 'shots' given twice$"):
            load_config(str(cfg), "run")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}:4: key 'shots' given twice\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("bogus = 3\n")
        assert main(["run", "--config", str(p)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("command, body, line, key", [
        ("run", "shots = 64\nthetas = 0.5\nlength = 7\n", 2, "thetas"),
        ("run", "shots = 64\nlength = 7\n", 2, "length"),
        ("sweep-theta", "thetas = 0.5\ntheta = 0.3\n", 2, "theta"),
        ("sweep-theta", "seeds_per_length = 2\n", 1, "seeds_per_length"),
        ("predict", "eps2 = 0.16\nshots = 64\n", 2, "shots"),
        ("predict", "out = pred.csv\n", 1, "out"),
    ])
    def test_key_the_command_does_not_read_refused(self, tmp_path, capsys, command, body,
                                                    line, key):
        """A key another subcommand reads used to load and be silently ignored."""
        cfg, out = tmp_path / "c.cfg", tmp_path / "never.csv"
        cfg.write_text(body)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {cfg}:{line}: unknown config key {key!r} for {command}")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, keys", [
        ("run", "gate_set lengths seeds_per_length master_seed shots eps1 eps2 p_meas jobs out"),
        ("sweep-theta", "gate_set length thetas master_seed shots eps1 eps2 p_meas out"),
    ])
    def test_benchmark_config_keys_load(self, tmp_path, command, keys):
        """The keys the benchmark's sweep and coherent configs write."""
        values = {"gate_set": "full", "lengths": "1", "thetas": "0.5", "out": "x.csv",
                  "eps1": "0.004", "eps2": "0.16", "p_meas": "0.02", "jobs": "1"}
        p = tmp_path / "c.cfg"
        p.write_text("".join(f"{k} = {values.get(k, '2')}\n" for k in keys.split()))
        assert set(load_config(str(p), command)) == set(keys.split())


class TestRun:
    def _run(self, tmp_path, name, extra=()):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("gate_set = reduced\nlengths = 1, 3\nseeds_per_length = 2\n"
                       "shots = 256\neps1 = 0.004\neps2 = 0.16\np_meas = 0.02\n")
        out = tmp_path / name
        rc = main(["run", "--config", str(cfg), "--out", str(out), *extra])
        assert rc == 0
        return out

    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = self._run(tmp_path, "a.csv")
        recs = read_records_csv(out)
        assert len(recs) == 2 * 2 * 3
        assert {r.scheme for r in recs} == {"uncoded", "coded_raw", "coded_ps"}
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["sequence_sampling"] == "independent_per_L_seed"
        assert meta["shots"] == 256
        assert meta["params"]["eps2"] == 0.16
        printed = capsys.readouterr().out
        assert "wrote 12 records" in printed
        assert "mean D" in printed

    def test_flag_overrides_config(self, tmp_path, capsys):
        out = self._run(tmp_path, "b.csv", extra=("--shots", "128"))
        recs = read_records_csv(out)
        assert all(r.shots == 128 for r in recs)
        meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert meta["shots"] == 128

    def test_deterministic_across_invocations(self, tmp_path, capsys):
        a = read_records_csv(self._run(tmp_path, "a.csv"))
        b = read_records_csv(self._run(tmp_path, "b.csv"))
        strip = lambda rs: [
            tuple(getattr(r, f) for f in r.__dataclass_fields__ if f != "timestamp")
            for r in rs
        ]
        assert strip(a) == strip(b)

    def test_deterministic_across_processes(self, tmp_path):
        """Fresh interpreters get fresh hash salts; records must still
        match bit for bit (accumulation order cannot follow set order)."""
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("lengths = 1, 2\nseeds_per_length = 2\nshots = 256\n"
                       "eps1 = 0.004\neps2 = 0.16\np_meas = 0.02\n")
        outs = []
        for salt, name in (("1", "a.csv"), ("2", "b.csv")):
            env = dict(os.environ, PYTHONHASHSEED=salt)
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "qec422.cli", "run",
                 "--config", str(cfg), "--out", str(out)],
                check=True, env=env, capture_output=True,
            )
            outs.append(read_records_csv(out))
        strip = lambda rs: [
            tuple(getattr(r, f) for f in r.__dataclass_fields__ if f != "timestamp")
            for r in rs
        ]
        assert strip(outs[0]) == strip(outs[1])

    def test_rerun_replaces_the_csv_and_its_sidecar(self, tmp_path, capsys):
        """A second run into the same --out used to append to the CSV while
        its sidecar described only the second run."""
        out = tmp_path / "x.csv"
        for lengths in ("1", "5"):
            argv = ["run", "--lengths", lengths, "--seeds-per-length", "1", "--shots", "64",
                    "--out", str(out)]
            assert main(argv) == 0
        recs = read_records_csv(out)
        assert len(recs) == 3 and {r.L for r in recs} == {5}
        meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
        assert meta["lengths"] == [5] and meta["shots"] == 64

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("lengths = 1\nseeds_per_length = 1\nshots = 64\n")
        assert main(["run", "--config", str(cfg), "--out", "rel.csv"]) == 0
        assert (tmp_path / "rel.csv").exists()
        assert (tmp_path / "rel.csv.meta.json").exists()

    @pytest.mark.parametrize("shots", ["-5", "0"])
    @pytest.mark.parametrize("analytic", [(), ("--analytic-xi",)])
    def test_non_positive_shots_refused(self, tmp_path, capsys, shots, analytic):
        """The analytic path used to write rows with shots and gamma <= 0."""
        out = tmp_path / "never.csv"
        argv = ["run", "--lengths", "1", "--seeds-per-length", "1", "--shots", shots,
                "--xi", "0.1", *analytic, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: shots must be positive, got {shots}")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--lengths", "1", "--seeds-per-length", "1"],
                                         ["sweep-theta", "--thetas", "0.3"]])
    def test_shots_beyond_int64_refused(self, tmp_path, capsys, command):
        """2**63 shots used to exit 1 with an OverflowError traceback from
        numpy's multinomial."""
        out = tmp_path / "never.csv"
        assert main([*command, "--shots", str(2**63), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: shots must be in [1, 2**63 - 1]") and "Traceback" not in err
        assert not out.exists()

    def test_analytic_xi_draws_no_shots(self, tmp_path):
        """--analytic-xi samples nothing, so shots beyond int64 still run."""
        out = tmp_path / "exact.csv"
        assert main(["run", "--lengths", "1", "--seeds-per-length", "1", "--analytic-xi",
                     "--shots", str(2**63), "--out", str(out)]) == 0
        assert {r.shots for r in read_records_csv(out)} == {2**63}

    def test_zero_seeds_per_length_refused(self, tmp_path, capsys):
        """Zero seeds used to write a header-only CSV and exit 0."""
        out = tmp_path / "never.csv"
        assert main(["run", "--lengths", "1", "--seeds-per-length", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: seeds_per_length must be positive, got 0")
        assert not out.exists()

    def test_empty_lengths_refused(self, tmp_path, capsys):
        """An empty --lengths used to write a header-only CSV and exit 0."""
        out = tmp_path / "never.csv"
        assert main(["run", "--lengths", "", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: no sequence lengths to run")
        assert not out.exists()

    @pytest.mark.parametrize("flags, body", [(["--lengths", "1,1"], ""),
                                             ([], "lengths = 20, 20\n")])
    def test_repeated_length_refused(self, tmp_path, capsys, flags, body):
        """A repeated length used to write its rows twice under one
        experiment_id, and the summary averaged the copy as a second sample."""
        cfg, out = tmp_path / "c.cfg", tmp_path / "never.csv"
        cfg.write_text(body + "seeds_per_length = 1\n")
        assert main(["run", "--config", str(cfg), *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        length = "1" if flags else "20"
        assert captured.err == f"error: sequence length {length} given twice\n"
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "never.csv.meta.json").exists()

    @pytest.mark.parametrize("command", [["run", "--lengths", "1,5", "--seeds-per-length", "2"],
                                         ["sweep-theta", "--thetas", "0.3,0.6"]])
    def test_missing_out_directory_refused_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                          command):
        """An --out in a missing directory used to fail only once the whole
        sweep had been simulated."""
        calls = []
        monkeypatch.setattr(experiments, "run_pairs", lambda *a, **k: calls.append(a) or [])
        out = tmp_path / "nodir" / "x.csv"
        assert main([*command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {out}: no directory "
                                           f"{str(out.parent)!r} to write into\n")
        assert calls == []

    def test_jobs_flag_is_a_usage_error(self, tmp_path, capsys):
        """Runs are serial: --jobs is no longer a flag."""
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--lengths", "1", "--seeds-per-length", "1", "--jobs", "2",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_jobs_config_refused(self, tmp_path, capsys):
        """An old config asking for worker processes fails loudly, before anything runs."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lengths = 1\nseeds_per_length = 1\njobs = 2\n")
        out = tmp_path / "never.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: jobs = 2: parallel runs were removed")
        assert not out.exists()

    def test_jobs_one_config_is_ignored(self, tmp_path, capsys):
        """jobs = 1 still loads, and the records are those of the same config without it."""
        body = "gate_set = full\nlengths = 1, 10\nseeds_per_length = 2\nshots = 777\neps2 = 0.16\n"
        columns = []
        for name, extra in (("plain", ""), ("serial", "jobs = 1\n")):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_text(body + extra)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            # columns 1-16: everything but the trailing timestamp
            columns.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
        assert len(columns[0]) == 13
        assert columns[1] == columns[0]

    def test_analytic_xi_is_exact_under_every_channel(self, tmp_path, capsys):
        """--analytic-xi used to refuse any Pauli, preparation or read-out noise."""
        out = tmp_path / "exact.csv"
        argv = ["run", "--analytic-xi", "--gate-set", "reduced", "--lengths", "1,5",
                "--seeds-per-length", "1", "--eps1", "4e-3", "--eps2", "0.16",
                "--p-meas", "0.02", "--p-prep", "0.01", "--out", str(out)]
        assert main(argv) == 0
        recs = read_records_csv(out)
        assert len(recs) == 6
        assert all(0.0 < r.D < 1.0 for r in recs)
        assert all(0.0 < r.r < 1.0 for r in recs if r.scheme == "coded_ps")


class TestPredict:
    ARGS = ["--eps1", "0.004", "--eps2", "0.16", "--p-meas", "0.02"]

    def test_crossover_line(self, capsys):
        assert main(["predict", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "crossover: coded_ps beats uncoded from L = 2" in out

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        assert main(["predict", *self.ARGS, "--lengths", "1,10", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scheme,L,D_pred"
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            scheme, L, val = line.split(",")
            assert scheme in ("uncoded", "coded_raw", "coded_ps")
            assert 0.0 <= float(val) <= 1.0

    def test_no_crossover_when_noiseless_reads(self, capsys):
        assert main(["predict", "--eps1", "0.004", "--eps2", "0.16",
                     "--lengths", "1,2,3"]) == 0
        assert "no crossover" not in capsys.readouterr().out

    def test_empty_lengths_refused(self, tmp_path, capsys):
        """An empty --lengths used to print "no crossover"."""
        out = tmp_path / "never.csv"
        assert main(["predict", *self.ARGS, "--lengths", "", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no sequence lengths to predict")
        assert "crossover" not in captured.out
        assert not out.exists()

    def test_non_positive_lengths_refused(self, tmp_path, capsys):
        """L <= 0 used to print rows such as coded_raw,-3,0.30000000000000004."""
        out = tmp_path / "never.csv"
        assert main(["predict", "--eps2", "0.1", "--lengths", "0,-3", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: sequence lengths must be positive, got -3")
        assert not out.exists()


class TestVerifyFt:
    def test_json_verdicts(self, capsys):
        assert main(["verify-ft", "--encoder", "L00", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["fault_tolerant"] is False
        assert d["undetected_fraction"] == "8/15 * eps2"

        assert main(["verify-ft", "--encoder", "L00",
                     "--variant", "AncillaChecked", "--include-prep",
                     "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["fault_tolerant"] is True
        assert d["detection"] == "postselect+ancilla"

    def test_table_output(self, capsys):
        assert main(["verify-ft", "--encoder", "L00"]) == 0
        out = capsys.readouterr().out
        assert "fault tolerant: no" in out
        assert "DetectedPostSelection" in out

    def test_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "circ.txt"
        main(["emit-circuit", "--encoder", "L00", "--out", str(path)])
        capsys.readouterr()
        assert main(["verify-ft", "--circuit", str(path)]) == 0
        assert "circ.txt" in capsys.readouterr().out

    @pytest.mark.parametrize("prep", [[], ["--include-prep"]])
    def test_checked_encoder_file_reports_as_the_encoder(self, tmp_path, capsys, prep):
        """A circuit file used to get parity-only detection whatever it
        measured, so the checked encoder's own file came out not fault
        tolerant while --encoder passed it."""
        path = tmp_path / "checked.txt"
        main(["emit-circuit", "--encoder", "L00", "--variant", "AncillaChecked", "--out", str(path)])
        capsys.readouterr()
        assert main(["verify-ft", "--circuit", str(path), "--json"] + prep) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["verify-ft", "--encoder", "L00", "--variant", "AncillaChecked",
                     "--json"] + prep) == 0
        from_encoder = json.loads(capsys.readouterr().out)
        assert from_file.pop("circuit_id") == "checked.txt"
        assert from_encoder.pop("circuit_id") == "L00-AncillaChecked"
        assert from_file == from_encoder
        assert (from_file["fault_tolerant"], from_file["undetected_fraction"]) == (True, "0")

    def test_detection_flag_overrides_the_read_out(self, tmp_path, capsys):
        path = tmp_path / "checked.txt"
        main(["emit-circuit", "--encoder", "L00", "--variant", "AncillaChecked", "--out", str(path)])
        capsys.readouterr()
        assert main(["verify-ft", "--circuit", str(path), "--detection", "postselect",
                     "--include-prep", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert (d["detection"], d["fault_tolerant"]) == ("postselect", False)
        assert d["undetected_fraction"] == "8/15 * eps2 + 1 * p_prep"

    def test_missing_file(self, capsys):
        assert main(["verify-ft", "--circuit", "/no/such/file"]) == 1

    def test_non_utf8_circuit_file_refused(self, tmp_path, capsys):
        """A circuit file that is not UTF-8 used to end in a UnicodeDecodeError traceback."""
        path = tmp_path / "latin1.txt"
        path.write_bytes("# \xe9t\xe9\nqubits 1\nH 0\nMEASURE 0\n".encode("latin-1"))
        assert main(["verify-ft", "--circuit", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")

    def test_wide_circuit_file_refused_at_its_header(self, tmp_path, capsys):
        """A 40-qubit header used to reach a 2**40-amplitude allocation."""
        path = tmp_path / "wide.txt"
        path.write_text("qubits 40\nH 39\nMEASURE 0 1 2 3\n")
        assert main(["verify-ft", "--circuit", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 1: qubits must be in [1, 12], got 40\n"

    def test_needs_exactly_one_source(self, capsys):
        assert main(["verify-ft"]) == 1


class TestSweepTheta:
    def test_rerun_replaces_the_csv(self, tmp_path, capsys):
        out = tmp_path / "theta.csv"
        for thetas in ("0.4", "0.9,1.2"):
            argv = ["sweep-theta", "--thetas", thetas, "--shots", "64", "--out", str(out)]
            assert main(argv) == 0
        assert [r.theta for r in read_records_csv(out)] == [0.9] * 3 + [1.2] * 3

    def test_removes_a_stale_sidecar(self, tmp_path, capsys):
        """A sidecar left by an earlier run used to survive beside the
        theta sweep's CSV, still describing that run."""
        out, sidecar = tmp_path / "x.csv", tmp_path / "x.csv.meta.json"
        assert main(["run", "--lengths", "1", "--seeds-per-length", "1", "--shots", "64",
                     "--out", str(out)]) == 0
        assert sidecar.exists()
        assert main(["sweep-theta", "--thetas", "0.4", "--shots", "64", "--out", str(out)]) == 0
        assert not sidecar.exists()
        assert [r.theta for r in read_records_csv(out)] == [0.4] * 3

    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "theta.csv"
        assert main(["sweep-theta", "--thetas", "0,1.5707963",
                     "--shots", "4096", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "cos^2(theta/2)" in printed
        recs = read_records_csv(out)
        ps = [r for r in recs if r.scheme == "coded_ps"]
        assert len(ps) == 2
        assert ps[0].r == 1.0
        assert abs(ps[1].r - 0.5) < 0.05

    def test_empty_thetas_refused(self, tmp_path, capsys):
        """An empty --thetas used to write a header-only CSV and exit 0."""
        out = tmp_path / "never.csv"
        assert main(["sweep-theta", "--thetas", "", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: no angles to sweep")
        assert not out.exists()


class TestBounds:
    def test_table_values(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "0.7500" in out
        assert "0.5000" in out
        assert "0.0000" in out
        assert "even-parity retained" in out

    def test_runs_as_a_module(self):
        """`python -m qec422` reaches the same CLI as the console script."""
        src = str(Path(qec422.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "qec422", "bounds"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "0.7500" in proc.stdout


class TestOneParserPerProcess:
    """main reuses one parser; no call may see another call's flags."""

    @staticmethod
    def _argvs(tmp_path) -> list[list[str]]:
        run = ["run", "--lengths", "1", "--seeds-per-length", "1", "--gate-set", "reduced"]
        return [
            ["emit-circuit", "--encoder", "L00", "--variant", "AncillaChecked"],
            ["emit-circuit", "--encoder", "L00"],
            ["predict", "--lengths", "1,10,40", "--eps1", "0.004", "--eps2", "0.16", "--p-meas", "0.02"],
            ["predict", "--lengths", "1,10,40"],
            ["verify-ft", "--encoder", "L00", "--include-prep", "--json"],
            ["verify-ft", "--encoder", "L00"],
            run + ["--shots", "64", "--analytic-xi", "--eps2", "0.16", "--xi", "0.1",
                   "--out", str(tmp_path / "a.csv")],
            run + ["--out", str(tmp_path / "b.csv")],
            ["bounds"],
        ]

    @staticmethod
    def _call(argv, tmp_path, capsys) -> tuple:
        assert main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] != "run":
            return out, None
        path = argv[-1]
        meta = json.loads(Path(path + ".meta.json").read_text())
        del meta["generated"]
        records = [tuple(getattr(r, f) for f in r.__dataclass_fields__ if f != "timestamp")
                   for r in read_records_csv(path)]
        return out, meta, records

    def test_repeated_calls_match_single_calls(self, tmp_path, capsys):
        argvs = self._argvs(tmp_path)
        single = []
        for argv in argvs:
            build_parser.cache_clear()
            single.append(self._call(argv, tmp_path, capsys))
        for _ in range(2):
            assert [self._call(argv, tmp_path, capsys) for argv in argvs] == single
        assert build_parser() is build_parser()
        # each flagged call is followed by one that leaves those flags out
        assert all(single[i] != single[i + 1] for i in (0, 2, 4, 6))
        meta_a, meta_b = single[6][1], single[7][1]
        assert (meta_a["shots"], meta_a["analytic_xi"], meta_a["params"]["xi"]) == (64, True, 0.1)
        assert (meta_b["shots"], meta_b["analytic_xi"], meta_b["params"]["xi"]) == (DEFAULT_SHOTS, False, 0.0)

    def test_import_starts_no_process_machinery(self):
        """Importing the CLI loads no multiprocessing: runs are serial, so nothing needs it."""
        src = str(Path(qec422.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, qec422.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["run", "sweep-theta", "predict"])
def test_one_flag_per_key(command):
    """--config, then one flag per key the command reads, in _DEFAULTS order;
    jobs is config-only and predict's --out is flag-only."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [a.option_strings[-1] for a in sub.choices[command]._actions]
    want = ["--help", "--config"] + ["--" + key.replace("_", "-")
                                      for key in _DEFAULTS[command] if key != "jobs"]
    assert flags == want + (["--out"] if command == "predict" else [])


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["emit-circuit", "--encoder", "L99"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["predict", "--eps2", "0.1", "--theta", "0.5"],
        ["predict", "--eps2", "0.1", "--xi", "0.3"],
        ["predict", "--eps2", "0.1", "--p-prep", "0.2"],
        ["sweep-theta", "--thetas", "0.5", "--theta", "2.0"],
    ])
    def test_noise_flag_the_command_ignores(self, tmp_path, capsys, argv):
        """A flag for a key the subcommand does not read used to parse and be
        ignored; sweep-theta's --theta passed as an abbreviation of --thetas."""
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not out.exists()
