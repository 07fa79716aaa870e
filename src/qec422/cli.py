"""Command-line front end.

Subcommands mirror the library layer: emit-circuit writes circuit text,
run / sweep-theta produce CSV records, predict evaluates the closed-form
models, verify-ft runs the exhaustive single-fault check, and bounds
prints the worst-case distance table.

Options resolve as defaults < config file < flags.  The config file is
flat ``key = value`` lines with ``#`` comments.  _KEYS declares every
key once, with its parser and flag, and _DEFAULTS names the keys each
subcommand reads; a key it does not read has no flag and is rejected
before anything runs, and so is a key given twice.
QEC422_OUTPUT_DIR sets where relative output paths land.  Exit codes:
0 success, 1 runtime failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from dataclasses import asdict, fields
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from .analytics import (
    predict_coded_ps,
    predict_coded_raw,
    predict_uncoded,
    trace_distance,
    worst_case_bound,
)
from .circuits import Circuit, CircuitError, parse_circuit, serialize_circuit
from .code import (
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    build_encoder,
    coded_gate_circuit,
    codeword_distribution,
    post_select_distribution,
    uncoded_gate_circuit,
)
from .experiments import (
    DEFAULT_SHOTS,
    GateSetId,
    summarize_records,
    sweep_L,
    sweep_theta,
    write_records_csv,
)
from .ftcheck import DETECTION_MODES, verify_single_faults
from .noise import NoiseParams, totally_mixed

OUTPUT_DIR_ENV = "QEC422_OUTPUT_DIR"

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _serial_only(value: str) -> int:
    """jobs stays a key so that old configs load; runs are serial, so only 1 passes."""
    if int(value) != 1:
        raise CircuitError(f"jobs = {value}: parallel runs were removed, so jobs must be 1")
    return 1


def _numbers(kind: type):
    return lambda s: [kind(x) for x in s.replace(",", " ").split()]


# key -> (parser, add_argument keywords of its flag): every key a config
# file may set; a flag's type is the key's parser unless it has an action
_KEYS = {
    "gate_set": (str, {"choices": [g.value for g in GateSetId], "help": "gate set to draw from"}),
    "lengths": (_numbers(int), {"help": "comma-separated L values"}),
    "thetas": (_numbers(float), {"help": "comma-separated angles"}),
    "seeds_per_length": (int, {"help": "random sequences per L"}),
    "master_seed": (int, {"help": "seed every run derives its own from"}),
    "shots": (int, {"help": "shots per circuit"}),
    "length": (int, {"help": "sequence length L"}),
    "analytic_xi": (lambda s: _BOOLEANS[s.lower()],
                    {"action": "store_const", "const": True,
                     "help": "exact noisy distributions instead of sampled shots"}),
    "jobs": (_serial_only, None),  # config-only
    "out": (str, {"help": f"CSV path (relative paths land in ${OUTPUT_DIR_ENV})"}),
    **{f.name: (float, {"help": f.metadata["help"]}) for f in fields(NoiseParams)},
}
_NOISE_DEFAULTS = {f.name: f.default for f in fields(NoiseParams) if f.name != "theta"}
# subcommand -> every key it reads, with its default and in flag order;
# sweep-theta sets theta per angle itself
_DEFAULTS = {
    "run": {"gate_set": "reduced", "lengths": (1, 2, 5, 10, 20, 50, 100), "seeds_per_length": 5,
            "master_seed": 0, "shots": DEFAULT_SHOTS, "analytic_xi": False, "jobs": 1,
            "out": "results.csv", "theta": 0.0, **_NOISE_DEFAULTS},
    "sweep-theta": {"gate_set": "single_hhswap", "length": 1, "shots": DEFAULT_SHOTS,
                    "thetas": tuple(np.linspace(0.0, np.pi, 9).tolist()),
                    "master_seed": 0, "out": "theta_sweep.csv", **_NOISE_DEFAULTS},
    "predict": {"lengths": tuple(range(1, 101)), "eps1": 0.0, "eps2": 0.0, "p_meas": 0.0},
}


def _read_text(path: str) -> str:
    """The file at path as UTF-8 text; bytes that are not UTF-8 are a CircuitError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CircuitError(f"{path}: {exc}") from None


def load_config(path: str, command: str) -> dict:
    """Parse a flat key = value file, refusing up front any key command does not read."""
    cfg = {}
    for line_no, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CircuitError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _DEFAULTS[command]:
            raise CircuitError(
                f"{path}:{line_no}: unknown config key {key!r} for {command}; allowed: "
                + ", ".join(sorted(_DEFAULTS[command]))
            )
        if key in cfg:
            raise CircuitError(f"{path}:{line_no}: key {key!r} given twice")
        try:
            cfg[key] = _KEYS[key][0](value)
        except CircuitError as exc:
            raise CircuitError(f"{path}:{line_no}: {exc}") from None
        except (KeyError, ValueError):
            raise CircuitError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
    return cfg


def _options(args: argparse.Namespace) -> dict:
    """The command's keys as defaults < config file < flags, with the
    noise keys replaced by the NoiseParams they build, under "params"."""
    opts = dict(_DEFAULTS[args.command])
    if args.config:
        opts.update(load_config(args.config, args.command))
    opts.update({key: getattr(args, key) for key in opts if getattr(args, key, None) is not None})
    opts["params"] = NoiseParams(**{f.name: opts.pop(f.name) for f in fields(NoiseParams)
                                    if f.name in opts})
    return opts


def _out_path(name: str) -> str:
    """name under $QEC422_OUTPUT_DIR, refused before any work if its directory is missing."""
    path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), name)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise CircuitError(f"{path}: no directory {os.path.dirname(path)!r} to write into")
    return path


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        full = _out_path(path)
        with open(full, "w") as fh:
            fh.write(text)
        print(f"wrote {full}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_emit_circuit(args: argparse.Namespace) -> int:
    if (args.encoder is None) == (args.gate is None):
        raise CircuitError("emit-circuit needs exactly one of --encoder or --gate")
    if args.encoder is not None:
        if args.scheme is not None:
            raise CircuitError("--scheme does not apply to --encoder")
        variant = EncoderVariant(args.variant or EncoderVariant.NON_FAULT_TOLERANT.value)
        circuit = build_encoder(LogicalStateLabel(args.encoder), variant)
    elif args.variant is not None:
        raise CircuitError("--variant does not apply to --gate")
    elif args.scheme == "uncoded":
        circuit = Circuit(2, uncoded_gate_circuit(LogicalGate(args.gate)), [0, 1])
    else:
        circuit = Circuit(4, coded_gate_circuit(LogicalGate(args.gate)), [0, 1, 2, 3])
    _write_text(args.out, serialize_circuit(circuit))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    opts = _options(args)
    gate_set = GateSetId.from_str(opts["gate_set"])
    out = _out_path(opts["out"])

    records = sweep_L(gate_set, opts["lengths"], opts["params"], opts["shots"],
                      opts["seeds_per_length"], opts["master_seed"], opts["analytic_xi"])
    write_records_csv(out, records)
    meta = {
        "generated": datetime.now(timezone.utc).isoformat(),
        "gate_set": gate_set.value,
        "lengths": opts["lengths"],
        "seeds_per_length": opts["seeds_per_length"],
        "master_seed": opts["master_seed"],
        "shots": opts["shots"],
        "analytic_xi": opts["analytic_xi"],
        "sequence_sampling": "independent_per_L_seed",
        "params": asdict(opts["params"]),
    }
    with open(out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")

    print(f"wrote {len(records)} records to {out}")
    print(f"{'L':>6} {'scheme':>10} {'n':>4} {'mean D':>10} {'mean r':>8}")
    for row in summarize_records(records):
        print(f"{row['L']:>6} {row['scheme']:>10} {row['n']:>4} "
              f"{row['mean_D']:>10.4f} {row['mean_r']:>8.4f}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    opts = _options(args)
    lengths, params = opts["lengths"], opts["params"]
    if not lengths:
        raise CircuitError("no sequence lengths to predict")
    if min(lengths) < 1:
        raise CircuitError(f"sequence lengths must be positive, got {min(lengths)}")
    e1, e2, pm = params.eps1, params.eps2, params.p_meas

    lines = ["scheme,L,D_pred"]
    for scheme, predict in (("uncoded", predict_uncoded), ("coded_raw", predict_coded_raw),
                            ("coded_ps", predict_coded_ps)):
        lines += [f"{scheme},{L},{predict(L, e1, e2, pm)!r}" for L in lengths]
    _write_text(args.out, "\n".join(lines) + "\n")

    crossover = None
    for L in lengths:
        if predict_coded_ps(L, e1, e2, pm) < predict_uncoded(L, e1, e2, pm):
            crossover = L
            break
    if crossover is None:
        print("no crossover: coded_ps never beats uncoded on these lengths")
    else:
        print(f"crossover: coded_ps beats uncoded from L = {crossover}")
    return 0


def cmd_verify_ft(args: argparse.Namespace) -> int:
    if (args.encoder is None) == (args.circuit is None):
        raise CircuitError("verify-ft needs exactly one of --encoder or --circuit")
    if args.encoder is not None:
        label = LogicalStateLabel(args.encoder)
        variant = EncoderVariant(args.variant or EncoderVariant.NON_FAULT_TOLERANT.value)
        circuit = build_encoder(label, variant)
        circuit_id = f"{label.value}-{variant.value}"
    elif args.variant is not None:
        raise CircuitError("--variant does not apply to --circuit")
    else:
        circuit = parse_circuit(_read_text(args.circuit))
        circuit_id = os.path.basename(args.circuit)

    report = verify_single_faults(circuit, args.detection, circuit_id,
                                  include_preparation=args.include_prep)
    if args.json:
        print(report.to_json())
    else:
        print(report.format_table())
    return 0


def cmd_sweep_theta(args: argparse.Namespace) -> int:
    opts = _options(args)
    out = _out_path(opts["out"])

    records = sweep_theta(opts["thetas"], opts["params"], GateSetId.from_str(opts["gate_set"]),
                          opts["length"], opts["shots"], opts["master_seed"])
    write_records_csv(out, records)
    # a sidecar left at this path by an earlier run describes that run, not these records
    with suppress(FileNotFoundError):
        os.remove(out + ".meta.json")
    print(f"wrote {len(records)} records to {out}")
    print(f"{'theta':>10} {'r':>8} {'cos^2(theta/2)':>16}")
    for rec in records:
        if rec.scheme == "coded_ps":
            pred = float(np.cos(rec.theta / 2.0) ** 2)
            print(f"{rec.theta:>10.4f} {rec.r:>8.4f} {pred:>16.4f}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    cases = [
        ("single string", {"00": 1.0}),
        ("two-string superposition", {"00": 0.5, "11": 0.5}),
        ("uniform", totally_mixed(4).probs),
    ]
    print("worst-case trace distance, 4-outcome read-out:")
    print(f"{'ideal output':>26} {'support':>8} {'bound':>7}")
    for name, probs in cases:
        print(f"{name:>26} {len(probs):>8} {worst_case_bound(probs):>7.4f}")

    # coded analog: codeword ideal vs uniform over the 8 retained strings
    ideal = codeword_distribution(LogicalStateLabel.L00)
    mixed_ps, _ = post_select_distribution(totally_mixed(16))
    print("\ncoded, post-selected (16-outcome read-out, even-parity retained):")
    print(f"{'codeword vs mixed-retained':>26} {ideal.support_size:>8} "
          f"{trace_distance(ideal, mixed_ps):>7.4f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qec422",
        description="[4,2,2] code experiments: simulate, post-select, predict, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_key_flags(p: argparse.ArgumentParser, command: str) -> None:
        p.add_argument("--config", help="flat key = value config file")
        for key in _DEFAULTS[command]:
            parse, flag = _KEYS[key]
            if flag is not None:
                p.add_argument("--" + key.replace("_", "-"),
                               **(flag if "action" in flag else {"type": parse, **flag}))

    p = sub.add_parser("emit-circuit", help="print an encoder or gate block as circuit text")
    p.add_argument("--encoder", choices=[l.value for l in LogicalStateLabel])
    p.add_argument("--variant", choices=[v.value for v in EncoderVariant],
                   help="with --encoder; default NonFaultTolerant")
    p.add_argument("--gate", choices=[g.value for g in LogicalGate])
    p.add_argument("--scheme", choices=["coded", "uncoded"], help="with --gate; default coded")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_emit_circuit)

    p = sub.add_parser("run", help="sweep sequence lengths, write records CSV")
    add_key_flags(p, "run")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("predict", help="closed-form D predictions per scheme")
    add_key_flags(p, "predict")
    p.add_argument("--out", help="write CSV instead of stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify-ft", help="exhaustive single-fault check")
    p.add_argument("--encoder", choices=[l.value for l in LogicalStateLabel])
    p.add_argument("--variant", choices=[v.value for v in EncoderVariant],
                   help="with --encoder; default NonFaultTolerant")
    p.add_argument("--circuit", help="circuit text file to check instead")
    p.add_argument("--detection", choices=DETECTION_MODES,
                   help="default: postselect+ancilla when more than four bits are measured "
                        "(the last is the ancilla), else postselect")
    p.add_argument("--include-prep", dest="include_prep", action="store_true",
                   help="also enumerate preparation X flips")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify_ft)

    # no abbreviations, or the --theta this command lacks would pass as --thetas
    p = sub.add_parser("sweep-theta", help="coherent-rotation retention sweep", allow_abbrev=False)
    add_key_flags(p, "sweep-theta")
    p.set_defaults(func=cmd_sweep_theta)

    p = sub.add_parser("bounds", help="worst-case trace-distance table")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircuitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
