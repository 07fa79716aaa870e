"""qec422 benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere; the package is imported from ../src relative to this
file, never from an installed copy.  Each workload is a closed loop with
one client: the next operation starts only after the previous one
returned and was checked.  Operations repeat until --seconds have passed
(at least one always runs).  Operation k draws its inputs from
(--seed, k), so one seed always gives the same inputs.

--trace 0 prints the end-to-end metrics (setup_s, run_s, items_per_s,
peak_rss_mb).  Timings are rescaled to the host's current speed with the
reference work in reference.py; raw wall times are printed alongside.
items_per_s counts shots, or fault sites on ftcheck.  ops_failed_ratio
is printed, and is failed / attempted in the JSON line.
--trace 1 runs every operation twice on the same inputs,
untraced and then traced, and prints the per-layer metrics; the spans
are written to .bench_out/ when the run ends.  The last line of output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--workload all runs each workload in its own process and prints them all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "megashot", "coherent", "ftcheck")
SETUP_REPS = 5
# One client, no hidden parallelism: numeric libraries get one thread
# (never more than nproc), and the sweep runs with jobs = 1.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SELF_TIMES = (
    "noise.flip_mask_table", "noise.fault_sampling", "noise.outcome_draw",
    "noise.config_sim", "noise.noisy_counts", "simulator.final_state",
    "ftcheck.classify_fault", "code.post_select", "code.decode_distribution",
    "analytics.trace_distance", "experiments.run_pair",
    "experiments.write_records_csv", "circuits.parse_circuit", "cli.main",
)
CALLS = (
    "noise.config_sim", "noise.noisy_counts", "simulator.final_state",
    "simulator.apply_gate", "ftcheck.classify_fault", "analytics.trace_distance",
    "experiments.run_pair",
)
LAYER_UNITS = {
    **{f"{n}.self_s": "s" for n in SELF_TIMES},
    **{f"{n}.calls": "count" for n in CALLS},
    "noise.config_sim.per_shot": "ratio",
    "ftcheck.sims_per_site": "ratio",
    "code.retention": "ratio",
    "experiments.csv_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.absent_spans": "count",
}


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--scale", args.scale, *extra]


def probe_setup(args: argparse.Namespace) -> float:
    """Fresh process start through `import qec422` and the first inputs."""
    start = time.perf_counter()
    subprocess.run(_child(args, args.workload, "--setup-only"), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _execute(work, k: int, tag: str, rec=None, before=None):
    """One operation: (wall seconds of the timed body, output, failures)."""
    inp = work.prepare(k, tag)
    out, fails = None, []
    gc.collect()  # start every operation without the previous check's garbage
    if before is not None:
        before()
    if rec is not None:
        rec.install()
    start = time.perf_counter()
    try:
        out = work.run(inp)
    except Exception as exc:  # a failed operation is counted, not fatal
        fails = [f"raised {exc!r}"]
    finally:
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.uninstall()
    if out is not None:
        try:
            fails = work.check(inp, out)
        except Exception as exc:
            fails = [f"check raised {exc!r}"]
    return (start, elapsed), out, fails


def measure(args: argparse.Namespace, workdir: Path, clock,
            setup: tuple[list[float], list[float]]) -> dict:
    import workloads
    from reference import rescale

    work = workloads.make(args.workload, workdir, args.seed, args.scale)
    rec = spans.Recorder() if args.trace else None
    plain, refs, traced, windows, failures = [], [], [], [], []
    facts: dict = {}
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        (_, elapsed), out_plain, fails = _execute(
            work, k, "", before=lambda: refs.append(clock.sample()))
        plain.append(elapsed)
        attempted += 1
        failed += bool(fails)
        failures += [f"op {k}: {f}" for f in fails]
        if rec is not None:
            window, out, fails = _execute(work, k, "t", rec)
            if out is not None and out_plain is not None \
                    and work.fingerprint(out) != work.fingerprint(out_plain):
                fails = fails + ["traced output differs from untraced output"]
            if k == 0 and out is not None:
                facts = work.facts(out)
            traced.append(window[1])
            windows.append(window)
            attempted += 1
            failed += bool(fails)
            failures += [f"op {k} traced: {f}" for f in fails]
        k += 1
    refs.append(clock.sample())
    summary = work.summary_failures()
    failed += bool(summary)
    failures += summary

    run = rescale(plain, refs)
    run_s = spans.median(run)
    result = {
        "attempted": attempted, "failed": failed, "failures": failures,
        "timings": {"setup_s": setup, "run_s": (plain, run)},
        "item": work.item, "items_per_op": work.items_per_op, "info": work.info,
    }
    if rec is None:
        result["metrics"] = {
            "setup_s": (spans.median(setup[1]), "s"),
            "run_s": (run_s, "s"),
            "items_per_s": (work.items_per_op / run_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        result["metrics"] = layer_metrics(rec, work, facts, plain, traced, windows)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(rec.to_json(), fh)
    return result


def layer_metrics(rec, work, facts: dict, plain: list[float], traced: list[float],
                  windows: list[tuple[float, float]]) -> dict:
    """Self times are means per traced operation; calls and ratios count
    the first operation, whose inputs depend on the seed alone, so they
    repeat exactly."""
    ops = [rec.op_spans(i) for i in range(len(windows))]
    selfs = [spans.self_times(op) for op in ops]
    first = spans.call_counts(ops[0]) + Counter(rec.counts[0])
    values = {f"{n}.self_s": sum(s.get(n, 0.0) for s in selfs) / len(selfs) for n in SELF_TIMES}
    values.update({f"{n}.calls": first[n] for n in CALLS})
    sims = first["simulator.final_state"] + first["noise.config_sim"]
    values["noise.config_sim.per_shot"] = (first["noise.config_sim"] / work.sv_shots
                                           if work.sv_shots else 0.0)
    values["ftcheck.sims_per_site"] = sims / work.sites if work.sites else 0.0
    values["code.retention"] = facts.get("retention", 0.0)
    values["experiments.csv_bytes"] = facts.get("csv_bytes", 0)
    values["trace.overhead_s"] = spans.median(traced) - spans.median(plain)
    covered = sum(spans.root_coverage(op, s, s + d) for op, (s, d) in zip(ops, windows))
    values["trace.coverage"] = covered / sum(d for _, d in windows)
    values["trace.absent_spans"] = len(rec.absent)
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def report(args: argparse.Namespace, result: dict) -> None:
    import numpy
    import qec422

    w = args.workload
    provenance = {
        "workload": w, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "qec422": qec422.__version__, "git_revision": git_revision(),
        "loop": "closed, 1 client, jobs = 1", "threads": os.environ[THREAD_VARS[0]],
        **result["info"],
    }
    print("# provenance " + json.dumps(provenance))
    for f in result["failures"][:20]:
        print(f"# FAIL {w}: {f}")

    metrics = result["metrics"]
    if not args.trace:
        for name, what in (("setup_s", "fresh processes"), ("run_s", "operations")):
            raw, scaled = result["timings"][name]
            tail = spans.tail_percentile(scaled)
            tail_text = (f", p{tail[0]} {tail[1]:.4f} s" if tail
                         else ", no tail percentile (needs n >= 11)")
            print(f"{w}: {name} median {spans.median(scaled):.4f} s{tail_text} "
                  f"(n={len(scaled)} {what}; raw wall median {spans.median(raw):.4f} s)")
        item = result["item"]
        print(f"{w}: {item}_per_s {metrics['items_per_s'][0]:.1f} 1/s "
              f"(items_per_s; {result['items_per_op']} {item} per operation / median run_s)")
        print(f"{w}: peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")
    else:
        for name, (value, unit) in metrics.items():
            print(f"{w}: {name} {value:.6g} {unit}")
    print(f"{w}: ops_failed_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4g}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak RSS is each one's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            _child(args, w, "--seconds", str(args.seconds), "--trace", str(args.trace)),
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"# {w} exited with code {proc.returncode}")
            status = 1
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{w}.{n}": m for n, m in last["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal sizes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "qec422" / "__init__.py").is_file():
        print(f"error: no qec422 package at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    from reference import ReferenceClock, rescale  # numpy: only after the thread caps

    clock = None if args.setup_only else ReferenceClock()
    setup: tuple[list[float], list[float]] = ([], [])
    if not (args.setup_only or args.trace):
        raw, refs = [], []
        for _ in range(SETUP_REPS):
            refs.append(clock.sample())
            raw.append(probe_setup(args))
        refs.append(clock.sample())
        setup = (raw, rescale(raw, refs))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        import workloads

        if args.setup_only:
            workloads.make(args.workload, workdir, args.seed, args.scale).prepare(0)
            return 0
        result = measure(args, workdir, clock, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only if no other run is using it
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
