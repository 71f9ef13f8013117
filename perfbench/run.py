"""hopfcheck benchmark: `hopf verify` on generated workloads, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run every
workload round-robin so that machine drift spreads evenly across them.
The load is a closed loop: one client in this process, no worker threads,
each verify sent only after the previous one returned.  Each verify runs
in-process through `hopfcheck.cli.main([..., "--json"])` with its output
captured and checked.

With --trace 0 the last line reports the end-to-end metrics:
  verify_s          median seconds of one verify at the nominal machine
                    speed of speed.py (raw wall medians, quartiles and the
                    sample count are printed above the result line)
  setup_s           median seconds, over fresh processes, to import
                    hopfcheck and to generate, check and write the input,
                    at the nominal machine speed
  peak_rss_mb       peak RSS of a fresh process that runs one verify
  checks_evaluated  non-skipped checks in the report
checks_failed, runs and runs_failed are printed above the result line;
runs and runs_failed are also its `attempted` and `failed`.

With --trace 1 the verifies alternate between untraced and traced; the
traced ones run with spans around the calls into each module (spans.py)
and the last line reports the per-layer metrics, medians over traced runs,
in raw wall seconds.

The correctness gate fails on a traceback, invalid JSON, an exit code that
disagrees with the verdict, a report that differs between repeated runs or
between traced and untraced runs, verdicts that change under a basis
permutation, or a FAIL check outside workloads.KNOWN_OPEN_DEFECTS.

Other modes: --smoke runs the smallest member of each workload family
once; --negative-control perturbs one product coefficient of the input,
so the gate must report failed runs with hopf.associativity FAIL.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
from workloads import KNOWN_OPEN_DEFECTS, SMOKE_WORKLOADS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def load_program():
    """Import hopfcheck from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "hopfcheck" / "__init__.py").is_file():
        raise SystemExit(f"error: no hopfcheck sources under {src}")
    sys.path.insert(0, str(src))
    import hopfcheck.cli
    import hopfcheck.document
    if Path(hopfcheck.__file__).resolve().parent != src / "hopfcheck":
        raise SystemExit(f"error: hopfcheck imported from {hopfcheck.__file__}")
    return hopfcheck


def prepare_input(program, workload: Workload, seed: int, perturb: bool) -> Path | None:
    """Generate the input, check that it survives a parse/emit round trip
    unchanged, and write it where the verify reads it."""
    doc = workload.document(seed, perturb)
    if doc is None:
        return None
    back = program.document.emit_document(program.document.parse_document(doc))
    if back != doc:
        raise RuntimeError(f"{workload.name}: document changed in a parse/emit round trip")
    tag = "-perturbed" if perturb else ""
    path = WORK / f"{workload.name}-{doc['name']}-{seed}{tag}.json"
    WORK.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


@dataclasses.dataclass
class Sample:
    seconds: float  # wall time of the verify, probe time excluded
    scaled: float | None  # at the nominal machine speed; None when traced
    exit_code: int | None
    stdout: str
    stderr: str
    error: str | None


def verify_once(cli, argv: list[str], tracer: spans.Tracer | None = None) -> Sample:
    """One verify; untraced ones run under the machine-speed probe."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    probe = speed.SpeedProbe() if tracer is None else None
    error = code = None
    with probe or contextlib.nullcontext(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(spans.ROOT_SPAN, cli.main, argv)
        except Exception:  # a crash of the program under test is a failed run
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    if probe is None:
        return Sample(wall, None, code, out.getvalue(), err.getvalue(), error)
    return Sample(wall - probe.inside_s, probe.scaled(wall), code, out.getvalue(),
                  err.getvalue(), error)


@dataclasses.dataclass
class Verdict:
    """What the gate reads from one verify."""

    checks: list[tuple[str, str]]
    run_failed: bool
    problems: list[str]

    @property
    def failed_checks(self) -> list[str]:
        return [name for name, status in self.checks if status == "fail"]


def examine(sample: Sample, known: frozenset) -> Verdict:
    if sample.error is not None:
        return Verdict([], True, ["traceback: " + sample.error.strip().splitlines()[-1]])
    if "Traceback" in sample.stderr:
        return Verdict([], True, ["traceback on stderr"])
    try:
        report = json.loads(sample.stdout)
        checks = [(c["name"], c["status"]) for c in report["checks"]]
        result = report["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict([], True, [f"invalid JSON report ({exc})"])
    problems = []
    if not checks:
        problems.append("report has no checks")
    if sample.exit_code != (0 if result == "pass" else 1):
        problems.append(f"exit code {sample.exit_code} with result {result}")
    failed = [name for name, status in checks if status == "fail"]
    unexpected = [name for name in failed if name not in known]
    if unexpected:
        problems.append("FAIL: " + ", ".join(unexpected))
    return Verdict(checks, sample.exit_code != 0 or bool(failed), problems)


def run_child(args: list[str]) -> dict:
    """Run this script in a fresh interpreter; return its last output line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_setup(workload: Workload, seed: int, perturb: bool) -> dict:
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        program = load_program()
        path = prepare_input(program, workload, seed, perturb)
        wall = time.perf_counter() - start
    return {"setup_s": probe.scaled(wall), "wall_s": wall - probe.inside_s,
            "input": None if path is None else str(path)}


def child_verify(workload: Workload, doc: str | None) -> dict:
    program = load_program()
    sample = verify_once(program.cli, workload.verify_argv(doc))
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sample": dataclasses.asdict(sample)}


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": [round(x, 2) for x in os.getloadavg()], "seed": seed}


def workload_size(workload: Workload, seed: int) -> dict:
    doc = workload.document(seed)
    if doc is None:
        window = int(workload.preset_args[-1])
        return {"source": " ".join(workload.preset_args), "keys": 2 * (2 * window + 1)}
    return {"document": doc["name"], "dim": len(doc["basis"]),
            "field": doc["field"], "mult_entries": len(doc["mult"]),
            "comult_entries": len(doc["comult"]),
            "antipode": "given" if "antipode" in doc else "solved",
            "R": "R" in doc, "sigma": "sigma" in doc}


class WorkloadRun:
    """State of one workload inside a measurement: input, samples, gate."""

    def __init__(self, workload: Workload, seed: int, flags: list[str], setup_repeats: int):
        self.workload = workload
        self.known = KNOWN_OPEN_DEFECTS.get(workload.name, frozenset())
        self.problems: list[str] = []
        setup = ["--child-setup", workload.name, *flags]
        setups = [run_child([*setup, "--seed", str(seed)]) for _ in range(setup_repeats)]
        self.setup_s = [s["setup_s"] for s in setups]
        self.setup_wall_s = [s["wall_s"] for s in setups]
        self.argv = workload.verify_argv(setups[-1]["input"])
        # A fresh process verifies the same algebra under another basis
        # permutation: it gives peak RSS, and its verdicts must be ours.
        other = run_child([*setup, "--seed", str(seed + 1)])["input"]
        child = run_child(["--child-verify", workload.name, "--input", other or "", *flags])
        self.peak_rss_mb = child["peak_rss_mb"]
        self.permuted = examine(Sample(**child["sample"]), self.known)
        self.untraced: list[Sample] = []
        self.traced: list[Sample] = []
        self.runs: list[Verdict] = []
        self.trace_runs: list[int] = []

    def record(self, sample: Sample, traced: bool) -> None:
        (self.traced if traced else self.untraced).append(sample)
        verdict = examine(sample, self.known)
        self.runs.append(verdict)
        self.problems.extend(verdict.problems)
        reference = self.untraced[0].stdout
        if sample.stdout != reference:
            self.problems.append("traced report differs from untraced report" if traced
                                 else "report differs between repeated runs")

    def finish(self) -> None:
        self.problems.extend("basis-permuted run: " + p for p in self.permuted.problems)
        if self.permuted.checks != self.runs[0].checks:
            self.problems.append("verdicts changed under a basis permutation")

    @property
    def checks(self) -> list[tuple[str, str]]:
        return self.runs[0].checks

    def end_to_end(self) -> dict:
        return {
            "verify_s": (statistics.median(s.scaled for s in self.untraced), "s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "checks_evaluated": (sum(1 for _, st in self.checks if st != "skipped"), "count"),
        }

    def per_layer(self, tracer: spans.Tracer) -> dict:
        per_run = [spans.layer_metrics(tracer.spans, run) for run in self.trace_runs]
        out = {name: (statistics.median(m[name] for m in per_run),
                      "s" if name.endswith(("_s", ".s")) else "count")
               for name in per_run[0]}
        out["trace.overhead_s"] = (statistics.median(s.seconds for s in self.traced)
                                   - statistics.median(s.seconds for s in self.untraced), "s")
        return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


MODULES = ("document", "hopf", "linalg", "lincomb", "laurent", "cofrobenius",
           "coquasitriangular", "quasitriangular", "report")


def layer_shares(tracer: spans.Tracer, run: WorkloadRun) -> dict:
    """Median share of traced verify time covered by each module's spans and
    by the layers the workload is built to stress."""
    groups = {name: (name + ".",) for name in MODULES}
    groups["+".join(run.workload.dominant)] = run.workload.dominant
    shares = {name: [] for name in groups}
    for run_id, sample in zip(run.trace_runs, run.traced):
        for name, prefixes in groups.items():
            part = spans.covered(tracer.spans, run_id, lambda s: s.name.startswith(prefixes))
            shares[name].append(part / sample.seconds)
    return {name: statistics.median(v) for name, v in shares.items()}


def measure(names: list[str], table: dict, seed: int, seconds: float, trace: bool,
            perturb: bool, min_samples: int, setup_repeats: int) -> int:
    program = load_program()
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    for name in names:
        print(f"workload {name} " + json.dumps(workload_size(table[name], seed), sort_keys=True))

    flags = (["--smoke"] if table is SMOKE_WORKLOADS else []) + (
        ["--negative-control"] if perturb else [])
    runs = {name: WorkloadRun(table[name], seed, flags, setup_repeats) for name in names}
    tracer = spans.Tracer()
    budget = seconds * len(names)
    start = time.perf_counter()
    rounds = 0
    # start a round only if one more round of the mean length still fits
    while rounds < min_samples or (
            (time.perf_counter() - start) * (rounds + 1) / rounds <= budget):
        for name in names:  # round-robin
            run = runs[name]
            run.record(verify_once(program.cli, run.argv), traced=False)
            if trace:
                tracer.run += 1
                restore = spans.instrument(tracer)
                try:
                    sample = verify_once(program.cli, run.argv, tracer)
                finally:
                    restore()
                run.trace_runs.append(tracer.run)
                run.record(sample, traced=True)
        rounds += 1

    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        run = runs[name]
        run.finish()
        attempted += len(run.runs)
        failed += sum(1 for v in run.runs if v.run_failed)
        prefix = f"{name}." if len(names) > 1 else ""
        for label, values in (
                ("verify_s", [s.scaled for s in run.untraced]),
                ("verify_wall_s", [s.seconds for s in run.untraced]),
                ("setup_s", run.setup_s), ("setup_wall_s", run.setup_wall_s)):
            q1, q3 = quartiles(values)
            print(f"{name} {label} median {statistics.median(values):.4f} s, q1 {q1:.4f} s, "
                  f"q3 {q3:.4f} s, n {len(values)}; samples "
                  + " ".join(f"{v:.4f}" for v in values))
        print(f"{name} checks_failed {len(run.runs[0].failed_checks)} count")
        print(f"{name} runs {len(run.runs)} count")
        print(f"{name} runs_failed {sum(1 for v in run.runs if v.run_failed)} count")
        print(f"{name} failing_checks " + json.dumps(sorted(set(run.runs[0].failed_checks))))
        if run.known:
            print(f"{name} known_open_defects " + json.dumps(sorted(run.known)))
        for problem in dict.fromkeys(run.problems):
            print(f"{name} GATE {problem}")
        chosen = run.per_layer(tracer) if trace else run.end_to_end()
        if trace:
            for group, share in layer_shares(tracer, run).items():
                print(f"{name} share_of_verify {group} {share:.3f}")
        for metric, (value, unit) in chosen.items():
            print(f"{name} {metric} {value} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}

    if trace:
        WORK.mkdir(exist_ok=True)
        dump = {"env": env, "workloads": names,
                "spans": [vars(s) for s in tracer.spans]}
        out = WORK / f"trace-{'-'.join(names)}-{seed}.json"
        out.write_text(json.dumps(dump) + "\n", encoding="utf-8")
        print(f"spans written to {out.relative_to(ROOT)}")
    correct = all(not runs[name].problems for name in names)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest member of each family, one verify each")
    parser.add_argument("--negative-control", action="store_true",
                        help="perturb one product coefficient of the input")
    parser.add_argument("--child-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--child-verify", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--input", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS

    if args.child_setup:
        result = child_setup(table[args.child_setup], args.seed, args.negative_control)
        print(json.dumps(result))
        return 0
    if args.child_verify:
        print(json.dumps(child_verify(table[args.child_verify], args.input or None)))
        return 0

    names = list(table) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in table]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(table)} or all")
    if args.negative_control and any(table[n].make_document is None for n in names):
        parser.error("--negative-control needs workloads with a generated document")
    if args.smoke:
        return measure(names, table, args.seed, 0.0, bool(args.trace), args.negative_control,
                       min_samples=1, setup_repeats=1)
    return measure(names, table, args.seed, args.seconds, bool(args.trace),
                   args.negative_control, MIN_SAMPLES, SETUP_REPEATS)


if __name__ == "__main__":
    sys.exit(main())
