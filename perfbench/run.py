#!/usr/bin/env python3
"""The mdf benchmark: time to verdict per scenario, end to end and per layer.

One run drives the public scenario path (``mdf.cli.run_scenario``, what
``mdf run`` does) over the generated scenario files of one workload,
in one process with BLAS pinned to one thread, repeating whole passes
over the files until ``--seconds`` are used::

    python3 perfbench/run.py --workload projection --seed 1 --seconds 28 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every scenario's exit code is checked
against the code pinned for it; a scenario that raises or exits with
another code is recorded as a failure and the run goes on.

    python3 perfbench/run.py --summary [--seed 1] [--seconds 0]

runs every workload (projection with its pinned known defects) in a
fresh process and prints each end-to-end metric with its unit, the
failure counts with their base, and which scenarios failed.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"

#: seed of record, and the held-out seed every later claim must also hold on
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: fresh processes timed per run for ``setup_s``
SETUP_REPEATS = 5

#: environment variables that size the thread pools of BLAS and OpenMP
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "scenario_s_p50": "s",
    "scenario_s_max": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdict_ok_share": "ratio",
}


class Refused(Exception):
    """The run cannot produce a valid result (missing program, unpinned BLAS)."""


def pin_threads():
    """Pin every BLAS/OpenMP pool to one thread; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_mdf():
    """Import ``mdf`` from the checkout's ``src`` and nowhere else."""
    if not (SRC / "mdf" / "__init__.py").is_file():
        raise Refused(f"no mdf sources at {SRC.relative_to(ROOT) / 'mdf'} in {ROOT}")
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import mdf

    if SRC not in Path(mdf.__file__).resolve().parents:
        raise Refused(f"imported mdf from {mdf.__file__}, not from {SRC}")
    return mdf


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)


def loaded_blas():
    """(library path, thread count or None) of each BLAS loaded in this process."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in fh
                    if ".so" in line and any(k in line.lower() for k in ("blas", "mkl", "blis"))
                }
            )
    except OSError:
        return []
    out = []
    for path in paths:
        threads = None
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        out.append({"library": os.path.basename(path), "threads": threads})
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def environment(mdf):
    """Versions, BLAS and its thread count, thread env vars, CPU, commit."""
    import numpy
    import scipy

    def blas_info(module):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return None
        return {"name": blas.get("name"), "version": blas.get("version")}

    libraries = loaded_blas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mdf": mdf.__version__,
        "blas_numpy": blas_info(numpy),
        "blas_scipy": blas_info(scipy),
        "blas_loaded": libraries,
        "blas_threads_verified": bool(libraries) and all(
            lib["threads"] is not None for lib in libraries
        ),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def refuse_unpinned(env):
    for lib in env["blas_loaded"]:
        if lib["threads"] not in (None, 1):
            raise Refused(f"BLAS {lib['library']} runs {lib['threads']} threads, not 1")


# ---------------------------------------------------------------------------
# Scenario runs
# ---------------------------------------------------------------------------

@dataclass
class ScenarioRun:
    """Outcome of one scenario through ``run_scenario``: a failure is data."""

    scenario: str
    seconds: float
    error: dict = None
    problem: str = None
    digest: str = None

    @property
    def failed(self):
        return self.error is not None or self.problem is not None


@dataclass
class Pass:
    traced: bool
    runs: list
    layers: dict = None


def _report_digest(report):
    """Digest of a report without its wall-clock field (reports are deterministic)."""
    body = {k: v for k, v in report.items() if k != "wall_clock_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, default=repr).encode()).hexdigest()


def check_verdict(scenario, report, code, report_path, stderr):
    """None if the outcome is the pinned one and the report is sound, else why not."""
    if code != scenario.expected_code:
        if report is None:
            detail = stderr.strip().splitlines()[-1] if stderr.strip() else "no report"
        else:
            failing = [s for s, data in report["suites"].items() if not data["passed"]]
            detail = "failing suites: " + ", ".join(failing)
        return f"exit code {code}, expected {scenario.expected_code} ({detail})"
    if report is None:
        return "no report"
    if report["passed"] != (code == 0):
        return f"report passed={report['passed']} contradicts exit code {code}"
    if tuple(report["suites"]) != scenario.suites:
        return f"report suites {sorted(report['suites'])} differ from {list(scenario.suites)}"
    with open(report_path, "r", encoding="utf-8") as fh:
        written = json.load(fh)
    if written.get("passed") != report["passed"]:
        return "written report disagrees with the returned one"
    return None


def run_one(cli, scenario, path):
    report_path = f"{path[:-len('.json')]}.report.json"
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            report, code = cli.run_scenario(path, out=report_path)
    except Exception as exc:  # noqa: BLE001 -- the benchmark records every failure and goes on
        seconds = time.perf_counter() - started
        return ScenarioRun(
            scenario.name, seconds, error={"type": type(exc).__name__, "message": str(exc)}
        )
    seconds = time.perf_counter() - started
    return ScenarioRun(
        scenario.name,
        seconds,
        problem=check_verdict(scenario, report, code, report_path, err.getvalue()),
        digest=None if report is None else _report_digest(report),
    )


def run_pass(cli, scenarios, paths, tracer=None):
    if tracer is None:
        return Pass(False, [run_one(cli, sc, p) for sc, p in zip(scenarios, paths)])
    tracer.reset()
    tracer.install()
    try:
        runs = [run_one(cli, sc, p) for sc, p in zip(scenarios, paths)]
    finally:
        tracer.uninstall()
    return Pass(True, runs, tracer.layer_values())


def measure(cli, scenarios, paths, seconds, tracer=None):
    """Whole passes until the next one would overrun ``seconds`` (at least one).

    With a tracer, each cycle is an untraced pass followed by a traced one.
    """
    modes = (None, tracer) if tracer is not None else (None,)
    passes = []
    started = time.perf_counter()
    while True:
        for mode in modes:
            passes.append(run_pass(cli, scenarios, paths, mode))
        elapsed = time.perf_counter() - started
        cycles = len(passes) // len(modes)
        if elapsed + elapsed / cycles > seconds:
            return passes


def mark_nondeterminism(passes):
    """Reports must not change between passes over the same files."""
    first = {}
    for p in passes:
        for r in p.runs:
            if r.digest is None:
                continue
            first.setdefault(r.scenario, r.digest)
            if r.digest != first[r.scenario] and r.problem is None:
                r.problem = "report differs from the first pass"


def run_py(*args):
    """Command line of a fresh ``run.py`` process."""
    return [sys.executable, str(BENCH_DIR / "run.py"), *map(str, args)]


def measure_setup(workload, seed, tiny, known_defects):
    """Process start to ready (import mdf, write the scenario files), timed
    over fresh processes; returns the list of seconds."""
    out = []
    for i in range(SETUP_REPEATS):
        workdir = WORK_DIR / f"setup-{os.getpid()}-{i}"
        cmd = run_py("--setup-probe", workdir, "--workload", workload, "--seed", seed)
        cmd += ["--tiny"] if tiny else []
        cmd += ["--known-defects"] if known_defects else []
        try:
            started = time.perf_counter()
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
            out.append(time.perf_counter() - started)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_unit(name):
    if name.endswith((".s", "_s")) or name.startswith("cli.suite_s."):
        return "s"
    if name.endswith(".bytes_computed"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def best_times(passes):
    """Each scenario's fastest time to verdict over the given passes.

    On a shared machine the speed of the same code drifts by up to 1.7x
    between phases of one to twenty seconds (load from outside the
    process); the fastest of many short timings is the figure that
    repeats from run to run, where medians spread by 15-30 %.
    """
    best = {}
    for p in passes:
        for r in p.runs:
            best[r.scenario] = min(best.get(r.scenario, r.seconds), r.seconds)
    return list(best.values())


def end_to_end_metrics(passes, setup_seconds, attempted, failed):
    """name -> (value, unit, sample count)."""
    untraced = [p for p in passes if not p.traced]
    best = best_times(untraced)
    values = {
        "wall_s": (sum(best), len(untraced)),
        "scenario_s_p50": (statistics.median(best), len(best)),
        "scenario_s_max": (max(best), len(best)),
        "setup_s": (statistics.median(setup_seconds), len(setup_seconds)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "verdict_ok_share": ((attempted - failed) / attempted, attempted),
    }
    return {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in values.items()}


def layer_metrics(passes):
    """Per-layer values of the traced passes: counts must repeat exactly,
    times are medians.  Returns (metrics, problems)."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    problems = []
    metrics = {}
    for name in traced[0].layers:
        values = [p.layers[name] for p in traced]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = (value, layer_unit(name), len(values))
    overhead = sum(best_times(traced)) - sum(best_times(untraced))
    metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    return metrics, problems


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def describe_failure(f):
    why = f["problem"] or f"{f['error']['type']}: {f['error']['message']}"
    return f"  FAILED {f['scenario']} (pass {f['pass']}): {why}"


def benchmark(args):
    mdf = import_mdf()
    import workloads
    from mdf import cli
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        raise Refused(f"unknown workload {args.workload!r} (known: {known})")
    env = environment(mdf)
    refuse_unpinned(env)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-known-defects" if args.known_defects else ""
    )
    workdir = WORK_DIR / f"{tag}-{os.getpid()}"
    try:
        scenarios = workloads.build(args.workload, args.seed, args.tiny, args.known_defects)
        paths = workloads.write(scenarios, workdir)
        setup_seconds = []
        if not args.trace:
            setup_seconds = measure_setup(
                args.workload, args.seed, args.tiny, args.known_defects
            )
        passes = measure(
            cli, scenarios, paths, args.seconds, Tracer() if args.trace else None
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mark_nondeterminism(passes)
    runs = [r for p in passes for r in p.runs]
    attempted = len(runs)
    failed = sum(r.failed for r in runs)
    problems = []
    if args.trace:
        metrics, problems = layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(passes, setup_seconds, attempted, failed)

    failures = [
        {
            "scenario": r.scenario,
            "pass": i,
            "error": r.error,
            "problem": r.problem,
        }
        for i, p in enumerate(passes)
        for r in p.runs
        if r.failed
    ]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "known_defects": args.known_defects,
        "environment": env,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "scenario_seconds": [
            {"pass": i, "traced": p.traced, "scenario": r.scenario, "seconds": r.seconds}
            for i, p in enumerate(passes)
            for r in p.runs
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    details_path = RESULTS_DIR / f"{tag}.json"
    with open(details_path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)
        fh.write("\n")

    print("environment " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
        f"{attempted} scenario runs, {failed} failed "
        f"(failed_share {failed}/{attempted} = {failed / attempted:.4f})"
    )
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit:<6} (n={n})")
    for f in failures:
        print(describe_failure(f))
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(f"details: {details_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def setup_probe(args):
    """Child of ``measure_setup``: import mdf and write the scenario files."""
    import_mdf()
    import workloads

    workloads.write(
        workloads.build(args.workload, args.seed, args.tiny, args.known_defects),
        args.setup_probe,
    )
    return 0


def summary(args):
    """Every workload in a fresh process; every end-to-end metric with its unit."""
    import_mdf()
    import workloads

    all_correct = True
    for workload in workloads.WORKLOADS:
        cmd = run_py(
            "--workload", workload, "--seed", args.seed, "--seconds", args.seconds, "--trace", 0
        )
        if workload in workloads.KNOWN_DEFECTS:
            cmd.append("--known-defects")
        cmd += ["--tiny"] if args.tiny else []
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run exited {proc.returncode}\n{proc.stderr}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        details_line = next(line for line in lines if line.startswith("details: "))
        with open(ROOT / details_line[len("details: "):], "r", encoding="utf-8") as fh:
            details = json.load(fh)
        all_correct &= result["correct"]
        print(
            f"{workload}: {result['attempted']} scenario runs, {result['failed']} failed, "
            f"failed_share {result['failed']}/{result['attempted']} = "
            f"{result['failed'] / result['attempted']:.4f}, correct={result['correct']}"
        )
        for name, m in details["metrics"].items():
            print(f"  {name:<20} {m['value']:>12.6g} {m['unit']:<6} (n={m['samples']})")
        for f in details["failures"]:
            print(describe_failure(f))
    return 0 if all_correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true", help="run every workload")
    parser.add_argument(
        "--known-defects",
        action="store_true",
        help="append the workload's pinned known-defect scenarios (they fail)",
    )
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for smoke tests")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if not args.summary and args.workload is None:
        parser.error("--workload is required (or --summary)")
    return args


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    try:
        if args.setup_probe:
            return setup_probe(args)
        if args.summary:
            return summary(args)
        return benchmark(args)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
