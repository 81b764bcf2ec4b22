"""Run the repository benchmark: five workloads, each in a fresh process.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--runs K]
                         [--trace [0|1]] [--out FILE]

Each (workload, run) runs ``bench/child.py`` in its own child process,
one at a time, with a fresh ``REPRO_CACHE_DIR`` under ``bench/out/``.
Run ``k`` of a workload uses seed ``N + k``. Every run measures for
``run_seconds`` of ``BENCHMARK.json``; ``--seconds`` is accepted, as
part of the ``BENCHMARK.json`` calling convention, only with that
value. An untraced run also sets its workload up in ``SETUP_RUNS - 1``
further fresh processes, and reports as ``setup_s`` the median set-up
time of all of them.

The command prints every metric of every run by name with its unit,
checks the outputs (the child's own checks, plus the committed output
digests of ``bench/expected.json`` for seeds that have one), writes the
full result to ``FILE`` (default ``bench/out/result.json``), and prints
as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``, the default) or its per-layer metrics (``--trace 1``),
each the median over runs. With several workloads, metric names are
prefixed ``<workload>.``. A workload that cannot run is recorded as
skipped; the command then prints no result line and exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep-cold", "sweep-warm", "search-cold", "dnn-cphc", "serve-open")
DEFAULT_SEED = 1
#: Fresh-process set-ups per untraced run (the run's own included).
SETUP_RUNS = 3
#: A child that has not finished after this long (a set-up-only child:
#: a quarter of it) is killed and its run recorded as skipped, so one
#: untraced run ends within 180 s.
CHILD_TIMEOUT_S = 100.0


def fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def environment() -> dict:
    """Where the numbers were measured."""
    import numpy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "commit": None,
    }
    # Only ask git about this checkout's own repository: without a
    # .git here, git would search the parent directories.
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def child_env(cache_dir: Path) -> dict:
    """The child's environment: this one minus every ``REPRO_*``
    setting, with ``src`` first on the path and a fresh cache store."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])]
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    # Fixed string hashing, so dict layouts (and timings) repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool = False) -> dict:
    """One workload run (or, with ``setup_only``, one set-up) in a fresh
    process; a failed run comes back as ``{"skipped": reason}``."""
    workdir = OUT / "tmp" / uuid.uuid4().hex[:8]
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    command = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", str(workdir),
        "--result", str(result_path),
        *(["--setup-only"] if setup_only else []),
    ]
    timeout = CHILD_TIMEOUT_S / 4 if setup_only else CHILD_TIMEOUT_S
    try:
        proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(workdir / "cache"), stdout=sys.stderr
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"workload": workload, "seed": seed, "skipped": f"timed out after {timeout:g}s"}
        if code != 0 or not result_path.exists():
            return {"workload": workload, "seed": seed, "skipped": f"child exited with code {code}"}
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: int, expected: dict) -> dict:
    """One run: the measuring child, then (untraced) the further
    set-up-only children; ``setup_s`` is the median of all set-ups."""
    started = time.time()
    result = run_child(workload, seed, seconds, trace)
    if "skipped" in result:
        return result
    result["started"] = started
    check_digest(result, expected)
    if not trace:
        setups, raw = [result["setup_s"]], [result["setup_raw_s"]]
        for _ in range(SETUP_RUNS - 1):
            extra = run_child(workload, seed, seconds, trace, setup_only=True)
            if "skipped" in extra:
                return {**result, "skipped": f"set-up: {extra['skipped']}"}
            setups.append(extra["setup_s"])
            raw.append(extra["setup_raw_s"])
        result["setup_runs_s"] = setups
        result["setup_runs_raw_s"] = raw
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def check_digest(result: dict, expected: dict) -> None:
    """Fail every operation of a run whose digest differs from the one
    committed for its seed."""
    want = expected.get(result["workload"], {}).get(str(result["seed"]))
    result["digest_expected"] = want
    if want is not None and want != result["outputs_digest"]:
        result["checks"]["ok"] = False
        result["checks"]["digest_mismatch"] = True
        result["failed"] = result["attempted"]


def print_run(result: dict, units: dict) -> None:
    head = f"{result['workload']} seed={result['seed']}"
    if "skipped" in result:
        print(f"{head}: skipped ({result['skipped']})")
        return
    status = "ok" if result["checks"]["ok"] else "FAILED"
    print(
        f"{head}: {status}, {result['failed']}/{result['attempted']} failed, "
        f"digest {result['outputs_digest']}"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    args = parser.parse_args(argv)

    scalar = sorted(key for key in os.environ if key.startswith("REPRO_SCALAR_"))
    if scalar:
        return fail(f"{', '.join(scalar)} set: that would measure the scalar oracle, not the program")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        return fail(f"--seconds {args.seconds:g} is not BENCHMARK.json's run_seconds ({seconds}), which fixes the run length")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    expected_path = BENCH / "expected.json"
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}

    chosen = args.workload or list(WORKLOADS)
    started = time.time()
    runs = []
    for workload in chosen:
        for k in range(args.runs):
            result = run_workload(workload, args.seed + k, seconds, args.trace, expected)
            if "skipped" not in result:
                missing = set(units) - set(result["metrics"])
                if missing:
                    result = {**result, "skipped": f"metrics not reported: {sorted(missing)}"}
            print_run(result, units)
            runs.append(result)

    report = {
        "environment": environment(),
        "started": started,
        "seconds": seconds,
        "trace": args.trace,
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if any("skipped" in run for run in runs):
        print(f"skipped runs recorded in {args.out}", file=sys.stderr)
        return 3

    metrics = {}
    for workload in chosen:
        own = [run for run in runs if run["workload"] == workload]
        for name, unit in units.items():
            key = name if len(chosen) == 1 else f"{workload}.{name}"
            value = statistics.median(run["metrics"][name] for run in own)
            metrics[key] = {"value": value, "unit": unit}
    summary = {
        "correct": all(run["checks"]["ok"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
