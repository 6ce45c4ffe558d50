"""Benchmark entry point: one run of one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tune-sort --seed 1 --seconds 5 --trace 0

Workloads: ``tune-sort``, ``tune-numeric`` and ``service-mix`` (see
``perfbench/README.md``).  ``--seed`` sets the seed of the check
inputs; the tuning seed is :data:`TUNE_SEED` unless ``--tune-seed``
names another, and ``--check-seed`` names the check seed explicitly.

Each workload runs in a fresh interpreter (``pb_workload.py``) whose
environment holds no ``REPRO_*`` variable and no BLAS thread setting
that this script added: the program sees what a user's shell would
give it, minus the repository's own knobs.  Scratch files (the
daemon's cache directory, its config file and logs) live in a fresh
directory under ``.perfbench/`` that is removed on every exit path,
and every process the run started is stopped and reaped before the
result is printed.

``--trace 0`` prints the end-to-end metrics; set-up is timed in
:data:`SETUP_RUNS` fresh interpreters and reported as their median.
``--trace 1`` runs the workload twice, untraced and then traced,
checks that both produced the same reports, prints the per-layer
metrics of the traced run (the service latencies of the untraced one)
with the tracing overhead against the untraced wall time of the
tuning (``proc.wall_s``), and writes
the spans as Chrome trace-event JSON to
``.perfbench/trace-<workload>-<seed>.json``.  A layer the workload does
not exercise reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("tune-sort", "tune-numeric", "service-mix")

#: Set-ups timed per untraced run: the run's own plus set-up-only ones.
SETUP_RUNS = 3

#: Wall-clock budget of one run, all child processes included.
RUN_BUDGET_S = 170.0

#: Seed of the tuning search (its mutations and the simulated
#: scheduler's randomness) unless ``--tune-seed`` names another: the
#: program's own default seed.  It is fixed, not taken from ``--seed``,
#: because the search's path, and so the work a session does, depends
#: on it: Sort/Laptop took 10.4-13.7 s of CPU over seeds 1-4, and a
#: tune-sort round 32.5-43.6 s over seeds 1-5, a spread of runs no
#: bound a change could be held to would cover.
TUNE_SEED = 3

#: Offset between ``--seed`` and the default seed of the check inputs
#: (the tuning inputs always use seed 0, the registry's).
CHECK_SEED_OFFSET = 1_000_003

END_TO_END = {
    "setup_s": "s", "tune_cpu_s": "s", "tuned_sim_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "compiler.compile_ms": "ms", "compiler.calls": "count",
    "apps.inputgen_ms": "ms", "apps.inputgen_calls": "count",
    "runtime.sim_ms": "ms", "runtime.sim_s": "s", "runtime.sims": "count",
    "runtime.tasks_per_sim": "count", "runtime.host_us_per_task": "us",
    "runtime.steals_per_sim": "count",
    "lang.body_s": "s", "lang.body_share": "ratio",
    "fitness.miss_ms": "ms", "fitness.committed": "count",
    "fitness.computed": "count",
    "strategy.self_s": "s", "driver.self_s": "s",
    "backend.wait_s": "s", "backend.computed_per_committed": "ratio",
    "proc.wall_s": "s", "proc.cpu_per_wall": "ratio", "proc.threads": "count",
    "cache.hits": "count", "cache.misses": "count",
    "checkpoint.scanned": "count",
    "artifacts.first_retune_ms": "ms",
    "service.submit_ms": "ms", "service.miss_ms": "ms",
    "service.metrics_ms": "ms", "service.reboot_s": "s",
    "service.index_entries": "count",
    "service.lookup_p50_us": "us", "service.lookup_p99_us": "us",
    "service.busy_lookup_p50_us": "us", "service.busy_lookup_p99_us": "us",
    "service.retune_ms": "ms",
    "wire.hit_frame_bytes": "bytes", "wire.decode_us": "us",
    "trace.overhead": "ratio",
}


#: Per-layer times taken from the untraced run of ``--trace 1``: the
#: traced process pays for its own spans.
UNTRACED_LAYERS = (
    "proc.wall_s", "proc.cpu_per_wall",
    "service.lookup_p50_us", "service.lookup_p99_us",
    "service.busy_lookup_p50_us", "service.busy_lookup_p99_us",
    "service.retune_ms",
)


class RunFailed(Exception):
    """The run cannot produce a result."""


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def clean_environment() -> Dict[str, str]:
    """The caller's environment without the repository's own knobs,
    with the program's sources first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [os.path.join(ROOT, "src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def group_alive(pgid: int) -> bool:
    """Whether any process is still in process group ``pgid``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group; zombies
        # of other parents are gone for our purposes.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for
    it to be gone (daemons and pool workers included)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


class Child:
    """Runs ``pb_workload.py`` in its own process group."""

    def __init__(self, args: argparse.Namespace, workdir: str, deadline: float) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def run(self, trace: bool = False, setup_only: bool = False,
            trace_file: Optional[str] = None) -> Dict[str, Any]:
        self.count += 1
        tmp = os.path.join(self.workdir, f"child-{self.count}")
        os.mkdir(tmp)
        out = os.path.join(tmp, "result.json")
        command = [
            sys.executable, os.path.join(HERE, "pb_workload.py"),
            "--workload", self.args.workload,
            "--tune-seed", str(self.args.tune_seed),
            "--check-seed", str(self.args.check_seed),
            "--seconds", str(self.args.seconds),
            "--tmp", tmp, "--out", out,
        ]
        if trace:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        if trace_file:
            command += ["--trace-file", trace_file]
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=clean_environment(), stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunFailed("the workload ran out of time") from None
        finally:
            stop_group(proc.pid)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RunFailed(f"the workload process exited with status {code}")
        with open(out) as handle:
            return json.load(handle)


def measure(args: argparse.Namespace, workdir: str) -> Dict[str, Any]:
    child = Child(args, workdir, time.monotonic() + RUN_BUDGET_S)
    if args.trace:
        plain = child.run()
        os.makedirs(SCRATCH, exist_ok=True)
        trace_file = os.path.join(SCRATCH, f"trace-{args.workload}-{args.seed}.json")
        traced = child.run(trace=True, trace_file=trace_file)
        from pb_workload import comparable

        problems = list(plain["problems"]) + list(traced["problems"])
        if ({k: comparable(v) for k, v in plain["reports"].items()}
                != {k: comparable(v) for k, v in traced["reports"].items()}):
            problems.append("the traced run's reports differ from the untraced run's")
        layers = dict(traced["layers"])
        for name in UNTRACED_LAYERS:
            if name in plain["layers"]:
                layers[name] = plain["layers"][name]
        layers["trace.overhead"] = (
            traced["layers"]["proc.wall_s"] / plain["layers"]["proc.wall_s"] - 1.0
        )
        log(f"trace written to {trace_file}")
        values, units = layers, PER_LAYER
        host = traced["host"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    else:
        setups = [child.run(setup_only=True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        result = child.run()
        setups.append(result["metrics"]["setup_s"])
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        units = END_TO_END
        problems = list(result["problems"])
        host = result["host"]
        attempted, failed = result["attempted"], result["failed"]
        log("setups: " + ", ".join(f"{s:.3f} s" for s in setups))
        missing = [name for name in units if name not in values]
        if missing:
            problems.append(f"metrics not measured: {', '.join(missing)}")
    for message in problems:
        log(f"check failed: {message}")
    return {
        "host": host,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one workload of the benchmark and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time the measured phase of a run lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tune-seed", type=int,
                        help=f"seed of the tuning search (default: {TUNE_SEED})")
    parser.add_argument("--check-seed", type=int,
                        help="seed of the check inputs (default: --seed + "
                             f"{CHECK_SEED_OFFSET})")
    args = parser.parse_args(argv)
    if args.tune_seed is None:
        args.tune_seed = TUNE_SEED
    if args.check_seed is None:
        args.check_seed = args.seed + CHECK_SEED_OFFSET
    if args.check_seed == 0:
        parser.error("--check-seed 0 is the seed of the tuning inputs")
    return args


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log(f"no program sources under {os.path.join(ROOT, 'src')}")
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        outcome = measure(args, workdir)
    except RunFailed as exc:
        log(f"run failed: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("host " + json.dumps(outcome["host"], sort_keys=True))
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
