"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script with a clean environment and reads the
JSON it writes to ``--out``.  The script times its own set-up from the
moment ``run.py`` spawned it, drives the program through its public
entry points (``repro.api.Session`` for tuning, ``ServiceClient``
against a ``python -m repro.service`` process for the service), then
checks every output with :mod:`pb_checks` and with exact-replay
properties.  With ``--trace`` the layer wrappers of :mod:`pb_trace`
are installed after the imports and the per-layer metrics are
written as well.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import pb_checks

NUMERIC_APPS = (
    "Black-Sholes", "Poisson2D SOR", "SeparableConv.", "Strassen", "SVD",
    "Tridiagonal Solver",
)

#: The in-process tuning workloads: (app, machine, backend, workers)
#: per tuning session, in order.  tune-sort tunes Sort/Laptop twice,
#: serially and with two worker processes: the pooled leg must give the
#: serial leg's report, and the serial legs weigh down the pooled leg's
#: sensitivity to CPU contention on a 2-CPU host.
TUNE_WORKLOADS = {
    "tune-sort": [("Sort", "Desktop", "serial", 1), ("Sort", "Laptop", "serial", 1),
                  ("Sort", "Laptop", "process", 2)],
    "tune-numeric": [(app, "Desktop", "serial", 1) for app in NUMERIC_APPS],
}

#: service-mix: the targets warmed first, and the one whose miss
#: starts the background tune of the busy phase.  A session's length
#: depends on its seed (Strassen: 0.9-3.3 s), so eight short sessions
#: are warmed rather than four to keep ``tune_cpu_s`` steady across
#: tuning seeds.
SERVICE_WARM = [("Black-Sholes", "Desktop"), ("Strassen", "Laptop"),
                ("Tridiagonal Solver", "Server"), ("SVD", "Desktop"),
                ("Black-Sholes", "Laptop"), ("Strassen", "Desktop"),
                ("Tridiagonal Solver", "Laptop"), ("SVD", "Laptop")]
SERVICE_BUSY = ("Poisson2D SOR", "Laptop")

#: Idle hits per batch: the p99 of 1000 samples has ten beyond it.
IDLE_BATCH = 1000
#: Idle batches per run, spread over the run so that slow drifts of
#: the host weigh less on the latency figures.
IDLE_BATCHES = 6
#: Clean retunes timed per run (after the first, which records the
#: derivation graph).
RETUNES = 20
#: Hits between two polls of the busy target during the busy phase.
BUSY_POLL_EVERY = 50
DAEMON_BOOT_TIMEOUT_S = 60.0
RESULT_TIMEOUT_S = 150.0


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def comparable(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A report payload without ``computed_evaluations``, which the
    report defines as a wall-clock gauge that speculation and disk
    hits may change."""
    return {k: v for k, v in payload.items() if k != "computed_evaluations"}


class Run:
    """Everything one run measures, counts and finds wrong."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.reports: Dict[str, Dict[str, Any]] = {}
        self.daemons: List["Daemon"] = []

    def attempt(self, label: str, fn: Callable, *args, **kwargs) -> Tuple[bool, Any]:
        """One operation against the program; failures are counted."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # counted and reported, the run goes on
            self.failed += 1
            log(f"operation failed: {label}: {type(exc).__name__}: {exc}")
            return False, None

    def problem(self, message: str) -> None:
        log(f"check failed: {message}")
        self.problems.append(message)

    def tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    def session_scope(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.session(name)


# -- configuration --------------------------------------------------------


def tuner_config(backend: str, workers: int, seed: int):
    """Every knob of :class:`TunerConfig` given explicitly."""
    from repro.api import TunerConfig

    return TunerConfig(
        backend=backend, workers=workers, batch_lanes=1, tune_many_workers=1,
        strategy="evolutionary", seed=seed, cache_dir=None, checkpoint_every=64,
        resume=False, retune=False, progress=False, full_scale=False,
        cluster_address=None, cluster_workers=2, cluster_heartbeat_s=2.0,
        cluster_timeout_s=10.0, service_address=None, service_max_jobs=1,
        service_rate_limit=0, fault_spec=None,
    )


def daemon_config_text(seed: int, cache_dir: str) -> str:
    """``repro.toml`` for the daemon: every knob given explicitly."""
    return "\n".join([
        'backend = "serial"', "workers = 1", "batch_lanes = 1",
        "tune_many_workers = 1", 'strategy = "evolutionary"', f"seed = {seed}",
        f"cache_dir = {json.dumps(cache_dir)}", "checkpoint_every = 64",
        "resume = false", "retune = false", "progress = false",
        "full_scale = false", "service_max_jobs = 1", "service_rate_limit = 0",
        "",
    ])


# -- the daemon -----------------------------------------------------------


class Daemon:
    """A ``python -m repro.service`` process on an ephemeral port."""

    def __init__(self, workdir: str, cache_dir: str, seed: int, tag: str) -> None:
        config_file = os.path.join(workdir, "repro.toml")
        with open(config_file, "w") as handle:
            handle.write(daemon_config_text(seed, cache_dir))
        self._log = open(os.path.join(workdir, f"daemon-{tag}.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--address", "127.0.0.1:0",
             "--config-file", config_file],
            cwd=workdir, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.address = self._read_address()

    def _read_address(self) -> str:
        """The address from the daemon's ``listening on`` line."""
        deadline = time.monotonic() + DAEMON_BOOT_TIMEOUT_S
        marker = b"listening on "
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                *lines, buffered_tail = buffered.split(b"\n")
                for line in lines:
                    if marker in line:
                        return line.split(marker, 1)[1].decode().strip()
                buffered = buffered_tail
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("tuning daemon did not report its address")

    def _status(self, field: str) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
        return 0.0

    def peak_rss_mb(self) -> float:
        return self._status("VmHWM") / 1024.0

    def threads(self) -> float:
        return self._status("Threads")

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- checks of tuned programs ---------------------------------------------


def check_tuned(run: Run, app: str, machine_name: str,
                payload: Dict[str, Any]) -> Optional[float]:
    """Re-simulate a tuned winner and check what it computes.

    Returns the winner's simulated time on the check inputs with the
    check seed as the scheduler's seed: a run of the tuned program
    apart from the search that picked it, unlike ``best_time_s``,
    which is the least of the times the search measured."""
    from repro.apps.registry import benchmark, canonical_env_factory
    from repro.compiler.compile import compile_program
    from repro.core.configuration import default_configuration
    from repro.core.report import report_from_payload
    from repro.hardware.machines import machine_by_name
    from repro.runtime.executor import run_program

    where = f"{app}/{machine_name}"
    report = report_from_payload(payload)
    spec = benchmark(app)
    machine = machine_by_name(machine_name)
    compiled = compile_program(spec.build_program(), machine)
    size = report.sizes[-1]
    if size != spec.tuning_size:
        run.problem(f"{where}: tuned at size {size}, not {spec.tuning_size}")
    if report.seed != run.args.tune_seed or report.strategy != "evolutionary":
        run.problem(f"{where}: report has seed {report.seed}, strategy {report.strategy}")

    def simulate(config, env, seed=report.seed):
        return run_program(compiled, config, env, seed=seed, jit=machine.fresh_jit())

    replay = simulate(report.best, canonical_env_factory(app)(size))
    if replay.time_s != report.best_time_s:
        run.problem(f"{where}: replay takes {replay.time_s!r} s, report says "
                    f"{report.best_time_s!r} s")
    default = simulate(default_configuration(compiled.training_info),
                       canonical_env_factory(app)(size))
    if report.best_time_s > default.time_s:
        run.problem(f"{where}: winner {report.best_time_s!r} s is slower than the "
                    f"default configuration's {default.time_s!r} s")
    env = spec.make_env(size, run.args.check_seed)
    fresh = simulate(report.best, env, seed=run.args.check_seed)
    extra = {}
    if app == "SVD":
        rank = report.best.tunables.get("svd_rank")
        if rank is None:
            run.problem(f"{where}: winner has no svd_rank")
            return None
        extra = {"rank": int(rank), "target": spec.accuracy_target}
    for message in pb_checks.check_output(app, env, **extra):
        run.problem(f"{where}: {message}")
    return fresh.time_s


# -- the service ----------------------------------------------------------


def start_daemon(run: Run, tag: str):
    """Boot a daemon on the run's cache directory and connect to it."""
    from repro.service.client import ServiceClient

    daemon = Daemon(run.args.tmp, os.path.join(run.args.tmp, "cache"),
                    run.args.tune_seed, tag)
    run.daemons.append(daemon)
    client = ServiceClient(daemon.address, name="perfbench", request_timeout=60.0)
    return daemon, client


class ServiceDriver:
    """One client's phases against a daemon, with their checks.

    ``exact`` hits must equal the report of their target payload for
    payload; once a retune has folded its own report into the index,
    hits are compared without ``computed_evaluations``.
    """

    def __init__(self, run: Run, daemon, client, warm, busy) -> None:
        self.run = run
        self.daemon = daemon
        self.client = client
        self.warm: List[Tuple[str, str]] = warm
        self.busy_target: Tuple[str, str] = busy
        self.reports: Dict[str, Dict[str, Any]] = {}
        self.exact = True
        self.idle: List[float] = []
        self.idle_p99: List[float] = []
        self.busy: List[float] = []
        self.retunes: List[float] = []
        #: service.reboot_s stays 0 on workloads without a restart.
        self.layers: Dict[str, float] = {"service.reboot_s": 0.0}
        self.miss_config: Optional[str] = None
        self.peak_rss_mb = 0.0
        #: ``metrics`` verb answers, in order (one per daemon process).
        self.snapshots: List[Dict[str, Any]] = []

    def pin(self, daemon_threads: str = "all") -> "_Pinned":
        """Keep this client and the daemon's threads (``"all"``) or
        only its event-loop thread (``"loop"``) on one CPU for a
        phase; see :class:`_Pinned`."""
        return _Pinned(self.daemon.proc.pid, daemon_threads)

    def lookup(self, app: str, machine: str, latencies: List[float]) -> None:
        start = time.perf_counter()
        ok, answer = self.run.attempt("lookup", self.client.lookup, app, machine)
        latencies.append(time.perf_counter() - start)
        if ok:
            self.check_hit(app, machine, answer)

    def check_hit(self, app: str, machine: str, answer) -> None:
        from repro.core.report import report_to_payload

        hit, report = answer
        key = f"{app}/{machine}"
        if not hit:
            self.run.problem(f"lookup of warmed {key} missed")
            return
        payload, wanted = report_to_payload(report), self.reports[key]
        if not self.exact:
            payload, wanted = comparable(payload), comparable(wanted)
        if payload != wanted:
            differing = sorted(k for k in set(payload) | set(wanted)
                               if payload.get(k) != wanted.get(k))
            self.run.problem(f"lookup of {key} differs from its report in {differing}")

    def warmed(self) -> List[Tuple[str, str]]:
        return [t for t in self.warm if f"{t[0]}/{t[1]}" in self.reports]

    # -- phases ---------------------------------------------------------

    def warm_up(self) -> float:
        """Submit every warm target, then wait for each result; returns
        the time from the first submit to the last result."""
        from repro.core.report import report_to_payload

        run = self.run
        with run.session_scope("service:warm"):
            start = time.perf_counter()
            jobs = []
            for app, machine in self.warm:
                ok, job_id = run.attempt("submit", self.client.submit, app, machine,
                                         seed=run.args.tune_seed)
                jobs.append(job_id if ok else None)
            for (app, machine), job_id in zip(self.warm, jobs):
                if job_id is None:
                    continue
                ok, report = run.attempt("result", self.client.result, job_id,
                                         timeout=RESULT_TIMEOUT_S)
                if ok:
                    self.reports[f"{app}/{machine}"] = report_to_payload(report)
            return time.perf_counter() - start

    def idle_batch(self) -> None:
        """One batch of hits, round robin over the warmed targets."""
        targets = self.warmed()
        if not targets:
            return
        batch: List[float] = []
        with self.run.session_scope("service:idle"), self.pin():
            for index in range(IDLE_BATCH):
                self.lookup(*targets[index % len(targets)], batch)
        self.idle += batch
        self.idle_p99.append(percentile(batch, 99))

    def busy_phase(self) -> None:
        """A miss starts a background tune; hits go on until the missed
        target hits too."""
        from repro.core.report import report_to_payload

        run = self.run
        app, machine = self.busy_target
        key = f"{app}/{machine}"
        targets = self.warmed()
        with run.session_scope("service:busy"):
            start = time.perf_counter()
            ok, answer = run.attempt("lookup", self.client.lookup, app, machine)
            self.layers["service.miss_ms"] = (time.perf_counter() - start) * 1e3
            if not ok:
                return
            hit, self.miss_config = answer
            if hit:
                run.problem(f"first lookup of {key} hit a cold daemon")
                return
            deadline = time.monotonic() + RESULT_TIMEOUT_S
            # The tuning thread stays free to run on any CPU.
            with self.pin("loop"):
                while time.monotonic() < deadline:
                    for index in range(BUSY_POLL_EVERY):
                        self.lookup(*targets[index % len(targets)], self.busy)
                    ok, answer = run.attempt("lookup", self.client.lookup, app, machine)
                    if ok and answer[0]:
                        self.reports[key] = report_to_payload(answer[1])
                        return
        run.problem(f"background tune of {key} never became a hit")

    def retune_phase(self) -> None:
        """The first retune records the derivation graph; the ones
        after it must find the graph clean."""
        from repro.core.report import report_to_payload

        run = self.run
        app, machine = self.warm[0]
        key = f"{app}/{machine}"
        with run.session_scope("service:retune"), self.pin():
            for index in range(RETUNES + 1):
                start = time.perf_counter()
                ok, answer = run.attempt("retune", self.client.retune, app, machine,
                                         seed=run.args.tune_seed,
                                         timeout=RESULT_TIMEOUT_S)
                elapsed = time.perf_counter() - start
                if not ok:
                    continue
                report, provenance = answer
                if comparable(report_to_payload(report)) != comparable(self.reports[key]):
                    run.problem(f"retune of {key} returned a different report")
                if index == 0:
                    self.layers["artifacts.first_retune_ms"] = elapsed * 1e3
                    self.exact = False
                else:
                    self.retunes.append(elapsed)
                    if not provenance["clean"]:
                        run.problem(f"retune of {key} was not clean")

    def read_metrics(self) -> None:
        start = time.perf_counter()
        ok, metrics = self.run.attempt("metrics", self.client.metrics)
        self.layers["service.metrics_ms"] = (time.perf_counter() - start) * 1e3
        if ok:
            self.snapshots.append(metrics)
        self.peak_rss_mb = max(self.peak_rss_mb, self.daemon.peak_rss_mb())

    def restart(self) -> None:
        """Restart the daemon on the same cache directory; every target
        must hit again with its report."""
        self.client.close()
        self.daemon.stop()
        start = time.perf_counter()
        self.daemon, self.client = start_daemon(self.run, "restart")
        first: List[float] = []
        with self.run.session_scope("service:restart"):
            self.lookup(*self.warm[0], first)
            self.layers["service.reboot_s"] = time.perf_counter() - start
            for app, machine in self.warmed() + [self.busy_target]:
                if f"{app}/{machine}" in self.reports:
                    self.lookup(app, machine, first)

    def finish(self) -> None:
        """Stop the daemon, then run the checks that need no daemon."""
        from repro.apps.registry import benchmark
        from repro.compiler.compile import compile_program
        from repro.core.configuration import default_configuration
        from repro.hardware.machines import machine_by_name

        self.read_metrics()
        self.client.close()
        self.daemon.stop()
        run = self.run
        run.tracing(False)
        app, machine = self.busy_target
        if self.miss_config is not None:
            compiled = compile_program(benchmark(app).build_program(),
                                       machine_by_name(machine))
            expected = default_configuration(
                compiled.training_info, label=f"{machine} default").to_json()
            if self.miss_config != expected:
                run.problem(f"miss on {app}/{machine} did not return the "
                            "default configuration")
        # Cache counters of the first daemon; index and boot scan of
        # the last (the restarted one on service-mix).
        first = self.snapshots[0] if self.snapshots else {}
        last = self.snapshots[-1] if self.snapshots else {}
        entries = float(last.get("index", {}).get("entries", 0))
        if entries < len(self.reports):
            run.problem(f"daemon index holds {entries:.0f} of {len(self.reports)} reports")
        caches = first.get("caches", {})
        scans = last.get("checkpoint_scans", {})
        self.layers.update({
            "cache.hits": float(sum(c.get("hits", 0) for c in caches.values())),
            "cache.misses": float(sum(c.get("misses", 0) for c in caches.values())),
            "checkpoint.scanned": float(sum(s.get("scanned", 0) for s in scans.values())),
            "service.index_entries": entries,
            "service.busy_lookup_p99_us": percentile(self.busy, 99) * 1e6 if self.busy else 0.0,
        })
        self.layers.update({
            "service.lookup_p50_us": statistics.median(self.idle) * 1e6 if self.idle else 0.0,
            "service.lookup_p99_us": (
                statistics.median(self.idle_p99) * 1e6 if self.idle_p99 else 0.0),
            "service.busy_lookup_p50_us": (
                statistics.median(self.busy) * 1e6 if self.busy else 0.0),
            "service.retune_ms": statistics.median(self.retunes) * 1e3 if self.retunes else 0.0,
        })
        run.layers.update(self.layers)
        for key, payload in self.reports.items():
            run.reports[f"service:{key}"] = payload
        log(f"service: {len(self.idle)} idle hits, {len(self.busy)} busy hits, "
            f"{len(self.retunes)} clean retunes")


class _Pinned:
    """Pins this process and daemon threads to the lowest CPU this
    process may use, for the length of a ``with`` block, and restores
    the full CPU set after it.

    On a small virtual machine the scheduler places the client and the
    daemon's event loop on the same CPU in some runs and on different
    CPUs in others; a hit then costs 0.2 ms or, with a cross-CPU
    wake-up on the critical path, p99 jumps from about 0.6 ms to 5 ms.
    Pinning makes every run measure the same placement.  Only the
    benchmark's own processes are touched.  Threads started while
    pinned would inherit the pin, so the phases pinned here start none
    that outlive them.
    """

    def __init__(self, daemon_pid: int, daemon_threads: str) -> None:
        self.cpus = os.sched_getaffinity(0)
        self.cpu = {min(self.cpus)}
        self.daemon_pid = daemon_pid
        self.daemon_threads = daemon_threads

    def _threads(self) -> List[int]:
        if self.daemon_threads == "loop":
            return [self.daemon_pid]
        return [int(tid) for tid in os.listdir(f"/proc/{self.daemon_pid}/task")]

    def _set(self, cpus) -> None:
        os.sched_setaffinity(0, cpus)
        for tid in self._threads():
            try:
                os.sched_setaffinity(tid, cpus)
            except OSError:
                pass  # the thread ended meanwhile

    def __enter__(self) -> None:
        self._set(self.cpu)

    def __exit__(self, *exc_info) -> None:
        self._set(self.cpus)


# -- workloads ------------------------------------------------------------


def setup_tuning(run: Run) -> None:
    import numpy  # noqa: F401
    import repro.api  # noqa: F401

    # Installed before the names below are bound, so they bind the
    # wrapped functions.
    install_tracer(run)
    from repro.apps.registry import benchmark
    from repro.compiler.compile import compile_program
    from repro.hardware.machines import machine_by_name

    targets = dict.fromkeys((app, machine) for app, machine, _, _ in
                            TUNE_WORKLOADS[run.args.workload])
    for app, machine in targets:
        with run.session_scope(f"setup:{app}/{machine}"):
            compile_program(benchmark(app).build_program(), machine_by_name(machine))


def run_tuning(run: Run) -> None:
    """The workload's tuning sessions, one after another.  When they
    end before ``--seconds`` have passed, the whole round is repeated
    (same seeds, so the same reports) and ``tune_cpu_s`` is the median
    round.

    ``tune_cpu_s`` counts the CPU time of this process and of the pool
    workers it reaped (``os.times``), not wall time: on a guest whose
    CPUs the hypervisor lends to other guests, wall time grows with
    their load, while the kernel leaves stolen time out of a process's
    CPU time."""
    from repro.api import Session
    from repro.core.report import report_to_payload
    from repro.experiments.runner import clear_sessions

    sessions = TUNE_WORKLOADS[run.args.workload]
    measured_from = time.perf_counter()
    rounds: List[float] = []
    cpu_rounds: List[float] = []
    while True:
        wall_s = cpu_s = 0.0
        payloads = {}
        for app, machine, backend, workers in sessions:
            # Session.tune serves a finished (app, machine, seed) from a
            # process-wide cache whatever the backend: drop it so that
            # every session really tunes.
            clear_sessions()
            cpu0 = os.times()
            start = time.perf_counter()
            with Session(tuner_config(backend, workers, run.args.tune_seed)) as session:
                with run.session_scope(f"{app}/{machine}/seed{run.args.tune_seed}"):
                    ok, tuned = run.attempt(f"tune {app}/{machine}", session.tune,
                                            app, machine, seed=run.args.tune_seed)
            wall_s += time.perf_counter() - start
            cpu1 = os.times()
            cpu_s += sum(cpu1[:4]) - sum(cpu0[:4])
            if ok:
                payloads[report_key(app, machine, backend)] = report_to_payload(tuned.report)
        rounds.append(wall_s)
        cpu_rounds.append(cpu_s)
        if len(rounds) == 1:
            run.reports.update(payloads)
        elif {k: comparable(v) for k, v in payloads.items()} != {
                k: comparable(v) for k, v in run.reports.items()}:
            run.problem("a repeated round of tuning gave different reports")
        if time.perf_counter() - measured_from >= run.args.seconds:
            break
    pooled = max((w for _, _, backend, w in sessions if backend == "process"), default=0)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.metrics["tune_cpu_s"] = statistics.median(cpu_rounds)
    run.metrics["peak_rss_mb"] = (self_kb + pooled * workers_kb) / 1024.0
    run.layers.update({
        "proc.wall_s": statistics.median(rounds),
        "proc.cpu_per_wall": sum(cpu_rounds) / sum(rounds),
        "proc.threads": float(own_threads()),
    })
    targets = {f"{app}/{machine}" for app, machine, _, _ in sessions}
    log(f"tuned {len(sessions)} sessions; rounds: " + ", ".join(
        f"{w:.2f} s wall, {c:.2f} s CPU" for w, c in zip(rounds, cpu_rounds)))
    run.tracing(False)
    fresh = []
    for key, payload in run.reports.items():
        app, machine = key.split("/")[:2]
        serial = run.reports.get(f"{app}/{machine}")
        if key not in targets:
            # Reports do not depend on the backend that computed them.
            if serial is not None and comparable(payload) != comparable(serial):
                run.problem(f"{key} report differs from the serial one")
            continue
        fresh.append(check_tuned(run, app, machine, payload))
    set_tuned_sim_ms(run, fresh, len(targets))


def set_tuned_sim_ms(run: Run, fresh: List[Optional[float]], targets: int) -> None:
    """``tuned_sim_ms``: geometric mean of the winners' simulated times
    on the check inputs, once every target has one."""
    times = [t for t in fresh if t is not None]
    if len(times) == targets:
        run.metrics["tuned_sim_ms"] = geomean(times) * 1e3


def report_key(app: str, machine: str, backend: str) -> str:
    """``app/machine`` for serial sessions, ``app/machine/backend``
    otherwise."""
    key = f"{app}/{machine}"
    return key if backend == "serial" else f"{key}/{backend}"


def own_threads() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def setup_service(run: Run):
    import numpy  # noqa: F401
    import repro.service.client  # noqa: F401
    from repro.core.report import report_to_payload  # noqa: F401

    install_tracer(run)
    return start_daemon(run, "boot")


def run_service_mix(run: Run, daemon, client) -> None:
    """Warm, idle, busy, retune and restart, in that order."""
    measured_from = time.perf_counter()
    service = ServiceDriver(run, daemon, client, SERVICE_WARM, SERVICE_BUSY)
    # The daemon's CPU time over the warm phase, for the reason given
    # in run_tuning; the client only waits meanwhile.
    cpu0 = daemon.cpu_s()
    wall = service.warm_up()
    cpu = daemon.cpu_s() - cpu0
    run.metrics["tune_cpu_s"] = cpu
    for _ in range(IDLE_BATCHES // 2):
        service.idle_batch()
    service.busy_phase()
    service.retune_phase()
    service.idle_batch()
    threads = daemon.threads()
    service.read_metrics()
    service.restart()
    for _ in range(IDLE_BATCHES - IDLE_BATCHES // 2 - 1):
        service.idle_batch()
    while time.perf_counter() - measured_from < run.args.seconds:
        service.idle_batch()
    service.finish()
    run.metrics["peak_rss_mb"] = service.peak_rss_mb
    run.layers.update({
        "proc.wall_s": wall, "proc.cpu_per_wall": cpu / wall, "proc.threads": threads,
    })
    fresh = []
    for key, payload in run.reports.items():
        app, machine = key.split(":", 1)[1].split("/")
        fresh.append(check_tuned(run, app, machine, payload))
    set_tuned_sim_ms(run, fresh, len(SERVICE_WARM) + 1)


# -- process-level ----------------------------------------------------------


def install_tracer(run: Run) -> None:
    if not run.args.trace:
        return
    import pb_trace

    run.tracer = pb_trace.Tracer()
    pb_trace.install(run.tracer)


def host_info() -> Dict[str, Any]:
    """Host, interpreter, numpy and BLAS facts; the BLAS thread count
    is read through ctypes and never changed."""
    import ctypes
    import platform

    import numpy

    info: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    paths = set()
    with open("/proc/self/maps") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path.startswith("/"):
                paths.add(path)
    info["blas"] = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        info["blas"][os.path.basename(path)] = threads
    return info


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(TUNE_WORKLOADS) + ["service-mix"])
    parser.add_argument("--tune-seed", type=int, required=True)
    parser.add_argument("--check-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    run = Run(args)
    service = args.workload == "service-mix"
    try:
        if service:
            daemon, client = setup_service(run)
        else:
            setup_tuning(run)
        run.metrics["setup_s"] = time.monotonic() - args.spawned_at
        if args.setup_only:
            with open(args.out, "w") as handle:
                json.dump({"setup_s": run.metrics["setup_s"]}, handle)
            return 0
        if service:
            run_service_mix(run, daemon, client)
        else:
            run_tuning(run)
        tuned = [p for k, p in run.reports.items()
                 if service or not k.startswith("service:")]
        committed = sum(p["evaluations"] for p in tuned)
        computed = sum(p["computed_evaluations"] for p in tuned)
        run.layers.update({
            "fitness.committed": float(committed),
            "fitness.computed": float(computed),
            "backend.computed_per_committed": computed / committed if committed else 0.0,
        })
        if run.tracer is not None:
            import pb_trace

            run.layers.update(pb_trace.layer_metrics(run.tracer))
            if args.trace_file:
                run.tracer.write_chrome(args.trace_file)
        result = {
            "metrics": run.metrics, "layers": run.layers,
            "attempted": run.attempted, "failed": run.failed,
            "problems": run.problems, "reports": run.reports,
            "host": host_info(),
        }
        with open(args.out, "w") as handle:
            json.dump(result, handle)
        return 0
    finally:
        for daemon in run.daemons:
            daemon.stop()


if __name__ == "__main__":
    sys.exit(main())
