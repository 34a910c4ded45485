"""The ``serve-mixed`` workload: a real ``repro serve`` daemon, two
tenants in a closed loop, warm replays beside cold sweeps.

The daemon runs as a child process (``--parallel 0``) over a store
pre-populated with a few thousand real simulated entries. Two tenants
each hold one connection and submit their next job only when the
previous one is done (``serve submit`` callers wait for their reply),
so this is a closed loop with two clients. The seed fixes a job list of
rounds: per round each tenant runs eight jobs, six warm replays of
stored sweeps and two cold sweeps of fresh cheap points, and the round
ends when both tenants are done.

A run replays that job list in ``EPISODES`` identical episodes, each on
a freshly launched daemon over a fresh copy of the same store, so cold
jobs are cold and warm jobs read from disk every time. A job's latency
is the median over episodes of its host seconds over the host factor
measured around its round (README.md, "Steadiness").
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

from common import (HERE, STATE_DIR, child_env, host_factor, log,
                    pid_peak_rss_mb, quantile, self_peak_rss_mb,
                    source_digest)
from points import COLD_SLOTS, serve_rounds, stored_sweeps

#: Identical replays of the job list per untraced run.
EPISODES = 4
#: Daemon launches per untraced run, the episodes' included; ``setup_s``
#: is the median launch-to-ping.
SETUP_REPEATS = 5
#: Nominal wall time of one round on a 2-core host; the job list has as
#: many rounds as fill ``--seconds`` over all episodes at that pace.
ROUND_S = 0.85
#: Served answers re-simulated inline after the window, per kind.
VERIFY_SAMPLE = 8
TENANTS = tuple(COLD_SLOTS)


def ensure_store(sweeps) -> str:
    """The pristine pre-populated store, built once per checkout and code
    state by simulating every stored sweep through ``repro.exec``."""
    from repro.exec import Executor, ResultCache

    requests = [req for sweep in sweeps for req in sweep]
    # A store built by other code, or for another population, is never
    # reused.
    digest = source_digest(os.path.join(HERE, "points.py"))
    path = os.path.join(STATE_DIR, f"store-{digest}-{len(requests)}")
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    log(f"  populating the store with {len(requests)} simulated entries")
    t0 = time.perf_counter()
    with Executor(workers=0, cache=ResultCache(tmp)) as executor:
        results = executor.run_many(requests)
    bad = [r for r in results if r is None or r.latency_s is None]
    if bad:
        raise RuntimeError(f"{len(bad)} store population runs failed")
    os.replace(tmp, path)
    log(f"  store populated in {time.perf_counter() - t0:.1f} s")
    return path


class Daemon:
    """One ``repro serve start`` child, launched through launcher.py."""

    def __init__(self, state_dir: str, store: str, trace_out: str | None):
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.socket = os.path.join(state_dir, "d.sock")
        cmd = [sys.executable, f"{HERE}/launcher.py", "daemon"]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        cmd += ["--", "--socket", self.socket, "--cache", store,
                "--state-dir", state_dir, "--parallel", "0"]
        self.log = open(os.path.join(state_dir, "daemon.log"), "a")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     env=child_env())

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until the first ``ping`` answers."""
        from repro.serve import ServeClient, ServeError

        while time.perf_counter() - self.t0 < timeout:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early (code {self.proc.returncode})")
            if os.path.exists(self.socket):
                try:
                    with ServeClient(self.socket, timeout=5.0) as client:
                        client.ping()
                    return time.perf_counter() - self.t0
                except ServeError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("daemon did not answer ping in time")

    def metrics(self) -> dict:
        from repro.serve import ServeClient
        with ServeClient(self.socket, timeout=30.0) as client:
            return client.metrics()["metrics"]

    def stop(self) -> None:
        """Drain and stop the daemon; kill it if it does not exit."""
        from repro.serve import ServeClient, ServeError

        if self.proc.poll() is None:
            with contextlib.suppress(ServeError, OSError):
                with ServeClient(self.socket, timeout=30.0) as client:
                    client.shutdown()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()

    def job_walls(self) -> dict:
        """Daemon-side job latency (submit to publish) from its request
        log, by job id."""
        path = os.path.join(self.state_dir, "requests.jsonl")
        walls = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("kind") == "job":
                    walls[rec["job"]] = rec.get("wall_s")
        return walls


def _tenant(client, tenant: str, rounds, barrier, out: list,
            tracer) -> None:
    """One tenant's closed loop: per round, submit each job and wait for
    its reply before the next; rounds start and end on ``barrier``."""
    for index, rnd in enumerate(rounds):
        barrier.wait()
        for slot, (kind, requests) in enumerate(rnd[tenant]):
            payload = [req.payload() for req in requests]
            if tracer is not None:
                tracer.enter("serve.client.submit",
                             f"{tenant}/{index}/{slot}")
            t0 = time.perf_counter()
            try:
                done = client.submit(payload, tenant=tenant)
            except Exception as exc:  # a failed job is counted, not fatal
                done = {"event": "error", "reason": repr(exc)}
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.exit()
            out.append({"kind": kind, "tenant": tenant, "round": index,
                        "slot": slot, "latency_s": dt, "done": done,
                        "requests": requests})
        barrier.wait()


def _launch(run_dir: str, name: str, pristine: str, tamper=None,
            trace_out=None) -> "tuple[Daemon, list[float]]":
    """Spawn a daemon over a fresh copy of the pristine store and wait
    until it answers; returns it with its set-up sample (host seconds
    from spawn to the first ``ping``, host factor around them)."""
    store = os.path.join(run_dir, "store")
    shutil.rmtree(store, ignore_errors=True)
    shutil.copytree(pristine, store)
    if tamper == "warm-miss":
        _drop_entries(store)
    before = host_factor()
    daemon = Daemon(os.path.join(run_dir, name), store, trace_out)
    try:
        ready = daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon, [ready, (before + host_factor()) / 2]


def _episode(run_dir: str, name: str, pristine: str, rounds,
             tamper=None, tracer=None, trace_out=None) -> dict:
    """Replay the job list once on a fresh daemon over a fresh store
    copy; returns its jobs, round walls and daemon-side view."""
    from repro.serve import ServeClient

    daemon, setup = _launch(run_dir, name, pristine, tamper, trace_out)
    jobs: list[dict] = []
    walls: list[float] = []
    factors: list[float] = []
    try:
        clients = [ServeClient(daemon.socket, timeout=30.0).connect()
                   for _ in TENANTS]
        # Two tenant threads; this thread only times the rounds.
        barrier = threading.Barrier(len(TENANTS) + 1, timeout=300.0)
        threads = [threading.Thread(target=_tenant,
                                    args=(client, tenant, rounds, barrier,
                                          jobs, tracer))
                   for client, tenant in zip(clients, TENANTS)]
        if tracer is not None:
            tracer.start()
        t_start = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            # Between rounds both tenants wait on the barrier and the
            # daemon is idle: the host factor is measured there, and a
            # round's factor is the mean of those around it.
            before = host_factor()
            for _ in rounds:
                barrier.wait()
                t0 = time.perf_counter()
                barrier.wait()
                walls.append(time.perf_counter() - t0)
                after = host_factor()
                factors.append((before + after) / 2)
                before = after
        except BaseException:
            barrier.abort()      # releases the tenants
            raise
        finally:
            for thread in threads:
                thread.join()
            window = time.perf_counter() - t_start
            if tracer is not None:
                tracer.stop()
            for client in clients:
                client.close()
        metrics = daemon.metrics()
        rss = pid_peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    served = daemon.job_walls()
    for job in jobs:
        job["daemon_s"] = served.get(job["done"].get("job"))
    # Wire time: client-observed minus daemon-observed job latency.
    wire = [j["latency_s"] - j["daemon_s"] for j in jobs
            if j["daemon_s"] is not None]
    busy = (metrics.get("serve.worker.busy_seconds") or {}).get("value", 0.0)
    return {"jobs": jobs, "round_walls": walls, "round_factors": factors,
            "window_s": window, "setup_s": setup, "metrics": metrics, "daemon_rss_mb": rss,
            "wire": wire, "busy_ratio": busy / window}


def _check_jobs(jobs, failures: list) -> "tuple[int, int]":
    """Every answer present, error-free, with the expected provenance:
    ``hit`` on warm jobs, ``miss`` on cold ones, and the current
    SIM_VERSION. Returns (attempted, failed) in answers."""
    from repro.exec import SIM_VERSION

    attempted = failed = 0
    for job in jobs:
        done, requests = job["done"], job["requests"]
        attempted += len(requests)
        results = done.get("results") or []
        if done.get("event") != "done" or len(results) != len(requests):
            failed += len(requests)
            failures.append(f"job failed: {done.get('reason', done)}"[:200])
            continue
        want_cache = "hit" if job["kind"] == "warm" else "miss"
        for req, res in zip(requests, results):
            prov = res.get("provenance") or {}
            problem = None
            if res.get("latency_s") is None or "error" in res:
                problem = f"error {res.get('error')}"
            elif prov.get("cache") != want_cache:
                problem = (f"{job['kind']} request answered as "
                           f"{prov.get('cache')!r}")
            elif (prov.get("sim_version") != SIM_VERSION
                  or done.get("sim_version") != SIM_VERSION):
                problem = f"sim_version {prov.get('sim_version')}"
            elif prov.get("request_hash") != req.key():
                problem = "request_hash mismatch"
            if problem:
                failed += 1
                failures.append(f"{req.system}/{req.collective}/{req.size}/"
                                f"{req.component}: {problem}")
    return attempted, failed


def _answers(job) -> "list[tuple]":
    return list(zip(job["requests"], job["done"].get("results") or []))


def _check_repeats(episodes, failures: list) -> int:
    """Every episode must serve every request the latency the first
    episode served, bit for bit."""
    failed = 0
    first = {req.key(): res.get("latency_s") for job in episodes[0]["jobs"]
             for req, res in _answers(job)}
    for episode in episodes[1:]:
        for job in episode["jobs"]:
            for req, res in _answers(job):
                if res.get("latency_s") != first.get(req.key()):
                    failed += 1
                    failures.append(f"{req.system}/{req.collective}/"
                                    f"{req.size}: episodes disagree")
    return failed


def _verify_sample(jobs, seed: int, failures: list) -> "tuple[int, int]":
    """Re-simulate a seeded sample of served answers inline and compare
    them bit for bit; outside the timed window."""
    from repro.exec import execute

    rng = random.Random(f"verify-{seed}")
    checked = failed = 0
    for kind in ("warm", "cold"):
        answers = [pair for job in jobs if job["kind"] == kind
                   for pair in _answers(job)]
        for req, res in rng.sample(answers, min(VERIFY_SAMPLE,
                                                len(answers))):
            checked += 1
            got = res.get("latency_s")
            want = execute(req).latency_s
            if not isinstance(got, float) or float.hex(got) != float.hex(
                    want):
                failed += 1
                failures.append(f"served {kind} {req.system}/"
                                f"{req.collective}/{req.size}: {got!r} != "
                                f"inline {want!r}")
    return checked, failed


def run(seed: int, seconds: float, trace: bool, tracer_factory=None,
        tamper=None, tiny: bool = False) -> dict:
    sweeps = stored_sweeps()
    if tiny:
        sweeps = sweeps[:6]
    pristine = ensure_store(sweeps)
    run_dir = os.path.join(STATE_DIR, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    used = {req.key() for sweep in sweeps for req in sweep}
    generator = serve_rounds(seed, sweeps, used)
    n_rounds = 1 if tiny else max(1, round(seconds / (EPISODES * ROUND_S)))
    rounds = [next(generator) for _ in range(n_rounds)]
    failures: list[str] = []
    per_layer = None
    try:
        if trace:
            tracer = tracer_factory(install=False)
            trace_out = os.path.join(run_dir, "daemon-trace.json")
            episodes = [_episode(run_dir, "ep0", pristine, rounds, tamper),
                        _episode(run_dir, "ep1", pristine, rounds, tamper,
                                 tracer, trace_out)]
            with open(trace_out) as fh:
                daemon_trace = json.load(fh)
            untraced, traced = episodes
            per_layer = {"tracer": tracer, "daemon_trace": daemon_trace,
                         "untraced_wall_s": untraced["window_s"],
                         "traced_wall_s": traced["window_s"],
                         "serve": untraced}
            setup = []
        else:
            extra = max(0, (1 if tiny else SETUP_REPEATS) - EPISODES)
            setup, episodes = [], []
            for i in range(EPISODES):
                # Launch probes are spread between the episodes, so that
                # their median is not taken in one burst of host load.
                while len(setup) < extra * (i + 1) // EPISODES:
                    daemon, sample = _launch(run_dir, f"probe{len(setup)}",
                                             pristine)
                    daemon.stop()
                    setup.append(sample)
                episodes.append(_episode(run_dir, f"ep{i}", pristine,
                                         rounds, tamper))
            setup += [ep["setup_s"] for ep in episodes]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    for episode in episodes:
        a, f = _check_jobs(episode["jobs"], failures)
        attempted, failed = attempted + a, failed + f
    failed += _check_repeats(episodes, failures)
    a, f = _verify_sample(episodes[0]["jobs"], seed, failures)
    attempted, failed = attempted + a, failed + f

    # Figures come from the untraced episodes only. The client's view of
    # a job contains the daemon's, so wire time is never negative.
    timed = episodes[:1] if trace else episodes
    pooled = [job for ep in timed for job in ep["jobs"]]
    wire = [w for ep in timed for w in ep["wire"]]
    negative = [w for w in wire if w < -1e-3]
    if len(wire) != len(pooled) or negative:
        failed += 1
        failures.append(f"client/daemon job latency disagree: {len(wire)} "
                        f"of {len(pooled)} jobs matched, {len(negative)} "
                        f"with daemon > client")

    # Times in reference seconds: each round's host seconds over its host
    # factor, then the median over episodes, per job and per round.
    scaled: dict = {}
    for episode in timed:
        for job in episode["jobs"]:
            ident = (job["round"], job["tenant"], job["slot"])
            scaled.setdefault(ident, []).append(
                job["latency_s"] / episode["round_factors"][job["round"]])
    kinds = {(j["round"], j["tenant"], j["slot"]): j["kind"]
             for j in timed[0]["jobs"]}
    per_job = {ident: median(v) for ident, v in scaled.items()}
    lat = list(per_job.values())
    warm = [v for k, v in per_job.items() if kinds[k] == "warm"]
    cold = [v for k, v in per_job.items() if kinds[k] == "cold"]
    sweep = sum(median(w / f for w, f in zip(ws, fs)) for ws, fs in zip(
        zip(*(ep["round_walls"] for ep in timed)),
        zip(*(ep["round_factors"] for ep in timed))))
    all_factors = [f for ep in timed for f in ep["round_factors"]]
    requests = sum(len(j["requests"]) for j in timed[0]["jobs"])
    bench_rss = self_peak_rss_mb()
    daemon_rss = max(ep["daemon_rss_mb"] or 0.0 for ep in timed)
    named = {
        "setup_s": ((median(w / f for w, f in setup), "s") if setup
                    else None),
        "sweep_wall_s": (sweep, "s"),
        "served_requests_per_s": (requests / sweep, "1/s"),
        "job_p50_s": (quantile(lat, 0.5), "s"),
        "job_p90_s": (quantile(lat, 0.9), "s"),
        "warm_job_p50_s": (quantile(warm, 0.5), "s"),
        "warm_job_p90_s": (quantile(warm, 0.9), "s"),
        "cold_job_p50_s": (quantile(cold, 0.5), "s"),
        "cold_job_p90_s": (quantile(cold, 0.9), "s"),
        "peak_rss_mb": (bench_rss + daemon_rss, "MB"),
        "bench_peak_rss_mb": (bench_rss, "MB"),
        "daemon_peak_rss_mb": (daemon_rss, "MB"),
        "client_job_p50_s": (quantile([j["latency_s"] for j in pooled],
                                      0.5), "s"),
        "daemon_job_p50_s": (quantile([j["daemon_s"] for j in pooled
                                       if j["daemon_s"] is not None]
                                      or [0.0], 0.5), "s"),
        "wire_p50_s": (quantile(wire or [0.0], 0.5), "s"),
        "host_factor": (median(all_factors), "ratio"),
        "setup_raw_s": ((median(w for w, _f in setup), "s") if setup
                        else None),
        "sweep_wall_raw_s": (sum(median(ws) for ws in zip(
            *(ep["round_walls"] for ep in timed))), "s"),
    }
    return {
        "named": named,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "per_layer": per_layer,
        "inputs": {
            "store_entries": len(used),
            "warm_share": len(warm) / len(lat),
            "rounds": n_rounds, "jobs": len(lat), "requests": requests,
            "episodes": len(episodes), "tenants": len(TENANTS),
            "connections": len(TENANTS),
        },
        "samples": {
            "setup_s_and_factor": setup,
            "round_wall_s": [ep["round_walls"] for ep in episodes],
            "round_host_factor": [ep["round_factors"] for ep in episodes],
            "jobs": [[[j["round"], j["tenant"], j["slot"], j["kind"],
                       j["latency_s"], j["daemon_s"]] for j in ep["jobs"]]
                     for ep in episodes],
        },
    }


def _drop_entries(store: str) -> None:
    """Self-test tamper: remove the first stored entry of every sweep, so
    that every warm replay misses once."""
    from repro.exec import SIM_VERSION, ShardedStore
    shards = ShardedStore(store)
    for sweep in stored_sweeps():
        with contextlib.suppress(FileNotFoundError):
            os.unlink(shards.entry_path(SIM_VERSION, sweep[0].key()))
