"""The sweep daemon end-to-end: protocol, caching, fairness, drain.

Each fixture runs a real :class:`ServeDaemon` event loop on a background
thread, talking over an AF_UNIX socket in a *short* tmp dir (the 108-char
sun_path limit rules out pytest's deep tmp_path).
"""

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import warnings

import pytest

import repro
from repro.exec import Executor, ResultCache, RunRequest, SIM_VERSION
from repro.exec.store import ShardedStore
from repro.serve import (PROTOCOL_VERSION, ServeClient, ServeDaemon,
                         ServeError, ServeUnreachable)
from repro.tune.table import DecisionTable
from repro.xhc import XhcConfig


class DaemonFixture:
    def __init__(self, **kwargs):
        self.dir = tempfile.mkdtemp(prefix="rsv")
        self.socket_path = os.path.join(self.dir, "d.sock")
        kwargs.setdefault("cache", os.path.join(self.dir, "cache"))
        kwargs.setdefault("state_dir", self.dir)
        kwargs.setdefault("tables_root", os.path.join(self.dir, "tuned"))
        self.daemon = ServeDaemon(self.socket_path, **kwargs)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run()), daemon=True)

    def start(self):
        self.thread.start()
        for _ in range(200):
            if os.path.exists(self.socket_path):
                return self
            threading.Event().wait(0.02)
        raise RuntimeError("daemon socket never appeared")

    def stop(self):
        if self.thread.is_alive():
            try:
                with ServeClient(self.socket_path, timeout=10) as client:
                    client.shutdown()
            except ServeError:
                pass
            self.thread.join(timeout=10)
        shutil.rmtree(self.dir, ignore_errors=True)


@pytest.fixture
def served():
    fixture = DaemonFixture(workers=0, batch_size=2)
    fixture.start()
    yield fixture
    fixture.stop()


def _payloads(sizes=(64, 4096), component="xhc-tree"):
    return [RunRequest("epyc-1p", "bcast", size, 8, component=component,
                       warmup=1, iters=2).payload() for size in sizes]


# -- protocol basics ---------------------------------------------------------


def test_ping_reports_versions(served):
    with ServeClient(served.socket_path) as client:
        pong = client.ping()
    assert pong["ok"] is True
    assert pong["protocol"] == PROTOCOL_VERSION
    assert pong["sim_version"] == SIM_VERSION


def test_unknown_op_is_an_error_not_a_hangup(served):
    with ServeClient(served.socket_path) as client:
        with pytest.raises(ServeError, match="op"):
            client.request({"op": "frobnicate"})
        # The connection survives the error: the next op still answers.
        assert client.ping()["ok"] is True


def test_submit_requires_requests(served):
    with ServeClient(served.socket_path) as client:
        with pytest.raises(ServeError):
            client.request({"op": "submit", "tenant": "a", "requests": []})


def test_malformed_request_payload_is_rejected(served):
    with ServeClient(served.socket_path) as client:
        with pytest.raises(ServeError, match="unknown request field"):
            client.submit([{"system": "epyc-1p", "bogus_field": 1}])


def test_removed_option_field_is_a_bad_payload(served):
    payload = {**_payloads(sizes=(64,))[0],
               "options": {"data_movement": False, "record_copies": True}}
    with ServeClient(served.socket_path) as client:
        with pytest.raises(ServeError, match="bad request payload"):
            client.submit([payload])
        # The daemon keeps serving on the same connection.
        assert client.ping()["ok"] is True
        done = client.submit(_payloads(sizes=(64,)))
    assert len(done["results"]) == 1


def test_unreachable_daemon_raises_exit_code_2(tmp_path):
    client = ServeClient(str(tmp_path / "nowhere.sock"), timeout=0.5)
    with pytest.raises(ServeUnreachable) as excinfo:
        client.ping()
    assert excinfo.value.exit_code == 2
    assert "serve start" in str(excinfo.value)


# -- serving results ---------------------------------------------------------


def test_served_results_match_direct_executor_exactly(served):
    payloads = _payloads()
    events = []
    with ServeClient(served.socket_path) as client:
        done = client.submit(payloads, tenant="alice",
                             on_event=events.append)

    assert [e["event"] for e in events] == ["accepted"] + \
        ["progress"] * (len(events) - 1)
    assert done["stats"] == {"requests": 2, "new": 2, "cached": 0,
                             "errors": 0}
    with Executor(workers=0) as ex:
        direct = ex.run_many([RunRequest.from_payload(p)
                              for p in payloads])
    # Byte-identical answers: same latencies, same hashes as the
    # requests' own content addresses.
    for res, ref, payload in zip(done["results"], direct, payloads):
        assert res["latency_s"] == ref.latency_s
        assert res["provenance"]["request_hash"] \
            == RunRequest.from_payload(payload).key()
        assert res["provenance"]["sim_version"] == SIM_VERSION
        assert res["provenance"]["cache"] == "miss"


def test_warm_resubmit_serves_entirely_from_cache(served):
    payloads = _payloads()
    with ServeClient(served.socket_path) as client:
        cold = client.submit(payloads, tenant="alice")
    with ServeClient(served.socket_path) as client:
        warm = client.submit(payloads, tenant="bob")
    assert warm["stats"]["new"] == 0
    assert warm["stats"]["cached"] == len(payloads)
    assert [r["latency_s"] for r in warm["results"]] \
        == [r["latency_s"] for r in cold["results"]]
    assert all(r["provenance"]["cache"] == "hit" for r in warm["results"])


def test_cache_survives_daemon_restart():
    fixture = DaemonFixture(workers=0)
    fixture.start()
    payloads = _payloads()
    try:
        with ServeClient(fixture.socket_path) as client:
            client.submit(payloads)
        with ServeClient(fixture.socket_path) as client:
            client.shutdown()
        fixture.thread.join(timeout=10)

        # Same state dir, fresh daemon: everything is a hit.
        reborn = ServeDaemon(fixture.socket_path, workers=0,
                             cache=os.path.join(fixture.dir, "cache"),
                             state_dir=fixture.dir)
        thread = threading.Thread(
            target=lambda: asyncio.run(reborn.run()), daemon=True)
        thread.start()
        for _ in range(200):
            if os.path.exists(fixture.socket_path):
                break
            threading.Event().wait(0.02)
        with ServeClient(fixture.socket_path) as client:
            warm = client.submit(payloads)
            client.shutdown()
        thread.join(timeout=10)
        assert warm["stats"]["new"] == 0
        assert warm["stats"]["cached"] == len(payloads)
    finally:
        fixture.stop()


def test_component_error_is_per_request_not_fatal(served):
    good = _payloads(sizes=(64,))
    bad = _payloads(sizes=(64,), component="no-such-component")
    with ServeClient(served.socket_path) as client:
        done = client.submit(bad + good, tenant="a")
    assert done["stats"]["errors"] == 1
    by_component = {r["request"]["component"]: r for r in done["results"]}
    assert by_component["no-such-component"]["latency_s"] is None
    assert by_component["no-such-component"]["provenance"]["cache"] \
        == "error"
    assert "error" in by_component["no-such-component"]
    assert by_component["xhc-tree"]["latency_s"] is not None


# -- fairness ----------------------------------------------------------------


def test_two_concurrent_tenants_both_make_progress(served):
    # A whale (10 requests) and a minnow (2) submit together; the
    # minnow must finish long before the whale's tail, because chunk
    # dispatch round-robins across tenants (batch_size=2 here).
    whale_payloads = _payloads(sizes=tuple(64 * (i + 1) for i in range(10)))
    minnow_payloads = _payloads(sizes=(96, 97))
    order = []
    results = {}

    def run(tenant, payloads):
        with ServeClient(served.socket_path, timeout=60) as client:
            results[tenant] = client.submit(payloads, tenant=tenant)
        order.append(tenant)

    whale = threading.Thread(target=run, args=("whale", whale_payloads))
    whale.start()
    # Make sure the whale's job is queued first.
    for _ in range(200):
        if served.daemon.scheduler.submitted >= 1:
            break
        threading.Event().wait(0.01)
    minnow = threading.Thread(target=run, args=("minnow", minnow_payloads))
    minnow.start()
    minnow.join(timeout=120)
    whale.join(timeout=120)
    assert not minnow.is_alive() and not whale.is_alive()

    assert results["minnow"]["stats"]["errors"] == 0
    assert results["whale"]["stats"]["errors"] == 0
    assert results["whale"]["stats"]["requests"] == 10
    # If the minnow had been starved behind the whale, it would have
    # finished last every time; interleaving lets it finish first.
    if order[0] == "whale":
        # Tolerate the race where the whale drained before the minnow
        # was even accepted — but the minnow must still have been served.
        assert results["minnow"]["stats"]["requests"] == 2


def test_status_reports_queue_store_and_metrics(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads())
        status = client.status()
    assert status["protocol"] == PROTOCOL_VERSION
    assert status["sim_version"] == SIM_VERSION
    assert status["accepting"] is True
    assert status["store"]["entries"] == 2
    assert status["executor"]["simulations"] == 2
    assert status["metrics"]["serve.jobs.completed"]["value"] == 1
    assert status["queue"]["pending_requests"] == 0
    # Telemetry-era additions (protocol still v1; old keys untouched).
    assert status["queue"]["inflight_chunks"] == 0
    assert status["queue"]["tenant_totals"]["default"] \
        == {"submitted": 1, "completed": 1}
    assert status["cache"]["misses"] == 2
    assert status["cache"]["evictions"] == 0


# -- served tables -----------------------------------------------------------


def test_tables_endpoint_serves_and_lists(served):
    tables_dir = os.path.join(served.dir, "tuned")
    table = DecisionTable()
    table.record("epyc-1p", "bcast", 65536, XhcConfig(hierarchy="numa"),
                 2e-6, baseline_s=4e-6, nranks=16)
    os.makedirs(tables_dir, exist_ok=True)
    table.save(os.path.join(tables_dir, "decision_table.json"))

    with ServeClient(served.socket_path) as client:
        found = client.tables("epyc-1p", "bcast", 65536)
        missing = client.tables("arm-n1", "bcast", 64)
        listing = client.tables()
    assert found["found"] is True
    assert found["decision"]["config"]["hierarchy"] == "numa"
    assert found["decision"]["etag"]
    assert missing["found"] is False
    assert len(listing["tables"]) == 1
    assert listing["tables"][0]["entries"] == 1


# -- graceful shutdown -------------------------------------------------------


def test_shutdown_drains_inflight_jobs():
    fixture = DaemonFixture(workers=0, batch_size=1)
    fixture.start()
    payloads = _payloads(sizes=tuple(64 + i for i in range(6)))
    done_holder = {}

    def submit():
        with ServeClient(fixture.socket_path, timeout=60) as client:
            done_holder["done"] = client.submit(payloads, tenant="a")

    try:
        submitter = threading.Thread(target=submit)
        submitter.start()
        for _ in range(400):
            if fixture.daemon.scheduler.submitted >= 1:
                break
            threading.Event().wait(0.01)
        # Shutdown while the job is (likely) still running chunks: the
        # submitter must still receive its full done event.
        with ServeClient(fixture.socket_path, timeout=60) as client:
            bye = client.shutdown()
        submitter.join(timeout=120)
        fixture.thread.join(timeout=30)
        assert not submitter.is_alive()
        assert bye["event"] == "bye"
        done = done_holder["done"]
        assert done["stats"]["requests"] == len(payloads)
        assert done["stats"]["errors"] == 0
        # The socket is gone: the daemon is actually down.
        assert not os.path.exists(fixture.socket_path)
    finally:
        fixture.stop()


def test_submit_after_drain_is_refused():
    fixture = DaemonFixture(workers=0)
    fixture.start()
    try:
        with ServeClient(fixture.socket_path) as client:
            client.shutdown()
        fixture.thread.join(timeout=10)
        with pytest.raises(ServeUnreachable):
            ServeClient(fixture.socket_path, timeout=0.5).ping()
    finally:
        fixture.stop()


def test_request_ledger_written_per_job(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads(), tenant="alice")
    from repro.serve import RequestLog
    records = RequestLog(served.dir).records()
    jobs = [r for r in records if r.get("kind") == "job"]
    assert len(jobs) == 1
    assert jobs[0]["tenant"] == "alice"
    assert jobs[0]["requests"] == 2
    assert len(jobs[0]["request_hashes"]) == 2


# -- store work follows the chunk, not the store --------------------------


def _populate(root, n):
    """Write ``n`` entries straight into the store (no simulation) and
    return their payloads; a daemon over ``root`` serves them as hits."""
    payloads = _payloads(sizes=tuple(100_000 + i for i in range(n)))
    cache = ResultCache(root)
    for i, payload in enumerate(payloads):
        cache.put(payload, 1e-6 * (i + 1))
    cache.save()
    return payloads


def _count_store_walks(monkeypatch):
    """Record every full-store walk (``scan``) and every digest-set scan
    (``_scan_digests``, by generation) made from now on."""
    calls = {"scan": 0, "scan_digests": []}
    scan, scan_digests = ShardedStore.scan, ShardedStore._scan_digests

    def counted_scan(self):
        calls["scan"] += 1
        return scan(self)

    def counted_scan_digests(self, version):
        calls["scan_digests"].append(version)
        return scan_digests(self, version)

    monkeypatch.setattr(ShardedStore, "scan", counted_scan)
    monkeypatch.setattr(ShardedStore, "_scan_digests", counted_scan_digests)
    return calls


def test_store_walks_follow_work_not_store_size(monkeypatch):
    fixture = DaemonFixture(workers=0, batch_size=4)
    root = os.path.join(fixture.dir, "cache")
    stored = _populate(root, 200)
    calls = _count_store_walks(monkeypatch)
    fixture.start()
    try:
        with ServeClient(fixture.socket_path) as client:
            for job in range(3):
                warm = client.submit(stored[job * 8:(job + 1) * 8])
                assert warm["stats"]["cached"] == 8
                assert all(r["provenance"]["cache"] == "hit"
                           for r in warm["results"])
        # Warm-only chunks write nothing, so they never walk the store;
        # the digest set is listed at most once, lazily.
        assert calls["scan"] == 0
        assert calls["scan_digests"].count(SIM_VERSION) <= 1

        cold_payloads = _payloads(sizes=(64, 96, 128, 160, 192))
        with ServeClient(fixture.socket_path) as client:
            cold = client.submit(cold_payloads)
        assert cold["stats"]["new"] == len(cold_payloads)
        # Writing M entries rescans no shard directory per write.
        assert calls["scan"] == 0
        assert calls["scan_digests"].count(SIM_VERSION) <= 1

        with ServeClient(fixture.socket_path) as client:
            client.shutdown()
        fixture.thread.join(timeout=10)
        # The drain derives the ledger from the files.
        store = ShardedStore(root)
        ledger = store.load_ledger()
        assert (ledger["entries"], ledger["bytes"]) == store.totals()
        assert ledger["entries"] == 200 + len(cold_payloads)
    finally:
        fixture.stop()


def _spawn_daemon(socket_path, root, state_dir):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    log_path = os.path.join(state_dir, "daemon.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start",
             "--socket", socket_path, "--cache", root,
             "--state-dir", state_dir, "--parallel", "0",
             "--batch-size", "1"],
            env=env, stdout=log, stderr=subprocess.STDOUT)
    for _ in range(1000):
        if proc.poll() is not None:
            with open(log_path) as log:
                raise RuntimeError(log.read())
        if os.path.exists(socket_path):
            try:
                with ServeClient(socket_path, timeout=5) as client:
                    client.ping()
                return proc
            except ServeError:
                pass
        threading.Event().wait(0.02)
    proc.kill()
    raise RuntimeError("daemon never answered ping")


def test_killed_daemon_keeps_every_answered_entry():
    fixture = DaemonFixture(workers=0)
    root = os.path.join(fixture.dir, "cache")
    _populate(root, 3)                  # the ledger now says 3 entries
    jobs = [_payloads(sizes=(64 + i, 1024 + i)) for i in range(3)]
    proc = _spawn_daemon(os.path.join(fixture.dir, "k.sock"), root,
                         fixture.dir)
    try:
        answered = []
        with ServeClient(os.path.join(fixture.dir, "k.sock"),
                         timeout=60) as client:
            for payloads in jobs:
                done = client.submit(payloads)
                assert done["stats"]["errors"] == 0
                answered.extend(done["results"])
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    # Every answered request is on disk, whole and readable.
    store = ShardedStore(root)
    for result in answered:
        entry = store.read(SIM_VERSION, result["provenance"]["request_hash"])
        assert entry is not None
        assert entry["latency_s"] == result["latency_s"]
    # The killed daemon never derived a ledger; it still says 3.
    assert store.load_ledger()["entries"] == 3

    fixture.start()
    try:
        with ServeClient(fixture.socket_path) as client:
            for payloads in jobs:
                warm = client.submit(payloads)
                assert all(r["provenance"]["cache"] == "hit"
                           for r in warm["results"])
            client.shutdown()
        fixture.thread.join(timeout=10)
        ledger = store.load_ledger()
        assert (ledger["entries"], ledger["bytes"]) == store.totals()
        assert ledger["entries"] == 3 + len(answered)
    finally:
        fixture.stop()


def test_bounded_store_evicts_only_after_chunks_that_wrote(monkeypatch):
    fixture = DaemonFixture(workers=0, batch_size=2, max_entries=3)
    root = os.path.join(fixture.dir, "cache")
    evicts = []
    evict = ShardedStore.evict

    def counted_evict(self):
        evicts.append(self.root)
        return evict(self)

    monkeypatch.setattr(ShardedStore, "evict", counted_evict)
    fixture.start()
    payloads = _payloads(sizes=(64, 96, 128, 160, 192, 224))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ServeClient(fixture.socket_path) as client:
                cold = client.submit(payloads)
        assert cold["stats"]["new"] == len(payloads)
        # Three cold chunks, each wrote and evicted; the bound holds.
        assert len(evicts) == 3
        assert ShardedStore(root).totals()[0] <= 3
        evicted = fixture.daemon.executor.cache.store.evictions_total
        assert evicted == len(payloads) - 3

        evicts.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ServeClient(fixture.socket_path) as client:
                warm = client.submit(payloads)
        assert warm["stats"]["cached"] == len(payloads)
        # Warm chunks wrote nothing: no eviction pass, no warning.
        assert evicts == []
        assert fixture.daemon.executor.cache.store.evictions_total == evicted
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
    finally:
        fixture.stop()
