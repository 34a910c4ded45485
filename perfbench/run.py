"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload xhc-pipeline --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` is the separate traced invocation and prints every
per-layer metric. Names and units come from BENCHMARK.json. A readable
table goes first, and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Any wrong answer makes the command exit 1. perfbench/README.md says what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("xhc-pipeline", "xhc-pipeline-array", "serve-mixed")

#: Every end-to-end metric the benchmark reports, in table order. The
#: ones a workload does not have print as n/a; BENCHMARK.json gates the
#: subset every workload has.
NAMED_E2E = ("setup_s", "sweep_wall_s", "served_requests_per_s",
             "job_p50_s", "job_p90_s", "array_rel_dev_max",
             "array_rel_dev_p50", "warm_job_p50_s", "warm_job_p90_s",
             "cold_job_p50_s", "cold_job_p90_s", "fail_ratio",
             "peak_rss_mb", "bench_peak_rss_mb", "daemon_peak_rss_mb",
             "client_job_p50_s", "daemon_job_p50_s", "wire_p50_s",
             "host_factor", "setup_raw_s", "sweep_wall_raw_s")


def make_tracer(install: bool = True):
    from tracer import Tracer, instrument
    tracer = Tracer()
    if install:
        instrument(tracer)
    return tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tamper: str | None, tiny: bool) -> dict:
    if name == "serve-mixed":
        import serve_mixed
        return serve_mixed.run(seed, seconds, trace, make_tracer, tamper,
                               tiny)
    import pipeline
    engine = "array" if name == "xhc-pipeline-array" else "event"
    return pipeline.run(engine, seed, seconds, trace, make_tracer, tamper,
                        tiny)


def traced_layers(result: dict, workload: str, seed: int,
                  wanted: "list[dict]") -> dict:
    """Per-layer metrics, self-time account and Perfetto document."""
    from repro.obs.export import validate_chrome_trace

    import report
    from common import STATE_DIR

    info = result["per_layer"]
    dumps = [("benchmark", info["tracer"].dump())]
    if "daemon_trace" in info:
        dumps.append(("serve daemon", info["daemon_trace"]))
    overhead = info["traced_wall_s"] / info["untraced_wall_s"]
    layers = report.layer_metrics([d for _l, d in dumps], overhead,
                                  info.get("serve"), wanted)
    print(f"per-layer metrics ({workload}, traced):")
    for name, (value, unit) in layers.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    accounts = {}
    for label, dump in dumps:
        rows, check = report.account(dump)
        accounts[label] = {"rows": rows, "check": check}
        print(f"self-time account, {label}: traced wall "
              f"{check['wall_s']:.4f} s x {check['threads']} span "
              f"thread(s) = {check['base_s']:.4f} s")
        for layer, secs in rows:
            share = secs / check["base_s"] if check["base_s"] else 0.0
            print(f"  {layer:24s} {secs:10.4f} s  {share:7.1%}")
        if not check["closes"]:
            result["failed"] += 1
            result["failures"].append(
                f"{label}: self times {check['self_sum_s']:.6f} s do not "
                f"close on span cover {check['root_s']:.6f} s")
    print(f"  trace.overhead_ratio {overhead:.3f} (traced "
          f"{info['traced_wall_s']:.4f} s / untraced "
          f"{info['untraced_wall_s']:.4f} s)")
    doc = report.perfetto(dumps)
    errors = validate_chrome_trace(doc)
    if errors:
        result["failed"] += 1
        result["failures"].append(f"Perfetto document invalid: {errors[:3]}")
    path = os.path.join(STATE_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"  Perfetto trace: {path} ({len(doc['traceEvents'])} events)")
    result["accounts"] = accounts
    return layers


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (selftest.py): a corrupted expectation, and a
    # tiny point set and store.
    parser.add_argument("--tamper", choices=("anchor-hex", "warm-miss"),
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (os.path.isdir(os.path.join("src", "repro"))
            and os.path.isfile("BENCHMARK.json")):
        print("perfbench: run from the root of a repository checkout "
              "(src/repro and BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.abspath("src")]
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)

    from common import STATE_DIR, fingerprint, write_record

    os.makedirs(STATE_DIR, exist_ok=True)
    t0 = time.time()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.tamper, args.tiny)
    if args.trace:
        wanted = spec["per_layer"]
        measured = traced_layers(result, args.workload, args.seed, wanted)
    else:
        wanted = spec["end_to_end"]
        measured = {k: v for k, v in result["named"].items() if v}
        measured["fail_ratio"] = (result["failed"] / result["attempted"],
                                  "ratio")
        print(f"end-to-end metrics ({args.workload}, untraced):")
        for name in NAMED_E2E:
            if name in measured:
                value, unit = measured[name]
                print(f"  {name:24s} {value:14.6g} {unit}")
            else:
                print(f"  {name:24s} {'n/a':>14s}   (not on this workload)")
    for failure in result["failures"][:20]:
        print(f"  FAILED: {failure}")
    metrics = {m["name"]: {"value": measured[m["name"]][0],
                           "unit": m["unit"]} for m in wanted}
    correct = result["failed"] == 0
    host = fingerprint()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"inputs: {json.dumps(result['inputs'], sort_keys=True)[:400]}")
    path = write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(t0)}",
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "host": host,
         "inputs": result["inputs"], "samples": result["samples"],
         "named": {k: list(v) for k, v in measured.items()},
         "accounts": result.get("accounts"), "correct": correct,
         "attempted": result["attempted"], "failed": result["failed"],
         "failures": result["failures"], "started_unix": t0})
    print(f"record: {path}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
