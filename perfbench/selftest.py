"""Tiny-scale self-test of the benchmark itself.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

It runs every workload on a tiny point set and store (``run.py --tiny``)
and checks that:

* untraced, every named end-to-end metric prints in the table with its
  unit, the JSON line carries every ``end_to_end`` metric of
  BENCHMARK.json with its unit, and the run is correct;
* traced, the JSON line carries every ``per_layer`` metric with its unit
  and the run is correct;
* the correctness gate fires: a flipped anchor float.hex on both
  pipeline workloads, and warm requests forced to miss the store on
  ``serve-mixed``, each make the command report ``correct: false`` and
  exit 1.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

PIPELINE_E2E = ("setup_s", "sweep_wall_s", "served_requests_per_s",
                "job_p50_s", "job_p90_s", "fail_ratio", "peak_rss_mb")
#: Named end-to-end metrics each workload must print, with their units.
TABLE = {
    "xhc-pipeline": PIPELINE_E2E,
    "xhc-pipeline-array": PIPELINE_E2E + ("array_rel_dev_max",
                                          "array_rel_dev_p50"),
    "serve-mixed": PIPELINE_E2E + ("warm_job_p50_s", "warm_job_p90_s",
                                   "cold_job_p50_s", "cold_job_p90_s",
                                   "bench_peak_rss_mb",
                                   "daemon_peak_rss_mb", "client_job_p50_s",
                                   "daemon_job_p50_s", "wire_p50_s"),
}
UNIT = re.compile(r"^\s+(\S+)\s+(-?[0-9][0-9.e+-]*|inf|nan)\s+(\S+)$")


def invoke(workload: str, trace: int, tamper: "str | None" = None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    if tamper:
        cmd += ["--tamper", tamper]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    table = {}
    for line in lines[:-1]:
        match = UNIT.match(line)
        if match:
            table[match.group(1)] = match.group(3)
    return proc, result, table


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for workload, names in TABLE.items():
        for trace, wanted in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            print(f"{workload}, trace {trace}:", flush=True)
            proc, result, table = invoke(workload, trace)
            expect(proc.returncode == 0 and result is not None
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace {trace} runs correct, exit 0 "
                   f"(exit {proc.returncode}, {proc.stderr[-300:]!r})")
            if result is None:
                continue
            got = result["metrics"]
            missing = [m["name"] for m in wanted
                       if got.get(m["name"], {}).get("unit") != m["unit"]
                       or not isinstance(got[m["name"]]["value"],
                                         (int, float))]
            expect(not missing and len(got) == len(wanted),
                   f"{workload} trace {trace}: JSON has every metric with "
                   f"its unit (missing or wrong: {missing})")
            if trace == 0:
                absent = [n for n in names if n not in table]
                expect(not absent, f"{workload}: table prints every named "
                                   f"metric with a unit (absent: {absent})")

    for workload, tamper in (("xhc-pipeline", "anchor-hex"),
                             ("xhc-pipeline-array", "anchor-hex"),
                             ("serve-mixed", "warm-miss")):
        print(f"{workload}, tampered ({tamper}):", flush=True)
        proc, result, _table = invoke(workload, 0, tamper)
        expect(proc.returncode == 1 and result is not None
               and not result["correct"] and result["failed"] >= 1,
               f"{workload}: the gate fires on {tamper} (exit "
               f"{proc.returncode}, failed "
               f"{result and result['failed']})")

    print(f"selftest: {'FAILED ' + str(len(problems)) if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
