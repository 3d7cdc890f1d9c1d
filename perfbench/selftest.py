"""Self-test of the benchmark itself (not of avloc).

    python3 perfbench/selftest.py

Checks that:
1. BENCHMARK.json names exactly the workloads and metrics run.py reports,
   with the same units;
2. tracing leaves no wrapper behind and changes nothing: a traced
   train-desk training gives bit-identical losses and parameters to an
   untraced one, and every avloc attribute is the original object again
   after `uninstall`;
3. the exact work counters of a traced run (`nodes_per_video`, `*.calls`,
   the computed GFLOP, leaf bytes, bytes read, reads per video) repeat
   exactly across two runs of one seed, on every workload.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import run
from spans import Tracer, per_layer_metrics
from workloads import WORKLOADS, Checks, set_up

EXACT_SUFFIXES = (".calls", ".gflop", "nodes_per_video", "leaf_bytes_per_video",
                  "data.bytes_read", "data.reads_per_video")


def check_spec() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", list(run.END_TO_END)),
                       ("per_layer", per_layer_metrics())):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != table:
            problems.append(f"{key} in BENCHMARK.json differs from what run.py reports: "
                            f"{sorted(set(listed) ^ set(table))}")
    return problems


def _snapshot(avloc) -> dict:
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "avloc" or name.startswith("avloc.")):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def check_tracing_is_transparent(avloc) -> list[str]:
    wl = dataclasses.replace(WORKLOADS["train-desk"], datasets=1, epochs=4)
    problems = []
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        setup = set_up(avloc, wl, 7, tmp, Checks(print))
        ds = setup.datasets[0]
        before = _snapshot(avloc)
        plain_params, plain = avloc.train(setup.cfg, ds.manifest, ds.data_dir)
        tracer = Tracer(avloc)
        tracer.install()
        try:
            traced_params, traced = avloc.train(setup.cfg, ds.manifest, ds.data_dir)
        finally:
            tracer.uninstall()
        after = _snapshot(avloc)
    if not tracer.spans:
        problems.append("the traced run recorded no spans")
    if plain.losses != traced.losses or plain.accuracy != traced.accuracy:
        problems.append(f"traced losses {traced.losses} != untraced {plain.losses}")
    for (name, a), (_, b) in zip(plain_params.items(), traced_params.items()):
        if not np.array_equal(a, b):
            problems.append(f"traced training changed parameter {name}")
    if tracer.leftover_wrappers():
        problems.append(f"wrappers left installed: {tracer.leftover_wrappers()}")
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or before.keys() != after.keys():
        problems.append(f"avloc attributes not restored: {changed[:5]}")
    return problems


def _traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run reported failures: {done.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(EXACT_SUFFIXES)}


def check_counters_repeat() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        first, second = _traced_counts(workload), _traced_counts(workload)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            problems.append(f"{workload}: counters differ between runs: {diff}")
        print(f"{workload}: {len(first)} exact counters, "
              f"{'identical' if not diff else 'DIFFERENT'} across two runs", flush=True)
    return problems


def main() -> int:
    avloc = run.import_avloc()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    failures = 0
    for name, check in (("BENCHMARK.json matches run.py", check_spec),
                        ("tracing is transparent", lambda: check_tracing_is_transparent(avloc)),
                        ("exact counters repeat", check_counters_repeat)):
        problems = check()
        failures += bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {name}", flush=True)
        for p in problems:
            print(f"     {p}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
