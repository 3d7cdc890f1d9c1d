"""Alternating benchmark pairs: a base revision against the working tree.

    python3 tools/bench_pairs.py --pairs 10 --out BENCH_<n>.json

Each pair runs `perfbench/run.py --trace 0` once on each side with the same
seed and BENCHMARK.json's run length, the two sides taking turns to go
first. Both sides run from copies made the same way (see `_export`) in
temporary directories, which are removed when the runs end: the base side
is `--base` (default HEAD~1), and the change side is the working tree as
it is, uncommitted edits and untracked files included, ignored files left
out. Run it from the root of the repository.

The output JSON holds both commits, the line count of each side's
`src/**/*.py` and their difference, the host as the runs' `# env` lines
report it, and for each workload and end-to-end metric both sides' values,
medians and interquartile ranges, the number of pairs the change won
(strictly better in the metric's direction from BENCHMARK.json), the
per-pair ratios change/base with their median and interquartile range, and
one `verdict` (see `verdict`). The run prints the verdicts and the line
change when it ends. The file is rewritten after every pair, so a stopped
run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu", "python", "numpy", "blas", "blas_threads")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(env, result) of one run.py output: its `# env` line and its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    if env is None or not lines:
        raise ValueError("run.py output has no '# env' line or no result line")
    return env, json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's verdict over paired runs, `bound` being the fraction of
    the base median by which the change may be worse.

    - "gain": the change wins at least 9 in 10 of the pairs (a tie wins for
      neither side) and its median is better than the base's by more than
      the interquartile range of the base runs;
    - "worse": its median is worse than the base's by more than the bound;
    - "unresolved": the interquartile range of the per-pair ratios
      change/base, in which host drift shared by the two runs of a pair
      cancels, is wider than the bound, unless every change run is better
      than every base run;
    - "within bound" otherwise.
    """
    sign = 1 if better == "higher" else -1
    b, c = _spread(base), _spread(change)
    ahead = sign * (c["median"] - b["median"])
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
    if wins >= 0.9 * len(base) and ahead > b["iqr"]:
        return "gain"
    if -ahead > bound * abs(b["median"]):
        return "worse"
    # an infinite ratio (a zero base run) can make the IQR NaN, which counts as wide
    if (not _spread(ratios(base, change))["iqr"] <= bound
            and not min(sign * y for y in change) > max(sign * x for x in base)):
        return "unresolved"
    return "within bound"


def ratios(base: list[float], change: list[float]) -> list[float]:
    """change/base per pair; a zero base gives 1 for an equal change and
    infinity otherwise."""
    return [c / b if b else (1.0 if c == 0 else math.inf) for b, c in zip(base, change)]


def summarize(pairs: list[tuple[dict, dict]], metrics: dict[str, dict]) -> dict:
    """Per metric of one workload's (base result, change result) pairs;
    `metrics` holds BENCHMARK.json's end-to-end entries by name."""
    out = {}
    for name, first in pairs[0][0]["metrics"].items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        better, bound = metrics[name]["better"], metrics[name]["bound"]
        sign = 1 if better == "higher" else -1
        out[name] = {"unit": first["unit"], "better": better, "bound": bound,
                     "base": _spread(base), "change": _spread(change),
                     "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                     "ties": sum(c == b for b, c in zip(base, change)),
                     "ratio": _spread(ratios(base, change)),
                     "verdict": verdict(base, change, better, bound)}
    out["failed_operations"] = {"base": sum(b["failed"] for b, _ in pairs),
                                "change": sum(c["failed"] for _, c in pairs)}
    return out


def src_lines(tree: str) -> int:
    """Lines of the Python files under the tree's src/, as `wc -l` counts them."""
    total = 0
    for root, _, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def _git(*args: str, repo: str = ROOT, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=repo, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(repo: str, rev: str | None, into: str) -> None:
    """Extract the repository's `rev`, or with None its working tree, into
    `into` with `git archive`.

    The working tree is staged into a temporary index, so the repository's
    own index is untouched: its tracked files as they are on disk, a deleted
    one left out, and its untracked files that .gitignore does not exclude.
    """
    if rev is None:
        with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
            env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
            _git("read-tree", "HEAD", repo=repo, env=env)
            _git("add", "--all", repo=repo, env=env)
            rev = _git("write-tree", repo=repo, env=env)
    archive = subprocess.run(["git", "archive", rev], cwd=repo, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def _run(tree: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: run.py {workload} seed {seed} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    doc = {"base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
           "change": {"commit": _git("rev-parse", "HEAD"),
                      "uncommitted_edits": bool(_git("status", "--porcelain", "--",
                                                     "src", "perfbench"))},
           "seconds": bench["run_seconds"], "host": None, "workloads": {}}
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {side: os.path.join(scratch, side) for side in ("base", "change")}
        _export(ROOT, args.base, trees["base"])
        _export(ROOT, None, trees["change"])
        for side, tree in trees.items():
            doc[side]["src_lines"] = src_lines(tree)
        doc["src_lines_change"] = doc["change"]["src_lines"] - doc["base"]["src_lines"]
        for workload in workloads:
            pairs, seeds = [], []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                runs = {side: _run(trees[side], workload, seed, bench["run_seconds"])
                        for side in order}
                for side, (env, _) in runs.items():
                    doc[side].setdefault("src_sha256", env["src_sha256"])
                doc["host"] = {k: runs["change"][0].get(k) for k in HOST_KEYS}
                pairs.append((runs["base"][1], runs["change"][1]))
                seeds.append(seed)
                doc["workloads"][workload] = {"pairs": len(pairs), "seeds": seeds,
                                              "metrics": summarize(pairs, metrics)}
                with open(args.out, "w", encoding="utf-8") as f:
                    json.dump(doc, f, indent=1)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{side} videos_per_s {runs[side][1]['metrics']['videos_per_s']['value']:.4g}"
                    for side in ("base", "change")), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for workload, result in doc["workloads"].items():
        for name, m in result["metrics"].items():
            if name != "failed_operations":
                print(f"{workload} {name}: {m['verdict']} "
                      f"(median {m['base']['median']:.6g} -> {m['change']['median']:.6g}, "
                      f"base IQR {m['base']['iqr']:.3g}, ratio {m['ratio']['median']:.4f} "
                      f"IQR {m['ratio']['iqr']:.3g}, change won {m['change_wins']}/"
                      f"{result['pairs']})")
    print(f"src/ lines: {doc['base']['src_lines']} -> {doc['change']['src_lines']} "
          f"({doc['src_lines_change']:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
