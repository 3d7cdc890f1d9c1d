"""The pairs summary of tools/bench_pairs.py, on canned run.py output; no
benchmark runs."""

import json
import os
import runpy
import subprocess

import pytest

PAIRS = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "tools", "bench_pairs.py"))
METRICS = {"videos_per_s": {"better": "higher", "bound": 0.25},
           "final_loss": {"better": "lower", "bound": 0.25}}


def _output(videos_per_s, final_loss, failed=0):
    env = {"nproc": 2, "cpu": "x", "python": "3.11", "numpy": "2.4", "blas": "openblas",
           "blas_threads": 2, "commit": "c", "src_sha256": "s"}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "videos_per_s": {"value": videos_per_s, "unit": "1/s"},
        "final_loss": {"value": final_loss, "unit": "loss"}}}
    return "\n".join(["# env " + json.dumps(env), "# train-desk seed 1: error_rate 0/10",
                      "# videos_per_s  1 1/s", json.dumps(result), ""])


def test_parse_run_reads_the_env_line_and_the_last_line():
    env, result = PAIRS["parse_run"](_output(5.0, 0.5))
    assert env["blas_threads"] == 2 and env["src_sha256"] == "s"
    assert result["metrics"]["videos_per_s"]["value"] == 5.0


def test_parse_run_rejects_output_without_an_env_line():
    with pytest.raises(ValueError):
        PAIRS["parse_run"](json.dumps({"metrics": {}}))


def test_summary_gives_medians_iqrs_and_wins_in_each_metrics_direction():
    parse = PAIRS["parse_run"]
    runs = [((10.0, 0.5), (12.0, 0.5)), ((11.0, 0.5), (10.5, 0.5)),
            ((9.0, 0.5), (13.0, 0.5)), ((10.0, 0.5), (12.5, 0.4))]
    pairs = [(parse(_output(*b))[1], parse(_output(*c, failed=1))[1]) for b, c in runs]
    summary = PAIRS["summarize"](pairs, METRICS)
    rate = summary["videos_per_s"]
    assert rate["base"]["values"] == [10.0, 11.0, 9.0, 10.0]
    assert rate["base"]["median"] == 10.0
    assert rate["base"]["iqr"] == pytest.approx(10.25 - 9.75)
    assert rate["change"]["median"] == 12.25
    assert rate["change_wins"] == 3 and rate["ties"] == 0
    loss = summary["final_loss"]
    assert loss["better"] == "lower" and loss["unit"] == "loss"
    assert loss["change_wins"] == 1 and loss["ties"] == 3 and loss["base"]["iqr"] == 0.0
    assert summary["failed_operations"] == {"base": 0, "change": 4}


def test_one_pair_has_zero_spread():
    result = PAIRS["parse_run"](_output(3.0, 1.0))[1]
    summary = PAIRS["summarize"]([(result, result)], METRICS)
    assert summary["videos_per_s"]["base"] == {"median": 3.0, "iqr": 0.0, "values": [3.0]}
    assert summary["videos_per_s"]["change_wins"] == 0
    assert summary["videos_per_s"]["verdict"] == "within bound"


BASE = [100.0, 98.0, 102.0, 101.0, 99.0, 100.0, 97.0, 103.0, 100.0, 100.0]  # IQR 1.5


@pytest.mark.parametrize("change, better, expected", [
    ([x + 5 for x in BASE], "higher", "gain"),
    ([x - 5 for x in BASE], "lower", "gain"),
    # 9 of 10 wins, but the medians differ by 1.0, inside the base IQR
    ([x + 1.0 for x in BASE[:9]] + [90.0], "higher", "within bound"),
    # a 5-point lead won in only 8 of 10 pairs
    ([x + 5 for x in BASE[:8]] + [90.0, 90.0], "higher", "within bound"),
    ([x - 30 for x in BASE], "higher", "worse"),
    ([x + 30 for x in BASE], "lower", "worse"),
    ([x - 20 for x in BASE], "higher", "within bound"),
    (list(BASE), "higher", "within bound"),
], ids=["higher_gain", "lower_gain", "wins_inside_the_iqr", "eight_of_ten",
        "higher_worse", "lower_worse", "worse_inside_the_bound", "ties"])
def test_verdict_on_canned_pairs(change, better, expected):
    assert PAIRS["verdict"](BASE, change, better, 0.25) == expected


@pytest.mark.parametrize("base, change, better, expected", [
    # base median 2.0 and IQR 2.0, wider than the bound of 0.5
    ([0.0, 0.1, 2.0, 2.1, 2.2], [0.1, 0.2, 2.1, 2.2, 2.3], "higher", "unresolved"),
    ([0.0, 0.1, 2.0, 2.1, 2.2], [2.3, 2.4, 2.5, 2.6, 2.7], "higher", "within bound"),
    ([1.8, 1.9, 2.0, 3.9, 4.0], [1.3, 1.4, 1.5, 1.6, 1.7], "lower", "within bound"),
    ([0.0, 0.1, 2.0, 2.1, 2.2], [0.0, 0.1, 1.4, 2.1, 2.2], "higher", "worse"),
], ids=["unresolved", "every_run_better_higher", "every_run_better_lower", "worse"])
def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better(
        base, change, better, expected):
    assert PAIRS["verdict"](base, change, better, 0.25) == expected


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    for tree, files in (("base", {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/b.py": "z\n"}),
                        ("change", {"src/pkg/a.py": "x = 1\n", "src/pkg/sub/c.py": "1\n2\n3\n",
                                    "src/pkg/notes.txt": "not\ncounted\n",
                                    "tests/test_a.py": "not counted\n"})):
        for name, text in files.items():
            path = tmp_path / tree / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    assert PAIRS["src_lines"](str(tmp_path / "base")) == 3
    assert PAIRS["src_lines"](str(tmp_path / "change")) == 4


def test_both_sides_are_exported_the_same_way(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, check=True, capture_output=True, text=True).stdout

    files = {".gitignore": "out/\n__pycache__/\n", "src/a.py": "a = 1\n", "gone.txt": "x\n"}
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git("init", "-q")
    git("add", "--all")
    git("commit", "-q", "-m", "base")
    (repo / "src/a.py").write_text("a = 2\n")  # a tracked edit
    (repo / "gone.txt").unlink()                # a tracked file deleted
    (repo / "new.txt").write_text("new\n")     # untracked, not ignored
    for ignored in ("out/result.json", "src/__pycache__/a.pyc"):
        (repo / ignored).parent.mkdir(parents=True, exist_ok=True)
        (repo / ignored).write_text("ignored\n")
    status = git("status", "--porcelain")

    def exported(rev):
        into = tmp_path / f"export-{rev}"
        PAIRS["_export"](str(repo), rev, str(into))
        return {str(p.relative_to(into)): p.read_text()
                for p in sorted(into.rglob("*")) if p.is_file()}

    assert exported("HEAD") == files
    assert exported(None) == {".gitignore": files[".gitignore"], "src/a.py": "a = 2\n",
                              "new.txt": "new\n"}
    assert git("status", "--porcelain") == status  # the repository's index is untouched


def test_drift_that_both_sides_of_a_pair_share_is_within_bound():
    # the host slows by half over the run; each change run is 3% ahead of its pair
    drift = [100.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 65.0, 60.0, 55.0]
    change = [x * 1.03 for x in drift]
    assert PAIRS["verdict"](drift, change, "higher", 0.25) == "within bound"


# pair ratios alternating 0.6 and 1.4: their IQR of 0.8 is wider than the bound
WIDE = (0.6, 1.4, 0.6, 1.4, 1.0, 1.0, 0.6, 1.4, 0.6, 1.4)


@pytest.mark.parametrize("base, change, better, expected", [
    # the base IQR (1.5) is inside the bound, the ratios' IQR is not
    (BASE, [x * r for x, r in zip(BASE, WIDE)], "higher", "unresolved"),
    (BASE, [x * r for x, r in zip(BASE, WIDE)], "lower", "unresolved"),
    # ratios 1.05 and 1.68, base IQR 40: every change run beats every base run
    ([60.0, 100.0] * 5, [101.0, 105.0] * 5, "higher", "within bound"),
    ([100.0, 60.0] * 5, [59.0, 57.0] * 5, "lower", "within bound"),
], ids=["higher", "lower", "every_run_better_higher", "every_run_better_lower"])
def test_pair_ratios_wider_than_the_bound_are_unresolved_unless_every_run_is_better(
        base, change, better, expected):
    assert PAIRS["verdict"](base, change, better, 0.25) == expected


FLAT = [100.0] * 10


@pytest.mark.parametrize("base, change, expected", [
    # pair ratios 1.02 and 1.6 (IQR 0.58), every pair won by more than the base IQR
    (BASE, [x * r for x, r in zip(BASE, (1.02, 1.6) * 5)], "gain"),
    # pair ratios 0.2 and 1.0 (IQR 0.8), the median 41% behind
    (BASE, [x * r for x, r in zip(BASE, (0.2, 1.0) * 5)], "worse"),
    # pair ratios 1.0 and 1.25: an IQR equal to the bound is not wider
    (FLAT, [125.0, 100.0] * 5, "within bound"),
    (FLAT, [126.0, 100.0] * 5, "unresolved"),
    # eight zero base runs: the ratios' quartiles are both infinite, their IQR NaN
    ([0.0] * 8 + [1.0, 1.0], [1.0] * 10, "unresolved"),
], ids=["gain_before_unresolved", "worse_before_unresolved", "ratio_iqr_at_the_bound",
        "ratio_iqr_past_the_bound", "ratio_iqr_nan"])
def test_verdict_order_and_the_ratio_iqr_bound(base, change, expected):
    assert PAIRS["verdict"](base, change, "higher", 0.25) == expected


def test_a_paired_lead_inside_the_base_iqr_is_no_gain():
    # 9 of 10 pairs won, ratio median 0.973 with IQR 0.02, against a base
    # IQR of 3% of its median
    base = [100.0, 96.0, 104.0, 102.0, 98.0, 100.0, 95.0, 105.0, 100.0, 100.0]
    r = (0.976, 0.95, 0.962, 0.96, 0.962, 0.982, 1.01, 0.97, 0.99, 0.982)
    change = [x * q for x, q in zip(base, r)]
    ratio = PAIRS["_spread"](PAIRS["ratios"](base, change))
    assert ratio["median"] == pytest.approx(0.973)
    assert ratio["iqr"] == pytest.approx(0.02)
    assert PAIRS["_spread"](base)["iqr"] > 0.027 * 100.0
    assert PAIRS["verdict"](base, change, "lower", 0.25) == "within bound"


def test_summary_keeps_one_verdict_and_the_ratios():
    parse = PAIRS["parse_run"]
    pairs = [(parse(_output(b, 0.5))[1], parse(_output(b * 1.1, 0.5))[1]) for b in BASE]
    summary = PAIRS["summarize"](pairs, METRICS)
    rate, loss = summary["videos_per_s"], summary["final_loss"]
    assert rate["ratio"]["median"] == pytest.approx(1.1)
    assert rate["ratio"]["iqr"] == pytest.approx(0.0, abs=1e-12)
    assert rate["verdict"] == "gain" and loss["verdict"] == "within bound"
    for m in (rate, loss):
        assert "paired_verdict" not in m and "sign_test_p" not in m


def test_ratios_of_a_zero_base():
    assert PAIRS["ratios"]([0.0, 0.0, 2.0], [0.0, 1.0, 1.0]) == [1.0, float("inf"), 0.5]
