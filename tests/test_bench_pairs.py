"""The pairs summary of tools/bench_pairs.py, on canned run.py output; no
benchmark runs."""

import json
import os
import runpy

import pytest

PAIRS = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "tools", "bench_pairs.py"))


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
    summary = PAIRS["summarize"](pairs, {"videos_per_s": "higher", "final_loss": "lower"})
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
    summary = PAIRS["summarize"]([(result, result)], {"videos_per_s": "higher"})
    assert summary["videos_per_s"]["base"] == {"median": 3.0, "iqr": 0.0, "values": [3.0]}
    assert summary["videos_per_s"]["change_wins"] == 0
