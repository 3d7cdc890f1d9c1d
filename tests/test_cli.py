"""End-to-end command-line flows on a miniature dataset."""

import argparse
import csv
import json
import os
from dataclasses import fields

import pytest

from avloc import cli, training
from avloc.cli import _build_parser, main
from avloc.data import FeatureDims, load_manifest
from avloc.model import Dims, ModelConfig
from avloc.training import ABLATION_VARIANTS, TrainConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli"))


@pytest.fixture(scope="module")
def dataset(workspace):
    out = os.path.join(workspace, "data")
    code = main(["synth", "--seed", "5", "--out", out, "--videos", "8",
                 "--T", "4", "--da", "6", "--dv", "8", "--h", "2", "--w", "2",
                 "--classes", "3", "--snr", "3.0"])
    assert code == 0
    return os.path.join(out, "manifest.json")


def test_synth_writes_manifest_and_features(dataset):
    doc = json.load(open(dataset))
    assert doc["classes"] == 3 and doc["T"] == 4
    assert len(doc["entries"]) == 8
    for entry in doc["entries"]:
        assert os.path.exists(os.path.join(os.path.dirname(dataset), entry["path"]))


def test_synth_has_one_flag_per_feature_dim_with_its_default():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: (a.option_strings, a.default) for a in sub.choices["synth"]._actions}
    dims = {f.name: (["--" + f.name.replace("_", "")], f.default) for f in fields(FeatureDims)}
    assert list(flags) == ["help", "seed", "out", "videos", *dims, "snr"]
    assert {name: flags[name] for name in dims} == dims
    assert [flags[name][0][0] for name in dims] == ["--classes", "--T", "--da", "--dv",
                                                      "--h", "--w"]


def test_synth_without_dimension_flags_writes_the_default_dims(workspace):
    out = os.path.join(workspace, "default_dims")
    assert main(["synth", "--out", out, "--videos", "1"]) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest.feature_dims() == FeatureDims().feature_dims()
    assert len(manifest.entries) == 1


def test_synth_is_deterministic_across_invocations(workspace):
    out1 = os.path.join(workspace, "det1")
    out2 = os.path.join(workspace, "det2")
    for out in (out1, out2):
        assert main(["synth", "--seed", "9", "--out", out, "--videos", "3",
                     "--T", "4", "--da", "6", "--dv", "8", "--h", "2", "--w", "2",
                     "--classes", "2", "--snr", "2.0"]) == 0
    for name in sorted(os.listdir(out1)):
        assert open(os.path.join(out1, name), "rb").read() == \
            open(os.path.join(out2, name), "rb").read()


def test_train_eval_round_trip(dataset, workspace):
    run_dir = os.path.join(workspace, "run")
    code = main(["train", "--manifest", dataset, "--mode", "supervised",
                 "--epochs", "2", "--batch", "4", "--lr", "5e-4", "--seed", "0",
                 "--out", run_dir, "--motion", "pfme",
                 "--temporal-attention", "on"])
    assert code == 0
    report = json.load(open(os.path.join(run_dir, "report.json")))
    assert len(report["losses"]) == 2
    assert report["config"]["model"]["motion"] == "pfme"

    report_path = os.path.join(workspace, "eval.json")
    code = main(["eval", "--manifest", dataset,
                 "--checkpoint", os.path.join(run_dir, "checkpoint"),
                 "--report", report_path])
    assert code == 0
    doc = json.load(open(report_path))
    assert doc["accuracy"] == report["accuracy"]
    assert len(doc["predictions"]) == 8
    record = doc["predictions"][0]
    assert set(record) == {"video_id", "S_e", "S_c", "decoded"}
    assert len(record["S_e"]) == 4 and len(record["decoded"]) == 4


def test_train_motion_flag_spellings(dataset, workspace):
    run_dir = os.path.join(workspace, "run_future")
    code = main(["train", "--manifest", dataset, "--epochs", "1",
                 "--batch", "4", "--out", run_dir, "--motion", "future-only",
                 "--temporal-attention", "off"])
    assert code == 0
    report = json.load(open(os.path.join(run_dir, "report.json")))
    assert report["config"]["model"]["motion"] == "future_only"
    assert report["config"]["model"]["temporal_attention"] is False


def test_train_defaults_are_the_config_defaults(dataset, workspace, monkeypatch):
    import avloc.cli as cli

    class Captured(Exception):
        pass

    def capture(cfg, *args, **kwargs):
        raise Captured(cfg)

    monkeypatch.setattr(cli, "train", capture)
    with pytest.raises(Captured) as caught:
        main(["train", "--manifest", dataset, "--out", os.path.join(workspace, "unused")])
    dims = Dims(**load_manifest(dataset).feature_dims())
    assert caught.value.args[0] == TrainConfig(model=ModelConfig(dims=dims))


def test_eval_on_missing_checkpoint_fails_cleanly(dataset, workspace):
    code = main(["eval", "--manifest", dataset,
                 "--checkpoint", os.path.join(workspace, "nope"),
                 "--report", os.path.join(workspace, "r.json")])
    assert code == 2


def test_ablate_writes_json_and_csv(dataset, workspace, monkeypatch):
    import avloc.cli as cli
    monkeypatch.setattr(cli, "ABLATE_EPOCHS", 1)
    out = os.path.join(workspace, "ablation")
    code = main(["ablate", "--manifest", dataset, "--seeds", "0,1", "--out", out])
    assert code == 0
    with open(os.path.join(out, "ablation.csv"), newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["variant", "seed", "accuracy"]
    assert len(rows) == 8  # 4 variants x 2 seeds
    doc = json.loads(open(os.path.join(out, "ablation.json")).read())
    assert [[r["variant"], r["seed"], r["accuracy"]] for r in doc["rows"]] == \
        [[v, int(s), float(a)] for v, s, a in rows]
    assert list(doc["summary"]) == [v for v, _, _ in ABLATION_VARIANTS]


def test_every_file_train_eval_and_ablate_write_is_synced(dataset, workspace, monkeypatch):
    import avloc.cli as cli
    monkeypatch.setattr(cli, "ABLATE_EPOCHS", 1)
    synced, fsync = set(), os.fsync

    def recording_fsync(fd):
        stat = os.fstat(fd)
        synced.add((stat.st_dev, stat.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    out = os.path.join(workspace, "synced")
    assert main(["train", "--manifest", dataset, "--epochs", "1",
                 "--out", os.path.join(out, "run")]) == 0
    assert main(["eval", "--manifest", dataset,
                 "--checkpoint", os.path.join(out, "run", "checkpoint"),
                 "--report", os.path.join(out, "eval.json")]) == 0
    assert main(["ablate", "--manifest", dataset, "--seeds", "0,1",
                 "--out", os.path.join(out, "ablation")]) == 0
    written = sorted(os.path.relpath(os.path.join(d, f), out)
                     for d, _, files in os.walk(out) for f in files)
    assert written == ["ablation/ablation.csv", "ablation/ablation.json", "eval.json",
                       "run/checkpoint/index.json", "run/checkpoint/params.bin",
                       "run/report.json"]
    for path in written:
        stat = os.stat(os.path.join(out, path))
        assert (stat.st_dev, stat.st_ino) in synced, path


@pytest.mark.parametrize("command,message", [
    (["synth", "--snr", "0"], "snr"),
    (["synth", "--snr", "-1"], "snr"),
    (["synth", "--videos", "-1"], "n_videos"),
    (["ablate", "--seeds", "1,x"], "--seeds"),
    (["synth", "--seed", "-1"], "seed"),
    (["train", "--seed", "-1"], "seed"),
    (["ablate", "--seeds=-1,2"], "seed"),
    (["ablate", "--seeds", "-1,2"], "seed must be an int >= 0, got -1"),
], ids=["zero_snr", "negative_snr", "negative_videos", "unparsable_seeds",
        "negative_synth_seed", "negative_train_seed", "negative_ablate_seed",
        "negative_ablate_seed_separate_value"])
def test_bad_cli_input_is_a_typed_error(dataset, workspace, capsys, command,
                                        message):
    out = os.path.join(workspace, "bad_input")
    target = ["--out", out] + (["--manifest", dataset] if command[0] != "synth" else [])
    assert main(command + target) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, videos, message", [
    ("train", 0, "at least one video"),
    ("ablate", 0, "at least 4; the manifest has 0"),
    ("ablate", 3, "at least 4; the manifest has 3"),
    ("eval", 0, "at least one video"),
], ids=["train_no_videos", "ablate_no_videos", "ablate_no_held_out_video",
        "eval_no_videos"])
def test_too_few_videos_is_a_typed_error(dataset, workspace, capsys, command, videos,
                                         message):
    data = os.path.join(workspace, f"videos{videos}")
    assert main(["synth", "--seed", "1", "--out", data, "--videos", str(videos),
                 "--T", "4", "--da", "6", "--dv", "8", "--h", "2", "--w", "2",
                 "--classes", "3"]) == 0
    out = os.path.join(workspace, f"{command}_videos{videos}")
    target = ["--out", out]
    if command == "eval":  # with a checkpoint of the same dims, trained on `dataset`
        assert main(["train", "--manifest", dataset, "--epochs", "1",
                     "--out", out + "_run"]) == 0
        target = ["--checkpoint", os.path.join(out + "_run", "checkpoint"), "--report", out]
    assert main([command, "--manifest", os.path.join(data, "manifest.json")] + target) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, module, work", [
    ("train", training, "_batch_loss"),
    ("eval", cli, "evaluate"),
    ("ablate", cli, "ablate"),
], ids=["train", "eval", "ablate"])
def test_an_output_that_cannot_be_written_fails_before_the_work(
        dataset, workspace, capsys, monkeypatch, command, module, work):
    """`train --out F` and `ablate --out F` with F a file, and `eval --report`
    into a missing directory, exit 2 before any training, grid or evaluation
    runs, and write nothing."""
    blocker = os.path.join(workspace, f"blocker_{command}")
    with open(blocker, "w") as f:
        f.write("kept")
    missing = os.path.join(workspace, "missing_dir")
    target = ["--out", blocker]
    if command == "eval":
        run_dir = os.path.join(workspace, "run_for_missing_dir")
        assert main(["train", "--manifest", dataset, "--epochs", "1", "--out", run_dir]) == 0
        target = ["--checkpoint", os.path.join(run_dir, "checkpoint"),
                  "--report", os.path.join(missing, "r.json")]

    def fail(*args, **kwargs):
        raise AssertionError(f"{work} ran although the output cannot be written")

    monkeypatch.setattr(module, work, fail)
    capsys.readouterr()
    assert main([command, "--manifest", dataset] + target) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert open(blocker).read() == "kept" and not os.path.exists(missing)


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_nonfinite_learning_rate_is_a_config_error(dataset, workspace, capsys, lr):
    out = os.path.join(workspace, f"lr_{lr}")
    code = main(["train", "--manifest", dataset, "--epochs", "1", "--lr", lr,
                 "--out", out])
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_gradcheck_command_exits_zero_on_success(capsys):
    assert main(["gradcheck", "--module", "motion"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_gradcheck_rejects_unknown_module():
    assert main(["gradcheck", "--module", "flux_capacitor"]) == 2
