"""Training loop, evaluation, checkpoints, ablation machinery."""

import copy
import csv
import gc
import io
import json
import os
import shutil
import weakref
from dataclasses import asdict, replace

import numpy as np
import numpy.testing as npt
import pytest

from avloc import autodiff as ad
from avloc import data, training
from avloc.cli import main
from avloc.data import FeatureBundle, load_entry, synth_dataset
from avloc.errors import (AvlocError, ConfigError, ConsistencyError, ContractError,
                          DataError, FormatError, TrainingDiverged)
from avloc.model import Dims, ModelConfig, init_params, predict
from avloc.training import (ABLATION_VARIANTS, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                            Adam, AblationRow, AblationTable,
                            TrainConfig, _batch_loss, ablate, evaluate,
                            load_checkpoint, save_checkpoint, split_manifest, train)

TINY = dict(T=4, d_a=6, d_v=8, h=2, w=2, classes=3)
GOLDEN_CKPT = os.path.join(os.path.dirname(__file__), "golden", "ckpt_tiny")


def tiny_config(**overrides):
    dims = Dims(T=TINY["T"], d_a=TINY["d_a"], d_v=TINY["d_v"], h=TINY["h"],
                w=TINY["w"], classes=TINY["classes"], hidden=8, relation=8)
    model = ModelConfig(dims=dims)
    cfg = TrainConfig(model=model, epochs=2, batch_size=4, seed=0)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("tiny"))
    manifest, _ = synth_dataset(base, seed=0, n_videos=8, **TINY)
    return manifest, base


def test_one_epoch_smoke_run_has_finite_loss(tiny_dataset):
    manifest, base = tiny_dataset
    cfg = tiny_config(epochs=1)
    params, report = train(cfg, manifest, base)
    assert len(report.losses) == 1
    assert np.isfinite(report.losses[0])
    assert 0.0 <= report.accuracy <= 1.0
    assert report.wall_time_s > 0


def test_same_seed_trains_bitwise_identically(tiny_dataset):
    manifest, base = tiny_dataset
    runs = []
    for _ in range(2):
        params, report = train(tiny_config(epochs=3), manifest, base)
        runs.append((report.losses, report.accuracy,
                     [a.tobytes() for _, a in params.items()]))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]


def test_different_seed_changes_the_run(tiny_dataset):
    manifest, base = tiny_dataset
    _, r0 = train(tiny_config(epochs=2, seed=0), manifest, base)
    _, r1 = train(tiny_config(epochs=2, seed=1), manifest, base)
    assert r0.losses != r1.losses


def test_weak_mode_trains_and_only_uses_video_labels(tiny_dataset):
    manifest, base = tiny_dataset
    cfg = tiny_config(epochs=2)
    cfg.model.mode = "weak"
    params, report = train(cfg, manifest, base)
    assert np.isfinite(report.losses).all()
    assert params.arrays["head.class_weight"].shape[1] == TINY["classes"] + 1


def test_weak_mode_never_trains_the_event_head(tiny_dataset):
    manifest, base = tiny_dataset
    cfg = tiny_config(epochs=2)
    cfg.model.mode = "weak"
    params, _ = train(cfg, manifest, base)
    fresh = init_params(cfg.model, cfg.seed)
    trained, fresh = params.arrays, fresh.arrays
    npt.assert_array_equal(trained["head.event_weight"], fresh["head.event_weight"])
    npt.assert_array_equal(trained["head.event_bias"], fresh["head.event_bias"])
    assert not np.array_equal(trained["head.class_weight"], fresh["head.class_weight"])


def test_dataset_dims_must_match_config(tiny_dataset):
    manifest, base = tiny_dataset
    cfg = tiny_config()
    cfg.model.dims.d_a = 5
    with pytest.raises(ConsistencyError, match="d_a"):
        train(cfg, manifest, base)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("epochs", 1.5), ("epochs", True),
    ("batch_size", 0), ("batch_size", 2.5), ("batch_size", "4"),
    ("learning_rate", 0.0), ("learning_rate", float("nan")),
    ("seed", -1), ("seed", True),
])
def test_bad_train_config_values_are_config_errors(tiny_dataset, tmp_path, field, value):
    manifest, base = tiny_dataset
    cfg = tiny_config(**{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()
    out = str(tmp_path / "run")
    with pytest.raises(ConfigError, match=field):
        train(cfg, manifest, base, out_dir=out)
    assert not os.path.exists(out)


def test_training_on_no_videos_is_a_contract_error(tmp_path):
    manifest, _ = synth_dataset(str(tmp_path), seed=1, n_videos=0, **TINY)
    with pytest.raises(ContractError, match="at least one video"):
        train(tiny_config(), manifest, str(tmp_path))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_module_diagnostic(tiny_dataset):
    manifest, base = tiny_dataset
    cfg = tiny_config(epochs=1, learning_rate=1e9)  # guaranteed blow-up

    # poisoning the learning rate diverges within a couple of steps
    with pytest.raises(TrainingDiverged, match="module"):
        train(cfg, manifest, base)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("param, stage", [
    ("audio_gate.temporal_weight", "audio_attention.temporal_weights"),
    ("head.event_bias", "event_relevance"),
])
def test_first_nonfinite_stage_names_the_earliest_nonfinite_tensor(tiny_dataset, param, stage):
    manifest, base = tiny_dataset
    cfg = tiny_config().model
    params = init_params(cfg, 0)
    params.set_array(param, np.full(params.arrays[param].shape, np.nan, dtype=np.float32))
    entries = manifest.entries[:2]
    loss, _, fwd = _batch_loss(params, cfg, [load_entry(manifest, e, base) for e in entries],
                               [e.label for e in entries])
    assert not np.isfinite(loss)
    assert training._first_nonfinite_stage(fwd) == stage


def test_nonfinite_gradient_aborts_before_the_update(tiny_dataset, monkeypatch):
    """A finite loss with a NaN gradient stops training before Adam applies
    it, naming the parameter and the epoch."""
    import avloc.training as training
    manifest, base = tiny_dataset
    batch_loss = training._batch_loss

    def poisoned(*args):
        loss, grads, fwd = batch_loss(*args)
        grads["visual_gate.channel_value"][0, 0] = np.nan
        return loss, grads, fwd

    monkeypatch.setattr(training, "_batch_loss", poisoned)
    with pytest.raises(TrainingDiverged, match=r"'visual_gate\.channel_value' at epoch 0"):
        train(tiny_config(epochs=1), manifest, base)


def test_finished_tapes_are_freed_without_the_cycle_collector(tiny_dataset, monkeypatch):
    manifest, base = tiny_dataset
    cfg = tiny_config().model
    params = init_params(cfg, 0)
    entries = manifest.entries[:2]
    batch = [load_entry(manifest, e, base) for e in entries]
    tapes = []

    class RecordingTape(ad.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(ad, "Tape", RecordingTape)
    gc.disable()
    try:
        _, _, fwd = _batch_loss(params, cfg, batch, [e.label for e in entries])
        assert len(tapes) == 1 and fwd.class_probs.tape is tapes[0]()
        del fwd  # the training step's last reference to its tape
        assert tapes[0]() is None
        predict(params, cfg, batch[0])
        assert len(tapes) == 2 and tapes[1]() is None
    finally:
        gc.enable()


def test_batch_step_tapes_its_stacked_inputs_without_a_copy(tiny_dataset, monkeypatch):
    """The concatenated batch, and a loaded bundle in predict, are the tape's
    input nodes; a caller's writable features are still copied."""
    import avloc.training as training
    from avloc import attention, motion
    manifest, base = tiny_dataset
    cfg = tiny_config().model
    params = init_params(cfg, 0)
    entries = manifest.entries[:3]
    batch = [load_entry(manifest, e, base) for e in entries]
    given, taped = {}, {}

    def spy(module, name, record, key):
        original = getattr(module, name)

        def wrapped(first, *args, **kwargs):
            record[key] = first.data
            return original(first, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    run_forward = training.run_forward

    def recording_forward(tape, params, audio, visual, cfg):
        given.update(audio=audio, visual=visual)
        return run_forward(tape, params, audio, visual, cfg)

    monkeypatch.setattr(training, "run_forward", recording_forward)
    spy(motion, "motion_feature", taped, "visual")
    spy(attention, "motion_guided_audio", taped, "audio")
    _batch_loss(params, cfg, batch, [e.label for e in entries])
    for key in ("audio", "visual"):
        assert given[key].shape[0] == 3 * cfg.dims.T
        assert np.shares_memory(taped[key], given[key]), key

    predict(params, cfg, batch[0])
    assert np.shares_memory(taped["audio"], batch[0].audio)
    assert np.shares_memory(taped["visual"], batch[0].visual)
    writable = FeatureBundle(batch[0].audio.copy(), batch[0].visual.copy(), "copy")
    predict(params, cfg, writable)
    assert not np.shares_memory(taped["audio"], writable.audio)
    assert not np.shares_memory(taped["visual"], writable.visual)


def test_short_last_batch_trains_and_epoch_loss_is_the_mean_per_video_loss(
        tmp_path, monkeypatch):
    import avloc.training as training
    base = str(tmp_path / "ten")
    manifest, _ = synth_dataset(base, seed=3, n_videos=10, **TINY)
    batch_loss = training._batch_loss
    sizes, video_losses = [], []

    def recording(params, cfg, bundles, labels):
        sizes.append(len(bundles))
        # each video alone, with the parameters this step sees
        video_losses.extend(batch_loss(params, cfg, [b], [label])[0]
                            for b, label in zip(bundles, labels))
        return batch_loss(params, cfg, bundles, labels)

    monkeypatch.setattr(training, "_batch_loss", recording)
    params, report = train(tiny_config(epochs=1, batch_size=4), manifest, base)
    assert sizes == [4, 4, 2]
    assert len(video_losses) == 10
    npt.assert_allclose(report.losses[0], np.mean(video_losses), rtol=1e-6)
    assert all(np.isfinite(a).all() for _, a in params.items())


def test_adam_and_load_checkpoint_leave_read_only_parameters(tiny_dataset, tmp_path):
    manifest, base = tiny_dataset
    params, _ = train(tiny_config(epochs=1), manifest, base, out_dir=str(tmp_path))
    loaded, _ = load_checkpoint(str(tmp_path / "checkpoint"))
    for arrays in (params.arrays, loaded.arrays):
        assert all(not a.flags.writeable for a in arrays.values())
        with pytest.raises(ValueError, match="read-only"):
            arrays["head.event_bias"][0, 0] = 1.0


def _textbook_adam(params, grads, m, v, t, lr):
    """One Adam step as the formula reads, on fresh arrays."""
    bias1, bias2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    out = {}
    for name, current in params.items():
        g = grads[name].astype(np.float32)
        m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g * g
        update = lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + np.float32(ADAM_EPSILON))
        out[name] = current - update
    return out


REAL_DIMS = Dims(d_a=128, d_v=512, h=7, w=7, hidden=512, relation=256, classes=28)


@pytest.mark.parametrize("dims", [Dims(), REAL_DIMS], ids=["desk", "real"])
def test_adam_steps_are_bitwise_the_textbook_formula(dims):
    params = init_params(ModelConfig(dims=dims), seed=3)
    opt = Adam(params, 5e-4)
    ref = dict(params.items())
    m = {n: np.zeros_like(a) for n, a in ref.items()}
    v = {n: np.zeros_like(a) for n, a in ref.items()}
    rng = np.random.default_rng(3)
    for t in range(1, 6):
        grads = {n: rng.normal(size=a.shape).astype(np.float32) for n, a in ref.items()}
        grads[next(iter(grads))] *= 0.0  # zero gradients, of both signs
        before = {n: (a, a.copy()) for n, a in params.items()}
        opt.step(params, grads)
        ref = _textbook_adam(ref, grads, m, v, t, 5e-4)
        for name, new in params.items():
            assert new.tobytes() == ref[name].tobytes(), (t, name)
            old, old_copy = before[name]
            assert new is not old and not old.flags.writeable and not new.flags.writeable
            assert old.tobytes() == old_copy.tobytes()
            for moment in (opt.m[name], opt.v[name]):
                for other in (old, new, grads[name]):
                    assert not np.shares_memory(moment, other)
        assert all(opt.m[n].tobytes() == m[n].tobytes() and opt.v[n].tobytes() == v[n].tobytes()
                   for n in m)


def test_loss_curve_is_monotone_on_noiseless_data(tmp_path):
    base = str(tmp_path / "clean")
    manifest, _ = synth_dataset(base, seed=1, n_videos=8, snr=float("inf"), **TINY)
    cfg = tiny_config(epochs=10)
    _, report = train(cfg, manifest, base)
    violations = sum(1 for a, b in zip(report.losses, report.losses[1:]) if b > a)
    assert violations <= 1, report.losses


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_counts_match_an_independent_recount(tiny_dataset):
    manifest, base = tiny_dataset
    cfg = tiny_config(epochs=1)
    params, _ = train(cfg, manifest, base)
    accuracy, per_class, predictions = evaluate(params, cfg.model, manifest, base)

    # independent recount from the exported records
    hits = total = 0
    class_hits, class_total = {}, {}
    by_id = {e.video_id: e.label.segment_class for e in manifest.entries}
    for pred in predictions:
        record = pred.to_record()
        truth = by_id[record["video_id"]]
        for t, decoded in enumerate(record["decoded"]):
            key = "background" if truth[t] == manifest.classes else str(truth[t])
            hits += decoded == truth[t]
            total += 1
            class_hits[key] = class_hits.get(key, 0) + (decoded == truth[t])
            class_total[key] = class_total.get(key, 0) + 1
    npt.assert_allclose(accuracy, hits / total, atol=1e-9)
    keys = [str(c) for c in range(manifest.classes)] + ["background"]
    assert list(per_class) == keys
    for key in keys:
        expected = class_hits[key] / class_total[key] if key in class_total else None
        assert per_class[key] == pytest.approx(expected, abs=1e-9), key


def test_all_correct_predictions_score_one(tiny_dataset):
    # relabel the dataset with the model's own decodes: accuracy must be 1.0
    manifest, base = tiny_dataset
    cfg = tiny_config()
    params, _ = train(tiny_config(epochs=1), manifest, base)
    _, _, predictions = evaluate(params, cfg.model, manifest, base)

    relabeled = copy.deepcopy(manifest)
    background = manifest.classes
    for entry, pred in zip(relabeled.entries, predictions):
        event = pred.decoded != background
        entry.label.segment_relevance = event.astype(np.int64)
        entry.label.segment_class = pred.decoded.copy()
        entry.label.video_class = (int(pred.decoded[event][0]) if event.any()
                                   else background)
        entry.label.validate(background)
    accuracy, per_class, _ = evaluate(params, cfg.model, relabeled, base)
    assert accuracy == 1.0
    assert all(v in (None, 1.0) for v in per_class.values())


def test_supervised_training_on_background_only_videos_has_finite_losses(tmp_path):
    base = str(tmp_path / "mixed")
    manifest, _ = synth_dataset(base, seed=0, n_videos=8, background_fraction=0.25, **TINY)
    assert any(e.label.video_class == TINY["classes"] for e in manifest.entries)
    _, report = train(tiny_config(epochs=2), manifest, base)
    assert len(report.losses) == 2 and np.isfinite(report.losses).all()


def test_background_everywhere_on_background_truth_scores_one(tmp_path):
    base = str(tmp_path / "bg")
    manifest, _ = synth_dataset(base, seed=2, n_videos=6,
                                background_fraction=1.0, **TINY)
    assert all(e.label.segment_relevance.sum() == 0 for e in manifest.entries)
    cfg = tiny_config()
    params = init_params(cfg.model, seed=0)
    # force every event score below threshold: bias -20 saturates the sigmoid
    params.set_array("head.event_bias", np.full((1, 1), -20.0, dtype=np.float32))
    params.set_array("head.event_weight", np.zeros_like(params.arrays["head.event_weight"]))
    accuracy, _, _ = evaluate(params, cfg.model, manifest, base)
    assert accuracy == 1.0


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_preserves_evaluation_exactly(tiny_dataset, tmp_path):
    manifest, base = tiny_dataset
    cfg = tiny_config(epochs=2)
    params, report = train(cfg, manifest, base)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, params, cfg.model)
    loaded, loaded_cfg = load_checkpoint(ckpt)
    for (name, a), (_, b) in zip(params.items(), loaded.items()):
        assert a.tobytes() == b.tobytes(), name
    acc_before, _, _ = evaluate(params, cfg.model, manifest, base)
    acc_after, _, _ = evaluate(loaded, loaded_cfg, manifest, base)
    assert acc_before == acc_after


def test_checkpoint_files_are_deterministic(tiny_dataset, tmp_path):
    manifest, base = tiny_dataset
    params, _ = train(tiny_config(epochs=1), manifest, base)
    c1, c2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    save_checkpoint(c1, params, tiny_config().model)
    save_checkpoint(c2, params, tiny_config().model)
    assert open(os.path.join(c1, "params.bin"), "rb").read() == \
        open(os.path.join(c2, "params.bin"), "rb").read()
    assert open(os.path.join(c1, "index.json")).read() == \
        open(os.path.join(c2, "index.json")).read()


def _truncate_params(ckpt):
    bin_path = os.path.join(ckpt, "params.bin")
    raw = open(bin_path, "rb").read()
    open(bin_path, "wb").write(raw[:len(raw) // 2])


def _nan_last_param(ckpt):
    bin_path = os.path.join(ckpt, "params.bin")
    raw = open(bin_path, "rb").read()
    open(bin_path, "wb").write(raw[:-4] + np.array(np.nan, dtype="<f4").tobytes())


def _params_of_another_checkpoint(ckpt):
    """A torn checkpoint: another run's params.bin, whose blocks parse and are
    finite, beside this run's index."""
    cfg = replace(tiny_config().model, motion="future_only")
    other = ckpt + "_other"
    save_checkpoint(other, init_params(cfg, seed=2), cfg)
    shutil.copyfile(os.path.join(other, "params.bin"), os.path.join(ckpt, "params.bin"))


def _write_index(raw):
    return lambda ckpt: open(os.path.join(ckpt, "index.json"), "wb").write(raw)


def _edit_index(edit):
    def corrupt(ckpt):
        path = os.path.join(ckpt, "index.json")
        index = json.load(open(path))
        edit(index)
        json.dump(index, open(path, "w"))
    return corrupt


@pytest.mark.parametrize("corrupt, error, match", [
    pytest.param(_truncate_params, AvlocError, None, id="truncated_params"),
    pytest.param(lambda ckpt: open(os.path.join(ckpt, "params.bin"), "ab").write(b"junk"),
                 FormatError, "trailing bytes", id="trailing_params_bytes"),
    pytest.param(_nan_last_param, DataError, r"'head\.event_bias' in params\.bin is not finite",
                 id="nan_param"),
    pytest.param(_params_of_another_checkpoint, ConsistencyError, "sha256",
                 id="params_of_another_checkpoint"),
    pytest.param(_edit_index(lambda ix: ix["config"].update(colour="red")),
                 ConfigError, "colour", id="unknown_config_key"),
    pytest.param(_edit_index(lambda ix: ix.pop("seed")),
                 FormatError, "seed", id="missing_seed"),
    pytest.param(_edit_index(lambda ix: ix.update(seed="0")),
                 FormatError, "seed", id="string_seed"),
    pytest.param(_edit_index(lambda ix: ix["config"]["dims"].update(d_a="6")),
                 ConfigError, "d_a", id="string_dims"),
    pytest.param(_edit_index(lambda ix: ix["config"].update(temporal_attention="no")),
                 ConfigError, "temporal_attention", id="string_temporal_attention"),
    pytest.param(_edit_index(lambda ix: ix["config"].update(past_variant="conv_prev")),
                 ConfigError, "past_variant", id="unsupported_past_variant"),
    pytest.param(_edit_index(lambda ix: ix["config"].update(scale_mode="linear")),
                 ConfigError, "scale_mode", id="unsupported_scale_mode"),
    pytest.param(_edit_index(lambda ix: ix.pop("params")),
                 FormatError, "parameter list", id="missing_params"),
    pytest.param(lambda ckpt: json.dump([], open(os.path.join(ckpt, "index.json"), "w")),
                 FormatError, "index", id="index_not_an_object"),
    pytest.param(_edit_index(lambda ix: ix["config"].update(motion=[])),
                 ConfigError, "motion", id="unhashable_motion_list"),
    pytest.param(_edit_index(lambda ix: ix["config"].update(motion={})),
                 ConfigError, "motion", id="unhashable_motion_dict"),
    pytest.param(_edit_index(lambda ix: ix["params"].pop()),
                 ConsistencyError, "parameter list", id="another_parameter_table"),
    pytest.param(_edit_index(lambda ix: ix.update(config=[])),
                 ConfigError, "JSON object", id="config_not_an_object"),
    pytest.param(_write_index(b'{"format": "\xff"}'), FormatError, "JSON", id="index_not_utf8"),
    pytest.param(_write_index(b"[" * 100_000), FormatError, "JSON", id="index_nested_too_deep"),
])
def test_corrupt_checkpoint_is_a_typed_error(tiny_dataset, tmp_path, corrupt, error, match):
    manifest, base = tiny_dataset
    params, _ = train(tiny_config(epochs=1), manifest, base)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, params, tiny_config().model)
    corrupt(ckpt)
    with pytest.raises(error, match=match):
        load_checkpoint(ckpt)
    assert main(["eval", "--manifest", os.path.join(base, "manifest.json"),
                 "--checkpoint", ckpt, "--report", str(tmp_path / "r.json")]) == 2


def test_golden_checkpoint_loads_and_matches_a_fresh_init(tmp_path):
    """golden/ckpt_tiny is save_checkpoint(init_params(cfg, 3), cfg) at the
    dims below, written while ModelConfig still had past_variant (its index
    stores "printed"). It pins parameter names, order, shapes and RNG draws."""
    params, cfg = load_checkpoint(GOLDEN_CKPT)
    assert cfg.dims == Dims(T=3, d_a=3, d_v=4, h=2, w=2, classes=3, hidden=3, relation=3)
    assert params.seed == 3
    fresh = str(tmp_path / "fresh")
    save_checkpoint(fresh, init_params(cfg, params.seed), cfg)
    assert open(os.path.join(fresh, "params.bin"), "rb").read() == \
        open(os.path.join(GOLDEN_CKPT, "params.bin"), "rb").read()


def test_training_writes_report_and_checkpoint(tiny_dataset, tmp_path):
    manifest, base = tiny_dataset
    out = str(tmp_path / "run")
    _, report = train(tiny_config(epochs=2), manifest, base, out_dir=out)
    assert os.path.exists(os.path.join(out, "checkpoint", "params.bin"))
    doc = json.load(open(os.path.join(out, "report.json")))
    assert doc == json.loads(json.dumps(asdict(report)))  # losses, accuracy, config, ...


# ---------------------------------------------------------------------------
# ablation


def test_split_manifest_holds_out_every_fourth_entry(tiny_dataset):
    manifest, _ = tiny_dataset
    train_m, held_m = split_manifest(manifest)
    assert len(held_m.entries) == len(manifest.entries) // 4
    assert len(train_m.entries) + len(held_m.entries) == len(manifest.entries)
    held_ids = {e.video_id for e in held_m.entries}
    assert held_ids.isdisjoint(e.video_id for e in train_m.entries)


def test_ablation_grid_runs_the_motion_table_bottom_up():
    assert ABLATION_VARIANTS == [("no_motion", "off", False),
                                 ("future_only", "future_only", False),
                                 ("pfme_wo_temporal_attention", "pfme", False),
                                 ("pfme_w_temporal_attention", "pfme", True)]


def test_ablate_produces_four_variant_rows_and_round_trips(tiny_dataset):
    manifest, base = tiny_dataset
    table = ablate(tiny_config(epochs=1), manifest, base, seeds=[0, 1])
    variants = [v for v, _, _ in ABLATION_VARIANTS]
    assert sorted({r.variant for r in table.rows}) == sorted(variants)
    assert len(table.rows) == len(variants) * 2
    assert set(table.summary()) == set(variants)

    # both serializations hold every row losslessly
    rows = [[r.variant, r.seed, r.accuracy] for r in table.rows]
    doc = json.loads(table.to_json())
    assert [[r["variant"], r["seed"], r["accuracy"]] for r in doc["rows"]] == rows
    assert doc["summary"] == table.summary()
    header, *lines = csv.reader(io.StringIO(table.to_csv()))
    assert header == ["variant", "seed", "accuracy"]
    assert [[v, int(s), float(a)] for v, s, a in lines] == rows


def test_ablation_summary_leaves_out_variants_without_rows():
    table = AblationTable(rows=[AblationRow("no_motion", 0, 0.5),
                                AblationRow("no_motion", 1, 0.75)])
    assert list(table.summary()) == ["no_motion"]

    def no_constants(name):
        raise AssertionError(f"to_json wrote {name}, which is not JSON")

    doc = json.loads(table.to_json(), parse_constant=no_constants)
    assert doc["summary"] == {"no_motion": {"mean": 0.625, "sd": np.std([0.5, 0.75], ddof=1)}}


def test_ablate_requires_two_seeds(tiny_dataset):
    manifest, base = tiny_dataset
    with pytest.raises(ContractError):
        ablate(tiny_config(), manifest, base, seeds=[0])


@pytest.mark.parametrize("videos", [0, 3])
def test_ablate_needs_a_held_out_video_before_anything_trains(tmp_path, monkeypatch, videos):
    manifest, _ = synth_dataset(str(tmp_path), seed=1, n_videos=videos, **TINY)
    monkeypatch.setattr(training, "train", None)  # any training run would fail differently
    with pytest.raises(ContractError, match=f"at least 4; the manifest has {videos}"):
        ablate(tiny_config(), manifest, str(tmp_path), seeds=[0, 1])


@pytest.mark.slow
def test_every_variant_solves_a_noiseless_dataset(tmp_path, monkeypatch):
    # without noise or distractors the task is too easy to separate variants
    monkeypatch.setattr(data, "DISTRACTOR_PROB", 0.0)
    dims = dict(T=6, d_a=16, d_v=24, h=2, w=2, classes=3)
    base_dir = str(tmp_path / "easy")
    manifest, _ = synth_dataset(base_dir, seed=11, n_videos=32, snr=float("inf"), **dims)
    model = ModelConfig(dims=Dims(**dims, hidden=32, relation=32))
    table = ablate(TrainConfig(model=model, epochs=60, batch_size=8),
                   manifest, base_dir, seeds=[1, 2])
    for variant, stats in table.summary().items():
        assert stats["mean"] >= 0.95, (variant, stats)
