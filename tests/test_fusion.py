"""Cross-modal attention primitive, relation branches, interaction stage."""

import numpy as np
import numpy.testing as npt
import pytest

from avloc import autodiff as ad
from avloc import fusion
from avloc.errors import ShapeError
from avloc.gradcheck import check_gradients

T, DM = 4, 3


def leaves(tape, *arrays):
    return [tape.leaf(a) for a in arrays]


def branch_group(query_proj, key_proj, value_proj):
    return {"query_proj": query_proj, "key_proj": key_proj, "value_proj": value_proj}


def test_single_segment_identical_streams_average_the_two_value_rows():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, DM))
    q, k, v = (rng.normal(size=(DM, DM)) for _ in range(3))
    t = ad.Tape("f64")
    tx, ty, tq, tk, tv = leaves(t, x, x, q, k, v)
    out, parts = fusion.cross_modal_attend(tx, ty, tq, tk, tv)
    npt.assert_allclose(parts["weights"].data, [[0.5, 0.5]], atol=1e-9)
    npt.assert_allclose(out.data, (x @ v), atol=1e-9)  # both rows equal x @ v


def test_zero_value_projection_zeroes_the_output():
    rng = np.random.default_rng(1)
    t = ad.Tape()
    tx, ty, tq, tk, tv = leaves(t, rng.normal(size=(T, DM)),
                                rng.normal(size=(T, DM)),
                                rng.normal(size=(DM, DM)),
                                rng.normal(size=(DM, DM)),
                                np.zeros((DM, DM)))
    out, _ = fusion.cross_modal_attend(tx, ty, tq, tk, tv)
    npt.assert_array_equal(out.data, np.zeros((T, DM)))


def test_attention_matches_straight_line_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3))
    y = rng.normal(size=(2, 3))
    q_p = rng.normal(size=(3, 3))
    k_p = rng.normal(size=(3, 3))
    v_p = rng.normal(size=(3, 4))
    t = ad.Tape("f64")
    out, _ = fusion.cross_modal_attend(*leaves(t, x, y, q_p, k_p, v_p))

    # project, score, normalize, mix
    g = np.concatenate([x, y], axis=0)
    scores = (x @ q_p) @ (g @ k_p).T / np.sqrt(3.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    npt.assert_allclose(out.data, weights @ (g @ v_p), atol=1e-6)


def test_attention_weights_are_a_distribution_over_2T_rows():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(T, DM))
    y = rng.normal(size=(T, DM))
    q_p, k_p, v_p = (rng.normal(size=(DM, DM)) for _ in range(3))
    t = ad.Tape("f64")
    weights = fusion.cross_modal_attend(*leaves(t, x, y, q_p, k_p, v_p))[1]["weights"]
    assert weights.shape == (T, 2 * T)
    assert (weights.data >= 0).all()
    npt.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-6)


def test_permuting_the_context_rows_leaves_outputs_unchanged():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(T, DM))
    y = rng.normal(size=(T, DM))
    q_p, k_p, v_p = (rng.normal(size=(DM, DM)) for _ in range(3))

    def run(context):
        t = ad.Tape("f64")
        return fusion.cross_modal_attend(*leaves(t, x, context, q_p, k_p, v_p))[0].data

    perm = np.random.default_rng(5).permutation(T)
    npt.assert_allclose(run(y), run(y[perm]), atol=1e-6)


def test_mismatched_channel_widths_are_shape_errors():
    t = ad.Tape()
    with pytest.raises(ShapeError):
        fusion.cross_modal_attend(t.leaf(np.ones((T, 3))), t.leaf(np.ones((T, 4))),
                                  t.leaf(np.ones((3, 3))), t.leaf(np.ones((3, 3))),
                                  t.leaf(np.ones((3, 3))))


# ---------------------------------------------------------------------------
# relation branches


def relation_setup(rng):
    return dict(
        audio=rng.normal(size=(T, 5)), visual=rng.normal(size=(T, 5)),
        audio_proj=rng.normal(size=(5, DM)), visual_proj=rng.normal(size=(5, DM)),
        branch=[rng.normal(size=(DM, DM)) for _ in range(3)])


def test_identical_streams_and_params_give_identical_branches():
    rng = np.random.default_rng(6)
    s = relation_setup(rng)
    t = ad.Tape("f64")
    branch_a = branch_group(*leaves(t, *s["branch"]))
    branch_v = branch_group(*leaves(t, *s["branch"]))
    proj = t.leaf(s["audio_proj"])
    (audio_rel, _), (visual_rel, _) = fusion.relation_aware(
        t.leaf(s["audio"]), t.leaf(s["audio"]), proj, proj, branch_a, branch_v)
    npt.assert_allclose(audio_rel.data, visual_rel.data, atol=1e-6)


def test_zero_value_projections_zero_both_branches():
    rng = np.random.default_rng(7)
    s = relation_setup(rng)
    t = ad.Tape()
    zero_branch = branch_group(
        t.leaf(s["branch"][0]), t.leaf(s["branch"][1]), t.zeros((DM, DM)))
    (audio_rel, _), (visual_rel, _) = fusion.relation_aware(
        t.leaf(s["audio"]), t.leaf(s["visual"]), t.leaf(s["audio_proj"]),
        t.leaf(s["visual_proj"]), zero_branch, zero_branch)
    npt.assert_array_equal(audio_rel.data, np.zeros((T, DM)))
    npt.assert_array_equal(visual_rel.data, np.zeros((T, DM)))


def test_relation_matches_composed_attend_oracle():
    rng = np.random.default_rng(8)
    s = relation_setup(rng)
    branch2 = [rng.normal(size=(DM, DM)) for _ in range(3)]
    t = ad.Tape("f64")
    (audio_rel, audio_parts), (visual_rel, visual_parts) = fusion.relation_aware(
        t.leaf(s["audio"]), t.leaf(s["visual"]), t.leaf(s["audio_proj"]),
        t.leaf(s["visual_proj"]),
        branch_group(*leaves(t, *s["branch"])),
        branch_group(*leaves(t, *branch2)))

    t2 = ad.Tape("f64")
    a = ad.matmul(t2.leaf(s["audio"]), t2.leaf(s["audio_proj"]))
    v = ad.matmul(t2.leaf(s["visual"]), t2.leaf(s["visual_proj"]))
    expect_v, expect_v_parts = fusion.cross_modal_attend(v, a, *leaves(t2, *branch2))
    expect_a, expect_a_parts = fusion.cross_modal_attend(a, v, *leaves(t2, *s["branch"]))
    npt.assert_allclose(audio_rel.data, expect_a.data, atol=1e-9)
    npt.assert_allclose(visual_rel.data, expect_v.data, atol=1e-9)
    npt.assert_allclose(audio_parts["weights"].data, expect_a_parts["weights"].data, atol=1e-9)
    npt.assert_allclose(visual_parts["weights"].data, expect_v_parts["weights"].data,
                        atol=1e-9)


# ---------------------------------------------------------------------------
# interaction


def interaction_setup(rng):
    return dict(
        audio_rel=rng.normal(size=(T, DM)), visual_rel=rng.normal(size=(T, DM)),
        fused_proj=rng.normal(size=(2 * DM, DM)),
        branch=[rng.normal(size=(DM, DM)), rng.normal(size=(DM, DM)),
                rng.normal(size=(DM, 2 * DM))])


def test_interaction_output_shape_and_residual_halves():
    rng = np.random.default_rng(9)
    s = interaction_setup(rng)
    t = ad.Tape()
    same = t.leaf(s["audio_rel"])
    out, parts = fusion.interact(same, same, t.leaf(s["fused_proj"]),
                                 branch_group(*leaves(t, *s["branch"])))
    assert out.shape == (T, 2 * DM)
    assert parts["weights"].shape == (T, 2 * T)
    # equal branches concatenate into two identical halves of the residual
    paired = np.concatenate([s["audio_rel"], s["audio_rel"]], axis=1)
    for i in range(T):
        for j in range(DM):
            assert paired[i, j] == paired[i, DM + j]


def test_zero_audio_branch_with_zero_values_reduces_to_residual():
    rng = np.random.default_rng(10)
    s = interaction_setup(rng)
    t = ad.Tape()
    zero = t.zeros((T, DM))
    visual_rel = t.leaf(s["visual_rel"])
    branch = branch_group(t.leaf(s["branch"][0]), t.leaf(s["branch"][1]),
                          t.zeros((DM, 2 * DM)))
    out, _ = fusion.interact(zero, visual_rel, t.leaf(s["fused_proj"]), branch)
    residual = np.concatenate([np.zeros((T, DM)), s["visual_rel"]], axis=1)
    npt.assert_allclose(out.data, residual.astype(np.float32), atol=1e-7)


def test_interaction_matches_straight_line_oracle():
    rng = np.random.default_rng(11)
    s = interaction_setup(rng)
    t = ad.Tape("f64")
    out, _ = fusion.interact(t.leaf(s["audio_rel"]), t.leaf(s["visual_rel"]),
                             t.leaf(s["fused_proj"]),
                             branch_group(*leaves(t, *s["branch"])))

    resonance = s["audio_rel"] * s["visual_rel"]
    paired = np.concatenate([s["audio_rel"], s["visual_rel"]], axis=1)
    context = paired @ s["fused_proj"]
    g = np.concatenate([resonance, context], axis=0)
    scores = (resonance @ s["branch"][0]) @ (g @ s["branch"][1]).T / np.sqrt(DM)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    mixed = (e / e.sum(axis=1, keepdims=True)) @ (g @ s["branch"][2])
    npt.assert_allclose(out.data, mixed + paired, atol=1e-6)


def test_fusion_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, DM))
    y = rng.normal(size=(3, DM))
    q_p, k_p = rng.normal(size=(DM, DM)), rng.normal(size=(DM, DM))
    v_p = rng.normal(size=(DM, 2))
    mix = rng.normal(size=(3, 2))

    def build(arrs):
        tape = ad.Tape("f64")
        ls = leaves(tape, *arrs)
        out, _ = fusion.cross_modal_attend(*ls)
        return ad.sum_all(ad.mul(out, tape.leaf(mix))), ls

    result = check_gradients("fusion.attend", build, [x, y, q_p, k_p, v_p])
    assert result.passed, result.line()
