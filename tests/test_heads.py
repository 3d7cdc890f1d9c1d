"""Classifier heads, threshold decoding, and both losses."""

import numpy as np
import numpy.testing as npt
import pytest

from avloc import autodiff as ad
from avloc import heads
from avloc.errors import LabelError, ShapeError
from avloc.gradcheck import check_gradients

T, WIDTH, C = 6, 8, 4


def head_group(class_weight, class_bias, event_weight, event_bias):
    return {"class_weight": class_weight, "class_bias": class_bias,
            "event_weight": event_weight, "event_bias": event_bias}


def random_head_leaves(tape, rng, n_out=C, event_bias=0.0):
    return head_group(
        class_weight=tape.leaf(rng.normal(size=(WIDTH, n_out))),
        class_bias=tape.leaf(np.zeros((1, n_out))),
        event_weight=tape.leaf(rng.normal(size=(WIDTH, 1))),
        event_bias=tape.leaf(np.full((1, 1), event_bias)))


# ---------------------------------------------------------------------------
# heads


def test_large_negative_event_bias_decodes_everything_to_background():
    rng = np.random.default_rng(0)
    t = ad.Tape()
    fused = t.leaf(rng.normal(size=(T, WIDTH)))
    hl = random_head_leaves(t, rng, event_bias=-20.0)
    scores = heads.event_relevance(fused, hl)
    assert (scores.data < 0.5).all()
    probs = heads.class_distribution(fused, hl)
    decoded = heads.decode_supervised(probs.data[0], scores.data[:, 0])
    npt.assert_array_equal(decoded, np.full(T, C))


def test_zero_class_weights_give_uniform_distribution():
    rng = np.random.default_rng(1)
    t = ad.Tape()
    fused = t.leaf(rng.normal(size=(T, WIDTH)))
    hl = head_group(t.zeros((WIDTH, C)), t.zeros((1, C)),
                    t.leaf(rng.normal(size=(WIDTH, 1))), t.zeros((1, 1)))
    probs = heads.class_distribution(fused, hl)
    npt.assert_allclose(probs.data, np.full((1, C), 1.0 / C), atol=1e-7)


def test_decoded_labels_match_independent_threshold_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        probs = rng.dirichlet(np.ones(C))
        scores = rng.uniform(size=T)
        decoded = heads.decode_supervised(probs, scores)
        for t_idx in range(T):  # independent re-derivation
            if scores[t_idx] > 0.5:
                assert decoded[t_idx] == int(np.argmax(probs))
            else:
                assert decoded[t_idx] == C


def test_threshold_boundary_goes_to_background():
    probs = np.array([0.7, 0.1, 0.1, 0.1])
    decoded = heads.decode_supervised(probs, np.array([0.499, 0.5, 0.501]))
    npt.assert_array_equal(decoded, [C, C, 0])


def test_class_probs_sum_to_one_and_permutation_equivariance():
    rng = np.random.default_rng(3)
    fused = rng.normal(size=(T, WIDTH))
    weight = rng.normal(size=(WIDTH, C))
    bias = rng.normal(size=(1, C))
    perm = rng.permutation(C)

    def run(w, b):
        t = ad.Tape("f64")
        hl = head_group(t.leaf(w), t.leaf(b),
                        t.leaf(np.zeros((WIDTH, 1))), t.zeros((1, 1)))
        return heads.class_distribution(t.leaf(fused), hl).data[0]

    base = run(weight, bias)
    npt.assert_allclose(base.sum(), 1.0, atol=1e-6)
    permuted = run(weight[:, perm], bias[:, perm])
    npt.assert_allclose(permuted, base[perm], atol=1e-9)


# ---------------------------------------------------------------------------
# supervised loss


def test_perfect_prediction_has_negligible_loss():
    t = ad.Tape("f64")
    probs = t.leaf([[1.0 - 2e-9, 1e-9, 1e-9]])
    scores = t.leaf([[1.0 - 1e-9], [1e-9], [1.0 - 1e-9]])
    loss = heads.supervised_loss(probs, scores, 0, np.array([1, 0, 1]))
    assert loss.item() < 1e-6


def test_uniform_distribution_over_28_classes_costs_ln28():
    t = ad.Tape("f64")
    probs = t.leaf(np.full((1, 28), 1.0 / 28))
    scores = t.leaf(np.full((T, 1), 0.5))
    _, class_term, _ = heads.supervised_loss_terms(probs, scores, 5,
                                                   np.zeros(T, dtype=int))
    npt.assert_allclose(class_term.item(), np.log(28.0), atol=1e-9)
    assert abs(class_term.item() - 3.3322) < 1e-4


def test_half_scores_cost_ln2_regardless_of_labels():
    t = ad.Tape("f64")
    probs = t.leaf(np.full((1, C), 1.0 / C))
    scores = t.leaf(np.full((T, 1), 0.5))
    for relevance in (np.zeros(T, dtype=int), np.ones(T, dtype=int),
                      np.array([1, 0, 1, 0, 1, 0])):
        _, _, event_term = heads.supervised_loss_terms(probs, scores, 0, relevance)
        npt.assert_allclose(event_term.item(), np.log(2.0), atol=1e-9)


def test_total_is_exactly_class_plus_event_and_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(10):
        t = ad.Tape()
        fused = t.leaf(rng.normal(size=(T, WIDTH)))
        hl = random_head_leaves(t, rng)
        total, class_term, event_term = heads.supervised_loss_terms(
            heads.class_distribution(fused, hl), heads.event_relevance(fused, hl),
            int(rng.integers(C)), rng.integers(0, 2, T))
        # exact in the tape's own (f32) arithmetic
        npt.assert_array_equal(total.data, class_term.data + event_term.data)
        assert total.item() >= 0.0


def test_class_index_out_of_range_is_label_error():
    t = ad.Tape()
    probs = t.leaf(np.full((1, C), 1.0 / C))
    scores = t.leaf(np.full((T, 1), 0.5))
    for index in (-1, C + 1):
        with pytest.raises(LabelError):
            heads.supervised_loss(probs, scores, index, np.zeros(T, dtype=int))


def test_background_video_has_no_class_term_and_its_full_event_term():
    rng = np.random.default_rng(7)
    relevance = np.zeros(2 * T, dtype=int)
    relevance[:3] = 1
    t = ad.Tape(videos=2)
    probs = t.leaf(rng.dirichlet(np.ones(C), size=2))
    scores = t.leaf(rng.uniform(0.1, 0.9, size=(2 * T, 1)))
    _, class_term, event_term = heads.supervised_loss_terms(probs, scores, [1, C], relevance)
    # the class term's sum holds the event video alone, over both videos
    npt.assert_allclose(class_term.item(), -np.log(probs.data[0, 1]) / 2, rtol=1e-6)
    p, y = scores.data[:, 0].astype(float), relevance
    bce = -(y * np.log(p) + (1 - y) * np.log(1 - p)).sum() / (2 * T)
    npt.assert_allclose(event_term.item(), bce, rtol=1e-6)


# ---------------------------------------------------------------------------
# weak loss


def test_single_segment_weak_loss_is_plain_cross_entropy():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(1, C + 1))
    t = ad.Tape("f64")
    loss = heads.weak_aggregate_loss(t.leaf(logits), 2)
    e = np.exp(logits[0] - logits[0].max())
    expected = -np.log(e[2] / e.sum())
    npt.assert_allclose(loss.item(), expected, atol=1e-9)


def test_duplicating_segments_keeps_the_video_argmax():
    rng = np.random.default_rng(6)
    for _ in range(10):
        logits = rng.normal(size=(5, C + 1))
        doubled = np.concatenate([logits, logits], axis=0)
        assert np.argmax(logits.sum(axis=0)) == np.argmax(doubled.sum(axis=0))
        # pre-softmax sums literally double
        npt.assert_allclose(doubled.sum(axis=0), 2 * logits.sum(axis=0))


def test_uniform_segment_scores_cost_ln_c_plus_one():
    t = ad.Tape("f64")
    loss = heads.weak_aggregate_loss(t.leaf(np.zeros((T, C + 1))), 1)
    npt.assert_allclose(loss.item(), np.log(C + 1.0), atol=1e-9)


def test_weak_label_out_of_range_is_label_error():
    t = ad.Tape()
    with pytest.raises(LabelError):
        heads.weak_aggregate_loss(t.leaf(np.zeros((T, C + 1))), C + 1)


@pytest.mark.parametrize("n_classes", [1, 4])
@pytest.mark.parametrize("mode", ["supervised", "weak"])
def test_one_video_class_per_video_of_the_tape(mode, n_classes):
    # 4 classes divide the 2*T rows of a 2-video tape, so the count cannot
    # be read off the rows
    rng = np.random.default_rng(9)
    t = ad.Tape("f64", videos=2)
    classes = list(range(n_classes))
    with pytest.raises(ShapeError, match="2 video"):
        if mode == "weak":
            heads.weak_aggregate_loss(t.leaf(rng.normal(size=(2 * T, C + 1))), classes)
        else:
            heads.supervised_loss(t.leaf(np.full((2, C), 1.0 / C)),
                                  t.leaf(np.full((2 * T, 1), 0.5)), classes,
                                  np.zeros(2 * T, dtype=int))


def test_weak_decode_uses_per_segment_argmax():
    logits = np.array([[5.0, 0.0, 0.0], [0.0, 1.0, 3.0]])
    npt.assert_array_equal(heads.decode_weak(logits), [0, 2])


# ---------------------------------------------------------------------------
# gradients


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    fused = rng.normal(size=(3, WIDTH))
    relevance = np.array([1, 0, 1])
    arrays = [fused, rng.normal(size=(WIDTH, C)), rng.normal(size=(1, C)),
              rng.normal(size=(WIDTH, 1)), rng.normal(size=(1, 1))]

    def build_supervised(arrs):
        tape = ad.Tape("f64")
        f, cw, cb, ew, eb = [tape.leaf(a) for a in arrs]
        hl = head_group(cw, cb, ew, eb)
        loss = heads.supervised_loss(heads.class_distribution(f, hl),
                                     heads.event_relevance(f, hl), 1, relevance)
        return loss, [f, cw, cb, ew, eb]

    result = check_gradients("heads.supervised", build_supervised, arrays)
    assert result.passed, result.line()

    weak_arrays = [fused, rng.normal(size=(WIDTH, C + 1)), rng.normal(size=(1, C + 1))]

    def build_weak(arrs):
        tape = ad.Tape("f64")
        f, cw, cb = [tape.leaf(a) for a in arrs]
        logits = ad.add(ad.matmul(f, cw), cb)
        return heads.weak_aggregate_loss(logits, 3), [f, cw, cb]

    result = check_gradients("heads.weak", build_weak, weak_arrays)
    assert result.passed, result.line()
