import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texturedge import (
    ConfusionCounts,
    circle_mask,
    confusion,
    f_measure_from_precision_recall,
    metrics,
    roc_az,
)
from texturedge.errors import TexturedgeError
from texturedge.evalmetrics import roc_points_csv


def oracle_concordance_az(scores, truth):
    """Fraction of (positive, negative) pairs ranked correctly, ties at 1/2."""
    s = np.asarray(scores, dtype=float).ravel()
    t = np.asarray(truth, dtype=bool).ravel()
    pos, neg = s[t], s[~t]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestCircleMask:
    def test_radius_zero_is_center(self):
        m = circle_mask(5, 5, 2, 2, 0)
        assert m.sum() == 1 and m[2, 2]

    def test_radius_one_is_plus(self):
        m = circle_mask(5, 5, 2, 2, 1)
        assert m.sum() == 5
        assert m[2, 2] and m[1, 2] and m[3, 2] and m[2, 1] and m[2, 3]

    def test_area_close_to_pi_r_squared(self):
        area = circle_mask(100, 100, 50, 50, 10).sum()
        assert abs(area - np.pi * 100) / (np.pi * 100) < 0.04

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_mask(5, 5, 2, 2, -1)

    @pytest.mark.parametrize("cx,cy,r", [
        (2, 3, 2), (2, 3, 2.5), (3.5, 1.25, 2.75), (-3, 9.5, 6), (20, -4, 5.5), (0, 0, 0)])
    @pytest.mark.parametrize("width,height", [(7, 5), (1, 9), (9, 1), (0, 4), (4, 0)])
    def test_matches_index_grid_form(self, width, height, cx, cy, r):
        yy, xx = np.mgrid[0:height, 0:width]
        want = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        got = circle_mask(width, height, cx, cy, r)
        assert got.shape == (height, width) and np.array_equal(got, want)


class TestConfusion:
    def test_identical_masks(self, rng):
        m = rng.random((10, 10)) > 0.5
        c = confusion(m, m)
        assert (c.tp, c.fp, c.fn) == (int(m.sum()), 0, 0)
        assert c.tn == m.size - m.sum()
        assert c.total == m.size

    def test_complement(self, rng):
        m = rng.random((8, 8)) > 0.5
        c = confusion(m, ~m)
        assert c.tp == 0 and c.tn == 0

    def test_hand_2x2(self):
        pred = np.array([[1, 1], [0, 0]], bool)
        truth = np.array([[1, 0], [1, 0]], bool)
        c = confusion(pred, truth)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(TexturedgeError, match=r"mask shapes differ: \(2, 2\) vs \(2, 3\)"):
            confusion(np.zeros((2, 2), bool), np.zeros((2, 3), bool))

    def test_swap_exchanges_fp_fn(self, rng):
        a = rng.random((9, 9)) > 0.4
        b = rng.random((9, 9)) > 0.6
        c1, c2 = confusion(a, b), confusion(b, a)
        assert (c1.tp, c1.tn) == (c2.tp, c2.tn)
        assert (c1.fp, c1.fn) == (c2.fn, c2.fp)
        assert metrics(c1).dice == metrics(c2).dice


class TestMetrics:
    @pytest.mark.parametrize("p,r,expected", [
        (0.9978, 0.9933, 0.9956),
        (0.9983, 0.9781, 0.9881),
        (0.9997, 0.9375, 0.9676),
        (0.0, 0.5, 0.0),
    ])
    def test_reported_precision_recall_pairs(self, p, r, expected):
        assert f_measure_from_precision_recall(p, r) == pytest.approx(expected, abs=5e-4)

    def test_all_ones_counts(self):
        rep = metrics(ConfusionCounts(1, 1, 1, 1))
        assert (rep.dice, rep.precision, rep.recall, rep.specificity,
                rep.f_measure) == (0.5, 0.5, 0.5, 0.5, 0.5)
        assert rep.zero_denominator == ()

    def test_perfect_prediction(self):
        rep = metrics(ConfusionCounts(10, 0, 0, 20))
        assert rep.dice == 1.0 and rep.f_measure == 1.0

    def test_zero_denominators_flagged(self):
        rep = metrics(ConfusionCounts(0, 0, 0, 4))
        assert rep.precision == 0.0 and rep.recall == 0.0
        assert "precision" in rep.zero_denominator
        assert "recall" in rep.zero_denominator
        assert "dice" in rep.zero_denominator
        rep = metrics(ConfusionCounts(2, 0, 0, 0))
        assert "specificity" in rep.zero_denominator

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500),
           st.integers(0, 500))
    @settings(max_examples=150, deadline=None)
    def test_dice_equals_f_measure_exactly(self, tp, fp, fn, tn):
        rep = metrics(ConfusionCounts(tp, fp, fn, tn))
        assert rep.dice == rep.f_measure

    @given(st.integers(1, 500), st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=150, deadline=None)
    def test_f_measure_is_harmonic_mean(self, tp, fp, fn):
        rep = metrics(ConfusionCounts(tp, fp, fn, 1))
        p, r = rep.precision, rep.recall
        assert rep.f_measure == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_specificity_is_one_minus_fpr(self):
        c = ConfusionCounts(3, 7, 2, 13)
        assert metrics(c).specificity == 1.0 - 7 / 20


def oracle_roc_points(scores, truth):
    """``roc_az``'s points as it built them from one stable argsort of the
    negated scores: cumulative counts read at the last pixel of each run of
    tied scores."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=bool).ravel()
    n_pos = int(np.count_nonzero(t))
    order = np.argsort(-s, kind="stable")
    s_sorted, t_sorted = s[order], t[order]
    group_ends = np.concatenate([np.nonzero(np.diff(s_sorted))[0], [s.size - 1]])
    cum_tp = np.cumsum(t_sorted)[group_ends]
    cum_fp = (group_ends + 1) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / n_pos, [1.0]])
    fpr = np.concatenate([[0.0], cum_fp / (s.size - n_pos), [1.0]])
    return np.stack([fpr, tpr], axis=1)


class TestRocAz:
    def test_perfect_separation(self):
        scores = np.array([[5.0, 4.0], [1.0, 0.0]])
        truth = np.array([[1, 1], [0, 0]], bool)
        assert roc_az(scores, truth).az == 1.0

    def test_hand_case_three_quarters(self):
        scores = np.array([[0.9, 0.4], [0.6, 0.1]])
        truth = np.array([[1, 1], [0, 0]], bool)
        curve = roc_az(scores, truth)
        assert curve.az == pytest.approx(0.75, abs=1e-12)
        assert curve.az == pytest.approx(oracle_concordance_az(scores, truth), abs=1e-12)

    def test_all_equal_scores(self):
        truth = np.array([[1, 0], [1, 0]], bool)
        curve = roc_az(np.ones((2, 2)), truth)
        assert curve.az == 0.5
        assert curve.points[0].tolist() == [0.0, 0.0]
        assert curve.points[-1].tolist() == [1.0, 1.0]

    def test_monotone_points(self, rng):
        scores = rng.random((10, 10))
        truth = rng.random((10, 10)) > 0.5
        pts = roc_az(scores, truth).points
        assert (np.diff(pts[:, 0]) >= 0).all()
        assert (np.diff(pts[:, 1]) >= 0).all()

    def test_matches_concordance_oracle_with_ties(self, rng):
        for _ in range(15):
            scores = np.round(rng.random((6, 6)) * 4) / 4  # heavy ties
            truth = rng.random((6, 6)) > 0.5
            if truth.all() or not truth.any():
                continue
            az = roc_az(scores, truth).az
            assert az == pytest.approx(oracle_concordance_az(scores, truth), abs=1e-9)

    def test_invariant_under_increasing_transform(self, rng):
        scores = rng.random((8, 8))
        truth = rng.random((8, 8)) > 0.5
        base = roc_az(scores, truth).az
        assert roc_az(3.0 * scores + 7.0, truth).az == base
        assert roc_az(np.arctan(scores), truth).az == base

    @pytest.mark.parametrize("kind", ["continuous", "ties", "signed_zeros", "one_value"])
    def test_matches_argsort_oracle_bits(self, kind, rng):
        for _ in range(20):
            shape = tuple(rng.integers(1, 30, size=2))
            truth = rng.random(shape) < rng.uniform(0.05, 0.95)
            if truth.all() or not truth.any():
                continue
            if kind == "continuous":
                scores = rng.normal(size=shape)
            elif kind == "ties":
                scores = rng.integers(-3, 4, size=shape) * 0.25
            elif kind == "signed_zeros":
                scores = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
                scores[rng.random(shape) < 0.3] = 1.0
            else:
                scores = np.full(shape, 7.5)
            curve = roc_az(scores, truth)
            want = oracle_roc_points(scores, truth)
            assert curve.points.tobytes() == want.tobytes()
            fpr, tpr = want[:, 0], want[:, 1]
            az = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
            assert curve.az.hex() == az.hex()

    def test_tied_infinities_form_one_threshold(self):
        scores = np.array([np.inf, np.inf, 1.0, -np.inf, -np.inf, 0.0])
        truth = np.array([1, 0, 1, 0, 1, 0], bool)
        curve = roc_az(scores, truth)
        assert curve.points.tolist() == [[0.0, 0.0], [1 / 3, 1 / 3], [1 / 3, 2 / 3],
                                         [2 / 3, 2 / 3], [1.0, 1.0], [1.0, 1.0]]
        assert curve.az == pytest.approx(oracle_concordance_az(scores, truth), abs=1e-12)

    def test_nan_score_is_refused(self):
        with pytest.raises(TexturedgeError, match="scores hold a NaN"):
            roc_az(np.array([[0.5, np.nan]]), np.array([[True, False]]))

    def test_no_positives(self):
        with pytest.raises(TexturedgeError, match="reference has no positive pixels"):
            roc_az(np.ones((2, 2)), np.zeros((2, 2), bool))

    def test_no_negatives(self):
        with pytest.raises(TexturedgeError, match="reference has no negative pixels"):
            roc_az(np.ones((2, 2)), np.ones((2, 2), bool))

    def test_dimension_mismatch(self):
        with pytest.raises(TexturedgeError, match=r"score/truth shapes differ: \(2, 2\) vs"):
            roc_az(np.ones((2, 2)), np.ones((2, 3), bool))

    def test_points_csv(self):
        truth = np.array([[1, 0], [1, 0]], bool)
        curve = roc_az(np.ones((2, 2)), truth)
        lines = roc_points_csv(curve).splitlines()
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0.0,0.0" and lines[-1] == "1.0,1.0"
