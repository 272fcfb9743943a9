"""Loss functions: closed-form cases, finite-difference gradients, prefix oracle."""

import numpy as np
import pytest

import splatocc as so
from splatocc.losses import softmax

from oracles import central_difference_gradient, lovasz_prefix_extension


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(27)
        logits = rng.normal(size=(40, 7)) * 2
        targets = rng.integers(0, 7, 40)
        value, grad = so.focal_loss(logits, targets, gamma=0.0)
        p = softmax(logits)
        ce = -np.mean(np.log(p[np.arange(40), targets]))
        assert abs(value - ce) <= 1e-12
        ce_grad = p.copy()
        ce_grad[np.arange(40), targets] -= 1.0
        np.testing.assert_allclose(grad, ce_grad / 40, atol=1e-12)

    def test_half_confidence_single_item(self):
        logits = np.array([[0.0, 0.0]])
        value, _ = so.focal_loss(logits, np.array([0]), gamma=2.0)
        assert value == pytest.approx(0.25 * np.log(2.0), abs=1e-12)
        assert value == pytest.approx(0.173287, abs=1e-6)

    def test_perfect_prediction_vanishes(self):
        logits = np.array([[40.0, 0.0, 0.0]])
        value, grad = so.focal_loss(logits, np.array([0]), gamma=2.0)
        assert value <= 1e-12
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(28)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            nc = int(rng.integers(2, 6))
            gamma = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            logits = rng.normal(size=(n, nc)) * 1.5
            targets = rng.integers(0, nc, n)
            _, grad = so.focal_loss(logits, targets, gamma=gamma)
            fd = central_difference_gradient(
                lambda z: so.focal_loss(z, targets, gamma=gamma)[0], logits
            )
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(grad - fd) / denom) <= 1e-4

    def test_ignore_index(self):
        logits = np.array([[0.0, 3.0], [5.0, 0.0]])
        value, grad = so.focal_loss(logits, np.array([1, 255]), gamma=0.0, ignore_index=255)
        only, _ = so.focal_loss(logits[:1], np.array([1]), gamma=0.0)
        assert value == pytest.approx(only, abs=1e-15)
        assert np.all(grad[1] == 0.0)

    def test_all_ignored_raises(self):
        with pytest.raises(so.UndefinedLossError):
            so.focal_loss(np.zeros((2, 3)), np.array([9, 9]), ignore_index=9)

    @pytest.mark.parametrize("count", [1, 5])
    def test_target_count_must_match_rows(self, count):
        # Too few targets would score only the first rows; too many would
        # index past the logits.
        with pytest.raises(ValueError, match="one entry per logits row"):
            so.focal_loss(np.zeros((3, 4)), np.ones(count, dtype=int))

    def test_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            logits = rng.normal(size=(10, 4)) * 3
            targets = rng.integers(0, 4, 10)
            value, _ = so.focal_loss(logits, targets, gamma=float(rng.uniform(0, 3)))
            assert value >= 0.0


class TestLovaszSoftmax:
    def test_perfect_hard_prediction_is_zero(self):
        logits = np.array([[30.0, 0.0], [0.0, 30.0], [30.0, 0.0]])
        targets = np.array([0, 1, 0])
        assert so.lovasz_softmax(logits, targets) <= 1e-12

    def test_single_item_binary_value(self):
        # softmax gives p(target) = 0.3; the single-element extension equals
        # the error itself, 0.7.
        p_target = 0.3
        logit_gap = np.log(p_target / (1 - p_target))
        logits = np.array([[logit_gap, 0.0]])
        targets = np.array([0])
        assert so.lovasz_softmax(logits, targets) == pytest.approx(0.7, abs=1e-9)

    def test_five_item_binary_matches_prefix_oracle(self):
        rng = np.random.default_rng(30)
        logits = rng.normal(size=(5, 2)) * 2
        targets = np.array([1, 0, 1, 1, 0])
        p = softmax(logits)
        expected = 0.0
        for c in (0, 1):
            fg = (targets == c).astype(float)
            expected += lovasz_prefix_extension(np.abs(fg - p[:, c]), fg)
        expected /= 2
        assert so.lovasz_softmax(logits, targets) == pytest.approx(expected, abs=1e-9)

    def test_random_binary_cases_match_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            logits = rng.normal(size=(n, 2)) * 3
            targets = rng.integers(0, 2, n)
            p = softmax(logits)
            present = np.unique(targets)
            expected = np.mean([
                lovasz_prefix_extension(np.abs((targets == c).astype(float) - p[:, c]),
                                        (targets == c).astype(float))
                for c in present
            ])
            assert so.lovasz_softmax(logits, targets) == pytest.approx(expected, abs=1e-9)

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            nc = int(rng.integers(2, 8))
            value = so.lovasz_softmax(rng.normal(size=(n, nc)) * 4, rng.integers(0, nc, n))
            assert 0.0 <= value <= 1.0

    def test_all_ignored_raises(self):
        with pytest.raises(so.UndefinedLossError):
            so.lovasz_softmax(np.zeros((3, 4)), np.full(3, 255), ignore_index=255)

    @pytest.mark.parametrize("count", [1, 5])
    def test_target_count_must_match_rows(self, count):
        with pytest.raises(ValueError, match="one entry per logits row"):
            so.lovasz_softmax(np.zeros((3, 4)), np.ones(count, dtype=int))


class TestHuberDepth:
    def test_zero_residual(self):
        value, grad = so.huber_depth(np.array([2.0]), np.array([2.0]), delta=1.0)
        assert value == 0.0 and grad[0] == 0.0

    def test_quadratic_branch(self):
        value, _ = so.huber_depth(np.array([2.5]), np.array([2.0]), delta=1.0)
        assert value == pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        value, _ = so.huber_depth(np.array([4.0]), np.array([2.0]), delta=1.0)
        assert value == pytest.approx(1.5, abs=1e-15)

    def test_invalid_targets_ignored(self):
        pred = np.array([1.0, 2.0, 3.0, 4.0])
        target = np.array([1.5, np.nan, -1.0, np.inf])
        value, grad = so.huber_depth(pred, target, delta=1.0)
        assert value == pytest.approx(0.125)
        assert np.all(grad[1:] == 0.0)

    def test_no_valid_targets_raises(self):
        with pytest.raises(so.UndefinedLossError):
            so.huber_depth(np.array([1.0]), np.array([np.nan]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            delta = float(rng.uniform(0.3, 2.0))
            target = rng.uniform(0.5, 5.0, n)
            pred = target + rng.normal(size=n) * delta * 2
            # keep residuals away from the |r| = delta kink
            kink = np.abs(np.abs(pred - target) - delta) < 1e-3
            pred[kink] += 0.01
            _, grad = so.huber_depth(pred, target, delta=delta)
            fd = central_difference_gradient(
                lambda x: so.huber_depth(x, target, delta=delta)[0], pred
            )
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(grad - fd) / denom) <= 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            so.huber_depth(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("call, words", [
    # A NaN gamma passes a plain gamma < 0 test and gives a NaN value and gradient.
    (lambda: so.focal_loss(np.zeros((2, 3)), [0, 1], gamma=np.nan), "gamma must be finite"),
    (lambda: so.focal_loss(np.zeros((2, 3)), [0, 1], gamma=np.inf), "gamma must be finite"),
    (lambda: so.focal_loss(np.zeros((2, 3)), [0, 1], gamma=-1.0), "gamma must be finite"),
    (lambda: so.focal_loss(np.zeros(3), [0]), r"logits must be \(n_items, num_classes\)"),
    (lambda: so.focal_loss(np.zeros((2, 3)), [0, 3]), r"targets must lie in \[0, num_classes\)"),
    (lambda: so.lovasz_softmax(np.zeros((2, 3)), [-1, 0]), r"targets must lie in \[0, num_c"),
    (lambda: so.huber_depth(np.ones(2), np.ones(2), delta=0.0), "delta must be > 0"),
    (lambda: so.huber_depth(np.ones(2), np.ones(2), delta=np.nan), "delta must be > 0"),
    (lambda: so.huber_depth([np.nan, 1.0], [1.0, 1.0]), "pred must be finite"),
], ids=["gamma-nan", "gamma-inf", "gamma-negative", "logits-1d", "focal-target-3",
        "lovasz-target-negative", "delta-zero", "delta-nan", "pred-nan"])
def test_bad_input_rejected(call, words):
    with pytest.raises(ValueError, match=words):
        call()
