"""Best-model selection and Rashomon set formation."""

from __future__ import annotations

import pytest

from rashpdp.rashomon import form_set

from conftest import stub_pool


class TestSelectBest:
    """The best model `form_set` puts first."""

    def test_argmin_by_score(self):
        pool = stub_pool([3.0, 1.0, 2.0])
        assert form_set(pool).best_id == 1

    def test_tie_broken_by_training_order(self):
        pool = stub_pool([1.0, 1.0])
        assert form_set(pool).best_id == 0

    def test_single_model(self):
        assert form_set(stub_pool([4.2])).best_id == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty pool"):
            form_set([])

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            form_set(stub_pool([1.0, float("inf")]))

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError, match="model 1 has non-finite or negative score"):
            form_set(stub_pool([1.0, -0.5]))


class TestFormSet:
    def test_threshold_is_multiplicative(self):
        pool = stub_pool([1.0, 1.04, 1.05, 1.051, 2.0])
        rset = form_set(pool, 0.05)
        # 1.05 is exactly on the boundary and counts as a member
        assert rset.member_ids == (0, 1, 2)
        assert rset.threshold == pytest.approx(1.05)
        assert rset.rss == 3
        assert rset.rr == pytest.approx(3 / 5)

    def test_nineteen_model_pool_with_thirteen_members(self):
        # 13 of 19 within tolerance reproduces a ratio of 0.6842 at 4 d.p.
        scores = [1.0 + 0.003 * i for i in range(13)] + [2.0 + i for i in range(6)]
        rset = form_set(stub_pool(scores), 0.05)
        assert rset.rss == 13
        assert rset.rr == pytest.approx(13 / 19)
        assert round(rset.rr, 4) == 0.6842

    def test_twenty_two_model_pool_with_two_members(self):
        scores = [1.0, 1.01] + [5.0 + i for i in range(20)]
        rset = form_set(stub_pool(scores), 0.05)
        assert rset.rss == 2
        assert abs(rset.rr - 0.0909) < 1e-4

    def test_perfect_best_score_keeps_only_perfect_models(self):
        pool = stub_pool([0.0, 0.0, 1e-12, 0.5])
        rset = form_set(pool, 0.05)
        assert rset.threshold == 0.0
        assert rset.member_ids == (0, 1)

    def test_member_order_by_score_then_id(self):
        pool = stub_pool([1.02, 1.0, 1.02, 1.01])
        rset = form_set(pool, 0.05)
        assert rset.member_ids == (1, 3, 0, 2)
        assert rset.best_id == 1

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            form_set(stub_pool([1.0]), 0.0)

    def test_nan_epsilon_named(self):
        with pytest.raises(ValueError, match="epsilon must be > 0, got nan"):
            form_set(stub_pool([1.0, 2.0]), float("nan"))

    def test_infinite_epsilon_keeps_every_model(self):
        assert form_set(stub_pool([2.0, 1.0, 9.0]), float("inf")).member_ids == (1, 0, 2)

    def test_infinite_epsilon_with_a_perfect_score_rejected(self):
        with pytest.raises(ValueError, match="epsilon inf with a best score of 0"):
            form_set(stub_pool([0.0, 1.0]), float("inf"))

    def test_members_are_the_pool_models_best_first(self):
        pool = stub_pool([1.02, 1.0, 3.0])
        rset = form_set(pool, 0.05)
        assert len(rset.members) == 2
        assert rset.members[0] is pool[1] and rset.members[1] is pool[0]
        assert rset.members[0].id == rset.best_id

    def test_monotone_in_epsilon(self):
        pool = stub_pool([1.0, 1.02, 1.07, 1.2, 3.0])
        small = set(form_set(pool, 0.01).member_ids)
        mid = set(form_set(pool, 0.08).member_ids)
        large = set(form_set(pool, 0.5).member_ids)
        assert small <= mid <= large

    def test_best_model_always_member(self):
        for eps in (1e-9, 0.05, 10.0):
            rset = form_set(stub_pool([2.0, 2.5]), eps)
            assert rset.best_id in rset.member_ids
            assert rset.rss >= 1

    def test_score_scaling_leaves_membership_unchanged(self):
        scores = [1.0, 1.03, 1.06, 2.0]
        base = form_set(stub_pool(scores), 0.05).member_ids
        scaled = form_set(stub_pool([s * 137.5 for s in scores]), 0.05).member_ids
        assert base == scaled
