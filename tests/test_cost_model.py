"""Tests for the quadratic net-metering cost model (Eqns. 2-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.netmetering.cost import NetMeteringCostModel

H = 4
PRICES = (0.02, 0.03, 0.04, 0.05)


@pytest.fixture
def model() -> NetMeteringCostModel:
    return NetMeteringCostModel(prices=PRICES, sellback_divisor=2.0)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            NetMeteringCostModel(prices=())

    def test_rejects_negative_price(self):
        with pytest.raises(ValueError, match="finite"):
            NetMeteringCostModel(prices=(0.1, -0.1))

    def test_rejects_w_below_one(self):
        with pytest.raises(ValueError, match="sellback"):
            NetMeteringCostModel(prices=PRICES, sellback_divisor=0.5)

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_rejects_non_finite_w(self, w):
        with pytest.raises(ValueError, match="sellback_divisor must be finite"):
            NetMeteringCostModel(prices=PRICES, sellback_divisor=w)


class TestCustomerCost:
    def test_buying_branch(self, model):
        """C = p * (Y_others + y) * y for y >= 0."""
        y = np.array([1.0, 2.0, 0.0, 1.0])
        others = np.array([10.0, 10.0, 10.0, 10.0])
        per_slot = model.customer_cost_per_slot(y, others)
        expected = np.array(PRICES) * (others + y) * y
        np.testing.assert_allclose(per_slot, expected)

    def test_selling_branch_reward(self, model):
        """Selling into a net-buying community is rewarded (negative cost)."""
        y = np.array([-1.0, 0.0, 0.0, 0.0])
        others = np.array([10.0, 0.0, 0.0, 0.0])
        per_slot = model.customer_cost_per_slot(y, others)
        expected = (0.02 / 2.0) * (10.0 - 1.0) * (-1.0)
        assert per_slot[0] == pytest.approx(expected)
        assert per_slot[0] < 0  # reward

    def test_oversupply_floor(self, model):
        """No reward for selling when the whole community is a net seller."""
        y = np.array([-1.0, 0.0, 0.0, 0.0])
        others = np.array([-5.0, 0.0, 0.0, 0.0])
        per_slot = model.customer_cost_per_slot(y, others)
        assert per_slot[0] == pytest.approx(0.0)

    def test_multiplicity_total(self, model):
        """Herd pricing: total includes all instances' moves."""
        y = np.array([1.0, 0.0, 0.0, 0.0])
        others = np.array([10.0, 0.0, 0.0, 0.0])
        per_slot = model.customer_cost_per_slot(y, others, multiplicity=5)
        expected = 0.02 * (10.0 + 5.0 * 1.0) * 1.0
        assert per_slot[0] == pytest.approx(expected)

    def test_multiplicity_one_matches_default(self, model):
        y = np.array([0.5, -0.3, 1.0, 0.0])
        others = np.full(H, 3.0)
        np.testing.assert_allclose(
            model.customer_cost_per_slot(y, others),
            model.customer_cost_per_slot(y, others, multiplicity=1),
        )

    def test_rejects_bad_multiplicity(self, model):
        with pytest.raises(ValueError):
            model.customer_cost_per_slot(np.zeros(H), np.zeros(H), multiplicity=0)

    def test_total_is_sum(self, model):
        y = np.array([1.0, -0.5, 2.0, 0.0])
        others = np.full(H, 5.0)
        assert model.customer_cost(y, others) == pytest.approx(
            model.customer_cost_per_slot(y, others).sum()
        )


class TestCommunityCost:
    def test_quadratic(self, model):
        y = np.array([2.0, 3.0, 0.0, 1.0])
        expected = sum(p * v**2 for p, v in zip(PRICES, y))
        assert model.community_cost(y) == pytest.approx(expected)

    def test_export_slots_free(self, model):
        assert model.community_cost(np.array([-3.0, 0.0, 0.0, 0.0])) == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, H, elements=st.floats(0.0, 50.0)))
    def test_customer_shares_bounded_by_community(self, total):
        """With one customer owning all trading, the share formula matches
        the community quadratic exactly."""
        model = NetMeteringCostModel(prices=PRICES, sellback_divisor=2.0)
        per_slot = model.customer_cost_per_slot(total, np.zeros(H))
        assert per_slot.sum() == pytest.approx(model.community_cost(total))


class TestMarginalCostTable:
    def test_zero_level_is_free(self, model):
        table = model.marginal_cost_table(
            np.ones(H), np.full(H, 5.0), np.array([0.0, 1.0, 2.0])
        )
        np.testing.assert_allclose(table[:, 0], 0.0, atol=1e-12)

    def test_consistency_with_cost(self, model):
        """Table entry equals the cost difference of adding the level."""
        base = np.array([1.0, 0.5, 0.0, 2.0])
        others = np.full(H, 8.0)
        levels = np.array([0.0, 1.0])
        table = model.marginal_cost_table(base, others, levels)
        for h in range(H):
            bumped = base.copy()
            bumped[h] += 1.0
            delta = model.customer_cost(bumped, others) - model.customer_cost(
                base, others
            )
            assert table[h, 1] == pytest.approx(delta)

    def test_consistency_with_cost_multiplicity(self, model):
        base = np.array([1.0, 0.5, 0.0, 2.0])
        others = np.full(H, 8.0)
        levels = np.array([0.0, 1.0])
        m = 4
        table = model.marginal_cost_table(base, others, levels, multiplicity=m)
        for h in range(H):
            bumped = base.copy()
            bumped[h] += 1.0
            before = model.customer_cost_per_slot(base, others, multiplicity=m).sum()
            after = model.customer_cost_per_slot(bumped, others, multiplicity=m).sum()
            assert table[h, 1] == pytest.approx(after - before)

    def test_increasing_in_level(self, model):
        """With positive community demand, more power costs more."""
        table = model.marginal_cost_table(
            np.ones(H), np.full(H, 10.0), np.array([0.0, 0.5, 1.0, 2.0])
        )
        assert np.all(np.diff(table, axis=1) > 0)

    def test_slot_hours_scaling(self, model):
        half = model.marginal_cost_table(
            np.ones(H), np.full(H, 10.0), np.array([0.0, 1.0]), slot_hours=0.5
        )
        full = model.marginal_cost_table(
            np.ones(H), np.full(H, 10.0), np.array([0.0, 0.5])
        )
        np.testing.assert_allclose(half, full)

    def test_rejects_wrong_shapes(self, model):
        with pytest.raises(ValueError):
            model.marginal_cost_table(np.ones(3), np.ones(H), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            model.marginal_cost_table(
                np.ones(H), np.ones(H), np.array([[0.0], [1.0]])
            )
