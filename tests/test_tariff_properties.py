"""Property-based invariants of the tariff layer (docs/SCENARIOS.md).

Hypothesis-driven pins on the billing identities the scenario matrix
rests on:

- customer cost is monotone in the buy rates (import slots only);
- the selling branch never *charges* for exports under the default
  rewarding sign, and both ``paper_literal`` sign readings are pinned
  against each other slot for slot;
- the NEM-3 export cap binds *exactly* at the cap — compensation below
  the cap matches the uncapped model bitwise, compensation beyond it is
  frozen at the cap quantity;
- ``FlatNetMetering`` with an explicit divisor reproduces the legacy
  :class:`~repro.netmetering.cost.NetMeteringCostModel` bitwise on
  random communities (the Table 1 equivalence, in miniature);
- both cost models and both kernel backends match Eqn. (2) written out
  here, independently of the one formula they share;
- serialization round-trips and fingerprints are stable for every
  registered tariff kind.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels import available_backends, get_backend
from repro.netmetering.cost import NetMeteringCostModel, cost_terms
from repro.tariffs import (
    NAMED_TARIFFS,
    BuySellSpread,
    FlatNetMetering,
    MonthlyNetting,
    TariffCostModel,
    TimeOfUse,
    named_tariff,
    tariff_fingerprint,
    tariff_from_dict,
    tariff_to_dict,
)

H = 8

prices_st = arrays(np.float64, H, elements=st.floats(0.001, 0.2))
trading_st = arrays(np.float64, H, elements=st.floats(-4.0, 5.0))
others_st = arrays(np.float64, H, elements=st.floats(0.0, 40.0))
divisor_st = st.floats(1.0, 5.0)
multiplicity_st = st.integers(1, 4)
cap_st = st.one_of(st.none(), st.floats(0.5, 3.0))


def eqn2(buy, sell, trading, others, *, multiplicity=1, literal=False, cap=None):
    """Eqn. (2) written out: buy ``p*T*y``, sell ``(p/W)*T*y``.

    ``T = max(others + m*y, 0)``; the sell term is negated for the
    paper-literal sign and prices ``max(y, -cap)`` under a cap.
    """
    total = np.maximum(others + multiplicity * trading, 0.0)
    sold = trading if cap is None else np.maximum(trading, -cap)
    sell_term = sell * total * sold
    if literal:
        sell_term = -sell_term
    return np.where(trading >= 0, buy * total * trading, sell_term)


class TestBuyRateMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        prices=prices_st,
        trading=trading_st,
        others=others_st,
        markup_lo=st.floats(0.5, 1.5),
        markup_hi=st.floats(0.0, 1.5),
    )
    def test_cost_monotone_in_buy_rates(
        self, prices, trading, others, markup_lo, markup_hi
    ):
        """Raising every buy rate never lowers any slot's cost.

        Import slots scale with the buy rate; export slots ignore it
        entirely, so the per-slot cost vector is elementwise monotone.
        """
        lo = TariffCostModel(
            buy_rates=tuple(prices * markup_lo),
            sell_rates=tuple(prices * 0.5),
        )
        hi = TariffCostModel(
            buy_rates=tuple(prices * (markup_lo + markup_hi)),
            sell_rates=tuple(prices * 0.5),
        )
        cost_lo = lo.customer_cost_per_slot(trading, others)
        cost_hi = hi.customer_cost_per_slot(trading, others)
        assert np.all(cost_hi >= cost_lo)
        # Export slots are buy-rate-independent — bitwise, not just close.
        exporting = trading < 0
        assert np.array_equal(cost_hi[exporting], cost_lo[exporting])


class TestSellingBranchSign:
    @settings(max_examples=60, deadline=None)
    @given(prices=prices_st, trading=trading_st, others=others_st)
    def test_rewarding_sign_never_charges_for_exports(
        self, prices, trading, others
    ):
        """Default reading: an exporting slot's cost is never positive."""
        model = TariffCostModel(
            buy_rates=tuple(prices), sell_rates=tuple(prices * 0.5)
        )
        per_slot = model.customer_cost_per_slot(trading, others)
        assert np.all(per_slot[trading < 0] <= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(prices=prices_st, trading=trading_st, others=others_st)
    def test_both_sign_readings_pinned_against_each_other(
        self, prices, trading, others
    ):
        """``paper_literal=True`` is an exact sign flip of the selling
        branch — import slots identical, export slots negated, bitwise."""
        rewarding = TariffCostModel(
            buy_rates=tuple(prices), sell_rates=tuple(prices * 0.5)
        )
        literal = TariffCostModel(
            buy_rates=tuple(prices),
            sell_rates=tuple(prices * 0.5),
            paper_literal=True,
        )
        cost_r = rewarding.customer_cost_per_slot(trading, others)
        cost_l = literal.customer_cost_per_slot(trading, others)
        importing = trading >= 0
        assert np.array_equal(cost_l[importing], cost_r[importing])
        assert np.array_equal(cost_l[~importing], -cost_r[~importing])
        assert np.all(cost_l[~importing] >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        prices=prices_st, trading=trading_st, others=others_st, w=divisor_st
    )
    def test_legacy_model_sign_toggle_matches(self, prices, trading, others, w):
        """The legacy class's ``paper_literal`` toggle obeys the same
        pin: selling branch negated, buying branch untouched."""
        default = NetMeteringCostModel(prices=tuple(prices), sellback_divisor=w)
        literal = NetMeteringCostModel(
            prices=tuple(prices), sellback_divisor=w, paper_literal=True
        )
        cost_d = default.customer_cost_per_slot(trading, others)
        cost_l = literal.customer_cost_per_slot(trading, others)
        importing = trading >= 0
        assert np.array_equal(cost_l[importing], cost_d[importing])
        assert np.array_equal(cost_l[~importing], -cost_d[~importing])


class TestExportCap:
    @settings(max_examples=60, deadline=None)
    @given(
        prices=prices_st,
        trading=trading_st,
        others=others_st,
        cap=st.floats(0.5, 3.0),
    )
    def test_cap_binds_exactly_at_cap(self, prices, trading, others, cap):
        """Compensated quantity is ``max(y, -cap)``: within the cap the
        capped and uncapped models agree bitwise; beyond it the credit
        is the cap quantity's, recomputed independently here."""
        uncapped = TariffCostModel(
            buy_rates=tuple(prices), sell_rates=tuple(prices * 0.5)
        )
        capped = TariffCostModel(
            buy_rates=tuple(prices),
            sell_rates=tuple(prices * 0.5),
            export_cap_kwh=cap,
        )
        cost_u = uncapped.customer_cost_per_slot(trading, others)
        cost_c = capped.customer_cost_per_slot(trading, others)
        within = trading >= -cap
        assert np.array_equal(cost_c[within], cost_u[within])
        beyond = ~within
        total = np.maximum(others + trading, 0.0)
        expected = (prices * 0.5) * total * (-cap)
        assert np.array_equal(cost_c[beyond], expected[beyond])
        # The cap never *increases* the credit's magnitude.
        assert np.all(cost_c[beyond] >= cost_u[beyond])

    def test_boundary_slot_is_bitwise_shared(self):
        """A slot exporting exactly the cap is on both branches at once;
        the models must agree there bitwise."""
        prices = np.linspace(0.02, 0.1, H)
        trading = np.full(H, -1.5)
        others = np.full(H, 10.0)
        cost_c = TariffCostModel(
            buy_rates=tuple(prices),
            sell_rates=tuple(prices * 0.5),
            export_cap_kwh=1.5,
        ).customer_cost_per_slot(trading, others)
        cost_u = TariffCostModel(
            buy_rates=tuple(prices), sell_rates=tuple(prices * 0.5)
        ).customer_cost_per_slot(trading, others)
        assert np.array_equal(cost_c, cost_u)


class TestFlatEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        prices=prices_st, trading=trading_st, others=others_st, w=divisor_st
    )
    def test_flat_tariff_is_the_legacy_model(self, prices, trading, others, w):
        """``FlatNetMetering(sellback_divisor=W)`` yields the *identical*
        legacy cost model — same object type, same per-slot bits."""
        legacy = NetMeteringCostModel(prices=tuple(prices), sellback_divisor=w)
        from_tariff = FlatNetMetering(sellback_divisor=w).cost_model(
            prices, sellback_divisor=123.0
        )
        assert isinstance(from_tariff, NetMeteringCostModel)
        assert from_tariff == legacy
        assert np.array_equal(
            from_tariff.customer_cost_per_slot(trading, others),
            legacy.customer_cost_per_slot(trading, others),
        )

    @staticmethod
    def _as_tariff_model(legacy):
        """The flat model re-expressed as decoupled rate vectors: buy at
        ``p``, sell at ``p / W``, no cap, the same sign reading."""
        prices = legacy.price_array
        return TariffCostModel(
            buy_rates=tuple(float(v) for v in prices),
            sell_rates=tuple(float(v) for v in prices / legacy.sellback_divisor),
            paper_literal=legacy.paper_literal,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        prices=prices_st,
        trading=trading_st,
        others=others_st,
        w=divisor_st,
        literal=st.booleans(),
    )
    def test_from_net_metering_is_bitwise_faithful(
        self, prices, trading, others, w, literal
    ):
        """The generalized model built from a legacy model's rates shares
        its rate triple and prices every random community
        bitwise-identically."""
        legacy = NetMeteringCostModel(
            prices=tuple(prices), sellback_divisor=w, paper_literal=literal
        )
        general = self._as_tariff_model(legacy)
        for ours, theirs in zip(general.rates[:2], legacy.rates[:2]):
            assert np.array_equal(ours, theirs)
        assert general.rates[2] is None and legacy.rates[2] is None
        assert np.array_equal(
            general.customer_cost_per_slot(trading, others),
            legacy.customer_cost_per_slot(trading, others),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        prices=prices_st,
        trading=trading_st,
        others=others_st,
        w=divisor_st,
        multiplicity=multiplicity_st,
    )
    def test_multiplicity_semantics_match_legacy(
        self, prices, trading, others, w, multiplicity
    ):
        legacy = NetMeteringCostModel(prices=tuple(prices), sellback_divisor=w)
        general = self._as_tariff_model(legacy)
        assert np.array_equal(
            general.customer_cost_per_slot(
                trading, others, multiplicity=multiplicity
            ),
            legacy.customer_cost_per_slot(
                trading, others, multiplicity=multiplicity
            ),
        )


class TestEquationTwoOracle:
    """Both cost models and both kernels against :func:`eqn2`, bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(
        prices=prices_st,
        trading=trading_st,
        others=others_st,
        w=divisor_st,
        multiplicity=multiplicity_st,
        literal=st.booleans(),
    )
    def test_flat_model_matches_eqn2(
        self, prices, trading, others, w, multiplicity, literal
    ):
        model = NetMeteringCostModel(
            prices=tuple(prices), sellback_divisor=w, paper_literal=literal
        )
        oracle = dict(multiplicity=multiplicity, literal=literal)
        assert np.array_equal(
            model.customer_cost_per_slot(trading, others, multiplicity=multiplicity),
            eqn2(prices, prices / w, trading, others, **oracle),
        )
        levels = np.array([0.0, 0.5, 1.25])
        table = model.marginal_cost_table(
            trading, others, levels, multiplicity=multiplicity
        )
        y_new = trading[:, None] + levels[None, :]
        p = prices[:, None]
        expected = eqn2(p, p / w, y_new, others[:, None], **oracle) - eqn2(
            prices, prices / w, trading, others, **oracle
        )[:, None]
        assert np.array_equal(table, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        prices=prices_st,
        trading=trading_st,
        others=others_st,
        markup=st.floats(0.5, 2.0),
        fraction=st.floats(0.0, 1.0),
        cap=cap_st,
        multiplicity=multiplicity_st,
        literal=st.booleans(),
    )
    def test_tariff_model_matches_eqn2(
        self, prices, trading, others, markup, fraction, cap, multiplicity, literal
    ):
        buy, sell = prices * markup, prices * fraction
        model = TariffCostModel(
            buy_rates=tuple(buy),
            sell_rates=tuple(sell),
            export_cap_kwh=cap,
            paper_literal=literal,
        )
        oracle = dict(multiplicity=multiplicity, literal=literal, cap=cap)
        assert np.array_equal(
            model.customer_cost_per_slot(trading, others, multiplicity=multiplicity),
            eqn2(buy, sell, trading, others, **oracle),
        )
        levels = np.array([0.0, 1.0, 2.5])
        table = model.marginal_cost_table(
            trading, others, levels, multiplicity=multiplicity
        )
        y_new = trading[:, None] + levels[None, :]
        expected = eqn2(
            buy[:, None], sell[:, None], y_new, others[:, None], **oracle
        ) - eqn2(buy, sell, trading, others, **oracle)[:, None]
        assert np.array_equal(table, expected)

    @pytest.mark.parametrize("backend", available_backends())
    @settings(max_examples=30, deadline=None)
    @given(
        prices=prices_st,
        others=others_st,
        fraction=st.floats(0.0, 1.0),
        cap=cap_st,
        multiplicity=multiplicity_st,
        literal=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_kernel_battery_costs_match_eqn2(
        self, backend, prices, others, fraction, cap, multiplicity, literal, seed
    ):
        rng = np.random.default_rng(seed)
        decisions = rng.uniform(0.0, 3.0, size=(6, H))
        load = rng.uniform(0.0, 1.5, H)
        pv = rng.uniform(0.0, 4.0, H)
        sell = prices * fraction
        model = TariffCostModel(
            buy_rates=tuple(prices),
            sell_rates=tuple(sell),
            export_cap_kwh=cap,
            paper_literal=literal,
        )
        buy_rates, sell_rates, export_cap = model.rates
        ours = get_backend(backend).battery_costs(
            decisions,
            initial=1.0,
            load=load,
            pv=pv,
            others=others,
            buy_rates=buy_rates,
            sell_rates=sell_rates,
            export_cap_kwh=export_cap,
            multiplicity=multiplicity,
        )
        full = np.concatenate([np.full((6, 1), 1.0), decisions], axis=1)
        trading = load + np.diff(full, axis=1) - pv
        expected = eqn2(
            prices,
            sell,
            trading,
            others,
            multiplicity=multiplicity,
            literal=literal,
            cap=cap,
        ).sum(axis=-1)
        assert np.array_equal(ours, expected)


class TestMonthlyNetting:
    @settings(max_examples=60, deadline=None)
    @given(
        prices=prices_st,
        imports=arrays(np.float64, H, elements=st.floats(0.0, 5.0)),
        others=others_st,
        w=divisor_st,
    )
    def test_settlement_equals_instantaneous_without_exports(
        self, prices, imports, others, w
    ):
        """Nothing to bank: monthly netting degenerates to the flat bill."""
        tariff = MonthlyNetting()
        model = tariff.cost_model(prices, sellback_divisor=w)
        settled = tariff.settle(
            prices, imports, others, sellback_divisor=w
        )
        assert settled == model.customer_cost(imports, others)

    @settings(max_examples=60, deadline=None)
    @given(prices=prices_st, trading=trading_st, others=others_st, w=divisor_st)
    def test_settlement_identity(self, prices, trading, others, w):
        """Settlement is exactly ``instantaneous - banked * (avg_buy -
        avg_sell)``, recomputed independently here."""
        tariff = MonthlyNetting()
        model = tariff.cost_model(prices, sellback_divisor=w)
        per_slot = model.customer_cost_per_slot(trading, others)
        bought = float(trading[trading > 0].sum())
        sold = float(-trading[trading < 0].sum())
        banked = min(bought, sold)
        assume(banked > 1e-9)
        avg_buy = float(per_slot[trading > 0].sum()) / bought
        avg_sell = float(-per_slot[trading < 0].sum()) / sold
        expected = float(per_slot.sum()) - banked * (avg_buy - avg_sell)
        settled = tariff.settle(prices, trading, others, sellback_divisor=w)
        assert settled == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestSerializationRoundTrip:
    @pytest.mark.parametrize(
        "name", sorted(name for name, t in NAMED_TARIFFS.items() if t is not None)
    )
    def test_named_tariffs_round_trip(self, name):
        tariff = named_tariff(name)
        payload = tariff_to_dict(tariff)
        assert tariff_from_dict(payload) == tariff
        assert tariff_fingerprint(tariff) == tariff_fingerprint(
            tariff_from_dict(payload)
        )

    def test_flat_name_is_the_absence_of_a_tariff(self):
        """``"flat"`` maps to None — the legacy code path and cache keys."""
        assert named_tariff("flat") is None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown tariff name"):
            named_tariff("time_and_a_half")

    def test_unknown_kind_and_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown tariff kind"):
            tariff_from_dict({"kind": "fantasy"})
        with pytest.raises(ValueError, match="unknown fields"):
            tariff_from_dict({"kind": "time_of_use", "teleport": True})

    @settings(max_examples=40, deadline=None)
    @given(
        markup=st.floats(0.5, 2.0),
        fraction=st.floats(0.0, 1.0),
        cap=st.one_of(st.none(), st.floats(0.5, 4.0)),
    )
    def test_spread_fingerprint_distinguishes_parameters(
        self, markup, fraction, cap
    ):
        a = BuySellSpread(
            buy_markup=markup, sell_fraction=fraction, export_cap_kwh=cap
        )
        b = BuySellSpread(
            buy_markup=markup + 0.125, sell_fraction=fraction, export_cap_kwh=cap
        )
        assert tariff_from_dict(tariff_to_dict(a)) == a
        assert tariff_fingerprint(a) != tariff_fingerprint(b)


class TestTimeOfUse:
    def test_peak_window_scales_both_sides(self):
        prices = np.full(H, 0.1)
        model = TimeOfUse(
            peak_start_slot=2,
            peak_end_slot=5,
            peak_multiplier=2.0,
            offpeak_multiplier=1.0,
        ).cost_model(prices, sellback_divisor=2.0)
        buy, sell, _ = model.rates
        assert np.array_equal(buy[2:5], np.full(3, 0.2))
        assert np.array_equal(buy[:2], np.full(2, 0.1))
        assert np.array_equal(sell, buy / 2.0)

    def test_window_must_fit_horizon(self):
        with pytest.raises(ValueError, match="does not fit horizon"):
            TimeOfUse(peak_start_slot=4, peak_end_slot=30).cost_model(
                np.full(H, 0.1), sellback_divisor=2.0
            )


class TestCostTermsBroadcast:
    @settings(max_examples=40, deadline=None)
    @given(prices=prices_st, trading=trading_st, others=others_st)
    def test_batched_rows_equal_sequential_calls(self, prices, trading, others):
        """The shared pricing formula is broadcast-invariant: stacking a
        batch axis reproduces the per-row results bitwise — the identity
        that makes lockstep and sequential solves agree."""
        batch = np.stack([trading, trading * 0.5, -trading])
        batched = cost_terms(
            batch,
            others[None, :],
            buy_rates=prices[None, :],
            sell_rates=prices[None, :] * 0.5,
            export_cap_kwh=1.25,
            multiplicity=1,
        )
        for row in range(batch.shape[0]):
            single = cost_terms(
                batch[row],
                others,
                buy_rates=prices,
                sell_rates=prices * 0.5,
                export_cap_kwh=1.25,
                multiplicity=1,
            )
            assert np.array_equal(batched[row], single)
