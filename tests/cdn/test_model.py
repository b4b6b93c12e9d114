"""Tests for the analytic edge-cache model (repro.cdn).

The Che approximation is checked against its defining fixed point, the
interpolated LRU curve against the exact per-site Newton solve, the
TTL closed form against its formula, and the per-site model against
the determinism/ordering invariants the session engine relies on.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from repro.cdn import (
    CdnModel,
    che_characteristic_time,
    lru_hit_ratio_curve,
    ttl_hit_ratios,
    zipf_weights,
)
from repro.cdn import model as cdn_model
from repro.cdn.model import (
    CHEBYSHEV_NODES,
    OBJECT_MB,
    SITE_ALPHA_JITTER,
    _lru_hit_ratio_exact,
)
from repro.config import Scenario
from repro.errors import ConfigurationError
from repro.qoe import build_session_workload, run_sessions


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        weights = zipf_weights(500, 0.8)
        assert weights.shape == (500,)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)

    def test_hotter_alpha_concentrates_mass(self):
        flat = zipf_weights(1000, 0.4)
        steep = zipf_weights(1000, 1.2)
        assert steep[:10].sum() > flat[:10].sum()

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0, 0.8)
        with pytest.raises(ConfigurationError):
            zipf_weights(100, 0.0)
        with pytest.raises(ConfigurationError):
            zipf_weights(100, -1.0)


class TestCheCharacteristicTime:
    def test_fixed_point_holds(self):
        """T_c is defined by sum_i(1 - exp(-w_i T_c)) = capacity."""
        rates = zipf_weights(2000, 0.9)
        for capacity in (10.0, 100.0, 500.0):
            t_c = che_characteristic_time(rates, capacity)
            occupancy = float(np.sum(1.0 - np.exp(-rates * t_c)))
            assert occupancy == pytest.approx(capacity, rel=1e-6)

    def test_capacity_bounds_rejected(self):
        rates = zipf_weights(100, 0.8)
        with pytest.raises(ConfigurationError):
            che_characteristic_time(rates, 0.0)
        with pytest.raises(ConfigurationError):
            che_characteristic_time(rates, 100.0)

    def test_capacity_at_requested_objects_rejected(self):
        """Zero-rate objects are never cached: they do not count."""
        rates = np.array([1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError):
                che_characteristic_time(rates, 2.0)
            with pytest.raises(ConfigurationError):
                che_characteristic_time(rates, 1.0)
            t_c = che_characteristic_time(rates, 0.5)
        assert t_c == pytest.approx(math.log(2.0), rel=1e-9)


class TestLruHitRatioCurve:
    def test_bigger_cache_never_hurts(self):
        alphas = np.array([0.6, 0.8, 1.0])
        small = lru_hit_ratio_curve(alphas, 5000, 50.0)
        large = lru_hit_ratio_curve(alphas, 5000, 500.0)
        assert np.all(large > small)
        assert np.all((small > 0.0) & (small < 1.0))

    def test_full_cache_hits_everything(self):
        alphas = np.array([0.7, 0.9])
        assert np.array_equal(
            lru_hit_ratio_curve(alphas, 100, 100.0), np.ones(2))

    def test_hotter_sites_hit_more(self):
        """Steeper per-site popularity -> higher request-weighted hits."""
        curve = lru_hit_ratio_curve(np.array([0.5, 0.8, 1.1, 1.4]),
                                    5000, 200.0)
        assert np.all(np.diff(curve) > 0)

    def test_non_positive_capacity_rejected(self):
        for capacity in (0.0, -5.0):
            with pytest.raises(ConfigurationError):
                lru_hit_ratio_curve(np.array([0.7, 0.9]), 100, capacity)
            with pytest.raises(ConfigurationError):
                lru_hit_ratio_curve(np.array([]), 100, capacity)

    def test_empty_alphas(self):
        for capacity in (50.0, 100.0):
            curve = lru_hit_ratio_curve(np.array([]), 100, capacity)
            assert curve.shape == (0,)

    def test_matches_scalar_solver(self):
        """The blocked vectorized Newton solve equals per-site
        bisection solves."""
        alphas = np.array([0.62, 0.85, 1.07])
        catalog, capacity = 3000, 120.0
        curve = lru_hit_ratio_curve(alphas, catalog, capacity)
        for site, alpha in enumerate(alphas):
            weights = zipf_weights(catalog, float(alpha))
            t_c = che_characteristic_time(weights, capacity)
            hits = 1.0 - np.exp(-weights * t_c)
            expected = float(np.sum(weights * hits))
            assert curve[site] == pytest.approx(expected, rel=1e-6)


def _city_model() -> CdnModel:
    return CdnModel(Scenario.city_scale())


def _max_error_against_oracle(model: CdnModel, sites: np.ndarray) -> float:
    catalog = model.scenario.qoe_catalog_objects
    curve = lru_hit_ratio_curve(model.site_alphas, catalog,
                                model.capacity_objects)
    exact = _lru_hit_ratio_exact(model.site_alphas[sites], catalog,
                                 model.capacity_objects)
    return float(np.max(np.abs(curve[sites] - exact)))


class TestChebyshevInterpolant:
    """The interpolated LRU curve against the exact per-site oracle."""

    @pytest.mark.parametrize("scale", ["smoke", "default", "paper"])
    def test_every_site_matches_oracle(self, scale):
        scenario = {"smoke": Scenario.smoke_scale,
                    "default": Scenario,
                    "paper": Scenario.paper_scale}[scale]()
        model = CdnModel(scenario)
        assert model.site_alphas.size > CHEBYSHEV_NODES
        sites = np.arange(model.site_alphas.size)
        assert _max_error_against_oracle(model, sites) <= 1e-9

    def test_city_sample_matches_oracle(self):
        """A seeded 512-site sample plus both ends of the alpha band."""
        model = _city_model()
        alphas = model.site_alphas
        sample = np.random.default_rng(20220822).choice(
            alphas.size, 512, replace=False)
        sites = np.unique(np.concatenate(
            [sample, [alphas.argmin(), alphas.argmax()]]))
        assert _max_error_against_oracle(model, sites) <= 1e-9

    def test_city_solves_only_the_nodes(self, monkeypatch):
        """The exact solver sees the nodes, never the 4000 sites."""
        solved = []

        def counting(alphas, catalog, capacity):
            solved.append(np.asarray(alphas).size)
            return _lru_hit_ratio_exact(alphas, catalog, capacity)

        monkeypatch.setattr(cdn_model, "_lru_hit_ratio_exact", counting)
        model = _city_model()
        ratios = model.site_hit_ratios
        assert ratios.shape == (4000,)
        assert 0 < sum(solved) <= CHEBYSHEV_NODES

    def test_wide_band_falls_back_to_exact(self):
        """An unresolved curve is solved exactly at every site."""
        alphas = np.linspace(0.1, 3.0, CHEBYSHEV_NODES + 8)
        curve = lru_hit_ratio_curve(alphas, 50_000, 128.0)
        exact = _lru_hit_ratio_exact(alphas, 50_000, 128.0)
        assert np.array_equal(curve, exact)

    @pytest.mark.parametrize("alphas", [
        np.linspace(0.6, 1.0, CHEBYSHEV_NODES),
        np.full(100, 0.8),
    ])
    def test_few_sites_or_one_alpha_solved_exactly(self, alphas):
        curve = lru_hit_ratio_curve(alphas, 5000, 100.0)
        assert np.array_equal(curve,
                              _lru_hit_ratio_exact(alphas, 5000, 100.0))

    def test_edge_digest_unchanged_at_default_scale(self):
        """Interpolated and exact ratios give the same edge sessions."""
        scenario = Scenario().with_overrides(qoe_session_count=20_000)
        model = CdnModel(scenario)
        interpolated = build_session_workload(scenario, model=model)
        exact_ratios = _lru_hit_ratio_exact(
            model.site_alphas, scenario.qoe_catalog_objects,
            model.capacity_objects)
        assert not np.array_equal(interpolated.site_hit_ratios,
                                  exact_ratios)
        exact = dataclasses.replace(interpolated,
                                    site_hit_ratios=exact_ratios)
        assert (run_sessions(interpolated, "edge").digest
                == run_sessions(exact, "edge").digest)


class TestTtlHitRatios:
    def test_closed_form(self):
        rates = np.array([0.01, 0.1, 1.0])
        ratios = ttl_hit_ratios(rates, 60.0)
        assert np.allclose(ratios, 1.0 - np.exp(-rates * 60.0))

    def test_longer_ttl_never_hurts(self):
        rates = np.array([0.05, 0.5])
        assert np.all(ttl_hit_ratios(rates, 300.0)
                      > ttl_hit_ratios(rates, 30.0))

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            ttl_hit_ratios(np.array([0.1]), 0.0)


class TestCdnModel:
    def test_deterministic_across_instances(self, scenario):
        a, b = CdnModel(scenario), CdnModel(scenario)
        assert np.array_equal(a.site_hit_ratios, b.site_hit_ratios)
        assert a.latencies == b.latencies

    def test_site_alphas_stay_in_jitter_band(self, scenario):
        alphas = CdnModel(scenario).site_alphas
        lo, hi = SITE_ALPHA_JITTER
        base = scenario.qoe_zipf_alpha
        assert alphas.shape == (scenario.nep_site_count,)
        assert np.all(alphas >= base * lo)
        assert np.all(alphas <= base * hi)

    def test_capacity_objects(self, scenario):
        model = CdnModel(scenario)
        assert model.capacity_objects == pytest.approx(
            scenario.qoe_cache_mb / OBJECT_MB)

    def test_hit_path_beats_miss_and_cloud(self, scenario):
        lat = CdnModel(scenario).latencies
        assert 0.0 < lat.hit_rtt_ms < lat.miss_rtt_ms
        assert lat.hit_rtt_ms < lat.cloud_rtt_ms
        # A miss traverses the edge leg and then the origin leg.
        assert lat.miss_rtt_ms > lat.hit_rtt_ms

    def test_hit_ratios_are_proper_probabilities(self, scenario):
        ratios = CdnModel(scenario).site_hit_ratios
        assert ratios.shape == (scenario.nep_site_count,)
        assert np.all((ratios > 0.0) & (ratios < 1.0))

    def test_eviction_policies_differ(self, scenario):
        lru = CdnModel(scenario).site_hit_ratios
        ttl = CdnModel(scenario.with_overrides(
            qoe_cache_eviction="ttl")).site_hit_ratios
        assert not np.array_equal(lru, ttl)

    def test_bigger_cache_helps_every_site(self, scenario):
        small = CdnModel(scenario.with_overrides(
            qoe_cache_mb=128)).site_hit_ratios
        large = CdnModel(scenario.with_overrides(
            qoe_cache_mb=2048)).site_hit_ratios
        assert np.all(large > small)

    def test_invalid_scenario_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.smoke_scale().with_overrides(qoe_cache_mb=0)
        with pytest.raises(ConfigurationError):
            Scenario.smoke_scale().with_overrides(
                qoe_cache_eviction="fifo")
