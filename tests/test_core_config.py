"""Tests for WCM scenarios and method presets."""

import math

import pytest

from repro.core.config import Scenario, WcmConfig
from repro.netlist.library import DEFAULT_CAP_TH_FF
from repro.util.errors import ConfigError


class TestScenario:
    def test_area_scenario_keeps_library_cap(self):
        scenario = Scenario.area_optimized()
        assert not scenario.is_timed
        assert scenario.cap_th_ff == DEFAULT_CAP_TH_FF
        assert scenario.s_th_ps == -math.inf

    def test_tight_scenario(self):
        scenario = Scenario.performance_optimized(1000.0)
        assert scenario.is_timed
        assert scenario.clock.period_ps == 1000.0
        with pytest.raises(ConfigError):
            Scenario.performance_optimized(-5.0)


class TestPresets:
    def test_ours_preset(self):
        config = WcmConfig.ours(Scenario.area_optimized())
        assert config.use_wire_delay
        assert config.order_by_set_size
        assert config.allow_overlap
        assert config.signoff_repair
        assert config.d_th_fraction == 0.8

    def test_agrawal_preset(self):
        config = WcmConfig.agrawal(Scenario.area_optimized())
        assert not config.use_wire_delay
        assert not config.order_by_set_size
        assert not config.allow_overlap
        assert not config.signoff_repair
        assert math.isinf(config.d_th_um)
        assert config.d_th_fraction is None

    def test_without_overlap_variant(self):
        config = WcmConfig.ours(Scenario.area_optimized()).without_overlap()
        assert not config.allow_overlap
        assert config.use_wire_delay  # everything else unchanged

    def test_paper_testability_thresholds(self):
        config = WcmConfig.ours(Scenario.area_optimized())
        assert config.cov_th == pytest.approx(0.005)
        assert config.p_th == 10

    def test_invalid_thresholds_rejected(self):
        scenario = Scenario.area_optimized()
        with pytest.raises(ConfigError):
            WcmConfig(scenario=scenario, cov_th=-0.1)
        with pytest.raises(ConfigError):
            WcmConfig(scenario=scenario, p_th=-1)
