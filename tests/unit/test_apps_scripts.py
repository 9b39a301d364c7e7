"""Unit tests for the shipped application script builders."""

import pytest

from repro.analysis.sloc import count_sloc
from repro.apps import battery_monitor, localization, roguefinder


class TestLocalizationScripts:
    def test_experiment_validates(self):
        localization.build_experiment().validate()

    def test_scripts_compile(self):
        for source in (
            localization.build_scan_script(),
            localization.build_clustering_script(),
            localization.build_clustering_script(with_freeze=True),
            localization.build_collect_script(),
        ):
            compile(source, "<script>", "exec")

    def test_parameters_embedded(self):
        scan = localization.build_scan_script()
        assert localization.SCAN_INTERVAL_MS == 60_000  # one scan a minute
        assert "SCAN_INTERVAL_MS = 60000" in scan
        clustering = localization.build_clustering_script(eps_similarity=0.7, min_pts=3, window=45)
        assert "0.7" in clustering and "MIN_PTS = 3" in clustering and "WINDOW = 45" in clustering

    def test_freeze_variant_contains_freeze_calls(self):
        plain = localization.build_clustering_script(with_freeze=False)
        frozen = localization.build_clustering_script(with_freeze=True)
        assert "freeze(dbscan.state())" not in plain
        assert "freeze(dbscan.state())" in frozen
        assert "thaw()" in frozen

    def test_clustering_embeds_analysis_core(self):
        """The deployed algorithm is byte-identical to the library's."""
        from repro.analysis.clustering import clustering_script_core

        script = localization.build_clustering_script()
        assert clustering_script_core() in script

    def test_sloc_in_paper_ballpark(self):
        experiment = localization.build_experiment()
        scan = count_sloc(experiment.device_scripts["scan"]).sloc
        clustering = count_sloc(experiment.device_scripts["clustering"]).sloc
        collect = count_sloc(experiment.collector_scripts["collect"]).sloc
        assert 15 <= scan <= 60  # paper: 41
        assert 80 <= clustering <= 250  # paper: 155
        assert 10 <= collect <= 40  # paper: 18
        assert clustering > scan  # "clustering.js is by far the largest"


class TestRogueFinderScripts:
    def test_experiment_validates(self):
        roguefinder.build_experiment([(52.0, 4.3), (52.1, 4.4), (52.0, 4.5)]).validate()

    def test_polygon_embedded(self):
        script = roguefinder.build_roguefinder_script([(52.5, 4.25), (52.6, 4.35), (52.5, 4.45)])
        assert "52.5" in script and "4.45" in script

    def test_collector_script_tiny(self):
        assert count_sloc(roguefinder.build_collect_script()).sloc <= 8  # paper: 5

    def test_release_renew_pattern_present(self):
        """Listing 2's defining structure."""
        script = roguefinder.build_roguefinder_script([(1, 1), (2, 2), (3, 0)])
        assert "subscription.release()" in script
        assert "subscription.renew()" in script
        assert "location_in_polygon" in script


class TestBatteryMonitor:
    def test_experiment_has_no_device_scripts(self):
        """Pure sensor collection: the collector's subscription drives
        the device's sensor (Section 4.2)."""
        experiment = battery_monitor.build_experiment()
        experiment.validate()
        assert experiment.device_scripts == {}
        assert "collect" in experiment.collector_scripts

    def test_interval_parameter(self):
        script = battery_monitor.build_collect_script()
        assert battery_monitor.INTERVAL_MS == 60_000  # "every minute"
        assert "{'interval': 60000}" in script
