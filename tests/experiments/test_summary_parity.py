"""A live scenario result, its summary and the summary's pickle round trip
answer every measurement query identically."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.experiments.summary import summarize
from repro.obs import TelemetrySpec
from repro.tcp.constants import DefenseMode

CONFIGS = {
    # Telemetry on: the pickled summary carries TimeSeries rings too.
    "syn": ScenarioConfig(seed=3, time_scale=0.01, attack_style="syn",
                          telemetry=TelemetrySpec(attribution=True)),
    "connect-cookies": ScenarioConfig(seed=3, time_scale=0.01,
                                      attack_style="connect",
                                      defense=DefenseMode.SYNCOOKIES),
}

LABELS = ("client", "attacker", "never-seen")

#: Hosts whose CPU the scenario samples when a botnet is attached.
CPU_HOSTS = ("client0", "server", "attacker0")


def _run_queries(run):
    config = run.config
    return {
        "attack_window": run.attack_window(),
        "client_throughput_during_attack":
            run.client_throughput_during_attack(),
        "server_throughput_during_attack":
            run.server_throughput_during_attack(),
        "client_throughput_before_attack":
            run.client_throughput_before_attack(),
        "attacker_established_rate": run.attacker_established_rate(),
        "attacker_established_rate_whole_run":
            run.attacker_established_rate(start=0.0, end=config.duration),
        "attacker_steady_state_rate": run.attacker_steady_state_rate(),
        "attacker_established_series": run.attacker_established_series(),
        "attacker_measured_rate": run.attacker_measured_rate(),
        "client_completion_percent": run.client_completion_percent(),
    }


def _tracker_queries(run, label):
    config = run.config
    tracker = run.tracker
    start, end = run.attack_window()
    return {
        "connect_times": tracker.connect_times(label),
        "established_rate": tracker.established_rate(label, config.duration),
        "attempt_rate": tracker.attempt_rate(label, config.duration),
        "completion_percent_series":
            tracker.completion_percent_series(label, config.duration),
        "counts": tracker.counts(label),
        "established_in": tracker.established_in(label, start, end),
    }


def _cpu_queries(run, host):
    start, end = run.attack_window()
    return {
        "utilization": run.cpu.utilization(host),
        "mean_in": run.cpu.mean_in(host, start, end),
        "max_in": run.cpu.max_in(host, start, end),
        # A window with no samples answers NaN.
        "mean_in_empty": run.cpu.mean_in(host, 1e6, 2e6),
        "max_in_empty": run.cpu.max_in(host, 1e6, 2e6),
    }


def _queue_queries(run):
    return {
        "listen_series": run.queues.listen_series(),
        "accept_series": run.queues.accept_series(),
    }


def assert_same(expected, actual, where=""):
    """NaN-aware equality; arrays compare element-wise, shape and dtype
    included."""
    if dataclasses.is_dataclass(expected):
        assert type(actual) is type(expected), where
        expected = dataclasses.astuple(expected)
        actual = dataclasses.astuple(actual)
    if isinstance(expected, (tuple, list)):
        assert type(actual) is type(expected), where
        assert len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{i}]")
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_same(expected[key], actual[key], f"{where}.{key}")
    else:
        np.testing.assert_array_equal(actual, expected, err_msg=where,
                                      strict=True)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def views(request):
    """``(live result, summary, unpickled summary)`` for one config."""
    result = Scenario(CONFIGS[request.param]).run()
    summary = summarize(result)
    return result, summary, pickle.loads(pickle.dumps(summary))


@pytest.mark.parametrize("view", ["summary", "pickled"])
class TestParity:
    def _pair(self, views, view):
        live, summary, pickled = views
        return live, summary if view == "summary" else pickled

    def test_run_level_queries(self, views, view):
        live, other = self._pair(views, view)
        assert_same(_run_queries(live), _run_queries(other))

    @pytest.mark.parametrize("label", LABELS)
    def test_tracker_queries(self, views, view, label):
        live, other = self._pair(views, view)
        assert_same(_tracker_queries(live, label),
                    _tracker_queries(other, label))

    def test_tracker_labels(self, views, view):
        live, other = self._pair(views, view)
        assert other.tracker.labels() == sorted(
            {record.label for record in live.tracker.records})

    @pytest.mark.parametrize("host", CPU_HOSTS)
    def test_cpu_queries(self, views, view, host):
        live, other = self._pair(views, view)
        assert_same(_cpu_queries(live, host), _cpu_queries(other, host))

    def test_queue_queries(self, views, view):
        live, other = self._pair(views, view)
        assert_same(_queue_queries(live), _queue_queries(other))


def test_pickled_summary_payload(views):
    _live, summary, pickled = views
    assert_same(summary.as_payload(), pickled.as_payload())
