"""Measurement layer: the simulated counterpart of the paper's tcpdump
post-processing (§6: "we deploy tcpdump on all of the machines and use the
captures to measure the throughput ..., the TCP connection time, and the
number of dropped TCP connections").
"""

from repro.metrics.series import BinnedSeries
from repro.metrics.throughput import HostThroughput
from repro.metrics.connections import ConnectionRecord, ConnectionTracker
from repro.metrics.summary import describe, Summary

__all__ = [
    "BinnedSeries",
    "HostThroughput",
    "ConnectionRecord",
    "ConnectionTracker",
    "describe",
    "Summary",
]
