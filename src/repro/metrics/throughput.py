"""Per-host throughput from fabric captures (Figures 7, 8, 12).

Receive throughput counts bytes of packets *delivered to* the host;
transmit throughput counts bytes of packets *sent by* the host (whether or
not they survive the path — matching what tcpdump sees at the sender's
interface). Application *goodput* counts only data payload bytes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.metrics.series import BinnedSeries


class HostThroughput:
    """Per-host byte counters, binned in time.

    ``Network.add_throughput_tap`` fills them inside the network (the
    way every scenario installs one); :meth:`tap` is the same accounting
    as a generic ``Network.add_tap`` observer.
    """

    def __init__(self, address: int, bin_width: float = 1.0) -> None:
        self.address = address
        self.rx = BinnedSeries(bin_width)
        self.tx = BinnedSeries(bin_width)
        self.rx_goodput = BinnedSeries(bin_width)
        self.tx_goodput = BinnedSeries(bin_width)

    def tap(self, time: float, packet, event: str) -> None:
        """Network tap (register via ``Network.add_tap``)."""
        if event == "deliver":
            if packet.dst_ip == self.address:
                self.rx.add(time, packet.size_bytes)
                if packet.payload_bytes:
                    self.rx_goodput.add(time, packet.payload_bytes)
        elif event == "send" and packet.src_ip == self.address:
            self.tx.add(time, packet.size_bytes)
            if packet.payload_bytes:
                self.tx_goodput.add(time, packet.payload_bytes)

    @staticmethod
    def to_mbps(times: np.ndarray, byte_rate: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        return times, byte_rate * 8.0 / 1e6

    def rx_mbps(self, until: float) -> Tuple[np.ndarray, np.ndarray]:
        return self.to_mbps(*self.rx.rate_series(until))

    def tx_mbps(self, until: float) -> Tuple[np.ndarray, np.ndarray]:
        return self.to_mbps(*self.tx.rate_series(until))

    def rx_goodput_mbps(self, until: float) -> Tuple[np.ndarray, np.ndarray]:
        return self.to_mbps(*self.rx_goodput.rate_series(until))

    def mean_rx_mbps(self, start: float, end: float) -> float:
        return self.rx.window_sum(start, end) * 8.0 / 1e6 / max(
            end - start, 1e-9)

    def mean_tx_mbps(self, start: float, end: float) -> float:
        return self.tx.window_sum(start, end) * 8.0 / 1e6 / max(
            end - start, 1e-9)
