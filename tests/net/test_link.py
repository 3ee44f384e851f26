"""Tests for fixed-rate and trace-driven links."""

import random

import pytest

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.events import EventLoop
from repro.core.packet import Packet
from repro.net.link import FixedRateLink, TraceDrivenLink
from repro.net.loss import BernoulliLoss
from repro.net.queue import DropTailQueue
from repro.net.trace import DeliveryTrace


def _packet(payload=960):
    # 960 + 40 header = 1000 wire bytes: convenient round numbers.
    return Packet(flow_id=1, payload_bytes=payload)


class TestFixedRateLink:
    def test_serialization_time(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0)  # 1e6 B/s
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        link.send(_packet())  # 1000 wire bytes -> 1 ms
        loop.run()
        assert arrivals == [pytest.approx(0.001)]

    def test_back_to_back_packets_serialize_sequentially(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        link.send(_packet())
        link.send(_packet())
        loop.run()
        assert arrivals == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_propagation_delay_added(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0, propagation_delay_s=0.05)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        link.send(_packet())
        loop.run()
        assert arrivals == [pytest.approx(0.051)]

    def test_propagation_is_pipelined(self):
        # Two packets overlap in the propagation phase.
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0, propagation_delay_s=0.05)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        link.send(_packet())
        link.send(_packet())
        loop.run()
        assert arrivals == [pytest.approx(0.051), pytest.approx(0.052)]

    def test_queue_overflow_drops(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0,
                             queue=DropTailQueue(max_packets=2))
        delivered = []
        link.connect(lambda p: delivered.append(p))
        for _ in range(5):
            link.send(_packet())
        loop.run()
        # One in transmission + 2 queued survive.
        assert len(delivered) == 3

    def test_sent_at_stamped_on_enqueue(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0)
        link.connect(lambda p: None)
        first, second = _packet(), _packet()
        loop.call_at(0.0, lambda: (link.send(first), link.send(second)))
        loop.run()
        # Both were stamped at the same enqueue instant (queueing delay
        # is visible to RTT sampling).
        assert first.sent_at == pytest.approx(0.0)
        assert second.sent_at == pytest.approx(0.0)

    def test_blackhole_swallows_silently(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0)
        delivered = []
        link.connect(lambda p: delivered.append(p))
        link.blackhole = True
        link.send(_packet())
        loop.run()
        assert delivered == []
        assert link.blackholed_packets == 1

    def test_unplug_counts_the_packets_it_flushes(self):
        # Five packets into a 1 Mbit/s link, then the phone is pulled:
        # one is in flight (vanishes at delivery time), four are queued
        # (flushed).  All five must land in ``blackholed_packets``.
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=1.0)
        delivered = []
        link.connect(delivered.append)
        for _ in range(5):
            link.send(_packet())
        link.set_blackhole(True)
        loop.run()
        assert delivered == []
        assert link.queue.stats.enqueued == 5
        assert link.queue.stats.dequeued == 1
        assert link.queue.stats.dropped == 0
        assert link.blackholed_packets == 5

    def test_packets_conserved_across_unplug_and_replug(self):
        loop = EventLoop()
        link = FixedRateLink(
            loop, rate_mbps=1.0, propagation_delay_s=0.005,
            queue=DropTailQueue(max_packets=4),
            loss=BernoulliLoss(0.2, random.Random(4)),
        )
        link.connect(lambda p: None)
        sent = 0

        def send(count):
            nonlocal sent
            for _ in range(count):
                link.send(_packet())
                sent += 1

        def accounted():
            # Every in-flight packet holds exactly one pending event
            # (end of serialization, then end of propagation).
            return (link.delivered_packets + link.queue.stats.dropped
                    + link.channel_drops + link.blackholed_packets
                    + len(link.queue) + loop.pending())

        send(12)
        assert link.queue.stats.dropped > 0 and link.channel_drops > 0
        assert accounted() == sent
        loop.run(until=0.001)  # mid-serialization of the first packet
        link.set_blackhole(True)
        assert len(link.queue) == 0 and link.blackholed_packets == 4
        assert accounted() == sent
        send(3)  # into the void
        loop.run(until=0.05)  # the in-flight packet vanishes on arrival
        assert link.delivered_packets == 0
        assert link.blackholed_packets == 4 + 3 + 1
        assert accounted() == sent
        link.set_blackhole(False)
        send(6)
        assert accounted() == sent
        loop.run()
        assert link.delivered_packets > 0
        assert accounted() == sent == 21

    def test_admin_down_blocks_new_sends(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0)
        delivered = []
        link.connect(lambda p: delivered.append(p))
        link.up = False
        link.send(_packet())
        loop.run()
        assert delivered == []

    def test_observers_fire(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0)
        link.connect(lambda p: None)
        tx_times, rx_times = [], []
        link.on_transmit.append(lambda p, t: tx_times.append(t))
        link.on_deliver.append(lambda p, t: rx_times.append(t))
        link.send(_packet())
        loop.run()
        assert tx_times == [pytest.approx(0.0)]
        assert rx_times == [pytest.approx(0.001)]

    def test_unconnected_link_raises(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0)
        with pytest.raises(SimulationError):
            link.send(_packet())

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedRateLink(EventLoop(), rate_mbps=0.0)

    def test_delivered_counters(self):
        loop = EventLoop()
        link = FixedRateLink(loop, rate_mbps=8.0)
        link.connect(lambda p: None)
        link.send(_packet())
        loop.run()
        assert link.delivered_packets == 1
        assert link.delivered_bytes == 1000


class TestTraceDrivenLink:
    def test_one_packet_per_opportunity(self):
        loop = EventLoop()
        trace = DeliveryTrace([10, 20, 30])
        link = TraceDrivenLink(loop, trace)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        for _ in range(3):
            link.send(_packet())
        loop.run()
        assert arrivals == [pytest.approx(0.010), pytest.approx(0.020),
                            pytest.approx(0.030)]

    def test_idle_opportunities_are_wasted(self):
        loop = EventLoop()
        trace = DeliveryTrace([10, 20, 30])
        link = TraceDrivenLink(loop, trace)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        # Send at t=15 ms: the 10 ms opportunity has passed unused.
        loop.call_at(0.015, lambda: link.send(_packet()))
        loop.run()
        assert arrivals == [pytest.approx(0.020)]

    def test_looping_past_period(self):
        loop = EventLoop()
        trace = DeliveryTrace([10], period_ms=10)
        link = TraceDrivenLink(loop, trace)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        for _ in range(3):
            link.send(_packet())
        loop.run()
        assert arrivals == [pytest.approx(0.010), pytest.approx(0.020),
                            pytest.approx(0.030)]

    def test_propagation_delay(self):
        loop = EventLoop()
        trace = DeliveryTrace([10])
        link = TraceDrivenLink(loop, trace, propagation_delay_s=0.1)
        arrivals = []
        link.connect(lambda p: arrivals.append(loop.now))
        link.send(_packet())
        loop.run()
        assert arrivals == [pytest.approx(0.110)]
