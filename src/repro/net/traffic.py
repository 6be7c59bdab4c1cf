"""Traffic generation and measurement harness for network models.

Drives a network's terminal ports with synthetic traffic and measures
delivered-packet latency, throughput, and loss.  Used by the network
tests, the Section III-D zero-load/saturation experiments, and the
Figure 14/15 performance benchmarks.

The harness pokes ports directly from Python (it is the test bench, not
a model), embedding the injection timestamp in each packet's payload
field so latency needs no side tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import SimulationTool


@dataclass
class TrafficStats:
    """Results of a traffic run."""

    ncycles: int = 0
    nterminals: int = 1
    injected: int = 0
    ejected: int = 0
    latencies: list = field(default_factory=list)

    @property
    def avg_latency(self):
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    @property
    def throughput(self):
        """Delivered packets per terminal per cycle."""
        return self.ejected / max(1, self.ncycles) / max(1, self.nterminals)


class NetworkTrafficHarness:
    """Uniform-random traffic driver for any network exposing
    ``in_``/``out`` lists of val/rdy bundles and a ``msg_type``."""

    def __init__(self, network, sim=None, seed=0):
        if not network.is_elaborated():
            network.elaborate()
        self.net = network
        self.sim = sim if sim is not None else SimulationTool(network)
        self.nterminals = len(network.in_)
        self.msg_type = network.msg_type
        self.rng = random.Random(seed)
        self.seqnum = 0
        # Precomputed field offsets: the harness builds/parses raw int
        # messages on the hot path instead of BitStruct objects.
        msg_type = network.msg_type
        self._dest_shift = msg_type.field_slice("dest")[0]
        self._src_shift = msg_type.field_slice("src")[0]
        self._seq_shift = msg_type.field_slice("opaque")[0]
        seq_lo, seq_hi = msg_type.field_slice("opaque")
        self._seq_mask = (1 << (seq_hi - seq_lo)) - 1
        pay_lo, pay_hi = msg_type.field_slice("payload")
        self._payload_shift = pay_lo
        self._payload_mask = (1 << (pay_hi - pay_lo)) - 1

    def _mk_msg(self, src, dest, timestamp):
        """Raw-int network message with the timestamp as payload."""
        seq = self.seqnum & self._seq_mask
        self.seqnum += 1
        return ((dest << self._dest_shift)
                | (src << self._src_shift)
                | (seq << self._seq_shift)
                | ((timestamp & self._payload_mask)
                   << self._payload_shift))

    def run_uniform_random(self, injection_rate, ncycles,
                           warmup=0, drain=1000):
        """Bernoulli uniform-random traffic.

        Each terminal independently injects with probability
        ``injection_rate`` per cycle to a uniformly random destination.
        Packets injected during the first ``warmup`` cycles are not
        measured.  After ``ncycles``, injection stops and up to
        ``drain`` extra cycles let in-flight packets arrive.
        """
        from time import perf_counter_ns

        from ..telemetry import tracing

        net, sim, rng = self.net, self.sim, self.rng
        sim.reset()
        # The harness drives per-cycle, so the simulator's own batch
        # instrumentation never fires; the whole measurement+drain
        # loop is one honest "sim.run" span instead.
        tracer = tracing.active()
        t0 = perf_counter_ns() if tracer is not None else 0
        nterm = self.nterminals
        stats = TrafficStats(nterminals=nterm)
        latencies = stats.latencies
        pending = [None] * nterm              # staged packet per input

        for port in net.out:
            port.rdy.value = 1

        # Resolve every terminal's nets once per call: the loops below
        # run per terminal per cycle.  ``sim.cycle`` is looked up here,
        # not at construction, so a wrapper installed on the simulator
        # before this call is the one that runs.
        def net_of(sig):
            return sig._net.find()

        set_val = [net_of(port.val).write for port in net.in_]
        set_msg = [net_of(port.msg).write for port in net.in_]
        get_rdy = [net_of(port.rdy).read for port in net.in_]
        msg_mask = (1 << self.msg_type.nbits) - 1
        outputs = [(net_of(port.val).read, net_of(port.msg).read)
                   for port in net.out]
        terminals = range(nterm)
        random, randrange, mk_msg = rng.random, rng.randrange, self._mk_msg
        cycle = sim.cycle
        pay_shift, pay_mask = self._payload_shift, self._payload_mask

        def step():
            # The handshake fires at the coming edge with the rdy value
            # visible *now* — snapshot acceptance before cycling.
            accepted = [i for i in terminals
                        if pending[i] is not None and get_rdy[i]()]
            cycle()
            for i in accepted:
                pending[i] = None
            now = sim.ncycles
            for get_val, get_msg in outputs:
                if get_val():
                    ts = (get_msg() >> pay_shift) & pay_mask
                    stats.ejected += 1
                    if ts != 0:
                        latencies.append(now - ts)

        for n in range(ncycles):
            measured = n >= warmup
            for i in terminals:
                msg = pending[i]
                if msg is None and random() < injection_rate:
                    dest = randrange(nterm)
                    ts = sim.ncycles if measured else 0
                    msg = pending[i] = mk_msg(i, dest, ts)
                    stats.injected += 1
                if msg is not None:
                    set_val[i](1)
                    set_msg[i](msg & msg_mask)
                else:
                    set_val[i](0)
            step()

        # Drain phase: finish offering staged packets, inject nothing new.
        for _ in range(drain):
            if stats.ejected >= stats.injected:
                break
            for i in terminals:
                set_val[i](1 if pending[i] is not None else 0)
            step()

        stats.ncycles = ncycles
        if tracer is not None:
            tracer.add_span("sim.run", t0, perf_counter_ns(),
                            design=type(net).__name__,
                            ncycles=sim.ncycles)
        return stats

    def send_single(self, src, dest, max_cycles=200):
        """Inject one packet and return its delivery latency."""
        net, sim = self.net, self.sim
        sim.reset()
        for port in net.out:
            port.rdy.value = 1
        msg = self._mk_msg(src, dest, 0)
        want_seq = (msg >> self._seq_shift) & self._seq_mask
        port = net.in_[src]
        port.msg.value = msg
        port.val.value = 1
        inject_cycle = None
        for _ in range(max_cycles):
            offered = int(port.val) and int(port.rdy)
            sim.cycle()
            if offered and inject_cycle is None:
                inject_cycle = sim.ncycles - 1
                port.val.value = 0
            if int(net.out[dest].val):
                got_seq = (net.out[dest].msg.uint()
                           >> self._seq_shift) & self._seq_mask
                if got_seq == want_seq:
                    return sim.ncycles - inject_cycle
        raise AssertionError(
            f"packet {src}->{dest} not delivered in {max_cycles} cycles"
        )


def measure_zero_load_latency(network, npairs=20, seed=0):
    """Average single-packet latency over random src/dest pairs."""
    harness = NetworkTrafficHarness(network, seed=seed)
    rng = random.Random(seed)
    n = harness.nterminals
    total = 0
    for _ in range(npairs):
        src = rng.randrange(n)
        dest = rng.randrange(n)
        while dest == src:
            dest = rng.randrange(n)
        total += harness.send_single(src, dest)
    return total / npairs


def measure_saturation(network_factory, rates, ncycles=600, warmup=100,
                       seed=0):
    """Sweep injection rate; return [(rate, avg_latency, throughput)].

    ``network_factory`` builds a fresh network per rate (state from an
    overloaded run must not leak into the next point).
    """
    results = []
    for rate in rates:
        harness = NetworkTrafficHarness(network_factory(), seed=seed)
        stats = harness.run_uniform_random(rate, ncycles, warmup=warmup)
        results.append((rate, stats.avg_latency, stats.throughput))
    return results


def find_saturation_point(sweep, zero_load=None, factor=3.0,
                          throughput_frac=0.95):
    """First injection rate at which the network saturates.

    Two conventional criteria, either of which triggers: average
    latency exceeds ``factor`` x the zero-load latency, or delivered
    throughput falls below ``throughput_frac`` of the offered rate
    (the network can no longer accept the offered load).
    """
    for rate, latency, throughput in sweep:
        if zero_load is not None and latency > factor * zero_load:
            return rate
        if throughput < throughput_frac * rate:
            return rate
    return None
