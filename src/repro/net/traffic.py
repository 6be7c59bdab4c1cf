"""Traffic generation and measurement harness for network models.

Drives a network's terminal ports with synthetic traffic and measures
delivered-packet latency, throughput, and loss.  Used by the network
tests, the Section III-D zero-load/saturation experiments, and the
Figure 14/15 performance benchmarks.

The harness is the test bench, not a model: it pokes ports directly,
embedding the injection timestamp in each packet's payload field so
latency needs no side tables.  ``run_uniform_random`` is described
once and runs on one of two drivers, named in ``TrafficStats.driver``:

- ``"python"`` — the per-cycle loop of ``_drive_python``, on every
  simulator;
- ``"compiled"`` — the same cycle as one C loop over the engine's nets
  (``tb_uniform`` in the SimJIT runtime, ``core/simjit/runtime.c``,
  which clocks the design through its ``cycle``) when the network is a
  SimJIT top and nothing in Python has to see every cycle.  It
  consumes the very Mersenne-Twister words ``harness.rng`` would have
  produced, so the traffic, the statistics, ``rng``, ``seqnum``,
  ``sim.ncycles`` and every port end bit-identical to the Python
  loop's.  To watch each cycle of a run, wrap ``sim.cycle`` on the
  simulator instance (``sim.cycle = spy``) or attach any per-cycle
  sampler: either keeps the Python loop, and ``TrafficStats.refused``
  says which.
"""

from __future__ import annotations

import functools
import random
import sys
from dataclasses import dataclass, field

from ..core import SimulationTool
from ..core.simjit.specializer import _runtime
from ..resilience.warnings import warn_resilience


@dataclass
class TrafficStats:
    """Results of a traffic run."""

    ncycles: int = 0
    nterminals: int = 1
    injected: int = 0
    ejected: int = 0
    latencies: list = field(default_factory=list)
    #: which driver ran: "compiled" (one C loop in the SimJIT engine)
    #: or "python" (the per-cycle loop), and the first reason the
    #: compiled one was not taken (None when it was)
    driver: str = field(default="python", compare=False)
    refused: str | None = field(default=None, compare=False)

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

        net, sim = self.net, self.sim
        sim.reset()
        # The harness drives per-cycle, so the simulator's own batch
        # instrumentation never fires; the whole measurement+drain
        # loop is one honest "sim.run" span instead.
        tracer = tracing.active()
        t0 = perf_counter_ns() if tracer is not None else 0
        stats = TrafficStats(nterminals=self.nterminals)

        for port in net.out:
            port.rdy.value = 1

        stats.refused = self._compiled_refusal()
        if stats.refused is None:
            stats.driver = "compiled"
            self._drive_compiled(stats, injection_rate, ncycles, warmup,
                                 drain)
        else:
            self._drive_python(stats, injection_rate, ncycles, warmup,
                               drain)

        stats.ncycles = ncycles
        if tracer is not None:
            tracer.add_span("sim.run", t0, perf_counter_ns(),
                            design=type(net).__name__,
                            ncycles=sim.ncycles)
        return stats

    def _drive_python(self, stats, injection_rate, ncycles, warmup, drain):
        """The run, one ``sim.cycle()`` at a time."""
        net, sim, rng = self.net, self.sim, self.rng
        nterm = self.nterminals
        latencies = stats.latencies
        pending = [None] * nterm              # staged packet per input

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

    #: Mersenne-Twister words handed to the compiled bench per refill,
    #: and latencies it holds before Python takes them: fixed, so
    #: memory does not grow with ``ncycles``.
    TAPE_WORDS = 1 << 13
    LATENCY_SLOTS = 1 << 12

    def _compiled_refusal(self):
        """The first reason this run has to be driven cycle by cycle
        from Python, or None when ``tb_uniform`` can drive it."""
        reason = self.sim.bench_refusal()
        if reason is not None:
            return reason
        if type(self.rng) is not random.Random:
            return (f"harness.rng is a {type(self.rng).__name__}, whose "
                    f"draws only Python can make")
        if self.msg_type.nbits > 64:
            return (f"a {self.msg_type.nbits}-bit message does not fit "
                    f"the bench's 64-bit word")
        return _recipe_refusal()

    def _drive_compiled(self, stats, injection_rate, ncycles, warmup, drain):
        """The run as one C loop over the engine's own net array
        (``tb_uniform``), drawing from a tape of the words ``self.rng``
        produces next; everything Python-visible ends where
        ``_drive_python`` leaves it."""
        net, sim, rng = self.net, self.sim, self.rng
        engine = sim.model.jit_engine
        ffi, slot_of = engine._ffi, engine.slot_of
        nwords, nlat = self.TAPE_WORDS, self.LATENCY_SLOTS
        ncycles = max(0, ncycles)
        # cffi keeps no reference to what a struct's pointers name.
        arrays = {
            f"{side}_{name}": ffi.new(
                "int[]", [slot_of(getattr(port, name)) for port in ports])
            for side, ports, names in (
                ("in", net.in_, ("val", "msg", "rdy")),
                ("out", net.out, ("val", "msg")))
            for name in names}
        arrays["pending"] = ffi.new("unsigned char[]", self.nterminals)
        arrays["tape"] = ffi.new("uint32_t[]", nwords)
        arrays["lat"] = ffi.new("int64_t[]", nlat)
        tb = engine.new_bench(
            **arrays, nterm=self.nterminals, nout=len(net.out),
            dest_bits=self.nterminals.bit_length(),
            dest_shift=self._dest_shift, src_shift=self._src_shift,
            seq_shift=self._seq_shift, pay_shift=self._payload_shift,
            seq_mask=self._seq_mask, pay_mask=self._payload_mask,
            msg_mask=(1 << self.msg_type.nbits) - 1,
            rate=injection_rate, ncycles=ncycles, warmup=warmup,
            total=ncycles + max(0, drain), now=sim.ncycles,
            seq=self.seqnum & self._seq_mask, lat_cap=nlat,
            ntape=nwords, used=nwords)      # a tape with nothing left
        tape = ffi.buffer(arrays["tape"])

        runtime = _runtime()        # whose constants tb_uniform returns

        def bench(engine):
            status = runtime.TB_WORDS
            while status != runtime.TB_DONE:
                if status == runtime.TB_WORDS:
                    # The draw that stalled wants the unread tail
                    # first, then words the generator has yet to make.
                    tail = tape[4 * tb.used:]
                    carried = len(tail) // 4
                    fresh = nwords - carried
                    saved = rng.getstate()
                    tape[:] = tail + rng.getrandbits(32 * fresh).to_bytes(
                        4 * fresh, "little")
                    tb.used = 0
                status = engine.tb_uniform(tb)
                stats.latencies.extend(ffi.unpack(arrays["lat"], tb.nlat))
                tb.nlat = 0
            # ``rng`` made the whole last tape; Python's loop would have
            # drawn only the words read from it (a stalled draw reads
            # past what it was carried, so the count is not negative).
            rng.setstate(saved)
            rng.getrandbits(32 * (tb.used - carried))
            return tb.n

        sim.run_bench(bench)
        stats.injected, stats.ejected = tb.injected, tb.ejected
        self.seqnum += tb.injected

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


def _check_recipe():
    """Whether this interpreter's ``random.Random`` turns Mersenne-
    Twister words into ``random()`` and ``randrange(n)`` the way
    ``tb_uniform`` does, and ``getrandbits`` lays them out the way the
    tape expects: a few draws made both ways from one state."""
    if sys.byteorder != "little":
        return False
    ours, theirs = random.Random(2014), random.Random(2014)
    tape = ours.getrandbits(32 * 64).to_bytes(4 * 64, "little")
    words = (int.from_bytes(tape[at:at + 4], "little")
             for at in range(0, len(tape), 4))
    for n in (1, 5, 64, 1000, (1 << 31) + 1):
        a, b = next(words), next(words)
        if theirs.random() != (((a >> 5) * 67108864.0 + (b >> 6))
                               * (1.0 / 9007199254740992.0)):
            return False
        dest = n
        while dest >= n:
            dest = next(words) >> (32 - n.bit_length())
        if theirs.randrange(n) != dest:
            return False
    # Both generators stand on the same word again.
    return next(words) == theirs.getrandbits(32)


@functools.cache
def _recipe_refusal():
    """``_compiled_refusal``'s last question, asked once per process;
    a mismatch — another interpreter, a future CPython — is the one
    refusal that is a degradation, so it warns."""
    if _check_recipe():
        return None
    reason = ("random.Random on this interpreter does not draw the way "
              "the compiled test bench does")
    warn_resilience(
        f"{reason}; traffic runs on the per-cycle Python loop, which "
        f"produces the same statistics",
        kind="simjit-fallback", component="NetworkTrafficHarness",
        fallback="python", detail=sys.version, stacklevel=4)
    return reason


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
