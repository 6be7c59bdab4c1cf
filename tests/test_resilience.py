"""Resilience subsystem tests: fault injection, self-healing fallbacks,
watchdog diagnostics, and the CRC-protected resilient link.

The two load-bearing properties:

- **Substrate portability** — the same seed and the same fault set
  produce bit-identical telemetry totals whether the design runs on
  the event-driven simulator, the static schedule, or SimJIT (fault
  decisions are pure functions of the cycle index).
- **Exactly-once delivery** — the resilient link delivers every
  injected-fault packet exactly once, in order, at all three modeling
  levels, verified with the differential co-simulation harness.
"""

import json
import warnings

import pytest

from repro import (
    InPort,
    Model,
    OutPort,
    ResilienceWarning,
    SEUInjector,
    SimulationTool,
    StuckAtFault,
    Watchdog,
    WatchdogTimeout,
    Wire,
    specialize_or_fallback,
)
from repro.core import SimulationError
from repro.core.simjit import SimJITRTL
from repro.net import ResilientLink, RouterRTL, UnreliableChannel, crc8
from repro.net.resilient_link import pack_ack, pack_frame
from repro.resilience import (
    KINDS,
    LinkFaultInjector,
    fault_schedule,
    warn_resilience,
)
from repro.verif import RNG, CoSimHarness, DutAdapter, backpressure_pattern


# -- warning taxonomy ----------------------------------------------------------------


def test_resilience_warning_fields():
    with pytest.warns(ResilienceWarning) as rec:
        warn_resilience("down we go", kind="sched-fallback",
                        component="top", fallback="event", detail="boom")
    assert len(rec) == 1
    w = rec[0].message
    assert w.kind == "sched-fallback"
    assert w.component == "top" and w.fallback == "event"
    assert w.detail == "boom"
    assert str(w) == "down we go"


def test_resilience_warning_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        warn_resilience("x", kind="not-a-kind")
    assert set(KINDS) == {
        "static-noop", "sched-fallback", "simjit-fallback",
        "instrument-fallback"}


# -- fault schedules ------------------------------------------------------------------


def test_fault_schedule_deterministic_and_bursty():
    a = fault_schedule(0.25, seed=9)
    b = fault_schedule(0.25, seed=9)
    fires = [c for c in range(2000) if a(c)]
    assert fires == [c for c in range(2000) if b(c)]
    # Probability is roughly honored (pure crc32 mix, not RNG draws).
    assert 0.15 < len(fires) / 2000 < 0.35
    # A different seed gives a different schedule.
    assert fires != [c for c in range(2000) if fault_schedule(0.25, 10)(c)]
    # burst=4 makes decisions per 4-cycle window: within any window the
    # decision is constant.
    w = fault_schedule(0.3, seed=3, burst=4)
    for base in range(0, 400, 4):
        assert len({w(base + i) for i in range(4)}) == 1


# -- injector units ------------------------------------------------------------------


class _Pipe(Model):
    """Three-deep counter pipeline: a fault on r1 is visible on out two
    cycles later, so expected values are computable by hand."""

    def __init__(s):
        s.out = OutPort(8)
        s.r1 = Wire(8)
        s.r2 = Wire(8)

        @s.tick_rtl
        def seq():
            if s.reset:
                s.r1.next = 0
                s.r2.next = 0
                s.out.next = 0
            else:
                s.r1.next = (s.r1 + 1) & 0xFF
                s.r2.next = s.r1.value
                s.out.next = s.r2.value


def _run_pipe(install=None, ncycles=12):
    m = _Pipe().elaborate()
    sim = SimulationTool(m)
    if install is not None:
        install(sim)
    sim.reset()
    outs = []
    for _ in range(ncycles):
        sim.cycle()
        outs.append(int(m.out))
    return outs, m, sim


def test_seu_flips_exactly_on_requested_cycles():
    clean, _, _ = _run_pipe()
    inj = SEUInjector("r1", cycles=[4], bit=0)
    faulty, _, _ = _run_pipe(inj.install)
    assert inj.n_fires == 1
    assert inj.log and inj.log[0][0] == 4 and "bit 0" in inj.log[0][1]
    diffs = [i for i, (c, f) in enumerate(zip(clean, faulty)) if c != f]
    # The flip lands in the counter register itself: the counter keeps
    # incrementing from the flipped value, so once the fault reaches out
    # the divergence is permanent with a constant +-1 offset.
    assert diffs and diffs == list(range(diffs[0], len(clean)))
    offsets = {faulty[i] - clean[i] for i in diffs}
    assert offsets == {1} or offsets == {-1}


def test_seu_probability_mode_is_seed_deterministic():
    def fires(seed):
        inj = SEUInjector("r1", p=0.3, seed=seed)
        _run_pipe(inj.install, ncycles=60)
        return inj.n_fires, tuple(inj.log)

    assert fires(11) == fires(11)
    assert fires(11) != fires(12)
    # An RNG seed lands on the fork tree, equally reproducibly.
    assert fires(RNG(5)) == fires(RNG(5))


def test_seu_requires_exactly_one_trigger():
    with pytest.raises(ValueError, match="exactly one"):
        SEUInjector("r1")
    with pytest.raises(ValueError, match="exactly one"):
        SEUInjector("r1", p=0.1, cycles=[1])


def test_stuck_at_holds_window_then_releases():
    clean, _, _ = _run_pipe(ncycles=16)
    inj = StuckAtFault("r1", value=0x7F, from_cycle=4, until=7)
    faulty, _, _ = _run_pipe(inj.install, ncycles=16)
    assert inj.n_fires == 3
    # The three forced pre-edge values march through r2 to out as three
    # consecutive 0x7F samples...
    window = [i for i, v in enumerate(faulty) if v == 0x7F]
    assert len(window) == 3
    assert window == list(range(window[0], window[0] + 3))
    # ...and after release the pipeline recovers: r1 resumes counting
    # from the forced value (0x7F + 1 = 0x80 onward).
    after = faulty[window[-1] + 1:]
    assert after == list(range(0x80, 0x80 + len(after)))
    assert clean[window[-1] + 1:] != after


# -- substrate equivalence (the satellite-4 property) --------------------------------


def _faulted_router_counters(jit, sched):
    m = RouterRTL(0, 4, 64, 16, 2).elaborate()
    if jit:
        m = SimJITRTL(m).specialize()
        m.elaborate()
    sim = SimulationTool(m, sched=sched)
    seu = SEUInjector("priority[2]", p=0.05, seed=5).install(sim)
    stuck = StuckAtFault("hold_val[1]", bit=0, value=1,
                         from_cycle=10, until=40).install(sim)
    sim.reset()
    for o in range(5):
        m.out[o].rdy.value = 1
    for cyc in range(200):
        m.in_[0].val.value = 1 if cyc % 3 else 0
        m.in_[0].msg.value = (
            ((cyc * 7) % 4) << 14 | (cyc % 64) << 8 | (cyc & 0xFF))
        sim.eval_combinational()
        sim.cycle()
    totals = {k: c.value for k, c in m._all_counters.items()}
    return totals, seu.n_fires, stuck.n_fires


def test_injected_faults_identical_across_substrates():
    """Same seed + same faults -> bit-identical telemetry totals on
    event, static, auto (kernel-capable), and SimJIT substrates."""
    ref = _faulted_router_counters(False, "event")
    assert sum(ref[0].values()) > 0 and ref[1] > 0 and ref[2] > 0
    for jit, sched in [(False, "static"), (False, "auto"), (True, "auto")]:
        assert _faulted_router_counters(jit, sched) == ref, (jit, sched)


def test_seu_reaches_compiled_cl_state():
    """A flip into a CL model's flat-int state list lands on the same
    element whether the state lives in Python or in the compiled
    instance (raw_set_state element indexing)."""
    from repro.core.simjit import SimJITCL
    from repro.net import RouterCL

    def run(jit):
        m = RouterCL(0, 4, 64, 16, 2)
        m.elaborate()
        if jit:
            m = SimJITCL(m).specialize()
            m.elaborate()
        sim = SimulationTool(m)
        inj = SEUInjector("priority[1]", cycles=[6, 9], bit=0).install(sim)
        sim.reset()
        for o in range(5):
            m.out[o].rdy.value = 1
        for cyc in range(30):
            # Two competing requesters for the same output: arbitration
            # priority decides, so a priority flip changes the counters.
            for i in (0, 1):
                m.in_[i].val.value = 1
                m.in_[i].msg.value = 2 << 14 | (cyc % 64) << 8 | i
            sim.eval_combinational()
            sim.cycle()
        return {k: c.value for k, c in m._all_counters.items()}, inj.n_fires

    plain = run(False)
    jitted = run(True)
    assert plain == jitted and plain[1] == 2


# -- self-healing fallbacks ----------------------------------------------------------


class _Counter(Model):
    def __init__(s):
        s.en = InPort(1)
        s.out = OutPort(8)

        @s.tick_rtl
        def seq():
            if s.reset:
                s.out.next = 0
            elif s.en:
                s.out.next = s.out + 1


def _drive_counter(sim, m, n=20):
    sim.reset()
    m.en.value = 1
    sim.run(n)
    return int(m.out)


def test_static_schedule_failure_degrades_to_event(monkeypatch):
    from repro.core import simulation as simulation_mod

    def boom(infos):
        raise RuntimeError("synthetic scheduler defect")

    monkeypatch.setattr(simulation_mod, "build_schedule", boom)
    m = _Counter().elaborate()
    with pytest.warns(ResilienceWarning) as rec:
        sim = SimulationTool(m, sched="static")
    kinds = [w.message.kind for w in rec]
    assert kinds.count("sched-fallback") == 1
    assert sim.sched_info()["mode"] == "event"
    assert any("synthetic scheduler defect" in r
               for r in sim.sched_info()["kernel_refused"])
    # The degraded simulator still computes the right answer.
    assert _drive_counter(sim, m) == 20


def test_static_noop_warning_is_resilience_warning():
    class _Opaque(Model):
        """Comb block whose write set defeats static analysis, leaving
        nothing to schedule (same shape as test_scheduling's _Opaque)."""

        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.helper()

        def helper(s):
            s.out.value = s.in_.value + 1

    m = _Opaque().elaborate()
    with pytest.warns(ResilienceWarning) as rec:
        SimulationTool(m, sched="static")
    assert [w.message.kind for w in rec] == ["static-noop"]
    assert "no effect" in str(rec[0].message)
    assert rec[0].message.fallback == "event"


def test_specialize_or_fallback_survives_gcc_failure():
    def run(m):
        sim = SimulationTool(m)
        sim.reset()
        for o in range(5):
            m.out[o].rdy.value = 1
        m.in_[0].val.value = 1
        m.in_[0].msg.value = 1 << 14
        sim.run(20)
        return {k: c.value for k, c in m._all_counters.items()}

    with pytest.warns(ResilienceWarning) as rec:
        m = specialize_or_fallback(
            RouterRTL(0, 4, 64, 16, 2).elaborate(), opt="-Oinvalid")
    assert [w.message.kind for w in rec] == ["simjit-fallback"]
    assert rec[0].message.fallback == "interpreted"
    # The fallback is the *original* interpreted model, fully usable.
    assert not hasattr(m, "jit_engine")
    plain = run(RouterRTL(0, 4, 64, 16, 2).elaborate())
    assert run(m) == plain and sum(plain.values()) > 0


def test_specialize_or_fallback_passthrough_on_success():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResilienceWarning)
        m = specialize_or_fallback(RouterRTL(0, 4, 64, 16, 2).elaborate())
    assert hasattr(m, "jit_engine")


# -- watchdog + oscillation diagnostics ----------------------------------------------


def test_watchdog_cycle_budget(tmp_path):
    m = _Counter().elaborate()
    sim = SimulationTool(m)
    sim.reset()
    m.en.value = 1
    wd = Watchdog(sim, max_cycles=100, check_every=16)
    with pytest.raises(WatchdogTimeout) as exc:
        wd.run(10_000)
    diag = exc.value.diagnostics
    assert diag["cycle"] >= 100 and diag["cycle"] < 10_000
    assert diag["sched"]["mode"] in ("event", "static")
    path = tmp_path / "sub" / "watchdog.json"
    wd.write_report(path)
    with open(path) as f:
        report = json.load(f)
    assert report["cycle"] == diag["cycle"]
    assert "line_trace" in report and "elapsed_seconds" in report


def test_watchdog_wall_clock_budget():
    m = _Counter().elaborate()
    sim = SimulationTool(m)
    sim.reset()
    wd = Watchdog(sim, max_wall_seconds=0.0, check_every=8)
    with pytest.raises(WatchdogTimeout, match="wall clock"):
        wd.run(1000)


def test_watchdog_completes_within_budget():
    m = _Counter().elaborate()
    sim = SimulationTool(m)
    sim.reset()
    m.en.value = 1
    assert Watchdog(sim, max_cycles=500).run(50) == 50
    assert int(m.out) == 50


def test_comb_loop_diagnostic_names_oscillating_signals():
    class _Osc(Model):
        def __init__(s):
            s.a = Wire(1)
            s.b = Wire(1)

            @s.combinational
            def follow():
                s.b.value = s.a.uint()

            @s.combinational
            def invert():
                s.a.value = 1 - s.b.uint()

    # The initial settle at construction already trips the budget.
    with pytest.raises(SimulationError, match="loop") as exc:
        SimulationTool(_Osc().elaborate())
    msg = str(exc.value)
    assert "oscillating signals" in msg
    assert "a (" in msg and "b (" in msg
    assert "hottest blocks" in msg
    assert "invert" in msg or "follow" in msg


# -- CRC and framing -----------------------------------------------------------------


def test_crc8_detects_all_single_and_double_bit_errors():
    # CRC-8 poly 0x07 has Hamming distance 4 up to 119 data bits: any
    # 1- or 2-bit flip in the frame body must change the crc, which is
    # exactly the corruption class LinkFaultInjector produces.
    nbits = 20
    base = 0x5A5A5
    good = crc8(base, nbits)
    for b1 in range(nbits):
        assert crc8(base ^ (1 << b1), nbits) != good
        for b2 in range(b1 + 1, nbits):
            assert crc8(base ^ (1 << b1) ^ (1 << b2), nbits) != good


def test_frame_pack_layout():
    seq_bits, payload_bits = 4, 16
    frame = pack_frame(0x9, 0xBEEF, seq_bits, payload_bits)
    body = frame & ((1 << (seq_bits + payload_bits)) - 1)
    assert body == (0x9 << 16) | 0xBEEF
    assert frame >> (seq_bits + payload_bits) == crc8(body, 20)
    ack = pack_ack(1, 0x9, seq_bits)
    assert ack & ((1 << (seq_bits + 1)) - 1) == (1 << seq_bits) | 0x9


# -- resilient link: fault-free and exactly-once under faults ------------------------


LEVELS = ("fl", "cl", "rtl")


def _link_dut(name, level, **kwargs):
    link = ResilientLink(payload_nbits=16, level=level, **kwargs)
    return DutAdapter(name, link,
                      drives={"in": link.in_},
                      captures={"out": link.out})


def _payloads(seed, n):
    rng = RNG(seed).fork("payloads")
    return [rng.getrandbits(16) for _ in range(n)]


@pytest.mark.parametrize("level", LEVELS)
def test_link_delivers_fault_free(level):
    link = ResilientLink(payload_nbits=16, level=level).elaborate()
    sim = SimulationTool(link)
    sim.reset()
    sent = _payloads(3, 20)
    got = []
    it = iter(sent)
    cur = next(it)
    link.out.rdy.value = 1
    for _ in range(400):
        link.in_.val.value = 1 if cur is not None else 0
        if cur is not None:
            link.in_.msg.value = cur
        sim.eval_combinational()
        if cur is not None and int(link.in_.rdy):
            cur = next(it, None)
        if int(link.out.val):
            got.append(int(link.out.msg))
        sim.cycle()
        if cur is None and link.is_idle():
            break
    assert got == sent
    assert link.sender.ctr_retries.value == 0
    assert link.receiver.ctr_delivered.value == len(sent)


def _run_fault_sweep(seed, npackets, drop, corrupt, stall):
    duts = [_link_dut(level, level) for level in LEVELS]
    for dut in duts:
        LinkFaultInjector("fwd", drop=drop, corrupt=corrupt,
                          stall=stall, seed=seed).install(dut.sim)
        LinkFaultInjector("rev", drop=drop, corrupt=corrupt,
                          stall=stall, seed=seed + 1).install(dut.sim)
    harness = CoSimHarness(duts, compare="cycle_tolerant")
    sent = _payloads(seed, npackets)
    res = harness.run(
        {"in": sent},
        backpressure=backpressure_pattern("random", 0.2, seed=seed),
        max_cycles=60_000)
    for level in LEVELS:
        link = next(d.model for d in duts if d.name == level)
        # Exactly once, in order, no losses tolerated.
        got = [msg for _, msg in res.transfers[level]["out"]]
        assert got == sent, (level, len(got), len(sent))
        assert link.sender.ctr_giveups.value == 0
        assert link.receiver.ctr_delivered.value == npackets
        # The sweep actually exercised the machinery.
        assert (link.fwd.ctr_dropped.value
                + link.fwd.ctr_corrupted.value
                + link.rev.ctr_dropped.value) > 0
        assert link.sender.ctr_retries.value > 0
    return duts


def test_link_exactly_once_under_fault_sweep():
    """Every injected-fault packet is delivered exactly once at FL, CL,
    and RTL — >=1000 packets across three fault mixes, diffed by the
    co-simulation harness."""
    total = 0
    for seed, n, faults in [
        (101, 340, dict(drop=0.08, corrupt=0.0, stall=0.10)),
        (202, 340, dict(drop=0.0, corrupt=0.08, stall=0.05)),
        (303, 340, dict(drop=0.05, corrupt=0.05, stall=0.08)),
    ]:
        _run_fault_sweep(seed, n, **faults)
        total += n * len(LEVELS)
    assert total >= 1000


def test_link_gives_up_on_dead_channel():
    link = ResilientLink(payload_nbits=16, level="rtl",
                         max_retries=3).elaborate()
    sim = SimulationTool(link)
    inj = LinkFaultInjector("fwd", drop=1.0, seed=0).install(sim)
    sim.reset()
    link.out.rdy.value = 1
    link.in_.val.value = 1
    link.in_.msg.value = 0x1234
    sim.eval_combinational()
    for _ in range(400):
        sim.cycle()
        sim.eval_combinational()
        if int(link.sender.ctr_giveups.value) and int(link.in_.rdy):
            break
    assert link.sender.ctr_giveups.value == 1
    assert link.receiver.ctr_delivered.value == 0
    assert inj.n_drop > 0
    # The sender returned to IDLE: the link is live for the next payload.
    assert int(link.in_.rdy) == 1


def test_link_fault_injector_rejects_non_channel():
    link = ResilientLink(payload_nbits=16, level="rtl").elaborate()
    sim = SimulationTool(link)
    with pytest.raises(TypeError, match="UnreliableChannel"):
        LinkFaultInjector("sender", drop=0.5).install(sim)


def test_unreliable_channel_counts_fault_hits():
    chan = UnreliableChannel(8).elaborate()
    sim = SimulationTool(chan)
    sim.reset()
    chan.out.rdy.value = 1
    chan.in_.val.value = 1
    chan.in_.msg.value = 0xAB
    chan.f_drop.value = 1
    sim.eval_combinational()
    sim.cycle()
    assert chan.ctr_dropped.value == 1 and chan.is_empty()
    chan.f_drop.value = 0
    chan.f_corrupt.value = 0x03
    sim.eval_combinational()
    sim.cycle()
    assert chan.ctr_corrupted.value == 1
    sim.eval_combinational()
    assert int(chan.out.msg) == 0xAB ^ 0x03
