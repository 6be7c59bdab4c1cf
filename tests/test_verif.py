"""Unit tests for the differential-verification subsystem itself.

The checkers get checked: strategies must honor their constraints,
monitors must catch deliberately seeded protocol violations, the
shrinker must converge to a known minimal core, and the cosim harness
must surface mismatches / protocol errors with useful metadata.  The
package doctests run here too.
"""

import doctest

import pytest

import repro.verif
from repro.core import Model, OutValRdyBundle, Wire
from repro.mem.msgs import MEM_REQ_READ, MEM_REQ_WRITE, MemReqMsg
from repro.net import NetMsg
from repro.verif import (
    RNG,
    BitsStrategy,
    BitStructStrategy,
    ChoiceStrategy,
    CoSimHarness,
    CoSimMismatch,
    CoSimProtocolError,
    Coverage,
    DutAdapter,
    IntRangeStrategy,
    Scoreboard,
    ValRdyMonitor,
    backpressure_pattern,
    classify_mem_request,
    emit_repro,
    mem_request_strategy,
    net_message_strategy,
    shrink_cosim_failure,
    shrink_stimulus,
)
from repro.verif.strategies import _corner_values


# -- strategies ---------------------------------------------------------------


def test_rng_fork_is_deterministic_and_independent():
    a1 = [RNG(9).fork("reqs").random() for _ in range(4)]
    a2 = [RNG(9).fork("reqs").random() for _ in range(4)]
    b = [RNG(9).fork("resps").random() for _ in range(4)]
    assert a1 == a2          # same seed + label -> same stream
    assert a1 != b           # different label -> different stream
    assert a1 != [RNG(10).fork("reqs").random() for _ in range(4)]


def test_bits_strategy_range_and_corners():
    rng = RNG(1)
    strat = BitsStrategy(12)
    samples = [strat.sample(rng) for _ in range(500)]
    assert all(0 <= v < (1 << 12) for v in samples)
    # With corner_bias=1.0 every sample is a corner value.
    always = BitsStrategy(12, corner_bias=1.0)
    corners = set(_corner_values(12))
    assert all(always.sample(rng) in corners for _ in range(100))
    assert {0, 1, (1 << 12) - 1, 1 << 11} <= corners


def test_int_range_strategy():
    rng = RNG(2)
    strat = IntRangeStrategy(5, 9)
    assert all(5 <= strat.sample(rng) <= 9 for _ in range(200))
    with pytest.raises(ValueError):
        IntRangeStrategy(3, 2)


def test_choice_strategy_weights():
    rng = RNG(3)
    strat = ChoiceStrategy([("a", 1.0), ("b", 0.0)])
    assert all(strat.sample(rng) == "a" for _ in range(50))
    flat = ChoiceStrategy(["x", "y"])
    assert {flat.sample(rng) for _ in range(100)} == {"x", "y"}


def test_bitstruct_strategy_fields_and_overrides():
    msg_type = NetMsg(4, 64, 8)
    rng = RNG(4)
    strat = BitStructStrategy(
        msg_type, overrides={"dest": ChoiceStrategy([2])})
    for _ in range(50):
        msg = strat.unpack(strat.sample(rng))
        assert int(msg.dest) == 2
        assert 0 <= int(msg.payload) < (1 << 8)
    with pytest.raises(ValueError, match="unknown field"):
        BitStructStrategy(msg_type, overrides={"nope": ChoiceStrategy([0])})
    with pytest.raises(TypeError):
        BitStructStrategy(int)


def test_mem_request_strategy_constraints():
    rng = RNG(5)
    strat = mem_request_strategy(addr_words=16, addr_base=0x100)
    for _ in range(200):
        msg = strat.unpack(strat.sample(rng))
        addr = int(msg.addr)
        assert addr % 4 == 0
        assert 0x100 <= addr < 0x100 + 16 * 4
        assert int(msg.type_) in (MEM_REQ_READ, MEM_REQ_WRITE)


def test_net_message_strategy_src_pinned():
    msg_type = NetMsg(4, 64, 8)
    rng = RNG(6)
    strat = net_message_strategy(msg_type, src=3, nterminals=4)
    dests = set()
    for _ in range(100):
        msg = strat.unpack(strat.sample(rng))
        assert int(msg.src) == 3
        dests.add(int(msg.dest))
    assert dests == {0, 1, 2, 3}


def test_backpressure_patterns():
    assert all(backpressure_pattern("always")(c) for c in range(20))
    bursty = backpressure_pattern("bursty", burst=3)
    assert [bursty(c) for c in range(8)] == [
        True, True, True, False, False, False, True, True]
    late = backpressure_pattern("never_first", burst=4)
    assert [late(c) for c in range(6)] == [
        False, False, False, False, True, True]
    # The random pattern is a pure function of (seed, cycle).
    r1 = backpressure_pattern("random", p=0.5, seed=7)
    r2 = backpressure_pattern("random", p=0.5, seed=7)
    assert [r1(c) for c in range(64)] == [r2(c) for c in range(64)]
    assert 0 < sum(r1(c) for c in range(64)) < 64
    with pytest.raises(ValueError):
        backpressure_pattern("sometimes")


# -- monitors -----------------------------------------------------------------


def test_monitor_records_transfers():
    mon = ValRdyMonitor("ch")
    mon.observe(0, 1, 1, 0xA)
    mon.observe(1, 0, 1, 0)
    mon.observe(2, 1, 1, 0xB)
    assert mon.transfers == [(0, 0xA), (2, 0xB)]
    assert mon.ok


def test_monitor_catches_val_drop():
    mon = ValRdyMonitor("ch")
    mon.observe(0, 1, 0, 0xA)       # stalled offer
    mon.observe(1, 0, 0, 0)         # revoked: violation
    assert [v.rule for v in mon.violations] == ["val_drop"]
    assert "0xa" in str(mon.violations[0])
    assert mon.violations[0].cycle == 1


def test_monitor_catches_payload_change():
    mon = ValRdyMonitor("ch")
    mon.observe(0, 1, 0, 0xA)       # stalled offer
    mon.observe(1, 1, 0, 0xB)       # payload swapped: violation
    mon.observe(2, 1, 1, 0xB)       # eventually accepted
    assert [v.rule for v in mon.violations] == ["payload_change"]
    assert mon.transfers == [(2, 0xB)]


def test_monitor_stable_stall_is_clean():
    mon = ValRdyMonitor("ch")
    for cycle in range(5):
        mon.observe(cycle, 1, 0, 0xC)
    mon.observe(5, 1, 1, 0xC)
    assert mon.ok
    assert mon.transfers == [(5, 0xC)]


def test_monitor_check_false_records_but_never_flags():
    mon = ValRdyMonitor("tap", check=False)
    mon.observe(0, 1, 0, 0xA)
    mon.observe(1, 0, 0, 0)         # would be val_drop if checking
    mon.observe(2, 1, 1, 0xD)
    assert mon.ok
    assert mon.transfers == [(2, 0xD)]


def test_scoreboard():
    sb = Scoreboard(expected=[1, 2, 3])
    assert sb.push_actual(1) and sb.push_actual(2)
    assert not sb.ok                # 3 still pending
    assert sb.pending == [3]
    assert sb.push_actual(3) and sb.ok
    assert not sb.push_actual(4)    # extra actual
    assert sb.mismatches == [(3, None, 4)]
    keyed = Scoreboard(expected=[0x1F], key=lambda m: m & 0xF)
    assert keyed.push_actual(0x2F)  # high nibble ignored
    assert keyed.ok


# -- coverage -----------------------------------------------------------------


def test_coverage_bins_and_require():
    cov = Coverage()
    cov.hit("g", "a")
    cov.hit("g", "a")
    cov.hit("g", "b", n=3)
    assert cov.count("g", "a") == 2
    assert cov.bins("g") == {"a": 2, "b": 3}
    cov.require("g", ["a", "b"])
    with pytest.raises(AssertionError, match="missing bins"):
        cov.require("g", ["c"])
    other = Coverage()
    other.hit("g", "a")
    cov.merge(other)
    assert cov.count("g", "a") == 3
    assert "g" in cov.report()


def test_classify_mem_request_bins():
    cov = Coverage()
    classify_mem_request(cov, int(MemReqMsg.mk_wr(0x10, 0)))
    classify_mem_request(cov, int(MemReqMsg.mk_rd(0x10)))
    classify_mem_request(cov, int(MemReqMsg.mk_wr(0x10, 1 << 5)))
    bins = cov.bins("mem_req")
    assert bins["write"] == 2 and bins["read"] == 1
    assert bins["data_zero"] == 2       # rd data and first wr data
    assert bins["data_onehot"] == 1


# -- shrinking ----------------------------------------------------------------


def test_shrink_to_known_core():
    stim = {"a": list(range(20)), "b": list(range(100, 120))}

    def still_fails(candidate):
        return 7 in candidate["a"] and 111 in candidate["b"]

    shrunk = shrink_stimulus(stim, still_fails)
    assert shrunk == {"a": [7], "b": [111]}


def test_shrink_preserves_order():
    stim = {"a": [5, 9, 1, 9, 2]}
    # Fails iff both nines survive, in order.
    shrunk = shrink_stimulus(
        stim, lambda s: s["a"].count(9) >= 2)
    assert shrunk == {"a": [9, 9]}


def test_shrink_empty_stimulus_is_noop():
    calls = []

    def still_fails(candidate):
        calls.append(candidate)
        return True

    assert shrink_stimulus({}, still_fails) == {}
    assert shrink_stimulus({"a": []}, still_fails) == {"a": []}


def test_shrink_single_transaction():
    # Irreducible: the lone transaction is the failure.
    shrunk = shrink_stimulus({"a": [42]}, lambda s: 42 in s["a"])
    assert shrunk == {"a": [42]}
    # Reducible: the transaction is irrelevant and gets dropped.
    shrunk = shrink_stimulus({"a": [42]}, lambda s: True)
    assert shrunk == {"a": []}


def test_shrink_memoizes_repeated_candidates():
    seen = []

    def still_fails(candidate):
        seen.append(tuple(
            (ch, p) for ch in sorted(candidate)
            for p in candidate[ch]))
        return 7 in candidate["a"] and 3 in candidate["a"]

    shrunk = shrink_stimulus({"a": list(range(10))}, still_fails)
    assert shrunk == {"a": [3, 7]}
    # Every actual re-execution was for a distinct candidate: repeats
    # served from the memo never reach still_fails.
    assert len(seen) == len(set(seen))


def test_shrink_cosim_failure_rejects_passing_scenario():
    class _NeverFails:
        def run(self, stimulus, **kwargs):
            return None

    with pytest.raises(ValueError, match="does not fail"):
        shrink_cosim_failure(lambda: _NeverFails(), {"a": [1]})


def test_emit_repro_is_valid_python(tmp_path):
    path = tmp_path / "repro.py"
    emit_repro(
        path,
        "def make_cosim():\n"
        "    raise AssertionError('reproduced')",
        {"a": [1, 2]}, {"max_cycles": 99}, note="unit test")
    text = path.read_text()
    assert "STIMULUS = {'a': [1, 2]}" in text
    namespace = {}
    exec(compile(text, str(path), "exec"), namespace)
    with pytest.raises(AssertionError, match="reproduced"):
        namespace["test_repro"]()


# -- cosim harness ------------------------------------------------------------


class _Pipe(Model):
    """Single-entry val/rdy pipe; ``delta`` models a data-path bug."""

    def __init__(s, delta=0):
        from repro.core import InValRdyBundle
        s.delta = delta
        s.enq = InValRdyBundle(8)
        s.deq = OutValRdyBundle(8)
        s.full = Wire(1)
        s.data = Wire(8)

        @s.combinational
        def comb():
            s.enq.rdy.value = 0 if s.full.uint() else 1
            s.deq.val.value = s.full.uint()
            s.deq.msg.value = s.data.uint()

        @s.tick_rtl
        def tick():
            if s.reset:
                s.full.next = 0
            elif s.enq.val.uint() and s.enq.rdy.uint():
                s.full.next = 1
                s.data.next = (s.enq.msg.uint() + s.delta) & 0xFF
            elif s.deq.val.uint() and s.deq.rdy.uint():
                s.full.next = 0


def _pipe_dut(name, delta=0, sched="auto"):
    pipe = _Pipe(delta).elaborate()
    return DutAdapter(name, pipe, drives={"enq": pipe.enq},
                      captures={"deq": pipe.deq}, sched=sched)


def test_cosim_validation_errors():
    with pytest.raises(ValueError, match="at least two"):
        CoSimHarness([_pipe_dut("only")])
    with pytest.raises(ValueError, match="compare"):
        CoSimHarness([_pipe_dut("a"), _pipe_dut("b")],
                     compare="approximately")
    other = _Pipe().elaborate()
    renamed = DutAdapter("c", other, drives={"in": other.enq},
                         captures={"out": other.deq})
    with pytest.raises(ValueError, match="channel sets differ"):
        CoSimHarness([_pipe_dut("a"), renamed])


def test_cosim_detects_data_mismatch_with_metadata():
    harness = CoSimHarness(
        [_pipe_dut("good"), _pipe_dut("buggy", delta=1)],
        compare="cycle_tolerant")
    with pytest.raises(CoSimMismatch) as excinfo:
        harness.run({"enq": [0x10, 0x20]}, max_cycles=100)
    exc = excinfo.value
    assert exc.ref == "good" and exc.dut == "buggy"
    assert exc.channel == "deq" and exc.index == 0
    assert exc.expected[1] == 0x10 and exc.actual[1] == 0x11


def test_cosim_clean_run_reports_transfers_and_cycles():
    harness = CoSimHarness(
        [_pipe_dut("event", sched="event"),
         _pipe_dut("static", sched="static")],
        compare="cycle_exact")
    res = harness.run({"enq": [7, 8, 9]}, max_cycles=200,
                      backpressure=backpressure_pattern("bursty", burst=2))
    assert res.ntransactions("deq") == 3
    assert res.transfers["event"]["deq"] == res.transfers["static"]["deq"]
    assert len(set(res.ncycles.values())) == 1
    assert res.coverage.count("handshake", "drive_xfer") >= 3


def test_cosim_reused_harness_reports_cycles_per_run():
    # sim.reset() does not zero sim.ncycles, so a second run() on the
    # same harness starts from the first run's count; the result must
    # hold what this run simulated.
    harness = CoSimHarness(
        [_pipe_dut("event", sched="event"),
         _pipe_dut("static", sched="static")],
        compare="cycle_exact")
    first = harness.run({"enq": [7, 8, 9]}, max_cycles=200)
    second = harness.run({"enq": [7, 8, 9]}, max_cycles=200)
    assert second.ncycles == first.ncycles
    assert second.transfers == first.transfers
    for dut in harness.duts:
        assert dut.sim.ncycles == 2 * first.ncycles[dut.name]


class _ValDropper(Model):
    """Broken producer: offers a new message every other cycle and
    revokes it if the sink stalls — the classic val-drop bug."""

    def __init__(s):
        s.out = OutValRdyBundle(8)
        s.cnt = Wire(8)

        @s.combinational
        def drive():
            active = s.cnt.uint() < 8 and s.cnt.uint() % 2 == 0
            s.out.val.value = 1 if active else 0
            s.out.msg.value = 0x40 | s.cnt.uint()

        @s.tick_rtl
        def tick():
            if s.reset:
                s.cnt.next = 0
            else:
                s.cnt.next = s.cnt.uint() + 1


def test_cosim_flags_seeded_protocol_violation():
    """A DUT that drops stalled offers is reported even though both
    implementations agree with each other."""
    def dropper(name):
        m = _ValDropper().elaborate()
        return DutAdapter(name, m, captures={"out": m.out})

    harness = CoSimHarness([dropper("a"), dropper("b")],
                           compare="cycle_exact")
    with pytest.raises(CoSimProtocolError) as excinfo:
        harness.run({}, max_cycles=100, drain=4,
                    backpressure=backpressure_pattern("never_first",
                                                      burst=16))
    rules = {v.rule for v in excinfo.value.violations}
    assert "val_drop" in rules


# -- package doctests ---------------------------------------------------------


def test_verif_doctests():
    result = doctest.testmod(repro.verif, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
