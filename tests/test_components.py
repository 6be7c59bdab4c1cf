"""Unit tests for the component library."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InPort, Model, OutPort, SimulationTool
from repro.components import (
    Adder,
    BypassQueue,
    Counter,
    Demux,
    EqComparator,
    Incrementer,
    IntPipelinedMultiplier,
    LtComparator,
    Mux,
    NormalQueue,
    QueueCL,
    RegEn,
    RegEnRst,
    RegRst,
    Register,
    RoundRobinArbiter,
    Subtractor,
    ZeroExtender,
    run_src_sink_test,
)


def _sim(model):
    model.elaborate()
    sim = SimulationTool(model)
    sim.reset()
    return sim


# -- registers -------------------------------------------------------------


def test_register_delays_one_cycle():
    m = Register(8)
    sim = _sim(m)
    m.in_.value = 5
    sim.cycle()
    assert m.out == 5


def test_regen_holds_without_enable():
    m = RegEn(8)
    sim = _sim(m)
    m.in_.value = 7
    m.en.value = 1
    sim.cycle()
    m.in_.value = 9
    m.en.value = 0
    sim.cycle()
    assert m.out == 7
    m.en.value = 1
    sim.cycle()
    assert m.out == 9


def test_regrst_resets():
    m = RegRst(8, reset_value=0xAA)
    m.elaborate()
    sim = SimulationTool(m)
    sim.reset()
    assert m.out == 0xAA
    m.in_.value = 1
    sim.cycle()
    assert m.out == 1


def test_regenrst():
    m = RegEnRst(8, reset_value=3)
    sim = _sim(m)
    assert m.out == 3
    m.in_.value = 10
    m.en.value = 0
    sim.cycle()
    assert m.out == 3
    m.en.value = 1
    sim.cycle()
    assert m.out == 10


def test_counter_enable_clear():
    m = Counter(4)
    sim = _sim(m)
    m.en.value = 1
    sim.run(3)
    assert m.count == 3
    m.clear.value = 1
    sim.cycle()
    assert m.count == 0


# -- muxes ------------------------------------------------------------------


@pytest.mark.parametrize("nports", [2, 3, 4, 8])
def test_mux(nports):
    m = Mux(8, nports)
    m.elaborate()
    sim = SimulationTool(m)
    for i in range(nports):
        m.in_[i].value = 0x40 + i
    for sel in range(nports):
        m.sel.value = sel
        sim.eval_combinational()
        assert m.out == 0x40 + sel


def test_demux():
    m = Demux(8, 4)
    m.elaborate()
    sim = SimulationTool(m)
    m.in_.value = 0x55
    m.sel.value = 2
    sim.eval_combinational()
    assert m.out[2] == 0x55
    assert m.out[0] == 0 and m.out[1] == 0 and m.out[3] == 0


# -- arithmetic --------------------------------------------------------------


def test_adder_with_carry():
    m = Adder(8)
    m.elaborate()
    sim = SimulationTool(m)
    m.in0.value = 0xFF
    m.in1.value = 0x01
    sim.eval_combinational()
    assert m.out == 0
    assert m.cout == 1
    m.cin.value = 1
    sim.eval_combinational()
    assert m.out == 1


def test_subtractor_wraps():
    m = Subtractor(8)
    m.elaborate()
    sim = SimulationTool(m)
    m.in0.value = 0
    m.in1.value = 1
    sim.eval_combinational()
    assert m.out == 0xFF


def test_incrementer():
    m = Incrementer(8, amount=4)
    m.elaborate()
    sim = SimulationTool(m)
    m.in_.value = 10
    sim.eval_combinational()
    assert m.out == 14


def test_comparators():
    eq = EqComparator(8)
    eq.elaborate()
    sim = SimulationTool(eq)
    eq.in0.value = 3
    eq.in1.value = 3
    sim.eval_combinational()
    assert eq.out == 1

    lt = LtComparator(8)
    lt.elaborate()
    sim = SimulationTool(lt)
    lt.in0.value = 3
    lt.in1.value = 200
    sim.eval_combinational()
    assert lt.out == 1


def test_zero_extender():
    m = ZeroExtender(4, 12)
    m.elaborate()
    sim = SimulationTool(m)
    m.in_.value = 0xF
    sim.eval_combinational()
    assert m.out == 0x00F


class _SignExtender(Model):
    def __init__(s, in_nbits, out_nbits):
        s.in_ = InPort(in_nbits)
        s.out = OutPort(out_nbits)

        @s.combinational
        def comb_logic():
            s.out.value = s.in_.value.sext(s.out.nbits)


@pytest.mark.parametrize("build, extend", [
    (ZeroExtender, lambda v: v),
    (_SignExtender, lambda v: v | 0xFF0 if v & 0x8 else v)])
def test_extend_methods_lower_translate_and_specialize(build, extend):
    """``x.zext(n)`` / ``x.sext(n)`` are the ``zext`` / ``sext``
    functions: the block has a body, so the static schedule runs it
    lowered, SimJIT compiles it and the Verilog translator emits it."""
    from repro import SimJITRTL
    from repro.core.translation import TranslationTool

    assert "always @(*)" in TranslationTool(build(4, 12).elaborate()).verilog
    models = [build(4, 12).elaborate() for _ in range(2)]
    models.append(SimJITRTL(build(4, 12).elaborate()).specialize())
    sims = [SimulationTool(models[0], sched="event"),
            SimulationTool(models[1]),
            SimulationTool(models[2].elaborate())]
    info = sims[1].sched_info()
    assert info["lowered"]["kept"] == {} and info["lowered"]["blocks"] == 1
    assert "/simjit " in repr(sims[2])
    for value in range(16):
        for model, sim in zip(models, sims):
            model.in_.value = value
            sim.cycle()
        assert [int(model.out) for model in models] == [extend(value)] * 3


@pytest.mark.parametrize("nstages", [1, 2, 4])
def test_pipelined_multiplier_latency(nstages):
    m = IntPipelinedMultiplier(32, nstages=nstages)
    sim = _sim(m)
    m.op_a.value = 6
    m.op_b.value = 7
    for _ in range(nstages):
        sim.cycle()
    assert m.product == 42


def test_pipelined_multiplier_throughput():
    """One result per cycle once the pipe is full."""
    m = IntPipelinedMultiplier(32, nstages=3)
    sim = _sim(m)
    inputs = [(i, i + 1) for i in range(1, 8)]
    results = []
    for i, (a, b) in enumerate(inputs):
        m.op_a.value = a
        m.op_b.value = b
        sim.cycle()
        if i >= 2:
            results.append(int(m.product))
    for (a, b), got in zip(inputs, results):
        assert got == a * b


def test_multiplier_bad_nstages():
    with pytest.raises(ValueError):
        IntPipelinedMultiplier(32, nstages=0)


# -- queues ---------------------------------------------------------------------


@pytest.mark.parametrize("qtype,nentries", [
    (NormalQueue, 1), (NormalQueue, 2), (NormalQueue, 4),
    (QueueCL, 2), (QueueCL, 4),
])
def test_queue_passes_messages_in_order(qtype, nentries):
    msgs = [i * 3 + 1 for i in range(20)]
    run_src_sink_test(qtype(nentries, 16), 16, msgs, msgs)


@pytest.mark.parametrize("src_iv,sink_iv", [(0, 3), (3, 0), (2, 2)])
def test_queue_tolerates_backpressure(src_iv, sink_iv):
    msgs = list(range(1, 15))
    run_src_sink_test(NormalQueue(2, 16), 16, msgs, msgs,
                      src_interval=src_iv, sink_interval=sink_iv)


def test_bypass_queue_same_cycle():
    msgs = list(range(1, 10))
    cycles_bypass = run_src_sink_test(BypassQueue(16), 16, msgs, msgs)
    cycles_normal = run_src_sink_test(NormalQueue(1, 16), 16, msgs, msgs)
    assert cycles_bypass < cycles_normal


def test_queue_bad_nentries():
    with pytest.raises(ValueError):
        NormalQueue(0, 8)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=0xFFFF),
                min_size=1, max_size=30),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
def test_prop_queue_delivers_everything(msgs, nentries, src_iv, sink_iv):
    """Property: any message list survives any queue depth and any
    src/sink interval combination, in order."""
    run_src_sink_test(NormalQueue(nentries, 16), 16, msgs, msgs,
                      src_interval=src_iv, sink_interval=sink_iv)


# -- arbiter ------------------------------------------------------------------------


def test_arbiter_single_requester():
    m = RoundRobinArbiter(4)
    sim = _sim(m)
    m.reqs.value = 0b0100
    sim.eval_combinational()
    assert m.grants == 0b0100


def test_arbiter_no_requests():
    m = RoundRobinArbiter(4)
    sim = _sim(m)
    m.reqs.value = 0
    sim.eval_combinational()
    assert m.grants == 0


def test_arbiter_is_fair():
    """Under full contention, each requester wins equally often."""
    m = RoundRobinArbiter(4)
    sim = _sim(m)
    wins = [0] * 4
    m.reqs.value = 0b1111
    for _ in range(40):
        sim.cycle()
        g = int(m.grants)
        for i in range(4):
            if (g >> i) & 1:
                wins[i] += 1
    assert wins == [10, 10, 10, 10]


def test_arbiter_grants_are_onehot():
    m = RoundRobinArbiter(8)
    sim = _sim(m)
    for reqs in (0b10101010, 0b11111111, 0b00010000):
        m.reqs.value = reqs
        sim.cycle()
        g = int(m.grants)
        assert g != 0 and (g & (g - 1)) == 0
        assert g & reqs == g
