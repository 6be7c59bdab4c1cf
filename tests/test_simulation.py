"""Unit tests for the SimulationTool."""

import gc
import io

import pytest

from repro import (
    InPort,
    Model,
    OutPort,
    SimulationError,
    SimulationTool,
    Wire,
)


class _Counter(Model):
    def __init__(s, nbits=8):
        s.en = InPort(1)
        s.count = OutPort(nbits)

        @s.tick_rtl
        def logic():
            if s.reset:
                s.count.next = 0
            elif s.en:
                s.count.next = s.count + 1


def test_counter_counts():
    model = _Counter().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    assert model.count == 0
    model.en.value = 1
    sim.run(5)
    assert model.count == 5
    model.en.value = 0
    sim.run(3)
    assert model.count == 5


def test_counter_wraps():
    model = _Counter(nbits=2).elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.en.value = 1
    sim.run(5)
    assert model.count == 1


def test_ncycles_tracks():
    model = _Counter().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    sim.run(10)
    assert sim.ncycles == 12     # 2 reset cycles + 10


def test_reset_idiom():
    model = _Counter().elaborate()
    sim = SimulationTool(model)
    model.en.value = 1
    sim.run(3)
    sim.reset()
    assert model.count == 0
    assert model.reset == 0


class _CombChain(Model):
    """Three chained combinational blocks — fixpoint must settle all."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.a = Wire(8)
        s.b = Wire(8)

        @s.combinational
        def one():
            s.a.value = s.in_ + 1

        @s.combinational
        def two():
            s.b.value = s.a + 1

        @s.combinational
        def three():
            s.out.value = s.b + 1


def test_comb_chain_settles():
    model = _CombChain().elaborate()
    sim = SimulationTool(model)
    model.in_.value = 10
    sim.eval_combinational()
    assert model.out == 13
    model.in_.value = 20
    sim.eval_combinational()
    assert model.out == 23


def test_comb_not_reexecuted_when_value_unchanged():
    calls = []

    class Watch(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)

            @s.combinational
            def logic():
                calls.append(1)
                s.out.value = s.in_.value

    model = Watch().elaborate()
    sim = SimulationTool(model)
    sim.eval_combinational()
    baseline = len(calls)
    model.in_.value = 0      # same value: no event
    sim.eval_combinational()
    assert len(calls) == baseline


class _CombLoop(Model):
    """Oscillating combinational loop: a = ~b, b = a."""

    def __init__(s):
        s.a = Wire(1)
        s.b = Wire(1)

        @s.combinational
        def one():
            s.a.value = ~s.b.value

        @s.combinational
        def two():
            s.b.value = s.a.value


def test_comb_loop_detected():
    model = _CombLoop().elaborate()
    with pytest.raises(SimulationError, match="loop"):
        sim = SimulationTool(model)
        sim.eval_combinational()


def test_a_constructor_that_raises_leaves_no_line_trace_file_open(tmp_path):
    path = str(tmp_path / "trace.txt")
    with pytest.raises(SimulationError, match="loop") as failed:
        SimulationTool(_CombLoop().elaborate(), line_trace_sink=path)
    # The traceback still holds the half-built simulator.
    assert failed.tb is not None
    assert [f for f in gc.get_objects() if isinstance(f, io.IOBase)
            and getattr(f, "name", None) == path and not f.closed] == []


class _OverChild(Model):
    """A comb block without a body (no retrievable source) that reads
    its child's output port."""

    def __init__(s):
        s.out = OutPort(8)
        s.child = _Counter()
        s.connect(s.child.en, 1)
        env = {"s": s}
        exec("def plus():\n"
             "    s.out.value = s.child.count.value + 100\n", env)
        s.combinational(env["plus"])


@pytest.mark.parametrize("sched", ["event", "auto"])
def test_block_without_body_sees_its_childs_outputs(sched):
    model = _OverChild().elaborate()
    sim = SimulationTool(model, sched=sched)
    sim.reset()
    seen = []
    for _ in range(4):
        sim.cycle()
        seen.append(int(model.out))
    assert seen == [101, 102, 103, 104]
    if sched == "auto":             # the child's tick is gated
        info = sim.sched_info()
        assert (info["mode"], info["event_blocks"]) == ("static", 1)
        assert info["lowered"]["kept"] == {
            "top.plus": "cannot retrieve source for plus"}


def _plus_one(x):
    """A helper call: a block calling it has no body."""
    return x + 1


class _DefaultThenOverride(Model):
    """A block without a body that writes a default to its own wire,
    then overrides it: it reads what it writes."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.w = Wire(8)

        @s.combinational
        def pick():
            s.w.value = 0
            if s.in_.value > 3:
                s.w.value = _plus_one(s.in_.value)

        @s.combinational
        def drive():
            s.out.value = s.w.value


@pytest.mark.parametrize("sched", ["event", "auto"])
def test_block_without_body_ignores_its_own_writes(sched):
    model = _DefaultThenOverride().elaborate()
    sim = SimulationTool(model, sched=sched)
    assert "top.pick" in sim.sched_info()["lowered"]["kept"] or \
        sched == "event"
    seen = []
    for value in (1, 5, 2, 9):
        model.in_.value = value
        sim.eval_combinational()
        seen.append(int(model.out))
    assert seen == [0, 6, 0, 10]


class _ReadsBackOutput(Model):
    """A block without a body that reads its own output port, driven
    by its model's tick."""

    def __init__(s):
        s.count = OutPort(8)
        s.next_count = OutPort(8)

        @s.tick_rtl
        def up():
            s.count.next = s.count + 1

        @s.combinational
        def ahead():
            s.next_count.value = _plus_one(s.count.value)


@pytest.mark.parametrize("sched", ["event", "auto"])
def test_block_without_body_sees_its_models_outputs(sched):
    model = _ReadsBackOutput().elaborate()
    sim = SimulationTool(model, sched=sched)
    seen = []
    for _ in range(4):
        sim.cycle()
        seen.append((int(model.count), int(model.next_count)))
    assert seen == [(1, 2), (2, 3), (3, 4), (4, 5)]


class _PickByAttribute(Model):
    """Blocks whose bodies fold a model int: an index, and a value."""

    def __init__(s):
        s.in_ = [InPort(8) for _ in range(4)]
        s.out = OutPort(8)
        s.k_out = OutPort(8)
        s.k = 1

        @s.combinational
        def pick():
            s.out.value = s.in_[s.k].value

        @s.combinational
        def show():
            s.k_out.value = s.k


def test_event_closures_follow_a_model_int_changed_after_construction():
    # The closures read ``s.k`` on every run; the event simulator's
    # sensitivity must not be the one element the body folded.
    model = _PickByAttribute().elaborate()
    sim = SimulationTool(model, sched="event")
    for i, port in enumerate(model.in_):
        port.value = 10 + i
    sim.eval_combinational()
    assert (int(model.out), int(model.k_out)) == (11, 1)
    model.k = 2
    model.in_[2].value = 42
    sim.eval_combinational()
    assert (int(model.out), int(model.k_out)) == (42, 2)


class _TwoStage(Model):
    """Two registers back to back: data takes two cycles."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.mid = Wire(8)

        @s.tick_rtl
        def stage1():
            s.mid.next = s.in_.value

        @s.tick_rtl
        def stage2():
            s.out.next = s.mid.value


def test_pipeline_latency_two_cycles():
    model = _TwoStage().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.in_.value = 7
    sim.cycle()
    assert model.out == 0
    sim.cycle()
    assert model.out == 7


def test_tick_sees_pre_edge_values():
    """Both stages read old state: classic shift-register semantics,
    independent of tick execution order."""
    model = _TwoStage().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.in_.value = 1
    sim.cycle()
    model.in_.value = 2
    sim.cycle()
    assert model.mid == 2
    assert model.out == 1


class _RegCombReg(Model):
    """reg -> comb -> reg: comb must re-settle after the flop."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.r1 = Wire(8)
        s.doubled = Wire(8)

        @s.tick_rtl
        def front():
            s.r1.next = s.in_.value

        @s.combinational
        def double():
            s.doubled.value = s.r1 + s.r1

        @s.tick_rtl
        def back():
            s.out.next = s.doubled.value


def test_comb_between_registers():
    model = _RegCombReg().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.in_.value = 5
    sim.cycle()      # r1 <- 5, doubled settles to 10
    sim.cycle()      # out <- 10
    assert model.out == 10


def test_line_trace_runs(capsys):
    class Traced(Model):
        def __init__(s):
            s.out = OutPort(4)

            @s.tick_rtl
            def logic():
                s.out.next = s.out + 1

        def line_trace(s):
            return f"out={int(s.out)}"

    model = Traced().elaborate()
    sim = SimulationTool(model, line_trace=True)
    sim.cycle()
    captured = capsys.readouterr()
    assert "out=" in captured.out
