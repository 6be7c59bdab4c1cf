"""SimJIT's input settle: before an edge, only the comb blocks the
changed input ports reach run (DESIGN 1.2, "Settle").

The property that makes skipping the rest sound is that the state the
input settle leaves is a settled state: a settle from scratch — every
comb block, in schedule order — changes none of its bytes.  Each test
below checks exactly that after every step, on a *twin* engine of the
same design: ``restore_raw`` copies the original's instance state into
it (``load_inst`` forgets that it was settled), and ``eval_comb`` then
settles everything.  The designs: generated ones, a mesh under the
compiled traffic bench, a whole tile of embedded engines, and a mesh
written through ``Probe.write`` and rolled back by a checkpoint, the
last compared against the event-driven interpreter as well.
"""

import random

import pytest
from hypothesis import given

from repro import SimulationTool
from repro.accel import Tile, mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.components import Register
from repro.core.probe import Probe
from repro.core.simjit import SimJITRTL
from repro.net.traffic import NetworkTrafficHarness
from repro.proc import assemble
from repro.telemetry import tracing
from tests.test_generated_blocks import _SETTINGS, NCYCLES, designs
from tests.test_scheduling import load_generated
from tests.test_simjit_step import (_CombCycle, _drive_terminals,
                                   _jit_top, _mesh, _outputs,
                                   _ReversedChain)


def _engines(model):
    return [m.jit_engine for m in model._all_models
            if hasattr(m, "jit_engine")]


def _settled_from_scratch(engine, twin):
    """``engine``'s state is what a settle from scratch leaves."""
    blob = engine.snapshot_raw()
    twin.restore_raw(blob)
    assert twin.lib.eval_comb(twin.inst) >= 0
    assert twin.snapshot_raw() == blob


# -- what a run reports ------------------------------------------------------


def test_mesh16_input_settle_is_one_switch_per_output_port():
    """Only an output port's ``rdy`` reaches a comb block, the
    ``switch_logic`` of its router: 16 blocks of 208, one per port."""
    tracer = tracing.arm()
    try:
        top = _jit_top(_mesh(16))
    finally:
        tracing.disarm()
    info = SimulationTool(top).sched_info()["simjit"]
    engine, = info["engines"]
    for entry in (info, engine):
        assert (entry["input_blocks"], entry["input_cone_max"]) == (16, 1)
    span, = [e for e in tracer.events if e["name"] == "simjit.compile"]
    assert (span["args"]["input_blocks"],
            span["args"]["input_cone_max"]) == (16, 1)


@pytest.mark.parametrize("factory,kwargs,reach", [
    (_CombCycle, {}, (3, 3)),
    (_ReversedChain, {}, (3, 3)),
    (_ReversedChain, {"schedule": False}, (3, 3)),
    (Register, {}, (0, 0)),
], ids=["fixpoint", "chain", "unscheduled", "no-comb"])
def test_what_each_input_reaches(factory, kwargs, reach):
    """A chain is reached whole, a fixpoint settles all or nothing,
    and a port that only a tick reads reaches no comb block."""
    def build():
        model = factory(8) if factory is Register else factory()
        return SimJITRTL(model.elaborate(), **kwargs).specialize()
    top, twin = build().elaborate(), build().jit_engine
    info = top.jit_engine.kernel_info
    assert (info["input_blocks"], info["input_cone_max"]) == reach
    sim = SimulationTool(top)
    sim.reset()
    for value in (3, 3, 200, 17, 17, 0):
        top.in_.value = value
        top.jit_engine.eval_comb()
        _settled_from_scratch(top.jit_engine, twin)
        sim.cycle()
        _settled_from_scratch(top.jit_engine, twin)


# -- a settle from scratch changes nothing -----------------------------------


@_SETTINGS
@given(designs())
def test_generated_design_input_settle_is_a_settled_state(design):
    """Each cycle changes some inputs (or none); the input settle, and
    then the cycle, leave states a full settle does not change."""
    build = load_generated(design.source)["Gen"]
    top = _jit_top(build(design.ka).elaborate())
    engine = top.jit_engine
    twin = _jit_top(build(design.ka).elaborate()).jit_engine
    sim = SimulationTool(top)
    sim.reset()
    rng = random.Random(design.seed)
    for _ in range(NCYCLES):
        for name, width in design.inputs.items():
            if rng.random() < 0.6:
                getattr(top, name).value = rng.getrandbits(width)
        engine.eval_comb()
        _settled_from_scratch(engine, twin)
        sim.cycle()
        _settled_from_scratch(engine, twin)


def test_compiled_traffic_in_chunks_leaves_a_settled_state():
    top = _jit_top(_mesh(16))
    twin = _jit_top(_mesh(16)).jit_engine
    ref = _mesh(16)
    benches = [NetworkTrafficHarness(top, seed=9),
               NetworkTrafficHarness(
                   ref, sim=SimulationTool(ref, sched="event"), seed=9)]
    for rate, ncycles in ((0.3, 40), (0.05, 25), (0.6, 60)):
        runs = [bench.run_uniform_random(rate, ncycles, drain=30)
                for bench in benches]
        assert runs[0].driver == "compiled"
        assert [(run.injected, run.ejected, run.latencies)
                for run in runs[1:]] == [
                    (runs[0].injected, runs[0].ejected, runs[0].latencies)]
        _settled_from_scratch(top.jit_engine, twin)


def test_tile_engines_are_settled_after_every_cycle():
    rows, cols = 2, 4
    words = assemble(mvmult_xcel(rows, cols))
    data, expected = mvmult_data(rows, cols)
    levels = ("rtl", "rtl", "rtl")
    tile = Tile(levels, jit=True).elaborate()
    twins = _engines(Tile(levels, jit=True).elaborate())
    engines = _engines(tile)
    assert len(engines) == len(twins) == 5
    tile.mem.load(0, words)
    for addr, value in data.items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile)
    sim.reset()
    while not int(tile.proc.done):
        sim.cycle()
        for engine, twin in zip(engines, twins):
            _settled_from_scratch(engine, twin)
        assert sim.ncycles < 20_000
    assert [tile.mem.read_word(Y_BASE + 4 * i)
            for i in range(rows)] == expected


def test_probe_write_and_checkpoint_restore_match_the_interpreter():
    """A ``Probe.write`` into compiled nets is propagated by the next
    cycle's leading settle, and a restored checkpoint settles from
    scratch: both runs stay equal to ``sched="event"``."""
    top, ref = _jit_top(_mesh(16)), _mesh(16)
    twin = _jit_top(_mesh(16)).jit_engine
    sims = [SimulationTool(top), SimulationTool(ref, sched="event")]
    engine = top.jit_engine
    models = [top, ref]
    rnd = random.Random(21)

    def run(ncycles):
        seen = []
        for _ in range(ncycles):
            _drive_terminals(models, rnd)
            for sim in sims:
                sim.cycle()
            _settled_from_scratch(engine, twin)
            outs = [_outputs(model) for model in models]
            assert outs[0] == outs[1], sims[0].ncycles
            seen.append(outs[0])
        return seen

    for sim in sims:
        sim.reset()
    run(30)
    # Flop nets the switches read: priorities and held grants.
    for router in (0, 5, 10, 15):
        for port in range(5):
            for path, value in ((f"routers[{router}].priority[{port}]",
                                 (router + port) % 5),
                                (f"routers[{router}].hold_val[{port}]", 0)):
                for sim in sims:
                    Probe.resolve(sim, path).write(sim, value)
        # No input changed: only a settle of everything propagates
        # the writes.
        engine.eval_comb()
        _settled_from_scratch(engine, twin)
        run(2)
    saved = [sim.save_checkpoint() for sim in sims]
    state = rnd.getstate()
    tail = run(25)
    for sim, checkpoint in zip(sims, saved):
        sim.restore_checkpoint(checkpoint)
    _settled_from_scratch(engine, twin)
    rnd.setstate(state)
    assert run(25) == tail
