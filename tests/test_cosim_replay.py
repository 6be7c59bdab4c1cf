"""Line traces by replay, and the online diff's one look per transfer.

No DUT renders a line trace while a co-simulation runs: on an online
mismatch the harness restores each DUT from the checkpoint it saved
before the run's reset, arms its ``trace_depth`` ring and drives it
again to the cycle the mismatch was caught on (``verif/cosim.py``).
These tests hold the replay to what an eagerly armed ring reports and
to the state an eager run leaves behind, on a mesh DUT set (event,
static, SimJIT) and a cache DUT set; check that a DUT whose checkpoint
is refused (a tile with a blocking FL accelerator) still reports its
traces; and that a replay which does not reproduce says so.
"""

import random

from repro import SimulationTool
from repro.proc import assemble
from repro.verif import RNG, CoSimHarness, CoSimMismatch, backpressure_pattern
from repro.verif.duts import (
    make_mesh_dut,
    make_tile_dut,
    random_minrisc_program,
)
from tests.test_diff_cache import _make_buggy_pair, _requests
from tests.test_diff_mesh import _messages

_BACKPRESSURE = backpressure_pattern("random", p=0.5, seed=11)


def _mesh_set():
    """Event, static and SimJIT meshes; the SimJIT one has three-deep
    queues, which reorders ``out0`` (a seeded divergence)."""
    return CoSimHarness([
        make_mesh_dut("event", sched="event"),
        make_mesh_dut("static", sched="static"),
        make_mesh_dut("jit", jit=True, nentries=3)])


def _mesh_run(harness):
    return harness.run(_messages(3), backpressure=_BACKPRESSURE)


def _cache_run(harness):
    return harness.run(_requests(7, n=40), max_cycles=20_000)


def _eager(harness):
    """The same harness with every DUT's ring armed before its first
    cycle (``log_traces(8)``), as the harness kept it before the
    replay."""
    for dut in harness.duts:
        dut.sim = SimulationTool(dut.model, sched=dut.sim._sched_requested)
        dut.sim.log_traces(8)
    return harness


def _mismatch(harness, run):
    try:
        run(harness)
    except CoSimMismatch as exc:
        return exc
    raise AssertionError("the seeded divergence was not caught")


def _state(harness):
    return [(d.sim.ncycles, [net._value for net in d.model._all_nets])
            for d in harness.duts]


def _check_replay_matches_eager(make, run):
    replayed = make()
    exc = _mismatch(replayed, run)
    eager = _eager(make())
    want = _mismatch(eager, run)
    assert (exc.ref, exc.dut, exc.channel, exc.index, exc.expected,
            exc.actual, exc.cycle) == (
        want.ref, want.dut, want.channel, want.index, want.expected,
        want.actual, want.cycle)
    assert exc.traces == want.traces
    assert all(len(log) == 8 for log in exc.traces.values())
    assert str(exc) == str(want)
    assert "did not reproduce" not in str(exc)
    assert _state(replayed) == _state(eager)
    # The rings the replay armed are disarmed again.
    assert all(d.sim.trace_log is None for d in replayed.duts)
    return exc


def test_replay_traces_match_an_eager_ring_on_a_mesh_set():
    exc = _check_replay_matches_eager(_mesh_set, _mesh_run)
    assert exc.dut == "jit" and exc.channel == "out0"


def test_replay_traces_match_an_eager_ring_on_a_cache_set():
    exc = _check_replay_matches_eager(_make_buggy_pair, _cache_run)
    assert exc.dut == "buggy" and exc.channel == "resp"


def test_a_dut_refusing_checkpoints_keeps_an_eager_ring():
    """A tile with an FL accelerator runs it on a worker thread, which
    a checkpoint cannot hold: its ring is armed for the whole run, and
    the checkpointed RTL tile is replayed beside it."""
    rng = RNG(4).fork("tile-prog")
    words = assemble(random_minrisc_program(rng, length=40,
                                            store_frac=0.45))
    harness = CoSimHarness(
        [make_tile_dut("rtl", ("rtl", "rtl", "rtl"), words),
         make_tile_dut("fl-accel", ("cl", "cl", "fl"), words)],
        compare="cycle_exact")
    exc = _mismatch(harness, lambda h: h.run({}, max_cycles=100_000))
    assert exc.channel == "stores"
    assert "did not reproduce" not in str(exc)
    for name, log in exc.traces.items():
        assert len(log) == 8, name
        assert "last cycles of " + name in str(exc)


def test_an_observed_dut_sees_each_cycle_once():
    """A DUT whose sim has a post-edge sampler (here a line-trace sink)
    is not driven again: the sampler sees every cycle once, and the
    DUT's ring is armed for the run instead."""
    harness = _make_buggy_pair()
    good = harness.duts[0]
    lines = []
    good.sim = SimulationTool(good.model, line_trace_sink=lines.append)
    exc = _mismatch(harness, _cache_run)
    assert "did not reproduce" not in str(exc)
    cycles = [int(line.split(":")[0]) for line in lines]
    assert cycles == sorted(set(cycles)) and cycles[-1] == 63
    assert exc.traces["good"] == [
        (c, line.split(": ", 1)[1]) for c, line in zip(cycles, lines)][-8:]


def _corrupting_hook(harness, track):
    """A hook on the static mesh that flips bit 0 of an input payload
    the coming edge latches, drawn from its own RNG."""
    dut = harness.duts[1]
    rng = random.Random(7)
    if track:
        dut.sim.track_rng(rng)

    def corrupt(cycle):
        if rng.random() < 0.1:
            port = dut.model.in_[rng.randrange(4)]
            port.msg.value = int(port.msg) ^ 1

    dut.sim.add_cycle_hook(corrupt)


def test_a_replay_that_does_not_reproduce_says_so():
    """An RNG the checkpoint does not track goes on drawing in the
    replay, which then diverges elsewhere: the message must say that
    the traces are not of the reported divergence."""
    harness = CoSimHarness([make_mesh_dut("event", sched="event"),
                            make_mesh_dut("static", sched="static")])
    _corrupting_hook(harness, track=False)
    exc = _mismatch(harness, _mesh_run)
    assert exc.dut == "static"
    assert "the replay did not reproduce this divergence" in str(exc)


def test_a_tracked_hook_rng_replays_the_same_divergence():
    harness = CoSimHarness([make_mesh_dut("event", sched="event"),
                            make_mesh_dut("static", sched="static")])
    _corrupting_hook(harness, track=True)
    exc = _mismatch(harness, _mesh_run)
    assert exc.dut == "static"
    assert "did not reproduce" not in str(exc)
    assert all(len(log) == 8 for log in exc.traces.values())


# -- the online diff ------------------------------------------------------


def _counting(harness):
    seen = []
    compare = harness._compare_item

    def counted(ref, st, channel, index, want, got):
        seen.append((st.adapter.name, channel, index))
        return compare(ref, st, channel, index, want, got)

    harness._compare_item = counted
    return seen


def test_online_diff_compares_each_transfer_once():
    """Each transfer index is diffed once, and a clean run renders no
    line trace."""
    harness = CoSimHarness([make_mesh_dut("event", sched="event"),
                            make_mesh_dut("static", sched="static"),
                            make_mesh_dut("jit", jit=True)])
    seen = _counting(harness)
    traced = []
    for dut in harness.duts:
        dut.model.line_trace = lambda: traced.append(1) or ""
    res = harness.run(_messages(5, per_port=40),
                      backpressure=_BACKPRESSURE)
    assert not traced
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(
        (name, channel, i) for name in ("static", "jit")
        for channel, transfers in res.transfers[name].items()
        for i in range(len(transfers)))


def test_seeded_bugs_are_caught_where_they_were():
    """The harness cycle and transfer index of two seeded divergences,
    pinned from the harness that re-compared its last four transfers
    of every channel on every cycle."""
    mesh = _mismatch(_mesh_set(), _mesh_run)
    assert (mesh.dut, mesh.channel, mesh.index, mesh.cycle) == (
        "jit", "out0", 3, 12)
    assert (mesh.expected, mesh.actual) == ((12, 60832641), (9, 480014))
    harness = _make_buggy_pair()
    cache = _mismatch(harness, _cache_run)
    assert (cache.dut, cache.channel, cache.index, cache.cycle) == (
        "buggy", "resp", 7, 60)
    assert (cache.expected, cache.actual) == ((60, 0), (60, 1))
    # Two reset cycles, then cycles 0..60 on each DUT.
    assert [d.sim.ncycles for d in harness.duts] == [63, 63]
