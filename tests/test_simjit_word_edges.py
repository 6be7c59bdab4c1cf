"""SimJIT nets at the word edges.

A compiled net is one ``uint64_t`` word, or two (low, then high) when
it is wider than 64 bits (``core/simjit/cgen.py``).  The design here is
generated over :data:`WIDTHS` — one lane per width, each a port, a
wire, a flop, a wire written as two slices, and a list of four flops
written and read through a dynamic index — so that every path a net's
words take is crossed at 1, 63, 64, 65, 127 and 128 bits.  The SimJIT
engine must equal ``sched="event"`` every cycle, for random inputs:

- through the Python boundary (``push_inputs``, ``pull_changed``);
- through ``raw_get`` / ``raw_set`` (a ``Probe`` read and write);
- across a checkpoint saved and restored mid-run;
- through a compiled recorder tap and a ``value_is`` watchpoint on the
  65- and 128-bit nets.

A two-word write that stores only the low word is caught.
"""

import random
import re

import pytest

from repro.core import InPort, Model, OutPort, SimulationTool, Wire
from repro.core import bodies
from repro.core.probe import Probe
from repro.core.simjit import SimJITRTL, cgen
from repro.observe import value_is
from repro.resilience import restore_checkpoint, save_checkpoint

WIDTHS = (1, 63, 64, 65, 127, 128)
NCYCLES = 60


class _Lane(Model):
    """One width: ``w`` mixes the port with the flop ``r``, ``cat`` is
    ``r`` rotated by half its width (two slice writes that cross the
    word edge), ``tbl[sel]`` is written and read through ``sel``."""

    def __init__(s, nbits):
        s.in_ = InPort(nbits)
        s.sel = InPort(2)
        s.out = OutPort(nbits)
        s.sum = OutPort(nbits)
        s.w = Wire(nbits)
        s.r = Wire(nbits)
        s.tbl = [Wire(nbits) for _ in range(4)]

        @s.combinational
        def comb():
            s.w.value = s.in_ ^ s.r
            s.sum.value = s.w + s.r
            s.out.value = s.tbl[s.sel]

        @s.tick_rtl
        def seq():
            if s.reset:
                s.r.next = 0
                for i in range(4):
                    s.tbl[i].next = 0
            else:
                s.r.next = s.w - s.in_ + s.tbl[s.sel]
                s.tbl[s.sel].next = s.w

        half = nbits // 2
        if half:
            s.cat = OutPort(nbits)

            @s.combinational
            def rotate():
                s.cat[0:nbits - half].value = s.r[half:nbits]
                s.cat[nbits - half:nbits].value = s.r[0:half]


class WordEdges(Model):
    """The lanes side by side: their ports are the design's."""

    def __init__(s):
        s.sel = InPort(2)
        s.in_ = [InPort(n) for n in WIDTHS]
        s.out = [OutPort(n) for n in WIDTHS]
        s.sum = [OutPort(n) for n in WIDTHS]
        s.cat = [OutPort(n) for n in WIDTHS if n > 1]
        s.lanes = [_Lane(n) for n in WIDTHS]
        for i, lane in enumerate(s.lanes):
            s.connect(s.in_[i], lane.in_)
            s.connect(s.sel, lane.sel)
            s.connect(lane.out, s.out[i])
            s.connect(lane.sum, s.sum[i])
        for port, lane in zip(s.cat, s.lanes[1:]):
            s.connect(lane.cat, port)


def _paths():
    paths = [f"{name}[{i}]" for name in ("out", "sum")
             for i in range(len(WIDTHS))]
    paths += [f"cat[{i}]" for i in range(len(WIDTHS) - 1)]
    for i in range(len(WIDTHS)):
        paths += [f"lanes[{i}].{name}" for name in ("w", "r")]
        paths += [f"lanes[{i}].tbl[{j}]" for j in range(4)]
    return paths


PATHS = _paths()
#: the lanes whose nets are two words
WIDE = [i for i, nbits in enumerate(WIDTHS) if nbits in (65, 128)]


def _columns():
    """``[(model, sim)]``: the event-driven reference, then the SimJIT
    engine of the same design."""
    ref = WordEdges().elaborate()
    jit = SimJITRTL(WordEdges().elaborate()).specialize().elaborate()
    sims = [SimulationTool(ref, sched="event"), SimulationTool(jit)]
    assert "/simjit " in repr(sims[1])
    return list(zip((ref, jit), sims))


def _value(rng, nbits):
    """Corner-biased: zero, all ones, one bit at a word edge, random."""
    edge = [b for b in (0, 62, 63, 64, 126, 127) if b < nbits]
    return rng.choice((0, (1 << nbits) - 1, 1 << rng.choice(edge),
                       rng.getrandbits(nbits), rng.getrandbits(nbits)))


def _stimulus(rng):
    return rng.getrandbits(2), [_value(rng, nbits) for nbits in WIDTHS]


def _drive(columns, stimulus):
    sel, values = stimulus
    for model, _ in columns:
        model.sel.value = sel
        for port, value in zip(model.in_, values):
            port.value = value


def _read(columns):
    """Every probe of every column; the SimJIT column reads its inner
    nets by slot (``raw_get``) and its output ports from Python."""
    return [[int(Probe.resolve(sim, path).read()) for path in PATHS]
            for _, sim in columns]


class Mismatch(AssertionError):
    """The columns differ after ``cycle`` at ``paths``."""

    def __init__(self, cycle, paths):
        super().__init__(f"cycle {cycle}: {paths}")
        self.paths = paths


def _lockstep(columns, seed, ncycles=NCYCLES, writes=False):
    """Reset, then ``ncycles`` of random inputs; both columns agree
    after every cycle.  With ``writes``, every seventh cycle also writes
    a random value into a flop and a table entry of every lane through
    ``Probe.write`` (``raw_set`` on the engine)."""
    rng = random.Random(seed)
    for _, sim in columns:
        sim.reset()
    for cycle in range(ncycles):
        _drive(columns, _stimulus(rng))
        if writes and cycle % 7 == 3:
            for i, nbits in enumerate(WIDTHS):
                for path in (f"lanes[{i}].r", f"lanes[{i}].tbl[{i % 4}]"):
                    value = _value(rng, nbits)
                    for _, sim in columns:
                        Probe.resolve(sim, path).write(sim, value)
        for _, sim in columns:
            sim.cycle()
        ref, jit = _read(columns)
        if jit != ref:
            raise Mismatch(cycle, [
                (path, hex(a), hex(b))
                for path, a, b in zip(PATHS, ref, jit) if a != b])
    return ref


def test_nets_are_one_or_two_words():
    """The layout gives a net one word up to 64 bits and two past it,
    and the flops' words lead ``cur``."""
    _, (jit, sim) = _columns()
    engine = jit.jit_engine
    layout = engine.layout
    for i, nbits in enumerate(WIDTHS):
        r, w = (Probe.resolve(sim, f"lanes[{i}].{name}").address(engine)[1]
                for name in ("r", "w"))
        assert layout.net_width[r] == nbits
        words = 2 if nbits > 64 else 1
        # A flop's offset is below the first non-flop word.
        assert -layout.flop_words <= layout.net_word[r] <= -words
        assert layout.net_word[w] >= 0
    assert layout.flop_words == 5 * sum(2 if n > 64 else 1 for n in WIDTHS)
    assert layout.nbytes == 8 * (layout.nwords + layout.flop_words)


@pytest.mark.parametrize("seed", [1, 2])
def test_ports_and_inner_nets_equal_event(seed):
    """``push_inputs`` / ``pull_changed`` and ``raw_get`` through a
    ``Probe`` read, every cycle."""
    _lockstep(_columns(), seed)


def test_probe_writes_equal_event():
    """``raw_set`` through ``Probe.write`` on flops and table entries,
    wide ones included."""
    _lockstep(_columns(), 3, writes=True)


def test_checkpoint_mid_run_equals_event():
    """A checkpoint taken mid-run and restored replays the same cycles,
    and both columns agree after it."""
    columns = _columns()
    rng = random.Random(4)
    _lockstep(columns, 4, ncycles=20)
    cps = [save_checkpoint(sim) for _, sim in columns]
    stimuli = [_stimulus(rng) for _ in range(20)]
    runs = []
    for _ in range(2):
        run = []
        for stimulus in stimuli:
            _drive(columns, stimulus)
            for _, sim in columns:
                sim.cycle()
            run.append(_read(columns))
        runs.append(run)
        for (_, sim), cp in zip(columns, cps):
            restore_checkpoint(sim, cp)
    assert runs[0] == runs[1]
    for ref, jit in runs[0]:
        assert jit == ref


def test_compiled_taps_on_wide_nets_equal_event():
    """A compiled recorder tap and a compiled ``value_is`` watchpoint on
    the 65- and 128-bit flops see what the event-driven reference's
    Python samplers see.  The watched values are ones the reference's
    flops hold during the run, high words set."""
    rng = random.Random(5)
    batches = [(_stimulus(rng), rng.choice((1, 3, 8))) for _ in range(16)]

    def run(columns, arm):
        armed = [arm(sim) for _, sim in columns]
        for _, sim in columns:
            sim.reset()
        for stimulus, n in batches:
            _drive(columns, stimulus)
            for _, sim in columns:
                sim.run(n)
        return armed

    taps = [f"lanes[{i}].{name}" for i in WIDE for name in ("r", "w")]
    seen = run(_columns(), lambda sim: sim.flight_recorder(
        signals=taps, depth=512))
    windows = [rec.window().to_dict() for rec in seen]
    assert windows[1] == windows[0]
    assert windows[0]["changes"]
    # A value each wide flop holds after some batch, high word set.
    wanted = {}
    for cycle, changes in windows[0]["changes"]:
        for tap, value in changes:
            if taps[tap].endswith(".r") and value >> 64:
                wanted.setdefault(taps[tap], value)
    assert len(wanted) == 2, wanted

    def arm(sim):
        return [sim.watch(value_is(path, value), name=path)
                for path, value in wanted.items()]

    columns = _columns()
    fired = run(columns, arm)
    assert all(wp._cwp is not None for wp in fired[1])
    assert all(wp._cwp is None for wp in fired[0])
    cycles = [[wp.fire_cycles() for wp in wps] for wps in fired]
    assert cycles[1] == cycles[0]
    assert all(cycles[0])


def test_a_low_word_only_write_is_caught(monkeypatch):
    """The seeded mutant: a two-word net write that stores only its low
    word.  The lockstep comparison finds it at a wide net."""
    write = cgen._Template.sig_write

    def low_word_only(self, *args):
        return re.sub(r"\n *_w\[1\] = [^\n]*", "", write(self, *args))

    monkeypatch.setattr(cgen._Template, "sig_write", low_word_only)
    # Bodies print their C once: lower this design's afresh.
    monkeypatch.setattr(bodies, "_bodies", {})
    with pytest.raises(Mismatch) as caught:
        _lockstep(_columns(), 1)
    # Only nets past 64 bits differ: lanes 3, 4 and 5, and the ports
    # they drive.
    wide = [i for i, nbits in enumerate(WIDTHS) if nbits > 64]
    assert {int(re.search(r"\[(\d)\]", path)[1]) + path.startswith("cat")
            for path, _, _ in caught.value.paths} <= set(wide)
