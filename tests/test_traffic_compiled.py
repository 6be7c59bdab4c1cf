"""The compiled test bench (DESIGN 4, "Compiled test bench").

On a SimJIT top ``NetworkTrafficHarness.run_uniform_random`` is one C
loop inside the engine (``tb_uniform``) that draws from a tape of the
harness's own Mersenne-Twister words.  Everything Python can see
afterwards — the statistics, ``rng``, ``seqnum``, ``sim.ncycles``,
every port — must be what the per-cycle Python loop leaves, for any
run and not only for the designs someone thought of; and whenever
something in Python has to see every cycle, the Python loop must be
the one that runs, and say why.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import SimulationTool
from repro.core import Model
from repro.core.ast_ir import TranslationError
from repro.core.portbundle import InValRdyBundle, OutValRdyBundle
from repro.core.simjit import SimJITCL, SimJITRTL, specializer
from repro.net import MeshNetworkStructural, RouterCL, RouterRTL, traffic
from repro.net.msgs import NetMsg
from repro.net.traffic import NetworkTrafficHarness
from repro.resilience.warnings import ResilienceWarning
from repro.tools import VCDWriter

# Tier-1 replays one pinned corpus; CI's verif-fuzz job selects the
# "fuzz" profile (tests/conftest.py) for fresh draws and more of them.
# No shrinking: an example is small as drawn (at most mesh16 for 150
# cycles) and is printed with its arguments, while every shrink attempt
# builds two more engines and keeps the failed attempt's frames.
_FUZZ = settings.get_profile("fuzz")
_SETTINGS = settings(
    _FUZZ if settings.default is _FUZZ else settings(
        derandomize=True, deadline=None, max_examples=20),
    phases=(Phase.explicit, Phase.reuse, Phase.generate))

_SPECIALIZERS = {RouterRTL: SimJITRTL, RouterCL: SimJITCL}

# ``tb_uniform``'s return codes, from the runtime's declarations (which
# needs no runtime built).
TB_WORDS, TB_FULL = map(specializer._interface().integer_const,
                        ("TB_WORDS", "TB_FULL"))


def _harness(router=RouterRTL, nrouters=4, seed=1, data_nbits=32, **sim_args):
    """A harness over a fresh single-engine SimJIT mesh."""
    mesh = MeshNetworkStructural(router, nrouters, 256, data_nbits, 2)
    top = _SPECIALIZERS[router](mesh.elaborate()).specialize().elaborate()
    sim = SimulationTool(top, **sim_args)
    assert "/simjit " in repr(sim), repr(sim)
    return NetworkTrafficHarness(top, sim=sim, seed=seed)


def _on_python_loop(harness):
    """Keep ``harness`` on the per-cycle loop the documented way: an
    instance-level ``sim.cycle``."""
    harness.sim.cycle = harness.sim.cycle
    return harness


@contextmanager
def _cycle_calls():
    """``{sim: calls of SimulationTool.cycle}`` while the block runs,
    counted on the class so that no simulator's ``cycle`` is wrapped."""
    calls = {}
    inner = SimulationTool.cycle

    def counted(self, _n=1):
        calls[self] = calls.get(self, 0) + 1
        return inner(self, _n)

    with mock.patch.object(SimulationTool, "cycle", counted):
        yield calls


def _visible(harness, stats=None):
    """Everything a test bench can read back after a run."""
    seen = {
        "rng": harness.rng.getstate(),
        "seqnum": harness.seqnum,
        "ncycles": harness.sim.ncycles,
        "ports": [int(port) for port in harness.net.get_ports()],
    }
    if stats is not None:
        seen.update(injected=stats.injected, ejected=stats.ejected,
                    latencies=list(stats.latencies),
                    stats_ncycles=stats.ncycles)
    return seen


def _assert_same(got, want, what=""):
    """``got == want`` for two ``_visible`` dicts, failing with the
    first key that differs (pytest's own diff of two 625-word generator
    states or two latency lists takes minutes and a gigabyte)."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if got[key] != value:
            pytest.fail(f"{what}: {key} differs: "
                        f"{str(got[key])[:200]} != {str(value)[:200]}")


# -- equality, by construction --------------------------------------------


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1),
       rate=st.floats(0.02, 0.98),
       ncycles=st.integers(0, 150),
       warmup=st.integers(0, 160),
       drain=st.integers(0, 300),
       router=st.sampled_from([RouterRTL, RouterCL]),
       nrouters=st.sampled_from([4, 16]),
       tape_words=st.sampled_from([2, 3, 61, 1 << 13]),
       latency_slots=st.sampled_from([1, 7, 1 << 12]))
def test_compiled_run_is_the_python_run(seed, rate, ncycles, warmup, drain,
                                        router, nrouters, tape_words,
                                        latency_slots):
    compiled = _harness(router, nrouters, seed)
    compiled.TAPE_WORDS, compiled.LATENCY_SLOTS = tape_words, latency_slots
    python = _on_python_loop(_harness(router, nrouters, seed))
    with _cycle_calls() as calls:
        for run in ((rate, ncycles, warmup, drain),
                    (1.0 - rate, 40, 5, 60)):
            got = compiled.run_uniform_random(*run)
            want = python.run_uniform_random(*run)
            assert (got.driver, got.refused) == ("compiled", None)
            assert want.driver == "python"
            assert "wrapped" in want.refused
            _assert_same(_visible(compiled, got), _visible(python, want), run)
        compiled.sim.run(20)
        python.sim.run(20)
        _assert_same(_visible(compiled), _visible(python), "after run(20)")
    # Two resets of two cycles and the run(20): the compiled bench made
    # no other call, the Python loop one per cycle.
    assert calls[compiled.sim] == 5
    assert calls.get(python.sim, 0) == 0        # its cycle is the instance's
    assert compiled.sim.ncycles == python.sim.ncycles >= 4 + 20 + 40


def test_refill_and_drain_at_every_draw():
    """A 3-word tape and a 1-entry latency buffer suspend the C loop
    at every draw and every measured ejection; the run is the one a
    single big chunk gives, and the Python loop's."""
    run = (0.5, 60, 10, 200)
    big = _harness(seed=5)
    small = _harness(seed=5)
    small.TAPE_WORDS, small.LATENCY_SLOTS = 3, 1
    python = _on_python_loop(_harness(seed=5))
    resumes = []
    inner = small.sim.model.jit_engine.tb_uniform
    small.sim.model.jit_engine.tb_uniform = (
        lambda tb: resumes.append(inner(tb)) or resumes[-1])
    want = python.run_uniform_random(*run)
    for harness in (big, small):
        got = harness.run_uniform_random(*run)
        assert got.driver == "compiled"
        _assert_same(_visible(harness, got), _visible(python, want),
                     harness.TAPE_WORDS)
    assert want.injected > 50 and len(want.latencies) > 40
    assert resumes.count(TB_WORDS) > want.injected
    # (every return empties the latency buffer, the tape's included)
    assert resumes.count(TB_FULL) > 20


def test_rates_zero_and_one_and_empty_runs():
    """The ends of ``random() < rate``, a run with no cycles, and a
    warm-up longer than the run (nothing measured)."""
    for run in ((0, 30, 0, 10), (1, 30, 0, 50), (0.5, 0, 0, 0),
                (0.5, -3, 0, -1), (0.7, 40, 100, 300)):
        compiled = _harness(seed=9)
        python = _on_python_loop(_harness(seed=9))
        got = compiled.run_uniform_random(*run)
        want = python.run_uniform_random(*run)
        assert got.driver == "compiled"
        _assert_same(_visible(compiled, got), _visible(python, want), run)


def test_rate_on_a_drawn_value():
    """``random() < rate`` to the last bit: a rate equal to the first
    value drawn does not inject, one ulp more does (a recipe that kept
    one bit too many or too few of either word lands on the other side
    of one of the two)."""
    drawn = random.Random(9).random()
    injected = []
    for rate in (drawn, drawn + 2.0 ** -53):
        compiled = _harness(seed=9)
        python = _on_python_loop(_harness(seed=9))
        got = compiled.run_uniform_random(rate, 1, 0, 0)
        want = python.run_uniform_random(rate, 1, 0, 0)
        assert got.driver == "compiled"
        _assert_same(_visible(compiled, got), _visible(python, want), rate)
        injected.append(python.net.in_[0].val == 1)
    assert injected == [False, True]


# -- one runtime for every design -----------------------------------------


def test_two_designs_compile_one_runtime(gcc_runs):
    """``tb_uniform`` is the SimJIT runtime's, not the design's: two
    distinct meshes that both run it are three gcc runs on an empty
    cache (each design, and the runtime once), and a new process on the
    warm cache makes none."""
    for _ in range(2):
        for router in (RouterRTL, RouterCL):
            stats = _harness(router).run_uniform_random(0.3, 30)
            assert (stats.driver, stats.ejected > 0) == ("compiled", True)
        assert sorted(gcc_runs) == ["design", "design", "runtime"]
        specializer._runtime.cache_clear()      # as a new process would


# -- refusals: the Python loop runs, and says why -------------------------


def _refused(harness, reason, run=(0.4, 40, 5, 100)):
    """Run a fresh ``harness``: the per-cycle loop must have run (one
    ``cycle`` call per simulated cycle), named ``reason``, and produced
    what a compiled twin produces."""
    with _cycle_calls() as calls:
        stats = harness.run_uniform_random(*run)
    assert stats.driver == "python"
    assert reason in stats.refused, stats.refused
    assert calls[harness.sim] == harness.sim.ncycles >= 2 + run[1]
    twin = _harness()
    got = twin.run_uniform_random(*run)
    assert got.driver == "compiled"
    _assert_same(_visible(twin, got), _visible(harness, stats), reason)
    return stats


def test_refusal_interpreted_simulator():
    mesh = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    _refused(NetworkTrafficHarness(mesh, seed=1), "steps in Python")


def test_refusal_line_trace(capsys):
    _refused(_harness(line_trace=True), "per-cycle sampler")
    assert capsys.readouterr().out.count("[jit:") >= 40


def test_refusal_vcd(tmp_path):
    harness = _harness(vcd=VCDWriter(str(tmp_path / "mesh.vcd")))
    _refused(harness, "per-cycle sampler")
    harness.sim.close()


def test_refusal_cycle_hook():
    harness = _harness()
    stamps = []
    harness.sim.add_cycle_hook(stamps.append)
    _refused(harness, "steps in Python")
    assert stamps == list(range(harness.sim.ncycles))


def test_refusal_armed_compiled_recorder():
    harness = _harness()
    recorder = harness.sim.flight_recorder(["in_[0].val"], depth=16)
    assert recorder._cidx is not None       # compiled into the kernel
    _refused(harness, "compiled instrumentation is armed")
    assert recorder.window_cycles == 16


def test_refusal_random_subclass():
    class Counting(random.Random):
        """Draws what ``random.Random`` draws, and counts: only the
        Python loop makes the calls."""
        draws = 0

        def random(self):
            self.draws += 1
            return super().random()

        def getrandbits(self, k):
            self.draws += 1
            return super().getrandbits(k)

    harness = _harness()
    harness.rng = Counting(1)
    stats = _refused(harness, "Counting")
    assert harness.rng.draws > 4 * 40 + stats.injected


class _Pipes(Model):
    """A network of one-entry pipes: terminal ``i``'s packets leave at
    ``out[i]`` a cycle after they enter, whatever their destination.
    A message is only ever in nets (the register copies it port to
    port), so SimJIT runs it at any width."""

    def __init__(s, nterminals, data_nbits):
        s.msg_type = NetMsg(nterminals, 256, data_nbits)
        s.in_ = InValRdyBundle[nterminals](s.msg_type)
        s.out = OutValRdyBundle[nterminals](s.msg_type)
        for i in range(nterminals):
            s.connect(s.in_[i].rdy, s.out[i].rdy)

        @s.tick_rtl
        def pipes():
            for i in range(nterminals):
                s.out[i].msg.next = s.in_[i].msg
                s.out[i].val.next = s.in_[i].val & s.in_[i].rdy


def _pipes_harness(data_nbits):
    top = SimJITRTL(_Pipes(4, data_nbits).elaborate()).specialize()
    return NetworkTrafficHarness(top.elaborate(), seed=1)


def test_refusal_message_wider_than_a_word():
    """A message wider than the bench's word keeps the Python loop, and
    the widest that fits runs compiled.  The library's routers hold a
    message in a C ``int64_t`` (``RouterRTL`` in a local, ``RouterCL``
    in its CL state), which SimJIT refuses at 64 bits or more, so the
    design here is a test-local network whose messages stay in nets."""
    for data_nbits in (52, 58):
        with pytest.raises(TranslationError,
                           match="local 'msg' may hold 64 bits"):
            _harness(data_nbits=data_nbits)
        with pytest.raises(TranslationError,
                           match="CL state 'buf_data' may be given 64 bits"):
            _harness(RouterCL, data_nbits=data_nbits)
    harness = _pipes_harness(58)
    assert harness.msg_type.nbits == 70
    stats = harness.run_uniform_random(0.4, 40, 5, 100)
    assert stats.driver == "python"
    assert "70-bit" in stats.refused
    # ... and the widest message that fits runs compiled.
    widest = _pipes_harness(52)
    assert widest.msg_type.nbits == 64
    got = widest.run_uniform_random(0.4, 40, 5, 100)
    assert got.driver == "compiled"
    python = _on_python_loop(_pipes_harness(52))
    want = python.run_uniform_random(0.4, 40, 5, 100)
    assert want.driver == "python" and want.ejected > 0
    _assert_same(_visible(widest, got), _visible(python, want), "64-bit")


# -- the recipe self-check -------------------------------------------------


def test_recipe_holds_on_this_interpreter():
    assert traffic._check_recipe()


def test_recipe_mismatch_warns_once_and_runs_python():
    harness = _harness()
    traffic._recipe_refusal.cache_clear()
    try:
        with mock.patch.object(traffic, "_check_recipe", lambda: False), \
                pytest.warns(ResilienceWarning) as caught:
            first = harness.run_uniform_random(0.4, 40, 5, 100)
            second = harness.run_uniform_random(0.4, 40, 5, 100)
    finally:
        traffic._recipe_refusal.cache_clear()
    assert [w.message.kind for w in caught] == ["simjit-fallback"]
    assert first.driver == second.driver == "python"
    assert "does not draw" in first.refused
    twin = _harness()
    assert twin.run_uniform_random(0.4, 40, 5, 100) == first
    got = twin.run_uniform_random(0.4, 40, 5, 100)
    assert got.driver == "compiled"
    _assert_same(_visible(twin, got), _visible(harness, second), "twin")
