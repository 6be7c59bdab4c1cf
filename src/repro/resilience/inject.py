"""Fault injectors: SEU bit-flips, stuck-at faults, lossy links.

Injectors are installed *post-elaboration* on a running
:class:`~repro.core.simulation.SimulationTool` and address their
targets by dotted path from the top model, e.g.::

    seu = SEUInjector("routers[3].credit", p=0.01, seed=7).install(sim)
    sticky = StuckAtFault("mesh.links[0].val", bit=0, value=0,
                          from_cycle=100, until=200).install(sim)

Design rules that make injected faults *reproducible and portable*
across every execution substrate (event, static, mega-cycle kernel,
SimJIT):

- Every fire/no-fire decision is a **pure function of the cycle
  index** (the crc32-mix idiom of
  :func:`repro.verif.strategies.backpressure_pattern`), never of
  stateful RNG draws, so two simulators of the same design see the
  same fault on the same cycle regardless of how their internals
  interleave.
- Injectors run as cycle hooks — after the pre-edge settle, before
  tick blocks — so sequential logic reads the faulted value exactly
  once, and the registered simulator falls back from the compiled
  kernel to the interpreted cycle path automatically (hooks force
  that), keeping semantics identical.
- Targets are :class:`~repro.core.probe.Probe` specs: the dotted path
  is resolved *through* any :class:`JITModel` wrapper into the original
  model, and the probe reads and writes wherever the value lives — a
  Python net, a compiled net, compiled CL state or a plain attribute
  (DESIGN.md §4, "Addressing").
- Faults are substrate-portable only on **sequential** state
  (registers written via ``.next``, CL state attributes).  A flip on a
  combinationally-driven wire is re-derived from its inputs at the
  next settle, and *when* that settle happens differs between the
  interpreted cycle (ticks read the flip; no re-settle until after the
  edge) and the compiled cycle (``cycle()`` begins with ``eval_comb``,
  erasing the flip).  Target flops, not wires.
"""

from __future__ import annotations

import zlib

from ..core.probe import Probe, resolve_path
from ..core.signals import Signal

__all__ = [
    "SEUInjector",
    "StuckAtFault",
    "LinkFaultInjector",
    "fault_schedule",
    "resolve_path",
]


def _derive_seed(seed, label):
    """Stable integer seed from an int or a ``verif.strategies.RNG``.

    Accepting an RNG keeps injector seeding on the same fork tree as
    the stimulus generators: ``seed=rng`` derives an independent
    substream per (rng, label) without consuming any draws."""
    if hasattr(seed, "fork"):                 # verif.strategies.RNG
        return seed.fork(f"inject:{label}")._seed & 0xFFFFFFFF
    return int(seed) & 0xFFFFFFFF


def fault_schedule(p, seed=0, burst=1):
    """Return ``f(cycle) -> bool`` firing with probability ``p``.

    Pure function of the cycle index (crc32 mix — the
    ``backpressure_pattern`` idiom), so the same seed produces the
    same schedule on every substrate.  ``burst > 1`` makes decisions
    per ``burst``-cycle window (consecutive fault cycles), modeling
    stall bursts and multi-cycle glitches."""
    p = float(p)
    burst = max(1, int(burst))
    seed = int(seed) & 0xFFFFFFFF

    def fire(cycle):
        window = cycle // burst
        mix = zlib.crc32(f"{seed}:{window}".encode()) & 0xFFFFFFFF
        return (mix / 0xFFFFFFFF) < p

    return fire


def _cycle_mix(seed, cycle, salt):
    """Deterministic 32-bit mix for per-cycle value choices (which bit
    to flip, which mask to apply)."""
    return zlib.crc32(f"{seed}:{salt}:{cycle}".encode()) & 0xFFFFFFFF


class _Injector:
    """Shared install/bookkeeping for all injectors."""

    def __init__(self):
        self.sim = None
        self.n_fires = 0
        self.log = []                 # [(cycle, description)]
        self.log_limit = 64

    def install(self, sim):
        """Bind to ``sim`` and start firing (registers a cycle hook)."""
        self.sim = sim
        self._bind(sim)
        sim.add_cycle_hook(self._on_cycle)
        return self

    def _record(self, cycle, desc):
        self.n_fires += 1
        if len(self.log) < self.log_limit:
            self.log.append((cycle, desc))

    # subclasses implement:
    def _bind(self, sim):
        raise NotImplementedError

    def _on_cycle(self, cycle):
        raise NotImplementedError


class SEUInjector(_Injector):
    """Single-event-upset bit flips into named state.

    ``path`` addresses a signal (``"dut.router.credit"``) or an int
    state attribute of a CL/FL model.  Fires either with per-cycle
    probability ``p`` or exactly on the cycles in ``cycles``.  ``bit``
    pins the flipped bit; by default a deterministic per-cycle choice
    flips a different bit each fire.  ``seed`` may be an int or a
    ``verif.strategies.RNG`` (forked, not consumed).
    """

    def __init__(self, path, p=None, cycles=None, bit=None, seed=0,
                 nbits=None):
        super().__init__()
        if (p is None) == (cycles is None):
            raise ValueError("pass exactly one of p= or cycles=")
        self.path = path
        self.bit = bit
        self.nbits_hint = nbits
        self.seed = _derive_seed(seed, f"seu:{path}")
        if cycles is not None:
            fire_set = frozenset(int(c) for c in cycles)
            self._fire = fire_set.__contains__
        else:
            self._fire = fault_schedule(p, self.seed)
        self._target = None

    def _bind(self, sim):
        self._target = Probe.resolve(sim, self.path, self.nbits_hint)

    def _on_cycle(self, cycle):
        if not self._fire(cycle):
            return
        tgt = self._target
        bit = self.bit
        if bit is None:
            bit = _cycle_mix(self.seed, cycle, "bit") % tgt.nbits
        old = tgt.read()
        tgt.write(self.sim, old ^ (1 << bit))
        self._record(cycle, f"flip bit {bit} of {self.path}")


class StuckAtFault(_Injector):
    """Hold a signal bit (or a whole signal) at a fixed value.

    Re-applied every cycle of ``[from_cycle, until)`` — after the
    pre-edge settle — so flops downstream latch the forced value even
    though upstream logic keeps (re)driving the net.  ``bit=None``
    forces the whole signal to ``value``.
    """

    def __init__(self, path, value, bit=None, from_cycle=0, until=None,
                 nbits=None):
        super().__init__()
        self.path = path
        self.bit = bit
        self.value = int(value)
        self.from_cycle = int(from_cycle)
        self.until = until
        self.nbits_hint = nbits
        self._target = None

    def _bind(self, sim):
        self._target = Probe.resolve(sim, self.path, self.nbits_hint)

    def _on_cycle(self, cycle):
        if cycle < self.from_cycle:
            return
        if self.until is not None and cycle >= self.until:
            return
        tgt = self._target
        old = tgt.read()
        if self.bit is None:
            new = self.value & ((1 << tgt.nbits) - 1)
        elif self.value:
            new = old | (1 << self.bit)
        else:
            new = old & ~(1 << self.bit)
        if new != old:
            tgt.write(self.sim, new)
            self._record(cycle, f"stuck {self.path} -> {new:#x}")


def _corrupt_mask(seed, cycle, nbits):
    """1- or 2-bit XOR mask, chosen deterministically per cycle.

    Masks are limited to double-bit flips on purpose: the resilient
    link's CRC-8 (poly 0x07) has Hamming distance 4 up to 119 data
    bits, so every 1- and 2-bit corruption is *guaranteed* detected.
    Wider random masks would slip past an 8-bit CRC with probability
    ~2^-8 per frame — enough to break an exactly-once delivery test
    over thousands of frames.
    """
    b1 = _cycle_mix(seed, cycle, "c1") % nbits
    mask = 1 << b1
    if _cycle_mix(seed, cycle, "c?") & 1:
        b2 = _cycle_mix(seed, cycle, "c2") % nbits
        mask |= 1 << b2               # may equal b1 -> single flip
    return mask


class LinkFaultInjector(_Injector):
    """Drive the fault ports of an ``UnreliableChannel`` by path.

    ``path`` names the channel model (e.g. ``"link.fwd"``); the
    injector drives its ``f_drop`` / ``f_stall`` / ``f_corrupt``
    input ports every cycle from three independent pure-of-cycle
    schedules:

    - ``drop`` — probability an accepted flit vanishes;
    - ``corrupt`` — probability of XORing a 1–2 bit mask into the
      payload (see :func:`_corrupt_mask` for why not wider);
    - ``stall`` — probability of a stall *window* of ``burst`` cycles
      (randomized stall bursts: rdy deasserts for the whole window).

    Exposes ``n_drop`` / ``n_corrupt`` / ``n_stall`` schedule counters
    (cycles the fault line was asserted — the channel's own telemetry
    counts faults that actually hit a transfer).
    """

    def __init__(self, path, drop=0.0, corrupt=0.0, stall=0.0,
                 burst=4, seed=0):
        super().__init__()
        self.path = path
        base = _derive_seed(seed, f"link:{path}")
        self.seed = base
        self._drop = fault_schedule(drop, base ^ 0xD0D0)
        self._stall = fault_schedule(stall, base ^ 0x57A1, burst=burst)
        self._corrupt = fault_schedule(corrupt, base ^ 0xC0DE)
        self.n_drop = 0
        self.n_corrupt = 0
        self.n_stall = 0
        self._chan = None

    def _bind(self, sim):
        _, _, chan, engine, _ = resolve_path(sim.model, self.path)
        if engine is not None:
            raise ValueError(
                f"{self.path!r}: link fault injection drives Python "
                f"input ports and does not support specialized "
                f"channels")
        for port in ("f_drop", "f_stall", "f_corrupt"):
            if not isinstance(getattr(chan, port, None), Signal):
                raise TypeError(
                    f"{self.path!r} is not an UnreliableChannel "
                    f"(missing fault port {port!r})")
        self._chan = chan

    def _on_cycle(self, cycle):
        chan = self._chan
        drop = 1 if self._drop(cycle) else 0
        stall = 1 if self._stall(cycle) else 0
        if self._corrupt(cycle):
            mask = _corrupt_mask(self.seed, cycle, chan.f_corrupt.nbits)
        else:
            mask = 0
        chan.f_drop.value = drop
        chan.f_stall.value = stall
        chan.f_corrupt.value = mask
        if drop:
            self.n_drop += 1
        if stall:
            self.n_stall += 1
        if mask:
            self.n_corrupt += 1
        if drop or stall or mask:
            self._record(
                cycle,
                f"drop={drop} stall={stall} corrupt={mask:#x}")
        self.sim.eval_combinational()
