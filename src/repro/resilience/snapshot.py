"""Checkpoint/restore and deterministic replay for SimulationTool.

A checkpoint captures *everything* a cycle-accurate replay needs:

- every net's ``.value`` and pending ``.next`` (plus which nets have a
  flop pending, normally none between cycles);
- Python-side model state: plain attributes, adapter queues, any
  ``random.Random`` attribute, and the touched pages of a
  ``TestMemory``'s page store, walked over ``model._all_models``;
- python-kind telemetry counters and histogram bins (signal/state
  backed counters ride along with the net/state capture);
- RNG streams registered via ``sim.track_rng(rng)``;
- the compiled instance blob of every SimJIT-specialized submodel
  (one flat copy of its ``cur | nxt | [prev] | [st]``);
- scheduler flag arrays and the cycle/event counters.

The contract — asserted across substrates by ``tests/test_checkpoint``
— is **round-trip equals uninterrupted run**: for a deterministic test
bench, ``run(N); cp = save; run(M)`` leaves the simulation in exactly
the state of ``run(N); cp = save; ...; restore(cp); run(M)``.

Checkpoints are in-memory objects tied to the simulator instance that
produced them (they hold no code, only state); persisting across
processes is out of scope.  Designs using blocking FL adapters
(``ListMemPortAdapter`` worker threads) are not checkpointable — a
paused Python thread cannot be snapshotted — and ``save_checkpoint``
refuses them with :class:`CheckpointError`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import random
from collections import deque

from ..core.adapters import (
    BlockingTickRunner,
    ChildReqRespQueueAdapter,
    ParentReqRespQueueAdapter,
    Queue,
)
from ..core.bits import Bits
from ..core.bitstruct import BitStruct
from ..core.model import Model
from ..core.portbundle import PortBundle
from ..core.signals import Signal, _SignalSlice
from ..mem.test_memory import Pages

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointRing",
    "save_checkpoint",
    "restore_checkpoint",
]


class CheckpointError(Exception):
    """A simulation state that cannot be checkpointed or restored."""


def _is_plain(value, depth=0):
    """True for values we can deepcopy into a checkpoint and compare
    for the fingerprint: scalars, Bits/BitStructs, and containers of
    those.  Signals, models, bundles, callables, and classes are
    structural (rebuilt from code, not state) and are skipped."""
    if value is None or isinstance(
            value, (bool, int, float, str, bytes, bytearray)):
        return True
    if isinstance(value, (Bits, BitStruct)):
        return True
    if depth >= 4:
        return False
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return all(
            _is_plain(v, depth + 1) for v in vars(value).values())
    if isinstance(value, (list, tuple, deque, set, frozenset)):
        return all(_is_plain(v, depth + 1) for v in value)
    if isinstance(value, dict):
        return all(
            _is_plain(k, depth + 1) and _is_plain(v, depth + 1)
            for k, v in value.items())
    return False


def _canon(value):
    """Canonical hashable form of a captured value (fingerprinting)."""
    if isinstance(value, Bits):
        return ("Bits", value.nbits, int(value))
    if isinstance(value, BitStruct):
        return ("BitStruct", type(value).__name__, int(value.to_bits()))
    if isinstance(value, bytearray):
        return ("bytearray", bytes(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (k, _canon(v)) for k, v in sorted(vars(value).items()))
    if isinstance(value, (list, tuple, deque)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_canon(v) for v in value))
    if isinstance(value, dict):
        return tuple(sorted(
            (_canon(k), _canon(v)) for k, v in value.items()))
    return value


class Checkpoint:
    """Opaque snapshot of one :class:`SimulationTool`'s state."""

    def __init__(self, ncycles, num_events, nets, pending_ids,
                 sflags, tflags, sdirty, py_state, counters,
                 histograms, rng_states, engine_blobs):
        self.ncycles = ncycles
        self.num_events = num_events
        self.nets = nets                  # [(value, next), ...]
        self.pending_ids = pending_ids    # net ids with a flop pending
        self.sflags = sflags
        self.tflags = tflags
        self.sdirty = sdirty
        self.py_state = py_state          # model idx -> {attr: entry}
        self.counters = counters          # key -> python counter value
        self.histograms = histograms      # key -> bins dict copy
        self.rng_states = rng_states
        self.engine_blobs = engine_blobs  # model idx -> bytes

    def fingerprint(self):
        """Stable digest of the *simulation-visible* state.

        Two checkpoints of the same design fingerprint equal iff nets,
        Python state, telemetry, compiled state, and the cycle count
        all match.  ``num_events`` (a settle-effort statistic, not
        state) and scheduler flag arrays (substrate bookkeeping) are
        excluded, so the digest is comparable across save points that
        arrived at the same state by different evaluation orders.
        """
        material = (
            self.ncycles,
            tuple(self.nets),
            tuple(sorted(self.pending_ids)),
            tuple(sorted(
                (idx, attr, kind, _canon(val))
                for idx, attrs in self.py_state.items()
                for attr, (kind, val) in attrs.items())),
            tuple(sorted(self.counters.items())),
            tuple(sorted(
                (k, _canon(v)) for k, v in self.histograms.items())),
            tuple(sorted(self.engine_blobs.items())),
        )
        return hashlib.sha256(repr(material).encode()).hexdigest()


_IMMUTABLE = frozenset((type(None), bool, int, float, str, bytes))
_STRUCTURAL = (Signal, _SignalSlice, PortBundle, Model)


def _capture_attr(value):
    """Checkpoint entry for one python model attribute, or None when
    the attribute is structural (skipped; the caller skips what
    elaboration named, and signals, bundles and submodels, before
    asking)."""
    kind = type(value)
    if kind in _IMMUTABLE:
        return ("plain", value)     # what deepcopy would hand back
    if isinstance(value, random.Random):
        return ("rng", value.getstate())
    if isinstance(value, Pages):
        return ("pages", value.touched())
    if isinstance(value, Queue):
        return ("queue", copy.deepcopy(list(value._items)))
    if isinstance(value, (ChildReqRespQueueAdapter,
                          ParentReqRespQueueAdapter)):
        return ("adapter", (
            copy.deepcopy(list(value.req_q._items)),
            copy.deepcopy(list(value.resp_q._items)),
            value._skip))
    if isinstance(value, type) or callable(value):
        return None
    if _is_plain(value):
        return ("plain", copy.deepcopy(value))
    return None


def _restore_attr(model, attr, entry):
    kind, saved = entry
    if kind == "rng":
        getattr(model, attr).setstate(saved)
    elif kind == "pages":
        getattr(model, attr).load_image(saved)
    elif kind == "queue":
        q = getattr(model, attr)
        q._items.clear()
        q._items.extend(copy.deepcopy(saved))
    elif kind == "adapter":
        a = getattr(model, attr)
        req, resp, skip = saved
        a.req_q._items.clear()
        a.req_q._items.extend(copy.deepcopy(req))
        a.resp_q._items.clear()
        a.resp_q._items.extend(copy.deepcopy(resp))
        a._skip = skip
    else:
        # Restore mutable sequences *in place* — tick closures, state-
        # backed counters, and adapters may hold a direct reference to
        # the container, which a rebinding setattr would orphan.
        current = getattr(model, attr, None)
        if (isinstance(current, (list, bytearray))
                and type(current) is type(saved)):
            current[:] = copy.deepcopy(saved)
        else:
            # setattr is safe here because the attribute already
            # exists with the same (plain) type.
            setattr(model, attr, copy.deepcopy(saved))


def save_checkpoint(sim):
    """Snapshot ``sim``; returns a :class:`Checkpoint`.

    The simulator must be at a cycle boundary (or a cycle-hook point):
    combinational logic is settled first (idempotent), and designs
    driven by blocking FL adapter threads are rejected."""
    for tick in sim._ticks:
        if isinstance(tick, BlockingTickRunner):
            raise CheckpointError(
                "cannot checkpoint a design with blocking FL adapters "
                "(ListMemPortAdapter runs on worker threads; thread "
                "stacks cannot be snapshotted) — use the queue "
                "adapters or a CL/RTL model instead")
    # Settle so the capture sees a quiescent combinational state; this
    # is what run()/cycle() leave behind anyway.
    sim.eval_combinational()

    model = sim.model
    # A net's ``_next`` is live only while a flop is pending on it;
    # otherwise it is residue of whenever the net last flopped (and
    # substrates leave different residue, e.g. a JIT shadow
    # invalidation rewrites every output's ``.next``).  Canonicalize
    # dead slots to None so equal states fingerprint equal.
    pending = sim._pending_flops
    nets = [(net._value, net._next if net in pending else None)
            for net in model._all_nets]
    pending_ids = tuple(net.id for net in pending)

    py_state = {}
    engine_blobs = {}
    for idx, sub in enumerate(model._all_models):
        attrs = {}
        # Most attributes of a design are its signals and children;
        # elaboration named them (``_structural``), so only what came
        # later or holds state is tested.
        skip = sub._structural
        for name, value in sub.__dict__.items():
            if (name in skip or name.startswith("_")
                    or isinstance(value, _STRUCTURAL)):
                continue
            entry = _capture_attr(value)
            if entry is not None:
                attrs[name] = entry
        if attrs:
            py_state[idx] = attrs
        engine = getattr(sub, "jit_engine", None)
        if engine is not None:
            engine_blobs[idx] = engine.snapshot_raw()

    counters = {
        key: ctr._value
        for key, ctr in getattr(model, "_all_counters", {}).items()
        if ctr.kind == "python"
    }
    histograms = {
        key: dict(hist.bins)
        for key, hist in getattr(model, "_all_histograms", {}).items()
    }
    rng_states = [rng.getstate() for rng in sim._checkpoint_rngs]

    return Checkpoint(
        ncycles=sim.ncycles,
        num_events=sim.num_events,
        nets=nets,
        pending_ids=pending_ids,
        sflags=bytes(sim._sflags),
        tflags=bytes(sim._tflags),
        sdirty=sim._sdirty,
        py_state=py_state,
        counters=counters,
        histograms=histograms,
        rng_states=rng_states,
        engine_blobs=engine_blobs,
    )


def restore_checkpoint(sim, cp):
    """Rewind ``sim`` to ``cp``, in place.

    Every mutation happens *inside* the existing objects (net fields,
    flag bytearrays, counter cells, queue deques, compiled instance
    memory) because the lowered blocks and the sensitivity wiring
    close over those exact objects."""
    model = sim.model
    all_nets = model._all_nets
    if len(cp.nets) != len(all_nets):
        raise CheckpointError(
            f"checkpoint has {len(cp.nets)} nets but the design has "
            f"{len(all_nets)}: not a checkpoint of this simulator")

    # Quiesce the event queue: everything re-settles from restored
    # values, and stale queued blocks would fire against them.
    sim._queue.clear()
    for func in sim._all_comb_funcs:
        func._in_queue = False

    for net, (value, nxt) in zip(all_nets, cp.nets):
        net._value = value
        if nxt is not None:
            net._next = nxt
    sim._pending_flops.clear()
    for net_id in cp.pending_ids:
        sim._pending_flops[all_nets[net_id]] = True

    for idx, attrs in cp.py_state.items():
        sub = model._all_models[idx]
        for attr, entry in attrs.items():
            _restore_attr(sub, attr, entry)
    for idx, blob in cp.engine_blobs.items():
        model._all_models[idx].jit_engine.restore_raw(blob)

    all_counters = getattr(model, "_all_counters", {})
    for key, value in cp.counters.items():
        all_counters[key]._value = value
    all_histograms = getattr(model, "_all_histograms", {})
    for key, bins in cp.histograms.items():
        hist = all_histograms[key]
        hist.bins.clear()
        hist.bins.update(bins)

    if len(cp.rng_states) != len(sim._checkpoint_rngs):
        raise CheckpointError(
            f"checkpoint tracks {len(cp.rng_states)} RNG stream(s) "
            f"but the simulator tracks {len(sim._checkpoint_rngs)}")
    for rng, state in zip(sim._checkpoint_rngs, cp.rng_states):
        rng.setstate(state)

    # Flag arrays in place — the lowered blocks closed over them.
    sim._sflags[:] = cp.sflags
    sim._tflags[:] = cp.tflags
    sim._sdirty = cp.sdirty

    sim.ncycles = cp.ncycles
    sim.num_events = cp.num_events


class CheckpointRing:
    """Periodic checkpoints for replay-from-the-middle.

    Registers a cycle hook that snapshots the simulation every
    ``interval`` cycles, keeping the last ``keep`` checkpoints.  The
    hook is *prepended* to the hook list so the snapshot captures the
    state before any same-cycle fault injector or stimulus hook runs —
    replaying from the checkpoint then re-applies those hooks exactly
    as the original timeline did.

    Used by the verif flow to replay a shrunk failure from the nearest
    checkpoint instead of from cycle 0::

        ring = CheckpointRing(sim, interval=512)
        ...
        cp = ring.nearest(failing_cycle)
        sim.restore_checkpoint(cp)
        sim.run(failing_cycle - cp.ncycles)   # short replay

    Note: registering any cycle hook moves a SimJIT top to the
    Python step; that is the cost of observation.
    """

    def __init__(self, sim, interval=1024, keep=8):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.sim = sim
        self.interval = int(interval)
        self.checkpoints = deque(maxlen=keep)
        # Registered through the hook API (prepended) so the step is
        # selected again and any armed SimJIT instrumentation converts
        # back to the hook path first.
        sim.add_cycle_hook(self._hook, prepend=True)

    def _hook(self, cycle):
        if cycle % self.interval == 0:
            self.checkpoints.append(save_checkpoint(self.sim))

    def nearest(self, cycle):
        """Latest kept checkpoint at or before ``cycle`` (None if the
        ring holds nothing that early)."""
        best = None
        for cp in self.checkpoints:
            if cp.ncycles <= cycle and (
                    best is None or cp.ncycles > best.ncycles):
                best = cp
        return best
