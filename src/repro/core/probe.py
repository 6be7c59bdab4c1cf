"""Addressing: one :class:`Probe` per named observable.

Every tool that names a piece of simulated state — fault injectors,
flight recorders, watchpoints, histogram samplers, the compiled
instrumentation, telemetry counters — resolves the name here, once,
and reads or writes it through the probe, so the same spec reaches
the same value before and after SimJIT specialization.

A *spec* is a dotted path from the top model (``"routers[3].credit"``,
``"priority[1]"``; see :func:`resolve_path`), a ``Signal``, or a slice
of one.  A path may also name a telemetry ``Counter`` or an int (or
int-list element) attribute of a CL/FL model.  :meth:`Probe.resolve`
fixes one of five locations for it:

``net``      a Python net this simulator drives
``slot``     a net slot of a compiled SimJIT instance
``state``    one element of compiled CL state
``attr``     a plain Python attribute (or list element)
``counter``  a telemetry counter, read through ``Counter.value``

A slice is its base signal's location plus ``lo``/``nbits``, so it can
never take a different path than the signal it cuts.  This module and
:mod:`.simjit.specializer` are the only ones that know how compiled
state is addressed.
"""

from __future__ import annotations

import re

from ..telemetry.counters import Counter
from .signals import Signal, _SignalSlice

__all__ = ["Probe", "Unlowerable", "resolve_path", "read_all", "NET",
           "STATE"]

#: :meth:`Probe.address` kinds: a net slot / a ``state_index`` entry.
NET, STATE = 0, 1


class Unlowerable(Exception):
    """A probe or condition the compiled instrumentation cannot
    express."""


_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)((?:\[\d+\])*)$")


def resolve_path(model, path):
    """Resolve a dotted path from ``model`` to the object it names.

    Returns ``(owner, attr, target, engine, indices)``:

    - ``owner`` — the model instance holding the final attribute;
    - ``attr`` — the final attribute name (state faults need it);
    - ``target`` — the resolved object (a Signal, an int, or a list);
    - ``engine`` — the innermost ``SimJITEngine`` crossed on the way
      (None on the interpreted path);
    - ``indices`` — the subscripts applied to the *final* token
      (``"priority[1]"`` -> ``(1,)``), so list-element state can be
      written back in place.

    Whenever an object along the path is a specialized ``JITModel``
    the walk drops through ``jit_engine.model`` into the original
    design, so the same path string works before and after
    specialization.
    """
    obj = model
    engine = getattr(obj, "jit_engine", None)
    if engine is not None:
        obj = engine.model
    owner, attr = obj, None
    indices = ()
    for token in path.split("."):
        m = _TOKEN.match(token.strip())
        if m is None:
            raise ValueError(f"bad path token {token!r} in {path!r}")
        name, subs = m.group(1), m.group(2)
        owner, attr = obj, name
        try:
            obj = getattr(obj, name)
        except AttributeError:
            raise AttributeError(
                f"cannot resolve {path!r}: "
                f"{type(owner).__name__} has no attribute {name!r}")
        indices = tuple(
            int(idx) for idx in re.findall(r"\[(\d+)\]", subs))
        for idx in indices:
            obj = obj[idx]
        sub_engine = getattr(obj, "jit_engine", None)
        if sub_engine is not None:
            engine = sub_engine
            obj = sub_engine.model
    return owner, attr, obj, engine, indices


class Probe:
    """Read/write access to one resolved observable.

    ``name`` is the spec's stable display name, ``nbits`` its width,
    ``location`` one of the five in the module docstring and ``lo`` the
    low bit of a slice (None for a whole value).  ``read`` is a
    zero-argument callable specialised to the location when the probe
    is built — the one a recorder samples at cycle rate.
    """

    __slots__ = ("name", "nbits", "location", "lo", "read", "_at",
                 "_base")

    def __init__(self, name, nbits, location, at, lo=None):
        self.name = name
        self.nbits = nbits
        self.location = location
        self.lo = lo
        self._at = at
        self._base = read = self._reader_at(location, at)
        if lo is not None:
            mask = (1 << nbits) - 1
            self.read = lambda: (read() >> lo) & mask
        else:
            self.read = read

    @staticmethod
    def _reader_at(location, at):
        if location == "net":
            net = at[0]._net.find()
            return lambda: net._value
        if location == "slot":
            engine, slot = at
            return lambda: engine.raw_get(slot)
        if location == "state":
            engine, idx, elem = at
            lib, inst = engine.lib, engine.inst
            return lambda: lib.get_state_at(inst, idx, elem)
        if location == "counter":
            ctr = at[0]
            return lambda: int(ctr.value)
        owner, attr, indices = at

        def read():
            obj = getattr(owner, attr)
            for idx in indices:
                obj = obj[idx]
            return int(obj)
        return read

    @classmethod
    def resolve(cls, sim, spec, nbits=None):
        """The probe for ``spec`` on ``sim`` (a probe passes through).

        ``nbits`` is the width to assume for int state, which carries
        none (default 64, the compiled ``int64_t``)."""
        if isinstance(spec, Probe):
            return spec
        engine = None
        if isinstance(spec, str):
            owner, attr, target, engine, indices = resolve_path(
                sim.model, spec)
            name = spec
        elif isinstance(spec, _SignalSlice):
            target = spec
            name = f"{spec.signal.name or '?'}[{spec.lo}:{spec.hi}]"
        elif isinstance(spec, Signal):
            target = spec
            name = spec.name or repr(spec)
        else:
            raise TypeError(
                f"cannot observe {type(spec).__name__}; pass a dotted "
                f"path string, a Signal, or a signal slice")
        if isinstance(target, _SignalSlice):
            return cls._of_signal(sim, target.signal, engine, name,
                                  target.nbits, target.lo)
        if isinstance(target, Signal):
            return cls._of_signal(sim, target, engine, name, target.nbits)
        if isinstance(target, Counter):
            sig = target._sig
            return cls(name, sig.nbits if sig is not None else 64,
                       "counter", (target,))
        if not isinstance(target, int):
            raise TypeError(
                f"{spec!r} resolved to {type(target).__name__}; "
                f"probe targets are signals, counters and int state "
                f"attributes (index into lists in the path: 'mem[3]')")
        if engine is None:
            return cls(name, nbits or 64, "attr", (owner, attr, indices))
        if len(indices) > 1:
            raise ValueError(
                f"{spec!r}: compiled state supports at most one "
                f"trailing index")
        idx = engine.state_slot(owner, attr)
        if idx is None:
            raise ValueError(
                f"{spec!r}: state attribute {attr!r} was not "
                f"lowered to compiled state")
        return cls(name, nbits or 64, "state",
                   (engine, idx, indices[0] if indices else 0))

    @classmethod
    def _of_signal(cls, sim, sig, engine, name, nbits, lo=None):
        if sig._net.find().sim is sim:
            return cls(name, nbits, "net", (sig,), lo)
        # Not driven by this simulator: the signal lives inside a
        # compiled SimJIT instance (a Python-side access would touch a
        # net frozen at specialization time).  A path names the engine
        # it crossed; a bare signal is looked up in every engine.
        engines = [engine] if engine is not None else [
            m.jit_engine for m in sim.model._all_models
            if hasattr(m, "jit_engine")]
        for eng in engines:
            try:
                return cls(name, nbits, "slot",
                           (eng, eng.slot_of(sig)), lo)
            except KeyError:
                continue
        raise ValueError(
            f"signal {name!r} is not simulated by this SimulationTool "
            f"(and no SimJIT engine lowered it); pass a dotted path or "
            f"a signal of the simulated model")

    def reader(self):
        """The specialised zero-argument read callable (``read``)."""
        return self.read

    def write(self, sim, value):
        """Store ``value`` so the rest of this cycle sees it.

        A Python net is written, every gated tick is forced to run and
        combinational logic settles; compiled state is stored in place
        (the compiled cycle re-evaluates comb logic before its ticks,
        so the write propagates in C).  A slice rewrites only its bits.
        """
        if self.lo is not None:
            mask = ((1 << self.nbits) - 1) << self.lo
            value = (self._base() & ~mask) | ((value << self.lo) & mask)
        location, at = self.location, self._at
        if location == "net":
            at[0].value = value
            # Tick gating skips a sequential block when none of its
            # *read* nets changed, assuming the register then holds
            # what that block last wrote — an external write breaks
            # that assumption (the forced value would survive the flop
            # only on substrates that gate).  Force every tick to run
            # this cycle, which is exactly the ungated event-mode
            # semantics.
            if sim._tflags:
                sim._tflags[:] = b"\x01" * len(sim._tflags)
            # Settle so downstream combinational logic sees the value
            # before this cycle's tick blocks read it — matching the
            # compiled path, whose cycle() starts with eval_comb.
            sim.eval_combinational()
        elif location == "slot":
            at[0].raw_set(at[1], value)
        elif location == "state":
            at[0].raw_set_state(*at[1:], value)
        elif location == "counter":
            raise TypeError(
                f"{self.name!r} is a telemetry counter; write the "
                f"storage behind it instead")
        else:
            owner, attr, indices = at
            if indices:
                obj = getattr(owner, attr)
                for idx in indices[:-1]:
                    obj = obj[idx]
                obj[indices[-1]] = value
            else:
                setattr(owner, attr, value)

    def address(self, engine):
        """``(kind, idx, elem)`` of this probe inside ``engine`` —
        ``(NET, slot, 0)`` or ``(STATE, state_index, elem)`` — or
        :class:`Unlowerable` when the value is not a whole variable of
        that compiled instance."""
        if self.lo is not None:
            raise Unlowerable("signal slices are sampled from Python")
        location, at = self.location, self._at
        if location == "net":
            try:
                return NET, engine.slot_of(at[0]), 0
            except KeyError as exc:
                raise Unlowerable(
                    f"signal has no net slot in this engine: {exc}"
                ) from exc
        if location == "slot" and at[0] is engine:
            return NET, at[1], 0
        if location == "state" and at[0] is engine:
            return STATE, at[1], at[2]
        raise Unlowerable(
            f"path {self.name!r} does not name a signal of this engine")

    def __repr__(self):
        cut = "" if self.lo is None else f" lo={self.lo}"
        return (f"<Probe {self.name!r} {self.nbits}b "
                f"{self.location}{cut}>")


def read_all(probes):
    """A zero-argument callable that reads ``probes`` in one pass and
    returns their values as a list — what a sampler calls every cycle.
    It is printed as one list display: a whole Python net is read
    inline (``net._value``), any other probe through its ``read``, so
    the pass costs one call, not one per probe or a comprehension."""
    env, terms = {}, []
    for i, probe in enumerate(probes):
        if probe.location == "net" and probe.lo is None:
            env[f"n{i}"] = probe._at[0]._net.find()
            terms.append(f"n{i}._value")
        else:
            env[f"r{i}"] = probe.read
            terms.append(f"r{i}()")
    return eval(f"lambda: [{', '.join(terms)}]", env)
