"""SimJIT specializers: compile elaborated models to C (paper Section IV).

``SimJITRTL`` and ``SimJITCL`` take an elaborated PyMTL-style model,
bind every behavioral block, RTL or CL, to its body (one IR lowering
per block body, :mod:`repro.core.bodies`), emit a C translation unit
of one function per distinct block body and the fixed kernel (see
:mod:`.cgen`: the 832 blocks of a 64-router mesh are five functions),
compile it with gcc, load it through cffi (whose parse of the
interface declarations is paid once per process, :func:`_interface`),
and hand back a drop-in :class:`JITModel` exposing the original port
interface — exactly the flow of paper Figure 12, with our own RTL→C
compiler standing in for Verilator (see DESIGN.md).

The translation unit holds only the design's bodies.  What makes it
this instance is the layout (:class:`.cgen.Layout`) the engine hands
to ``new_instance``: the nets and their widths, each block's function
and slot/constant entries with the combinational blocks in the order
:func:`~repro.core.scheduling.build_schedule` gives them, per input
port the comb blocks a change of it reaches over the same read/write
nets (so the settle before an edge runs only those), and the initial
values.  Designs whose bodies print the same text are one ``.so``.
What every design shares — the compiled instrumentation and the
compiled test bench — is ``runtime.c``, built the same
content-addressed way once per cache and loaded the first time an
engine needs it (:func:`_runtime`); an engine that is only simulated
never loads it.

Per-phase overheads (elab / veri / cgen / comp / wrap / simc) are
recorded on the returned engine for the Figure 16 experiment.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import subprocess
import tempfile
import time
from typing import NamedTuple

from ...telemetry import tracing
from .. import bodies
from ..ast_ir import (AssignSig, BlockIR, SigRead, TranslationError,
                      _sigref_from)
from ..elaboration import elaborate
from ..model import MAX_LIST_DEPTH, Model
from ..portbundle import PortBundle
from ..probe import Probe
from ..scheduling import build_schedule, comb_block_nets
from ..signals import InPort, OutPort, Signal
from .cgen import (C_HEADER_DECLS, C_KERNEL, C_PRELUDE, CBackend, Layout,
                   c_template)

_CACHE_ENV = "SIMJIT_CACHE_DIR"
_CACHE_OPTOUT_ENV = "REPRO_SIMJIT_CACHE"

_RUNTIME_C = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "runtime.c")
# The runtime is built one way whatever a design's ``opt``.
_RUNTIME_OPT = "-O2"
_INTERFACE_BEGIN = "/* ---- interface ---- */"
_INTERFACE_END = "/* ---- end of interface ---- */"
_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1


class SpecializationError(Exception):
    """Raised when a model cannot be specialized."""


def _default_cache_dir():
    return os.environ.get(
        _CACHE_ENV,
        os.path.join(tempfile.gettempdir(), "repro-simjit-cache"),
    )


@contextlib.contextmanager
def _build_lock(lock_path):
    """Advisory inter-process lock serializing builders of one cache key.

    Fleet campaigns fan workers across processes that all need the same
    design hash on their first task; without the lock every worker that
    passes the exists() check before the first publication compiles its
    own copy (correct — publication is an atomic replace — but N-1
    compiles are wasted).  Holding an ``flock`` on ``<digest>.so.lock``
    makes the race deterministic: exactly one process compiles, the
    rest block briefly and take the cache hit.  Yields ``True`` when
    the lock is held; on platforms without ``fcntl`` (or an unwritable
    cache dir) it degrades to the lock-free behavior and yields
    ``False``.  The lock file itself is left in place — unlinking it
    would reopen the race it exists to close.
    """
    try:
        import fcntl
        handle = open(lock_path, "a")
    except (ImportError, OSError):
        yield False
        return
    locked = False
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        locked = True
    except OSError:
        pass
    try:
        yield locked
    finally:
        if locked:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
        handle.close()


def _build(source, opt, cache=True):
    """``(lib_path, cache_hit)``: the shared library gcc makes of the C
    text ``source`` with ``opt``, compiled now or found in the cache.

    The on-disk cache is content-addressed: artifacts are keyed by the
    sha256 of the source plus the optimization flag, so any codegen
    change produces a new key and repeated builds of the same text
    reuse the compiled ``.so``.  Writes go through a per-process
    temporary name followed by an atomic ``os.replace``, so concurrent
    builders and cache eviction never expose a half-written artifact
    (a reader that already opened the old inode keeps it alive).
    Concurrent builders of the *same* digest additionally serialize on
    a per-key ``flock`` (see :func:`_build_lock`): exactly one process
    compiles, the rest take cache hits.  Opt out with ``cache=False``
    or globally with ``REPRO_SIMJIT_CACHE=0``.
    """
    digest = hashlib.sha256(source.encode())
    digest.update(opt.encode())
    digest = digest.hexdigest()[:24]
    cache_dir = _default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    lib_path = os.path.join(cache_dir, f"simjit_{digest}.so")
    use_cache = cache and os.environ.get(_CACHE_OPTOUT_ENV, "1") != "0"
    if use_cache and os.path.exists(lib_path):
        return lib_path, True
    if not use_cache:
        return _gcc(source, opt, cache_dir, digest, lib_path), False
    # Concurrent builders of the same digest (fleet workers on their
    # first task) serialize on the key's lock: the winner compiles,
    # everyone else re-checks under the lock and hits.
    with _build_lock(lib_path + ".lock"):
        if os.path.exists(lib_path):
            return lib_path, True
        return _gcc(source, opt, cache_dir, digest, lib_path), False


def _gcc(source, opt, cache_dir, digest, lib_path):
    # Per-process temporaries keep their real extensions (gcc
    # dispatches on them) and land with atomic renames.
    tag = f".tmp{os.getpid()}"
    src_path = os.path.join(cache_dir, f"simjit_{digest}.c")
    tmp_src = os.path.join(cache_dir, f"simjit_{digest}{tag}.c")
    tmp_lib = os.path.join(cache_dir, f"simjit_{digest}{tag}.so")
    with open(tmp_src, "w") as handle:
        handle.write(source)
    cmd = ["gcc", opt, "-shared", "-fPIC", "-o", tmp_lib, tmp_src]
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        try:
            os.remove(tmp_src)
        except OSError:
            pass
        raise SpecializationError(f"gcc failed:\n{result.stderr[:4000]}")
    os.replace(tmp_src, src_path)
    os.replace(tmp_lib, lib_path)
    return lib_path


@functools.cache
def _runtime_c():
    """``(source, declarations)``: runtime.c and its interface section,
    which is the cffi declaration of everything it exports."""
    with open(_RUNTIME_C) as handle:
        source = handle.read()
    start = source.index(_INTERFACE_BEGIN) + len(_INTERFACE_BEGIN)
    return source, source[start:source.index(_INTERFACE_END)]


@functools.cache
def _runtime():
    """The SimJIT runtime library (runtime.c: ``obs_*`` and
    ``tb_uniform``), loaded through the process-wide ``ffi`` the first
    time instrumentation or the compiled test bench needs it.  It is
    compiled like a design's library, into the same cache under the
    same key scheme, so one cache holds one copy; a process finds or
    builds it once, inside one ``simjit.runtime`` span that says
    whether the cache had it."""
    with tracing.span("simjit.runtime") as span:
        lib_path, cache_hit = _build(_runtime_c()[0], _RUNTIME_OPT)
        span.set(cache_hit=cache_hit)
        return _interface().dlopen(lib_path)


@functools.cache
def _interface():
    """The ``ffi`` every design's library and the runtime's load through
    and allocate from: their declarations are parsed (pycparser, ~35 ms)
    once per process, every later load is one ``dlopen``.

    Built through cffi's out-of-line ABI mode — ``cdef`` once, have
    the recompiler print the declarations as a Python module, ``exec``
    it — because the ``_cffi_backend.FFI`` that yields gives each
    ``dlopen`` its own library object, unloaded with its last
    reference.  A shared in-line ``cffi.FFI`` would append every
    library to ``FFI._libraries`` and never unload one."""
    import cffi
    from cffi import recompiler
    parsed = cffi.FFI()
    parsed.cdef(C_HEADER_DECLS + _runtime_c()[1])
    module = io.StringIO()
    recompiler.make_py_source(parsed, "_simjit_interface", module)
    namespace = {}
    exec(module.getvalue(), namespace)
    return namespace["ffi"]


class _Timer:
    """Accumulates wall time into ``record[key]``; with host-span
    tracing armed, each timed phase also lands as a ``simjit.<key>``
    span (``perf_counter`` and ``perf_counter_ns`` read the same
    clock, so the converted timestamps nest correctly under the
    enclosing ``simjit.compile`` span)."""

    def __init__(self, record, key):
        self.record = record
        self.key = key

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.record[self.key] = self.record.get(self.key, 0.0) \
            + end - self.start
        tracer = tracing.active()
        if tracer is not None:
            tracer.add_span(f"simjit.{self.key}",
                            int(self.start * 1e9), int(end * 1e9))
        return False


class SimJITEngine:
    """Runtime half of a specialized model: owns the compiled library
    and the Python<->C port synchronization.

    The boundary costs what changed.  A push reads every bound input
    net in one list comprehension and returns at once when the list
    equals the last one pushed; otherwise one C call stores them all.
    A pull is one C call that compares every output port with the
    value the previous pull returned and hands back only the ports
    that differ, which are then written straight to their nets.

    A compiled test bench crosses it twice per *run* instead: between
    the push and the write-back of :meth:`run_bench` the C side drives
    the input slots and the clock itself (:meth:`tb_uniform`).
    """

    def __init__(self, model, lib, ffi, slots, overheads, kernel_info,
                 layout):
        self.model = model
        self.lib = lib
        # The process-wide ``ffi`` that loaded ``lib`` (``_interface``).
        self._ffi = ffi
        # ``id(net) -> slot`` in ``cur[]``.  The table, not the
        # specializer that built it: nothing the engine keeps may keep
        # the ``_Specializer`` (and its ``c_source``) alive.
        self._slots = slots
        #: this instance's data for the kernel (:class:`.cgen.Layout`)
        self.layout = layout
        # Freed with the engine; the destructor holds ``lib`` and the
        # C layout so the code it calls is still mapped, and the layout
        # the instance reads still allocated, whichever is dropped first.
        held = layout.to_c(ffi)
        self.inst = ffi.gc(lib.new_instance(held[0]),
                           lambda inst: (lib.free_instance(inst), held))
        self.overheads = overheads
        #: which kernel shape was generated and why (``sched_info()``)
        self.kernel_info = kernel_info
        # The checkpoint blob the handle points at, as the (lo, hi)
        # words of its nets.
        self._words = ffi.cast("uint64_t *", self.inst)
        # CL-state addressing metadata: attached by the specializer
        # (``engine.state_index``/``engine.model_index``) so external
        # tools (fault injection, checkpointing) can reach compiled
        # state by (model, attr) instead of C variable names.
        self.state_index = {}
        self.model_index = {}
        # Port order is the order of the layout's in_slot/out_slot.
        self._in_ports = model.get_inports()
        self._out_ports = model.get_outports()
        n_in = len(self._in_ports)
        self._in_lo = ffi.new("uint64_t[]", max(1, n_in))
        # A high-word array only where some input port needs one.
        self._in_hi = (ffi.new("uint64_t[]", n_in)
                       if any(sig.nbits > 64 for sig in self._in_ports)
                       else ffi.NULL)
        self._out_buf = ffi.new(
            "uint64_t[]", 3 * max(1, len(self._out_ports)))
        # Nets are resolved at the first push (the parent design may
        # re-merge nets after specialization).
        self._in_nets = None
        self._pushed = None

    def slot_of(self, sig):
        """Net slot of ``sig`` in the compiled ``cur[]``."""
        return self._slots[id(sig._net.find())]

    def _bind(self):
        self._in_nets = [sig._net.find() for sig in self._in_ports]
        out_nets = [sig._net.find() for sig in self._out_ports]
        self._out_write = [net.write for net in out_nets]
        self._out_write_next = [net.write_next for net in out_nets]

    def _push_inputs(self):
        if self._in_nets is None:
            self._bind()
        values = [net._value for net in self._in_nets]
        if values == self._pushed:
            return
        self._pushed = values
        n = len(values)
        lo, hi = self._in_lo, self._in_hi
        if hi == self._ffi.NULL:
            lo[0:n] = values
        else:
            lo[0:n] = [v & 0xFFFFFFFFFFFFFFFF for v in values]
            hi[0:n] = [v >> 64 for v in values]
        self.lib.push_inputs(self.inst, lo, hi)

    def _pull_outputs(self, as_next):
        """Write back the output ports that changed since the last
        pull: to ``.next`` for an embedded engine's tick (the parent
        simulator flops those that differ from the net), to ``.value``
        otherwise."""
        if self._in_nets is None:
            self._bind()
        n = self.lib.pull_changed(self.inst, self._out_buf)
        if not n:
            return
        write = self._out_write_next if as_next else self._out_write
        words = iter(self._ffi.unpack(self._out_buf, 3 * n))
        for port, lo, hi in zip(words, words, words):
            write[port](lo | (hi << 64))

    def eval_comb(self):
        self._push_inputs()
        if self.lib.eval_comb(self.inst) < 0:
            raise SpecializationError("combinational loop in C model")
        self._pull_outputs(as_next=False)

    def tick(self):
        self._push_inputs()
        if self.lib.cycle(self.inst, 1) < 0:
            raise SpecializationError("combinational loop in C model")
        self._pull_outputs(as_next=True)

    def step(self, n):
        """The raw SimJIT step of a top-level engine: push the ports,
        ``n`` cycles in one C call, pull what changed."""
        self._push_inputs()
        self.raw_cycle(n)
        self._pull_outputs(as_next=False)

    def run_bench(self, bench):
        """Hand a top-level engine to a compiled test bench for a
        whole run: push the ports, let ``bench(engine)`` drive the
        input slots and the clock from C (:meth:`tb_uniform`) and say
        how many cycles it ran, then make the Python nets read what a
        Python bench that pushed the same values every cycle would
        have left — the input ports as C last drove them, the outputs
        pulled."""
        self._push_inputs()
        ran = bench(self)
        values = [self.raw_get(self.slot_of(sig)) for sig in self._in_ports]
        for net, value in zip(self._in_nets, values):
            net._value = value
        self._pushed = values
        self._pull_outputs(as_next=False)
        return ran

    def new_bench(self, **fields):
        """A ``tb_t`` for :meth:`tb_uniform` with ``fields`` filled in,
        that clocks this engine through its ``cycle``."""
        return _interface().new("tb_t *", dict(fields, cycle=self.lib.cycle))

    def tb_uniform(self, tb):
        """One call of the compiled uniform-random test bench
        (runtime.c) on the ``tb_t`` its caller filled
        (:meth:`new_bench`); returns the runtime's ``TB_DONE``,
        ``TB_WORDS`` (refill the tape) or ``TB_FULL`` (empty the
        latency buffer), the last two to be called again — constants
        of the :func:`_runtime` library, like its ``OBS_*`` limits."""
        status = _runtime().tb_uniform(self.inst, tb)
        if status < 0:
            raise SpecializationError("combinational loop in C model")
        return status

    # Direct-drive API for standalone benchmarking (no Python nets).
    def raw_cycle(self, n=1):
        if self.lib.cycle(self.inst, n) < 0:
            raise SpecializationError("combinational loop in C model")

    def raw_set(self, slot, value):
        self.lib.set_net(self.inst, slot,
                         value & 0xFFFFFFFFFFFFFFFF, value >> 64)
        # The next push must store the Python-side value again even
        # when no input net changed since the last one.
        self._pushed = None

    def raw_get(self, slot):
        return self._words[2 * slot] | (self._words[2 * slot + 1] << 64)

    def raw_set_state(self, idx, elem, value):
        """Write one CL state variable (``state_index`` addressing)."""
        self.lib.set_state_at(self.inst, idx, int(elem), int(value))

    def state_slot(self, model, attr):
        """``state_index`` slot of ``model.attr``, or None when the
        attribute was not lowered to compiled state."""
        key = f"st_m{self.model_index[id(model)]}_{attr}"
        return self.state_index.get(key)

    # -- checkpoint/restore (resilience.snapshot) -------------------------

    def snapshot_raw(self):
        """Entire compiled instance state (nets + CL state) as bytes:
        the checkpoint blob, ``cur | nxt | [prev] | [st]``."""
        return self._ffi.buffer(self.inst, self.layout.nbytes)[:]

    def restore_raw(self, blob):
        """Overwrite the compiled instance state from a snapshot blob
        (of this layout: ``layout.nbytes`` bytes)."""
        size = self.layout.nbytes
        if len(blob) != size:
            raise ValueError(
                f"snapshot blob is {len(blob)} bytes but this engine's "
                f"instance state is {size}: it was taken from another "
                f"design or layout")
        self._ffi.memmove(self.inst, blob, size)
        self.invalidate_shadows()

    def invalidate_shadows(self):
        """Drop the Python<->C change-detection caches after any
        out-of-band state mutation, so the next push/pull re-syncs
        every port (and the next settle runs every block)."""
        self._pushed = None
        self.lib.invalidate(self.inst)


class JITModel(Model):
    """Drop-in replacement model wrapping a SimJIT engine.

    Adopts the original model's port objects so every attribute path a
    test bench uses (``m.in_[3].val`` …) keeps working unchanged — a
    copy of attributes with their containers, which is why it is not
    ``orig.get_ports()``.
    """

    def __init__(s, orig, engine):
        s.jit_engine = engine
        s._orig_class = type(orig).__name__
        # ``orig`` still elaborates and runs, in Python, on ports that
        # are the wrapper's from here on: SimulationTool refuses it.
        orig._simjit_consumed = True
        from ..bitstruct import BitStruct
        for name, attr in list(orig.__dict__.items()):
            if name.startswith("_"):
                continue
            if _is_portlike(attr):
                setattr(s, name, attr)
                _clear_parent(attr)
            elif isinstance(attr, (int, str)) or (
                    isinstance(attr, type)
                    and issubclass(attr, BitStruct)):
                # Plain metadata (sizes, message types) that test
                # harnesses read off the model.
                setattr(s, name, attr)

        @s.tick_fl
        def jit_tick():
            engine.tick()

        @s.combinational
        def jit_comb():
            engine.eval_comb()

    def line_trace(s):
        return f"[jit:{s._orig_class}]"


def _is_portlike(attr, depth=0):
    if isinstance(attr, (InPort, OutPort, PortBundle)):
        return True
    if isinstance(attr, list) and depth < MAX_LIST_DEPTH and attr:
        return all(_is_portlike(a, depth + 1) for a in attr)
    return False


def _clear_parent(attr):
    if isinstance(attr, (Signal, PortBundle)):
        attr.parent = None
    elif isinstance(attr, list):
        for item in attr:
            _clear_parent(item)


class _Block(NamedTuple):
    """One block as the specializer files it with ``CBackend``: its C
    body ``c``, this instance's value of each C hole (a CL state
    variable's ``st_m<model>_<attr>`` key until ``_emit`` knows its
    offset) and the signals it ``reads`` and ``writes``."""

    name: str
    c: bodies.CBody
    values: list
    reads: list
    writes: list


class _Specializer:
    """Shared flatten/lower/compile pipeline."""

    #: behavioral-block kinds this specializer accepts
    allowed_ticks = ()
    name = "simjit"

    def __init__(self, model, opt="-O2", cache=True, schedule=True):
        self.orig = model
        self.opt = opt
        self.cache = cache
        self.schedule = schedule        # static comb scheduling on/off
        self.overheads = {}

    def specialize(self):
        """Run the full pipeline; returns a :class:`JITModel`."""
        with tracing.span("simjit.compile",
                          design=type(self.orig).__name__) as sp:
            wrapper = self._specialize()
            info = self.kernel_info
            sp.set(cache_hit=bool(self.overheads.get("cache_hit")),
                   functions=info["functions"], bodies=info["bodies"],
                   input_blocks=info["input_blocks"],
                   input_cone_max=info["input_cone_max"],
                   c_source_bytes=len(self.c_source))
            return wrapper

    def _specialize(self):
        model = self.orig
        with _Timer(self.overheads, "elab"):
            if not model.is_elaborated():
                elaborate(model)
            self._build_slots(model)

        with _Timer(self.overheads, "veri"):
            combs, ticks = self._lower_blocks(model)
            comb_order, residue, comb_nets = self._order_comb(combs)

        with _Timer(self.overheads, "cgen"):
            c_source = self._emit(model, comb_order, residue, ticks,
                                  comb_nets)

        with _Timer(self.overheads, "comp"):
            lib_path, cache_hit = self._compile(c_source)
        self.overheads["cache_hit"] = cache_hit

        with _Timer(self.overheads, "wrap"):
            lib = self._load(lib_path)
            engine = SimJITEngine(model, lib, _interface(),
                                  self._slots, self.overheads,
                                  self.kernel_info, self.layout)
            engine.state_index = dict(self._state_index)
            engine.model_index = dict(self._model_index)

        with _Timer(self.overheads, "simc"):
            wrapper = JITModel(model, engine)
            self._rebind_telemetry(model, wrapper, engine)
        self.c_source = c_source
        self.lib_path = lib_path
        return wrapper

    def _rebind_telemetry(self, model, wrapper, engine):
        """Re-point declared counters at compiled state and carry them
        onto the wrapper, so telemetry survives specialization (the
        Python tick code that used to advance them no longer runs).

        Signal-backed counters get a probe on their net slot,
        state-backed ones on the namespaced CL state variable.
        Python-kind counters (and histograms) are carried over as-is —
        their values freeze at specialization time, which the docs
        call out as a SimJIT limitation.
        """
        top_prefix = model.full_name() + "."
        for sub in model._all_models:
            if sub is model:
                rel = ""
            else:
                rel = sub.full_name()[len(top_prefix):]
            for cname, ctr in sub._telemetry_counters.items():
                if ctr._sig is not None:
                    ctr._probe = Probe(
                        cname, ctr._sig.nbits, "slot",
                        (engine, self._slot_of(ctr._sig)))
                elif ctr._state is not None:
                    attr, elem = ctr._state
                    idx = engine.state_slot(sub, attr)
                    if idx is not None:
                        ctr._probe = Probe(
                            cname, 64, "state", (engine, idx, elem or 0))
                key = f"{rel}.{cname}" if rel else cname
                wrapper._telemetry_counters[key] = ctr
            for hname, hist in sub._telemetry_histograms.items():
                key = f"{rel}.{hname}" if rel else hname
                wrapper._telemetry_histograms[key] = hist

    # -- flattening -------------------------------------------------------------

    def _build_slots(self, model):
        self._slots = {}
        for i, net in enumerate(model._all_nets):
            self._slots[id(net)] = i
        self._net_widths = [net.nbits for net in model._all_nets]
        self._model = model

    def _slot_of(self, sig):
        return self._slots[id(sig._net.find())]

    def _lower_blocks(self, model):
        """Every block of ``model`` as a :class:`_Block`: ``(combs,
        ticks)``, with the slice connectors as synthetic comb copies
        after the comb blocks."""
        self._bodies, self._state_vars = set(), {}
        self._model_index = {
            id(m): i for i, m in enumerate(model._all_models)}
        combs, ticks = [], []
        for sub in model._all_models:
            combs.extend(map(self._block, sub.get_comb_blocks()))
            for blk in sub.get_tick_blocks():
                if blk.level not in self.allowed_ticks:
                    raise SpecializationError(
                        f"{self.name} cannot specialize {blk.name} "
                        f"(level '{blk.level}'; supported: "
                        f"{sorted(self.allowed_ticks)})"
                    )
                ticks.append(self._block(blk))
        for idx, (src, dst) in enumerate(model._connectors):
            # Not a block, so no body: a C body of its own, printed
            # from the two-slot copy.
            refs = _sigref_from(src), _sigref_from(dst)
            ir = BlockIR(name=f"connector{idx}", kind="comb", model=model)
            ir.body = [AssignSig(refs[1], SigRead(refs[0]), False)]
            c = bodies.CBody(*c_template(
                ir, {id(ref): i for i, ref in enumerate(refs)}))
            combs.append(_Block(
                ir.name, c, [self._slot_of(refs[i].signal) for i in c.sources],
                [refs[0].signal], [refs[1].signal]))
        return combs, ticks

    def _block(self, blk):
        """A block is an instance of its body
        (:mod:`repro.core.bodies`): one bind fills the body's C template
        and names what the block reads and writes.  A body whose types
        are undecided has none: computed wide, it would differ."""
        try:
            body, holes = bodies.body_of(blk)
        except bodies.Refused as exc:
            raise SpecializationError(
                f"{self.name} cannot specialize {blk.name}: {exc}") from None
        if body.c is None:
            raise TranslationError(f"{self.name} cannot specialize "
                                   f"{blk.name}: {body.refused}")
        self._bodies.add(body)
        slot = self._slot_of
        row = [tuple(map(slot, hole)) if type(hole) is tuple
               else int(hole) if isinstance(hole, int)
               else self._state_key(blk.model, hole) if type(hole) is str
               else slot(hole)
               for hole in holes]
        return _Block(blk.func.__name__, body.c,
                      [row[s] for s in body.c.sources],
                      bodies.signals(holes, body.reads),
                      bodies.signals(holes, body.writes))

    def _state_key(self, model, attr):
        """CL state variable ``model.attr``'s key (``_emit`` offsets it)."""
        key = f"st_m{self._model_index[id(model)]}_{attr}"
        value = getattr(model, attr)
        self._state_vars[key] = (
            model, attr, len(value) if isinstance(value, list) else 0)
        return key

    def _order_comb(self, combs):
        """Order the comb blocks with the simulator's static scheduler.

        Returns ``(order, residue, nets)``: ``residue`` counts the blocks
        one pass in that order cannot settle — those ``build_schedule``
        demotes (in a combinational cycle, or reading through one
        signal a net they write through another), or every block when
        scheduling is switched off.  Any residue makes ``settle()`` a
        fixpoint over the whole order.  ``nets`` is, per block of
        ``order``, the ``(reads, writes)`` nets it depends on and
        drives."""
        infos = [(i, *comb_block_nets(blk.reads, blk.writes), True)
                 for i, blk in enumerate(combs)]
        if not self.schedule:
            # Ablation mode: declaration order, rely on the fixpoint
            # loop alone (more passes per eval).
            return list(combs), len(combs), [info[1:3] for info in infos]
        sched = build_schedule(infos)
        order = sched.order + sched.event_funcs
        return ([combs[i] for i in order], len(sched.event_funcs),
                [infos[i][1:3] for i in order])

    @staticmethod
    def _input_cones(in_nets, comb_nets):
        """Per input port net, the comb blocks (positions in schedule
        order, ascending) a change of it reaches: the blocks that read
        it, the blocks that read what those write, and so on — one walk
        over a readers map per port."""
        readers = {}
        for j, (reads, _) in enumerate(comb_nets):
            for net in reads:
                readers.setdefault(id(net), []).append(j)
        cones = []
        for net in in_nets:
            seen, stack = set(), [net]
            while stack:
                for j in readers.get(id(stack.pop()), ()):
                    if j not in seen:
                        seen.add(j)
                        stack.extend(comb_nets[j][1])
            cones.append(sorted(seen))
        return cones

    # -- emission ---------------------------------------------------------------------

    def _emit(self, model, comb_order, residue, ticks, comb_nets):
        """The translation unit: the prelude, one function per block
        body and the kernel.  What names an instance goes into
        ``self.layout`` (:class:`.cgen.Layout`)."""
        # CL state is namespaced per model instance (``_state_key``);
        # ``state_index`` (sorted by that name) is its (STATE, idx, elem)
        # address and ``state_off`` where its elements start in ``st[]``.
        state_list = sorted(self._state_vars.items())
        state_off = [0]
        for _, (_, _, size) in state_list:
            state_off.append(state_off[-1] + max(1, size))
        self._state_index = {key: i for i, (key, _) in enumerate(state_list)}

        # One function per block body; each block is its function and
        # its entries, in schedule order.
        offset_of = dict(zip(self._state_index, state_off))
        backend = CBackend()
        for prefix, blocks in (("comb", comb_order), ("tick", ticks)):
            for i, blk in enumerate(blocks):
                values = blk.values
                if state_list:
                    values = [offset_of[v] if isinstance(v, str) else v
                              for v in values]
                backend.add(blk.c, values, f"{prefix}_{i}_{blk.name}")
        block_c, entries = backend.emit_blocks()

        # The nets the Python boundary moves and the clock edge flops.
        flop_slots = sorted({
            self._slot_of(sig) for blk in ticks for sig in blk.writes})
        in_ports = model.get_inports()
        in_slots = [self._slot_of(sig) for sig in in_ports]
        out_slots = [self._slot_of(sig) for sig in model.get_outports()]

        # The input settle: the comb blocks each input port reaches, as
        # entries of ``in_blk``.  A fixpoint settles all or nothing, so
        # there every port reaches every block and the kernel settles.
        ncomb = len(comb_order)
        if residue:
            cones, union = [[] for _ in in_slots], []
            reach = [ncomb] * len(in_slots)
            nreach = ncomb if in_slots else 0
        else:
            cones = self._input_cones(
                [sig._net.find() for sig in in_ports], comb_nets)
            reach = list(map(len, cones))
            union = sorted(set().union(*cones))
            at = {j: k for k, j in enumerate(union)}
            cones = [[at[j] for j in cone] for cone in cones]
            nreach = len(union)
        self.kernel_info = {
            "comb": "fixpoint" if residue else "single-pass",
            "residue_blocks": residue,
            "flop_nets": len(flop_slots),
            "in_ports": len(in_slots),
            "out_ports": len(out_slots),
            "blocks": len(entries),
            "functions": len(backend.calls),
            "bodies": len(self._bodies),
            "input_blocks": nreach,
            "input_cone_max": max(reach, default=0),
        }

        init_st = [0] * state_off[-1]
        for off, (_, (owner, attr_name, size)) in zip(state_off, state_list):
            value = getattr(owner, attr_name)
            for j, v in enumerate(value if size else [value]):
                init_st[off + j] = int(v)
        self.layout = Layout(
            net_width=self._net_widths, in_slot=in_slots,
            out_slot=out_slots, flop_slot=flop_slots, blocks=entries,
            ncomb=ncomb, in_blk=union, in_cone=cones, state_off=state_off,
            init_cur=self._initial_nets(model), init_st=init_st,
            fixpoint=bool(residue))
        return "\n\n".join([C_PRELUDE, block_c, C_KERNEL])

    def _initial_nets(self, model):
        """Every net's value at construction, the constant ties
        applied."""
        values = [int(net.read()) for net in model._all_nets]
        for end, const in model._const_ties:
            ref = _sigref_from(end)
            slot = self._slot_of(ref.signals[0])
            mask = (1 << ref.width) - 1
            kept = values[slot] & ~(mask << ref.lo)
            values[slot] = (kept | (int(const) & _U64 & mask) << ref.lo) \
                & _U128
        return values

    # -- compile / load -----------------------------------------------------------------

    def _compile(self, c_source):
        """``(lib_path, cache_hit)`` of the design's library
        (:func:`_build`, with this specializer's ``opt`` and ``cache``)."""
        return _build(c_source, self.opt, self.cache)

    def _load(self, lib_path):
        return _interface().dlopen(lib_path)


class SimJITRTL(_Specializer):
    """SimJIT-RTL: specializes pure-RTL designs (comb + tick_rtl)."""

    allowed_ticks = ("rtl",)
    name = "SimJIT-RTL"


class SimJITCL(_Specializer):
    """SimJIT-CL: specializes subset-style CL designs (tick_cl blocks
    with int/int-list state, plus any RTL blocks)."""

    allowed_ticks = ("cl", "rtl")
    name = "SimJIT-CL"
