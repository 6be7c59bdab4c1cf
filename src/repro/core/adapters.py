"""Adapters: programmer-friendly proxies over latency-insensitive ports.

The paper's FL/CL accelerator examples (Figures 7-8) never touch raw
val/rdy signals; they use adapters that hide the handshake protocol:

- ``ChildReqRespQueueAdapter`` — queue-based view of a
  ``ChildReqRespBundle`` (requests pop out of ``req_q``, responses push
  into ``resp_q``); the model calls ``xtick()`` once per cycle.
- ``ParentReqRespQueueAdapter`` — mirror image for a parent requester
  (push into ``req_q``, responses pop out of ``resp_q``).  Both bind
  their bundle's nets at the first ``xtick`` and then drive them as a
  lowered block does.
- ``ListMemPortAdapter`` — a list-like proxy whose element accesses
  become memory read transactions over a ``ParentReqRespBundle``.  The
  paper implements this with greenlets; greenlets are unavailable here,
  so we substitute lock-step worker threads (one runs at a time, strict
  handoff through two locks), which preserves the observable
  behaviour: an FL block can pass the proxy straight into
  ``numpy.dot`` and each element access transparently expands into a
  multi-cycle memory transaction.

Every adapter drives its bundle as a lowered block does: it binds the
bundle's signals to their root nets at its first ``xtick``, reads
``_value`` and writes through ``_Net.write_next``, and packs or
unpacks messages with the field slices of the bundle's ``ifc_types``,
so no message ``BitStruct`` is built per cycle.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque

from .bits import Bits


class Queue:
    """Bounded FIFO used by the queue adapters."""

    def __init__(self, maxsize=2):
        self.maxsize = maxsize
        self._items = deque()

    def empty(self):
        return not self._items

    def full(self):
        return len(self._items) >= self.maxsize

    def enq(self, item):
        if self.full():
            raise IndexError("enqueue on full queue")
        self._items.append(item)

    def deq(self):
        if self.empty():
            raise IndexError("dequeue on empty queue")
        return self._items.popleft()

    def front(self):
        if self.empty():
            raise IndexError("front of empty queue")
        return self._items[0]

    def clear(self):
        self._items.clear()

    def __len__(self):
        return len(self._items)


def _root(bundle, name):
    """The root net of ``bundle``'s signal ``name``."""
    return getattr(bundle, name)._net.find()


class _QueueAdapter:
    """Port logic shared by the two queue adapters.  The bundle's
    incoming channel (``_channels[0]``: ``req`` for a child, ``resp``
    for a parent) fills its queue, the outgoing one drains the other.

    The first ``xtick`` binds the bundle's six signals to their root
    nets, as a SimJIT engine does at its first push; the simulator
    calls it after elaboration has merged them.  From then on a cycle
    reads the nets' ``_value`` and writes through ``_Net.write_next``,
    the one ``.next`` rule, without a signal in between."""

    _channels = ()

    def __init__(self, bundle, req_qsize=2, resp_qsize=2):
        self.bundle = bundle
        self.req_q = Queue(req_qsize)
        self.resp_q = Queue(resp_qsize)
        self._skip = False
        self._ports = None            # bound at the first xtick

    def _bind(self):
        """``(in_val, in_rdy, in_msg, in_q, out_val, out_rdy, out_msg,
        out_q)``: root nets, except the incoming message, which stays a
        signal so that it reads back as its message type."""
        bundle = self.bundle
        inc, out = self._channels
        self._ports = (
            _root(bundle, f"{inc}_val"), _root(bundle, f"{inc}_rdy"),
            getattr(bundle, f"{inc}_msg"), getattr(self, f"{inc}_q"),
            _root(bundle, f"{out}_val"), _root(bundle, f"{out}_rdy"),
            _root(bundle, f"{out}_msg"), getattr(self, f"{out}_q"))
        return self._ports

    def xtick(self):
        """Service the ports; call once at the top of the tick block."""
        if self._skip:
            # Already serviced by a BlockingTickRunner this cycle.
            self._skip = False
            return
        in_val, in_rdy, in_msg, in_q, out_val, out_rdy, out_msg, out_q = (
            self._ports or self._bind())
        # Outgoing message accepted by the other side on the last edge?
        if out_val._value and out_rdy._value:
            out_q.deq()
        # Incoming message latched on the last edge?
        if in_val._value and in_rdy._value:
            in_q.enq(in_msg.value)
        # Drive next-cycle outputs.  A write is skipped exactly when
        # it is a no-op: the value is the net's and no earlier write
        # this cycle left another ``_next`` (which it must override).
        rdy = 1 if len(in_q._items) < in_q.maxsize else 0
        if rdy != in_rdy._value or rdy != in_rdy._next:
            in_rdy.write_next(rdy)
        if out_q._items:
            if not (out_val._value and out_val._next):
                out_val.write_next(1)
            msg = int(out_q._items[0]) & out_msg.mask
            if msg != out_msg._value or msg != out_msg._next:
                out_msg.write_next(msg)
        elif out_val._value or out_val._next:
            out_val.write_next(0)

    def reset(self):
        """Forget every queued message and take back the offer
        ``xtick`` just made on the outgoing channel; call from the
        owner's reset branch, after ``xtick``.  Without it a message
        queued before reset goes out after it (and, for a parent, its
        response comes back to an owner that no longer expects one)."""
        self.req_q.clear()
        self.resp_q.clear()
        getattr(self.bundle, f"{self._channels[1]}_val").next = 0


class ChildReqRespQueueAdapter(_QueueAdapter):
    """Queue-based adapter for a child device's request/response
    interface (paper Figures 7-8).

    Usage inside a tick block::

        s.cpu.xtick()
        if not s.cpu.req_q.empty() and not s.cpu.resp_q.full():
            req = s.cpu.get_req()
            ...
            s.cpu.push_resp(result)
    """

    _channels = ("req", "resp")

    def get_req(self):
        return self.req_q.deq()

    def push_resp(self, msg):
        self.resp_q.enq(msg)


class ParentReqRespQueueAdapter(_QueueAdapter):
    """Queue-based adapter for a parent requester's interface (the
    memory port in paper Figure 8)."""

    _channels = ("resp", "req")

    def push_req(self, msg):
        self.req_q.enq(msg)

    def get_resp(self):
        return self.resp_q.deq()


# -- blocking (coroutine-style) adapters ------------------------------------------


class _WorkerExit(BaseException):
    """Raised at a worker's yield point to unwind it: its runner was
    collected or its simulator closed.  Not an ``Exception``, so FL
    code that catches those still lets go."""


class _Handoff:
    """Strict lock-step handoff between the simulator thread and one
    worker thread: exactly one side runs at a time.

    Two locks serve as binary semaphores, each held while its side is
    parked: the side that runs releases the other's and acquires its
    own.  Once stopping, every yield of the worker raises
    ``_WorkerExit`` at once (a block that swallows it meets it again at
    its next yield), and only the first hands the sim lock back: the
    sim thread waits on it where the worker stopped itself (a
    ``close()`` inside the FL block).  So no lock is released twice."""

    def __init__(self):
        self.worker = threading.Lock()
        self.worker.acquire()
        self.sim = threading.Lock()
        self.sim.acquire()
        self.stopping = False
        self.exited = False

    def run_worker(self):
        """Called from the sim thread: let the worker run until it
        yields back."""
        self.worker.release()
        self.sim.acquire()

    def yield_to_sim(self):
        """Called from the worker thread: pause until resumed."""
        if not self.stopping:
            self.sim.release()
            self.worker.acquire()
            if not self.stopping:
                return
        if not self.exited:
            self.exited = True
            self.sim.release()
        raise _WorkerExit


def _worker_loop(handoff, runner_ref):
    """Body of a runner's worker thread.  Parked between invocations
    it holds the handoff and a weak reference only; a frame that held
    the runner would hold the FL block's closure, the model, every net
    and the ``SimulationTool``, and no dropped simulator with a
    blocking FL tick would ever be collected."""
    try:
        while True:
            handoff.yield_to_sim()          # wait for first resume
            _invoke(runner_ref())
    except _WorkerExit:
        pass


def _stop_worker(handoff, thread):
    """Wake the parked worker to exit, and wait until it has."""
    handoff.stopping = True
    handoff.worker.release()
    # A collection that finalizes a runner can start on any thread.
    if thread is not threading.current_thread():
        thread.join()


def _invoke(runner):
    """One invocation of the FL block, in a frame of its own so that
    the worker's strong reference to its runner ends with it."""
    try:
        runner.func()
    except _WorkerExit:
        raise
    except BaseException as exc:            # noqa: BLE001
        # Hand the exception to the sim thread; a silently
        # dead worker would deadlock the next run_worker().
        runner._worker_exc = exc
    finally:
        runner.state = "idle"


class BlockingTickRunner:
    """Runs an FL tick block that may block inside adapters.

    Each simulated cycle: service every adapter's port logic, then give
    the worker thread a chance to run — either resuming a blocked
    invocation whose data arrived, or starting a fresh invocation of
    the block.  The worker only ever runs while the sim thread waits,
    so execution stays deterministic.

    The worker exits when the runner is collected (an idle worker does
    not keep it alive) or, in whatever state, at :meth:`stop` — which
    ``SimulationTool.close()`` calls.
    """

    def __init__(self, func, adapters):
        self.func = func
        adapters = list(adapters)
        self.blocking = [
            a for a in adapters if isinstance(a, ListMemPortAdapter)]
        self.queues = [
            a for a in adapters if not isinstance(a, ListMemPortAdapter)]
        self.handoff = None        # made with the worker
        self.state = "idle"        # idle | blocked | running
        self._thread = None
        self._worker_exc = None
        for adapter in self.blocking:
            adapter._runner = self

    def _start_worker(self):
        handoff = self.handoff = _Handoff()
        self._thread = threading.Thread(
            target=_worker_loop, args=(handoff, weakref.ref(self)),
            daemon=True,
        )
        self._finalizer = weakref.finalize(
            self, _stop_worker, handoff, self._thread)
        self._thread.start()
        # Let the worker reach its first yield point.
        handoff.sim.acquire()

    def stop(self):
        """End the worker thread, abandoning an invocation blocked
        mid-way (it unwinds through :class:`_WorkerExit`).  The next
        call of the runner starts a fresh worker."""
        if self._thread is not None:
            self._finalizer()       # once; dead afterwards
            self._thread = None

    def __call__(self):
        for adapter in self.blocking:
            adapter.xtick()
        for adapter in self.queues:
            # Queue adapters must be serviced even while the FL block
            # is paused mid-invocation; the user's own xtick() call is
            # then skipped once.
            adapter._skip = False
            adapter.xtick()
            adapter._skip = True
        if self._thread is None:
            self._start_worker()
        if self.state == "blocked":
            if all(a.ready() for a in self.blocking if a.is_waiting()):
                self.state = "running"
                self.handoff.run_worker()
        elif self.state == "idle":
            self.state = "running"
            self.handoff.run_worker()
        if self._worker_exc is not None:
            exc = self._worker_exc
            self._worker_exc = None
            raise exc

    def block(self):
        """Called from the worker when an adapter must wait for data."""
        self.state = "blocked"
        self.handoff.yield_to_sim()


class ListMemPortAdapter:
    """List-like proxy that turns element accesses into memory
    transactions over a ``ParentReqRespBundle`` (paper Figure 7).

    ``proxy[i]`` issues a read of ``base + i*4`` and blocks the FL block
    until the response returns; ``proxy[i] = v`` issues a write.  With
    ``set_size``/``set_base`` configured, the proxy satisfies the
    sequence protocol, so ``numpy.dot(proxy0, proxy1)`` works unchanged.
    """

    WORD_BYTES = 4

    def __init__(self, bundle):
        self.bundle = bundle
        self._base = 0
        self._size = 0
        self._runner = None           # wired up by BlockingTickRunner
        self._pending = None          # ('rd'|'wr', addr, data)
        self._sent = False
        self._result = None
        self._have_result = False
        self._ports = None            # bound at the first xtick

    # -- configuration (paper Figure 7) ----------------------------------

    def set_base(self, base):
        self._base = int(base)

    def set_size(self, size):
        self._size = int(size)

    def __len__(self):
        return self._size

    # -- sequence protocol -------------------------------------------------

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(self._size))]
        addr = self._base + int(idx) * self.WORD_BYTES
        return self._transact("rd", addr, 0)

    def __setitem__(self, idx, value):
        addr = self._base + int(idx) * self.WORD_BYTES
        self._transact("wr", addr, int(value))

    def __iter__(self):
        for i in range(self._size):
            yield self[i]

    # -- transaction engine --------------------------------------------------

    def _transact(self, kind, addr, data):
        runner = self._runner
        if runner is None or runner._thread is None \
                or threading.current_thread() is not runner._thread:
            # Blocking from any thread but the runner's worker (e.g.
            # straight from a test bench) would deadlock the handoff.
            raise RuntimeError(
                "ListMemPortAdapter used outside a blocking FL tick block"
            )
        self._pending = (kind, addr, data)
        self._sent = False
        self._have_result = False
        self._runner.block()          # sim ticks until response arrives
        result = self._result
        self._pending = None
        return result

    def is_waiting(self):
        return self._pending is not None

    def ready(self):
        return self._have_result

    def _bind(self):
        """``(req_val, req_rdy, req_msg, resp_val, resp_rdy, resp_msg,
        type_lo, addr_lo, addr_mask, data_lo, data_mask, resp_lo,
        resp_mask)``: the bundle's root nets, then the shifts and masks
        of the request's ``type_`` / ``addr`` / ``data`` and the
        response's ``data``, from the bundle's ``ifc_types``."""
        bundle = self.bundle
        req, resp = bundle.ifc_types.req, bundle.ifc_types.resp

        def field(struct, name):
            lo, hi = struct.field_slice(name)
            return lo, (1 << (hi - lo)) - 1

        self._ports = (
            *(_root(bundle, name) for name in (
                "req_val", "req_rdy", "req_msg",
                "resp_val", "resp_rdy", "resp_msg")),
            req.field_slice("type_")[0],
            *field(req, "addr"), *field(req, "data"), *field(resp, "data"))
        return self._ports

    def xtick(self):
        """Drive the memory port; called by the runner each cycle.

        Only touches the ports while it owns a transaction, so several
        adapters can share one memory bundle (the FL block serializes
        accesses, so at most one adapter is active at a time — paper
        Figure 7 hangs two proxies off one ``mem_ifc``).
        """
        if self._pending is None:
            return
        (req_val, req_rdy, req_msg, resp_val, resp_rdy, resp_msg,
         type_lo, addr_lo, addr_mask, data_lo, data_mask, resp_lo,
         resp_mask) = self._ports or self._bind()
        if self._sent:
            if resp_val._value and resp_rdy._value:
                self._result = (resp_msg._value >> resp_lo) & resp_mask
                self._have_result = True
                resp_rdy.write_next(0)
        elif req_val._value and req_rdy._value:
            # Request accepted on the last edge.
            self._sent = True
            req_val.write_next(0)
            resp_rdy.write_next(1)
        else:
            kind, addr, data = self._pending
            req_msg.write_next(
                (kind != "rd") << type_lo
                | (addr & addr_mask) << addr_lo
                | (data & data_mask) << data_lo)
            req_val.write_next(1)


def wrap_fl_ticks(model):
    """Replace the FL tick blocks of ``model`` (and submodels) that use
    blocking adapters with ``BlockingTickRunner`` wrappers.

    Returns a mapping from original tick function to wrapper; the
    ``SimulationTool`` applies it when constructing the tick schedule.
    """
    wrappers = {}
    for sub in getattr(model, "_all_models", [model]):
        blocking = [
            attr for attr in sub.__dict__.values()
            if isinstance(attr, ListMemPortAdapter)
        ]
        if not blocking:
            continue
        queue_adapters = [
            attr for attr in sub.__dict__.values()
            if isinstance(
                attr, (ChildReqRespQueueAdapter, ParentReqRespQueueAdapter)
            )
        ]
        for blk in sub.get_tick_blocks():
            if blk.level == "fl":
                wrappers[blk.func] = BlockingTickRunner(
                    blk.func, blocking + queue_adapters
                )
    return wrappers
