"""Static scheduling for the pure-Python simulator.

The event-driven simulator pays per-event dispatch on every
combinational settle: each changing net walks its sensitivity list,
re-enqueues blocks through a queue, and re-runs them until fixpoint.
For the (common) acyclic part of a design the evaluation order can be
computed once, at simulator construction:

1. build the block-level dataflow graph — block ``u`` precedes block
   ``v`` when ``u`` writes a net ``v`` reads (the read and write sets
   are the block body's, :mod:`.bodies`, through
   :func:`comb_block_nets`);
2. find strongly connected components; blocks in cyclic SCCs, and
   blocks without a body (no bounded write set), fall back to the
   event-driven fixpoint;
3. topologically levelize the rest into a *static schedule*: one
   in-order sweep settles them, each block executing at most once per
   settle phase.

At runtime, changed nets mark their static readers in a dense
``bytearray`` (C-speed, no queue churn), and the sweep runs exactly
the marked blocks in dependency order.

This module only *constructs* schedules (the SimJIT specializer orders
its lowered blocks with the same :func:`build_schedule`, and
:func:`unelaborated_schedule` builds a design's before it is
elaborated, for ``auto_specialize``); running one —
the flag sweep inside the simulator's Python step — is
:mod:`.simulation`'s business.
"""

from __future__ import annotations

from .elaboration import read_connections
from .signals import _SignalSlice


class StaticSchedule:
    """Partition of a design's combinational blocks into a levelized
    static order plus an event-driven remainder."""

    __slots__ = ("order", "levels", "event_funcs", "demoted",
                 "reader_slots")

    def __init__(self, order, levels, event_funcs, demoted, reader_slots):
        self.order = order              # funcs, topological order
        self.levels = levels            # level of each func in `order`
        self.event_funcs = event_funcs  # funcs needing the event fixpoint
        self.demoted = demoted          # subset of event_funcs demoted
                                        # from the graph (cyclic SCCs)
        self.reader_slots = reader_slots  # net -> tuple of order slots

    @property
    def nlevels(self):
        return (self.levels[-1] + 1) if self.levels else 0

    def describe(self):
        return {
            "static_blocks": len(self.order),
            "event_blocks": len(self.event_funcs),
            "demoted_cyclic": len(self.demoted),
            "levels": self.nlevels,
        }


def nets_of(ends, net_of=None):
    """Deduplicated net roots of a list of signals/slices: how every
    caller of :func:`build_schedule` (the simulator, the SimJIT
    specializer and :func:`unelaborated_schedule`) turns a block's
    read/write signals into its input.  ``net_of`` maps a signal to its
    net where elaboration has not merged them yet."""
    nets = []
    seen = set()
    for end in ends:
        sig = end.signal if isinstance(end, _SignalSlice) else end
        net = sig._net.find() if net_of is None else net_of(sig)
        if id(net) not in seen:
            seen.add(id(net))
            nets.append(net)
    return nets


def comb_block_nets(reads, writes, net_of=None):
    """``(read nets, write nets)`` of a combinational block that reads
    signals ``reads`` and writes ``writes`` — a body's, bound to one
    instance.  The one statement of the self-write rule: a block that
    reads back a signal it writes sees its own just-written value
    (sequential Python, not combinational feedback), so that read is
    no dependency.  The rule is by signal: a block reading through one
    signal a net it writes through another does depend on it."""
    written = {id(sig) for sig in writes}
    return (nets_of([sig for sig in reads if id(sig) not in written],
                    net_of),
            nets_of(writes, net_of))


def unbounded_reads(model):
    """The signals a block of ``model`` may read when no body bounds
    what it reads: every signal of the model itself (its ports and
    wires) and the output ports of its direct submodels.  A SimJIT
    wrapper's blocks read its input ports only: the engine computes its
    outputs itself, and its comb block pushes nothing else."""
    if hasattr(model, "jit_engine"):
        return model.get_inports()
    return model.get_signals() + [
        port for sub in model.get_submodels() for port in sub.get_outports()]


def unelaborated_schedule(models, blocks):
    """The static schedule the simulator builds for a design, read off
    the design before it is elaborated.  ``models`` are every model of
    the design and ``blocks`` every comb block of theirs as ``(block,
    reads, writes)``: the signals its body reads and writes, or
    ``reads=None`` for a block without a body.  Nets, slice copies and
    ties are elaboration's own reading of the models' ``_connections``
    (:func:`~.elaboration.read_connections`, each signal's model its
    owner), less clock and reset, which elaboration adds and no comb
    block writes; a constant tie is no block.  The schedule's
    ``order`` and ``event_funcs`` hold the blocks, and a slice copy as
    ``("connector", i)``."""
    owner = {id(sig): m for m in models for sig in m.get_signals()}
    structure = read_connections(models, lambda sig: owner.get(id(sig)))
    net_of = structure.net_of
    infos = [(blk, (), (), False) if reads is None
             else (blk, *comb_block_nets(reads, writes, net_of), True)
             for blk, reads, writes in blocks]
    infos += [(("connector", i), nets_of([src], net_of),
               nets_of([dst], net_of), True)
              for i, (src, dst) in enumerate(structure.copies)]
    return build_schedule(infos)


def build_schedule(infos):
    """Build a :class:`StaticSchedule` from block descriptions.

    ``infos`` is a list of ``(func, reads, writes, known)`` tuples
    where ``reads``/``writes`` are collections of net objects and
    ``known`` states that ``writes`` bounds every net the block can
    write.  Blocks with ``known=False`` go straight to the event
    partition; cyclic SCCs among the rest are demoted per-SCC.
    """
    n = len(infos)
    known = [i for i in range(n) if infos[i][3]]
    known_set = set(known)

    # net -> known-block readers, for edge construction.
    readers_of = {}
    for i in known:
        for net in infos[i][1]:
            readers_of.setdefault(id(net), []).append(i)

    succ = [()] * n
    for u in known:
        out = set()
        for net in infos[u][2]:
            for v in readers_of.get(id(net), ()):
                if v in known_set:
                    out.add(v)
        succ[u] = tuple(sorted(out))

    static_nodes, demoted_nodes = _partition_cyclic(known, succ)

    # Levelize the static subgraph (longest-path level, Kahn-style).
    static_set = set(static_nodes)
    level = {i: 0 for i in static_nodes}
    indeg = {i: 0 for i in static_nodes}
    for u in static_nodes:
        for v in succ[u]:
            if v in static_set and v != u:
                indeg[v] += 1
    ready = sorted(i for i in static_nodes if indeg[i] == 0)
    order_idx = []
    queue = list(ready)
    qpos = 0
    while qpos < len(queue):
        u = queue[qpos]
        qpos += 1
        order_idx.append(u)
        for v in succ[u]:
            if v in static_set and v != u:
                if level[v] < level[u] + 1:
                    level[v] = level[u] + 1
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
    assert len(order_idx) == len(static_nodes), \
        "levelization failed on an acyclic subgraph"
    # Stable order: by (level, declaration index) so runs are
    # reproducible regardless of set iteration order.
    order_idx.sort(key=lambda i: (level[i], i))

    order = [infos[i][0] for i in order_idx]
    levels = [level[i] for i in order_idx]
    event_funcs = [infos[i][0] for i in range(n)
                   if i not in static_set]
    demoted = [infos[i][0] for i in demoted_nodes]

    # net -> slots in `order` that must re-run when the net changes.
    slot_of = {infos[i][0]: slot for slot, i in
               ((s, order_idx[s]) for s in range(len(order_idx)))}
    reader_slots = {}
    for i in order_idx:
        func = infos[i][0]
        for net in infos[i][1]:
            reader_slots.setdefault(id(net), (net, []))[1].append(
                slot_of[func])
    reader_map = {}
    for net, slots in reader_slots.values():
        reader_map[id(net)] = (net, tuple(sorted(slots)))
    return StaticSchedule(order, levels, event_funcs, demoted, reader_map)


def _partition_cyclic(nodes, succ):
    """Split ``nodes`` into acyclic nodes and nodes inside cyclic SCCs
    (Tarjan, iterative — designs can be deep)."""
    index = {}
    low = {}
    onstack = {}
    stack = []
    sccs = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack[v] = True
            recurse = False
            children = succ[v]
            for ci in range(pi, len(children)):
                w = children[ci]
                if w not in index:
                    work.append((v, ci + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if onstack.get(w):
                    if index[w] < low[v]:
                        low[v] = index[w]
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]

    static_nodes = []
    demoted = []
    for comp in sccs:
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            demoted.extend(comp)
        else:
            static_nodes.extend(comp)
    return static_nodes, demoted
