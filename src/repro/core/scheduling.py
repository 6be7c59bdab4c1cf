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
2. find strongly connected components.  Blocks without a body (no
   bounded write set) fall back to the event-driven fixpoint.  A
   cyclic SCC gets a second look with nodes at (block, output)
   granularity: each output needs only the reads its body's ``deps``
   say the value written there needs (:func:`comb_output_nets`).  A
   block with an output on a cycle of that graph — a true
   combinational cycle, of signals — falls back to the event fixpoint;
   a cycle of blocks that is none of signals disappears;
3. topologically levelize the rest into a *static schedule*: one
   in-order sweep settles them.  A block of a cycle that disappeared
   sits at each level its outputs need, the same function run once per
   slot, a slot flagged by exactly the nets its outputs need: an
   output an earlier slot wrote with a provisional value is final at
   its own slot, and every reader of it sits after that slot.  Every
   other block executes at most once per settle phase.

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

from collections import Counter

from .elaboration import read_connections
from .signals import _SignalSlice


class StaticSchedule:
    """Partition of a design's combinational blocks into a levelized
    static order plus an event-driven remainder."""

    __slots__ = ("order", "levels", "event_funcs", "demoted",
                 "reader_slots", "split")

    def __init__(self, order, levels, event_funcs, demoted, reader_slots,
                 split=0):
        self.order = order              # funcs, topological order; a
                                        # block split by output recurs
        self.levels = levels            # level of each slot in `order`
        self.event_funcs = event_funcs  # funcs needing the event fixpoint
        self.demoted = demoted          # func -> its output keys on a
                                        # cycle, for the event_funcs
                                        # demoted from the graph
        self.reader_slots = reader_slots  # net -> tuple of order slots
        self.split = split              # blocks at more than one slot

    @property
    def nlevels(self):
        return (self.levels[-1] + 1) if self.levels else 0

    def describe(self):
        return {
            "static_blocks": len(set(self.order)),
            "event_blocks": len(self.event_funcs),
            "demoted_cyclic": len(self.demoted),
            "split_blocks": self.split,
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


def comb_output_nets(outputs, net_of=None):
    """``[(keys, (write net,), read nets)]`` of a combinational block,
    per net it writes, from ``outputs``: per output ``(key, signals
    written, signals the written value needs)`` (a body's ``deps``,
    bound to one instance).  A net is written through the outputs
    ``keys`` and needs what they need, less what the block writes
    (the self-write rule of :func:`comb_block_nets`)."""
    written = {id(sig) for _, writes, _ in outputs for sig in writes}
    nets = {}                   # id(net) -> [keys, (net,), read signals]
    for key, writes, reads in outputs:
        for net in nets_of(writes, net_of):
            got = nets.setdefault(id(net), [[], (net,), []])
            got[0].append(key)
            got[2] += [sig for sig in reads if id(sig) not in written]
    return [(tuple(keys), net, nets_of(reads, net_of))
            for keys, net, reads in nets.values()]


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
    reads, writes, outputs)``: the signals its body reads and writes
    and its ``deps`` bound as :func:`~.bodies.outputs` binds them, or
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
             for blk, reads, writes, _ in blocks]
    infos += [(("connector", i), nets_of([src], net_of),
               nets_of([dst], net_of), True)
              for i, (src, dst) in enumerate(structure.copies)]
    outputs = {blk: outs for blk, _, _, outs in blocks if outs}
    return build_schedule(infos, lambda blk: outputs.get(blk) and (
        comb_output_nets(outputs[blk], net_of)))


def build_schedule(infos, outputs=None):
    """Build a :class:`StaticSchedule` from block descriptions.

    ``infos`` is a list of ``(func, reads, writes, known)`` tuples
    where ``reads``/``writes`` are collections of net objects and
    ``known`` states that ``writes`` bounds every net the block can
    write.  Blocks with ``known=False`` go straight to the event
    partition.  A cyclic SCC among the rest gets a second look by
    output: ``outputs(func)``, asked only of its blocks, is ``[(keys,
    write nets, read nets)]``, per output of the block the nets the
    value it writes there needs (None: one output, the block).  Only
    a block with an output on a cycle of that graph is demoted; the
    others are scheduled at each level their outputs need, one slot
    per level, flagged by what those outputs need.
    """
    n = len(infos)
    nodes = [(i, (), infos[i][1], infos[i][2])
             for i in range(n) if infos[i][3]]
    succ = _successors(nodes)
    static_nodes, cycles = _partition_cyclic(range(len(nodes)), succ)
    loops = {}                      # demoted block -> keys on a cycle
    if cycles:
        keep = [nodes[k] for k in static_nodes]
        for comp in cycles:
            parts = []
            for k in sorted(comp):
                i = nodes[k][0]
                outs = outputs and outputs(infos[i][0])
                parts += [(i, keys, reads, writes)
                          for keys, writes, reads in outs] if outs \
                    else [nodes[k]]
            for cycle in _partition_cyclic(range(len(parts)),
                                           _successors(parts))[1]:
                for p in sorted(cycle):
                    loops.setdefault(parts[p][0], []).extend(parts[p][1])
            keep += [part for part in parts if part[0] not in loops]
        nodes = keep
        succ = _successors(nodes)
        static_nodes = range(len(nodes))

    # Levelize the static subgraph (longest-path level, Kahn-style).
    level = [0] * len(nodes)
    indeg = [0] * len(nodes)
    for u in static_nodes:
        for v in succ[u]:
            indeg[v] += 1
    queue = sorted(k for k in static_nodes if indeg[k] == 0)
    order_idx = []
    qpos = 0
    while qpos < len(queue):
        u = queue[qpos]
        qpos += 1
        order_idx.append(u)
        for v in succ[u]:
            if level[v] < level[u] + 1:
                level[v] = level[u] + 1
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    assert len(order_idx) == len(static_nodes), \
        "levelization failed on an acyclic subgraph"
    # Stable order: by (level, declaration index) so runs are
    # reproducible regardless of set iteration order.  A block's
    # outputs at one level share one slot.
    order_idx.sort(key=lambda k: (level[k], nodes[k][0]))
    slots = []                      # [block, level, [read nets...]]
    for k in order_idx:
        i = nodes[k][0]
        if slots and slots[-1][:2] == [i, level[k]]:
            slots[-1][2].append(nodes[k][2])
        else:
            slots.append([i, level[k], [nodes[k][2]]])

    order = [infos[i][0] for i, _, _ in slots]
    levels = [lvl for _, lvl, _ in slots]
    static_set = {i for i, _, _ in slots}
    event_funcs = [infos[i][0] for i in range(n) if i not in static_set]
    demoted = {infos[i][0]: tuple(keys) for i, keys in sorted(loops.items())}
    split = sum(count > 1 for count in Counter(
        i for i, _, _ in slots).values())

    # net -> slots in `order` that must re-run when the net changes.
    reader_map = {}
    for slot, (_, _, reads) in enumerate(slots):
        for net in (net for nets in reads for net in nets):
            got = reader_map.setdefault(id(net), (net, []))[1]
            if not got or got[-1] != slot:
                got.append(slot)
    reader_map = {key: (net, tuple(got))
                  for key, (net, got) in reader_map.items()}
    return StaticSchedule(order, levels, event_funcs, demoted, reader_map,
                          split)


def _successors(nodes):
    """Per node ``(block, keys, reads, writes)``, the sorted nodes that
    read a net it writes (itself included)."""
    readers_of = {}
    for k, node in enumerate(nodes):
        for net in node[2]:
            readers_of.setdefault(id(net), []).append(k)
    return [tuple(sorted({v for net in node[3]
                          for v in readers_of.get(id(net), ())}))
            for node in nodes]


def _partition_cyclic(nodes, succ):
    """``(acyclic nodes, cyclic SCCs)`` of ``nodes`` (Tarjan,
    iterative — designs can be deep)."""
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
    cycles = []
    for comp in sccs:
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            cycles.append(comp)
        else:
            static_nodes.extend(comp)
    return static_nodes, cycles
