"""Elaboration: turn a model description into a simulatable instance.

Elaboration (paper Figure 3) walks the hierarchy built by the user's
constructors and produces an in-memory design representation that the
tools (simulator, translator, SimJIT) consume:

1. every signal and submodel gets a hierarchical name and parent link;
2. ``clk``/``reset`` propagate implicitly from parent to child;
3. full-signal connections are merged into *nets* (union-find), so all
   signals on a net share one storage slot;
4. slice connections and constant ties become directional *connector*
   specs (the driver inferred from port kinds and hierarchy);
5. each ``@combinational`` block gets a sensitivity list inferred by
   static AST analysis of the signals it reads, plus precise
   read/write sets used by the simulator's static scheduling pass;
   each tick block learns whether it is gateable.

The result is stored on the top model: ``_all_models``, ``_all_signals``,
``_all_nets``, ``_connectors``, ``_const_ties``.

Block analysis: shape vs. binding
---------------------------------

A behavioural block is analysed in two layers:

- its *shape* (:func:`block_shape`) is what the source says — write
  targets, load chains, call sites, aliasing locals, the constructs a
  gateable tick may not contain — as access paths rooted at the names
  that denote the model.  It is a pure function of the function's AST
  and of those names, so it is parsed and walked once per code object
  however many instances run it; this is the only place block source
  is read, and the ``FunctionDef`` it holds is the one the IR
  translator (``ast_ir``) lowers.
- the *binding* (``_analyze_block`` / ``_analyze_tick``) resolves
  those paths against one live instance and applies the policy of the
  block's kind.  Dynamic indices widen to every element of the indexed
  list, so two instances with different port counts share a shape and
  differ only here.

Sensitivity vs. read/write analysis
-----------------------------------

A combinational block's binding yields two related results:

- the *sensitivity list* (``blk.signals``) drives the event-driven
  simulator: the block re-executes when any listed signal's net
  changes.  It deliberately over-approximates — e.g. a write to
  ``s.enq.rdy.value`` leaves the ``s.enq`` prefix in the list, so the
  whole bundle counts as read — because extra triggers only cost
  re-execution, never correctness.
- the *read/write sets* (``blk.reads`` / ``blk.writes``) feed the
  static scheduler, which needs them tight: phantom bundle-prefix
  "reads" would manufacture cycles in the block dataflow graph (a
  queue's ``rdy`` driver would appear to read the very handshake it
  drives).  Reads therefore exclude pure assignment-target prefixes,
  and writes resolve every statically-visible assignment target.
  When a block's writes cannot be bounded statically (writes through
  local aliases, calls into non-signal model attributes, unavailable
  source), ``blk.writes_known`` is False and the simulator schedules
  the block event-driven.

A tick block's binding decides ``blk.gateable``: only ``.next``
writes, and every load resolving to signals or immutable constants.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import weakref

from .model import MAX_LIST_DEPTH, Model
from .portbundle import PortBundle
from .signals import InPort, OutPort, Signal, Wire, _SignalSlice


class ElaborationError(Exception):
    """Raised for malformed structure (width mismatches, bad drivers)."""


def elaborate(top):
    """Elaborate ``top`` as the root of a design hierarchy."""
    if top._elaborated:
        return top
    from ..telemetry import tracing
    with tracing.span("sim.elaborate", design=type(top).__name__):
        return _elaborate(top)


def _elaborate(top):
    if top.name is None:
        top.name = "top"

    _name_model(top)

    all_models = []
    _collect_models(top, all_models)

    # Implicit clk/reset propagation from each parent to its children.
    for model in all_models:
        for child in model._submodels:
            model._connections.append((model.clk, child.clk))
            model._connections.append((model.reset, child.reset))

    connectors = []
    const_ties = []
    for model in all_models:
        for left, right in model._connections:
            _process_connection(model, left, right, connectors, const_ties)

    all_signals = []
    for model in all_models:
        all_signals.extend(model.get_signals())

    # Collapse union-find chains: each signal points directly at its root
    # net so simulation-time reads skip the find().
    nets = {}
    for sig in all_signals:
        root = sig._net.find()
        sig._net = root
        nets[id(root)] = root
    all_nets = list(nets.values())

    for model in all_models:
        for blk in model._comb_blocks:
            if not blk.signals:
                _analyze_block(blk)
        for blk in model._tick_blocks:
            _analyze_tick(blk)

    # Hierarchical telemetry registries: counters/histograms declared
    # via Model.counter()/Model.histogram(), keyed by full dotted name.
    all_counters = {}
    all_histograms = {}
    for model in all_models:
        prefix = model.full_name()
        for cname, ctr in model._telemetry_counters.items():
            all_counters[f"{prefix}.{cname}"] = ctr
        for hname, hist in model._telemetry_histograms.items():
            all_histograms[f"{prefix}.{hname}"] = hist

    top._all_models = all_models
    top._all_signals = all_signals
    top._all_nets = all_nets
    top._connectors = connectors
    top._const_ties = const_ties
    top._all_counters = all_counters
    top._all_histograms = all_histograms
    for model in all_models:
        model._elaborated = True
    return top


# -- naming -------------------------------------------------------------------


def _name_model(model):
    """Assign names/parents to this model's signals, bundles, and
    submodels, recursing into children."""
    for attr_name, attr in list(model.__dict__.items()):
        if attr_name.startswith("_") or attr_name in ("name", "parent"):
            continue
        _name_attr(model, attr_name, attr)
    for child in model._submodels:
        _name_model(child)


def _name_attr(model, name, attr, depth=0):
    # Not ``Model.get_signals``: naming needs the attribute name and
    # list index of every signal, bundle and submodel on the way down.
    if isinstance(attr, Signal):
        attr.name = name
        attr.parent = model
    elif isinstance(attr, PortBundle):
        attr.name = name
        attr.parent = model
        for sig_name, sig in attr.get_named_signals():
            sig.name = f"{name}.{sig_name}"
            sig.parent = model
    elif isinstance(attr, Model):
        if attr.parent is None:
            attr.name = name
            attr.parent = model
            model._submodels.append(attr)
    elif isinstance(attr, list) and depth < MAX_LIST_DEPTH:
        for i, item in enumerate(attr):
            _name_attr(model, f"{name}[{i}]", item, depth + 1)


def _collect_models(model, out):
    out.append(model)
    for child in model._submodels:
        _collect_models(child, out)


# -- connections ---------------------------------------------------------------


def _process_connection(model, left, right, connectors, const_ties):
    # Constant tie: applied once at simulator init.
    if isinstance(left, int) or isinstance(right, int):
        sig, const = (right, left) if isinstance(left, int) else (left, right)
        target = sig.signal if isinstance(sig, _SignalSlice) else sig
        if const >> _width_of(sig):
            raise ElaborationError(
                f"constant {const} too wide for {_describe(sig)}"
            )
        const_ties.append((sig, const))
        return

    if _width_of(left) != _width_of(right):
        raise ElaborationError(
            f"connected widths differ: {_describe(left)} is "
            f"{_width_of(left)}b but {_describe(right)} is {_width_of(right)}b"
        )

    if isinstance(left, Signal) and isinstance(right, Signal):
        # Full connection: merge nets (bidirectional, shared storage).
        root_l = left._net.find()
        root_r = right._net.find()
        if root_l is not root_r:
            root_r.parent = root_l
        return

    # Slice connection: directional connector, driver inferred.
    src, dst = _infer_driver(model, left, right)
    connectors.append((src, dst))


def _width_of(end):
    return end.nbits


def _describe(end):
    if isinstance(end, _SignalSlice):
        return f"{_describe(end.signal)}[{end.lo}:{end.hi}]"
    return f"{type(end).__name__} {end.name or '?'}"


def _drives(model, end):
    """Does this endpoint act as a driver from ``model``'s perspective?

    Standard structural semantics: a child's OutPort and the enclosing
    model's own InPort drive; a child's InPort and the model's own
    OutPort are driven.  Wires are bidirectional (None = unknown).
    """
    sig = end.signal if isinstance(end, _SignalSlice) else end
    inside = sig.parent is model
    if isinstance(sig, Wire):
        return None
    if isinstance(sig, OutPort):
        return not inside
    if isinstance(sig, InPort):
        return inside
    return None


def _infer_driver(model, left, right):
    l_drives = _drives(model, left)
    r_drives = _drives(model, right)
    if l_drives and r_drives:
        raise ElaborationError(
            f"both ends drive: {_describe(left)} <-> {_describe(right)}"
        )
    if l_drives or (r_drives is False):
        return left, right
    if r_drives or (l_drives is False):
        return right, left
    # Two wires sliced together: pick left as driver (documented choice).
    return left, right


# -- block analysis: binding (per instance) ------------------------------------
#
# What a block's source says is its *shape* (next section), computed
# once per function.  The two analysers here are the *binding*: they
# resolve the shape's paths against the live instance and apply the
# policy that differs between combinational and tick blocks.


def _analyze_block(blk):
    """Infer sensitivity (``blk.signals``) and the precise read/write
    sets (``blk.reads``/``blk.writes``/``blk.writes_known``) of a
    combinational block.

    Every attribute/subscript chain rooted at the model reference
    counts; dynamic indices widen to every element of the indexed list
    (a sound superset for both reads and writes).  Falls back to all
    input ports and wires — with the read/write sets marked unknown —
    when the block has no usable source or nothing statically
    readable, which keeps it out of the static schedule.
    """
    model = blk.model
    blk.reads = []
    blk.writes = []
    blk.writes_known = False
    shape = block_shape(blk.func, model)
    if shape is None or not shape.root_names:
        blk.signals = _fallback_sensitivity(model)
        return

    writes = _unique(sig for path, _ in shape.writes
                     for sig in _resolve_path(model, path))
    # Sensitivity and reads exclude self-written signals, mirroring the
    # event simulator's semantics: a block that writes a signal and
    # reads it back sees its own just-written value (write-before-read),
    # which is sequential Python, not combinational feedback.
    written = {id(sig) for sig in writes}
    signals, reads = {}, {}
    for path, spine, _ in shape.loads:
        for sig in _resolve_path(model, path):
            if id(sig) not in written:
                signals[id(sig)] = sig
                if not spine:
                    reads[id(sig)] = sig
    if not signals:
        blk.signals = _fallback_sensitivity(model)
        return
    blk.signals = list(signals.values())
    blk.reads = list(reads.values())
    blk.writes = writes
    # A method call on a model-rooted path that does not resolve to
    # signals may write anything.
    blk.writes_known = (
        not shape.alias_write and not shape.alias_call
        and all(_resolve_path(model, path) for path in shape.calls))


_CONST_TYPES = (int, float, bool, str, bytes, type(None), type)


def _analyze_tick(blk):
    """Decide whether a tick block is *gateable*: a pure function of a
    statically-known signal read set, writing only signals.

    A gateable tick whose reads are unchanged since its last execution
    would recompute exactly the same writes, so the simulator's static
    mode may skip it — the bulk of per-cycle time in large designs is
    idle registers re-evaluating to themselves.  The analysis is
    deliberately conservative: any construct that could smuggle state
    across invocations (reads of non-signal model attributes, writes
    through aliases, generator/coroutine bodies, bare references to the
    model object) leaves ``gateable`` False and the block runs every
    cycle, exactly as in event mode.
    """
    blk.reads = []
    blk.writes = []
    blk.gateable = False
    model = blk.model
    shape = block_shape(blk.func, model)
    if (shape is None or not shape.root_names or shape.opaque
            or shape.alias_write or shape.alias_call):
        return
    # Only registered updates are gateable: a ``.value`` write (or a
    # rebind of a model container slot) takes effect immediately and
    # may interleave with other writers.
    if not all(is_next for _, is_next in shape.writes):
        return
    if not all(_resolve_path(model, path) for path in shape.calls):
        return                      # method on non-signal model state

    writes = []
    for path, _ in shape.writes:
        sigs = _resolve_path(model, path)
        if not sigs:
            return                  # writes plain model state
        writes.extend(sigs)

    # Every maximal model-rooted load must resolve to signals or
    # immutable constants; inner prefixes (bundles, submodels) are
    # covered by the outer chain.
    reads = []
    for path, spine, maximal in shape.loads:
        if spine or not maximal:
            continue
        objs = _walk_path(model, path)
        if not objs:
            return                  # unresolvable (dynamic attribute)
        for obj in objs:
            if isinstance(obj, _SignalSlice):
                reads.append(obj.signal)
            elif isinstance(obj, Signal):
                reads.append(obj)
            elif isinstance(obj, PortBundle):
                reads.extend(obj.get_signals())
            elif isinstance(obj, list):
                if not all(isinstance(s, Signal) for s in obj):
                    return
                reads.extend(obj)
            elif not isinstance(obj, _CONST_TYPES):
                return              # mutable non-signal state

    blk.reads = _unique(reads)
    blk.writes = _unique(writes)
    blk.gateable = True


def _unique(signals):
    """``signals`` without repeats, first occurrence first."""
    return list({id(sig): sig for sig in signals}.values())


# -- block analysis: shape (per function) --------------------------------------


_OPAQUE_NODES = (ast.Yield, ast.YieldFrom, ast.Await, ast.Global,
                ast.Nonlocal, ast.Lambda, ast.FunctionDef,
                ast.AsyncFunctionDef)


class _BlockShape:
    """Everything block analysis learns from a block's source alone:
    a pure function of the function's AST and of which names in it
    denote the model, shared by every instance that runs that code.

    ``writes``   model-rooted assignment targets, ``(path, is_next)``
    ``loads``    model-rooted Load chains, ``(path, spine, maximal)``:
                 ``spine`` marks the prefix of a plain assignment
                 target, ``maximal`` a chain that is no prefix of a
                 longer one
    ``calls``    model-rooted paths whose attribute is called
    ``alias_write`` / ``alias_call``
                 a write through / a non-accessor method call on a
                 local that may alias a model object
    ``opaque``   constructs that can carry state past the read set: a
                 nested scope, ``yield``/``await``, the bare model
                 name, a dereference of a possibly-aliasing local, a
                 callee that is neither a name nor an attribute

    ``func_def`` (decorators stripped: ``@s.tick_rtl`` would read as
    a bound-method access on the model) is also what
    :class:`~.ast_ir.BlockTranslator` lowers.  Nothing here may be
    mutated after construction.
    """

    def __init__(self, func_def, root_names):
        self.func_def = func_def
        self.root_names = root_names

        chains, names, calls, assigns, bindings = [], [], [], [], []
        opaque = False
        for node in ast.walk(func_def):
            if isinstance(node, (ast.Attribute, ast.Subscript)):
                chains.append(node)
            elif isinstance(node, ast.Name):
                names.append(node)
            elif isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, ast.Assign):
                assigns.append((node.targets, True))
                bindings.append((node.value, node.targets))
            elif isinstance(node, ast.AnnAssign):
                assigns.append(([node.target], True))
                bindings.append((node.value, [node.target]))
            elif isinstance(node, ast.AugAssign):
                # Augmented assignment reads its target: its spine
                # stays visible as a load.
                assigns.append(([node.target], False))
            elif isinstance(node, ast.NamedExpr):
                bindings.append((node.value, [node.target]))
            elif isinstance(node, (ast.For, ast.AsyncFor,
                                   ast.comprehension)):
                bindings.append((node.iter, [node.target]))
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    bindings.append(
                        (node.context_expr, [node.optional_vars]))
            elif isinstance(node, _OPAQUE_NODES) and node is not func_def:
                opaque = True

        tainted = _tainted_locals(bindings, root_names)
        chain_bases = {id(node.value) for node in chains}

        # The "spine" of a target like ``s.enq.rdy.value`` is the chain
        # of attribute/subscript nodes down to the root name.  Its
        # inner nodes carry Load context, so they would otherwise count
        # ``s.enq`` as a read of the whole bundle — a phantom read that
        # must not reach the precise read set.  Subscript *index*
        # expressions are not part of the spine; they are genuine reads.
        spine_ids = set()
        writes = {}
        self.alias_write = False
        for targets, plain in assigns:
            for target in _flatten_targets(targets):
                if isinstance(target, ast.Name):
                    continue            # local variable: no signal write
                path = _extract_path(target, root_names, any_ctx=True)
                if path is None:
                    # A write into a pure local container
                    # (``routes[i] = ...``) is no signal write; one
                    # through a possible alias of a model object may
                    # reach a signal that is not statically visible.
                    root = _root_name(target)
                    if root is None or root in tainted:
                        self.alias_write = True
                    continue
                is_next = (isinstance(target, ast.Attribute)
                           and target.attr == "next")
                writes[path, is_next] = None
                if plain:
                    _mark_spine(target, spine_ids)
        self.writes = tuple(writes)

        # Calls through bare names (``int``, ``len``, ``concat``, module
        # helpers) are assumed pure.  Whether a method call on a
        # model-rooted path is a value accessor on a signal
        # (``s.count.uint()``) or may write anything (``s.helper()``,
        # ``s.buf.popleft()``) depends on the instance: ``calls``.
        call_paths = {}
        self.alias_call = False
        for node in calls:
            func = node.func
            if isinstance(func, ast.Name):
                continue
            if not isinstance(func, ast.Attribute):
                opaque = True
                continue
            path = _extract_path(func, root_names, any_ctx=True)
            if path is not None:
                call_paths[path] = None
            elif (_root_name(func) in tainted
                    and func.attr not in _VALUE_ATTRS):
                self.alias_call = True
        self.calls = tuple(call_paths)

        loads = {}
        for node in chains:
            path = _extract_path(node, root_names)
            if path is not None:
                loads[path, id(node) in spine_ids,
                      id(node) not in chain_bases] = None
        self.loads = tuple(loads)

        self.opaque = (
            opaque
            or any(_root_name(node) in tainted for node in chains)
            or any(node.id in root_names and id(node) not in chain_bases
                   for node in names))


# id(code object) -> (FunctionDef or None, {root names: _BlockShape}).
# Keyed by identity — equal code objects need not come from equal
# source — and dropped with the code object, so one-shot generated
# blocks leave nothing behind.
_block_sources = {}


def block_shape(func, model):
    """The :class:`_BlockShape` of ``func`` run as a block of
    ``model``, or None when the block has no usable source (none
    retrievable, or not a plain ``def``).  The only place block source
    is read and parsed: once per code object."""
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    entry = _block_sources.get(id(code))
    if entry is None:
        func_def = None
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        except (OSError, TypeError, SyntaxError):
            pass
        else:
            if isinstance(tree.body[0], ast.FunctionDef):
                func_def = tree.body[0]
                func_def.decorator_list = []
        entry = _block_sources[id(code)] = (func_def, {})
        weakref.finalize(code, _block_sources.pop, id(code), None)
    func_def, shapes = entry
    if func_def is None:
        return None
    root_names = _model_ref_names(func, model)
    shape = shapes.get(root_names)
    if shape is None:
        shape = shapes[root_names] = _BlockShape(func_def, root_names)
    return shape


def _flatten_targets(targets):
    """Expand tuple/list/starred assignment targets into leaves."""
    leaves = []
    stack = list(targets)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        else:
            leaves.append(node)
    return leaves


def _mark_spine(target, spine_ids):
    """Record the attribute/subscript chain of an assignment target so
    it is not taken for a read (indices stay readable)."""
    cur = target
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        spine_ids.add(id(cur))
        cur = cur.value


def _root_name(node):
    """The root ``Name`` id of an attribute/subscript chain, or None
    when the chain is rooted in something else (a call result, etc.)."""
    cur = node
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        cur = cur.value
    return cur.id if isinstance(cur, ast.Name) else None


def _tainted_locals(bindings, root_names):
    """Local names that may alias model-owned objects (signals,
    bundles, submodels), given every ``(value, targets)`` binding in
    the block.

    A write through an untainted local (``routes[i] = ...``) is a pure
    Python container update; a write through a tainted one may reach a
    signal, so the block's write set is unknown.  Taint flows from
    model-rooted paths, call results (conservative), other tainted
    names, and ``for`` targets whose iterable is not a plain
    ``range``/``enumerate``/``zip`` over untainted values.
    """
    def expr_taints(node, tainted):
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root = _root_name(node)
            return root is None or root in root_names or root in tainted
        if isinstance(node, ast.Name):
            return node.id in root_names or node.id in tainted
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                    "range", "enumerate", "zip", "len", "min", "max",
                    "int", "bool", "abs"):
                return any(expr_taints(a, tainted) for a in node.args)
            return True
        if isinstance(node, ast.IfExp):
            return (expr_taints(node.body, tainted)
                    or expr_taints(node.orelse, tainted))
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(expr_taints(e, tainted) for e in node.elts)
        if isinstance(node, ast.Starred):
            return expr_taints(node.value, tainted)
        return False

    tainted = set()
    # Flow-insensitive fixpoint: taint propagates through chained
    # local assignments regardless of statement order.
    while True:
        before = len(tainted)
        for value, targets in bindings:
            if value is None or not expr_taints(value, tainted):
                continue
            for target in _flatten_targets(targets):
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
        if len(tainted) == before:
            return tainted


def _model_ref_names(func, model):
    """Names in the function's closure/globals bound to the model."""
    names = set()
    code = func.__code__
    if func.__closure__:
        for var, cell in zip(code.co_freevars, func.__closure__):
            try:
                if cell.cell_contents is model:
                    names.add(var)
            except ValueError:
                pass
    for var, val in func.__globals__.items():
        if val is model:
            names.add(var)
    return frozenset(names)


_VALUE_ATTRS = {"value", "next", "uint", "int"}
_WILDCARD = "*"


def _extract_path(node, root_names, any_ctx=False):
    """If ``node`` is a read of ``<root>.a[i].b...``, return the access
    path as a tuple; otherwise None.  Only Load contexts count unless
    ``any_ctx`` is set (used for assignment targets)."""
    if not isinstance(node, (ast.Attribute, ast.Subscript)):
        return None
    if not any_ctx and not isinstance(getattr(node, "ctx", None), ast.Load):
        return None
    parts = []
    cur = node
    while True:
        if isinstance(cur, ast.Attribute):
            parts.append(("attr", cur.attr))
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            idx = cur.slice
            if isinstance(idx, ast.Constant) and isinstance(idx.value, int):
                parts.append(("index", idx.value))
            else:
                parts.append(("index", _WILDCARD))
            cur = cur.value
        elif isinstance(cur, ast.Name):
            if cur.id in root_names:
                parts.reverse()
                # Strip trailing .value/.next/.uint accessor.
                while parts and parts[-1][0] == "attr" \
                        and parts[-1][1] in _VALUE_ATTRS:
                    parts.pop()
                return tuple(parts) if parts else None
            return None
        else:
            return None


def _walk_path(model, path):
    """Resolve an access path against the live model, returning the
    raw objects it reaches."""
    objs = [model]
    for kind, key in path:
        next_objs = []
        for obj in objs:
            if isinstance(obj, (Signal, _SignalSlice)):
                # Deeper access on a signal (slices, struct fields) still
                # reads the same underlying signal.
                next_objs.append(obj)
                continue
            if kind == "attr":
                try:
                    got = getattr(obj, key)
                except AttributeError:
                    continue
                next_objs.append(got)
            else:
                if isinstance(obj, list):
                    if key == _WILDCARD:
                        next_objs.extend(obj)
                    elif isinstance(key, int) and key < len(obj):
                        next_objs.append(obj[key])
        objs = next_objs
    return objs


def _resolve_path(model, path):
    """Resolve an access path against the live model, returning the
    signals it touches."""
    signals = []
    for obj in _walk_path(model, path):
        if isinstance(obj, _SignalSlice):
            signals.append(obj.signal)
        elif isinstance(obj, Signal):
            signals.append(obj)
        elif isinstance(obj, PortBundle):
            signals.extend(obj.get_signals())
        elif isinstance(obj, list):
            signals.extend(s for s in obj if isinstance(s, Signal))
    return signals


def _fallback_sensitivity(model):
    return model.get_inports() + model.get_wires()
