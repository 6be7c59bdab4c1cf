"""Elaboration: turn a model description into a simulatable instance.

Elaboration (paper Figure 3) walks the hierarchy built by the user's
constructors and produces an in-memory design representation that the
tools (simulator, translator, SimJIT) consume:

1. every signal and submodel gets a hierarchical name and parent link,
   and each model records which attributes held them (``_structural``,
   what a checkpoint skips);
2. ``clk``/``reset`` propagate implicitly from parent to child;
3. full-signal connections are merged into *nets* (union-find), so all
   signals on a net share one storage slot;
4. slice connections and constant ties become directional *connector*
   specs (the driver inferred from port kinds and hierarchy).

Steps 3 and 4 read ``_connections`` through :func:`read_connections`,
the one reader of a design's structure: the static scheduler of an
un-elaborated design (:func:`~.scheduling.unelaborated_schedule`) and
the Verilog translator read the same merges, copies and ties from it.

The result is stored on the top model: ``_all_models``, ``_all_signals``,
``_all_nets``, ``_connectors``, ``_const_ties``.

Elaboration does not analyse behavioural blocks.  What a block reads
and writes is its *body*'s (:mod:`.bodies`: one lowering per block
body, bound per instance), and :class:`~.simulation.SimulationTool`
derives its schedule, tick gating and event sensitivity from that.
This module keeps the parse-once front end: :func:`block_shape` reads
and parses a block's source once per code object and hands
:class:`~.ast_ir.BlockTranslator` the ``FunctionDef`` and the names
that denote the model.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import weakref
from operator import attrgetter

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

    structure = read_connections(all_models)
    # Full connections share storage: merge the nets, the left end's
    # root winning.
    for left, right in structure.merges:
        root_l = left._net.find()
        root_r = right._net.find()
        if root_l is not root_r:
            root_r.parent = root_l

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
    top._connectors = structure.copies
    top._const_ties = structure.ties
    top._all_counters = all_counters
    top._all_histograms = all_histograms
    for model in all_models:
        model._elaborated = True
    return top


# -- naming -------------------------------------------------------------------


def _name_model(model):
    """Assign names/parents to this model's signals, bundles, and
    submodels, recursing into children.  Records in
    ``model._structural`` the attributes that hold any of them
    (directly or in a list) and the ``_``-prefixed bookkeeping: a
    checkpoint skips those names untested."""
    structural = []
    for attr_name, attr in list(model.__dict__.items()):
        if attr_name.startswith("_"):
            structural.append(attr_name)
        elif (attr_name not in ("name", "parent")
                and _name_attr(model, attr_name, attr)):
            structural.append(attr_name)
    model._structural = frozenset(structural)
    for child in model._submodels:
        _name_model(child)


def _name_attr(model, name, attr, depth=0):
    """Name what ``attr`` holds; True when it holds a signal, bundle or
    model."""
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
        found = False
        for i, item in enumerate(attr):
            found |= _name_attr(model, f"{name}[{i}]", item, depth + 1)
        return found
    else:
        return False
    return True


def _collect_models(model, out):
    out.append(model)
    for child in model._submodels:
        _collect_models(child, out)


# -- connections ---------------------------------------------------------------


class Structure:
    """What a list of models' ``_connections`` say
    (:func:`read_connections`): ``merges``, the full-signal pairs in
    order; ``copies``, each slice connection as its ``(src, dst)``;
    ``ties``, each constant as its ``(end, const)``."""

    __slots__ = ("merges", "copies", "ties", "_root")

    def __init__(self):
        self.merges, self.copies, self.ties = [], [], []
        self._root = None           # id(signal) -> a signal of its net

    def net_of(self, sig):
        """The signal standing for ``sig``'s net: the root the merges
        elect, as ``_Net.find`` does when elaboration applies them (the
        left end's root wins).  The union-find is built on first use:
        elaboration, which merges ``_Net`` objects, never asks."""
        if self._root is None:
            self._root = {}
            for left, right in self.merges:
                a, b = self.net_of(left), self.net_of(right)
                if a is not b:
                    self._root[id(b)] = a
        root = self._root
        top = root.get(id(sig), sig)
        while top is not sig:
            sig, top = top, root.get(id(top), top)
        return top

    def groups(self):
        """The merged signals by net: each net a list in first-seen
        order, the nets in the order their first member is seen."""
        groups = {}
        for sig in {id(sig): sig for pair in self.merges
                    for sig in pair}.values():
            groups.setdefault(id(self.net_of(sig)), []).append(sig)
        return list(groups.values())


def read_connections(models, parent_of=attrgetter("parent")):
    """The one reading of ``models``' ``_connections``, as a
    :class:`Structure`.  Widths must agree and a constant fit its end
    (:class:`ElaborationError`); a slice connection's driver is
    inferred (:func:`infer_driver`, whose ``parent_of`` this passes
    on: the default once the design is named).  Elaboration applies
    the merges to the signals' nets; the scheduler of an un-elaborated
    design and the Verilog translator read the nets off the
    :class:`Structure`."""
    structure = Structure()
    for model in models:
        for pair in model._connections:
            left, right = pair
            if isinstance(left, int) or isinstance(right, int):
                end, const = ((right, left) if isinstance(left, int)
                              else (left, right))
                if const >> end.nbits:
                    raise ElaborationError(
                        f"constant {const} too wide for {_describe(end)}")
                structure.ties.append((end, const))
            elif left.nbits != right.nbits:
                raise ElaborationError(
                    f"connected widths differ: {_describe(left)} is "
                    f"{left.nbits}b but {_describe(right)} is "
                    f"{right.nbits}b")
            elif isinstance(left, Signal) and isinstance(right, Signal):
                structure.merges.append(pair)
            else:
                structure.copies.append(
                    infer_driver(model, left, right, parent_of))
    return structure


def _describe(end):
    if isinstance(end, _SignalSlice):
        return f"{_describe(end.signal)}[{end.lo}:{end.hi}]"
    return f"{type(end).__name__} {end.name or '?'}"


def _drives(model, end, parent_of):
    """Does this endpoint act as a driver from ``model``'s perspective?

    Standard structural semantics: a child's OutPort and the enclosing
    model's own InPort drive; a child's InPort and the model's own
    OutPort are driven.  Wires are bidirectional (None = unknown).
    """
    sig = end.signal if isinstance(end, _SignalSlice) else end
    inside = parent_of(sig) is model
    if isinstance(sig, Wire):
        return None
    if isinstance(sig, OutPort):
        return not inside
    if isinstance(sig, InPort):
        return inside
    return None


def infer_driver(model, left, right, parent_of=attrgetter("parent")):
    """``(src, dst)`` of the slice connection ``model`` declares between
    ``left`` and ``right``.  ``parent_of(sig)`` is the model declaring
    a signal: its ``parent`` once the design is named, and what the
    caller knows before that."""
    l_drives = _drives(model, left, parent_of)
    r_drives = _drives(model, right, parent_of)
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


# -- block source --------------------------------------------------------------


# id(code object) -> FunctionDef or None.  Keyed by identity — equal
# code objects need not come from equal source — and dropped with the
# code object, so one-shot generated blocks leave nothing behind.
_block_sources = {}


def block_shape(func, model):
    """``(func_def, root_names)`` of ``func`` run as a block of
    ``model``: its ``FunctionDef`` (decorators stripped: ``@s.tick_rtl``
    would read as a bound-method access on the model) and the names in
    its closure and globals that denote the model — or None when the
    block has no usable source (none retrievable, or not a plain
    ``def``).  The only place block source is read and parsed: once
    per code object.  Nothing may mutate the ``FunctionDef``."""
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    if id(code) not in _block_sources:
        func_def = None
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        except (OSError, TypeError, SyntaxError):
            pass
        else:
            if isinstance(tree.body[0], ast.FunctionDef):
                func_def = tree.body[0]
                func_def.decorator_list = []
        _block_sources[id(code)] = func_def
        weakref.finalize(code, _block_sources.pop, id(code), None)
    func_def = _block_sources[id(code)]
    if func_def is None:
        return None
    return func_def, _model_ref_names(func, model)


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
