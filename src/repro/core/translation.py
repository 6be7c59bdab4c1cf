"""TranslationTool: PyMTL RTL models → synthesizable Verilog-2001.

The HDL path of the framework (paper Sections III-B and the
``--test-verilog`` flow of Figure 4): an elaborated RTL model hierarchy
is translated module-by-module into Verilog source that an EDA flow can
consume.  Each block body's IR (:mod:`repro.core.bodies`) is printed
once, as an always block whose holes every instance fills; structure
(ports, wires, submodule instances, net connectivity, slice
connections, constant ties) is emitted from the elaborated instance,
each module's nets, copies and ties as elaboration's one reader of
``_connections`` (:func:`~.elaboration.read_connections`) gives them
for that model alone.

Characteristics and limits (documented in DESIGN.md):

- structural models are translatable whenever their leaf modules are;
- lists of signals become Verilog arrays; dynamically-indexed lists of
  *child ports* become shadow arrays with explicit copies;
- instances whose text is equal but for ints are one module: an int
  the same in all of them is its literal, one that varies a
  ``parameter`` each instance sets with ``#(...)``, so a 64-router mesh
  emits one router module definition.  Equal texts are deduplicated;
- ``break``/``continue`` and plain-attribute CL state are rejected
  (outside the synthesizable subset).

No Verilog simulator ships in this environment, so the tool validates
structure (balanced blocks, single drivers, declared identifiers) with
its own lint pass rather than by co-simulation.
"""

from __future__ import annotations

import hashlib
import re

from . import bodies
from .ast_ir import (
    AssignLocal,
    AssignSig,
    AssignState,
    BinOp,
    BoolOp,
    Break,
    Cmp,
    Concat,
    Const,
    Continue,
    DeclLocalArray,
    For,
    If,
    IfExp,
    LocalRead,
    SigRead,
    StateRead,
    TranslationError,
    UnOp,
    Wrap,
)
from .elaboration import elaborate, read_connections
from .signals import InPort, OutPort, Signal, _SignalSlice


def translate(model):
    """Translate an elaborated model hierarchy to Verilog source."""
    return TranslationTool(model).verilog


class TranslationTool:
    """Generates Verilog-2001 for a model and its whole hierarchy."""

    def __init__(self, model):
        if not model.is_elaborated():
            elaborate(model)
        self.model = model
        self._irs = {}             # block body -> (ir, hole_of)
        self._templates = {}       # block body -> its always block
        self._groups = {}          # key -> [_ModuleEmitter], leaves first
        top = self._translate_model(model)
        modules = {}               # text digest -> module text
        for members in self._groups.values():
            _settle(members, modules)
        self.top_module = top.header
        header = (
            "//" + "-" * 70 + "\n"
            f"// Generated by repro.TranslationTool\n"
            f"// Top module: {self.top_module}\n"
            "//" + "-" * 70 + "\n\n"
        )
        self.verilog = header + "\n\n".join(modules.values())

    def to_file(self, path):
        """Write the generated Verilog to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.verilog)
        return path

    # -- per-model translation ----------------------------------------------

    def _translate_model(self, model):
        children = [self._translate_model(child)
                    for child in model.get_submodels()]
        inst = _ModuleEmitter(model, children, self)
        inst.emit()
        inst.key = hashlib.sha256(repr(
            (inst.text, [(c.key, c.consts) for c in children])
        ).encode()).digest()
        self._groups.setdefault(inst.key, []).append(inst)
        return inst

    def _block(self, blk, kind):
        """``(name, body, holes, template)``: ``blk``'s function name,
        body and holes, and the body's always block
        (:class:`_VerilogBackend`), printed the first time the body is
        met."""
        try:
            body, holes, ir, hole_of = bodies.lowered(blk, self._irs)
        except bodies.Refused as exc:
            raise TranslationError(f"{blk.name}: {exc}") from None
        if body.c is None:              # computed wide, it would differ
            raise TranslationError(f"{blk.name}: {body.refused}")
        if body not in self._templates:
            self._templates[body] = _VerilogBackend(hole_of).block(ir, kind)
        return blk.func.__name__, body, holes, self._templates[body]


def _settle(members, modules):
    """Print the module the instances ``members`` share into
    ``modules``: an int the same in each is its literal, one that varies
    a ``parameter`` (one per distinct column of values) that each
    member's ``header`` sets."""
    first = members[0]
    printed, params = {}, {}    # column of values -> parameter
    for key in first.consts:
        col = tuple(m.consts[key] for m in members)
        printed[key] = (_vint(col[0]) if len(set(col)) == 1
                        else params.setdefault(col, key))
    text = re.sub(r"\x01(\w+)\x01|\x02(\d+)\x02", lambda m: printed[m[1]]
                  if m[1] else first.children[int(m[2])].header, first.text)
    if params:
        ports, sep, rest = text.partition("\n);\n")
        text = ports + sep + "".join(
            f"  parameter {p} = {_vint(first.consts[p])};\n"
            for p in params.values()) + rest
    digest = hashlib.sha256(text.encode()).hexdigest()[:8]
    name = f"{type(first.model).__name__}_{digest}"
    modules.setdefault(digest, text.replace("%MODNAME%", name))
    for m in members:
        m.header = name + (" #(" + ", ".join(
            f".{p}({_vint(m.consts[p])})" for p in params.values()) + ")"
            if params else "")


class _ModuleEmitter:
    """Emits one model instance's module ``text`` before its ints are
    settled: ``\\1<p>\\1`` marks the int ``consts[p]`` (``p`` names the
    parameter it is if it varies between the instances of the module),
    ``\\2<k>\\2`` the module of ``children[k]`` (their emitters).
    :func:`_settle` sets the ``header`` a parent instantiates it with."""

    def __init__(self, model, children, tool):
        self.model = model
        self.children = children
        self.tool = tool
        self.driven_outputs = set()
        self._vnames = {}          # id(signal) -> verilog name
        self._extra_wires = []
        self._uid = 0
        self.array_slot = {}       # id(signal) -> (array name, index)
        self._shadow_arrays = []
        self._shadow_uid = 0
        self.consts = {}           # parameter name -> int

    # -- naming helpers ----------------------------------------------------------

    def _mangle(self, name):
        return (name.replace(".", "__").replace("[", "_")
                .replace("]", ""))

    def _vname(self, sig):
        """Verilog name for a signal visible in this module's scope."""
        key = id(sig)
        if key in self._vnames:
            return self._vnames[key]
        if sig.parent is self.model:
            name = self._mangle(sig.name)
        else:
            # A child's port referenced directly: dedicated wire.
            owner = sig.parent.name if sig.parent else "anon"
            name = self._mangle(f"{owner}__{sig.name}")
            self._extra_wires.append((name, sig))
        self._vnames[key] = name
        return name

    # -- main emission ----------------------------------------------------------------

    def emit(self):
        model = self.model

        # Bind behavioral blocks first: they decide which signals are
        # regs and which dynamic arrays are needed.
        blocks = [self.tool._block(blk, "comb")
                  for blk in model.get_comb_blocks()]
        for blk in model.get_tick_blocks():
            if blk.level != "rtl":
                raise TranslationError(
                    f"{blk.name}: only RTL blocks are "
                    f"Verilog-translatable (got '{blk.level}')"
                )
            blocks.append(self.tool._block(blk, "tick"))
        written = {id(sig) for _, body, holes, _ in blocks
                   for sig in bodies.signals(holes, body.writes)}

        # Identify signal-list attributes that become Verilog arrays —
        # only lists the behavioral blocks actually touch.
        referenced = {id(sig) for _, body, holes, _ in blocks
                      for sig in bodies.signals(
                          holes, body.reads + body.writes)}
        array_lists = {
            name: sigs
            for name, sigs in self._find_signal_lists(model).items()
            if any(id(s) in referenced for s in sigs)
        }
        in_arrays = {id(s) for sigs in array_lists.values() for s in sigs}

        # Port declarations.
        port_decls = ["  input  wire clk", "  input  wire reset"]
        for port in model.get_inports():
            if port.name in ("clk", "reset"):
                continue
            port_decls.append(
                f"  input  wire {_range(port.nbits)}{self._vname(port)}")
        for port in model.get_outports():
            kind = "reg " if id(port) in written \
                and id(port) not in in_arrays else "wire"
            port_decls.append(
                f"  output {kind} {_range(port.nbits)}{self._vname(port)}")

        body = []

        # Wire/reg declarations for plain wires.
        for wire in model.get_wires():
            if id(wire) in in_arrays:
                continue
            kind = "reg " if id(wire) in written else "wire"
            body.append(f"  {kind} {_range(wire.nbits)}"
                        f"{self._vname(wire)};")

        # Arrays for signal lists.
        array_info = self._declare_arrays(array_lists, body)

        # Structural connectivity.
        self._emit_structure(body, written)

        # Behavioral blocks; an int is named for its block, by position
        # where one function makes two.
        names = [name for name, *_ in blocks]
        for b, (name, _, holes, template) in enumerate(blocks):
            body.append("")
            body.append(self._fill(
                name if names.count(name) == 1 else f"{name}{b}",
                template, holes))

        # Copies between flat ports and shadow arrays.
        self._emit_array_copies(array_info, body)

        # Extra wires for directly-referenced child ports.
        decls = {}
        for name, sig in self._extra_wires:
            decls.setdefault(name, f"  wire {_range(sig.nbits)}{name};")
        self.text = "\n".join(["module %MODNAME%", "(", ",\n".join(port_decls),
                               ");", *decls.values(), *body, "endmodule"])

    # -- behavioral blocks ---------------------------------------------------

    def _fill(self, name, template, holes):
        """Block ``name``'s always block: its body's ``template`` with
        this instance's ``holes`` (:class:`_VerilogBackend`), after the
        shadow arrays it needed."""
        pieces = template.split("\0")
        for i in range(1, len(pieces), 2):
            code, h = pieces[i][0], int(pieces[i][1:])
            if code == "k":
                self.consts[f"{name}_k{h}"] = int(holes[h])
                pieces[i] = f"\1{name}_k{h}\1"
            elif code == "s":
                slot = self.array_slot.get(id(holes[h]))
                pieces[i] = (f"{slot[0]}[{slot[1]}]" if slot
                             else self._vname(holes[h]))
            else:
                pieces[i] = self._dynamic_array(holes[h], code == "w")
        lines = []
        for arr, signals, writing in self._shadow_arrays:
            lines.append(
                f"  reg {_range(signals[0].nbits)}{arr} "
                f"[0:{len(signals) - 1}];")
            if writing:
                lines.extend(f"  assign {self._vname(sig)} = {arr}[{i}];"
                             for i, sig in enumerate(signals))
            else:
                lines.append("  always @(*) begin")
                lines.extend(f"    {arr}[{i}] = {self._vname(sig)};"
                             for i, sig in enumerate(signals))
                lines.append("  end")
        self._shadow_arrays = []
        return "\n".join([*lines, "".join(pieces)])

    def _dynamic_array(self, signals, writing):
        """The array a dynamic index into ``signals`` selects from."""
        slot = self.array_slot.get(id(signals[0]))
        if slot is not None:
            return slot[0]
        # Dynamic reference to child ports: shadow array.
        for arr, known, _ in self._shadow_arrays:
            if list(map(id, known)) == list(map(id, signals)):
                return arr
        arr = f"shadow_{self._shadow_uid}"
        self._shadow_uid += 1
        self._shadow_arrays.append((arr, signals, writing))
        return arr

    # -- arrays ----------------------------------------------------------------------

    def _find_signal_lists(self, model):
        lists = {}
        for name, attr in model.__dict__.items():
            if name.startswith("_"):
                continue
            if (isinstance(attr, list) and attr
                    and all(isinstance(x, Signal) for x in attr)
                    and len({x.nbits for x in attr}) == 1):
                lists[name] = attr
        return lists

    def _declare_arrays(self, array_lists, body):
        """Declare one Verilog array per signal-list attribute; returns
        ``[(array_name, signals)]``."""
        info = []
        for name, sigs in array_lists.items():
            arr = self._mangle(name) + "_arr"
            body.append(
                f"  reg {_range(sigs[0].nbits)}{arr} [0:{len(sigs) - 1}];")
            for i, sig in enumerate(sigs):
                self.array_slot[id(sig)] = (arr, i)
            info.append((arr, sigs))
        return info

    def _emit_array_copies(self, array_info, body):
        for arr, sigs in array_info:
            if isinstance(sigs[0], InPort):
                body.append("")
                body.append("  always @(*) begin")
                for i, sig in enumerate(sigs):
                    body.append(f"    {arr}[{i}] = {self._vname(sig)};")
                body.append("  end")
            elif isinstance(sigs[0], OutPort):
                body.append("")
                for i, sig in enumerate(sigs):
                    body.append(
                        f"  assign {self._vname(sig)} = {arr}[{i}];")

    # -- structure ---------------------------------------------------------------------

    def _emit_structure(self, body, written):
        model = self.model
        # This model's own connections: its nets (parent signals
        # first), slice copies and constant ties.
        structure = read_connections([model])
        groups = structure.groups()
        for group in groups:
            group.sort(key=lambda s: (s.parent is not model, s.name or ""))

        # Behavioral writes drive outputs directly.
        for port in model.get_outports():
            if id(port) in written:
                self.driven_outputs.add(port.name)

        # Canonical name per group + child instance port maps.
        net_name = {}
        child_ports = {id(c): {} for c in model.get_submodels()}
        child_driven = {id(c.model): c.driven_outputs
                        for c in self.children}
        for group in groups:
            parent_sigs = [s for s in group if s.parent is model]
            driver = _group_driver(model, group, written, child_driven)
            if driver is not None:
                for sig in group:
                    if isinstance(sig, OutPort) and sig.parent is model:
                        self.driven_outputs.add(sig.name)
            if parent_sigs:
                canon = self._vname(
                    driver if driver is not None
                    and driver.parent is model else parent_sigs[0])
            else:
                self._uid += 1
                canon = f"net_{self._uid}"
                body.append(
                    f"  wire {_range(group[0].nbits)}{canon};")
            for sig in group:
                net_name[id(sig)] = canon
                if sig.parent is not model:
                    child_ports[id(sig.parent)][sig.name] = canon
            # Alias assigns for additional parent signals.
            for sig in parent_sigs:
                if self._vname(sig) == canon:
                    continue
                if sig is driver:
                    body.append(f"  assign {canon} = {self._vname(sig)};")
                else:
                    body.append(f"  assign {self._vname(sig)} = {canon};")

        # Directly-referenced child ports not in any group get their
        # dedicated wire hooked into the instance port map.
        for name, sig in self._extra_wires:
            owner = sig.parent
            if owner is not None and id(owner) in child_ports:
                child_ports[id(owner)].setdefault(sig.name, name)

        # Instances: their module names are settled with the design's
        # other instances (:func:`_settle`).
        for k, child in enumerate(self.children):
            ports = child_ports[id(child.model)]
            mapping = [f".clk(clk)", f".reset(reset)"]
            for port in child.model.get_ports():
                if port.name in ("clk", "reset"):
                    continue
                target = ports.get(port.name, "")
                mapping.append(
                    f".{self._mangle(port.name)}({target})")
            joined = ",\n    ".join(mapping)
            body.append("")
            body.append(f"  \2{k}\2 {self._mangle(child.model.name)}\n"
                        f"  (\n    {joined}\n  );")

        # Slice connections.
        for src, dst in structure.copies:
            body.append(
                f"  assign {self._slice_lhs(dst, net_name)} = "
                f"{self._slice_lhs(src, net_name)};")
            self._mark_driven(dst, model)

        # Constant ties.
        for end, const in structure.ties:
            body.append(
                f"  assign {self._slice_lhs(end, net_name)} = "
                f"{_vconst(const, end.nbits)};")
            self._mark_driven(end, model)

    def _mark_driven(self, end, model):
        sig = end.signal if isinstance(end, _SignalSlice) else end
        if isinstance(sig, OutPort) and sig.parent is model:
            self.driven_outputs.add(sig.name)

    def _slice_lhs(self, end, net_name):
        if isinstance(end, _SignalSlice):
            base = net_name.get(id(end.signal), None) \
                or self._vname(end.signal)
            if end.nbits == 1:
                return f"{base}[{end.lo}]"
            return f"{base}[{end.hi - 1}:{end.lo}]"
        return net_name.get(id(end)) or self._vname(end)


# -- helpers ------------------------------------------------------------------------


def _range(nbits):
    if nbits == 1:
        return ""
    return f"[{nbits - 1}:0] "


def _vconst(value, nbits):
    return f"{nbits}'d{value & ((1 << nbits) - 1)}"


def _group_driver(model, group, written, child_driven):
    drivers = []
    for sig in group:
        inside = sig.parent is model
        if isinstance(sig, InPort) and inside:
            drivers.append(sig)
        elif isinstance(sig, OutPort) and not inside:
            driven = child_driven.get(id(sig.parent))
            if driven is None or sig.name in driven:
                drivers.append(sig)
        elif inside and id(sig) in written:
            drivers.append(sig)
    if len(drivers) > 1:
        names = [d.name for d in drivers]
        raise TranslationError(
            f"{model.full_name()}: multiple drivers on one net: {names}"
        )
    return drivers[0] if drivers else None


def _vint(value):
    return f"(-{abs(value)})" if value < 0 else str(value)


class _VerilogBackend:
    """Block IR -> the text of its always block, printed once per block
    body: ``\\0<c><h>\\0`` marks where the block uses hole ``h``, which
    each instance fills (:meth:`_ModuleEmitter._fill`) — ``c`` is ``s``
    for a signal, ``r`` / ``w`` for the array a dynamic index reads /
    writes, ``k`` for an int.  An int the body fixes is its literal.
    A ``for`` runs over a hidden ``integer`` counter, one per nesting
    depth, and assigns the loop variable at the top of each trip, as
    ``cgen`` does: a body may assign the variable, and after the loop
    it holds its last value, as in Python."""

    def __init__(self, hole_of):
        self.hole_of = hole_of
        self.counters = []          # the hidden loop counters, by depth
        self.depth = 0

    def _hole(self, code, leaf):
        return f"\0{code}{self.hole_of[id(leaf)]}\0"

    # -- references ---------------------------------------------------------------

    def ref_text(self, ref, writing=False):
        if ref.is_dynamic():
            arr = self._hole("w" if writing else "r", ref)
            base = f"{arr}[{self.expr(ref.index)}]"
        else:
            base = self._hole("s", ref)
        if ref.lo == 0 and ref.hi is None:
            return base
        if ref.width == 1:
            return f"{base}[{ref.lo}]"
        return f"{base}[{(ref.hi or ref.width) - 1}:{ref.lo}]"

    # -- expressions ---------------------------------------------------------------

    def expr(self, node):
        if isinstance(node, Const):
            if id(node) in self.hole_of:
                return self._hole("k", node)
            return _vint(node.value)
        if isinstance(node, SigRead):
            return self.ref_text(node.ref)
        if isinstance(node, LocalRead):
            if node.index is not None:
                return f"{node.name}[{self.expr(node.index)}]"
            return node.name
        if isinstance(node, StateRead):
            raise TranslationError(
                "plain-attribute state is not synthesizable")
        if isinstance(node, BinOp):
            op = "/" if node.op == "//" else node.op
            return f"({self.expr(node.left)} {op} {self.expr(node.right)})"
        if isinstance(node, Wrap):      # a sized mask: decimal is 32-bit
            return (f"({self.expr(node.expr)} & "
                    f"{node.width}'h{(1 << node.width) - 1:x})")
        if isinstance(node, UnOp):
            return f"({node.op}{self.expr(node.operand)})"
        if isinstance(node, Cmp):
            return (f"({self.expr(node.left)} {node.op} "
                    f"{self.expr(node.right)})")
        if isinstance(node, BoolOp):
            return "(" + f" {node.op} ".join(
                f"({self.expr(v)} != 0)" for v in node.values) + ")"
        if isinstance(node, IfExp):
            return (f"(({self.expr(node.cond)}) ? {self.expr(node.then)} "
                    f": {self.expr(node.orelse)})")
        if isinstance(node, Concat):
            inner = ", ".join(self.expr(part) for part, _ in node.parts)
            return f"{{{inner}}}"
        raise TranslationError(
            f"verilog backend: unknown expr {type(node).__name__}")

    # -- statements -----------------------------------------------------------------

    def stmt(self, node, assign_op, indent):
        pad = " " * indent
        if isinstance(node, AssignSig):
            op = "<=" if node.is_next else assign_op
            return (f"{pad}{self.ref_text(node.ref, writing=True)} {op} "
                    f"{self.expr(node.expr)};")
        if isinstance(node, AssignLocal):
            target = node.name if node.index is None \
                else f"{node.name}[{self.expr(node.index)}]"
            return f"{pad}{target} = {self.expr(node.expr)};"
        if isinstance(node, DeclLocalArray):
            lines = []
            for i in range(node.size):
                lines.append(
                    f"{pad}{node.name}[{i}] = {self.expr(node.init)};")
            return "\n".join(lines)
        if isinstance(node, If):
            lines = [f"{pad}if ({self.expr(node.cond)} != 0) begin"]
            lines.extend(self.stmt(s, assign_op, indent + 2)
                         for s in node.body)
            if node.orelse:
                lines.append(f"{pad}end else begin")
                lines.extend(self.stmt(s, assign_op, indent + 2)
                             for s in node.orelse)
            lines.append(f"{pad}end")
            return "\n".join(lines)
        if isinstance(node, For):
            if self.depth == len(self.counters):
                self.counters.append(f"{self.name}__k{self.depth}")
            k = self.counters[self.depth]
            lines = [
                f"{pad}for ({k} = {node.start}; "
                f"{k} {'<' if node.step > 0 else '>'} {node.stop}; "
                f"{k} = {k} + {node.step}) begin",
                f"{pad}  {node.var} = {k};",
            ]
            self.depth += 1
            lines.extend(self.stmt(s, assign_op, indent + 2)
                         for s in node.body)
            self.depth -= 1
            lines.append(f"{pad}end")
            return "\n".join(lines)
        if isinstance(node, (Break, Continue)):
            raise TranslationError(
                "break/continue are not expressible in Verilog-2001")
        if isinstance(node, AssignState):
            raise TranslationError(
                "plain-attribute state is not synthesizable")
        raise TranslationError(
            f"verilog backend: unknown stmt {type(node).__name__}")

    def block(self, ir, kind):
        sens = "posedge clk" if kind == "tick" else "*"
        assign_op = "<=" if kind == "tick" else "="
        self.name = ir.name
        body = [self.stmt(stmt, assign_op, 4) for stmt in ir.body]
        lines = []
        for name, ltype in ir.locals.items():
            if ltype == "int":
                lines.append(f"  integer {name};")
            else:
                lines.append(f"  integer {name} [0:{ltype[1] - 1}];")
        lines.extend(f"  integer {k};" for k in self.counters)
        lines.append(f"  // {ir.name}")
        lines.append(f"  always @({sens}) begin")
        lines.extend(body)
        lines.append("  end")
        return "\n".join(lines)
