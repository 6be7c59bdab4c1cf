"""Generated blocks.

A hypothesis strategy prints ``@combinational`` / ``@tick_rtl`` bodies
from the translatable subset ``repro.core.ast_ir``'s docstring
enumerates, and every substrate that executes a block — the event
fixpoint (reference), the static schedule of lowered blocks
(``repro.core.pygen``) with every block wrapped in its
``collect_stats`` counter, the same schedule bare, and SimJIT's
generated C — must agree on every
port and wire, cycle for cycle, under seeded stimulus.  So must an
event fixpoint in which every block reacts to every net
(``test_scheduling.all_sensitive``): the other CPython columns react
to what the block bodies read, and this one to nothing an analysis
decides.

Two modes.  The *int* mode (``_Body``) has all five columns.  What one
of its bodies may contain is chosen so that Python's unbounded ints and
C's ``int64_t`` locals / ``unsigned __int128`` nets *define* the same
value, which leaves every disagreement a bug:

- a *ring* expression (``+ - * & | ^ ~ <<``, ternaries) may go
  negative or wide, and is only ever consumed modulo a power of two: a
  signal write (which wraps at the signal's width — 1, 5, 13, 16 or 33
  bits) or an explicit mask;
- an *exact* expression is non-negative and at most 33 bits wide (a
  signal or slice read, a constant, a masked ring expression, ``>>``,
  ``//``, ``%``, a difference of a ring and an exact expression ``%``
  a positive constant or its masked ``//`` — which C must floor, not
  truncate — a comparison):
  only these are compared, tested, shifted, divided, used as an index
  or stored in a local;
- ``and`` / ``or`` appear in conditions only (Python yields an operand
  where C yields 0/1), among them ones whose later operand indexes
  ``xs`` / ``s.tbl`` or divides by a value only the earlier one keeps
  in range (which C must not evaluate first), a loop variable is not
  read after its loop
  (Python leaves the last value, C the bound), every local is
  initialised before the body, and reads go through ``.uint()``
  (``Bits`` arithmetic, which wraps at the operand's width, is the
  *Bits* mode's);
- the design is acyclic by construction, like
  ``test_scheduling._random_dag_source``: wire *i* reads the inputs,
  the registers and earlier wires; every combinational block writes its
  whole output on every path (no latches for the event queue's
  transients to be caught in), registers may hold.

The *Bits* mode (``_BitsBody``) prints what that rule leaves out —
``Bits`` arithmetic on bare signals, ``.value`` reads and ``Bits``-typed
locals, which wraps at the operand's width, over signals up to 70 bits
wide — over the three CPython columns, SimJIT and the all-sensitive
one: the closures define the value, and the lowered kernel and the C
must reproduce it from the one ``Bits``-exact IR.  An int stored in a
local is masked to ``LOCAL_BITS`` where it could be wider, except one
pick in four: C's locals are ``int64_t``, so the range pass must then
refuse the body (``may hold 64 bits or more``, SimJIT's cell) or show
that the value fits; a design with no such store (``_Design.wide``)
must compile.  One pick in four a signal write stores ``x0`` as it is,
or, after such a store, its bits past ``int64_t``: where a truncated
local would show.

Not here yet (ROADMAP item 12): CL state, generated siblings that
differ in a width (pinned cases are in ``test_lowered_blocks.py``),
ddmin over the statement list, and the Verilog column.
"""

import random
from dataclasses import dataclass

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import SimulationTool
from repro.core import ast_ir, bodies
from repro.core.ast_ir import TranslationError
from repro.core.probe import Probe
from repro.core.simjit import JITModel, SimJITRTL, auto_specialize
from tests.test_scheduling import all_sensitive, load_generated

# Tier-1 replays one pinned corpus; CI's verif-fuzz job selects the
# "fuzz" profile (tests/conftest.py) for fresh draws and more of them.
_FUZZ = settings.get_profile("fuzz")
_SETTINGS = _FUZZ if settings.default is _FUZZ else settings(
    derandomize=True, deadline=None, max_examples=12)

WIDTHS = (1, 5, 13, 16, 33)
BITS_WIDTHS = (1, 5, 8, 13, 33, 70)
#: The widest value a ``Bits``-mode local holds (C's are ``int64_t``).
LOCAL_BITS = 40
NCYCLES = 30
_CMPS = ("==", "!=", "<", "<=", ">", ">=")


def _mask(bits):
    return hex((1 << bits) - 1)


class _Body:
    """Prints one block body.  ``sigs`` maps the expressions of the
    signals the block may read to their widths, ``tbl`` is the width of
    the dynamically indexed ``s.tbl``.  ``exact`` returns ``(text,
    bits)``; ``ring`` only text — nesting is at most two deep, which
    keeps a ring value's magnitude below 2**50."""

    def __init__(self, draw, sigs, tbl):
        self.draw = draw
        self.sigs = sigs
        self.tbl = tbl
        self.scope = {}             # local or loop variable -> bits
        self.wide = False           # a local given more than LOCAL_BITS
        self.nloops = 0
        self.lines = []

    def pick(self, *options):
        return self.draw(st.sampled_from(options))

    def upto(self, lo, hi):
        return self.draw(st.integers(lo, hi))

    # -- expressions ---------------------------------------------------

    def atom(self, depth, kinds=("const", "k")):
        kind = self.pick("sig", "slice", *kinds,
                         *(["local"] * bool(self.scope)),
                         *(["array", "tbl"] * bool(depth)))
        if kind == "const":
            value = self.pick(0, 1, 3, 0xFFFF, self.upto(0, 0xFFFF))
            return str(value), value.bit_length()
        if kind == "k":
            return "s.k", 16
        if kind == "local":
            name = self.pick(*self.scope)
            return name, self.scope[name]
        if kind == "array":
            return f"xs[{self.index(depth - 1)}]", 33
        if kind == "tbl":
            return f"s.tbl[{self.index(depth - 1)}].uint()", self.tbl
        sig = self.pick(*self.sigs)
        width = self.sigs[sig]
        if kind == "slice" and width > 1:
            lo = self.upto(0, width - 1)
            hi = self.upto(lo + 1, width)
            return f"{sig}[{lo}:{hi}].value.uint()", hi - lo
        return f"{sig}.uint()", width

    def index(self, depth):
        """An exact expression in 0..3."""
        text, bits = self.exact(depth)
        return text if bits <= 2 else f"({text} & 3)"

    def exact(self, depth):
        if depth == 0:
            return self.atom(0)
        kind = self.pick("atom", "mask", "shift", "div", "mod", "cmp",
                         "ternary", "int", "ringdiv", "ringmod")
        if kind == "atom":
            return self.atom(depth)
        if kind == "mask":
            bits = self.pick(*WIDTHS, self.upto(1, 33))
            return f"({self.ring(depth - 1)} & {_mask(bits)})", bits
        if kind in ("ringdiv", "ringmod"):
            # Of a value that may be negative: C must floor, not
            # truncate (py_floordiv / py_mod).
            text = f"({self.ring(depth - 1)} - {self.exact(depth - 1)[0]})"
            if kind == "ringmod":
                by = self.upto(1, 17)
                return f"({text} % {by})", by.bit_length()
            bits = self.pick(*WIDTHS)
            return (f"(({text} // {self.upto(1, 17)}) & {_mask(bits)})",
                    bits)
        if kind == "cmp":
            return f"({self.compare(depth - 1)})", 1
        text, bits = self.exact(depth - 1)
        if kind == "ternary":
            other, obits = self.exact(depth - 1)
            return (f"({text} if {self.cond(depth - 1)} else {other})",
                    max(bits, obits))
        if kind == "shift":
            by = self.pick(str(self.upto(0, 7)),
                           f"({self.exact(depth - 1)[0]} & 7)")
            return f"({text} >> {by})", bits
        if kind == "div":
            return f"({text} // {self.upto(1, 17)})", bits
        if kind == "mod":
            by = self.upto(1, 17)
            return f"({text} % {by})", by.bit_length()
        return f"int({text})", bits

    def ring(self, depth):
        if depth == 0:
            return self.atom(0)[0]
        kind = self.pick("exact", "+", "-", "&", "|", "^", "*", "<<", "~",
                         "ternary")
        if kind == "exact":
            return self.exact(depth)[0]
        if kind == "<<":
            return f"({self.exact(depth - 1)[0]} << {self.upto(0, 4)})"
        text = self.ring(depth - 1)
        if kind == "*":
            return f"({text} * {self.upto(0, 255)})"
        if kind == "~":
            return f"(~{text})"
        if kind == "ternary":
            return (f"({text} if {self.cond(depth - 1)} "
                    f"else {self.ring(depth - 1)})")
        return f"({text} {kind} {self.ring(depth - 1)})"

    def compare(self, depth):
        return (f"{self.exact(depth)[0]} {self.pick(*_CMPS)} "
                f"{self.exact(depth)[0]}")

    def cond(self, depth):
        kind = self.pick("value", "signal", "cmp",
                         *(["and", "or", "not", "guarded"] * bool(depth)))
        if kind == "value":
            return self.exact(depth)[0]
        if kind == "signal":
            return self.pick(*self.sigs)    # bare signal truthiness
        if kind == "cmp":
            return self.compare(depth)
        if kind == "not":
            return f"(not {self.cond(depth - 1)})"
        if kind == "guarded":
            return self.guarded(depth - 1)
        return f"({self.cond(depth - 1)} {kind} {self.cond(depth - 1)})"

    def guarded(self, depth):
        """An ``and`` / ``or`` whose later operand indexes ``xs`` or
        ``s.tbl``, or divides, by a value only the earlier operand
        keeps in range: C must not evaluate it unless Python does."""
        sig = f"{self.pick(*self.sigs)}.uint()"     # never folded
        value = self.pick(sig, f"({self.exact(depth)[0]} ^ {sig})")
        use = self.pick("xs", "tbl", "%", "//")
        if use in ("xs", "tbl"):
            later = (f"xs[{value}]" if use == "xs"
                     else f"s.tbl[{value}].uint()")
            keeps, leaves = f"{value} < 4", f"{value} >= 4"
        else:
            later = f"({self.exact(depth)[0]} {use} {value})"
            keeps, leaves = f"{value} != 0", f"{value} == 0"
        later = f"{later} {self.pick(*_CMPS)} {self.exact(depth)[0]}"
        return self.pick(f"({keeps} and {later})",
                         f"({leaves} or {later})")

    # -- statements ----------------------------------------------------

    def emit(self, pad, text):
        self.lines.append(" " * pad + text)

    def prologue(self, pad):
        """Every local the body may touch, initialised — the first from
        a signal: a block that reads none has no sensitivity list, and
        as a combinational block belongs to the event partition."""
        self.emit(pad, "xs = [0] * 4")
        self.emit(pad, f"x0 = {self.atom(0, kinds=())[0]}")
        self.scope["x0"] = 33
        if self.pick(False, True):
            self.emit(pad, f"x1 = {self.exact(1)[0]}")
            self.scope["x1"] = 33

    def block(self, pad, depth, in_loop=False):
        for _ in range(self.upto(1, 3 if depth == 2 else 2)):
            self.stmt(pad, depth, in_loop)

    def stmt(self, pad, depth, in_loop):
        kind = self.pick("assign", "aug", "store",
                         *(["if", "for"] * bool(depth)),
                         *(["break", "continue"] * in_loop))
        if kind == "assign":
            self.emit(pad, f"{self.local()} = {self.exact(2)[0]}")
        elif kind == "aug":
            op = self.pick("^=", "|=", "&=", ">>=")
            by = self.upto(0, 7) if op == ">>=" else self.exact(1)[0]
            self.emit(pad, f"{self.local()} {op} {by}")
        elif kind == "store":
            self.emit(pad, f"xs[{self.index(1)}] = {self.exact(2)[0]}")
        else:
            self.stmt_control(pad, depth, in_loop, kind)

    def stmt_control(self, pad, depth, in_loop, kind):
        if kind == "if":
            self.emit(pad, f"if {self.cond(1)}:")
            self.block(pad + 4, depth - 1, in_loop)
            if self.pick(False, True):
                self.emit(pad, f"elif {self.cond(1)}:")
                self.block(pad + 4, depth - 1, in_loop)
            if self.pick(False, True):
                self.emit(pad, "else:")
                self.block(pad + 4, depth - 1, in_loop)
        elif kind == "for":
            var = f"i{self.nloops}"
            self.nloops += 1
            start, trips, step = (self.upto(0, 3), self.upto(0, 4),
                                  self.upto(1, 2))
            stop = start + trips * step
            self.scope[var] = stop.bit_length()
            if self.pick(False, True):      # the same values, counting down
                start, stop, step = stop - step, start - step, -step
            self.emit(pad, f"for {var} in range({start}, {stop}, {step}):")
            self.block(pad + 4, depth - 1, in_loop=True)
            del self.scope[var]     # not read after its loop
        else:
            self.emit(pad, f"if {self.cond(1)}:")
            self.emit(pad + 4, kind)

    def local(self):
        return self.pick(*(x for x in self.scope if x.startswith("x")))


class _BitsBody(_Body):
    """The ``Bits`` mode: what ``_Body`` leaves out, because there
    Python's ints and C's must define the same value.  Operands are
    bare signals and slices, ``.value`` reads and ``Bits``-typed
    locals, so ``+ - * << >> ~ -`` wrap at the operands' width (1, 5,
    8, 13, 33 or 70 bits, whatever a slice cuts out, up to 80 for a
    ``zext``), and the results go where their type matters: into wider
    targets, comparisons, shift amounts, indices and further ``Bits``
    arithmetic.

    Every expression is printed together with its Python type, because
    Python is typed where the int mode is not: ``-signal``, ``signal
    // n`` and ``int << Bits`` raise ``TypeError`` (never printed),
    and a local must keep one type for the printer's type inference to
    decide it (``b*`` locals are ``Bits`` of one width each, ``x*``
    locals ints).  ``bits_of(w)`` prints a ``Bits(w)``, ``bitsy`` any
    ``Bits``-valued expression as ``(text, kind, width)`` with kind
    ``"bits"`` or ``"sig"`` (a bare signal or slice), ``intx`` a
    non-negative int with its bit length."""

    def __init__(self, draw, sigs, tbl):
        super().__init__(draw, sigs, tbl)
        self.blocals = {}           # Bits-typed local -> width

    # -- reads ---------------------------------------------------------

    def read(self, depth, width=None, flavours=("sig", "bits")):
        """(A slice of) a signal, ``width`` bits of it when given."""
        sigs = dict(self.sigs)
        index = self.index(depth - 1) if depth else self.upto(0, 3)
        sigs[f"s.tbl[{index}]"] = self.tbl
        sig = self.pick(*(name for name, w in sigs.items()
                          if width is None or w >= width))
        w = sigs[sig]
        if width is None:
            width = self.pick(w, w, self.upto(1, w))
        lo = self.upto(0, w - width)
        if width < w or self.pick(False, False, True):
            sig = f"{sig}[{lo}:{lo + width}]"
        flavour = self.pick(*flavours)
        return sig + ".value" * (flavour == "bits"), flavour, width

    def widths(self):
        return sorted({*self.sigs.values(), self.tbl})

    # -- Bits-valued expressions ------------------------------------------

    def bits_of(self, w, depth):
        """A ``Bits(w)``."""
        locals_ = [x for x, lw in self.blocals.items() if lw == w]
        kind = self.pick("read", *(["local"] * bool(locals_)),
                         *(["ring", "ring", "int", "shift", "~", "-",
                            "divmod", "zext", "sext", "if"] * bool(depth)))
        if kind == "read" and w > max(self.widths()):
            kind = "zext"
        if kind == "read":
            return self.read(depth, w, ("bits",))[0]
        if kind == "local":
            return self.pick(*locals_)
        if kind in ("zext", "sext"):
            narrow = self.upto(1, min(w, max(self.widths())))
            if kind == "sext":      # of a signal or slice only
                return f"sext({self.read(0, narrow, ('bits',))[0]}, {w})"
            return f"zext({self.bits_of(narrow, max(depth - 1, 0))}, {w})"
        left = self.bits_of(w, depth - 1)
        if kind == "ring":          # the other operand is no wider
            text, _, _ = self.bitsy(depth - 1, upto=w)
            pair = self.pick((left, text), (text, left))
            return f"({pair[0]} {self.pick(*'+-*&|^')} {pair[1]})"
        if kind == "int":           # ... or an int of any size and sign
            signed = self.read(0, min(self.pick(*self.widths()), 64),
                               ("bits",))[0]
            other = self.pick(
                str(self.pick(1, 255, -1, -300, 1 << 33, self.upto(0, 999))),
                self.intx(depth - 1)[0], f"{signed}.int()")
            pair = self.pick((left, other), (other, left))
            return f"({pair[0]} {self.pick(*'+-*&|^')} {pair[1]})"
        if kind == "shift":
            return f"({left} {self.pick('<<', '>>')} {self.amount(depth - 1)})"
        if kind == "divmod":
            # Odd: an int divisor is masked to the width first.
            by = self.pick(str(self.upto(0, 300) | 1),
                           f"({self.bits_of(self.upto(1, w), 0)} | 1)")
            return f"({left} {self.pick('//', '%')} {by})"
        if kind == "if":
            return (f"({left} if {self.cond(depth - 1)} "
                    f"else {self.bits_of(w, depth - 1)})")
        return f"({kind}{left})"

    def bitsy(self, depth, upto=None):
        """Anything ``Bits``-valued at most ``upto`` (else 80) bits
        wide."""
        top = min(upto or 80, 80)
        kind = self.pick("sig", "bits", "concat") if depth else \
            self.pick("sig", "bits")
        if kind == "sig":
            w = self.upto(1, min(top, max(self.widths())))
            return self.read(depth, w, ("sig",))
        if kind == "concat" and top >= 2:
            widest = min(top // 2, max(self.widths()))
            parts = [self.read(0, self.upto(1, widest)) for _ in range(2)]
            return (f"concat({parts[0][0]}, {parts[1][0]})", "bits",
                    parts[0][2] + parts[1][2])
        w = self.pick(*(x for x in (*self.widths(), top) if x <= top),
                      self.upto(1, top))
        return self.bits_of(w, depth), "bits", w

    def amount(self, depth):
        """A shift amount: small, now and then past every width."""
        kind = self.pick("const", "const", "int", "bits")
        if kind == "const":
            return str(self.pick(self.upto(0, 7), self.upto(0, 40)))
        if kind == "int":
            return f"({self.intx(depth)[0]} & 7)"
        return self.bitsy(depth, upto=3)[0]

    # -- ints, conditions, indices -------------------------------------------

    def intx(self, depth):
        kind = self.pick("const", "k", "read",
                         *(["local"] * bool(self.scope)),
                         *(["int", "uint", "cmp", "mask", "sum", "andor",
                            "array", "mixed"] * bool(depth)))
        if kind == "mixed":
            return self.pick("int(m0)", "int(m0)", "int(m0 + 1)"), 41
        if kind == "const":
            value = self.pick(0, 1, 3, 0xFFFF, self.upto(0, 0xFFFF))
            return str(value), value.bit_length()
        if kind == "k":
            return "s.k", 16
        if kind == "read":
            sig = self.pick(*self.sigs)
            return f"{sig}.uint()", self.sigs[sig]
        if kind == "local":
            name = self.pick(*self.scope)
            return name, self.scope[name]
        if kind == "array":
            return f"xs[{self.index(depth - 1)}]", 40
        if kind == "int":
            text, _, w = self.bitsy(depth - 1)
            return f"int({text})", w
        if kind == "uint":
            w = self.pick(*self.widths())
            return f"{self.bits_of(w, depth)}.uint()", w
        if kind == "cmp":
            return f"({self.compare(depth - 1)})", 1
        text, bits = self.intx(depth - 1)
        if kind == "mask":
            by = self.upto(1, 33)
            return f"({text} & {_mask(by)})", min(bits, by)
        other, obits = self.intx(depth - 1)
        if kind == "andor":         # as a value: an operand, not 0/1
            return f"({text} {self.pick('and', 'or')} {other})", \
                max(bits, obits)
        if max(bits, obits) >= 40:
            return f"({text} ^ {other})", max(bits, obits)
        return f"({text} + {other})", max(bits, obits) + 1

    def typed(self, depth):
        if self.pick(*([False] * 7), True):
            return "m0"
        return self.pick(self.bitsy, self.intx)(depth)[0]

    def compare(self, depth):
        return (f"{self.typed(depth)} {self.pick(*_CMPS)} "
                f"{self.typed(depth)}")

    def cond(self, depth):
        kind = self.pick("value", "cmp",
                         *(["and", "or", "not"] * bool(depth)))
        if kind == "value":         # bare signals and slices included
            return self.typed(depth)
        if kind == "cmp":
            return self.compare(depth)
        if kind == "not":
            return f"(not {self.cond(depth - 1)})"
        return f"({self.cond(depth - 1)} {kind} {self.cond(depth - 1)})"

    def index(self, depth):
        """0..3: a narrow ``Bits`` as it is, anything else masked."""
        if self.pick(False, True):
            text, _, w = self.bitsy(depth, upto=self.pick(2, 13))
            return text if w <= 2 else f"({text} & 3)"
        return f"({self.intx(depth)[0]} & 3)"

    def ring(self, depth):
        """What a signal write consumes: any type, now and then a local
        as it is, one pick in four.  Once a local was given a wide value,
        that pick is listed first (hypothesis draws it more often) and
        is ``x0``'s bits past ``int64_t``, where C's truncation of it
        shows in a target of any width."""
        if self.pick(self.wide, False, False, True):
            return "((x0 >> 32) >> 32)" if self.wide else "x0"
        return self.typed(depth)

    # -- statements ------------------------------------------------------------

    def local_int(self, depth):
        """An int a local may hold."""
        return self.stored(*self.intx(depth))

    def stored(self, text, bits):
        """``text``, ``bits`` wide, as a local is given it: masked to
        ``LOCAL_BITS`` where it could be wider, except one pick in
        four."""
        if bits <= LOCAL_BITS:
            return text
        if self.pick(True, False, False, False):
            self.wide = True
            return text
        return f"({text} & {_mask(LOCAL_BITS)})"

    def prologue(self, pad):
        self.emit(pad, "xs = [0] * 4")
        sig = self.pick(*self.sigs)
        self.emit(pad,
                  f"x0 = {self.stored(f'{sig}.uint()', self.sigs[sig])}")
        self.emit(pad, "m0 = x0")
        self.scope["x0"] = LOCAL_BITS
        for name in ("b0", "b1")[:self.upto(1, 2)]:
            w = self.pick(*(w for w in self.widths() if w <= LOCAL_BITS),
                          self.upto(1, LOCAL_BITS))
            self.emit(pad, f"{name} = {self.bits_of(w, 1)}")
            self.blocals[name] = w

    def stmt(self, pad, depth, in_loop):
        kind = self.pick("bits", "bits", "aug", "int", "store", "mixed",
                         *(["if", "for"] * bool(depth)),
                         *(["break", "continue"] * in_loop))
        if kind == "bits":          # a Bits-typed local keeps its width
            name = self.pick(*self.blocals)
            self.emit(pad, f"{name} = "
                           f"{self.bits_of(self.blocals[name], 2)}")
        elif kind == "aug":
            name = self.pick(*self.blocals)
            w = self.blocals[name]
            op = self.pick("+=", "-=", "*=", "^=", "|=", "&=", "<<=", ">>=")
            by = self.amount(1) if op in ("<<=", ">>=") else self.pick(
                self.intx(1)[0], self.bitsy(1, upto=w)[0])
            self.emit(pad, f"{name} {op} {by}")
        elif kind == "int":
            self.emit(pad, f"x0 = {self.local_int(2)}")
        elif kind == "store":
            self.emit(pad, f"xs[{self.index(1)}] = {self.local_int(2)}")
        elif kind == "mixed":
            # Bits on one path, an int on the other: fine wherever only
            # the value of m0 is used (intx, typed), and a block that
            # does arithmetic on it keeps its closure.
            self.emit(pad, f"m0 = ({self.bitsy(1, LOCAL_BITS)[0]} "
                           f"if {self.cond(1)} "
                           f"else {self.local_int(1)})")
        else:
            self.stmt_control(pad, depth, in_loop, kind)


@dataclass
class _Design:
    source: str         # module defining Gen(k) and Pair(ka, kb)
    inputs: dict        # input port name -> width
    probes: list        # every other port and wire, as Probe paths
    ka: int
    kb: int
    seed: int           # of the stimulus
    wide: bool = False  # a Bits-mode local given more than LOCAL_BITS

    def __repr__(self):
        return (f"_Design(ka={self.ka}, kb={self.kb}, seed={self.seed}, "
                f"source=\n{self.source})")


@st.composite
def designs(draw, body_type=_Body, widths=WIDTHS):
    width = lambda: draw(st.sampled_from(widths))
    inputs = {f"in{i}": width() for i in range(draw(st.integers(1, 3)))}
    wires = {f"w{i}": width() for i in range(draw(st.integers(1, 3)))}
    regs = {f"r{i}": width() for i in range(draw(st.integers(1, 2)))}
    tbl, out = width(), width()
    reads = lambda names: {f"s.{name}": w for name, w in names.items()}

    decls = ["        s.k = k"]
    decls += [f"        s.{n} = InPort({w})" for n, w in inputs.items()]
    decls += [f"        s.{n} = Wire({w})"
              for n, w in {**wires, **regs}.items()]
    decls += [f"        s.tbl = [Wire({tbl}) for _ in range(4)]",
              f"        s.out = OutPort({out})"]

    blocks = []
    wide = False
    seen = {**inputs, **regs}
    for name, w in {**wires, "out": out}.items():
        body = body_type(draw, reads(seen), tbl)
        body.emit(8, "@s.combinational")
        body.emit(8, f"def comb_{name}():")
        body.prologue(12)
        body.block(12, 2)
        # The whole output, on every path: at once, or as two slices.
        cut = draw(st.integers(0, w - 1))
        parts = [(0, w)] if cut == 0 else [(0, cut), (cut, w)]
        for lo, hi in parts:
            target = f"s.{name}" if cut == 0 else f"s.{name}[{lo}:{hi}]"
            body.emit(12, f"{target}.value = {body.ring(2)}")
        blocks.append(body.lines)
        wide = wide or body.wide
        seen[name] = w
    del seen["out"]
    for name, w in {**regs, "tbl": tbl}.items():
        body = body_type(draw, reads(seen), tbl)
        body.emit(8, "@s.tick_rtl")
        body.emit(8, f"def tick_{name}():")
        body.emit(12, "if s.reset:")
        init = draw(st.integers(0, 0xFFFF))
        if name == "tbl":
            body.emit(16, "for i in range(4):")
            body.emit(20, f"s.tbl[i].next = {init} + i")
        else:
            body.emit(16, f"s.{name}.next = {init}")
        body.emit(12, "else:")
        body.prologue(16)
        body.block(16, 2)
        pad = 16
        if draw(st.booleans()):     # a register may hold
            body.emit(16, f"if {body.cond(1)}:")
            pad = 20
        target = f"s.tbl[{body.index(1)}]" if name == "tbl" else f"s.{name}"
        body.emit(pad, f"{target}.next = {body.ring(2)}")
        blocks.append(body.lines)
        wide = wide or body.wide

    lines = ["from repro import InPort, Model, OutPort, Wire",
             "from repro.core.bits import concat, sext, zext", "", "",
             "class Gen(Model):", "    def __init__(s, k):", *decls]
    for block in draw(st.permutations(blocks)):
        lines += ["", *block]
    # Two instances that differ only in the constant, fed the same
    # inputs, under one structural parent.
    lines += ["", "", "class Pair(Model):",
              "    def __init__(s, ka, kb):",
              "        s.a, s.b = Gen(ka), Gen(kb)",
              f"        s.out_a, s.out_b = OutPort({out}), OutPort({out})",
              "        s.connect(s.a.out, s.out_a)",
              "        s.connect(s.b.out, s.out_b)"]
    for name, w in inputs.items():
        lines += [f"        s.{name} = InPort({w})",
                  f"        s.connect(s.{name}, s.a.{name})",
                  f"        s.connect(s.{name}, s.b.{name})"]
    probes = [*wires, *regs, "out", *(f"tbl[{i}]" for i in range(4))]
    ka = draw(st.integers(0, 0xFFFF))
    kb = ka ^ draw(st.integers(1, 0xFFFF))
    return _Design("\n".join(lines) + "\n", inputs, probes, ka, kb,
                   draw(st.integers(0, 1 << 16)), wide)


def _agree(design, models, sims, probes):
    """Reset, then NCYCLES of seeded stimulus (corner-biased); every
    probe of every column equals the first column's, every cycle."""
    reads = [[Probe.resolve(sim, path).read for path in probes]
             for sim in sims]
    rng = random.Random(design.seed)
    for sim in sims:
        sim.reset()
    for cycle in range(NCYCLES):
        for name, width in design.inputs.items():
            value = rng.choice((0, (1 << width) - 1,
                                rng.getrandbits(width),
                                rng.getrandbits(width)))
            for model in models:
                getattr(model, name).value = value
        for sim in sims:
            sim.cycle()
        values = [[int(read()) for read in column] for column in reads]
        for sim, column in zip(sims[1:], values[1:]):
            assert column == values[0], (
                f"cycle {cycle}: {sim!r} disagrees with {sims[0]!r} on "
                f"{[p for p, a, b in zip(probes, column, values[0]) if a != b]}")


@_SETTINGS
@given(designs())
def test_generated_design_agrees_on_every_substrate(design):
    _agrees_on_every_substrate(design)


def test_a_range_pass_that_calls_every_operand_non_negative_is_caught(
        monkeypatch):
    """The seeded mutant: every span starts at 0 or above, so a ``//``
    or ``%`` of a ring value that is negative prints as C's truncating
    ``/`` / ``%``.  The pinned examples find it (no shrinking: each
    example compiles C)."""
    span = ast_ir._SpanWalk.span

    def never_negative(self, node):
        got = span(self, node)
        got = self.spans[id(node)] = got._replace(lo=max(got.lo or 0, 0))
        return got

    # Each example's blocks are new code, so lowered afresh: the body
    # cache stays (swapping it would strand the entries of code that
    # dies meanwhile).
    monkeypatch.setattr(ast_ir._SpanWalk, "span", never_negative)
    mutant = settings(_SETTINGS, phases=[Phase.generate])(
        given(designs())(_agrees_on_every_substrate))
    with pytest.raises(AssertionError, match="disagrees"):
        mutant()


def _agrees_on_every_substrate(design):
    # A body outside the subset raises TranslationError from
    # specialize(): a bug in the strategy, and a failure here.
    build = load_generated(design.source)["Gen"]
    models = [build(design.ka).elaborate() for _ in range(3)]
    models.append(
        SimJITRTL(build(design.ka).elaborate()).specialize().elaborate())
    models.append(build(design.ka).elaborate())
    sims = [SimulationTool(models[0], sched="event"),
            # collect_stats=True wraps every block in its counter.
            SimulationTool(models[1], sched="static", collect_stats=True),
            SimulationTool(models[2], sched="static"),
            SimulationTool(models[3]),
            all_sensitive(SimulationTool(models[4], sched="event"))]
    # Non-vacuity: each column runs on the rung it is named after.
    assert [repr(sim).split()[2] for sim in sims] == [
        "sched=event/python", "sched=static/python",
        "sched=static/python", "sched=event/simjit",
        "sched=event/python"]
    for sim in sims[1:3]:
        info = sim.sched_info()
        assert info["static_blocks"] > 0 and info["event_blocks"] == 0
    assert sims[2].sched_info()["kernel"]
    assert isinstance(models[3], JITModel)
    _agree(design, models, sims, design.probes)


@_SETTINGS
@given(designs())
def test_siblings_that_differ_in_a_constant_share_their_functions(design):
    """PR 19's sharing rule by construction: the two instances' blocks
    are one template each, the constant a per-instance ``K`` entry."""
    build = load_generated(design.source)["Pair"]
    twin = build(design.ka, design.kb).elaborate()
    jit = auto_specialize(build(design.ka, design.kb))
    assert isinstance(jit, JITModel)
    ref = build(design.ka, design.kb).elaborate()
    sims = [SimulationTool(twin), SimulationTool(jit.elaborate()),
            all_sensitive(SimulationTool(ref, sched="event"))]
    assert "/python " in repr(sims[0]) and "/simjit " in repr(sims[1])
    info = sims[1].sched_info()["simjit"]
    assert info["functions"] < info["blocks"], info
    _agree(design, [twin, jit, ref], sims,
           ["out_a", "out_b", *(f"{leaf}.{path}" for leaf in "ab"
                                for path in design.probes)])


@_SETTINGS
@given(design=st.sampled_from([_Body, _BitsBody]).flatmap(
    lambda body: designs(body, BITS_WIDTHS if body is _BitsBody
                         else WIDTHS)))
def test_an_output_needs_only_its_dependence(design):
    """A comb body's ``deps`` (``ast_ir.output_deps``) as a property:
    two runs of a block's closure that differ only in reads outside an
    output's dependence write the same bits there."""
    top = load_generated(design.source)["Gen"](design.ka).elaborate()
    rng = random.Random(design.seed)

    def draw(sig):
        return rng.choice((0, (1 << sig.nbits) - 1, rng.getrandbits(
            sig.nbits), rng.getrandbits(sig.nbits)))

    for blk in top.get_comb_blocks():
        body, holes, ir, hole_of = bodies.lowered(blk, {})
        reads = {id(sig): sig for sig in bodies.signals(holes, body.reads)}
        bits = {hole_of[id(ref)]: (ref.lo, ref.width)
                for ref in ir.sig_writes}
        for hole, needs in body.deps.items():
            (out,), (lo, width) = bodies.signals(holes, (hole,)), bits[hole]
            inside = {id(sig) for sig in bodies.signals(holes, needs)}
            for _ in range(4):
                values = {key: draw(sig) for key, sig in reads.items()}
                written = []
                for _ in range(2):
                    for key, sig in reads.items():
                        sig.value = values[key]
                    blk.func()
                    written.append((int(out) >> lo) & ((1 << width) - 1))
                    values.update((key, draw(sig)) for key, sig
                                  in reads.items() if key not in inside)
                assert written[0] == written[1], (blk.name, hole)


def _cpython_columns(build):
    """event, static with ``collect_stats`` (lowered blocks, each
    wrapped in its counter), static (lowered blocks), and event with
    every block sensitive to every net."""
    models = [build().elaborate() for _ in range(4)]
    sims = [SimulationTool(models[0], sched="event"),
            SimulationTool(models[1], sched="static", collect_stats=True),
            SimulationTool(models[2], sched="static"),
            all_sensitive(SimulationTool(models[3], sched="event"))]
    assert [repr(sim).split()[2] for sim in sims] == [
        "sched=event/python", "sched=static/python",
        "sched=static/python", "sched=event/python"]
    return models, sims


#: The refusals a ``Bits``-mode design may run into: a "mixed"
#: statement leaves ``x0`` a ``Bits`` on one path and an int on
#: another, which arithmetic and a local array cannot take.  Anything
#: else the printer refuses is a failure.
_UNDECIDABLE = ("Bits on one path and an int", "array elements are ints")
#: ... and the one C adds: an unmasked local that may not fit ``int64_t``.
_WIDE = "may hold 64 bits or more"


@_SETTINGS
@given(designs(_BitsBody, BITS_WIDTHS))
def test_bits_typed_design_agrees_on_every_substrate(design):
    """The ``Bits`` rule as a property: event, the lowered blocks,
    counted and bare, and SimJIT agree where arithmetic wraps at the
    operands' width — every printer reads the one ``Bits``-exact IR.
    A design with a block whose types are undecided, or with a local C
    cannot hold, has no C: SimJIT refuses it with that reason, and only
    a design the generator gave an unmasked wide local may be refused
    as wide."""
    _bits_agree(design)


def _bits_mutant_is_caught(match="disagrees", widths=BITS_WIDTHS):
    """The pinned ``Bits``-mode examples find the seeded mutant (no
    shrinking: each example compiles C)."""
    mutant = settings(_SETTINGS, phases=[Phase.generate])(
        given(designs(_BitsBody, widths))(_bits_agree))
    with pytest.raises(AssertionError, match=match):
        mutant()


def _every_store(monkeypatch, holes):
    """Seed the mutant whose every store to a local, a local array
    element or CL state fits ``int64_t`` (``holes`` a frozenset) or
    none does (None)."""
    simple = ast_ir._Spans.simple

    def mutant(self, node):
        simple(self, node)
        if isinstance(node, ast_ir.AssignState):
            self.fact(node, (ast_ir._STATE, node.ref.name), holes)
        elif not isinstance(node, ast_ir.AssignSig):
            self.fact(node, (ast_ir._LOCAL, node.name), holes)

    monkeypatch.setattr(ast_ir._Spans, "simple", mutant)


def test_a_range_pass_that_never_marks_a_value_wide_is_caught(monkeypatch):
    """The seeded mutant: every store fits ``int64_t``, so C truncates
    an unmasked local that holds more.  Only a local past 63 bits shows
    it, so the examples are drawn over 70-bit signals."""
    _every_store(monkeypatch, frozenset())
    _bits_mutant_is_caught(widths=(70,))


def test_a_range_pass_that_calls_every_store_wide_is_caught(monkeypatch):
    """The seeded mutant: no store fits ``int64_t``, so SimJIT refuses
    designs whose every local is masked to ``LOCAL_BITS``."""
    _every_store(monkeypatch, None)
    _bits_mutant_is_caught("SimJIT refuses")


def test_a_range_pass_that_calls_every_write_fits_is_caught(monkeypatch):
    """The seeded mutant: no signal write is masked, so the lowered
    blocks store values wider than their nets."""
    simple = ast_ir._Spans.simple

    def every_write_fits(self, node):
        simple(self, node)
        if isinstance(node, ast_ir.AssignSig):
            self.fact(node, "fits", frozenset())

    monkeypatch.setattr(ast_ir._Spans, "simple", every_write_fits)
    _bits_mutant_is_caught()


def test_a_range_pass_that_calls_every_and_or_zero_one_is_caught(
        monkeypatch):
    """The seeded mutant: every ``and`` / ``or`` is 0/1, so C prints
    ``&&`` / ``||`` where Python yields an operand of another value."""
    monkeypatch.setattr(ast_ir._SpanWalk, "zero_one",
                        lambda self, node: frozenset())
    _bits_mutant_is_caught()


def _bits_agree(design):
    build = load_generated(design.source)["Gen"]
    models, sims = _cpython_columns(lambda: build(design.ka))
    info = sims[2].sched_info()
    lowered = info["lowered"]
    # Non-vacuity: every block is lowered, or keeps its closure for a
    # reason on the list (and is compared like the rest).
    nblocks = info["total_comb_blocks"] + info["total_tick_blocks"]
    assert lowered["blocks"] + len(lowered["kept"]) == nblocks
    assert all(any(why in reason for why in _UNDECIDABLE)
               for reason in lowered["kept"].values()), lowered["kept"]
    assert lowered["blocks"] > 0
    refusals = _UNDECIDABLE if lowered["kept"] else ()
    if design.wide:
        refusals += (_WIDE,)
    try:
        jit = SimJITRTL(build(design.ka).elaborate()).specialize()
    except TranslationError as exc:
        assert any(why in str(exc) for why in refusals), \
            f"SimJIT refuses: {exc}"
    else:
        assert not lowered["kept"], lowered["kept"]
        models.append(jit.elaborate())
        sims.append(SimulationTool(models[-1]))
        assert "/simjit " in repr(sims[-1])
    _agree(design, models, sims, design.probes)


@_SETTINGS
@given(designs(_BitsBody, BITS_WIDTHS))
def test_bits_typed_siblings_share_their_bodies(design):
    """Two instances under one parent that differ in the constant
    share their bodies (``bodies < blocks``: a block that folds the
    constant into a table index, ``s.tbl[s.k & 3]``, is rightly two),
    and match the event column."""
    build = load_generated(design.source)["Pair"]
    models, sims = _cpython_columns(
        lambda: build(design.ka, design.kb))
    lowered = sims[2].sched_info()["lowered"]
    assert 0 < lowered["bodies"] < lowered["blocks"], lowered
    _agree(design, models, sims,
           ["out_a", "out_b", *(f"{leaf}.{path}" for leaf in "ab"
                                for path in design.probes)])
