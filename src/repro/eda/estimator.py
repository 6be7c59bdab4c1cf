"""Analytic area/energy/timing estimation for RTL models.

This is the documented substitution for the paper's Synopsys EDA flow
(Figure 5b): since no synthesis tools are available offline, we
estimate post-synthesis metrics from the elaborated RTL itself using a
NAND2-gate-equivalent (GE) model:

- **Area**: every register bit costs a flip-flop GE; combinational
  logic is costed by walking each behavioral block's IR and charging
  per-operator GE as a function of operand width (ripple-carry adders,
  array multipliers, mux trees for dynamic indexing, ...).  Large
  storage arrays get an SRAM discount.
- **Timing**: each combinational block's delay is the maximum
  expression depth in gate levels; the cycle time is the longest path
  through the comb-block dependency graph plus flop overhead.
- **Energy**: switched-capacitance proxy — GE count x activity factor
  x energy per gate toggle.

Absolute numbers are arbitrary-but-consistent; the paper's Figure 5b
claims are *relative* (accelerator adds ~4% area, ~5% cycle time), and
a consistent GE model preserves relative comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.ast_ir import (
    AssignLocal,
    AssignSig,
    BinOp,
    BoolOp,
    Cmp,
    Concat,
    Const,
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
from ..core.bodies import Refused, lowered, signals
from ..core.elaboration import elaborate

# -- technology constants (NAND2-equivalent model) ---------------------------

GE_FLOP = 6.0                 # D flip-flop, per bit
GE_SRAM_BIT = 1.2             # dense array storage, per bit
SRAM_THRESHOLD_BITS = 1024    # arrays above this use the SRAM model
GE_AREA_UM2 = 0.8             # um^2 per GE (generic planar node)
GATE_DELAY_PS = 15.0          # one logic level
FLOP_OVERHEAD_LEVELS = 3.0    # clk-to-q + setup, in levels
ACTIVITY_FACTOR = 0.10
ENERGY_PER_GE_TOGGLE_FJ = 0.6


@dataclass
class ModuleEstimate:
    """Per-module area/timing contribution."""

    name: str
    kind: str
    reg_bits: int = 0
    sram_bits: int = 0
    comb_ge: float = 0.0
    delay_levels: float = 0.0

    @property
    def area_ge(self):
        return (self.reg_bits * GE_FLOP
                + self.sram_bits * GE_SRAM_BIT
                + self.comb_ge)


@dataclass
class EdaReport:
    """Whole-design estimate (the Figure 5b stand-in)."""

    modules: list = field(default_factory=list)

    @property
    def area_ge(self):
        return sum(m.area_ge for m in self.modules)

    @property
    def area_um2(self):
        return self.area_ge * GE_AREA_UM2

    @property
    def area_mm2(self):
        return self.area_um2 / 1e6

    @property
    def critical_path_levels(self):
        return max((m.delay_levels for m in self.modules), default=0.0) \
            + FLOP_OVERHEAD_LEVELS

    @property
    def cycle_time_ps(self):
        return self.critical_path_levels * GATE_DELAY_PS

    @property
    def max_frequency_mhz(self):
        return 1e6 / self.cycle_time_ps

    @property
    def energy_per_cycle_pj(self):
        return (self.area_ge * ACTIVITY_FACTOR
                * ENERGY_PER_GE_TOGGLE_FJ) / 1000.0

    def by_module_class(self):
        """Aggregate area per model class name."""
        totals = {}
        for m in self.modules:
            totals[m.kind] = totals.get(m.kind, 0.0) + m.area_ge
        return totals

    def summary(self):
        lines = [
            f"area           : {self.area_ge:10.0f} GE "
            f"({self.area_mm2:.4f} mm2)",
            f"critical path  : {self.critical_path_levels:10.1f} levels "
            f"({self.cycle_time_ps:.0f} ps, "
            f"{self.max_frequency_mhz:.0f} MHz)",
            f"energy/cycle   : {self.energy_per_cycle_pj:10.2f} pJ",
        ]
        return "\n".join(lines)


def estimate(model):
    """Estimate area/energy/timing for an elaborated RTL design."""
    if not model.is_elaborated():
        elaborate(model)
    report = EdaReport()
    irs = {}                        # block body -> (ir, hole_of)
    for sub in model._all_models:
        report.modules.append(_estimate_module(sub, irs))
    return report


def _estimate_module(model, irs):
    est = ModuleEstimate(name=model.full_name(),
                         kind=type(model).__name__)

    # Each block is costed from its body's IR, with this instance's
    # constants; register/array bits are the signals ticks write.
    flopped = {}
    for blk in model.get_comb_blocks() + model.get_tick_blocks():
        try:
            body, holes, ir, hole_of = lowered(blk, irs)
        except (TranslationError, Refused):
            # FL-style blocks have no hardware estimate.
            continue
        if ir.kind != "comb":
            for sig in signals(holes, body.writes):
                flopped[id(sig)] = sig.nbits
        ge, depth = _block_cost(ir.body, {
            leaf: holes[h] for leaf, h in hole_of.items()
            if isinstance(holes[h], int)}, bool(body.c))
        est.comb_ge += ge
        est.delay_levels = max(est.delay_levels, depth)

    # Array-shaped storage gets the SRAM model when large.
    array_bits = _array_bits(model, flopped)
    plain_bits = sum(flopped.values()) - array_bits["flop_covered"]
    est.reg_bits = max(0, plain_bits) + array_bits["small"]
    est.sram_bits = array_bits["large"]
    return est


def _array_bits(model, flopped):
    """Classify flopped bits belonging to signal-list attributes."""
    from ..core.signals import Signal
    small = large = covered = 0
    for name, attr in model.__dict__.items():
        if name.startswith("_") or not isinstance(attr, list):
            continue
        sigs = [x for x in attr if isinstance(x, Signal)]
        if not sigs or len(sigs) != len(attr):
            continue
        bits = sum(s.nbits for s in sigs if id(s) in flopped)
        if not bits:
            continue
        covered += bits
        if bits >= SRAM_THRESHOLD_BITS:
            large += bits
        else:
            small += bits
    return {"small": small, "large": large, "flop_covered": covered}


# -- per-operator models -------------------------------------------------------


def _op_ge(op, width):
    if op in ("+", "-"):
        return 7.0 * width
    if op == "*":
        return 5.0 * width * width / 8.0
    if op in ("//", "%"):
        return 12.0 * width * width / 8.0
    if op in ("&", "|", "^"):
        return 1.0 * width
    if op in ("<<", ">>"):
        return 3.0 * width * max(1.0, math.log2(max(2, width)))
    raise ValueError(op)


def _op_levels(op, width):
    lg = math.log2(max(2, width))
    if op in ("+", "-"):
        return lg + 2
    if op == "*":
        return 2 * lg + 4
    if op in ("//", "%"):
        return 4 * lg + 8
    if op in ("&", "|", "^"):
        return 1
    if op in ("<<", ">>"):
        return lg
    raise ValueError(op)


def _expr_cost(node, consts, typed=True):
    """Return (ge, depth_levels, width) of an expression; ``consts``
    maps ``id`` of a ``Const`` hole to this instance's value, and
    ``typed`` says the range pass ran on its body (``BoolOp.zero_one``
    is decided)."""
    def cost(expr):
        return _expr_cost(expr, consts, typed)

    if isinstance(node, Const):
        value = consts.get(id(node), node.value)
        return 0.0, 0.0, max(1, value.bit_length())
    if isinstance(node, SigRead):
        ref = node.ref
        width = ref.width
        if ref.is_dynamic():
            ge_i, d_i, _ = cost(ref.index)
            n = len(ref.signals)
            return (ge_i + 2.5 * width * n,
                    d_i + math.log2(max(2, n)), width)
        return 0.0, 0.0, width
    if isinstance(node, (LocalRead, StateRead)):
        extra = (0.0, 0.0)
        if getattr(node, "index", None) is not None:
            ge_i, d_i, _ = cost(node.index)
            extra = (ge_i + 32.0, d_i + 2)
        return extra[0], extra[1], 32
    if isinstance(node, BinOp):
        ge_l, d_l, w_l = cost(node.left)
        ge_r, d_r, w_r = cost(node.right)
        width = max(w_l, w_r)
        # Constant shifts are wiring.
        if node.op in ("<<", ">>") and isinstance(node.right, Const):
            return ge_l + ge_r, max(d_l, d_r), width
        return (ge_l + ge_r + _op_ge(node.op, width),
                max(d_l, d_r) + _op_levels(node.op, width), width)
    if isinstance(node, Wrap):
        return cost(node.expr)          # truncation is wiring
    if isinstance(node, UnOp):
        ge, depth, width = cost(node.operand)
        return ge + width * 0.5, depth + 1, width
    if isinstance(node, Cmp):
        ge_l, d_l, w_l = cost(node.left)
        ge_r, d_r, w_r = cost(node.right)
        width = max(w_l, w_r)
        if node.op in ("==", "!="):
            ge, lv = 1.5 * width, math.log2(max(2, width)) + 1
        else:
            ge, lv = 7.0 * width, math.log2(max(2, width)) + 2
        return ge_l + ge_r + ge, max(d_l, d_r) + lv, 1
    if isinstance(node, BoolOp):
        if typed and not node.zero_one:
            # Python's operand, not a 0/1: the muxes Verilog prints.
            return cost(node.select())
        # 1-bit logic; also every and / or of a body whose types are
        # undecided, which the range pass never judged.
        parts = [cost(v) for v in node.values]
        return (sum(p[0] for p in parts) + len(parts),
                max(p[1] for p in parts) + 1, 1)
    if isinstance(node, IfExp):
        shift = node.then.expr if isinstance(node.then, Wrap) else node.then
        if isinstance(shift, BinOp) \
                and getattr(node.cond, "left", None) is shift.right:
            # The rewrite's guard of a dynamic <<: a Verilog shift past
            # the width is 0 already, so the guard is no hardware.
            return cost(node.then)
        ge_c, d_c, _ = cost(node.cond)
        ge_t, d_t, w_t = cost(node.then)
        ge_e, d_e, w_e = cost(node.orelse)
        width = max(w_t, w_e)
        return (ge_c + ge_t + ge_e + 2.5 * width,
                max(d_c, d_t, d_e) + 1, width)
    if isinstance(node, Concat):
        # Concatenation is wiring: its parts side by side.
        parts = [cost(expr) for expr, _ in node.parts]
        return (sum(p[0] for p in parts), max(p[1] for p in parts),
                sum(width for _, width in node.parts))
    return 0.0, 0.0, 1


def _block_cost(stmts, consts, typed, mux_depth=0):
    """Return (ge, max_depth) of a statement list (see
    :func:`_expr_cost`)."""
    total_ge = 0.0
    max_depth = 0.0
    for stmt in stmts:
        if isinstance(stmt, AssignSig):
            ge, depth, _ = _expr_cost(stmt.expr, consts, typed)
            width = stmt.ref.width
            # Writes under conditionals imply enable/select muxing.
            ge += 2.5 * width * max(1, mux_depth)
            if stmt.ref.is_dynamic():
                ge += 1.0 * len(stmt.ref.signals) * width
            total_ge += ge
            max_depth = max(max_depth, depth + mux_depth)
        elif isinstance(stmt, AssignLocal):
            ge, depth, _ = _expr_cost(stmt.expr, consts, typed)
            total_ge += ge
            max_depth = max(max_depth, depth + mux_depth)
        elif isinstance(stmt, If):
            ge_c, d_c, _ = _expr_cost(stmt.cond, consts, typed)
            total_ge += ge_c + 1
            inner = mux_depth + 1
            ge_b, d_b = _block_cost(stmt.body, consts, typed, inner)
            ge_e, d_e = _block_cost(stmt.orelse, consts, typed, inner)
            total_ge += ge_b + ge_e
            max_depth = max(max_depth, d_c + mux_depth, d_b, d_e)
        elif isinstance(stmt, For):
            trips = len(range(stmt.start, stmt.stop, stmt.step))
            ge_b, d_b = _block_cost(stmt.body, consts, typed, mux_depth)
            total_ge += ge_b * trips
            max_depth = max(max_depth, d_b)
        elif isinstance(stmt, DeclLocalArray):
            pass
    return total_ge, max_depth
