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
    lower,
)
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
    for sub in model._all_models:
        report.modules.append(_estimate_module(sub))
    return report


def _estimate_module(model):
    est = ModuleEstimate(name=model.full_name(),
                         kind=type(model).__name__)

    # Register/array bits: signals written via .next.
    flopped = {}
    irs = []
    for blk in model.get_comb_blocks():
        irs.append(("comb", _lower(blk)))
    for blk in model.get_tick_blocks():
        irs.append(("tick", _lower(blk)))

    for kind, ir in irs:
        if ir is None:
            continue
        if kind == "tick":
            for ref in ir.sig_writes:
                for sig in ref.signals:
                    flopped[id(sig)] = sig.nbits

    # Array-shaped storage gets the SRAM model when large.
    array_bits = _array_bits(model, flopped)
    plain_bits = sum(flopped.values()) - array_bits["flop_covered"]
    est.reg_bits = max(0, plain_bits) + array_bits["small"]
    est.sram_bits = array_bits["large"]

    # Combinational cost + depth per block.
    for kind, ir in irs:
        if ir is None:
            continue
        ge, depth = _block_cost(ir.body)
        est.comb_ge += ge
        est.delay_levels = max(est.delay_levels, depth)
    return est


def _lower(blk):
    try:
        return lower(blk)
    except TranslationError:
        # FL-style blocks have no hardware estimate.
        return None


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


def _expr_cost(node):
    """Return (ge, depth_levels, width) of an expression."""
    if isinstance(node, Const):
        return 0.0, 0.0, max(1, node.value.bit_length())
    if isinstance(node, SigRead):
        ref = node.ref
        width = ref.width
        if ref.is_dynamic():
            ge_i, d_i, _ = _expr_cost(ref.index)
            n = len(ref.signals)
            return (ge_i + 2.5 * width * n,
                    d_i + math.log2(max(2, n)), width)
        return 0.0, 0.0, width
    if isinstance(node, (LocalRead, StateRead)):
        extra = (0.0, 0.0)
        if getattr(node, "index", None) is not None:
            ge_i, d_i, _ = _expr_cost(node.index)
            extra = (ge_i + 32.0, d_i + 2)
        return extra[0], extra[1], 32
    if isinstance(node, BinOp):
        ge_l, d_l, w_l = _expr_cost(node.left)
        ge_r, d_r, w_r = _expr_cost(node.right)
        width = max(w_l, w_r)
        # Constant shifts are wiring.
        if node.op in ("<<", ">>") and isinstance(node.right, Const):
            return ge_l + ge_r, max(d_l, d_r), width
        return (ge_l + ge_r + _op_ge(node.op, width),
                max(d_l, d_r) + _op_levels(node.op, width), width)
    if isinstance(node, UnOp):
        ge, depth, width = _expr_cost(node.operand)
        return ge + width * 0.5, depth + 1, width
    if isinstance(node, Cmp):
        ge_l, d_l, w_l = _expr_cost(node.left)
        ge_r, d_r, w_r = _expr_cost(node.right)
        width = max(w_l, w_r)
        if node.op in ("==", "!="):
            ge, lv = 1.5 * width, math.log2(max(2, width)) + 1
        else:
            ge, lv = 7.0 * width, math.log2(max(2, width)) + 2
        return ge_l + ge_r + ge, max(d_l, d_r) + lv, 1
    if isinstance(node, BoolOp):
        parts = [_expr_cost(v) for v in node.values]
        return (sum(p[0] for p in parts) + len(parts),
                max(p[1] for p in parts) + 1, 1)
    if isinstance(node, IfExp):
        ge_c, d_c, _ = _expr_cost(node.cond)
        ge_t, d_t, w_t = _expr_cost(node.then)
        ge_e, d_e, w_e = _expr_cost(node.orelse)
        width = max(w_t, w_e)
        return (ge_c + ge_t + ge_e + 2.5 * width,
                max(d_c, d_t, d_e) + 1, width)
    return 0.0, 0.0, 1


def _block_cost(stmts, mux_depth=0):
    """Return (ge, max_depth) of a statement list."""
    total_ge = 0.0
    max_depth = 0.0
    for stmt in stmts:
        if isinstance(stmt, AssignSig):
            ge, depth, _ = _expr_cost(stmt.expr)
            width = stmt.ref.width
            # Writes under conditionals imply enable/select muxing.
            ge += 2.5 * width * max(1, mux_depth)
            if stmt.ref.is_dynamic():
                ge += 1.0 * len(stmt.ref.signals) * width
            total_ge += ge
            max_depth = max(max_depth, depth + mux_depth)
        elif isinstance(stmt, AssignLocal):
            ge, depth, _ = _expr_cost(stmt.expr)
            total_ge += ge
            max_depth = max(max_depth, depth + mux_depth)
        elif isinstance(stmt, If):
            ge_c, d_c, _ = _expr_cost(stmt.cond)
            total_ge += ge_c + 1
            ge_b, d_b = _block_cost(stmt.body, mux_depth + 1)
            ge_e, d_e = _block_cost(stmt.orelse, mux_depth + 1)
            total_ge += ge_b + ge_e
            max_depth = max(max_depth, d_c + mux_depth, d_b, d_e)
        elif isinstance(stmt, For):
            trips = max(
                0, (stmt.stop - stmt.start + stmt.step - 1) // stmt.step)
            ge_b, d_b = _block_cost(stmt.body, mux_depth)
            total_ge += ge_b * trips
            max_depth = max(max_depth, d_b)
        elif isinstance(stmt, DeclLocalArray):
            pass
    return total_ge, max_depth
