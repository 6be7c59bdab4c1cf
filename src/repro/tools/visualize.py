"""Design visualization: textual hierarchy and connectivity reports.

Simple analysis tools in the model/tool-split spirit (paper Section
III-B, Figure 3's "User Tool" box): they read an elaborated model
instance and render it for humans.
"""

from __future__ import annotations

from ..core.elaboration import elaborate
from ..core.signals import InPort, OutPort, Wire


def hierarchy_tree(model):
    """ASCII tree of the module hierarchy with per-model stats.

    >>> print(hierarchy_tree(elaborated_mesh))    # doctest: +SKIP
    top (MeshNetworkStructural)  [ports=98 blocks=0]
    ├── routers[0] (RouterRTL)  [ports=32 blocks=2]
    ...
    """
    if not model.is_elaborated():
        elaborate(model)
    lines = []
    _tree_lines(model, "", True, lines, root=True)
    return "\n".join(lines)


def _tree_lines(model, prefix, is_last, lines, root=False):
    nports = len(model.get_ports())
    nblocks = len(model.get_comb_blocks()) + len(model.get_tick_blocks())
    label = (f"{model.name} ({type(model).__name__})  "
             f"[ports={nports} blocks={nblocks} level={model.level()}]")
    if root:
        lines.append(label)
    else:
        joint = "└── " if is_last else "├── "
        lines.append(prefix + joint + label)
    children = model.get_submodels()
    for i, child in enumerate(children):
        ext = "    " if (is_last or root) else "│   "
        child_prefix = "" if root else prefix + ext
        if root:
            child_prefix = ""
            _tree_lines(child, child_prefix, i == len(children) - 1, lines)
        else:
            _tree_lines(child, prefix + ("    " if is_last else "│   "),
                        i == len(children) - 1, lines)


def design_stats(model):
    """Aggregate design statistics: model/signal/net/block counts."""
    if not model.is_elaborated():
        elaborate(model)
    tick_levels = {"fl": 0, "cl": 0, "rtl": 0}
    ncomb = 0
    for sub in model._all_models:
        ncomb += len(sub.get_comb_blocks())
        for blk in sub.get_tick_blocks():
            tick_levels[blk.level] += 1
    return {
        "models": len(model._all_models),
        "signals": len(model._all_signals),
        "nets": len(model._all_nets),
        "state_bits": sum(net.nbits for net in model._all_nets),
        "comb_blocks": ncomb,
        "tick_blocks_fl": tick_levels["fl"],
        "tick_blocks_cl": tick_levels["cl"],
        "tick_blocks_rtl": tick_levels["rtl"],
        "connectors": len(model._connectors),
    }


def connectivity_report(model):
    """Human-readable listing of the top model's port nets."""
    if not model.is_elaborated():
        elaborate(model)
    net_members = {}
    for sig in model._all_signals:
        net_members.setdefault(id(sig._net.find()), []).append(sig)
    lines = []
    for port in model.get_ports():
        members = net_members.get(id(port._net.find()), [])
        others = [
            f"{sig.parent.full_name()}.{sig.name}"
            for sig in members if sig is not port and sig.parent
        ]
        kind = "in " if isinstance(port, InPort) else "out"
        target = ", ".join(sorted(others)) if others else "(unconnected)"
        lines.append(f"{kind} {port.name:24} -> {target}")
    return "\n".join(lines)
