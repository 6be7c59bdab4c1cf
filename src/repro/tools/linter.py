"""Design linter: static checks over an elaborated model instance.

Another user-level tool (paper Section III-B): it inspects the design
the same way the simulator and translator do, and reports structural
problems before simulation:

- output ports that nothing drives;
- input ports of submodels left unconnected;
- nets with multiple behavioral drivers;
- combinational blocks whose body reads no signal;
- name shadowing of the implicit clk/reset;
- declared Wires that nothing observes (never read by a block, a
  connection, or an ``s.observe(...)`` registration — dead logic).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.ast_ir import TranslationError
from ..core.bodies import Refused, body_of, signals
from ..core.elaboration import elaborate
from ..core.scheduling import unbounded_reads


@dataclass
class LintWarning:
    check: str
    where: str
    message: str

    def __str__(self):
        return f"[{self.check}] {self.where}: {self.message}"


def lint(model):
    """Run all lint checks; returns a list of :class:`LintWarning`."""
    if not model.is_elaborated():
        elaborate(model)
    written, read, deaf = _block_nets(model)
    warnings = []
    warnings.extend(_check_undriven_outputs(model, written))
    warnings.extend(_check_multiple_drivers(written))
    warnings.extend(_check_empty_sensitivity(deaf))
    warnings.extend(_check_never_observed_sinks(model, read))
    return warnings


def _net_id(end):
    """Net identity of a signal or a slice of one."""
    return id((end.signal if hasattr(end, "signal") else end)._net.find())


def _block_nets(model):
    """What the behavioral blocks touch, from their block bodies:
    ``(written, read, deaf)`` — net id -> ``[(block, signal)]`` writers,
    the ids of the nets some block reads, and the comb blocks whose
    body reads no signal.  A block without a body (FL blocks, mostly)
    contributes no writers and reads what the simulator makes it
    sensitive to (:func:`~repro.core.scheduling.unbounded_reads`)."""
    written = {}
    read = set()
    deaf = []
    for sub in model._all_models:
        combs = sub.get_comb_blocks()
        for blk in combs + sub.get_tick_blocks():
            try:
                body, holes = body_of(blk)
            except (TranslationError, Refused):
                read.update(map(_net_id, unbounded_reads(sub)))
                continue
            for sig in signals(holes, body.writes):
                written.setdefault(_net_id(sig), []).append((blk, sig))
            read.update(map(_net_id, signals(holes, body.reads)))
            if blk in combs and not body.reads:
                deaf.append(blk)
    return written, read, deaf


def _check_undriven_outputs(model, written):
    warnings = []
    const_nets = {_net_id(end) for end, _ in model._const_ties}
    connector_targets = {_net_id(dst) for _, dst in model._connectors}
    has_fl = any(
        blk.level in ("fl", "cl")
        for sub in model._all_models for blk in sub.get_tick_blocks()
    )
    if has_fl:
        # FL/CL blocks may drive ports invisibly; skip this check.
        return warnings
    for port in model.get_outports():
        net = _net_id(port)
        if net not in written and net not in const_nets \
                and net not in connector_targets:
            warnings.append(LintWarning(
                "undriven-output", model.full_name(),
                f"output port {port.name!r} has no driver",
            ))
    return warnings


def _check_multiple_drivers(written):
    warnings = []
    for writers in written.values():
        if len({id(blk) for blk, _ in writers}) > 1:
            names = sorted({blk.name for blk, _ in writers})
            sig = writers[0][1]
            warnings.append(LintWarning(
                "multiple-drivers", sig.name or "?",
                f"net driven by multiple blocks: {names}",
            ))
    return warnings


def _check_empty_sensitivity(deaf):
    return [LintWarning("empty-sensitivity", blk.name,
                        "combinational block reads no signals")
            for blk in deaf]


def _check_never_observed_sinks(model, read):
    """Flag declared Wires nothing reads.

    A Wire whose net is never read by a comb/tick block, never the
    source of a connection, not merged (via connect) into a net
    containing any port, and not registered with ``s.observe(...)`` is
    write-only: the logic computing it is dead.  Ports are exempt —
    an unread OutPort is the *environment's* business — and so is any
    Wire sharing a net with one."""
    warnings = []
    seen = set(read)
    seen.update(_net_id(src) for src, _ in model._connectors)
    for sub in model._all_models:
        seen.update(_net_id(port) for port in sub.get_ports())
        seen.update(_net_id(spec) for spec in sub._observed_signals)
    for sub in model._all_models:
        for wire in sub.get_wires():
            net = _net_id(wire)
            if net in seen:
                continue
            seen.add(net)
            warnings.append(LintWarning(
                "never-observed-sink",
                sub.full_name(),
                f"wire {wire.name!r} is written but never "
                f"read by any block, connection, or observer",
            ))
    return warnings
