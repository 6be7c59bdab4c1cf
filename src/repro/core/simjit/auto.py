"""Automatic hierarchy specialization.

The paper notes (Section IV-A): *"Currently, the designer must manually
invoke these specializers on their models, although future work could
consider adding support to automatically traverse the model hierarchy
to find and specialize appropriate CL and RTL models."*

This module implements that extension, and it is the one place that
decides what a design compiles to (everything spelled ``jit=True`` ends
here): :func:`auto_specialize` walks an un-elaborated design from the
top, compiles each maximal subtree whose behavioral blocks are fully
inside the SimJIT subset as one engine, and splices the drop-in
:class:`JITModel` wrappers back into the hierarchy.  FL models (and
anything outside the subset) stay interpreted and say why
(``sim.sched_info()["simjit"]["interpreted"]``).
"""

from __future__ import annotations

from ..ast_ir import TranslationError, lower
from ..model import MAX_LIST_DEPTH, Model
from .specializer import JITModel, SimJITCL, SimJITRTL, SpecializationError


def auto_specialize(model, allowed_levels=("rtl", "cl")):
    """Specialize every maximal SimJIT-compatible subtree of ``model``.

    ``model`` must not be elaborated yet.  The top is a subtree like
    any other: a design that is translatable from the top down comes
    back as its one :class:`JITModel` wrapper, anything else as
    ``model`` itself with wrappers spliced in below — so always use the
    return value (``SimulationTool`` refuses a model whose ports a
    wrapper has adopted)::

        net = MeshNetworkStructural(RouterRTL, 16, 256, 32, 2)
        net = auto_specialize(net)              # not: auto_specialize(net)
        sim = SimulationTool(net.elaborate())   # one engine
    """
    if model.is_elaborated():
        raise SpecializationError(
            "auto_specialize must run before top-level elaboration")
    return _specialize(model, allowed_levels, {})


def _specialize(node, allowed_levels, irs):
    """``node``'s wrapper when its whole subtree is one engine, else
    ``node`` with the same question answered for each child.

    ``irs`` is what this call of :func:`auto_specialize` has lowered so
    far (``{block: BlockIR, or the text of its TranslationError}``, the
    text alone so that no traceback pins the walk's frames): a block is
    lowered once, whether the walk that met it ends in a
    specialization — whose specializer takes its IRs out of ``irs`` as
    it uses them — or fails further on and is asked again one level
    down."""
    if isinstance(node, JITModel):      # specialized by hand already
        return node
    models = list(_subtree(node))
    ticks = [blk for sub in models for blk in sub.get_tick_blocks()]
    combs = [blk for sub in models for blk in sub.get_comb_blocks()]
    refusal = _first_refusal(ticks, combs, allowed_levels, irs)
    if refusal is None:
        has_cl = any(blk.level == "cl" for blk in ticks)
        spec = (SimJITCL if has_cl else SimJITRTL)(node.elaborate())
        spec._lowered = irs
        return spec.specialize()
    # ``sched_info()`` reports it under the name elaboration gives.
    node._simjit_refusal = refusal
    for container, key, child in _submodel_attrs(node):
        container[key] = _specialize(child, allowed_levels, irs)
    return node


def _first_refusal(ticks, combs, allowed_levels, irs):
    """``(block, reason)`` for the first block that keeps a subtree out
    of a specializer, or None.  Levels first: they cost no lowering, so
    an FL model anywhere below a node is found before the node's other
    descendants are lowered and held while their turn comes."""
    for blk in ticks:
        if blk.level not in allowed_levels:
            return blk, (f"level '{blk.level}'; "
                         f"allowed: {sorted(allowed_levels)}")
    for blk in ticks + combs:
        if blk not in irs:
            try:
                irs[blk] = lower(blk)
            except TranslationError as exc:
                irs[blk] = str(exc)
        if isinstance(irs[blk], str):
            return blk, irs[blk]
    return None


def _subtree(node):
    yield node
    for _, _, child in _submodel_attrs(node):
        yield from _subtree(child)


def _submodel_attrs(model):
    """Yield (container, key, child) for every Model-valued attribute,
    descending into lists as deep as elaboration does.  Not
    ``get_submodels()``: this runs before elaboration has filled it,
    and splicing a wrapper in needs the container that holds the
    child."""
    for name, attr in list(model.__dict__.items()):
        if not name.startswith("_"):
            yield from _models_in(model.__dict__, name, attr, 0)


def _models_in(container, key, attr, depth):
    if isinstance(attr, Model):
        yield container, key, attr
    elif isinstance(attr, list) and depth < MAX_LIST_DEPTH:
        for i, item in enumerate(attr):
            yield from _models_in(attr, i, item, depth + 1)
