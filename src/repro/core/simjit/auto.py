"""Automatic hierarchy specialization.

The paper notes (Section IV-A): *"Currently, the designer must manually
invoke these specializers on their models, although future work could
consider adding support to automatically traverse the model hierarchy
to find and specialize appropriate CL and RTL models."*

This module implements that extension, and it is the one place that
decides what a design compiles to (everything spelled ``jit=True`` ends
here).  :func:`auto_specialize` walks an un-elaborated design from the
top.  A design whose behavioral blocks are all inside the SimJIT
subset is one engine.  Under a parent that is not, *appropriate* means
an engine that wins: a maximal translatable subtree compiles only
where the CPython rung would leave a block of it running as the
user's closure (:func:`kept_blocks`), and is spliced back into the
hierarchy as a drop-in :class:`JITModel` wrapper.  Every other model
stays interpreted and says why
(``sim.sched_info()["simjit"]["interpreted"]``): FL models, anything
outside the subset, and translatable subtrees whose every block the
simulator lowers and schedules statically anyway.
"""

from __future__ import annotations

from .. import bodies
from ..elaboration import ElaborationError
from ..model import MAX_LIST_DEPTH, Model
from ..scheduling import unelaborated_schedule
from .specializer import (JITModel, SimJITCL, SimJITRTL, SpecializationError,
                          c_refusal)

#: Why a translatable subtree under an interpreted parent is not
#: compiled: its engine would only replace lowered, statically
#: scheduled blocks, and pay a C -> Python -> C crossing for it.
LOWERED = "every block lowered and statically scheduled"


def auto_specialize(model, allowed_levels=("rtl", "cl")):
    """Specialize ``model``: one engine when the whole design is
    translatable, else an engine for each maximal translatable subtree
    the CPython rung would not run on its own lowered, statically
    scheduled blocks.

    ``model`` must not be elaborated yet.  A design that is
    translatable from the top down comes back as its one
    :class:`JITModel` wrapper.  Anything else comes back as ``model``
    itself, with wrappers spliced in below where a subtree holds a
    block :func:`kept_blocks` names (a comb block with an output on a
    combinational cycle of signals, a block without a body or whose
    body has no Python form, a CL tick); the other translatable
    subtrees stay interpreted, their reason :data:`LOWERED`.  So
    always use the return value
    (``SimulationTool`` refuses a model whose ports a wrapper has
    adopted)::

        net = MeshNetworkStructural(RouterRTL, 16, 256, 32, 2)
        net = auto_specialize(net)              # not: auto_specialize(net)
        sim = SimulationTool(net.elaborate())   # one engine
    """
    if model.is_elaborated():
        raise SpecializationError(
            "auto_specialize must run before top-level elaboration")
    return _specialize(model, allowed_levels, None)


def _specialize(node, allowed_levels, kept):
    """``node``'s wrapper when its whole subtree is one engine worth
    building, else ``node`` with the same question answered for each
    child.  ``kept`` is the top's :func:`kept_blocks`, asked once the
    top is refused (None until then)."""
    if isinstance(node, JITModel):      # specialized by hand already
        return node
    models = list(_subtree(node))
    ticks = [blk for sub in models for blk in sub.get_tick_blocks()]
    combs = [blk for sub in models for blk in sub.get_comb_blocks()]
    refusal = _first_refusal(ticks, combs, allowed_levels)
    if refusal is None and (kept is None or any(
            blk in kept for blk in ticks + combs)):
        has_cl = any(blk.level == "cl" for blk in ticks)
        return (SimJITCL if has_cl else SimJITRTL)(
            node.elaborate()).specialize()
    # ``sched_info()`` reports it under the name elaboration gives.
    node._simjit_refusal = refusal or (None, LOWERED)
    if refusal is None:
        return node
    if kept is None:
        kept = kept_blocks(node)
    for container, key, child, _ in _submodel_attrs(node):
        container[key] = _specialize(child, allowed_levels, kept)
    return node


def kept_blocks(top):
    """``{block: reason}`` for every block of un-elaborated design
    ``top`` that the CPython rung would run as the user's closure:
    what ``SimulationTool(top.elaborate())`` names in
    ``sched_info()["lowered"]["kept"]``, read before elaboration.  The
    reasons are :func:`repro.core.bodies.kept_reason`'s, the
    simulator's own, over the same ``body_or_why`` answers and the
    blocks the one static scheduler demotes, with the outputs that
    close their cycles, here built on the
    un-elaborated design
    (:func:`repro.core.scheduling.unelaborated_schedule`); a blocking
    FL tick reads as a ``tick_fl`` block, since which FL ticks run on
    a thread only the simulator knows.  A hand-made
    :class:`JITModel`'s blocks have no body."""
    models = list(dict.fromkeys(_subtree(top)))
    combs = [blk for model in models for blk in model.get_comb_blocks()]
    ticks = [blk for model in models for blk in model.get_tick_blocks()]
    answers = {blk: ("a SimJIT engine" if isinstance(blk.model, JITModel)
                     else bodies.body_or_why(blk)) for blk in combs}
    try:
        cyclic = unelaborated_schedule(models, [
            (blk, None, None, None) if isinstance(answer, str) else
            (blk, bodies.signals(answer[1], answer[0].reads),
             bodies.signals(answer[1], answer[0].writes),
             bodies.outputs(*answer))
            for blk, answer in answers.items()]).demoted
    except ElaborationError:
        top.elaborate()     # the same error, with the names it gives
        raise
    answers.update((blk, bodies.body_or_why(blk)) for blk in ticks
                   if blk.level == "rtl")
    paths = _paths(top)
    kept = {blk: bodies.kept_reason(
        blk, answers.get(blk), cyclic.get(blk),
        f"{paths[id(blk.model)]}.{blk.func.__name__}")
        for blk in combs + ticks}
    return {blk: why for blk, why in kept.items() if why is not None}


def _first_refusal(ticks, combs, allowed_levels):
    """``(block, reason)`` for the first block that keeps a subtree out
    of a specializer, or None.  Levels first: they cost no lowering, so
    an FL model anywhere below a node is found before the node's other
    descendants are lowered.  Then every block is asked for its body
    (:mod:`repro.core.bodies`) — the one its specializer binds to, so
    a block body is lowered once, whoever asks again — and refuses the
    subtree where it has none, or C cannot run the block
    (:func:`~.specializer.c_refusal`)."""
    for blk in ticks:
        if blk.level not in allowed_levels:
            return blk, (f"level '{blk.level}'; "
                         f"allowed: {sorted(allowed_levels)}")
    for blk in ticks + combs:
        answer = bodies.body_or_why(blk)
        why = answer if isinstance(answer, str) else c_refusal(blk, *answer)
        if why:
            return blk, why
    return None


def _paths(top):
    """``{id(model): full name}`` over un-elaborated ``top``'s subtree:
    the names elaboration will give, a model's attributes named before
    its children's, the first name of a model met twice kept."""
    paths = {id(top): top.name or "top"}

    def name(model):
        children = []
        for _, _, child, attr in _submodel_attrs(model):
            if id(child) not in paths:
                paths[id(child)] = f"{paths[id(model)]}.{attr}"
                children.append(child)
        for child in children:
            name(child)

    name(top)
    return paths


def _subtree(node):
    yield node
    for _, _, child, _ in _submodel_attrs(node):
        yield from _subtree(child)


def _submodel_attrs(model):
    """Yield (container, key, child, name) for every Model-valued
    attribute, descending into lists as deep as elaboration does, and
    named as elaboration names it (``name``, ``name[i]``...).  Not
    ``get_submodels()``: this runs before elaboration has filled it,
    and splicing a wrapper in needs the container that holds the
    child."""
    for name, attr in list(model.__dict__.items()):
        if not name.startswith("_") and name not in ("name", "parent"):
            yield from _models_in(model.__dict__, name, attr, 0, name)


def _models_in(container, key, attr, depth, name):
    if isinstance(attr, Model):
        yield container, key, attr, name
    elif isinstance(attr, list) and depth < MAX_LIST_DEPTH:
        for i, item in enumerate(attr):
            yield from _models_in(attr, i, item, depth + 1, f"{name}[{i}]")
