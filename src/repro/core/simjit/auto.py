"""Automatic hierarchy specialization.

The paper notes (Section IV-A): *"Currently, the designer must manually
invoke these specializers on their models, although future work could
consider adding support to automatically traverse the model hierarchy
to find and specialize appropriate CL and RTL models."*

This module implements that extension: :func:`auto_specialize` walks an
un-elaborated design, finds the maximal subtrees whose behavioral
blocks are fully inside the SimJIT subset, compiles each, and splices
the drop-in :class:`JITModel` wrappers back into the hierarchy.  FL
models (and anything outside the subset) stay interpreted.
"""

from __future__ import annotations

from ..ast_ir import TranslationError, lower
from ..model import Model
from .specializer import SimJITCL, SimJITRTL, SpecializationError

_LEVEL_SPECIALIZERS = {
    "rtl": SimJITRTL,
    "cl": SimJITCL,
}


def _blocks_translatable(model, allowed_levels, irs):
    """Can this model's own blocks be lowered by a specializer?

    ``irs`` (``{block: BlockIR, or None outside the subset}``) is what
    this call of :func:`auto_specialize` has lowered so far under one
    child of its top: every block is lowered at most once, whether the
    answer is then used to specialize the subtree or to descend."""
    if any(blk.level not in allowed_levels
           for blk in model.get_tick_blocks()):
        return False
    for blk in model.get_tick_blocks() + model.get_comb_blocks():
        if blk not in irs:
            try:
                irs[blk] = lower(blk)
            except TranslationError:
                irs[blk] = None
        if irs[blk] is None:
            return False
    return True


def _submodel_attrs(model):
    """Yield (container, key, child) for every Model-valued attribute,
    descending into lists.  Not ``get_submodels()``: this runs before
    elaboration has filled it, and splicing a wrapper in needs the
    container that holds the child."""
    for name, attr in list(model.__dict__.items()):
        if name.startswith("_"):
            continue
        if isinstance(attr, Model):
            yield model.__dict__, name, attr
        elif isinstance(attr, list):
            for i, item in enumerate(attr):
                if isinstance(item, Model):
                    yield attr, i, item


def _subtree_specializable(model, allowed_levels, irs):
    if not _blocks_translatable(model, allowed_levels, irs):
        return False
    return all(
        _subtree_specializable(child, allowed_levels, irs)
        for _, _, child in _submodel_attrs(model)
    )


def auto_specialize(model, allowed_levels=("rtl", "cl"), stats=None):
    """Specialize every maximal SimJIT-compatible subtree of ``model``.

    ``model`` must not be elaborated yet.  Returns ``model`` (children
    replaced in place by JIT wrappers).  ``stats`` (optional dict)
    collects the names of specialized and skipped submodels.
    """
    if stats is None:
        stats = {"specialized": [], "interpreted": []}
    _specialize_children(model, allowed_levels, stats)
    return model


def _specialize_children(model, allowed_levels, stats, lowered=None):
    """``lowered`` is the memo of the subtree being descended; at the
    top every child starts one of its own, so the IRs of one child's
    subtree go when that child is done."""
    if model.is_elaborated():
        raise SpecializationError(
            "auto_specialize must run before top-level elaboration")
    model._auto_specialize_stats = stats
    for container, key, child in _submodel_attrs(model):
        irs = {} if lowered is None else lowered
        if _subtree_specializable(child, allowed_levels, irs):
            container[key] = _specialize_one(child, irs)
            stats["specialized"].append(type(child).__name__)
        else:
            # Descend: maybe grandchildren are specializable.  What
            # the failed walk lowered is theirs to use.
            _specialize_children(child, allowed_levels, stats, irs)
            stats["interpreted"].append(type(child).__name__)


def _specialize_one(child, irs):
    has_cl = any(
        blk.level == "cl"
        for sub in _all_models(child) for blk in sub.get_tick_blocks()
    )
    specializer_cls = SimJITCL if has_cl else SimJITRTL
    spec = specializer_cls(child.elaborate())
    spec._lowered = irs
    return spec.specialize()


def _all_models(model):
    yield model
    for _, _, child in _submodel_attrs(model):
        yield from _all_models(child)
