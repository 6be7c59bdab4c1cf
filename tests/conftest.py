"""Hypothesis profiles, selected with ``--hypothesis-profile=NAME``,
and the ``lowerings`` fixture."""

import pytest

try:
    from hypothesis import settings
except ImportError:     # CI jobs that run hypothesis-free files only
    pass
else:
    # CI's verif-fuzz job: tests/test_generated_blocks.py and
    # tests/test_traffic_compiled.py once more, on fresh draws and
    # more of them than the corpus tier-1 replays.
    settings.register_profile("fuzz", derandomize=False, deadline=None,
                              max_examples=150)


@pytest.fixture
def lowerings(monkeypatch):
    """``{block function's qualified name: times lowered}``, counted
    where every lowering ends up, whichever module made it, from an
    empty body cache (bodies live as long as the blocks' code objects,
    so an earlier test may have lowered these)."""
    from repro.core import ast_ir, bodies
    counts = {}
    translate = ast_ir.BlockTranslator.translate

    def counting_translate(self):
        name = self.func.__qualname__
        counts[name] = counts.get(name, 0) + 1
        return translate(self)

    monkeypatch.setattr(bodies, "_bodies", {})
    monkeypatch.setattr(ast_ir.BlockTranslator, "translate",
                        counting_translate)
    return counts
