"""Hypothesis profiles, selected with ``--hypothesis-profile=NAME``."""

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
