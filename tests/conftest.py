"""Registers the hypothesis profile CI's deep oracle steps load with
``--hypothesis-profile=deep``."""

from hypothesis import settings

settings.register_profile("deep", max_examples=400, stateful_step_count=60, deadline=None)
