"""Suite-wide settings: one deterministic hypothesis profile."""

from hypothesis import settings

settings.register_profile("pinned", derandomize=True, max_examples=60)
settings.load_profile("pinned")
