"""One hypothesis profile for every property suite: bounded and deterministic."""

from hypothesis import settings

settings.register_profile("setqm", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("setqm")
