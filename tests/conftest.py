"""Settings shared by the whole test session."""

from hypothesis import settings

# every run draws the same examples, so a pass or failure reproduces; each
# test still sets its own max_examples, deadline and health checks
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
