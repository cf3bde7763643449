"""Settings shared by the whole test session."""

import atexit
import os
import shutil
import tempfile

from hypothesis import settings

# every run draws the same examples, so a pass or failure reproduces; each
# test still sets its own max_examples, deadline and health checks
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# the decoded-file cache of the test run, and of every process it starts,
# is its own: the suite never reads or writes the user's cache
_CACHE_HOME = tempfile.mkdtemp(prefix="physcomp-cache-")
os.environ["XDG_CACHE_HOME"] = _CACHE_HOME
atexit.register(shutil.rmtree, _CACHE_HOME, ignore_errors=True)
