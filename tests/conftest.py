import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and never time out, so
# the suite repeats exactly on a loaded machine.
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")
