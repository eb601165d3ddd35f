"""Swap builtins.sum for an emulation of CPython 3.12's, at start-up.

With this directory on PYTHONPATH the interpreter imports this module
before anything else runs; see emulation.py.
"""

import builtins

from emulation import compensated_sum

builtins.sum = compensated_sum
