"""Cold set-up time: import memorymodes.cli and validate the given configs.

Started by run.py in a fresh interpreter per sample; prints the seconds taken.
"""

import sys
import time

started = time.perf_counter()
from memorymodes import cli  # noqa: E402  (the import is what is timed)

for path in sys.argv[1:]:
    cli.validate_config(path)
print(repr(time.perf_counter() - started))
