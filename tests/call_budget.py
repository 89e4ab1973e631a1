"""Count the Python calls that repro code makes, for call-budget tests.

A budget test runs a workload under ``sys.setprofile`` and counts the
``call`` events of functions defined in ``repro``.  The profiler sees
Python frames only (builtins are excluded), so the count repeats exactly
from run to run: it counts work, not time.  A failing budget names the
functions that cost the most, so the message alone says where to look.
"""

import os
import sys
from collections import Counter

import repro

_REPRO_ROOT = os.path.dirname(repro.__file__) + os.sep


def count_repro_calls(run):
    """Call ``run()``; return its repro-owned calls, keyed by
    ``(path under repro/, function name)``."""
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_REPRO_ROOT):
                counts[code.co_filename[len(_REPRO_ROOT):], code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def heaviest(counts, ops, top=8):
    """The *top* functions of *counts*, as calls per op over *ops* ops."""
    return ", ".join(
        "%s:%s %.2f" % (path, name, count / ops)
        for (path, name), count in counts.most_common(top)
    )
