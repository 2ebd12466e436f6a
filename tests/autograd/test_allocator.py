"""The allocator policy set when ``repro.autograd`` is imported.

glibc hands a freed block of 128 KB or more back to the kernel, and
the next allocation of that size faults every page in again. The
autograd package raises glibc's mmap and trim thresholds at import,
so buffers an op frees are reused by the next op. Checked in a fresh
interpreter: the test process has long since set the policy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

ROUNDS = 200
ARRAYS = 4  # held together: 8 MB of free heap top after each round
ARRAY_BYTES = 2 << 20

PROBE = f"""
import resource
import numpy as np
import repro.autograd

def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

before = minor_faults()
for __ in range({ROUNDS}):
    held = [np.ones({ARRAY_BYTES} // 8) for __ in range({ARRAYS})]
    del held
print(minor_faults() - before)
"""


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


@pytest.mark.skipif(not _on_glibc(), reason="the policy applies to glibc only")
def test_freed_buffers_are_reused_without_faulting():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    faults = int(done.stdout.split()[-1])
    # Without the policy every round faults each page in again (about
    # one fault per page per round); with it, only the first does.
    pages = ROUNDS * ARRAYS * ARRAY_BYTES // os.sysconf("SC_PAGE_SIZE")
    assert faults < pages // 20, f"{faults} minor faults for {pages} page touches"
