"""Kernel values are the same in a fresh interpreter as in this one."""

import subprocess
import sys

from qsu11 import QBase, backend, qpoch_infinite, theta_pair


def _probe_script() -> str:
    return (
        "from qsu11 import QBase, backend, qpoch_infinite, theta_pair\n"
        "b = QBase(0.5)\n"
        "v = qpoch_infinite(complex(0.3, 0.1), b).value\n"
        "t = theta_pair(complex(-1.5, 0.5), 3, b)\n"
        "print(backend())\n"
        "print(repr(v))\n"
        "print(repr(t.lhs))\n"
        "print(repr(t.residual))\n"
    )


def _run_probe() -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", _probe_script()],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.splitlines()


def test_in_process_values_match_fallback_subprocess():
    b = QBase(0.5)
    v = qpoch_infinite(complex(0.3, 0.1), b).value
    t = theta_pair(complex(-1.5, 0.5), 3, b)
    lines = _run_probe()
    assert lines[0] == backend() == "python"
    assert lines[1] == repr(v)
    assert lines[2] == repr(t.lhs)
    assert lines[3] == repr(t.residual)


def test_import_loads_no_numpy():
    # The package is plain Python: importing it pulls in no numpy.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsu11; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
