"""Pytest configuration: make the src layout importable without installation.

``pip install -e .`` is the supported path; this fallback keeps the test and
benchmark suites runnable in fully offline environments where the editable
install cannot build (no ``wheel`` package available).
"""

import os
import sys

SRC = os.path.join(os.path.dirname(__file__), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def pytest_configure(config):
    # A static-analyzer diagnostic (MDxxx) surfacing as a warning means a
    # fixture program is noisy by accident: fixtures with intended
    # redundancy pass PlanPolicy(check="off"), tests about a diagnostic
    # assert it with pytest.warns, and anything else fails loudly.
    config.addinivalue_line("filterwarnings", r"error:.*\bMD\d{3}\b:UserWarning")
