"""Test-suite set-up shared by every test module."""

import numpy as np

# numpy 2.0 renamed trapz to trapezoid; the tests use the new name, and
# tier-1 also runs on numpy 1.24, the lowest version pyproject.toml accepts
if not hasattr(np, "trapezoid"):
    np.trapezoid = np.trapz
