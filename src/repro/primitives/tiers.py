"""The kernel-implementation name recorded in run configs.

Kernels are NumPy, and colors do not depend on the kernel
implementation.  This module stays only because ``perfbench/run.py``
reads :func:`resolve_kernel_tier` to label its config; nothing in the
package imports it.
"""

from __future__ import annotations


def resolve_kernel_tier(tier=None) -> str:
    """The kernel implementation every run uses: always ``"numpy"``."""
    return "numpy"
