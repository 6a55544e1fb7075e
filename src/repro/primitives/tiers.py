"""The kernel-implementation name recorded in run configs.

The label is fixed: the compiled C passes and their NumPy fallbacks
give identical colors, so no run config names which one ran.  This
module stays only because ``perfbench/run.py``
reads :func:`resolve_kernel_tier` to label its config; nothing in the
package imports it.
"""

from __future__ import annotations


def resolve_kernel_tier(tier=None) -> str:
    """The kernel label every run records: always ``"numpy"``."""
    return "numpy"
