"""Executor dtype policies backed by fixed-point formats.

Attaching a :class:`FixedPointPolicy` to an :class:`~repro.graph.Executor`
rounds every operator output onto the configured Qm.n grid with saturation,
reproducing the paper's evaluation configurations ("we use a 32-bit
fixed-point data type for the first 3 RQs"; "16-bit fixed point with 14
integer and 2 fraction bits" for RQ4).
"""

from __future__ import annotations

from ..graph.executor import DTypePolicy
from ..graph.graph import POLICY_EXEMPT_CATEGORIES, Node
from .fixed_point import FIXED16, FIXED32, FixedPointFormat


class FixedPointPolicy(DTypePolicy):
    """Quantize every operator output to a fixed-point grid.

    Parameters
    ----------
    fmt:
        The fixed-point format to apply.
    """

    #: Node categories whose outputs are left untouched: weights live in
    #: (ECC-protected) memory under the paper's fault model and their
    #: representation is not what is being studied.  A class constant, so
    #: an instance pickles without a set, whose iteration order (and so
    #: the pickle's bytes, and every content fingerprint over them) would
    #: depend on the process's string-hash seed.
    skip_categories = POLICY_EXEMPT_CATEGORIES

    def __init__(self, fmt: FixedPointFormat) -> None:
        self.fmt = fmt
        self.name = f"fixed{fmt.total_bits}"

    def apply(self, node: Node, value):
        if node.category in self.skip_categories:
            return value
        return self.fmt.quantize(value)


def fixed32_policy() -> FixedPointPolicy:
    """The paper's default 32-bit fixed-point evaluation policy."""
    return FixedPointPolicy(FIXED32)


def fixed16_policy() -> FixedPointPolicy:
    """The paper's RQ4 16-bit (Q14.2) evaluation policy."""
    return FixedPointPolicy(FIXED16)
