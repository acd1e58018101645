"""Physical operators: pull-based iterators over the simulated device."""

from repro.engine.operators.base import ExecContext, Operator, PlanExecutionError
from repro.engine.operators.climbing_select import ClimbingSelectOp
from repro.engine.operators.visible_select import VisibleSelectOp
from repro.engine.operators.convert import ConvertIdsOp
from repro.engine.operators.merge import MergeIntersectOp
from repro.engine.operators.skt_access import SktAccessOp, SktScanOp
from repro.engine.operators.bloom_probe import BloomProbeOp
from repro.engine.operators.scan import DeviceScanSelectOp
from repro.engine.operators.store import StoreOp
from repro.engine.operators.project import ProjectOp

__all__ = [
    "BloomProbeOp",
    "ClimbingSelectOp",
    "ConvertIdsOp",
    "DeviceScanSelectOp",
    "ExecContext",
    "MergeIntersectOp",
    "Operator",
    "PlanExecutionError",
    "ProjectOp",
    "SktAccessOp",
    "SktScanOp",
    "StoreOp",
    "VisibleSelectOp",
]
