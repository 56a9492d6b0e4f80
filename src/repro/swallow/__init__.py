"""The Swallow system layer: the Table IV API over the engine."""

from repro.swallow.context import SwallowContext
from repro.swallow.messages import (
    BlockId,
    CoflowInfo,
    CoflowRef,
    FlowInfo,
    PushMsg,
    SchResult,
)
from repro.swallow.worker import Executor, SwallowWorker, hook_executor

__all__ = [
    "SwallowContext", "SwallowWorker", "Executor", "hook_executor",
    "FlowInfo", "CoflowInfo", "CoflowRef", "SchResult",
    "BlockId", "PushMsg",
]
