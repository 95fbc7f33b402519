"""PIM controllers: the HP-PIM and LP-PIM control path of Fig. 2.

Each cluster has its own controller (the dual-controller design of the
paper).  A controller runs the FETCH-DECODE-LOAD-EXECUTE-STORE state
machine, decodes instructions into category/field/module-select, encodes
per-module commands, and owns a Data Allocator whose Data Rearrange Buffer
and Address Generator implement safe inter-cluster data movement.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".state_machine": ("ControllerState", "StateMachine"),
        ".decoder": ("DecodedInstruction", "InstructionDecoder"),
        ".encoder": ("CommandEncoder", "ModuleCommand"),
        ".allocator": ("AddressGenerator", "DataAllocator", "DataRearrangeBuffer"),
        ".controller": ("PIMController",),
    },
)
