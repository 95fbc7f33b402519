"""PIM instruction set: encodings, typed instructions, queue, assembler.

HH-PIM "operat[es] based on dedicated PIM instructions" delivered from the
processor core into a *PIM Instruction Queue* (paper, Section II).  This
package defines a compact 32-bit instruction word, typed instruction
classes with a lossless encode/decode round-trip, the bounded instruction
queue, and a small text assembler.  No command or pricing path issues
instructions; the package is the ISA's executable specification, and
:class:`~repro.isa.encoding.ClusterId`, which specs, clusters and the
placement optimizer key on, stays at its module path because the
persistent LUT cache's pickles name it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".encoding": (
            "Category",
            "ClusterId",
            "FIELD_LAYOUT",
            "decode_word",
            "encode_fields",
        ),
        ".instructions": (
            "BROADCAST_MODULE",
            "Compute",
            "ComputeOp",
            "Config",
            "ConfigOp",
            "GateTarget",
            "Halt",
            "LoadOperands",
            "Move",
            "PimInstruction",
            "StoreResult",
            "Sync",
            "decode",
        ),
        ".queue": ("InstructionQueue",),
        ".assembler": ("assemble", "assemble_line", "disassemble"),
    },
)
