"""Tiny text assembler for PIM programs.

PIM command streams are written in a one-instruction-per-line assembly
dialect::

    # comments start with '#'
    load    hp.0  mram=16 sram=16     ; fetch operands into the PE
    mac     hp.0  count=32            ; run 32 MAC steps
    emit    hp.0
    store   hp.0  addr=0x10000
    move    hp.0  dst=2 block=5 count=64
    sync    hp.*                      ; barrier over the whole HP cluster
    gate_off lp.1 target=sram
    halt    hp.0

Module references are ``<cluster>.<index>`` with ``hp``/``lp`` clusters and
``*`` for broadcast.  Keyword operands may appear in any order.
"""

from __future__ import annotations

from ..errors import AssemblerError
from .encoding import ClusterId
from .instructions import (
    BROADCAST_MODULE,
    Compute,
    ComputeOp,
    Config,
    ConfigOp,
    GateTarget,
    Halt,
    LoadOperands,
    Move,
    PimInstruction,
    StoreResult,
    Sync,
)

_MNEMONICS = {
    "mac",
    "clear",
    "emit",
    "load",
    "store",
    "move",
    "sync",
    "gate_on",
    "gate_off",
    "halt",
}


def _parse_target(token: str, line_no: int) -> tuple:
    """Parse a ``cluster.module`` reference."""
    try:
        cluster_name, module_name = token.split(".")
    except ValueError:
        raise AssemblerError(
            f"line {line_no}: expected <cluster>.<module>, got {token!r}"
        ) from None
    try:
        cluster = ClusterId[cluster_name.upper()]
    except KeyError:
        raise AssemblerError(
            f"line {line_no}: unknown cluster {cluster_name!r}"
        ) from None
    if module_name == "*":
        return cluster, BROADCAST_MODULE
    try:
        module = int(module_name, 0)
    except ValueError:
        raise AssemblerError(
            f"line {line_no}: bad module index {module_name!r}"
        ) from None
    return cluster, module


def _parse_kwargs(tokens, line_no: int) -> dict:
    """Parse ``key=value`` operand tokens."""
    kwargs = {}
    for token in tokens:
        if "=" not in token:
            raise AssemblerError(
                f"line {line_no}: expected key=value operand, got {token!r}"
            )
        key, _, value = token.partition("=")
        kwargs[key] = value
    return kwargs


def _to_int(kwargs: dict, key: str, default: int, line_no: int) -> int:
    raw = kwargs.pop(key, None)
    if raw is None:
        return default
    try:
        return int(raw, 0)
    except ValueError:
        raise AssemblerError(
            f"line {line_no}: operand {key}={raw!r} is not an integer"
        ) from None


def assemble_line(line: str, line_no: int = 0) -> PimInstruction | None:
    """Assemble one line; returns None for blank/comment lines."""
    code = line.split("#", 1)[0].split(";", 1)[0].strip()
    if not code:
        return None
    tokens = code.split()
    mnemonic = tokens[0].lower()
    if mnemonic not in _MNEMONICS:
        raise AssemblerError(f"line {line_no}: unknown mnemonic {mnemonic!r}")
    if len(tokens) < 2:
        raise AssemblerError(f"line {line_no}: {mnemonic} needs a target")
    cluster, module = _parse_target(tokens[1], line_no)
    kwargs = _parse_kwargs(tokens[2:], line_no)

    instruction: PimInstruction
    if mnemonic in ("mac", "clear", "emit"):
        op = {"mac": ComputeOp.MAC, "clear": ComputeOp.CLEAR,
              "emit": ComputeOp.EMIT}[mnemonic]
        count = _to_int(kwargs, "count", 1 if mnemonic == "mac" else 0, line_no)
        instruction = Compute(cluster, module, op=op, count=count)
    elif mnemonic == "load":
        instruction = LoadOperands(
            cluster,
            module,
            mram_count=_to_int(kwargs, "mram", 0, line_no),
            sram_count=_to_int(kwargs, "sram", 0, line_no),
        )
    elif mnemonic == "store":
        instruction = StoreResult(
            cluster, module, address=_to_int(kwargs, "addr", 0, line_no)
        )
    elif mnemonic == "move":
        instruction = Move(
            cluster,
            module,
            dst_module=_to_int(kwargs, "dst", 0, line_no),
            block=_to_int(kwargs, "block", 0, line_no),
            count=_to_int(kwargs, "count", 1, line_no),
        )
    elif mnemonic == "sync":
        instruction = Sync(cluster, module)
    elif mnemonic in ("gate_on", "gate_off"):
        target_name = kwargs.pop("target", "all")
        try:
            target = GateTarget[target_name.upper()]
        except KeyError:
            raise AssemblerError(
                f"line {line_no}: unknown gate target {target_name!r}"
            ) from None
        op = ConfigOp.GATE_ON if mnemonic == "gate_on" else ConfigOp.GATE_OFF
        instruction = Config(cluster, module, op=op, target=target)
    else:  # halt
        instruction = Halt(cluster, module)

    if kwargs:
        raise AssemblerError(
            f"line {line_no}: unexpected operands {sorted(kwargs)}"
        )
    return instruction


def assemble(source: str):
    """Assemble a whole program; returns a list of typed instructions."""
    program = []
    for line_no, line in enumerate(source.splitlines(), start=1):
        instruction = assemble_line(line, line_no)
        if instruction is not None:
            program.append(instruction)
    return program


def disassemble(instruction: PimInstruction) -> str:
    """Render a typed instruction back to its assembly form."""
    module = "*" if instruction.module == BROADCAST_MODULE else str(
        instruction.module
    )
    target = f"{instruction.cluster.name.lower()}.{module}"
    if isinstance(instruction, Compute):
        mnemonic = {ComputeOp.MAC: "mac", ComputeOp.CLEAR: "clear",
                    ComputeOp.EMIT: "emit"}[instruction.op]
        suffix = f" count={instruction.count}" if instruction.op is ComputeOp.MAC else ""
        return f"{mnemonic} {target}{suffix}"
    if isinstance(instruction, LoadOperands):
        return (
            f"load {target} mram={instruction.mram_count} "
            f"sram={instruction.sram_count}"
        )
    if isinstance(instruction, StoreResult):
        return f"store {target} addr={instruction.address:#x}"
    if isinstance(instruction, Move):
        return (
            f"move {target} dst={instruction.dst_module} "
            f"block={instruction.block} count={instruction.count}"
        )
    if isinstance(instruction, Sync):
        return f"sync {target}"
    if isinstance(instruction, Config):
        mnemonic = "gate_on" if instruction.op is ConfigOp.GATE_ON else "gate_off"
        return f"{mnemonic} {target} target={instruction.target.name.lower()}"
    if isinstance(instruction, Halt):
        return f"halt {target}"
    raise AssemblerError(f"cannot disassemble {instruction!r}")
