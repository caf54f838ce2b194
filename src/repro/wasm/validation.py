"""WebAssembly module validation (spec §3 / appendix algorithm).

Validation is the foundation of the Wasm sandbox the paper relies on for
isolating mutually distrusting applications inside the single TrustZone
secure world (§III): a module that validates cannot underflow the operand
stack, branch outside its own labels, call with a mismatched signature, or
touch undeclared state. WaTZ refuses to instantiate a module that fails
this check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ValidationError
from repro.wasm import opcodes as op
from repro.wasm.module import Function, Instr, Module
from repro.wasm.types import BlockType, FuncType, ValType

_UNKNOWN = None  # Polymorphic stack slot after unreachable code.

# (opcode-range checks are cheaper as sets built once)
_I32_UNOPS = {op.I32_CLZ, op.I32_CTZ, op.I32_POPCNT, op.I32_EXTEND8_S, op.I32_EXTEND16_S}
_I64_UNOPS = {op.I64_CLZ, op.I64_CTZ, op.I64_POPCNT,
              op.I64_EXTEND8_S, op.I64_EXTEND16_S, op.I64_EXTEND32_S}
_I32_BINOPS = set(range(op.I32_ADD, op.I32_ROTR + 1))
_I64_BINOPS = set(range(op.I64_ADD, op.I64_ROTR + 1))
_I32_RELOPS = set(range(op.I32_EQ, op.I32_GE_U + 1))
_I64_RELOPS = set(range(op.I64_EQ, op.I64_GE_U + 1))
_F32_RELOPS = set(range(op.F32_EQ, op.F32_GE + 1))
_F64_RELOPS = set(range(op.F64_EQ, op.F64_GE + 1))
_F32_UNOPS = set(range(op.F32_ABS, op.F32_SQRT + 1))
_F64_UNOPS = set(range(op.F64_ABS, op.F64_SQRT + 1))
_F32_BINOPS = set(range(op.F32_ADD, op.F32_COPYSIGN + 1))
_F64_BINOPS = set(range(op.F64_ADD, op.F64_COPYSIGN + 1))

_LOAD_TYPES = {
    op.I32_LOAD: ValType.I32, op.I64_LOAD: ValType.I64,
    op.F32_LOAD: ValType.F32, op.F64_LOAD: ValType.F64,
    op.I32_LOAD8_S: ValType.I32, op.I32_LOAD8_U: ValType.I32,
    op.I32_LOAD16_S: ValType.I32, op.I32_LOAD16_U: ValType.I32,
    op.I64_LOAD8_S: ValType.I64, op.I64_LOAD8_U: ValType.I64,
    op.I64_LOAD16_S: ValType.I64, op.I64_LOAD16_U: ValType.I64,
    op.I64_LOAD32_S: ValType.I64, op.I64_LOAD32_U: ValType.I64,
}
_STORE_TYPES = {
    op.I32_STORE: ValType.I32, op.I64_STORE: ValType.I64,
    op.F32_STORE: ValType.F32, op.F64_STORE: ValType.F64,
    op.I32_STORE8: ValType.I32, op.I32_STORE16: ValType.I32,
    op.I64_STORE8: ValType.I64, op.I64_STORE16: ValType.I64,
    op.I64_STORE32: ValType.I64,
}
_CONVERSIONS = {
    op.I32_WRAP_I64: (ValType.I64, ValType.I32),
    op.I32_TRUNC_F32_S: (ValType.F32, ValType.I32),
    op.I32_TRUNC_F32_U: (ValType.F32, ValType.I32),
    op.I32_TRUNC_F64_S: (ValType.F64, ValType.I32),
    op.I32_TRUNC_F64_U: (ValType.F64, ValType.I32),
    op.I64_EXTEND_I32_S: (ValType.I32, ValType.I64),
    op.I64_EXTEND_I32_U: (ValType.I32, ValType.I64),
    op.I64_TRUNC_F32_S: (ValType.F32, ValType.I64),
    op.I64_TRUNC_F32_U: (ValType.F32, ValType.I64),
    op.I64_TRUNC_F64_S: (ValType.F64, ValType.I64),
    op.I64_TRUNC_F64_U: (ValType.F64, ValType.I64),
    op.F32_CONVERT_I32_S: (ValType.I32, ValType.F32),
    op.F32_CONVERT_I32_U: (ValType.I32, ValType.F32),
    op.F32_CONVERT_I64_S: (ValType.I64, ValType.F32),
    op.F32_CONVERT_I64_U: (ValType.I64, ValType.F32),
    op.F32_DEMOTE_F64: (ValType.F64, ValType.F32),
    op.F64_CONVERT_I32_S: (ValType.I32, ValType.F64),
    op.F64_CONVERT_I32_U: (ValType.I32, ValType.F64),
    op.F64_CONVERT_I64_S: (ValType.I64, ValType.F64),
    op.F64_CONVERT_I64_U: (ValType.I64, ValType.F64),
    op.F64_PROMOTE_F32: (ValType.F32, ValType.F64),
    op.I32_REINTERPRET_F32: (ValType.F32, ValType.I32),
    op.I64_REINTERPRET_F64: (ValType.F64, ValType.I64),
    op.F32_REINTERPRET_I32: (ValType.I32, ValType.F32),
    op.F64_REINTERPRET_I64: (ValType.I64, ValType.F64),
}


@dataclass
class _Frame:
    opcode: int
    results: Tuple[ValType, ...]
    height: int
    unreachable: bool = False


class _BodyChecker:
    """The spec-appendix validation algorithm for one function body."""

    def __init__(self, module: Module, function: Function, index: int) -> None:
        self.module = module
        self.function = function
        self.func_index = index
        signature = module.types[function.type_index]
        self.locals: List[ValType] = list(signature.params) + list(function.locals)
        self.results = signature.results
        self.values: List[Optional[ValType]] = []
        self.frames: List[_Frame] = [
            _Frame(op.BLOCK, tuple(signature.results), 0)
        ]

    # -- stack discipline -----------------------------------------------------

    def _fail(self, message: str) -> None:
        raise ValidationError(
            f"function {self.func_index}: {message}"
        )

    def push(self, valtype: Optional[ValType]) -> None:
        self.values.append(valtype)

    def pop(self, expected: Optional[ValType] = None) -> Optional[ValType]:
        frame = self.frames[-1]
        if len(self.values) == frame.height:
            if frame.unreachable:
                return expected
            self._fail("operand stack underflow")
        actual = self.values.pop()
        if expected is not None and actual is not None and actual != expected:
            self._fail(f"expected {expected.mnemonic}, found {actual.mnemonic}")
        return actual if actual is not None else expected

    def push_frame(self, opcode: int, results: Tuple[ValType, ...]) -> None:
        self.frames.append(_Frame(opcode, results, len(self.values)))

    def pop_frame(self) -> _Frame:
        frame = self.frames[-1]
        for valtype in reversed(frame.results):
            self.pop(valtype)
        if len(self.values) != frame.height and not frame.unreachable:
            self._fail("values left on stack at block end")
        del self.values[frame.height:]
        self.frames.pop()
        return frame

    def set_unreachable(self) -> None:
        frame = self.frames[-1]
        del self.values[frame.height:]
        frame.unreachable = True

    def label_types(self, depth: int) -> Tuple[ValType, ...]:
        if depth >= len(self.frames):
            self._fail(f"branch depth {depth} exceeds nesting")
        frame = self.frames[-1 - depth]
        # A branch to a loop re-enters at the top: no result values (MVP).
        if frame.opcode == op.LOOP:
            return ()
        return frame.results

    # -- per-instruction rules --------------------------------------------------

    def check(self) -> None:
        for instr in self.function.body:
            self._check_instr(instr)
        if self.frames:
            self._fail("unterminated control frames")

    def _require_memory(self) -> None:
        if not self.module.memories:
            self._fail("memory instruction without a declared memory")

    def _check_instr(self, instr: Instr) -> None:
        code = instr.opcode
        if code == op.NOP:
            return
        if code == op.UNREACHABLE:
            self.set_unreachable()
            return
        if code in (op.BLOCK, op.LOOP):
            self.push_frame(code, instr.arg.results)
            return
        if code == op.IF:
            self.pop(ValType.I32)
            self.push_frame(code, instr.arg.results)
            return
        if code == op.ELSE:
            frame = self.frames[-1]
            if frame.opcode != op.IF:
                self._fail("else outside of if")
            results = self.pop_frame().results
            self.push_frame(op.ELSE, results)
            return
        if code == op.END:
            if not self.frames:
                self._fail("end without an open frame")
            frame = self.frames[-1]
            if frame.opcode == op.IF and frame.results:
                # An if with results and no else can't produce them on the
                # false path.
                self._fail("if with results requires an else branch")
            results = self.pop_frame().results
            for valtype in results:
                self.push(valtype)
            return
        if code == op.BR:
            for valtype in reversed(self.label_types(instr.arg)):
                self.pop(valtype)
            self.set_unreachable()
            return
        if code == op.BR_IF:
            self.pop(ValType.I32)
            types = self.label_types(instr.arg)
            for valtype in reversed(types):
                self.pop(valtype)
            for valtype in types:
                self.push(valtype)
            return
        if code == op.BR_TABLE:
            depths, default = instr.arg
            self.pop(ValType.I32)
            default_types = self.label_types(default)
            for depth in depths:
                if self.label_types(depth) != default_types:
                    self._fail("br_table label types disagree")
            for valtype in reversed(default_types):
                self.pop(valtype)
            self.set_unreachable()
            return
        if code == op.RETURN:
            for valtype in reversed(self.results):
                self.pop(valtype)
            self.set_unreachable()
            return
        if code == op.CALL:
            if instr.arg >= self.module.func_count:
                self._fail(f"call to unknown function {instr.arg}")
            signature = self.module.func_type(instr.arg)
            for valtype in reversed(signature.params):
                self.pop(valtype)
            for valtype in signature.results:
                self.push(valtype)
            return
        if code == op.CALL_INDIRECT:
            if not self.module.tables:
                self._fail("call_indirect without a table")
            if instr.arg >= len(self.module.types):
                self._fail("call_indirect references unknown type")
            signature = self.module.types[instr.arg]
            self.pop(ValType.I32)
            for valtype in reversed(signature.params):
                self.pop(valtype)
            for valtype in signature.results:
                self.push(valtype)
            return
        if code == op.DROP:
            self.pop()
            return
        if code == op.SELECT:
            self.pop(ValType.I32)
            first = self.pop()
            second = self.pop(first)
            self.push(second if second is not None else first)
            return
        if code in (op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE):
            if instr.arg >= len(self.locals):
                self._fail(f"unknown local {instr.arg}")
            valtype = self.locals[instr.arg]
            if code == op.LOCAL_GET:
                self.push(valtype)
            elif code == op.LOCAL_SET:
                self.pop(valtype)
            else:
                self.pop(valtype)
                self.push(valtype)
            return
        if code in (op.GLOBAL_GET, op.GLOBAL_SET):
            if instr.arg >= len(self.module.globals):
                self._fail(f"unknown global {instr.arg}")
            global_decl = self.module.globals[instr.arg]
            if code == op.GLOBAL_GET:
                self.push(global_decl.type.valtype)
            else:
                if not global_decl.type.mutable:
                    self._fail("assignment to immutable global")
                self.pop(global_decl.type.valtype)
            return
        if code in _LOAD_TYPES:
            self._require_memory()
            self.pop(ValType.I32)
            self.push(_LOAD_TYPES[code])
            return
        if code in _STORE_TYPES:
            self._require_memory()
            self.pop(_STORE_TYPES[code])
            self.pop(ValType.I32)
            return
        if code == op.MEMORY_SIZE:
            self._require_memory()
            self.push(ValType.I32)
            return
        if code == op.MEMORY_GROW:
            self._require_memory()
            self.pop(ValType.I32)
            self.push(ValType.I32)
            return
        if code == op.I32_CONST:
            self.push(ValType.I32)
            return
        if code == op.I64_CONST:
            self.push(ValType.I64)
            return
        if code == op.F32_CONST:
            self.push(ValType.F32)
            return
        if code == op.F64_CONST:
            self.push(ValType.F64)
            return
        if code == op.I32_EQZ:
            self.pop(ValType.I32)
            self.push(ValType.I32)
            return
        if code == op.I64_EQZ:
            self.pop(ValType.I64)
            self.push(ValType.I32)
            return
        if code in _I32_RELOPS:
            self.pop(ValType.I32)
            self.pop(ValType.I32)
            self.push(ValType.I32)
            return
        if code in _I64_RELOPS:
            self.pop(ValType.I64)
            self.pop(ValType.I64)
            self.push(ValType.I32)
            return
        if code in _F32_RELOPS:
            self.pop(ValType.F32)
            self.pop(ValType.F32)
            self.push(ValType.I32)
            return
        if code in _F64_RELOPS:
            self.pop(ValType.F64)
            self.pop(ValType.F64)
            self.push(ValType.I32)
            return
        if code in _I32_UNOPS:
            self.pop(ValType.I32)
            self.push(ValType.I32)
            return
        if code in _I64_UNOPS:
            self.pop(ValType.I64)
            self.push(ValType.I64)
            return
        if code in _I32_BINOPS:
            self.pop(ValType.I32)
            self.pop(ValType.I32)
            self.push(ValType.I32)
            return
        if code in _I64_BINOPS:
            self.pop(ValType.I64)
            self.pop(ValType.I64)
            self.push(ValType.I64)
            return
        if code in _F32_UNOPS:
            self.pop(ValType.F32)
            self.push(ValType.F32)
            return
        if code in _F64_UNOPS:
            self.pop(ValType.F64)
            self.push(ValType.F64)
            return
        if code in _F32_BINOPS:
            self.pop(ValType.F32)
            self.pop(ValType.F32)
            self.push(ValType.F32)
            return
        if code in _F64_BINOPS:
            self.pop(ValType.F64)
            self.pop(ValType.F64)
            self.push(ValType.F64)
            return
        if code in _CONVERSIONS:
            source, destination = _CONVERSIONS[code]
            self.pop(source)
            self.push(destination)
            return
        self._fail(f"unhandled opcode {op.name(code)}")


def validate_module(module: Module) -> None:
    """Validate a decoded module; raise :class:`ValidationError` on failure."""
    for index, func_type in enumerate(module.types):
        if len(func_type.results) > 1:
            raise ValidationError(f"type {index}: multi-value results unsupported")
    for imported in module.imported_funcs:
        if imported.type_index >= len(module.types):
            raise ValidationError("import references unknown type")
    for index, function in enumerate(module.functions):
        if function.type_index >= len(module.types):
            raise ValidationError(f"function {index} references unknown type")
    for global_decl in module.globals:
        if global_decl.init_global is not None:
            raise ValidationError("imported-global initialisers unsupported")
    for export in module.exports:
        limit = {
            "func": module.func_count,
            "table": len(module.tables),
            "memory": len(module.memories),
            "global": len(module.globals),
        }[export.kind]
        if export.index >= limit:
            raise ValidationError(f"export {export.name!r} index out of range")
    for segment in module.elements:
        for func_index in segment.func_indices:
            if func_index >= module.func_count:
                raise ValidationError("element references unknown function")
    if module.start is not None:
        if module.start >= module.func_count:
            raise ValidationError("start function index out of range")
        signature = module.func_type(module.start)
        if signature.params or signature.results:
            raise ValidationError("start function must have type [] -> []")
    local_offset = len(module.imported_funcs)
    for index, function in enumerate(module.functions):
        _BodyChecker(module, function, local_offset + index).check()
    module.validated = True
