"""The ahead-of-time execution engine: Wasm -> Python source.

WaTZ executes AOT-compiled Wasm (paper §III, "Execution modes"): WAMR's
LLVM back end lowers bytecode to ARM64 before loading, and the runtime only
needs executable pages. Our analog lowers each Wasm function to Python
source once at instantiation time, removing the per-instruction dispatch of
the interpreter; the measured speed-up is the subject of the A1 ablation
(the paper reports ~28x).

Compilation strategy:

* the operand stack is resolved statically; the value at stack height
  ``h`` canonically lives in the Python local ``s{h}``;
* **expression fusion**: pure, non-trapping operations (constants, local
  and global reads, integer/float arithmetic, comparisons, conversions)
  are deferred as expression strings and fused into the statement that
  consumes them — a store, a local write, a call argument, a branch
  condition — so a Wasm address computation or FP chain becomes one
  Python expression instead of a statement per instruction. Deferred
  expressions are *spilled* into their canonical ``s{h}`` variables at
  every point where their value could change (writes to the locals,
  globals or memory they read) and at all control-flow boundaries.
  Trapping operations (loads, stores, integer division, float-to-int
  truncation, indirect calls) are never deferred, preserving the spec's
  trap ordering;
* structured control lowers to ``while True:`` capsules only where a
  branch needs one (:func:`_plan_control`): a branch crossing no capsule
  is a plain ``continue``/``break``; any other sets ``_br`` to the target
  label and breaks until the target's epilogue consumes it. Opt level 0
  and the profile collector keep a capsule, dispatch and epilogue for
  every construct: the original lowering, byte for byte;
* at opt level 3 counted-loop capsules become ``for`` loops as they close;
* branches to the function frame compile to direct ``return`` statements;
* dead code after an unconditional transfer is skipped entirely.
"""

from __future__ import annotations

import math
import threading
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import TrapError, WasmError
from repro.wasm import aotopt
from repro.wasm import codecache
from repro.wasm import numerics as num
from repro.wasm import opcodes as op
from repro.wasm import pgo
from repro.wasm.interpreter import _fdiv, _run
from repro.wasm.module import Function, Module
from repro.wasm.pgo import Profile, ProfileError, ProfileWarning
from repro.wasm.runtime import (Engine, Instance, Memory, S_F32, S_F64, S_I16,
                                S_I32, S_I64)
from repro.wasm.types import ValType

_MASK32 = "0xFFFFFFFF"
_MASK64 = "0xFFFFFFFFFFFFFFFF"

#: Expressions larger than this many fused operations are spilled to a
#: variable; keeps generated lines (and CPython's expression stack) sane.
_MAX_FUSED_OPS = 16

# ---------------------------------------------------------------------------
# Optimisation-level knob (mirrors repro.crypto.ec.use_fast_paths).
#
# Level 0 is the original lowering, kept byte-identical as the reference
# codegen; level 1 adds the value-range / purity passes (mask elimination,
# signed-compare elision, loop-invariant code motion); level 2 — the default
# — additionally emits typed-memory-plane accesses and loop versioning with
# hoisted bounds checks. The interpreter remains the semantic oracle at
# every level: results and trap type/ordering/messages are identical.
# ---------------------------------------------------------------------------

#: The opt level used when an :class:`AotCompiler` is built without one.
#: Level 3 is the profile-guided tier: it additionally needs a
#: :class:`repro.wasm.pgo.Profile` and degrades to 2 without one.
DEFAULT_OPT_LEVEL = 2

_OPT_LEVELS = (0, 1, 2, 3)


def default_opt_level() -> int:
    """The process-wide default AOT optimisation level."""
    return DEFAULT_OPT_LEVEL


def set_default_opt_level(level: int) -> int:
    """Set the default opt level; returns the previous one."""
    global DEFAULT_OPT_LEVEL
    if level not in _OPT_LEVELS:
        raise WasmError(f"unknown aot opt level: {level!r}")
    previous = DEFAULT_OPT_LEVEL
    DEFAULT_OPT_LEVEL = level
    return previous


@contextmanager
def reference_codegen() -> Iterator[None]:
    """Force the reference (opt level 0) lowering within the block.

    The differential tests run every program through this and through the
    default level and require identical results and traps.
    """
    previous = set_default_opt_level(0)
    try:
        yield
    finally:
        set_default_opt_level(previous)


def _trap(message: str):
    raise TrapError(message)


# Pure (non-trapping) binary operators: opcode -> template over {a}, {b}.
_BINOPS: Dict[int, str] = {
    op.I32_ADD: "({a} + {b}) & " + _MASK32,
    op.I32_SUB: "({a} - {b}) & " + _MASK32,
    op.I32_MUL: "({a} * {b}) & " + _MASK32,
    op.I32_AND: "{a} & {b}",
    op.I32_OR: "{a} | {b}",
    op.I32_XOR: "{a} ^ {b}",
    op.I32_SHL: "({a} << ({b} % 32)) & " + _MASK32,
    op.I32_SHR_U: "{a} >> ({b} % 32)",
    op.I32_SHR_S: "_shrs({a}, {b}, 32)",
    op.I32_ROTL: "_rotl({a}, {b}, 32)",
    op.I32_ROTR: "_rotr({a}, {b}, 32)",
    op.I64_ADD: "({a} + {b}) & " + _MASK64,
    op.I64_SUB: "({a} - {b}) & " + _MASK64,
    op.I64_MUL: "({a} * {b}) & " + _MASK64,
    op.I64_AND: "{a} & {b}",
    op.I64_OR: "{a} | {b}",
    op.I64_XOR: "{a} ^ {b}",
    op.I64_SHL: "({a} << ({b} % 64)) & " + _MASK64,
    op.I64_SHR_U: "{a} >> ({b} % 64)",
    op.I64_SHR_S: "_shrs({a}, {b}, 64)",
    op.I64_ROTL: "_rotl({a}, {b}, 64)",
    op.I64_ROTR: "_rotr({a}, {b}, 64)",
    op.F64_ADD: "{a} + {b}",
    op.F64_SUB: "{a} - {b}",
    op.F64_MUL: "{a} * {b}",
    op.F64_DIV: "_fdiv({a}, {b})",
    op.F64_MIN: "_fmin({a}, {b})",
    op.F64_MAX: "_fmax({a}, {b})",
    op.F64_COPYSIGN: "_copysign({a}, {b})",
    op.F32_ADD: "_f32r({a} + {b})",
    op.F32_SUB: "_f32r({a} - {b})",
    op.F32_MUL: "_f32r({a} * {b})",
    op.F32_DIV: "_f32r(_fdiv({a}, {b}))",
    op.F32_MIN: "_fmin({a}, {b})",
    op.F32_MAX: "_fmax({a}, {b})",
    op.F32_COPYSIGN: "_copysign({a}, {b})",
}

# Trapping binary operators (division family): always materialised.
_TRAPPING_BINOPS: Dict[int, str] = {
    op.I32_DIV_S: "_divs({a}, {b}, 32)",
    op.I32_DIV_U: "_divu({a}, {b})",
    op.I32_REM_S: "_rems({a}, {b}, 32)",
    op.I32_REM_U: "_remu({a}, {b})",
    op.I64_DIV_S: "_divs({a}, {b}, 64)",
    op.I64_DIV_U: "_divu({a}, {b})",
    op.I64_REM_S: "_rems({a}, {b}, 64)",
    op.I64_REM_U: "_remu({a}, {b})",
}

# Comparison operators producing i32 booleans (pure).
_RELOPS: Dict[int, str] = {
    op.I32_EQ: "{a} == {b}",
    op.I32_NE: "{a} != {b}",
    op.I32_LT_S: "_s32({a}) < _s32({b})",
    op.I32_LT_U: "{a} < {b}",
    op.I32_GT_S: "_s32({a}) > _s32({b})",
    op.I32_GT_U: "{a} > {b}",
    op.I32_LE_S: "_s32({a}) <= _s32({b})",
    op.I32_LE_U: "{a} <= {b}",
    op.I32_GE_S: "_s32({a}) >= _s32({b})",
    op.I32_GE_U: "{a} >= {b}",
    op.I64_EQ: "{a} == {b}",
    op.I64_NE: "{a} != {b}",
    op.I64_LT_S: "_s64({a}) < _s64({b})",
    op.I64_LT_U: "{a} < {b}",
    op.I64_GT_S: "_s64({a}) > _s64({b})",
    op.I64_GT_U: "{a} > {b}",
    op.I64_LE_S: "_s64({a}) <= _s64({b})",
    op.I64_LE_U: "{a} <= {b}",
    op.I64_GE_S: "_s64({a}) >= _s64({b})",
    op.I64_GE_U: "{a} >= {b}",
    op.F32_EQ: "{a} == {b}",
    op.F64_EQ: "{a} == {b}",
    op.F32_NE: "{a} != {b} or _isnan({a}) or _isnan({b})",
    op.F64_NE: "{a} != {b} or _isnan({a}) or _isnan({b})",
    op.F32_LT: "{a} < {b}",
    op.F64_LT: "{a} < {b}",
    op.F32_GT: "{a} > {b}",
    op.F64_GT: "{a} > {b}",
    op.F32_LE: "{a} <= {b}",
    op.F64_LE: "{a} <= {b}",
    op.F32_GE: "{a} >= {b}",
    op.F64_GE: "{a} >= {b}",
}

# NaN-reading comparisons re-evaluate {a}/{b}; those must stay variables.
_MULTI_USE_RELOPS = {op.F32_NE, op.F64_NE}

# Signed comparisons: operands that are literals fold through _s32/_s64 at
# compile time (loop bounds are almost always constants).
_SIGNED_RELOPS = {
    op.I32_LT_S: 32, op.I32_GT_S: 32, op.I32_LE_S: 32, op.I32_GE_S: 32,
    op.I64_LT_S: 64, op.I64_GT_S: 64, op.I64_LE_S: 64, op.I64_GE_S: 64,
}

# Integer binops whose literal-literal results fold at compile time.
_FOLDABLE_BINOPS = {
    op.I32_ADD, op.I32_SUB, op.I32_MUL, op.I32_AND, op.I32_OR, op.I32_XOR,
    op.I32_SHL, op.I32_SHR_U, op.I32_SHR_S, op.I32_ROTL, op.I32_ROTR,
    op.I64_ADD, op.I64_SUB, op.I64_MUL, op.I64_AND, op.I64_OR, op.I64_XOR,
    op.I64_SHL, op.I64_SHR_U, op.I64_SHR_S, op.I64_ROTL, op.I64_ROTR,
}

_FOLD_NAMESPACE = {
    "_shrs": num.shr_s, "_rotl": num.rotl, "_rotr": num.rotr,
    "_s32": num.s32, "_s64": num.s64,
}

# Pure unary operators: opcode -> template over {a}.
_UNOPS: Dict[int, str] = {
    op.I32_CLZ: "_clz({a}, 32)",
    op.I32_CTZ: "_ctz({a}, 32)",
    op.I32_POPCNT: "_popcnt({a})",
    op.I64_CLZ: "_clz({a}, 64)",
    op.I64_CTZ: "_ctz({a}, 64)",
    op.I64_POPCNT: "_popcnt({a})",
    op.F64_ABS: "abs({a})",
    op.F64_NEG: "-({a})",
    op.F64_CEIL: "_fceil({a})",
    op.F64_FLOOR: "_ffloor({a})",
    op.F64_TRUNC: "_ftrunc({a})",
    op.F64_NEAREST: "_fnearest({a})",
    op.F64_SQRT: "_fsqrt({a})",
    op.F32_ABS: "abs({a})",
    op.F32_NEG: "-({a})",
    op.F32_CEIL: "_fceil({a})",
    op.F32_FLOOR: "_ffloor({a})",
    op.F32_TRUNC: "_ftrunc({a})",
    op.F32_NEAREST: "_fnearest({a})",
    op.F32_SQRT: "_f32r(_fsqrt({a}))",
    op.I32_WRAP_I64: "{a} & " + _MASK32,
    op.I64_EXTEND_I32_U: "{a}",
    op.I64_EXTEND_I32_S: "_s32({a}) & " + _MASK64,
    op.F32_CONVERT_I32_S: "_f32r(float(_s32({a})))",
    op.F32_CONVERT_I32_U: "_f32r(float({a}))",
    op.F32_CONVERT_I64_S: "_f32r(float(_s64({a})))",
    op.F32_CONVERT_I64_U: "_f32r(float({a}))",
    op.F32_DEMOTE_F64: "_f32r({a})",
    op.F64_CONVERT_I32_S: "float(_s32({a}))",
    op.F64_CONVERT_I32_U: "float({a})",
    op.F64_CONVERT_I64_S: "float(_s64({a}))",
    op.F64_CONVERT_I64_U: "float({a})",
    op.F64_PROMOTE_F32: "{a}",
    op.I32_REINTERPRET_F32: "_ri32f32({a})",
    op.I64_REINTERPRET_F64: "_ri64f64({a})",
    op.F32_REINTERPRET_I32: "_rf32i32({a})",
    op.F64_REINTERPRET_I64: "_rf64i64({a})",
    op.I32_EXTEND8_S: "_ext({a}, 8, 32)",
    op.I32_EXTEND16_S: "_ext({a}, 16, 32)",
    op.I64_EXTEND8_S: "_ext({a}, 8, 64)",
    op.I64_EXTEND16_S: "_ext({a}, 16, 64)",
    op.I64_EXTEND32_S: "_ext({a}, 32, 64)",
}

# Trapping unary operators (float-to-int truncation): materialised.
_TRAPPING_UNOPS: Dict[int, str] = {
    op.I32_TRUNC_F32_S: "_trunc({a}, True, 32)",
    op.I32_TRUNC_F32_U: "_trunc({a}, False, 32)",
    op.I32_TRUNC_F64_S: "_trunc({a}, True, 32)",
    op.I32_TRUNC_F64_U: "_trunc({a}, False, 32)",
    op.I64_TRUNC_F32_S: "_trunc({a}, True, 64)",
    op.I64_TRUNC_F32_U: "_trunc({a}, False, 64)",
    op.I64_TRUNC_F64_S: "_trunc({a}, True, 64)",
    op.I64_TRUNC_F64_U: "_trunc({a}, False, 64)",
}

_LOADS: Dict[int, tuple] = {
    op.I32_LOAD: (4, "_upI32({m}, {a})[0]"),
    op.I64_LOAD: (8, "_upI64({m}, {a})[0]"),
    op.F32_LOAD: (4, "_upF32({m}, {a})[0]"),
    op.F64_LOAD: (8, "_upF64({m}, {a})[0]"),
    op.I32_LOAD8_U: (1, "{m}[{a}]"),
    op.I64_LOAD8_U: (1, "{m}[{a}]"),
    op.I32_LOAD8_S: (1, "_ext({m}[{a}], 8, 32)"),
    op.I64_LOAD8_S: (1, "_ext({m}[{a}], 8, 64)"),
    op.I32_LOAD16_U: (2, "_upI16({m}, {a})[0]"),
    op.I64_LOAD16_U: (2, "_upI16({m}, {a})[0]"),
    op.I32_LOAD16_S: (2, "_ext(_upI16({m}, {a})[0], 16, 32)"),
    op.I64_LOAD16_S: (2, "_ext(_upI16({m}, {a})[0], 16, 64)"),
    op.I64_LOAD32_U: (4, "_upI32({m}, {a})[0]"),
    op.I64_LOAD32_S: (4, "_ext(_upI32({m}, {a})[0], 32, 64)"),
}

_STORES: Dict[int, tuple] = {
    op.I32_STORE: (4, "_pkI32({m}, {a}, {v})"),
    op.I64_STORE: (8, "_pkI64({m}, {a}, {v})"),
    op.F32_STORE: (4, "_pkF32({m}, {a}, {v})"),
    op.F64_STORE: (8, "_pkF64({m}, {a}, {v})"),
    op.I32_STORE8: (1, "{m}[{a}] = ({v}) & 0xFF"),
    op.I64_STORE8: (1, "{m}[{a}] = ({v}) & 0xFF"),
    op.I32_STORE16: (2, "_pkI16({m}, {a}, ({v}) & 0xFFFF)"),
    op.I64_STORE16: (2, "_pkI16({m}, {a}, ({v}) & 0xFFFF)"),
    op.I64_STORE32: (4, "_pkI32({m}, {a}, ({v}) & " + _MASK32 + ")"),
}

# Typed-memory-plane templates: when the compiler proves an access aligned
# to its width (every affine coefficient and the constant offset divisible
# by the width), it indexes a `memoryview(..).cast(fmt)` plane directly
# instead of going through struct pack/unpack. ``{i}`` is the *element*
# index (byte address // width). 8-bit accesses already index the
# bytearray directly and need no plane.
_PLANE_LOADS: Dict[int, str] = {
    op.I32_LOAD: "_pI[{i}]",
    op.I64_LOAD: "_pQ[{i}]",
    op.F32_LOAD: "_pF[{i}]",
    op.F64_LOAD: "_pD[{i}]",
    op.I32_LOAD16_U: "_pH[{i}]",
    op.I64_LOAD16_U: "_pH[{i}]",
    op.I32_LOAD16_S: "_ext(_pH[{i}], 16, 32)",
    op.I64_LOAD16_S: "_ext(_pH[{i}], 16, 64)",
    op.I64_LOAD32_U: "_pI[{i}]",
    op.I64_LOAD32_S: "_ext(_pI[{i}], 32, 64)",
}

_PLANE_STORES: Dict[int, str] = {
    op.I32_STORE: "_pI[{i}] = {v}",
    op.I64_STORE: "_pQ[{i}] = {v}",
    op.F32_STORE: "_pF[{i}] = {v}",
    op.F64_STORE: "_pD[{i}] = {v}",
    op.I32_STORE16: "_pH[{i}] = ({v}) & 0xFFFF",
    op.I64_STORE16: "_pH[{i}] = ({v}) & 0xFFFF",
    op.I64_STORE32: "_pI[{i}] = ({v}) & " + _MASK32,
}

#: The plane names the instance namespace must provide, by format code.
_PLANE_NAMES = {"H": "_pH", "I": "_pI", "Q": "_pQ", "f": "_pF", "d": "_pD"}

# Scalar-promotion templates (opt level 3, hot versioned loops): a
# loop-invariant plane cell every access in the loop provably either hits
# or misses is carried in a Python local for the loop's duration. The
# float32 plane is excluded: an f32 value round-trips through the plane
# with payload canonicalisation a Python local would skip, so promoting
# it could change NaN bit patterns; the other planes are bit-exact.
# Loads map to a wrapper over ``{x}`` (the promoted variable); stores map
# to the value-side of the plane store template over ``{v}``.
_PROMO_LOADS: Dict[int, tuple] = {
    op.I32_LOAD: ("_pI", "{x}"),
    op.I64_LOAD: ("_pQ", "{x}"),
    op.F64_LOAD: ("_pD", "{x}"),
    op.I32_LOAD16_U: ("_pH", "{x}"),
    op.I64_LOAD16_U: ("_pH", "{x}"),
    op.I32_LOAD16_S: ("_pH", "_ext({x}, 16, 32)"),
    op.I64_LOAD16_S: ("_pH", "_ext({x}, 16, 64)"),
    op.I64_LOAD32_U: ("_pI", "{x}"),
    op.I64_LOAD32_S: ("_pI", "_ext({x}, 32, 64)"),
}

_PROMO_STORES: Dict[int, tuple] = {
    op.I32_STORE: ("_pI", "{v}"),
    op.I64_STORE: ("_pQ", "{v}"),
    op.F64_STORE: ("_pD", "{v}"),
    op.I32_STORE16: ("_pH", "({v}) & 0xFFFF"),
    op.I64_STORE16: ("_pH", "({v}) & 0xFFFF"),
    op.I64_STORE32: ("_pI", "({v}) & " + _MASK32),
}

#: Opcodes that may trap (or re-enter the runtime) mid-loop; a loop
#: containing one is excluded from scalar promotion, so a promoted cell
#: can never be stale at a trap point.
_PROMO_BARRIERS = frozenset((op.CALL, op.CALL_INDIRECT, op.UNREACHABLE,
                             op.MEMORY_GROW, op.INLINE_ENTER))

#: Proven result ranges of zero-extending loads.
_LOAD_RANGES: Dict[int, tuple] = {
    op.I32_LOAD8_U: (0, 0xFF),
    op.I64_LOAD8_U: (0, 0xFF),
    op.I32_LOAD16_U: (0, 0xFFFF),
    op.I64_LOAD16_U: (0, 0xFFFF),
    op.I32_LOAD: (0, 0xFFFFFFFF),
    op.I64_LOAD32_U: (0, 0xFFFFFFFF),
}

# Integer binops the range pass understands (kind, bit width).
_RANGE_BINOPS: Dict[int, tuple] = {
    op.I32_ADD: ("add", 32), op.I64_ADD: ("add", 64),
    op.I32_SUB: ("sub", 32), op.I64_SUB: ("sub", 64),
    op.I32_MUL: ("mul", 32), op.I64_MUL: ("mul", 64),
    op.I32_AND: ("and", 32), op.I64_AND: ("and", 64),
    op.I32_OR: ("or", 32), op.I64_OR: ("or", 64),
    op.I32_XOR: ("xor", 32), op.I64_XOR: ("xor", 64),
    op.I32_SHL: ("shl", 32), op.I64_SHL: ("shl", 64),
    op.I32_SHR_U: ("shru", 32), op.I64_SHR_U: ("shru", 64),
}

_EMPTY: FrozenSet[int] = frozenset()
_NO_TEMPS: FrozenSet[str] = frozenset()


class _Value:
    """One compile-time stack slot: a deferred expression or a variable.

    Beyond the purity facts the spiller needs, each slot optionally carries
    the optimiser's value metadata:

    * ``lo``/``hi`` — a proven inclusive range of the (canonical,
      non-negative) integer value; ``None`` when unknown. The passes use
      it to drop ``& MASK``s on values already in range and to elide
      ``_s32``/``_s64`` on signed compares of values below the sign bit.
    * ``affine`` — the *real-arithmetic* (unwrapped) form of the value as
      ``{local_index: coefficient, -1: constant}`` with all coefficients
      non-negative, or ``None``. ``expr`` may wrap (masks); ``affine``
      never does — versioned loops bound it symbolically for the hoisted
      preflight check and rebuild addresses from it mask-free.
    * ``temps`` — generated variable names the expression references
      (``t``/``s``/``h`` vars); an expression is only hoistable to a loop
      preheader when every such name was itself hoisted there.
    """

    __slots__ = ("expr", "locals_read", "reads_global", "reads_memory",
                 "ops", "is_var", "bool_expr", "lo", "hi", "affine", "temps")

    def __init__(self, expr: str, locals_read: FrozenSet[int] = _EMPTY,
                 reads_global: bool = False, reads_memory: bool = False,
                 ops: int = 1, is_var: bool = False,
                 bool_expr: Optional[str] = None,
                 lo: Optional[int] = None, hi: Optional[int] = None,
                 affine: Optional[Dict[int, int]] = None,
                 temps: FrozenSet[str] = _NO_TEMPS) -> None:
        self.expr = expr
        self.locals_read = locals_read
        self.reads_global = reads_global
        self.reads_memory = reads_memory
        self.ops = ops
        self.is_var = is_var
        # For i32 booleans produced by comparisons/eqz: the raw Python
        # condition, so branches can test it without the 1/0 round trip.
        self.bool_expr = bool_expr
        self.lo = lo
        self.hi = hi
        self.affine = affine
        self.temps = temps

    @classmethod
    def var(cls, name: str) -> "_Value":
        return cls(name, ops=0, is_var=True, temps=frozenset((name,)))

    @classmethod
    def var_like(cls, name: str, value: "_Value") -> "_Value":
        """A variable slot that keeps ``value``'s range/affine metadata.

        The range still holds (the variable holds the same value). The
        affine form stays usable as a *bound*: materialisation captured
        the locals at some loop point, and the preflight substitutes each
        local's loop-wide maximum, which dominates any captured value.
        """
        return cls(name, ops=0, is_var=True, lo=value.lo, hi=value.hi,
                   affine=value.affine, temps=frozenset((name,)))

    @property
    def paren(self) -> str:
        """The expression, parenthesised unless it is atomic."""
        if self.is_var or self.expr.isidentifier() or _is_literal(self.expr):
            return self.expr
        return f"({self.expr})"

    @property
    def condition(self) -> str:
        """The truth-test form for if/br_if/select."""
        return self.bool_expr if self.bool_expr is not None else self.expr

    @property
    def literal(self) -> Optional[int]:
        """The integer value when this is a literal constant."""
        if _is_literal(self.expr):
            return int(self.expr)
        return None


def _is_literal(expr: str) -> bool:
    return expr.isdigit() or (expr.startswith("-") and expr[1:].isdigit())


class _Emitter:
    """Accumulates generated source with explicit indentation control."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str) -> None:
        # Single-space indentation maximises nesting headroom in the
        # tokenizer for deeply nested Wasm control flow.
        self.lines.append(" " * self.indent + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Frame:
    """One open structured construct during compilation."""

    __slots__ = ("kind", "label", "start", "entry_height", "arity",
                 "capsule", "dispatch", "unwind", "continues")

    def __init__(self, kind: int, label: int, entry_height: int,
                 arity: int, top_level: bool, start: int,
                 plan: "_ControlPlan") -> None:
        self.kind = kind
        self.label = label
        #: Body index of the opening instruction.
        self.start = start
        self.entry_height = entry_height
        self.arity = arity
        reference = plan.reference
        self.capsule = reference or start in plan.capsules
        self.dispatch = reference or start in plan.dispatched
        self.unwind = not top_level if reference \
            else start in plan.unwinds
        #: `continue`s emitted to this loop (the o3 `for` form needs the
        #: final back edge to be the only one).
        self.continues = 0


class _LoopCtx:
    """Optimiser state for one loop currently being compiled."""

    __slots__ = ("index", "info", "frame", "emitter", "insert_at", "indent",
                 "hoisted", "ind_local", "ind_lo", "ind_hi")

    def __init__(self, index: int, info: aotopt.LoopInfo, frame: _Frame,
                 emitter: _Emitter, insert_at: int, indent: int) -> None:
        self.index = index
        self.info = info
        self.frame = frame
        self.emitter = emitter
        #: Line index in ``emitter`` where preheader statements land.
        self.insert_at = insert_at
        self.indent = indent
        #: expr -> hoisted variable name (dedup within this preheader).
        self.hoisted: Dict[str, str] = {}
        induction = info.induction
        self.ind_local = induction.local if induction else None
        self.ind_lo: int = 0
        self.ind_hi: Optional[int] = None
        if induction is not None and induction.loop_hi is not None \
                and (not induction.signed or induction.fast_path_sound()[0]):
            self.ind_hi = induction.loop_hi
            # The init is a lower bound only when the masked step add can
            # never wrap past 2^32 (it always holds for sound signed
            # loops; unsigned loops need the explicit ceiling check).
            if induction.max_numeric + induction.step <= num.MASK32:
                self.ind_lo = induction.loop_lo


class _ProbeFailed(Exception):
    """A versioned loop's probe met an access it cannot bound at entry."""


class _FastCtx:
    """Collects preflight requirements while probing a versioned loop."""

    __slots__ = ("root", "reqs", "numeric")

    def __init__(self, root: aotopt.LoopInfo) -> None:
        self.root = root
        self.reqs: List[str] = []
        #: Max over fully-constant address bounds: one combined check.
        self.numeric: Optional[int] = None

    def require(self, condition: str) -> None:
        if condition not in self.reqs:
            self.reqs.append(condition)

    def require_numeric(self, bound: int) -> None:
        if self.numeric is None or bound > self.numeric:
            self.numeric = bound

    def conditions(self) -> List[str]:
        conditions = []
        if self.numeric is not None:
            conditions.append(f"{self.numeric} <= _ml")
        return conditions + self.reqs


#: Preflight checks beyond this count cost more than they save.
_MAX_PREFLIGHT = 8


class _PromoScope:
    """One loop's active scalar promotions (opt level 3, fast copies).

    ``mapping`` binds ``(plane_name, element_index_expr)`` keys to the
    Python locals carrying the cells; preloads are inserted into the
    loop's preheader when the scope closes, and writebacks are emitted on
    every exit path (loop end, branches out, returns).
    """

    __slots__ = ("frame", "ctx", "mapping")

    def __init__(self, frame: _Frame, ctx: _LoopCtx,
                 mapping: Dict[tuple, str]) -> None:
        self.frame = frame
        self.ctx = ctx
        self.mapping = mapping

    def items_sorted(self) -> List[tuple]:
        return sorted(self.mapping.items())


class _AccessRecord:
    """One memory access observed while probing a hot versioned loop."""

    __slots__ = ("open_loops", "pkey", "lo", "hi", "invariant_in",
                 "is_store", "code")

    def __init__(self, open_loops: tuple, pkey: Optional[tuple],
                 lo: int, hi: Optional[int], invariant_in: frozenset,
                 is_store: bool, code: int) -> None:
        self.open_loops = open_loops
        self.pkey = pkey
        self.lo = lo
        self.hi = hi
        self.invariant_in = invariant_in
        self.is_store = is_store
        self.code = code


def _const_source(value) -> str:
    """Python source for a profiled constant (int or finite/inf float)."""
    if isinstance(value, float):
        if math.isinf(value):
            sign = "-" if value < 0 else ""
            return f"float('{sign}inf')"
        return repr(value)
    return str(value)


# -- control-flow pre-pass ----------------------------------------------------

#: How one branch lowers (see :func:`_plan_control`).
_BREAK, _CONTINUE, _DISPATCH = range(3)

#: The opcodes the control pre-pass looks at; it skips all others.
_CONTROL_OPS = frozenset((op.BLOCK, op.LOOP, op.IF, op.ELSE, op.END, op.BR,
                          op.BR_IF, op.BR_TABLE, op.RETURN, op.UNREACHABLE))


class _ControlPlan:
    """Which constructs (by instruction index) get a capsule, are a
    ``_br`` dispatch target, or are crossed by one (``unwinds``); ``kinds``
    maps ``(branch index, depth)`` to its lowering. The reference plan
    needs everything and dispatches every branch but a depth-0 one."""

    __slots__ = ("reference", "capsules", "dispatched", "unwinds", "kinds")

    def __init__(self, reference: bool) -> None:
        self.reference = reference
        self.capsules: set = set()
        self.dispatched: set = set()
        self.unwinds: set = set()
        self.kinds: Dict[tuple, int] = {}

    def kind(self, index: int, depth: int, target: "_Frame") -> int:
        if not self.reference:
            return self.kinds[(index, depth)]
        if depth:
            return _DISPATCH
        return _CONTINUE if target.kind == op.LOOP else _BREAK


def _plan_control(body: List) -> _ControlPlan:
    """One pass (skipping dead code as the emitter does) deciding each
    construct at its ``end``, once its branches and inner constructs are
    known: a targeted ``loop`` gets a capsule, and a branch to it crossing
    no capsule is a ``continue``; a branch out of a ``block``/``if``
    crossing no capsule breaks the target's own capsule, and one whose
    innermost crossed capsule ends right before the target breaks that
    one (the target needs no capsule). Any other branch dispatches."""
    plan = _ControlPlan(reference=False)
    frames: List[tuple] = []  # (opcode, start, branches) of open constructs
    ends: Dict[int, int] = {}
    dead = False
    dead_depth = 0
    for index, instr in enumerate(body):
        code = instr.opcode
        if code not in _CONTROL_OPS:
            continue
        if dead:
            if code in (op.BLOCK, op.LOOP, op.IF):
                dead_depth += 1
                continue
            if dead_depth or code not in (op.ELSE, op.END):
                if code == op.END and dead_depth:
                    dead_depth -= 1
                continue
            dead = False
        if code in (op.BLOCK, op.LOOP, op.IF):
            frames.append((code, index, []))
        elif code == op.END and frames:
            kind, start, branches = frames.pop()
            ends[start] = index
            for at, depth, crossed in branches:
                capsules = [s for s in crossed if s in plan.capsules]
                if not capsules:
                    how = _CONTINUE if kind == op.LOOP else _BREAK
                elif kind != op.LOOP and ends[capsules[-1]] + 1 == index:
                    how = _BREAK
                else:
                    how = _DISPATCH
                    plan.dispatched.add(start)
                    plan.unwinds.update(capsules)
                plan.kinds[(at, depth)] = how
                if how != _BREAK or not capsules:
                    plan.capsules.add(start)
        elif code in (op.BR, op.BR_IF, op.BR_TABLE):
            depths = {instr.arg[1], *instr.arg[0]} \
                if code == op.BR_TABLE else (instr.arg,)
            for depth in depths:
                if depth < len(frames):
                    crossed = [f[1] for f in frames[len(frames) - depth:]]
                    frames[-1 - depth][2].append((index, depth, crossed))
            dead = code != op.BR_IF
        elif code in (op.RETURN, op.UNREACHABLE):
            dead = True
    return plan


def _indent_of(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


class _FunctionCompiler:
    """Compiles one decoded function body into Python source."""

    def __init__(self, module: Module, func: Function, func_index: int,
                 opt_level: int = 0, use_planes: bool = False,
                 profile: Optional[Profile] = None,
                 sites: Optional[List[Optional[str]]] = None,
                 spec_globals: Optional[Dict[int, float]] = None,
                 const_globals: Optional[Dict[int, float]] = None,
                 collector: bool = False) -> None:
        self.module = module
        self.func = func
        self.func_index = func_index
        self.func_type = module.types[func.type_index]
        self.out = _Emitter()
        self.frames: List[_Frame] = []
        self.next_label = 0
        self.next_temp = 0
        self.next_hoist = 0
        self.stack: List[_Value] = []
        self.opt = opt_level
        self._planes_flag = use_planes
        self.use_planes = use_planes and opt_level >= 2
        self.local_types: List[ValType] = \
            list(self.func_type.params) + list(func.locals)
        self.analysis: Dict[int, aotopt.LoopInfo] = \
            aotopt.analyze(func, allow_symbolic_init=profile is not None) \
            if opt_level >= 1 else {}
        self.loop_ctxs: List[_LoopCtx] = []
        self.fast: Optional[_FastCtx] = None
        #: Depth of versioned-region recompilation (no nested versioning).
        self.version_depth = 0
        #: Loops whose version probe failed; compiled plainly thereafter.
        self.no_version: set = set()
        # -- opt level 3 (profile-guided) state ------------------------------
        #: The driving profile; None in every tier below 3 and in the
        #: guarded deopt body (which must be the exact o2 lowering).
        self.profile = profile
        #: Per-instruction profile site keys (post-inlining); None falls
        #: back to ``f<index>:<i>`` over the compiled body.
        self.sites = sites
        #: Observed-constant globals to specialise on (plan level: emits
        #: the entry guard plus specialised and deopt bodies).
        self.spec_globals = spec_globals or {}
        #: Active constant-global substitutions inside the specialised
        #: body clone.
        self.const_globals = const_globals
        #: True when compiling the instrumented (profiling) build.
        self.collector = collector
        #: True while compiling the fast copy of a profile-hot versioned
        #: region: in-bounds-proven loads defer like pure expressions.
        self.hot_fast = False
        self._recording = False
        self._access_log: List[_AccessRecord] = []
        self._last_meta: Optional[tuple] = None
        #: loop body index -> {promo key: None} while recompiling a fast
        #: copy with scalar promotion.
        self.promotions_plan: Optional[Dict[int, Dict[tuple, str]]] = None
        self.promo_scopes: List[_PromoScope] = []
        self.next_promo = 0
        self._promotable_loops: Dict[int, bool] = {}
        #: Unique `_fr{n}` range names for the counted-loop `for` form.
        self._for_counter = 0
        #: Which constructs need capsules and dispatch. The reference
        #: plan (o0, collector) also keeps every `pass` and dead `break`
        #: of the original lowering; all other levels emit neither.
        self.control = _ControlPlan(reference=True) \
            if opt_level == 0 or collector else _plan_control(func.body)

    # -- stack management ---------------------------------------------------------
    #
    # Naming discipline: mid-stream materialisations always get a *fresh*
    # temporary (t{n}) so a deferred expression can never observe its
    # referenced variable being recycled. Canonical position names (s{i})
    # are written only at control-flow boundaries by `_spill_all`, in
    # ascending position order — an entry can only reference position
    # names of positions <= its own (values are consumed linearly), so
    # the ascending pass reads every old value before overwriting it.

    def _push(self, expr: str, locals_read: FrozenSet[int] = _EMPTY,
              reads_global: bool = False, reads_memory: bool = False,
              ops: int = 1, bool_expr: Optional[str] = None,
              lo: Optional[int] = None, hi: Optional[int] = None,
              affine: Optional[Dict[int, int]] = None,
              temps: FrozenSet[str] = _NO_TEMPS) -> None:
        value = _Value(expr, locals_read, reads_global, reads_memory, ops,
                       bool_expr=bool_expr, lo=lo, hi=hi, affine=affine,
                       temps=temps)
        self._push_value(value)

    def _push_value(self, value: _Value) -> None:
        if self.opt >= 1 and self._try_hoist(value):
            return
        self.stack.append(value)
        if value.ops > _MAX_FUSED_OPS:
            self._materialize(len(self.stack) - 1)

    def _try_hoist(self, value: _Value) -> bool:
        """Loop-invariant code motion: move ``value`` to the preheader.

        Eligible when a loop is open, the expression is pure (deferred
        expressions always are), big enough to be worth a variable, reads
        no state the loop region writes, and references only variables
        that were themselves hoisted to an enclosing preheader.
        """
        if not self.loop_ctxs or value.is_var or value.bool_expr is not None:
            return False
        if value.ops < 2 or value.reads_global or value.reads_memory:
            return False
        ctx = self.loop_ctxs[-1]
        if value.locals_read & ctx.info.writes:
            return False
        if value.temps:
            hoisted_names = set()
            for open_ctx in self.loop_ctxs:
                hoisted_names.update(open_ctx.hoisted.values())
            if not value.temps <= hoisted_names:
                return False
        name = ctx.hoisted.get(value.expr)
        if name is None:
            name = f"h{self.next_hoist}"
            self.next_hoist += 1
            ctx.hoisted[value.expr] = name
            line = " " * ctx.indent + f"{name} = {value.expr}"
            ctx.emitter.lines.insert(ctx.insert_at, line)
            ctx.insert_at += 1
        self.stack.append(_Value.var_like(name, value))
        return True

    def _push_var(self, expr: str, lo: Optional[int] = None,
                  hi: Optional[int] = None,
                  affine: Optional[Dict[int, int]] = None) -> None:
        """Materialise ``expr`` into a fresh temporary immediately."""
        name = f"t{self.next_temp}"
        self.next_temp += 1
        self.out.emit(f"{name} = {expr}")
        self.stack.append(
            _Value(name, ops=0, is_var=True, lo=lo, hi=hi, affine=affine,
                   temps=frozenset((name,))))

    def _pop(self) -> _Value:
        return self.stack.pop()

    def _materialize(self, position: int) -> None:
        """Evaluate a deferred entry now, into a fresh temporary."""
        value = self.stack[position]
        if value.is_var:
            return
        name = f"t{self.next_temp}"
        self.next_temp += 1
        self.out.emit(f"{name} = {value.expr}")
        self.stack[position] = _Value.var_like(name, value)

    def _spill(self, position: int) -> None:
        """Place a stack entry into its canonical boundary variable."""
        value = self.stack[position]
        name = f"s{position}"
        if value.is_var and value.expr == name:
            return
        self.out.emit(f"{name} = {value.expr}")
        self.stack[position] = _Value.var_like(name, value)

    def _spill_all(self) -> None:
        for position in range(len(self.stack)):
            self._spill(position)

    def _spill_local_readers(self, local_index: int) -> None:
        for position, value in enumerate(self.stack):
            if local_index in value.locals_read:
                self._materialize(position)

    def _spill_global_readers(self) -> None:
        for position, value in enumerate(self.stack):
            if value.reads_global:
                self._materialize(position)

    def _spill_memory_readers(self) -> None:
        for position, value in enumerate(self.stack):
            if value.reads_memory:
                self._materialize(position)

    def _spill_call_clobbered(self) -> None:
        """A call may write globals and memory (not our locals)."""
        for position, value in enumerate(self.stack):
            if value.reads_global or value.reads_memory:
                self._materialize(position)

    def _reset_stack(self, height: int) -> None:
        """Canonical var entries s0..s{height-1} (control-join state)."""
        self.stack = [_Value.var(f"s{i}") for i in range(height)]

    # -- helpers ----------------------------------------------------------------

    def _result_expr(self) -> str:
        if len(self.func_type.results) == 0:
            return "None"
        return self.stack[-1].expr if self.stack else "None"

    def _emit_branch(self, depth: int, index: int) -> None:
        """Emit the transfer for ``br depth``; stack entries are vars."""
        self._emit_promo_writebacks(depth)
        height = len(self.stack)
        if depth >= len(self.frames):
            # Branch to the function frame: a return.
            if len(self.func_type.results) == 0:
                self.out.emit("return None")
            else:
                self.out.emit(f"return s{height - 1}")
            return
        frame = self.frames[-1 - depth]
        arity = 0 if frame.kind == op.LOOP else frame.arity
        base = frame.entry_height
        source_base = height - arity
        for position in range(arity):
            if source_base + position != base + position:
                self.out.emit(f"s{base + position} = s{source_base + position}")
        kind = self.control.kind(index, depth, frame)
        if kind == _CONTINUE:
            # No capsule in between: the innermost Python loop is the
            # loop's own (inner) `while`, whose body *is* the loop body.
            self.out.emit("continue")
            frame.continues += 1
        elif kind == _BREAK:
            self.out.emit("break")
        else:
            self.out.emit(f"_br = {frame.label}")
            self.out.emit("break")

    def _reference_pass(self) -> None:
        """The reference lowering opens every suite with ``pass``."""
        if self.control.reference:
            self.out.emit("pass")

    def _close_suite(self) -> None:
        """Dedent out of a suite; above the reference lowering ``pass``
        is added here, and only when the suite stayed empty."""
        out = self.out
        if not self.control.reference \
                and _indent_of(out.lines[-1]) < out.indent:
            out.emit("pass")
        out.indent -= 1

    def _open_frame(self, index: int) -> _Frame:
        frame = _Frame(self.func.body[index].opcode, self.next_label,
                       len(self.stack), self.func.body[index].arg.arity,
                       not self.frames, index, self.control)
        self.next_label += 1
        self.frames.append(frame)
        return frame

    def _open_else(self) -> None:
        self._close_suite()
        self.out.emit("else:")
        self.out.indent += 1
        self._reference_pass()
        self._reset_stack(self.frames[-1].entry_height)

    def _close_frame(self, live: bool) -> None:
        """Close the innermost construct at its ``end``: the fall-through
        exit of its capsule, then the epilogue that consumes a branch
        dispatched to it and keeps unwinding one it is crossed by."""
        frame = self.frames.pop()
        self._close_promo_scope(frame, live=live)
        ctx = self._pop_loop_ctx(frame)
        self._reset_stack(frame.entry_height + frame.arity)
        out = self.out
        if frame.kind == op.IF:
            self._close_suite()
        if not frame.capsule:
            return
        # A dead fall-through `break` directly follows a transfer, except
        # after an `if`, whose other arm may fall through.
        if live or self.control.reference or frame.kind == op.IF:
            out.emit("break")
        self._close_suite()
        if frame.kind == op.LOOP and frame.dispatch:
            for line in ("if _br >= 0:", f" if _br == {frame.label}:",
                         "  _br = -1", "  continue", " break", "break"):
                out.emit(line)
            out.indent -= 1  # close outer while
        elif frame.kind == op.LOOP:
            if self.profile is not None:
                self._counted_for(frame, ctx)
        elif frame.dispatch:
            out.emit("if _br >= 0:")
            if frame.unwind:
                out.emit(f" if _br != {frame.label}: break")
            out.emit(" _br = -1")
            return
        if frame.unwind:
            out.emit("if _br >= 0:")
            out.emit(" break")

    def _counted_for(self, frame: _Frame, ctx: Optional[_LoopCtx]) -> None:
        """Opt level 3: rebuild a just-closed counted-loop capsule

            while True:  # loop L{n}        _fr{k} = range(l{v}, STOP[, S])
             if not (l{v} < STOP):           for l{v} in _fr{k}:
              EXIT                     ==>    BODY
             BODY                            else:
             l{v} = l{v} + S                  if _fr{k}:
             continue                          l{v} = l{v} + S
                                              EXIT      (sans `break`)

        Exact: `range` iterates while `v < stop` with `v += step` on
        unbounded ints, a `break` in BODY skips the `else` and leaves
        `l{v}` as breaking the capsule did, and the `else` rebuilds the
        first-failing value. The aotopt induction match makes the steps
        the only writes to `l{v}` and a local bound invariant. The capsule
        stays if the guard or step is not plain (a sign wrapper or mask
        survived) or another branch re-enters the loop (`continue` in a
        `for` would run the increment)."""
        induction = ctx.info.induction if ctx is not None else None
        if induction is None or frame.continues != 1:
            return
        lines = self.out.lines
        head = ctx.insert_at  # the capsule header: preheader lines go above
        pad = " " * self.out.indent
        var = f"l{induction.local}"
        if induction.bound_local is not None:
            bound = f"l{induction.bound_local}"
            stop = f"{bound} + 1" if induction.inclusive else bound
        else:
            literal = num.s32(induction.bound_const) if induction.signed \
                else induction.bound_const
            bound = str(literal)
            stop = str(literal + 1) if induction.inclusive else bound
        relop = "<=" if induction.inclusive else "<"
        step = f"{var} = {var} + {induction.step}"
        if lines[head + 1] != f"{pad} if not ({var} {relop} {bound}):" \
                or lines[-2:] != [f"{pad} {step}", f"{pad} continue"]:
            return
        body_at = head + 2  # past EXIT, which ends in `break` (a br_if 1)
        while _indent_of(lines[body_at]) > len(pad) + 1:
            body_at += 1
        name = f"_fr{self._for_counter}"
        self._for_counter += 1
        suffix = f", {induction.step}" if induction.step != 1 else ""
        lines[head:] = [f"{pad}{name} = range({var}, {stop}{suffix})",
                        f"{pad}for {var} in {name}:",
                        *(lines[body_at:-2] or [f"{pad} pass"]),
                        f"{pad}else:",
                        f"{pad} if {name}:",
                        f"{pad}  {step}",
                        *(line[1:] for line in lines[head + 2:body_at - 1])]

    # -- main pass ---------------------------------------------------------------

    def compile(self) -> str:
        func_type = self.func_type
        params = [f"l{i}" for i in range(len(func_type.params))]
        name = f"_wasm_f{self.func_index}"
        self.out.emit(f"def {name}({', '.join(params)}):")
        self.out.indent += 1
        self.out.emit("_inst.enter_call()")
        self.out.emit("try:")
        self.out.indent += 1
        for offset, valtype in enumerate(self.func.locals):
            index = len(params) + offset
            zero = "0" if valtype.is_integer else "0.0"
            self.out.emit(f"l{index} = {zero}")
        if self.control.reference or self.control.dispatched:
            self.out.emit("_br = -1")
        if self.collector:
            self.out.emit(f"_pf[{self.func_index}] += 1")
        if self.spec_globals:
            self._compile_specialized()
        else:
            self._compile_range(0, len(self.func.body))
        self.out.indent -= 1
        self.out.emit("finally:")
        self.out.indent += 1
        self.out.emit("_inst.exit_call()")
        self.out.indent -= 1
        self.out.indent -= 1
        return self.out.source()

    def _compile_specialized(self) -> None:
        """Guarded global specialisation: one entry test selects between
        the body specialised on the profiled global values and a deopt
        body that is the exact o2 lowering.

        The guard re-reads the globals on every call, so a profile that
        mispredicts (the global changed since profiling) only costs the
        specialised path — never correctness.
        """
        guard = " and ".join(
            f"_g[{index}].value == {_const_source(value)}"
            for index, value in sorted(self.spec_globals.items()))
        self.out.emit(f"if {guard}:")
        for const_globals in (dict(self.spec_globals), None):
            clone = _FunctionCompiler(
                self.module, self.func, self.func_index,
                opt_level=self.opt, use_planes=self._planes_flag,
                profile=self.profile if const_globals is not None else None,
                sites=self.sites if const_globals is not None else None,
                const_globals=const_globals)
            clone.out.indent = self.out.indent + 1
            clone._compile_range(0, len(clone.func.body))
            self.out.lines.extend(clone.out.lines)
            if const_globals is not None:
                self.out.emit("else:")

    # -- profile plumbing --------------------------------------------------------

    def _site_key(self, index: int) -> Optional[str]:
        """Profile key of the instruction at ``index`` of the compiled
        body (None for instructions synthesised by inlining)."""
        if self.sites is not None:
            return self.sites[index]
        return f"f{self.func_index}:{index}"

    def _region_hot(self, start: int, stop: int) -> bool:
        """Does the profile mark any loop in ``[start, stop)`` hot?"""
        if self.profile is None:
            return False
        body = self.func.body
        backedges = self.profile.loop_backedges
        for index in range(start, stop):
            if body[index].opcode == op.LOOP:
                key = self._site_key(index)
                if key is not None \
                        and backedges.get(key, 0) >= pgo.HOT_LOOP_MIN:
                    return True
        return False

    def _site_aligned(self, index: int) -> bool:
        """Did the profile observe this access site as always aligned?"""
        if self.profile is None:
            return False
        key = self._site_key(index)
        return key is not None \
            and self.profile.access_masks.get(key) == 0

    def _pop_loop_ctx(self, frame: _Frame) -> Optional[_LoopCtx]:
        if self.loop_ctxs and self.loop_ctxs[-1].frame is frame:
            return self.loop_ctxs.pop()
        return None

    def _compile_range(self, start: int, stop: int) -> None:
        """Compile the instruction range ``[start, stop)``.

        The whole function body is one range; a versioned loop compiles
        its own ``[loop, end]`` sub-range (the fast copy) through the same
        machinery.
        """
        module = self.module
        body = self.func.body
        out = self.out
        dead = False
        dead_depth = 0
        skip_until = -1

        for index in range(start, stop):
            if index < skip_until:
                continue
            instr = body[index]
            code = instr.opcode
            out = self.out

            if dead:
                if code in (op.BLOCK, op.LOOP, op.IF):
                    dead_depth += 1
                elif code == op.ELSE and dead_depth == 0:
                    self._open_else()
                    dead = False
                elif code == op.END:
                    if dead_depth:
                        dead_depth -= 1
                    elif not self.frames:
                        dead = False
                    else:
                        # The fall-through exit is dead, but the loop can
                        # still run (branch exits wrote back already):
                        # preloads must land in the preheader regardless.
                        self._close_frame(live=False)
                        dead = False
                continue

            if code == op.NOP:
                continue

            # The hottest opcodes first: constants, local reads and writes
            # and pure binops make up ~60% of a typical body.
            if code in (op.I32_CONST, op.I64_CONST):
                literal = instr.arg
                if literal >= 0:
                    affine = {-1: literal} if code == op.I32_CONST else None
                    self._push(str(literal), ops=0, lo=literal, hi=literal,
                               affine=affine)
                else:
                    self._push(str(literal), ops=0)
            elif code == op.LOCAL_GET:
                self._push_local(instr.arg)
            elif code == op.LOCAL_SET:
                value = self._pop()
                self._spill_local_readers(instr.arg)
                out.emit(f"l{instr.arg} = {value.expr}")
            elif code in _BINOPS:
                rhs = self._pop()
                lhs = self._pop()
                if (code in _FOLDABLE_BINOPS and lhs.literal is not None
                        and rhs.literal is not None):
                    folded = eval(  # compile-time, pure integer arithmetic
                        _BINOPS[code].format(a=lhs.expr, b=rhs.expr),
                        dict(_FOLD_NAMESPACE),
                    )
                    if self.opt >= 1 and folded >= 0:
                        self._push(str(folded), ops=0, lo=folded, hi=folded,
                                   affine={-1: folded}
                                   if _RANGE_BINOPS.get(code, ("", 0))[1] == 32
                                   else None)
                    else:
                        self._push(str(folded), ops=0)
                    continue
                if self.opt >= 1 and code in _RANGE_BINOPS:
                    self._push_value(self._range_binop(code, lhs, rhs))
                    continue
                self._push(
                    _BINOPS[code].format(a=lhs.paren, b=rhs.paren),
                    locals_read=lhs.locals_read | rhs.locals_read,
                    reads_global=lhs.reads_global or rhs.reads_global,
                    reads_memory=lhs.reads_memory or rhs.reads_memory,
                    ops=lhs.ops + rhs.ops + 1,
                    temps=lhs.temps | rhs.temps,
                )
            elif code == op.BLOCK:
                self._spill_all()
                frame = self._open_frame(index)
                if frame.capsule:
                    out.emit(f"while True:  # block L{frame.label}")
                    out.indent += 1
                    self._reference_pass()
            elif code == op.LOOP:
                if self._can_version(index):
                    skip_until = self._compile_versioned_loop(index)
                    continue
                self._spill_all()
                frame = self._open_frame(index)
                if self.opt >= 1:
                    info = self.analysis.get(index)
                    if info is not None:
                        ctx = _LoopCtx(index, info, frame, out,
                                       len(out.lines), out.indent)
                        induction = info.induction
                        if (ctx.ind_hi is None and induction is not None
                                and induction.symbolic_init
                                and self.profile is not None
                                and self.fast is not None
                                and self.fast.root.start == index):
                            # Versioned root with a computed entry value:
                            # the preflight just established the entry
                            # cap, so the fast copy may claim the
                            # region-wide bound (see versioned_hi).
                            ctx.ind_hi = induction.versioned_hi
                        self.loop_ctxs.append(ctx)
                self._open_promo_scope(index, frame)
                if frame.capsule:
                    out.emit(f"while True:  # loop L{frame.label}")
                    out.indent += 1
                    if frame.dispatch:
                        out.emit("while True:")
                        out.indent += 1
                    self._reference_pass()
                if self.collector:
                    out.emit(f"_pl[{self._site_key(index)!r}] += 1")
            elif code == op.IF:
                condition = self._pop()
                self._spill_all()
                frame = self._open_frame(index)
                if frame.capsule:
                    out.emit(f"while True:  # if L{frame.label}")
                    out.indent += 1
                out.emit(f"if {condition.condition}:")
                out.indent += 1
                self._reference_pass()
            elif code == op.ELSE:
                self._spill_all()
                self._open_else()
            elif code == op.END:
                self._spill_all()
                if not self.frames:
                    out.emit(f"return {self._result_expr()}")
                    continue
                self._close_frame(live=True)
            elif code == op.BR:
                self._spill_all()
                self._emit_branch(instr.arg, index)
                dead = True
            elif code == op.BR_IF:
                condition = self._pop()
                self._spill_all()
                out.emit(f"if {condition.condition}:")
                out.indent += 1
                self._emit_branch(instr.arg, index)
                out.indent -= 1
            elif code == op.BR_TABLE:
                depths, default = instr.arg
                selector = self._pop()
                self._spill_all()
                if depths:
                    out.emit(f"_i = {selector.expr}")
                    for position, depth in enumerate(depths):
                        keyword = "if" if position == 0 else "elif"
                        out.emit(f"{keyword} _i == {position}:")
                        out.indent += 1
                        self._emit_branch(depth, index)
                        out.indent -= 1
                    out.emit("else:")
                    out.indent += 1
                    self._emit_branch(default, index)
                    out.indent -= 1
                else:
                    self._emit_branch(default, index)
                dead = True
            elif code == op.RETURN:
                self._emit_promo_writebacks(None)
                out.emit(f"return {self._result_expr()}")
                dead = True
            elif code == op.UNREACHABLE:
                out.emit('_trap("unreachable executed")')
                dead = True
            elif code == op.INLINE_ENTER:
                # Inline splice entry: mirror the real call path exactly —
                # depth accounting *outside* the try, so an exhausted-
                # stack trap does not run the matching exit.
                self._spill_all()
                out.emit("_inst.enter_call()")
                out.emit("try:")
                out.indent += 1
                self._reference_pass()
            elif code == op.INLINE_EXIT:
                self._spill_all()
                self._close_suite()
                out.emit("finally:")
                out.indent += 1
                out.emit("_inst.exit_call()")
                out.indent -= 1
            elif code == op.CALL:
                signature = module.func_type(instr.arg)
                nparams = len(signature.params)
                arguments = self.stack[len(self.stack) - nparams:] \
                    if nparams else []
                del self.stack[len(self.stack) - nparams:]
                self._spill_call_clobbered()
                argument_list = ", ".join(a.expr for a in arguments)
                if signature.results:
                    self._push_var(f"_f[{instr.arg}]({argument_list})")
                else:
                    out.emit(f"_f[{instr.arg}]({argument_list})")
            elif code == op.CALL_INDIRECT:
                signature = module.types[instr.arg]
                element = self._pop()
                nparams = len(signature.params)
                arguments = self.stack[len(self.stack) - nparams:] \
                    if nparams else []
                del self.stack[len(self.stack) - nparams:]
                self._spill_call_clobbered()
                out.emit(f"_fi = _tbl.get({element.expr})")
                out.emit(f"if _ft[_fi] != _sig{instr.arg}:")
                out.indent += 1
                out.emit('_trap("indirect call signature mismatch")')
                out.indent -= 1
                argument_list = ", ".join(a.expr for a in arguments)
                if signature.results:
                    self._push_var(f"_f[_fi]({argument_list})")
                else:
                    out.emit(f"_f[_fi]({argument_list})")
            elif code == op.DROP:
                self._pop()  # deferred expressions are pure: discard
            elif code == op.SELECT:
                condition = self._pop()
                self._spill(len(self.stack) - 2)
                self._spill(len(self.stack) - 1)
                top = len(self.stack)
                out.emit(f"if not ({condition.condition}):")
                out.indent += 1
                out.emit(f"s{top - 2} = s{top - 1}")
                out.indent -= 1
                self._pop()
            elif code == op.LOCAL_TEE:
                value = self._pop()
                self._spill_local_readers(instr.arg)
                out.emit(f"l{instr.arg} = {value.expr}")
                self._push_local(instr.arg)
            elif code == op.GLOBAL_GET:
                spec = self.const_globals
                if spec is not None and instr.arg in spec:
                    # Specialised body: the entry guard proved the global
                    # still holds the profiled value — fold it in as a
                    # literal (ranges/affine included for i32).
                    value = spec[instr.arg]
                    if isinstance(value, int) and value >= 0:
                        is32 = self.module.globals[instr.arg].type.valtype \
                            == ValType.I32
                        self._push(str(value), ops=0, lo=value, hi=value,
                                   affine={-1: value} if is32 else None)
                    else:
                        self._push(_const_source(value), ops=0)
                else:
                    self._push(f"_g[{instr.arg}].value", reads_global=True,
                               ops=1)
            elif code == op.GLOBAL_SET:
                value = self._pop()
                self._spill_global_readers()
                out.emit(f"_g[{instr.arg}].value = {value.expr}")
                if self.collector:
                    out.emit(f"_pg[{instr.arg}] += 1")
            elif code in (op.F32_CONST, op.F64_CONST):
                value = instr.arg
                if math.isnan(value):
                    self._push("float('nan')", ops=0)
                elif math.isinf(value):
                    sign = "-" if value < 0 else ""
                    self._push(f"float('{sign}inf')", ops=0)
                else:
                    self._push(repr(value), ops=0)
            elif code in _LOADS:
                width, template = _LOADS[code]
                address = self._pop()
                offset = instr.arg or 0
                lo, hi = _LOAD_RANGES.get(code, (None, None))
                if self.fast is not None:
                    addr, plane = self._fast_access(address, offset, width)
                    if self._recording:
                        self._record_access(code, address, plane, False)
                    if plane is not None and code in _PROMO_LOADS:
                        promo = self._promo_lookup(
                            (_PROMO_LOADS[code][0], plane))
                        if promo is not None:
                            self._push(
                                _PROMO_LOADS[code][1].format(x=promo),
                                reads_memory=True, ops=2, lo=lo, hi=hi,
                                temps=frozenset((promo,)))
                            continue
                    if plane is not None and code in _PLANE_LOADS:
                        expr = _PLANE_LOADS[code].format(i=plane)
                    else:
                        expr = template.format(m="_m", a=addr)
                    if self.hot_fast:
                        # Hot fast copy: the load provably cannot trap,
                        # so it defers and fuses like a pure expression
                        # (spilled on any store/grow as usual).
                        self._push(expr, locals_read=address.locals_read,
                                   reads_memory=True,
                                   ops=address.ops + 2, lo=lo, hi=hi,
                                   temps=address.temps)
                    else:
                        self._push_var(expr, lo=lo, hi=hi)
                    continue
                offset_text = f" + {instr.arg}" if instr.arg else ""
                out.emit(f"_a = {address.paren}{offset_text}")
                out.emit(f"if _a + {width} > len(_m): "
                         "_trap('out-of-bounds memory access')")
                if self.collector and width in (2, 4, 8) \
                        and code in _PLANE_LOADS:
                    out.emit(f"_pa[{self._site_key(index)!r}] |= "
                             f"_a & {width - 1}")
                shift = self._plane_shift(code, _PLANE_LOADS, address,
                                          offset, width)
                if shift is not None:
                    self._push_var(
                        _PLANE_LOADS[code].format(i=f"_a >> {shift}"),
                        lo=lo, hi=hi)
                elif self.use_planes and width in (2, 4, 8) \
                        and code in _PLANE_LOADS and self._site_aligned(index):
                    # Profile-guided plane specialisation: the site was
                    # always aligned when profiled; guard per access and
                    # deopt to the struct path on a misprediction.
                    plane_shift = width.bit_length() - 1
                    fast_expr = _PLANE_LOADS[code].format(
                        i=f"_a >> {plane_shift}")
                    self._push_var(
                        f"({fast_expr}) if not _a & {width - 1} "
                        f"else ({template.format(m='_m', a='_a')})",
                        lo=lo, hi=hi)
                else:
                    self._push_var(template.format(m="_m", a="_a"),
                                   lo=lo, hi=hi)
            elif code in _STORES:
                width, template = _STORES[code]
                value = self._pop()
                address = self._pop()
                self._spill_memory_readers()
                offset = instr.arg or 0
                if self.fast is not None:
                    addr, plane = self._fast_access(address, offset, width)
                    if self._recording:
                        self._record_access(code, address, plane, True)
                    if plane is not None and code in _PROMO_STORES:
                        promo = self._promo_lookup(
                            (_PROMO_STORES[code][0], plane))
                        if promo is not None:
                            out.emit(f"{promo} = " + _PROMO_STORES[code][1]
                                     .format(v=value.expr))
                            continue
                    if plane is not None and code in _PLANE_STORES:
                        out.emit(_PLANE_STORES[code].format(
                            i=plane, v=value.expr))
                    else:
                        out.emit(template.format(m="_m", a=addr,
                                                 v=value.expr))
                    continue
                offset_text = f" + {instr.arg}" if instr.arg else ""
                out.emit(f"_a = {address.paren}{offset_text}")
                out.emit(f"if _a + {width} > len(_m): "
                         "_trap('out-of-bounds memory access')")
                if self.collector and width in (2, 4, 8) \
                        and code in _PLANE_STORES:
                    out.emit(f"_pa[{self._site_key(index)!r}] |= "
                             f"_a & {width - 1}")
                shift = self._plane_shift(code, _PLANE_STORES, address,
                                          offset, width)
                if shift is not None:
                    out.emit(_PLANE_STORES[code].format(i=f"_a >> {shift}",
                                                        v=value.expr))
                elif self.use_planes and width in (2, 4, 8) \
                        and code in _PLANE_STORES \
                        and self._site_aligned(index):
                    plane_shift = width.bit_length() - 1
                    out.emit(f"if not _a & {width - 1}:")
                    out.indent += 1
                    out.emit(_PLANE_STORES[code].format(
                        i=f"_a >> {plane_shift}", v=value.expr))
                    out.indent -= 1
                    out.emit("else:")
                    out.indent += 1
                    out.emit(template.format(m="_m", a="_a", v=value.expr))
                    out.indent -= 1
                else:
                    out.emit(template.format(m="_m", a="_a", v=value.expr))
            elif code == op.MEMORY_SIZE:
                self._push("_mem.size_pages", reads_memory=True, ops=1)
            elif code == op.MEMORY_GROW:
                value = self._pop()
                self._spill_memory_readers()
                if self.collector:
                    out.emit("_pn[0] += 1")
                self._push_var(f"_mem.grow({value.expr}) & {_MASK32}")
            elif code in (op.I32_EQZ, op.I64_EQZ):
                operand = self._pop()
                if operand.bool_expr is not None:
                    raw = f"not ({operand.bool_expr})"
                elif operand.literal is not None:
                    raw = "True" if operand.literal == 0 else "False"
                else:
                    raw = f"{operand.paren} == 0"
                self._push(
                    f"1 if {raw} else 0",
                    locals_read=operand.locals_read,
                    reads_global=operand.reads_global,
                    reads_memory=operand.reads_memory,
                    ops=operand.ops + 2,
                    bool_expr=raw,
                    lo=0, hi=1, temps=operand.temps,
                )
            elif code in _TRAPPING_BINOPS:
                rhs = self._pop()
                lhs = self._pop()
                self._push_var(
                    _TRAPPING_BINOPS[code].format(a=lhs.expr, b=rhs.expr))
            elif code in _RELOPS:
                rhs = self._pop()
                lhs = self._pop()
                if code in _MULTI_USE_RELOPS:
                    # The template reads each operand more than once:
                    # materialise both into fresh temporaries first.
                    self.stack.append(lhs)
                    self._materialize(len(self.stack) - 1)
                    self.stack.append(rhs)
                    self._materialize(len(self.stack) - 1)
                    rhs = self._pop()
                    lhs = self._pop()
                if code in _SIGNED_RELOPS:
                    bits = _SIGNED_RELOPS[code]
                    sign_bit = 1 << (bits - 1)
                    raw = _RELOPS[code].format(a=lhs.paren, b=rhs.paren)
                    # Fold _sNN(literal) operands into signed literals, and
                    # elide _sNN entirely on values proven below the sign
                    # bit (their signed and raw readings coincide).
                    for operand in (lhs, rhs):
                        literal = operand.literal
                        if literal is not None:
                            signed = num.s32(literal) if bits == 32 \
                                else num.s64(literal)
                            raw = raw.replace(
                                f"_s{bits}({operand.paren})", str(signed), 1)
                        elif (self.opt >= 1 and operand.hi is not None
                                and operand.hi < sign_bit):
                            raw = raw.replace(
                                f"_s{bits}({operand.paren})",
                                operand.paren, 1)
                else:
                    raw = _RELOPS[code].format(a=lhs.paren, b=rhs.paren)
                self._push(
                    f"1 if {raw} else 0",
                    locals_read=lhs.locals_read | rhs.locals_read,
                    reads_global=lhs.reads_global or rhs.reads_global,
                    reads_memory=lhs.reads_memory or rhs.reads_memory,
                    ops=lhs.ops + rhs.ops + 2,
                    bool_expr=raw,
                    lo=0, hi=1, temps=lhs.temps | rhs.temps,
                )
            elif code in _UNOPS:
                operand = self._pop()
                template = _UNOPS[code]
                if template == "{a}":
                    self.stack.append(operand)
                    continue
                if self.opt >= 1 and operand.hi is not None:
                    # Conversions that are identities on proven-in-range
                    # values: the wrap/sign-extension cannot fire.
                    if (code == op.I32_WRAP_I64
                            and operand.hi <= num.MASK32) or \
                       (code == op.I64_EXTEND_I32_S
                            and operand.hi < (1 << 31)):
                        self.stack.append(operand)
                        continue
                self._push(
                    template.format(a=operand.paren),
                    locals_read=operand.locals_read,
                    reads_global=operand.reads_global,
                    reads_memory=operand.reads_memory,
                    ops=operand.ops + 1,
                    temps=operand.temps,
                )
            elif code in _TRAPPING_UNOPS:
                operand = self._pop()
                self._push_var(_TRAPPING_UNOPS[code].format(a=operand.expr))
            else:
                raise WasmError(f"AOT: unimplemented opcode {op.name(code)}")

    # -- optimisation passes ------------------------------------------------------

    def _push_local(self, local: int) -> None:
        """local.get / the re-read half of local.tee, with metadata."""
        lo = hi = None
        affine = None
        if self.opt >= 1 and self.local_types[local] == ValType.I32:
            affine = {local: 1}
            for ctx in reversed(self.loop_ctxs):
                if ctx.ind_local == local and ctx.ind_hi is not None:
                    lo, hi = ctx.ind_lo, ctx.ind_hi
                    break
        self._push(f"l{local}", locals_read=frozenset((local,)), ops=1,
                   lo=lo, hi=hi, affine=affine)

    def _range_binop(self, code: int, lhs: _Value, rhs: _Value) -> _Value:
        """An integer binop through the value-range lattice.

        Emits the mask-free form whenever the result provably fits the
        type's range (the ``& MASK`` would be the identity); tracks the
        real-arithmetic affine form for i32 address computations.
        """
        kind, bits = _RANGE_BINOPS[code]
        mask = num.MASK32 if bits == 32 else num.MASK64
        is32 = bits == 32
        a_lo, a_hi = (lhs.lo, lhs.hi) if lhs.hi is not None else (0, mask)
        b_lo, b_hi = (rhs.lo, rhs.hi) if rhs.hi is not None else (0, mask)
        expr = None
        lo = hi = None
        affine = None
        if kind == "add":
            if a_hi + b_hi <= mask:
                expr = f"{lhs.paren} + {rhs.paren}"
                lo, hi = a_lo + b_lo, a_hi + b_hi
            if is32 and lhs.affine is not None and rhs.affine is not None:
                affine = dict(lhs.affine)
                for key, coeff in rhs.affine.items():
                    affine[key] = affine.get(key, 0) + coeff
        elif kind == "sub":
            if a_lo >= b_hi:
                expr = f"{lhs.paren} - {rhs.paren}"
                lo, hi = a_lo - b_hi, a_hi - b_lo
                # Borrow-free subtraction of a constant keeps the value
                # affine (only the constant term may go negative).
                if is32 and rhs.literal is not None \
                        and lhs.affine is not None:
                    affine = dict(lhs.affine)
                    affine[-1] = affine.get(-1, 0) - rhs.literal
        elif kind == "mul":
            if a_hi * b_hi <= mask:
                expr = f"{lhs.paren} * {rhs.paren}"
                lo, hi = a_lo * b_lo, a_hi * b_hi
            if is32:
                if rhs.literal is not None and lhs.affine is not None:
                    affine = {key: coeff * rhs.literal
                              for key, coeff in lhs.affine.items()}
                elif lhs.literal is not None and rhs.affine is not None:
                    affine = {key: coeff * lhs.literal
                              for key, coeff in rhs.affine.items()}
        elif kind == "and":
            literal = rhs.literal if rhs.literal is not None else lhs.literal
            other = lhs if rhs.literal is not None else rhs
            other_hi = a_hi if other is lhs else b_hi
            if literal is not None and (literal + 1) & literal == 0 \
                    and other_hi <= literal:
                return other  # the mask is the identity: drop it
            lo, hi = 0, min(a_hi, b_hi)
        elif kind in ("or", "xor"):
            lo = 0
            hi = (1 << max(a_hi.bit_length(), b_hi.bit_length())) - 1
        elif kind == "shl":
            if rhs.literal is not None:
                count = rhs.literal % bits
                if a_hi << count <= mask:
                    expr = f"{lhs.paren} << {count}"
                    lo, hi = a_lo << count, a_hi << count
                if is32 and lhs.affine is not None:
                    affine = {key: coeff << count
                              for key, coeff in lhs.affine.items()}
        elif kind == "shru":
            if rhs.literal is not None:
                count = rhs.literal % bits
                expr = f"{lhs.paren} >> {count}"
                lo, hi = a_lo >> count, a_hi >> count
        if expr is None:
            expr = _BINOPS[code].format(a=lhs.paren, b=rhs.paren)
        return _Value(
            expr,
            locals_read=lhs.locals_read | rhs.locals_read,
            reads_global=lhs.reads_global or rhs.reads_global,
            reads_memory=lhs.reads_memory or rhs.reads_memory,
            ops=lhs.ops + rhs.ops + 1,
            lo=lo, hi=hi, affine=affine,
            temps=lhs.temps | rhs.temps,
        )

    def _plane_shift(self, code: int, table: Dict[int, str], address: _Value,
                     offset: int, width: int) -> Optional[int]:
        """The plane shift when the access is provably width-aligned.

        An affine address with every coefficient and the total constant
        offset divisible by the width is aligned — masking preserves that
        (2^32 is a multiple of every plane width), so the proof needs no
        wrap analysis.
        """
        if not self.use_planes or code not in table or width not in (2, 4, 8):
            return None
        if address.affine is None:
            return None
        constant = address.affine.get(-1, 0) + offset
        if constant % width:
            return None
        for key, coeff in address.affine.items():
            if key >= 0 and coeff % width:
                return None
        return width.bit_length() - 1

    # -- scalar promotion (opt level 3, hot versioned loops) ---------------------

    def _promo_lookup(self, key: tuple) -> Optional[str]:
        for scope in reversed(self.promo_scopes):
            var = scope.mapping.get(key)
            if var is not None:
                return var
        return None

    def _loop_promotable(self, index: int) -> bool:
        """A loop qualifies for promotion only when nothing in its body
        can trap or re-enter the runtime: every iteration that starts
        also finishes (or leaves through a branch, where writebacks are
        emitted), so the carried cell is never stale at an observable
        point."""
        cached = self._promotable_loops.get(index)
        if cached is not None:
            return cached
        info = self.analysis.get(index)
        ok = info is not None
        if ok:
            body = self.func.body
            for i in range(index, info.end + 1):
                code = body[i].opcode
                if code in _TRAPPING_BINOPS or code in _TRAPPING_UNOPS \
                        or code in _PROMO_BARRIERS:
                    ok = False
                    break
        self._promotable_loops[index] = ok
        return ok

    def _record_access(self, code: int, address: _Value,
                       plane: Optional[str], is_store: bool) -> None:
        """Log one probed access for the promotion planner."""
        lo, hi, effective = self._last_meta
        root_start = self.fast.root.start
        open_loops = tuple(ctx.index for ctx in self.loop_ctxs
                           if ctx.index >= root_start)
        invariant: set = set()
        if address.is_var:
            # A materialised address is loop-invariant exactly where it
            # was hoisted: from its defining preheader inward.
            position = None
            for p, ctx in enumerate(self.loop_ctxs):
                if address.expr in ctx.hoisted.values():
                    position = p
                    break
            if position is not None:
                invariant = {self.loop_ctxs[q].index
                             for q in range(position, len(self.loop_ctxs))
                             if self.loop_ctxs[q].index >= root_start}
        else:
            read_locals = {key for key, coeff in effective.items()
                           if key >= 0 and coeff}
            for ctx in self.loop_ctxs:
                if ctx.index >= root_start \
                        and not (read_locals & ctx.info.writes):
                    invariant.add(ctx.index)
        table = _PROMO_STORES if is_store else _PROMO_LOADS
        pkey = (table[code][0], plane) \
            if plane is not None and code in table else None
        self._access_log.append(_AccessRecord(
            open_loops, pkey, lo, hi, frozenset(invariant), is_store, code))

    def _plan_promotions(self) -> Dict[int, Dict[tuple, str]]:
        """Pick the promotable cells per loop from the probe's log.

        A key (plane, element-index expression) is promotable in loop L
        when: its index is loop-invariant in L; every access under the
        key is rewritable (in the promo tables); every byte range is
        statically bounded; and every *other* access in L is provably
        disjoint from the key's byte span. Textually identical accesses
        are the same cell and get rewritten instead.
        """
        records = self._access_log
        promo: Dict[int, Dict[tuple, str]] = {}
        loops = sorted({loop for record in records
                        for loop in record.open_loops})
        for loop in loops:
            if not self._loop_promotable(loop):
                continue
            in_loop = [r for r in records if loop in r.open_loops]
            by_key: Dict[tuple, List[_AccessRecord]] = {}
            for record in in_loop:
                if record.pkey is not None:
                    by_key.setdefault(record.pkey, []).append(record)
            for key, group in sorted(by_key.items()):
                if not any(r.is_store for r in group):
                    continue  # no store: nothing to carry
                if not all(loop in r.invariant_in for r in group):
                    continue
                if any(r.hi is None for r in group):
                    continue
                key_lo = min(r.lo for r in group)
                key_hi = max(r.hi for r in group)
                disjoint = True
                for other in in_loop:
                    if other.pkey == key:
                        continue
                    if other.hi is None or not (other.hi < key_lo
                                                or other.lo > key_hi):
                        disjoint = False
                        break
                if disjoint:
                    promo.setdefault(loop, {})[key] = ""
        return promo

    def _open_promo_scope(self, index: int, frame: _Frame) -> None:
        """Activate the planned promotions for the loop at ``index``."""
        if not self.promotions_plan:
            return
        plan = self.promotions_plan.get(index)
        if not plan or not self.loop_ctxs \
                or self.loop_ctxs[-1].index != index:
            return
        mapping: Dict[tuple, str] = {}
        for key in sorted(plan):
            if self._promo_lookup(key) is not None:
                continue  # an enclosing loop already carries this cell
            name = f"pv{self.next_promo}"
            self.next_promo += 1
            mapping[key] = name
        if mapping:
            self.promo_scopes.append(
                _PromoScope(frame, self.loop_ctxs[-1], mapping))

    def _close_promo_scope(self, frame: _Frame, live: bool) -> None:
        """On loop end: insert preloads into the preheader (after every
        hoist) and, on the live fall-through path, write the cells back."""
        if not self.promo_scopes or self.promo_scopes[-1].frame is not frame:
            return
        scope = self.promo_scopes.pop()
        ctx = scope.ctx
        for (plane, index_expr), name in scope.items_sorted():
            line = " " * ctx.indent + f"{name} = {plane}[{index_expr}]"
            ctx.emitter.lines.insert(ctx.insert_at, line)
            ctx.insert_at += 1
        if live:
            for (plane, index_expr), name in scope.items_sorted():
                self.out.emit(f"{plane}[{index_expr}] = {name}")

    def _emit_promo_writebacks(self, depth: Optional[int]) -> None:
        """Write back every promoted cell whose loop a branch leaves.

        ``depth`` is the branch depth (None: return / function frame). A
        back edge (branch *to* a loop frame) stays inside that loop, so
        its scope survives; everything strictly inside the target is
        written back.
        """
        if not self.promo_scopes:
            return
        if depth is None or depth >= len(self.frames):
            exited = set(self.frames)
        else:
            target = len(self.frames) - 1 - depth
            if self.frames[target].kind == op.LOOP:
                exited = set(self.frames[target + 1:])
            else:
                exited = set(self.frames[target:])
        for scope in reversed(self.promo_scopes):
            if scope.frame in exited:
                for (plane, index_expr), name in scope.items_sorted():
                    self.out.emit(f"{plane}[{index_expr}] = {name}")

    # -- loop versioning ----------------------------------------------------------

    def _can_version(self, index: int) -> bool:
        if self.opt < 2 or self.version_depth > 0 \
                or index in self.no_version:
            return False
        info = self.analysis.get(index)
        return (info is not None and info.versionable
                and self.func.body[index].arg.arity == 0)

    def _fast_bound(self, local: int) -> Optional[tuple]:
        """``(numeric, symbolic)`` loop-wide max of a local read by an
        address inside the versioned region, or None when unboundable.

        A local the region never writes is its own (runtime) bound. A
        local written inside the region is only boundable when it is the
        induction variable of a loop the access is structurally inside
        (its ctx is still open): there the guard has passed, so the value
        is at most the guard bound.
        """
        fast = self.fast
        if local not in fast.root.writes:
            return None, f"l{local}"
        for ctx in reversed(self.loop_ctxs):
            induction = ctx.info.induction
            if induction is None or induction.local != local \
                    or ctx.index < fast.root.start:
                continue
            ok, conjunct = induction.fast_path_sound()
            if not ok:
                return None
            if induction.symbolic_init and induction.signed \
                    and ctx.index != fast.root.start:
                # The entry-cap conjunct only means anything at the
                # loop's own entry; this region's preflight runs before
                # the nested loop's entry value is even computed.
                return None
            if conjunct:
                fast.require(conjunct)
            if induction.max_numeric is not None:
                return max(induction.max_numeric, 0), None
            part, reads = induction.max_parts()
            if reads & fast.root.writes:
                return None
            return None, part
        return None

    def _fast_access(self, address: _Value, offset: int,
                     width: int) -> tuple:
        """Hoist one access's bounds check into the loop preflight.

        Returns ``(address_expr, plane_index_expr_or_None)`` and records
        the requirement ``max_address + width <= _ml``; raises
        :class:`_ProbeFailed` when the address cannot be bounded at loop
        entry, which ends the probe at this access.
        """
        fast = self.fast
        if address.affine is None:
            raise _ProbeFailed
        effective = dict(address.affine)
        effective[-1] = effective.get(-1, 0) + offset
        numeric = effective[-1] + width
        symbolic: List[str] = []
        for local, coeff in sorted(effective.items()):
            if local < 0 or coeff == 0:
                continue
            bound = self._fast_bound(local)
            if bound is None:
                raise _ProbeFailed
            bound_numeric, bound_symbolic = bound
            if bound_numeric is not None:
                numeric += coeff * bound_numeric
            elif coeff == 1:
                symbolic.append(bound_symbolic)
            else:
                symbolic.append(f"{coeff} * {bound_symbolic}")
        if symbolic:
            fast.require(" + ".join(symbolic + [str(numeric)]) + " <= _ml")
        else:
            fast.require_numeric(numeric)
        if self._recording:
            # Byte span for the promotion planner: the constant term is
            # the minimum (coefficients and locals are non-negative); the
            # preflight bound is the maximum when fully numeric.
            self._last_meta = (effective.get(-1, 0),
                               None if symbolic else numeric - 1,
                               effective)
        # The emitted address: a materialised variable is its own (proven
        # unwrapped) value; a deferred expression is rebuilt mask-free
        # from the affine form.
        if address.is_var:
            addr = f"{address.expr} + {offset}" if offset else address.expr
        else:
            addr = _affine_expr(effective, 1)
        plane = None
        if self.use_planes and width in (2, 4, 8) \
                and effective.get(-1, 0) % width == 0 \
                and all(coeff % width == 0
                        for key, coeff in effective.items() if key >= 0):
            shift = width.bit_length() - 1
            if address.is_var:
                base = f"({addr})" if offset else addr
                plane = f"{base} >> {shift}"
            else:
                plane = _affine_expr(effective, width)
        return addr, plane

    def _compile_versioned_loop(self, index: int) -> int:
        """Emit the loop at ``index`` behind a preflight, or in place.

        The fast copy elides every per-access bounds check (and computes
        addresses mask-free, through planes when aligned) under a single
        preflight conjunction evaluated at loop entry. When the preflight
        cannot prove the whole iteration space in bounds (every program
        that would trap among them), the call resumes in the interpreter
        at the loop, which finishes it with the byte-identical trap
        message at the identical point. A probe that meets an access it
        cannot bound stops there, and the loop is lowered once, in place.
        """
        info = self.analysis[index]
        stop = info.end + 1
        self._spill_all()
        snapshot = (self.next_label, self.next_temp, self.next_hoist)
        self.version_depth += 1
        hot = self._region_hot(index, stop)
        self.hot_fast = hot
        self._recording = hot
        self._access_log = []
        try:
            fast_out, conditions = self._compile_fast_copy(info, None)
        except _ProbeFailed:
            conditions = []
        self._recording = False

        if not conditions or len(conditions) > _MAX_PREFLIGHT:
            # Compile this loop in place, unversioned, but let its inner
            # loops try their own versions.
            self.no_version.add(index)
            self.version_depth -= 1
            self.hot_fast = False
            self.next_label, self.next_temp, self.next_hoist = snapshot
            self._compile_range(index, stop)
            return stop

        if hot:
            promotions = self._plan_promotions()
            if promotions:
                # Recompile the fast copy with scalar promotion active.
                # State evolution is identical to the probe (promoted
                # accesses still register their preflight requirements
                # and hoists; only the access statements change), so the
                # emitted preheaders and conditions line up.
                self.next_label, self.next_temp, self.next_hoist = snapshot
                fast_out, conditions = self._compile_fast_copy(
                    info, promotions)
        self.hot_fast = False
        self.version_depth -= 1

        out = self.out
        out.emit("_ml = len(_m)")
        out.emit(f"if {' and '.join(conditions)}:")
        out.lines.extend(fast_out.lines)
        out.emit("else:")
        out.emit(" " + self._resume_statement(index, len(self.stack)))
        return stop

    def _compile_fast_copy(self, info: aotopt.LoopInfo,
                           promotions: Optional[Dict[int, Dict[tuple, str]]]
                           ) -> Tuple[_Emitter, List[str]]:
        """Lower the versioned loop ``info`` into a fresh emitter one level
        in; returns it with the preflight conditions. The open frames,
        loop and promotion scopes, stack and emitter are restored, also
        when the probe fails."""
        fast = _FastCtx(info)
        conjunct = info.induction.fast_path_sound()[1]
        if conjunct:
            fast.require(conjunct)
        outer, height = self.out, len(self.stack)
        depths = (len(self.frames), len(self.loop_ctxs),
                  len(self.promo_scopes))
        self.fast, self.promotions_plan = fast, promotions
        self.out = _Emitter()
        self.out.indent = outer.indent + 1
        try:
            self._compile_range(info.start, info.end + 1)
            return self.out, fast.conditions()
        finally:
            self.fast = self.promotions_plan = None
            self.out = outer
            del self.frames[depths[0]:]
            del self.loop_ctxs[depths[1]:]
            del self.promo_scopes[depths[2]:]
            self._reset_stack(height)

    def _resume_statement(self, index: int, height: int) -> str:
        """The failed-preflight arm of the versioned loop at ``index``:
        finish the call in the interpreter from the loop, handing over
        every local, the ``height`` stack slots and the interpreter label
        stack of the constructs open here (the function label first)."""
        body = self.func.body
        labels = [(len(body), len(self.func_type.results), 0, False)]
        for frame in self.frames:
            if frame.kind == op.LOOP:
                labels.append((frame.start + 1, 0, frame.entry_height, True))
            else:
                labels.append((body[frame.start].target + 1, frame.arity,
                               frame.entry_height, False))
        local_list = ", ".join(f"l{i}" for i in range(len(self.local_types)))
        stack_list = ", ".join(f"s{i}" for i in range(height))
        return (f"return _resume({self.func_index}, {index}, [{local_list}], "
                f"[{stack_list}], {labels!r})")


def _affine_expr(affine: Dict[int, int], scale: int) -> str:
    """Rebuild an affine form as real-arithmetic source, divided by
    ``scale`` (1 for byte addresses; the access width for plane indices,
    only called when every term is divisible)."""
    terms = []
    for local, coeff in sorted(affine.items()):
        if local < 0 or coeff == 0:
            continue
        scaled = coeff // scale
        terms.append(f"l{local}" if scaled == 1 else f"l{local} * {scaled}")
    constant = affine.get(-1, 0) // scale
    if constant or not terms:
        terms.append(str(constant))
    return " + ".join(terms)


class AotCompiler(Engine):
    """Engine that compiles functions to Python closures at load time."""

    name = "aot"

    #: The Wasm -> Python lowering and CPython bytecode compilation depend
    #: only on the module content, so the resulting top-level code object
    #: (plus its source) is a reusable artifact; only the ``exec`` into a
    #: per-instance namespace is instance-specific.
    supports_code_artifacts = True

    def __init__(self, opt_level: Optional[int] = None,
                 tracer: Optional[object] = None,
                 profile: Optional[object] = None,
                 profile_collector: Optional[object] = None) -> None:
        level = DEFAULT_OPT_LEVEL if opt_level is None else opt_level
        if level not in _OPT_LEVELS:
            raise WasmError(f"unknown aot opt level: {level!r}")
        self.tracer = tracer
        self._resumes: Dict[Tuple[int, int], int] = {}
        self._resumes_lock = threading.Lock()
        #: (module, its o3 plan) of the last module planned.
        self._planned: tuple = (None, None)
        self.collector = profile_collector
        self.profile: Optional[Profile] = None
        if profile_collector is not None:
            # Instrumented (profiling) build: the reference lowering plus
            # counter updates. Its artifacts depend on external mutable
            # state, so they are never shared through the codecache.
            self.opt_level = 0
            self.supports_code_artifacts = False
            return
        if level >= 3:
            parsed: Optional[Profile] = None
            if profile is not None:
                try:
                    parsed = Profile.coerce(profile)
                except ProfileError as exc:
                    warnings.warn(ProfileWarning(
                        f"invalid profile ({exc}); "
                        "degrading aot opt level 3 -> 2"))
            else:
                warnings.warn(ProfileWarning(
                    "aot opt level 3 requires a profile; degrading to 2"))
            if parsed is not None and parsed.is_empty:
                warnings.warn(ProfileWarning(
                    "empty profile; degrading aot opt level 3 -> 2"))
                parsed = None
            if parsed is None:
                level = 2
            else:
                self.profile = parsed
        self.opt_level = level

    @property
    def cache_identity(self) -> str:
        """Cache key component: the opt level changes the artifact — and
        at level 3 so does the profile, so its content hash is part of
        the identity (two profiles never share artifacts)."""
        if self.collector is not None:
            return f"{self.name}@profile"
        if self.profile is not None:
            return f"{self.name}@o3+{self.profile.profile_hash[:16]}"
        return f"{self.name}@o{self.opt_level}"

    def instantiate(self, module_or_binary, imports=None,
                    memory_cap_bytes=None, code_cache=codecache.DEFAULT,
                    cache_key=None):
        """At level 3, refuse to apply a profile recorded on a different
        module: degrade (with a typed warning) to a plain o2 engine, which
        shares o2's cache identity and is behaviourally exact."""
        if self.profile is not None and self.profile.module_key \
                and isinstance(module_or_binary, (bytes, bytearray)):
            key = cache_key \
                or codecache.CodeCache.module_key(bytes(module_or_binary))
            if key != self.profile.module_key:
                warnings.warn(ProfileWarning(
                    "profile was recorded on a different module; "
                    "degrading this load to opt level 2"))
                fallback = AotCompiler(opt_level=2, tracer=self.tracer)
                return fallback.instantiate(
                    module_or_binary, imports,
                    memory_cap_bytes=memory_cap_bytes,
                    code_cache=code_cache, cache_key=cache_key)
        return super().instantiate(
            module_or_binary, imports, memory_cap_bytes=memory_cap_bytes,
            code_cache=code_cache, cache_key=cache_key)

    @property
    def resumes(self) -> Dict[Tuple[int, int], int]:
        """A snapshot of the calls that resumed in the interpreter, per
        ``(function index, loop pc)``: each is a versioned loop whose
        preflight failed at entry."""
        with self._resumes_lock:
            return dict(self._resumes)

    def _plan(self, module: Module) -> Optional[pgo.ModulePlan]:
        """The o3 plan of ``module``, built once per load."""
        if self.profile is None:
            return None
        planned, plan = self._planned
        if planned is not module:
            plan = pgo.module_plan(module, self.profile)
            self._planned = (module, plan)
        return plan

    def _compiled_func(self, module: Module, func_index: int) -> Function:
        """The body a hot function is lowered from: the o3 plan's (with
        inline splices) when there is one, else the decoded function."""
        plan = self._plan(module)
        if plan is not None:
            return plan.hot[func_index].func
        return module.functions[func_index - len(module.imported_funcs)]

    def _make_compiler(self, module: Module,
                       func_index: int) -> _FunctionCompiler:
        plan = self._plan(module)
        fplan = plan.hot[func_index] if plan is not None else None
        return _FunctionCompiler(
            module, self._compiled_func(module, func_index), func_index,
            opt_level=self.opt_level, use_planes=Memory.planes_supported,
            profile=self.profile, sites=fplan and fplan.sites,
            spec_globals=fplan and fplan.spec_globals or None,
            collector=self.collector is not None)

    def compile_artifact(self, module: Module, func_index: int) -> tuple:
        """Lower one function to a (code object, source) artifact — or,
        at level 3, a ("cold", fused_body) artifact for functions the
        profile never saw called."""
        plan = self._plan(module)
        if plan is not None and func_index in plan.cold:
            return ("cold", plan.fused[func_index])
        tracer = self.tracer
        if tracer is None:
            compiler = self._make_compiler(module, func_index)
            source = compiler.compile()
            code = compile(source, f"<wasm-aot f{func_index}>", "exec")
            return (code, source)
        with tracer.span("aot.compile", func=func_index,
                         opt=self.opt_level):
            with tracer.span("aot.analyze"):
                compiler = self._make_compiler(module, func_index)
            with tracer.span("aot.codegen"):
                source = compiler.compile()
            with tracer.span("aot.pycompile"):
                code = compile(source, f"<wasm-aot f{func_index}>", "exec")
        return (code, source)

    def link_artifact(self, module: Module, instance: Instance,
                      func_index: int, artifact: object) -> Callable:
        """Bind a compiled artifact to an instance's fresh namespace."""
        if artifact[0] == "cold":
            # Cold function: an interpreter closure over the fused body.
            # A mispredicting profile (the function does get called) only
            # costs dispatch speed, never correctness.
            namespace = self._namespace(module, instance)
            entry = pgo.make_cold_entry(module, instance, func_index,
                                        artifact[1])
            namespace["_f"].append(entry)
            return entry
        code, source = artifact
        namespace = self._namespace(module, instance)
        exec(code, namespace)
        compiled = namespace[f"_wasm_f{func_index}"]
        compiled.__wasm_source__ = source  # aid debugging and tests
        # Internal Wasm->Wasm calls skip the coercing wrapper: values
        # produced inside the sandbox are already canonical.
        namespace["_f"].append(compiled)
        func = module.functions[func_index - len(module.imported_funcs)]
        param_types = module.types[func.type_index].params
        return _wrap_entry(compiled, param_types)

    def compile_function(self, module: Module, instance: Instance,
                         func_index: int) -> Callable:
        artifact = self.compile_artifact(module, func_index)
        entry = self.link_artifact(module, instance, func_index, artifact)
        entry.code_artifact = artifact
        return entry

    def _namespace(self, module: Module, instance: Instance) -> dict:
        cached = getattr(instance, "_aot_namespace", None)
        if cached is not None:
            return cached
        namespace = {
            "_inst": instance,
            # The fast call table: host bindings as-is (they are ordinary
            # Python callables), local functions appended *unwrapped* as
            # they are compiled. instance.funcs keeps the wrapped entry
            # points for the embedder.
            "_f": list(instance.funcs),
            "_ft": instance.func_types,
            "_g": instance.globals,
            "_mem": instance.memory,
            "_m": instance.memory.data if instance.memory else b"",
            "_tbl": instance.table,
            "_trap": _trap,
            "_s32": num.s32,
            "_s64": num.s64,
            "_f32r": num.f32_round,
            "_clz": num.clz,
            "_ctz": num.ctz,
            "_popcnt": num.popcnt,
            "_rotl": num.rotl,
            "_rotr": num.rotr,
            "_divs": num.idiv_s,
            "_divu": num.idiv_u,
            "_rems": num.irem_s,
            "_remu": num.irem_u,
            "_shrs": num.shr_s,
            "_trunc": num.trunc_to_int,
            "_ext": num.extend_signed,
            "_fdiv": _fdiv,
            "_fmin": num.fmin,
            "_fmax": num.fmax,
            "_fceil": num.fceil,
            "_ffloor": num.ffloor,
            "_ftrunc": num.ftrunc,
            "_fnearest": num.fnearest,
            "_fsqrt": num.fsqrt,
            "_copysign": math.copysign,
            "_isnan": math.isnan,
            "_ri32f32": num.i32_reinterpret_f32,
            "_ri64f64": num.i64_reinterpret_f64,
            "_rf32i32": num.f32_reinterpret_i32,
            "_rf64i64": num.f64_reinterpret_i64,
            "_upI16": S_I16.unpack_from,
            "_upI32": S_I32.unpack_from,
            "_upI64": S_I64.unpack_from,
            "_upF32": S_F32.unpack_from,
            "_upF64": S_F64.unpack_from,
            "_pkI16": S_I16.pack_into,
            "_pkI32": S_I32.pack_into,
            "_pkI64": S_I64.pack_into,
            "_pkF32": S_F32.pack_into,
            "_pkF64": S_F64.pack_into,
            "_resume": self._resumer(module, instance),
        }
        memory = instance.memory
        if memory is not None and memory.planes_supported:
            # Typed planes over the linear memory. `memory.grow` swaps
            # the backing buffer, so the namespace re-requests them on
            # every grow; generated code reads the names per access.
            def _refresh_planes(space=namespace, memory=memory) -> None:
                for fmt, plane_name in _PLANE_NAMES.items():
                    space[plane_name] = memory.plane(fmt)
            _refresh_planes()
            memory.add_plane_listener(_refresh_planes)
        for type_index, func_type in enumerate(module.types):
            namespace[f"_sig{type_index}"] = func_type
        if self.collector is not None:
            # Instrumented build: counter names alias the collector's
            # mutable dicts, so every profiled instance accumulates into
            # the same profile.
            namespace["_pf"] = self.collector.func_calls
            namespace["_pl"] = self.collector.loop_backedges
            namespace["_pa"] = self.collector.access_masks
            namespace["_pg"] = self.collector.global_sets
            namespace["_pn"] = self.collector.mem_grows
        instance._aot_namespace = namespace  # type: ignore[attr-defined]
        return namespace

    def _resumer(self, module: Module, instance: Instance) -> Callable:
        """The namespace's ``_resume``: count the resume, then run the rest
        of the call in the interpreter over the body the function was
        lowered from. The call depth is put back to its value at the
        resume, so the compiled frames' ``finally`` clauses unwind exactly
        the call and the inline splices they entered."""
        def resume(func_index: int, pc: int, locals_list: list,
                   stack: list, labels: list):
            key = (func_index, pc)
            with self._resumes_lock:
                self._resumes[key] = self._resumes.get(key, 0) + 1
            func = self._compiled_func(module, func_index)
            arity = len(module.types[func.type_index].results)
            depth = instance.call_depth
            try:
                stack = _run(module, instance, func.body, locals_list,
                             arity, pc, stack, labels)
            finally:
                instance.call_depth = depth
            return stack[-1] if arity else None
        return resume


def _wrap_entry(compiled: Callable, param_types) -> Callable:
    """Coerce host-supplied arguments once at the public boundary."""
    from repro.wasm.interpreter import _coerce

    def entry(*args):
        if len(args) != len(param_types):
            raise TrapError(
                f"expected {len(param_types)} arguments, got {len(args)}"
            )
        return compiled(*(
            _coerce(value, valtype)
            for value, valtype in zip(args, param_types)
        ))

    entry.__wasm_source__ = compiled.__wasm_source__
    entry.compiled = compiled
    return entry
