"""Differential testing of the AOT control lowering on random control flow.

Hypothesis builds random functions of nested ``block``/``loop``/``if``
(up to five deep, with and without typed results) through
:mod:`repro.wasm.builder`, with ``br``/``br_if``/``br_table`` to every
enclosing depth, ``return`` from inside nested loops, ``unreachable`` in
dead code, and out-of-bounds and division-by-zero traps inside loops.
PolyBench only ever branches to depth 0 or 1, so this is the suite that
drives the ``_br`` dispatch the optimising tiers keep for the other
shapes. Every program runs on the interpreter (the oracle), on AOT at
opt levels 0-2, and at opt level 3 under an honest and a lying profile;
the lying one inflates every counter so that a small callee whose
``return`` sits inside a loop is inlined into loops of the caller. All
must agree on the result, on trap type and message, and on final memory.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import TrapError
from repro.wasm import AotCompiler, Interpreter, ModuleBuilder
from repro.wasm import decode_module
from repro.wasm import opcodes as op
from repro.wasm.codecache import CodeCache
from repro.wasm.pgo import Profile, ProfileCollector
from repro.wasm.types import F64, I32

MAX_DEPTH = 5
#: Loop iterations a run may take in total, across every loop.
FUEL = 40

# Locals of f(x: i32) -> i32; counted-loop inductions follow.
_X, _FUEL, _ACC, _INDUCTION = 0, 1, 2, 3
# f is function 1; the callee g(n: i32) -> i32 is function 0.
_G = 0


class _Gen:
    """Emits one random body into a :class:`FunctionBuilder`."""

    def __init__(self, draw, f) -> None:
        self.draw = draw
        self.f = f
        #: Branch value type of each open label, innermost last (None for
        #: no value; loops never carry one).
        self.labels: list = []

    # -- expressions ---------------------------------------------------------

    def i32(self, depth: int = 2) -> None:
        f, draw = self.f, self.draw
        choice = draw(st.integers(0, 7 if depth else 1))
        if choice == 0:
            f.i32_const(draw(st.integers(-5, 40)))
        elif choice == 1:
            f.local_get(draw(st.sampled_from((_X, _FUEL, _ACC))))
        elif choice <= 3:
            self.i32(depth - 1)
            self.i32(depth - 1)
            f.emit(draw(st.sampled_from(
                (op.I32_ADD, op.I32_SUB, op.I32_MUL, op.I32_XOR,
                 op.I32_LT_S, op.I32_GE_U))))
        elif choice == 4:
            # Division by a value that may be zero.
            self.i32(depth - 1)
            f.local_get(draw(st.sampled_from((_X, _FUEL, _ACC))))
            f.emit(draw(st.sampled_from((op.I32_DIV_S, op.I32_REM_U))))
        elif choice == 5:
            self.address()
            f.emit(op.I32_LOAD, draw(st.sampled_from((0, 4, 16))))
        elif choice == 6:
            self.i32(depth - 1)
            f.call(_G)
        else:
            self.f64(depth - 1)
            f.emit(op.I32_TRUNC_F64_S)

    def f64(self, depth: int = 1) -> None:
        f, draw = self.f, self.draw
        choice = draw(st.integers(0, 2 if depth else 1))
        if choice == 0:
            f.f64_const(draw(st.sampled_from((0.5, -2.0, 3.25, 1e9))))
        elif choice == 1:
            self.i32(0)
            f.emit(op.F64_CONVERT_I32_S)
        else:
            self.f64(depth - 1)
            self.f64(depth - 1)
            f.emit(draw(st.sampled_from((op.F64_ADD, op.F64_MUL))))

    def value(self, valtype) -> None:
        if valtype is I32:
            self.i32()
        elif valtype is F64:
            self.f64()

    def address(self) -> None:
        """In bounds, or (from the argument) possibly out of bounds."""
        f = self.f
        if self.draw(st.booleans()):
            self.i32(1)
            f.i32_const(0x3FC).emit(op.I32_AND)
        else:
            f.local_get(_X)
            f.i32_const(self.draw(st.integers(0, 64))).emit(op.I32_ADD)

    # -- statements (each leaves the operand stack as it found it) -----------

    def consume(self, valtype) -> None:
        """Fold a construct's result into observable state."""
        f = self.f
        if valtype is I32:
            f.local_get(_ACC).emit(op.I32_ADD).local_set(_ACC)
        elif valtype is F64:
            f.local_set(_INDUCTION + MAX_DEPTH)
            f.i32_const(8 * self.draw(st.integers(0, 7)))
            f.local_get(_INDUCTION + MAX_DEPTH)
            f.emit(op.F64_STORE, 0x800)

    def body(self, depth: int, count=None) -> None:
        stop = self.draw(st.integers(0, 3)) if count is None else count
        for _ in range(stop):
            if self.statement(depth):
                self.dead(depth)
                return

    def dead(self, depth: int) -> None:
        """Code after an unconditional transfer: never runs."""
        if self.draw(st.booleans()):
            self.f.emit(op.UNREACHABLE)
        self.body(depth, count=self.draw(st.integers(0, 1)))

    def fuel_check(self) -> None:
        """Every loop iteration burns fuel; running dry returns from
        inside however many loops are open. Each iteration also mixes a
        per-loop constant into the result, so a branch that restarts the
        wrong loop cannot go unnoticed."""
        f = self.f
        f.local_get(_FUEL).i32_const(1).emit(op.I32_SUB).local_tee(_FUEL)
        f.emit(op.I32_EQZ).if_()
        f.local_get(_ACC).ret()
        f.end()
        f.local_get(_ACC).i32_const(3).emit(op.I32_MUL)
        f.i32_const(self.draw(st.integers(1, 1 << 20))).emit(op.I32_ADD)
        f.local_set(_ACC)

    def statement(self, depth: int) -> bool:
        """Emit one statement; True when it ends in an unconditional
        transfer (the rest of the suite is dead)."""
        f, draw = self.f, self.draw
        nested = depth < MAX_DEPTH
        choice = draw(st.integers(0, 10 if nested else 5))
        if choice == 0:
            self.i32()
            f.local_get(_ACC).emit(op.I32_XOR).local_set(_ACC)
        elif choice == 1:
            self.address()
            self.i32()
            f.emit(op.I32_STORE, draw(st.sampled_from((0, 8))))
        elif choice == 2:
            return self.branch(conditional=True)
        elif choice == 3:
            return self.branch(conditional=False)
        elif choice == 4:
            return self.table()
        elif choice == 5:
            f.local_get(_ACC).ret()
            return True
        elif choice == 6:
            result = draw(st.sampled_from((None, I32, F64)))
            f.block(result)
            self.construct(depth, result)
            self.consume(result)
        elif choice == 7:
            result = draw(st.sampled_from((None, I32)))
            f.loop(result)
            self.labels.append(None)
            self.fuel_check()
            self.body(depth + 1)
            self.value(result)
            self.labels.pop()
            f.end()
            self.consume(result)
        elif choice == 8:
            result = draw(st.sampled_from((None, I32, F64)))
            self.i32(1)
            f.if_(result)
            self.labels.append(result)
            self.body(depth + 1)
            self.value(result)
            if draw(st.booleans()):
                f.else_()
                self.body(depth + 1)
                self.value(result)
            elif result is not None:
                f.else_()
                self.value(result)
            self.labels.pop()
            f.end()
            self.consume(result)
        else:
            self.counted_loop(depth)
        return False

    def construct(self, depth: int, result) -> None:
        self.labels.append(result)
        self.body(depth + 1)
        self.value(result)
        self.labels.pop()
        self.f.end()

    def counted_loop(self, depth: int) -> None:
        """The canonical counted shape the o3 `for` form targets."""
        f, draw = self.f, self.draw
        induction = _INDUCTION + depth
        f.i32_const(draw(st.integers(0, 3))).local_set(induction)
        f.block()
        f.loop()
        f.local_get(induction).i32_const(draw(st.integers(0, 6)))
        f.emit(draw(st.sampled_from((op.I32_LT_S, op.I32_LE_U))))
        f.emit(op.I32_EQZ).br_if(1)
        self.labels += [None, None]
        self.fuel_check()
        self.body(depth + 2)
        self.labels[-2:] = []
        f.local_get(induction).i32_const(draw(st.integers(1, 2)))
        f.emit(op.I32_ADD).local_set(induction)
        f.br(0)
        f.end()
        f.end()

    def _label_type(self, depth: int):
        if depth == len(self.labels):
            return I32  # the function frame: a return
        return self.labels[-1 - depth]

    def branch(self, conditional: bool) -> bool:
        f = self.f
        depth = self.draw(st.integers(0, len(self.labels)))
        valtype = self._label_type(depth)
        self.value(valtype)
        if conditional:
            self.i32(1)
            f.br_if(depth)
            if valtype is not None:
                self.consume(valtype)
            return False
        f.br(depth)
        return True

    def table(self) -> bool:
        f, draw = self.f, self.draw
        valtype = self._label_type(draw(st.integers(0, len(self.labels))))
        same = [d for d in range(len(self.labels) + 1)
                if self._label_type(d) is valtype]
        depths = draw(st.lists(st.sampled_from(same), max_size=4))
        self.value(valtype)
        self.i32(1)
        f.emit(op.BR_TABLE, depths, draw(st.sampled_from(same)))
        return True


def _callee(builder: ModuleBuilder, draw) -> None:
    """g(n): a small loop that returns from inside itself — inlined at o3
    under a lying profile, its `return` becomes a branch out of a loop."""
    g = builder.add_function(builder.add_type([I32], [I32]))
    g.add_local(I32)
    g.block().loop()
    g.local_get(1).i32_const(1).emit(op.I32_ADD).local_set(1)
    g.local_get(1).local_get(0).i32_const(draw(st.sampled_from((3, 7))))
    g.emit(op.I32_AND).emit(op.I32_GE_U).if_()
    g.local_get(1).i32_const(draw(st.integers(1, 9))).emit(op.I32_MUL)
    g.ret()
    g.end()
    g.local_get(1).i32_const(9).emit(op.I32_GE_U).br_if(1)
    g.br(0)
    g.end().end()
    g.i32_const(-1)


@st.composite
def control_programs(draw):
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    _callee(builder, draw)
    f = builder.add_function(builder.add_type([I32], [I32]))
    for _ in range(2 + MAX_DEPTH):
        f.add_local(I32)  # fuel, acc, one induction per depth
    f.add_local(F64)  # scratch for f64 results
    f.i32_const(FUEL).local_set(_FUEL)
    gen = _Gen(draw, f)
    gen.body(0, count=draw(st.integers(1, 4)))
    f.local_get(_ACC)
    builder.export_function("f", f.index)
    return builder.build()


_ARGUMENTS = st.one_of(st.integers(0, 16), st.integers(65_500, 65_540),
                       st.just(-1))


def _profile(binary: bytes, argument: int, lie: bool) -> Profile:
    """An honestly collected profile of ``f(argument)``, or a lying one:
    every function and loop hot, every access site aligned."""
    collector = ProfileCollector()
    instance = AotCompiler(profile_collector=collector).instantiate(
        binary, code_cache=None)
    try:
        instance.invoke("f", argument)
    except TrapError:
        pass  # a partial profile is still a valid profile
    profile = collector.finish(CodeCache.module_key(binary), instance)
    if not lie:
        return profile
    module = decode_module(binary)
    loops = {f"f{index}:{at}": 1_000_000
             for index, func in enumerate(module.functions)
             for at, instr in enumerate(func.body)
             if instr.opcode == op.LOOP}
    return Profile(module_key=profile.module_key,
                   func_calls={0: 1000, 1: 1000}, loop_backedges=loops,
                   access_masks={k: 0 for k in profile.access_masks})


def _outcome(instance, argument):
    try:
        result = ("value", instance.invoke("f", argument))
    except TrapError as trap:
        result = (type(trap).__name__, str(trap))
    return result, bytes(instance.memory.data)


@settings(max_examples=300, deadline=None)
@given(binary=control_programs(), argument=_ARGUMENTS)
def test_every_tier_agrees_with_the_interpreter(binary, argument):
    expected = _outcome(Interpreter().instantiate(binary), argument)
    for level in (0, 1, 2):
        engine = AotCompiler(opt_level=level)
        assert _outcome(engine.instantiate(binary, code_cache=None),
                        argument) == expected, level
    for lie in (False, True):
        engine = AotCompiler(opt_level=3,
                             profile=_profile(binary, argument, lie))
        assert _outcome(engine.instantiate(binary, code_cache=None),
                        argument) == expected, ("o3", lie)
