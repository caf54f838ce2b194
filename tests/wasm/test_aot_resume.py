"""A versioned loop whose preflight fails resumes the call in the interpreter.

From opt level 2 a versioned loop is lowered once, behind a preflight that
proves every access of its whole iteration space in bounds. When the
preflight fails, the compiled code hands its locals, operand stack and the
label stack of the open constructs to the interpreter, which finishes the
call from the loop. These loops fail the preflight because their counted
range would leave memory, yet exit early; the rest of the call runs in the
interpreter and must leave the result, memory, trap and call depth of
every other engine.
"""

from __future__ import annotations

import pytest

from repro.errors import TrapError
from repro.walc import compile_source
from repro.wasm import AotCompiler, Interpreter, ModuleBuilder, profile_module
from repro.wasm import opcodes as op
from repro.wasm.types import I32
from repro.workloads.polybench import all_kernels

#: One page; a store at ``BASE + 4 * i`` leaves it from ``i = 20``.
BASE = 65536 - 4 * 20


def _emit_early_exit_fill(f, base: int, exit_at: int, i: int,
                          acc: int) -> None:
    """``for (i = 0; i < 20000; i++) { if (i == exit_at) break;
    mem32[base + 4i] = i; acc += i }`` with ``base``/``exit_at`` locals.
    The counted range needs 80 kB, so the preflight always fails."""
    f.i32_const(0).local_set(i)
    f.block()
    f.loop()
    f.local_get(i).i32_const(20_000).emit(op.I32_LT_U)
    f.emit(op.I32_EQZ).br_if(1)
    f.local_get(i).local_get(exit_at).emit(op.I32_EQ).br_if(1)
    f.local_get(base).local_get(i).i32_const(4).emit(op.I32_MUL)
    f.emit(op.I32_ADD)
    f.local_get(i).emit(op.I32_STORE, 0)
    f.local_get(acc).local_get(i).emit(op.I32_ADD).local_set(acc)
    f.local_get(i).i32_const(1).emit(op.I32_ADD).local_set(i)
    f.br(0)
    f.end()
    f.end()


def _early_exit_loop() -> bytes:
    """f(base, exit_at) -> the early-exit fill's sum."""
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    f = builder.add_function(builder.add_type([I32, I32], [I32]))
    f.add_local(I32)
    f.add_local(I32)
    _emit_early_exit_fill(f, 0, 1, 2, 3)
    f.local_get(3)
    builder.export_function("f", f.index)
    return builder.build()


def _nested_frames() -> bytes:
    """f(base, exit_at, sel): the fill inside a two-trip countdown loop,
    a block, the `else` arm of an `if (result i32)` and a
    `block (result i32)`, with values on the operand stack below each.
    The `else` arm leaves by a `br` carrying its value out of the block,
    and the function by a `br` to its own label.

        100 + (sel ? 1 : (5 + [j = 2; do { fill } while (--j)] 0)) + acc
    """
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    f = builder.add_function(builder.add_type([I32, I32, I32], [I32]))
    i, j, acc = f.add_local(I32), f.add_local(I32), f.add_local(I32)
    f.i32_const(100)
    f.block(I32)
    f.local_get(2)
    f.if_(I32)
    f.i32_const(1)
    f.else_()
    f.i32_const(5)
    f.i32_const(2).local_set(j)
    f.block()
    f.loop()
    _emit_early_exit_fill(f, 0, 1, i, acc)
    f.local_get(j).i32_const(1).emit(op.I32_SUB).local_tee(j).br_if(0)
    f.end()
    f.end()
    f.br(1)
    f.end()
    f.end()
    f.emit(op.I32_ADD)
    f.local_get(acc).emit(op.I32_ADD)
    f.br(0)
    builder.export_function("f", f.index)
    return builder.build()


def _inlined_callee() -> bytes:
    """run(base, exit_at): ``7 + sum of four fill(base, exit_at)`` calls
    from a countdown loop, with the running total on the operand stack
    under each call. ``fill`` is small and called often enough that the
    profile-guided tier splices it into ``run``."""
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    pair = builder.add_type([I32, I32], [I32])
    fill = builder.add_function(pair)
    fill.add_local(I32)
    fill.add_local(I32)
    _emit_early_exit_fill(fill, 0, 1, 2, 3)
    fill.local_get(3)
    run = builder.add_function(pair)
    k, total = run.add_local(I32), run.add_local(I32)
    run.i32_const(7)
    run.block(I32)
    run.i32_const(4).local_set(k)
    run.loop()
    run.local_get(total)
    run.local_get(0).local_get(1).call(fill.index)
    run.emit(op.I32_ADD).local_set(total)
    run.local_get(k).i32_const(1).emit(op.I32_SUB).local_tee(k).br_if(0)
    run.end()
    run.local_get(total)
    run.end()
    run.emit(op.I32_ADD)
    builder.export_function("run", run.index)
    return builder.build()


def _engines(binary: bytes, export: str, profile_args: tuple) -> list:
    profile = profile_module(binary, [(export, profile_args)])
    return [Interpreter(), AotCompiler(opt_level=0), AotCompiler(opt_level=2),
            AotCompiler(opt_level=3, profile=profile)]


def _outcomes(engines: list, binary: bytes, export: str, args: tuple) -> list:
    """(result or trap message, final memory, call depth) per engine."""
    outcomes = []
    for engine in engines:
        instance = engine.instantiate(binary, code_cache=None)
        try:
            result = instance.invoke(export, *args)
        except TrapError as exc:
            result = f"trap: {exc}"
        outcomes.append((result, bytes(instance.memory.data),
                         instance.call_depth))
    return outcomes


def test_early_exit_loop_resumes_and_matches_every_engine():
    binary = _early_exit_loop()
    engines = _engines(binary, "f", (BASE, 10))
    outcomes = _outcomes(engines, binary, "f", (BASE, 10))
    assert outcomes[0][0] == sum(range(10))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    for engine in engines[2:]:
        assert engine.resumes == {(0, 3): 1}


@pytest.mark.parametrize("exit_at", [10, 30])
def test_resume_rebuilds_nested_labels_and_operand_stack(exit_at):
    """Exit at 10 finishes both countdown trips in the interpreter; exit at
    30 traps at ``i = 20`` inside it."""
    binary = _nested_frames()
    engines = _engines(binary, "f", (0, 10, 0))
    outcomes = _outcomes(engines, binary, "f", (BASE, exit_at, 0))
    if exit_at == 10:
        assert outcomes[0][0] == 100 + 5 + 2 * sum(range(10))
    else:
        assert outcomes[0][0] == "trap: out-of-bounds memory access"
    assert all(outcome == outcomes[0] for outcome in outcomes)
    for engine in engines[2:]:
        assert list(engine.resumes.values()) == [1]
    # The `then` arm never reaches the loop.
    for engine in engines[2:]:
        instance = engine.instantiate(binary, code_cache=None)
        assert instance.invoke("f", BASE, 10, 1) == 101
        assert list(engine.resumes.values()) == [1]


@pytest.mark.parametrize("exit_at", [10, 30])
def test_resume_inside_an_inlined_callee(exit_at):
    """At o3 the loop sits in ``fill``'s splice in ``run``: the interpreter
    leaves that splice and enters the next three with the call-depth
    accounting of the real calls."""
    binary = _inlined_callee()
    engines = _engines(binary, "run", (0, 5))
    o3 = engines[3]
    instance = o3.instantiate(binary, code_cache=None)
    run_source = instance.funcs[1].__wasm_source__
    assert run_source.count("_inst.enter_call()") == 2  # run, fill splice
    assert "return _resume(1, " in run_source
    outcomes = _outcomes(engines, binary, "run", (BASE, exit_at))
    if exit_at == 10:
        assert outcomes[0][0] == 7 + 4 * sum(range(10))
    else:
        assert outcomes[0][0] == "trap: out-of-bounds memory access"
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert [key[0] for key in o3.resumes] == [1]
    assert list(o3.resumes.values()) == [1]


def test_polybench_never_resumes():
    """Every PolyBench loop that is versioned passes its preflight."""
    for kernel in all_kernels():
        binary = compile_source(kernel.walc_source(kernel.default_size))
        profile = profile_module(binary, [("run", ())])
        expected = kernel.native(kernel.default_size)
        for engine in (AotCompiler(opt_level=2),
                       AotCompiler(opt_level=3, profile=profile)):
            instance = engine.instantiate(binary, code_cache=None)
            assert instance.invoke("run") == expected, kernel.name
            assert engine.resumes == {}, kernel.name
