"""The validator: sandbox guarantees via rejected modules."""

import pytest

from repro.errors import ValidationError
from repro.wasm import (AotCompiler, ModuleBuilder, decode_module,
                        validate_module)
from repro.wasm import opcodes as op
from repro.wasm.types import F64, I32


def _validate(builder: ModuleBuilder):
    validate_module(decode_module(builder.build()))


def _single(emit, params=(), results=(), locals=(), memory=None,
            table=False):
    builder = ModuleBuilder()
    if memory:
        builder.add_memory(*memory)
    if table:
        builder.add_table(1, 1)
    t = builder.add_type(params, results)
    f = builder.add_function(t)
    for valtype in locals:
        f.add_local(valtype)
    emit(f)
    return builder


def test_valid_module_passes():
    def emit(f):
        f.i32_const(1)
        f.i32_const(2)
        f.emit(op.I32_ADD)

    _validate(_single(emit, results=[I32]))


def test_stack_underflow_rejected():
    def emit(f):
        f.emit(op.I32_ADD)

    with pytest.raises(ValidationError, match="underflow"):
        _validate(_single(emit, results=[I32]))


def test_type_mismatch_rejected():
    def emit(f):
        f.i32_const(1)
        f.f64_const(1.0)
        f.emit(op.I32_ADD)

    with pytest.raises(ValidationError, match="expected"):
        _validate(_single(emit, results=[I32]))


def test_missing_result_rejected():
    def emit(f):
        pass

    with pytest.raises(ValidationError):
        _validate(_single(emit, results=[I32]))


def test_excess_values_rejected():
    def emit(f):
        f.i32_const(1)
        f.i32_const(2)

    with pytest.raises(ValidationError, match="left on stack"):
        _validate(_single(emit, results=[I32]))


def test_unknown_local_rejected():
    def emit(f):
        f.local_get(3)

    with pytest.raises(ValidationError, match="local"):
        _validate(_single(emit, results=[I32]))


def test_local_type_mismatch_rejected():
    def emit(f):
        f.local_get(0)
        f.emit(op.F64_NEG)

    with pytest.raises(ValidationError):
        _validate(_single(emit, params=[I32], results=[F64]))


def test_unknown_global_rejected():
    def emit(f):
        f.global_get(0)

    with pytest.raises(ValidationError, match="global"):
        _validate(_single(emit, results=[I32]))


def test_immutable_global_assignment_rejected():
    builder = ModuleBuilder()
    builder.add_global(I32, False, 1)
    t = builder.add_type([], [])
    f = builder.add_function(t)
    f.i32_const(2)
    f.global_set(0)
    with pytest.raises(ValidationError, match="immutable"):
        _validate(builder)


def test_branch_depth_out_of_range_rejected():
    def emit(f):
        f.block()
        f.br(5)
        f.end()

    with pytest.raises(ValidationError, match="depth"):
        _validate(_single(emit))


def test_branch_with_missing_value_rejected():
    def emit(f):
        f.block(I32)
        f.br(0)
        f.end()

    with pytest.raises(ValidationError):
        _validate(_single(emit, results=[I32]))


def test_if_condition_required():
    def emit(f):
        f.if_()
        f.end()

    with pytest.raises(ValidationError):
        _validate(_single(emit))


def test_if_with_result_requires_else():
    def emit(f):
        f.i32_const(1)
        f.if_(I32)
        f.i32_const(2)
        f.end()

    with pytest.raises(ValidationError, match="else"):
        _validate(_single(emit, results=[I32]))


def test_if_arm_type_mismatch_rejected():
    def emit(f):
        f.i32_const(1)
        f.if_(I32)
        f.i32_const(2)
        f.else_()
        f.f64_const(2.0)
        f.end()

    with pytest.raises(ValidationError):
        _validate(_single(emit, results=[I32]))


def test_memory_instruction_without_memory_rejected():
    def emit(f):
        f.i32_const(0)
        f.emit(op.I32_LOAD, 0)

    with pytest.raises(ValidationError, match="memory"):
        _validate(_single(emit, results=[I32]))


def test_call_unknown_function_rejected():
    def emit(f):
        f.call(9)

    with pytest.raises(ValidationError, match="unknown function"):
        _validate(_single(emit))


def test_call_argument_type_checked():
    builder = ModuleBuilder()
    t_f = builder.add_type([F64], [F64])
    callee = builder.add_function(t_f)
    callee.local_get(0)
    t_i = builder.add_type([], [I32])
    caller = builder.add_function(t_i)
    caller.i32_const(1)
    caller.call(callee.index)
    with pytest.raises(ValidationError):
        _validate(builder)


def test_call_indirect_requires_table():
    def emit(f):
        f.i32_const(0)
        f.emit(op.CALL_INDIRECT, 0)

    with pytest.raises(ValidationError, match="table"):
        _validate(_single(emit))


def test_br_table_label_types_must_agree():
    def emit(f):
        f.block(I32)        # result i32
        f.block()           # no result
        f.i32_const(0)
        f.emit(op.BR_TABLE, (0,), 1)
        f.end()
        f.i32_const(1)
        f.end()

    with pytest.raises(ValidationError, match="br_table"):
        _validate(_single(emit, results=[I32]))


def test_unreachable_makes_stack_polymorphic():
    def emit(f):
        f.emit(op.UNREACHABLE)
        f.emit(op.I32_ADD)  # allowed after unreachable

    _validate(_single(emit, results=[I32]))


def test_code_after_return_is_polymorphic():
    def emit(f):
        f.i32_const(1)
        f.ret()
        f.emit(op.DROP)

    _validate(_single(emit, results=[I32]))


def test_select_operand_types_must_match():
    def emit(f):
        f.i32_const(1)
        f.f64_const(1.0)
        f.i32_const(0)
        f.emit(op.SELECT)

    with pytest.raises(ValidationError):
        _validate(_single(emit, results=[I32]))


def test_start_function_signature_checked():
    builder = ModuleBuilder()
    t = builder.add_type([I32], [])
    f = builder.add_function(t)
    f.local_get(0)
    f.emit(op.DROP)
    builder.set_start(f.index)
    with pytest.raises(ValidationError, match="start"):
        _validate(builder)


def test_export_index_out_of_range_rejected():
    builder = ModuleBuilder()
    t = builder.add_type([], [])
    builder.add_function(t)
    builder.export_function("ghost", 7)
    with pytest.raises(ValidationError, match="out of range"):
        _validate(builder)


def test_element_function_index_checked():
    builder = ModuleBuilder()
    builder.add_table(2, 2)
    t = builder.add_type([], [])
    builder.add_function(t)
    builder.add_element(0, [5])
    with pytest.raises(ValidationError, match="element"):
        _validate(builder)


def test_instantiating_a_decoded_invalid_module_still_validates():
    """Instantiation skips validation only for a module that passed it."""
    def emit(f):
        f.emit(op.I32_ADD)

    module = decode_module(_single(emit, results=[I32]).build())
    assert not module.validated
    with pytest.raises(ValidationError, match="underflow"):
        AotCompiler().instantiate(module)
    with pytest.raises(ValidationError, match="underflow"):
        AotCompiler().instantiate(module, code_cache=None)


def test_validation_marks_the_module():
    def emit(f):
        f.i32_const(1)

    module = decode_module(_single(emit, results=[I32]).build())
    validate_module(module)
    assert module.validated
    instance = AotCompiler().instantiate(module, code_cache=None)
    assert instance.funcs[0]() == 1
