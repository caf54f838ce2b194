"""Ablation A1: AOT versus interpreted execution.

The paper's justification for extending OP-TEE with executable pages:
"The AOT execution speed is on average 28x faster than with
interpretation" (§III). This ablation runs a PolyBench subset four ways
— the interpreter, and the AOT engine at opt levels 0, 2 and 3 (the
last driven by a profile recorded on the same kernel) — so the
optimisation tiers' contributions show separately from
lowering-to-Python itself.

The report also carries a cold-load table (``code_cache=False``): what
one load of a kernel costs at o0, o2 and o3, split into decode,
validation, lowering and CPython ``compile()``, next to the size of the
generated source.
"""

from __future__ import annotations

import ast
import time

from repro.bench import format_table, geometric_mean, save_report
from repro.obs.tracer import Tracer
from repro.walc import compile_source
from repro.wasm import (AotCompiler, Interpreter, decode_module,
                        profile_module, validate_module)
from repro.workloads.polybench import get_kernel

_KERNELS = ["gemm", "atax", "jacobi-1d", "floyd-warshall", "durbin",
            "trisolv"]
_SCALE_DIVISOR = 3  # interpreter-friendly sizes


def _timed(instance):
    started = time.perf_counter()
    result = instance.invoke("run")
    return result, time.perf_counter() - started


#: Cold loads per kernel and level; each phase reports its fastest.
_COLD_REPEATS = 3


def _cold_load(binary, level, profile):
    """Phase times (ms) of one uncached load, plus the generated source."""
    started = time.perf_counter()
    module = decode_module(binary)
    decoded = time.perf_counter()
    validate_module(module)
    validated = time.perf_counter()
    tracer = Tracer()
    engine = AotCompiler(opt_level=level, tracer=tracer,
                         profile=profile if level == 3 else None)
    instance = engine.instantiate(module, code_cache=False)
    spans = {}
    for span in tracer.spans():
        spans[span.name] = spans.get(span.name, 0.0) + span.wall_s
    sources = [fn.__wasm_source__ for fn in instance.funcs
               if hasattr(fn, "__wasm_source__")]
    return ((decoded - started) * 1e3, (validated - decoded) * 1e3,
            (spans.get("aot.analyze", 0.0) + spans.get("aot.codegen", 0.0))
            * 1e3, spans.get("aot.pycompile", 0.0) * 1e3, sources)


def _cold_load_rows(binaries):
    """Per level: mean per kernel of each phase's fastest repeat."""
    rows = []
    for level in (0, 2, 3):
        phases = [0.0] * 4
        lines = nodes = 0
        for binary, profile in binaries:
            runs = [_cold_load(binary, level, profile)
                    for _ in range(_COLD_REPEATS)]
            for phase in range(4):
                phases[phase] += min(run[phase] for run in runs)
            for source in runs[0][4]:
                lines += source.count("\n")
                nodes += sum(1 for _ in ast.walk(ast.parse(source)))
        count = len(binaries)
        rows.append((f"o{level}",
                     *(f"{phase / count:.2f}" for phase in phases),
                     f"{sum(phases) / count:.2f}", lines, nodes))
    return rows


def _measure():
    results = []
    binaries = []
    for name in _KERNELS:
        kernel = get_kernel(name)
        size = max(6, kernel.default_size // _SCALE_DIVISOR)
        binary = compile_source(kernel.walc_source(size))
        profile = profile_module(binary, [("run", ())])
        binaries.append((binary, profile))
        aot_o0 = AotCompiler(opt_level=0).instantiate(binary)
        aot_o2 = AotCompiler(opt_level=2).instantiate(binary)
        aot_o3 = AotCompiler(opt_level=3,
                             profile=profile).instantiate(binary)
        interp = Interpreter().instantiate(binary)
        assert aot_o0.invoke("run") == aot_o2.invoke("run") \
            == aot_o3.invoke("run") == interp.invoke("run")

        _, o0_s = _timed(aot_o0)
        _, o2_s = _timed(aot_o2)
        _, o3_s = _timed(aot_o3)
        _, interp_s = _timed(interp)
        results.append((name, size, o0_s, o2_s, o3_s, interp_s))
    return results, _cold_load_rows(binaries)


def test_ablation_aot_vs_interpreter(benchmark):
    results, cold_rows = benchmark.pedantic(_measure, rounds=1,
                                            iterations=1)
    rows = []
    o0_factors, o2_factors, o3_factors = [], [], []
    for name, size, o0_s, o2_s, o3_s, interp_s in results:
        o0_factor = interp_s / o0_s
        o2_factor = interp_s / o2_s
        o3_factor = interp_s / o3_s
        o0_factors.append(o0_factor)
        o2_factors.append(o2_factor)
        o3_factors.append(o3_factor)
        rows.append((name, size, f"{interp_s * 1000:.1f} ms",
                     f"{o0_s * 1000:.1f} ms", f"{o2_s * 1000:.1f} ms",
                     f"{o3_s * 1000:.1f} ms",
                     f"{o0_factor:.1f}x", f"{o2_factor:.1f}x",
                     f"{o3_factor:.1f}x"))
    o0_overall = geometric_mean(o0_factors)
    o2_overall = geometric_mean(o2_factors)
    o3_overall = geometric_mean(o3_factors)
    rows.append(("geo-mean (paper: ~28x)", "-", "-", "-", "-", "-",
                 f"{o0_overall:.1f}x", f"{o2_overall:.1f}x",
                 f"{o3_overall:.1f}x"))
    save_report("ablation_aot", format_table(
        "A1 — interpreter vs AOT opt tiers (o3 profile-guided)",
        ["kernel", "size", "interpreter", "AOT o0", "AOT o2", "AOT o3",
         "o0 speed-up", "o2 speed-up", "o3 speed-up"], rows,
    ) + "\n\n" + format_table(
        f"Cold load (code_cache=False), ms per kernel, {len(_KERNELS)} "
        f"kernels, fastest of {_COLD_REPEATS}",
        ["level", "decode", "validate", "lowering", "compile()", "total",
         "source lines", "AST nodes"], cold_rows,
    ))
    # The paper's motivation must hold decisively: AOT is an order of
    # magnitude faster, justifying the executable-pages kernel extension.
    assert o0_overall > 10, o0_overall
    # And the optimisation tiers must not give any of it back.
    assert o2_overall >= o0_overall, (o0_overall, o2_overall)
    assert o3_overall >= o0_overall, (o0_overall, o3_overall)


def test_stock_optee_cannot_run_aot(testbed):
    """The other half of the ablation: without the paper's kernel
    extension, AOT loading is impossible — interpretation would be the
    only option."""
    import pytest

    from repro.errors import TeeAccessDenied
    from repro.workloads.polybench import get_kernel

    device = testbed.create_device(allow_executable_pages=False)
    session = device.open_watz(heap_size=8 * 1024 * 1024)
    kernel = get_kernel("gemm")
    binary = compile_source(kernel.walc_source(8))
    with pytest.raises(TeeAccessDenied):
        device.load_wasm(session, binary)
