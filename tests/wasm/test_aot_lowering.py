"""Pinned AOT codegen for the 30 PolyBench kernels.

Opt level 0 and the profile-collector build are the reference lowering:
every construct gets its capsule, ``_br`` dispatch and epilogue. Their
source is pinned by digest, so a change to the shared control emitter
cannot move them. The optimising tiers emit capsules only where a branch
needs one; these tests pin what that buys (no dispatch left in PolyBench,
no filler statements) and that o3 still builds every counted-loop ``for``.
"""

from __future__ import annotations

import ast
import hashlib

import pytest

from repro.walc import compile_source
from repro.wasm import AotCompiler, profile_module
from repro.wasm.pgo import ProfileCollector
from repro.workloads.polybench import all_kernels

#: kernel -> (o0 source digest, collector source digest, o3 `for` loops),
#: all at the kernel's default size. The digests are those of the
#: original capsule-everywhere lowering.
PINNED = {
    "2mm": ("09ad2bf0172710e5", "eda8e09876e2986c", 10),
    "3mm": ("e7d60916a4635a2a", "e86658822724fc39", 13),
    "adi": ("fcbd8ed0df97ba9f", "36dc8982ccc930cf", 9),
    "atax": ("f7c5ba09072aa7a3", "e4702a4e8c2bae29", 6),
    "bicg": ("48dc5f51baf180aa", "2b0cbbea5a689f70", 5),
    "cholesky": ("549681d3262b9362", "8c5078e51bb67499", 7),
    "correlation": ("aa65585f62021607", "633c022a64af6a98", 12),
    "covariance": ("6ebcfb69355dd4c8", "4183996634db8278", 11),
    "deriche": ("175a52464f0ad662", "baa585940c4eb608", 13),
    "doitgen": ("a3f0deef77a70219", "4efc45d213ea47b8", 13),
    "durbin": ("798699f110c1803f", "02f497eb7cf325d0", 3),
    "fdtd-2d": ("85491f94161eb6de", "2316a45586d07898", 13),
    "floyd-warshall": ("9c81e246cadd3129", "bf0ed8ef8e700b9a", 7),
    "gemm": ("f5946e98ec15329b", "3e878dcf09274af5", 7),
    "gemver": ("14a69e01e3bf0c6f", "6a726e51f34f5b60", 10),
    "gesummv": ("503cbf66ed9fc62d", "0802d6e1a3db93aa", 5),
    "gramschmidt": ("e4f8786f759b9678", "1953bf49149b68f3", 10),
    "heat-3d": ("7411567823a71161", "e4ea574b54cb63ca", 13),
    "jacobi-1d": ("a6ae972f2c6aa660", "7affe8b6764e30c2", 5),
    "jacobi-2d": ("1f6d02ed1817fb0b", "ea775adc52e0d342", 9),
    "lu": ("3f9709791fd69370", "5489bc25b4faccac", 9),
    "ludcmp": ("396bff8e11fa52e2", "7dd87e47d88ebc0b", 11),
    "mvt": ("fe1b3de3f4fc75fb", "3ba364b18045ff7a", 7),
    "nussinov": ("05cb9ff52b9089bb", "f6bfcf22fafb0793", 2),
    "seidel-2d": ("61ce4178fa914e96", "96fbb23ebe34efaa", 7),
    "symm": ("19d570c8c0543bc2", "7bb371d4828493cf", 6),
    "syr2k": ("7ba51efdf60b74f0", "dea93b800cfba1cc", 6),
    "syrk": ("ce5d6162fc73eeb8", "a492e0be197007fc", 6),
    "trisolv": ("b34e784c2d2a98e0", "2ef67dddb606435d", 3),
    "trmm": ("37d8853b2442d39c", "7bfa77764c2dac2c", 7),
}

#: Lines the capsule-everywhere lowering emitted at o2 for all 30 kernels.
REFERENCE_O2_LINES = 17777


def _sources(engine: AotCompiler, binary: bytes) -> list:
    instance = engine.instantiate(binary, code_cache=None)
    return [fn.__wasm_source__ for fn in instance.funcs
            if hasattr(fn, "__wasm_source__")]


def _digest(sources: list) -> str:
    return hashlib.sha256("\n".join(sources).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def kernels():
    """kernel name -> sources at o0, collector, o2 and o3."""
    out = {}
    for kernel in all_kernels():
        binary = compile_source(kernel.walc_source(kernel.default_size))
        profile = profile_module(binary, [("run", ())])
        out[kernel.name] = {
            "o0": _sources(AotCompiler(opt_level=0), binary),
            "collector": _sources(
                AotCompiler(profile_collector=ProfileCollector()), binary),
            "o2": _sources(AotCompiler(opt_level=2), binary),
            "o3": _sources(AotCompiler(opt_level=3, profile=profile),
                           binary),
        }
    return out


def test_every_kernel_is_pinned(kernels):
    assert sorted(kernels) == sorted(PINNED)


def test_reference_lowerings_are_byte_identical(kernels):
    for name, (o0, collector, _) in PINNED.items():
        assert _digest(kernels[name]["o0"]) == o0, name
        assert _digest(kernels[name]["collector"]) == collector, name


def test_o3_keeps_every_counted_for_loop(kernels):
    counts = {
        name: sum(isinstance(node, ast.For)
                  for source in sources["o3"]
                  for node in ast.walk(ast.parse(source)))
        for name, sources in kernels.items()}
    assert counts == {name: pin[2] for name, pin in PINNED.items()}
    assert sum(counts.values()) == 245


def test_polybench_needs_no_dispatch_above_o0(kernels):
    """Every PolyBench branch is a back edge to its own loop or the
    counted-loop guard's exit, so no `_br` dispatch survives at o2/o3."""
    for name, sources in kernels.items():
        for level in ("o2", "o3"):
            assert not any("_br" in source for source in sources[level]), \
                (name, level)
        assert all("_br = " in source for source in sources["o0"]
                   if "while True:" in source), name


def test_o2_emits_at_most_half_the_reference_lines(kernels):
    lines = sum(source.count("\n")
                for sources in kernels.values() for source in sources["o2"])
    assert lines <= REFERENCE_O2_LINES // 2


def _suites(tree):
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            suite = getattr(node, field, None)
            if isinstance(suite, list) and suite \
                    and isinstance(suite[0], ast.stmt):
                yield suite


def test_tidy_lowering_has_no_filler(kernels):
    """Above o0 a suite holds `pass` only when it is otherwise empty, and
    nothing follows a `continue`/`break`/`return` in the same suite."""
    transfers = (ast.Continue, ast.Break, ast.Return)
    for name, sources in kernels.items():
        for level in ("o2", "o3"):
            for source in sources[level]:
                for suite in _suites(ast.parse(source)):
                    if len(suite) > 1:
                        assert not any(isinstance(s, ast.Pass)
                                       for s in suite), (name, level)
                    for stmt in suite[:-1]:
                        assert not isinstance(stmt, transfers), (name, level)
