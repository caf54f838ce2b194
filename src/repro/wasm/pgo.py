"""Profile-guided optimisation support for the AOT tier (``opt_level=3``).

This module owns everything the ``aot@o3`` tier needs that is not raw
codegen:

* :class:`Profile` — the on-disk/in-trace profile format (format tag
  ``watz-pgo/1``): per-function call counts, per-loop back-edge counts,
  per-site memory alignment masks, observed-constant globals and a
  memory-grow count, all keyed so they survive the inlining transform.
  ``profile_hash`` is a stable content hash over the canonical JSON
  encoding; the AOT engine splices it into ``cache_identity`` so two
  different profiles can never share codecache artifacts.
* :class:`ProfileCollector` — the mutable counters an instrumented
  (profiling) AOT build increments at runtime.
* :func:`profile_module` — one-call helper: run a workload under the
  instrumented engine and return the finished profile, optionally
  publishing it onto a :class:`repro.obs.Tracer` as a ``wasm.profile``
  instant span (the trace is then the transport: see
  ``repro.obs.profile.profiles_from_spans``).
* The module-plan transforms: budgeted recursion-safe inlining of hot
  small callees (:func:`build_plan` / :func:`inline_into`) and
  superinstruction fusion for cold interpreter-dispatched functions
  (:func:`fuse_body`), plus :func:`make_cold_entry`, the interpreter
  closure the AOT engine links for cold functions.

Synthetic opcodes produced here (``INLINE_ENTER``/``INLINE_EXIT`` and the
``FUSED_*`` superinstructions) live above 0x100 in
:mod:`repro.wasm.opcodes`, so a decoded module can never contain them.
All transforms copy instructions — decoded modules are shared through the
codecache and must never be mutated.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WasmError
from repro.wasm import opcodes as op
from repro.wasm.module import Function, Instr, Module
from repro.wasm.types import BlockType, F32, F64, I32, I64, ValType

#: Profile format tag; bump on incompatible layout changes.
FORMAT = "watz-pgo/1"

#: A callee is an inline candidate once the profile saw this many calls.
INLINE_MIN_CALLS = 4
#: ...and its body is at most this many decoded instructions.
INLINE_MAX_BODY = 48
#: Instruction-growth budget per caller (over its original body size).
INLINE_GROWTH_BUDGET = 384
#: A loop is "hot" once the profile saw this many back-edges.
HOT_LOOP_MIN = 32


class ProfileError(WasmError):
    """A profile payload is malformed, truncated or the wrong format."""


class ProfileWarning(UserWarning):
    """A profile could not be applied; the engine degrades to ``o2``."""


def _site(func_index: int, instr_index: int) -> str:
    """Stable key for an instruction site: ``f<func>:<body-index>``.

    Keys name sites in the *decoded* body, so a profile recorded by the
    instrumented (untransformed) build still addresses loops and memory
    accesses after inlining: spliced callee instructions carry their
    original ``f<callee>:<i>`` keys through the plan's ``sites`` map.
    """
    return f"f{func_index}:{instr_index}"


@dataclass
class Profile:
    """An execution profile of one module, content-addressable.

    ``module_key`` is the sha256 of the module binary the profile was
    recorded on (empty string when unknown, e.g. hand-built test
    profiles).  ``access_masks`` maps an access site to the OR of every
    observed ``address & (width - 1)``; a mask of 0 therefore means the
    site was *always* naturally aligned.
    """

    module_key: str = ""
    func_calls: Dict[int, int] = field(default_factory=dict)
    loop_backedges: Dict[str, int] = field(default_factory=dict)
    access_masks: Dict[str, int] = field(default_factory=dict)
    const_globals: Dict[int, float] = field(default_factory=dict)
    mem_grows: int = 0

    @property
    def is_empty(self) -> bool:
        return not (self.func_calls or self.loop_backedges
                    or self.access_masks or self.const_globals)

    def to_json(self) -> dict:
        return {
            "format": FORMAT,
            "module_key": self.module_key,
            "func_calls": {str(k): v for k, v in self.func_calls.items()},
            "loop_backedges": dict(self.loop_backedges),
            "access_masks": dict(self.access_masks),
            "const_globals": {str(k): v for k, v in self.const_globals.items()},
            "mem_grows": self.mem_grows,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def profile_hash(self) -> str:
        """Stable content hash: equal profiles hash equal, always."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_json(cls, payload: object) -> "Profile":
        if not isinstance(payload, dict):
            raise ProfileError(f"profile payload must be an object, "
                               f"got {type(payload).__name__}")
        if payload.get("format") != FORMAT:
            raise ProfileError(
                f"unsupported profile format {payload.get('format')!r} "
                f"(expected {FORMAT!r})")
        try:
            func_calls = {int(k): int(v)
                          for k, v in payload.get("func_calls", {}).items()}
            loop_backedges = {str(k): int(v)
                              for k, v in payload.get("loop_backedges",
                                                      {}).items()}
            access_masks = {str(k): int(v)
                            for k, v in payload.get("access_masks",
                                                    {}).items()}
            const_globals = {}
            for k, v in payload.get("const_globals", {}).items():
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ProfileError(
                        f"const_globals[{k}] must be numeric, got {v!r}")
                const_globals[int(k)] = v
            mem_grows = int(payload.get("mem_grows", 0))
            module_key = str(payload.get("module_key", ""))
        except ProfileError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise ProfileError(f"malformed profile payload: {exc}") from exc
        if any(v < 0 for v in func_calls.values()) \
                or any(v < 0 for v in loop_backedges.values()) \
                or any(v < 0 for v in access_masks.values()):
            raise ProfileError("profile counters must be non-negative")
        return cls(module_key=module_key, func_calls=func_calls,
                   loop_backedges=loop_backedges, access_masks=access_masks,
                   const_globals=const_globals, mem_grows=mem_grows)

    @classmethod
    def coerce(cls, value: object) -> "Profile":
        """Accept a Profile, a JSON dict or a JSON string/bytes."""
        if isinstance(value, Profile):
            return value
        if isinstance(value, (str, bytes, bytearray)):
            try:
                value = json.loads(value)
            except (ValueError, UnicodeDecodeError) as exc:
                raise ProfileError(
                    f"profile is not valid JSON: {exc}") from exc
        if isinstance(value, dict):
            return cls.from_json(value)
        raise ProfileError(
            f"cannot coerce {type(value).__name__} into a Profile")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.canonical_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Profile":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.coerce(fh.read())
        except OSError as exc:
            raise ProfileError(f"cannot read profile {path}: {exc}") from exc


def merge_profiles(profiles: Sequence[Profile]) -> Profile:
    """Merge profiles of the *same* module: counts add, masks OR,
    const-globals survive only where every profile agrees."""
    profiles = list(profiles)
    if not profiles:
        raise ProfileError("cannot merge zero profiles")
    keys = {p.module_key for p in profiles}
    if len(keys) > 1:
        raise ProfileError(
            f"cannot merge profiles of different modules: {sorted(keys)}")
    merged = Profile(module_key=profiles[0].module_key)
    for profile in profiles:
        for k, v in profile.func_calls.items():
            merged.func_calls[k] = merged.func_calls.get(k, 0) + v
        for k, v in profile.loop_backedges.items():
            merged.loop_backedges[k] = merged.loop_backedges.get(k, 0) + v
        for k, v in profile.access_masks.items():
            merged.access_masks[k] = merged.access_masks.get(k, 0) | v
        merged.mem_grows += profile.mem_grows
    first = profiles[0].const_globals
    for index, value in first.items():
        if all(p.const_globals.get(index) == value for p in profiles[1:]):
            merged.const_globals[index] = value
    return merged


class ProfileCollector:
    """Mutable counters the instrumented AOT build increments.

    The instrumented build injects ``_pf``/``_pl``/``_pa``/``_pg``/``_pn``
    into the generated namespace; they alias the attributes below.
    """

    def __init__(self) -> None:
        self.func_calls = defaultdict(int)
        self.loop_backedges = defaultdict(int)
        self.access_masks = defaultdict(int)
        self.global_sets = defaultdict(int)
        self.mem_grows = [0]

    def finish(self, module_key: str = "", instance=None) -> Profile:
        """Freeze the counters into a :class:`Profile`.

        A mutable global that was never written during the profiled runs
        (and is not NaN, which cannot be guarded with ``==``) is recorded
        as observed-constant at its final value.
        """
        const_globals: Dict[int, float] = {}
        if instance is not None:
            for index, glob in enumerate(instance.globals):
                if self.global_sets.get(index, 0):
                    continue
                value = glob.value
                if isinstance(value, float) and math.isnan(value):
                    continue
                const_globals[index] = value
        return Profile(
            module_key=module_key,
            func_calls=dict(self.func_calls),
            loop_backedges=dict(self.loop_backedges),
            access_masks=dict(self.access_masks),
            const_globals=const_globals,
            mem_grows=self.mem_grows[0],
        )


def profile_module(binary: bytes, runs: Sequence[Tuple[str, Sequence]],
                   imports=None, tracer=None) -> Profile:
    """Run ``runs`` (``(export_name, args)`` pairs) under the
    instrumented AOT build and return the resulting profile.

    When ``tracer`` is given the finished profile is also published as a
    ``wasm.profile`` instant span — this is the trace-fed path: a later
    session can recover the profile from the span stream with
    :func:`repro.obs.profile.profiles_from_spans`.
    """
    from repro.wasm.aot import AotCompiler  # local import: aot imports pgo

    binary = bytes(binary)
    collector = ProfileCollector()
    engine = AotCompiler(profile_collector=collector)
    instance = engine.instantiate(binary, imports, code_cache=None)
    for name, args in runs:
        instance.invoke(name, *args)
    profile = collector.finish(hashlib.sha256(binary).hexdigest(), instance)
    if tracer is not None:
        tracer.instant("wasm.profile", module_key=profile.module_key,
                       profile=profile.canonical_json())
    return profile


# ---------------------------------------------------------------------------
# Module plan: inlining + cold-function fusion, computed once per
# (module, profile) pair and cached on the module object.
# ---------------------------------------------------------------------------

@dataclass
class FunctionPlan:
    """Per-function outcome of the planning pass."""

    func: Function
    #: Per-instruction site keys (see :func:`_site`); ``None`` entries are
    #: synthetic instructions introduced by inlining. None when nothing
    #: was inlined: the body's own ``f<index>:<i>`` keys apply.
    sites: Optional[List[Optional[str]]]
    #: Observed-constant globals this function's body may specialise on.
    spec_globals: Dict[int, float]
    inlined: int = 0


@dataclass
class ModulePlan:
    """The profile-driven compilation plan for one module."""

    profile_hash: str
    #: Function indices compiled cold (interpreter + superinstructions).
    cold: frozenset
    #: func_index -> fused body for cold functions.
    fused: Dict[int, List[Instr]]
    #: func_index -> FunctionPlan for hot (AOT-compiled) functions.
    hot: Dict[int, FunctionPlan]


def resolve_targets(body: List[Instr]) -> None:
    """Re-resolve ``target``/``else_target`` links after a transform.

    Mirrors the decoder's fix-up: each structured opener records the index
    of its matching ``end``; an ``if``'s ``else_target`` records the
    ``else``.  The function-closing ``end`` (empty opener stack) is left
    untouched.
    """
    stack: List[int] = []
    for index, instr in enumerate(body):
        code = instr.opcode
        if code in (op.BLOCK, op.LOOP, op.IF):
            stack.append(index)
        elif code == op.ELSE:
            opener = body[stack[-1]]
            if opener.opcode != op.IF or opener.else_target != -1:
                raise WasmError("misplaced else in transformed body")
            opener.else_target = index
        elif code == op.END:
            if stack:
                body[stack.pop()].target = index
    if stack:
        raise WasmError("unbalanced blocks in transformed body")


def _copy_instr(instr: Instr) -> Instr:
    return Instr(instr.opcode, instr.arg)


_CONST_FOR_TYPE = {
    I32: (op.I32_CONST, 0),
    I64: (op.I64_CONST, 0),
    F32: (op.F32_CONST, 0.0),
    F64: (op.F64_CONST, 0.0),
}

_LOCAL_OPS = (op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE)


def _body_depth_ok(body: List[Instr]) -> bool:
    """Reject candidate bodies whose RETURN sits under unbalanced
    constructs we cannot see (defensive; decoded bodies are balanced)."""
    depth = 0
    for instr in body:
        if instr.opcode in (op.BLOCK, op.LOOP, op.IF):
            depth += 1
        elif instr.opcode == op.END:
            depth -= 1
    return depth == -1  # the function-closing end


def _splice_callee(out_body: List[Instr], out_sites: List[Optional[str]],
                   module: Module, callee_index: int, callee: Function,
                   local_base: int) -> None:
    """Append the inline expansion of ``callee`` to ``out_body``.

    Layout: ``INLINE_ENTER``; parameter ``local.set``s (reverse order, so
    they pop call arguments right-to-left); typed zero-inits for callee
    locals (per entry — a spliced body re-runs on every loop iteration);
    a wrapper ``block`` with the callee's result type standing in for the
    callee's function frame (so internal branch depths need no rewrite
    and ``return`` becomes a ``br`` to it); the remapped callee body;
    ``end``; ``INLINE_EXIT``.
    """
    func_type = module.types[callee.type_index]
    nparams = len(func_type.params)

    out_body.append(Instr(op.INLINE_ENTER, callee_index))
    out_sites.append(None)
    for param in range(nparams - 1, -1, -1):
        out_body.append(Instr(op.LOCAL_SET, local_base + param))
        out_sites.append(None)
    for offset, valtype in enumerate(callee.locals):
        const_op, zero = _CONST_FOR_TYPE[valtype]
        out_body.append(Instr(const_op, zero))
        out_sites.append(None)
        out_body.append(Instr(op.LOCAL_SET, local_base + nparams + offset))
        out_sites.append(None)
    out_body.append(Instr(op.BLOCK, BlockType(tuple(func_type.results))))
    out_sites.append(None)

    # Remap the callee body.  Branch depths are unchanged: the wrapper
    # block sits exactly where the callee's function frame did.
    depth = 0
    body = callee.body
    for index, instr in enumerate(body):
        code = instr.opcode
        if code == op.END and depth == 0:
            break  # the callee's closing end — replaced by the wrapper's
        if code in (op.BLOCK, op.LOOP, op.IF):
            depth += 1
        elif code == op.END:
            depth -= 1
        if code == op.RETURN:
            out_body.append(Instr(op.BR, depth))
        elif code in _LOCAL_OPS:
            out_body.append(Instr(code, instr.arg + local_base))
        else:
            out_body.append(_copy_instr(instr))
        out_sites.append(_site(callee_index, index))

    out_body.append(Instr(op.END))
    out_sites.append(None)
    out_body.append(Instr(op.INLINE_EXIT, callee_index))
    out_sites.append(None)


def _splice_size(module: Module, callee: Function) -> int:
    func_type = module.types[callee.type_index]
    return len(callee.body) + len(func_type.params) \
        + 2 * len(callee.locals) + 3


def inline_into(module: Module, func: Function, func_index: int,
                candidates: Dict[int, Function]
                ) -> Tuple[Function, Optional[List[Optional[str]]]]:
    """Inline every budget-permitted call to a candidate into ``func``.

    Returns a *new* Function (the input is shared via the codecache and
    never mutated) plus the parallel site-key list, or ``func`` itself and
    None (its own ``f<index>:<i>`` keys) when nothing was inlined.  Inlining is single
    level: spliced bodies are the callees' originals, so a ``call``
    inside one stays a real call — recursion (direct or mutual) can
    therefore never unroll unboundedly, and self-calls are excluded from
    ``candidates`` outright.
    """
    if not any(instr.opcode == op.CALL and instr.arg in candidates
               and instr.arg != func_index for instr in func.body):
        return func, None
    out_body: List[Instr] = []
    out_sites: List[Optional[str]] = []
    locals_out = list(func.locals)
    nlocals = len(module.types[func.type_index].params) + len(func.locals)
    budget = INLINE_GROWTH_BUDGET
    inlined = 0

    for index, instr in enumerate(func.body):
        callee_index = instr.arg if instr.opcode == op.CALL else None
        callee = candidates.get(callee_index) if callee_index is not None \
            else None
        if callee is not None and callee_index != func_index:
            cost = _splice_size(module, callee)
            if cost <= budget:
                budget -= cost
                callee_type = module.types[callee.type_index]
                local_base = nlocals
                locals_out.extend(callee_type.params)
                locals_out.extend(callee.locals)
                nlocals += len(callee_type.params) + len(callee.locals)
                _splice_callee(out_body, out_sites, module, callee_index,
                               callee, local_base)
                inlined += 1
                continue
        out_body.append(_copy_instr(instr))
        out_sites.append(_site(func_index, index))

    if not inlined:
        return func, None
    resolve_targets(out_body)
    new_func = Function(type_index=func.type_index, locals=locals_out,
                        body=out_body, body_size=func.body_size,
                        name=func.name)
    return new_func, out_sites


# ---------------------------------------------------------------------------
# Superinstruction fusion for cold interpreter-dispatched code.
# ---------------------------------------------------------------------------

_CONST_OPS = (op.I32_CONST, op.I64_CONST, op.F32_CONST, op.F64_CONST)


def _fuse_pair(a: Instr, b: Instr) -> Optional[Instr]:
    if a.opcode == op.LOCAL_GET:
        if b.opcode == op.LOCAL_GET:
            return Instr(op.FUSED_GET_GET, (a.arg, b.arg))
        if b.opcode in _CONST_OPS:
            return Instr(op.FUSED_GET_CONST, (a.arg, b.arg))
        if b.opcode == op.LOCAL_SET:
            return Instr(op.FUSED_GET_SET, (a.arg, b.arg))
    elif a.opcode in _CONST_OPS and b.opcode == op.LOCAL_SET:
        return Instr(op.FUSED_CONST_SET, (a.arg, b.arg))
    return None


def fuse_body(body: List[Instr]) -> List[Instr]:
    """Fuse adjacent instruction pairs into superinstructions.

    Only positions no branch can land on may become the *second* half of
    a pair: label continuations (``target + 1``, ``else_target + 1``,
    loop headers at ``i + 1``) are excluded.  Structured targets are
    re-indexed through the old→new position map; ``br``/``br_table``
    immediates are relative depths and survive unchanged.
    """
    forbidden = set()
    for index, instr in enumerate(body):
        if instr.opcode in (op.BLOCK, op.IF, op.LOOP):
            forbidden.add(instr.target + 1)
            if instr.else_target != -1:
                forbidden.add(instr.else_target + 1)
            if instr.opcode == op.LOOP:
                forbidden.add(index + 1)

    fused: List[Instr] = []
    new_index = [0] * (len(body) + 1)
    i = 0
    while i < len(body):
        new_index[i] = len(fused)
        if i + 1 < len(body) and (i + 1) not in forbidden:
            pair = _fuse_pair(body[i], body[i + 1])
            if pair is not None:
                new_index[i + 1] = len(fused)
                fused.append(pair)
                i += 2
                continue
        instr = body[i]
        fused.append(Instr(instr.opcode, instr.arg, instr.target,
                           instr.else_target))
        i += 1
    new_index[len(body)] = len(fused)

    for instr in fused:
        if instr.opcode in (op.BLOCK, op.LOOP, op.IF):
            instr.target = new_index[instr.target]
            if instr.else_target != -1:
                instr.else_target = new_index[instr.else_target]
    return fused


def make_cold_entry(module: Module, instance, func_index: int,
                    fused_body: List[Instr]):
    """Interpreter closure for a cold function, mirroring
    :meth:`Interpreter.compile_function` exactly (argument-count trap,
    coercion, zeroed locals, call-depth accounting) but running the fused
    body."""
    from repro.wasm.interpreter import _coerce, _run
    from repro.errors import TrapError

    func = module.functions[func_index - len(module.imported_funcs)]
    func_type = module.types[func.type_index]
    param_types = func_type.params
    local_types = func.locals
    result_arity = len(func_type.results)

    def invoke(*args):
        if len(args) != len(param_types):
            raise TrapError(f"expected {len(param_types)} arguments, "
                            f"got {len(args)}")
        locals_list = [_coerce(value, valtype)
                       for value, valtype in zip(args, param_types)]
        locals_list.extend(valtype.zero() for valtype in local_types)
        instance.enter_call()
        try:
            stack = _run(module, instance, fused_body, locals_list,
                         result_arity)
        finally:
            instance.exit_call()
        if result_arity == 0:
            return None
        return stack[-1]

    invoke.cold = True
    return invoke


# ---------------------------------------------------------------------------
# Plan construction.
# ---------------------------------------------------------------------------

def _global_spec_candidates(module: Module, body: List[Instr],
                            profile: Profile) -> Dict[int, float]:
    """Observed-constant globals this body may specialise on.

    Eligibility is per-function and conservative: the body must read the
    global, never write it, and contain no calls (a callee could write
    it mid-body, invalidating the entry guard).  Inline-spliced regions
    are fine — their instructions are fully visible to the same scan.
    NaN values cannot be equality-guarded and were already dropped at
    collection; type mismatches (a stale profile) are dropped here.
    """
    if not profile.const_globals:
        return {}
    reads = set()
    for instr in body:
        code = instr.opcode
        if code in (op.CALL, op.CALL_INDIRECT):
            return {}
        if code == op.GLOBAL_SET and instr.arg in profile.const_globals:
            return {}
        if code == op.GLOBAL_GET:
            reads.add(instr.arg)
    spec: Dict[int, float] = {}
    for index in sorted(reads):
        if index not in profile.const_globals or index >= len(module.globals):
            continue
        value = profile.const_globals[index]
        is_float = module.globals[index].type.valtype in (F32, F64)
        if is_float != isinstance(value, float):
            continue
        spec[index] = value
        if len(spec) >= 4:
            break
    return spec


def build_plan(module: Module, profile: Profile) -> ModulePlan:
    """Compute the o3 compilation plan for ``module`` under ``profile``."""
    imported = len(module.imported_funcs)
    cold = set()
    fused: Dict[int, List[Instr]] = {}
    hot: Dict[int, FunctionPlan] = {}

    candidates: Dict[int, Function] = {}
    for local_index, func in enumerate(module.functions):
        func_index = imported + local_index
        if profile.func_calls.get(func_index, 0) < INLINE_MIN_CALLS:
            continue
        if len(func.body) > INLINE_MAX_BODY:
            continue
        if not _body_depth_ok(func.body):
            continue
        candidates[func_index] = func

    for local_index, func in enumerate(module.functions):
        func_index = imported + local_index
        if profile.func_calls.get(func_index, 0) == 0 \
                and module.start != func_index:
            cold.add(func_index)
            fused[func_index] = fuse_body(func.body)
            continue
        planned_func, sites = inline_into(module, func, func_index,
                                          candidates)
        inlined = 1 if planned_func is not func else 0
        spec = _global_spec_candidates(module, planned_func.body, profile)
        hot[func_index] = FunctionPlan(func=planned_func, sites=sites,
                                       spec_globals=spec, inlined=inlined)

    return ModulePlan(profile_hash=profile.profile_hash,
                      cold=frozenset(cold), fused=fused, hot=hot)


def module_plan(module: Module, profile: Profile) -> ModulePlan:
    """Cached :func:`build_plan`: one plan per (module, profile-hash).

    Modules are shared through the codecache, so the cache lives on the
    module object itself and is keyed by profile hash — two engines with
    different profiles never see each other's plans.
    """
    plans = getattr(module, "_pgo_plans", None)
    if plans is None:
        plans = {}
        module._pgo_plans = plans
    plan = plans.get(profile.profile_hash)
    if plan is None:
        plan = build_plan(module, profile)
        plans[profile.profile_hash] = plan
    return plan
