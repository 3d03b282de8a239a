"""The REP2xx whole-program flow rules.

Where :mod:`repro.lint.checks` pins per-module invariants, the rules
here consume the project symbol table / call graph
(:mod:`repro.lint.callgraph`) and the CFG/taint engine
(:mod:`repro.lint.flow`) to catch the inter-procedural rot the
per-module pass cannot see:

* **REP201** ``seed-provenance`` — RNG values reaching trial/spec code
  must trace to :mod:`repro._rng`'s per-trial ``SeedSequence`` streams;
  flags constant-seeded generators in trial-reachable functions,
  module-level RNG singletons read from trial code, and RNG locals
  captured by closures handed to ``parallel_map``.
* **REP202** ``claim-leak`` — every ``claim()``/``acquire()`` must reach
  a matching ``release()`` on all non-exception paths or sit inside
  ``try/finally``; delegation wrappers (``return q.acquire(k)``) hand
  ownership to the caller and are exempt.
* **REP203** ``fingerprint-mutation`` — attribute writes to
  cache-fingerprinted classes outside ``__init__``-family methods and
  ``with_*`` copy constructors, anywhere in the project.
* **REP204** ``order-sensitive-reduction`` — float accumulation over
  unordered sources (sets, ``as_completed``, ``imap_unordered``) that
  bypasses ``Welford.merge`` or an ordering ``sorted(...)`` refold.
* **REP205** ``entropy-re-export`` — calls that resolve *through*
  module-level or cross-module aliases to a REP002-banned entropy
  source, invisible to the per-module import-alias pass.

All five are registered with ``scope="project"``: the runner builds one
:class:`~repro.lint.callgraph.ProjectContext` over every scanned module
and invokes each checker once.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.callgraph import (
    FunctionInfo,
    ProjectContext,
    ProjectIndex,
    name_chain,
)
from repro.lint.checks import (
    REP002_ALLOWED_MODULES,
    RNG_MODULES,
    _FINGERPRINTED_BASES,
    _REP002_CALLS,
    _REP002_PREFIXES,
)
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.flow import (
    GUARANTEE_FALLTHROUGH,
    GUARANTEE_LEAK,
    GUARANTEE_RELEASED,
    TaintSpec,
    analyze_taint,
    expr_tags,
    release_guarantee,
)
from repro.lint.registry import LintRule, register_rule

__all__ = ["REP201", "REP202", "REP203", "REP204", "REP205"]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
#: numpy.random constructors that mint RNG state.
_RNG_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: repro._rng helpers whose results are (seeded) RNG values.
_RNG_HELPERS = frozenset({"as_generator", "spawn", "spawn_sequences"})


def _is_rng_construction(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether ``node`` constructs RNG state (numpy machinery or a
    :mod:`repro._rng` helper)."""
    if not isinstance(node, ast.Call):
        return False
    resolved = ctx.resolve(node.func)
    if resolved is None:
        return False
    if resolved[:2] == ("numpy", "random") and resolved[-1] in _RNG_CONSTRUCTORS:
        return True
    return resolved[-1] in _RNG_HELPERS


def _is_constant_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float, str)) and not isinstance(
            node.value, bool
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_constant_literal(node.operand)
    return False


def _bound_names(func: ast.AST) -> set[str]:
    """Names a function binds locally: parameters plus every assignment,
    loop, with-as and nested-def target (shadowing a module global)."""
    out: set[str] = set()
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            out.add(arg.arg)
        if args.vararg:
            out.add(args.vararg.arg)
        if args.kwarg:
            out.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.add((alias.asname or alias.name).split(".")[0])
    return out


def _statement_calls(
    stmt: ast.stmt,
) -> Iterator[ast.Call]:
    """Calls belonging to ``stmt`` itself: its header/expression parts,
    not its nested statements (those are placed separately, with their
    own taint state) and not nested def/lambda bodies (deferred code)."""
    queue: list[ast.AST] = [
        child for child in ast.iter_child_nodes(stmt) if not isinstance(child, ast.stmt)
    ]
    while queue:
        node = queue.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        queue.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, ast.stmt)
        )


def _placed_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """Statements belonging to ``func``'s own body (no nested defs)."""
    queue: list[ast.stmt] = list(getattr(func, "body", []))
    while queue:
        stmt = queue.pop(0)
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for field_name in ("body", "orelse", "finalbody"):
            queue.extend(getattr(stmt, field_name, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            queue.extend(handler.body)


def _ctx_for(pc: ProjectContext, module: str) -> Optional[ModuleContext]:
    table = pc.index.modules.get(module)
    return table.ctx if table else None


# ----------------------------------------------------------------------
# REP201: seed provenance
# ----------------------------------------------------------------------
_CONST_TAG = "const-literal"


def _rep201_taint_spec() -> TaintSpec:
    def source(expr: ast.expr) -> frozenset[str]:
        if _is_constant_literal(expr):
            return frozenset({_CONST_TAG})
        return frozenset()

    return TaintSpec(source=source)


def _trial_roots(index: ProjectIndex) -> set[str]:
    """Call-graph roots whose transitive callees count as trial/spec
    code: trial-named functions, ``*Task.__call__`` methods, spec
    builders, and every function handed to ``parallel_map``."""
    roots: set[str] = set()
    for info in index.functions():
        leaf = info.qualname.rsplit(".", 1)[-1]
        lowered = leaf.lower()
        if "trial" in lowered or lowered.endswith("_spec") or lowered.startswith("spec_"):
            roots.add(info.key)
        if leaf == "__call__" and info.qualname.split(".", 1)[0].endswith("Task"):
            roots.add(info.key)
    for module in sorted(index.modules):
        ctx = index.modules[module].ctx
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None or resolved[-1] != "parallel_map":
                continue
            chain = name_chain(node.args[0])
            if chain is None:
                continue
            res = index.resolve(module, chain)
            if res.kind == "function" and res.module and res.qualname:
                roots.add(f"{res.module}:{res.qualname}")
    return roots


def _module_of(index: ProjectIndex, ctx: ModuleContext) -> Optional[str]:
    """The index's module name for ``ctx`` (None if it wasn't indexed)."""
    for module, table in index.modules.items():
        if table.ctx is ctx:
            return module
    return None


def _check_rep201(pc: ProjectContext) -> Iterator[Finding]:
    index = pc.index
    spec = _rep201_taint_spec()
    reachable = index.reachable(_trial_roots(index))

    for key in sorted(reachable):
        info = index.function(key)
        if info is None:
            continue
        ctx = _ctx_for(pc, info.module)
        if ctx is None or ctx.relpath in RNG_MODULES:
            continue
        states = analyze_taint(info.node, spec)
        locals_bound = _bound_names(info.node)

        # (a) constant-seeded RNG constructions inside trial-reachable code.
        for stmt in _placed_statements(info.node):
            state = states.get(id(stmt), {})
            for call in _statement_calls(stmt):
                if not _is_rng_construction(ctx, call):
                    continue
                if not call.args:
                    continue  # argless default_rng() is REP001's finding
                seed_arg = call.args[0]
                constant = _is_constant_literal(seed_arg) or (
                    _CONST_TAG in expr_tags(seed_arg, state, spec)
                )
                if constant:
                    resolved = ctx.resolve(call.func) or ("rng",)
                    yield ctx.finding(
                        "REP201",
                        call,
                        f"{resolved[-1]}({ast.unparse(seed_arg)}) is a "
                        f"constant-seeded RNG in trial-reachable code "
                        f"({info.qualname}): every trial replays the same "
                        "stream — derive per-trial streams from repro._rng "
                        "SeedSequence spawning instead",
                    )

        # (b) module-level RNG singletons read from trial-reachable code.
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            if node.id in locals_bound:
                continue
            res = index.resolve(info.module, (node.id,))
            if res.kind != "value" or res.node is None or res.module is None:
                continue
            defining = index.modules.get(res.module)
            if defining is None or defining.ctx.relpath in RNG_MODULES:
                continue
            if _is_rng_construction(defining.ctx, res.node):
                yield ctx.finding(
                    "REP201",
                    node,
                    f"{node.id} is a module-level RNG (defined in "
                    f"{res.module}) shared across trials and processes; "
                    "trial code must take per-trial spawned streams as "
                    "arguments (repro._rng.spawn_sequences)",
                )

    # (c) RNG locals captured by closures handed to parallel_map: the
    # violation lives in the *caller*, reachable or not.
    for info in index.functions():
        ctx = _ctx_for(pc, info.module)
        if ctx is None or ctx.relpath in RNG_MODULES:
            continue
        rng_locals: set[str] = set()
        nested: dict[str, ast.AST] = {}
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_rng_construction(ctx, node.value)
            ):
                rng_locals.add(node.targets[0].id)
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not info.node
            ):
                nested[node.name] = node
        if not rng_locals:
            continue
        for call in ast.walk(info.node):
            if not (isinstance(call, ast.Call) and call.args):
                continue
            resolved = ctx.resolve(call.func)
            if resolved is None or resolved[-1] != "parallel_map":
                continue
            task = call.args[0]
            task_func: Optional[ast.AST] = None
            if isinstance(task, ast.Lambda):
                task_func = task.body
            elif isinstance(task, ast.Name) and task.id in nested:
                task_func = nested[task.id]
            if task_func is None:
                continue
            captured = _bound_names(task_func) if not isinstance(
                task_func, ast.expr
            ) else set()
            for load in ast.walk(task_func):
                if (
                    isinstance(load, ast.Name)
                    and isinstance(load.ctx, ast.Load)
                    and load.id in rng_locals
                    and load.id not in captured
                ):
                    yield ctx.finding(
                        "REP201",
                        load,
                        f"closure passed to parallel_map captures the RNG "
                        f"{load.id!r} from {info.qualname}: one stream shared "
                        "by every worker breaks workers=N == workers=1; "
                        "thread a per-trial spawned stream through the task",
                    )


REP201 = register_rule(
    LintRule(
        id="REP201",
        name="seed-provenance",
        summary="RNG values reaching trial/spec code trace to repro._rng streams",
        rationale=(
            "Bit-identical trials require every Generator/SeedSequence that "
            "trial or spec code consumes to descend from repro._rng's "
            "per-trial SeedSequence spawning. A constant-seeded generator "
            "replays one stream for every trial; a module-level RNG is "
            "shared mutable state across trials and worker processes; a "
            "closure-captured RNG hands one stream to N pool workers. The "
            "call graph marks trial-named functions, *Task.__call__, spec "
            "builders and parallel_map task functions as roots, and flags "
            "tainted constructions anywhere reachable from them."
        ),
        check=_check_rep201,
        scope="project",
    )
)


# ----------------------------------------------------------------------
# REP202: claim leak
# ----------------------------------------------------------------------
_CLAIM_METHODS = frozenset({"claim", "acquire"})
_RELEASE_METHODS = frozenset({"release"})


def _nearest_statement(ctx: ModuleContext, node: ast.AST) -> Optional[ast.stmt]:
    current: Optional[ast.AST] = node
    while current is not None and not isinstance(current, ast.stmt):
        current = ctx.parent(current)
    return current if isinstance(current, ast.stmt) else None


def _guarantee_after(
    ctx: ModuleContext, stmt: ast.stmt, is_release
) -> str:
    """Must-release verdict for the suffix of the program after ``stmt``,
    ascending through enclosing suites (loop bodies wrap around; a
    release later in the enclosing body still counts)."""
    current: ast.AST = stmt
    while True:
        parent = ctx.parent(current)
        if parent is None:
            return GUARANTEE_FALLTHROUGH
        progressed = False
        for field_name in ("body", "orelse", "finalbody"):
            suite = getattr(parent, field_name, None)
            if isinstance(suite, list) and current in suite:
                rest = suite[suite.index(current) + 1 :]
                verdict = release_guarantee(rest, is_release)
                if verdict != GUARANTEE_FALLTHROUGH:
                    return verdict
                if (
                    isinstance(parent, ast.Try)
                    and field_name in ("body", "orelse")
                    and release_guarantee(list(parent.finalbody), is_release)
                    == GUARANTEE_RELEASED
                ):
                    return GUARANTEE_RELEASED
                progressed = True
                break
        if not progressed:
            # current sits in a handler or another suite kind; treat the
            # enclosing statement as the next ascent step regardless.
            for handler in getattr(parent, "handlers", []) or []:
                if current in handler.body:
                    rest = handler.body[handler.body.index(current) + 1 :]
                    verdict = release_guarantee(rest, is_release)
                    if verdict != GUARANTEE_FALLTHROUGH:
                        return verdict
                    break
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            # Function body scanned with no verdict: execution falls off
            # the end still holding the claim.
            return GUARANTEE_FALLTHROUGH
        current = parent


def _check_rep202(pc: ProjectContext) -> Iterator[Finding]:
    for ctx in pc.contexts:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CLAIM_METHODS
            ):
                continue
            receiver_src = ast.unparse(node.func.value)

            def is_release(call: ast.Call, _recv: str = receiver_src) -> bool:
                return (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in _RELEASE_METHODS
                    and ast.unparse(call.func.value) == _recv
                )

            stmt = _nearest_statement(ctx, node)
            if stmt is None:
                continue
            if isinstance(stmt, ast.Return):
                continue  # delegation: ownership transfers to the caller
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # claim in a default/decorator — out of scope

            verdict: str
            if isinstance(stmt, ast.If) and _expr_contains(stmt.test, node):
                if _under_not(ctx, node, stmt.test):
                    # `if not q.acquire(k): return` — ownership holds on
                    # the fallthrough side of the guard.
                    verdict = _guarantee_after(ctx, stmt, is_release)
                else:
                    verdict = release_guarantee(list(stmt.body), is_release)
                    if verdict == GUARANTEE_FALLTHROUGH:
                        verdict = _guarantee_after(ctx, stmt, is_release)
            elif isinstance(stmt, (ast.While,)) and _expr_contains(stmt.test, node):
                # spin-acquire loops hold the claim after the loop exits
                verdict = _guarantee_after(ctx, stmt, is_release)
            else:
                verdict = _guarantee_after(ctx, stmt, is_release)

            if verdict != GUARANTEE_RELEASED:
                yield ctx.finding(
                    "REP202",
                    node,
                    f"{receiver_src}.{node.func.attr}(...) can leak its "
                    "claim: a non-exception path leaves without "
                    f"{receiver_src}.release(...) — release on every path "
                    "or wrap the owned region in try/finally",
                )


def _expr_contains(haystack: ast.AST, needle: ast.AST) -> bool:
    return any(child is needle for child in ast.walk(haystack))


def _under_not(ctx: ModuleContext, node: ast.AST, test: ast.AST) -> bool:
    current = ctx.parent(node)
    while current is not None and current is not test:
        if isinstance(current, ast.UnaryOp) and isinstance(current.op, ast.Not):
            return True
        current = ctx.parent(current)
    return isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)


REP202 = register_rule(
    LintRule(
        id="REP202",
        name="claim-leak",
        summary="every claim()/acquire() releases on all non-exception paths",
        rationale=(
            "Exactly-once cell arbitration (ClaimQueue) "
            "relies on claims being released on every non-exception path: a "
            "leaked .claim file parks the cell until the stale-claim TTL "
            "expires, serializing peers behind a dead owner. The checker "
            "follows each claim()/acquire() call through branches, loops "
            "and try/finally with a must-release analysis; raise paths are "
            "exempt (the TTL steal is the designed recovery) and "
            "delegation wrappers (return q.acquire(k)) pass ownership to "
            "their caller. Deliberately deferred releases (ownership "
            "outliving the claiming function) belong in the baseline with "
            "a justification naming the releasing path."
        ),
        check=_check_rep202,
        scope="project",
    )
)


# ----------------------------------------------------------------------
# REP203: fingerprint mutation
# ----------------------------------------------------------------------
#: Methods allowed to write attributes: construction, copy/pickle
#: protocol, and the with_* copy-constructor convention.
_MUTATION_ALLOWED = frozenset(
    {"__init__", "__post_init__", "__setstate__", "__copy__", "__deepcopy__"}
)


def _method_may_mutate(name: str) -> bool:
    return name in _MUTATION_ALLOWED or name.startswith("with_")


def _self_attr_writes(method: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(method):
        targets: tuple[ast.AST, ...] = ()
        if isinstance(node, ast.Assign):
            targets = tuple(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = (node.target,)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and node.args
        ):
            # object.__setattr__(self, "attr", value)
            if (
                len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                yield node, node.args[1].value
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield node, target.attr


def _check_rep203(pc: ProjectContext) -> Iterator[Finding]:
    index = pc.index
    fingerprinted = index.subclass_closure(_FINGERPRINTED_BASES)

    # Self-writes in methods of fingerprinted classes.
    for key in sorted(fingerprinted):
        cls = index.class_of(key)
        if cls is None:
            continue
        ctx = _ctx_for(pc, cls.module)
        if ctx is None:
            continue
        excludes = fingerprinted[key]
        for method_name in sorted(cls.methods):
            if _method_may_mutate(method_name):
                continue
            method = cls.methods[method_name]
            for node, attr in _self_attr_writes(method.node):
                if attr in excludes or attr.startswith("_"):
                    continue
                yield ctx.finding(
                    "REP203",
                    node,
                    f"{cls.name}.{method_name} mutates fingerprinted "
                    f"attribute {attr!r} after construction: the cell cache "
                    "key was computed from the old value, so the mutation "
                    "silently aliases two different cells — return a with_* "
                    "copy instead, or add the attribute to "
                    "FINGERPRINT_EXCLUDE with a justification",
                )

    # External writes through a local variable of a fingerprinted type.
    for info in index.functions():
        if _method_may_mutate(info.qualname.rsplit(".", 1)[-1]):
            continue
        ctx = _ctx_for(pc, info.module)
        if ctx is None:
            continue
        local_types = index.local_class_types(info)
        typed = {
            name: cls
            for name, cls in local_types.items()
            if cls.key in fingerprinted
        }
        if not typed:
            continue
        own_class = info.qualname.split(".", 1)[0] if "." in info.qualname else None
        for node in ast.walk(info.node):
            targets = ()
            if isinstance(node, ast.Assign):
                targets = tuple(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = (node.target,)
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in typed
                ):
                    continue
                cls = typed[target.value.id]
                if own_class == cls.name:
                    continue  # with_*-style sibling construction helpers
                if target.attr in fingerprinted[cls.key] or target.attr.startswith("_"):
                    continue
                yield ctx.finding(
                    "REP203",
                    node,
                    f"{info.qualname} mutates {target.value.id}.{target.attr} "
                    f"on fingerprinted class {cls.name} after construction; "
                    "cells must be immutable once their cache key exists — "
                    "construct with the final value or use a with_* copy",
                )


REP203 = register_rule(
    LintRule(
        id="REP203",
        name="fingerprint-mutation",
        summary="no attribute writes to fingerprinted classes after construction",
        rationale=(
            "Content-addressed caching fingerprints protocol/attack/"
            "population objects at spec time; any later attribute write "
            "de-synchronizes the object from its cache key, so two "
            "logically different cells collide on one entry (or one cell "
            "silently recomputes). Construction (__init__/__post_init__/"
            "__setstate__) and the with_* copy-constructor convention are "
            "the sanctioned write sites; the project-wide pass also "
            "catches external writes through locals whose constructor or "
            "annotation pins a fingerprinted class. Underscore-private "
            "attributes are not flagged — lazy memo caches conventionally "
            "live there, and the runtime half of REP003 cross-references "
            "their fingerprint coverage against live vars()."
        ),
        check=_check_rep203,
        scope="project",
    )
)


# ----------------------------------------------------------------------
# REP204: order-sensitive reduction
# ----------------------------------------------------------------------
_UNORDERED_TAG = "unordered"

#: Resolved call names whose results arrive in nondeterministic order.
_UNORDERED_CALLS = frozenset({("concurrent", "futures", "as_completed")})

#: Reduction callables whose float result depends on operand order.
_ORDERED_REDUCERS = frozenset(
    {
        ("math", "fsum"),
        ("numpy", "sum"),
        ("numpy", "mean"),
        ("numpy", "prod"),
        ("numpy", "dot"),
    }
)


def _rep204_spec(ctx: ModuleContext) -> TaintSpec:
    def source(expr: ast.expr) -> frozenset[str]:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return frozenset({_UNORDERED_TAG})
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in ("set", "frozenset"):
                return frozenset({_UNORDERED_TAG})
            if isinstance(expr.func, ast.Attribute) and expr.func.attr == "imap_unordered":
                return frozenset({_UNORDERED_TAG})
            resolved = ctx.resolve(expr.func)
            if resolved is not None and resolved in _UNORDERED_CALLS:
                return frozenset({_UNORDERED_TAG})
        return frozenset()

    return TaintSpec(source=source)


def _is_ordered_reducer(ctx: ModuleContext, call: ast.Call) -> bool:
    if isinstance(call.func, ast.Name) and call.func.id == "sum":
        return True
    resolved = ctx.resolve(call.func)
    return resolved is not None and resolved in _ORDERED_REDUCERS


def _check_rep204(pc: ProjectContext) -> Iterator[Finding]:
    for ctx in pc.contexts:
        spec = _rep204_spec(ctx)
        module = _module_of(pc.index, ctx)
        table = pc.index.modules.get(module or "")
        if table is None:
            continue
        for qualname in sorted(table.functions):
            func = table.functions[qualname].node
            states = analyze_taint(func, spec)
            for stmt in _placed_statements(func):
                state = states.get(id(stmt), {})
                # sum(...)/fsum(...)/np.mean(...) over an unordered source
                for call in _statement_calls(stmt):
                    if not (call.args and _is_ordered_reducer(ctx, call)):
                        continue
                    if _UNORDERED_TAG in expr_tags(call.args[0], state, spec):
                        name = ast.unparse(call.func)
                        yield ctx.finding(
                            "REP204",
                            call,
                            f"{name}(...) floats-accumulates over an "
                            "unordered source: the result depends on hash "
                            "seed / completion order — sort first "
                            "(sorted(...)) or fold through Welford.merge",
                        )
                # manual `acc += x` accumulation inside an unordered loop
                if isinstance(stmt, (ast.For, ast.AsyncFor)) and (
                    _UNORDERED_TAG in expr_tags(stmt.iter, state, spec)
                ):
                    for inner in ast.walk(stmt):
                        if (
                            isinstance(inner, ast.AugAssign)
                            and isinstance(inner.op, (ast.Add, ast.Sub, ast.Mult))
                            and isinstance(inner.target, ast.Name)
                        ):
                            yield ctx.finding(
                                "REP204",
                                inner,
                                f"accumulating {inner.target.id!r} over an "
                                "unordered iteration: float folds are "
                                "order-sensitive — iterate sorted(...) or "
                                "merge per-item Welford states",
                            )


REP204 = register_rule(
    LintRule(
        id="REP204",
        name="order-sensitive-reduction",
        summary="no float accumulation over unordered/parallel result order",
        rationale=(
            "Float addition is not associative: summing the same values in "
            "set order, as_completed order or imap_unordered order yields "
            "different bits per run, which breaks the byte-stable tables "
            "and cache entries everything downstream diffs against. "
            "parallel_map results are order-preserving and Welford.merge "
            "folds shard states in a fixed sequence — reductions that "
            "bypass both (reducing a set, draining as_completed) must sort "
            "before folding. The taint engine tracks unordered values "
            "through assignments and list()/tuple() wraps; sorted(...) "
            "cleanses."
        ),
        check=_check_rep204,
        scope="project",
    )
)


# ----------------------------------------------------------------------
# REP205: entropy re-export
# ----------------------------------------------------------------------
def _is_banned_entropy(dotted: tuple[str, ...]) -> bool:
    return dotted in _REP002_CALLS or any(
        dotted[: len(prefix)] == prefix for prefix in _REP002_PREFIXES
    )


def _check_rep205(pc: ProjectContext) -> Iterator[Finding]:
    index = pc.index
    for ctx in pc.contexts:
        if ctx.relpath in REP002_ALLOWED_MODULES:
            continue
        module = _module_of(index, ctx)
        if module is None:
            continue
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = name_chain(node.func)
            if chain is None:
                continue
            local = ctx.resolve(node.func)
            if local is not None and _is_banned_entropy(local):
                continue  # the per-module pass (REP002) already flags this
            terminal = index.external_name(module, chain)
            if terminal is None or not _is_banned_entropy(terminal):
                continue
            yield ctx.finding(
                "REP205",
                node,
                f"{'.'.join(chain)}() resolves through aliases to "
                f"{'.'.join(terminal)} — a REP002-banned entropy source "
                "laundered past the per-module pass; call a deterministic "
                "alternative or justify it in the baseline",
            )


REP205 = register_rule(
    LintRule(
        id="REP205",
        name="entropy-re-export",
        summary="no aliased/re-exported wall-clock or entropy calls",
        rationale=(
            "REP002 resolves import aliases within one module, so `from "
            "time import time as now` is caught — but `clock = time.time` "
            "at module level, or `from helpers import clock` where helpers "
            "did the aliasing, is invisible to any single-file pass. The "
            "project index follows assignment aliases and re-export chains "
            "across modules to the terminal callable; calls landing on a "
            "REP002-banned entropy source are flagged at the call site "
            "with the full provenance. The REP002 module allowlist (shard "
            "claim bookkeeping, HTTP Date headers) applies to the calling "
            "module."
        ),
        check=_check_rep205,
        scope="project",
    )
)
