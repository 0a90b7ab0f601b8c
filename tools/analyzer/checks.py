"""Whole-program checks for causumx-analyzer.

All checks run over the frontend-agnostic IR (`cpp_frontend.FileIR`
et al.) — either frontend (textual or libclang) can feed them.

Rules:
  layering             module include edge outside the declared DAG
  unused-include       project include providing no name the file uses
  lock-order           cycle in the global lock acquisition graph
  lock-blocking        lock held across a blocking call / CondVar wait
  hot-path-alloc       heap allocation reachable from a kernel root
  hot-path-throw       throw (or throwing std call) reachable from a root
  hot-path-virtual     virtual dispatch reachable from a kernel root
  exception-boundary   throw may escape a server/handler boundary root
  allow-missing-reason an allow() hatch with no written justification
  thread-spawn         std::thread / ThreadPool constructed outside the
                       allowlist of places that decide where work runs
"""

from __future__ import annotations

import bisect
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from cpp_frontend import (
    Acquisition,
    AllowSite,
    CallSite,
    FileIR,
    FunctionInfo,
    THROWING_STD,
    collect_allows,
    find_allow,
    parse_file,
    walk_cpp,
)

ALL_RULES = [
    "layering",
    "unused-include",
    "lock-order",
    "lock-blocking",
    "hot-path-alloc",
    "hot-path-throw",
    "hot-path-virtual",
    "exception-boundary",
    "allow-missing-reason",
    "thread-spawn",
]

# Calls that block the calling thread (work-stealing pool entry points and
# raw socket syscalls). Transitive callers inherit blocking-ness.
DEFAULT_BLOCKING_CALLS = {
    "ParallelFor", "RunOn", "accept", "poll", "recv", "send", "connect",
    "select", "accept4",
}


@dataclass
class AnalyzerConfig:
    # module -> modules it may include (its own module is always allowed)
    layers: Dict[str, Set[str]] = field(default_factory=dict)
    # modules whose files may include anything (e.g. the CLI entry point)
    unrestricted_modules: Set[str] = field(default_factory=set)
    # roots whose include paths are resolved, e.g. ["src"]
    include_roots: List[str] = field(default_factory=lambda: ["src"])
    # function names whose &Fn references seed the hot-path closure
    dispatch_functions: List[str] = field(default_factory=list)
    # qualified-name suffixes that are hot-path roots outright
    hot_path_roots: List[str] = field(default_factory=list)
    # qualified-name suffixes of exception-boundary roots
    exception_roots: List[str] = field(default_factory=list)
    # unresolved callee names treated as may-throw (indirect dispatch)
    indirect_throwing_calls: Set[str] = field(default_factory=set)
    blocking_calls: Set[str] = field(
        default_factory=lambda: set(DEFAULT_BLOCKING_CALLS))
    # where threads may start: file-path suffixes ("util/thread_pool.cpp")
    # or qualified-name suffixes of the constructing function
    thread_spawn_allowlist: List[str] = field(default_factory=list)

    @staticmethod
    def from_dict(d: dict) -> "AnalyzerConfig":
        cfg = AnalyzerConfig()
        for mod, deps in d.get("layers", {}).items():
            cfg.layers[mod] = set(deps)
        cfg.unrestricted_modules = set(d.get("unrestricted_modules", []))
        cfg.include_roots = list(d.get("include_roots", ["src"]))
        cfg.dispatch_functions = list(d.get("dispatch_functions", []))
        cfg.hot_path_roots = list(d.get("hot_path_roots", []))
        cfg.exception_roots = list(d.get("exception_roots", []))
        cfg.indirect_throwing_calls = set(
            d.get("indirect_throwing_calls", []))
        if "blocking_calls" in d:
            cfg.blocking_calls = set(d["blocking_calls"])
        cfg.thread_spawn_allowlist = list(
            d.get("thread_spawn_allowlist", []))
        return cfg


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str

    def key(self) -> str:
        # Line-free so the baseline survives unrelated edits.
        return f"{self.rule}|{self.file}|{self.message}"

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Project:
    files: Dict[str, FileIR]  # repo-relative path -> IR
    allows: Dict[str, List[AllowSite]]

    def functions(self) -> Iterable[FunctionInfo]:
        for ir in self.files.values():
            yield from ir.functions

    def allowed(self, path: str, line: int, rule: str) -> bool:
        a = find_allow(self.allows.get(path, []), line, rule)
        if a is not None:
            a.used = True
            return True
        return False


def build_project(entries: Sequence[Tuple[str, str]]) -> Project:
    """entries: (absolute path, repo-relative path) pairs."""
    files: Dict[str, FileIR] = {}
    allows: Dict[str, List[AllowSite]] = {}
    for abs_path, rel in entries:
        rel = rel.replace(os.sep, "/")
        ir = parse_file(abs_path, rel)
        files[rel] = ir
        allows[rel] = collect_allows(rel, ir.raw_lines)
    return Project(files=files, allows=allows)


# --- helpers: module + include resolution ------------------------------------


def module_of(path: str, cfg: AnalyzerConfig) -> Optional[str]:
    """src/engine/eval_engine.cpp -> "engine"; None for files outside the
    include roots or directly inside one (e.g. src/main.cpp)."""
    for root in cfg.include_roots:
        prefix = root.rstrip("/") + "/"
        if path.startswith(prefix):
            rest = path[len(prefix):]
            if "/" in rest:
                return rest.split("/", 1)[0]
            return None
    return None


def resolve_include(includer: str, header: str, cfg: AnalyzerConfig,
                    files: Dict[str, FileIR]) -> Optional[str]:
    """Map an include spelling to a scanned project file path."""
    for root in cfg.include_roots:
        cand = root.rstrip("/") + "/" + header
        if cand in files:
            return cand
    cand = os.path.dirname(includer) + "/" + header if "/" in includer \
        else header
    cand = os.path.normpath(cand).replace(os.sep, "/")
    if cand in files:
        return cand
    return None


# --- check: layering + unused-include ----------------------------------------


def check_layering(project: Project, cfg: AnalyzerConfig) -> List[Finding]:
    findings: List[Finding] = []
    for path, ir in project.files.items():
        mod = module_of(path, cfg)
        if mod is None or mod in cfg.unrestricted_modules:
            continue
        allowed = cfg.layers.get(mod)
        if allowed is None:
            continue
        for inc in ir.includes:
            if inc.is_system:
                continue
            target = resolve_include(path, inc.header, cfg, project.files)
            if target is None:
                continue
            tmod = module_of(target, cfg)
            if tmod is None or tmod == mod or tmod in allowed:
                continue
            if project.allowed(path, inc.line, "layering"):
                continue
            findings.append(Finding(
                "layering", path, inc.line,
                f'module "{mod}" may not include "{tmod}" '
                f'({inc.header}); allowed: '
                f'{{{", ".join(sorted(allowed)) or "none"}}}'))
    return findings


def check_unused_includes(project: Project,
                          cfg: AnalyzerConfig) -> List[Finding]:
    findings: List[Finding] = []
    for path, ir in project.files.items():
        stem = os.path.splitext(os.path.basename(path))[0]
        for inc in ir.includes:
            if inc.is_system:
                continue
            target = resolve_include(path, inc.header, cfg, project.files)
            if target is None:
                continue
            # a .cpp's own header is always kept
            if os.path.splitext(os.path.basename(target))[0] == stem:
                continue
            provided = project.files[target].provided_names
            if not provided:
                continue  # nothing detectable — assume intentional
            if provided & ir.used_names:
                continue
            if project.allowed(path, inc.line, "unused-include"):
                continue
            findings.append(Finding(
                "unused-include", path, inc.line,
                f"include {inc.header} provides no name this file uses"))
    return findings


# --- helpers: call resolution ------------------------------------------------


class CallIndex:
    def __init__(self, project: Project):
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        for fn in project.functions():
            self.by_name.setdefault(fn.name, []).append(fn)

    def resolve(self, caller: FunctionInfo,
                call: CallSite) -> List[FunctionInfo]:
        cands = self.by_name.get(call.name, [])
        if not cands:
            return []
        q = call.qualifier
        if q.endswith("::"):
            hint = q[:-2].split("::")[-1]
            by_cls = [c for c in cands if c.cls == hint]
            if by_cls:
                return by_cls
            by_ns = [c for c in cands if f"{hint}::" in c.qualified_name]
            if by_ns:
                return by_ns
            return []  # qualified but unknown: external (std::, C API)
        if q.endswith("->") or q.endswith("."):
            base = q[:-2] if q.endswith("->") else q[:-1]
            base = re.split(r"->|\.", base)[-1]
            btype = caller.local_types.get(base)
            if btype is not None:
                by_cls = [c for c in cands if c.cls == btype]
                # typed base: either it's a project class method or an
                # external (std) type — never guess across classes
                return by_cls
            if base.endswith("_") or base == "this":
                # member object / explicit this: class unknown, keep any
                # method candidate (conservative over-approximation)
                return [c for c in cands if c.cls is not None]
            # untyped local (std streams etc.): assume external
            return []
        same = [c for c in cands if c.cls == caller.cls and c.cls]
        if same:
            return same
        free = [c for c in cands if c.cls is None]
        if free:
            return free
        return cands


# --- helpers: lock identity --------------------------------------------------


class LockResolver:
    """Resolves acquisition expressions to canonical "Class::member"
    identities. Bare members qualify by the enclosing class; `x->mu`
    resolves `x` through local/param types; otherwise a unique mutex-
    declaring class owning that member name wins."""

    def __init__(self, project: Project):
        self.owners: Dict[str, List[str]] = {}  # member -> owner classes
        self.mutex_classes: Set[str] = set()
        for ir in project.files.values():
            for cls in ir.classes:
                for member, kind in cls.mutex_members:
                    if kind == "condvar":
                        continue
                    self.owners.setdefault(member, []).append(cls.name)
                    self.mutex_classes.add(cls.name)

    def resolve(self, fn: FunctionInfo, expr: str) -> str:
        expr = expr.strip()
        parts = re.split(r"->|\.", expr)
        member = parts[-1]
        owners = self.owners.get(member, [])
        if len(parts) > 1:
            base = parts[-2].lstrip("*&(")
            btype = fn.local_types.get(base)
            if btype and btype in owners:
                return f"{btype}::{member}"
        else:
            if fn.cls and fn.cls in owners:
                return f"{fn.cls}::{member}"
        if len(owners) == 1:
            return f"{owners[0]}::{member}"
        return f"?::{expr}"


# --- check: lock-order + lock-blocking ---------------------------------------


@dataclass
class LockEdge:
    src: str
    dst: str
    file: str
    line: int
    via: str  # holder function's qualified name


def _calls_in_scope(fn: FunctionInfo, acq: Acquisition) -> List[CallSite]:
    return [c for c in fn.calls
            if acq.line < c.line <= acq.scope_end_line]


def build_lock_graph(project: Project, cfg: AnalyzerConfig,
                     index: CallIndex,
                     locks: LockResolver) -> Tuple[List[LockEdge],
                                                   Dict[str, Set[str]]]:
    """Returns (edges, per-function transitive lock summaries)."""
    fns = list(project.functions())
    summaries: Dict[int, Set[str]] = {
        id(fn): {locks.resolve(fn, a.lock_expr) for a in fn.acquisitions}
        for fn in fns
    }
    # fixpoint over the call graph (small; a handful of rounds)
    for _ in range(20):
        changed = False
        for fn in fns:
            s = summaries[id(fn)]
            before = len(s)
            for call in fn.calls:
                for callee in index.resolve(fn, call):
                    s |= summaries[id(callee)]
            if len(s) != before:
                changed = True
        if not changed:
            break

    edges: List[LockEdge] = []
    for fn in fns:
        required: List[str] = []
        for ir in project.files.values():
            for cls in ir.classes:
                if cls.name == fn.cls and fn.name in cls.requires:
                    required += [locks.resolve(fn, e)
                                 for e in cls.requires[fn.name]]
        for acq in fn.acquisitions:
            held = locks.resolve(fn, acq.lock_expr)
            for req in required:
                edges.append(LockEdge(req, held, fn.file, acq.line,
                                      fn.qualified_name))
            # later acquisitions inside the held scope
            for other in fn.acquisitions:
                if acq.line < other.line <= acq.scope_end_line:
                    edges.append(LockEdge(
                        held, locks.resolve(fn, other.lock_expr),
                        fn.file, other.line, fn.qualified_name))
            # locks acquired by callees while this one is held
            for call in _calls_in_scope(fn, acq):
                for callee in index.resolve(fn, call):
                    for dst in summaries[id(callee)]:
                        edges.append(LockEdge(held, dst, fn.file,
                                              call.line,
                                              fn.qualified_name))
    per_fn = {fn.qualified_name: summaries[id(fn)] for fn in fns}
    return edges, per_fn


def _cycles(edges: List[LockEdge]) -> List[List[LockEdge]]:
    """Tarjan SCCs over the lock graph; returns one representative edge
    list per nontrivial SCC (plus genuine self-loops)."""
    adj: Dict[str, List[LockEdge]] = {}
    nodes: Set[str] = set()
    for e in edges:
        adj.setdefault(e.src, []).append(e)
        nodes.add(e.src)
        nodes.add(e.dst)
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Set[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            outs = adj.get(node, [])
            for i in range(pi, len(outs)):
                w = outs[i].dst
                if w not in index:
                    work[-1] = (node, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            if low[node] == index[node]:
                scc: Set[str] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.add(w)
                    if w == node:
                        break
                sccs.append(scc)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)

    out: List[List[LockEdge]] = []
    for scc in sccs:
        if len(scc) > 1:
            out.append([e for e in edges
                        if e.src in scc and e.dst in scc])
        else:
            (node,) = scc
            self_loops = [e for e in edges
                          if e.src == node and e.dst == node]
            if self_loops:
                out.append(self_loops)
    return out


def check_lock_order(project: Project, cfg: AnalyzerConfig) -> List[Finding]:
    index = CallIndex(project)
    locks = LockResolver(project)
    edges, _ = build_lock_graph(project, cfg, index, locks)
    findings: List[Finding] = []
    for cycle_edges in _cycles(edges):
        cycle_edges.sort(key=lambda e: (e.file, e.line))
        reported = False
        for e in cycle_edges:
            if project.allowed(e.file, e.line, "lock-order"):
                reported = True  # an allow on any edge silences the cycle
                break
        if reported:
            continue
        locks_in_cycle = sorted({e.src for e in cycle_edges} |
                                {e.dst for e in cycle_edges})
        e0 = cycle_edges[0]
        sites = "; ".join(
            f"{e.src}->{e.dst} at {e.file}:{e.line} (in {e.via})"
            for e in cycle_edges[:4])
        findings.append(Finding(
            "lock-order", e0.file, e0.line,
            f"lock acquisition cycle over {{{', '.join(locks_in_cycle)}}}: "
            f"{sites}"))
    return findings


def check_lock_blocking(project: Project,
                        cfg: AnalyzerConfig) -> List[Finding]:
    index = CallIndex(project)
    locks = LockResolver(project)
    fns = list(project.functions())
    # transitive "does this function block?" summary
    blocking: Dict[int, bool] = {}
    for fn in fns:
        direct = any(c.name in cfg.blocking_calls for c in fn.calls) or \
            bool(fn.waits)
        blocking[id(fn)] = direct
    for _ in range(20):
        changed = False
        for fn in fns:
            if blocking[id(fn)]:
                continue
            for call in fn.calls:
                if any(blocking[id(callee)]
                       for callee in index.resolve(fn, call)):
                    blocking[id(fn)] = True
                    changed = True
                    break
        if not changed:
            break

    findings: List[Finding] = []
    for fn in fns:
        for acq in fn.acquisitions:
            held = locks.resolve(fn, acq.lock_expr)
            held_member = held.split("::")[-1]
            for w in fn.waits:
                if acq.line < w.line <= acq.scope_end_line:
                    # the condvar idiom: waiting ON the held lock is fine
                    wait_lock = locks.resolve(fn, w.lock_expr)
                    if wait_lock == held or \
                            w.lock_expr.split("->")[-1].split(".")[-1] \
                            == held_member:
                        continue
                    if project.allowed(fn.file, w.line, "lock-blocking"):
                        continue
                    findings.append(Finding(
                        "lock-blocking", fn.file, w.line,
                        f"{fn.qualified_name} holds {held} across "
                        f"CondVar::Wait({w.lock_expr})"))
            for call in _calls_in_scope(fn, acq):
                is_direct = call.name in cfg.blocking_calls
                is_transitive = any(
                    blocking[id(callee)]
                    for callee in index.resolve(fn, call))
                if not (is_direct or is_transitive):
                    continue
                if project.allowed(fn.file, call.line, "lock-blocking"):
                    continue
                kind = "blocking call" if is_direct else \
                    "call that transitively blocks"
                findings.append(Finding(
                    "lock-blocking", fn.file, call.line,
                    f"{fn.qualified_name} holds {held} across "
                    f"{kind} {call.name}()"))
    return findings


# --- check: hot-path ---------------------------------------------------------


def _hot_roots(project: Project, cfg: AnalyzerConfig,
               index: CallIndex) -> List[FunctionInfo]:
    roots: List[FunctionInfo] = []
    ref_names: Set[str] = set()
    for fn in project.functions():
        if fn.name in cfg.dispatch_functions:
            ref_names.update(fn.fn_refs)
    for fn in project.functions():
        if fn.name in ref_names:
            roots.append(fn)
        elif any(fn.qualified_name.endswith(sfx)
                 for sfx in cfg.hot_path_roots):
            roots.append(fn)
    return roots


def _hot_closure(project: Project, cfg: AnalyzerConfig, index: CallIndex,
                 rule: str) -> Dict[int, Tuple[FunctionInfo, str]]:
    """BFS over the call graph from the hot roots. An allow() naming
    `rule` at a call site prunes that edge (the callee subtree is exempt
    for that rule). Returns id(fn) -> (fn, via-chain)."""
    roots = _hot_roots(project, cfg, index)
    closure: Dict[int, Tuple[FunctionInfo, str]] = {}
    work: List[Tuple[FunctionInfo, str]] = [
        (r, r.qualified_name) for r in roots]
    while work:
        fn, chain = work.pop()
        if id(fn) in closure:
            continue
        closure[id(fn)] = (fn, chain)
        for call in fn.calls:
            if project.allowed(fn.file, call.line, rule):
                continue
            for callee in index.resolve(fn, call):
                if id(callee) not in closure:
                    work.append((callee, f"{chain} -> {callee.name}"))
    return closure


def check_hot_path(project: Project, cfg: AnalyzerConfig) -> List[Finding]:
    index = CallIndex(project)
    findings: List[Finding] = []
    virtual_names: Set[str] = set()
    for ir in project.files.values():
        for cls in ir.classes:
            virtual_names.update(cls.virtual_methods)

    for fn, chain in _hot_closure(project, cfg, index,
                                  "hot-path-alloc").values():
        for alloc in fn.allocs:
            if project.allowed(fn.file, alloc.line, "hot-path-alloc"):
                continue
            findings.append(Finding(
                "hot-path-alloc", fn.file, alloc.line,
                f"{fn.qualified_name} heap-allocates ({alloc.what}) on "
                f"the hot path [{chain}]"))

    for fn, chain in _hot_closure(project, cfg, index,
                                  "hot-path-throw").values():
        for thr in fn.throws:
            if project.allowed(fn.file, thr.line, "hot-path-throw"):
                continue
            findings.append(Finding(
                "hot-path-throw", fn.file, thr.line,
                f"{fn.qualified_name} throws on the hot path [{chain}]"))
        for call in fn.calls:
            if call.name in THROWING_STD and call.qualifier:
                if project.allowed(fn.file, call.line, "hot-path-throw"):
                    continue
                findings.append(Finding(
                    "hot-path-throw", fn.file, call.line,
                    f"{fn.qualified_name} calls throwing std member "
                    f".{call.name}() on the hot path [{chain}]"))

    for fn, chain in _hot_closure(project, cfg, index,
                                  "hot-path-virtual").values():
        for call in fn.calls:
            if call.name not in virtual_names:
                continue
            if call.qualifier.endswith("::") or not call.qualifier:
                continue  # qualified/static calls devirtualize
            if project.allowed(fn.file, call.line, "hot-path-virtual"):
                continue
            findings.append(Finding(
                "hot-path-virtual", fn.file, call.line,
                f"{fn.qualified_name} makes virtual call "
                f"{call.qualifier}{call.name}() on the hot path "
                f"[{chain}]"))
    return findings


# --- check: exception-boundary -----------------------------------------------


def _covered(fn: FunctionInfo, line: int) -> bool:
    """Is `line` inside a try body whose catch chain stops std throws?"""
    for region in fn.trys:
        if region.start_line <= line <= region.body_end_line and \
                (region.catch_all or region.catch_std):
            return True
    return False


def _leak_summaries(project: Project, cfg: AnalyzerConfig,
                    index: CallIndex) -> Dict[int, List[Tuple[int, str]]]:
    """Per function: uncovered sites where an exception can escape it.
    Each entry is (line, description)."""
    fns = list(project.functions())
    leaks: Dict[int, List[Tuple[int, str]]] = {id(fn): [] for fn in fns}
    for fn in fns:
        out = leaks[id(fn)]
        for thr in fn.throws:
            if _covered(fn, thr.line):
                continue
            if project.allowed(fn.file, thr.line, "exception-boundary"):
                continue
            out.append((thr.line, f"throw in {fn.qualified_name}"))
        for call in fn.calls:
            may_throw = (call.name in THROWING_STD and call.qualifier) or \
                call.name in cfg.indirect_throwing_calls
            if not may_throw or _covered(fn, call.line):
                continue
            if project.allowed(fn.file, call.line, "exception-boundary"):
                continue
            what = f"indirect call {call.name}()" \
                if call.name in cfg.indirect_throwing_calls \
                else f"throwing std call .{call.name}()"
            out.append((call.line, f"{what} in {fn.qualified_name}"))
    for _ in range(20):
        changed = False
        for fn in fns:
            out = leaks[id(fn)]
            have = {line for line, _ in out}
            for call in fn.calls:
                if _covered(fn, call.line) or call.line in have:
                    continue
                if project.allowed(fn.file, call.line,
                                   "exception-boundary"):
                    continue
                for callee in index.resolve(fn, call):
                    sub = leaks[id(callee)]
                    if sub:
                        out.append((
                            call.line,
                            f"call to {callee.qualified_name} "
                            f"({sub[0][1]})"))
                        have.add(call.line)
                        changed = True
                        break
        if not changed:
            break
    return leaks


def check_exception_boundary(project: Project,
                             cfg: AnalyzerConfig) -> List[Finding]:
    index = CallIndex(project)
    leaks = _leak_summaries(project, cfg, index)
    findings: List[Finding] = []
    for fn in project.functions():
        if not any(fn.qualified_name.endswith(sfx)
                   for sfx in cfg.exception_roots):
            continue
        for line, desc in leaks[id(fn)]:
            findings.append(Finding(
                "exception-boundary", fn.file, line,
                f"exception may escape boundary {fn.qualified_name} "
                f"uncaught: {desc}"))
    return findings


# --- check: allow hygiene ----------------------------------------------------


def check_allow_reasons(project: Project,
                        cfg: AnalyzerConfig) -> List[Finding]:
    findings: List[Finding] = []
    for path, sites in project.allows.items():
        for a in sites:
            unknown = a.rules - set(ALL_RULES)
            if unknown:
                findings.append(Finding(
                    "allow-missing-reason", path, a.line,
                    f"allow() names unknown rule(s): "
                    f"{', '.join(sorted(unknown))}"))
            if not a.reason:
                findings.append(Finding(
                    "allow-missing-reason", path, a.line,
                    f"allow({', '.join(sorted(a.rules))}) carries no "
                    f"written reason — a justification is mandatory"))
    return findings


# --- check: thread-spawn -----------------------------------------------------

# Constructions that start threads: a std::thread (temporary or named
# variable) and a ThreadPool (make_shared/make_unique, new, or a named
# variable). Declarations without an initializer start nothing.
_SPAWN_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*j?thread\s*(?:[A-Za-z_]\w*\s*)?[({]"),
     "std::thread"),
    (re.compile(r"\bmake_(?:shared|unique)\s*<\s*(?:\w+\s*::\s*)*"
                r"ThreadPool\s*>"), "ThreadPool"),
    (re.compile(r"\bnew\s+(?:\w+\s*::\s*)*ThreadPool\b"), "ThreadPool"),
    (re.compile(r"\bThreadPool\s+[A-Za-z_]\w*\s*[({]"), "ThreadPool"),
]


def _spawn_allowed(path: str, fn: Optional[FunctionInfo],
                   allowlist: Sequence[str]) -> bool:
    for entry in allowlist:
        if entry.endswith((".cpp", ".h")):
            if path == entry or path.endswith("/" + entry):
                return True
        elif fn is not None and (fn.qualified_name == entry or
                                 fn.qualified_name.endswith("::" + entry)):
            return True
    return False


def check_thread_spawn(project: Project,
                       cfg: AnalyzerConfig) -> List[Finding]:
    findings: List[Finding] = []
    for path, ir in project.files.items():
        newlines = [i for i, c in enumerate(ir.code_text) if c == "\n"]
        for pat, what in _SPAWN_PATTERNS:
            for m in pat.finditer(ir.code_text):
                line = bisect.bisect_right(newlines, m.start()) + 1
                enclosing = [f for f in ir.functions
                             if f.start_line <= line <= f.end_line]
                fn = max(enclosing, key=lambda f: f.start_line,
                         default=None)
                if _spawn_allowed(path, fn, cfg.thread_spawn_allowlist):
                    continue
                if project.allowed(path, line, "thread-spawn"):
                    continue
                where = fn.qualified_name if fn else "file scope"
                findings.append(Finding(
                    "thread-spawn", path, line,
                    f"{where} constructs a {what} outside the "
                    f"thread-spawn allowlist"))
    return findings


# --- driver ------------------------------------------------------------------

CHECKS = {
    "layering": check_layering,
    "unused-include": check_unused_includes,
    "lock-order": check_lock_order,
    "lock-blocking": check_lock_blocking,
    "hot-path": check_hot_path,  # covers alloc/throw/virtual
    "exception-boundary": check_exception_boundary,
    "allow-missing-reason": check_allow_reasons,
    "thread-spawn": check_thread_spawn,
}


def run_checks(project: Project, cfg: AnalyzerConfig,
               which: Optional[Set[str]] = None) -> List[Finding]:
    findings: List[Finding] = []
    for name, fn in CHECKS.items():
        if which is not None:
            # hot-path umbrella matches any of its three rules
            if name == "hot-path":
                if not (which & {"hot-path-alloc", "hot-path-throw",
                                 "hot-path-virtual", "hot-path"}):
                    continue
            elif name not in which:
                continue
        findings.extend(fn(project, cfg))
    if which is not None and "hot-path" not in which:
        findings = [f for f in findings
                    if not f.rule.startswith("hot-path-")
                    or f.rule in which]
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    return findings
