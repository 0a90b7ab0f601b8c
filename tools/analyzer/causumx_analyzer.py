#!/usr/bin/env python3
"""causumx-analyzer — whole-program architectural checks for causumx.

Four check families over the project source (see checks.ALL_RULES):
layering (module DAG), lock-order/lock-blocking (global lock acquisition
graph), hot-path-{alloc,throw,virtual} (kernel dispatch closure), and
exception-boundary (server/handler roots). Run from anywhere:

    python3 tools/analyzer/causumx_analyzer.py              # scan src/
    python3 tools/analyzer/causumx_analyzer.py --self-test  # fixtures
    python3 tools/analyzer/causumx_analyzer.py --list-rules
    python3 tools/analyzer/causumx_analyzer.py --check lock-order src/

Findings are suppressed by an inline hatch with a mandatory reason:

    // causumx-analyzer: allow(lock-blocking) sharded build intentionally
    // fans out under the slot lock; readers block on the same slot anyway.

or by the checked-in baseline (tools/analyzer/baseline.json, normally
empty — violations get fixed, not baselined). Exit codes: 0 clean,
1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import AnalyzerConfig, Finding, build_project  # noqa: E402
from cpp_frontend import walk_cpp  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

# The normative module DAG — mirrored in docs/ARCHITECTURE.md. A module
# may always include itself; everything listed is what it may reach.
DEFAULT_CONFIG = {
    "layers": {
        "util": [],
        "storage": ["util"],
        "lp": ["util"],
        "dataset": ["storage", "util"],
        "engine": ["storage", "dataset", "util"],
        "causal": ["storage", "engine", "dataset", "util"],
        "mining": ["causal", "engine", "dataset", "util"],
        "core": ["mining", "causal", "engine", "lp", "dataset", "util"],
        "datagen": ["core", "causal", "dataset", "util"],
        "baselines": ["core", "mining", "causal", "engine", "lp",
                      "dataset", "util"],
        "service": ["core", "mining", "causal", "engine", "lp",
                    "storage", "dataset", "util"],
        "stream": ["service", "core", "mining", "causal", "engine",
                   "storage", "dataset", "util"],
        "server": ["stream", "service", "util"],
    },
    "include_roots": ["src"],
    "dispatch_functions": ["GetScalarOps", "GetAvx2Ops"],
    "hot_path_roots": ["Pattern::EvaluateRange"],
    "exception_roots": ["HttpServer::AcceptLoop",
                        "HttpServer::HandleConnection"],
    "indirect_throwing_calls": ["handler_"],
    # The places that decide which threads work runs on: the pool
    # itself, a run-private engine, the service pool, the HTTP
    # transport, and the brute-force baseline's own pool.
    "thread_spawn_allowlist": [
        "util/thread_pool.cpp",
        "MakeRunEngine",
        "ExplanationService::ExplanationService",
        "HttpServer::Start",
        "baselines/brute_force.cpp",
    ],
}

FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "analyzer", "fixtures")
DEFAULT_BASELINE = os.path.join(
    REPO_ROOT, "tools", "analyzer", "baseline.json")


def collect_entries(paths, root):
    entries = []
    for p in paths:
        abs_p = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(abs_p):
            for f in walk_cpp(abs_p):
                entries.append((f, os.path.relpath(f, root)))
        elif os.path.isfile(abs_p):
            entries.append((abs_p, os.path.relpath(abs_p, root)))
        else:
            print(f"causumx-analyzer: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return entries


def load_baseline(path):
    if not os.path.exists(path):
        return set()
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return set(data.get("findings", []))


def run_scan(args) -> int:
    cfg_dict = dict(DEFAULT_CONFIG)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg_dict.update(json.load(fh))
    cfg = AnalyzerConfig.from_dict(cfg_dict)
    root = args.root or REPO_ROOT
    paths = args.paths or ["src"]
    entries = collect_entries(paths, root)
    if not entries:
        print("causumx-analyzer: nothing to scan", file=sys.stderr)
        return 2

    frontend = args.frontend
    if frontend == "auto":
        try:
            import clang_frontend
            frontend = "clang" if clang_frontend.available() else "text"
        except ImportError:
            frontend = "text"

    project = build_project(entries)
    if frontend == "clang":
        import clang_frontend
        if not clang_frontend.available():
            print("causumx-analyzer: --frontend=clang requested but "
                  "clang.cindex is not importable (apt install "
                  "python3-clang-14)", file=sys.stderr)
            return 2
        clang_irs = clang_frontend.build_project_entries(
            entries, root, args.compdb)
        if args.parity:
            return run_parity(project, clang_irs)
        # the clang parse replaces the textual IR where it succeeded;
        # files clang could not parse keep the textual fallback
        project.files.update(clang_irs)
    elif args.parity:
        print("causumx-analyzer: --parity requires --frontend=clang",
              file=sys.stderr)
        return 2

    which = set(args.check) if args.check else None
    findings = checks.run_checks(project, cfg, which)

    baseline = load_baseline(args.baseline)
    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({"findings": sorted(f.key() for f in findings)},
                      fh, indent=2)
            fh.write("\n")
        print(f"baseline written: {len(findings)} finding(s) -> "
              f"{args.baseline}")
        return 0

    fresh = [f for f in findings if f.key() not in baseline]
    grandfathered = len(findings) - len(fresh)
    for f in fresh:
        print(f.render())
    scanned = len(project.files)
    status = "clean" if not fresh else f"{len(fresh)} finding(s)"
    extra = f", {grandfathered} baselined" if grandfathered else ""
    print(f"causumx-analyzer [{frontend}]: {scanned} file(s), "
          f"{status}{extra}")
    return 1 if fresh else 0


def run_parity(project, clang_irs) -> int:
    """Report structural drift between the two frontends (never fails:
    the textual frontend is authoritative, this step is advisory)."""
    import clang_frontend
    drift = 0
    for rel, clang_ir in sorted(clang_irs.items()):
        text_ir = project.files.get(rel)
        if text_ir is None:
            continue
        a = clang_frontend.skeleton(text_ir)
        b = clang_frontend.skeleton(clang_ir)
        fa, fb = set(a["functions"]), set(b["functions"])
        for missing in sorted(fb - fa):
            print(f"parity {rel}: text frontend missed function "
                  f"{missing}")
            drift += 1
        la = len(a["acquisitions"])
        lb = len(b["acquisitions"])
        if la != lb:
            print(f"parity {rel}: acquisition count text={la} clang={lb}")
            drift += 1
    print(f"causumx-analyzer parity: {len(clang_irs)} file(s), "
          f"{drift} drift item(s) (advisory)")
    return 0


def run_self_test(args) -> int:
    if not os.path.isdir(FIXTURE_DIR):
        print(f"causumx-analyzer: fixture dir missing: {FIXTURE_DIR}",
              file=sys.stderr)
        return 2
    failures = 0
    total = 0
    for name in sorted(os.listdir(FIXTURE_DIR)):
        fdir = os.path.join(FIXTURE_DIR, name)
        if not os.path.isdir(fdir):
            continue
        total += 1
        cfg_path = os.path.join(fdir, "config.json")
        exp_path = os.path.join(fdir, "expected.json")
        cfg_dict = {}
        if os.path.exists(cfg_path):
            with open(cfg_path, "r", encoding="utf-8") as fh:
                cfg_dict = json.load(fh)
        cfg = AnalyzerConfig.from_dict(cfg_dict)
        with open(exp_path, "r", encoding="utf-8") as fh:
            expected = json.load(fh)
        entries = [(f, os.path.relpath(f, fdir))
                   for f in walk_cpp(fdir)]
        project = build_project(entries)
        findings = checks.run_checks(project, cfg)
        got = {(f.rule, f.file, f.line) for f in findings}
        want = {(e["rule"], e["file"], e["line"]) for e in expected}
        if got == want:
            print(f"  PASS {name} ({len(want)} expected finding(s))")
            continue
        failures += 1
        print(f"  FAIL {name}")
        for item in sorted(want - got):
            print(f"    missing:    {item[0]} at {item[1]}:{item[2]}")
        for item in sorted(got - want):
            match = next(f for f in findings
                         if (f.rule, f.file, f.line) == item)
            print(f"    unexpected: {match.render()}")
    print(f"causumx-analyzer self-test: {total - failures}/{total} "
          f"fixture(s) passed")
    return 1 if failures or total == 0 else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="causumx-analyzer",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to scan (default: src/)")
    ap.add_argument("--check", action="append", metavar="RULE",
                    help="run only this rule (repeatable)")
    ap.add_argument("--frontend", choices=["auto", "text", "clang"],
                    default="text",
                    help="parser backend (default: text — deterministic, "
                         "dependency-free; clang uses libclang bindings)")
    ap.add_argument("--compdb",
                    default=os.path.join(REPO_ROOT, "build",
                                         "compile_commands.json"),
                    help="compile_commands.json for the clang frontend")
    ap.add_argument("--config", help="JSON config overriding defaults")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="baseline file of grandfathered finding keys")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline from current findings")
    ap.add_argument("--root", help="repo root override (for tests)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite under tests/analyzer/")
    ap.add_argument("--parity", action="store_true",
                    help="with --frontend=clang: report frontend drift "
                         "instead of findings (advisory, always exit 0)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in checks.ALL_RULES:
            print(rule)
        return 0
    if args.check:
        bad = set(args.check) - set(checks.ALL_RULES) - {"hot-path"}
        if bad:
            print(f"causumx-analyzer: unknown rule(s): "
                  f"{', '.join(sorted(bad))} (see --list-rules)",
                  file=sys.stderr)
            return 2
    if args.self_test:
        return run_self_test(args)
    return run_scan(args)


if __name__ == "__main__":
    sys.exit(main())
