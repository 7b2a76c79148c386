"""CLI for the dlb contract analyzer.

    python3 tools/dlb_analyzer --root src              # analyze the tree
    python3 tools/dlb_analyzer --self-test tests/analyzer_fixtures

Exit codes: 0 clean, 1 findings (or self-test mismatch), 2 usage/environment
error, the convention tools/check.sh aggregates.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import frontend_lite
from model import SOURCE_SUFFIXES, FileFacts
from rules import apply_allows, apply_baseline, run_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.txt"


def _load_clang_frontend(quiet: bool):
    try:
        import frontend_clang
        frontend_clang.ensure_libclang()
        return frontend_clang
    except Exception as exc:  # noqa: BLE001 - any failure means "unavailable"
        if not quiet:
            print(f"note: libclang frontend unavailable ({exc})",
                  file=sys.stderr)
        return None


def collect_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*")
                  if p.suffix in SOURCE_SUFFIXES and p.is_file())


def parse_tree(root: Path, frontend: str, compdb: str | None,
               base: Path) -> tuple[list[FileFacts], str]:
    """Parses every source file under root; returns (facts, frontend used).

    The clang frontend walks the TUs listed in compile_commands.json (headers
    arrive via inclusion); the lite frontend parses each file independently.
    Both fill the same facts model, and rules.py dedups, so 'clang' merges a
    lite pass over headers the compdb's TUs never include.
    """
    files = collect_files(root)
    lite_facts = [frontend_lite.parse_file(p, p.relative_to(base).as_posix())
                  for p in files]
    if frontend == "lite":
        return lite_facts, "lite"

    clang = _load_clang_frontend(quiet=(frontend == "auto"))
    if clang is None:
        if frontend == "clang":
            print("error: --frontend clang requested but clang.cindex is "
                  "not importable (apt: python3-clang-14 libclang-14-dev)",
                  file=sys.stderr)
            sys.exit(2)
        return lite_facts, "lite"

    import compdb as compdb_mod
    db = compdb_mod.find_compdb(base, compdb)
    if db is None:
        if frontend == "clang":
            print("error: no compile_commands.json found (configure with "
                  "cmake -B build -S . to export one)", file=sys.stderr)
            sys.exit(2)
        return lite_facts, "lite"

    clang_facts = clang.parse_tus(compdb_mod.tu_entries(db, root), root, base)
    covered = {f.rel for f in clang_facts}
    merged = clang_facts + [f for f in lite_facts if f.rel not in covered]
    return merged, "clang"


def analyze(args) -> int:
    base = Path(args.base).resolve()
    root = (base / args.root).resolve()
    if not root.is_dir():
        print(f"error: no such directory: {root}", file=sys.stderr)
        return 2
    facts, used = parse_tree(root, args.frontend, args.compdb, base)
    findings = apply_allows(run_rules(facts), facts)
    try:
        findings = apply_baseline(findings, Path(args.baseline))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for f in findings:
        print(f)
    rule_counts = Counter(f.rule for f in findings)
    summary = ", ".join(f"{r}: {n}" for r, n in sorted(rule_counts.items()))
    print(f"contract analyzer [{used}]: {len(findings)} finding(s)"
          + (f" ({summary})" if summary else "")
          + f" across {len(facts)} file(s)", file=sys.stderr)
    return 1 if findings else 0


def self_test(args) -> int:
    """Runs each fixture through the full pipeline and compares the multiset
    of reported rules against its `// analyze-expect: <rule>` comments."""
    base = Path(args.base).resolve()
    fixtures = (base / args.self_test).resolve()
    if not fixtures.is_dir():
        print(f"error: no such fixture directory: {fixtures}",
              file=sys.stderr)
        return 2
    use_clang = None
    if args.frontend in ("clang", "auto"):
        use_clang = _load_clang_frontend(quiet=(args.frontend == "auto"))
        if use_clang is None and args.frontend == "clang":
            print("error: --frontend clang requested but clang.cindex is "
                  "not importable", file=sys.stderr)
            return 2
    frontends = {"lite": frontend_lite}
    if use_clang is not None:
        frontends["clang"] = use_clang

    fixture_baseline = fixtures / "baseline.txt"
    failures = 0
    total = 0
    for name, fe in sorted(frontends.items()):
        for path in sorted(fixtures.glob("*.cpp")):
            total += 1
            rel = path.name
            if name == "clang":
                facts = fe.parse_tus([(path, ["-std=c++20"])],
                                     fixtures, fixtures)
            else:
                facts = [frontend_lite.parse_file(path, rel)]
            findings = apply_allows(run_rules(facts), facts)
            if fixture_baseline.exists():
                findings = apply_baseline(findings, fixture_baseline,
                                          check_stale=False)
            expected = Counter()
            for line in path.read_text(encoding="utf-8").splitlines():
                if "analyze-expect:" in line:
                    tag = line.split("analyze-expect:", 1)[1].strip()
                    expected[tag] += 1
            actual = Counter(f.rule for f in findings)
            if expected != actual:
                failures += 1
                print(f"SELF-TEST FAIL [{name}] {rel}:")
                print(f"  expected: {dict(sorted(expected.items())) or '{}'}")
                print(f"  actual:   {dict(sorted(actual.items())) or '{}'}")
                for f in findings:
                    print(f"    {f}")
    print(f"self-test [{'+'.join(sorted(frontends))}]: "
          f"{total - failures}/{total} fixture runs passed",
          file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="dlb_analyzer",
        description="static contract analyzer: atomic-write, "
                    "sync-wrapper, rng-contract, nondet-reduce, clock, "
                    "unordered, ptr-key")
    ap.add_argument("--root", default="src",
                    help="directory to analyze, relative to --base "
                         "(default: src)")
    ap.add_argument("--base", default=str(REPO_ROOT),
                    help="repo root for relative paths (default: the repo "
                         "containing this tool)")
    ap.add_argument("--frontend", choices=("auto", "clang", "lite"),
                    default="auto",
                    help="auto = libclang when importable, else the "
                         "dependency-free structural parser")
    ap.add_argument("--compdb", default=None,
                    help="explicit compile_commands.json path")
    ap.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                    help="baseline file of '<relpath>:<rule>: <reason>' "
                         "entries")
    ap.add_argument("--self-test", metavar="DIR", default=None,
                    help="run the fixture corpus in DIR instead of "
                         "analyzing --root")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test(args)
    return analyze(args)


if __name__ == "__main__":
    sys.exit(main())
