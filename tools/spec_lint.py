#!/usr/bin/env python3
"""Static validation of specs/*.spec against the scenario registry.

A campaign spec is cheap to mistype and expensive to discover at run time: a
typo'd field name or a 2^20-node sweep with an out-of-range value fails hours
into compute (or worse, silently runs the wrong experiment). This linter
re-implements the read-side grammar of src/campaign/spec.cpp and the value
tables of the registry/resolvers, so a bad spec fails in CI in milliseconds.

Rules
  malformed-line   a non-comment line that is not `key = value`
  unknown-key      key (or sweep.<field>) not in spec.cpp's field_names()
  bad-value        enum value outside the registry's table, non-numeric
                   number, non-finite topology_param, rng_version not in {1,2}
  out-of-range     numeric value outside the executor's accepted range
  malformed-sweep  empty sweep list, duplicate entries in one axis, axis over
                   `name`, or expansion beyond the 1e6 scenario cap
  duplicate-key    the same scalar key assigned twice

The value tables are duplicated from C++ by design (this tool must not need
a build); `--check-tables` compares them with the name lists in
src/campaign/registry.cpp both ways and fails when they drift.

Exit codes: 0 clean, 1 findings/self-test mismatch, 2 usage error.

    python3 tools/spec_lint.py specs/*.spec
    python3 tools/spec_lint.py --check-tables src specs/*.spec
    python3 tools/spec_lint.py --self-test tests/spec_fixtures
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections import Counter
from pathlib import Path

# ---- value tables (mirrors of the C++ single sources of truth) --------------

# Accepted names per enum field, mirroring registry::value_names() in
# src/campaign/registry.cpp (REGISTRY_CPP); --check-tables compares the two.
ENUM_TABLES: dict[str, set[str]] = {
    "topology": {"torus", "grid", "hypercube", "cycle", "path", "complete",
                 "star", "random_regular", "erdos_renyi", "rgg"},
    "load": {"point", "balanced", "random", "wavefront", "bimodal",
             "adversarial_corner"},
    "workload": {"static", "poisson", "burst", "drain"},
    "scheme": {"fos", "sos", "chebyshev"},
    "rounding": {"randomized", "floor", "nearest", "bernoulli_edge"},
    "process": {"discrete", "continuous", "cumulative"},
    "policy": {"allow", "prevent"},
    "alpha": {"max_degree_plus_one", "uniform_gamma_d"},
    "speeds": {"uniform", "bimodal", "zipf"},
    "switch": {"never", "at_round", "local", "global"},
}
REGISTRY_CPP = "campaign/registry.cpp"

INT_FIELDS = {"nodes", "rounds", "tokens_per_node", "workload_amount",
              "workload_period", "rng_version", "seed"}
FLOAT_FIELDS = {"topology_param", "alpha_gamma", "speed_value", "speed_shape",
                "beta", "switch_value", "workload_rate"}

FIELD_NAMES = (set(ENUM_TABLES) | INT_FIELDS | FLOAT_FIELDS)

# Minimum (and for rng_version exact) numeric constraints, from
# spec.cpp/campaign_executor.cpp argument checks.
INT_MIN = {"nodes": 1, "rounds": 0, "tokens_per_node": 0,
           "workload_amount": 0, "workload_period": 1, "seed": 0}
FLOAT_MIN = {"workload_rate": 0.0}

EXPANSION_CAP = 1_000_000
EXPECT_TAG = "spec-lint-expect:"


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, \
            message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def check_value(field: str, value: str, where: str) -> tuple[str, str] | None:
    """Returns (rule, message) when `value` is invalid for `field`."""
    if field in ENUM_TABLES:
        table = ENUM_TABLES[field]
        if value not in table:
            return ("bad-value",
                    f"{where}: '{value}' is not a known {field} "
                    f"(one of: {', '.join(sorted(table))})")
        return None
    if field in INT_FIELDS:
        try:
            parsed = int(value, 10)
        except ValueError:
            return ("bad-value", f"{where}: bad integer '{value}'")
        if field == "rng_version" and parsed not in (1, 2):
            return ("bad-value",
                    f"{where}: rng_version must be 1 (xoshiro streams) or "
                    f"2 (counter-based draws), got {parsed}")
        minimum = INT_MIN.get(field)
        if minimum is not None and parsed < minimum:
            return ("out-of-range",
                    f"{where}: {field} must be >= {minimum}, got {parsed}")
        return None
    if field in FLOAT_FIELDS:
        try:
            parsed = float(value)
        except ValueError:
            return ("bad-value", f"{where}: bad number '{value}'")
        if field == "topology_param" and not math.isfinite(parsed):
            return ("bad-value",
                    f"{where}: topology_param must be finite, got '{value}'")
        minimum = FLOAT_MIN.get(field)
        if minimum is not None and not (parsed >= minimum):
            return ("out-of-range",
                    f"{where}: {field} must be >= {minimum}, got {value}")
        return None
    return None  # unknown fields are reported as unknown-key, not here


def lint_spec(path: Path, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    seen_scalar: dict[str, int] = {}
    seen_axes: dict[str, int] = {}
    axis_sizes: list[int] = []

    def add(line: int, rule: str, message: str) -> None:
        findings.append(Finding(rel, line, rule, message))

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [Finding(rel, 0, "malformed-line", f"unreadable: {exc}")]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            add(line_no, "malformed-line",
                f"expected 'key = value', got '{line}'")
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if not key:
            add(line_no, "malformed-line", "empty key before '='")
            continue

        if key == "name":
            if not value:
                add(line_no, "bad-value", "empty campaign name")
        elif key.startswith("sweep."):
            field = key[len("sweep."):]
            if field == "name" or field not in FIELD_NAMES:
                add(line_no, "unknown-key" if field != "name"
                    else "malformed-sweep",
                    f"'{field}' is not a sweepable scenario field")
                continue
            if field in seen_axes:
                add(line_no, "duplicate-key",
                    f"sweep axis '{field}' already defined on line "
                    f"{seen_axes[field]}")
            seen_axes[field] = line_no
            values = [v.strip() for v in value.split(",")]
            values = [v for v in values if v]
            if not values:
                add(line_no, "malformed-sweep",
                    f"empty sweep list for '{field}'")
                continue
            dupes = [v for v, n in Counter(values).items() if n > 1]
            if dupes:
                add(line_no, "malformed-sweep",
                    f"duplicate sweep value(s) for '{field}': "
                    f"{', '.join(sorted(dupes))}")
            axis_sizes.append(len(set(values)))
            for v in values:
                issue = check_value(field, v, f"sweep.{field}")
                if issue:
                    add(line_no, *issue)
        elif key == "seeds":
            try:
                count = int(value, 10)
            except ValueError:
                add(line_no, "bad-value", f"bad integer for seeds: '{value}'")
                continue
            if count < 1:
                add(line_no, "out-of-range",
                    f"seeds must be >= 1, got {count}")
            else:
                axis_sizes.append(count)
        elif key not in FIELD_NAMES:
            add(line_no, "unknown-key",
                f"unknown scenario field '{key}' (see field_names() in "
                "src/campaign/spec.cpp)")
        else:
            if key in seen_scalar:
                add(line_no, "duplicate-key",
                    f"'{key}' already set on line {seen_scalar[key]}; the "
                    "later value silently wins")
            seen_scalar[key] = line_no
            issue = check_value(key, value, key)
            if issue:
                add(line_no, *issue)

    expansion = 1
    for size in axis_sizes:
        expansion *= size
    if expansion > EXPANSION_CAP:
        add(0, "malformed-sweep",
            f"sweep expands to {expansion} scenarios, beyond the "
            f"{EXPANSION_CAP} cap enforced at run time")
    return findings


# ---- drift guard ------------------------------------------------------------

def cpp_value_lists(text: str) -> dict[str, set[str]]:
    """The name lists in registry.cpp: value_names()'s `{"field", {...}}`
    entries, plus the topology family table's `{"name", <uses_seed>,` rows."""
    lists = {m.group(1): set(re.findall(r'"(\w+)"', m.group(2)))
             for m in re.finditer(r'\{"(\w+)",\s*\{([^{}]*)\}\}', text)}
    lists["topology"] = set(re.findall(
        r'^\s*\{"(\w+)",\s*(?:true|false),', text, re.MULTILINE))
    return lists


def check_tables(src_root: Path) -> list[str]:
    """Compares ENUM_TABLES with the C++ name lists both ways, and checks
    every field name still appears in spec.cpp, so edits to either side
    can't silently outrun the other."""
    problems: list[str] = []
    registry = src_root / REGISTRY_CPP
    if not registry.exists():
        return [f"src/{REGISTRY_CPP}: file missing"]
    cpp = cpp_value_lists(
        registry.read_text(encoding="utf-8", errors="replace"))
    for field in sorted(set(ENUM_TABLES) | set(cpp)):
        ours, theirs = ENUM_TABLES.get(field, set()), cpp.get(field, set())
        for value in sorted(ours - theirs):
            problems.append(
                f"src/{REGISTRY_CPP}: '{value}' (table for '{field}') not "
                "found; update ENUM_TABLES in tools/spec_lint.py")
        for value in sorted(theirs - ours):
            problems.append(
                f"src/{REGISTRY_CPP}: '{value}' accepted for '{field}' but "
                "missing from ENUM_TABLES in tools/spec_lint.py")
    spec_cpp = src_root / "campaign/spec.cpp"
    if spec_cpp.exists():
        text = spec_cpp.read_text(encoding="utf-8", errors="replace")
        for field in sorted(FIELD_NAMES):
            if f'"{field}"' not in text:
                problems.append(
                    f"src/campaign/spec.cpp: field '{field}' not found; "
                    "update tools/spec_lint.py")
    else:
        problems.append("src/campaign/spec.cpp: file missing")
    return problems


# ---- self-test --------------------------------------------------------------

def self_test(fixture_dir: Path) -> int:
    failures = 0
    fixtures = sorted(fixture_dir.glob("*.spec"))
    if not fixtures:
        print(f"error: no .spec fixtures in {fixture_dir}", file=sys.stderr)
        return 2
    for path in fixtures:
        expected = Counter()
        for line in path.read_text(encoding="utf-8").splitlines():
            if EXPECT_TAG in line:
                expected[line.split(EXPECT_TAG, 1)[1].strip()] += 1
        actual = Counter(f.rule for f in lint_spec(path, path.name))
        if expected != actual:
            failures += 1
            print(f"SELF-TEST FAIL {path.name}:")
            print(f"  expected: {dict(sorted(expected.items())) or '{}'}")
            print(f"  actual:   {dict(sorted(actual.items())) or '{}'}")
            for f in lint_spec(path, path.name):
                print(f"    {f}")
    print(f"spec-lint self-test: {len(fixtures) - failures}/{len(fixtures)} "
          f"fixtures passed", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="spec_lint",
        description="validate campaign .spec files against the scenario "
                    "registry")
    ap.add_argument("specs", nargs="*", help=".spec files to lint")
    ap.add_argument("--check-tables", metavar="SRC",
                    help="also verify the value tables against the C++ "
                         "sources under SRC")
    ap.add_argument("--self-test", metavar="DIR",
                    help="run the fixture corpus in DIR")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(Path(args.self_test))
    if not args.specs:
        ap.error("no spec files given (or use --self-test)")

    status = 0
    if args.check_tables:
        problems = check_tables(Path(args.check_tables))
        for p in problems:
            print(f"table-drift: {p}")
        if problems:
            status = 1

    total = 0
    for spec in args.specs:
        path = Path(spec)
        findings = lint_spec(path, spec)
        for f in findings:
            print(f)
        total += len(findings)
    print(f"spec-lint: {total} finding(s) across {len(args.specs)} spec(s)",
          file=sys.stderr)
    return 1 if (total or status) else status


if __name__ == "__main__":
    sys.exit(main())
