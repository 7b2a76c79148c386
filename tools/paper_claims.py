#!/usr/bin/env python3
"""Checks a paper figure's claims against a campaign run of its spec.

A figure under specs/paper/ is an ordinary campaign spec whose comment
lines also carry `# record-every: N` (the figure's series stride) and
`# claim: <expr>` lines. The checker runs `dlb_campaign --spec SPEC --csv
--series-dir` into a temporary directory and evaluates every claim: a
whitelisted Python expression over the helpers final, each, first_below,
min, max and spread, documented in specs/README.md ("Paper figures").

Exit codes: 0 every claim holds; 1 a claim is false or cannot be
evaluated, a scenario errored or broke conservation, or the run failed;
2 usage error. Arguments after `--` go to dlb_campaign after the spec's,
so field overrides there (paper scale) win:

    tools/paper_claims.py --campaign build/dlb_campaign \\
        specs/paper/fig01_torus_sos_vs_fos.spec
    tools/paper_claims.py --campaign build/dlb_campaign \\
        specs/paper/fig13_hypercube.spec -- --nodes 1048576 \\
        --beta 1.4026054841552227
    tools/paper_claims.py --campaign build/dlb_campaign --self-test
"""

from __future__ import annotations

import argparse
import ast
import csv
import operator
import subprocess
import sys
import tempfile
from pathlib import Path


class ClaimError(Exception):
    """A claim that cannot be evaluated (as opposed to one that is false)."""


def read_directives(text: str) -> tuple[list[tuple[int, str]], str | None]:
    """The spec's `# claim:` lines (with line numbers) and its
    `# record-every:` stride."""
    claims: list[tuple[int, str]] = []
    stride = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        key, sep, value = line[1:].partition(":")
        if not line.startswith("#") or not sep:
            continue
        if key.strip() == "claim":
            claims.append((lineno, value.strip()))
        elif key.strip() == "record-every":
            stride = value.strip()
    return claims, stride


def number(text: str, what: str) -> int | float:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    raise ClaimError(f"{what} is {text!r}, not a number")


class Report:
    """The CSV report of one run plus its series directory; final, each and
    first_below are the claim helpers."""

    def __init__(self, rows: list[dict[str, str]], series_dir: Path):
        self.rows = rows
        self.series_dir = series_dir

    def _select(self, helper: str, sel: dict, want_one: bool) -> list[dict]:
        for key in sel:
            if key not in self.rows[0]:
                raise ClaimError(f"{helper}: no report column {key!r}")

        def matches(row: dict, key: str, want) -> bool:
            if isinstance(want, str):
                return row[key] == want
            try:
                return float(row[key]) == want
            except ValueError:
                return False

        rows = [row for row in self.rows
                if all(matches(row, k, v) for k, v in sel.items())]
        shown = ", ".join(f"{k}={v!r}" for k, v in sel.items()) or "(all rows)"
        if want_one and len(rows) != 1:
            raise ClaimError(f"{helper}: selector {shown} matches {len(rows)} "
                             "rows, need exactly 1")
        if not rows:
            raise ClaimError(f"{helper}: selector {shown} matches no row")
        return rows

    @staticmethod
    def _cell(row: dict, col: str) -> int | float:
        if col not in row:
            raise ClaimError(f"no report column {col!r}")
        return number(row[col], f"row {row['index']} {col}")

    def final(self, col, **sel):
        return self._cell(self._select("final", sel, True)[0], col)

    def each(self, col, **sel):
        return [self._cell(row, col)
                for row in self._select("each", sel, False)]

    def first_below(self, col, threshold, **sel):
        row = self._select("first_below", sel, True)[0]
        path = self.series_dir / f"{row['index']}_{row['label']}.csv"
        with path.open(newline="") as handle:
            series = list(csv.DictReader(handle))
        if not series or col not in series[0]:
            raise ClaimError(f"{path.name}: no series column {col!r}")
        for point in series:
            if number(point[col], f"{path.name} {col}") < threshold:
                return int(point["round"])
        return int(series[-1]["round"]) + 1

    def helpers(self) -> dict:
        return {"final": self.final, "each": self.each,
                "first_below": self.first_below, "min": min, "max": max,
                "spread": lambda values: max(values) - min(values)}


BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
          ast.Mult: operator.mul, ast.Div: operator.truediv}
COMPARE = {ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
           ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne}


def evaluate(node: ast.AST, helpers: dict, trace: list[str]):
    """Evaluates the whitelisted subset. Every operand is evaluated (no
    short-circuit), so a node outside the whitelist is an error wherever it
    sits in the claim."""
    def ev(child):
        return evaluate(child, helpers, trace)

    if isinstance(node, ast.Expression):
        return ev(node.body)
    if isinstance(node, ast.Constant) and \
            type(node.value) in (int, float, str):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -ev(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in BINARY:
        return BINARY[type(node.op)](ev(node.left), ev(node.right))
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        values = [ev(value) for value in node.values]
        if not all(isinstance(value, bool) for value in values):
            raise ClaimError("`and` joins comparisons only")
        return all(values)
    if isinstance(node, ast.Compare) and \
            all(type(op) in COMPARE for op in node.ops):
        values = [ev(node.left)] + [ev(c) for c in node.comparators]
        if any(isinstance(value, list) for value in values):
            raise ClaimError("each() is a list; compare min, max or spread "
                             "of it")
        return all(COMPARE[type(op)](a, b)
                   for op, a, b in zip(node.ops, values, values[1:]))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in helpers and \
            all(k.arg is not None for k in node.keywords):
        args = [ev(a) for a in node.args]
        kwargs = {k.arg: ev(k.value) for k in node.keywords}
        value = helpers[node.func.id](*args, **kwargs)
        trace.append(f"{ast.unparse(node)} = {value}")
        return value
    raise ClaimError(f"not allowed in a claim: {ast.unparse(node)}")


def check_claim(text: str, helpers: dict) -> tuple[bool, list[str]]:
    """(holds, helper trace); raises ClaimError when it cannot be judged."""
    trace: list[str] = []
    try:
        result = evaluate(ast.parse(text, mode="eval"), helpers, trace)
    except SyntaxError as failure:
        raise ClaimError(f"syntax error: {failure.msg}") from None
    except (TypeError, ValueError, ZeroDivisionError, OSError) as failure:
        raise ClaimError(str(failure)) from None
    if not isinstance(result, bool):
        raise ClaimError("a claim must be a comparison")
    return result, trace


def check_spec(spec: Path, campaign: str, extra: list[str]) -> int:
    claims, stride = read_directives(spec.read_text())
    if not claims:
        print(f"{spec}: no `# claim:` lines", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="paper_claims.") as tmp:
        report_path = Path(tmp) / "report.csv"
        series_dir = Path(tmp) / "series"
        command = [campaign, "--spec", str(spec), "--csv", str(report_path),
                   "--series-dir", str(series_dir), "--quiet"]
        if stride is not None:
            command += ["--record-every", stride]
        run = subprocess.run(command + extra, capture_output=True, text=True)
        sys.stdout.write(run.stdout)
        sys.stderr.write(run.stderr)
        if not report_path.exists():
            print(f"{spec}: dlb_campaign exited {run.returncode} without a "
                  "report", file=sys.stderr)
            return 1
        with report_path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))

        bad_rows = 0
        for row in rows:
            where = f"{spec}: scenario {row['index']} {row['label']}"
            if row["error"]:
                print(f"{where}: error: {row['error']}")
                bad_rows += 1
            elif row["conservation_ok"] != "1":
                print(f"{where}: conservation_ok = {row['conservation_ok']}")
                bad_rows += 1
        if bad_rows or not rows or run.returncode != 0:
            print(f"{spec}: run failed (exit {run.returncode}); claims not "
                  "evaluated")
            return 1

        helpers = Report(rows, series_dir).helpers()
        failed = 0
        for lineno, text in claims:
            try:
                holds, trace = check_claim(text, helpers)
            except ClaimError as failure:
                print(f"ERROR {spec}:{lineno}: {text}\n  {failure}")
                failed += 1
                continue
            print(f"{'PASS' if holds else 'FAIL'} {spec}:{lineno}: {text}")
            for line in trace:
                print(f"  {line}")
            failed += not holds
    print(f"{spec}: {len(claims) - failed}/{len(claims)} claim(s) hold")
    return 1 if failed else 0


# ---- self-test --------------------------------------------------------------

SELFTEST_SPEC = """\
name = paper-claims-selftest
topology = torus
nodes = 64
rounds = 50
tokens_per_node = 100
sweep.scheme = fos, sos
"""

# (claim, expected exit code, text the output must contain). Each case runs
# the checker as a subprocess on the tiny spec above with the claim on
# line 1, so a non-zero exit must name `<spec>:1`.
SELFTEST_CASES = [
    ('final("initial_total", scheme="sos") == 6400 and '
     'spread(each("initial_total")) == 0 and max(each("rounds")) == 50', 0,
     "PASS"),
    ('first_below("max_minus_average", 1e9, scheme="fos") == 0 < '
     'first_below("max_minus_average", -1, scheme="sos") == 51', 0, "PASS"),
    ('-final("nodes", scheme="fos") * 2 / 4 + 32 == 0', 0, "PASS"),
    ('final("initial_total", scheme="sos") > 6400', 1, "FAIL"),
    ('final("initial_total", scheme="chebyshev") == 6400', 1,
     "matches 0 rows"),
    ('final("initial_total") == 6400', 1, "matches 2 rows"),
    ('max(each("initial_total", scheme="chebyshev")) > 0', 1,
     "matches no row"),
    ('final("no_such_column", scheme="sos") > 0', 1, "no report column"),
    ('final("nodes", no_such_column=1) > 0', 1, "no report column"),
    ('__import__("os").getpid() > 0', 1, "not allowed"),
    ('final("nodes", scheme="sos") ** 2 > 0', 1, "not allowed"),
    ('final("nodes", scheme="sos") or 1 > 2', 1, "not allowed"),
    ('final("nodes", scheme="sos")', 1, "must be a comparison"),
    ('final("nodes", scheme="sos") and 1 < 2', 1, "comparisons only"),
    ('each("nodes") == 64', 1, "each() is a list"),
    ('final("nodes", scheme="sos") >', 1, "syntax error"),
]


def self_test(campaign: str) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="paper_claims_selftest.") as tmp:
        spec = Path(tmp) / "selftest.spec"
        cases = [(claim, code, want, SELFTEST_SPEC)
                 for claim, code, want in SELFTEST_CASES]
        # A scenario that errors fails the check before any claim runs.
        cases.append(("final(\"nodes\", scheme=\"sos\") > 0", 1, "error:",
                      SELFTEST_SPEC + "workload = burst\n"
                      "workload_amount = 1\nworkload_period = 0\n"))
        for claim, code, want, body in cases:
            spec.write_text(f"# claim: {claim}\n{body}")
            run = subprocess.run(
                [sys.executable, __file__, "--campaign", campaign, str(spec)],
                capture_output=True, text=True)
            output = run.stdout + run.stderr
            named = code == 0 or want == "error:" or f"{spec}:1" in output
            if run.returncode != code or want not in output or not named:
                failures += 1
                print(f"self-test FAIL: {claim!r}: exit {run.returncode} "
                      f"(want {code}), want {want!r} in output:\n{output}")
    total = len(SELFTEST_CASES) + 1
    print(f"paper_claims self-test: {total - failures}/{total} case(s) ok")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    extra: list[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, extra = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(
        description="Check a paper figure spec's claims against a campaign "
                    "run. Arguments after `--` are passed to dlb_campaign.")
    parser.add_argument("--campaign", default="build/dlb_campaign",
                        help="path to the dlb_campaign binary")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker's own failure-mode cases")
    parser.add_argument("spec", nargs="?", type=Path)
    args = parser.parse_args(argv)
    if not Path(args.campaign).is_file():
        parser.error(f"no dlb_campaign binary at {args.campaign}")
    if args.self_test:
        return self_test(args.campaign)
    if args.spec is None or not args.spec.is_file():
        parser.error("a spec file is required (or --self-test)")
    return check_spec(args.spec, args.campaign, extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
