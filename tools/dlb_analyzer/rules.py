"""The contract rules, applied to the merged facts of the whole tree.

Rules see only the frontend-neutral facts model, so the libclang and lite
frontends are interchangeable; everything here is pure Python over those
records plus the raw source lines (for allow comments).
"""

from __future__ import annotations

import re
from pathlib import Path

from model import ALLOW_TAG, FileFacts, Finding

# util/tempfile's protocol surface: a write site whose enclosing function can
# reach one of these is writing to a temp path that gets renamed into place.
TEMPFILE_ENTRY = {"temp_path_for"}

# Files that *are* the sanctioned implementation of a contract.
TEMPFILE_IMPL = ("src/util/tempfile",)

# Lexical rules over FileFacts.token_uses: rule -> (the files where the
# construct is sanctioned, what the finding tells the reader to do).
TOKEN_RULES: dict[str, tuple[tuple[str, ...], str]] = {
    "sync-wrapper": (("src/util/sync.hpp",),
                     "outside util/sync.hpp; use the annotated dlb:: "
                     "wrappers"),
    "rng-contract": (("src/util/rng.hpp",),
                     "outside util/rng.hpp's dispatch surface; derive "
                     "streams via stream_for/draw_u64/tagged_rng so "
                     "rng_version bumps stay one-file"),
    "clock": (("src/util/timer.hpp",),
              "outside util/timer.hpp; take timestamps from now_ns()"),
    "unordered": ((), "can leak hash iteration order into reports and "
                      "merges; use std::map/std::set or sort before "
                      "iterating"),
    "ptr-key": ((), "iterates in allocation order; key on a stable id "
                    "instead"),
}

ALLOW_RE = re.compile(
    rf"//\s*{ALLOW_TAG}:\s*allow\(([\w, -]+)\)\s*(.*)")

CALL_GRAPH_DEPTH = 12  # generous; repo call chains to temp_path_for are <4


def _snippet(facts_by_rel: dict[str, FileFacts], rel: str, line: int) -> str:
    facts = facts_by_rel.get(rel)
    if facts and 1 <= line <= len(facts.raw_lines):
        return facts.raw_lines[line - 1]
    return ""


def _reaches_tempfile(start: str, calls_by_bare: dict[str, set[str]]) -> bool:
    """BFS over the bare-name call graph from `start` to a tempfile entry
    point. Bare names over-approximate (any same-named function links), which
    is the safe direction: over-approximating reachability can only *miss*
    findings for same-named helpers, never invent them, and the fixture
    corpus pins the shapes that matter."""
    seen = {start}
    frontier = [start]
    for _ in range(CALL_GRAPH_DEPTH):
        nxt: list[str] = []
        for name in frontier:
            for callee in calls_by_bare.get(name, ()):  # defined callees only
                if callee in TEMPFILE_ENTRY:
                    return True
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        if not nxt:
            return False
        frontier = nxt
    return False


def run_rules(all_facts: list[FileFacts]) -> list[Finding]:
    facts_by_rel = {f.rel: f for f in all_facts}
    findings: list[Finding] = []

    # Call graph keyed by bare name; a call edge resolves only to functions
    # that are *defined* somewhere in the scanned tree, plus the tempfile
    # entry points themselves (declared in a header the TU may not define).
    calls_by_bare: dict[str, set[str]] = {}
    defined: set[str] = set()
    for facts in all_facts:
        for fn in facts.functions:
            defined.add(fn.bare)
    defined |= TEMPFILE_ENTRY
    for facts in all_facts:
        for fn in facts.functions:
            calls_by_bare.setdefault(fn.bare, set()).update(
                c for c in fn.calls if c in defined)

    ofstream_member_names = {member for facts in all_facts
                             for _, member in facts.ofstream_members}
    ofstream_member_pairs = {(cls, member) for facts in all_facts
                             for cls, member in facts.ofstream_members}

    # ---- atomic-write ------------------------------------------------------
    for facts in all_facts:
        if facts.rel.startswith(TEMPFILE_IMPL):
            continue
        for site in facts.write_sites:
            kind = site.kind
            if kind.startswith("ofstream-open?"):
                # Unresolved `obj.open(...)` / ctor-init `member(...)`: only a
                # write site if obj is a known ofstream member — matched by
                # (class, member) when the frontend knew the class (ctor-init
                # sites), by member name alone otherwise.
                ref = kind.split("?", 1)[1]
                if "::" in ref:
                    if tuple(ref.rsplit("::", 1)) not in ofstream_member_pairs:
                        continue
                elif ref not in ofstream_member_names:
                    continue
                kind = "ofstream-open"
            if site.function and _reaches_tempfile(site.function,
                                                   calls_by_bare):
                continue
            findings.append(Finding(
                file=facts.rel, line=site.line, rule="atomic-write",
                message=(f"{kind} write site in "
                         f"'{site.function or '<file scope>'}' does not "
                         "reach util/tempfile's temp_path_for; write to "
                         "temp_path_for(path) and rename into place"),
                snippet=_snippet(facts_by_rel, facts.rel, site.line)))

    # ---- lexical rules (sync-wrapper tokens, rng-contract, clock, ...) ----
    for facts in all_facts:
        for use in facts.token_uses:
            home, advice = TOKEN_RULES[use.rule]
            if facts.rel.startswith(home):
                continue
            findings.append(Finding(
                file=facts.rel, line=use.line, rule=use.rule,
                message=f"{use.what} {advice}",
                snippet=_snippet(facts_by_rel, facts.rel, use.line)))

    # ---- sync-wrapper: every dlb::mutex member guards something ----------
    guards_by_cls: dict[str, set[str]] = {}
    for facts in all_facts:
        for assoc in facts.guard_assocs:
            guards_by_cls.setdefault(assoc.cls, set()).add(assoc.mutex)
    for facts in all_facts:
        for member in facts.mutex_members:
            if member.member not in guards_by_cls.get(member.cls, set()):
                findings.append(Finding(
                    file=facts.rel, line=member.line, rule="sync-wrapper",
                    message=(f"dlb::mutex member '{member.cls}::"
                             f"{member.member}' has no DLB_GUARDED_BY("
                             f"{member.member}) field association; annotate "
                             "the data it protects"),
                    snippet=_snippet(facts_by_rel, facts.rel, member.line)))

    # ---- nondet-reduce -----------------------------------------------------
    for facts in all_facts:
        for accum in facts.float_accums:
            findings.append(Finding(
                file=facts.rel, line=accum.line, rule="nondet-reduce",
                message=(f"floating-point accumulation into by-reference "
                         f"captured '{accum.var}' inside a lambda handed to "
                         "the thread pool; combine order varies with thread "
                         "count — use executor::parallel_reduce"),
                snippet=_snippet(facts_by_rel, facts.rel, accum.line)))

    # Dedup (both frontends may be merged, or a header parsed twice).
    unique: dict[tuple[str, int, str], Finding] = {}
    for f in findings:
        unique.setdefault((f.file, f.line, f.rule), f)
    return sorted(unique.values(), key=lambda f: (f.file, f.line, f.rule))


# ---- allow comments and baseline -------------------------------------------

def apply_allows(findings: list[Finding],
                 all_facts: list[FileFacts]) -> list[Finding]:
    """Filters findings carrying a reason-bearing allow comment on the same
    line or the line above. A matching allow comment with an empty reason
    still suppresses the finding but is reported in its place, at the
    finding's line, once per line."""
    facts_by_rel = {f.rel: f for f in all_facts}
    out: list[Finding] = []
    reported_empty: set[tuple[str, int]] = set()
    for finding in findings:
        facts = facts_by_rel.get(finding.file)
        marker = None
        for line_no in (finding.line, finding.line - 1):
            if facts and 1 <= line_no <= len(facts.raw_lines):
                m = ALLOW_RE.search(facts.raw_lines[line_no - 1])
                if m and finding.rule in {r.strip()
                                          for r in m.group(1).split(",")}:
                    marker = (line_no, m.group(2).strip())
                    break
        if marker is None:
            out.append(finding)
        elif not marker[1] and \
                (finding.file, finding.line) not in reported_empty:
            reported_empty.add((finding.file, finding.line))
            out.append(Finding(
                file=finding.file, line=finding.line,
                rule="empty-allow-reason",
                message=(f"allow({finding.rule}) on line {marker[0]} has no "
                         "reason; say why the contract does not apply here"),
                snippet=finding.snippet))
    return out


def load_baseline(path: Path) -> dict[tuple[str, str], str]:
    """Baseline entries `<relpath>:<rule>: <reason>`; '#' comments and blank
    lines skipped. Raises ValueError on a reasonless entry — a baseline
    without justification is just a muted gate."""
    entries: dict[tuple[str, str], str] = {}
    if not path.exists():
        return entries
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                             start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"([^:]+):([\w-]+):\s*(.*)", line)
        if not m or not m.group(3).strip():
            raise ValueError(
                f"{path}:{i}: malformed or reasonless baseline entry "
                f"(expected '<relpath>:<rule>: <reason>'): {line}")
        entries[(m.group(1).strip(), m.group(2).strip())] = m.group(3).strip()
    return entries


def apply_baseline(findings: list[Finding], baseline_path: Path,
                   check_stale: bool = True) -> list[Finding]:
    entries = load_baseline(baseline_path)
    matched: set[tuple[str, str]] = set()
    out: list[Finding] = []
    for finding in findings:
        key = (finding.file, finding.rule)
        if key in entries:
            matched.add(key)
            continue
        out.append(finding)
    if check_stale:
        for (rel, rule), _reason in sorted(entries.items()):
            if (rel, rule) not in matched:
                out.append(Finding(
                    file=str(baseline_path), line=0, rule="stale-baseline",
                    message=(f"baseline entry '{rel}:{rule}' matched no "
                             "finding; delete it")))
    return out
