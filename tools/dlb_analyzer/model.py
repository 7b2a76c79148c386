"""Frontend-neutral facts model shared by the libclang and lite frontends.

A frontend reduces one source file (or translation unit) to `FileFacts`;
the rules in rules.py consume the merged facts of the whole tree, so both
frontends are interchangeable: whatever parses the C++ must only know how
to fill in these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx", ".hxx"}

# Allow-comment tag: `// dlb-analyzer: allow(<rule>) <reason>`.
ALLOW_TAG = "dlb-analyzer"


@dataclass
class FunctionInfo:
    """One function definition: its location and bare-name call set."""

    name: str            # qualified where the frontend knows it (a::b::f)
    bare: str            # last name component, the call-graph key
    file: str            # repo-relative posix path
    line: int
    calls: set[str] = field(default_factory=set)  # bare callee names


@dataclass
class WriteSite:
    """A file-creating write expression (ofstream ctor/open, fopen,
    open(O_CREAT))."""

    file: str
    line: int
    kind: str            # 'ofstream' | 'ofstream-open' | 'fopen' | 'open'
    function: str | None  # bare name of the enclosing function, if any


@dataclass
class TokenUse:
    """A banned-token occurrence, tagged with the lexical rule it breaks."""

    file: str
    line: int
    rule: str            # a key of rules.TOKEN_RULES
    what: str            # e.g. 'direct std::mutex', 'std::unordered_map'


@dataclass
class MutexMember:
    """A dlb::mutex-typed data member of a class/struct."""

    file: str
    line: int
    cls: str
    member: str


@dataclass
class GuardAssoc:
    """A DLB_GUARDED_BY/DLB_PT_GUARDED_BY(mutex) association in a class."""

    cls: str
    mutex: str


@dataclass
class FloatAccum:
    """Floating-point accumulation into a captured scalar inside a lambda
    passed to parallel_for/parallel_tasks."""

    file: str
    line: int
    var: str


@dataclass
class FileFacts:
    path: Path           # absolute
    rel: str             # repo-relative posix path (rule allowlists key on it)
    raw_lines: list[str] = field(default_factory=list)  # for allow comments
    functions: list[FunctionInfo] = field(default_factory=list)
    write_sites: list[WriteSite] = field(default_factory=list)
    token_uses: list[TokenUse] = field(default_factory=list)
    mutex_members: list[MutexMember] = field(default_factory=list)
    guard_assocs: list[GuardAssoc] = field(default_factory=list)
    float_accums: list[FloatAccum] = field(default_factory=list)
    ofstream_members: list[tuple[str, str]] = field(default_factory=list)
    # ^ (class, member) pairs; resolved across files by rules.py so a member
    #   declared in a header is recognized at its .cpp ctor-init open site.


@dataclass
class Finding:
    file: str
    line: int
    rule: str
    message: str
    snippet: str = ""

    def __str__(self) -> str:
        text = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        if self.snippet.strip():
            text += f"\n    {self.snippet.strip()}"
        return text
