"""Dependency-free structural C++ frontend.

Not a real parser — a tokenizer plus a brace tree plus a function-header
back-scan, which is exactly enough structure for the rules: function spans
(for the atomic-write call graph), class member lists (for the sync-wrapper
completeness check), lambda bodies in parallel-submission argument position
(for nondet-reduce), and comment/string-aware token scans (for the
banned-construct rules; the libclang frontend reuses these). Where C++ is
ambiguous the scans err toward *not* reporting; the fixture corpus pins the
supported shapes, and the libclang frontend is the authoritative walk in CI.
"""

from __future__ import annotations

import re
from pathlib import Path

from model import (FileFacts, FloatAccum, FunctionInfo, GuardAssoc,
                   MutexMember, TokenUse, WriteSite)

TOKEN_RE = re.compile(
    r"""
      (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<chr>'(?:[^'\\\n]|\\.)*')
    | (?P<num>0[xX][0-9a-fA-F']+[uUlL]*|\.?\d(?:[\w.']|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct>::|->|\+=|-=|\*=|/=|%=|&&=?|\|\|=?|<<=|>>=|==|!=|<=|>=|\+\+|--|\.\.\.|.)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "new", "delete", "throw", "static_cast", "const_cast", "dynamic_cast",
    "reinterpret_cast", "decltype", "noexcept", "case", "do", "else",
    "co_await", "co_return", "co_yield", "alignas", "static_assert",
    "defined", "assert",
}

SYNC_TYPES = {
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "condition_variable",
    "condition_variable_any", "lock_guard", "scoped_lock", "unique_lock",
    "shared_lock",
}

# splitmix64's finalizer constants: arithmetic "on (seed, node, round) words"
# outside util/rng.hpp is exactly someone re-deriving a stream by hand.
RNG_MAGIC = {"0x9e3779b97f4a7c15", "0xbf58476d1ce4e5b9", "0x94d049bb133111eb"}

# Determinism hazards that are single identifiers: ambient clock reads,
# hash-order containers, pointer-keyed ordered containers (checked for a
# `*`-terminated key type), and ambient entropy / process-state calls.
CLOCK_IDS = {"steady_clock", "system_clock", "high_resolution_clock",
             "clock_gettime", "gettimeofday"}
UNORDERED_IDS = {"unordered_map", "unordered_set", "unordered_multimap",
                 "unordered_multiset"}
ORDERED_IDS = {"map", "set", "multimap", "multiset"}
AMBIENT_CALLS = {"rand", "srand", "time", "clock"}

PARALLEL_ENTRY = {"parallel_for", "parallel_tasks"}

DECL_TYPE_TOKENS = {
    "double", "float", "auto", "int", "long", "short", "unsigned", "signed",
    "bool", "char", "size_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "ptrdiff_t",
}


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # debugging aid
        return f"{self.kind}:{self.text}@{self.line}"


def strip_comments(text: str) -> str:
    """Replaces comments with spaces (newlines preserved), leaving string
    and char literals intact."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i:i + 2])
                    i += 2
                    continue
                if text[i] == "\n":  # unterminated literal: bail to newline
                    break
                out.append(text[i])
                i += 1
            if i < n and text[i] == quote:
                out.append(quote)
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append("".join("\n" if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
            continue
        out.append(c)
        i += 1
    return "".join(out)


def tokenize(text: str) -> list[Tok]:
    tokens: list[Tok] = []
    line = 1
    pos = 0
    for match in TOKEN_RE.finditer(text):
        line += text.count("\n", pos, match.start())
        pos = match.start()
        kind = match.lastgroup or "punct"
        value = match.group()
        if value.isspace():
            continue
        tokens.append(Tok(kind, value, line))
    return tokens


def match_brace(tokens: list[Tok], open_idx: int) -> int:
    """Index of the '}' matching tokens[open_idx] == '{' (len(tokens) when
    unbalanced)."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        t = tokens[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def match_paren(tokens: list[Tok], open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(tokens)):
        t = tokens[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def skip_group_back(tokens: list[Tok], close_idx: int, open_ch: str,
                    close_ch: str) -> int:
    """Given tokens[close_idx] == close_ch, returns the index of the matching
    open_ch (or -1)."""
    depth = 0
    for i in range(close_idx, -1, -1):
        t = tokens[i].text
        if t == close_ch:
            depth += 1
        elif t == open_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


BLOCK_STOP = {";", "{", "}", "#"}
HEADER_SKIP = {"::", ",", ":", "const", "noexcept", "override", "final",
               "mutable", "->", "&", "&&", "*", "<", ">", "try", "requires"}


def classify_brace(tokens: list[Tok], idx: int):
    """Classifies a '{' at namespace/class/file scope.

    Returns one of
      ('namespace', name) | ('class', name) | ('function', qual_name,
      params_open, params_close) | ('other', None)
    """
    j = idx - 1
    if j < 0:
        return ("other", None)
    prev = tokens[j].text
    if prev in {"=", ",", "(", "return", "{", "["}:
        return ("other", None)

    # Walk the header backwards, skipping balanced groups and benign tokens,
    # remembering the leftmost (...) group reached: for a function that is
    # the parameter list.
    leftmost_group: tuple[int, int] | None = None
    k = j
    steps = 0
    while k >= 0 and steps < 400:
        steps += 1
        t = tokens[k]
        if t.text == ")":
            open_k = skip_group_back(tokens, k, "(", ")")
            if open_k < 0:
                return ("other", None)
            leftmost_group = (open_k, k)
            k = open_k - 1
            continue
        if t.text == "}":
            break  # previous definition's close: the header cannot extend past it
        if t.text == "namespace":
            name = tokens[k + 1].text if k + 1 < len(tokens) and \
                tokens[k + 1].kind == "id" else "<anon>"
            return ("namespace", name)
        if t.text in {"class", "struct", "union"}:
            if k > 0 and tokens[k - 1].text == "enum":
                return ("other", None)
            # Name: the last plain identifier between the keyword and either
            # the base-clause ':' or the '{', skipping attribute-macro
            # argument groups (class DLB_CAPABILITY("mutex") mutex { ... }).
            name = "<anon>"
            m = k + 1
            while m < idx:
                text = tokens[m].text
                if text == ":" and tokens[m].kind == "punct":
                    break
                if text == "(":
                    m = match_paren(tokens, m) + 1
                    continue
                if tokens[m].kind == "id" and text != "final":
                    name = text
                m += 1
            return ("class", name)
        if t.text == "enum":
            return ("other", None)
        if t.kind in {"id", "num", "str"} or t.text in HEADER_SKIP:
            k -= 1
            continue
        break

    if leftmost_group is None:
        return ("other", None)
    open_k, close_k = leftmost_group
    name_idx = open_k - 1
    if name_idx < 0 or tokens[name_idx].kind != "id" or \
            tokens[name_idx].text in KEYWORDS:
        return ("other", None)
    # Collect a qualified-name chain: id (:: id)* read backwards.
    parts = [tokens[name_idx].text]
    p = name_idx - 1
    while p >= 1 and tokens[p].text == "::" and tokens[p - 1].kind == "id":
        parts.insert(0, tokens[p - 1].text)
        p -= 2
    return ("function", "::".join(parts), open_k, close_k)


class LiteParser:
    def __init__(self, path: Path, rel: str, text: str | None = None):
        self.path = path
        self.rel = rel
        raw = text if text is not None else path.read_text(
            encoding="utf-8", errors="replace")
        self.facts = FileFacts(path=path, rel=rel,
                               raw_lines=raw.splitlines())
        self.tokens = tokenize(strip_comments(raw))
        self.functions: list[tuple[int, int, FunctionInfo]] = []

    # -- structure ------------------------------------------------------------

    def parse(self) -> FileFacts:
        self._walk_scopes()
        for begin, end, info in self.functions:
            self._scan_function(begin, end, info)
        self._scan_tokens_global()
        return self.facts

    def _walk_scopes(self) -> None:
        """One pass over the brace structure collecting function spans and
        class member facts."""
        tokens = self.tokens
        stack: list[tuple[str, object, int]] = []  # (kind, payload, close)

        def innermost_kind() -> str:
            return stack[-1][0] if stack else "file"

        i = 0
        while i < len(tokens):
            t = tokens[i]
            if t.text == "{":
                close = match_brace(tokens, i)
                if innermost_kind() in {"file", "namespace", "class"}:
                    klass = classify_brace(tokens, i)
                    if klass[0] == "function":
                        _, name, p_open, p_close = klass
                        qual = self._qualify(stack, name)
                        info = FunctionInfo(name=qual,
                                            bare=name.split("::")[-1],
                                            file=self.rel, line=t.line)
                        self.facts.functions.append(info)
                        # Span includes the ctor-init list (between the
                        # parameter ')' and the body '{').
                        self.functions.append((p_close + 1, close, info))
                        stack.append(("function", info, close))
                    elif klass[0] == "class":
                        self._scan_class_members(i + 1, close, klass[1])
                        stack.append(("class", klass[1], close))
                    elif klass[0] == "namespace":
                        stack.append(("namespace", klass[1], close))
                    else:
                        stack.append(("other", None, close))
                else:
                    stack.append(("block", None, close))
            elif t.text == "}":
                while stack and stack[-1][2] <= i:
                    stack.pop()
            i += 1

    @staticmethod
    def _qualify(stack, name: str) -> str:
        parts = [payload for kind, payload, _ in stack
                 if kind in {"namespace", "class"} and isinstance(payload, str)
                 and payload != "<anon>"]
        return "::".join(parts + [name])

    def _scan_class_members(self, begin: int, end: int, cls: str) -> None:
        """Member-level facts: dlb::mutex members, DLB_GUARDED_BY
        associations, std::ofstream members. Only scans the class's own
        depth (nested function bodies are handled as functions)."""
        tokens = self.tokens
        i = begin
        while i < end:
            t = tokens[i]
            if t.text == "{":  # method body or nested class: skip here
                i = match_brace(tokens, i) + 1
                continue
            if t.kind == "id":
                if t.text == "mutex" and not self._preceded_by_std(i):
                    nxt = tokens[i + 1] if i + 1 < end else None
                    nxt2 = tokens[i + 2] if i + 2 < end else None
                    if nxt is not None and nxt.kind == "id" and \
                            nxt2 is not None and nxt2.text == ";":
                        self.facts.mutex_members.append(MutexMember(
                            file=self.rel, line=t.line, cls=cls,
                            member=nxt.text))
                elif t.text in {"DLB_GUARDED_BY", "DLB_PT_GUARDED_BY"}:
                    if i + 2 < end and tokens[i + 1].text == "(" and \
                            tokens[i + 2].kind == "id":
                        self.facts.guard_assocs.append(GuardAssoc(
                            cls=cls, mutex=tokens[i + 2].text))
                elif t.text in {"ofstream", "basic_ofstream"}:
                    nxt = tokens[i + 1] if i + 1 < end else None
                    nxt2 = tokens[i + 2] if i + 2 < end else None
                    if nxt is not None and nxt.kind == "id" and \
                            nxt2 is not None and nxt2.text == ";":
                        self.facts.ofstream_members.append((cls, nxt.text))
            i += 1

    def _preceded_by_std(self, i: int) -> bool:
        return i >= 2 and self.tokens[i - 1].text == "::" and \
            self.tokens[i - 2].text == "std"

    # -- function bodies ------------------------------------------------------

    def _scan_function(self, begin: int, end: int, info: FunctionInfo) -> None:
        tokens = self.tokens
        local_ofstreams: set[str] = set()
        i = begin
        while i < end:
            t = tokens[i]
            if t.kind == "id":
                nxt = tokens[i + 1].text if i + 1 < len(tokens) else ""
                if nxt == "(" and t.text not in KEYWORDS:
                    info.calls.add(t.text)
                    if t.text in PARALLEL_ENTRY:
                        self._scan_parallel_call(i + 1, info)
                    elif t.text == "fopen":
                        self._record_fopen(i + 1, info)
                    elif t.text == "open" and not self._is_member_access(i):
                        self._record_open_creat(i + 1, info)
                # std::ofstream out(path...) / std::ofstream out{path...}
                if t.text in {"ofstream", "basic_ofstream"} and \
                        i + 1 < end and tokens[i + 1].kind == "id":
                    opener = tokens[i + 2].text if i + 2 < end else ""
                    if opener in {"(", "{"}:
                        self.facts.write_sites.append(WriteSite(
                            file=self.rel, line=t.line, kind="ofstream",
                            function=info.bare))
                    elif opener == ";":
                        local_ofstreams.add(tokens[i + 1].text)
                # out.open(path) on an ofstream local or member
                if t.text == "open" and self._is_member_access(i) and \
                        i + 1 < end and tokens[i + 1].text == "(":
                    obj = tokens[i - 2].text if i >= 2 else ""
                    if obj in local_ofstreams:
                        self.facts.write_sites.append(WriteSite(
                            file=self.rel, line=t.line, kind="ofstream-open",
                            function=info.bare))
                    else:
                        # Possibly a member declared in another file; record
                        # for cross-file resolution against ofstream_members.
                        self.facts.write_sites.append(WriteSite(
                            file=self.rel, line=t.line,
                            kind=f"ofstream-open?{obj}",
                            function=info.bare))
            i += 1

        # Ctor-init-list opens of ofstream members: `X::X(...) : out_(path)`.
        # The init list is the prefix of the span, before the body '{'; only
        # constructors (bare name == class name) have one.
        parts = info.name.split("::")
        cls = parts[-2] if len(parts) >= 2 and parts[-1] == parts[-2] else None
        i = begin
        while cls is not None and i < end and tokens[i].text != "{":
            t = tokens[i]
            if t.kind == "id" and i + 1 < end and \
                    tokens[i + 1].text == "(" and \
                    (i == begin or tokens[i - 1].text in {":", ","}):
                closer = match_paren(tokens, i + 1)
                if closer > i + 2:  # non-empty argument list
                    self.facts.write_sites.append(WriteSite(
                        file=self.rel, line=t.line,
                        kind=f"ofstream-open?{cls}::{t.text}",
                        function=info.bare))
            i += 1

    def _is_member_access(self, i: int) -> bool:
        return i >= 1 and self.tokens[i - 1].text in {".", "->"}

    def _record_fopen(self, paren: int, info: FunctionInfo) -> None:
        close = match_paren(self.tokens, paren)
        mode = next((t.text for t in self.tokens[paren:close]
                     if t.kind == "str" and
                     any(m in t.text for m in ("w", "a", "+"))), None)
        has_any_str = any(t.kind == "str"
                          for t in self.tokens[paren:close])
        if mode is not None or not has_any_str:
            self.facts.write_sites.append(WriteSite(
                file=self.rel, line=self.tokens[paren].line, kind="fopen",
                function=info.bare))

    def _record_open_creat(self, paren: int, info: FunctionInfo) -> None:
        close = match_paren(self.tokens, paren)
        if any(t.text == "O_CREAT" for t in self.tokens[paren:close]):
            self.facts.write_sites.append(WriteSite(
                file=self.rel, line=self.tokens[paren].line, kind="open",
                function=info.bare))

    # -- nondet-reduce: lambdas handed to the parallel entry points ----------

    def _scan_parallel_call(self, paren: int, info: FunctionInfo) -> None:
        tokens = self.tokens
        close = match_paren(tokens, paren)
        i = paren + 1
        while i < close:
            if tokens[i].text == "[" and tokens[i - 1].text in {"(", ","}:
                i = self._scan_lambda(i, close, info)
            elif tokens[i].text == "(":
                i = match_paren(tokens, i) + 1
            else:
                i += 1

    def _scan_lambda(self, open_bracket: int, limit: int,
                     info: FunctionInfo) -> int:
        tokens = self.tokens
        # Capture list.
        cap_end = open_bracket + 1
        while cap_end < limit and tokens[cap_end].text != "]":
            cap_end += 1
        captures = tokens[open_bracket + 1:cap_end]
        has_ref_capture = any(t.text in {"&", "&&"} for t in captures)

        declared: set[str] = set()
        i = cap_end + 1
        if i < limit and tokens[i].text == "(":
            p_close = match_paren(tokens, i)
            declared.update(t.text for t in tokens[i + 1:p_close]
                            if t.kind == "id")
            i = p_close + 1
        while i < limit and tokens[i].text != "{":
            i += 1
        if i >= limit:
            return cap_end + 1
        body_open, body_close = i, match_brace(tokens, i)

        j = body_open + 1
        while j < body_close:
            t = tokens[j]
            if t.kind == "id" and j >= 1 and \
                    tokens[j - 1].text in DECL_TYPE_TOKENS | {"&", "*"}:
                declared.add(t.text)
            if t.text in {"+=", "-="}:
                lhs = tokens[j - 1]
                before = tokens[j - 2].text if j >= 2 else ""
                if lhs.kind == "id" and before not in {".", "->", "]"} and \
                        lhs.text not in declared and has_ref_capture and \
                        self._is_float_var(lhs.text):
                    self.facts.float_accums.append(FloatAccum(
                        file=self.rel, line=t.line, var=lhs.text))
            if t.text == "=" and t.kind == "punct" and j + 1 < body_close:
                # id = std::accumulate(...) / id = std::reduce(...)
                callee = None
                k = j + 1
                if tokens[k].text == "std" and k + 2 < body_close and \
                        tokens[k + 1].text == "::":
                    callee = tokens[k + 2].text
                elif tokens[k].kind == "id":
                    callee = tokens[k].text
                lhs = tokens[j - 1]
                if callee in {"accumulate", "reduce"} and \
                        lhs.kind == "id" and lhs.text not in declared and \
                        has_ref_capture and self._is_float_var(lhs.text):
                    self.facts.float_accums.append(FloatAccum(
                        file=self.rel, line=t.line, var=lhs.text))
            j += 1
        return body_close + 1

    def _is_float_var(self, name: str) -> bool:
        """True when the file declares `name` with a floating-point type
        (including `auto x = <float literal>`). Unknown types stay silent —
        integer accumulation is order-independent and TSan's problem, not
        this rule's."""
        tokens = self.tokens
        for i, t in enumerate(tokens):
            if t.kind != "id" or t.text != name or i == 0:
                continue
            prev = tokens[i - 1].text
            if prev in {"&", "*"} and i >= 2:
                prev = tokens[i - 2].text
            if prev in {"double", "float"}:
                return True
            if prev == "auto" and i + 2 < len(tokens) and \
                    tokens[i + 1].text == "=" and tokens[i + 2].kind == "num" \
                    and ("." in tokens[i + 2].text
                         or tokens[i + 2].text.endswith(("f", "F"))):
                return True
        return False

    # -- context-free token scans --------------------------------------------

    def _use(self, rule: str, t: Tok, what: str) -> None:
        self.facts.token_uses.append(TokenUse(
            file=self.rel, line=t.line, rule=rule, what=what))

    def _ambient_call(self, i: int) -> bool:
        """`rand(`/`time(`/... as a free or std:: call, not as a member
        (`x.time(`, `p->clock(`), another namespace's (`ns::time(`,
        `stopwatch::time(` in a qualified declarator) or a declaration: the
        name after a type name or `auto` (`double time() const;`,
        `auto rand() -> int;`) or after `~`."""
        prev_tok = self.tokens[i - 1] if i else None
        prev = prev_tok.text if prev_tok is not None else ""
        if prev in {".", "->", "~"}:
            return False
        if prev_tok is not None and prev_tok.kind == "id" and \
                prev not in KEYWORDS:
            return False
        if prev == "::":
            return self._preceded_by_std(i) and (
                i < 3 or self.tokens[i - 3].text not in {"::", ".", "->"})
        return True

    def _pointer_key(self, i: int) -> bool:
        """std::map/set whose key type, written on one line, ends in `*`."""
        tokens = self.tokens
        if i + 1 >= len(tokens) or tokens[i + 1].text != "<":
            return False
        j = i + 2
        while j < len(tokens) and tokens[j].line == tokens[i].line:
            if tokens[j].text == "<":
                return False
            if tokens[j].text in {",", ">"}:
                return j > i + 2 and tokens[j - 1].text == "*"
            j += 1
        return False

    def _scan_tokens_global(self) -> None:
        tokens = self.tokens
        for i, t in enumerate(tokens):
            nxt = tokens[i + 1].text if i + 1 < len(tokens) else ""
            if t.kind == "id":
                if t.text in SYNC_TYPES and self._preceded_by_std(i):
                    self._use("sync-wrapper", t, f"direct std::{t.text}")
                elif t.text in CLOCK_IDS:
                    self._use("clock", t, f"direct {t.text} read")
                elif t.text in UNORDERED_IDS:
                    self._use("unordered", t, f"std::{t.text}")
                elif t.text in ORDERED_IDS and self._preceded_by_std(i) and \
                        self._pointer_key(i):
                    self._use("ptr-key", t, f"pointer-keyed std::{t.text}")
                elif t.text == "random_device":
                    self._use("rng-contract", t, "std::random_device")
                elif t.text in AMBIENT_CALLS and nxt == "(" and \
                        self._ambient_call(i):
                    self._use("rng-contract", t, f"ambient {t.text}() call")
                elif t.text == "xoshiro256ss":
                    prev = tokens[i - 1].text if i else ""
                    if prev in {"struct", "class"}:
                        continue  # the type's own definition, not a use
                    if nxt in {"{", "("} or (
                            i + 2 < len(tokens) and
                            tokens[i + 1].kind == "id" and
                            tokens[i + 2].text in {"{", "(", ";"}):
                        self._use("rng-contract", t,
                                  "xoshiro256ss construction")
                elif t.text == "splitmix64" and nxt == "(":
                    self._use("rng-contract", t, "splitmix64() call")
            elif t.kind == "num":
                norm = t.text.lower().replace("'", "")
                norm = norm.rstrip("ul")
                if norm in RNG_MAGIC:
                    self._use("rng-contract", t,
                              f"stream-derivation constant {norm}")


def parse_file(path: Path, rel: str, text: str | None = None) -> FileFacts:
    return LiteParser(path, rel, text).parse()
