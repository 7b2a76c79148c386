"""libclang frontend (Python clang.cindex, pinned in CI).

The AST supplies what tokens can't: real function definitions and their
callee sets (the atomic-write call graph), type-checked write sites, and
float-typed compound assignments inside lambdas. The purely lexical facts
(banned-token uses, mutex members, guard associations, allow comments)
come from the lite scanner for both frontends, so the two differ only where
the AST is strictly more precise; rules.py dedups findings by
(file, line, rule), which keeps the merged view stable.
"""

from __future__ import annotations

import os
from pathlib import Path

import frontend_lite
from model import FileFacts, FloatAccum, FunctionInfo, WriteSite

import clang.cindex as cindex

LIBCLANG_CANDIDATES = (
    "/usr/lib/llvm-14/lib/libclang-14.so.1",
    "/usr/lib/llvm-14/lib/libclang.so.1",
    "/usr/lib/x86_64-linux-gnu/libclang-14.so.1",
    "libclang-14.so.1",
    "libclang.so.1",
)

_configured = False

FUNCTION_KINDS = {
    cindex.CursorKind.FUNCTION_DECL,
    cindex.CursorKind.CXX_METHOD,
    cindex.CursorKind.CONSTRUCTOR,
    cindex.CursorKind.DESTRUCTOR,
    cindex.CursorKind.FUNCTION_TEMPLATE,
}

OFSTREAM_NAMES = {"basic_ofstream", "ofstream"}
FLOAT_KINDS = {cindex.TypeKind.FLOAT, cindex.TypeKind.DOUBLE,
               cindex.TypeKind.LONGDOUBLE}


def ensure_libclang() -> None:
    """Loads libclang, trying the pinned CI install first. Raises on
    failure; the caller decides whether that downgrades to the lite
    frontend."""
    global _configured
    if _configured:
        return
    override = os.environ.get("DLB_LIBCLANG")
    candidates = (override,) + LIBCLANG_CANDIDATES if override \
        else LIBCLANG_CANDIDATES
    last_exc: Exception | None = None
    try:
        cindex.Index.create()
        _configured = True
        return
    except Exception as exc:  # noqa: BLE001 - fall through to candidates
        last_exc = exc
    for cand in candidates:
        # set_library_file refuses once the library has loaded, but a failed
        # load leaves Config.loaded False, so retrying candidates is safe.
        try:
            cindex.Config.set_library_file(cand)
            cindex.Index.create()
            _configured = True
            return
        except Exception as exc:  # noqa: BLE001
            last_exc = exc
    raise RuntimeError(f"could not load libclang: {last_exc}")


def _bare_name(cursor) -> str:
    name = cursor.spelling or "<anon>"
    return name.split("<", 1)[0]


def _qualified(cursor) -> str:
    parts = [_bare_name(cursor)]
    parent = cursor.semantic_parent
    while parent is not None and parent.kind not in (
            cindex.CursorKind.TRANSLATION_UNIT,):
        if parent.spelling:
            parts.insert(0, _bare_name(parent))
        parent = parent.semantic_parent
    return "::".join(parts)


def _in_tree(cursor, root: Path) -> bool:
    loc = cursor.location
    if loc.file is None:
        return False
    try:
        Path(loc.file.name).resolve().relative_to(root)
        return True
    except ValueError:
        return False


def _rel_of(cursor, base: Path) -> str:
    p = Path(cursor.location.file.name).resolve()
    try:
        return p.relative_to(base).as_posix()
    except ValueError:
        return p.as_posix()


def _type_names(ctype) -> str:
    names = ctype.spelling
    decl = ctype.get_declaration()
    if decl is not None and decl.spelling:
        names += " " + decl.spelling
    return names


def _tokens(cursor) -> list[str]:
    return [t.spelling for t in cursor.get_tokens()]


class TUWalker:
    def __init__(self, root: Path, base: Path,
                 facts_by_rel: dict[str, FileFacts]):
        self.root = root
        self.base = base
        self.facts_by_rel = facts_by_rel

    def facts_for(self, cursor) -> FileFacts:
        rel = _rel_of(cursor, self.base)
        if rel not in self.facts_by_rel:
            path = Path(cursor.location.file.name).resolve()
            # Lexical facts for this file come from the lite scanner.
            self.facts_by_rel[rel] = frontend_lite.parse_file(path, rel)
        return self.facts_by_rel[rel]

    def walk(self, tu) -> None:
        for cursor in tu.cursor.get_children():
            self._visit_toplevel(cursor)

    def _visit_toplevel(self, cursor) -> None:
        if not _in_tree(cursor, self.root):
            return
        if cursor.kind in FUNCTION_KINDS and cursor.is_definition():
            self._visit_function(cursor)
            return
        for child in cursor.get_children():
            self._visit_toplevel(child)

    def _visit_function(self, cursor) -> None:
        facts = self.facts_for(cursor)
        info = FunctionInfo(name=_qualified(cursor), bare=_bare_name(cursor),
                            file=facts.rel, line=cursor.location.line)
        facts.functions.append(info)
        self._visit_body(cursor, info, facts)

    def _visit_body(self, cursor, info: FunctionInfo,
                    facts: FileFacts) -> None:
        for child in cursor.get_children():
            kind = child.kind
            if kind in FUNCTION_KINDS and child.is_definition() and \
                    child is not cursor:
                self._visit_function(child)  # local class methods
                continue
            if kind == cindex.CursorKind.CALL_EXPR:
                self._visit_call(child, info, facts)
            elif kind == cindex.CursorKind.LAMBDA_EXPR:
                pass  # only lambdas in parallel-call arg position matter
            self._visit_body(child, info, facts)

    def _visit_call(self, cursor, info: FunctionInfo,
                    facts: FileFacts) -> None:
        name = _bare_name(cursor)
        if name:
            info.calls.add(name)
        if not _in_tree(cursor, self.root):
            return
        ref = cursor.referenced
        line = cursor.location.line
        if ref is not None and ref.kind == cindex.CursorKind.CONSTRUCTOR:
            parent = ref.semantic_parent
            if parent is not None and parent.spelling in OFSTREAM_NAMES and \
                    any(True for _ in cursor.get_arguments()):
                facts.write_sites.append(WriteSite(
                    file=facts.rel, line=line, kind="ofstream",
                    function=info.bare))
        elif name == "open" and ref is not None and \
                ref.kind == cindex.CursorKind.CXX_METHOD:
            parent = ref.semantic_parent
            if parent is not None and parent.spelling in OFSTREAM_NAMES:
                facts.write_sites.append(WriteSite(
                    file=facts.rel, line=line, kind="ofstream-open",
                    function=info.bare))
        elif name == "fopen":
            toks = _tokens(cursor)
            modes = [t for t in toks if t.startswith('"')]
            if len(modes) >= 2 and any(ch in modes[-1]
                                       for ch in ("w", "a", "+")):
                facts.write_sites.append(WriteSite(
                    file=facts.rel, line=line, kind="fopen",
                    function=info.bare))
        elif name == "open" and (ref is None or ref.kind ==
                                 cindex.CursorKind.FUNCTION_DECL):
            if "O_CREAT" in _tokens(cursor):
                facts.write_sites.append(WriteSite(
                    file=facts.rel, line=line, kind="open",
                    function=info.bare))
        if name in frontend_lite.PARALLEL_ENTRY:
            for arg in cursor.get_arguments():
                self._scan_for_lambda(arg, facts)

    def _scan_for_lambda(self, cursor, facts: FileFacts) -> None:
        if cursor.kind == cindex.CursorKind.LAMBDA_EXPR:
            self._scan_lambda(cursor, facts)
            return
        for child in cursor.get_children():
            self._scan_for_lambda(child, facts)

    def _scan_lambda(self, lam, facts: FileFacts) -> None:
        toks = _tokens(lam)
        cap_end = toks.index("]") if "]" in toks else 0
        if "&" not in toks[:cap_end + 1]:
            return
        extent = lam.extent

        def visit(cursor) -> None:
            if cursor.kind == cindex.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR:
                ctoks = _tokens(cursor)
                if any(op in ctoks for op in ("+=", "-=")):
                    lhs = next(cursor.get_children(), None)
                    self._check_accum(lhs, cursor.location.line, extent,
                                      facts)
            for child in cursor.get_children():
                visit(child)

        visit(lam)

    def _check_accum(self, lhs, line: int, lam_extent, facts) -> None:
        while lhs is not None and lhs.kind in (
                cindex.CursorKind.UNEXPOSED_EXPR,
                cindex.CursorKind.PAREN_EXPR):
            lhs = next(lhs.get_children(), None)
        if lhs is None or lhs.kind != cindex.CursorKind.DECL_REF_EXPR:
            return
        if lhs.type.get_canonical().kind not in FLOAT_KINDS:
            return
        decl = lhs.referenced
        if decl is None:
            return
        dloc = decl.location
        # Declared inside the lambda (parameter or body-local): fine.
        if dloc.file is not None and lam_extent.start.file is not None and \
                dloc.file.name == lam_extent.start.file.name and \
                lam_extent.start.offset <= dloc.offset <= \
                lam_extent.end.offset:
            return
        facts.float_accums.append(FloatAccum(
            file=facts.rel, line=line, var=lhs.spelling))


def parse_tus(entries: list[tuple[Path, list[str]]], root: Path,
              base: Path) -> list[FileFacts]:
    """Parses each (source, args) TU and returns merged per-file facts for
    files under `root`. Lexical facts are filled by the lite scanner the
    first time a file is seen; the AST contributes functions, call edges,
    write sites, and lambda accumulation facts on top."""
    ensure_libclang()
    index = cindex.Index.create()
    root = root.resolve()
    base = base.resolve()
    facts_by_rel: dict[str, FileFacts] = {}
    walker = TUWalker(root, base, facts_by_rel)
    for src, args in entries:
        try:
            tu = index.parse(str(src), args=args)
        except cindex.TranslationUnitLoadError as exc:
            raise RuntimeError(f"failed to parse {src}: {exc}") from exc
        fatal = [d for d in tu.diagnostics if d.severity >=
                 cindex.Diagnostic.Error]
        if fatal:
            first = fatal[0]
            raise RuntimeError(
                f"{src}: {len(fatal)} parse error(s); first: "
                f"{first.location.file}:{first.location.line}: "
                f"{first.spelling}")
        walker.walk(tu)
    return list(facts_by_rel.values())
