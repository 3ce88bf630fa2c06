#!/usr/bin/env python3
"""AST-grounded determinism analyzer for the milback tree.

`physics_lint.py` is the fast textual gate (rules R1-R9); this tool is the
semantic gate. It is driven by the build's `compile_commands.json` and checks
properties that a regex cannot see through typedefs, `auto`, aliases, or
qualified names:

  A1  contract coverage: every public function declared in a
      `src/milback/*/` header with at least one parameter and a non-trivial
      definition must contain a MILBACK_REQUIRE / MILBACK_ENSURE (or a
      `require_*` domain guard), or carry an explicit waiver.
  A2  ordering-sensitive iteration: iterating a `std::unordered_map` /
      `std::unordered_set` (also via typedefs/aliases/`auto`) inside any
      function that transitively writes a report or export type
      (CellReport, CsvWriter, the obs exporters) leaks hash-table
      order into deterministic outputs.
  A3  RNG discipline: (a) storing `Rng` by reference/pointer (member or
      global) lets draw order escape its scope; (b) `Rng::stream(...)` inside
      a loop must be keyed by a per-iteration id (arity >= 2, and when the
      loop declares induction variables, at least one must appear in the
      key); (c) `.fork()` reached through an alias of `Rng` is caught where
      R6's textual rule cannot see it (computed labels in bench/, any fork in
      the stream-only layers src/milback/{cell,sim}/); (d) a function that
      returns `Rng` by value is a stream-mint wrapper (the cell engine's
      `event_stream(node, seq)` is the archetype) — call sites inside loops
      inherit (b)'s varying-key rule.
  A4  clock/thread discipline through aliases: `std::chrono` (outside
      src/milback/obs/) and `std::thread`/`std::jthread`/`std::async`
      (outside src/milback/sim/) reached via `using`-aliases, typedefs,
      namespace aliases or using-directives that R5/R9 cannot see.
  A5  order-sensitive float reduction: `+=`/`-=` accumulation into a
      `double`/`float` lvalue inside a loop, in the fan-out/merge layers
      (src/milback/sim/, src/milback/cell/, bench/, or any function that
      names sim::TrialRunner), bypassing `sim::Accumulator`. Fixed-order
      single-threaded accumulation is waivable with a reason.

Waiver grammar (reason string is mandatory; an empty reason is itself a
finding):

    // milback-analyze: no-contract(<reason>)
    // milback-analyze: no-unordered-iter(<reason>)
    // milback-analyze: no-rng(<reason>)
    // milback-analyze: no-clock(<reason>)
    // milback-analyze: no-reduction(<reason>)

A waiver covers findings on its own line and on the line directly below it;
for A1 it may sit at either the header declaration or the definition.

Frontend: a built-in single-pass C++ semantic parser that resolves
alias/typedef/member-type information from the token stream and needs
nothing beyond the Python standard library.

Findings print as `path:line: [A<k>] message` (physics_lint's format) and the
exit status is non-zero when any finding survives waivers.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

CPP_EXTS = {".cpp", ".cc", ".cxx"}
HDR_EXTS = {".hpp", ".hh", ".h"}

CHECKS = {
    "A1": ("no-contract",
           "public milback header API without MILBACK_REQUIRE/ENSURE"),
    "A2": ("no-unordered-iter",
           "unordered-container iteration feeding a report/export"),
    "A3": ("no-rng",
           "Rng escaping scope, unkeyed stream in a loop, fork via alias"),
    "A4": ("no-clock",
           "std::chrono/std::thread/std::async reached through an alias"),
    "A5": ("no-reduction",
           "order-sensitive float += reduction bypassing sim::Accumulator"),
}
WAIVER_KEYS = {key: check for check, (key, _) in CHECKS.items()}

# Sink names that mark a function as writing report/export state (A2 taint
# seeds). Type names and exporter entry points, not generic method names.
SINK_NAMES = {
    "CellReport", "CellNodeReport",
    "MeshReport", "MeshNodeReport",
    "CsvWriter", "metrics_jsonl", "prometheus_text", "chrome_trace_json",
    "write_env_exports",
}

CONTRACT_TOKENS = {
    "MILBACK_REQUIRE", "MILBACK_ENSURE",
    "require_finite", "require_positive", "require_non_negative",
    "require_in_range", "require_unit_interval", "require_nonzero",
}

CHRONO_ALLOWED_PREFIX = "src/milback/obs/"
THREAD_ALLOWED_PREFIX = "src/milback/sim/"
STREAM_ONLY_PREFIXES = ("src/milback/cell/", "src/milback/sim/")
REDUCTION_SCOPES = ("src/milback/sim/", "src/milback/cell/", "bench/")
REDUCTION_EXEMPT = ("src/milback/sim/accumulator.",)

WAIVER_RE = re.compile(r"milback-analyze:\s*no-([a-z-]+)\s*(?:\(([^)]*)\))?")

KEYWORDS_NOT_NAMES = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_assert", "decltype", "noexcept", "catch", "throw", "new",
    "delete", "alignas", "co_await", "co_return", "co_yield", "requires",
    "assert", "defined", "typeid",
}
TYPE_QUAL_TOKENS = {
    "const", "constexpr", "consteval", "constinit", "volatile", "static",
    "inline", "virtual", "explicit", "friend", "mutable", "extern",
    "register", "thread_local", "typename", "struct", "class", "enum",
    "unsigned", "signed", "long", "short",
}
BASIC_TYPE_TOKENS = {
    "auto", "double", "float", "int", "char", "bool", "void", "wchar_t",
    "std", "size_t", "ptrdiff_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "uintptr_t", "intptr_t",
}


class Finding:
    __slots__ = ("check", "file", "line", "msg", "waiver_sites")

    def __init__(self, check, file, line, msg, extra_sites=()):
        self.check = check
        self.file = file
        self.line = line
        self.msg = msg
        # (file, line) pairs where a waiver comment also covers this finding.
        self.waiver_sites = [(file, line)] + list(extra_sites)

    def key(self):
        return (self.file, self.line, self.check, self.msg)

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.check}] {self.msg}"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

PUNCT3 = ("<<=", ">>=", "->*", "...", "<=>")
PUNCT2 = ("::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=", "^=", "&=",
          "|=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||")
ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
ID_CONT = ID_START | set("0123456789")


class Tok:
    __slots__ = ("kind", "val", "line")

    def __init__(self, kind, val, line):
        self.kind = kind  # 'id' | 'num' | 'str' | 'p' (punct)
        self.val = val
        self.line = line

    def __repr__(self):
        return f"{self.val!r}@{self.line}"


def tokenize(text):
    """Returns (tokens, waivers, includes).

    waivers: {line: [(waiver_key, reason_or_None)]} -- reason None means the
    comment matched the waiver marker but carried no parenthesised reason.
    includes: list of (line, quoted_include_path).
    """
    toks, waivers, includes = [], {}, []
    i, n, line = 0, len(text), 1
    at_line_start = True

    def note_comment(body, ln):
        for m in WAIVER_RE.finditer(body):
            reason = m.group(2)
            reason = reason.strip() if reason is not None else None
            waivers.setdefault(ln, []).append(("no-" + m.group(1), reason))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and at_line_start:
            j = i
            while j < n:
                if text[j] == "\n" and text[j - 1] != "\\":
                    break
                j += 1
            directive = text[i:j]
            m = re.match(r'#\s*include\s+"([^"]+)"', directive)
            if m:
                includes.append((line, m.group(1)))
            line += directive.count("\n")
            i = j
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            note_comment(text[i:j], line)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            body = text[i:j + 2]
            note_comment(body, line)
            line += body.count("\n")
            i = j + 2
            continue
        if c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i + m.end())
                end = n if end < 0 else end + len(m.group(1)) + 2
                toks.append(Tok("str", '""', line))
                line += text.count("\n", i, end)
                i = end
                continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            toks.append(Tok("str", '""' if c == '"' else "' '", line))
            line += text.count("\n", i, j)
            i = j + 1
            continue
        if c in ID_START:
            j = i + 1
            while j < n and text[j] in ID_CONT:
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j] in ID_CONT or text[j] == "." or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        three, two = text[i:i + 3], text[i:i + 2]
        if three in PUNCT3:
            toks.append(Tok("p", three, line))
            i += 3
        elif two in PUNCT2:
            toks.append(Tok("p", two, line))
            i += 2
        else:
            toks.append(Tok("p", c, line))
            i += 1
    return toks, waivers, includes


def match_brace(toks, i):
    """toks[i] is '{'; returns index one past the matching '}'."""
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if v == "{":
            depth += 1
        elif v == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def match_paren(toks, i):
    """toks[i] is '('; returns index one past the matching ')'."""
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if v == "(":
            depth += 1
        elif v == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def skip_angles(toks, i):
    """toks[i] is '<'; returns index one past the matching '>' (handles >>)."""
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif v == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif v in (";", "{", "}"):
            return i  # not a template argument list after all
        i += 1
    return n


def type_str(tokens):
    """Joins a type token span into a normalized spelling."""
    out = []
    for t in tokens:
        if t.val in ("const", "volatile", "typename", "struct", "class",
                     "mutable", "constexpr", "static", "inline", "virtual",
                     "explicit", "friend", "extern"):
            continue
        out.append(t.val)
    s = "".join(out)
    return s.strip("&*")


# ---------------------------------------------------------------------------
# Semantic model
# ---------------------------------------------------------------------------

class Loop:
    __slots__ = ("line", "vars", "iter_expr", "parent", "line_lo", "line_hi")

    def __init__(self, line, parent=None):
        self.line = line
        self.vars = set()       # induction / range variables
        self.iter_expr = None   # token chain of the range expression, if any
        self.parent = parent
        self.line_lo = line     # body line span (set once the body is found)
        self.line_hi = line

    def all_vars(self):
        vs, node = set(), self
        while node is not None:
            vs |= node.vars
            node = node.parent
        return vs

    def spans_line(self, line):
        node = self
        while node is not None:
            if node.line_lo <= line <= node.line_hi:
                return True
            node = node.parent
        return False


class Call:
    __slots__ = ("chain", "line", "loop", "args")

    def __init__(self, chain, line, loop, args):
        self.chain = chain  # e.g. ['Rng', '::', 'stream'] or ['rng', '.', 'fork']
        self.line = line
        self.loop = loop
        self.args = args    # list of token lists (top-level comma split)

    def name(self):
        return self.chain[-1]


class Func:
    __slots__ = ("name", "cls", "ns", "file", "line", "params", "ret_type",
                 "is_public", "is_def", "is_defaulted", "is_pure", "is_friend",
                 "n_stmts", "has_contract", "mentions", "calls", "loops",
                 "f_adds", "locals", "def_line", "local_lines", "mutated")

    def __init__(self, name, cls, ns, file, line):
        self.name = name
        self.cls = cls            # enclosing/qualifying class name or ''
        self.ns = ns              # namespace path tuple
        self.file = file
        self.line = line
        self.params = []          # (type_spelling, name)
        self.ret_type = ""
        self.is_public = True
        self.is_def = False
        self.is_defaulted = False
        self.is_pure = False
        self.is_friend = False
        self.n_stmts = 0
        self.has_contract = False
        self.mentions = {}        # identifier -> first line seen in body
        self.calls = []
        self.loops = []
        self.f_adds = []          # (lhs_chain, line, loop)
        self.locals = {}          # name -> type spelling ('auto:<chain>' lazy)
        self.local_lines = {}     # local name -> declaration line
        self.mutated = {}         # name -> [lines where ++/--/+=/-= touch it]
        self.def_line = line

    def qname(self):
        parts = list(self.ns)
        if self.cls:
            parts.append(self.cls)
        parts.append(self.name)
        return "::".join(parts)


class Model:
    def __init__(self):
        self.funcs = []           # all functions with bodies (definitions)
        self.decls = []           # header declarations (A1 universe)
        self.aliases = {}         # alias name -> (target_spelling, file, line, kind)
        self.members = {}         # 'Cls::field' -> type spelling
        self.member_decls = []    # (cls, name, raw_type, file, line)
        self.bare_members = {}    # field -> set of type spellings
        self.waivers = {}         # file -> {line: [(key, reason)]}
        self.files = []

    def canon(self, spelling, _depth=0):
        """Resolves typedef/alias chains to a canonical type spelling."""
        if not spelling or _depth > 8:
            return spelling or ""
        s = spelling.strip("&*")
        if s in self.aliases:
            return self.canon(self.aliases[s][0], _depth + 1)
        head = s.split("<", 1)[0]
        if head != s and head in self.aliases:
            return self.canon(self.aliases[head][0], _depth + 1) + "<" + s.split("<", 1)[1]
        tail = head.rsplit("::", 1)[-1]
        if tail != head and tail in self.aliases:
            return self.canon(self.aliases[tail][0], _depth + 1)
        return s


# ---------------------------------------------------------------------------
# Frontend: single-pass structural parser
# ---------------------------------------------------------------------------

class FileParser:
    def __init__(self, rel, toks, model):
        self.rel = rel
        self.toks = toks
        self.model = model
        self.is_header = Path(rel).suffix in HDR_EXTS

    def parse(self):
        self._scope(0, len(self.toks), ns=(), cls=None, access=True)

    # --- scope walking ------------------------------------------------------

    def _scope(self, i, end, ns, cls, access):
        toks = self.toks
        while i < end:
            t = toks[i]
            v = t.val
            if v == "namespace":
                i = self._namespace(i, end, ns, cls, access)
            elif v in ("class", "struct") and not (i > 0 and toks[i - 1].val == "enum"):
                i = self._class(i, end, ns, cls, access, default_public=(v == "struct"))
            elif v == "enum":
                i = self._skip_enum(i, end)
            elif v == "using":
                i = self._using(i, end)
            elif v == "typedef":
                i = self._typedef(i, end)
            elif v == "template":
                i += 1
                if i < end and toks[i].val == "<":
                    i = skip_angles(toks, i)
            elif v in ("public", "private", "protected") and i + 1 < end and toks[i + 1].val == ":":
                access = (v == "public")
                i += 2
            elif v == "{":
                i = match_brace(toks, i)
            elif v in ("}", ";"):
                i += 1
            elif v == "extern" and i + 1 < end and toks[i + 1].kind == "str":
                i += 2  # extern "C" [ { ... } handled by generic scope ]
            else:
                i, new_access = self._declish(i, end, ns, cls, access)
                access = new_access
        return i

    def _namespace(self, i, end, ns, cls, access):
        toks = self.toks
        j, names = i + 1, []
        while j < end and toks[j].val not in ("{", "=", ";"):
            if toks[j].kind == "id" and toks[j].val != "inline":
                names.append(toks[j].val)
            j += 1
        if j >= end:
            return end
        if toks[j].val == "{":
            close = match_brace(toks, j)
            self._scope(j + 1, close - 1, ns + tuple(names), None, True)
            return close
        if toks[j].val == "=" and names:
            k, tgt = j + 1, []
            while k < end and toks[k].val != ";":
                tgt.append(toks[k])
                k += 1
            self.model.aliases[names[0]] = (type_str(tgt), self.rel, toks[i].line, "ns-alias")
            return k + 1
        return j + 1

    def _class(self, i, end, ns, cls, access, default_public):
        toks = self.toks
        j, name = i + 1, None
        while j < end and toks[j].val not in ("{", ";", "("):
            if toks[j].val == "<":
                j = skip_angles(toks, j)
                continue
            if toks[j].kind == "id" and name is None and toks[j].val not in ("final", "alignas"):
                name = toks[j].val
            if toks[j].val == ":":
                # base clause: scan to '{'
                while j < end and toks[j].val not in ("{", ";"):
                    if toks[j].val == "<":
                        j = skip_angles(toks, j)
                    else:
                        j += 1
                break
            j += 1
        if j >= end or toks[j].val != "{":
            return j + 1 if j < end else end
        close = match_brace(toks, j)
        self._scope(j + 1, close - 1, ns, name or "<anon>", default_public)
        # `class X { ... } instance;` tail is consumed by the caller loop.
        return close

    def _skip_enum(self, i, end):
        toks = self.toks
        j = i + 1
        while j < end and toks[j].val not in ("{", ";"):
            j += 1
        if j < end and toks[j].val == "{":
            j = match_brace(toks, j)
        while j < end and toks[j].val != ";":
            j += 1
        return j + 1

    def _using(self, i, end):
        toks = self.toks
        line = toks[i].line
        j, parts = i + 1, []
        is_namespace = j < end and toks[j].val == "namespace"
        if is_namespace:
            j += 1
        eq = -1
        while j < end and toks[j].val != ";":
            if toks[j].val == "=" and eq < 0:
                eq = len(parts)
            parts.append(toks[j])
            if toks[j].val == "<":
                k = skip_angles(toks, j)
                parts.extend(toks[j + 1:k])
                j = k
                continue
            j += 1
        if is_namespace:
            self.model.aliases.setdefault(
                "using namespace " + type_str(parts),
                (type_str(parts), self.rel, line, "using-namespace"))
        elif eq > 0:
            name_toks = parts[:eq]
            name = next((t.val for t in reversed(name_toks) if t.kind == "id"), None)
            if name:
                self.model.aliases[name] = (type_str(parts[eq + 1:]), self.rel, line, "alias")
        elif parts:
            # using std::thread;  -> alias 'thread' -> 'std::thread'
            tgt = type_str(parts)
            name = tgt.rsplit("::", 1)[-1]
            if "::" in tgt and name:
                self.model.aliases.setdefault(name, (tgt, self.rel, line, "using-decl"))
        return j + 1

    def _typedef(self, i, end):
        toks = self.toks
        line = toks[i].line
        j, parts = i + 1, []
        while j < end and toks[j].val != ";":
            if toks[j].val == "<":
                k = skip_angles(toks, j)
                parts.extend(toks[j:k])
                j = k
                continue
            parts.append(toks[j])
            j += 1
        if parts and parts[-1].kind == "id":
            name = parts[-1].val
            self.model.aliases[name] = (type_str(parts[:-1]), self.rel, line, "typedef")
        return j + 1

    # --- declarations and function definitions ------------------------------

    def _declish(self, i, end, ns, cls, access):
        """Parses one declaration-ish span starting at i. Returns (next_i, access)."""
        toks = self.toks
        start = i
        paren = -1       # index of the candidate parameter-list '('
        eq_before = False
        j = i
        while j < end:
            v = toks[j].val
            if v == ";":
                break
            if v == "{":
                break
            if v == "}":
                return j, access  # malformed span; let caller handle the brace
            if v == "(":
                if paren < 0 and not eq_before and j > start:
                    prev = toks[j - 1]
                    if (prev.kind == "id" and prev.val not in KEYWORDS_NOT_NAMES) or \
                       (prev.kind == "p" and self._operator_start(j - 1) >= 0):
                        paren = j
                j = match_paren(toks, j)
                continue
            if v == "<":
                k = skip_angles(toks, j)
                if k > j + 1:
                    j = k
                    continue
            if v == "=" and paren < 0:
                eq_before = True
            if v == "[" and j + 1 < end and toks[j + 1].val == "[":
                while j < end and toks[j].val != "]":
                    j += 1
                j += 2
                continue
            j += 1
        if j >= end:
            return end, access
        term = toks[j].val

        if paren < 0:
            # Not a function: maybe a member/global variable declaration.
            if term == ";" and cls is not None:
                self._member_decl(start, j, cls)
            if term == "{":
                # brace initializer `int x{3};` or stray block: skip balanced.
                close = match_brace(toks, j)
                return close, access
            return j + 1, access

        func = self._make_func(start, paren, ns, cls, access)
        if func is None:
            if term == "{":
                return match_brace(toks, j), access
            return j + 1, access

        close_paren = match_paren(toks, paren)
        func.params = self._parse_params(paren + 1, close_paren - 1)

        if term == ";":
            tail = [t.val for t in toks[close_paren:j]]
            func.is_defaulted = "default" in tail or "delete" in tail
            func.is_pure = bool(tail) and tail[-1] == "0" and "=" in tail
            self.model.decls.append(func)
            return j + 1, access

        # term == '{': find the real body brace (skip ctor init lists).
        body_open = self._find_body(close_paren, j, end)
        if body_open is None:
            return match_brace(toks, j), access
        body_close = match_brace(toks, body_open)
        func.is_def = True
        func.def_line = toks[body_open].line
        self._analyze_body(func, body_open + 1, body_close - 1)
        self.model.funcs.append(func)
        if self.is_header:
            # Inline definition in a header is also the declaration.
            self.model.decls.append(func)
        return body_close, access

    def _operator_start(self, i):
        """If toks ending at i form an `operator<sym>` name, returns the index
        of the 'operator' keyword, else -1."""
        j = i
        while j >= 0 and self.toks[j].kind == "p":
            j -= 1
        if j >= 0 and self.toks[j].val == "operator":
            return j
        return -1

    def _make_func(self, start, paren, ns, cls, access):
        toks = self.toks
        # Name: the identifier (or operator...) directly before '('.
        k = paren - 1
        op = self._operator_start(k)
        if op >= 0:
            name = "operator" + "".join(t.val for t in toks[op + 1:paren])
            name_start = op
        elif toks[k].kind == "id":
            name = toks[k].val
            name_start = k
        else:
            return None
        if name in KEYWORDS_NOT_NAMES or name in TYPE_QUAL_TOKENS:
            return None
        # Qualifier chain `A::B::name`.
        quals = []
        q = name_start
        while q - 2 >= start and toks[q - 1].val == "::" and toks[q - 2].kind == "id":
            quals.insert(0, toks[q - 2].val)
            q -= 2
        is_dtor = q - 1 >= start and toks[q - 1].val == "~"
        head = toks[start:q - (1 if is_dtor else 0)]
        head_vals = [t.val for t in head]
        if "using" in head_vals or "#" in head_vals:
            return None
        fcls = cls or (quals[-1] if quals else "")
        func = Func("~" + name if is_dtor else name, fcls, ns, self.rel,
                    toks[name_start].line)
        func.is_public = access
        func.is_friend = "friend" in head_vals
        func.ret_type = type_str([t for t in head if t.kind in ("id", "p")])
        return func

    def _parse_params(self, i, end):
        toks = self.toks
        params, cur = [], []
        depth = 0
        j = i
        while j < end:
            v = toks[j].val
            if v in ("(", "[", "{"):
                depth += 1
            elif v in (")", "]", "}"):
                depth -= 1
            elif v == "<":
                k = skip_angles(toks, j)
                if k > j + 1:
                    cur.extend(toks[j:k])
                    j = k
                    continue
            if v == "," and depth == 0:
                params.append(cur)
                cur = []
            else:
                cur.append(toks[j])
            j += 1
        if cur:
            params.append(cur)
        out = []
        for p in params:
            # strip default argument
            for k, t in enumerate(p):
                if t.val == "=":
                    p = p[:k]
                    break
            if not p or (len(p) == 1 and p[0].val == "void"):
                continue
            name = None
            if p[-1].kind == "id" and p[-1].val not in TYPE_QUAL_TOKENS and len(p) > 1:
                name = p[-1].val
                p = p[:-1]
            out.append((type_str(p), name))
        return out

    def _find_body(self, close_paren, first_brace, end):
        """Walks tokens after the parameter list to the function body '{',
        skipping cv/ref/noexcept/trailing-return and ctor init lists."""
        toks = self.toks
        j = close_paren
        in_init = False
        while j < end:
            v = toks[j].val
            if v == "{":
                if in_init and toks[j - 1].kind == "id":
                    j = match_brace(toks, j)  # brace-init member
                    continue
                return j
            if v == ";":
                return None
            if v == ":" and not in_init:
                in_init = True
                j += 1
                continue
            if v == "(":
                j = match_paren(toks, j)
                continue
            if v == "<":
                k = skip_angles(toks, j)
                j = k if k > j + 1 else j + 1
                continue
            j += 1
        return None

    def _member_decl(self, i, end, cls):
        toks = self.toks
        if any(t.val in ("using", "typedef", "friend", "operator") for t in toks[i:end]):
            return
        # Split top-level commas: `double a, b;`
        groups, cur, depth = [], [], 0
        for t in toks[i:end]:
            if t.val in ("(", "[", "{", "<"):
                depth += 1
            elif t.val in (")", "]", "}", ">"):
                depth -= 1
            if t.val == "," and depth == 0:
                groups.append(cur)
                cur = []
            else:
                cur.append(t)
        if cur:
            groups.append(cur)
        base_type = None
        for g in groups:
            # strip initializer
            for k, t in enumerate(g):
                if t.val in ("=", "{"):
                    g = g[:k]
                    break
            if len(g) < 2 or g[-1].kind != "id":
                continue
            name = g[-1].val
            raw = "".join(t.val for t in g[:-1]) if base_type is None else base_type
            if base_type is None:
                base_type = raw
            self.model.members[f"{cls}::{name}"] = type_str(g[:-1])
            self.model.member_decls.append((cls, name, raw, self.rel, g[-1].line))
            self.model.bare_members.setdefault(name, set()).add(type_str(g[:-1]))

    # --- body analysis ------------------------------------------------------

    def _analyze_body(self, func, i, end):
        toks = self.toks
        depth = 0
        loop = None
        loop_stack = []  # (loop, end_index)
        stmt_start = True
        j = i
        while j < end:
            while loop_stack and j >= loop_stack[-1][1]:
                loop_stack.pop()
                loop = loop_stack[-1][0] if loop_stack else None
            t = toks[j]
            v = t.val
            if t.kind == "id":
                func.mentions.setdefault(v, t.line)
                if v in CONTRACT_TOKENS:
                    func.has_contract = True
            if v in ("for", "while", "do"):
                new_loop = Loop(t.line, loop)
                body_end = j + 1
                if v in ("for", "while") and j + 1 < end and toks[j + 1].val == "(":
                    hdr_close = match_paren(toks, j + 1)
                    self._loop_header(new_loop, func, j + 2, hdr_close - 1, v)
                    k = hdr_close
                else:
                    k = j + 1
                if k < end and toks[k].val == "{":
                    body_end = match_brace(toks, k)
                else:
                    body_end = k
                    d2 = 0
                    while body_end < end:
                        vv = toks[body_end].val
                        if vv in ("(", "{", "["):
                            d2 += 1
                        elif vv in (")", "}", "]"):
                            d2 -= 1
                        elif vv == ";" and d2 == 0:
                            body_end += 1
                            break
                        body_end += 1
                if body_end > k:
                    new_loop.line_lo = toks[k].line
                    new_loop.line_hi = toks[min(body_end, end) - 1].line
                loop_stack.append((new_loop, body_end))
                loop = new_loop
                func.loops.append(new_loop)
                j = k + 1 if k < end and toks[k].val == "{" else k
                stmt_start = True
                continue
            if v == ";":
                func.n_stmts += 1
                stmt_start = True
                j += 1
                continue
            if v in ("{", "}"):
                depth += 1 if v == "{" else -1
                stmt_start = True
                j += 1
                continue
            if v in ("+=", "-="):
                chain = self._lhs_chain(j - 1, i)
                if chain:
                    func.f_adds.append((chain, t.line, loop))
                    func.mutated.setdefault(chain[-1], []).append(t.line)
                j += 1
                stmt_start = False
                continue
            if v in ("++", "--"):
                neighbor = None
                if j + 1 < end and toks[j + 1].kind == "id":
                    neighbor = toks[j + 1]
                elif j > i and toks[j - 1].kind == "id":
                    neighbor = toks[j - 1]
                if neighbor is not None:
                    func.mutated.setdefault(neighbor.val, []).append(t.line)
                j += 1
                stmt_start = False
                continue
            if t.kind == "id" and j + 1 < end and toks[j + 1].val == "(" and \
               v not in KEYWORDS_NOT_NAMES:
                chain = self._call_chain(j, i)
                close = match_paren(toks, j + 1)
                args = self._split_args(j + 2, close - 1)
                func.calls.append(Call(chain, t.line, loop, args))
                if stmt_start:
                    self._try_local_decl(func, i, j)
                j += 2  # descend into args so nested calls are seen too
                stmt_start = False
                continue
            if stmt_start and t.kind == "id":
                self._maybe_decl(func, j, end)
            stmt_start = False
            j += 1

    def _loop_header(self, lp, func, i, end, kind):
        toks = self.toks
        colon = -1
        depth = 0
        for j in range(i, end):
            v = toks[j].val
            if v in ("(", "[", "{", "<"):
                depth += 1
            elif v in (")", "]", "}", ">"):
                depth -= 1
            elif v == ":" and depth == 0 and toks[j - 1].val != ":" and \
                    (j + 1 >= end or toks[j + 1].val != ":"):
                colon = j
                break
        if kind == "for" and colon > 0:
            # range-for: vars left of ':', range expr right of it.
            decl = toks[i:colon]
            if any(t.val == "[" for t in decl):
                # structured binding: every id inside the brackets.
                inside = False
                for t in decl:
                    if t.val == "[":
                        inside = True
                    elif t.val == "]":
                        inside = False
                    elif inside and t.kind == "id":
                        lp.vars.add(t.val)
            else:
                name = next((t.val for t in reversed(decl)
                             if t.kind == "id" and t.val not in TYPE_QUAL_TOKENS
                             and t.val not in BASIC_TYPE_TOKENS), None)
                if name:
                    lp.vars.add(name)
            lp.iter_expr = [t for t in toks[colon + 1:end]]
            return
        # classic for / while: induction vars = ids declared or stepped.
        seen_semi = 0
        for j in range(i, end):
            v = toks[j].val
            if v == ";":
                seen_semi += 1
                continue
            if toks[j].kind == "id":
                nxt = toks[j + 1].val if j + 1 < end else ""
                prv = toks[j - 1].val if j > i else ""
                if nxt in ("=", "++", "--", "+=", "-=") or prv in ("++", "--"):
                    lp.vars.add(toks[j].val)
        # record decls in clause 1 as locals too
        self._try_local_decl_range(func, i, end)

    def _lhs_chain(self, j, lo):
        toks = self.toks
        chain = []
        while j >= lo:
            v = toks[j].val
            if toks[j].kind == "id":
                chain.insert(0, v)
                if j - 1 >= lo and toks[j - 1].val in (".", "->", "::"):
                    chain.insert(0, toks[j - 1].val)
                    j -= 2
                    continue
                break
            if v == "]":
                d = 0
                while j >= lo:
                    if toks[j].val == "]":
                        d += 1
                    elif toks[j].val == "[":
                        d -= 1
                        if d == 0:
                            break
                    j -= 1
                j -= 1
                continue
            break
        return chain

    def _call_chain(self, j, lo):
        chain = [self.toks[j].val]
        k = j - 1
        while k - 1 >= lo and self.toks[k].val in (".", "->", "::") and \
                self.toks[k - 1].kind == "id":
            chain.insert(0, self.toks[k].val)
            chain.insert(0, self.toks[k - 1].val)
            k -= 2
        return chain

    def _split_args(self, i, end):
        toks = self.toks
        args, cur, depth = [], [], 0
        j = i
        while j < end:
            v = toks[j].val
            if v in ("(", "[", "{"):
                depth += 1
            elif v in (")", "]", "}"):
                depth -= 1
            elif v == "<":
                k = skip_angles(toks, j)
                if k > j + 1:
                    cur.extend(toks[j:k])
                    j = k
                    continue
            if v == "," and depth == 0:
                args.append(cur)
                cur = []
            else:
                cur.append(toks[j])
            j += 1
        if cur:
            args.append(cur)
        return args

    def _maybe_decl(self, func, j, end):
        """At a statement start on an identifier: try `Type name ...` local decl."""
        toks = self.toks
        k = j
        type_toks = []
        while k < end:
            t = toks[k]
            v = t.val
            if t.kind == "id" or v in ("::",):
                type_toks.append(t)
                k += 1
                continue
            if v == "<":
                m = skip_angles(toks, k)
                if m > k + 1:
                    type_toks.extend(toks[k:m])
                    k = m
                    continue
                break
            if v in ("&", "*"):
                type_toks.append(t)
                k += 1
                continue
            break
        if len(type_toks) < 2 or k >= end:
            return
        term = toks[k].val
        if term not in ("=", ";", "{", "("):
            return
        # last id token is the declared name; the rest is the type.
        name_tok = None
        for idx in range(len(type_toks) - 1, -1, -1):
            if type_toks[idx].kind == "id":
                name_tok = (idx, type_toks[idx])
                break
        if name_tok is None:
            return
        idx, nt = name_tok
        if nt.val in TYPE_QUAL_TOKENS or idx == 0:
            return
        tspell = type_str(type_toks[:idx])
        if not tspell or tspell in ("return", "delete"):
            return
        if tspell == "auto" and term == "=":
            # auto x = <chain>; -> propagate from initializer when simple.
            init = self._lhs_chainless_init(k + 1, end)
            func.locals[nt.val] = ("auto", init)
        else:
            func.locals[nt.val] = tspell
        func.local_lines.setdefault(nt.val, nt.line)

    def _try_local_decl(self, func, lo, call_j):
        """Handles `Type name(args);` paren-init declarations minimally."""
        # Covered well enough by _maybe_decl for = / brace forms; skip.
        return

    def _try_local_decl_range(self, func, i, end):
        toks = self.toks
        j = i
        # single attempt at clause start
        saved = self.toks
        self._maybe_decl(func, j, end)
        self.toks = saved

    def _lhs_chainless_init(self, i, end):
        toks = self.toks
        chain = []
        j = i
        while j < end and toks[j].val != ";":
            t = toks[j]
            if t.kind == "id" or t.val in (".", "->", "::"):
                chain.append(t.val)
                j += 1
                continue
            break
        return chain


# ---------------------------------------------------------------------------
# Type resolution over the model
# ---------------------------------------------------------------------------

def class_of(spelling):
    """'const NodeState&' -> 'NodeState'; 'std::vector<X>' -> 'vector'."""
    s = spelling.strip("&*")
    s = s.split("<", 1)[0]
    return s.rsplit("::", 1)[-1]


def resolve_chain_type(model, func, chain, _depth=0):
    """Resolves the declared type of an lvalue chain like ['n','.','bits']."""
    if not chain or _depth > 6:
        return None
    ids = [c for c in chain if c not in (".", "->")]
    if "::" in chain:
        return None  # static/qualified chain, not a resolvable lvalue

    def type_of_name(name):
        t = func.locals.get(name)
        if isinstance(t, tuple):  # ('auto', initializer chain)
            return resolve_chain_type(model, func, t[1], _depth + 1)
        if t:
            return t
        for ptype, pname in func.params:
            if pname == name:
                return ptype
        if func.cls:
            mt = model.members.get(f"{func.cls}::{name}")
            if mt:
                return mt
        bs = model.bare_members.get(name)
        if bs and len(bs) == 1:
            return next(iter(bs))
        return None

    cur = None
    for idx, name in enumerate(ids):
        if idx == 0:
            if name == "this":
                cur = func.cls
                continue
            cur = type_of_name(name)
        else:
            if cur is None:
                return None
            cls = class_of(model.canon(cur))
            cur = model.members.get(f"{cls}::{name}")
            if cur is None:
                bs = model.bare_members.get(name)
                cur = next(iter(bs)) if bs and len(bs) == 1 else None
    return cur


def expr_tokens_to_chain(tokens):
    """Reduces a token span to an lvalue chain; None if it contains calls."""
    chain = []
    for t in tokens:
        if t.kind == "id":
            chain.append(t.val)
        elif t.val in (".", "->", "::"):
            chain.append(t.val)
        elif t.val in ("(", ")"):
            return None
        elif t.val in ("&", "*", "const"):
            continue
        else:
            return None
    return chain or None


UNORDERED_RE = re.compile(r"unordered_(?:multi)?(?:map|set)")
RNG_REF_RE = re.compile(r"(?<![A-Za-z0-9_])Rng\s*(?:&|\*)")
RNG_PTR_WRAP_RE = re.compile(r"(?:shared_ptr|unique_ptr|reference_wrapper)<(?:milback::)?Rng>")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_a1(model):
    findings = []
    defs_by_key = {}
    for f in model.funcs:
        defs_by_key.setdefault((f.cls, f.name), []).append(f)
        defs_by_key.setdefault(("", f.name), []).append(f)
    seen = set()
    for d in model.decls:
        if not d.file.startswith("src/milback/"):
            continue
        if Path(d.file).suffix not in HDR_EXTS:
            continue
        if not d.is_public or d.is_friend or d.is_defaulted or d.is_pure:
            continue
        if d.name.startswith("operator") or d.name.startswith("~") or d.name == "main":
            continue
        if "detail" in d.ns or d.cls == "<anon>":
            continue
        if len(d.params) < 1:
            continue
        key = (d.file, d.line, d.qname())
        if key in seen:
            continue
        seen.add(key)
        if d.is_def:
            defs = [d]
        else:
            defs = defs_by_key.get((d.cls, d.name), [])
            defs = [f for f in defs if f.is_def]
            if not defs:
                continue  # defined in a TU we did not see; stay silent
            arity = [f for f in defs if len(f.params) == len(d.params)]
            defs = arity or defs
        if any(f.has_contract for f in defs):
            continue
        if all(f.n_stmts <= 2 for f in defs):
            continue  # trivial forwarder/accessor body
        site = defs[0]
        findings.append(Finding(
            "A1", d.file, d.line,
            f"public `{d.qname()}` takes {len(d.params)} parameter(s) but its"
            f" definition ({site.file}:{site.line}) has no"
            " MILBACK_REQUIRE/MILBACK_ENSURE (or require_* guard)",
            extra_sites=[(f.file, f.line) for f in defs]))
    return findings


def check_a2(model):
    findings = []
    tainted = set()
    defs_by_name = {}
    for f in model.funcs:
        defs_by_name.setdefault(f.name, []).append(f)
        if (set(f.mentions) & SINK_NAMES) or "Report" in f.ret_type:
            tainted.add(id(f))
    changed = True
    while changed:
        changed = False
        for f in model.funcs:
            if id(f) in tainted:
                continue
            for c in f.calls:
                callees = defs_by_name.get(c.name(), ())
                if any(id(g) in tainted for g in callees):
                    tainted.add(id(f))
                    changed = True
                    break
    for f in model.funcs:
        if id(f) not in tainted:
            continue
        if not (f.file.startswith("src/") or f.file.startswith("bench/")):
            continue
        for lp in f.loops:
            if lp.iter_expr is None:
                continue
            chain = expr_tokens_to_chain(lp.iter_expr)
            if not chain:
                continue
            t = resolve_chain_type(model, f, chain)
            if not t:
                continue
            canon = model.canon(t)
            if UNORDERED_RE.search(canon):
                findings.append(Finding(
                    "A2", f.file, lp.line,
                    f"iteration over `{canon}` (`{''.join(chain)}`) inside"
                    f" `{f.qname()}`, which feeds a report/export —"
                    " hash order leaks into deterministic output; iterate a"
                    " sorted view or switch to an ordered container"))
    return findings


def check_a3(model):
    findings = []
    # (d)'s wrapper registry: a function returning Rng BY VALUE mints a fresh
    # stream from its arguments (the cell engine's event_stream(node, seq) is
    # the archetype) — its call sites inherit Rng::stream's loop-keying rule.
    # Rng's own factories (stream, fork) are handled by (b)/(c).
    stream_wrappers = set()
    for f in model.funcs:
        if f.file.startswith("src/milback/util/rng."):
            continue
        if f.name in ("stream", "fork"):
            continue
        ret = model.canon(f.ret_type)
        if ret.endswith("Rng") and "&" not in f.ret_type and "*" not in f.ret_type:
            stream_wrappers.add(f.name)
    # (a) stored Rng references/pointers escape their scope.
    for cls, name, raw, file, line in model.member_decls:
        if not (file.startswith("src/") or file.startswith("bench/")):
            continue
        if file.startswith("src/milback/util/rng."):
            continue
        canon = model.canon(raw)
        if RNG_REF_RE.search(canon) or RNG_PTR_WRAP_RE.search(canon):
            findings.append(Finding(
                "A3", file, line,
                f"`{cls}::{name}` stores a stateful Rng by reference/pointer"
                " — draw order escapes the owning scope; pass Rng& down the"
                " call stack or key draws with Rng::stream"))
    for f in model.funcs:
        if not (f.file.startswith("src/") or f.file.startswith("bench/")):
            continue
        if f.file.startswith("src/milback/util/rng."):
            continue
        ret = model.canon(f.ret_type)
        if ret.endswith("Rng") and ("&" in f.ret_type or "*" in f.ret_type):
            findings.append(Finding(
                "A3", f.file, f.line,
                f"`{f.qname()}` returns a reference/pointer to a stateful Rng"
                " — the caller's draw order becomes coupled to the callee's"))
        for c in f.calls:
            # (b) Rng::stream keying inside loops.
            if c.name() == "stream" and len(c.chain) >= 3 and c.chain[-2] == "::":
                head = model.canon(c.chain[-3])
                if not head.split("::")[-1] == "Rng":
                    continue
                if c.loop is None:
                    continue
                if len(c.args) < 2:
                    findings.append(Finding(
                        "A3", f.file, c.line,
                        "Rng::stream keyed only by the seed inside a loop —"
                        " every iteration draws the same stream; add a"
                        " per-entity/per-iteration id to the key"))
                    continue
                lvars = c.loop.all_vars()
                arg_ids = {t.val for a in c.args for t in a if t.kind == "id"}

                def varies(name):
                    # Varies per iteration if it is a loop variable, a local
                    # declared inside an enclosing loop body, or a counter
                    # stepped (++/--/+=) somewhere inside the loop.
                    if name in lvars:
                        return True
                    dl = f.local_lines.get(name)
                    if dl is not None and c.loop.spans_line(dl):
                        return True
                    return any(c.loop.spans_line(ml)
                               for ml in f.mutated.get(name, ()))

                if lvars and not any(varies(a) for a in arg_ids):
                    findings.append(Finding(
                        "A3", f.file, c.line,
                        "Rng::stream key never varies with the enclosing"
                        f" loop (loop vars: {', '.join(sorted(lvars))}) —"
                        " iterations share one stream; include the loop's"
                        " entity id in the key"))
            # (d) stream-like wrapper calls inside loops: same keying rule as
            # Rng::stream — a key that never varies per iteration hands every
            # iteration the same stream.
            if c.name() in stream_wrappers and c.loop is not None:
                lvars = c.loop.all_vars()
                arg_ids = {t.val for a in c.args for t in a if t.kind == "id"}

                def wrapper_varies(name):
                    if name in lvars:
                        return True
                    dl = f.local_lines.get(name)
                    if dl is not None and c.loop.spans_line(dl):
                        return True
                    return any(c.loop.spans_line(ml)
                               for ml in f.mutated.get(name, ()))

                if lvars and not any(wrapper_varies(a) for a in arg_ids):
                    findings.append(Finding(
                        "A3", f.file, c.line,
                        f"stream wrapper `{c.name()}` (returns Rng by value)"
                        " called with a key that never varies with the"
                        f" enclosing loop (loop vars: {', '.join(sorted(lvars))})"
                        " — iterations share one stream; include the loop's"
                        " entity id in the key"))
            # (c) fork() through aliases.
            if c.name() == "fork" and len(c.chain) >= 3 and c.chain[-2] in (".", "->"):
                recv = c.chain[:-2]
                rtype = resolve_chain_type(model, f, recv)
                is_rng = False
                if rtype is not None:
                    is_rng = model.canon(rtype).split("::")[-1] == "Rng"
                else:
                    is_rng = recv[-1] in ("rng", "rng_")
                if not is_rng:
                    continue
                if f.file.startswith(STREAM_ONLY_PREFIXES):
                    findings.append(Finding(
                        "A3", f.file, c.line,
                        f"Rng::fork in `{f.qname()}` — src/milback/{{cell,sim}}/"
                        " are stream-only layers; derive generators with"
                        " Rng::stream(seed, ids...)"))
                elif f.file.startswith("bench/"):
                    arg_puncts = {t.val for a in c.args for t in a if t.kind == "p"}
                    if arg_puncts & {"*", "+", "%", "^", "-"}:
                        findings.append(Finding(
                            "A3", f.file, c.line,
                            "fork() with a computed label reached through an"
                            " alias of Rng — label arithmetic collides across"
                            " sweep grids (R6 through aliases); use"
                            " Rng::stream(seed, point, trial)"))
    return findings


def check_a4(model):
    findings = []
    CHRONO_NS = ("std::chrono",)
    THREAD_TARGETS = ("std::thread", "std::jthread", "std::async")

    def chrono_violation(file):
        return file.startswith("src/") and not file.startswith(CHRONO_ALLOWED_PREFIX)

    def thread_violation(file):
        return (file.startswith(("src/", "tests/", "bench/", "examples/"))
                and not file.startswith(THREAD_ALLOWED_PREFIX))

    suspicious = {}  # alias name -> ('chrono'|'thread', target)
    for name, (target, afile, aline, kind) in model.aliases.items():
        canon_target = model.canon(target) if target != name else target
        is_chrono = any(ns in canon_target for ns in CHRONO_NS)
        is_thread = any(canon_target == t or canon_target.startswith(t + "<") or
                        canon_target.startswith(t + "::")
                        for t in THREAD_TARGETS)
        if not (is_chrono or is_thread):
            continue
        kindname = "chrono" if is_chrono else "thread"
        violating = chrono_violation(afile) if is_chrono else thread_violation(afile)
        if violating:
            where = ("src/milback/obs/" if is_chrono else "src/milback/sim/")
            findings.append(Finding(
                "A4", afile, aline,
                f"{kind} `{name}` resolves to `{canon_target}` outside"
                f" {where} — R5/R9 through aliases; use sim time"
                if is_chrono else
                f"{kind} `{name}` resolves to `{canon_target}` outside"
                f" {where} — parallelism must flow through sim::TrialRunner"))
        if kind != "using-namespace":
            suspicious[name] = (kindname, canon_target)
    for f in model.funcs:
        for name, (kindname, target) in suspicious.items():
            if name not in f.mentions:
                continue
            violating = (chrono_violation(f.file) if kindname == "chrono"
                         else thread_violation(f.file))
            if not violating:
                continue
            allowed = ("src/milback/obs/" if kindname == "chrono"
                       else "src/milback/sim/")
            findings.append(Finding(
                "A4", f.file, f.mentions[name],
                f"`{name}` is an alias of `{target}` — wall-clock/threading"
                f" reached through an alias outside {allowed}"))
    return findings


def check_a5(model):
    findings = []
    for f in model.funcs:
        if f.file.startswith("tests/"):
            continue
        in_scope = f.file.startswith(REDUCTION_SCOPES) or "TrialRunner" in f.mentions
        if not in_scope or f.file.startswith(REDUCTION_EXEMPT):
            continue
        for chain, line, loop in f.f_adds:
            if loop is None:
                continue
            t = resolve_chain_type(model, f, chain)
            if not t:
                continue
            canon = model.canon(t)
            if canon in ("double", "float"):
                findings.append(Finding(
                    "A5", f.file, line,
                    f"order-sensitive `{''.join(chain)} +=` on {canon} inside"
                    f" a loop in `{f.qname()}` — reduce through"
                    " sim::Accumulator, or waive with the fixed-order"
                    " rationale"))
    return findings


CHECK_FNS = {"A1": check_a1, "A2": check_a2, "A3": check_a3,
             "A4": check_a4, "A5": check_a5}


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

def build_model(root, files):
    model = Model()
    for path in files:
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
            toks, waivers, _includes = tokenize(text)
            if waivers:
                model.waivers[rel] = waivers
            FileParser(rel, toks, model).parse()
            model.files.append(rel)
        except RecursionError:
            print(f"milback_analyze: warning: parse gave up on {rel}",
                  file=sys.stderr)
    return model


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def load_compdb(compdb_path, root):
    """Translation units under `root` named by compile_commands.json."""
    with open(compdb_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    tus = set()
    for e in entries:
        f = Path(e["file"])
        if not f.is_absolute():
            f = Path(e["directory"]) / f
        try:
            f = f.resolve()
            f.relative_to(root)
        except (OSError, ValueError):
            continue
        if f.suffix in CPP_EXTS and f.is_file():
            tus.add(f)
    return tus


def collect_files(root, tus):
    files = set(tus)
    for d in ("src", "tests", "bench", "examples"):
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in (HDR_EXTS | CPP_EXTS) and p.is_file():
                files.add(p.resolve())
    out = []
    for p in sorted(files):
        rel = p.relative_to(root).as_posix()
        if rel.startswith("tests/analyze/fixtures/"):
            continue  # seeded-violation fixtures are analyzed by their suite
        out.append(p)
    return out


def apply_waivers(model, findings):
    kept, waiver_errors = [], []
    for rel, per_line in sorted(model.waivers.items()):
        for line, entries in sorted(per_line.items()):
            for key, reason in entries:
                if key not in WAIVER_KEYS:
                    waiver_errors.append(Finding(
                        "WAIVER", rel, line,
                        f"unknown waiver key `{key}` — expected one of: "
                        + ", ".join(sorted(WAIVER_KEYS))))
                elif not reason:
                    waiver_errors.append(Finding(
                        "WAIVER", rel, line,
                        f"waiver `{key}` carries no reason — write"
                        f" `// milback-analyze: {key}(<why this is safe>)`"))
    for f in findings:
        key = CHECKS[f.check][0]
        waived = False
        for wfile, wline in f.waiver_sites:
            per_line = model.waivers.get(wfile, {})
            for cand in (wline, wline - 1):
                if any(k == key and r for k, r in per_line.get(cand, ())):
                    waived = True
                    break
            if waived:
                break
        if not waived:
            kept.append(f)
    return kept + waiver_errors


def list_checks():
    print("milback_analyze semantic checks (AST-grounded gate):")
    for check, (key, desc) in CHECKS.items():
        print(f"  {check}  {desc}")
        print(f"      waiver: // milback-analyze: {key}(<reason>)")
    print()
    print("The fast textual gate (R1-R9) lives in scripts/physics_lint.py;")
    print("run `physics_lint.py --list-rules` for its rule table.")


def main():
    ap = argparse.ArgumentParser(
        description="AST-grounded determinism analyzer for the milback tree")
    ap.add_argument("root", nargs="?", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--compdb", default=None,
                    help="path to compile_commands.json (default: "
                         "<root>/build/compile_commands.json)")
    ap.add_argument("--only", default=None,
                    help="comma-separated subset of checks, e.g. A1,A3")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args()

    if args.list_checks:
        list_checks()
        return 0

    root = Path(args.root).resolve()
    compdb = args.compdb
    if compdb is None:
        for cand in ("build/compile_commands.json",
                     "build-dev/compile_commands.json"):
            if (root / cand).is_file():
                compdb = str(root / cand)
                break
    tus = set()
    if compdb and Path(compdb).is_file():
        tus = load_compdb(compdb, root)
    else:
        print("milback_analyze: warning: no compile_commands.json found"
              " (configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON);"
              " falling back to a tree scan", file=sys.stderr)

    files = collect_files(root, tus)

    model = build_model(root, files)

    enabled = list(CHECK_FNS)
    if args.only:
        enabled = [c.strip().upper() for c in args.only.split(",") if c.strip()]
        unknown = [c for c in enabled if c not in CHECK_FNS]
        if unknown:
            ap.error(f"unknown check(s): {', '.join(unknown)}")

    findings = []
    for check in enabled:
        findings.extend(CHECK_FNS[check](model))
    findings = apply_waivers(model, findings)

    uniq = sorted({f.key(): f for f in findings}.values(),
                  key=lambda f: (f.file, f.line, f.check, f.msg))
    for f in uniq:
        print(f)
    print(f"milback_analyze: {len(model.files)} file(s),"
          f" {len(model.funcs)} function(s) analyzed,"
          f" {len(uniq)} finding(s)")
    return 1 if uniq else 0


if __name__ == "__main__":
    sys.exit(main())
