#!/usr/bin/env python3
"""Static physics, determinism and contract checker for the milback tree.

Every file under src/, tests/, bench/ and examples/ (bar the seeded
violations in tests/lint/fixtures/) goes through one tokenizer, which blanks
comments and string/char literals and collects waiver comments and quoted
includes. Line rules read the blanked text; the other rules read one model
of the tree built from the tokens: namespaces, classes, function
declarations and definitions, aliases, loops, calls, and local and member
types. The tool needs nothing beyond the Python standard library.

Line rules (unwaivable):
  R1  randomness discipline: no rand()/srand()/std::random_device outside
      src/milback/util/rng.* -- all stochastic code must flow through
      milback::Rng so simulations stay reproducible. In src/, bench/ and
      examples/ no raw std engine (std::mt19937(_64), std::minstd_rand*,
      std::default_random_engine, std::ranlux*) either; tests/ keep theirs
      as the references Rng is checked against.
  R2  no `using namespace` at namespace scope in headers.
  R3  unit naming: public-header `double` parameters / struct fields whose
      names look like physical quantities must carry a unit suffix
      (_hz, _dbm, _db, _dbi, _dbc, _deg, _rad, _s, _m, _w, _bps, ...).
  R4  include hygiene: every header starts with `#pragma once`; no
      parent-relative (`../`) includes anywhere.
  R5  threading discipline: no raw std::thread/std::jthread/std::async
      outside src/milback/sim/ -- parallelism must flow through
      sim::TrialRunner so thread-count invariance stays provable. Also
      through aliases: a using-alias, typedef or using-declaration that
      resolves to one of them, and the first use of its name in each
      function body of a file that sees it (its own file, or one that
      includes its header directly or through other headers).
  R6  stream discipline: no fork() with arithmetic in its label inside
      bench/ -- ad-hoc seed arithmetic (`fork(a * b + c)`) collides across
      sweep grids; derive per-trial generators with Rng::stream(seed, ids...).
  R7  phasor discipline: no per-sample `std::cos(...), std::sin(...)` phasor
      construction in src/ outside src/milback/dsp/ -- synthesis loops must
      use dsp::PhasorOscillator (one complex multiply per sample) so tone and
      chirp generation stays O(1) trig per chirp.
  R8  time-loop discipline: no ad-hoc `for (... round ...)` service loops in
      src/ outside src/milback/cell/ -- round-by-round simulation belongs to
      the discrete-event cell engine (cell::CellEngine), where churn,
      blockage and determinism keying are handled once.
  R9  clock discipline: no std::chrono in src/ outside src/milback/obs/ --
      simulation timestamps must come from sim time (event-queue seconds,
      sample indices), never wall clock, or results stop being
      reproducible. Wall-clock profiling goes through obs::ProfileScope,
      which records into runtime-class metrics that are excluded from the
      deterministic exports. Also through aliases, as R5: a namespace alias
      or using-directive of std::chrono too.
  R10 propagation discipline: no ad-hoc `20*log10(<distance>)` FSPL terms in
      src/ outside src/milback/channel/ -- path loss must flow through the
      channel layer (fspl_db / BackscatterChannel path queries) so every
      consumer sees the same PathSet-aware propagation model instead of a
      private free-space shortcut that silently ignores multipath.
  R11 mesh discipline: no ad-hoc TTL/flood/neighbor relay loops in src/
      outside src/milback/mesh/ -- multi-hop topology (neighbor discovery,
      bounded-TTL route floods, hop iteration) belongs to the mesh layer,
      where link budgets come from the shared PathSet and route selection
      is deterministic; a private flood loop forks the routing model.

Model rules (unwaivable):
  R12 reach discipline: every src/milback/ header must be included by
      something outside tests/ besides its own .cpp -- a header only tests
      reach is a second model nothing in the simulator runs (test-only
      probes belong under tests/). The include graph is the quoted
      `#include "milback/..."` lines across src/, bench/, examples/, tests/.
      In src/milback/dsp/ and src/milback/rf/ the rule also works per
      function: a free function declared in one of those headers is a
      finding when no file in src/, bench/ or examples/ names it (a
      `.name`/`->name` member access is no name). Its own header does not
      count, and in its own .cpp only a use in the body of a function of
      another name counts.
  R13 contract/noexcept discipline: a contract check (MILBACK_REQUIRE /
      ENSURE / ASSERT or a require_* domain guard) in the body of a
      `noexcept` function or lambda in src/, bench/ or examples/, or a call
      from that body to a function whose own body has one. The default
      handler throws ContractViolation, and a throw out of a noexcept body
      calls std::terminate instead of reaching the caller. Calls are
      followed one level and matched by name: a name the file defines
      resolves to its own definitions, any other to every simulator
      definition; calls through `.`/`->` or `std::` and calls inside a `try`
      block are not followed.

Model checks (waivable):
  A1  contract coverage: every public function declared in a
      `src/milback/*/` header with at least one parameter and a non-trivial
      definition (more than two statements) must contain a contract check,
      or carry an explicit waiver.
  A2  ordering-sensitive iteration: iterating a `std::unordered_map` /
      `std::unordered_set` (also via typedefs/aliases/`auto`) inside any
      function that transitively writes a report or export type
      (CellReport, CsvWriter, the obs exporters) leaks hash-table
      order into deterministic outputs.
  A3  RNG discipline: (a) storing `Rng` by reference/pointer (member or
      global), or returning one, lets draw order escape its scope; (b)
      `Rng::stream(...)` inside a loop must be keyed by a per-iteration id
      (arity >= 2, and when the loop declares induction variables, at least
      one must appear in the key); (c) `.fork()` on an Rng-typed receiver is
      caught where R6's textual rule cannot see it (computed labels in
      bench/, any fork in the stream-only layers src/milback/{cell,sim}/);
      (d) a function that returns `Rng` by value is a stream-mint wrapper
      (the cell engine's `event_stream(node, seq)` is the archetype) -- call
      sites inside loops inherit (b)'s varying-key rule.
  A5  order-sensitive float reduction: `+=`/`-=` accumulation into a
      `double`/`float` lvalue inside a loop, in the fan-out/merge layers
      (src/milback/sim/, src/milback/cell/, bench/, or any function that
      names sim::TrialRunner), bypassing `sim::Accumulator`. Fixed-order
      single-threaded accumulation is waivable with a reason.

Waiver grammar (reason string is mandatory; a waiver without a reason, or
with a key no check owns, is itself a WAIVER finding):

    // milback-analyze: no-contract(<reason>)
    // milback-analyze: no-unordered-iter(<reason>)
    // milback-analyze: no-rng(<reason>)
    // milback-analyze: no-reduction(<reason>)

A waiver covers findings on its own line and on the line directly below it;
for A1 it may sit at either the header declaration or the definition. The
prefix is the one the tree's waivers were written with (the checks began in
a separate analyzer); it names the waiver, not a tool.

Usage: physics_lint.py [<repo-root>]   or   physics_lint.py --list-rules
Findings print as `path:line: [ID] message`; the exit status is non-zero
when any finding survives waivers.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tests", "bench", "examples")
HDR_EXTS = {".hpp", ".hh", ".h"}
CPP_EXTS = {".cpp", ".cc", ".cxx"}
# The seeded violations are checked by tests/lint/run_lint_fixtures.py.
FIXTURE_DIR = "tests/lint/fixtures/"

# What runs the simulator: the scope of R13 and the users R12 counts.
SIMULATOR_DIRS = ("src/", "bench/", "examples/")

RNG_ALLOWED = ("src/milback/util/rng.hpp", "src/milback/util/rng.cpp")
RNG_PATTERNS = [
    (re.compile(r"(?<![\w:])(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
]
# Raw std engines, flagged everywhere but tests/ (the references Rng is
# checked against).
RNG_ENGINE = re.compile(
    r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux\w*)\b"
)
RNG_ENGINE_SCOPES = ("src/", "bench/", "examples/")

USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")

# Physical-quantity stems that demand a unit suffix on double params/fields.
QUANTITY_STEM = re.compile(
    r"(?:^|_)(?:freq|frequency|power|gain|loss|bandwidth|azimuth|elevation"
    r"|orientation|angle|distance|range|duration|wavelength|rate|separation"
    r"|spacing|baseline|noise_floor|beamwidth|attenuation|delay|offset"
    r"|threshold_db|snr|rssi)(?:$|_)"
)
UNIT_SUFFIX = re.compile(
    r"_(?:hz|khz|mhz|ghz|dbm|dbi|dbc|db|deg|rad|s|ms|us|ns|m|mm|cm|km|w|mw"
    r"|uw|bps|kbps|mbps|gbps|sps|v|mv|a|ma|j|uj|nj|hz_per_s|per_s|per_m"
    r"|frac|ratio|lin|linear|coeff|alpha|bins|bits|samples|cells|elements)$"
)
# `double <identifier>` in a declaration context (parameter or field).
DOUBLE_DECL = re.compile(r"\bdouble\s+([a-z][a-z0-9_]*)\s*[,;=){]")

PARENT_INCLUDE = re.compile(r'#include\s+"\.\./')

# R5: raw threading primitives; only the sim engine may spawn threads.
THREAD_PRIMITIVE = re.compile(r"\bstd::(?:jthread|thread|async)\b")
THREAD_TYPES = ("std::thread", "std::jthread", "std::async")
THREAD_ALLOWED_PREFIX = "src/milback/sim/"

# R6: fork() whose label is computed with arithmetic -- the collision-prone
# per-trial seeding pattern that Rng::stream replaces.
FORK_ARITHMETIC = re.compile(r"\bfork\s*\([^)]*[*+%^]")

# R7: a complex phasor built from a cos/sin pair -- the per-sample-trig
# synthesis idiom that dsp::PhasorOscillator replaces.
TRIG_PHASOR = re.compile(r"std::cos\s*\([^()]*(?:\([^()]*\)[^()]*)*\)\s*,\s*std::sin\s*\(")
TRIG_PHASOR_ALLOWED_PREFIX = "src/milback/dsp/"

# R8: an ad-hoc round-driven time loop (`for (... round ...)` or
# `while (... round ...)`) -- the hand-rolled MAC/network simulation idiom
# the discrete-event cell engine replaces.
ROUND_LOOP = re.compile(r"\b(?:for|while)\s*\([^)]*\bround\w*\b")
ROUND_LOOP_ALLOWED_PREFIX = "src/milback/cell/"

# R9: wall-clock access in simulation code -- sim timestamps must be sim
# time; the only sanctioned std::chrono user is the obs profiling scope.
CHRONO = re.compile(r"\bstd::chrono\b")
CHRONO_ALLOWED_PREFIX = "src/milback/obs/"

# R10: a hand-rolled free-space-path-loss term (`20*log10(<distance-ish>)`)
# -- the shortcut that bypasses the channel layer's PathSet-aware
# propagation. Only flagged when the log10 argument mentions a distance-like
# quantity, so dB/voltage-ratio conversions (amp2db, constellation penalties)
# stay legal.
FSPL_LOG = re.compile(r"\b20(?:\.0*)?[fF]?\s*\*\s*(?:std::)?log10\s*\(([^;]*)\)")
FSPL_DISTANCE_ARG = re.compile(
    r"(?:^|[^A-Za-z0-9_])(?:dist\w*|range\w*|length\w*|radius\w*|separation\w*"
    r"|[A-Za-z0-9_]*_m)\b"
)
FSPL_ALLOWED_PREFIX = "src/milback/channel/"

# R11: an ad-hoc relay/flood loop (`for (... ttl/hop/flood/neighbor ...)`)
# -- the hand-rolled multi-hop topology idiom the mesh layer replaces.
MESH_LOOP = re.compile(
    r"\b(?:for|while)\s*\([^)]*\b(?:ttl\w*|hops?\w*|flood\w*|neighbor\w*)\b"
)
MESH_LOOP_ALLOWED_PREFIX = "src/milback/mesh/"

# R12 (per function): the layers whose free functions are checked one by one.
FUNCTION_REACH_DIRS = ("src/milback/dsp/", "src/milback/rf/")

# A3/A5 scopes.
STREAM_ONLY_PREFIXES = ("src/milback/cell/", "src/milback/sim/")
REDUCTION_SCOPES = ("src/milback/sim/", "src/milback/cell/", "bench/")
REDUCTION_EXEMPT = ("src/milback/sim/accumulator.",)

# (id, waiver key or None for an unwaivable rule, summary).
RULES = (
    ("R1", None, "raw std RNG engine/distribution outside util/rng -- use milback::Rng"),
    ("R2", None, "`using namespace` in a header"),
    ("R3", None, "double member that looks like a physical quantity without a unit suffix"),
    ("R4", None, "header hygiene: `#pragma once` first, no parent-relative #include"),
    ("R5", None, "raw std::thread/std::async outside src/milback/sim/, also through aliases"),
    ("R6", None, "fork() with a computed label in bench -- use Rng::stream(seed, point, trial)"),
    ("R7", None, "cos/sin phasor pair outside src/milback/dsp/ -- use dsp::PhasorOscillator"),
    ("R8", None, "ad-hoc round time loop outside the cell engine"),
    ("R9", None, "std::chrono outside src/milback/obs/, also through aliases --"
                 " sim timestamps must be sim time"),
    ("R10", None, "ad-hoc 20*log10(distance) FSPL outside src/milback/channel/"),
    ("R11", None, "ad-hoc TTL/flood/neighbor relay loop outside src/milback/mesh/"),
    ("R12", None, "src/milback/ header that nothing outside tests/ (and its own .cpp)"
                  " includes; in dsp/ and rf/, also a free function nothing outside"
                  " tests/ names"),
    ("R13", None, "contract check inside a noexcept function body, or one call away"),
    ("A1", "no-contract", "public milback header API whose definition has no contract check"),
    ("A2", "no-unordered-iter", "unordered-container iteration feeding a report/export"),
    ("A3", "no-rng", "Rng escaping scope, unkeyed stream in a loop, fork on an Rng receiver"),
    ("A5", "no-reduction", "order-sensitive float += reduction bypassing sim::Accumulator"),
    ("WAIVER", None, "waiver without a reason, or with a key no check owns"),
)
WAIVER_KEYS = {key: rule for rule, key, _ in RULES if key}
CHECK_KEYS = {rule: key for key, rule in WAIVER_KEYS.items()}

WAIVER_RE = re.compile(r"milback-analyze:\s*no-([a-z-]+)\s*(?:\(([^)]*)\))?")

# Sink names that mark a function as writing report/export state (A2 taint
# seeds). Type names and exporter entry points, not generic method names.
SINK_NAMES = {
    "CellReport", "CellNodeReport",
    "MeshReport", "MeshNodeReport",
    "CsvWriter", "metrics_jsonl", "prometheus_text", "chrome_trace_json",
    "write_env_exports",
}

# The contract checks, all of which throw under the default handler.
CONTRACT_TOKENS = {
    "MILBACK_REQUIRE", "MILBACK_ENSURE", "MILBACK_ASSERT",
    "require_finite", "require_positive", "require_non_negative",
    "require_in_range", "require_unit_interval", "require_nonzero",
}

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
HEX_DIGITS = set("0123456789abcdefABCDEF")
# Comments inside a preprocessor directive (strings matched to skip them).
DIRECTIVE_NOISE = re.compile(r'"(?:[^"\\\n]|\\.)*"|//[^\n]*|/\*.*?\*/', re.S)
NOT_NEWLINE = re.compile(r"[^\n]")


class Tok:
    __slots__ = ("kind", "val", "line")

    def __init__(self, kind, val, line):
        self.kind = kind  # 'id' | 'num' | 'str' | 'p' (punct)
        self.val = val
        self.line = line


def tokenize(text):
    """Returns (tokens, waivers, includes, code).

    waivers: {line: [(waiver_key, reason_or_None)]} -- reason None means the
    comment matched the waiver marker but carried no parenthesised reason.
    includes: list of quoted include paths.
    code: `text` with every comment and string/char literal blanked to
    spaces; offsets and newlines kept, directives kept bar their comments.
    """
    toks, waivers, includes, blanks = [], {}, [], []
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
            m = re.match(r'#\s*include\s*"([^"]+)"', directive)
            if m:
                includes.append(m.group(1))
            for noise in DIRECTIVE_NOISE.finditer(directive):
                if noise.group(0)[0] == "/":
                    blanks.append((i + noise.start(), i + noise.end()))
            line += directive.count("\n")
            i = j
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            note_comment(text[i:j], line)
            blanks.append((i, j))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            body = text[i:j + 2]
            note_comment(body, line)
            blanks.append((i, j + 2))
            line += body.count("\n")
            i = j + 2
            continue
        if c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i + m.end())
                end = n if end < 0 else end + len(m.group(1)) + 2
                toks.append(Tok("str", '""', line))
                blanks.append((i, end))
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
            blanks.append((i, j + 1))
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
                             (text[j] in "+-" and text[j - 1] in "eEpP") or
                             (text[j] == "'" and j + 1 < n and text[j + 1] in HEX_DIGITS)):
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
    pieces, last = [], 0
    for start, end in blanks:
        pieces.append(text[last:start])
        pieces.append(NOT_NEWLINE.sub(" ", text[start:end]))
        last = end
    pieces.append(text[last:])
    return toks, waivers, includes, "".join(pieces)


CLOSERS = {"{": "}", "(": ")"}


def match_close(toks, i):
    """toks[i] is '{' or '('; returns index one past its matching closer."""
    opener = toks[i].val
    closer = CLOSERS[opener]
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if v == opener:
            depth += 1
        elif v == closer:
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
    __slots__ = ("chain", "line", "loop", "args", "member", "guarded")

    def __init__(self, chain, line, loop, args, member, guarded):
        self.chain = chain  # e.g. ['Rng', '::', 'stream'] or ['rng', '.', 'fork']
        self.line = line
        self.loop = loop
        self.args = args    # list of token lists (top-level comma split)
        self.member = member    # called through `.` or `->`
        self.guarded = guarded  # inside a `try` block of the caller

    def name(self):
        return self.chain[-1]


class Func:
    __slots__ = ("name", "cls", "ns", "file", "line", "params", "ret_type",
                 "is_public", "is_def", "is_defaulted", "is_pure", "is_friend",
                 "noexcept_line", "n_stmts", "has_contract", "mentions", "calls",
                 "loops", "f_adds", "locals", "local_lines", "mutated")

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
        self.noexcept_line = None  # line of a `noexcept` (not `noexcept(false)`)
        self.n_stmts = 0
        self.has_contract = False
        self.mentions = {}        # identifier -> first line seen in body
        self.calls = []
        self.loops = []
        self.f_adds = []          # (lhs_chain, line, loop)
        self.locals = {}          # name -> type spelling ('auto:<chain>' lazy)
        self.local_lines = {}     # local name -> declaration line
        self.mutated = {}         # name -> [lines where ++/--/+=/-= touch it]

    def qname(self):
        parts = list(self.ns)
        if self.cls:
            parts.append(self.cls)
        parts.append(self.name)
        return "::".join(parts)


class Model:
    def __init__(self):
        self.funcs = []           # all functions with bodies (definitions)
        self.lambdas = []         # noexcept lambda bodies, for R13 only
        self.decls = []           # header declarations (A1 universe)
        self.aliases = {}         # alias name -> (target_spelling, file, line, kind)
        self.members = {}         # 'Cls::field' -> type spelling
        self.member_decls = []    # (cls, name, raw_type, file, line)
        self.bare_members = {}    # field -> set of type spellings
        self.waivers = {}         # file -> {line: [(key, reason)]}
        self.code = {}            # file -> comment/literal-blanked text
        self.includes = {}        # file -> quoted include paths
        self.names = {}           # simulator file -> ids not after `.`/`->`

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
                i = match_close(toks, i)
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
            close = match_close(toks, j)
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
        close = match_close(toks, j)
        self._scope(j + 1, close - 1, ns, name or "<anon>", default_public)
        # `class X { ... } instance;` tail is consumed by the caller loop.
        return close

    def _skip_enum(self, i, end):
        toks = self.toks
        j = i + 1
        while j < end and toks[j].val not in ("{", ";"):
            j += 1
        if j < end and toks[j].val == "{":
            j = match_close(toks, j)
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
                j = match_close(toks, j)
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
                close = match_close(toks, j)
                return close, access
            return j + 1, access

        func = self._make_func(start, paren, ns, cls, access)
        if func is None:
            if term == "{":
                return match_close(toks, j), access
            return j + 1, access

        close_paren = match_close(toks, paren)
        func.params = self._parse_params(paren + 1, close_paren - 1)

        if term == ";":
            tail = [t.val for t in toks[close_paren:j]]
            func.is_defaulted = "default" in tail or "delete" in tail
            func.is_pure = bool(tail) and tail[-1] == "0" and "=" in tail
            self.model.decls.append(func)
            return j + 1, access

        # term == '{': find the real body brace (skip ctor init lists).
        body_open = self._find_body(close_paren, end)
        if body_open is None:
            return match_close(toks, j), access
        body_close = match_close(toks, body_open)
        func.is_def = True
        func.noexcept_line = self._noexcept_line(close_paren, body_open)
        self._analyze_body(func, body_open + 1, body_close - 1)
        self.model.funcs.append(func)
        if self.is_header:
            # Inline definition in a header is also the declaration.
            self.model.decls.append(func)
        return body_close, access

    def _noexcept_line(self, i, end):
        """Line of the `noexcept` among a definition's qualifiers in
        toks[i:end] (before a trailing return type or ctor init list), or
        None when there is none or it is `noexcept(false)`."""
        toks = self.toks
        for j in range(i, end):
            v = toks[j].val
            if v in (":", "->"):
                return None
            if v == "noexcept":
                if j + 2 < end and toks[j + 1].val == "(" and toks[j + 2].val == "false":
                    return None
                return toks[j].line
        return None

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
        out = []
        for p in self._split_args(i, end):
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

    def _find_body(self, close_paren, end):
        """Walks tokens after the parameter list to the function body '{',
        skipping cv/ref/noexcept/trailing-return and ctor init lists."""
        toks = self.toks
        j = close_paren
        in_init = False
        while j < end:
            v = toks[j].val
            if v == "{":
                if in_init and toks[j - 1].kind == "id":
                    j = match_close(toks, j)  # brace-init member
                    continue
                return j
            if v == ";":
                return None
            if v == ":" and not in_init:
                in_init = True
                j += 1
                continue
            if v == "(":
                j = match_close(toks, j)
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
        loop = None
        loop_stack = []  # (loop, end_index)
        try_ends = []    # end index of each enclosing `try` block
        stmt_start = True
        j = i
        while j < end:
            while loop_stack and j >= loop_stack[-1][1]:
                loop_stack.pop()
                loop = loop_stack[-1][0] if loop_stack else None
            while try_ends and j >= try_ends[-1]:
                try_ends.pop()
            t = toks[j]
            v = t.val
            is_call = t.kind == "id" and self._note_id(func, j, i, end, loop, try_ends)
            if v == "try" and j + 1 < end and toks[j + 1].val == "{":
                try_ends.append(match_close(toks, j + 1))
            if v == "noexcept":
                self._noexcept_lambda(func, j, end)
            if v in ("for", "while", "do"):
                new_loop = Loop(t.line, loop)
                body_end = j + 1
                if v in ("for", "while") and j + 1 < end and toks[j + 1].val == "(":
                    hdr_close = match_close(toks, j + 1)
                    self._loop_header(new_loop, func, j + 2, hdr_close - 1, v)
                    # The walk resumes at the body; the header's names and
                    # calls belong to the enclosing scope.
                    for h in range(j + 2, hdr_close - 1):
                        if toks[h].kind == "id":
                            self._note_id(func, h, j + 2, hdr_close - 1, loop, try_ends)
                    k = hdr_close
                else:
                    k = j + 1
                if k < end and toks[k].val == "{":
                    body_end = match_close(toks, k)
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
            if v in (";", "{", "}"):
                if v == ";":
                    func.n_stmts += 1
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
            if is_call:
                j += 2  # descend into args so nested calls are seen too
                stmt_start = False
                continue
            if stmt_start and t.kind == "id":
                self._maybe_decl(func, j, end)
            stmt_start = False
            j += 1

    def _noexcept_lambda(self, func, j, end):
        """toks[j] is a `noexcept` inside func's body; when it specifies a
        lambda (`noexcept`, an optional trailing return type, then `{`),
        records the lambda body as a function of its own for R13."""
        toks = self.toks
        k = j + 1
        if k < end and toks[k].val == "(":
            if k + 1 < end and toks[k + 1].val == "false":
                return
            k = match_close(toks, k)
        while k < end and (toks[k].kind == "id" or
                           toks[k].val in ("->", "::", "<", ">", "&", "*", "&&")):
            k += 1
        if k >= end or toks[k].val != "{" or toks[j - 1].val not in (")", "]", "mutable"):
            return
        lam = Func("<lambda>", func.cls, func.ns, self.rel, toks[j].line)
        lam.noexcept_line = toks[j].line
        self._analyze_body(lam, k + 1, match_close(toks, k) - 1)
        self.model.lambdas.append(lam)

    def _note_id(self, func, j, lo, end, loop, try_ends):
        """Records the identifier toks[j] of a body span toks[lo:end] as a
        mention, and as a call when `(` follows. Returns whether it is one."""
        toks = self.toks
        t = toks[j]
        func.mentions.setdefault(t.val, t.line)
        if t.val in CONTRACT_TOKENS:
            func.has_contract = True
        if j + 1 >= end or toks[j + 1].val != "(" or t.val in KEYWORDS_NOT_NAMES:
            return False
        close = match_close(toks, j + 1)
        func.calls.append(Call(
            self._call_chain(j, lo), t.line, loop,
            self._split_args(j + 2, close - 1),
            member=j > lo and toks[j - 1].val in (".", "->"),
            guarded=bool(try_ends)))
        return True

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
            lp.iter_expr = toks[colon + 1:end]
            return
        # classic for / while: induction vars = ids declared or stepped.
        for j in range(i, end):
            if toks[j].kind == "id":
                nxt = toks[j + 1].val if j + 1 < end else ""
                prv = toks[j - 1].val if j > i else ""
                if nxt in ("=", "++", "--", "+=", "-=") or prv in ("++", "--"):
                    lp.vars.add(toks[j].val)
        # a declaration in clause 1 is a local too
        self._maybe_decl(func, i, end)

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
            init = self._init_chain(k + 1, end)
            func.locals[nt.val] = ("auto", init)
        else:
            func.locals[nt.val] = tspell
        func.local_lines.setdefault(nt.val, nt.line)

    def _init_chain(self, i, end):
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
# Line rules R1-R11
# ---------------------------------------------------------------------------

def seen_by(model, rel):
    """The files that see `rel`: itself and every file that includes it,
    directly or through other files. A quoted include names a path under
    src/ or one relative to the including file."""
    users = {}
    for user, paths in model.includes.items():
        for p in paths:
            for target in ("src/" + p, (Path(user).parent / p).as_posix()):
                users.setdefault(target, set()).add(user)
    out, todo = {rel}, [rel]
    while todo:
        for user in users.get(todo.pop(), ()):
            if user not in out:
                out.add(user)
                todo.append(user)
    return out


def alias_uses(model):
    """{(rule, file, line): why} for std::chrono (R9) and std::thread /
    std::jthread / std::async (R5) reached through an alias: the alias's own
    declaration, and the first use of its name in each function body of a
    file that sees the declaration."""
    out = {}
    named = {}  # alias name -> (rule, canonical target, files that see it)
    for name, (target, afile, aline, kind) in model.aliases.items():
        canon = model.canon(target) if target != name else target
        if "std::chrono" in canon:
            rule = "R9"
        elif any(canon == t or canon.startswith((t + "<", t + "::")) for t in THREAD_TYPES):
            rule = "R5"
        else:
            continue
        out[(rule, afile, aline)] = f"{kind} `{name}` resolves to `{canon}`"
        if kind != "using-namespace":
            named[name] = (rule, canon, seen_by(model, afile))
    for f in model.funcs:
        for name, (rule, canon, files) in named.items():
            if name in f.mentions and f.file in files:
                out.setdefault((rule, f.file, f.mentions[name]),
                               f"`{name}` is an alias of `{canon}`")
    return out


def lint_lines(rel, code, via, out):
    """R1-R11 over the comment/literal-blanked text of one file. `via` is
    alias_uses(): an R5/R9 line reached through an alias is reported once,
    like a direct use."""
    lines = code.split("\n")
    is_header = Path(rel).suffix in HDR_EXTS
    is_public_header = is_header and rel.startswith("src/milback/")
    in_src = rel.startswith("src/")

    def add(rule, i, msg):
        out.append(Finding(rule, rel, i, msg))

    if is_header:
        first_code = next((l for l in lines if l.strip()), "")
        if first_code.strip() != "#pragma once":
            add("R4", 1, "header must start with `#pragma once`")

    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if rel not in RNG_ALLOWED:
            for pat, what in RNG_PATTERNS:
                if pat.search(line):
                    add("R1", i, f"{what} outside util/rng -- use milback::Rng")
            if rel.startswith(RNG_ENGINE_SCOPES):
                for m in RNG_ENGINE.finditer(line):
                    add("R1", i, f"raw {m.group(0)} outside util/rng -- use milback::Rng")

        if is_header and USING_NAMESPACE.search(line):
            add("R2", i, "`using namespace` in header")

        if PARENT_INCLUDE.search(line):
            add("R4", i, "parent-relative #include")

        if not rel.startswith(THREAD_ALLOWED_PREFIX):
            # "" for a direct use, the alias for one through an alias.
            why = "" if THREAD_PRIMITIVE.search(line) else via.get(("R5", rel, i))
            if why is not None:
                add("R5", i, "raw std::thread/std::async outside src/milback/sim/"
                    " -- use sim::TrialRunner" + (f" ({why})" if why else ""))

        if rel.startswith("bench/") and FORK_ARITHMETIC.search(line):
            add("R6", i, "fork() with computed label in bench --"
                " use Rng::stream(seed, point, trial)")

        if not in_src:
            continue

        if not rel.startswith(TRIG_PHASOR_ALLOWED_PREFIX) and TRIG_PHASOR.search(line):
            add("R7", i, "cos/sin phasor pair outside src/milback/dsp/"
                " -- use dsp::PhasorOscillator")

        if not rel.startswith(ROUND_LOOP_ALLOWED_PREFIX) and ROUND_LOOP.search(line):
            add("R8", i, "ad-hoc round time loop outside"
                " src/milback/cell/ -- drive rounds through cell::CellEngine")

        if not rel.startswith(CHRONO_ALLOWED_PREFIX):
            why = "" if CHRONO.search(line) else via.get(("R9", rel, i))
            if why is not None:
                add("R9", i, "std::chrono outside src/milback/obs/ --"
                    " stamp sim time, or profile via obs::ProfileScope"
                    + (f" ({why})" if why else ""))

        if not rel.startswith(MESH_LOOP_ALLOWED_PREFIX) and MESH_LOOP.search(line):
            add("R11", i, "ad-hoc TTL/flood/neighbor relay loop outside"
                " src/milback/mesh/ -- route through mesh::build_routes /"
                " mesh::NeighborTable")

        if not rel.startswith(FSPL_ALLOWED_PREFIX):
            for m in FSPL_LOG.finditer(line):
                if FSPL_DISTANCE_ARG.search(m.group(1)):
                    add("R10", i, "ad-hoc 20*log10(distance) FSPL outside"
                        " src/milback/channel/ -- query the channel layer"
                        " (fspl_db / PathSet)")

        if is_public_header:
            for name in DOUBLE_DECL.findall(line):
                name = name.rstrip("_")  # private members carry a trailing `_`
                if QUANTITY_STEM.search(name) and not UNIT_SUFFIX.search(name):
                    add("R3", i, f"double `{name}` looks like a physical"
                        " quantity but has no unit suffix")


# ---------------------------------------------------------------------------
# Model rules R12, R13
# ---------------------------------------------------------------------------

def check_r12(model):
    findings = []
    includers = {}
    for rel, paths in model.includes.items():
        for p in paths:
            if p.startswith("milback/"):
                includers.setdefault("src/" + p, set()).add(rel)
    for rel in model.code:
        if rel.startswith("src/milback/") and rel.endswith(".hpp"):
            users = includers.get(rel, set()) - {rel[: -len(".hpp")] + ".cpp"}
            if all(u.startswith("tests/") for u in users):
                findings.append(Finding(
                    "R12", rel, 1, "header only tests reach -- use it from the"
                    " simulator, or move it under tests/"))
    # Per function, in dsp/ and rf/.
    for d in model.decls:
        rel = d.file
        if not (rel.endswith(".hpp") and rel.rsplit("/", 1)[0] + "/" in FUNCTION_REACH_DIRS):
            continue
        if d.cls or d.name.startswith(("operator", "~")):
            continue
        own_cpp = rel[: -len(".hpp")] + ".cpp"
        named = any(d.name in names for user, names in model.names.items()
                    if user not in (rel, own_cpp))
        named = named or any(
            f.file == own_cpp and f.name != d.name and d.name in f.mentions
            for f in model.funcs)
        if not named:
            findings.append(Finding(
                "R12", rel, d.line, f"`{d.name}` is named by nothing outside"
                " tests/ -- call it from the simulator, or delete it"))
    return findings


def check_r13(model):
    findings = []
    sim_funcs = [f for f in model.funcs if f.file.startswith(SIMULATOR_DIRS)]
    checked = {f.name for f in sim_funcs if f.has_contract}
    local = {}  # (file, name) -> some definition in that file has a check
    for f in sim_funcs:
        local[(f.file, f.name)] = local.get((f.file, f.name), False) or f.has_contract
    for f in sim_funcs + [g for g in model.lambdas if g.file.startswith(SIMULATOR_DIRS)]:
        if f.noexcept_line is None:
            continue
        if f.has_contract:
            findings.append(Finding(
                "R13", f.file, f.noexcept_line, "contract check inside a noexcept"
                " body -- a violation calls std::terminate instead of throwing;"
                " drop the noexcept"))
            continue
        calls = sorted({
            c.name() for c in f.calls
            if not (c.member or c.guarded or c.chain[0] == "std")
            and local.get((f.file, c.name()), c.name() in checked)
        })
        if calls:
            findings.append(Finding(
                "R13", f.file, f.noexcept_line, f"noexcept body calls"
                f" {', '.join(calls)}, which has a contract check -- a violation"
                " calls std::terminate instead of throwing; drop the noexcept"))
    return findings


# ---------------------------------------------------------------------------
# Model checks A1-A3, A5
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


def key_varies(f, call, name):
    """Whether `name`, an id in `call`'s arguments, changes per iteration of
    the enclosing loop: a loop variable, a local declared inside an
    enclosing loop body, or a counter stepped (++/--/+=) inside the loop."""
    if name in call.loop.all_vars():
        return True
    dl = f.local_lines.get(name)
    if dl is not None and call.loop.spans_line(dl):
        return True
    return any(call.loop.spans_line(ml) for ml in f.mutated.get(name, ()))


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
                if lvars and not any(key_varies(f, c, a) for a in arg_ids):
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
                if lvars and not any(key_varies(f, c, a) for a in arg_ids):
                    findings.append(Finding(
                        "A3", f.file, c.line,
                        f"stream wrapper `{c.name()}` (returns Rng by value)"
                        " called with a key that never varies with the"
                        f" enclosing loop (loop vars: {', '.join(sorted(lvars))})"
                        " — iterations share one stream; include the loop's"
                        " entity id in the key"))
            # (c) fork() on an Rng-typed receiver.
            if c.name() == "fork" and len(c.chain) >= 3 and c.chain[-2] in (".", "->"):
                recv = c.chain[:-2]
                rtype = resolve_chain_type(model, f, recv)
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


def apply_waivers(model, findings):
    """Drops the A findings a reasoned waiver covers; adds a WAIVER finding
    for each waiver without a reason or with an unknown key."""
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
        key = CHECK_KEYS.get(f.check)
        waived = False
        for wfile, wline in f.waiver_sites if key else ():
            per_line = model.waivers.get(wfile, {})
            if any(k == key and r for cand in (wline, wline - 1)
                   for k, r in per_line.get(cand, ())):
                waived = True
                break
        if not waived:
            kept.append(f)
    return kept + waiver_errors


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_model(root):
    model = Model()
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in HDR_EXTS | CPP_EXTS or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if rel.startswith(FIXTURE_DIR):
                continue
            toks, waivers, includes, code = tokenize(
                path.read_text(encoding="utf-8", errors="replace"))
            model.code[rel] = code
            model.includes[rel] = includes
            if waivers:
                model.waivers[rel] = waivers
            if rel.startswith(SIMULATOR_DIRS):
                model.names[rel] = {
                    t.val for k, t in enumerate(toks)
                    if t.kind == "id" and (k == 0 or toks[k - 1].val not in (".", "->"))
                }
            try:
                FileParser(rel, toks, model).parse()
            except RecursionError:
                print(f"physics_lint: warning: parse gave up on {rel}", file=sys.stderr)
    return model


def list_rules():
    print("physics_lint rules (R: unwaivable; A: waivable with the key shown):")
    for rule, key, desc in RULES:
        print(f"  {rule:<6}  {desc}")
        if key:
            print(f"          waiver: // milback-analyze: {key}(<reason>)")


def main() -> int:
    if "--list-rules" in sys.argv[1:]:
        list_rules()
        return 0
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd()
    model = build_model(root)
    via = alias_uses(model)
    findings = []
    for rel, code in model.code.items():
        lint_lines(rel, code, via, findings)
    for check in (check_r12, check_r13, check_a1, check_a2, check_a3, check_a5):
        findings.extend(check(model))
    findings = apply_waivers(model, findings)
    uniq = sorted({f.key(): f for f in findings}.values(),
                  key=lambda f: (f.file, f.line, f.check, f.msg))
    for f in uniq:
        print(f)
    print(f"physics_lint: {len(model.code)} files scanned, {len(uniq)} violation(s)")
    return 1 if uniq else 0


if __name__ == "__main__":
    sys.exit(main())
