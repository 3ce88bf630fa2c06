#!/usr/bin/env python3
"""Static physics/correctness lint for the milback tree.

Rules:
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
      sim::TrialRunner so thread-count invariance stays provable.
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
      deterministic exports.
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
  R12 reach discipline: every src/milback/ header must be included by
      something outside tests/ besides its own .cpp -- a header only tests
      reach is a second model nothing in the simulator runs (test-only
      probes belong under tests/). The include graph is textual: quoted
      `#include "milback/..."` lines across src/, bench/, examples/, tests/.
      In src/milback/dsp/ and src/milback/rf/ the rule also works per
      function: a free function declared in one of those headers is a
      finding when no file in src/, bench/ or examples/ names it. Its own
      header does not count, and in its own .cpp only names inside a
      function body after the end of its definition count. Also textual:
      comments and string literals are blanked, and `.name`/`->name`
      member accesses are not names.
  R13 contract/noexcept discipline: a contract check (MILBACK_REQUIRE /
      ENSURE / ASSERT or a require_* domain guard) written directly in the
      body of a `noexcept` function in src/, bench/ or examples/, or a call
      from that body to a function whose own body has one. The default
      handler throws ContractViolation, and a throw out of a noexcept body
      calls std::terminate instead of reaching the caller. Calls are
      followed one level and matched by name: a name the file defines
      resolves to its own definitions, any other to every simulator
      definition; calls through `.`/`->` and calls inside a `try` block
      are not followed.

Exit status is non-zero when any violation is found.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CPP_EXTS = {".cpp", ".hpp", ".cc", ".hh", ".h"}
SCAN_DIRS = ("src", "tests", "bench", "examples")

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

# R12: the quoted project includes that make up the textual include graph.
MILBACK_INCLUDE = re.compile(r'^\s*#\s*include\s*"(milback/[^"]+)"')

# R12 (per function): the layers whose free functions are checked one by one.
FUNCTION_REACH_DIRS = ("src/milback/dsp/", "src/milback/rf/")
# What runs the simulator: the scope of R13 and the users R12 counts.
SIMULATOR_DIRS = ("src/", "bench/", "examples/")

# R13: the contract checks that throw under the default handler.
CONTRACT_CHECK = re.compile(
    r"\b(?:MILBACK_(?:REQUIRE|ENSURE|ASSERT)|require_(?:finite|positive"
    r"|non_negative|in_range|unit_interval|nonzero))\s*\("
)
NOEXCEPT = re.compile(r"\bnoexcept\b")
# An identifier applied to an argument list: a call, or a definition's name.
# A `std::`-qualified name is never the repository's own function.
CALL = re.compile(r"(?<!std::)\b([A-Za-z_]\w*)\s*\(")
# Words that take a parenthesized list but do not name a function.
NOT_FUNCTIONS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "static_assert", "requires", "operator",
}
FN_QUALIFIER = re.compile(r"(?:const|volatile|noexcept)\b|&&?")

COMMENT_LINE = re.compile(r"^\s*(?://|\*|/\*)")
# Comments and string/char literals; digit separators (1'000) go first.
CODE_NOISE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)+\'', re.S
)
DIGIT_SEPARATOR = re.compile(r"(?<=[0-9])'(?=[0-9A-Fa-f])")


def strip_strings(line: str) -> str:
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)


def lint_file(root: Path, path: Path, errors: list[str]) -> None:
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    is_header = path.suffix in {".hpp", ".hh", ".h"}
    is_public_header = is_header and rel.startswith("src/milback/")

    if is_header:
        first_code = next(
            (l for l in lines if l.strip() and not COMMENT_LINE.match(l)), ""
        )
        if first_code.strip() != "#pragma once":
            errors.append(f"{rel}:1: [R4] header must start with `#pragma once`")

    for i, raw in enumerate(lines, start=1):
        if COMMENT_LINE.match(raw):
            continue
        line = strip_strings(raw)

        if rel not in RNG_ALLOWED:
            for pat, what in RNG_PATTERNS:
                if pat.search(line):
                    errors.append(
                        f"{rel}:{i}: [R1] {what} outside util/rng -- use milback::Rng"
                    )
            if rel.startswith(RNG_ENGINE_SCOPES):
                for m in RNG_ENGINE.finditer(line):
                    errors.append(
                        f"{rel}:{i}: [R1] raw {m.group(0)} outside util/rng"
                        " -- use milback::Rng"
                    )

        if is_header and USING_NAMESPACE.search(line):
            errors.append(f"{rel}:{i}: [R2] `using namespace` in header")

        if PARENT_INCLUDE.search(raw):
            errors.append(f"{rel}:{i}: [R4] parent-relative #include")

        if not rel.startswith(THREAD_ALLOWED_PREFIX) and THREAD_PRIMITIVE.search(line):
            errors.append(
                f"{rel}:{i}: [R5] raw std::thread/std::async outside"
                " src/milback/sim/ -- use sim::TrialRunner"
            )

        if rel.startswith("bench/") and FORK_ARITHMETIC.search(line):
            errors.append(
                f"{rel}:{i}: [R6] fork() with computed label in bench --"
                " use Rng::stream(seed, point, trial)"
            )

        if (
            rel.startswith("src/")
            and not rel.startswith(TRIG_PHASOR_ALLOWED_PREFIX)
            and TRIG_PHASOR.search(line)
        ):
            errors.append(
                f"{rel}:{i}: [R7] cos/sin phasor pair outside src/milback/dsp/"
                " -- use dsp::PhasorOscillator"
            )

        if (
            rel.startswith("src/")
            and not rel.startswith(ROUND_LOOP_ALLOWED_PREFIX)
            and ROUND_LOOP.search(line)
        ):
            errors.append(
                f"{rel}:{i}: [R8] ad-hoc round time loop outside"
                " src/milback/cell/ -- drive rounds through cell::CellEngine"
            )

        if (
            rel.startswith("src/")
            and not rel.startswith(CHRONO_ALLOWED_PREFIX)
            and CHRONO.search(line)
        ):
            errors.append(
                f"{rel}:{i}: [R9] std::chrono outside src/milback/obs/ --"
                " stamp sim time, or profile via obs::ProfileScope"
            )

        if (
            rel.startswith("src/")
            and not rel.startswith(MESH_LOOP_ALLOWED_PREFIX)
            and MESH_LOOP.search(line)
        ):
            errors.append(
                f"{rel}:{i}: [R11] ad-hoc TTL/flood/neighbor relay loop outside"
                " src/milback/mesh/ -- route through mesh::build_routes /"
                " mesh::NeighborTable"
            )

        if rel.startswith("src/") and not rel.startswith(FSPL_ALLOWED_PREFIX):
            for m in FSPL_LOG.finditer(line):
                if FSPL_DISTANCE_ARG.search(m.group(1)):
                    errors.append(
                        f"{rel}:{i}: [R10] ad-hoc 20*log10(distance) FSPL outside"
                        " src/milback/channel/ -- query the channel layer"
                        " (fspl_db / PathSet)"
                    )

        if is_public_header:
            for name in DOUBLE_DECL.findall(line):
                name = name.rstrip("_")  # private members carry a trailing `_`
                if QUANTITY_STEM.search(name) and not UNIT_SUFFIX.search(name):
                    errors.append(
                        f"{rel}:{i}: [R3] double `{name}` looks like a physical"
                        " quantity but has no unit suffix"
                    )


def lint_test_only_headers(root: Path, paths: list[Path], errors: list[str]) -> None:
    rels = [path.relative_to(root).as_posix() for path in paths]
    includers: dict[str, set[str]] = {}
    for path, rel in zip(paths, rels):
        for raw in path.read_text(encoding="utf-8", errors="replace").splitlines():
            m = MILBACK_INCLUDE.match(raw)
            if m:
                includers.setdefault("src/" + m.group(1), set()).add(rel)
    for rel in rels:
        if not (rel.startswith("src/milback/") and rel.endswith(".hpp")):
            continue
        users = includers.get(rel, set()) - {rel[: -len(".hpp")] + ".cpp"}
        if all(u.startswith("tests/") for u in users):
            errors.append(
                f"{rel}:1: [R12] header only tests reach -- use it from the"
                " simulator, or move it under tests/"
            )


def code_only(text: str) -> str:
    """`text` with comments and literals blanked; offsets and newlines kept."""
    text = DIGIT_SEPARATOR.sub(" ", text)
    return CODE_NOISE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def match_close(code: str, i: int) -> int:
    """Index just past the bracket that closes the one at `code[i]`."""
    pairs = {"(": ")", "{": "}", "[": "]"}
    stack = [pairs[code[i]]]
    j = i + 1
    while j < len(code) and stack:
        c = code[j]
        if c in pairs:
            stack.append(pairs[c])
        elif c == stack[-1]:
            stack.pop()
        j += 1
    return j


def skip_space(code: str, j: int) -> int:
    while j < len(code) and code[j].isspace():
        j += 1
    return j


def noexcept_body(code: str, j: int) -> int | None:
    """Given the index just past a `noexcept`, returns the index of the
    function body's `{`, or None when the keyword ends a declaration, a
    function type or an operator expression."""
    j = skip_space(code, j)
    if j < len(code) and code[j] == "(":
        end = match_close(code, j)
        if code[j + 1 : end - 1].strip() == "false":
            return None
        j = skip_space(code, end)
    return body_brace(code, j)


def body_brace(code: str, j: int) -> int | None:
    """Given the index just past a function's exception specification (or
    its cv/ref qualifiers), returns the index of its body's `{`, or None
    when no body follows."""
    while True:
        m = re.match(r"(?:override|final)\b", code[j:])
        if not m:
            break
        j = skip_space(code, j + m.end())
    if code.startswith("->", j):  # trailing return type
        while j < len(code) and code[j] not in "{;":
            j = match_close(code, j) if code[j] in "([" else j + 1
    elif code.startswith(":", j) and not code.startswith("::", j):
        # Constructor member-init list: `name(...)` / `name{...}`, commas.
        j += 1
        while True:
            m = re.match(r"\s*[\w:<>]+\s*", code[j:])
            if not m:
                return None
            j += m.end()
            if j >= len(code) or code[j] not in "({":
                return None
            j = skip_space(code, match_close(code, j))
            if not code.startswith(",", j):
                break
            j += 1
    return j if j < len(code) and code[j] == "{" else None


def function_bodies(code: str) -> list[tuple[str, int, int]]:
    """(name, start, end) of each function definition's body `{...}`: an
    identifier, its parameter list, optional cv/ref/noexcept qualifiers, a
    trailing return type or a member-init list, then `{`. Control
    statements, calls through `.`/`->` and member-init entries (after `:`
    or `,`) are not definitions."""
    out = []
    for m in CALL.finditer(code):
        name = m.group(1)
        if name in NOT_FUNCTIONS:
            continue
        k = m.start() - 1
        while k >= 0 and code[k].isspace():
            k -= 1
        if k >= 0 and (code[k] in ",.>" or (code[k] == ":" and code[k - 1 : k + 1] != "::")):
            continue
        j = skip_space(code, match_close(code, m.end() - 1))
        while True:
            q = FN_QUALIFIER.match(code, j)
            if not q:
                break
            j = skip_space(code, q.end())
            if q.group(0) == "noexcept" and j < len(code) and code[j] == "(":
                j = skip_space(code, match_close(code, j))
        brace = body_brace(code, j)
        if brace is not None:
            out.append((name, brace, match_close(code, brace)))
    return out


def function_checks(code: str) -> dict[str, bool]:
    """Name -> whether some definition of that name in `code` has a contract
    check directly in its body."""
    out: dict[str, bool] = {}
    for name, start, end in function_bodies(code):
        out[name] = out.get(name, False) or bool(CONTRACT_CHECK.search(code, start, end))
    return out


def unguarded_calls(code: str, start: int, end: int) -> set[str]:
    """Names called in code[start:end] outside its `try { ... }` blocks and
    not through `.` or `->` (a member of some other object, which the name
    alone cannot resolve)."""
    guarded = [
        (t.end() - 1, match_close(code, t.end() - 1))
        for t in re.finditer(r"\btry\s*\{", code[:end])
        if t.start() >= start
    ]
    names = set()
    for c in CALL.finditer(code, start, end):
        if any(lo <= c.start() < hi for lo, hi in guarded):
            continue
        k = c.start() - 1
        while k >= start and code[k].isspace():
            k -= 1
        if code[k] == "." or code[k - 1 : k + 1] == "->":
            continue
        names.add(c.group(1))
    return names


def lint_noexcept_contracts(
    rel: str, code: str, local: dict[str, bool], checked: set[str], errors: list[str]
) -> None:
    """`local` is function_checks(code): a name the file defines resolves to
    its own definitions. Any other name is checked when it is in `checked`,
    the names of every simulator definition with a check."""
    for m in NOEXCEPT.finditer(code):
        brace = noexcept_body(code, m.end())
        if brace is None:
            continue
        end = match_close(code, brace)
        line = code.count("\n", 0, m.start()) + 1
        if CONTRACT_CHECK.search(code, brace, end):
            errors.append(
                f"{rel}:{line}: [R13] contract check inside a noexcept body --"
                " a violation calls std::terminate instead of throwing;"
                " drop the noexcept"
            )
            continue
        calls = sorted(
            n for n in unguarded_calls(code, brace, end)
            if local.get(n, n in checked)
        )
        if calls:
            errors.append(
                f"{rel}:{line}: [R13] noexcept body calls {', '.join(calls)},"
                " which has a contract check -- a violation calls"
                " std::terminate instead of throwing; drop the noexcept"
            )


def namespace_scope(code: str) -> list[bool]:
    """Per character: True where every enclosing brace is a namespace."""
    out = [True] * len(code)
    stack: list[bool] = []  # one entry per open brace: is it a namespace?
    start = 0  # start of the text that leads up to the next brace
    for i, c in enumerate(code):
        if c == "{":
            stack.append(re.search(r"\bnamespace\b|\bextern\b", code[start:i]) is not None)
            start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            start = i + 1
        elif c == ";":
            start = i + 1
        out[i] = all(stack) and c != "}"
    return out


def free_function_decls(code: str) -> list[tuple[str, int]]:
    """(name, line) of the free functions a header declares at namespace
    scope. A statement declares one when an identifier sits right before its
    first `(` with no `=` ahead of it (that is a variable initializer)."""
    code = re.sub(r"(?m)^[ \t]*#.*$", lambda m: " " * len(m.group(0)), code)
    scope = namespace_scope(code)
    out = []
    stmt_start = None
    for i, c in enumerate(code):
        if not scope[i]:
            if stmt_start is not None and c == "{":
                out.extend(declared_name(code, stmt_start, i))
            stmt_start = None
            continue
        if c in ";{}":
            if stmt_start is not None and c == ";":
                out.extend(declared_name(code, stmt_start, i))
            stmt_start = None
        elif stmt_start is None and not c.isspace():
            stmt_start = i
    return out


def declared_name(code: str, start: int, end: int) -> list[tuple[str, int]]:
    stmt = code[start:end]
    if re.match(r"\s*(?:using|typedef|static_assert|friend|namespace)\b", stmt):
        return []
    paren = stmt.find("(")
    if paren < 0 or "=" in stmt[:paren]:
        return []
    m = re.search(r"([A-Za-z_]\w*)\s*$", stmt[:paren])
    if not m or m.group(1) in {"decltype", "alignas", "noexcept"}:
        return []
    if re.search(r"\boperator\b", stmt[:paren]):
        return []
    return [(m.group(1), code.count("\n", 0, start + m.start(1)) + 1)]


def definition_end(code: str, name: str) -> int:
    """Index past the body of `name`'s namespace-scope definition in `code`,
    or 0 when the file defines no such function."""
    scope = namespace_scope(code)
    for m in re.finditer(rf"\b{re.escape(name)}\s*\(", code):
        if not scope[m.start()]:
            continue
        j = match_close(code, m.end() - 1)
        while j < len(code) and code[j] not in "{;":
            j = match_close(code, j) if code[j] in "([" else j + 1
        if j < len(code) and code[j] == "{":
            return match_close(code, j)
    return 0


def lint_test_only_functions(codes: dict[str, str], errors: list[str]) -> None:
    users = {rel: code for rel, code in codes.items() if rel.startswith(SIMULATOR_DIRS)}
    for rel, code in codes.items():
        if not (rel.endswith(".hpp") and rel.rsplit("/", 1)[0] + "/" in FUNCTION_REACH_DIRS):
            continue
        own_cpp = rel[: -len(".hpp")] + ".cpp"
        for name, line in free_function_decls(code):
            pattern = re.compile(rf"(?<!\.)(?<!->)\b{re.escape(name)}\b")
            named = False
            for user, text in users.items():
                if user == own_cpp:
                    # A use sits in a function body; a later overload's
                    # definition at namespace scope is not one.
                    scope = namespace_scope(text)
                    hits = pattern.finditer(text, definition_end(text, name))
                    named = any(not scope[m.start()] for m in hits)
                else:
                    named = user != rel and pattern.search(text) is not None
                if named:
                    break
            if not named:
                errors.append(
                    f"{rel}:{line}: [R12] `{name}` is named by nothing outside"
                    " tests/ -- call it from the simulator, or delete it"
                )


RULES = (
    ("R1", "raw std RNG engine/distribution outside util/rng -- use milback::Rng"),
    ("R2", "`using namespace` in a header"),
    ("R3", "double member that looks like a physical quantity without a unit suffix"),
    ("R4", "header hygiene: `#pragma once` first, no parent-relative #include"),
    ("R5", "raw std::thread/std::async outside src/milback/sim/"),
    ("R6", "fork() with a computed label in bench -- use Rng::stream(seed, point, trial)"),
    ("R7", "cos/sin phasor pair outside src/milback/dsp/ -- use dsp::PhasorOscillator"),
    ("R8", "ad-hoc round time loop outside the cell engine"),
    ("R9", "std::chrono outside src/milback/obs/ -- sim timestamps must be sim time"),
    ("R10", "ad-hoc 20*log10(distance) FSPL outside src/milback/channel/"),
    ("R11", "ad-hoc TTL/flood/neighbor relay loop outside src/milback/mesh/"),
    ("R12", "src/milback/ header that nothing outside tests/ (and its own .cpp) includes;"
            " in dsp/ and rf/, also a free function nothing outside tests/ names"),
    ("R13", "contract check inside a noexcept function body, or one call away"),
)


def list_rules() -> None:
    print("physics_lint textual rules (fast, no compile database needed):")
    for rule, desc in RULES:
        print(f"  {rule}  {desc}")
    print()
    print("The AST-grounded semantic checks (A1-A5: contract coverage,")
    print("unordered-iteration order, RNG discipline, clock/thread aliases,")
    print("float reductions) live in scripts/milback_analyze.py; run")
    print("`milback_analyze.py --list-checks` for that table.")


def main() -> int:
    if "--list-rules" in sys.argv[1:]:
        list_rules()
        return 0
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd()
    errors: list[str] = []
    paths: list[Path] = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CPP_EXTS and path.is_file():
                paths.append(path)
                lint_file(root, path, errors)
    codes: dict[str, str] = {}
    for path in paths:
        rel = path.relative_to(root).as_posix()
        codes[rel] = code_only(path.read_text(encoding="utf-8", errors="replace"))
    checks = {
        rel: function_checks(code)
        for rel, code in codes.items()
        if rel.startswith(SIMULATOR_DIRS)
    }
    checked = {name for c in checks.values() for name, has in c.items() if has}
    for rel, local in checks.items():
        lint_noexcept_contracts(rel, codes[rel], local, checked, errors)
    lint_test_only_headers(root, paths, errors)
    lint_test_only_functions(codes, errors)
    for e in errors:
        print(e)
    print(f"physics_lint: {len(paths)} files scanned, {len(errors)} violation(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
