#!/usr/bin/env python3
"""CT-Bus project-invariant linter (stdlib only).

Checks four invariants that the compiler cannot, each rooted in a
correctness contract documented in docs/ARCHITECTURE.md:

  key-completeness  Every field of core::CtBusOptions,
                    service::ServiceOptions and
                    service::DatasetDescriptor either feeds
                    MakeProvenance (referenced as `options.<field>`
                    in its body) or carries an explicit
                    `ctbus-lint: key-exempt(<reason>)` annotation in
                    the comment block above (or trailing on) its
                    declaration. A new knob that silently skips the
                    cache key is exactly how two requests with
                    different precompute inputs end up sharing one
                    cached precompute.

  determinism       src/ must not contain nondeterminism sources:
                    std::random_device, rand()/srand(),
                    time(NULL/nullptr/0) seeding, or accumulation
                    (`+=`, `^=`, `|=`, `*=`) inside a ranged-for over a
                    variable declared as std::unordered_map/set in the
                    same file (iteration order is unspecified, so the
                    sum/checksum depends on hashing). Results must be
                    bit-identical across runs and thread counts.

  strict-parse      Bare atoi/atof/strto*/sscanf/std::sto* are banned
                    outside src/io/parse.cc — every external string
                    crosses the strict-parse chokepoint (full-token
                    consumption, range checks, diagnostics) exactly
                    once.

  approx-bytes      Every documented owning type (the "who owns bytes"
                    table in docs/ARCHITECTURE.md) declares
                    ApproxBytes() so capacity accounting (cache byte
                    budget, retention) can see it.

Suppressions: append `// ctbus-lint: suppress(<rule>) <reason>` to the
flagged line or place it on the line directly above. The reason is
mandatory; a suppression without one is itself a finding.

Usage: ctbus_lint.py [--root DIR] [--self-check]
Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys
import tempfile

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

SUPPRESS_RE = re.compile(
    r"ctbus-lint:\s*suppress\(\s*([a-z-]+)\s*\)\s*(.*?)\s*(?:\*/.*)?$")
KEY_EXEMPT_RE = re.compile(r"ctbus-lint:\s*key-exempt\(([^)]*)\)")

RULES = ("key-completeness", "determinism", "strict-parse", "approx-bytes")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def strip_code_line(line, in_block_comment):
    """Removes comments and string/char literal contents from one line.

    Returns (code, still_in_block_comment). Good enough for lint regexes:
    no raw strings or line continuations in this codebase.
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        ch = line[i]
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if ch == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if ch in ('"', "'"):
            quote = ch
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def strip_file(lines):
    """Maps every line to its comment/string-stripped form."""
    stripped = []
    in_block = False
    for line in lines:
        code, in_block = strip_code_line(line, in_block)
        stripped.append(code)
    return stripped


def suppression_for(lines, index):
    """Returns (rule, reason, line_no) if line `index` (0-based) carries or
    is preceded by a suppression comment, else None."""
    for probe in (index, index - 1):
        if probe < 0 or probe >= len(lines):
            continue
        match = SUPPRESS_RE.search(lines[probe])
        if match:
            return match.group(1), match.group(2), probe + 1
    return None


def apply_suppressions(findings, lines_by_path):
    """Filters suppressed findings; malformed suppressions become findings."""
    kept = []
    for finding in findings:
        lines = lines_by_path[finding.path]
        sup = suppression_for(lines, finding.line - 1)
        if sup is None:
            kept.append(finding)
            continue
        rule, reason, sup_line = sup
        if rule != finding.rule:
            kept.append(finding)
            kept.append(Finding(
                finding.path, sup_line, finding.rule,
                f"suppression names rule '{rule}' but the finding here "
                f"is '{finding.rule}'"))
        elif not reason.strip():
            kept.append(Finding(
                finding.path, sup_line, finding.rule,
                "suppression without a reason — state why the invariant "
                "holds here"))
        # else: validly suppressed, drop the finding.
    return kept


def extract_struct_body(text, struct_name):
    """Returns (body, start_line) of `struct <name> { ... }` or None."""
    match = re.search(r"\bstruct\s+" + struct_name + r"\s*\{", text)
    if not match:
        return None
    depth = 0
    start = match.end() - 1
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                body = text[start + 1:i]
                start_line = text.count("\n", 0, start) + 1
                return body, start_line
    return None


def extract_function_body(text, pattern):
    """Returns body of the first function whose definition matches
    `pattern` (a regex ending before the opening brace) or None."""
    match = re.search(pattern, text)
    if not match:
        return None
    brace = text.find("{", match.end())
    if brace < 0:
        return None
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[brace + 1:i]
    return None


FIELD_DECL_RE = re.compile(r"\b(\w+)\s*(?:=[^;]*)?;\s*$")


def struct_fields(body, start_line):
    """Yields (field_name, line_no, exempt_reason_or_None) for every data
    member declared in a struct body.

    A field is a statement ending in ';' whose last identifier before the
    initializer is the field name. The exemption annotation is searched in
    the contiguous comment block directly above the declaration and
    trailing on the declaration line itself.
    """
    lines = body.splitlines()
    for offset, raw in enumerate(lines):
        code, _ = strip_code_line(raw, False)
        code = code.strip()
        if not code or code.startswith("#"):
            continue
        # Skip nested braces / method declarations.
        if "(" in code or "{" in code or "}" in code:
            continue
        match = FIELD_DECL_RE.search(code)
        if not match:
            continue
        name = match.group(1)
        line_no = start_line + offset + 1
        exempt = None
        trailing = KEY_EXEMPT_RE.search(raw)
        if trailing:
            exempt = trailing.group(1)
        else:
            probe = offset - 1
            while probe >= 0:
                comment = lines[probe].strip()
                if not (comment.startswith("//") or comment.startswith("*")
                        or comment.startswith("/*")):
                    break
                found = KEY_EXEMPT_RE.search(comment)
                if found:
                    exempt = found.group(1)
                    break
                probe -= 1
        yield name, line_no, exempt


# ---------------------------------------------------------------------------
# Rule: key-completeness
# ---------------------------------------------------------------------------

# (relative path, struct name) pairs whose fields must be keyed or exempt.
OPTION_STRUCTS = (
    ("src/core/options.h", "CtBusOptions"),
    ("src/service/planning_service.h", "ServiceOptions"),
    # Persistence knobs (snapshot_path, spill dir, retention) live here and
    # in ServiceOptions; they change where bytes persist, never what a key
    # computes to, and every field must say so in writing.
    ("src/service/dataset_catalog.h", "DatasetDescriptor"),
)
# The one normalizer of the precompute identity (MakePrecomputeKey uses it).
KEY_FUNCTION_FILE = "src/io/snapshot.cc"
KEY_FUNCTION_RE = r"\bPrecomputeProvenance\s+MakeProvenance\s*\([^)]*\)\s*"


def check_key_completeness(root):
    findings = []
    key_path = os.path.join(root, KEY_FUNCTION_FILE)
    if not os.path.exists(key_path):
        findings.append(Finding(
            KEY_FUNCTION_FILE, 1, "key-completeness",
            "MakeProvenance source not found — update ctbus_lint.py "
            "if the cache key moved"))
        return findings
    with open(key_path, encoding="utf-8") as handle:
        key_text = handle.read()
    body = extract_function_body(key_text, KEY_FUNCTION_RE)
    if body is None:
        findings.append(Finding(
            KEY_FUNCTION_FILE, 1, "key-completeness",
            "MakeProvenance definition not found"))
        return findings
    keyed = set(re.findall(r"\boptions\.(\w+)", body))

    for rel_path, struct_name in OPTION_STRUCTS:
        path = os.path.join(root, rel_path)
        if not os.path.exists(path):
            findings.append(Finding(
                rel_path, 1, "key-completeness",
                f"expected file with struct {struct_name} not found"))
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        extracted = extract_struct_body(text, struct_name)
        if extracted is None:
            findings.append(Finding(
                rel_path, 1, "key-completeness",
                f"struct {struct_name} not found"))
            continue
        struct_body, start_line = extracted
        for name, line_no, exempt in struct_fields(struct_body, start_line):
            # Only CtBusOptions can feed MakeProvenance; ServiceOptions
            # fields are keyed only via exemption (none reach the planner).
            is_keyed = struct_name == "CtBusOptions" and name in keyed
            if is_keyed:
                continue
            if exempt is None:
                findings.append(Finding(
                    rel_path, line_no, "key-completeness",
                    f"{struct_name}::{name} is neither referenced in "
                    f"MakeProvenance nor annotated "
                    f"'ctbus-lint: key-exempt(<reason>)' — a knob that "
                    f"changes the precompute but skips the key corrupts "
                    f"the cache"))
            elif not exempt.strip():
                findings.append(Finding(
                    rel_path, line_no, "key-completeness",
                    f"{struct_name}::{name} key-exempt annotation has an "
                    f"empty reason"))
    return findings


# ---------------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------------

DETERMINISM_BANS = (
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic — take an explicit seed "
     "(core::CtBusOptions-style) instead"),
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "rand()/srand() draw from hidden global state — use a seeded "
     "std::mt19937"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "wall-clock seeding makes runs unrepeatable — thread a fixed seed "
     "through options"),
)
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)"
    r"\s*<[^;={]*>\s*[&*]?\s*(\w+)")
RANGED_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;:)]+:\s*(\w+)\s*\)")
ACCUMULATE_RE = re.compile(r"[^\s]\s*(?:\+=|\^=|\|=|\*=)")


def check_determinism(root, rel_path, lines, stripped):
    findings = []
    unordered_names = set()
    for code in stripped:
        for match in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(match.group(1))
    for index, code in enumerate(stripped):
        for pattern, why in DETERMINISM_BANS:
            if pattern.search(code):
                findings.append(Finding(
                    rel_path, index + 1, "determinism", why))
        for_match = RANGED_FOR_RE.search(code)
        if for_match and for_match.group(1) in unordered_names:
            # Iteration order over an unordered container is unspecified;
            # accumulation in the loop header or the next few lines makes
            # the result order-dependent. Window = loop line + 4 lines,
            # which covers every single-statement and short-block loop.
            window = stripped[index:index + 5]
            for w_offset, w_code in enumerate(window):
                if ACCUMULATE_RE.search(w_code):
                    findings.append(Finding(
                        rel_path, index + 1 + w_offset, "determinism",
                        f"accumulation inside ranged-for over unordered "
                        f"container '{for_match.group(1)}' — iteration "
                        f"order is unspecified, so the result depends on "
                        f"hashing; iterate a sorted copy or restructure"))
                    break
    return findings


# ---------------------------------------------------------------------------
# Rule: strict-parse
# ---------------------------------------------------------------------------

STRICT_PARSE_ALLOWED = "src/io/parse.cc"
STRICT_PARSE_RE = re.compile(
    r"(?<![\w:])(?:atoi|atof|atol|atoll|strtod|strtof|strtol|strtoll|"
    r"strtoul|strtoull|sscanf)\s*\("
    r"|\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\s*\(")


def check_strict_parse(rel_path, stripped):
    if rel_path.replace(os.sep, "/") == STRICT_PARSE_ALLOWED:
        return []
    findings = []
    for index, code in enumerate(stripped):
        if STRICT_PARSE_RE.search(code):
            findings.append(Finding(
                rel_path, index + 1, "strict-parse",
                "bare numeric parse — route external strings through "
                "io::ParseInt/ParseDouble (src/io/parse.cc) so every "
                "input gets full-token + range validation"))
    return findings


# ---------------------------------------------------------------------------
# Rule: approx-bytes
# ---------------------------------------------------------------------------

# The owning types from docs/ARCHITECTURE.md's "who owns bytes" paragraph
# plus the later-added owners wired into capacity accounting. Adding an
# owning type to the docs without ApproxBytes() (or vice versa) should
# fail here.
APPROX_BYTES_OWNERS = (
    ("src/graph/graph.h", "Graph"),
    ("src/graph/road_network.h", "RoadNetwork"),
    ("src/graph/transit_network.h", "TransitNetwork"),
    ("src/linalg/sparse_matrix.h", "SymmetricSparseMatrix"),
    ("src/linalg/csr_matrix.h", "CsrMatrix"),
    ("src/connectivity/natural_connectivity.h", "ConnectivityEstimator"),
    ("src/demand/ranked_list.h", "RankedList"),
    ("src/core/edge_universe.h", "EdgeUniverse"),
    ("src/core/planning_context.h", "Precompute"),
    ("src/core/planning_context.h", "PlanningBase"),
    ("src/core/planning_context.h", "PlanningContext"),
    ("src/service/snapshot_store.h", "SnapshotStore"),
)


def check_approx_bytes(root):
    findings = []
    for rel_path, type_name in APPROX_BYTES_OWNERS:
        path = os.path.join(root, rel_path)
        if not os.path.exists(path):
            findings.append(Finding(
                rel_path, 1, "approx-bytes",
                f"owning type {type_name} expected here but the file is "
                f"missing — update ctbus_lint.py if it moved"))
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        match = re.search(
            r"\b(?:class|struct)\s+" + type_name + r"\b[^;{]*\{", text)
        if not match:
            findings.append(Finding(
                rel_path, 1, "approx-bytes",
                f"owning type {type_name} not found — update "
                f"ctbus_lint.py if it was renamed"))
            continue
        depth = 0
        body = None
        start = text.find("{", match.start())
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    body = text[start:i]
                    break
        line_no = text.count("\n", 0, match.start()) + 1
        if body is None or "ApproxBytes(" not in body:
            findings.append(Finding(
                rel_path, line_no, "approx-bytes",
                f"{type_name} owns bulk memory (docs/ARCHITECTURE.md) but "
                f"declares no ApproxBytes() — capacity accounting cannot "
                f"see it"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_tree(root):
    """Runs all rules over `root`; returns the post-suppression findings."""
    findings = []
    lines_by_path = {}

    src_root = os.path.join(root, "src")
    per_file = []
    for dirpath, _, filenames in os.walk(src_root):
        for filename in sorted(filenames):
            if not filename.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, filename)
            rel_path = os.path.relpath(path, root)
            lines = read_lines(path)
            stripped = strip_file(lines)
            lines_by_path[rel_path] = lines
            per_file.append(
                check_determinism(root, rel_path, lines, stripped))
            per_file.append(check_strict_parse(rel_path, stripped))
    for batch in per_file:
        findings.extend(batch)

    for batch in (check_key_completeness(root), check_approx_bytes(root)):
        for finding in batch:
            if finding.path not in lines_by_path:
                path = os.path.join(root, finding.path)
                lines_by_path[finding.path] = (
                    read_lines(path) if os.path.exists(path) else [])
        findings.extend(batch)

    findings = apply_suppressions(findings, lines_by_path)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Self-check fixtures
# ---------------------------------------------------------------------------

FIXTURE_OPTIONS_CLEAN = """\
struct CtBusOptions {
  double tau = 600.0;
  /// ctbus-lint: key-exempt(search knob)
  int k = 30;
};
"""

FIXTURE_OPTIONS_VIOLATION = """\
struct CtBusOptions {
  double tau = 600.0;
  int k = 30;
};
"""

FIXTURE_OPTIONS_EMPTY_REASON = """\
struct CtBusOptions {
  double tau = 600.0;
  /// ctbus-lint: key-exempt()
  int k = 30;
};
"""

FIXTURE_SERVICE_OPTIONS = """\
struct ServiceOptions {
  /// ctbus-lint: key-exempt(service topology)
  int num_threads = 1;
};
"""

FIXTURE_DATASET_CATALOG_CLEAN = """\
struct DatasetDescriptor {
  /// ctbus-lint: key-exempt(the key's dataset field itself)
  std::string name;
  /// ctbus-lint: key-exempt(on-disk accelerator keyed by file content)
  std::string snapshot_path;
};
"""

FIXTURE_DATASET_CATALOG_VIOLATION = """\
struct DatasetDescriptor {
  /// ctbus-lint: key-exempt(the key's dataset field itself)
  std::string name;
  std::string snapshot_path;
};
"""

FIXTURE_KEY_CC = """\
PrecomputeProvenance MakeProvenance(const core::CtBusOptions& options) {
  PrecomputeProvenance p;
  p.tau = options.tau;
  return p;
}
"""

FIXTURE_DETERMINISM_VIOLATION = """\
#include <random>
int Roll() {
  std::random_device rd;
  return static_cast<int>(rd());
}
"""

FIXTURE_DETERMINISM_SUPPRESSED = """\
#include <random>
int Roll() {
  // ctbus-lint: suppress(determinism) test-only entropy probe
  std::random_device rd;
  return static_cast<int>(rd());
}
"""

FIXTURE_DETERMINISM_NO_REASON = """\
#include <random>
int Roll() {
  // ctbus-lint: suppress(determinism)
  std::random_device rd;
  return static_cast<int>(rd());
}
"""

FIXTURE_UNORDERED_ACCUM = """\
#include <unordered_map>
double Sum(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  for (const auto& entry : weights) {
    total += entry.second;
  }
  return total;
}
"""

FIXTURE_STRICT_PARSE_VIOLATION = """\
#include <cstdlib>
int ParsePort(const char* text) { return atoi(text); }
"""

FIXTURE_STRICT_PARSE_COMMENT_ONLY = """\
// atoi(text) would be wrong here; see src/io/parse.cc.
int ParsePort(int already_parsed) { return already_parsed; }
"""

FIXTURE_APPROX_BYTES_OK = """\
class Graph {
 public:
  std::size_t ApproxBytes() const;
};
"""

FIXTURE_APPROX_BYTES_MISSING = """\
class Graph {
 public:
  int num_nodes() const;
};
"""


def write_fixture_tree(root, files):
    for rel_path, content in files.items():
        path = os.path.join(root, rel_path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)


def self_check():
    """Seeded-violation tests for every rule; returns 0 on success."""
    # Minimal tree that passes every rule (only Graph in the owner list is
    # exercised; the others report missing files, so give the fixtures
    # their own owner list).
    global APPROX_BYTES_OWNERS
    saved_owners = APPROX_BYTES_OWNERS
    APPROX_BYTES_OWNERS = (("src/graph/graph.h", "Graph"),)
    failures = []

    def expect(label, files, rule, want_findings):
        with tempfile.TemporaryDirectory(prefix="ctbus_lint_") as root:
            write_fixture_tree(root, files)
            findings = [f for f in lint_tree(root) if f.rule == rule]
            got = bool(findings)
            if got != want_findings:
                detail = "; ".join(str(f) for f in findings) or "none"
                failures.append(
                    f"{label}: expected findings={want_findings}, "
                    f"got {detail}")

    base = {
        "src/core/options.h": FIXTURE_OPTIONS_CLEAN,
        "src/service/planning_service.h": FIXTURE_SERVICE_OPTIONS,
        "src/service/dataset_catalog.h": FIXTURE_DATASET_CATALOG_CLEAN,
        "src/io/snapshot.cc": FIXTURE_KEY_CC,
        "src/graph/graph.h": FIXTURE_APPROX_BYTES_OK,
    }

    # Rule A: clean passes, missing exemption fails, empty reason fails,
    # and a persistence knob (DatasetDescriptor::snapshot_path) without a
    # written exemption reason fails too.
    expect("key-completeness clean", dict(base), "key-completeness", False)
    expect("key-completeness violation",
           {**base, "src/core/options.h": FIXTURE_OPTIONS_VIOLATION},
           "key-completeness", True)
    expect("key-completeness empty reason",
           {**base, "src/core/options.h": FIXTURE_OPTIONS_EMPTY_REASON},
           "key-completeness", True)
    expect("key-completeness unexempted persistence knob",
           {**base,
            "src/service/dataset_catalog.h": FIXTURE_DATASET_CATALOG_VIOLATION},
           "key-completeness", True)

    # Rule B: violation fails, suppression passes, reasonless suppression
    # fails, unordered accumulation fails.
    expect("determinism violation",
           {**base, "src/core/roll.cc": FIXTURE_DETERMINISM_VIOLATION},
           "determinism", True)
    expect("determinism suppressed",
           {**base, "src/core/roll.cc": FIXTURE_DETERMINISM_SUPPRESSED},
           "determinism", False)
    expect("determinism suppression without reason",
           {**base, "src/core/roll.cc": FIXTURE_DETERMINISM_NO_REASON},
           "determinism", True)
    expect("determinism unordered accumulation",
           {**base, "src/core/sum.cc": FIXTURE_UNORDERED_ACCUM},
           "determinism", True)

    # Rule C: violation fails, the allowed file passes, comments ignored.
    expect("strict-parse violation",
           {**base, "src/net/port.cc": FIXTURE_STRICT_PARSE_VIOLATION},
           "strict-parse", True)
    expect("strict-parse allowed file",
           {**base, "src/io/parse.cc": FIXTURE_STRICT_PARSE_VIOLATION},
           "strict-parse", False)
    expect("strict-parse comment only",
           {**base, "src/net/port.cc": FIXTURE_STRICT_PARSE_COMMENT_ONLY},
           "strict-parse", False)

    # Rule D: present passes, missing fails.
    expect("approx-bytes present", dict(base), "approx-bytes", False)
    expect("approx-bytes missing",
           {**base, "src/graph/graph.h": FIXTURE_APPROX_BYTES_MISSING},
           "approx-bytes", True)

    APPROX_BYTES_OWNERS = saved_owners
    if failures:
        for failure in failures:
            print(f"self-check FAILED: {failure}")
        return 1
    print("self-check OK: 13 fixture expectations across 4 rules")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="CT-Bus project-invariant linter")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-check", action="store_true",
                        help="run the embedded fixture tests and exit")
    args = parser.parse_args(argv[1:])

    if args.self_check:
        return self_check()

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"error: no src/ under --root {args.root!r}")
        return 2

    findings = lint_tree(args.root)
    if findings:
        for finding in findings:
            print(finding)
        print(f"{len(findings)} finding(s)")
        return 1
    print("ctbus_lint: tree clean (4 rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
