#!/usr/bin/env python3
"""DiEvent repository lint: project-specific invariants the compiler can't see.

Rules
-----
mutex-guard       Every mutex member must either guard something (appear in a
                  GUARDED_BY / PT_GUARDED_BY annotation in the same file) or
                  carry an explicit `// lint: unguarded` waiver explaining why
                  it guards no data. Raw `std::mutex` members are rejected
                  outright: use `dievent::Mutex` from common/thread_annotations.h
                  so Clang's thread-safety analysis can check the locking.
nondeterminism    `rand()`, `srand()`, `std::random_device`, and wall-clock
                  `time(...)` seeds are banned outside common/rng: every run of
                  the pipeline must be reproducible from an explicit Rng seed.
status-discard    A naked `<expr>.status();` expression statement silently drops
                  an error. Propagate it, or log it with a comment saying why
                  the drop is deliberate.
include-hygiene   No parent-relative includes (`#include "../..."`), no
                  `<bits/...>` internals, and headers must carry the canonical
                  guard `DIEVENT_<PATH>_H_` derived from their path.
steady-clock      Direct `steady_clock::now()` (or system/high_resolution
                  clock) reads are banned outside src/common/clock.*: go
                  through the injected `VirtualClock` so timing-dependent code
                  stays testable under SimClock. Benchmarks that measure real
                  wall time carry per-line `// lint: allow(steady-clock)`
                  waivers.
hot-path-alloc    Inside a region bracketed by `// lint: hot-path-begin(name)`
                  and `// lint: hot-path-end`, per-frame heap allocation is
                  banned: no `new`, no `std::vector<...>` construction
                  (references and pointers are fine), no `.resize(...)`
                  growth. Hot-path scratch belongs in a reused per-thread
                  scratch struct (a function-local `thread_local`, see
                  DESIGN.md §13), sized before the region opens. Lines
                  that are allocation-free in steady state (e.g. a resize that
                  never exceeds warmed-up capacity) may waive per line with
                  `// lint: allow(hot-path-alloc)` and a comment saying why.
                  Unbalanced begin/end markers are themselves findings.

Waivers
-------
Append `// lint: unguarded` to a mutex declaration that intentionally guards no
data, or `// lint: allow(<rule>)` to any other line to suppress a finding.
Waivers are per-line and must say why: either trailing text on the waiver line
itself or a comment-only line directly above. `--waiver-report` lists every
waiver (including the lock-rank checker's `// lockrank: allow(...)`) with its
justification and fails on any waiver that has none — an unexplained waiver is
a finding, not an exemption.

Self-test
---------
`--self-test` scans tests/lint_fixtures/ and requires the findings to match the
`// lint-expect(<rule>)` markers in the fixtures exactly — proving each rule
still fires (and that good.h stays clean) before the real tree is trusted.

Exit status: 0 when clean, 1 on findings or self-test mismatch, 2 on usage
errors.
"""

import argparse
import os
import re
import sys

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

# Files allowed to use raw randomness: the seeded Rng wrapper itself.
NONDETERMINISM_ALLOWLIST = ("src/common/rng",)

# Files allowed to read std::chrono clocks directly: the VirtualClock
# implementation (RealClock must bottom out somewhere).
STEADY_CLOCK_ALLOWLIST = ("src/common/clock.",)

WAIVER_UNGUARDED = re.compile(r"//\s*lint:\s*unguarded\b")
WAIVER_ALLOW = re.compile(r"//\s*lint:\s*allow\((?P<rule>[a-z-]+)\)")
EXPECT_MARKER = re.compile(r"//\s*lint-expect\((?P<rule>[a-z-]+)\)")

# Matches plain members and rank-initialized ones
# (`Mutex mu_{LockRank::kFoo};`, see common/lock_ranks.h).
MUTEX_DECL = re.compile(
    r"^\s*(?:mutable\s+)?(?P<type>(?:::)?(?:dievent::)?Mutex|std::mutex)\s+"
    r"(?P<name>\w+)\s*(?:\{[^{}]*\})?\s*;")
GUARD_ANNOTATION = re.compile(r"(?:PT_)?GUARDED_BY\(\s*(?P<name>\w+)\s*\)")

NONDETERMINISM_PATTERNS = (
    (re.compile(r"(?<!\w)(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"(?<![\w.>])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock time()"),
)

STATUS_DISCARD = re.compile(r"^\s*[\w\->.:\[\]()]*\.status\(\)\s*;\s*$")

DIRECT_CLOCK_NOW = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)::now\s*\(")

HOT_PATH_BEGIN = re.compile(r"//\s*lint:\s*hot-path-begin\((?P<name>[\w-]+)\)")
HOT_PATH_END = re.compile(r"//\s*lint:\s*hot-path-end\b")
# `new` as an expression (placement or plain); \b keeps identifiers like
# new_size out.
HOT_NEW = re.compile(r"\bnew\b")
# A std::vector type not immediately followed by & or * — i.e. a
# declaration or temporary that owns heap storage, as opposed to a
# reference/pointer to one someone else owns. Handles one level of nested
# template arguments.
HOT_VECTOR = re.compile(
    r"std::vector\s*<(?:[^<>]|<[^<>]*>)*>+(?!\s*[>&*])")
HOT_RESIZE = re.compile(r"\.\s*resize\s*\(")

PARENT_INCLUDE = re.compile(r"^\s*#\s*include\s+\"\.\./")
BITS_INCLUDE = re.compile(r"^\s*#\s*include\s+<bits/")
IFNDEF_GUARD = re.compile(r"^\s*#\s*ifndef\s+(?P<guard>\w+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def key(self):
        return (self.path, self.line, self.rule)


def strip_comment(line):
    """Code portion of a line (before any // comment). Keeps string contents;
    good enough for the patterns above, which never appear inside literals in
    this codebase."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def expected_guard(relpath):
    """Canonical header guard for a repo-relative header path.

    src/common/foo_bar.h -> DIEVENT_COMMON_FOO_BAR_H_ (the leading src/ is
    dropped to match the include-root layout); other trees keep their full
    path (tests/lint_fixtures/good.h -> DIEVENT_TESTS_LINT_FIXTURES_GOOD_H_).
    """
    parts = relpath.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"\.(h|hpp)$", "", stem)
    return "DIEVENT_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_mutex_guard(relpath, lines, findings):
    guarded_names = set()
    for line in lines:
        for match in GUARD_ANNOTATION.finditer(strip_comment(line)):
            guarded_names.add(match.group("name"))
    for lineno, line in enumerate(lines, start=1):
        match = MUTEX_DECL.match(strip_comment(line))
        if not match:
            continue
        if WAIVER_UNGUARDED.search(line):
            continue
        mutex_type = match.group("type")
        name = match.group("name")
        if mutex_type == "std::mutex":
            findings.append(Finding(
                relpath, lineno, "mutex-guard",
                f"raw std::mutex member '{name}': use dievent::Mutex from "
                "common/thread_annotations.h so thread-safety analysis "
                "applies"))
        elif name not in guarded_names:
            findings.append(Finding(
                relpath, lineno, "mutex-guard",
                f"mutex '{name}' guards no declared state: add GUARDED_BY"
                f"({name}) to the data it protects, or waive with "
                "'// lint: unguarded' and say why"))


def check_nondeterminism(relpath, lines, findings):
    if any(relpath.startswith(prefix) for prefix in NONDETERMINISM_ALLOWLIST):
        return
    for lineno, line in enumerate(lines, start=1):
        code = strip_comment(line)
        for pattern, what in NONDETERMINISM_PATTERNS:
            if pattern.search(code):
                findings.append(Finding(
                    relpath, lineno, "nondeterminism",
                    f"{what} breaks run-to-run reproducibility: thread an "
                    "explicit dievent::Rng through instead"))


def check_status_discard(relpath, lines, findings):
    for lineno, line in enumerate(lines, start=1):
        if STATUS_DISCARD.match(strip_comment(line)):
            findings.append(Finding(
                relpath, lineno, "status-discard",
                "naked '.status();' drops the error: propagate it or log it "
                "with a comment explaining the deliberate drop"))


def check_include_hygiene(relpath, lines, findings):
    for lineno, line in enumerate(lines, start=1):
        code = strip_comment(line)
        if PARENT_INCLUDE.match(code):
            findings.append(Finding(
                relpath, lineno, "include-hygiene",
                "parent-relative include: include from the source root "
                "(e.g. \"common/foo.h\") instead"))
        if BITS_INCLUDE.match(code):
            findings.append(Finding(
                relpath, lineno, "include-hygiene",
                "<bits/...> is a libstdc++ internal: include the standard "
                "header instead"))
    if relpath.endswith((".h", ".hpp")):
        want = expected_guard(relpath)
        guard_line = None
        guard_name = None
        for lineno, line in enumerate(lines, start=1):
            match = IFNDEF_GUARD.match(strip_comment(line))
            if match:
                guard_line = lineno
                guard_name = match.group("guard")
                break
        if guard_name is None:
            findings.append(Finding(
                relpath, 1, "include-hygiene",
                f"missing header guard: expected #ifndef {want}"))
        elif guard_name != want:
            findings.append(Finding(
                relpath, guard_line, "include-hygiene",
                f"header guard '{guard_name}' does not match the canonical "
                f"'{want}'"))


def check_steady_clock(relpath, lines, findings):
    if any(relpath.startswith(prefix) for prefix in STEADY_CLOCK_ALLOWLIST):
        return
    for lineno, line in enumerate(lines, start=1):
        if DIRECT_CLOCK_NOW.search(strip_comment(line)):
            findings.append(Finding(
                relpath, lineno, "steady-clock",
                "direct chrono clock read: take a VirtualClock* and call "
                "Now() so the code runs under SimClock in tests (benchmarks "
                "measuring wall time may waive per line)"))


def check_hot_path_alloc(relpath, lines, findings):
    region = None  # (name, begin_lineno)
    for lineno, line in enumerate(lines, start=1):
        begin = HOT_PATH_BEGIN.search(line)
        if begin:
            if region is not None:
                findings.append(Finding(
                    relpath, lineno, "hot-path-alloc",
                    f"hot-path-begin({begin.group('name')}) opens inside "
                    f"region '{region[0]}' (begun at line {region[1]}): "
                    "regions do not nest, close the outer one first"))
            region = (begin.group("name"), lineno)
            continue
        if HOT_PATH_END.search(line):
            if region is None:
                findings.append(Finding(
                    relpath, lineno, "hot-path-alloc",
                    "hot-path-end without a matching hot-path-begin"))
            region = None
            continue
        if region is None:
            continue
        code = strip_comment(line)
        if HOT_NEW.search(code):
            findings.append(Finding(
                relpath, lineno, "hot-path-alloc",
                f"'new' in hot path '{region[0]}': keep the buffer in a "
                "per-thread scratch struct (DESIGN.md §13) instead"))
        if HOT_VECTOR.search(code):
            findings.append(Finding(
                relpath, lineno, "hot-path-alloc",
                f"std::vector constructed in hot path '{region[0]}': use a "
                "vector kept in a per-thread scratch struct (DESIGN.md §13)"))
        if HOT_RESIZE.search(code):
            findings.append(Finding(
                relpath, lineno, "hot-path-alloc",
                f".resize() in hot path '{region[0]}' can grow the heap "
                "mid-frame: size scratch up front, or waive with a comment "
                "if capacity is provably stable"))
    if region is not None:
        findings.append(Finding(
            relpath, region[1], "hot-path-alloc",
            f"unterminated hot-path region '{region[0]}': add "
            "'// lint: hot-path-end'"))


RULES = {
    "mutex-guard": check_mutex_guard,
    "nondeterminism": check_nondeterminism,
    "status-discard": check_status_discard,
    "include-hygiene": check_include_hygiene,
    "steady-clock": check_steady_clock,
    "hot-path-alloc": check_hot_path_alloc,
}


def apply_waivers(lines, findings):
    kept = []
    for finding in findings:
        line = lines[finding.line - 1] if finding.line - 1 < len(lines) else ""
        waived = any(
            match.group("rule") == finding.rule
            for match in WAIVER_ALLOW.finditer(line))
        if not waived:
            kept.append(finding)
    return kept


def lint_file(root, relpath):
    path = os.path.join(root, relpath)
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        return [Finding(relpath, 1, "io", f"unreadable: {err}")]
    findings = []
    for checker in RULES.values():
        checker(relpath, lines, findings)
    return apply_waivers(lines, findings)


def collect_files(root, subdirs):
    files = []
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    files.append(os.path.relpath(full, root).replace(os.sep, "/"))
    return sorted(files)


def run_lint(root, subdirs):
    findings = []
    for relpath in collect_files(root, subdirs):
        findings.extend(lint_file(root, relpath))
    for finding in findings:
        print(finding)
    if findings:
        print(f"dievent_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"dievent_lint: clean ({len(collect_files(root, subdirs))} files)")
    return 0


# Every waiver form in the tree, for --waiver-report: this lint's two
# markers plus the lock-rank checker's (tools/lockrank_check.py).
WAIVER_FORMS = (
    ("lint: unguarded",
     re.compile(r"//\s*lint:\s*unguarded\b")),
    ("lint: allow",
     re.compile(r"//\s*lint:\s*allow\((?P<rule>[a-z-]+)\)")),
    ("lockrank: allow",
     re.compile(r"//\s*lockrank:\s*allow\((?P<rule>[a-z-]+)\)")),
)


def waiver_justification(lines, lineno, match):
    """The waiver's stated reason: trailing text on the waiver line, else
    the nearest comment-only line(s) directly above. None when absent."""
    trailing = lines[lineno - 1][match.end():].strip().lstrip(":").strip()
    if re.search(r"\w", trailing):
        return trailing
    comment = []
    idx = lineno - 2
    while idx >= 0 and lines[idx].strip().startswith("//"):
        text = lines[idx].strip().lstrip("/").strip()
        # Another waiver marker is not a justification for this one.
        if any(pat.search(lines[idx]) for _, pat in WAIVER_FORMS):
            text = ""
        if re.search(r"\w", text):
            comment.insert(0, text)
        idx -= 1
    return " ".join(comment) if comment else None


def run_waiver_report(root, subdirs):
    entries = []  # (relpath, lineno, label, justification or None)
    for relpath in collect_files(root, subdirs):
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as fh:
            lines = fh.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if line.lstrip().startswith("///"):
                continue  # doc comments quote waiver syntax in prose
            for kind, pattern in WAIVER_FORMS:
                for match in pattern.finditer(line):
                    rule = (match.groupdict().get("rule") or "").strip()
                    label = f"{kind}({rule})" if rule else kind
                    entries.append((relpath, lineno, label,
                                    waiver_justification(lines, lineno,
                                                         match)))
    unjustified = [e for e in entries if e[3] is None]
    for relpath, lineno, label, justification in entries:
        why = justification if justification else "<NO JUSTIFICATION>"
        print(f"{relpath}:{lineno}: [{label}] {why}")
    if unjustified:
        print(f"dievent_lint --waiver-report: {len(unjustified)} of "
              f"{len(entries)} waiver(s) have no justification (say why "
              "on the waiver line or a comment directly above)",
              file=sys.stderr)
        return 1
    print(f"dievent_lint --waiver-report: {len(entries)} waiver(s), "
          "all justified")
    return 0


def run_self_test(root):
    fixtures = "tests/lint_fixtures"
    expected = set()
    for relpath in collect_files(root, [fixtures]):
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh.read().splitlines(), start=1):
                for match in EXPECT_MARKER.finditer(line):
                    expected.add((relpath, lineno, match.group("rule")))
    actual = set()
    for relpath in collect_files(root, [fixtures]):
        for finding in lint_file(root, relpath):
            actual.add(finding.key())
    missing = expected - actual
    unexpected = actual - expected
    for path, line, rule in sorted(missing):
        print(f"{path}:{line}: [self-test] expected a {rule} finding here, "
              "rule did not fire")
    for path, line, rule in sorted(unexpected):
        print(f"{path}:{line}: [self-test] unexpected {rule} finding "
              "(no lint-expect marker)")
    if missing or unexpected:
        print(f"dievent_lint --self-test: FAILED "
              f"({len(missing)} missing, {len(unexpected)} unexpected)",
              file=sys.stderr)
        return 1
    print(f"dievent_lint --self-test: OK ({len(expected)} expected findings "
          "all fired, no extras)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--subdir", action="append", default=None,
                        help="tree(s) to scan relative to root "
                             "(default: src, bench, and tools)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against tests/lint_fixtures/")
    parser.add_argument("--waiver-report", action="store_true",
                        help="list every waiver with its justification; "
                             "fail on waivers that give none")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"dievent_lint: no such root: {root}", file=sys.stderr)
        return 2
    if args.self_test:
        return run_self_test(root)
    subdirs = args.subdir or ["src", "bench", "tools"]
    if args.waiver_report:
        return run_waiver_report(root, subdirs)
    return run_lint(root, subdirs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
