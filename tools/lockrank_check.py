#!/usr/bin/env python3
"""DiEvent lock-rank check: static lock-order analysis over the rank table.

The discipline (src/common/lock_ranks.h, DESIGN.md section 14): every named
mutex carries a `LockRank`, and a thread may only acquire a mutex ranked
strictly above everything it already holds. This tool proves the *static*
side of that contract:

 1. parses the rank table from src/common/lock_ranks.h;
 2. finds every `Mutex` declaration in the scanned trees and maps member
    names to ranks per file pair (x.cc shares x.h's table, so a lock
    declared in the header resolves inside its implementation file);
 3. extracts the static acquisition graph — an edge A -> B for every site
    where B is taken while A is held. Held sets come from `MutexLock`
    scopes and `REQUIRES(...)` annotations (including class-qualified
    definitions whose REQUIRES lives on the header declaration).
    Acquisitions come from `MutexLock` sites, from the `VirtualClock`
    waiter protocol (`Wait`/`WaitUntil`/`NotifyAll(mu, cv, ...)` lock the
    clock's own mutex while `mu` is held, so each such call is an edge
    mu -> kClockWaiters), from calls to `EXCLUDES`-annotated methods (the
    callee acquires what it excludes), and from `DIEVENT_LOG` /
    `DIEVENT_CHECK` (the serialized sink is a lock, ranked kLogSink);
 4. fails on rank-decreasing (or rank-equal) edges, on cycles in the
    graph, and on unranked `Mutex` declarations.

Findings
--------
unranked       A `Mutex` member without a rank. Rank it, or waive with
               `// lockrank: allow(unranked)` naming why it is outside the
               discipline (test-local fences, fixtures).
unknown-rank   A declaration names a `LockRank::k...` missing from the
               enum in src/common/lock_ranks.h.
order          An acquisition edge whose destination rank is <= its
               source rank. Reorder the locks or re-slot the ranks; waive
               a modeling false positive with `// lockrank: allow(order)`
               and a comment naming the real guarantee.
cycle          The acquisition graph has a rank cycle (reported once per
               strongly connected component, anchored at its first edge).
ambiguous      One member name maps to two different ranks inside one
               header/impl file pair; rename one member (the per-file
               tables cannot tell them apart).

Waivers are per-line: `// lockrank: allow(<finding>)` on the flagged line
or on a comment-only line directly above it, and should say why.

Limitations (by design, mirrored in DESIGN.md): matching is lexical and
per-line — a `MutexLock` split across lines, a lock behind an unannotated
helper, or a callee resolved only through a virtual base is invisible.
The runtime tracker (DIEVENT_LOCK_RANKS=ON) is the backstop for those.

`--self-test` scans tests/lint_fixtures/bad_lockorder.cc (plus good.h,
which must stay clean) and requires findings to match the
`// lockrank-expect(<finding>)` markers exactly.

Exit status: 0 clean, 1 findings or self-test mismatch, 2 usage errors.
"""

import argparse
import os
import re
import sys

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")
RANK_TABLE_PATH = "src/common/lock_ranks.h"
SELF_TEST_FILES = (
    "tests/lint_fixtures/bad_lockorder.cc",
    "tests/lint_fixtures/good.h",
)

RANK_ENTRY = re.compile(r"^\s*(?P<name>k\w+)\s*=\s*(?P<value>\d+)\s*,")
RANKED_DECL = re.compile(
    r"^\s*(?:mutable\s+)?Mutex\s+(?P<name>\w+)\s*\{\s*"
    r"LockRank::(?P<rank>k\w+)\s*\}\s*;")
UNRANKED_DECL = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(?P<name>\w+)\s*;")
MUTEXLOCK_SITE = re.compile(
    r"\bMutexLock\s+\w+\s*\(\s*(?P<arg>[^()]+?)\s*\)")
# The VirtualClock waiter protocol: first argument is the caller's held
# mutex; the clock locks its own mutex (kClockWaiters) while it is held.
# The comma requirement keeps single-argument CondVar::Wait(mu) out.
CLOCK_CALL = re.compile(
    r"\b(?:Wait|WaitUntil|NotifyAll)\s*\(\s*(?P<arg>[A-Za-z_][\w.>-]*)\s*,")
METHOD_CALL = re.compile(r"(?:\.|->)\s*(?P<name>\w+)\s*\(")
LOG_MACRO = re.compile(r"\b(?:DIEVENT_LOG|DIEVENT_CHECK)\s*\(")
ANNOTATION = re.compile(
    r"\b(?P<kind>REQUIRES|EXCLUDES)\s*\(\s*(?P<args>[^)]*)\)")
# `Ret Class::Method(` at namespace depth — an out-of-line definition whose
# REQUIRES annotation lives on the in-class declaration.
QUALIFIED_DEF = re.compile(r"\b(?P<cls>\w+)::(?P<name>~?\w+)\s*\(")
# Method name owning an annotation: the last `name(` before it on the line.
DECL_NAME = re.compile(r"(?P<name>\w+)\s*\($")
WAIVER = re.compile(r"//\s*lockrank:\s*allow\((?P<kind>[a-z-]+)\)")
EXPECT_MARKER = re.compile(r"//\s*lockrank-expect\((?P<kind>[a-z-]+)\)")
STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"' + r"|'(?:[^'\\]|\\.)'")

CLOCK_METHODS = {"Wait", "WaitFor", "WaitUntil", "NotifyAll"}
# EXCLUDES-annotated names too generic to attribute at a call site
# (`items_.size()` is almost always a standard-container call, not a
# ranked class's own accessor).
GENERIC_METHODS = {"size", "empty"}
CLOCK_RANK = "kClockWaiters"
LOG_RANK = "kLogSink"


class Finding:
    def __init__(self, path, line, kind, message):
        self.path = path
        self.line = line
        self.kind = kind
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.kind}] {self.message}"

    def key(self):
        return (self.path, self.line, self.kind)


def clean_lines(text):
    """Source lines with strings, /* */ blocks, and // comments removed
    (the raw lines stay the waiver/marker surface)."""
    raw = text.splitlines()
    cleaned = []
    in_block = False
    for line in raw:
        line = STRING_LITERAL.sub('""', line)
        out = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    i = end + 2
                    in_block = False
                continue
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if line.startswith("//", i):
                break
            out.append(line[i])
            i += 1
        cleaned.append("".join(out))
    return raw, cleaned


def base_name(expr):
    """Trailing identifier of a lock expression: pump_->mutex -> mutex."""
    names = re.findall(r"\w+", expr)
    return names[-1] if names else None


def parse_rank_table(root):
    path = os.path.join(root, RANK_TABLE_PATH)
    ranks = {}
    try:
        with open(path, encoding="utf-8") as fh:
            in_enum = False
            for line in fh:
                if "enum class LockRank" in line:
                    in_enum = True
                    continue
                if in_enum and line.strip().startswith("}"):
                    break
                if in_enum:
                    match = RANK_ENTRY.match(line)
                    if match:
                        ranks[match.group("name")] = int(match.group("value"))
    except OSError as err:
        print(f"lockrank: cannot read {RANK_TABLE_PATH}: {err}",
              file=sys.stderr)
        return None
    if len(ranks) < 2:
        print(f"lockrank: no rank table found in {RANK_TABLE_PATH}",
              file=sys.stderr)
        return None
    return ranks


def collect_files(root, subdirs):
    files = []
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    files.append(
                        os.path.relpath(full, root).replace(os.sep, "/"))
    return sorted(files)


def pair_key(relpath):
    """Header/impl pair share one name->rank table: src/x/foo.{h,cc}."""
    stem, _ = os.path.splitext(relpath)
    return stem


def load_sources(root, relpaths):
    sources = {}
    for relpath in relpaths:
        try:
            with open(os.path.join(root, relpath), encoding="utf-8",
                      errors="replace") as fh:
                sources[relpath] = clean_lines(fh.read())
        except OSError as err:
            print(f"lockrank: unreadable {relpath}: {err}", file=sys.stderr)
    return sources


def collect_declarations(sources, ranks, findings):
    """Per-pair name->rank tables plus unranked/unknown-rank findings."""
    tables = {}  # pair_key -> {member name -> rank name}
    for relpath, (raw, cleaned) in sources.items():
        table = tables.setdefault(pair_key(relpath), {})
        for lineno, code in enumerate(cleaned, start=1):
            match = RANKED_DECL.match(code)
            if match:
                name, rank = match.group("name"), match.group("rank")
                if rank not in ranks or rank == "kUnranked":
                    findings.append(Finding(
                        relpath, lineno, "unknown-rank",
                        f"mutex '{name}' uses LockRank::{rank}, which is "
                        f"not a usable rank in {RANK_TABLE_PATH}"))
                    continue
                if table.get(name, rank) != rank:
                    findings.append(Finding(
                        relpath, lineno, "ambiguous",
                        f"member name '{name}' maps to both "
                        f"{table[name]} and {rank} in this file pair: "
                        "rename one member"))
                    table[name] = None  # poisoned: skip at use sites
                else:
                    table[name] = rank
                continue
            match = UNRANKED_DECL.match(code)
            if match and not WAIVER_ON(raw, lineno, "unranked"):
                findings.append(Finding(
                    relpath, lineno, "unranked",
                    f"mutex '{match.group('name')}' has no LockRank: rank "
                    f"it in {RANK_TABLE_PATH} (or waive with "
                    "'// lockrank: allow(unranked)' and say why)"))
    return tables


def WAIVER_ON(raw_lines, lineno, kind):
    """Waiver on the flagged line itself, or on a directly preceding
    comment-only line (long call sites have no room for a trailing one)."""
    idx = lineno - 1
    while 0 <= idx < len(raw_lines):
        line = raw_lines[idx]
        if any(m.group("kind") == kind for m in WAIVER.finditer(line)):
            return True
        idx -= 1
        if idx < 0 or not raw_lines[idx].strip().startswith("//"):
            break
    return False


def collect_annotations(sources, tables):
    """Method name -> REQUIRES arg names / EXCLUDES rank names.

    Names are matched without class qualification, so an over-generic
    method name unions its candidates — conservative for edge discovery.
    """
    requires = {}  # name -> set of arg base names
    excludes = {}  # name -> set of rank names
    for relpath, (_, cleaned) in sources.items():
        table = tables.get(pair_key(relpath), {})
        for lineno, code in enumerate(cleaned, start=1):
            for match in ANNOTATION.finditer(code):
                before = code[:match.start()].rstrip()
                owner = DECL_NAME.search(re.sub(r"\([^()]*\)", "(", before))
                if owner is None and lineno >= 2:
                    # Annotation on a continuation line: the declarator
                    # (and its parameter list) ended on the line above.
                    prev = re.sub(r"\([^()]*\)\s*(?:const)?\s*$", "(",
                                  cleaned[lineno - 2].rstrip())
                    owner = DECL_NAME.search(prev)
                if owner is None:
                    continue
                name = owner.group("name")
                for arg in match.group("args").split(","):
                    base = base_name(arg)
                    if not base:
                        continue
                    if match.group("kind") == "REQUIRES":
                        requires.setdefault(name, set()).add(base)
                    else:
                        rank = table.get(base)
                        if rank:
                            excludes.setdefault(name, set()).add(rank)
    return requires, excludes


class Edge:
    def __init__(self, src, dst, path, line, waived):
        self.src = src
        self.dst = dst
        self.path = path
        self.line = line
        self.waived = waived


def scan_file(relpath, raw, cleaned, table, requires, excludes, edges):
    """Walks one file, tracking brace depth and the held-rank set."""
    depth = 0
    held = []  # (rank name, capture depth, lineno)
    pending = None  # REQUIRES ranks awaiting the definition's open brace

    def resolve(expr):
        base = base_name(expr)
        return table.get(base) if base else None

    def add_edges(dst, lineno, order_waived):
        for rank, _, _ in held:
            if rank != dst:
                edges.append(Edge(rank, dst, relpath, lineno, order_waived))

    for lineno, code in enumerate(cleaned, start=1):
        events = []
        for i, ch in enumerate(code):
            if ch in "{};":
                events.append((i, "brace", ch))
        for match in QUALIFIED_DEF.finditer(code):
            events.append((match.start(), "qualified", match))
        for match in ANNOTATION.finditer(code):
            events.append((match.start(), "annotation", match))
        for match in MUTEXLOCK_SITE.finditer(code):
            events.append((match.start(), "mutexlock", match))
        for match in CLOCK_CALL.finditer(code):
            events.append((match.start(), "clock", match))
        for match in METHOD_CALL.finditer(code):
            events.append((match.end("name"), "call", match))
        for match in LOG_MACRO.finditer(code):
            events.append((match.start(), "log", match))
        events.sort(key=lambda e: e[0])
        order_waived = WAIVER_ON(raw, lineno, "order")

        for offset, kind, payload in events:
            if kind == "brace":
                if payload == "{":
                    depth += 1
                    if pending is not None:
                        held.extend((r, depth, lineno) for r in pending)
                        pending = None
                elif payload == "}":
                    depth -= 1
                    held[:] = [h for h in held if h[1] <= depth]
                elif payload == ";":
                    pending = None
            elif kind == "qualified":
                if depth <= 1:
                    args = requires.get(payload.group("name"), ())
                    ranks = [table[a] for a in args
                             if table.get(a) is not None]
                    if ranks:
                        pending = (pending or []) + ranks
            elif kind == "annotation":
                if payload.group("kind") != "REQUIRES":
                    continue
                ranks = [table[base_name(a)] for a
                         in payload.group("args").split(",")
                         if table.get(base_name(a)) is not None]
                if ranks:
                    pending = (pending or []) + ranks
            elif kind == "mutexlock":
                rank = resolve(payload.group("arg"))
                if rank is None:
                    continue
                add_edges(rank, lineno, order_waived)
                held.append((rank, depth, lineno))
            elif kind == "clock":
                rank = resolve(payload.group("arg"))
                if rank is not None:
                    edges.append(Edge(rank, CLOCK_RANK, relpath, lineno,
                                      order_waived))
                add_edges(CLOCK_RANK, lineno, order_waived)
            elif kind == "call":
                name = payload.group("name")
                # Clock-protocol names are modeled by the clock rule above;
                # generic names cannot be attributed to one class.
                if (name in CLOCK_METHODS or name in GENERIC_METHODS
                        or not held):
                    continue
                for rank in excludes.get(name, ()):
                    add_edges(rank, lineno, order_waived)
            elif kind == "log":
                add_edges(LOG_RANK, lineno, order_waived)


def find_cycles(edge_list, ranks, findings):
    """One finding per strongly connected component of the graph."""
    graph = {}
    sites = {}
    for e in edge_list:
        if e.waived:
            continue
        graph.setdefault(e.src, set()).add(e.dst)
        graph.setdefault(e.dst, set())
        sites.setdefault((e.src, e.dst), (e.path, e.line))
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(v):
        # Iterative Tarjan (explicit stack) to stay safe on deep graphs.
        work = [(v, iter(sorted(graph[v])))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component, key=lambda n: ranks[n]))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    for component in sccs:
        members = set(component)
        where = min(site for (src, dst), site in sites.items()
                    if src in members and dst in members)
        findings.append(Finding(
            where[0], where[1], "cycle",
            "lock-order cycle between " + " / ".join(component) +
            ": no rank assignment can order these acquisitions"))


def run_scan(root, relpaths, ranks):
    sources = load_sources(root, relpaths)
    findings = []
    tables = collect_declarations(sources, ranks, findings)
    requires, excludes = collect_annotations(sources, tables)
    edges = []
    for relpath in sorted(sources):
        raw, cleaned = sources[relpath]
        scan_file(relpath, raw, cleaned, tables.get(pair_key(relpath), {}),
                  requires, excludes, edges)
    seen = set()
    for e in edges:
        if e.waived or (e.src, e.dst, e.path, e.line) in seen:
            continue
        seen.add((e.src, e.dst, e.path, e.line))
        if ranks[e.dst] <= ranks[e.src]:
            findings.append(Finding(
                e.path, e.line, "order",
                f"{e.dst} (rank {ranks[e.dst]}) acquired while {e.src} "
                f"(rank {ranks[e.src]}) is held: ranks must strictly "
                "increase in acquisition order"))
    find_cycles(edges, ranks, findings)
    return findings, len(sources)


def run_check(root, subdirs, ranks):
    findings, nfiles = run_scan(root, collect_files(root, subdirs), ranks)
    for finding in sorted(findings, key=Finding.key):
        print(finding)
    if findings:
        print(f"lockrank: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lockrank: clean ({nfiles} files, {len(ranks)} ranks)")
    return 0


def run_self_test(root, ranks):
    expected = set()
    for relpath in SELF_TEST_FILES:
        try:
            with open(os.path.join(root, relpath), encoding="utf-8") as fh:
                for lineno, line in enumerate(fh.read().splitlines(),
                                              start=1):
                    for match in EXPECT_MARKER.finditer(line):
                        expected.add((relpath, lineno, match.group("kind")))
        except OSError as err:
            print(f"lockrank: missing fixture {relpath}: {err}",
                  file=sys.stderr)
            return 1
    findings, _ = run_scan(root, list(SELF_TEST_FILES), ranks)
    actual = {f.key() for f in findings}
    missing = expected - actual
    unexpected = actual - expected
    for path, line, kind in sorted(missing):
        print(f"{path}:{line}: [self-test] expected a {kind} finding here, "
              "check did not fire")
    for path, line, kind in sorted(unexpected):
        print(f"{path}:{line}: [self-test] unexpected {kind} finding "
              "(no lockrank-expect marker)")
    if missing or unexpected:
        print(f"lockrank --self-test: FAILED ({len(missing)} missing, "
              f"{len(unexpected)} unexpected)", file=sys.stderr)
        return 1
    print(f"lockrank --self-test: OK ({len(expected)} expected findings "
          "all fired, no extras)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--subdir", action="append", default=None,
                        help="tree(s) to scan relative to root "
                             "(default: src and tools)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the findings fire against "
                             "tests/lint_fixtures/")
    parser.add_argument("--dump-graph", action="store_true",
                        help="print the extracted acquisition edges and "
                             "exit (debugging aid)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"lockrank: no such root: {root}", file=sys.stderr)
        return 2
    ranks = parse_rank_table(root)
    if ranks is None:
        return 2
    if args.self_test:
        return run_self_test(root, ranks)
    if args.dump_graph:
        relpaths = collect_files(root, args.subdir or ["src", "tools"])
        sources = load_sources(root, relpaths)
        findings = []
        tables = collect_declarations(sources, ranks, findings)
        requires, excludes = collect_annotations(sources, tables)
        edges = []
        for relpath in sorted(sources):
            raw, cleaned = sources[relpath]
            scan_file(relpath, raw, cleaned,
                      tables.get(pair_key(relpath), {}), requires, excludes,
                      edges)
        for e in edges:
            flag = " (waived)" if e.waived else ""
            print(f"{e.path}:{e.line}: {e.src} -> {e.dst}{flag}")
        return 0
    return run_check(root, args.subdir or ["src", "tools"], ranks)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
