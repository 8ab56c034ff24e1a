#!/usr/bin/env python3
"""Repo-specific lint rules that generic tools cannot express.

Run from anywhere: paths are resolved relative to the repository root
(the parent of this script's directory). Exit status 0 = clean, 1 =
violations (printed one per line as `path:line: [rule] message`).

Rules
-----
check-in-library
    SLPSPAN_CHECK / SLPSPAN_DCHECK / abort() must not appear in library
    code reachable from user input through the public API (src/api/,
    src/storage/, src/corpus/, src/net/, the regex parser+compiler, the
    automaton constructions in src/spanner/nfa.cc, the SLP serializer and
    the content-dependent SLP factories). Failures on those paths must travel
    as Status/Result values — a malformed document or pattern must never
    abort the host process. Contract checks for *programmer* misuse
    (e.g. advancing an exhausted iterator) may stay, marked with an
    explicit suppression comment.

naked-mutex
    Outside src/util/, library code must use slpspan::util::Mutex /
    MutexLock / CondVar (src/util/mutex.h) instead of std::mutex,
    std::condition_variable and the std lock RAII types, so Clang Thread
    Safety Analysis covers every lock in the codebase. (std::call_once /
    std::once_flag and std::atomic are fine.)

file-doc-comment
    Every header and source file in src/, include/ and tools/ must open
    with a `//` file doc comment explaining what the file is for
    (subsumes the old CI docs-presence grep over include/slpspan/).

unchecked-result-value
    Within src/ and tools/, accessing a named Result<T> variable's value
    (`r.value()`, `*r`, `r->`) without an `r.ok()` check between the
    declaration and the access. Heuristic and intra-function by
    construction (it only looks between the declaration and the access),
    but it catches the common dropped-error shape:
        Result<X> r = F();
        Use(*r);              // <- flagged: no r.ok() first

avx2-outside-kernels
    AVX2 intrinsics (immintrin.h, _mm256_*, __m256i) may appear only under
    src/core/kernels/ — the layer compiled with -mavx2 and guarded by
    runtime CPUID dispatch. An intrinsic anywhere else either fails to
    compile (no -mavx2 on that TU) or, worse, compiles and faults on
    non-AVX2 hosts because it bypasses the dispatcher.

raw-socket-outside-net
    Socket and epoll system interfaces (<sys/socket.h>, <sys/epoll.h>,
    <netinet/*>, <arpa/inet.h>, <sys/eventfd.h>, epoll_*/eventfd/accept4/
    ::socket calls) may appear only under src/net/. Everything else talks
    to the network through the net:: wrappers so fd lifetimes, EINTR
    retries and nonblocking setup live in one audited layer.

catalog-io-outside-storage-corpus
    The checksummed on-disk container surface — the bundle/catalog magics,
    Checksum64, SealBundle/OpenBundle, WriteFileAtomic, the spill-index
    file name, and the bundle stream surface (WriteTaggedU64s/
    ReadTaggedU64s) — may appear only under src/storage/ and
    src/corpus/. Other layers read and write those files through the
    typed APIs (bundle round-trips, Catalog::Serialize/Deserialize,
    SpillStore), so every byte-level format decision and its corruption
    handling stays in two audited directories. (BundleWriter/BundleReader as pure in-memory
    codecs are fine anywhere — the net framing reuses them — it is the
    *file container* surface that is fenced.) The stream tokens keep
    section encoding inside the storage layer: a layer hand-rolling a
    tagged stream would bypass the bounds-checking contract the stream
    decoder enforces.

docs-presence
    docs/ARCHITECTURE.md, docs/PREPARATION.md, docs/STATIC_ANALYSIS.md,
    docs/KERNELS.md, docs/WIRE_PROTOCOL.md, docs/CORPUS.md and
    docs/STORAGE_CODECS.md exist and are non-empty.

Suppressions
------------
Append `// repo-lint: allow(<rule>)` to a line to waive one finding, with
the justification in a nearby comment. `--self-test` seeds one violation
per rule into a temp tree and asserts the linter catches it.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Library files reachable from user-supplied *content* through the public
# API: documents, patterns, serialized grammars, spilled bundles.
USER_INPUT_REACHABLE = [
    "src/api/",
    "src/storage/",
    "src/corpus/",
    "src/net/",
    "src/spanner/nfa.cc",
    "src/spanner/regex_parser",
    "src/spanner/regex_compile",
    "src/slp/serialize",
    "src/slp/factory",
]

SOURCE_DIRS = ["src", "include", "tools"]
SOURCE_EXTS = (".h", ".cc")

ALLOW_RE = re.compile(r"//\s*repo-lint:\s*allow\(([a-z-]+)\)")
CHECK_RE = re.compile(r"\bSLPSPAN_D?CHECK\s*\(|\babort\s*\(")
NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|condition_variable(_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_mutex|shared_lock|recursive_mutex)\b")
RESULT_DECL_RE = re.compile(r"\bResult<[^;=]*>\s+(\w+)\s*[=({]")
OK_CHECK_TMPL = r"\b{name}\s*\.\s*ok\s*\(\)"
ACCESS_TMPL = (r"\b{name}\s*\.\s*value\s*\(\)|\*\s*{name}\b|"
               r"\b{name}\s*->")

AVX2_RE = re.compile(r"\b_mm256_\w+|\b__m256i?\b|immintrin\.h")

# File-container surface only: BundleWriter/BundleReader are excluded on
# purpose (src/net/frame.cc reuses them as in-memory codecs).
CATALOG_IO_RE = re.compile(
    r"\bkBundleMagic\b|\bkCatalogMagic\b|\bChecksum64\s*\(|"
    r"\bSealBundle\s*\(|\bOpenBundle\s*\(|\bWriteFileAtomic\s*\(|"
    r"\bkSpillIndexFileName\b|\bWriteTaggedU64s\s*\(|"
    r"\bReadTaggedU64s\s*\(")

RAW_SOCKET_RE = re.compile(
    r"<sys/socket\.h>|<sys/epoll\.h>|<netinet/|<arpa/inet\.h>|"
    r"<sys/eventfd\.h>|\bepoll_(create1?|ctl|wait)\s*\(|\beventfd\s*\(|"
    r"\baccept4\s*\(|::socket\s*\(")

REQUIRED_DOCS = [
    "docs/ARCHITECTURE.md",
    "docs/PREPARATION.md",
    "docs/STATIC_ANALYSIS.md",
    "docs/KERNELS.md",
    "docs/WIRE_PROTOCOL.md",
    "docs/CORPUS.md",
    "docs/STORAGE_CODECS.md",
]


def list_source_files(root):
    out = []
    for d in SOURCE_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    out.append(os.path.join(dirpath, name))
    return out


def relpath(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


def allowed(line, rule):
    m = ALLOW_RE.search(line)
    return m is not None and m.group(1) == rule


def strip_comment(line):
    """Drops // comments so commented-out code never triggers a rule."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def check_check_in_library(root, findings):
    rule = "check-in-library"
    for path in list_source_files(root):
        rel = relpath(root, path)
        if not any(rel.startswith(p) for p in USER_INPUT_REACHABLE):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if allowed(line, rule):
                    continue
                if CHECK_RE.search(strip_comment(line)):
                    findings.append(
                        (rel, lineno, rule,
                         "CHECK/abort on a user-input-reachable path; "
                         "return Status instead (or justify with "
                         "// repo-lint: allow(check-in-library))"))


def check_naked_mutex(root, findings):
    rule = "naked-mutex"
    for path in list_source_files(root):
        rel = relpath(root, path)
        if not rel.startswith("src/") or rel.startswith("src/util/"):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if allowed(line, rule):
                    continue
                m = NAKED_MUTEX_RE.search(strip_comment(line))
                if m:
                    findings.append(
                        (rel, lineno, rule,
                         f"naked std::{m.group(1)} outside src/util/; use "
                         "util::Mutex/MutexLock/CondVar so thread-safety "
                         "analysis sees the lock"))


def check_file_doc_comment(root, findings):
    rule = "file-doc-comment"
    for path in list_source_files(root):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            first = f.readline()
        if not first.lstrip().startswith("//"):
            findings.append(
                (rel, 1, rule,
                 "file must open with a // doc comment describing its "
                 "purpose"))


def check_unchecked_result_value(root, findings):
    rule = "unchecked-result-value"
    for path in list_source_files(root):
        rel = relpath(root, path)
        if not (rel.startswith("src/") or rel.startswith("tools/")):
            continue
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        # name -> (declaration line index, ok-check seen since declaration)
        tracked = {}
        for i, raw in enumerate(lines):
            line = strip_comment(raw)
            for name, state in list(tracked.items()):
                if re.search(OK_CHECK_TMPL.format(name=re.escape(name)),
                             line):
                    tracked[name] = (state[0], True)
            m = RESULT_DECL_RE.search(line)
            if m:
                # (Re)declaration resets the ok-check state. No `continue`:
                # an access on the declaration line itself
                # (`Result<T> r = F(); Use(*r);`) must still be caught.
                tracked[m.group(1)] = (i, False)
            for name, (_, ok_seen) in list(tracked.items()):
                if ok_seen or allowed(raw, rule):
                    continue
                if re.search(ACCESS_TMPL.format(name=re.escape(name)),
                             line):
                    findings.append(
                        (rel, i + 1, rule,
                         f"value access on Result '{name}' without a "
                         f"prior {name}.ok() check"))
                    # Report once per variable per declaration.
                    tracked[name] = (tracked[name][0], True)


def check_avx2_outside_kernels(root, findings):
    rule = "avx2-outside-kernels"
    for path in list_source_files(root):
        rel = relpath(root, path)
        if rel.startswith("src/core/kernels/"):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if allowed(line, rule):
                    continue
                m = AVX2_RE.search(strip_comment(line))
                if m:
                    findings.append(
                        (rel, lineno, rule,
                         f"AVX2 intrinsic '{m.group(0)}' outside "
                         "src/core/kernels/; only that layer is compiled "
                         "with -mavx2 behind runtime dispatch"))


def check_raw_socket_outside_net(root, findings):
    rule = "raw-socket-outside-net"
    for path in list_source_files(root):
        rel = relpath(root, path)
        if rel.startswith("src/net/"):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if allowed(line, rule):
                    continue
                m = RAW_SOCKET_RE.search(strip_comment(line))
                if m:
                    findings.append(
                        (rel, lineno, rule,
                         f"raw socket/epoll use '{m.group(0)}' outside "
                         "src/net/; go through the net:: wrappers so fd "
                         "handling stays in one audited layer"))


def check_catalog_io_outside_storage_corpus(root, findings):
    rule = "catalog-io-outside-storage-corpus"
    for path in list_source_files(root):
        rel = relpath(root, path)
        if rel.startswith("src/storage/") or rel.startswith("src/corpus/"):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if allowed(line, rule):
                    continue
                m = CATALOG_IO_RE.search(strip_comment(line))
                if m:
                    findings.append(
                        (rel, lineno, rule,
                         f"container-format symbol '{m.group(0)}' outside "
                         "src/storage/ and src/corpus/; go through the "
                         "typed bundle/catalog APIs so the on-disk format "
                         "stays in two audited layers"))


def check_docs_presence(root, findings):
    rule = "docs-presence"
    for doc in REQUIRED_DOCS:
        path = os.path.join(root, doc)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            findings.append((doc, 1, rule, "required doc missing or empty"))


CHECKS = [
    check_check_in_library,
    check_naked_mutex,
    check_file_doc_comment,
    check_unchecked_result_value,
    check_avx2_outside_kernels,
    check_raw_socket_outside_net,
    check_catalog_io_outside_storage_corpus,
    check_docs_presence,
]


def run_lint(root):
    findings = []
    for check in CHECKS:
        check(root, findings)
    return findings


# --------------------------------------------------------------- self-test --

SEEDED = {
    # rule -> (path, contents that must trip exactly that rule)
    "check-in-library": (
        "src/api/seeded.cc",
        "// seeded self-test file\nvoid F() { SLPSPAN_CHECK(false); }\n"),
    "naked-mutex": (
        "src/runtime/seeded.cc",
        "// seeded self-test file\nstd::mutex bad_mu;\n"),
    "file-doc-comment": (
        "src/core/seeded.h",
        "#pragma once\n"),
    "unchecked-result-value": (
        "src/slp/seeded_result.cc",
        "// seeded self-test file\n"
        "int F() { Result<int> r = G(); return *r; }\n"),
    "avx2-outside-kernels": (
        "src/api/seeded_avx2.cc",
        "// seeded self-test file\n#include <immintrin.h>\n"),
    "raw-socket-outside-net": (
        "src/runtime/seeded_socket.cc",
        "// seeded self-test file\n#include <sys/socket.h>\n"),
    "catalog-io-outside-storage-corpus": (
        "src/runtime/seeded_catalog.cc",
        "// seeded self-test file\n"
        "void F() { storage::codec::WriteTaggedU64s(v, n, w); }\n"),
    "docs-presence": (None, None),  # tested by simply omitting the docs
}


def self_test():
    ok = True
    with tempfile.TemporaryDirectory(prefix="repo_lint_selftest_") as tmp:
        for sub in ["src/api", "src/runtime", "src/core", "src/slp",
                    "include", "tools", "docs"]:
            os.makedirs(os.path.join(tmp, sub), exist_ok=True)
        for rule, (path, contents) in SEEDED.items():
            if path is None:
                continue
            with open(os.path.join(tmp, path), "w", encoding="utf-8") as f:
                f.write(contents)
        findings = run_lint(tmp)
        hit_rules = {rule for (_, _, rule, _) in findings}
        for rule in SEEDED:
            if rule not in hit_rules:
                print(f"self-test FAILED: seeded {rule} violation "
                      "not detected", file=sys.stderr)
                ok = False
        # A suppressed line must NOT be reported.
        suppressed = os.path.join(tmp, "src/api/suppressed.cc")
        with open(suppressed, "w", encoding="utf-8") as f:
            f.write("// seeded self-test file\n"
                    "void F() { SLPSPAN_CHECK(x); }"
                    "  // repo-lint: allow(check-in-library)\n")
        for rel, lineno, rule, _ in run_lint(tmp):
            if rel.endswith("suppressed.cc"):
                print("self-test FAILED: suppression comment ignored",
                      file=sys.stderr)
                ok = False
    print("self-test " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches seeded violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = run_lint(args.root)
    for rel, lineno, rule, msg in sorted(findings):
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"{len(findings)} repo-lint violation(s)", file=sys.stderr)
        return 1
    print("repo-lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
