#!/usr/bin/env python3
"""Documentation consistency checks, run by the CI `docs` job.

1. Every relative markdown link in the core docs resolves to an existing
   file (anchors and external http(s)/mailto links are skipped).
2. Every directory under src/ is documented in docs/ARCHITECTURE.md.
3. docs/TUNING.md stays in sync with the knobs the code registers: every
   cbmpirun flag, every CBMPI_* env var read anywhere in src/ or tools/ and
   every fabric::TuningParams field declared in src/fabric/tuning.hpp must
   be documented, and every flag/env var the doc mentions and every field
   in its "Programmatic knobs" table must still exist (no stale rows).
   Every TuningParams field must also be assigned (`.field = ...`)
   somewhere outside tests/: a knob that only tests turn is a constant.
4. Build wiring is consistent: every src/ subdirectory with .cpp files has
   a CMakeLists.txt and an add_subdirectory entry in src/CMakeLists.txt
   (header-only directories are exempt from build wiring but still need
   the ARCHITECTURE.md coverage of check 2), and every
   add_subdirectory entry points at a directory that still exists.
5. DESIGN.md §12 lists exactly the top-level run-report sections that
   src/obs/analysis/report_schema.cpp declares.
6. Every backticked qualified name (`A::b`) in README.md, DESIGN.md,
   docs/ARCHITECTURE.md and docs/TUNING.md still names code: each of its
   parts is an identifier of the C++ sources under src/, tools/, bench/ or
   tests/, comments and strings stripped. `std::` names are exempt, and so
   are ROADMAP.md and CHANGES.md, which cite history.

Exit status is 1 if any problem was found, else 0; each problem is printed as
`file: message` so editors can jump to it.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/TUNING.md",
]

TUNING_DOC = "docs/TUNING.md"
TUNING_HPP = "src/fabric/tuning.hpp"

# opts.get("name", ...) / get_int / get_double / get_flag — the name may sit
# on the line after the open paren, so match across whitespace.
FLAG_REG_RE = re.compile(
    r'opts\.get(?:_int|_double|_flag)?\(\s*"([a-z0-9-]+)"')
ENV_VAR_RE = re.compile(r'"(CBMPI_[A-Z0-9_]+)"')
DOC_FLAG_RE = re.compile(r"`--([a-z0-9-]+)(?:=[^`]*)?`")
DOC_ENV_RE = re.compile(r"`(CBMPI_[A-Z0-9_]+)`")
# `  Bytes smp_eager_size = 8_KiB;` inside struct TuningParams { ... };
TUNING_STRUCT_RE = re.compile(r"struct TuningParams \{(.*?)^\};", re.S | re.M)
FIELD_DECL_RE = re.compile(r"^\s*[A-Za-z_:]+\s+([a-z_][a-z0-9_]*)\s*(?:=[^;]*)?;",
                           re.M)
# `field`, `TuningParams::field` or `fabric::TuningParams::field`.
DOC_FIELD_RE = re.compile(r"`(?:fabric::)?(?:TuningParams::)?([a-z_][a-z0-9_]*)`")
KNOB_TABLE_ROW_RE = re.compile(r"^\| `([a-z_][a-z0-9_]*)` \|", re.M)
# Where a knob may be turned for real: everything but tests/.
KNOB_USER_ROOTS = ("src", "tools", "bench", "examples")

REPORT_SCHEMA = "src/obs/analysis/report_schema.cpp"
# `    {"net", kSingle, true,` in kSections; nested ones ("jobs[].crash") skip.
REPORT_SECTION_RE = re.compile(r'^\s*\{"([a-z_]+)(?:\[\])?", k(?:Single|Schedule|Both),', re.M)

# Check 6: the docs whose qualified names must name code, and where.
CODE_NAME_DOCS = ["README.md", "DESIGN.md", "docs/ARCHITECTURE.md", "docs/TUNING.md"]
CODE_ROOTS = ("src", "tools", "bench", "tests")
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
QUALIFIED_RE = re.compile(r"\b[A-Za-z_]\w*(?:::[A-Za-z_]\w*)+")
IDENTIFIER_RE = re.compile(r"\b[A-Za-z_]\w*")
# Comments, raw strings, strings and character literals, leftmost first.
COMMENT_OR_LITERAL_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|R"([^(\s]*)\(.*?\)\1"|"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])+'", re.S)

# [text](target) — excludes images' leading "!" handling (images are links
# to files too, so check them the same way).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_FENCE_RE = re.compile(r"^\s*(```|~~~)")


def strip_code_blocks(lines):
    """Yields (lineno, line) for lines outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(lines, start=1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def check_links(doc, problems):
    path = os.path.join(REPO, doc)
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for lineno, line in strip_code_blocks(lines):
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]  # drop in-page anchor
            if not rel:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
            if not os.path.exists(resolved):
                problems.append(f"{doc}:{lineno}: broken link '{target}'")


def check_architecture_covers_src(problems):
    arch_doc = "docs/ARCHITECTURE.md"
    with open(os.path.join(REPO, arch_doc), encoding="utf-8") as f:
        arch = f.read()
    src = os.path.join(REPO, "src")
    for entry in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, entry)):
            continue
        if not re.search(rf"src/{re.escape(entry)}\b", arch):
            problems.append(
                f"{arch_doc}: src/{entry} is not documented "
                f"(expected a 'src/{entry}' mention)")


def check_build_coverage(problems):
    """Every src/<dir> holding .cpp sources must be wired into the build:
    its own CMakeLists.txt plus an add_subdirectory(<dir>) in
    src/CMakeLists.txt. Header-only directories need no wiring (the library
    target never compiles them), and stale add_subdirectory entries for
    removed directories are flagged too."""
    src = os.path.join(REPO, "src")
    with open(os.path.join(src, "CMakeLists.txt"), encoding="utf-8") as f:
        wired = set(re.findall(r"add_subdirectory\(\s*([A-Za-z0-9_./-]+)\s*\)",
                               f.read()))
    for entry in sorted(os.listdir(src)):
        subdir = os.path.join(src, entry)
        if not os.path.isdir(subdir):
            continue
        has_cpp = any(name.endswith(".cpp") for name in os.listdir(subdir))
        if not has_cpp:
            continue  # header-only: nothing to compile
        if not os.path.exists(os.path.join(subdir, "CMakeLists.txt")):
            problems.append(
                f"src/{entry}: has .cpp sources but no CMakeLists.txt")
        if entry not in wired:
            problems.append(
                f"src/CMakeLists.txt: src/{entry} has .cpp sources but no "
                f"add_subdirectory({entry}) entry — its code never builds")
    for entry in sorted(wired):
        if not os.path.isdir(os.path.join(src, entry)):
            problems.append(
                f"src/CMakeLists.txt: add_subdirectory({entry}) points at a "
                f"directory that does not exist (stale)")


def cpp_sources(roots):
    """Contents of every C++ source file under the given repo directories."""
    for root in roots:
        for dirpath, _dirs, files in os.walk(os.path.join(REPO, root)):
            for name in files:
                if name.endswith((".cpp", ".hpp")):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8") as f:
                        yield f.read()


def registered_env_vars():
    """CBMPI_* string literals anywhere in src/ or tools/ C++ sources."""
    found = set()
    for text in cpp_sources(("src", "tools")):
        found.update(ENV_VAR_RE.findall(text))
    return found


def tuning_fields():
    """Data members of fabric::TuningParams, comments stripped."""
    with open(os.path.join(REPO, TUNING_HPP), encoding="utf-8") as f:
        body = TUNING_STRUCT_RE.search(f.read()).group(1)
    body = re.sub(r"//.*", "", body)
    return set(FIELD_DECL_RE.findall(body))


def check_tuning_fields(doc, problems):
    fields = tuning_fields()
    table = doc.split("## Programmatic knobs", 1)[-1].split("\n## ", 1)[0]
    for field in sorted(fields - set(DOC_FIELD_RE.findall(doc))):
        problems.append(
            f"{TUNING_DOC}: TuningParams::{field} is undocumented")
    for field in sorted(set(KNOB_TABLE_ROW_RE.findall(table)) - fields):
        problems.append(
            f"{TUNING_DOC}: documents TuningParams::{field}, which "
            f"{TUNING_HPP} does not declare (stale)")
    check_knobs_used(fields, problems)
    return len(fields)


def check_knobs_used(fields, problems):
    """Flags TuningParams fields that nothing outside tests/ assigns."""
    code = "\n".join(cpp_sources(KNOB_USER_ROOTS))
    for field in sorted(fields):
        if not re.search(rf"\.{field}\s*=(?!=)", code):
            problems.append(
                f"{TUNING_HPP}: TuningParams::{field} is assigned nowhere "
                f"outside tests/ — make it a constant")


def check_tuning_knobs(problems):
    with open(os.path.join(REPO, "tools", "cbmpirun.cpp"),
              encoding="utf-8") as f:
        flags = set(FLAG_REG_RE.findall(f.read()))
    env_vars = registered_env_vars()
    with open(os.path.join(REPO, TUNING_DOC), encoding="utf-8") as f:
        doc = f.read()
    doc_flags = set(DOC_FLAG_RE.findall(doc))
    doc_env = set(DOC_ENV_RE.findall(doc))

    for flag in sorted(flags - doc_flags):
        problems.append(
            f"{TUNING_DOC}: cbmpirun flag --{flag} is undocumented")
    for flag in sorted(doc_flags - flags):
        problems.append(
            f"{TUNING_DOC}: documents --{flag}, which cbmpirun does not "
            "register (stale)")
    for var in sorted(env_vars - doc_env):
        problems.append(f"{TUNING_DOC}: env var {var} is undocumented")
    for var in sorted(doc_env - env_vars):
        problems.append(
            f"{TUNING_DOC}: documents {var}, which nothing reads (stale)")
    return len(flags), len(env_vars), check_tuning_fields(doc, problems)


def check_report_sections(problems):
    """The section table of DESIGN.md §12 against the declared report."""
    with open(os.path.join(REPO, REPORT_SCHEMA), encoding="utf-8") as f:
        declared = set(REPORT_SECTION_RE.findall(f.read()))
    with open(os.path.join(REPO, "DESIGN.md"), encoding="utf-8") as f:
        design = f.read()
    section12 = design.split("\n## 12.", 1)[-1].split("\n## 13.", 1)[0]
    listed = set(KNOB_TABLE_ROW_RE.findall(section12))
    for name in sorted(declared - listed):
        problems.append(f"DESIGN.md: §12 misses report section '{name}'")
    for name in sorted(listed - declared):
        problems.append(f"DESIGN.md: §12 lists '{name}', not in {REPORT_SCHEMA}")
    return len(declared)


def code_identifiers():
    """Identifiers of the C++ sources under CODE_ROOTS, outside comments
    and literals."""
    found = set()
    for text in cpp_sources(CODE_ROOTS):
        found.update(IDENTIFIER_RE.findall(COMMENT_OR_LITERAL_RE.sub(" ", text)))
    return found


def check_code_names(problems):
    identifiers = code_identifiers()
    count = 0
    for doc in CODE_NAME_DOCS:
        with open(os.path.join(REPO, doc), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for lineno, line in strip_code_blocks(lines):
            for span in INLINE_CODE_RE.findall(line):
                for name in QUALIFIED_RE.findall(span):
                    parts = name.split("::")
                    if parts[0] == "std":
                        continue
                    count += 1
                    gone = [part for part in parts if part not in identifiers]
                    if gone:
                        problems.append(
                            f"{doc}:{lineno}: `{name}` names no code: "
                            f"{', '.join(gone)} is not an identifier under "
                            f"{', '.join(r + '/' for r in CODE_ROOTS)}")
    return count


def main():
    problems = []
    for doc in DOCS:
        if not os.path.exists(os.path.join(REPO, doc)):
            problems.append(f"{doc}: missing (listed in tools/check_docs.py)")
            continue
        check_links(doc, problems)
    check_architecture_covers_src(problems)
    check_build_coverage(problems)
    nflags, nenv, nfields = check_tuning_knobs(problems)
    nsections = check_report_sections(problems)
    nnames = check_code_names(problems)
    for problem in problems:
        print(problem)
    if not problems:
        print(f"docs OK: {len(DOCS)} files, all links resolve, "
              "all src/ subsystems documented and build-wired, "
              f"{nflags} flags + {nenv} env vars + {nfields} TuningParams "
              f"fields in sync with {TUNING_DOC} and set outside tests/, "
              f"{nsections} report "
              "sections in sync with DESIGN.md §12, "
              f"{nnames} qualified names in the docs name code")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
