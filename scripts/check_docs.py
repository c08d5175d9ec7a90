#!/usr/bin/env python3
"""Documentation consistency checker (the `docs` ctest label).

Three classes of rot this catches:

1. Dead relative links: every `[text](path)` markdown link in the checked
   pages whose target is a repo file (not http(s)/mailto/#anchor) must
   resolve relative to the page that contains it.

2. Stale CLI documentation: every `crd <verb>` invocation shown in a code
   span or fenced code block must name a verb that `crd --help` lists, and
   every `--flag` on such an invocation line must appear in that verb's
   `crd <verb> --help` text. Docs promising options the tool dropped (or
   never had) fail the build instead of misleading readers.

3. Stale option values: every option value set spelled in the docs
   (`--opt=a|b|c` or `--opt[=a|b]`, table cells may escape the bars) must
   list exactly the values that verb's `--help` lists for the option, and
   a single `--opt=value` must be one of them. On a `crd <verb>` line the
   verb is known; elsewhere the set must match some verb's. CHANGES.md and
   EXPERIMENTS.md are exempt: they record configurations as measured.

4. Undocumented metrics: every JSON field name the observability snapshot
   emits (the `W.field("...")` / `W.key("...")` calls in
   src/wire/StreamPipeline.cpp) must be mentioned in
   docs/observability.md, so `crd profile` output never grows fields the
   reference page does not explain.

Usage: check_docs.py <repo-root> <crd-binary>

Exit codes: 0 = consistent, 1 = findings (each printed to stderr),
2 = bad invocation / cannot run the crd binary.
"""

import re
import subprocess
import sys
from pathlib import Path

# Pages checked for links and CLI references. docs/*.md is globbed on top.
TOP_LEVEL_PAGES = [
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    "EXPERIMENTS.md",
    "CHANGES.md",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# A metrics field emission in the snapshot writer: W.field("name", ...),
# W.fieldArray("name", ...) or W.key("name").
METRIC_FIELD_RE = re.compile(r'W\.(?:field|fieldArray|key)\("([a-z0-9_]+)"')
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
CRD_INVOCATION_RE = re.compile(r"\bcrd\s+([a-z][a-z0-9-]*)")
FLAG_RE = re.compile(r"(--[a-zA-Z][\w-]*)")
ALWAYS_OK_FLAGS = {"--help", "-h"}
# An option with lowercase values: --opt=a|b, --opt[=a|b], --opt=a (docs
# tables escape the bars as \|).
OPTION_VALUES_RE = re.compile(
    r"(--[a-z][\w-]*)\[?=([a-z0-9]+(?:\\?\|[a-z0-9]+)*)(?![\w.])"
)
# Pages exempt from the value-set check (see the module docstring).
HISTORY_PAGES = {"CHANGES.md", "EXPERIMENTS.md"}


def run_help(crd, *args):
    """Returns combined stdout+stderr of `crd *args` (help text)."""
    proc = subprocess.run(
        [crd, *args], capture_output=True, text=True, timeout=60
    )
    return proc.stdout + proc.stderr


def documented_verbs(crd):
    """Verbs `crd --help` lists (two-space-indented 'verb  description')."""
    verbs = set()
    for line in run_help(crd, "--help").splitlines():
        m = re.match(r"^  ([a-z][a-z0-9-]*)\s{2,}\S", line)
        if m:
            verbs.add(m.group(1))
    return verbs


def check_links(page, text, repo_root, problems):
    for lineno, line in enumerate(text.splitlines(), 1):
        for target in LINK_RE.findall(line):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme.
                continue
            if target.startswith("#"):  # In-page anchor.
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (page.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{page.relative_to(repo_root)}:{lineno}: dead link "
                    f"'{target}' (resolves to {resolved})"
                )


def code_lines(text):
    """Yields (lineno, code) for fenced-block lines and inline code spans."""
    fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            fence = not fence
            continue
        if fence:
            yield lineno, line
        else:
            for span in INLINE_CODE_RE.findall(line):
                yield lineno, span


def option_values(text):
    """Yields (offset, option, [values]) per option value spelling."""
    for m in OPTION_VALUES_RE.finditer(text):
        yield m.start(), m.group(1), m.group(2).replace("\\", "").split("|")


def help_value_sets(help_text):
    """Option -> value set for the options a --help text spells as a|b."""
    return {
        opt: set(values)
        for _, opt, values in option_values(help_text)
        if len(values) > 1
    }


def value_problem(opt, values, allowed):
    """Why `opt` spelled with `values` disagrees with the `allowed` sets."""
    if len(values) > 1:
        if set(values) in allowed:
            return None
        want = " or ".join("|".join(sorted(a)) for a in allowed) or "none"
        return (f"documented values '{opt}={'|'.join(values)}' do not match "
                f"--help (lists: {want})")
    if allowed and not any(values[0] in a for a in allowed):
        return f"documented value '{opt}={values[0]}' is not in --help"
    return None


def check_option_values(page, lineno, code, spans, verb_help, all_sets,
                        repo_root, problems):
    """spans: (start, end, verb) of the crd invocations in code."""
    for start, opt, values in option_values(code):
        verb = next((v for b, e, v in spans if b <= start < e), None)
        if verb is not None:
            known = help_value_sets(verb_help[verb]).get(opt)
            allowed = [known] if known else []
        else:
            allowed = all_sets.get(opt, [])
            if len(values) == 1 and not allowed:
                continue  # A numeric or free-form value, e.g. --shards=4.
        if verb is not None and not allowed:
            continue
        problem = value_problem(opt, values, allowed)
        if problem:
            problems.append(f"{page.relative_to(repo_root)}:{lineno}: "
                            f"{problem}")


def check_cli_references(page, text, repo_root, verbs, verb_help, crd,
                         all_sets, problems):
    check_values = page.name not in HISTORY_PAGES
    for lineno, code in code_lines(text):
        spans = []
        for m in CRD_INVOCATION_RE.finditer(code):
            verb = m.group(1)
            if verb == "help":
                continue
            if verb not in verbs:
                problems.append(
                    f"{page.relative_to(repo_root)}:{lineno}: documented "
                    f"verb 'crd {verb}' is not listed by 'crd --help'"
                )
                continue
            if verb not in verb_help:
                verb_help[verb] = run_help(crd, verb, "--help")
            rest = code[m.end():]
            # Stop at the next crd invocation in the same span, if any.
            nxt = CRD_INVOCATION_RE.search(rest)
            if nxt:
                rest = rest[: nxt.start()]
            spans.append((m.end(), m.end() + len(rest), verb))
            for flag in FLAG_RE.findall(rest):
                if flag in ALWAYS_OK_FLAGS:
                    continue
                if flag not in verb_help[verb]:
                    problems.append(
                        f"{page.relative_to(repo_root)}:{lineno}: "
                        f"documented option '{flag}' is not in "
                        f"'crd {verb} --help'"
                    )
        if check_values:
            check_option_values(page, lineno, code, spans, verb_help,
                                all_sets, repo_root, problems)


# Each snapshot writer and the reference page that must document every
# JSON field it emits.
METRIC_SNAPSHOT_PAIRS = [
    ("src/wire/StreamPipeline.cpp", "docs/observability.md"),
    ("src/ingest/Session.cpp", "docs/ingestion.md"),
    ("src/serve/Server.cpp", "docs/serve.md"),
]


def check_metric_fields(repo_root, problems):
    """Every field a metrics snapshot emits must be documented."""
    for src_rel, doc_rel in METRIC_SNAPSHOT_PAIRS:
        src = repo_root / Path(src_rel)
        doc = repo_root / Path(doc_rel)
        if not src.exists():
            continue
        if not doc.exists():
            problems.append(
                f"{doc_rel}: missing, but {src_rel} emits a metrics snapshot"
            )
            continue
        fields = set(METRIC_FIELD_RE.findall(src.read_text(encoding="utf-8")))
        doc_text = doc.read_text(encoding="utf-8")
        for name in sorted(fields):
            if name not in doc_text:
                problems.append(
                    f"{doc_rel}: metrics field '{name}' (emitted by "
                    f"{src_rel}) is undocumented"
                )


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    repo_root = Path(sys.argv[1]).resolve()
    crd = sys.argv[2]

    try:
        verbs = documented_verbs(crd)
    except OSError as err:
        print(f"error: cannot run '{crd}': {err}", file=sys.stderr)
        return 2
    if not verbs:
        print(f"error: 'crd --help' listed no commands", file=sys.stderr)
        return 2

    pages = [repo_root / p for p in TOP_LEVEL_PAGES]
    pages += sorted((repo_root / "docs").glob("*.md"))
    pages = [p for p in pages if p.exists()]

    problems = []
    verb_help = {verb: run_help(crd, verb, "--help") for verb in verbs}
    # Option -> the value sets any verb's --help spells for it.
    all_sets = {}
    for help_text in verb_help.values():
        for opt, values in help_value_sets(help_text).items():
            if values not in all_sets.setdefault(opt, []):
                all_sets[opt].append(values)
    for page in pages:
        text = page.read_text(encoding="utf-8")
        check_links(page, text, repo_root, problems)
        check_cli_references(page, text, repo_root, verbs, verb_help, crd,
                             all_sets, problems)
    check_metric_fields(repo_root, problems)

    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"check_docs: {len(pages)} pages, {len(verbs)} crd verbs, "
        f"{len(problems)} problems"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
