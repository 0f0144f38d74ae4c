#!/usr/bin/env python
"""Docs lint: catch broken links and stale references.

Six checks over every tracked markdown file:

1. **intra-repo links** — every relative ``[text](target)`` must point
   at a file or directory that exists (anchors are stripped; external
   ``http(s):``/``mailto:`` links are ignored);
2. **module references** — every backticked ``repro.foo.bar`` dotted
   path must resolve to a real module, package, or attribute, so docs
   cannot name code that was renamed or removed;
3. **CLI flags** — every ``--flag`` a doc attributes to a ``python -m
   repro <command>`` context must be accepted by that command's parser,
   every ``--flag`` on a line mentioning ``bench.py`` or
   ``soak.py`` must be accepted by that script's parser, and every
   ``--flag`` on a line naming a ``perfbench/<script>.py`` must appear
   in that script's ``--help``, so flag renames cannot strand the docs;
4. **metric catalogue** — the table under ``## Metrics catalogue`` in
   ``docs/observability.md`` must list exactly the metric names in
   ``repro.obs.metric_catalogue()``: a documented metric missing from
   the catalogue is stale, a catalogue metric missing from the docs is
   undocumented, and both fail;
5. **undocumented flags** — the reverse of check 3 for the flags in
   ``MUST_DOCUMENT_FLAGS`` (the ``--devices`` pool flag, the serve
   caching/batching flags ``--result-cache-bytes``,
   ``--no-result-cache``, ``--batch-dedupe``, and the failure-domain
   flags ``--max-relocations`` / ``--quarantine-threshold``): every
   command whose parser accepts such a flag must have at least one doc line
   attributing the flag to that command, so a new flag cannot ship
   without documentation;
6. **reachability** — every ``docs/*.md`` page must be reachable by
   following relative links from ``docs/README.md``, so a page cannot
   be orphaned from the index;
7. **measured figures** — the numbers EXPERIMENTS.md's "Measured"
   column states for the paper claims in ``MEASURED_CLAIMS`` (Figs 11
   and 24: error range and mean; Figs 16 and 27: improvement range;
   Fig 22: the largest-scale Q8/Q9 GPL/Ocelot ratios) must equal the
   committed ``benchmarks/results/*.txt``, rounded as the doc writes
   them, so a moved figure cannot leave a stale claim behind.

Exit code 0 when clean, 1 with one line per problem otherwise.  Run
from the repository root (CI does); no arguments.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

# Work-tracking files may reference planned-but-unbuilt code and flags;
# the lint covers documentation of what exists.
SKIP_FILES = {"ISSUE.md", "CHANGES.md"}

DOC_FILES = sorted(
    path
    for path in list(REPO.glob("*.md")) + list((REPO / "docs").glob("*.md"))
    if path.name not in SKIP_FILES
)

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MODULE_RE = re.compile(r"`(repro(?:\.\w+)+)")
# A --flag mentioned in prose or code fences.  Only flags that also
# appear near a recognizable command name are attributed to it.
FLAG_RE = re.compile(r"(--[a-z][a-z0-9-]+)")
COMMAND_RE = re.compile(
    r"\b(run|serve|compare|workload|calibrate|tune|explain|trace|obs|dbgen)\b"
)

OBSERVABILITY_DOC = REPO / "docs" / "observability.md"
CATALOGUE_HEADING = "## Metrics catalogue"
METRIC_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`")

# Flags that belong to the docs' own tooling examples, not the repro CLI.
FOREIGN_FLAGS = {"--benchmark-only"}

PERFBENCH_SCRIPT_RE = re.compile(r"perfbench/(\w+)\.py")

BENCH_SCRIPT = REPO / "scripts" / "bench.py"
SOAK_SCRIPT = REPO / "scripts" / "soak.py"

# Check 5: flags that MUST be documented on every command whose parser
# accepts them.  Extend this set when a new cross-cutting flag lands.
MUST_DOCUMENT_FLAGS = {
    "--devices",
    "--result-cache-bytes",
    "--no-result-cache",
    "--batch-dedupe",
    "--max-relocations",
    "--quarantine-threshold",
}

DOCS_INDEX = REPO / "docs" / "README.md"

# Check 7: EXPERIMENTS.md claims computed from benchmarks/results.
EXPERIMENTS_DOC = REPO / "EXPERIMENTS.md"
RESULTS_DIR = REPO / "benchmarks" / "results"
MEASURED_ROW_RE = re.compile(r"^\| \*\*(Fig \d+)\*\*[^|]*\|[^|]*\|([^|]*)\|")


def _error_range_and_mean(tables):
    errors = [float(row["rel. error"]) for row in tables[-1]]
    return min(errors), max(errors), sum(errors) / len(errors)


def _improvement_range(tables):
    gains = [float(row["improvement"].rstrip("%")) for row in tables[-1]]
    return min(gains), max(gains)


def _q8_q9_ratios(tables):
    rows = {row["query"]: float(row["GPL / Ocelot"]) for row in tables[-1]}
    return rows["Q8"], rows["Q9"]


_ERRORS = (r"([\d.]+)–([\d.]+) \(mean ([\d.]+)\)", _error_range_and_mean)
_GAINS = (r"improvements (\d+)–(\d+) %", _improvement_range)

#: figure -> (results file, pattern of the claim in the Measured cell,
#: the claimed numbers computed from the file's last table).
MEASURED_CLAIMS = {
    "Fig 11": ("fig11_model_error", *_ERRORS),
    "Fig 24": ("fig24_model_error_nvidia", *_ERRORS),
    "Fig 16": ("fig16_overall_amd", *_GAINS),
    "Fig 27": ("fig27_overall_nvidia", *_GAINS),
    "Fig 22": ("fig22_ocelot", r"Q8 ([\d.]+)×, Q9 ([\d.]+)×", _q8_q9_ratios),
}


def _script_flags(script_path):
    """Option strings accepted by a script's importable ``build_parser``."""
    spec = importlib.util.spec_from_file_location(
        f"_{script_path.stem}", script_path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        option
        for action in module.build_parser()._actions
        for option in action.option_strings
    }


@functools.lru_cache(maxsize=None)
def _help_flags(script):
    """Option strings listed by ``perfbench/<script>.py --help``."""
    result = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / f"{script}.py"), "--help"],
        capture_output=True,
        text=True,
        check=True,
    )
    return {
        flag
        for line in result.stdout.splitlines()
        if line.lstrip().startswith("-")
        for flag in FLAG_RE.findall(line.strip().split("  ")[0])
    }


def iter_problems():
    from repro.__main__ import build_parser
    import argparse

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags_by_command = {
        name: {
            option
            for action in sub._actions
            for option in action.option_strings
        }
        for name, sub in subparsers.choices.items()
    }
    script_flags = {
        "bench.py": _script_flags(BENCH_SCRIPT),
        "soak.py": _script_flags(SOAK_SCRIPT),
    }
    # (command, flag) pairs the docs attribute somewhere — fed into
    # check 5 after the per-file sweep.
    documented_pairs = set()

    for path in DOC_FILES:
        text = path.read_text()
        rel = path.relative_to(REPO)

        # 1. intra-repo links
        for match in LINK_RE.finditer(text):
            target = match.group(1).split("#", 1)[0]
            if not target or ":" in target:
                continue  # pure anchor or external URL
            if not (path.parent / target).exists():
                yield f"{rel}: broken link -> {match.group(1)}"

        # 2. module references
        for match in MODULE_RE.finditer(text):
            dotted = match.group(1)
            if _resolves(dotted):
                continue
            yield f"{rel}: unresolved module reference `{dotted}`"

        # 3. CLI flags, attributed line-by-line to the nearest command
        for line in text.splitlines():
            flags = set(FLAG_RE.findall(line)) - FOREIGN_FLAGS
            if not flags:
                continue
            perfbench = PERFBENCH_SCRIPT_RE.search(line)
            if perfbench is not None:
                # perfbench scripts are checked against their own --help.
                script = perfbench.group(1)
                for flag in sorted(flags - _help_flags(script)):
                    yield (
                        f"{rel}: flag {flag} not accepted by "
                        f"perfbench/{script}.py"
                    )
                continue
            script = next(
                (name for name in script_flags if name in line), None
            )
            if script is not None:
                # Lines about the bench/soak harnesses are checked
                # against their own parsers, not the repro CLI.
                for flag in sorted(flags - script_flags[script]):
                    yield (
                        f"{rel}: flag {flag} not accepted by "
                        f"scripts/{script}"
                    )
                continue
            commands = set(COMMAND_RE.findall(line)) & set(flags_by_command)
            if not commands:
                continue  # flag with no command context on the line
            for flag in flags:
                if not any(
                    flag in flags_by_command[cmd] for cmd in commands
                ):
                    yield (
                        f"{rel}: flag {flag} not accepted by "
                        f"{'/'.join(sorted(commands))}"
                    )
                for cmd in commands:
                    if flag in flags_by_command[cmd]:
                        documented_pairs.add((cmd, flag))

    # 4. metric catalogue <-> docs/observability.md, both directions
    yield from _catalogue_problems()

    # 5. must-document flags: every command accepting one needs a doc
    # line attributing that flag to it (the reverse of check 3)
    for flag in sorted(MUST_DOCUMENT_FLAGS):
        for cmd in sorted(flags_by_command):
            if flag in flags_by_command[cmd] and (cmd, flag) not in (
                documented_pairs
            ):
                yield (
                    f"docs: flag {flag} accepted by `{cmd}` is never "
                    f"documented for it"
                )

    # 6. every docs/*.md page reachable from the docs index
    yield from _reachability_problems()

    # 7. EXPERIMENTS.md's measured claims match benchmarks/results
    yield from _measured_problems()


def _result_tables(name):
    """The tables of ``benchmarks/results/<name>.txt``, in file order,
    each a list of rows keyed by column header."""
    tables, header = [], None
    for line in (RESULTS_DIR / f"{name}.txt").read_text().splitlines():
        if line.startswith("query "):
            header = re.split(r"\s{2,}", line.strip())
            tables.append([])
        elif header is None or not line.strip():
            header = None
        elif not line.lstrip().startswith("-"):
            tables[-1].append(dict(zip(header, line.split())))
    return tables


def _measured_problems():
    rel = EXPERIMENTS_DOC.relative_to(REPO)
    cells = {}
    for line in EXPERIMENTS_DOC.read_text().splitlines():
        match = MEASURED_ROW_RE.match(line)
        if match:
            cells[match.group(1)] = match.group(2)
    for figure, (result, pattern, claimed) in MEASURED_CLAIMS.items():
        match = re.search(pattern, cells.get(figure, ""))
        if match is None:
            yield f"{rel}: {figure} Measured cell does not match {pattern!r}"
            continue
        values = claimed(_result_tables(result))
        for stated, value in zip(match.groups(), values):
            rounded = f"{value:.{len(stated.partition('.')[2])}f}"
            if rounded != stated:
                yield (
                    f"{rel}: {figure} states {stated}, "
                    f"benchmarks/results/{result}.txt gives {rounded}"
                )


def _reachability_problems():
    """BFS the relative links from docs/README.md; flag orphan pages."""
    rel_index = DOCS_INDEX.relative_to(REPO)
    if not DOCS_INDEX.exists():
        yield f"{rel_index}: missing (docs index)"
        return
    reachable = {DOCS_INDEX.resolve()}
    frontier = [DOCS_INDEX]
    while frontier:
        page = frontier.pop()
        for match in LINK_RE.finditer(page.read_text()):
            target = match.group(1).split("#", 1)[0]
            if not target or ":" in target:
                continue
            resolved = (page.parent / target).resolve()
            if (
                resolved.suffix == ".md"
                and resolved.exists()
                and resolved not in reachable
            ):
                reachable.add(resolved)
                frontier.append(resolved)
    for path in sorted((REPO / "docs").glob("*.md")):
        if path.resolve() not in reachable:
            yield (
                f"{path.relative_to(REPO)}: not reachable by links "
                f"from {rel_index}"
            )


def _catalogue_problems():
    from repro.obs import metric_catalogue

    rel = OBSERVABILITY_DOC.relative_to(REPO)
    if not OBSERVABILITY_DOC.exists():
        yield f"{rel}: missing (metric catalogue documentation)"
        return
    documented = set()
    in_section = False
    for line in OBSERVABILITY_DOC.read_text().splitlines():
        if line.startswith("## "):
            in_section = line.strip() == CATALOGUE_HEADING
            continue
        if in_section:
            match = METRIC_ROW_RE.match(line)
            if match:
                documented.add(match.group(1))
    if not documented:
        yield f"{rel}: no metric table under {CATALOGUE_HEADING!r}"
        return
    catalogued = {spec.name for spec in metric_catalogue()}
    for name in sorted(documented - catalogued):
        yield f"{rel}: documented metric `{name}` is not in the catalogue"
    for name in sorted(catalogued - documented):
        yield f"{rel}: catalogue metric `{name}` is undocumented"


def _resolves(dotted: str) -> bool:
    """True if ``dotted`` is an importable module or module attribute."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return False
        return True
    return False


def main() -> int:
    problems = list(iter_problems())
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        return 1
    print(f"check_docs: {len(DOC_FILES)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
