"""The docs name only what the code has.

DESIGN.md is the paper→code map, README.md the front-door tour and
docs/*.md the per-subsystem guides; a typo'd class, a module renamed, an
environment variable or a CLI flag deleted without updating the docs
silently strands readers.  Checked here, over README.md, DESIGN.md,
CONTRIBUTING.md and docs/*.md:

* every dotted ``repro...`` reference in DESIGN.md, README.md and
  docs/*.md imports as a module or resolves as an attribute of one;
* every ``REPRO_*`` name in code (backticks or a fenced block) is read by
  the code: a quoted literal in a module under ``src/``, ``scripts/`` or
  ``benchmarks/`` (the harness's own knobs live there);
* every ``--flag`` of a ``repro <command> ...`` line in code is an option
  of that command in `repro.cli`'s parser.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
README = ROOT / "README.md"
PAPER = ROOT / "PAPER.md"
GUIDES = sorted((ROOT / "docs").glob("*.md"))
#: Every document whose environment variables and CLI flags are checked.
DOCS = [README, DESIGN, ROOT / "CONTRIBUTING.md", *GUIDES]
SYMBOL = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
ENV_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
#: An inline code span, which may wrap onto the next line.
CODE_SPAN = re.compile(r"`([^`\n]+(?:\n[^`\n]+)?)`")
#: A dotted symbol, not a path or file name that starts with ``repro.``.
GUIDE_SYMBOL = re.compile(r"(?<![\w/.-])repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
#: ``repro <command>`` (also ``python -m repro <command>``) and the rest of
#: the command line, up to a comment or the next shell command.
COMMAND = re.compile(r"\brepro\s+([a-z][a-z-]*)([^#;|&]*)")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def code_of(doc: Path) -> list[str]:
    """The document's code, one command per line: fenced blocks (shell
    line continuations joined) and inline code spans."""
    text = doc.read_text(encoding="utf-8")
    lines = []
    for block in FENCE.findall(text):
        lines.extend(block.replace("\\\n", " ").splitlines())
    prose = FENCE.sub("", text)
    lines.extend(span.replace("\n", " ") for span in CODE_SPAN.findall(prose))
    return lines


def _read_env_names() -> set:
    names = set()
    for top in ("src", "scripts", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            if "e2e" in path.relative_to(ROOT).parts:
                continue  # the benchmark's own tree is checked by the benchmark
            text = path.read_text(encoding="utf-8")
            names.update(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']", text))
    return names


def _cli_options() -> dict:
    """``{command: option strings}``, plus ``None`` for the top level."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    options = {None: set(parser._option_string_actions)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options[name] = set(sub._option_string_actions)
    return options


def design_symbols():
    return sorted(set(SYMBOL.findall(DESIGN.read_text(encoding="utf-8"))))


def readme_symbols():
    return sorted(set(SYMBOL.findall(README.read_text(encoding="utf-8"))))


def resolve(dotted: str):
    """Import the longest module prefix, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(f"no importable prefix of {dotted!r}")


def test_design_md_mentions_symbols():
    symbols = design_symbols()
    assert symbols, "DESIGN.md should reference repro.* symbols"
    assert "repro.core.engine.IntervalCentricEngine" in symbols


@pytest.mark.parametrize("dotted", design_symbols())
def test_design_md_symbol_resolves(dotted):
    try:
        resolve(dotted)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"DESIGN.md references {dotted!r} which does not resolve: {exc}")


def test_readme_mentions_api_and_obs():
    symbols = readme_symbols()
    assert "repro.api" in symbols, "README should tour the repro.api front door"
    assert "repro.obs" in symbols, "README should tour the observability layer"


@pytest.mark.parametrize("dotted", readme_symbols())
def test_readme_symbol_resolves(dotted):
    try:
        resolve(dotted)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"README.md references {dotted!r} which does not resolve: {exc}")


@pytest.mark.parametrize("doc", [DESIGN, README, PAPER], ids=lambda p: p.name)
def test_engine_class_name_never_misspelled(doc):
    """Every ``*CentricEngine`` mention is the real class name.

    The SYMBOL regex only audits dotted ``repro.*`` paths, so a bare
    backticked ``IneravalCentricEngine`` (the typo PAPER.md shipped with)
    sailed past it.  Flag any variant spelling of the engine class.
    """
    for match in re.finditer(r"\b\w*CentricEngine\b", doc.read_text(encoding="utf-8")):
        assert match.group() == "IntervalCentricEngine", (
            f"{doc.name} misspells the engine class as {match.group()!r}"
        )


def docs_guide_symbols():
    return sorted({
        symbol
        for guide in GUIDES
        for symbol in GUIDE_SYMBOL.findall(guide.read_text(encoding="utf-8"))
    })


@pytest.mark.parametrize("dotted", docs_guide_symbols())
def test_docs_guide_symbol_resolves(dotted):
    try:
        resolve(dotted)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"docs/*.md references {dotted!r} which does not resolve: {exc}")


@pytest.mark.parametrize("doc", DOCS, ids=_rel)
def test_environment_variables_in_docs_are_read(doc):
    named = {name for line in code_of(doc) for name in ENV_NAME.findall(line)}
    stale = sorted(named - _read_env_names())
    assert not stale, f"{_rel(doc)} names variables nothing reads: {stale}"


@pytest.mark.parametrize("doc", DOCS, ids=_rel)
def test_cli_flags_in_docs_exist(doc):
    options = _cli_options()
    stale = []
    for line in code_of(doc):
        for command, rest in COMMAND.findall(line):
            known = options.get(command, options[None])
            stale.extend(
                f"repro {command} {flag}"
                for flag in FLAG.findall(rest)
                if flag not in known
            )
    assert not stale, f"{_rel(doc)} names CLI options the parser lacks: {stale}"
