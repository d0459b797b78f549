"""The README names only what the package has."""
import argparse
import importlib
import pkgutil
import re
import types
from pathlib import Path

import hansenatlas
from hansenatlas.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_dotted_names_resolve():
    # every backticked dotted name whose first part is the package, one of its
    # modules or a public attribute of one, such as `hansenatlas.atlas`,
    # `enclose.Enclosure` or `PolyEval.at`, must resolve; other names, such
    # as `fractions.Fraction` or `manifest.json`, are not the package's
    modules = {
        info.name: importlib.import_module(f"hansenatlas.{info.name}")
        for info in pkgutil.iter_modules(hansenatlas.__path__)
    }
    heads = {"hansenatlas": hansenatlas, **modules}
    for module in modules.values():
        for attr, value in vars(module).items():
            if not attr.startswith("_") and not isinstance(value, types.ModuleType):
                heads.setdefault(attr, value)
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text()))
    checked, missing = [], []
    for name in sorted(names):
        head, *rest = name.split(".")
        if head not in heads:
            continue
        checked.append(name)
        obj = heads[head]
        for part in rest:
            if not hasattr(obj, part):
                missing.append(name)
                break
            obj = getattr(obj, part)
    assert missing == []
    assert {"hansenatlas.atlas", "enclose.Enclosure", "SeriesAE.eval_exact"} <= set(checked)


def _parser_options():
    """The option strings of each subcommand of `build_parser()`, and the union
    of those with the top-level ones."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {option for action in p._actions for option in action.option_strings}
        for name, p in sub.choices.items()
    }
    top = {option for action in parser._actions for option in action.option_strings}
    return options, top.union(*options.values())


def test_readme_options_exist():
    # every --flag in an inline code span, or on a `hansenatlas ...` line of a
    # code block, must be an option of the command: of the subcommand that the
    # line or span starts with (`hansenatlas zeros ...`, `zeros --out`), else of
    # any; other commands' flags, such as pip's --no-build-isolation, are not
    # checked
    text = README.read_text()
    blocks = re.findall(r"^```.*?^```", text, flags=re.M | re.S)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    commands = [
        line.removeprefix("hansenatlas ")
        for block in blocks
        for line in block.splitlines()
        if line.startswith("hansenatlas ")
    ]
    spans = re.findall(r"`([^`\n]+)`", prose)
    flag = re.compile(r"(?<![\w-])--[a-z][\w-]*")
    options, union = _parser_options()
    flags, unknown = set(), []
    for chunk in commands + spans:
        allowed = options.get(next(iter(chunk.split()), None), union)
        found = flag.findall(chunk)
        flags.update(found)
        unknown += [(chunk, option) for option in found if option not in allowed]
    assert unknown == []
    assert {"--out", "--jobs", "--mmax", "--order-e"} <= flags
