"""The README names only what the package has."""
import importlib
import pkgutil
import re
import types
from pathlib import Path

import hansenatlas

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
