"""The README's library tour, run as doctests, and the code names it cites.

Each ```python block runs in the namespace the previous block left, so
a later block may use names an earlier one imported.
"""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import orbitkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False)
    report: list[str] = []
    globs: dict = {}
    for i, block in enumerate(blocks, start=1):
        test = parser.get_doctest(block, globs, f"README.md python block {i}", str(README), 0)
        assert test.examples, f"python block {i} has no >>> example"
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs  # get_doctest copied the namespace; carry the copy on
    assert runner.failures == 0, "".join(report)


def test_readme_names_resolve():
    # a backticked `module.attr` whose module is an orbitkit module must still exist there
    modules = {m.name for m in pkgutil.iter_modules(orbitkit.__path__)}
    cited = re.findall(r"`(?:orbitkit\.)?(\w+)\.([\w.]+)`", README.read_text(encoding="utf-8"))
    cited = [(module, path) for module, path in cited if module in modules]
    assert cited
    for module, path in cited:
        owner = importlib.import_module(f"orbitkit.{module}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"README.md names `{module}.{path}`, which does not exist"
            owner = getattr(owner, attr)
