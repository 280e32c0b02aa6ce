"""The source-mutation tool's list of equivalent mutants against the code.

``tools/mutate_src.py`` reports a surviving mutant apart when its
``EQUIVALENT`` table names it, by module and mutated line.  An entry whose
line was edited or deleted would silently name nothing, and one that
matched two sites would excuse a real survivor: every entry must name
exactly one mutant that the tool yields today.
"""

import importlib.util
from collections import Counter
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate_src.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutate_src", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_equivalent_mutant_is_one_site_of_the_tool():
    tool = _load_tool()
    keys = Counter(m.key() for path in tool.SOURCES for m in tool.mutants(path))
    assert tool.EQUIVALENT
    for key, reason in tool.EQUIVALENT.items():
        assert keys[key] == 1, key
        assert reason.strip(), key
