"""Opt-in line coverage of ``src/superelliptic`` for a pytest run.

``coverage`` is not a dependency, so this plugin traces with
``sys.settrace``.  Load it explicitly:

    PYTHONPATH=src:tests python -m pytest -p coverage_plugin

A plain ``pytest`` run neither collects nor loads it.  Tracing starts when
the plugin is imported, before the package is, so lines that run at module
level count.  At the end of the run it prints, for each module, the number
of executable lines and the lines that never ran.  Tracing makes the suite
several times slower.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "superelliptic")

_hits: dict[str, set[int]] = {}
_paths: dict[str, str | None] = {}


def _module_path(filename: str) -> str | None:
    """The absolute path of a traced file under ``SRC``, else None."""
    if filename not in _paths:
        path = os.path.abspath(filename)
        _paths[filename] = path if os.path.dirname(path) == SRC else None
    return _paths[filename]


def _trace(frame, event, arg):
    path = _module_path(frame.f_code.co_filename)
    if path is None:
        return None
    lines = _hits.setdefault(path, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _executable(path: str) -> set[int]:
    """Every line that starts an instruction in the module's code objects."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    out: set[int] = set()
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    write = terminalreporter.write_line
    terminalreporter.section("line coverage of src/superelliptic")
    total = missed_total = 0
    for name in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        path = os.path.join(SRC, name)
        lines = _executable(path)
        missed = sorted(lines - _hits.get(path, set()))
        total += len(lines)
        missed_total += len(missed)
        write(f"{name}: {len(lines)} executable, {len(missed)} missed: {_ranges(missed)}")
    write(f"total: {total} executable, {missed_total} missed")


sys.settrace(_trace)
