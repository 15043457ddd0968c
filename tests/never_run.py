"""List the statements of ``src/qsu11/`` that no test and no verification
run executes.

Runs the tier-1 tests (``pytest``, in this process) and then the
``python -m qsu11`` configurations of the CI workflow (also in this
process, warnings as errors), all under a ``sys.settrace`` line tracer that looks
only at the package's own files, and prints each statement that none of
them ran, as ``file:line  function  text``.  The verification runs are
pinned to one process (``harness._workers``), so every suite runs under
the tracer here; a worker that a test forks sends its line events back
through a file as it leaves by ``os._exit``.  Standard library only (no
``coverage`` package).  It prints and exits 0 whatever it finds: a list,
not a gate.  Run from anywhere:

    python tests/never_run.py

Tracing slows the package's code down several times over: the tests take
minutes.  The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "qsu11")
FILES = frozenset(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                  if name.endswith(".py"))

#: The verification runs of the CI workflow, as ``python -m qsu11`` arguments.
RUNS = (
    [], ["--format", "both"], ["--format", "json"],
    ["--q", "0.41"], ["--q", "0.56"],
    ["--q", "0.3"], ["--q", "0.9"], ["--q", "0.95"], ["--q", "0.99"],
    ["--suite", "smoothing", "--tol-quad", "1e-6"],
    ["--suite", "smoothing", "--tol-quad", "1e-12"],
    ["--max-terms", "3"], ["--tol", "1e-300"],
)

#: (file, line) of every line event in the package.
SEEN: set[tuple[str, int]] = set()


def _child_seen_writer(folder: str):
    """An ``os._exit`` for forked workers: it first writes the line events
    the worker saw since the fork (``SEEN`` is cleared in the child) to a
    file named by its pid in ``folder``."""
    real_exit = os._exit

    def exit_reporting(code):
        with open(os.path.join(folder, str(os.getpid())), "w") as f:
            f.writelines(f"{file}\t{line}\n" for file, line in SEEN)
        real_exit(code)

    return exit_reporting


def _read_child_seen(folder: str) -> None:
    for name in os.listdir(folder):
        with open(os.path.join(folder, name)) as f:
            for row in f:
                file, line = row.rstrip("\n").split("\t")
                SEEN.add((file, int(line)))


def _trace_lines(frame, event, arg):
    if event == "line":
        SEEN.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    # Line events only in the package's frames: everything else runs untraced.
    return _trace_lines if frame.f_code.co_filename in FILES else None


def _code_lines(code) -> set[int]:
    """The lines that ``code`` and the code nested in it have instructions on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.Module):
    """(span of lines, enclosing function, node) of every statement but the
    docstrings; a compound statement spans its header (decorators included)."""
    def walk(node, where):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, child in enumerate(block):
                if not isinstance(child, ast.stmt):  # handlers, match cases
                    yield from walk(child, where)
                    continue
                if (i == 0 and field == "body"
                        and isinstance(node, (ast.Module, ast.ClassDef,
                                              ast.FunctionDef, ast.AsyncFunctionDef))
                        and isinstance(child, ast.Expr)
                        and isinstance(child.value, ast.Constant)
                        and isinstance(child.value.value, str)):
                    continue  # a docstring
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                inner = getattr(child, "body", None)
                last = inner[0].lineno - 1 if isinstance(inner, list) and inner \
                    else child.end_lineno
                yield range(first, max(first, last) + 1), where, child
                inner_where = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner_where = f"{where}.{child.name}" if where else child.name
                yield from walk(child, inner_where)

    yield from walk(tree, "")


def never_run() -> list[str]:
    """``file:line  function  text`` of each statement with instructions
    that no line event reached."""
    out = []
    for path in sorted(FILES):
        with open(path, encoding="utf-8") as f:
            source = f.read()
        text = source.splitlines()
        code_lines = _code_lines(compile(source, path, "exec"))
        seen = {line for file, line in SEEN if file == path}
        for span, where, node in _statements(ast.parse(source)):
            if code_lines.isdisjoint(span) or not seen.isdisjoint(span):
                continue
            out.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}  "
                       f"{where or '<module>'}  {text[node.lineno - 1].strip()}")
    return out


def _verify(args: list[str]) -> int:
    """Exit code of ``python -m qsu11 args``, run in this process."""
    argv = sys.argv
    sys.argv = ["qsu11", *args]
    try:
        runpy.run_module("qsu11", run_name="__main__")
    except SystemExit as stop:
        return stop.code
    finally:
        sys.argv = argv
    return 0


def main() -> int:
    sys.path.insert(0, SRC)
    # The tests' subprocesses import the package from the source tree too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    real_exit = os._exit
    child_seen = tempfile.mkdtemp(prefix="never_run_")
    os.register_at_fork(after_in_child=SEEN.clear)
    os._exit = _child_seen_writer(child_seen)
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        import pytest

        rc = pytest.main(["-q", "--continue-on-collection-errors",
                          "-W", "error::RuntimeWarning", "-p", "no:cacheprovider"])
        print(f"tier-1 tests: pytest exit code {int(rc)}")
        from qsu11 import harness

        harness._workers = lambda: 1  # every suite in this process
        with tempfile.TemporaryDirectory() as out:
            for i, args in enumerate(RUNS):
                with warnings.catch_warnings(), \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    warnings.simplefilter("error")
                    rc = _verify([*args, "--out", os.path.join(out, str(i))])
                print(f"python -m qsu11 {' '.join(args) or '(default)'}: exit code {rc}")
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = real_exit
        _read_child_seen(child_seen)
        shutil.rmtree(child_seen)
    lines = never_run()
    print(f"{len(lines)} statements of src/qsu11/ that no test and no "
          f"verification run executes:")
    for line in lines:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
