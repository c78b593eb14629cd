"""Which function definitions of `src/homhopf` the CLI never runs.

    python tests/reachability.py

runs every `REPORT_RUNS` sample of `record_golden.py` through
`homhopf.cli.main` under a profile hook that records every Python function
call.  Each sample runs once, with text output: the output format selects
only a branch inside `cli.emit_report`, so JSON output runs the same
definitions.  It then lists each `def` in `src/homhopf` whose code never
ran, as `file:first-last name`, and ends with one summary line: how many
of the definitions never ran and how many source lines they cover.  A
nested definition is listed on its own as well; its lines are counted
once.  `unreached()` returns the same list, and `test_reachability.py`
requires it to be a written keep-list.  Uses only the standard library.
"""

import ast
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homhopf"


def report_runs():
    """REPORT_RUNS read from record_golden.py without importing it."""
    tree = ast.parse((ROOT / "tests" / "record_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REPORT_RUNS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("REPORT_RUNS not found in tests/record_golden.py")


def definitions():
    """(path, first line, last line, qualified name) of every def in the
    package; the first line is that of the first decorator, as in
    code.co_firstlineno."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((path, first, child.end_lineno, name))
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = prefix + child.name + "."
            walk(child, path, name)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "")
    return out


def run_samples():
    """Run every REPORT_RUNS sample through cli.main under a profile
    hook.  Returns the (file, first line) of every code object that ran,
    the file as a resolved path, and one exit line per run."""
    sys.path.insert(0, str(ROOT / "src"))
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        from homhopf import cli

        statuses = []
        for sample, command in report_runs():
            argv = [command, "--input", str(ROOT / "sample_inputs" / (sample + ".json"))]
            with redirect_stdout(io.TextIOWrapper(io.BytesIO())):
                statuses.append("%s %s: exit %d" % (sample, command, cli.main(argv)))
    finally:
        sys.setprofile(None)
    resolved = {f: str(Path(f).resolve()) for f, _ in called}
    return {(resolved[f], line) for f, line in called}, statuses


def unreached(called=None):
    """The definitions (path, first line, last line, qualified name) whose
    code is not in `called`, by default what `run_samples` records."""
    if called is None:
        called, _ = run_samples()
    return [d for d in definitions() if (d[0], d[1]) not in called]


def main():
    called, statuses = run_samples()
    defs = definitions()
    dead = unreached(called)
    lines = set()
    for path, first, last, name in dead:
        lines.update((path, n) for n in range(first, last + 1))
        rel = Path(path).relative_to(ROOT).as_posix()
        print("%s:%d-%d %s" % (rel, first, last, name))
    print("\n".join(statuses), file=sys.stderr)
    print("%d of %d function definitions in src/homhopf never ran (%d lines)"
          % (len(dead), len(defs), len(lines)))


if __name__ == "__main__":
    main()
