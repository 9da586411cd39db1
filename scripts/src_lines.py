#!/usr/bin/env python3
"""Count the lines of src/dynwatermark per module and per top-level
function or class.

    python scripts/src_lines.py              # the working tree
    python scripts/src_lines.py --since REV  # what changed since git revision REV

A function or class counts from its first decorator to its last line;
everything else in a module (imports, constants, comments and the blank
lines between definitions) counts as ``(module)``.  With ``--since``, only
the modules and rows whose count changed are printed, as ``old -> new
(delta)``, and a definition that is new or gone counts 0 on the other side.
"""
import argparse
import ast
import pathlib
import subprocess

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "src/dynwatermark"


def count(text: str) -> dict[str, int]:
    """Lines per top-level function or class of a module's source, in
    source order, then ``(module)`` for the rest."""
    out: dict[str, int] = {}
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            out[node.name] = out.get(node.name, 0) + node.end_lineno - start + 1
    out["(module)"] = len(text.splitlines()) - sum(out.values())
    return out


def working_tree() -> dict[str, dict[str, int]]:
    return {p.name: count(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def at_revision(rev: str) -> dict[str, dict[str, int]]:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout

    paths = git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {pathlib.PurePosixPath(p).name: count(git("show", f"{rev}:{p}"))
            for p in paths if p.endswith(".py")}


def show(modules: dict[str, dict[str, int]]) -> None:
    for name, rows in modules.items():
        print(f"{name:<28}{sum(rows.values()):>6}")
        for row, n in rows.items():
            print(f"  {row:<26}{n:>6}")
    print(f"{'total':<28}{sum(sum(r.values()) for r in modules.values()):>6}")


def show_delta(old: dict[str, dict[str, int]], new: dict[str, dict[str, int]]) -> None:
    def line(label: str, a: int, b: int) -> str:
        return f"{label:<28}{a:>6} -> {b:<6}({b - a:+d})"

    for name in sorted(old.keys() | new.keys()):
        before, after = old.get(name, {}), new.get(name, {})
        changed = [row for row in {**after, **before} if before.get(row, 0) != after.get(row, 0)]
        if changed:
            print(line(name, sum(before.values()), sum(after.values())))
            for row in changed:
                print(line(f"  {row}", before.get(row, 0), after.get(row, 0)))
    print(line("total", sum(sum(r.values()) for r in old.values()),
               sum(sum(r.values()) for r in new.values())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--since", metavar="REV",
                        help="print the change against this git revision")
    args = parser.parse_args(argv)
    if args.since:
        show_delta(at_revision(args.since), working_tree())
    else:
        show(working_tree())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
