"""Size report: lines per `src/posstab` module and the public parameter count.

    python tools/api_size.py [--src DIR]

Lines are the physical lines of each `posstab/*.py` file.  The parameter
count sums len(inspect.signature(f).parameters) over the public functions
that `posstab` exports; the constructors of its public classes are
counted on a line of their own, and classes without a Python signature
(the exception types) are skipped.  The last line counts the options
(flags other than --help) of each subcommand of `posstab.cli.build_parser()`.
`--src` picks the source tree (default: this repository's `src`), so two
checkouts can be compared.
"""

import argparse
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parameters(objs):
    """(parameter total, object count) over the objs that have a signature."""
    total = count = 0
    for obj in objs:
        try:
            total += len(inspect.signature(obj).parameters)
        except ValueError:  # builtin-derived classes such as the exceptions
            continue
        count += 1
    return total, count


def _cli_options(parser):
    """{subcommand: number of its flags other than --help}."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction) for a in p._actions)
        for name, p in sub.choices.items()
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    args = p.parse_args(argv)
    src = Path(args.src).resolve()
    files = sorted((src / "posstab").glob("*.py"))
    lines = {f.name: len(f.read_text().splitlines()) for f in files}
    for name, count in lines.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(lines.values()):6d}  total")
    sys.path.insert(0, str(src))
    import posstab

    public = [getattr(posstab, n) for n in dir(posstab) if not n.startswith("_")]
    params, funcs = _parameters(o for o in public if inspect.isfunction(o))
    print(f"public function parameters: {params} ({funcs} functions)")
    params, classes = _parameters(o for o in public if inspect.isclass(o))
    print(f"public class constructor parameters: {params} ({classes} classes)")
    from posstab.cli import build_parser

    options = _cli_options(build_parser())
    print("cli options: " + ", ".join(f"{name} {count}" for name, count in sorted(options.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
