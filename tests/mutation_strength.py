"""Mutation strength of the tier-1 tests over chosen modules, stdlib only.

Run from the repository root:

    python tests/mutation_strength.py [--seed N] [--count K] [module.py ...]

It lists every mutation site of the named modules of src/ivp/ (default:
all of them): a comparison flipped at its boundary (< and <=, > and >=,
== and !=, is and is not, in and not in), an integer literal moved by
one, or a `not` dropped.  It draws K sites with the seed, writes each
mutant into a temporary copy of src/ and tests/ (never into the
checkout), and runs tier-1 there with -x.  A mutant that fails a test,
runs past the timeout or passes the memory limit is killed; the others
survive and are printed.  Before any mutant it checks that the copy
with the named modules unparsed but unmutated passes, since the
mutants are unparsed too.  The file name keeps pytest from collecting it.
"""

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ivp"

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
TIMEOUT_S = 300                 # per tier-1 run
MEMORY_BYTES = 2048 * 2 ** 20   # address-space limit of each tier-1 run


def sites(tree: ast.AST) -> list[tuple[int, int, str]]:
    """(index of the node in ast.walk order, operand index or delta, kind)
    for every mutation of the tree."""
    out = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            out.extend((index, i, "flip") for i, op in enumerate(node.ops)
                       if type(op) in FLIPS)
        elif (isinstance(node, ast.Constant) and type(node.value) is int):
            out.extend((index, delta, "shift") for delta in (1, -1))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((index, 0, "not"))
    return out


class _Mutate(ast.NodeTransformer):
    def __init__(self, target: ast.AST, detail: int, kind: str):
        self.target, self.detail, self.kind = target, detail, kind
        self.description = ""

    def visit(self, node):
        if node is not self.target:
            return self.generic_visit(node)
        before = ast.unparse(node)
        if self.kind == "flip":
            node.ops[self.detail] = FLIPS[type(node.ops[self.detail])]()
        elif self.kind == "shift":
            node = ast.Constant(node.value + self.detail)
        else:
            node = node.operand
        self.description = (f"line {self.target.lineno}: {before} -> "
                            f"{ast.unparse(node)}")
        return ast.copy_location(node, self.target)


def mutant(source: str, site: tuple[int, int, str]) -> tuple[str, str]:
    """The mutated module's text and a one-line description."""
    tree = ast.parse(source)
    index, detail, kind = site
    target = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    mutate = _Mutate(target, detail, kind)
    tree = ast.fix_missing_locations(mutate.visit(tree))
    line = source.splitlines()[target.lineno - 1].strip()
    return ast.unparse(tree), f"{mutate.description} in `{line}`"


def run_tier1(copy: Path) -> str:
    """'passed', 'failed' or 'timeout' for tier-1 with -x in the copy."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))

    # no bytecode cache: a mutant of the same size written within the
    # same second as the last one would load the last one's cache
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S,
            preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*",
                        default=sorted(p.name for p in PACKAGE.glob("*.py")))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--count", type=int, default=12)
    args = parser.parse_args(argv)

    sources = {name: (PACKAGE / name).read_text() for name in args.modules}
    pool = [(name, site) for name in args.modules
            for site in sites(ast.parse(sources[name]))]
    sample = random.Random(args.seed).sample(pool, min(args.count, len(pool)))
    with tempfile.TemporaryDirectory(prefix="ivp-mutants-") as scratch:
        copy = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, copy / part)
        target = copy / "src" / "ivp"
        unparsed = {name: ast.unparse(ast.parse(source))
                    for name, source in sources.items()}
        for name, text in unparsed.items():
            (target / name).write_text(text)
        baseline = run_tier1(copy)
        print(f"unmutated copy of {', '.join(args.modules)}: {baseline}")
        if baseline != "passed":
            return 1
        survivors = []
        for name, site in sample:
            text, description = mutant(sources[name], site)
            (target / name).write_text(text)
            outcome = run_tier1(copy)
            (target / name).write_text(unparsed[name])
            print(f"{name} {description}: "
                  f"{'survived' if outcome == 'passed' else 'killed'}"
                  f" ({outcome})", flush=True)
            if outcome == "passed":
                survivors.append(f"{name} {description}")
    print(f"killed {len(sample) - len(survivors)} of {len(sample)}")
    for line in survivors:
        print(f"survivor: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
