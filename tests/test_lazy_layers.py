"""Each layer runs on first use: importing the package or the command line
runs none of them, and a subcommand runs only those it needs.

A layer that has not run is still LazyLoader's module subclass in
sys.modules, so `type(module) is types.ModuleType` tells whether it ran
without loading it.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ivp

SRC = str(Path(ivp.__file__).parent.parent)
LAYERS = ("errors", "config", "exact", "padic", "polys", "membership",
          "adelic", "overrings", "dsl")
BASE = {"config", "errors", "exact", "padic", "dsl"}

# print the layers that ran, after the command given as arguments
PROBE = f"""
import sys, types
import ivp.cli
if sys.argv[1:]:
    ivp.cli.main(sys.argv[1:])
print(*(name for name in {LAYERS!r}
        if type(sys.modules["ivp." + name]) is types.ModuleType))
"""


def layers_run(*argv) -> set[str]:
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    return set(out.splitlines()[-1].split())


def test_importing_the_command_line_runs_no_layer():
    assert layers_run() == set()


COMMANDS = [
    (("member", "--set", "ball(2; 5, 3)", "--x", "13"), set()),
    (("closure", "--set", "seq(2; 0, 1, 0, -lim)"), set()),
    (("isolated", "--set", "seq(2; 0, 1, 0, +lim)"), set()),
    (("roots", "--poly", "X^2 - 17", "--set", "full(2)"), {"polys"}),
    (("maxval", "--poly", "X^2 + 1", "--set", "full(5)"), {"polys"}),
    (("intval", "--poly", "(X^2 - X)/2", "--set", "full(2)"),
     {"polys", "membership"}),
    (("separate", "--set", "seq(2; 0, 1, 0, -lim)", "--alpha", "3"),
     {"polys", "membership"}),
    (("witness", "--poly", "X^2 + 1", "--family", "2: full(2)"),
     {"polys", "membership"}),
    (("adele-diff", "--intset", "Z \\ (65 mod 72)"), {"adelic"}),
    (("adele-hat", "--intset", "Z \\ (65 mod 72)", "--candidate",
      "2: 65, 3: 65"), {"adelic"}),
    (("simple", "--ring", '{"default": "units+p"}'), set(LAYERS) - BASE),
    (("globalize", "--family", "2: full(2)"), set(LAYERS) - BASE),
]


@pytest.mark.parametrize("argv, extra", COMMANDS,
                         ids=[argv[0] for argv, _ in COMMANDS])
def test_a_subcommand_runs_only_the_layers_it_needs(argv, extra):
    assert layers_run(*argv) == BASE | extra


def test_the_command_line_module_runs_without_a_warning():
    # ivp.cli is not registered ahead of use, so runpy does not warn that
    # it is already imported
    proc = subprocess.run(
        [sys.executable, "-m", "ivp.cli", "member", "--set", "full(2)",
         "--x", "3"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "yes\n", "")


def test_every_public_name_is_its_home_layers_object():
    assert set(ivp.__all__) <= set(dir(ivp))
    for name in ivp.__all__:
        value = getattr(ivp, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"ivp.{name}"]
            continue
        home = getattr(value, "__module__", None) or type(value).__module__
        assert getattr(sys.modules[home], name) is value, name
