"""Start-up: numpy is loaded on first use, and dataclasses never.

pytest's own process has imported numpy already, so every test here starts a
fresh interpreter with ``subprocess``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wzdgraph.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: run ``cli.main`` on each argv, then print, as the last line, the loaded
#: modules of numpy (its submodules: the bare name may be the unloaded lazy
#: module) and of concurrent.futures
RUN_AND_LIST_MODULES = """
import json, sys
from wzdgraph import cli
for argv in {argvs!r}:
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("numpy.", "concurrent.futures")))))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def loaded_after(*argvs: list[str]) -> tuple[str, list[str]]:
    proc = python("-c", RUN_AND_LIST_MODULES.format(argvs=list(argvs)))
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.splitlines(keepends=True)
    return "".join(out), json.loads(modules)


@pytest.mark.parametrize("argv", [["spectrum", "100000000003"], ["table", "4..60"]])
def test_spectrum_and_table_never_load_numpy(argv):
    _, modules = loaded_after(argv)
    assert modules == []


@pytest.mark.parametrize(
    "flags",
    [[], ["--format", "csv"], ["--format", "json"], ["--format", "dot"],
     ["--format", "json", "--classes"]],
    ids=["text", "csv", "json", "dot", "json-classes"],
)
def test_graph_never_loads_numpy(flags):
    # the graph is written from its divisor classes, with no array
    _, modules = loaded_after(["graph", "360", *flags])
    assert modules == []


def test_verify_loads_numpy_on_first_use():
    _, modules = loaded_after(["spectrum", "30"], ["verify", "12..12"])
    assert "numpy.linalg" in modules
    assert not any(m.startswith("concurrent.futures") for m in modules)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs for a pool")
def test_verify_jobs_matches_the_serial_run_and_leaves_numpy_to_the_workers(capsys):
    pooled, modules = loaded_after(["verify", "4..40", "--jobs", "2"])
    assert not any(m.startswith("numpy.") for m in modules)
    assert "concurrent.futures" in modules
    assert main(["verify", "4..40"]) == 0
    assert pooled == capsys.readouterr().out


def test_import_loads_no_dataclasses_or_inspect():
    # site may preload some of these: only what the import adds counts
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import wzdgraph.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "wzdgraph.cli" in added
    assert not {"dataclasses", "inspect", "ast", "dis"} & set(added)


def test_parser_is_built_on_first_use():
    code = ("from wzdgraph import cli\n"
            "assert cli._parser.cache_info().currsize == 0\n"
            "assert cli.main(['spectrum', '30']) == 0\n"
            "assert cli._parser.cache_info().currsize == 1\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_lazy_binding_is_numpy_itself():
    code = ("import sys, wzdgraph._numpy as lazy, numpy\n"
            "assert lazy.np is numpy is sys.modules['numpy']\n"
            "assert lazy.np.arange(3).sum() == 3\n")
    assert python("-c", code).returncode == 0
    # numpy imported first: the binding is that module, not a second one
    code = "import numpy, wzdgraph._numpy as lazy\nassert lazy.np is numpy\n"
    assert python("-c", code).returncode == 0


def test_import_without_numpy_names_numpy():
    # -S drops site-packages, -I ignores PYTHONPATH: numpy cannot be found
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
            "try:\n    import wzdgraph\n"
            "except ModuleNotFoundError as exc:\n    print(exc.name, exc, sep='|')\n")
    proc = subprocess.run([sys.executable, "-S", "-I", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout == "numpy|No module named 'numpy'\n"
