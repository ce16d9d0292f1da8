"""Start-up: each subcommand runs only the modules it uses, numpy is loaded
on first use, and dataclasses never.

pytest's own process has imported numpy and every wzdgraph module already,
so every test here starts a fresh interpreter with ``subprocess``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wzdgraph
from wzdgraph.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: which of ``modules`` have run: a lazy module sits in ``sys.modules`` from
#: the start, but is a plain module only once its code has run.  ``type``
#: reads no attribute, so it does not load a lazy module.
RAN = """
def ran(modules):
    import sys, types
    return sorted(m for m in modules if type(sys.modules.get(m)) is types.ModuleType)
"""

#: run ``cli.main`` on each argv, then print, as the last line, the loaded
#: modules of numpy (its submodules: the bare name may be the unloaded lazy
#: module) and of concurrent.futures, and the wzdgraph modules and json that
#: have run.  json is imported only after that is read.
RUN_AND_LIST_MODULES = RAN + """
import sys
from wzdgraph import cli
for argv in {argvs!r}:
    assert cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith(("numpy.", "concurrent.futures")))
ran = ran([m for m in sys.modules if m.startswith("wzdgraph.")] + ["json"])
import json
print(json.dumps([loaded, ran]))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def loaded_after(*argvs: list[str]) -> tuple[str, list[str], list[str]]:
    """stdout of the commands, the numpy and concurrent.futures modules they
    loaded, and the wzdgraph modules and json that ran."""
    proc = python("-c", RUN_AND_LIST_MODULES.format(argvs=list(argvs)))
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.splitlines(keepends=True)
    return "".join(out), *json.loads(modules)


@pytest.mark.parametrize("argv", [["spectrum", "100000000003"], ["table", "4..60"]])
def test_spectrum_and_table_never_load_numpy(argv):
    _, modules, _ = loaded_after(argv)
    assert modules == []


@pytest.mark.parametrize("argv", [["spectrum", "100000000003"], ["table", "4..60"]])
def test_spectrum_and_table_run_neither_graphcore_nor_oracle(argv):
    _, _, ran = loaded_after(argv)
    assert "wzdgraph.spectra" in ran
    assert not {"wzdgraph.graphcore", "wzdgraph.oracle", "json"} & set(ran)


GRAPH_FLAGS = [[], ["--format", "csv"], ["--format", "json"], ["--format", "dot"],
               ["--format", "json", "--classes"]]
GRAPH_IDS = ["text", "csv", "json", "dot", "json-classes"]


@pytest.mark.parametrize("flags", GRAPH_FLAGS, ids=GRAPH_IDS)
def test_graph_never_loads_numpy(flags):
    # the graph is written from its divisor classes, with no array
    _, modules, _ = loaded_after(["graph", "360", *flags])
    assert modules == []


@pytest.mark.parametrize("flags", GRAPH_FLAGS, ids=GRAPH_IDS)
def test_graph_never_runs_oracle(flags):
    _, _, ran = loaded_after(["graph", "360", *flags])
    assert "wzdgraph.graphcore" in ran
    assert "wzdgraph.oracle" not in ran
    assert ("json" in ran) == ("--classes" in flags)  # the export writes its own JSON


def test_verify_loads_numpy_on_first_use():
    _, modules, ran = loaded_after(["spectrum", "30"], ["verify", "12..12"])
    assert "numpy.linalg" in modules
    assert not any(m.startswith("concurrent.futures") for m in modules)
    assert {"wzdgraph.graphcore", "wzdgraph.oracle"} <= set(ran)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs for a pool")
def test_verify_jobs_matches_the_serial_run_and_leaves_numpy_to_the_workers(capsys):
    pooled, modules, ran = loaded_after(["verify", "4..40", "--jobs", "2"])
    assert not any(m.startswith("numpy.") for m in modules)
    assert "concurrent.futures" in modules
    # the parent runs oracle itself: each report it prints is unpickled from it
    assert "wzdgraph.oracle" in ran
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


def test_import_runs_each_module_at_the_first_read_of_one_of_its_names():
    code = RAN + (
        "names = ['wzdgraph.' + m for m in ('numtheory', 'spectra', 'graphcore', 'oracle')]\n"
        "import wzdgraph\n"
        "assert ran(names) == [], ran(names)\n"
        "assert wzdgraph.factorize(12).n == 12\n"
        "assert ran(names) == ['wzdgraph.numtheory'], ran(names)\n"
        "assert wzdgraph.Kind.EMPTY.value == 'empty'\n"
        "assert ran(names) == ['wzdgraph.numtheory', 'wzdgraph.spectra'], ran(names)\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    for name in wzdgraph.__all__:
        value = getattr(wzdgraph, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(wzdgraph.__all__) <= set(dir(wzdgraph))
    with pytest.raises(AttributeError, match="no attribute 'build'"):
        wzdgraph.build


def test_readme_library_example_runs_on_a_fresh_import():
    # the fenced block under "## Library": its names import from wzdgraph itself
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from wzdgraph import (" in block
    proc = python("-c", block)
    assert proc.returncode == 0, proc.stderr
