"""What a fresh process loads before it does any work.

Package ``__init__`` modules re-export lazily, and numpy, asyncio,
``http.client``, the process pool and the simulator load at the first
call that needs them. Each check runs in a new interpreter, since this
test process has long since imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro
import repro.api as api
from repro.sim.config import SystemConfig
from repro.trackers.registry import available_trackers

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Nothing ``import repro.api`` needs: numpy, the service's I/O stack,
#: the process pool, the simulator, the trackers and the engines.
NOT_ON_IMPORT = (
    "numpy",
    "asyncio",
    "ssl",
    "http.client",
    "concurrent.futures.process",
    "multiprocessing",
    "repro.sim.simulator",
    "repro.workloads.trace",
    "repro.core.hydra",
    "repro.trackers.graphene",
    "repro.memctrl.controller",
    "repro.memctrl.queued",
)

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; it prints one JSON value last."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(statement: str, names=NOT_ON_IMPORT):
    return _fresh(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))"
    )


def test_import_api_loads_no_heavy_layer():
    assert _loaded_after("import repro.api") == []


def test_import_package_loads_no_heavy_layer():
    assert _loaded_after("import repro, repro.sim, repro.service") == []


def test_service_client_loads_no_simulator():
    loaded = _loaded_after(
        "import repro.service.client",
        ("numpy", "repro.sim.simulator", "repro.service.broker"),
    )
    assert loaded == []


def test_cli_help_and_list_trackers_load_no_numpy():
    for argv in (["--help"], ["list-trackers"]):
        statement = (
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass"
        )
        assert _loaded_after(statement, ("numpy",)) == [], argv


def test_run_after_lean_import_is_unchanged():
    """The lazy layers still produce the same payload once loaded."""
    payload = _fresh(
        "import json, sys\n"
        "import repro.api as api\n"
        "from repro.sim.config import SystemConfig\n"
        "assert 'repro.sim.simulator' not in sys.modules\n"
        "result = api.run('hydra', 'GUPS', "
        "SystemConfig(scale=1 / 256, n_windows=1))\n"
        "print(json.dumps(result.to_dict(), sort_keys=True))"
    )
    expected = api.run("hydra", "GUPS", CONFIG).to_dict()
    assert payload == json.loads(json.dumps(expected, sort_keys=True))


def test_registry_names_every_tracker_on_its_own():
    """A fresh ``available_trackers()`` sees every registering module,
    not just those some earlier import happened to load."""
    for package in ("repro.trackers", "repro.core"):
        path = importlib.import_module(package).__path__
        for module in pkgutil.iter_modules(path):
            importlib.import_module(f"{package}.{module.name}")
    fresh = _fresh(
        "import json\n"
        "from repro.trackers.registry import available_trackers\n"
        "print(json.dumps(available_trackers()))"
    )
    assert fresh == available_trackers()
    assert len(fresh) == 19
