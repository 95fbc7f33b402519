"""The import graph follows the command.

Package ``__init__`` modules export their names lazily (PEP 562) and
each CLI handler imports its own subsystem, so a process loads only
what its command uses.  These tests pin that in fresh interpreters by
inspecting ``sys.modules``; they measure no timings.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Subsystems and heavy stdlib modules the default ``repro qos`` must
#: not load.
QOS_UNUSED = (
    "repro.fpga",
    "repro.isa.instructions",
    "repro.service.daemon",
    "repro.dist",
    "repro.store",
    "concurrent.futures.process",
    "importlib.metadata",
)

#: What a serve client verb must not load: the numeric stack and the
#: engine.  The parser's numpy-free defaults (``repro.core.defaults``,
#: through the lazy ``repro.core`` package) are the one exception.
ENGINE = ("numpy", "repro.api", "repro.core")
PARSER_DEFAULTS = {"repro.core", "repro.core.defaults"}


def loaded_modules(code: str, tmp_path, **env) -> set:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    script = tmp_path / "probe.py"
    script.write_text(
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def packages() -> list:
    """Every package under ``repro``, the top level included."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


class TestColdImports:
    def test_import_repro_loads_no_subpackage(self, tmp_path):
        modules = loaded_modules("import repro", tmp_path)
        subpackages = set(packages()) - {"repro"}
        assert not modules & subpackages
        assert "numpy" not in modules

    def test_build_parser_loads_no_numpy(self, tmp_path):
        modules = loaded_modules(
            "from repro import cli\ncli.build_parser()", tmp_path
        )
        assert "numpy" not in modules

    def test_default_qos_loads_only_what_it_uses(self, tmp_path):
        modules = loaded_modules(
            "from repro import cli\n"
            "assert cli.main(['qos', '--slices', '2']) == 0",
            tmp_path,
            REPRO_LUT_CACHE=str(tmp_path / "lut-cache"),
        )
        assert "repro.api.engine" in modules  # the probe really ran
        assert sorted(set(QOS_UNUSED) & modules) == []


class TestClientImports:
    """``repro submit``/``status``/``shutdown`` are thin wire clients."""

    @pytest.mark.parametrize("verb", ["submit", "status", "shutdown"])
    def test_client_verb_loads_no_engine(self, tmp_path, verb):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = str(probe.getsockname()[1])
        modules = loaded_modules(
            "from repro import cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = cli.main([{verb!r}, '--port', {port!r}])\n"
            "assert code == 2, code\n"
            "assert 'is repro serve running?' in err.getvalue(), err.getvalue()",
            tmp_path,
        )
        assert "repro.service.client" in modules  # the probe really ran
        engine = sorted(
            name for name in modules - PARSER_DEFAULTS
            if any(name == top or name.startswith(top + ".")
                   for top in ENGINE)
        )
        assert engine == []


class TestLazyExports:
    @pytest.mark.parametrize("name", packages())
    def test_all_names_resolve_and_are_listed(self, name):
        package = __import__(name, fromlist=["__all__"])
        listing = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None
            assert export in listing

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="NoSuchName"):
            repro.NoSuchName  # noqa: B018 - the access is the test

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["Engine"] is repro.api.engine.Engine
