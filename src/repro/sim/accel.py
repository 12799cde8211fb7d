"""Build and load the compiled engine core on demand.

The simulator ships a C implementation of the timer-wheel engine
(``_cengine.c``) next to this module. There is deliberately no build
step in packaging: the first import compiles it with the host C
compiler into ``_build/`` (cached by source hash, so edits rebuild and
stale artifacts are ignored) and loads it as an extension module. When
no compiler is available, the build fails, or the differential
self-test in :mod:`repro.sim.engine` rejects the result, the simulator
transparently runs on the reference heap engine instead — the compiled
core is an accelerator, never a dependency.

Set ``REPRO_ENGINE=py`` to skip the build entirely.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from types import ModuleType
from typing import List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_cengine.c")
_MODULE_NAME = "repro.sim._cengine"


def _cache_tag(source: bytes) -> str:
    """Key the built artifact by source + interpreter ABI."""
    h = hashlib.sha256()
    h.update(source)
    h.update(sys.version.encode())
    h.update((sysconfig.get_config_var("SOABI") or "").encode())
    return h.hexdigest()[:16]


def _compiler_argv() -> List[str]:
    cc = sysconfig.get_config_var("CC") or os.environ.get("CC") or "cc"
    # CC can be multi-word ("gcc -pthread"); keep the flags.
    return shlex.split(cc)


def _build_dirs() -> List[str]:
    """Candidate cache directories, most preferred first."""
    dirs = [os.path.join(_HERE, "_build")]
    # The package directory may be read-only (system install); fall back
    # to a per-user temp cache keyed by uid to avoid collisions.
    uid = getattr(os, "getuid", lambda: 0)()
    dirs.append(os.path.join(tempfile.gettempdir(),
                             f"repro-cengine-{uid}"))
    return dirs


def _compile(build_dir: str, tag: str) -> str:
    """Compile the extension into *build_dir*; returns the .so path.

    Concurrent builders (parallel pytest, the sweep runner's process
    pool) race benignly: each compiles to a private temp file and
    ``os.replace`` makes the final rename atomic.
    """
    os.makedirs(build_dir, exist_ok=True)
    so_path = os.path.join(build_dir, f"_cengine-{tag}.so")
    if os.path.exists(so_path):
        return so_path
    include = sysconfig.get_paths()["include"]
    fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=build_dir)
    os.close(fd)
    argv = _compiler_argv() + [
        "-O2", "-fPIC", "-shared", "-fno-strict-aliasing",
        f"-I{include}", _SOURCE, "-o", tmp_path,
    ]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-2000:]
            raise RuntimeError(
                f"cengine build failed ({' '.join(argv[:1])} exited "
                f"{proc.returncode}):\n{tail}")
        os.replace(tmp_path, so_path)
    finally:
        if os.path.exists(tmp_path):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
    return so_path


def build_cengine() -> str:
    """Compile the C engine core if needed; returns the shared object's path.

    Raises :class:`OSError` (no compiler, no writable cache directory) or
    :class:`RuntimeError` (a compile error) when the core cannot be built.
    """
    if not os.path.exists(_SOURCE):
        raise FileNotFoundError(_SOURCE)
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    tag = _cache_tag(source)
    last_err: Optional[BaseException] = None
    for build_dir in _build_dirs():
        try:
            return _compile(build_dir, tag)
        except (OSError, RuntimeError) as exc:
            last_err = exc
    assert last_err is not None
    raise last_err


def load_cengine() -> Optional[ModuleType]:
    """Compile (if needed) and import the C engine core.

    Returns the extension module, or raises on any failure — the caller
    (:mod:`repro.sim.engine`) then falls back to the reference heap.
    """
    so_path = build_cengine()
    loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, so_path)
    spec = importlib.util.spec_from_file_location(
        _MODULE_NAME, so_path, loader=loader)
    assert spec is not None
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[_MODULE_NAME] = module
    return module
