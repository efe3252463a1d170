"""Build, cache and load the project's compiled C functions.

Two hot loops run as native code: the DRAM scheduler's segment loop
(:mod:`repro.dram._kernelc`) and the campaign channel's sparse sampler
(:mod:`repro.channel._samplerc`).  Both are a C source string in a
Python module and both go through :class:`NativeFunction`, so there is
one build path:

* the object is compiled from one translation unit with the system C
  compiler (``cc`` or ``gcc``) at first use, never at import time;
* it is cached under ``$TMPDIR/repro-kernelc-<uid>/`` (override with
  ``REPRO_KERNELC_CACHE``), named by a hash of its source, of the
  static archives it links and of any extra key strings, so a changed
  input can never load a stale object;
* a cached object is loaded only from a directory and file owned by the
  current user that nobody else can write, and never through a
  symlink; otherwise the object is built afresh in a private temporary
  directory, which is removed once the object is mapped;
* it is loaded through the standard library's ``ctypes``, so no
  third-party build tool is needed.

Without a compiler, or without a static archive the object links,
:meth:`NativeFunction.load` quietly returns ``None`` and the caller
runs its Python path.  A compiler that exists but fails the build warns
once, naming the shared-object path and the compiler's last stderr
lines.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import warnings
from shutil import which
from typing import Any, Callable, Optional, Sequence, Tuple

#: Compiler stderr lines quoted by the failed-build warning.
_STDERR_TAIL_LINES = 8


class NativeFunction:
    """One C function, compiled from a source string on first use.

    Args:
        stem: file-name prefix of the shared object (``kernel``).
        source: the C translation unit.
        symbol: the exported function to load.
        restype: its ``ctypes`` return type.
        argtypes: its ``ctypes`` argument types.
        what: how warnings name the object ("native scheduling kernel").
        fallback: what runs without it, for the warning.
        archives: static libraries linked after the source; each must
            exist, else :meth:`load` returns ``None`` without building.
        key: extra strings that select the object, such as the version
            of the package an archive comes from.
    """

    def __init__(self, stem: str, source: str, symbol: str, restype: Any,
                 argtypes: Sequence[Any], what: str, fallback: str,
                 archives: Tuple[str, ...] = (),
                 key: Tuple[str, ...] = ()) -> None:
        self.stem = stem
        self.source = source
        self.symbol = symbol
        self.restype = restype
        self.argtypes = list(argtypes)
        self.what = what
        self.fallback = fallback
        self.archives = archives
        self.key = key
        self._function: Optional[Callable[..., Any]] = None
        self._attempted = False

    def so_name(self) -> str:
        """Shared-object file name: a hash of every build input."""
        digest = hashlib.sha256(self.source.encode("utf-8"))
        for part in self.archives + self.key:
            digest.update(b"\0" + part.encode("utf-8"))
        return f"{self.stem}-{digest.hexdigest()[:20]}.so"

    def cache_path(self) -> str:
        """Shared-object path in the per-user cache directory."""
        uid = os.getuid() if hasattr(os, "getuid") else 0
        root = os.environ.get("REPRO_KERNELC_CACHE") or os.path.join(
            tempfile.gettempdir(), f"repro-kernelc-{uid}")
        return os.path.join(root, self.so_name())

    def load(self) -> Optional[Callable[..., Any]]:
        """Return the compiled function, or ``None``.

        Builds the shared object on first use.  The result is kept for
        the process; a failed attempt is not retried.
        """
        if self._attempted:
            return self._function
        self._attempted = True
        if not all(os.path.isfile(archive) for archive in self.archives):
            return None
        so_path = _trusted_cache_path(self.cache_path())
        private_dir = None
        if so_path is None:
            try:
                private_dir = tempfile.mkdtemp(prefix="repro-kernelc-")
            except OSError as exc:
                self._warn_build_failed(self.cache_path(), str(exc))
                return None
            so_path = os.path.join(private_dir, self.so_name())
        try:
            if not os.path.exists(so_path) and not _compile(self, so_path):
                return None
            try:
                function = getattr(ctypes.CDLL(so_path), self.symbol)
            except (OSError, AttributeError) as exc:
                self._warn_build_failed(so_path, str(exc))
                return None
        finally:
            if private_dir is not None:
                # The mapped object outlives its file; nothing is left behind.
                shutil.rmtree(private_dir, ignore_errors=True)
        function.restype = self.restype
        function.argtypes = self.argtypes
        self._function = function
        return function

    def available(self) -> bool:
        """Whether the compiled function can be used in this process."""
        return self.load() is not None

    def _warn_build_failed(self, so_path: str, detail: str) -> None:
        """The one loud signal that the native path is off."""
        warnings.warn(
            f"{self.what} {so_path} could not be built; "
            f"using {self.fallback}: {detail}",
            RuntimeWarning, stacklevel=2)


def _is_private(path: str, is_dir: bool) -> bool:
    """Whether ``path`` is a real directory / regular file (not a
    symlink) owned by the current user and writable by no one else."""
    if not hasattr(os, "getuid"):
        return False
    try:
        st = os.lstat(path)
    except OSError:
        return False
    is_kind = stat.S_ISDIR if is_dir else stat.S_ISREG
    return (is_kind(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _trusted_cache_path(so_path: str) -> Optional[str]:
    """``so_path`` if its cache directory can be trusted, else ``None``.

    The cache directory is created ``0o700``.  A directory or object
    that another user owns or could have written is never loaded.
    """
    directory = os.path.dirname(so_path)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
    except OSError:
        return None
    if not _is_private(directory, is_dir=True):
        return None
    if os.path.lexists(so_path) and not _is_private(so_path, is_dir=False):
        return None
    return so_path


def _compile(native: NativeFunction, so_path: str) -> bool:
    """Compile ``native.source`` to ``so_path``; ``False`` on any failure.

    No compiler is a quiet ``False``; a compiler that fails warns.
    """
    compiler = which("cc") or which("gcc")
    if compiler is None:
        return False
    c_path = so_path + f".{os.getpid()}.c"
    tmp_so = so_path + f".{os.getpid()}.tmp"
    try:
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(native.source)
        proc = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path,
             *native.archives, "-lm"],
            capture_output=True)
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            tail = "\n".join(stderr.splitlines()[-_STDERR_TAIL_LINES:])
            native._warn_build_failed(
                so_path, f"{compiler} exited {proc.returncode}\n{tail}")
            return False
        os.replace(tmp_so, so_path)  # atomic vs concurrent builders
        return True
    except OSError as exc:
        native._warn_build_failed(so_path, str(exc))
        return False
    finally:
        for leftover in (c_path, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
