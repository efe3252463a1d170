"""The shared native build path of :mod:`repro._native`.

Both compiled objects, the DRAM scheduling kernel and the campaign
channel sampler, are built, cached and loaded by one helper, so the
cache-trust rules are checked on both: a cached object another user
could have written (foreign owner, group or world write, a symlink) is
never loaded, and an own private cache is built once and reused.  The
sampler's object name must change with each of its link inputs, so an
object cached before a NumPy upgrade is never loaded after it.
"""

import os
import subprocess

import numpy as np
import pytest

from repro import _native
from repro.channel import _samplerc
from repro.dram import _kernelc

OBJECTS = {"kernel": _kernelc.KERNEL, "sampler": _samplerc.SAMPLER}


def _has_compiler():
    return _native.which("cc") is not None or _native.which("gcc") is not None


class TestCacheTrust:
    """A cached object another user could have written is never loaded."""

    @pytest.fixture(params=sorted(OBJECTS))
    def fresh_load(self, request, tmp_path, monkeypatch):
        """One object, its cache at ``tmp_path/cache``, every load recorded."""
        native = OBJECTS[request.param]
        if not _has_compiler():
            pytest.skip("no C compiler")
        if not all(os.path.isfile(archive) for archive in native.archives):
            pytest.skip("a linked archive is missing")
        cache = tmp_path / "cache"
        private_root = tmp_path / "private"
        private_root.mkdir()
        monkeypatch.setenv("REPRO_KERNELC_CACHE", str(cache))
        monkeypatch.setattr(_native.tempfile, "tempdir", str(private_root))
        monkeypatch.setattr(native, "_function", None)
        monkeypatch.setattr(native, "_attempted", False)
        loaded_paths = []
        real_cdll = _native.ctypes.CDLL

        def recording_cdll(path, *args, **kwargs):
            loaded_paths.append(str(path))
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(_native.ctypes, "CDLL", recording_cdll)
        return native, cache, private_root, loaded_paths

    def _plant(self, native, cache):
        cache.mkdir(mode=0o700, exist_ok=True)
        planted = cache / native.so_name()
        planted.write_bytes(b"not a shared object")
        return planted

    def _assert_built_privately(self, native, planted, private_root,
                                loaded_paths):
        assert native.load() is not None
        assert str(planted) not in loaded_paths
        assert len(loaded_paths) == 1
        assert loaded_paths[0].startswith(str(private_root))
        assert planted.read_bytes() == b"not a shared object"
        assert list(private_root.iterdir()) == []  # private build removed

    def test_foreign_owned_cache_dir_not_loaded(self, fresh_load,
                                                monkeypatch):
        native, cache, private_root, loaded_paths = fresh_load
        planted = self._plant(native, cache)
        real_uid = _native.os.getuid()
        monkeypatch.setattr(_native.os, "getuid", lambda: real_uid + 1)
        self._assert_built_privately(native, planted, private_root,
                                     loaded_paths)

    def test_group_writable_object_not_loaded(self, fresh_load):
        native, cache, private_root, loaded_paths = fresh_load
        planted = self._plant(native, cache)
        planted.chmod(0o664)
        self._assert_built_privately(native, planted, private_root,
                                     loaded_paths)

    def test_world_writable_cache_dir_not_loaded(self, fresh_load):
        native, cache, private_root, loaded_paths = fresh_load
        planted = self._plant(native, cache)
        cache.chmod(0o777)
        self._assert_built_privately(native, planted, private_root,
                                     loaded_paths)

    def test_symlinked_object_not_loaded(self, fresh_load, tmp_path):
        native, cache, private_root, loaded_paths = fresh_load
        cache.mkdir(mode=0o700)
        target = tmp_path / "elsewhere.so"
        target.write_bytes(b"not a shared object")
        link = cache / native.so_name()
        link.symlink_to(target)
        assert native.load() is not None
        assert str(link) not in loaded_paths
        assert loaded_paths[0].startswith(str(private_root))

    def test_own_private_cache_is_built_and_reused(self, fresh_load,
                                                   monkeypatch):
        native, cache, private_root, loaded_paths = fresh_load
        assert native.load() is not None
        so_path = cache / native.so_name()
        assert loaded_paths == [str(so_path)]
        assert cache.stat().st_mode & 0o077 == 0
        monkeypatch.setattr(native, "_function", None)
        monkeypatch.setattr(native, "_attempted", False)
        monkeypatch.setattr(_native, "_compile", lambda *args: pytest.fail(
            "a trusted cached object must be reused, not rebuilt"))
        assert native.load() is not None
        assert loaded_paths == [str(so_path)] * 2


class TestObjectNames:
    """An object's file name hashes every input of its build."""

    ARCHIVE = "/opt/numpy/random/lib/libnpyrandom.a"

    def test_sampler_name_follows_the_numpy_version(self):
        old = _samplerc.sampler_function("2.4.6", self.ARCHIVE)
        new = _samplerc.sampler_function("2.4.7", self.ARCHIVE)
        assert old.so_name() != new.so_name()

    def test_sampler_name_follows_the_archive_path(self):
        here = _samplerc.sampler_function("2.4.6", self.ARCHIVE)
        there = _samplerc.sampler_function(
            "2.4.6", "/usr/lib/numpy/random/lib/libnpyrandom.a")
        assert here.so_name() != there.so_name()

    def test_same_inputs_same_name(self):
        assert (_samplerc.sampler_function("2.4.6", self.ARCHIVE).so_name()
                == _samplerc.sampler_function("2.4.6", self.ARCHIVE).so_name())
        assert _samplerc.SAMPLER.so_name().startswith("sampler-")
        assert _kernelc.KERNEL.so_name().startswith("kernel-")

    def test_process_sampler_uses_this_numpy(self):
        assert _samplerc.SAMPLER.key == (np.__version__,)
        assert _samplerc.SAMPLER.archives == (_samplerc.archive_path(),)

    def test_source_change_changes_the_name(self):
        native = _samplerc.SAMPLER
        edited = _native.NativeFunction(
            native.stem, native.source + "\n", native.symbol, native.restype,
            native.argtypes, native.what, native.fallback,
            archives=native.archives, key=native.key)
        assert edited.so_name() != native.so_name()


class TestMissingInputs:
    def test_missing_archive_is_a_quiet_fallback(self, tmp_path, monkeypatch,
                                                 recwarn):
        native = _samplerc.sampler_function(
            np.__version__, str(tmp_path / "libnpyrandom.a"))
        monkeypatch.setattr(_native, "_compile", lambda *args: pytest.fail(
            "nothing is built without the archive"))
        assert native.load() is None
        assert not native.available()
        assert len(recwarn) == 0

    def test_failed_sampler_build_warns_once(self, tmp_path, monkeypatch):
        if not os.path.isfile(_samplerc.archive_path()):
            pytest.skip("libnpyrandom.a is missing")

        def failing_build(command, **kwargs):
            return subprocess.CompletedProcess(
                command, 1, stdout=b"",
                stderr=b"sampler.c:1: error: simulated failure\n")

        native = _samplerc.sampler_function(np.__version__,
                                            _samplerc.archive_path())
        monkeypatch.setenv("REPRO_KERNELC_CACHE", str(tmp_path))
        monkeypatch.setattr(_native, "which", lambda name: "/usr/bin/cc")
        monkeypatch.setattr(_native.subprocess, "run", failing_build)
        with pytest.warns(RuntimeWarning) as caught:
            assert native.load() is None
        assert native.load() is None  # not retried, no second warning
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "native channel sampler" in message
        assert native.cache_path() in message
        assert "Python dwell loop" in message
        assert "simulated failure" in message

    def test_no_compiler_is_a_quiet_fallback(self, tmp_path, monkeypatch,
                                             recwarn):
        native = _samplerc.sampler_function("0.0-test", __file__)
        monkeypatch.setenv("REPRO_KERNELC_CACHE", str(tmp_path))
        monkeypatch.setattr(_native, "which", lambda name: None)
        assert native.load() is None
        assert len(recwarn) == 0
