"""Environment fingerprint recorded with every benchmark run.

Numbers from two machines are not comparable, so each run records what
it ran on: CPU model, the SIMD flags a GF(2^8) kernel could use, core
count, Python and numpy versions, the BLAS library with its thread cap,
and the code under test (git sha and dirty flag when the checkout is a
git repository, plus a digest of ``src/`` that works without one).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

#: CPU flags that decide which GF(2^8) kernels a backend could use.
SIMD_FLAGS = ("avx2", "gfni")
SIMD_PREFIXES = ("avx512",)

#: Environment variables that cap BLAS / OpenMP worker threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Keys every fingerprint carries (the schema the self-tests pin).
SCHEMA = {
    "cpu": ("model", "simd_flags", "nproc"),
    "python": ("version", "implementation"),
    "numpy": ("version",),
    "blas": ("vendor", "version", "threads", "thread_cap"),
    "code": ("git_sha", "git_dirty", "src_digest"),
}


def usable_cpus() -> int:
    """CPUs this process may run on (``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def cap_blas_threads(cap: int) -> int:
    """Cap BLAS threads at ``cap``; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var)
        if current is None or not current.isdigit() or int(current) > cap:
            os.environ[var] = str(cap)
    return cap


def _cpuinfo() -> tuple[str, list[str]]:
    fields: dict[str, str] = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            fields.setdefault(key.strip(), value.strip())
    except OSError:  # not Linux: model only, no flags
        pass
    model = fields.get("model name") or platform.processor() or platform.machine()
    simd = sorted(
        flag for flag in fields.get("flags", "").split()
        if flag in SIMD_FLAGS or flag.startswith(SIMD_PREFIXES)
    )
    return model, simd


def _blas() -> dict:
    import numpy as np

    info: dict = {"vendor": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        info["vendor"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (TypeError, AttributeError):  # numpy < 1.25: no dict mode
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked from the library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git(root: Path) -> tuple[Optional[str], Optional[bool]]:
    if not (root / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def src_digest(src: Path) -> str:
    """sha256 over every ``.py`` file under ``src`` (path + bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def collect(root: Path, thread_cap: int) -> dict:
    """The fingerprint of this process, machine and checkout."""
    import numpy as np

    model, simd = _cpuinfo()
    sha, dirty = _git(root)
    blas = _blas()
    blas["thread_cap"] = thread_cap
    return {
        "cpu": {"model": model, "simd_flags": simd, "nproc": usable_cpus()},
        "python": {
            "version": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "numpy": {"version": np.__version__},
        "blas": blas,
        "code": {
            "git_sha": sha,
            "git_dirty": dirty,
            "src_digest": src_digest(root / "src"),
        },
    }


def validate(fingerprint: dict) -> list[str]:
    """Schema problems with ``fingerprint`` (empty when it is valid)."""
    problems = []
    for section, keys in SCHEMA.items():
        body = fingerprint.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing section {section!r}")
            continue
        for key in keys:
            if key not in body:
                problems.append(f"missing {section}.{key}")
    cpu = fingerprint.get("cpu", {})
    if not isinstance(cpu.get("nproc"), int) or cpu.get("nproc", 0) < 1:
        problems.append("cpu.nproc must be a positive integer")
    if not isinstance(cpu.get("simd_flags", []), list):
        problems.append("cpu.simd_flags must be a list")
    blas = fingerprint.get("blas", {})
    cap = blas.get("thread_cap")
    if not isinstance(cap, int) or cap < 1:
        problems.append("blas.thread_cap must be a positive integer")
    threads = blas.get("threads")
    if isinstance(threads, int) and isinstance(cap, int) and threads > cap:
        problems.append(f"blas.threads {threads} exceeds the cap {cap}")
    return problems
