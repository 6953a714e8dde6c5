"""Trained-model cache for the campaign benchmark.

Fault masking depends on trained activation ranges, so every workload
runs on models trained with the experiments' ``TRAINING_CONFIG`` (seed
0, the committed tables' configuration).  Training the five models takes
about 75 s on a 2-CPU host — longer than one benchmark run — so it
happens once per checkout, in a child process, before any timing: the
trained ``Model`` objects are pickled under ``.bench_cache/`` (ignored by
git), keyed by a digest of the ``src/`` tree so a cache never outlives
the code that trained it.  Set-up then pays ``prepare_model`` (graph and
dataset construction) plus restoring the trained weights.

Run as a script to fill the cache for the named models::

    python3 campaign_bench/trained.py <cache-dir> lenet vgg11 ...
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Iterable

#: Training / profiling seed (the experiments' default scale seed).
MODEL_SEED = 0


def source_digest(src: Path) -> str:
    """SHA-1 over every ``*.py`` file of the package tree."""
    digest = hashlib.sha1()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_path(cache_dir: Path, name: str) -> Path:
    return cache_dir / f"{name}.pkl"


def ensure_trained(cache_dir: Path, names: Iterable[str], src: Path) -> float:
    """Train (in a child process) every model missing from the cache.

    Returns the seconds spent training (0.0 on a warm cache).
    """
    missing = [name for name in names
               if not cache_path(cache_dir, name).exists()]
    if not missing:
        return 0.0
    import time
    start = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    str(cache_dir)] + missing, check=True, env=env,
                   stdout=sys.stderr)
    return time.perf_counter() - start


def load_trained(cache_dir: Path, name: str):
    """Restore one trained ``Model`` from the cache."""
    with open(cache_path(cache_dir, name), "rb") as handle:
        return pickle.load(handle)


def _train(cache_dir: Path, names: Iterable[str]) -> None:
    from repro.experiments.common import ExperimentScale, get_prepared

    cache_dir.mkdir(parents=True, exist_ok=True)
    scale = ExperimentScale(seed=MODEL_SEED)
    for name in names:
        prepared = get_prepared(name, scale)
        target = cache_path(cache_dir, name)
        partial = target.with_suffix(".tmp")
        with open(partial, "wb") as handle:
            pickle.dump(prepared.model, handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
        partial.replace(target)
        print(f"trained {name}: final loss {prepared.final_loss:.4f}",
              flush=True)


if __name__ == "__main__":
    _train(Path(sys.argv[1]), sys.argv[2:])
