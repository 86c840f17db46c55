"""The README's pinned checkpoints: each of its "Pinned checkpoints"
`dmsr train` commands, run as written with one BLAS thread, writes a
checkpoint.dmsr and a steps.csv whose sha256 prefixes are the ones the
README gives. The hashes hold for one numpy and BLAS build, so the test runs
only on that build."""

import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
NUMPY, OPENBLAS = "2.4.6", "0.3.31"


def _blas():
    """The name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy before 1.26 has no mode
        return "unknown", "unknown"
    return blas.get("name", "unknown"), blas.get("version", "unknown")


def _pins():
    """(argv, config files, checkpoint prefix, steps.csv prefix) of each
    bullet of the README's "Pinned checkpoints" section."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("\n## Pinned checkpoints\n", 1)[1].split("\n## ", 1)[0]
    pins = []
    for item in section.split("\n- ")[1:]:
        item = " ".join(item.split())
        (command,) = re.findall(r"`dmsr train ([^`]*)`", item)
        configs = dict(re.findall(r"`([\w.]+\.cfg)` holds `([^`]*)`", item))
        checkpoint, steps = re.findall(r"`([0-9a-f]{8})…`", item)
        name = item.split(":")[0].encode("ascii", "ignore").decode()
        pins.append(pytest.param(command.split(), configs, checkpoint, steps,
                                 id=re.sub(r"\W+", "_", name).strip("_")))
    return pins


def test_the_readme_pins_four_runs():
    assert len(_pins()) == 4


@pytest.mark.skipif(np.__version__ != NUMPY or OPENBLAS not in " ".join(_blas()),
                    reason=f"the pins hold for numpy {NUMPY} with OpenBLAS {OPENBLAS}; "
                           f"this is numpy {np.__version__} with {' '.join(_blas())}")
@pytest.mark.parametrize("argv,configs,checkpoint,steps", _pins())
def test_readme_pinned_checkpoint_reproduces(tmp_path, argv, configs, checkpoint, steps):
    for name, text in configs.items():
        (tmp_path / name).write_text(text + "\n")
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "dmsr.cli", "train", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / argv[argv.index("--out") + 1]
    got = [hashlib.sha256((out / name).read_bytes()).hexdigest()[:8]
           for name in ("checkpoint.dmsr", "steps.csv")]
    assert got == [checkpoint, steps]
