"""Fixtures and helpers shared by the test modules."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from lorenzmaps import make_affine_pair


def _draw_affine(rng):
    # slopes until the pair admits a p, then p strictly inside [a, b]; seeded tests rely on this rng use
    while True:
        b0 = Fraction(rng.randint(105, 195), 100)
        b1 = Fraction(rng.randint(105, 195), 100)
        if b0 + b1 > b0 * b1:
            bp = make_affine_pair(b0, b1)
            return bp, bp.a + Fraction(rng.randint(1, 9999), 10000) * (bp.b - bp.a)


@pytest.fixture(scope="session")
def draw_affine():
    """The draw (affine pair, p) from a random.Random: slopes in [1.05, 1.95] and p strictly inside [a, b]."""
    return _draw_affine


def _run_python(code, *args, **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, **kwargs)


@pytest.fixture(scope="session")
def run_python():
    """`python -c code *args` in a fresh interpreter on this one's sys.path, output captured as text;
    keyword arguments go to subprocess.run."""
    return _run_python
