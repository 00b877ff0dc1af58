"""Names the study benchmark patches must exist in the package.

``studybench/tracer.py`` wraps package functions and methods by name to
time them; a refactor that renames or removes one breaks ``--trace 1``
with a ``KeyError``. These tests install and remove the tracer on the real
package, so such a break shows up in this suite.
"""

import os
import sys

import pytest

import cdrschwarz
from cdrschwarz import driver, kernels, matio, schwarz  # noqa: F401

STUDYBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "studybench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, STUDYBENCH)
    try:
        import tracer as module
    finally:
        sys.path.remove(STUDYBENCH)
    return module


def _patched(tracer):
    names = [(owner, attr) for owner, attr, _ in
             tracer.stage_patches(cdrschwarz) + tracer.layer_patches(cdrschwarz)]
    names += [(driver, "run_coupled"), (schwarz, "schwarz_window")]
    names += [(matio, attr) for attr in tracer.MATIO_WRITERS]
    return names


@pytest.mark.parametrize("layers", [False, True])
def test_tracer_installs_and_uninstalls(tracer, layers):
    before = [owner.__dict__[attr] for owner, attr in _patched(tracer)]
    t = tracer.Tracer()
    try:
        t.install(cdrschwarz, layers=layers)
    finally:
        t.uninstall()
    after = [owner.__dict__[attr] for owner, attr in _patched(tracer)]
    assert all(a is b for a, b in zip(before, after))


def test_segment_patches_exist(tracer):
    for module, cls, attr, _ in tracer.SEGMENT_PATCHES:
        owner = getattr(getattr(cdrschwarz, module), cls)
        assert attr in owner.__dict__, f"{module}.{cls}.{attr}"
