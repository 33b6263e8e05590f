"""The pure-Python sampler against numpy, a pinned table of its stream,
and the standard-library-only runtime it exists for."""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontoshape
from conftest import make_dataset2
from ontoshape._philox import sample
from ontoshape.tabular import subsample_attributes

SRC = Path(ontoshape.__file__).resolve().parent


def _digest(idx: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, idx)).encode()).hexdigest()[:16]


# (seed, n, k) -> indices, as numpy 2.4.6 drew them. Seeds past 2**128 take
# the SeedSequence's second mixing loop, n near 2**32 makes Lemire's method
# reject draws, and n > 10000 with k > n // 50 takes the tail-shuffle branch.
PINNED = [
    ((0, 1, 1), [0]),
    ((1, 60, 10), [0, 21, 3, 4, 55, 38, 46, 26, 9, 14]),
    ((7, 6, 3), [5, 1, 2]),
    ((11, 50, 20), [25, 19, 41, 18, 46, 28, 42, 26, 13, 30, 49, 34, 36, 39, 32, 38, 20, 40, 5, 17]),
    ((2**32 + 5, 40, 8), [31, 19, 17, 12, 38, 14, 36, 6]),
    ((2**64 - 1, 30, 5), [13, 11, 15, 27, 6]),
    ((2**128 + 1, 25, 6), [17, 3, 19, 0, 4, 20]),
    ((2**130, 60, 12), [36, 14, 24, 45, 48, 4, 6, 16, 42, 1, 33, 28]),
    ((4, 3_000_000_000, 8), [2925985401, 1214425995, 1306525318, 2756245859,
                             2599689340, 2191113453, 1988931905, 1671118256]),
    ((2**100 + 3, 2**32 - 1, 6), [2298830162, 531429861, 115250296, 385178727, 1660722693, 327401701]),
]

# (seed, n, k) -> (first three indices, digest of all of them)
PINNED_LONG = [
    ((2, 60, 60), ([9, 52, 16], "524fb1ca799a07a2")),
    ((123456789, 10000, 200), ([4893, 1768, 9009], "61ea40d35d8d7513")),
    ((5, 10000, 201), ([9719, 1675, 3404], "354c569be5aa64e9")),
    ((5, 10001, 200), ([1681, 6873, 681], "b32aa116376e226e")),
    ((5, 10001, 201), ([8994, 8366, 6737], "0243e0432b494d36")),
    ((9, 12000, 240), ([7344, 11003, 1962], "6e2e6ecbfcf0201a")),
    ((9, 12000, 241), ([1396, 5148, 4187], "7aab8067b98f72c2")),
    ((3, 12000, 12000), ([1892, 2559, 3227], "bd65e64c85e9010d")),
]


@pytest.mark.parametrize("case, expected", PINNED)
def test_pinned_samples(case, expected):
    assert sample(*case) == expected


@pytest.mark.parametrize("case, expected", PINNED_LONG)
def test_pinned_long_samples(case, expected):
    idx = sample(*case)
    assert (idx[:3], _digest(idx)) == expected
    assert len(set(idx)) == case[2] and all(0 <= i < case[1] for i in idx)


@st.composite
def _cases(draw):
    seed = draw(st.integers(0, 2**130))
    n = draw(st.integers(0, 60) | st.sampled_from([10000, 10001, 12000]) | st.integers(2**31, 2**32 - 1))
    if n > 12000:  # near 2**32, where Lemire's method rejects often
        return seed, n, draw(st.integers(0, 8))
    k = draw(st.integers(0, n) | st.sampled_from([0, 1, n // 50, n // 50 + 1, n]).filter(lambda k: k <= n))
    return seed, n, k


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_sample_matches_numpy(case):
    np = pytest.importorskip("numpy")
    seed, n, k = case
    expected = np.random.Generator(np.random.Philox(seed)).choice(n, size=k, replace=False)
    assert sample(seed, n, k) == expected.tolist()


def test_k_zero_draws_nothing():
    assert sample(1, 60, 0) == []
    assert sample(1, 0, 0) == []


def test_negative_k_raises():
    with pytest.raises(ValueError):
        sample(1, 5, -1)
    with pytest.raises(ValueError):
        subsample_attributes(make_dataset2(), -1, {"operation_id"}, seed=1)


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="seed"):
        sample(-1, 5, 2)
    with pytest.raises(ValueError, match="seed"):
        subsample_attributes(make_dataset2(), 1, {"operation_id"}, seed=-1)


def test_k_above_the_candidates_raises():
    with pytest.raises(ValueError):
        sample(1, 3, 4)
    with pytest.raises(ValueError):
        sample(1, 0, 1)


def test_n_past_32_bits_raises():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        sample(1, 2**32, 1)


def test_package_imports_only_the_standard_library():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "ontoshape", (path.name, name)


def test_importing_the_package_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, ontoshape, ontoshape.cli, ontoshape.bench; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "False"
