"""The benchmark's inputs are a pure function of the seed.

Run from the repository root: ``python3 -m pytest servebench/tests -q``.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

import workloads  # noqa: E402


def _files(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _inputs(workload: str, seed: int, directory: str):
    fx = workloads.build(workload, seed, directory)
    return _files(directory), fx.xml, fx.clients, fx.warmup


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_and_requests(workload, tmp_path):
    first = _inputs(workload, 11, str(tmp_path / "a"))
    second = _inputs(workload, 11, str(tmp_path / "b"))
    assert first[0] and first[0] == second[0]  # fixture files, byte for byte
    assert first[1] == second[1]  # ingest bodies
    assert first[2] == second[2]  # every client's request sequence
    assert first[3] == second[3]  # set-up queries


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(workload, tmp_path):
    first = _inputs(workload, 11, str(tmp_path / "a"))
    other = _inputs(workload, 12, str(tmp_path / "b"))
    assert first[0] != other[0] or first[2] != other[2]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reference_answers_cover_every_request(workload, tmp_path):
    fx = workloads.build(workload, 3, str(tmp_path))
    workloads.compute_reference(fx)
    for op in list(fx.warmup) + [op for ops in fx.clients for op in ops]:
        if op.kind != "ingest":
            doc = fx.preload[op.store][1]
            assert (doc, op.kind, op.query.text) in fx.reference
