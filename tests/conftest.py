"""Shared fixtures plus a reporter that prints one line per acceptance
criterion so a full run ends with a visible PASS/FAIL scoreboard."""

import re

import mixformer as mx  # first: it applies MIXFORMER_NUM_THREADS before NumPy loads
import numpy as np
import pytest

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    verdict = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    print(f"\nACCEPTANCE {n}: {verdict}")


@pytest.fixture
def tiny_schema():
    return mx.FeatureSchema(
        nonseq_fields=(
            mx.FeatureField("uid", "user", 11, 3),
            mx.FeatureField("ctx", "context", 5, 2),
            mx.FeatureField("iid", "item", 13, 4),
            mx.FeatureField("icat", "item", 4, 2),
        ),
        action_fields=(
            mx.ActionField("aid", 13, 3),
            mx.ActionField("atype", 3, 2),
        ),
        max_seq_len=6,
    )


@pytest.fixture
def tiny_config():
    return mx.ModelConfig(n_heads=2, head_dim=8, n_blocks=2, max_seq_len=6)


def random_request(schema, rng, seq_len=None, n_candidates=3, with_labels=True):
    t = schema.max_seq_len if seq_len is None else seq_len
    nonseq = [int(rng.integers(f.vocab_size)) for f in schema.user_fields()]
    actions = np.stack(
        [rng.integers(0, f.vocab_size, t) for f in schema.action_fields], axis=1
    ) if t else np.zeros((0, len(schema.action_fields)), dtype=np.int64)
    cands = np.stack(
        [rng.integers(0, f.vocab_size, n_candidates) for f in schema.item_fields()],
        axis=1,
    )
    labels = (
        rng.integers(0, 2, (n_candidates, 2)).astype(np.float64) if with_labels else None
    )
    return mx.Request(
        user_id=nonseq[0], user_nonseq=nonseq, actions=actions,
        candidates=cands, labels=labels,
    )
