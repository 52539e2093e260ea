"""Synthetic tasks: determinism, disjoint splits, answers and batch layout."""

import numpy as np
import pytest

from mixlora.errors import ContractError
from mixlora.tasks import BOS, SEP, SyntheticTask, default_tasks, make_batch, mixed_batch

TASKS = default_tasks(train_count=96, test_count=32)


def payloads(tokens, task):
    return tokens[:, 1: task.payload_len + 1]


@pytest.mark.parametrize("name", sorted(TASKS))
def test_generate_is_deterministic_per_seed_with_disjoint_splits(name):
    task = TASKS[name]
    a, b, c = task.generate(4), task.generate(4), task.generate(5)
    for split in ("train", "test"):
        for x, y in zip(getattr(a, split), getattr(b, split)):
            assert np.array_equal(x, y)
    assert not np.array_equal(a.train[0], c.train[0])
    train = {row.tobytes() for row in payloads(a.train[0], task)}
    test = {row.tobytes() for row in payloads(a.test[0], task)}
    assert len(train) == task.train_count and len(test) == task.test_count
    assert not train & test


@pytest.mark.parametrize("name", sorted(TASKS))
def test_every_sequence_has_the_documented_layout(name):
    task = TASKS[name]
    tokens, _ = task.generate(0).train
    m = task.payload_len
    assert tokens.shape == (task.train_count, task.seq_len)
    assert np.all(tokens[:, 0] == BOS) and np.all(tokens[:, m + 1] == SEP)
    assert np.all((payloads(tokens, task) >= task.sym_lo)
                  & (payloads(tokens, task) < task.sym_hi))


def test_answers_are_right_for_each_kind():
    for name in ("copy", "reverse", "shift"):
        task = TASKS[name]
        tokens, labels = task.generate(0).train
        src, answer = payloads(tokens, task), tokens[:, task.payload_len + 2:]
        assert np.array_equal(answer, labels)
        if name == "copy":
            assert np.array_equal(answer, src)
        elif name == "reverse":
            assert np.array_equal(answer, src[:, ::-1])
        else:
            top = src == task.sym_hi - 1
            assert top.any()  # the wrap-around case occurs
            assert np.all(answer[top] == task.sym_lo)
            assert np.array_equal(answer[~top], src[~top] + 1)
    parity = TASKS["parity"]
    tokens, labels = parity.generate(0).train
    ones = (payloads(tokens, parity) == parity.sym_lo + 1).sum(axis=1)
    assert np.array_equal(labels[:, 0], np.asarray(parity.label_ids)[ones % 2])
    assert set(np.unique(labels)) == set(parity.label_ids)


def test_make_batch_positions_and_labels_line_up_with_the_tokens():
    rows = np.array([5, 0, 5, 17])
    for name in ("copy", "reverse", "shift"):
        task = TASKS[name]
        tokens, labels = task.generate(0).train
        batch = make_batch(task, tokens, labels, rows)
        assert np.array_equal(batch.tokens, tokens[rows])
        # Each target position predicts the next token of its own sequence.
        assert np.array_equal(batch.tokens.reshape(-1)[batch.positions + 1], batch.labels)
        assert np.array_equal(batch.positions // task.seq_len,
                              np.repeat(np.arange(rows.size), task.payload_len))
    parity = TASKS["parity"]
    tokens, labels = parity.generate(0).train
    batch = make_batch(parity, tokens, labels, rows)
    assert np.array_equal(batch.positions,
                          np.arange(rows.size) * parity.seq_len + parity.payload_len + 1)
    assert np.array_equal(batch.labels, labels[rows, 0])


def test_mixed_batch_rejects_mixed_lengths_and_too_small_batches():
    rng = np.random.default_rng(0)
    copy = TASKS["copy"]
    short = SyntheticTask("short", "copy", 3, 11, 4, train_count=8, test_count=8)
    datas = [copy.generate(0).train, short.generate(0).train]
    with pytest.raises(ContractError, match="one seq_len"):
        mixed_batch([copy, short], datas, rng, 8)
    tasks = list(TASKS.values())
    datas = [t.generate(0).train for t in tasks]
    with pytest.raises(ContractError, match="below task count"):
        mixed_batch(tasks, datas, rng, len(tasks) - 1)
    batch = mixed_batch(tasks, datas, rng, len(tasks))
    assert batch.tokens.shape == (len(tasks), copy.seq_len)
