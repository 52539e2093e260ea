"""Synthetic tasks: determinism, disjoint splits, answers and batch layout."""

import numpy as np
import pytest

from mixlora.errors import ConfigError, ContractError
from mixlora.tasks import (
    BOS, SEP, SyntheticTask, default_tasks, make_batch, mixed_batch, sample_batch,
)

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


def loop_generate(task, seed):
    """The per-row generator that ``generate`` replaced, kept as the reference
    for its bits: ((tokens, labels) train, (tokens, labels) test, rounds)."""
    rng = np.random.default_rng([int(seed), 3, task.sym_lo, task.payload_len])
    total = task.train_count + task.test_count
    seen, payloads, filled, rounds = set(), np.empty((total, task.payload_len), np.int64), 0, 0
    while filled < total:
        rounds += 1
        for row in rng.integers(task.sym_lo, task.sym_hi, size=(total - filled, task.payload_len)):
            if row.tobytes() in seen:
                continue
            seen.add(row.tobytes())
            payloads[filled] = row
            filled += 1
            if filled == total:
                break

    def answer(row):
        if task.kind == "copy":
            return row
        if task.kind == "reverse":
            return row[::-1]
        if task.kind == "shift-by-k":
            return (row - task.sym_lo + task.shift) % task.n_symbols + task.sym_lo
        ones = int((row == task.sym_lo + 1).sum())
        return np.asarray([task.label_ids[ones % 2]], dtype=np.int64)

    def encode(rows):
        m = task.payload_len
        tokens = np.zeros((rows.shape[0], task.seq_len), dtype=np.int64)
        tokens[:, 0], tokens[:, 1: m + 1], tokens[:, m + 1] = BOS, rows, SEP
        labels = np.stack([answer(p) for p in rows])
        if task.kind != "parity-classify":
            tokens[:, m + 2:] = labels
        return tokens, labels

    return encode(payloads[: task.train_count]), encode(payloads[task.train_count:]), rounds


def assert_same_as_loop(task, seed):
    data = task.generate(seed)
    train, test, rounds = loop_generate(task, seed)
    for new, old in zip(data.train + data.test, train + test):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.flags.c_contiguous and np.array_equal(new, old)
    return rounds


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_generate_matches_the_per_row_loop_bit_for_bit(seed):
    for task in default_tasks().values():
        assert_same_as_loop(task, seed)
    # 75 of 256 payloads: duplicates force redraw rounds.
    small = SyntheticTask("small", "shift-by-k", 3, 7, 4, shift=3, train_count=60,
                          test_count=15)
    assert assert_same_as_loop(small, seed) > 1


def test_payload_space_bounds_are_refused():
    huge = SyntheticTask("huge", "copy", 3, 11, 21)  # 8**21 = 2**63 payloads
    with pytest.raises(ConfigError, match="exceed the int64 key space"):
        huge.generate(0)
    tiny = SyntheticTask("tiny", "copy", 3, 5, 2, train_count=3, test_count=2)
    with pytest.raises(ConfigError, match="5 samples exceed 4 distinct payloads"):
        tiny.generate(0)


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
    for batch_size in (len(tasks) - 1, 4 * len(tasks) + 2):
        with pytest.raises(ContractError, match="not a positive multiple"):
            mixed_batch(tasks, datas, rng, batch_size)
    batch = mixed_batch(tasks, datas, rng, len(tasks))
    assert batch.tokens.shape == (len(tasks), copy.seq_len)


def test_one_task_mixed_batch_is_sample_batch():
    copy = TASKS["copy"]
    data = copy.generate(0).train
    mixed_rng, sample_rng = np.random.default_rng(5), np.random.default_rng(5)
    mixed = mixed_batch([copy], [data], mixed_rng, 6)
    sample = sample_batch(copy, data, sample_rng, 6)
    for name in ("tokens", "positions", "labels"):
        got, want = getattr(mixed, name), getattr(sample, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert mixed_rng.bit_generator.state == sample_rng.bit_generator.state
