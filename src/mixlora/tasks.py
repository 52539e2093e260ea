"""Synthetic multi-task data: four structurally distinct sequence tasks.

Each task owns a disjoint slice of a shared fixed vocabulary so that routing
pressure differs per task. All default tasks emit sequences of the same
length, which keeps mixed-task batches rectangular without padding.

Sequence layouts (m = payload length):
    copy / reverse / shift:  [BOS s1..sm SEP t1..tm]   targets at SEP..t_{m-1}
    parity:                  [BOS b1..bm SEP]          one target at SEP

Accuracy is multiple-choice: argmax over the task's candidate ids at each
target position.

This module builds data only and imports no model code, just ``errors``;
``train.evaluate`` runs a model over a split.

Generation contract (``SyntheticTask.generate``): payloads are drawn in rounds
from ``default_rng([seed, 3, sym_lo, payload_len])``. Each round draws
``total - filled`` rows, where ``total = train_count + test_count``, and keeps
the first occurrence of each payload not kept before, in draw order. The first
``train_count`` payloads are the train split and the rest the test split, so
the splits are disjoint and every output bit follows from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

BOS = 1
SEP = 2
SYMBOL_BASE = 3

KINDS = ("copy", "reverse", "shift-by-k", "parity-classify")


@dataclass(frozen=True)
class SyntheticTask:
    name: str
    kind: str
    sym_lo: int           # vocab slice [sym_lo, sym_hi)
    sym_hi: int
    payload_len: int
    shift: int = 0                       # shift-by-k only
    label_ids: tuple[int, int] = (0, 0)  # parity-classify only
    train_count: int = 2048
    test_count: int = 512

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.sym_hi <= self.sym_lo or self.sym_lo < SYMBOL_BASE:
            raise ConfigError(f"bad vocab slice [{self.sym_lo}, {self.sym_hi})")
        if self.payload_len < 1:
            raise ConfigError("payload_len must be positive")

    @property
    def n_symbols(self) -> int:
        return self.sym_hi - self.sym_lo

    @property
    def seq_len(self) -> int:
        if self.kind == "parity-classify":
            return self.payload_len + 2
        return 2 * self.payload_len + 2

    @property
    def candidate_ids(self) -> np.ndarray:
        """Ids eligible as answers; accuracy is argmax over these."""
        if self.kind == "parity-classify":
            return np.asarray(self.label_ids, dtype=np.int64)
        return np.arange(self.sym_lo, self.sym_hi, dtype=np.int64)

    @property
    def target_offsets(self) -> np.ndarray:
        """Positions within one sequence that carry a loss."""
        m = self.payload_len
        if self.kind == "parity-classify":
            return np.asarray([m + 1], dtype=np.int64)
        return np.arange(m + 1, 2 * m + 1, dtype=np.int64)

    def _answer(self, payloads: np.ndarray) -> np.ndarray:
        """Answers for payload rows [n, m]: [n, m] tokens, or [n, 1] parity labels."""
        if self.kind == "copy":
            return payloads
        if self.kind == "reverse":
            return payloads[:, ::-1]
        if self.kind == "shift-by-k":
            return (payloads - self.sym_lo + self.shift) % self.n_symbols + self.sym_lo
        ones = (payloads == self.sym_lo + 1).sum(axis=1, keepdims=True)
        return np.asarray(self.label_ids, dtype=np.int64)[ones % 2]

    def generate(self, seed: int) -> "TaskData":
        """Deterministic train/test sets with disjoint payloads.

        Each round draws ``total - filled`` rows from
        ``default_rng([seed, 3, sym_lo, payload_len])`` and keeps the first
        occurrence of each payload not kept before, in draw order. The first
        ``train_count`` payloads are train, the rest test.
        """
        rng = np.random.default_rng([int(seed), 3, self.sym_lo, self.payload_len])
        total = self.train_count + self.test_count
        space = self.n_symbols ** self.payload_len
        if space >= 2 ** 63:  # each payload is keyed by its base-n_symbols int64
            raise ConfigError(f"task {self.name}: {space} payloads exceed the int64 key space")
        if total > space:
            raise ConfigError(
                f"task {self.name}: {total} samples exceed {space} distinct payloads"
            )
        place = self.n_symbols ** np.arange(self.payload_len - 1, -1, -1, dtype=np.int64)
        payloads = np.empty((total, self.payload_len), dtype=np.int64)
        kept = np.empty(0, dtype=np.int64)
        filled = 0
        while filled < total:
            cand = rng.integers(self.sym_lo, self.sym_hi,
                                size=(total - filled, self.payload_len))
            keys = (cand - self.sym_lo) @ place
            uniq, first = np.unique(keys, return_index=True)
            # A round draws total - filled rows, so it never finds more new ones.
            new = np.sort(first[~np.isin(uniq, kept)])
            payloads[filled: filled + new.size] = cand[new]
            kept = np.concatenate([kept, keys[new]])
            filled += new.size
        return TaskData(
            task=self,
            train=self._encode(payloads[: self.train_count]),
            test=self._encode(payloads[self.train_count:]),
        )

    def _encode(self, payloads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = payloads.shape[0]
        m = self.payload_len
        tokens = np.zeros((n, self.seq_len), dtype=np.int64)
        tokens[:, 0] = BOS
        tokens[:, 1: m + 1] = payloads
        tokens[:, m + 1] = SEP
        if self.kind == "parity-classify":
            return tokens, self._answer(payloads)
        tokens[:, m + 2:] = self._answer(payloads)
        return tokens, tokens[:, m + 2:].copy()


@dataclass
class Batch:
    """Token sequences plus flat target positions/labels into [B*T] rows."""

    tokens: np.ndarray      # [B, T] int
    positions: np.ndarray   # [P] flat row indices with a loss
    labels: np.ndarray      # [P] target token ids


@dataclass
class TaskData:
    task: SyntheticTask
    train: tuple[np.ndarray, np.ndarray]  # (tokens [n,T], labels [n,P])
    test: tuple[np.ndarray, np.ndarray]


def default_tasks(train_count: int = 2048, test_count: int = 512) -> dict[str, SyntheticTask]:
    """The standard 4-task suite; every sequence is 14 tokens long."""
    kw = dict(train_count=train_count, test_count=test_count)
    return {
        "copy": SyntheticTask("copy", "copy", 3, 11, 6, **kw),
        "reverse": SyntheticTask("reverse", "reverse", 11, 19, 6, **kw),
        "shift": SyntheticTask("shift", "shift-by-k", 19, 27, 6, shift=1, **kw),
        "parity": SyntheticTask("parity", "parity-classify", 27, 29, 12,
                                label_ids=(29, 30), **kw),
    }


def required_vocab(tasks: list[SyntheticTask]) -> int:
    hi = SYMBOL_BASE
    for t in tasks:
        hi = max(hi, t.sym_hi, max(t.label_ids) + 1 if t.label_ids != (0, 0) else 0)
    return hi


def make_batch(task: SyntheticTask, tokens: np.ndarray, labels: np.ndarray,
               rows: np.ndarray) -> Batch:
    """Assemble a Batch from sample rows of one task's (tokens, labels)."""
    toks = tokens[rows]
    n, seq_len = toks.shape
    offs = task.target_offsets
    positions = (np.arange(n)[:, None] * seq_len + offs[None, :]).ravel()
    return Batch(tokens=toks, positions=positions, labels=labels[rows].ravel())


def sample_batch(task: SyntheticTask, data: tuple[np.ndarray, np.ndarray],
                 rng: np.random.Generator, batch_size: int) -> Batch:
    tokens, labels = data
    rows = rng.integers(0, tokens.shape[0], size=batch_size)
    return make_batch(task, tokens, labels, rows)


def mixed_batch(tasks: list[SyntheticTask], datas: list[tuple[np.ndarray, np.ndarray]],
                rng: np.random.Generator, batch_size: int) -> Batch:
    """Evenly mixed batch across tasks: ``batch_size / len(tasks)`` rows of
    each, drawn as ``sample_batch`` draws them, so one task gives exactly
    ``sample_batch``'s batch. All tasks must share seq_len."""
    seq_lens = {t.seq_len for t in tasks}
    if len(seq_lens) != 1:
        raise ContractError(f"mixed batch needs one seq_len, got {sorted(seq_lens)}")
    per, rest = divmod(batch_size, len(tasks))
    if per < 1 or rest:
        raise ContractError(f"batch_size {batch_size} is not a positive multiple of "
                            f"the task count {len(tasks)}")
    tok_parts, pos_parts, lab_parts = [], [], []
    row_base = 0
    seq_len = seq_lens.pop()
    for task, data in zip(tasks, datas):
        b = sample_batch(task, data, rng, per)
        tok_parts.append(b.tokens)
        pos_parts.append(b.positions + row_base * seq_len)
        lab_parts.append(b.labels)
        row_base += per
    return Batch(
        tokens=np.concatenate(tok_parts, axis=0),
        positions=np.concatenate(pos_parts),
        labels=np.concatenate(lab_parts),
    )

