"""The benchmark's workloads and the checks on their outputs.

Every workload runs float32, ``mode="optimized"``, 8 experts, top-2, rank 16,
vocab 8192 and the 4-task suite (14 tokens per sequence). Everything is
driven through the package's public entry points; nothing in ``src/`` is
edited or reached into beyond the names a caller could import.

* ``train-d64``: ``train.train(multitask=True)`` at the default dims. GEMMs
  are tiny, so per-op Python overhead dominates: attention batching, tape,
  backward and Adam changes show here.
* ``serve-4set-d512``: four adapter sets over one frozen base, served with
  ``multi_forward(training=False)``. No tape, backward or optimizer, so a
  backward/Adam change must predict no change here; the only workload that
  touches ``multitask``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import os
import resource
import statistics
import time

import numpy as np

from tracing import Tracer

bench_mod = importlib.import_module("mixlora.bench")
ckpt_mod = importlib.import_module("mixlora.checkpoint")
config_mod = importlib.import_module("mixlora.config")
lora_mod = importlib.import_module("mixlora.lora")
model_mod = importlib.import_module("mixlora.model")
moe_mod = importlib.import_module("mixlora.moe")
multitask_mod = importlib.import_module("mixlora.multitask")
numerics_mod = importlib.import_module("mixlora.numerics")
optim_mod = importlib.import_module("mixlora.optim")
tasks_mod = importlib.import_module("mixlora.tasks")
# mixlora/__init__.py re-exports the function ``train`` under the submodule's
# name, so ``import mixlora.train`` would yield the function.
train_mod = importlib.import_module("mixlora.train")

TASKS = ("copy", "reverse", "shift", "parity")
BATCH_SIZE = 16
MODE = "optimized"

LR = 2e-4
# An untraced run spends this share of its seconds on set-ups after the timed
# loop, and the same share on checkpoint round trips (at least MIN_SAMPLES of
# each). Cheap ones are thus sampled dozens of times, since a single sample
# jitters by 20-40%.
SAMPLE_SHARE = 0.15
MIN_SAMPLES = 5
TRACED_REPS = 2         # set-ups and round trips in a traced run
MIN_TIMED_OPS = 40      # op_ms_p75 keeps at least ten samples beyond it
SERVE_LOSS_CALLS = 8    # serve task_loss covers the first calls' batches

# Tolerances stated by the benchmark.
LOSS_REL_TOL = 1e-3     # final train loss vs the recorded reference
SERVE_LOSS_REL_TOL = 1e-5  # held-out serve loss vs the recorded reference
LEARN_FRACTION = 0.99   # without a reference: final loss below 99% of step 0
LOGIT_ATOL = 1e-6       # multi_forward vs standalone ToyModel logits
ADAPTER_EFFECT = 100 * LOGIT_ATOL  # another set's adapters must move logits more
B_INIT_STD = 0.02       # serve sets get nonzero B so deltas matter

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "train" or "serve"
    d_model: int
    d_ff: int
    steps: int = 0          # train: steps per train() call
    seqs_per_set: int = 0   # serve: held-out sequences per set per call

    def config(self, seed: int):
        return config_mod.RunConfig(
            d_model=self.d_model, d_ff=self.d_ff, steps=self.steps,
            batch_size=BATCH_SIZE, seed=int(seed), mode=MODE, precision="f32",
            tasks=TASKS, lr=LR,
        ).validate()


WORKLOADS = {w.name: w for w in (
    Workload("train-d64", "train", 64, 128, steps=130),
    Workload("serve-4set-d512", "serve", 512, 1376, seqs_per_set=16),
)}


class Checks:
    """Failed checks, each counted as one failed operation."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _repeat(fn, seconds: float) -> list:
    """Results of calling ``fn`` until ``seconds`` have passed, at least MIN_SAMPLES times."""
    out = []
    start = time.perf_counter()
    while len(out) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        out.append(fn())
    return out


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                               np.ascontiguousarray(b).view(np.uint8)))


def load_reference(name: str, seed: int) -> float | None:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f).get(name, {}).get(str(seed))


def check_loss(wl: Workload, seed: int, loss: float, checks: Checks,
               start: float | None = None) -> None:
    """``loss`` matches reference.json for the seed; a train run without one
    must fall below LEARN_FRACTION x its step-0 loss ``start``."""
    ref = load_reference(wl.name, seed)
    if ref is not None:
        tol = LOSS_REL_TOL if wl.kind == "train" else SERVE_LOSS_REL_TOL
        checks.expect(abs(loss - ref) <= tol * abs(ref),
                      f"{wl.kind} task loss {loss!r} vs reference {ref!r}")
    elif wl.kind == "train":
        checks.expect(loss < LEARN_FRACTION * start,
                      f"final task loss {loss!r} did not fall below "
                      f"{LEARN_FRACTION} x step 0 ({start!r})")


def reference_loss(wl: Workload, seed: int) -> float:
    """The task loss a run of ``wl`` reports for ``seed``, computed untimed."""
    if wl.kind == "train":
        _, records = train_mod.train(wl.config(seed), multitask=True)
        return records[-1]["task_loss"]
    session = ServeSession(wl, seed, Checks())
    session.setup()
    losses = []
    for call in range(SERVE_LOSS_CALLS):
        losses.extend(session.set_losses(*session.call(call)))
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# Sessions: set-up, timed operations, and their checks
# ---------------------------------------------------------------------------


class TrainSession:
    """Repeated ``train.train`` runs; one operation is one train step."""

    def __init__(self, wl: Workload, seed: int, checks: Checks):
        self.wl, self.seed, self.checks = wl, seed, checks
        self.config = wl.config(seed)
        self.tokens_per_op = BATCH_SIZE * tasks_mod.default_tasks()[TASKS[0]].seq_len
        self.model = None
        self.base_checksum = None

    def setup(self) -> float:
        """Entry call until the first step is ready: tasks plus model build."""
        return _seconds(lambda: train_mod.train(
            dataclasses.replace(self.config, steps=0), multitask=True))

    def measure(self, seconds: float, min_ops: int) -> dict:
        """Timed steps until ``seconds`` have passed and ``min_ops`` are timed."""
        if self.base_checksum is None:
            self.base_checksum = model_mod.FrozenBase(
                self.config.model(), self.seed, self.config.dtype).checksum()
        step_s: list[float] = []
        loads: list[float] = []
        finals: list[float] = []
        ops = 0
        start = time.perf_counter()
        while True:
            stamps: list[float] = []
            self.model = None  # one trained model alive at a time keeps peak RSS steady
            t0 = time.perf_counter()
            model, records = train_mod.train(
                self.config, multitask=True,
                log_cb=lambda entry: stamps.append(time.perf_counter()))
            call_s = time.perf_counter() - t0
            # Step 0 starts inside train() where no stamp can see it; it is
            # the warm-up step and stays untimed.
            step_s.extend(np.diff(stamps).tolist())
            ops += len(records)
            self._check_call(model, records)
            finals.append(records[-1]["task_loss"])
            loads.extend(float(np.std(layer)) for r in records for layer in r["expert_load"])
            self.model = model
            elapsed = time.perf_counter() - start
            if len(step_s) >= min_ops and elapsed + call_s / 2 >= seconds:
                break
        self.checks.expect(len(set(finals)) == 1,
                           f"train runs of one seed disagree: {finals}")
        return {"op_s": step_s, "ops": ops, "tokens": self.tokens_per_op * len(step_s),
                "task_loss": finals[-1], "load_std": float(np.mean(loads))}

    def _check_call(self, model, records) -> None:
        for r in records:
            self.checks.expect(
                all(np.isfinite(r[k]) for k in ("task_loss", "aux_loss", "total_loss")),
                f"non-finite loss at step {r['step']}")
        self.checks.expect(model.base.checksum() == self.base_checksum,
                           "frozen base changed during training")
        check_loss(self.wl, self.seed, records[-1]["task_loss"], self.checks,
                   start=records[0]["task_loss"])

    def checkpoint_target(self):
        return self.config, self.model

    def census(self) -> tuple[int, float]:
        return 0, 0.0

    def verify(self) -> None:
        pass


class ServeSession:
    """Four adapter sets over one base; one operation is one multi_forward call."""

    def __init__(self, wl: Workload, seed: int, checks: Checks):
        self.wl, self.seed, self.checks = wl, seed, checks
        self.config = wl.config(seed)
        registry = tasks_mod.default_tasks()
        self.tasks = [registry[name] for name in TASKS]
        self.tokens_per_op = sum(t.seq_len for t in self.tasks) * wl.seqs_per_set
        self.engine = None
        self.datas = None
        self.checked: list[tuple] = []
        # The serve operation is the benchmark's own call (batch assembly plus
        # multi_forward); a traced run spans it as the root "bench.op".
        self.op_span = contextlib.nullcontext

    def setup(self) -> float:
        """Entry call until the first call is ready: held-out data plus engine."""
        self.engine = None  # one engine alive at a time keeps peak RSS steady
        t0 = time.perf_counter()
        datas = [t.generate(self.seed) for t in self.tasks]
        engine = multitask_mod.MultiTaskEngine(
            self.config.model(), self.seed, dtype=self.config.dtype, lr=self.config.lr)
        for i, name in enumerate(TASKS):
            aset = engine.add_set(name)
            rng = np.random.default_rng([self.seed, 8, i])
            for pname, t in aset.named_parameters():
                if pname.endswith(".B"):
                    t.data[...] = rng.normal(0.0, B_INIT_STD, size=t.shape)
        dt = time.perf_counter() - t0
        self.engine, self.datas = engine, datas
        return dt

    def _batch(self, call: int):
        n = self.wl.seqs_per_set
        slices = []
        for task, data in zip(self.tasks, self.datas):
            tokens, labels = data.test
            rows = (np.arange(n) + call * n) % tokens.shape[0]
            slices.append(tasks_mod.make_batch(task, tokens, labels, rows))
        return multitask_mod.MultiTaskBatch(list(TASKS), slices)

    def call(self, call: int):
        """One serve operation: the batch of call number ``call`` and its outputs."""
        with self.op_span():
            batch = self._batch(call)
            out = multitask_mod.multi_forward(self.engine, batch, MODE, training=False)
        return batch, out

    @staticmethod
    def set_losses(batch, out) -> list[float]:
        return [numerics_mod.cross_entropy(out[set_id][0], b.labels).item()
                for set_id, b in zip(batch.set_ids, batch.slices)]

    def measure(self, seconds: float, min_ops: int) -> dict:
        """Timed calls until ``seconds`` have passed and ``min_ops`` are timed."""
        min_ops = max(min_ops, SERVE_LOSS_CALLS)
        op_s: list[float] = []
        losses: list[float] = []
        loads: list[float] = []
        start = time.perf_counter()
        call = 0
        while True:
            t0 = time.perf_counter()
            batch, out = self.call(call)
            op_s.append(time.perf_counter() - t0)
            for set_id in batch.set_ids:
                logits, stats = out[set_id]
                self.checks.expect(bool(np.all(np.isfinite(logits.data))),
                                   f"non-finite logits for set {set_id} in call {call}")
                loads.extend(moe_mod.expert_load_std(st) for st in stats)
            if call < SERVE_LOSS_CALLS:
                losses.extend(self.set_losses(batch, out))
            if call == 0:
                self.checked = [(batch, out)]
            call += 1
            if call >= min_ops and time.perf_counter() - start >= seconds:
                break
        self.checked.append((batch, out))
        task_loss = float(np.mean(losses))
        check_loss(self.wl, self.seed, task_loss, self.checks)
        return {"op_s": op_s, "ops": call, "tokens": self.tokens_per_op * call,
                "task_loss": task_loss, "load_std": float(np.mean(loads))}

    def verify(self) -> None:
        """Each set's served logits equal a standalone model's on the same batch."""
        cfg, base = self.engine.config, self.engine.base
        for batch, out in self.checked:
            for set_id, b in zip(batch.set_ids, batch.slices):
                solo, _ = model_mod.ToyModel(cfg, base, self.engine.sets[set_id]).logits_at(
                    b.tokens, b.positions, MODE, training=False)
                diff = float(np.abs(solo.data - out[set_id][0].data).max())
                self.checks.expect(diff <= LOGIT_ATOL,
                                   f"set {set_id}: served vs standalone logits differ by {diff:.3g}")
        batch, out = self.checked[0]
        b = batch.slices[0]
        other, _ = model_mod.ToyModel(cfg, base, self.engine.sets[TASKS[1]]).logits_at(
            b.tokens, b.positions, MODE, training=False)
        effect = float(np.abs(other.data - out[TASKS[0]][0].data).max())
        self.checks.expect(effect > ADAPTER_EFFECT,
                           f"adapter sets barely differ ({effect:.3g}); the check is vacuous")

    def checkpoint_target(self):
        return self.config, self.engine.model(TASKS[0])

    def census(self) -> tuple[int, float]:
        census = multitask_mod.memory_census(self.engine)
        return census["base_bytes"], float(np.mean(census["per_set_bytes"]))


SESSIONS = {"train": TrainSession, "serve": ServeSession}


def checkpoint_round_trip(session, workdir: str, checks: Checks) -> tuple[float, float, int]:
    """Save and load the session's model; every tensor must come back bit-identical.

    Returns (save seconds, load seconds, file bytes).
    """
    config, model = session.checkpoint_target()
    path = os.path.join(workdir, "bench.mxlr")
    save_s = _seconds(lambda: ckpt_mod.save_checkpoint(path, config, model))
    t0 = time.perf_counter()
    cfg2, model2 = ckpt_mod.load_checkpoint(path)
    load_s = time.perf_counter() - t0
    nbytes = os.path.getsize(path)
    os.remove(path)
    checks.expect(cfg2.to_dict() == config.to_dict(), "checkpoint config changed")
    restored = dict(ckpt_mod.named_model_tensors(model2))
    for name, t in ckpt_mod.named_model_tensors(model):
        checks.expect(name in restored and _bits_equal(t.data, restored[name].data),
                      f"checkpoint tensor {name} not restored bit-identically")
    return save_s, load_s, nbytes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(m: dict, setup_s: list[float], trips: list[tuple]) -> tuple[dict, dict]:
    """(metrics, sample counts) for an untraced run."""
    ms = [s * 1e3 for s in m["op_s"]]
    save_s, load_s, nbytes = zip(*trips)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "tokens_per_s": (m["tokens"] / sum(m["op_s"]), "tok/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p75": (_quantile(ms, 75), "ms"),
        "task_loss": (m["task_loss"], "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ckpt_bytes": (nbytes[-1], "bytes"),
        "ckpt_save_ms": (statistics.median(save_s) * 1e3, "ms"),
        "ckpt_load_ms": (statistics.median(load_s) * 1e3, "ms"),
    }
    samples = {"setup_s": len(setup_s), "op_ms_p50": len(ms), "op_ms_p75": len(ms),
               "ckpt_save_ms": len(save_s), "ckpt_load_ms": len(load_s)}
    return metrics, samples


class TraceCounters:
    """Counts gathered by the tracer's bookkeeping hooks."""

    def __init__(self, config):
        self.config = config.model()
        self.expected = bench_mod.FlopLedger()
        self.tape_nodes = 0
        self.tape_bytes = 0

    def on_block(self, block, h, mode, *args, **kwargs) -> None:
        analytic = bench_mod.count_flops(self.config, h.shape[0], mode)
        for (_, proj, source), n in analytic.counts.items():
            self.expected.add(n, {"layer": block.layer_index, "projection": proj,
                                  "source": source})

    def on_backward(self, tape, loss) -> None:
        self.tape_nodes += len(tape.nodes)
        self.tape_bytes += sum(out.data.nbytes for out, _ in tape.nodes)


def install_tracer(tracer: Tracer, counters: TraceCounters) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    wrap = tracer.wrap
    wrap(train_mod, "train", "train.run")
    wrap(tasks_mod.SyntheticTask, "generate", "tasks.generate")
    wrap(train_mod, "build_model", "model.build")
    wrap(multitask_mod.MultiTaskEngine, "__init__", "model.build")
    wrap(multitask_mod.MultiTaskEngine, "add_set", "model.build")
    wrap(train_mod, "mixed_batch", "tasks.batch")
    wrap(tasks_mod, "make_batch", "tasks.batch")
    wrap(train_mod, "model_loss", "model.loss")
    wrap(model_mod.ToyModel, "logits_at", "model.forward")
    wrap(model_mod, "attention_forward", "model.attention")
    wrap(moe_mod.MixLoraBlock, "forward", "moe.block", on_call=counters.on_block)
    wrap(moe_mod, "route", "moe.route")
    wrap(moe_mod, "lora_delta", "lora.delta")
    wrap(lora_mod, "lora_delta", "lora.delta")
    wrap(train_mod, "backward", "numerics.backward", on_call=counters.on_backward)
    wrap(optim_mod.Adam, "step", "optim.step")
    wrap(multitask_mod, "multi_forward", "multitask.forward")
    wrap(ckpt_mod, "read_records", "checkpoint.read")
    wrap(ckpt_mod, "build_model", "checkpoint.rebuild")


def per_layer(setup, meas, m, ck, ledger, counters, census, untraced_tps) -> dict:
    """Per-layer metrics of a traced run: per op unless named otherwise."""
    ops = m["ops"]

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    traced_tps = m["tokens"] / sum(m["op_s"])
    root = meas.total("train.run") + meas.total("bench.op")
    base_bytes, per_set_bytes = census
    return {
        "model.attention_ms": (per_op_ms(meas.total("model.attention")), "ms"),
        "model.attention_self_ms": (per_op_ms(meas.self_time("model.attention")), "ms"),
        "model.forward_self_ms": (per_op_ms(meas.self_time("model.forward")), "ms"),
        "model.loss_self_ms": (per_op_ms(meas.self_time("model.loss")), "ms"),
        "moe.block_ms": (per_op_ms(meas.total("moe.block")), "ms"),
        "moe.block_self_ms": (per_op_ms(meas.self_time("moe.block")), "ms"),
        "moe.route_ms": (per_op_ms(meas.total("moe.route")), "ms"),
        "lora.delta_ms": (per_op_ms(meas.total("lora.delta")), "ms"),
        "lora.delta_calls": (meas.calls("lora.delta") / ops, "count"),
        "numerics.backward_ms": (per_op_ms(meas.total("numerics.backward")), "ms"),
        "numerics.tape_nodes": (counters.tape_nodes / ops, "count"),
        "numerics.tape_bytes": (counters.tape_bytes / ops, "bytes"),
        "optim.step_ms": (per_op_ms(meas.total("optim.step")), "ms"),
        "tasks.batch_ms": (per_op_ms(meas.total("tasks.batch")), "ms"),
        "train.loop_self_ms": (per_op_ms(meas.self_time("train.run")), "ms"),
        "multitask.set_forward_ms": (per_op_ms(meas.total("multitask.forward")
                                               - meas.self_time("multitask.forward")), "ms"),
        "multitask.forward_self_ms": (per_op_ms(meas.self_time("multitask.forward")), "ms"),
        "multitask.base_bytes": (base_bytes, "bytes"),
        "multitask.per_set_bytes": (per_set_bytes, "bytes"),
        "checkpoint.read_ms": (ck.total("checkpoint.read") * 1e3 / TRACED_REPS, "ms"),
        "checkpoint.rebuild_ms": (ck.total("checkpoint.rebuild") * 1e3 / TRACED_REPS, "ms"),
        "tasks.generate_ms": (setup.total("tasks.generate") * 1e3 / TRACED_REPS, "ms"),
        "model.build_ms": (setup.total("model.build") * 1e3 / TRACED_REPS, "ms"),
        "moe.base_flops": (ledger.total(source="base") / ops, "flop"),
        "moe.lora_flops": (ledger.total(source="lora") / ops, "flop"),
        "moe.router_flops": (ledger.total(source="router") / ops, "flop"),
        "model.other_flops": (ledger.total(source="other") / ops, "flop"),
        "moe.load_std": (m["load_std"], "fraction"),
        "trace.op_ms": (per_op_ms(root), "ms"),
        "trace.overhead_pct": (100.0 * (untraced_tps - traced_tps) / untraced_tps, "%"),
    }


def check_flops(ledger, counters: TraceCounters, checks: Checks) -> None:
    """The traced expert-block counts equal bench.count_flops, per layer."""
    traced = {key: n for key, n in ledger.counts.items()
              if key[2] in (bench_mod.BASE, bench_mod.LORA, bench_mod.ROUTER)}
    checks.expect(bool(traced) and traced == counters.expected.counts,
                  f"traced expert-block flops {traced} != analytic {counters.expected.counts}")


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """One benchmark run; returns metrics, sample counts and the checks."""
    checks = Checks()
    session = SESSIONS[wl.kind](wl, seed, checks)
    if not trace:
        session.setup()  # warm-up, untimed
        m = session.measure((1 - 2 * SAMPLE_SHARE) * seconds, MIN_TIMED_OPS)
        session.verify()
        setup_s = _repeat(session.setup, SAMPLE_SHARE * seconds)
        trips = _repeat(lambda: checkpoint_round_trip(session, workdir, checks),
                        SAMPLE_SHARE * seconds)
        metrics, samples = end_to_end(m, setup_s, trips)
        return {"metrics": metrics, "samples": samples, "ops": m["ops"] + len(trips),
                "checks": checks}

    session.setup()
    untraced = session.measure(seconds / 2, 1)
    untraced_tps = untraced["tokens"] / sum(untraced["op_s"])
    tracer, counters = Tracer(), TraceCounters(session.config)
    ledger = bench_mod.FlopLedger()
    install_tracer(tracer, counters)
    session.op_span = lambda: tracer.span("bench.op")
    try:
        for _ in range(TRACED_REPS):
            session.setup()
        setup = tracer.take()
        with ledger.capture():
            m = session.measure(seconds / 2, 1)
        meas = tracer.take()
        for _ in range(TRACED_REPS):
            checkpoint_round_trip(session, workdir, checks)
        ck = tracer.take()
    finally:
        tracer.uninstall()
    session.verify()
    check_flops(ledger, counters, checks)
    metrics = per_layer(setup, meas, m, ck, ledger, counters, session.census(), untraced_tps)
    return {"metrics": metrics, "samples": {}, "ops": untraced["ops"] + m["ops"] + TRACED_REPS,
            "checks": checks}
