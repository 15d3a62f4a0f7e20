"""Span tracing around fedprof's public functions, installed from outside.

Each wrapped function is swapped in the namespace its callers look it up in
(``attack`` imports ``realize_distribution`` by name, so ``attack``'s copy is
the one replaced; ``PreferenceProfiler.__call__`` is replaced on the class).
A call records a span ``[name, start, end, parent]`` in memory; ``parent`` is
the index of the enclosing span or -1.  Count callbacks add work counters
(rows, samples, models) next to the spans.  Nothing is written until the run
ends, and :meth:`Tracer.layer_metrics` reduces the spans to per-layer numbers.
"""

from __future__ import annotations

import hashlib
import inspect
import statistics
import time
from collections import Counter
from functools import wraps
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._sens_inputs: set = set()

    # -- recording ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(counts, bound_args, result)`` runs after a successful call
        with the call's arguments bound to the original signature.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if count else None
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(owner, attr, traced)

    def install(self, fedprof) -> None:
        """Wrap the public entry points of harness, data, nn, fedsim and attack."""
        harness, data, nn, fedsim, attack = (
            fedprof.harness, fedprof.data, fedprof.nn, fedprof.fedsim, fedprof.attack)
        self.wrap(harness, "run_experiment", "harness.run_experiment")
        for fn in ("stage_data", "run_offline", "run_online"):
            self.wrap(harness, fn, f"harness.{fn}")
        self.wrap(harness, "persist_run", "harness.persist_run", _count_persist_bytes)

        self.wrap(data, "make_synthetic", "data.make_synthetic")
        self.wrap(data, "build_federation", "data.build_federation")
        self.wrap(attack, "realize_distribution", "data.realize_distribution")

        self.wrap(nn, "train", "nn.train", _count_train_samples)
        self.wrap(nn, "backward", "nn.backward", _count_rows("nn.backward.rows"))
        self.wrap(nn, "accuracy", "nn.accuracy", _count_rows("nn.accuracy.rows"))
        self.wrap(nn, "predict_logits", "nn.predict_logits")
        self.wrap(nn, "sgd_step", "nn.sgd_step")
        self.wrap(nn, "dp_sgd_step", "nn.dp_sgd_step", _count_dp_examples)

        self.wrap(fedsim, "run_round", "fedsim.run_round")
        self.wrap(fedsim, "fedavg", "fedsim.fedavg", _count_fedavg_models)

        self.wrap(attack, "train_shadows", "attack.train_shadows", _count_shadows_kept)
        self.wrap(attack, "build_meta_dataset_federated", "attack.build_meta_dataset_federated")
        self.wrap(attack, "train_meta", "attack.train_meta")
        self.wrap(attack.PreferenceProfiler, "__call__", "attack.hook")
        self.wrap(attack, "extract_sensitivity", "attack.extract_sensitivity",
                  self._count_sensitivity_input)
        self.wrap(attack, "select_partners", "attack.select_partners")
        self.wrap(attack, "profile_round", "attack.profile_round")

    def _count_sensitivity_input(self, counts, args, result) -> None:
        digest = hashlib.blake2b(args["pv"].values.tobytes(), digest_size=16).digest()
        self._sens_inputs.add(digest)

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metric values keyed by name (see the benchmark README)."""
        spans = self.spans
        calls = Counter(s[0] for s in spans)
        inclusive = Counter()
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
            inclusive[s[0]] += s[2] - s[1]

        def self_time(name):
            return sum(s[2] - s[1] - child_time[i]
                       for i, s in enumerate(spans) if s[0] == name)

        def under(name, parent_name):
            return sum(s[2] - s[1] for s in spans
                       if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        c = self.counts
        rounds = [s[2] - s[1] for s in spans if s[0] == "fedsim.run_round"]
        sens_calls = calls["attack.extract_sensitivity"]
        return {
            "harness.stage_data.s": inclusive["harness.stage_data"],
            "harness.run_offline.s": inclusive["harness.run_offline"],
            "harness.run_online.s": inclusive["harness.run_online"],
            "harness.persist_run.s": inclusive["harness.persist_run"],
            "harness.persist_run.bytes": c["harness.persist_run.bytes"],
            "data.make_synthetic.s": inclusive["data.make_synthetic"],
            "data.build_federation.s": inclusive["data.build_federation"],
            "data.realize_distribution.calls": calls["data.realize_distribution"],
            "attack.shadow_accept_ratio": rate(c["attack.train_shadows.kept"],
                                               calls["data.realize_distribution"]),
            "nn.train.calls": calls["nn.train"],
            "nn.train.samples": c["nn.train.samples"],
            "nn.train.s": inclusive["nn.train"],
            "nn.train.samples_per_s": rate(c["nn.train.samples"], inclusive["nn.train"]),
            "nn.backward.calls": calls["nn.backward"],
            "nn.backward.rows": c["nn.backward.rows"],
            "nn.backward.s": inclusive["nn.backward"],
            "nn.backward.rows_per_s": rate(c["nn.backward.rows"], inclusive["nn.backward"]),
            "nn.accuracy.rows": c["nn.accuracy.rows"],
            "nn.accuracy.s": inclusive["nn.accuracy"],
            "nn.predict_logits.calls": calls["nn.predict_logits"],
            "nn.sgd_step.calls": calls["nn.sgd_step"],
            "nn.dp_sgd_step.calls": calls["nn.dp_sgd_step"],
            "nn.dp_sgd_step.examples": c["nn.dp_sgd_step.examples"],
            "nn.dp_sgd_step.s": inclusive["nn.dp_sgd_step"],
            "fedsim.run_round.calls": calls["fedsim.run_round"],
            "fedsim.run_round.p50_s": statistics.median(rounds) if rounds else 0.0,
            "fedsim.run_round.self_s": self_time("fedsim.run_round"),
            "fedsim.local_train.s": under("nn.train", "fedsim.run_round"),
            "fedsim.eval.s": under("nn.accuracy", "fedsim.run_round"),
            "fedsim.fedavg.calls": calls["fedsim.fedavg"],
            "fedsim.fedavg.models": c["fedsim.fedavg.models"],
            "fedsim.fedavg.s": inclusive["fedsim.fedavg"],
            "attack.train_shadows.s": inclusive["attack.train_shadows"],
            "attack.build_meta_dataset_federated.s":
                inclusive["attack.build_meta_dataset_federated"],
            "attack.train_meta.s": inclusive["attack.train_meta"],
            "attack.hook.s": inclusive["attack.hook"],
            "attack.hook.self_s": self_time("attack.hook"),
            "attack.extract_sensitivity.calls": sens_calls,
            "attack.extract_sensitivity.s": inclusive["attack.extract_sensitivity"],
            "attack.extract_sensitivity.unique_ratio": rate(len(self._sens_inputs), sens_calls),
            "attack.select_partners.s": inclusive["attack.select_partners"],
            "attack.profile_round.calls": calls["attack.profile_round"],
        }


def _count_rows(key):
    def count(counts, args, result):
        counts[key] += len(args["X"])
    return count


def _count_train_samples(counts, args, result) -> None:
    counts["nn.train.samples"] += len(args["X"]) * args["cfg"].epochs


def _count_dp_examples(counts, args, result) -> None:
    counts["nn.dp_sgd_step.examples"] += len(args["per_example_grads"])


def _count_fedavg_models(counts, args, result) -> None:
    counts["fedsim.fedavg.models"] += len(args["models"])


def _count_shadows_kept(counts, args, result) -> None:
    counts["attack.train_shadows.kept"] += len(result)


def _count_persist_bytes(counts, args, result) -> None:
    counts["harness.persist_run.bytes"] += sum(
        p.stat().st_size for p in Path(args["out_dir"]).iterdir() if p.is_file())
