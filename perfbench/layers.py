"""Per-layer tracing from outside the program.

`Tracer.install` replaces layer entry points at the module attributes their
callers look up (for example `intermit.sim.is_typical`, which the decoders
call) with wrappers that time each call as a span and read counters from the
results.  A span's self time is its duration minus the time of the wrapped
spans it caused.  `Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, label, timed).  An untimed entry only counts calls: the
# golden-section search calls back into the rate objective, so a span there
# would move the objective's time out of the layer that owns it.
TARGETS = [
    ("intermit.partialdiv", "mismatch_exponent", "oracle", True),
    ("intermit.partialdiv", "pairwise_descent", "descent", True),
    ("intermit.rates", "pairwise_descent", "descent", True),
    ("intermit.rates", "grid_golden_max", "golden", False),
    ("intermit.rates", "intermittency_overhead", "overhead", True),
    ("intermit.rates", "noiseless_binary_rate", "noiseless", True),
    ("intermit.rates", "blahut_capacity", "blahut", True),
    ("intermit.insertion", "blahut_capacity", "blahut", True),
    ("intermit.insertion", "weight_class_channel", "class_build", True),
    ("intermit.insertion", "insertion_capacity", "capacity", True),  # cache misses
    ("intermit.bounds", "insertion_loss", "loss", True),
    ("intermit.cli", "c1_upper", "bounds", True),
    ("intermit.cli", "c1_limit", "bounds", True),
    ("intermit.cli", "c2_upper", "bounds", True),
    ("intermit.cli", "main", "cli", True),
    ("intermit.sim", "decode_exhaustive", "decode", True),
    ("intermit.sim", "decode_pattern", "decode", True),
    ("intermit.sim", "decode_zero_rate", "decode", True),
    ("intermit.sim", "transmit_intermittent", "channel", True),
    ("intermit.sim", "apply_dmc", "channel", True),
    ("intermit.sim", "is_typical", "typicality", True),
    ("intermit.sim", "is_cond_typical", "typicality", True),
]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # outermost spans of a label only
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.iterations_max = 0
        self._stack = []  # child time accumulated by each open span
        self._depth = defaultdict(int)
        self._saved = []

    def install(self) -> None:
        for module_name, attr, label, timed in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._span(fn, label) if timed else self._count(fn, label))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _count(self, fn, label):
        def wrapper(*args, **kwargs):
            self.calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, label):
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[label] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[label] -= 1
                if stack:
                    stack[-1][0] += elapsed
                if depth[label] == 0:
                    self.total[label] += elapsed
                self.self_time[label] += elapsed - frame[0]
                self.calls[label] += 1
            self._observe(label, result)
            return result
        return wrapper

    def _observe(self, label, result) -> None:
        if label == "blahut":
            self.counters["blahut_iterations"] += result.iterations
            self.iterations_max = max(self.iterations_max, result.iterations)
        elif label == "capacity" and self._depth["loss"]:
            self.counters["loss_misses"] += 1
        elif label == "decode" and hasattr(result, "choices_examined"):
            self.counters["patterns"] += result.choices_examined
            self.counters["second_stage"] += result.second_stage_checks
            self.counters["codeword_checks"] += result.typicality_checks

    def metrics(self) -> dict:
        """Per-layer metric values by the names BENCHMARK.json lists."""
        c, t, s = self.calls, self.total, self.self_time
        return {
            "partialdiv.oracle_calls": c["oracle"],
            "partialdiv.oracle_s": t["oracle"],
            "search.descent_calls": c["descent"],
            "search.descent_s": t["descent"],
            "search.golden_calls": c["golden"],
            "rates.overhead_calls": c["overhead"],
            "rates.overhead_s": s["overhead"],
            "rates.noiseless_rate_s": t["noiseless"],
            "blahut.calls": c["blahut"],
            "blahut.iterations": self.counters["blahut_iterations"],
            "blahut.iterations_max": self.iterations_max,
            "blahut.s": t["blahut"],
            "insertion.class_builds": c["class_build"],
            "insertion.class_build_s": t["class_build"],
            "insertion.loss_cache_hits": c["loss"] - self.counters["loss_misses"],
            "bounds.self_s": s["bounds"],
            "cli.self_s": s["cli"],
            "sim.patterns_examined": self.counters["patterns"],
            "sim.second_stage_checks": self.counters["second_stage"],
            "sim.codeword_checks": self.counters["codeword_checks"],
            "sim.decode_s": s["decode"],
            "sim.channel_s": t["channel"],
            "prob.typicality_calls": c["typicality"],
            "prob.typicality_s": t["typicality"],
        }
