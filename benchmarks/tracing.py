"""Spans and exact work counts recorded around calls into phamlab's layers.

Nothing inside ``src/`` is instrumented.  Instead, while a ``Tracer`` is
installed, the public names each module looks up from another module are
replaced by timing wrappers *where the calling module looks them up*.  The
modules import names directly (``from .critical_tracker import
critical_set``), so the wrapper for ``critical_set`` goes on
``phamlab.discriminant_products.critical_set`` and
``phamlab.degree_lab.critical_set``, not on the defining module's copy.
Leaving the ``with`` block puts every original object back.

Each span is ``(name, layer, start, end, parent, call_id)``; ``parent`` is
the index of the enclosing span (-1 for a top-level ``cli.main`` call) and
``call_id`` numbers the top-level calls.  A layer's self time is the summed
duration of its spans minus the time covered by their child spans, so the
self times of all layers add up to the time spent in top-level calls.

Two names are counted but not timed, because they are called thousands of
times per verification and a span each would distort the run:
``SparsePoly.eval_batch`` (its time stays with the caller, mostly the
tracker's Newton loop) and ``critical_tracker.track_to_phi`` (always inside
a ``critical_set`` span of the same layer).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from operator import attrgetter

LAYERS = ("cli", "closed_forms", "critical_tracker", "polyalg", "discriminant_products", "degree_lab")
KINDS = {"log_D": "D", "log_Y": "Y", "log_Omega": "Omega", "log_hessian_product": "Hessian"}

# (module looked up from, attribute, layer of the callee, timed); only names
# that the benchmark's calls reach are listed
TARGETS = (
    ("phamlab.cli", "main", "cli", True),
    ("phamlab.cli", "verify_all", "degree_lab", True),
    ("phamlab.cli", "cluster_scaling", "degree_lab", True),
    ("phamlab.cli", "default_line", "critical_tracker", True),
    ("phamlab.cli", "jittered_line", "critical_tracker", True),
    ("phamlab.cli", "homogeneous_report", "closed_forms", True),
    ("phamlab.closed_forms.MultiplicitySet", "compute", "closed_forms", True),
    ("phamlab.degree_lab", "estimate_from_trace", "degree_lab", True),
    ("phamlab.degree_lab", "evaluate_trace", "discriminant_products", True),
    ("phamlab.degree_lab", "critical_set", "critical_tracker", True),
    ("phamlab.degree_lab", "l_value", "closed_forms", True),
    ("phamlab.degree_lab", "caustic_multiplicity", "closed_forms", True),
    ("phamlab.degree_lab", "maxwell_multiplicity", "closed_forms", True),
    ("phamlab.degree_lab", "mixed_stokes_multiplicity", "closed_forms", True),
    ("phamlab.degree_lab", "pure_stokes_multiplicity", "closed_forms", True),
    ("phamlab.discriminant_products", "critical_set", "critical_tracker", True),
    ("phamlab.discriminant_products", "line_function", "critical_tracker", True),
    ("phamlab.discriminant_products", "binom12", "closed_forms", True),
    ("phamlab.discriminant_products", "binom22", "closed_forms", True),
    ("phamlab.discriminant_products", "log_D", "discriminant_products", True),
    ("phamlab.discriminant_products", "log_Y", "discriminant_products", True),
    ("phamlab.discriminant_products", "log_Omega", "discriminant_products", True),
    ("phamlab.discriminant_products", "log_hessian_product", "discriminant_products", True),
    ("phamlab.discriminant_products", "hessian_det_at", "polyalg", True),
    ("phamlab.critical_tracker", "track_to_phi", "critical_tracker", False),
    ("phamlab.polyalg.SparsePoly", "eval_batch", "polyalg", False),
)

_log_magnitudes = attrgetter("log_magnitude")


def _resolve(path: str):
    """Import ``a.b.c`` as a module, or as attribute ``C`` of module ``a.b``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory spans and counters for one traced run.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals even when the body raises.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent, call_id, child_time]
        self.counts: Counter = Counter()
        self.check_failures: list[str] = []
        self._stack: list[int] = []
        self._top_calls = 0
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner_path, attr, layer, timed in TARGETS:
                owner = _resolve(owner_path)
                original = vars(owner)[attr]
                is_classmethod = isinstance(original, classmethod)
                func = original.__func__ if is_classmethod else original
                name = f"{owner_path.rsplit('.', 1)[-1]}.{attr}"
                wrapper = self._timed(func, name, layer) if timed else self._counted(func, name)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counted(self, func, name: str):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _timed(self, func, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attr = name.rsplit(".", 1)[-1]
        checks_trace = attr == "evaluate_trace"
        kind = KINDS.get(attr)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._top_calls += 1
            span = [name, layer, 0.0, 0.0, parent, self._top_calls, 0.0]
            stack.append(len(spans))
            spans.append(span)
            before = self.counts.copy() if checks_trace else None
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][6] += span[3] - span[2]
            if kind is not None:
                self.counts[f"{kind}_factors"] += len(result.factors)
                self.counts["zero_factors"] += list(map(_log_magnitudes, result.factors)).count(None)
            elif checks_trace:
                self._check_factor_counts(result, args[0] if args else kwargs["line"], before)
            return result

        return wrapper

    def _check_factor_counts(self, trace, line, before: Counter) -> None:
        """Each kind's recorded factors must equal factor_count(kind, mu) x samples."""
        from phamlab.discriminant_products import factor_count

        samples = len(trace.epsilon_samples)
        for kind in trace.kinds():
            key = f"{kind.value.split('_')[0]}_factors"
            seen = self.counts[key] - before[key]
            expected = factor_count(kind, line.a.mu) * samples
            if seen != expected:
                self.check_failures.append(
                    f"{kind.value}: {seen} factors recorded, expected {expected} for mu={line.a.mu}"
                )

    # -- reports -------------------------------------------------------------

    def _spans(self, call_id):
        return (span for span in self.spans if call_id is None or span[5] == call_id)

    def self_times(self, call_id=None) -> dict[str, float]:
        """Seconds spent in each layer itself, for one top-level call or all."""
        out = dict.fromkeys(LAYERS, 0.0)
        for _, layer, start, end, _, _, child in self._spans(call_id):
            out[layer] += end - start - child
        return out

    def inclusive(self, *names: str, call_id=None) -> float:
        return sum(
            (end - start for name, _, start, end, *_ in self._spans(call_id) if name in names), 0.0
        )

    def calls(self, *names: str) -> int:
        return sum(1 for span in self.spans if span[0] in names)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (s) and exact counts from this tracer's spans."""
        counts, inclusive = self.counts, self.inclusive
        metrics = {f"{layer}.self_s": t for layer, t in self.self_times().items()}
        for log_name, kind in KINDS.items():
            metrics[f"discriminant_products.{kind}_s"] = inclusive(f"discriminant_products.{log_name}")
            metrics[f"discriminant_products.{kind}_factors"] = counts[f"{kind}_factors"]
        omega_s = metrics["discriminant_products.Omega_s"]
        metrics["discriminant_products.Omega_factors_per_s"] = (
            counts["Omega_factors"] / omega_s if omega_s else 0.0
        )
        metrics["discriminant_products.zero_factors"] = counts["zero_factors"]
        metrics["polyalg.hessian_det_s"] = inclusive("discriminant_products.hessian_det_at")
        metrics["polyalg.hessian_dets"] = self.calls("discriminant_products.hessian_det_at")
        metrics["polyalg.eval_batch_calls"] = counts["SparsePoly.eval_batch"]
        critical = ("discriminant_products.critical_set", "degree_lab.critical_set")
        metrics["critical_tracker.critical_set_s"] = inclusive(*critical)
        metrics["critical_tracker.sets"] = self.calls(*critical)
        metrics["critical_tracker.tracked_sets"] = counts["critical_tracker.track_to_phi"]
        metrics["degree_lab.estimate_s"] = inclusive("degree_lab.estimate_from_trace")
        metrics["degree_lab.cluster_s"] = inclusive("cli.cluster_scaling")
        metrics["cli.calls"] = self.calls("cli.main")
        # closed-form spans never nest: each closed form calls the others
        # through its own module, which carries no wrappers
        closed = [span for span in self.spans if span[1] == "closed_forms"]
        metrics["closed_forms.s"] = sum((end - start for _, _, start, end, *_ in closed), 0.0)
        metrics["closed_forms.calls"] = len(closed)
        return metrics

    def dump(self, handle, **extra) -> None:
        """Write the spans to ``handle`` as JSON lines, each with ``extra`` added."""
        keys = ("name", "layer", "start", "end", "parent", "call_id")
        for span in self.spans:
            handle.write(json.dumps({**dict(zip(keys, span)), **extra}) + "\n")
