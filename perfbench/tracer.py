"""Per-layer tracing from outside the program.

The tracer wraps every public function of the nine ``selftest_lab`` modules
and records one span per call: name, start, end, parent span and job id.
Nothing under ``src/`` knows about it.  A module that binds a function with
``from .games import correlation_of`` holds its own reference, so every
module attribute that is one of the wrapped functions is replaced, not only
the one in the defining module.  Local imports inside functions (such as the
one in ``lab.seesaw_state``) read the defining module at call time and see
the wrapper too.

Calls made on other threads (the ``repro robustness`` pool) are counted but
get no span: their time stays in the caller's self time, as wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("linalg", "games", "schmidt", "metrics", "naimark", "dilation", "lab", "serialize", "cli")

# functions whose own time and call counts are reported; module totals cover
# every public function of the module
FUNCTIONS = {
    "games": ("validate_strategy", "correlation_of", "game_operator", "win_probability"),
    "schmidt": ("schmidt_decompose", "restrict", "purify", "marginals"),
    "metrics": ("strategy_metrics",),
    "naimark": ("naimark_family", "naimark_strategy", "verify_dilation"),
    "dilation": (
        "dilation_residuals",
        "matrix_form_residual",
        "extraction_residual",
        "vector_witness_from_matrix_form",
    ),
    "lab": ("eigengap_analysis", "rank_deficient_combination", "higher_order_moment"),
    # emit_report hands the whole text to dumps_json, so that is where its time shows
    "serialize": ("parse_strategy_file", "emit_report", "dumps_json", "strategy_to_jsonable"),
    "linalg": ("apply_factors", "permute_systems", "hermitian_eig", "psd_sqrt", "partial_trace"),
}

# spans of a fresh CLI process that no function covers: spawn until the
# package is imported, and from the end of the command until the process has
# been reaped; both count toward the cli module's self time
IMPORT_SPAN = "cli.import"
EXIT_SPAN = "cli.exit"
PROCESS_SPANS = (IMPORT_SPAN, EXIT_SPAN)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for mod in MODULES:
        out += [(f"{mod}.self_s", "s/job"), (f"{mod}.calls", "count/job"), (f"{mod}.errors", "count/job")]
    out += [("cli.import_s", "s/job"), ("cli.exit_s", "s/job")]
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.self_s", "s/job"), (f"{mod}.{fn}.calls", "count/job")]
    out += [
        ("trace.overhead_frac", "fraction"),
        ("trace.unaccounted_frac", "fraction"),
        ("trace.job_s", "s/job"),
    ]
    return out


class Tracer:
    """Span recorder over the ``selftest_lab`` modules, active between install and uninstall."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, job, error]
        self.job = -1
        self.thread_calls: Counter = Counter()
        self.thread_errors: Counter = Counter()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stack: list[int] = []
        self._patches = self._build_patches()

    def _build_patches(self):
        pkg = importlib.import_module("selftest_lab")
        mods = [importlib.import_module(f"selftest_lab.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
        patches = []
        for mod in [pkg, *mods]:
            for name, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, name, obj, hit[1]))
        return patches

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return self._thread_call(fn, name, args, kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, False]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def _thread_call(self, fn, name, args, kwargs):
        with self._lock:
            self.thread_calls[name] += 1
        try:
            return fn(*args, **kwargs)
        except BaseException:
            with self._lock:
                self.thread_errors[name] += 1
            raise

    def install(self):
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def add_external(self, payload: dict, job: int, reaped: float):
        """Merge what :meth:`dump` wrote in a child process that was reaped at ``reaped``."""
        base = len(self.spans)
        for name, start, end, parent, _, err in payload["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, job, err])
        self.spans.append([EXIT_SPAN, payload["exit_start"], reaped, -1, job, False])
        self.thread_calls.update(payload["thread_calls"])
        self.thread_errors.update(payload["thread_errors"])

    def dump(self) -> dict:
        return {
            "exit_start": perf_counter(),
            "spans": self.spans,
            "thread_calls": dict(self.thread_calls),
            "thread_errors": dict(self.thread_errors),
        }

    def write(self, path, header: dict):
        """Write a header line then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, jobs: int) -> dict[str, float]:
        """Per-job self time, calls and errors per module and listed function.

        A span's self time is its duration minus the durations of its direct
        children; children never overlap because they run on one thread.
        """
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls, errors = defaultdict(float), Counter(), Counter()
        for idx, (name, start, end, _, _, err) in enumerate(self.spans):
            own = end - start - child[idx]
            mod = name.split(".", 1)[0]
            for key in (mod, name):
                self_s[key] += own
                calls[key] += name not in PROCESS_SPANS
                errors[key] += err
        for name, n in self.thread_calls.items():
            calls[name] += n
            calls[name.split(".", 1)[0]] += n
        for name, n in self.thread_errors.items():
            errors[name] += n
            errors[name.split(".", 1)[0]] += n
        out = {}
        for mod in MODULES:
            out[f"{mod}.self_s"] = self_s[mod] / jobs
            out[f"{mod}.calls"] = calls[mod] / jobs
            out[f"{mod}.errors"] = errors[mod] / jobs
        out["cli.import_s"] = self_s[IMPORT_SPAN] / jobs
        out["cli.exit_s"] = self_s[EXIT_SPAN] / jobs
        for mod, fns in FUNCTIONS.items():
            for fn in fns:
                out[f"{mod}.{fn}.self_s"] = self_s[f"{mod}.{fn}"] / jobs
                out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"] / jobs
        return out
