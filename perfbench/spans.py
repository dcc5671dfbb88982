"""In-memory span tracing around the library's public functions.

``Tracer.install`` replaces public module attributes of ``qsaffine`` with
timing wrappers and ``Tracer.remove`` puts the originals back.  A function
that another library module imported by name (``selfaffine.encode``,
``cli.decode``, ``extrema.evaluate``, ...) is replaced under every name
that refers to it, so calls made inside the library are seen as well.
Nothing inside ``src/`` is edited: the wrappers observe the library from
outside, and counters are read only from arguments and return values.

Each call records a span ``(key, start_ns, end_ns, parent, op)``; ``parent``
is the index of the enclosing span (-1 at top level) and ``op`` the
benchmark operation that caused it.  A key's self time is its spans'
durations minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from qsaffine import cli, codec, config, extrema, holder, selfaffine, svgplot

HOLDER_FUNCTIONS = (
    "global_exponent",
    "local_exponent_unary",
    "local_exponent_binary",
    "almost_everywhere_exponent",
    "empirical_exponent",
    "singularity_predicate",
    "nowhere_differentiable_predicate",
)


def _string_digits(d) -> int:
    return len(d.prefix) + len(d.period or ())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._bounds_seen: list[object] = []
        #: (x, weights, result) of the first encode calls, for the exact check.
        self.encode_sample: list[tuple[float, tuple[float, ...], object]] = []
        self.encode_sample_size = 128

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._bounds_seen.clear()
        self.encode_sample.clear()

    def _wrap(self, key: str, fn, count=None):
        tracer = self
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            counts[key + ".calls"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[key + ".failures"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (key, start, end, parent, tracer.op)
            if count is not None:
                count(result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "qsaffine" and not name.startswith("qsaffine."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- counters read from arguments and results ------------------------

    def _count_encode(self, result, args) -> None:
        self.counts["codec.encode.digits"] += len(result.prefix)
        if len(self.encode_sample) < self.encode_sample_size:
            self.encode_sample.append((float(args[0]), tuple(args[1].q), result))

    def _count_decode(self, result, args) -> None:
        self.counts["codec.decode.digits"] += _string_digits(args[0])

    def _count_evaluate(self, result, args) -> None:
        self.counts["selfaffine.evaluate.digits"] += _string_digits(args[1])

    def _count_bounds(self, result, args) -> None:
        # A cached BoundsPair is returned again on later calls: count its
        # iterations once.
        if not any(b is result for b in self._bounds_seen):
            self._bounds_seen.append(result)
            self.counts["selfaffine.global_bounds.iterations"] += result.iterations

    def _count_rows(self, result, args) -> None:
        self.counts["selfaffine.sample.rows"] += len(result)

    def _count_preimage(self, result, args) -> None:
        self.counts["extrema.preimage_digits.digits"] += len(result.prefix)

    def _count_intervals(self, result, args) -> None:
        self.counts["extrema.cantor_construction.intervals"] += sum(len(st) for st in result)

    def _count_bytes(self, result, args) -> None:
        self.counts["svgplot.bytes"] += len(result.encode("utf-8"))

    # -- install / remove -----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        plan = [
            (codec, "encode", "codec.encode", self._count_encode),
            (codec, "decode", "codec.decode", self._count_decode),
            (selfaffine, "evaluate", "selfaffine.evaluate", self._count_evaluate),
            (selfaffine, "evaluate_at", "selfaffine.evaluate_at", None),
            (selfaffine, "global_bounds", "selfaffine.global_bounds", self._count_bounds),
            (selfaffine, "sample", "selfaffine.sample", self._count_rows),
            (extrema, "closed_form_max", "extrema.closed_form_max", None),
            (extrema, "closed_form_min", "extrema.closed_form_min", None),
            (extrema, "maxima_set", "extrema.maxima_set", None),
            (extrema, "moran_dimension", "extrema.moran_dimension", None),
            (extrema, "non_invariance_certificate", "extrema.non_invariance_certificate", None),
            (extrema, "preimage_digits", "extrema.preimage_digits", self._count_preimage),
            (extrema, "cantor_construction", "extrema.cantor_construction", self._count_intervals),
            (config, "load_config", "config.load_config", None),
            (cli, "build_analysis", "cli.build_analysis", None),
            (cli, "main", "cli.main", None),
            (svgplot, "curve_svg", "svgplot.curve_svg", self._count_bytes),
            (svgplot, "bands_svg", "svgplot.bands_svg", self._count_bytes),
        ]
        plan += [(holder, name, "holder", None) for name in HOLDER_FUNCTIONS]
        for module, attr, key, count in plan:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._wrap(key, original, count))

        # SystemConfig.system builds and validates a system; the first,
        # cached bounds computation is forced inside it so that it is
        # charged to selfaffine.global_bounds wherever it would happen.
        original_system = config.SystemConfig.system

        def build_system(cfg):
            system = original_system(cfg)
            selfaffine.global_bounds(system)
            return system

        self._restore.append((config.SystemConfig, "system", original_system))
        config.SystemConfig.system = self._wrap("config.system", build_system)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------

    def times_ms(self) -> dict[str, float]:
        """Inclusive ``<key>.ms`` (outermost span per key) and ``<key>.self_ms``."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for key, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        incl: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for i, (key, start, end, parent, _) in enumerate(spans):
            own[key] += end - start - child_ns[i]
            p = parent
            while p >= 0 and spans[p][0] != key:
                p = spans[p][3]
            if p < 0:
                incl[key] += end - start
        out = {f"{k}.ms": v / 1e6 for k, v in incl.items()}
        out.update({f"{k}.self_ms": v / 1e6 for k, v in own.items()})
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (key, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": key, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
