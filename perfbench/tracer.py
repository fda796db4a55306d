"""Spans and memo gauges recorded from wrappers around heckext entry points.

`Tracer.install()` replaces each entry point listed in LAYERS with a
wrapper, in every heckext module that bound it by name and on the owning
class for methods; `uninstall()` puts the originals back.  The program's
own files are not edited.

Each wrapped call is a span (name, start, end, parent span, op id).  Self
time is a span's duration minus the time covered by its direct child
spans, accumulated on a stack as calls return, so recursion such as
multiply -> _pair -> multiply is charged once per level.  Counts and self
times are aggregated for every call; the first SPAN_LOG_CAP spans are
also kept in preallocated arrays and written out by `write_spans`.

The two memo gauges read the memo attributes `ExtAlgebra._pair_cache`
and `ExtAlgebra._letter_cache`.  A lookup is a miss exactly when the memo
grows during the call, since a hit returns the stored value and computes
nothing.  If the program renames or re-keys these memos, re-point
`PAIR_MEMO` and `LETTER_MEMO`; that change touches only the benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

SPAN_LOG_CAP = 100_000
PAIR_MEMO = "_pair_cache"
LETTER_MEMO = "_letter_cache"
PAIR_ROUTES = ("zero", "left", "right", "good", "bad11", "bad21", "bad12")

# (layer, module, owner, attribute); owner None means a module function.
# A layer may have several entry points.
LAYERS = [
    ("weyl.mul", "heckext.weyl", "WeylGroup", "mul"),
    ("hecke.mul", "heckext.hecke", "HeckeAlgebra", "mul"),
    ("graded.act_left", "heckext.graded", "ExtAlgebra", "act_left"),
    ("graded.act_right", "heckext.graded", "ExtAlgebra", "act_right"),
    ("graded.involution", "heckext.graded", "ExtAlgebra", "involution"),
    ("graded.letter", "heckext.graded", "ExtAlgebra", "_letter_on_symbol"),
    ("product.multiply", "heckext.product", None, "multiply"),
    ("product.pair", "heckext.product", None, "_pair"),
    ("sections.section", "heckext.sections", None, "section_deg2"),
    ("sections.section", "heckext.sections", None, "section_deg3"),
    ("sections.section", "heckext.sections", None, "section_deg3_symmetric"),
    ("sections.evaluate", "heckext.sections", "TensorExpression", "evaluate"),
    ("presentation.evaluate", "heckext.presentation", None, "evaluate"),
    ("presentation.word_for_basis", "heckext.presentation", None, "word_for_basis"),
    ("grammar.parse", "heckext.grammar", None, "parse_element"),
    ("grammar.render", "heckext.grammar", None, "render_element"),
]
LAYER_NAMES = list(dict.fromkeys(layer for layer, *_ in LAYERS))
GAUGES = {"graded.letter": LETTER_MEMO, "product.pair": PAIR_MEMO}


def pair_route(alg, a, b) -> str:
    """The dispatch route of the product.py docstring that a pair takes."""
    da, db = a.degree, b.degree
    if da + db >= 4:
        return "zero"
    if da == 0:
        return "left"
    if db == 0:
        return "right"
    if alg.weyl.lengths_add(a.support, b.support):
        return "good"
    return {(1, 1): "bad11", (2, 1): "bad21"}.get((da, db), "bad12")


class Tracer:
    def __init__(self):
        self.names = LAYER_NAMES + ["op"]
        self.ids = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.misses = {name: 0 for name in GAUGES}
        self.entries = {name: 0 for name in GAUGES}
        self.routes = dict.fromkeys(PAIR_ROUTES, 0)
        self.render_chars = 0
        # frame = [time covered by child spans, span index]; the bottom one is a sentinel
        self.stack = [[0.0, -1]]
        self.op_id = -1
        self.spans = 0
        self.log_name = array("i", bytes(4 * SPAN_LOG_CAP))
        self.log_parent = array("i", bytes(4 * SPAN_LOG_CAP))
        self.log_op = array("i", bytes(4 * SPAN_LOG_CAP))
        self.log_start = array("d", bytes(8 * SPAN_LOG_CAP))
        self.log_end = array("d", bytes(8 * SPAN_LOG_CAP))
        self._patched: list[tuple[object, str, object]] = []
        self._root = self._wrap("op", lambda fn, *args: fn(*args))

    # --- recording ---

    def _wrap(self, layer: str, fn):
        lid = self.ids[layer]
        stack, calls, self_s = self.stack, self.calls, self.self_s
        log_name, log_parent, log_op = self.log_name, self.log_parent, self.log_op
        log_start, log_end = self.log_start, self.log_end
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            idx = tracer.spans
            tracer.spans = idx + 1
            parent = stack[-1]
            frame = [0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                calls[lid] += 1
                self_s[lid] += dur - frame[0]
                if idx < SPAN_LOG_CAP:
                    log_name[idx] = lid
                    log_parent[idx] = parent[1]
                    log_op[idx] = tracer.op_id
                    log_start[idx] = start
                    log_end[idx] = end

        return span

    def _gauge(self, layer: str, fn):
        memo = GAUGES[layer]
        inner = self._wrap(layer, fn)
        tracer = self
        is_pair = layer == "product.pair"

        def gauged(alg, *args):
            cache = getattr(alg, memo)
            before = len(cache)
            out = inner(alg, *args)
            after = len(cache)
            if after != before:
                tracer.misses[layer] += 1
                if is_pair:
                    tracer.routes[pair_route(alg, *args)] += 1
            if after > tracer.entries[layer]:
                tracer.entries[layer] = after
            return out

        return gauged

    def _render(self, fn):
        inner = self._wrap("grammar.render", fn)
        tracer = self

        def rendered(*args, **kwargs):
            out = inner(*args, **kwargs)
            tracer.render_chars += len(out)
            return out

        return rendered

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op (a request, a session op or a suite) as a root span."""
        self.op_id = op_id
        return self._root(fn, *args)

    # --- installation ---

    def install(self) -> None:
        for layer, module_name, owner, attr in LAYERS:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrapper(layer, original))
                self._patched.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(layer, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "heckext":
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def _wrapper(self, layer: str, fn):
        if layer in GAUGES:
            return self._gauge(layer, fn)
        if layer == "grammar.render":
            return self._render(fn)
        return self._wrap(layer, fn)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    # --- results ---

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in LAYER_NAMES:
            lid = self.ids[name]
            out[f"{name}.calls"] = self.calls[lid]
            out[f"{name}.self_s"] = self.self_s[lid]
        for name in GAUGES:
            calls = self.calls[self.ids[name]]
            out[f"{name}.hit_ratio"] = 1.0 - self.misses[name] / calls if calls else 0.0
            out[f"{name}.entries"] = self.entries[name]
        for route, count in self.routes.items():
            out[f"product.pair.miss.{route}"] = count
        out["grammar.render.chars"] = self.render_chars
        return out

    def write_spans(self, path) -> None:
        """A header line, then one line per kept span: [name, start, end, parent, op id].

        `parent` is the index of the parent span in this file, -1 for a root.
        """
        kept = min(self.spans, SPAN_LOG_CAP)
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": self.spans, "kept": kept}) + "\n")
            for i in range(kept):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.log_name[i]],
                            self.log_start[i],
                            self.log_end[i],
                            self.log_parent[i],
                            self.log_op[i],
                        ]
                    )
                    + "\n"
                )
