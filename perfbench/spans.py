"""Spans around the benchmark's calls into thomplink, and the per-layer table.

A span is ``(id, name, start, end, parent, item, pass, error)``.  The
benchmark opens one ``item`` span per corpus item and one layer span per
library call inside it; spans stay in memory until the run writes them out.
A span's self time is its duration minus the durations of its direct
children, so nested calls are not counted twice.
"""

from __future__ import annotations

from time import perf_counter

LAYERS = (
    "pairs",
    "links.direct",
    "links.tait",
    "links.simplify",
    "bracket",
    "conway",
    "strand.reduce",
    "strand.code",
)


def _leaves(args, out):
    yield "leaves_out", out.leaf_count


def _crossings(args, out):
    yield "crossings_out", out.crossing_count


def _simplify(args, out):
    yield "crossings_in", args[0].crossing_count
    yield "crossings_out", out.diagram.crossing_count
    yield "r1_moves", out.r1_moves
    yield "r2_moves", out.r2_moves
    yield "removed_unknots", out.removed_unknots


def _bracket(args, out):
    yield "crossings_in", args[0].crossing_count
    yield "max_crossings_in", args[0].crossing_count
    yield "terms_out", len(out.coeffs)


def _reduce(args, out):
    yield "splits_in", args[0].split_count
    yield "splits_out", out.split_count


def _code(args, out):
    yield "splits_in", args[0].split_count
    yield "code_chars", len(out)


# Sizes recorded per library function, keyed by the function's name; every
# value is summed over a pass except the ``max_`` ones.
SIZES = {
    "from_word": _leaves,
    "from_json": _leaves,
    "g_element": _leaves,
    "h_element": _leaves,
    "conjugate": _leaves,
    "attach_a": _leaves,
    "direct_link": _crossings,
    "medial_link": _crossings,
    "simplify": _simplify,
    "kauffman_bracket": _bracket,
    "reduce_annular": _reduce,
    "canonical_code": _code,
}

SIZE_NAMES = tuple(
    f"{layer}.{key}"
    for layer, keys in (
        ("pairs", ("leaves_out",)),
        ("links.direct", ("crossings_out",)),
        ("links.tait", ("crossings_out",)),
        ("links.simplify", ("crossings_in", "crossings_out", "r1_moves", "r2_moves", "removed_unknots")),
        ("bracket", ("crossings_in", "max_crossings_in", "terms_out")),
        ("strand.reduce", ("splits_in", "splits_out")),
        ("strand.code", ("splits_in", "code_chars")),
    )
    for key in keys
)


class NoTrace:
    """Calls straight through; used for every untraced pass."""

    @staticmethod
    def call(layer, fn, *args):
        return fn(*args)

    def begin_item(self, item):
        pass

    def end_item(self, error):
        pass


class Tracer:
    """Records a span around each call and the sizes of its input and output."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.sizes: dict[int, dict[str, int]] = {}
        self.pass_no = 0
        self._item = None
        self._item_span = None
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None, float]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, name, opened, error) -> None:
        end = perf_counter()
        sid, parent, start = opened
        self._stack.pop()
        self.spans[sid] = (sid, name, start, end, parent, self._item, self.pass_no, error)

    def call(self, layer, fn, *args):
        opened = self._open()
        try:
            out = fn(*args)
        except BaseException:
            self._close(layer, opened, True)
            raise
        self._close(layer, opened, False)
        sizer = SIZES.get(fn.__name__)
        if sizer is not None:
            bucket = self.sizes.setdefault(self.pass_no, {})
            for key, value in sizer(args, out):
                name = f"{layer}.{key}"
                if key.startswith("max_"):
                    bucket[name] = max(bucket.get(name, 0), value)
                else:
                    bucket[name] = bucket.get(name, 0) + value
        return out

    def begin_item(self, item) -> None:
        self._item = item
        self._item_span = self._open()

    def end_item(self, error: bool) -> None:
        self._close("item", self._item_span, error)
        self._item = None

    def table(self, pass_no: int) -> dict[str, float]:
        """Calls, self time, errors and sizes of every layer in one pass."""
        spans = [s for s in self.spans if s[6] == pass_no]
        child_time: dict[int, float] = {}
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        out: dict[str, float] = {}
        for layer in LAYERS + ("item",):
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for sid, name, start, end, parent, item, _, error in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time.get(sid, 0.0)
            out[f"{name}.errors"] += int(error)
        sizes = self.sizes.get(pass_no, {})
        for name in SIZE_NAMES:
            out[name] = sizes.get(name, 0)
        return out
