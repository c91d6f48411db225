"""Run one ``mexparts`` CLI command with per-layer spans and counters.

Usage: python3 perfbench/traced.py OUT_PREFIX ARG...

Behaves like ``python3 -m mexparts.cli ARG...`` (same stdout, same exit
code) but first wraps the layer entry points of ``mexparts`` so that each
call records a span (name, start, end, parent) in memory.  At exit it
writes ``OUT_PREFIX.spans.jsonl`` (one span per line) and
``OUT_PREFIX.layers.json`` (the per-layer metrics derived from the spans
and counters).  No file under ``src/`` is edited: the wrappers replace
module attributes, at every module that imported the name.

Hot scalar functions (``partition_count``, ``mex_of``) are deliberately not
wrapped; their time falls into the self time of the enclosing span.
"""

from __future__ import annotations

import json
import sys
import time


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.  ``spans`` is a list of
    ``(name, start, end, parent_index)`` with parent -1 for a root."""
    children = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _mul_ops(a, b) -> int:
    # multiply-adds of the schoolbook product: for each nonzero term j of the
    # sparser factor, one pass over the n + 1 - j overlapping terms
    n = min(a.trunc_order, b.trunc_order)
    nz_a = [j for j, c in enumerate(a.coeffs[: n + 1]) if c]
    nz_b = [j for j, c in enumerate(b.coeffs[: n + 1]) if c]
    sparse = nz_a if len(nz_a) <= len(nz_b) else nz_b
    return sum(n + 1 - j for j in sparse)


class Tracer:
    """Spans and counters of one process, kept in memory until exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {
            "series.mul_ops": 0,
            "partitions.enumerated": 0,
            "congruences.cases_checked": 0,
            "congruences.cases_skipped": 0,
            "congruences.reports": 0,
            "congruences.vacuous_reports": 0,
        }

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_mul(self, a, b):
        if isinstance(b, type(a)):
            self.counters["series.mul_ops"] += _mul_ops(a, b)

    def count_reports(self, result):
        reports = result if isinstance(result, list) else [result]
        c = self.counters
        for r in reports:
            c["congruences.cases_checked"] += r.checked
            c["congruences.cases_skipped"] += r.skipped
            c["congruences.reports"] += 1
            c["congruences.vacuous_reports"] += r.checked == 0

    def counting_enumeration(self, enumerate_partitions):
        counters = self.counters

        def enumerate_counted(n):
            for lam in enumerate_partitions(n):
                counters["partitions.enumerated"] += 1
                yield lam

        return enumerate_counted


def _replace_everywhere(modules, original, replacement):
    """Rebind ``original`` to ``replacement`` in every module that holds it."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of ``mexparts`` for ``tracer``."""
    import mexparts
    from mexparts import cli, congruences, mex, partitions, series, singular, stats, suites

    modules = [mexparts, cli, congruences, mex, partitions, series, singular, stats, suites]

    def swap(name, original, **hooks):
        _replace_everywhere(modules, original, tracer.wrap(name, original, **hooks))

    cls = series.TruncatedSeries
    cls.__mul__ = tracer.wrap("series.mul", cls.__mul__, before=tracer.count_mul)
    cls.invert = tracer.wrap("series.invert", cls.invert)
    swap("series.pochhammer", series._product_of_binomials)

    swap("partitions.p_table_grow", partitions._grow_p_table)
    swap("partitions.genseries", partitions.partition_generating_series)
    swap("partitions.restricted", partitions.restricted_count)
    _replace_everywhere(
        modules,
        partitions.enumerate_partitions,
        tracer.counting_enumeration(partitions.enumerate_partitions),
    )

    swap("mex.oracle", mex.mex_count_oracle)
    swap("mex.identity", mex.identity_p_tt)
    swap("mex.identity", mex.identity_p_2tt)
    swap("mex.genfun", mex.genfun_p_tt)
    swap("mex.genfun", mex.genfun_p_2tt)

    swap("singular.oracle", singular.singular_overpartition_oracle)
    swap("singular.genfun", singular.genfun_singular)

    swap("stats.section1", stats.verify_section1_identities)

    swap("congruences.progression", congruences.check_progression, after=tracer.count_reports)
    for fn in (
        congruences.check_parity_characterization,
        congruences.check_conditional_parity,
        congruences.check_parity_bridge,
        congruences.eta_form_mod2_report,
        congruences.check_singular_mod8,
    ):
        swap("congruences.parity", fn, after=tracer.count_reports)

    for name, fn in list(suites._SUITES.items()):
        suites._SUITES[name] = tracer.wrap(f"suites.{name}", fn)
    swap("suites.examples", suites.worked_examples_report)

    swap("cli.compute_rows", cli._compute_rows)
    for fn in (cli.cmd_compute, cli.cmd_verify, cli.cmd_oracle_check):
        swap("cli.command", fn)


SUITE_METRICS = ("examples", "thm1", "thm2", "ramanujan", "thm3", "parity", "section1", "thm5",
                 "thm11", "thm6", "cor1", "thm12", "thm13", "thm14", "final")

# per-layer time metric -> span name; each is the span's self time
SELF_TIME_METRICS = {
    "series.pochhammer_s": "series.pochhammer",
    "series.mul_s": "series.mul",
    "series.invert_s": "series.invert",
    "partitions.p_table_grow_s": "partitions.p_table_grow",
    "partitions.genseries_s": "partitions.genseries",
    "partitions.restricted_s": "partitions.restricted",
    "mex.oracle_s": "mex.oracle",
    "mex.identity_s": "mex.identity",
    "mex.genfun_s": "mex.genfun",
    "singular.oracle_s": "singular.oracle",
    "singular.genfun_s": "singular.genfun",
    "stats.section1_s": "stats.section1",
    "congruences.progression_s": "congruences.progression",
    "congruences.parity_s": "congruences.parity",
    "cli.compute_rows_s": "cli.compute_rows",
    "cli.emit_s": "cli.command",
}

CALL_METRICS = {
    "series.mul_calls": "series.mul",
    "mex.oracle_calls": "mex.oracle",
    "mex.identity_calls": "mex.identity",
    "singular.oracle_calls": "singular.oracle",
    "congruences.progression_calls": "congruences.progression",
}


def layer_metrics(spans, counters, p_table_len, genseries_hits):
    """Per-layer metrics of one process from its spans and counters.

    Suite times are inclusive (they split the ``verify all`` run into its
    suites); every other ``_s`` metric is a self time.
    """
    selfs = self_times(spans)
    self_by, total_by, calls_by = {}, {}, {}
    for (name, start, end, _), own in zip(spans, selfs):
        self_by[name] = self_by.get(name, 0.0) + own
        total_by[name] = total_by.get(name, 0.0) + (end - start)
        calls_by[name] = calls_by.get(name, 0) + 1
    out = {m: self_by.get(s, 0.0) for m, s in SELF_TIME_METRICS.items()}
    out.update({m: calls_by.get(s, 0) for m, s in CALL_METRICS.items()})
    out.update({f"suites.{s}_s": total_by.get(f"suites.{s}", 0.0) for s in SUITE_METRICS})
    out.update(counters)
    out["partitions.p_table_len"] = p_table_len
    out["partitions.genseries_hits"] = genseries_hits
    return out


def main(argv: list[str]) -> int:
    out_prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from mexparts import cli, partitions

    genseries = partitions.partition_generating_series.__wrapped__  # the lru_cache

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_prefix + ".spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        metrics = layer_metrics(
            tracer.spans, tracer.counters, len(partitions._p_table), genseries.cache_info().hits
        )
        with open(out_prefix + ".layers.json", "w") as fh:
            json.dump(metrics, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
