"""Spans around calls into the public functions of each ``newsflow`` module.

The tracer replaces every module attribute under ``newsflow`` that binds a
traced function (for example both ``newsflow.sentiment.porter_stem`` and
``newsflow.stemmer.porter_stem``) with a wrapper that records a span
``(parent, name, start_ns, end_ns)``.  Spans stay in memory until ``dump``.
A few functions also feed counters from their arguments or results.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time

# layer name -> (module, function).  The layer prefix is the module's short
# name; the simulate subpackage's modules all report as "simulate", and
# ``_util`` as "util" (a metric name starts with a letter).
TRACED = {
    "stemmer.porter_stem": ("newsflow.stemmer", "porter_stem"),
    "sentiment.tokenize": ("newsflow.sentiment", "tokenize"),
    "sentiment.score_article": ("newsflow.sentiment", "score_article"),
    "sentiment.aggregate_daily": ("newsflow.sentiment", "aggregate_daily"),
    "sentiment.sentiment_summary": ("newsflow.sentiment", "sentiment_summary"),
    "sentiment.monthly_lexicon_correlation": ("newsflow.sentiment", "monthly_lexicon_correlation"),
    "corpus.load_articles": ("newsflow.corpus", "load_articles"),
    "corpus.assign_trading_days": ("newsflow.corpus", "assign_trading_days"),
    "lexicon.build_lexicon": ("newsflow.lexicon", "build_lexicon"),
    "lexicon.corpus_frequencies": ("newsflow.lexicon", "corpus_frequencies"),
    "lexicon.compare_lexica": ("newsflow.lexicon", "compare_lexica"),
    "indicators.load_market_bars": ("newsflow.indicators", "load_market_bars"),
    "indicators.compute_indicators": ("newsflow.indicators", "compute_indicators"),
    "indicators.fit_detrend_model": ("newsflow.indicators", "fit_detrend_model"),
    "panel.run_specification_suite": ("newsflow.panel", "run_specification_suite"),
    "panel.build_pca_records": ("newsflow.panel", "build_pca_records"),
    "panel.assemble_panel": ("newsflow.panel", "assemble_panel"),
    "panel.fit_fixed_effects": ("newsflow.panel", "fit_fixed_effects"),
    "simulate.build_residual_model": ("newsflow.simulate.scenario", "build_residual_model"),
    "simulate.fit_ma1_garch11": ("newsflow.simulate.garch", "fit_ma1_garch11"),
    "simulate.build_sentiment_models": ("newsflow.simulate.scenario", "build_sentiment_models"),
    "simulate.simulate_scenario": ("newsflow.simulate.scenario", "simulate_scenario"),
    "simulate.plugin_bandwidth": ("newsflow.simulate.smoother", "plugin_bandwidth"),
    "simulate.local_linear_fit": ("newsflow.simulate.smoother", "local_linear_fit"),
    "simulate.uniform_band": ("newsflow.simulate.smoother", "uniform_band"),
    "figures.scatter_band_figure": ("newsflow.figures", "scatter_band_figure"),
    "util.write_csv": ("newsflow._util", "write_csv"),
    "util.atomic_write_text": ("newsflow._util", "atomic_write_text"),
    "config.config_fingerprint": ("newsflow.config", "config_fingerprint"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int] | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._stem_args: set[str] = set()

    def wrap(self, name, fn, observe=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (stack[-1] if stack else -1, name, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observers(self):
        """Layer name -> (observer(args, result), whether it needs named arguments)."""
        count = self._count
        counters = self.counters
        stem_args = self._stem_args

        def band(a, result):
            n = len(a["x"])
            count("simulate.band_points", n)
            # the n x n_boot multiplier matrix of float64, computed, not measured
            mb = n * a["n_boot"] * 8 / 1e6
            counters["simulate.band_multiplier_mb"] = max(counters.get("simulate.band_multiplier_mb", 0.0), mb)

        def assembled(args, result):
            count("panel.observations", len(result.observations))
            count("panel.dropped", sum(result.dropped.values()))

        return {
            "stemmer.porter_stem": (lambda args, r: stem_args.add(args[0]), False),
            "sentiment.tokenize": (lambda args, r: count("sentiment.tokens", r.word_count), False),
            "corpus.assign_trading_days": (lambda args, r: count("corpus.unassigned", r.unassigned_count), False),
            "indicators.compute_indicators": (lambda args, r: count("indicators.warmup_days", r[1].warmup_days), False),
            "panel.assemble_panel": (assembled, False),
            "panel.fit_fixed_effects": (lambda args, r: count("panel.psd_repaired", int(r.psd_repaired)), False),
            "simulate.fit_ma1_garch11": (lambda a, r: count("simulate.garch_obs", len(a["returns"])), True),
            "simulate.uniform_band": (band, True),
            "util.atomic_write_text": (lambda a, r: count("util.bytes_written", len(a["text"].encode("utf-8"))), True),
        }

    def install(self) -> None:
        """Patch every binding of every traced function under ``newsflow``."""
        observers = self._observers()
        for name, (module_name, attr) in TRACED.items():
            fn = getattr(importlib.import_module(module_name), attr)
            observe = None
            if name in observers:
                handler, named = observers[name]
                if named:
                    observe = _named(inspect.signature(fn), handler)
                else:
                    observe = lambda args, kwargs, result, handler=handler: handler(args, result)
            wrapper = self.wrap(name, fn, observe)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "newsflow" or mod_name.startswith("newsflow.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def dump(self, path: str) -> str:
        """Write the spans as TSV (id, parent, name, start_ns, end_ns); return the path."""
        self.counters["stemmer.distinct_args"] = len(self._stem_args)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, span in enumerate(self.spans):
                parent, name, start, end = span
                handle.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")
        return path


def _named(signature, handler):
    def observe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        handler(bound.arguments, result)

    return observe


def read_spans(path: str) -> list[tuple[int, int, str, int, int]]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        next(handle)
        return [
            (int(sid), int(parent), name, int(start), int(end))
            for sid, parent, name, start, end in (line.rstrip("\n").split("\t") for line in handle)
        ]


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and call count.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for sid, parent, name, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, parent, name, start, end in spans:
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["s"] += (end - start) / 1e9
        agg["self_s"] += (end - start - child_ns[sid]) / 1e9
        agg["calls"] += 1
    return out
