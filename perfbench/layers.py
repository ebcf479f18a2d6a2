"""The functions a traced run wraps, and the per-layer metrics built from their spans.

Wrappers are installed from here, around bchdenom's public functions; no
file of the program changes.  A ``from``-import binds its own copy of a
name, so every ``bchdenom`` module that holds the original function gets
the wrapper (``cli.bch_series``, ``bch.bch_coeff_word``,
``bch.common_denominator``, ...).

Counts marked *computed* are derived from a call's arguments, not
observed inside the program: ``pair_products`` is the sum of
nnz(x_dx) * nnz(y_dy) over the degree pairs ``series_multiply`` visits,
``table_entries`` the sum of K^d over a series' tables, and
``compositions`` 2^(n-1) per ``Dn_bruteforce(n)``.

Pool workers are forked after the wrappers are installed, but they record
nothing: the tracer turns itself off in a forked child.  Their work shows
in the parent as the time ``Pool.map`` blocks (``bch.scan.pool_wait_s``),
and ``bch.scan.parallel_efficiency`` compares it with a separate serial
scan of the same degree rather than with worker spans.
"""

from __future__ import annotations

import os
import sys
from itertools import accumulate
from multiprocessing.pool import Pool

from spans import Span, Tracer, self_times

ROOT_SPAN = "cli"
POOL_MAP = "multiprocessing.Pool.map"


def _nonzero(table) -> int:
    # Fraction.__bool__ is bool(self._numerator); reading the slot directly
    # keeps this count, which runs on every traced product, 3x cheaper
    return sum(1 for c in table.coefficients if c._numerator)


def _count_pair_products(x, y) -> dict:
    if x.max_degree != y.max_degree:
        return {"pair_products": 0}  # the call itself rejects this
    n = x.max_degree
    nx = [_nonzero(t) for t in x.tables]
    reach = list(accumulate(_nonzero(t) for t in y.tables))
    return {"pair_products": sum(nx[dx] * reach[n - dx] for dx in range(n + 1))}


def _count_table_entries(alphabet_size, max_degree, **_) -> dict:
    return {"table_entries": sum(alphabet_size**d for d in range(max_degree + 1))}


def _count_compositions(n, **_) -> dict:
    return {"compositions": 2 ** (n - 1) if n >= 1 else 0}


def _count_scan(n, alphabet_size, parallelism, **_) -> dict:
    return {"n": n, "alphabet_size": alphabet_size, "parallelism": parallelism}


#: (module, function, counter); the span is named "<module>.<function>".
FUNCTIONS = (
    ("freealgebra", "bch_series", _count_table_entries),
    ("freealgebra", "series_exp_generator", None),
    ("freealgebra", "series_multiply", _count_pair_products),
    ("freealgebra", "series_log1p", None),
    ("freealgebra", "bch_coeff_word", None),
    ("bch", "degree_coefficients", _count_scan),
    ("bch", "degree_report", None),
    ("bch", "check_corollary_prime", None),
    ("bch", "check_corollary_prime_plus_one", None),
    ("bch", "goldberg_check", None),
    ("bch", "coefficient_value_table", None),
    ("bch", "numerator_over_common", None),
    ("numtheory", "Dn_bruteforce", _count_compositions),
    ("numtheory", "common_denominator", None),
)

#: Which self-time metric each span's self time is added to.
#: ``series_multiply`` is decided by its ancestors, see ``layer_metrics``.
SELF_TIME_METRIC = {
    ROOT_SPAN: "cli.self_s",
    "freealgebra.bch_series": "freealgebra.exp_product.self_s",
    "freealgebra.series_exp_generator": "freealgebra.exp_product.self_s",
    "freealgebra.series_log1p": "freealgebra.log_horner.self_s",
    "freealgebra.bch_coeff_word": "freealgebra.bch_coeff_word.self_s",
    "bch.degree_coefficients": "bch.scan.self_s",
    POOL_MAP: "bch.scan.pool_wait_s",
    "bch.degree_report": "bch.reducers.self_s",
    "bch.check_corollary_prime": "bch.reducers.self_s",
    "bch.check_corollary_prime_plus_one": "bch.reducers.self_s",
    "bch.goldberg_check": "bch.reducers.self_s",
    "bch.coefficient_value_table": "bch.reducers.self_s",
    "bch.numerator_over_common": "bch.reducers.self_s",
    "numtheory.Dn_bruteforce": "numtheory.Dn_bruteforce.self_s",
    "numtheory.common_denominator": "numtheory.common_denominator.self_s",
    "numtheory.PrimeFactorization.of": "numtheory.factorization.self_s",
}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in every loaded ``bchdenom`` module."""
    from bchdenom.numtheory import PrimeFactorization

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bchdenom"]
    for module_name, attr, count in FUNCTIONS:
        original = getattr(sys.modules[f"bchdenom.{module_name}"], attr)
        wrapper = tracer.wrap(f"{module_name}.{attr}", original, count)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    # a classmethod is looked up on the class, so one patch covers every importer
    of = PrimeFactorization.__dict__["of"].__func__
    PrimeFactorization.of = classmethod(tracer.wrap("numtheory.PrimeFactorization.of", of))
    Pool.map = tracer.wrap(POOL_MAP, Pool.map)
    os.register_at_fork(after_in_child=tracer.disable)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pool_scans(spans: list[Span]) -> list[Span]:
    """The ``degree_coefficients`` spans that handed their words to the pool."""
    pooled = {s.parent for s in spans if s.name == POOL_MAP}
    return [s for i, s in enumerate(spans) if i in pooled and s.name == "bch.degree_coefficients"]


def layer_metrics(spans: list[Span], serial_reference: tuple[int, float] | None = None) -> dict:
    """Per-layer metrics of one traced call.

    ``serial_reference`` is (degree, seconds) of a serial per-word scan;
    with it, ``bch.scan.parallel_efficiency`` is serial seconds over
    (workers x pool seconds) at that degree, else 0 (not applicable).
    """
    selfs = self_times(spans)
    metrics = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
    counts = dict.fromkeys(
        ("log_horner_calls", "pair_products", "table_entries", "compositions",
         "bch_coeff_word", "common_denominator", "factorization"),
        0,
    )
    multiply_s = 0.0
    for span, self_s in zip(spans, selfs):
        name = span.name
        if name == "freealgebra.series_multiply":
            multiply_s += self_s
            counts["pair_products"] += span.info["pair_products"]
            under_log = False
            parent = span.parent
            while parent is not None and not under_log:
                under_log = spans[parent].name == "freealgebra.series_log1p"
                parent = spans[parent].parent
            if under_log:
                counts["log_horner_calls"] += 1
                metrics["freealgebra.log_horner.self_s"] += self_s
            else:
                metrics["freealgebra.exp_product.self_s"] += self_s
            continue
        metrics[SELF_TIME_METRIC[name]] += self_s
        if name == "freealgebra.bch_series":
            counts["table_entries"] += span.info["table_entries"]
        elif name == "freealgebra.bch_coeff_word":
            counts["bch_coeff_word"] += 1
        elif name == "numtheory.Dn_bruteforce":
            counts["compositions"] += span.info["compositions"]
        elif name == "numtheory.common_denominator":
            counts["common_denominator"] += 1
        elif name == "numtheory.PrimeFactorization.of":
            counts["factorization"] += 1

    efficiency = 0.0
    if serial_reference is not None:
        degree, serial_s = serial_reference
        for scan in pool_scans(spans):
            if scan.info["n"] == degree:
                efficiency = _ratio(serial_s, scan.info["parallelism"] * (scan.end - scan.start))

    word_s = metrics["freealgebra.bch_coeff_word.self_s"]
    oracle_s = metrics["numtheory.Dn_bruteforce.self_s"]
    metrics.update(
        {
            "freealgebra.log_horner.calls": counts["log_horner_calls"],
            "freealgebra.series_multiply.pair_products": counts["pair_products"],
            "freealgebra.series_multiply.pair_products_per_s": _ratio(counts["pair_products"], multiply_s),
            "freealgebra.series.table_entries": counts["table_entries"],
            "freealgebra.bch_coeff_word.calls": counts["bch_coeff_word"],
            "freealgebra.bch_coeff_word.words_per_s": _ratio(counts["bch_coeff_word"], word_s),
            "bch.scan.parallel_efficiency": efficiency,
            "numtheory.Dn_bruteforce.compositions": counts["compositions"],
            "numtheory.Dn_bruteforce.compositions_per_s": _ratio(counts["compositions"], oracle_s),
            "numtheory.common_denominator.calls": counts["common_denominator"],
            "numtheory.factorization.calls": counts["factorization"],
        }
    )
    return metrics
