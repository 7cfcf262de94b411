"""Uniform mergeable-summary API: COMBINE for every summary type.

The paper's COMBINE operation makes sketches a vector space, so summaries
built *independently* -- per process, per host, per router -- can be
merged into the summary of the union stream without a second pass.  This
module is the type-generic front for every summary type in the package
(k-ary, invertible k-ary, Count-Min, Count Sketch, and the group-testing
variant):

:func:`combine` / :func:`merge`
    Type-generic COMBINE over same-schema summaries.
:func:`fold_width` / :func:`half_width_schema`
    Width-halving FOLD, the archive's item aggregation.

:func:`kind_of` names a schema's kind (``"kary"``, ``"invertible"``,
``"countmin"``, ``"countsketch"``, ``"grouptesting"``): the ``kind`` its
:class:`~repro.sketch.base.HashedSchema` subclass states.
"""

from __future__ import annotations

from typing import Iterable

from repro.sketch.base import HashedSchema, LinearSummary


def kind_of(schema) -> str:
    """Return the schema kind string for any supported schema object."""
    if not isinstance(schema, HashedSchema):
        raise TypeError(f"unsupported schema type {type(schema).__name__}")
    return schema.kind


def combine(
    coefficients: Iterable[float], summaries: Iterable[LinearSummary]
) -> LinearSummary:
    """COMBINE: return ``sum(c_i * S_i)`` over same-schema summaries.

    The paper's fourth sketch operation, generalized to every summary
    type in the package (each summary's ``_linear_combination`` enforces
    type and schema compatibility).
    """
    terms = [(float(c), s) for c, s in zip(coefficients, summaries)]
    if not terms:
        raise ValueError("combine requires at least one term")
    return terms[0][1]._linear_combination(terms)


def merge(summaries: Iterable[LinearSummary]) -> LinearSummary:
    """Unit-coefficient COMBINE: the summary of the concatenated streams."""
    summaries = list(summaries)
    return combine([1.0] * len(summaries), summaries)


def half_width_schema(schema):
    """The half-width schema ``schema`` folds into (same depth/seed/family).

    Type-generic front for the per-schema ``folded()`` constructors.
    The result shares ``schema``'s row hashes but builds its own stacked
    evaluator (half a MiB of lookup strips per tabulation row), so
    archive tiers cache it per source schema.
    """
    kind_of(schema)  # raises on unsupported types
    return schema.folded()


def fold_width(summary: LinearSummary, schema=None) -> LinearSummary:
    """FOLD: halve a summary's width using linearity (Hokusai item
    aggregation).

    The fifth mergeable-summary operation: ``T'[i][j] = T[i][j] +
    T[i][j + K/2]`` over the half-width schema.  Because every hash
    family reduces a width-independent 64-bit value modulo ``K`` and
    ``K/2`` divides ``K``, the folded summary is **exactly** what the
    half-width schema would have built from the same stream -- fold
    commutes with UPDATE and COMBINE, which is what lets an archive age
    summaries down in resolution and still merge them with natively
    half-width ones.  Estimation variance roughly doubles per fold.
    Exactness is bit-for-bit for integer-valued updates (traffic
    counts); float updates regroup per-cell summation order, so
    equality then holds up to float associativity.

    Candidate-carrying summaries (the invertible sketch) fold their
    counters exactly and MV-merge the collapsing candidate buckets;
    group-testing summaries fold all per-bit subcounters.

    Pass the prebuilt half-width ``schema`` when folding many summaries;
    ``None`` builds a fresh one per call.
    """
    return summary.fold_width(schema=schema)
