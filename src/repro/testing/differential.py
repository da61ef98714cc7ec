"""Differential testing harness, shipped as a library feature.

Reproduction code earns trust by being easy to falsify.  This module
packages the machinery the internal test suite uses — random document
generation, independent oracles, strategy cross-checking — behind one
function, so downstream users (or CI) can hammer the engine on their
own machines:

>>> from repro.testing import run_differential_trials
>>> report = run_differential_trials(trials=100, seed=7)
>>> report.failures
()

Each trial generates a random document and query, evaluates it through
every path the engine offers — each strategy, materialised, streamed
(the filter in the query, and as the stream's extra selection), both
again over the first run's join memo (its fixed points replayed), and
as an explicit plan, plus the literal powerset semantics — holds each
against an oracle that shares no join with them, and records any
disagreement as a :class:`TrialFailure` carrying everything needed to
reproduce it (the seed, the document's parent vector, the query).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, product

from ..core.algebra import JoinCache, nonempty_subsets
from ..core.evaluator import run_plan
from ..core.filters import (Filter, HeightAtMost, Not, SizeAtLeast,
                            SizeAtMost, TrueFilter, WidthAtMost, select)
from ..core.fragment import Fragment
from ..core.query import Query
from ..core.semantics import powerset_semantics_answers
from ..core.strategies import Strategy, evaluate, plan_for
from ..core.streaming import stream_evaluate
from ..xmltree.builder import DocumentBuilder
from ..xmltree.document import Document
from ..xmltree.navigation import spanning_nodes

__all__ = ["TrialFailure", "DifferentialReport",
           "random_keyword_document", "run_differential_trials"]

_TERMS = ("alpha", "beta", "gamma")

#: What one strategy must count alike however its plan is driven.
_WORK = ("fragment_joins", "join_cache_hits", "joins_pruned",
         "predicate_checks")


@dataclass(frozen=True)
class TrialFailure:
    """One reproducible disagreement between evaluation paths.

    Attributes
    ----------
    trial:
        Index of the failing trial.
    seed:
        The trial's RNG seed (regenerates document and query).
    parents:
        The document's parent vector (node i+1's parent).
    keyword_nodes:
        term → node ids carrying it.
    query:
        The evaluated query's textual description.
    disagreeing:
        Names of the evaluation paths that differed from the oracle.
    """

    trial: int
    seed: int
    parents: tuple[int, ...]
    keyword_nodes: dict
    query: str
    disagreeing: tuple[str, ...]


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of a :func:`run_differential_trials` campaign."""

    trials: int
    failures: tuple[TrialFailure, ...] = field(default=())

    @property
    def passed(self) -> bool:
        """Whether every trial agreed on every path."""
        return not self.failures

    def summary(self) -> str:
        """One-line human-readable outcome."""
        if self.passed:
            return (f"{self.trials} differential trials, "
                    "all evaluation paths agree")
        return (f"{len(self.failures)} of {self.trials} trials "
                f"disagreed; first failing seed: "
                f"{self.failures[0].seed}")


def random_keyword_document(seed: int, max_nodes: int = 10) -> Document:
    """A small random document with keywords from a fixed alphabet.

    Deterministic in ``seed``; the same generator family the internal
    property tests use.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    builder = DocumentBuilder(name=f"trial-{seed}")
    ids = [builder.add_root("root", "")]
    for _ in range(n - 1):
        parent = ids[rng.randrange(len(ids))]
        ids.append(builder.add_child(parent, "node", ""))
    for node in ids:
        words = [w for w in _TERMS if rng.random() < 0.35]
        if words:
            builder.add_keywords(node, words)
    return builder.build()


def _random_query(rng: random.Random) -> Query:
    term_count = rng.randint(1, 3)
    terms = tuple(rng.sample(_TERMS, term_count))
    predicate: Filter
    roll = rng.randrange(10)
    if roll == 0:
        predicate = TrueFilter()
    elif roll == 1:
        predicate = SizeAtMost(rng.randint(1, 6))
    elif roll == 2:
        predicate = HeightAtMost(rng.randint(0, 3))
    elif roll == 3:
        predicate = (SizeAtMost(rng.randint(2, 5))
                     & WidthAtMost(rng.randint(1, 6)))
    elif roll == 4:
        # A disjunction of anti-monotonic filters is one (§3.3), with
        # the looser of the two limits as its bound.
        predicate = (SizeAtMost(rng.randint(1, 3))
                     | SizeAtMost(rng.randint(2, 6)))
    # The rest are not anti-monotonic.  Theorem 3 may push the
    # anti-monotonic conjuncts of a conjunction and nothing else: a
    # strategy that pushed a residual, a disjunct or a negation would
    # lose answers.
    elif roll == 5:
        predicate = SizeAtLeast(rng.randint(1, 4))
    elif roll == 6:
        predicate = (SizeAtMost(rng.randint(3, 6))
                     & SizeAtLeast(rng.randint(1, 3)))
    elif roll == 7:
        predicate = (SizeAtLeast(rng.randint(2, 4))
                     | HeightAtMost(rng.randint(0, 1)))
    elif roll == 8:
        predicate = ((HeightAtMost(rng.randint(1, 3))
                      & SizeAtLeast(rng.randint(1, 3)))
                     & (Not(SizeAtMost(rng.randint(1, 2)))
                        & WidthAtMost(rng.randint(2, 7))))
    else:
        predicate = ((SizeAtLeast(rng.randint(3, 5))
                      | HeightAtMost(rng.randint(0, 1)))
                     & (SizeAtMost(rng.randint(2, 4))
                        | SizeAtMost(rng.randint(3, 6))))
    return Query(terms, predicate)


def _oracle(doc: Document, query: Query) -> frozenset[Fragment]:
    """The §2.3 formula without the algebra: the closure
    (:func:`~repro.xmltree.navigation.spanning_nodes`) of every choice
    of one non-empty subset of each term's keyword nodes, filtered."""
    keyword_nodes = [sorted(doc.nodes_with_keyword(term))
                     for term in query.terms]
    return select(query.predicate, {
        Fragment(doc, spanning_nodes(doc, chain.from_iterable(choice)))
        for choice in product(*map(nonempty_subsets, keyword_nodes))})


def _disagreements(doc: Document, query: Query, oracle) -> list[str]:
    """Names of the evaluation paths that differ from ``oracle``."""
    wrong = []
    if powerset_semantics_answers(doc, query) != oracle:
        wrong.append("powerset-semantics")
    for strategy in Strategy:
        name = strategy.value
        memo = JoinCache()
        run = evaluate(doc, query, strategy=strategy, cache=memo)
        if run.fragments != oracle:
            wrong.append(f"{name}/materialised")
        # The same memo again: every fixed point it completed is
        # replayed, not computed, materialised and streamed alike.
        if evaluate(doc, query, strategy=strategy,
                    cache=memo).fragments != oracle:
            wrong.append(f"{name}/replayed")
        if frozenset(stream_evaluate(doc, query, strategy,
                                     cache=memo)) != oracle:
            wrong.append(f"{name}/replayed-streamed")
        stream = stream_evaluate(doc, query, strategy, cache=JoinCache())
        if frozenset(stream) != oracle:
            wrong.append(f"{name}/streamed")
        # Streaming is the same plan through the same operators: it
        # must do exactly the materialised run's counted work.
        if stream.stats.as_dict() != {
                **run.stats, "streamed_rows": stream.streamed_rows}:
            wrong.append(f"{name}/streamed-stats")
        # The same filter handed to the stream as its consumer's extra
        # selection: split and pushed whatever the strategy.
        if frozenset(stream_evaluate(
                doc, Query(query.terms), strategy,
                extra_predicate=query.predicate)) != oracle:
            wrong.append(f"{name}/streamed-extra")
        planned = run_plan(doc, query, plan_for(query, strategy),
                           cache=JoinCache())
        if planned.fragments != oracle:
            wrong.append(f"{name}/plan")
        # One run, drained under another name: the same work, closure
        # replays included (each path starts a fresh memo).
        if any(planned.stats[c] != run.stats[c] for c in _WORK):
            wrong.append(f"{name}/plan-stats")
    return wrong


def run_differential_trials(trials: int = 100, seed: int = 0,
                            max_nodes: int = 10,
                            stop_on_first_failure: bool = False
                            ) -> DifferentialReport:
    """Run ``trials`` random cross-checks of every evaluation path.

    Each trial compares, against the join-free :func:`_oracle` on a
    fresh random document and query, the literal powerset semantics and
    every strategy materialised, streamed, and run as its explicit
    plan — and checks that the stream and the plan do exactly the
    materialised run's counted work, each on a fresh join memo.  The
    materialised run's memo then serves a second materialised and a
    streamed run, which replay its fixed points.

    Parameters
    ----------
    stop_on_first_failure:
        Abort the campaign at the first disagreement (faster triage).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    failures: list[TrialFailure] = []
    master = random.Random(seed)
    for trial in range(trials):
        trial_seed = master.randrange(2 ** 31)
        doc = random_keyword_document(trial_seed, max_nodes=max_nodes)
        rng = random.Random(trial_seed ^ 0x5EED)
        query = _random_query(rng)
        oracle = _oracle(doc, query)
        disagreeing = _disagreements(doc, query, oracle)
        if disagreeing:
            failures.append(TrialFailure(
                trial=trial,
                seed=trial_seed,
                parents=tuple(doc.parent(i) for i in range(1, doc.size)),
                keyword_nodes={t: doc.nodes_with_keyword(t)
                               for t in query.terms},
                query=query.describe(),
                disagreeing=tuple(disagreeing)))
            if stop_on_first_failure:
                break
    return DifferentialReport(trials=trials, failures=tuple(failures))
