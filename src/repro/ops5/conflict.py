"""The conflict set and conflict-resolution strategies (LEX and MEA).

After each match phase the *conflict set* holds every instantiation of
every satisfied production.  Conflict resolution picks at most one of
them to fire:

* **Refraction** (both strategies): an instantiation that has already
  fired is never selected again.
* **LEX**: order instantiations by *recency* -- compare the matched
  timetags sorted in descending order, lexicographically; a strictly
  greater sequence wins, and when one sequence is a prefix of the other
  the longer one wins.  Ties fall back to production *specificity* (the
  number of elementary tests in the LHS) and finally to a deterministic
  arbitrary order.
* **MEA**: first compare the timetag of the WME matching the *first*
  condition element (the "means-ends-analysis" element -- usually the
  goal); ties are resolved exactly as in LEX.

The conflict set is maintained *incrementally* by matchers: matchers call
:meth:`ConflictSet.insert` / :meth:`ConflictSet.delete` as tokens reach
or leave their terminal nodes (Rete), or after per-cycle recomputation
(TREAT, naive).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, Iterator, Optional, ValuesView

from .errors import Ops5Error
from .production import Instantiation


class ConflictSet:
    """The set of instantiations of currently satisfied productions.

    Insertion and deletion are keyed by :attr:`Instantiation.key`
    (production name + matched timetags), matching OPS5 identity.
    Counters record total insert/delete traffic for the measurement
    modules, and how many members conflict resolution looked at.

    **Ordering contract.**  Iteration, :meth:`members` and
    :meth:`snapshot` cover every member, fired or not, in insertion
    order.  Beside that the set keeps a *dominance index* for
    :meth:`Strategy.select`: members bucketed by their *lead* -- the
    leading timetag of the selecting strategy's order
    (:attr:`Strategy._lead`) -- with the leads in one ascending list.
    A member with a newer lead dominates every member with an older
    one, so ``select`` walks the leads from the newest and ranks only
    the first bucket that holds an un-fired member; inside a bucket the
    order is insertion order, which is what breaks ties under a custom
    ``_order_key``.  The index is built by the first ``select`` and
    maintained by every edit from then on; a set nobody selects from
    (a kernel attached outside an engine) never pays for it, and
    selecting with a different lead (a LEX/MEA switch) or after
    :meth:`clear` rebuilds it.
    """

    def __init__(self) -> None:
        self._members: dict[tuple, Instantiation] = {}
        #: The strategy's lead method the index is built for; None = no index.
        self._lead: Optional[Callable[[Instantiation], int]] = None
        #: lead -> {key: member}, and the leads in ascending order.
        self._buckets: dict[int, dict[tuple, Instantiation]] = {}
        self._leads: list[int] = []
        self.total_inserts = 0
        self.total_deletes = 0
        #: ``select`` calls served, and the members in the buckets they
        #: walked (bumped once per call, not per member).
        self.selects = 0
        self.members_examined = 0

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Instantiation]:
        return iter(self._members.values())

    def __contains__(self, instantiation: Instantiation) -> bool:
        return instantiation.key in self._members

    def insert(self, instantiation: Instantiation) -> None:
        """Add an instantiation; re-inserting the same key is an error.

        Matchers must produce each instantiation exactly once; a double
        insert means the matcher's internal state is corrupt, and we fail
        loudly rather than mask it.
        """
        key = instantiation.key
        if key in self._members:
            raise Ops5Error(f"duplicate conflict-set insert of {instantiation!r}")
        self._members[key] = instantiation
        self.total_inserts += 1
        if self._lead is not None:
            lead = self._lead(instantiation)
            bucket = self._buckets.get(lead)
            if bucket is None:
                bucket = self._buckets[lead] = {}
                leads = self._leads
                # New instantiations almost always lead with the newest timetag.
                if not leads or lead > leads[-1]:
                    leads.append(lead)
                else:
                    insort(leads, lead)
            bucket[key] = instantiation

    def delete(self, instantiation: Instantiation) -> None:
        """Remove an instantiation; deleting an absent key is an error."""
        self.delete_key(instantiation.key)

    def delete_key(self, key: tuple) -> None:
        """Remove the instantiation with identity *key*.

        Lets a holder of ``(production name, timetags)`` retract without
        materialising an :class:`Instantiation` -- the generated
        kernels bind it as ``cs_delete``.
        """
        instantiation = self._members.pop(key, None)
        if instantiation is None:
            raise Ops5Error(f"conflict-set delete of absent key {key!r}")
        self.total_deletes += 1
        if self._lead is not None:
            lead = self._lead(instantiation)
            bucket = self._buckets[lead]
            del bucket[key]
            if not bucket:
                del self._buckets[lead]
                leads = self._leads
                del leads[bisect_left(leads, lead)]

    def get(self, key: tuple) -> Optional[Instantiation]:
        """The instantiation with identity *key*, or None."""
        return self._members.get(key)

    def clear(self) -> None:
        """Retract every member (counted as deletes) and drop the index."""
        self.total_deletes += len(self._members)
        self._members.clear()
        self._lead = None
        self._buckets = {}
        self._leads = []

    def snapshot(self) -> frozenset[tuple]:
        """The current membership as a frozen set of instantiation keys."""
        return frozenset(self._members)

    def members(self) -> list[Instantiation]:
        return list(self._members.values())

    def newest_first(
        self, lead: Callable[[Instantiation], int]
    ) -> Iterator[ValuesView[Instantiation]]:
        """The members sharing a *lead*, bucket by bucket, newest lead first."""
        if lead != self._lead:
            buckets: dict[int, dict[tuple, Instantiation]] = {}
            for key, instantiation in self._members.items():
                buckets.setdefault(lead(instantiation), {})[key] = instantiation
            self._lead, self._buckets, self._leads = lead, buckets, sorted(buckets)
        return map(dict.values, map(self._buckets.__getitem__, reversed(self._leads)))


def _lex_order_key(instantiation: Instantiation) -> tuple:
    """Sort key implementing the LEX ordering (larger sorts last).

    Recency sequences are compared lexicographically with the rule that a
    longer sequence beats its own prefix; appending ``-1`` sentinels would
    invert that, so we compare (recency tuple, length) -- tuple comparison
    in Python is already lexicographic-with-shorter-first-on-prefix, which
    is exactly the OPS5 rule, so the bare tuple works: ``(5, 3) < (5, 3, 1)``.
    """
    return (
        instantiation.recency_key,
        instantiation.production.specificity,
        # Deterministic arbitrary tie-break so runs are reproducible.
        instantiation.production.name,
        instantiation.timetags,
    )


def _mea_order_key(instantiation: Instantiation) -> tuple:
    """Sort key for MEA: first-CE recency, then the LEX key.

    ``timetags`` holds only the WMEs bound by *positive* condition
    elements, so ``timetags[0]`` is the first CE's recency **only if the
    first CE is positive**.  That is an invariant, not an assumption:
    :func:`~repro.ops5.condition.analyze_lhs` rejects productions whose
    leading CE is negated at parse time (for every strategy -- OPS5
    itself makes the same restriction, precisely so MEA's "means-ends"
    focus element is always a real WME).  A negated CE elsewhere in the
    LHS shifts nothing: positions in ``timetags`` follow positive-CE
    order, and position 0 is the first CE.  The empty-tuple fallback is
    unreachable through the parser (an LHS must have at least one CE)
    and exists only for hand-built instantiations.
    """
    first = instantiation.timetags[0] if instantiation.timetags else 0
    return (first,) + _lex_order_key(instantiation)


class Strategy:
    """A conflict-resolution strategy: picks the instantiation to fire.

    ``_order_key`` is the dominance rule.  ``_lead`` only names its
    leading timetag so a :class:`ConflictSet` can bucket by it: a
    greater lead must imply a greater ``_order_key``.  A subclass that
    overrides ``_order_key`` alone therefore falls back to one bucket
    (correct for any order) unless it restates ``_lead`` beside it.
    """

    name: str = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_order_key" in cls.__dict__ and "_lead" not in cls.__dict__:
            cls._lead = Strategy._lead

    def _order_key(self, instantiation: Instantiation) -> tuple:
        raise NotImplementedError

    def _lead(self, instantiation: Instantiation) -> int:
        """No leading timetag declared: every member shares one bucket."""
        return 0

    def select(
        self,
        conflict_set: Iterable[Instantiation],
        already_fired: Callable[[tuple], bool],
    ) -> Optional[Instantiation]:
        """Return the dominant un-fired instantiation, or None to halt.

        ``already_fired`` implements refraction: it reports whether an
        instantiation key has fired before.  It is asked per candidate
        on every call -- nothing assumes a fired key stays fired -- so a
        leading bucket that holds only fired members is skipped again
        next time.  A plain iterable is ranked whole.
        """
        indexed = isinstance(conflict_set, ConflictSet)
        groups = conflict_set.newest_first(self._lead) if indexed else (conflict_set,)
        order_key = self._order_key
        best: Optional[Instantiation] = None
        best_key: Optional[tuple] = None
        examined = 0
        for group in groups:
            if indexed:
                examined += len(group)
            for instantiation in group:
                if already_fired(instantiation.key):
                    continue
                key = order_key(instantiation)
                if best_key is None or key > best_key:
                    best, best_key = instantiation, key
            if best is not None:
                break
        if indexed:
            conflict_set.selects += 1
            conflict_set.members_examined += examined
        return best

    def order(self, conflict_set: Iterable[Instantiation]) -> list[Instantiation]:
        """The full dominance order, best first (for inspection/tests)."""
        return sorted(conflict_set, key=self._order_key, reverse=True)


class LexStrategy(Strategy):
    """The OPS5 LEX strategy: recency, then specificity."""

    name = "lex"

    def _order_key(self, instantiation: Instantiation) -> tuple:
        return _lex_order_key(instantiation)

    def _lead(self, instantiation: Instantiation) -> int:
        """The newest matched timetag (real timetags are >= 1)."""
        recency = instantiation.recency_key
        return recency[0] if recency else 0


class MeaStrategy(Strategy):
    """The OPS5 MEA strategy: first-CE recency first, then LEX."""

    name = "mea"

    def _order_key(self, instantiation: Instantiation) -> tuple:
        return _mea_order_key(instantiation)

    def _lead(self, instantiation: Instantiation) -> int:
        """The first CE's timetag (see :func:`_mea_order_key`)."""
        return instantiation.timetags[0] if instantiation.timetags else 0


def strategy_named(name: str) -> Strategy:
    """Look up a strategy by name ("lex" or "mea")."""
    table = {"lex": LexStrategy, "mea": MeaStrategy}
    try:
        return table[name.lower()]()
    except KeyError:
        raise Ops5Error(f"unknown conflict-resolution strategy {name!r}") from None
