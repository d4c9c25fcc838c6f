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
(TREAT, naive).  Once a strategy selects from it, the set keeps one
*ranking* by that strategy's order key, each key built once, and a
cycle walks it from the top to the first un-fired member.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, Iterator, Optional

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
    order.  Beside that the set keeps one *ranking* for
    :meth:`Strategy.select`: every member in ascending order of the
    selecting strategy's ``_order_key``, so the dominant member is last
    and ``select`` walks down from there to the first un-fired one.
    Each member's key is built once, when it arrives, and remembered
    for its delete; equal keys rank the member that arrived first
    higher, as ``Strategy.order()``'s stable sort does.  The ranking is
    built by the first :meth:`first_unfired` and kept by every edit from
    then on; a set nobody selects from (a kernel attached outside an
    engine) never pays for it, and ranking by a different order (a
    LEX/MEA switch) or after :meth:`clear` rebuilds it.
    """

    def __init__(self) -> None:
        self._members: dict[tuple, Instantiation] = {}
        #: The order function the ranking is kept by; None = no ranking.
        self._order: Optional[Callable[[Instantiation], tuple]] = None
        #: ``(order key, -arrival, member)`` entries, ascending, and each
        #: member's entry by its key (what a delete looks up).
        self._ranking: list[tuple] = []
        self._entries: dict[tuple, tuple] = {}
        self._arrivals = 0
        self.total_inserts = 0
        self.total_deletes = 0
        #: ``select`` calls served, and the members they walked from the
        #: top of the ranking down to the first un-fired one.
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
        if self._order is not None:
            self._arrivals += 1
            entry = self._entries[key] = (
                self._order(instantiation), -self._arrivals, instantiation
            )
            ranking = self._ranking
            # A new instantiation almost always holds the newest timetag.
            if not ranking or entry > ranking[-1]:
                ranking.append(entry)
            else:
                insort(ranking, entry)

    def delete(self, instantiation: Instantiation) -> None:
        """Remove an instantiation; deleting an absent key is an error."""
        self.delete_key(instantiation.key)

    def delete_key(self, key: tuple) -> None:
        """Remove the instantiation with identity *key*.

        Lets a holder of ``(production name, timetags)`` retract without
        materialising an :class:`Instantiation` -- the generated
        kernels bind it as ``cs_delete``.
        """
        if self._members.pop(key, None) is None:
            raise Ops5Error(f"conflict-set delete of absent key {key!r}")
        self.total_deletes += 1
        if self._order is not None:
            ranking = self._ranking
            entry = self._entries.pop(key)
            # What leaves is almost always what just fired: the top.
            del ranking[-1 if ranking[-1] is entry else bisect_left(ranking, entry)]

    def get(self, key: tuple) -> Optional[Instantiation]:
        """The instantiation with identity *key*, or None."""
        return self._members.get(key)

    def clear(self) -> None:
        """Retract every member (counted as deletes) and drop the ranking."""
        self.total_deletes += len(self._members)
        self._members.clear()
        self._order = None
        self._ranking = []
        self._entries = {}

    def snapshot(self) -> frozenset[tuple]:
        """The current membership as a frozen set of instantiation keys."""
        return frozenset(self._members)

    def members(self) -> list[Instantiation]:
        return list(self._members.values())

    def first_unfired(self, order: Callable, already_fired: Callable) -> Optional[Instantiation]:
        """The dominant member by *order* whose key has not fired, or None:
        a walk down from the top of the ranking, which is built here for a
        new *order* and kept by every edit after."""
        if order != self._order:
            self._rank(order)
        ranking = self._ranking
        at = len(ranking)
        selected = None
        while at:
            at -= 1
            member = ranking[at][2]
            if not already_fired(member.key):
                selected = member
                break
        self.selects += 1
        self.members_examined += len(ranking) - at
        return selected

    def _rank(self, order: Callable[[Instantiation], tuple]) -> None:
        entries = [
            (order(member), -arrival, member)
            for arrival, member in enumerate(self._members.values())
        ]
        self._entries = dict(zip(self._members, entries))
        entries.sort()
        self._order, self._ranking, self._arrivals = order, entries, len(entries)


def _lex_order_key(instantiation: Instantiation) -> tuple:
    """Sort key implementing the LEX ordering (larger sorts last).

    Recency sequences are compared lexicographically with the rule that a
    longer sequence beats its own prefix; appending ``-1`` sentinels would
    invert that, so we compare (recency tuple, length) -- tuple comparison
    in Python is already lexicographic-with-shorter-first-on-prefix, which
    is exactly the OPS5 rule, so the bare tuple works: ``(5, 3) < (5, 3, 1)``.
    """
    production = instantiation.production
    return (
        instantiation.recency_key,
        production.specificity,
        # Deterministic arbitrary tie-break so runs are reproducible.
        production.name,
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

    ``_order_key`` is the whole rule: the greatest key dominates, and of
    equal keys the member that arrived first.  A subclass overrides
    ``_order_key`` alone; a :class:`ConflictSet` keeps its members
    ranked by it.
    """

    name: str = "abstract"

    def _order_key(self, instantiation: Instantiation) -> tuple:
        raise NotImplementedError

    def select(
        self,
        conflict_set: Iterable[Instantiation],
        already_fired: Callable[[tuple], bool],
    ) -> Optional[Instantiation]:
        """Return the dominant un-fired instantiation, or None to halt.

        ``already_fired`` implements refraction: it reports whether an
        instantiation key has fired before.  It is asked per candidate
        on every call -- nothing assumes a fired key stays fired.  On a
        :class:`ConflictSet` this walks the kept ranking from the top to
        the first un-fired member; a plain iterable is ranked whole.
        """
        if isinstance(conflict_set, ConflictSet):
            return conflict_set.first_unfired(self._order_key, already_fired)
        return next(
            (i for i in self.order(conflict_set) if not already_fired(i.key)), None
        )

    def order(self, conflict_set: Iterable[Instantiation]) -> list[Instantiation]:
        """The full dominance order, best first (for inspection/tests)."""
        return sorted(conflict_set, key=self._order_key, reverse=True)


class LexStrategy(Strategy):
    """The OPS5 LEX strategy: recency, then specificity."""

    name = "lex"
    _order_key = staticmethod(_lex_order_key)


class MeaStrategy(Strategy):
    """The OPS5 MEA strategy: first-CE recency first, then LEX."""

    name = "mea"
    _order_key = staticmethod(_mea_order_key)


def strategy_named(name: str) -> Strategy:
    """Look up a strategy by name ("lex" or "mea")."""
    table = {"lex": LexStrategy, "mea": MeaStrategy}
    try:
        return table[name.lower()]()
    except KeyError:
        raise Ops5Error(f"unknown conflict-resolution strategy {name!r}") from None
