"""Gate commutation analysis.

AutoComm's aggregation pass reorders gates to expose burst communication, so
it needs a reliable answer to "do these two gates commute?".  We combine

* fast structural rules (the X-rotation-centred rules of Figure 7 in the
  paper plus the standard diagonal/control/target rules), and
* an exact matrix check on the joint unitary as a fallback.

Every decided pair — rule-based *and* matrix-based — is memoised on a
canonical ``(name, params, overlap-pattern)`` key, so repeated queries over
large circuits (the aggregation and scheduling passes ask the same
structural question for thousands of concrete gate pairs) collapse to one
dict lookup.  The matrix fallback keeps the engine *sound* for every
registered gate pair; the rules only make the first occurrence of each
pattern fast.

:class:`CommutationSummary` lifts the same idea from gate pairs to gate
*collections*: it files each gate, per qubit, under a structural class
``(name, params, position, arity)`` and answers "does this gate (or every
gate of that summary) commute with all of mine?" by comparing classes, so
a window of hundreds of gates costs a handful of memoised class verdicts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import (AbstractSet, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .gates import Gate, gate_spec

__all__ = [
    "commutes",
    "commutes_with_all",
    "commutes_through",
    "clear_commutation_cache",
    "commutation_cache_stats",
    "set_commutation_cache_enabled",
    "CommutationSummary",
]

_ATOL = 1e-9
#: ``np.allclose``'s default relative tolerance, kept by the matrix check.
_RTOL = 1e-5

# Pair-level memo: canonical (names, params, relative qubit overlap) -> bool.
# Bounded defensively; a full clear on overflow is simpler than LRU eviction
# and the bound is far above what any benchmark circuit generates.
_PAIR_CACHE: Dict[tuple, bool] = {}
_PAIR_CACHE_MAX = 1 << 20
_pair_cache_enabled = True
_STATS = {"hits": 0, "misses": 0, "rule_decided": 0, "matrix_decided": 0}

# Class-level memo: class_a -> {class_b: bool}, where a class is
# ``(name, params, position of the shared qubit, arity)``; see
# :func:`_class_pair_commutes`.  Rows keep the inner loops from hashing
# ``class_a`` again for every ``class_b``.
_CLASS_VERDICTS: Dict[tuple, Dict[tuple, bool]] = {}

# Class keys interned across summaries, so that a class shared by many
# summaries is one tuple, not one per summary and qubit.
_CLASS_KEYS: Dict[tuple, tuple] = {}

_NO_QUBITS: frozenset = frozenset()

# Single-qubit gates that commute with being the *control* of a CX/CZ/CRZ/CP
# (i.e. diagonal gates) and with being the *target* of a CX (X-axis gates).
_Z_AXIS = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "p", "id"})
_X_AXIS = frozenset({"x", "sx", "sxdg", "rx", "id"})

# Two-qubit controlled gates, and which of their qubits is control/target.
_CONTROLLED_2Q = frozenset({"cx", "cz", "cy", "ch", "crz", "crx", "cry", "cp"})
# Diagonal two-qubit gates: commute with any Z-axis single-qubit gate on
# either operand and with each other.
_DIAGONAL_2Q = frozenset({"cz", "crz", "cp", "rzz"})


def clear_commutation_cache() -> None:
    """Clear the memoised commutation results (pair-level and matrix-level)."""
    _PAIR_CACHE.clear()
    _CLASS_VERDICTS.clear()
    _CLASS_KEYS.clear()
    _matrix_commutes_cached.cache_clear()
    for key in _STATS:
        _STATS[key] = 0


def commutation_cache_stats() -> Dict[str, int]:
    """Hit/miss statistics of the pair-level commutation cache.

    ``hits``/``misses`` count lookups of the pair-level cache;
    ``rule_decided``/``matrix_decided`` split the misses by which engine
    settled them.  ``size`` is the number of memoised pair patterns and
    ``matrix_cache_size`` the entries of the underlying matrix memo.
    """
    info = _matrix_commutes_cached.cache_info()
    return {**_STATS, "size": len(_PAIR_CACHE),
            "matrix_cache_size": info.currsize}


def set_commutation_cache_enabled(enabled: bool) -> bool:
    """Toggle the pair-level cache (the matrix memo is always on).

    Returns the previous setting.  Used by the perf-regression benchmarks to
    time the uncached reference path; results are identical either way.
    The class-level memo of :class:`CommutationSummary` follows the same
    switch.
    """
    global _pair_cache_enabled
    previous = _pair_cache_enabled
    _pair_cache_enabled = bool(enabled)
    return previous


def _pair_key(a: Gate, b: Gate) -> tuple:
    """Canonical (name, params, relative-overlap) key of an ordered gate pair.

    Qubits are renumbered by their rank within the pair's qubit union, so
    every concrete pair with the same structural overlap shares one entry.
    Single-qubit x two-qubit pairs, the bulk of the aggregation pass's
    cache probes, rank their qubits by comparison instead of sorting.
    """
    if a._is_single and b._is_two:
        pos_a, pos_b = _ranks_1q_2q(a.qubits[0], b.qubits)
        return (a.name, a.params, pos_a, b.name, b.params, pos_b)
    if a._is_two and b._is_single:
        pos_b, pos_a = _ranks_1q_2q(b.qubits[0], a.qubits)
        return (a.name, a.params, pos_a, b.name, b.params, pos_b)
    union = sorted(a._qubit_set | b._qubit_set)
    index = {q: i for i, q in enumerate(union)}
    return (a.name, a.params, tuple(index[q] for q in a.qubits),
            b.name, b.params, tuple(index[q] for q in b.qubits))


def _ranks_1q_2q(x: int, pair: Tuple[int, int]
                 ) -> Tuple[Tuple[int], Tuple[int, int]]:
    """Union ranks of qubit ``x`` and of a two-qubit gate's ``(c, t)``."""
    c, t = pair
    if x == c:
        return ((0,), (0, 1)) if c < t else ((1,), (1, 0))
    if x == t:
        return ((1,), (0, 1)) if c < t else ((0,), (1, 0))
    return (((c < x) + (t < x),),
            ((x < c) + (t < c), (x < t) + (c < t)))


def commutes(gate_a: Gate, gate_b: Gate) -> bool:
    """Return True when ``gate_a`` and ``gate_b`` commute.

    Barriers, measurements and resets are treated as commuting with nothing
    that shares a qubit with them (conservative).

    Decision tiers, cheapest first: disjoint qubits; zero-allocation
    structural rules (identity, diagonal pairs, axis-aligned single-qubit
    gates, control/target rules, CX-CX); then the pair-level cache over the
    overlap-pattern rules and the exact matrix check.  The fast rules are
    *not* routed through the cache because a single dict probe on the
    canonical key costs more than they do.
    """
    if gate_a._qubit_set.isdisjoint(gate_b._qubit_set):
        return True
    if not gate_a._is_unitary or not gate_b._is_unitary:
        return False

    # The commonest fast rules are inlined: one extra function call per
    # query is measurable at the aggregation pass's call volume.
    name_a = gate_a.name
    name_b = gate_b.name
    if name_a == "cx" and name_b == "cx":
        qa = gate_a.qubits
        qb = gate_b.qubits
        # Same control or same target -> commute; control/target collision -> not.
        if qa == qb:
            return True
        if qa[0] == qb[0] and qa[1] != qb[1]:
            return True
        return qa[1] == qb[1] and qa[0] != qb[0]
    if gate_a._diagonal and gate_b._diagonal:
        return True

    rule = _fast_rules(gate_a, gate_b)
    if rule is not None:
        return rule

    if not _pair_cache_enabled:
        rule = _overlap_rules(gate_a, gate_b)
        if rule is not None:
            return rule
        return _matrix_commutes(gate_a, gate_b)

    key = _pair_key(gate_a, gate_b)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1
    rule = _overlap_rules(gate_a, gate_b)
    if rule is not None:
        _STATS["rule_decided"] += 1
        result = rule
    else:
        _STATS["matrix_decided"] += 1
        result = _matrix_commutes(gate_a, gate_b)
    if len(_PAIR_CACHE) >= _PAIR_CACHE_MAX:  # pragma: no cover - defensive
        _PAIR_CACHE.clear()
    _PAIR_CACHE[key] = result
    return result


def commutes_with_all(gate: Gate, gates: Iterable[Gate]) -> bool:
    """True when ``gate`` commutes with every gate in ``gates``."""
    return all(commutes(gate, other) for other in gates)


def commutes_through(gate: Gate, gates: Sequence[Gate]) -> bool:
    """True when ``gate`` can be moved across the whole sequence ``gates``.

    Because commutation is checked pairwise this is sufficient (though not
    necessary) for the reordering ``[gates..., gate] -> [gate, gates...]`` to
    preserve the circuit semantics.
    """
    return commutes_with_all(gate, gates)


# ---------------------------------------------------------------------------
# Structural class summaries of gate collections
# ---------------------------------------------------------------------------

def _verdict_row(class_a: tuple) -> Dict[tuple, bool]:
    """The memoised verdicts of ``class_a`` against other classes."""
    row = _CLASS_VERDICTS.get(class_a)
    if row is None:
        row = {}
        if _pair_cache_enabled:
            _CLASS_VERDICTS[class_a] = row
    return row


def _class_pair_commutes(class_a: tuple, class_b: tuple,
                         row: Dict[tuple, bool]) -> bool:
    """Do two gates that share exactly one qubit commute, given their classes?

    A class is ``(name, params, position of the shared qubit, arity)``.
    Because :func:`commutes` depends only on the canonical pair pattern, the
    verdict is that of one synthetic pair with this pattern — the shared
    qubit is 0 and every other qubit is private to its gate — so no
    concrete gate can carry a second shared qubit into a memoised verdict.
    ``row`` is ``_verdict_row(class_a)``; the verdict is stored there.
    """
    verdict = row.get(class_b)
    if verdict is None:
        verdict = row[class_b] = commutes(
            _class_representative(class_a, 1),
            _class_representative(class_b, class_a[3]))
    return verdict


def _class_representative(gate_class: tuple, first_private: int) -> Gate:
    """A gate of ``gate_class`` on qubit 0; its other qubits start at
    ``first_private``."""
    name, params, position, arity = gate_class
    qubits = list(range(first_private, first_private + arity - 1))
    qubits.insert(position, 0)
    return Gate.from_trusted(name, tuple(qubits), params)


def _pair_id(a: int, b: int) -> int:
    """One int per unordered qubit pair (ints add no garbage-collector
    work, where tuples would)."""
    return (a << 32 | b) if a < b else (b << 32 | a)


class CommutationSummary:
    """Per-qubit structural summary of a growing sequence of gates.

    Every unitary gate is filed, for each qubit ``q`` it touches, under the
    class ``(name, params, position of q, arity)``; each qubit keeps its
    distinct classes in the order they appeared.  A gate that shares only
    ``q`` with a member commutes with it exactly when the two classes do
    (:func:`_class_pair_commutes`), so the questions below reduce to class
    verdicts plus two exact corrections:

    * gates sharing two or more qubits are checked directly, found through
      an index of members by qubit pair;
    * a failing class verdict only counts through a member that really
      shares a single qubit; members sharing more are checked directly.

    Non-unitary gates (barrier, measure, reset) commute with nothing they
    overlap, so they only mark their qubits as opaque.

    The summary follows the list it was given: gates appended to it later
    count from the next question on.  Work and memory wait until a question
    needs them: gates are grouped by qubit when a question is asked, and a
    qubit's gates are filed into classes when a question first compares
    classes there.  Classes at a qubit only grow, so :meth:`admits` keeps,
    per candidate class and qubit, how many classes it has compared and
    which of them failed: a repeated query costs the classes added since,
    not the window.  That memo lives and dies with the summary; the
    class-pair verdicts are global and emptied by
    :func:`clear_commutation_cache`.
    """

    __slots__ = ("_source", "_grouped", "_at", "_opaque", "_filed",
                 "_classes_at", "_pairs", "_seen")

    def __init__(self, gates: Sequence[Gate]) -> None:
        self._source = gates
        #: How many gates of ``_source`` are grouped by qubit.
        self._grouped = 0
        #: qubit -> the unitary gates touching it.
        self._at: Dict[int, List[Gate]] = {}
        self._opaque: AbstractSet[int] = _NO_QUBITS
        # Made when a qubit is first filed: qubit -> how many of its gates
        # are filed, and its classes in the order they appeared (a dict
        # used as an ordered set); qubit pair (``_pair_id``) -> filed
        # gates touching both qubits.
        self._filed: Optional[Dict[int, int]] = None
        self._classes_at: Optional[Dict[int, Dict[tuple, None]]] = None
        self._pairs: Optional[Dict[int, List[Gate]]] = None
        #: (candidate class, qubit) -> (classes compared, failing classes).
        self._seen: Optional[Dict[tuple, Tuple[int, List[tuple]]]] = None

    def _group(self) -> None:
        """Group the gates appended to the followed list by qubit."""
        source, at = self._source, self._at
        for gate in source[self._grouped:]:
            if not gate._is_unitary:
                self._opaque = self._opaque | frozenset(gate.qubits)
                continue
            for qubit in gate.qubits:
                gates = at.get(qubit)
                if gates is None:
                    at[qubit] = [gate]
                else:
                    gates.append(gate)
        self._grouped = len(source)

    def _first_gates(self) -> Dict[int, Gate]:
        """qubit -> the first gate touching it (a scan; nothing is kept)."""
        first: Dict[int, Gate] = {}
        for gate in self._source:
            for qubit in gate.qubits:
                if qubit not in first:
                    first[qubit] = gate
        return first

    def _classes(self, qubit: int) -> Dict[tuple, None]:
        """The classes at ``qubit``, after filing its gates not yet filed.

        A qubit pair is indexed when its first qubit (in the gate's order)
        is filed; every question files all the qubits it compares before it
        looks a pair up.
        """
        filed = self._filed
        if filed is None:
            filed, self._classes_at, self._pairs = {}, {}, {}
            self._filed = filed
        gates = self._at[qubit]
        start = filed.get(qubit, 0)
        if start == len(gates):
            return self._classes_at[qubit]
        known = self._classes_at.get(qubit)
        if known is None:
            known = self._classes_at[qubit] = {}
        pairs = self._pairs
        for gate in gates[start:]:
            qubits = gate.qubits
            arity = len(qubits)
            position = qubits.index(qubit) if arity > 1 else 0
            key = (gate.name, gate.params, position, arity)
            if key not in known:
                known[_CLASS_KEYS.setdefault(key, key)] = None
            for other in qubits[position + 1:]:
                pair = _pair_id(qubit, other)
                members = pairs.get(pair)
                if members is None:
                    pairs[pair] = [gate]
                else:
                    members.append(gate)
        filed[qubit] = len(gates)
        return known

    def _members(self, qubit: int, gate_class: tuple) -> List[Gate]:
        """The gates of ``gate_class`` at ``qubit``."""
        name, params, position, arity = gate_class
        return [gate for gate in self._at[qubit]
                if len(gate.qubits) == arity
                and gate.qubits[position] == qubit
                and gate.name == name and gate.params == params]

    def admits(self, gate: Gate) -> bool:
        """True when ``gate`` commutes with every gate of the summary."""
        if self._grouped < len(self._source):
            self._group()
        qubits = gate.qubits
        opaque, at = self._opaque, self._at
        if not gate._is_unitary:
            return opaque.isdisjoint(qubits) and at.keys().isdisjoint(qubits)
        arity = len(qubits)
        name, params = gate.name, gate.params
        seen = self._seen
        if seen is None:
            seen = self._seen = {}
        rows = _CLASS_VERDICTS
        for position, qubit in enumerate(qubits):
            if qubit in opaque:
                return False
            gates = at.get(qubit)
            if gates is None:
                continue
            if (self._filed is None or qubit not in self._filed) \
                    and not commutes(gate, gates[0]):
                # Refuted by the qubit's first gate before filing it.
                return False
            known = self._classes(qubit)
            own = (name, params, position, arity)
            row = rows.get(own)
            if row is None:
                row = _verdict_row(own)
            memo_key = (own, qubit)
            memo = seen.get(memo_key)
            if memo is None:
                covered, failing = 0, []
            else:
                covered, failing = memo
                for other in failing:
                    if self._refutes(gate, qubit, other):
                        return False
            total = len(known)
            if covered < total:
                # Classes are compared lazily, as the pairwise loop did:
                # the scan stops at the first class that refutes the gate.
                for index, other in enumerate(islice(known, covered, None),
                                              covered):
                    verdict = row.get(other)
                    if verdict is None:
                        verdict = _class_pair_commutes(own, other, row)
                    if not verdict:
                        failing.append(other)
                        if self._refutes(gate, qubit, other):
                            seen[memo_key] = (index + 1, failing)
                            return False
                seen[memo_key] = (total, failing)
        pairs = self._pairs
        if pairs:
            for index, a in enumerate(qubits):
                for b in qubits[index + 1:]:
                    for member in pairs.get(_pair_id(a, b), ()):
                        if not commutes(gate, member):
                            return False
        return True

    def _refutes(self, gate: Gate, qubit: int, gate_class: tuple) -> bool:
        """Given that ``gate`` fails to commute with ``gate_class`` at
        ``qubit`` on a single shared qubit, does a member really fail?

        A member sharing only ``qubit`` does; one sharing more qubits has a
        different overlap pattern and is checked directly.
        """
        if len(gate.qubits) == 1:
            return True
        shared = gate._qubit_set
        for member in self._members(qubit, gate_class):
            if (len(member._qubit_set & shared) == 1
                    or not commutes(gate, member)):
                return True
        return False

    def commutes_with(self, other: "CommutationSummary") -> bool:
        """True when every gate here commutes with every gate of ``other``.

        Costs the class pairs on the qubits both summaries touch, plus the
        member pairs that share a qubit pair.  Before a summary is grouped,
        or a shared qubit filed, the first gates there on both sides are
        compared: most pairs of items that do not commute fail there, and a
        failure is final.
        """
        if (self._grouped < len(self._source)
                or other._grouped < len(other._source)):
            mine, theirs = self._first_gates(), other._first_gates()
            for qubit in mine.keys() & theirs.keys():
                if not commutes(mine[qubit], theirs[qubit]):
                    return False
            if self._grouped < len(self._source):
                self._group()
            if other._grouped < len(other._source):
                other._group()
        mine, theirs = self._at, other._at
        mine_opaque, theirs_opaque = self._opaque, other._opaque
        if mine_opaque or theirs_opaque:
            if (not mine_opaque.isdisjoint(theirs.keys())
                    or not mine_opaque.isdisjoint(theirs_opaque)
                    or not theirs_opaque.isdisjoint(mine.keys())):
                return False
        shared_qubits = mine.keys() & theirs.keys()
        mine_filed, theirs_filed = self._filed, other._filed
        for qubit in shared_qubits:
            if ((mine_filed is None or qubit not in mine_filed
                    or theirs_filed is None or qubit not in theirs_filed)
                    and not commutes(mine[qubit][0], theirs[qubit][0])):
                return False
        rows = _CLASS_VERDICTS
        for qubit in shared_qubits:
            order_b = other._classes(qubit)
            for class_a in self._classes(qubit):
                row = rows.get(class_a)
                if row is None:
                    row = _verdict_row(class_a)
                for class_b in order_b:
                    verdict = row.get(class_b)
                    if verdict is None:
                        verdict = _class_pair_commutes(class_a, class_b, row)
                    if not verdict and any(
                            other._refutes(gate_a, qubit, class_b)
                            for gate_a in self._members(qubit, class_a)):
                        return False
        theirs_pairs = other._pairs
        if self._pairs and theirs_pairs:
            for pair, members in self._pairs.items():
                for gate_b in theirs_pairs.get(pair, ()):
                    for gate_a in members:
                        if not commutes(gate_a, gate_b):
                            return False
        return True


# ---------------------------------------------------------------------------
# Rule-based fast paths
# ---------------------------------------------------------------------------

def _fast_rules(a: Gate, b: Gate) -> Optional[bool]:
    """Structural rules that never inspect the overlap pattern.

    These are cheaper than one cache probe, so :func:`commutes` runs them
    before touching the pair-level cache.  The CX-CX and diagonal-pair
    rules are inlined in :func:`commutes` itself and therefore absent here.
    Returns None when undecided.
    """
    # Identity commutes with everything.
    if a.name == "id" or b.name == "id":
        return True

    if a._is_single:
        if b._is_single:
            axis_a = a._axis
            if axis_a is not None and axis_a == b._axis:
                return True
            return None
        if b._is_multi:
            return _single_multi(a, b)
        return None
    if b._is_single:
        if a._is_multi:
            return _single_multi(b, a)
        return None

    return None


def _overlap_rules(a: Gate, b: Gate) -> Optional[bool]:
    """Rules that depend on which qubits the two gates share.

    Only reached when the inlined fast rules and :func:`_fast_rules` are
    undecided; the verdict (or the matrix fallback's) is memoised by
    :func:`commutes` on the canonical overlap-pattern key.  Returns None
    when undecided.
    """
    if a._is_two and b._is_two:
        return _two_two(a, b, a._qubit_set & b._qubit_set)
    return None


def _single_multi(single: Gate, multi: Gate) -> Optional[bool]:
    q = single.qubits[0]
    if multi.name in _CONTROLLED_2Q or multi.name in ("ccx", "ccz", "cswap"):
        controls, targets = _controls_targets(multi)
        if q in controls:
            # A Z-axis gate commutes with any control.
            if single.name in _Z_AXIS:
                return True
            return None
        if q in targets:
            if multi.name in ("cx", "ccx") and single.name in _X_AXIS:
                return True
            if multi.name in ("cz", "crz", "cp", "ccz") and single.name in _Z_AXIS:
                return True
            return None
    if multi.name == "rzz" and single.name in _Z_AXIS:
        return True
    if multi.name == "rxx" and single.name in _X_AXIS:
        return True
    return None


def _controls_targets(gate: Gate) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Return the (controls, targets) qubit split of a controlled gate."""
    if gate.name in _CONTROLLED_2Q:
        return (gate.qubits[0],), (gate.qubits[1],)
    if gate.name in ("ccx", "ccz"):
        return gate.qubits[:2], gate.qubits[2:]
    if gate.name == "cswap":
        return gate.qubits[:1], gate.qubits[1:]
    return (), gate.qubits


def _two_two(a: Gate, b: Gate, shared: set) -> Optional[bool]:
    # CX-CX and diagonal-diagonal pairs are decided by the rules inlined in
    # commutes() and never reach this function.
    if {a.name, b.name} <= (_CONTROLLED_2Q | {"rzz"}):
        # A diagonal 2q gate commutes with a controlled gate when every shared
        # qubit sits on the controlled gate's control and the diagonal gate is
        # Z-like on that qubit (always true for cz/crz/cp/rzz).
        diag, other = (a, b) if a.name in _DIAGONAL_2Q else (b, a)
        if diag.name in _DIAGONAL_2Q and other.name in _CONTROLLED_2Q:
            controls, _ = _controls_targets(other)
            if shared <= set(controls):
                return True
            if other.name in _DIAGONAL_2Q:
                return True
            return None
    return None


# ---------------------------------------------------------------------------
# Matrix fallback
# ---------------------------------------------------------------------------

def _matrix_commutes(a: Gate, b: Gate) -> bool:
    union = sorted(set(a.qubits) | set(b.qubits))
    index = {q: i for i, q in enumerate(union)}
    key = (
        a.name, a.params, tuple(index[q] for q in a.qubits),
        b.name, b.params, tuple(index[q] for q in b.qubits),
        len(union),
    )
    return _matrix_commutes_cached(key)


@lru_cache(maxsize=200_000)
def _matrix_commutes_cached(key) -> bool:
    (name_a, params_a, pos_a, name_b, params_b, pos_b, n) = key
    mat_a = _embed(name_a, params_a, pos_a, n)
    mat_b = _embed(name_b, params_b, pos_b, n)
    # ``np.allclose(ab, ba, atol=_ATOL)`` for finite matrices, without its
    # argument handling (which costs more than the 4x4 products).
    ab, ba = mat_a @ mat_b, mat_b @ mat_a
    return bool(np.all(np.abs(ab - ba) <= _ATOL + _RTOL * np.abs(ba)))


def _embed(name: str, params: Tuple[float, ...], positions: Tuple[int, ...],
           num_qubits: int) -> np.ndarray:
    """Embed a gate unitary acting on ``positions`` into ``num_qubits`` qubits."""
    gate_u = gate_spec(name).unitary(*params)
    k = len(positions)
    dim = 2 ** num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    # Build by iterating over computational basis states: for each basis state
    # of the full register, apply the gate to the sub-register.
    gate_dim = 2 ** k
    for basis in range(dim):
        bits = [(basis >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        sub = 0
        for pos in positions:
            sub = (sub << 1) | bits[pos]
        column = gate_u[:, sub]
        for sub_out in range(gate_dim):
            amp = column[sub_out]
            if amp == 0:
                continue
            out_bits = list(bits)
            for i, pos in enumerate(positions):
                out_bits[pos] = (sub_out >> (k - 1 - i)) & 1
            out_index = 0
            for bit in out_bits:
                out_index = (out_index << 1) | bit
            full[out_index, basis] += amp
    return full
