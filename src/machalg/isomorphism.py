"""Machine isomorphism, completeness, the full-set embedding, and certificate checks.

An isomorphism between machines is a pair of bijections: g on states and h
on functions, commuting in the sense g(f(s)) = h(f)(g(s)).  The commuting
condition forces h(f) = g . f . g^-1, so only g is ever searched; h is
induced and looked up.  Witnesses are canonical: the lexicographically
least valid g under the source state order, so identical inputs always
produce identical certificates.

Completeness asks for a sub-machine of one machine isomorphic to another.
A full container takes the target on its first states, each function extended
by the identity, unsearched; otherwise subsets are searched exhaustively.
Either way the witness is built from what was found, its state reduction by
``reductions._state_witness`` from (index, restriction) hits; only checkers replay it.

Both searches run on one explicit-stack loop, :func:`_search`, so no input
depth meets the recursion limit.  Isomorphism prunes by colour refinement of
the disjoint union (hashed rounds, then McKay & Piperno, 2014), and one-function
machines need no search at all (in-tree codes); completeness checks the embedding's
own equations as soon as both of their states are placed (Ullmann, 1976).  Each
self-map is peeled and its cycles walked once, by :func:`_function_profile`;
fingerprints, state signatures and in-tree codes all read that decomposition.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Optional, Sequence

from .errors import IncompatibleShapesError, MachalgError, SearchBudgetExceededError, _Value
from .machine import Machine, _numeral
from .reductions import Reduction, _restrictions, _state_witness, functional_reduction, sub_machine
from .textio import _CERT_REQUIRED, Certificate


class Morphism(_Value):
    """State and function mappings as index tables.

    ``g[i]`` is the target state index for source state ``i``; ``h[j]`` is
    the target function index for source function ``j``.  Semantic checks
    (bijectivity, commutation) live in :func:`verify_morphism`.
    """

    g: tuple[int, ...]
    h: tuple[int, ...]

    def __init__(self, g, h):
        self._store(g, h)


class CompletenessWitness(_Value):
    """Sub-machine location plus the isomorphism onto it.

    ``reductions`` is the functional-then-state pair applied to the
    container; ``morphism`` maps the target machine onto the reduced one.
    """

    reductions: tuple[Reduction, Reduction]
    morphism: Morphism

    def __init__(self, reductions, morphism):
        self._store(reductions, morphism)


def verify_morphism(a: Machine, b: Machine, mor: Morphism) -> bool:
    """Check that ``mor`` is an isomorphism from ``a`` to ``b``.

    Shape preconditions (equal state and function counts) are hard errors;
    everything else, including malformed index tables, is just ``False``.
    """
    n = a.n_states
    k = a.n_functions
    if b.n_states != n or b.n_functions != k:
        raise IncompatibleShapesError(
            f"cannot compare a {n}-state/{k}-function machine with a "
            f"{b.n_states}-state/{b.n_functions}-function one"
        )
    if len(mor.g) != n or sorted(mor.g) != list(range(n)):
        return False
    if len(mor.h) != k or sorted(mor.h) != list(range(k)):
        return False
    for j, table in enumerate(a.tables):
        image = b.tables[mor.h[j]]
        for s in range(n):
            if mor.g[table[s]] != image[mor.g[s]]:
                return False
    return True


# ---------------------------------------------------------------------------
# Structural invariants used for pruning
# ---------------------------------------------------------------------------


def _function_profile(table: tuple[int, ...]) -> tuple[tuple, list[int], list[bool], list, list]:
    """(fingerprint, indegrees, on-cycle flags, tree states, cycles): one self-map's decomposition.

    Tree states are peeled children before parents; each cycle is listed
    along the map from its least state.  The fingerprint (image size,
    indegree multiset, cycle-length multiset) is preserved by conjugation
    with any state bijection, so mismatched fingerprint multisets rule an
    isomorphism out before any search.
    """
    n = len(table)
    indeg = [0] * n
    for j in table:
        indeg[j] += 1
    # Peel off states of indegree zero until only the cycles remain.
    deg = indeg[:]
    peeled = [i for i, d in enumerate(deg) if not d]
    for i in peeled:
        j = table[i]
        deg[j] -= 1
        if not deg[j]:
            peeled.append(j)
    cyclic, rings = [False] * n, []
    for i in range(n):
        if deg[i] and not cyclic[i]:  # in-degree left: the least state of a cycle not yet walked
            ring, j = [], i
            while not cyclic[j]:
                cyclic[j] = True
                ring.append(j)
                j = table[j]
            rings.append(ring)
    fingerprint = (n - indeg.count(0), tuple(sorted(indeg)), tuple(sorted(map(len, rings))))
    return fingerprint, indeg, cyclic, peeled, rings


def _facts(table: tuple[int, ...]) -> tuple[tuple, list[int]]:
    """(profile, state codes) of one self-map: each state's code is 4·indegree + 2·fixes + on a
    cycle.  Conjugation transports all three, so codes must agree between g-paired states."""
    profile = _function_profile(table)
    _, indeg, cyclic, _, _ = profile
    return profile, [4 * d + 2 * (u == s) + c for s, (u, d, c) in enumerate(zip(table, indeg, cyclic))]


def _state_signatures(codes: list[list[int]]) -> list:
    """Per-state fingerprints invariant under isomorphism, from each function's state codes:
    with one function its codes, with several the sorted tuple of them.  Conjugation matches
    functions one to one, so signatures must agree between g-paired states."""
    return codes[0] if len(codes) == 1 else [tuple(sorted(z)) for z in zip(*codes)]


# For each self-map on at most 4 states: [its table, (its profile, its state codes), its
# conjugates in relabelling order], each fact worked out on first use.  Every table held is
# a plain tuple key (a conjugate is its own entry's key), and there are 1 + 4 + 27 + 256 = 288
# such maps, so nothing is evicted.  No reader may mutate what the dict hands out.
_TINY: dict[tuple[int, ...], list] = {}


def _tiny(table: Sequence[int], i: int) -> Any:
    """Fact ``i`` (0, 1 or 2) of ``_TINY``'s entry for ``table``, worked out if it is not yet."""
    facts = _TINY.get(table)
    if facts is None:
        table = tuple(table)  # a compiled machine's step table is neither a key nor kept
        facts = _TINY[table] = [table, None, None]
    if facts[i] is None:
        t = facts[0]
        facts[i] = _facts(t) if i == 1 else tuple(_tiny(_conjugate(t, g), 0) for g in _relabellings(len(t)))
    return facts[i]


def _profile(m: Machine) -> tuple[int, tuple, list, list[tuple]]:
    """(key, invariants, state signatures, function profiles) of ``m``, caching
    the key on it: the invariants are its sorted function fingerprints and state
    signatures, the key their hash, alike under every PYTHONHASHSEED (ints and tuples).
    On at most 4 states the profiles and codes come from ``_TINY``, shared by every caller."""
    facts = [_tiny(t, 1) if m.n_states <= 4 else _facts(t) for t in m.tables]
    profiles = [p for p, _ in facts]
    sigs = _state_signatures([c for _, c in facts])
    invariants = (tuple(sorted(p[0] for p in profiles)), tuple(sorted(sigs)))
    key = m.__dict__["_fingerprint_key"] = hash(invariants)
    return key, invariants, sigs, profiles


def _conjugate(table: tuple[int, ...], g: Sequence[int]) -> tuple[int, ...]:
    """The table g . f . g^-1 of a self-map f under an injection g onto 0..n-1."""
    conj = [0] * len(table)
    for s, t in enumerate(table):
        conj[g[s]] = g[t]
    return tuple(conj)


def _relabellings(n: int) -> Iterator[tuple[int, ...]]:
    """The n! bijections of n states, in the order every relabelling is tried: lexicographic."""
    return itertools.permutations(range(n))


# ---------------------------------------------------------------------------
# The search core
# ---------------------------------------------------------------------------

def _search(problems: Iterable[tuple], n: int, what: str, node_budget: Optional[int]) -> Any:
    """Lexicographic depth-first search, on an explicit stack, for an assignment g of n states.

    Each problem is a pair (candidates, leaf): ``candidates(i, g)`` yields
    the targets for state i in increasing order given ``g[:i]``, and
    ``leaf(g)`` turns a full g into a result or None; the first result wins.
    Every candidate costs one node of the shared budget; exceeding it raises.
    """
    g = [-1] * n
    nodes = depth = 0
    for candidates, leaf in problems:
        stack = [candidates(0, g)]
        while stack:
            i = len(stack) - 1
            t = next(stack[i], None)
            if t is None:
                stack.pop()
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise SearchBudgetExceededError(what, node_budget, depth, n)
            g[i] = t
            depth = max(depth, i + 1)
            if i + 1 < n:
                stack.append(candidates(i + 1, g))
            else:
                found = leaf(g)
                if found is not None:
                    return found
    return None


def _colour_rounds(sigs: list, tables: list[tuple[int, ...]], n: int) -> Optional[list[int]]:
    """Colours of the 2n states of a ⊔ b (functions ``tables``) from ``sigs`` by whole rounds of
    colour refinement (Berkholz, Bonsma & Grohe, 2017), or None if a colour is unbalanced.  A
    round adds to a state's colour the sums of hashed weights of its out- and in-neighbours'
    colours: a function of their multisets, so never finer than the coarsest equitable partition.
    Rounds stop when one adds no colour, after (2n).bit_length() (a path needs n), or when none
    can help: one colour never splits (k out-arcs each, in-arcs fixed by the signature), and n
    colours are discrete or unbalanced."""
    ids: dict = {}
    colours = [ids.setdefault(s, len(ids)) for s in sigs]
    for r in range((2 * n).bit_length()):
        count = len(ids)
        if not 1 < count < n:
            break
        w = [hash((r, c)) for c in range(count)]
        weight = [w[c] for c in colours]
        outs, ins = [0] * (2 * n), [0] * (2 * n)
        for t in tables:
            outs = [x + weight[u] for x, u in zip(outs, t)]
            for s, u in enumerate(t):
                ins[u] += weight[s]
        ids = {}
        colours = [ids.setdefault(key, len(ids)) for key in zip(colours, outs, ins)]
        if len(ids) == count:
            break
    return colours if sorted(colours[:n]) == sorted(colours[n:]) else None


class _Partition:
    """An ordered partition of the 2n states of a ⊔ b (a's below n), refined in place.

    Each cell is a run of ``lab`` named by the index where it starts:
    ``cell[v]`` names v's cell and ``end[c]`` is one past its run.  Splits
    stay inside the parent's run and are logged on ``trail``, so undoing
    one restores ``end`` and ``cell`` only: the state is linear in n.
    """

    def __init__(self, colours: list[int], out: Sequence[Sequence[int]], n: int):
        self.n, self.out, self.trail = n, out, []
        self.inn: list[list[int]] = [[] for _ in out]
        for s, ts in enumerate(out):
            for t in ts:
                self.inn[t].append(s)
        self.lab = sorted(range(2 * n), key=colours.__getitem__)
        self.cell = [0] * (2 * n)
        self.end = [2 * n] * (2 * n)
        c = 0  # the first cells are the runs of equal colour
        for i, v in enumerate(self.lab):
            if colours[v] != colours[self.lab[c]]:
                self.end[c], c = i, i
            self.cell[v] = c

    def carve(self, d: int, groups: list[list[int]]) -> list[int]:
        """Split cell d: the states of ``groups`` move to the tail of its
        run, one new cell per group, and d keeps the rest (or else is the
        first group).  Returns the ids of all the fragments, d first."""
        lab, cell, end, e = self.lab, self.cell, self.end, self.end[d]
        moving = {w for f in groups for w in f}
        rest = [v for v in lab[d:e] if v not in moving]
        runs = [rest] + groups if rest else groups
        lab[d:e] = [w for f in runs for w in f]
        ids, p = [], d
        for f in runs:
            ids.append(p)
            end[p] = p + len(f)
            for w in f:
                cell[w] = p
            p += len(f)
        self.trail.append((d, e, ids[1]))
        return ids

    def undo(self, mark: int) -> None:
        """Undo every split logged since ``trail`` had ``mark`` entries."""
        while len(self.trail) > mark:
            d, e, first = self.trail.pop()
            self.end[d] = e
            for w in self.lab[first:e]:
                self.cell[w] = d

    def refine(self, queue: list[int]) -> bool:
        """Refine to the coarsest equitable partition below the current one.

        A cell splits by (arcs into the splitter cell, arcs out of it), over
        all functions with multiplicity.  Fragments are queued as splitters,
        all but the largest unless their cell was still queued (Hopcroft).
        Returns False once a cell holds unequal numbers of a- and b-states.
        """
        lab, cell, end, out, inn, n = self.lab, self.cell, self.end, self.out, self.inn, self.n
        queued = set(queue)
        shift = len(lab) * len(out[0])  # exceeds any count of arcs into one state
        while queue:
            c = queue.pop()
            queued.discard(c)
            key: dict[int, int] = {}
            get = key.get
            for u in lab[c : end[c]]:
                for w in inn[u]:
                    key[w] = get(w, 0) + shift
                for w in out[u]:
                    key[w] = get(w, 0) + 1
            touched: dict[int, list[int]] = {}
            for w in key:
                touched.setdefault(cell[w], []).append(w)
            for d, ws in touched.items():
                size = end[d] - d
                if size == 2:  # one a-state and one b-state: a split unbalances it
                    if len(ws) == 1 or key[ws[0]] != key[ws[1]]:
                        return False
                    continue
                groups: dict[int, list[int]] = {}
                for w in ws:
                    groups.setdefault(key[w], []).append(w)
                if len(ws) == size and len(groups) == 1:
                    continue
                frags = [groups[k] for k in sorted(groups)]
                # The cell was balanced, so what stays in front is too
                # when every group that moves is.
                for f in frags:
                    if len(f) != 2 * sum(1 for v in f if v < n):
                        return False
                was_queued = d in queued
                ids = self.carve(d, frags)
                largest = max(ids, key=lambda s: end[s] - s)
                for s in ids:
                    if (was_queued or s != largest) and s not in queued:
                        queue.append(s)
                        queued.add(s)
        return True


def _least_rotation(seq: list[int]) -> tuple[int, int]:
    """(start, least period) of the least rotation of a cyclic sequence, in O(len).
    Each start below j but i is beaten, so i's and j's agreeing in full make j - i the period."""
    n, i, j, k = len(seq), 0, 1, 0
    while j < n and k < n:
        x, y = seq[(i + k) % n], seq[(j + k) % n]
        if x == y:
            k += 1
        else:
            i, j, k = (j, max(j, i + k) + 1, 0) if x > y else (i, j + k + 1, 0)
    return i, j - i if k == n else n


def _in_tree_keys(table: tuple, profile: tuple, codes: dict, keys: dict) -> tuple[list, list]:
    """(key, on-cycle flag) per state of one self-map, read off its ``profile``.  A tree
    state's key is its code, the interned sorted tuple of its tree children's codes (Aho,
    Hopcroft & Ullman, 1974), and its image's key; a cycle state's, its cycle's least rotation
    of codes (Booth, 1980) and its offset from it modulo the period.  With ``codes`` and
    ``keys`` shared, states of two machines can correspond iff their keys are equal."""
    _, _, cyclic, peeled, rings = profile
    n = len(table)
    code, key, kids = [0] * n, [0] * n, [[] for _ in range(n)]
    for i in peeled:  # children before parents
        code[i] = codes.setdefault(tuple(sorted(kids[i])), len(codes))
        kids[table[i]].append(code[i])
    for ring in rings:
        seq = [codes.setdefault(tuple(sorted(kids[c])), len(codes)) for c in ring]
        r, p = _least_rotation(seq)
        kind = codes.setdefault((tuple(seq[r:] + seq[:r]),), len(codes))  # no tree's code
        for pos, c in enumerate(ring):
            key[c] = keys.setdefault((kind, (pos - r) % p), len(keys))
    for i in reversed(peeled):
        key[i] = keys.setdefault((code[i], key[table[i]]), len(keys))
    return key, cyclic


def _single_function_isomorphism(ta: tuple, tb: tuple, pa: tuple, pb: tuple) -> Optional[Morphism]:
    """The lexicographically least g with g . ta = tb . g, h = (0,), or None, in near-linear
    time, given the tables' profiles ``pa`` and ``pb``.

    Cycle states hang under a root n that maps to itself.  The least unplaced
    a-state s walks forward to a placed state x; its candidates are the
    b-states with its key at its depth under g(x) whose ancestor there is
    unplaced, and the least is placed with s's path (and cycle).  Placed
    parts stay closed and matched states keep equal multisets of unplaced
    child keys, so every candidate extends to an isomorphism: nothing is undone.
    """
    n, codes, keys = len(ta), {}, {}
    key_a, cyc_a = _in_tree_keys(ta, pa, codes, keys)
    key_b, cyc_b = _in_tree_keys(tb, pb, codes, keys)
    if sorted(key_a) != sorted(key_b):
        return None
    g, used, kids, below = [-1] * n + [n], [False] * n, {}, {}
    for y in range(n):
        kids.setdefault((n if cyc_b[y] else tb[y], key_b[y]), []).append(y)
    for s in range(n):
        path, x = [], s
        while g[x] < 0:
            path.append(x)
            x = n if cyc_a[x] else ta[x]
        if not path:
            continue
        cands = below.get((g[x], key_a[s]))  # (candidate, its ancestor under g(x)), cached
        if cands is None:
            level = [(c, c) for c in kids.get((g[x], key_a[path[-1]]), ()) if not used[c]]
            for u in reversed(path[:-1]):
                level = [(v, top) for w, top in level for v in kids.get((w, key_a[u]), ())]
            cands = below[g[x], key_a[s]] = sorted(level, reverse=True)
        while used[cands[-1][1]]:
            cands.pop()
        y, entry = cands[-1][0], path[-1]
        while x == n and ta[path[-1]] != entry:  # s reached a fresh cycle
            path.append(ta[path[-1]])
        for u in path:
            g[u], used[y], y = y, True, tb[y]
    return Morphism(tuple(g[:n]), (0,))


def _multi_function_isomorphism(
    a: Machine, b: Machine, sigs: list, node_budget: Optional[int]
) -> Optional[Morphism]:
    """:func:`find_isomorphism` for machines with two or more functions, past the invariant
    checks; ``sigs`` are the state signatures of a ⊔ b, a's states first."""
    n = a.n_states
    # b's states are shifted up by n in the union.
    tables = [ta + tuple(n + t for t in tb) for ta, tb in zip(a.tables, b.tables)]
    colours = _colour_rounds(sigs, tables, n)
    if colours is None:
        return None
    b_index = {t: j for j, t in enumerate(b.tables)}

    def leaf(g: list) -> Optional[Morphism]:
        h = [b_index.get(_conjugate(t, g)) for t in a.tables]
        # Conjugation by a bijection is injective, and counts match, so h
        # here is always a bijection once every conjugate is found.
        return None if None in h else Morphism(tuple(g), tuple(h))

    if max(colours) == n - 1:  # discrete: each colour is one a-state and one b-state
        b_state = dict(zip(colours[n:], range(n)))
        pairing = [b_state[c] for c in colours[:n]]
        # Equitable iff paired states see the same out-neighbour colours (in-arcs follow).
        sees = [sorted(z) for z in zip(*([colours[u] for u in t] for t in tables))]
        if [sees[n + j] for j in pairing] != sees[:n]:
            return None
        return _search([(lambda i, g: iter(pairing[i : i + 1]), leaf)], n, "isomorphism search", node_budget)
    part = _Partition(colours, list(zip(*tables)), n)
    # Every state has k out-arcs and its signature fixes its in-arc total,
    # so counts into the largest cell follow from the others'.
    cells = sorted(set(part.cell))
    largest = max(cells, key=lambda c: part.end[c] - c)
    if not part.refine([c for c in cells if c != largest]):
        return None

    def candidates(i: int, g: list) -> Iterator[int]:
        if i:  # individualise the pair chosen one level up, then refine
            d = part.cell[i - 1]
            if part.end[d] - d > 2 and not part.refine(part.carve(d, [[i - 1, n + g[i - 1]]])[1:]):
                return
        # The b-states of i's cell in increasing order, one at a time (no lists on the stack).
        c, t, mark = part.cell[i], n - 1, len(part.trail)
        while True:
            part.undo(mark)
            t = min((v for v in part.lab[c : part.end[c]] if v > t), default=None)
            if t is None:
                return
            yield t - n

    return _search([(candidates, leaf)], n, "isomorphism search", node_budget)


# The most candidates any search on n states can try, n + n(n-1) + ... + n!, for n <= 4.
_TINY_NODES = (0, 1, 4, 15, 64)


def _relabelling_isomorphism(a: Machine, b: Machine) -> Optional[Morphism]:
    """:func:`find_isomorphism` on at most 4 states, past the cached-key checks: the first g
    of :func:`_relabellings` whose conjugates, read from ``_TINY``, all lie in b's tables, or
    None.  A side is profiled only for its missing fingerprint key, which later rejections compare."""
    for m in (a, b):
        if "_fingerprint_key" not in m.__dict__:
            _profile(m)
    n, key = a.n_states, a.__dict__["_fingerprint_key"]
    if (key, n, a.n_functions) != (b.__dict__["_fingerprint_key"], b.n_states, b.n_functions):
        return None
    b_index = {t: j for j, t in enumerate(b.tables)}
    for g, conjugates in zip(_relabellings(n), zip(*(_tiny(t, 2) for t in a.tables))):
        h = tuple(map(b_index.get, conjugates))
        if None not in h:  # conjugation is injective and counts match: h is a bijection
            return Morphism(g, h)
    return None


def find_isomorphism(
    a: Machine, b: Machine, *, node_budget: Optional[int] = None
) -> Optional[Morphism]:
    """Canonical isomorphism witness or None.

    Colours the 2n states of a ⊔ b by their signatures and at most
    (2n).bit_length() rounds of colour refinement.  A discrete colouring pairs
    each a-state with one b-state and is checked directly; any other is refined
    to the coarsest equitable partition.  The search assigns a's states in
    order, each to the b-states of its cell in increasing order, individualising
    the pair and refining again.  Refinement only drops assignments that no
    isomorphism extends, so the first solution is the lexicographically least
    g.  h is never searched: each conjugate g.f.g^-1 must literally be
    one of b's functions, found by table lookup.  ``node_budget`` caps the
    candidates tried; exceeding it raises rather than guessing.  One-function
    machines get the same least g from :func:`_single_function_isomorphism`.
    On n <= 4 states, with no budget or one of at least n + n(n-1) + ... + n!
    (1, 4, 15, 64), which no search there can exhaust, the n! relabellings are
    tried in order instead: about four times faster than the search on keyed
    4-state pairs, and slower from 5 states on.  There each table's profile, state codes
    and conjugates are worked out once per process, in ``_TINY`` (at most 288 entries,
    each fact filled on first use; 0.35 MB in all): a 3-function call on 4 states takes
    about 31 µs on known tables, 110 µs on new ones, and 64 µs before the cache.
    """
    if node_budget is not None and node_budget < 0:
        raise MachalgError(f"node_budget must be at least 0, got {node_budget}")
    # Each machine caches two ints, and unequal ones prove non-isomorphism:
    # a hash of its sorted fingerprints and state signatures, set by the
    # first call that profiles it, and a hash of its state count and
    # image-size multiset, set by its first call (bijections never pair with
    # non-bijections).  A side with no key is profiled first, so a keyed
    # side whose key differs from the new one is never profiled.
    key_a, key_b = a.__dict__.get("_fingerprint_key"), b.__dict__.get("_fingerprint_key")
    if key_a is not None and key_b is not None and key_a != key_b:
        return None
    for m in (a, b):  # the first listing of each machine's functions
        if "_image_key" not in m.__dict__:
            sizes = sorted(len(set(t)) for t in m.tables)
            m.__dict__["_image_key"] = hash((m.n_states, tuple(sizes)))
    if a.__dict__["_image_key"] != b.__dict__["_image_key"]:
        return None
    if a.n_states <= 4 and (node_budget is None or node_budget >= _TINY_NODES[a.n_states]):
        return _relabelling_isomorphism(a, b)  # no search can run out of this budget
    first, second = (b, a) if key_a is not None else (a, b)
    key, invariants, sigs, profiles = _profile(first)
    if second.__dict__.get("_fingerprint_key", key) != key:
        return None
    _, second_invariants, second_sigs, second_profiles = _profile(second)
    if invariants != second_invariants:  # equal keys are no proof
        return None
    if a.n_functions == 1:  # no search, so no nodes spent
        pa, pb = (profiles, second_profiles) if first is a else (second_profiles, profiles)
        return _single_function_isomorphism(a.tables[0], b.tables[0], pa[0], pb[0])
    del profiles, second_profiles  # the search keeps only the state signatures
    sigs = sigs + second_sigs if first is a else second_sigs + sigs
    return _multi_function_isomorphism(a, b, sigs, node_budget)


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


def _construct_embedding(a: Machine, b: Machine) -> CompletenessWitness:
    """Embed ``b`` into the full machine ``a`` on a's first states, without searching.

    Each function of ``b`` is extended by the identity off those states; a
    full machine holds every table, in lexicographic order, so the
    extension's index is its table read as a base-n numeral and the witness
    verifies by construction.  The caller ensures ``b`` has no more states.
    """
    if not a.has_full_function_set():
        raise IncompatibleShapesError(
            "the constructive path needs the full function set on the container"
        )
    n, first, tables_b = a.n_states, range(b.n_states), b.tables
    rest = tuple(range(b.n_states, n))
    chosen = [_numeral(t + rest, n) for t in tables_b]
    return _witness(a, chosen, first, tables_b, first)


def _witness(
    a: Machine, chosen: list[int], subset: Sequence[int], conj_tables: Sequence, g: Sequence[int]
) -> CompletenessWitness:
    """The witness keeping ``a``'s functions at ``chosen`` and states at ``subset``, assembled
    with no replay and no label lookup in ``a``: b's state i goes to subset position ``g[i]``,
    b's function j to ``chosen[j]``, whose restriction (all distinct) is ``conj_tables[j]``."""
    fr, kept = functional_reduction(a, chosen), tuple(map(a.states.labels.__getitem__, subset))
    sr = _state_witness(fr.result, kept, zip(chosen, conj_tables), a)
    sub_index = {t: j for j, t in enumerate(sr.result.tables)}
    mor = Morphism(tuple(g), tuple(sub_index[t] for t in conj_tables))
    return CompletenessWitness((fr, sr), mor)


def is_complete(
    a: Machine,
    b: Machine,
    *,
    method: str = "auto",
    node_budget: Optional[int] = None,
) -> Optional[CompletenessWitness]:
    """Witness that some sub-machine of ``a`` is isomorphic to ``b``, or None.

    method "construct" uses the full-set embedding (requires a full ``a``),
    "search" is exhaustive over state subsets, "auto" picks construct when
    it applies.  A budget overrun raises; None is a definite negative.
    """
    if method not in ("auto", "construct", "search"):
        raise ValueError(f"unknown method {method!r}")
    if node_budget is not None and node_budget < 0:
        raise MachalgError(f"node_budget must be at least 0, got {node_budget}")
    if b.n_states > a.n_states:
        return None
    if method == "construct" or (method == "auto" and a.has_full_function_set()):
        return _construct_embedding(a, b)
    return _search_completeness(a, b, node_budget)


def _search_completeness(
    a: Machine, b: Machine, node_budget: Optional[int]
) -> Optional[CompletenessWitness]:
    """Exhaustive completeness search: state subsets in lexicographic order,
    then bijections onto each, on the shared search loop with one node budget.
    Equation (j, s, b_j(s)) is checked at the level placing the later of s and b_j(s)."""
    iter(a.tables)  # refused past the cap before any work, as every subset lists them
    n_b, tables_b = b.n_states, b.tables
    levels: list[list] = [[] for _ in range(n_b)]
    for j, s, u in ((j, s, u) for j, t in enumerate(tables_b) for s, u in enumerate(t)):
        levels[max(s, u)].append((j, s, u))
    problems = (
        _subset_problem(a, tables_b, subset, levels)
        for subset in itertools.combinations(range(a.n_states), n_b)
    )
    return _search((p for p in problems if p), n_b, "completeness search", node_budget)


def _subset_problem(a: Machine, tables_b: Sequence, subset: tuple[int, ...], levels: list):
    """Candidates and leaf for embedding b onto one state subset of a, or None.

    b embeds iff some bijection g conjugates each b-function into the
    reachable tables, the restrictions of a's subset-preserving functions.
    Forward checking (Ullmann, J. ACM 23, 1976) keeps, per b-function, the
    tables that meet its equations placed so far, and prunes when none do.
    The leaf keeps, per conjugate, the least-index function of a realizing it.
    """
    n_b = len(subset)
    # Restrictions of preserving functions, each with its least origin.
    reachable: dict[tuple[int, ...], int] = {}
    for idx, t in _restrictions(a, subset):
        reachable.setdefault(t, idx)
    if len(reachable) < len(tables_b):
        return None
    alive = [[list(reachable)] * len(tables_b)] + [None] * n_b  # per level, per b-function

    def candidates(i: int, g: list) -> Iterator[int]:
        used = g[:i]
        for t in range(n_b):
            if t not in used:
                g[i], left = t, alive[i][:]
                for j, s, u in levels[i]:
                    left[j] = [r for r in left[j] if r[g[s]] == g[u]]
                    if not left[j]:
                        break
                else:
                    alive[i + 1] = left
                    yield t

    def leaf(g: list) -> CompletenessWitness:  # every conjugate met its equations
        conj_tables = [_conjugate(t, g) for t in tables_b]
        return _witness(a, [reachable[t] for t in conj_tables], subset, conj_tables, g)

    return candidates, leaf


def verify_completeness(a: Machine, b: Machine, w: CompletenessWitness) -> bool:
    """The witness-object form of :func:`verify`: True only if replaying its
    kept functions and states on ``a`` gives exactly its two reductions, and
    its morphism maps ``b`` onto the replayed sub-machine."""
    fr, sr = w.reductions
    try:
        replay = sub_machine(a, fr.kept_functions, sr.kept_states)
    except (IndexError, TypeError, MachalgError):
        return False
    return replay == (fr, sr) and verify(Certificate("iso", w.morphism.g, w.morphism.h), b, sr.result)[0]


def verify(cert: Certificate, a: Machine, b: Machine) -> tuple[bool, str]:
    """``(True, "")`` if ``cert`` checks out for ``a`` and ``b``, else ``(False, reason)``; no search.

    ``iso`` maps ``a`` onto ``b``.  ``complete`` and ``submachine`` replay
    the sub-machine of ``a`` they keep: ``complete`` maps ``b`` onto it,
    and for ``submachine`` it must equal ``b``, labels included.
    """
    if cert.kind not in _CERT_REQUIRED:
        return False, f"unknown certificate kind {cert.kind!r}"
    numbers = cert.g, cert.h, cert.kept_functions
    if not all(isinstance(f, (tuple, list)) for f in (*numbers, cert.kept_states)) or not all(
        type(i) is int for f in numbers for i in f  # not bool, which renders as True/False
    ):
        return False, "g, h and kept_functions must be sequences of integers, kept_states a sequence"
    try:
        if cert.kind == "iso":
            ok = verify_morphism(a, b, Morphism(cert.g, cert.h))
            return ok, "" if ok else "the mapping does not commute with every function"
        sub = sub_machine(a, cert.kept_functions, cert.kept_states)[1].result
        if cert.kind == "complete":
            try:
                ok = verify_morphism(b, sub, Morphism(cert.g, cert.h))
            except IncompatibleShapesError:  # the replay has the wrong shape
                ok = False
            return ok, "" if ok else "the reductions or the morphism do not check out"
        if sub.states != b.states:
            return False, "the reduced state set differs from the target"
        if sub.tables != b.tables:
            return False, "the reduced function set differs from the target"
        return True, ""
    except IndexError:
        return False, "an index in the certificate is out of range"
    except MachalgError as e:
        return False, str(e)
