"""Exhaustive enumeration of rigid no-negative-end building configurations.

A building is a stack of levels of curve components, every component
confined to a leaf hypersurface, with negative ends of each level
matched bijectively to positive ends of the level below, no negative
ends at the bottom, and the unmatched top ends as its asymptotics.
Configurations are enumerated as shapes: orbit data is recorded by
type (surface critical point, base critical point, covering
multiplicity) and same-type critical points are not distinguished;
non-cylindrical leaves carry a twin flavor bit, and enumeration emits
the canonical flavor of each twin family.  A family with such a leaf
cancels against its twin, the flavor flip; every other family is
unpaired (``pair_cancellation``).

Component menus implement the structural facts of the model:

* no component has an asymptote at a contractible orbit, so there are
  no planes anywhere;
* components never cross the dividing set, and the ends of a component
  confined to one leaf sit over that leaf's critical points;
* in a left symplectization leaf every cylinder has zero energy and is
  trivial in the leaf identification; energy is filtered on cylinders
  only, so at the defaults, by ``OrbitType.action``, the ten pants in
  cyl(min) and cyl(hyp-) with one positive end have energy
  A(positive) - A(negative) from -1 to -3, though Stokes gives E >= 0
  (4 of the 29 torus configurations hold one, all of them twistable);
* every right-side symplectization component is a cover of a flow-line
  cylinder or of an orbit cylinder, with branching data realizable by
  an actual branched cover;
* main-level components live in page-like leaves, have positive ends
  only, and satisfy the non-negative-index bound of a generic
  semi-filling;
* covers of nonconstant flow-line cylinders glue along orbits whose
  leaf index is even (the convention pinning the published counts; see
  the run manifest).

Euler characteristic adds up when components are glued along circles,
so the components of a configuration with genus + ends <= 2 have
chi = 2 - 2g - #ends in {0, -1}, at most one of them -1, and the
plane case (genus 0, one end) is empty.  The menu holds only such
components, and a configuration has one bottom component and at most
two per level; its index bounds the number of levels.  Every
configuration the search builds is connected and has genus + ends <= 2
(the proofs are in ``_search``); on every document entry
``check_constraints`` audits connectivity again and
``Building.case_label`` the genus and end count.

The total index of a configuration is one, recomputed through the
index calculus from the orbit data, never trusted from construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .covers import BranchProfile, _fiber_partitions
from .errors import ConfigurationError, ConsistencyError, NoTwinError
from .indexcalc import (BASE_MAX, BASE_MIN, BASE_SADDLE, SIGMA_HYP_LEFT,
                        SIGMA_HYP_RIGHT, SIGMA_MAX, SIGMA_MIN, OrbitType,
                        PunctureProfile, fredholm_index_from_cz, kernel_bound,
                        normal_index, obstruction_rank, regularity_transfer)
from .model import (FLOW_LEFT, FLOW_RIGHT, PAGE_HYP_MIN, PAGE_MAX_HYP,
                    PAGE_MAX_MIN, Leaf, ModelConfig)

CASE_PLANE = "plane"
CASE_CYLINDER = "cylinder_two_positive"
CASE_TORUS = "torus_one_positive"


@dataclass(frozen=True, order=True)
class Component:
    """One curve component confined to a leaf."""

    leaf: Leaf
    genus: int
    pos: Tuple[OrbitType, ...]
    neg: Tuple[OrbitType, ...]
    trivial: bool = False
    cover_base: Optional[Tuple[str, ...]] = None
    degree: int = 1

    @property
    def index_ambient(self) -> int:
        return fredholm_index_from_cz(
            2, 0, 0, [o.cz_ambient for o in self.pos],
            [o.cz_ambient for o in self.neg])

    @property
    def profile(self) -> PunctureProfile:
        pos = [0, 0, 0]
        neg = [0, 0, 0]
        for o in self.pos:
            pos[o.sigma_index] += 1
        for o in self.neg:
            neg[o.sigma_index] += 1
        return PunctureProfile(genus=self.genus, pos=tuple(pos),
                               neg=tuple(neg))

    @property
    def side(self) -> str:
        return (self.pos + self.neg)[0].side

    def label(self) -> str:
        bits = ["g%d" % self.genus, self.leaf.label()]
        if self.trivial:
            bits.append("trivial")
        if self.cover_base is not None and self.degree > 1:
            bits.append("deg%d over %s" % (self.degree,
                                           ":".join(self.cover_base)))
        ends = "+".join(o.label() for o in self.pos)
        if self.neg:
            ends += " / -" + ",-".join(o.label() for o in self.neg)
        return "%s [%s]" % (ends, " ".join(bits))


Edge = Tuple[int, int, int, OrbitType, int]
# (lower level index, lower component position, upper component position,
#  orbit type, strand multiplicity)


@dataclass(frozen=True)
class Building:
    """A complete configuration: levels, matching edges, audit data."""

    levels: Tuple[Tuple[Component, ...], ...]
    edges: Tuple[Edge, ...]

    @property
    def components(self) -> List[Component]:
        return [c for level in self.levels for c in level]

    @property
    def total_index(self) -> int:
        return sum(c.index_ambient for c in self.components)

    @property
    def top_ends(self) -> Tuple[OrbitType, ...]:
        return tuple(sorted(itertools.chain.from_iterable(
            c.pos for c in self.levels[-1])))

    @property
    def positive_end_count(self) -> int:
        return len(self.top_ends)

    @property
    def arithmetic_genus(self) -> int:
        v = len(self.components)
        e = sum(mult for *_ignored, mult in self.edges)
        return sum(c.genus for c in self.components) + e - v + 1

    @property
    def twistable(self) -> bool:
        return any(c.leaf.twistable for c in self.components)

    def case_label(self) -> str:
        g, r = self.arithmetic_genus, self.positive_end_count
        if (g, r) == (0, 1):
            return CASE_PLANE
        if (g, r) == (0, 2):
            return CASE_CYLINDER
        if (g, r) == (1, 1):
            return CASE_TORUS
        raise ConfigurationError("no case label for genus %d with %d ends"
                                 % (g, r))

    def key(self):
        return (self.levels, self.edges)


def twin(b: Building) -> Building:
    """Flip the twin flavor of every non-cylindrical leaf."""
    if not b.twistable:
        raise NoTwinError("configuration has no flow-line or page-like leaf")
    new_levels = tuple(
        tuple(replace(c, leaf=c.leaf.twin()) if c.leaf.twistable else c
              for c in level)
        for level in b.levels)
    return Building(levels=new_levels, edges=b.edges)


# ---------------------------------------------------------------------------
# component menu


# (genus, ends) of every menu component: chi = 2 - 2g - ends is 0 or -1
SHAPES = ((0, 2), (0, 3), (1, 1))


def _realizable_cover(degree: int, up: Tuple[int, ...], down: Tuple[int, ...]
                      ) -> List[int]:
    """Genera of connected covers of an orbit cylinder with these ends
    and a shape in ``SHAPES``."""
    out = []
    for genus, ends in SHAPES:
        if ends != len(up) + len(down):
            continue
        z = 2 * genus - 2 + ends    # chi(S) = -Z = 2 - 2g - punctures
        bp = BranchProfile(degree=degree, interior_vanishing=z,
                           puncture_multiplicities=up + down,
                           base_punctures=2, base_euler=0)
        if bp.is_realizable():
            out.append(genus)
    return out


def _left_symplectization(cfg: ModelConfig) -> List[Component]:
    out = []
    leaves = [Leaf("cyl", SIGMA_MIN), Leaf("cyl", SIGMA_HYP_LEFT),
              Leaf("flow1", FLOW_LEFT)]
    for leaf in leaves:
        if leaf.kind == "cyl":
            up_type = down_type = leaf.name
        else:
            up_type, down_type = SIGMA_MIN, SIGMA_HYP_LEFT
        for genus, total in SHAPES:
            for n_pos in range(1, total + 1):
                cylinder = (genus, total, n_pos) == (0, 2, 1)
                if (genus, total) == (0, 2) and not cylinder:
                    continue            # zero energy: a cylinder
                if leaf.kind == "flow1" and total == 3 \
                        and not cfg.allow_flowline_pants:
                    continue
                cover_cap = (1 if cfg.left_covers_as_classes
                             else cfg.cover_threshold)
                for covers in itertools.product(
                        range(1, cover_cap + 1), repeat=total):
                    pos = tuple(sorted(OrbitType(up_type, cover=c)
                                       for c in covers[:n_pos]))
                    neg = tuple(sorted(OrbitType(down_type, cover=c)
                                       for c in covers[n_pos:]))
                    if cylinder and pos[0].cover != neg[0].cover:
                        continue
                    out.append(Component(
                        leaf=leaf, genus=genus, pos=pos, neg=neg,
                        trivial=cylinder and leaf.kind == "cyl"))
    return out


def _right_symplectization(cfg: ModelConfig) -> List[Component]:
    out = []
    flow_bases = [("flow", BASE_MAX, BASE_SADDLE),
                  ("flow", BASE_SADDLE, BASE_MIN),
                  ("flow", BASE_MAX, BASE_MIN)]
    if cfg.flow_cover_attach_even_only:
        flow_bases = [fb for fb in flow_bases if fb[2] == BASE_SADDLE]
    trivial_bases = [("orbit", q) for q in (BASE_MIN, BASE_SADDLE, BASE_MAX)]
    placements = [
        (Leaf("cyl", SIGMA_HYP_RIGHT), SIGMA_HYP_RIGHT, SIGMA_HYP_RIGHT),
        (Leaf("cyl", SIGMA_MAX), SIGMA_MAX, SIGMA_MAX),
        (Leaf("flow1", FLOW_RIGHT), SIGMA_MAX, SIGMA_HYP_RIGHT),
    ]
    for leaf, up_sigma, down_sigma in placements:
        for base in flow_bases + trivial_bases:
            if base[0] == "flow":
                q_up, q_down = base[1], base[2]
            else:
                q_up = q_down = base[1]
            for degree in range(1, cfg.cover_threshold + 1):
                parts = _fiber_partitions(degree)
                for up, down in itertools.product(parts, repeat=2):
                    for genus in _realizable_cover(degree, up, down):
                        branched = (len(up) + len(down) != 2 * degree
                                    or genus > 0)
                        if base[0] == "orbit" and branched \
                                and not cfg.allow_branched_trivial_covers:
                            continue
                        is_trivial_shape = (base[0] == "orbit"
                                            and leaf.kind == "cyl"
                                            and up == (degree,)
                                            and down == (degree,))
                        if base[0] == "orbit" and leaf.kind == "cyl" \
                                and not branched and not is_trivial_shape:
                            continue   # disconnected unbranched orbit cover
                        pos = tuple(sorted(OrbitType(up_sigma, q_up, k)
                                           for k in up))
                        neg = tuple(sorted(OrbitType(down_sigma, q_down, k)
                                           for k in down))
                        out.append(Component(
                            leaf=leaf, genus=genus, pos=pos, neg=neg,
                            trivial=is_trivial_shape,
                            cover_base=tuple(base), degree=degree))
    return out


def _main_level(cfg: ModelConfig) -> List[Component]:
    out = []
    # page-like leaves reachable from each active endpoint
    endpoint_pages = {
        SIGMA_MIN: [PAGE_HYP_MIN] + ([PAGE_MAX_MIN]
                                     if cfg.allow_generic_crossing_pages
                                     else []),
        SIGMA_HYP_LEFT: [PAGE_MAX_HYP],
        SIGMA_HYP_RIGHT: [PAGE_HYP_MIN],
        SIGMA_MAX: [PAGE_MAX_HYP] + ([PAGE_MAX_MIN]
                                     if cfg.allow_generic_crossing_pages
                                     else []),
    }
    for endpoint, pages in endpoint_pages.items():
        left = endpoint in (SIGMA_MIN, SIGMA_HYP_LEFT)
        for page in pages:
            leaf = Leaf("page", page)
            for genus, n in SHAPES:
                if left:
                    base_choices = [(None,) * n]
                else:
                    base_choices = itertools.combinations_with_replacement(
                        (BASE_MIN, BASE_SADDLE, BASE_MAX), n)
                for bases in base_choices:
                    for covers in itertools.product(
                            range(1, cfg.cover_threshold + 1), repeat=n):
                        pos = tuple(sorted(
                            OrbitType(endpoint, bases[i], covers[i])
                            for i in range(n)))
                        comp = Component(leaf=leaf, genus=genus,
                                         pos=pos, neg=())
                        # index in the semi-filling must be non-negative
                        leafish = 2 * genus + n - 2 + sum(
                            o.cz_leaf for o in pos)
                        if leafish < 0:
                            continue
                        out.append(comp)
    return out


def component_menu(cfg: ModelConfig) -> List[Component]:
    """Every admissible component with a shape in ``SHAPES`` whose
    positive action fits the threshold, each listed once."""
    candidates = (_left_symplectization(cfg) + _right_symplectization(cfg)
                  + _main_level(cfg))
    return sorted({c for c in candidates
                   if sum((o.action(cfg) for o in c.pos), Fraction(0))
                   <= cfg.action_threshold})


# ---------------------------------------------------------------------------
# assembly


def _multiset(ends: Iterable[OrbitType]) -> Tuple[Tuple[OrbitType, int], ...]:
    counts: Dict[OrbitType, int] = {}
    for o in ends:
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def _margin_matrices(rows: Sequence[int], cols: Sequence[int]):
    """All non-negative integer matrices with the given margins."""
    if not rows:
        yield ()
        return
    first, rest = rows[0], rows[1:]

    def splits(total, caps):
        if not caps:
            if total == 0:
                yield ()
            return
        for take in range(min(total, caps[0]), -1, -1):
            for tail in splits(total - take, caps[1:]):
                yield (take,) + tail

    for row in splits(first, tuple(cols)):
        remaining = tuple(c - r for c, r in zip(cols, row))
        for tail in _margin_matrices(rest, remaining):
            yield (row,) + tail


def _level_matchings(lower_av: Sequence[Dict[OrbitType, int]],
                     upper_need: Sequence[Dict[OrbitType, int]],
                     level_idx: int):
    """All matchings between lower positives and upper negatives.

    ``lower_av`` holds the positive-end counts of the lower components,
    ``upper_need`` the negative-end counts of the upper ones.
    """
    types = sorted({t for counts in (*lower_av, *upper_need)
                    for t in counts})
    per_type_choices = []
    for t in types:
        rows = [counts.get(t, 0) for counts in lower_av]
        cols = [counts.get(t, 0) for counts in upper_need]
        if sum(rows) != sum(cols):
            return
        choices = []
        for matrix in _margin_matrices(rows, cols):
            edges = tuple((level_idx, i, j, t, matrix[i][j])
                          for i in range(len(lower_av))
                          for j in range(len(upper_need)) if matrix[i][j])
            choices.append(edges)
        per_type_choices.append(choices)
    for combo in itertools.product(*per_type_choices):
        yield tuple(e for group in combo for e in group)


def _canonical(building: Building) -> Building:
    """Least representative over permutations of identical components."""
    best = None
    level_perms = []
    for level in building.levels:
        perms = [p for p in itertools.permutations(range(len(level)))
                 if tuple(level[i] for i in p) == tuple(sorted(level))]
        level_perms.append(perms)
    sorted_levels = tuple(tuple(sorted(level)) for level in building.levels)
    for combo in itertools.product(*level_perms):
        remap = [{old: new for new, old in enumerate(p)} for p in combo]
        edges = tuple(sorted((k, remap[k][i], remap[k + 1][j], t, m)
                             for (k, i, j, t, m) in building.edges))
        cand = (sorted_levels, edges)
        if best is None or cand < best:
            best = cand
    return Building(levels=best[0], edges=best[1])


def enumerate_buildings(cfg: ModelConfig, genus: int, ends: int
                        ) -> List[Building]:
    """All index-one configurations with the given genus and end count.

    One search per configuration serves every case: the first call for
    ``cfg`` runs it and buckets its results by (genus, ends), later
    calls read their bucket.  Each call returns a fresh list.
    """
    if genus < 0 or ends < 0:
        raise ConfigurationError("genus and end count must be >= 0, got "
                                 "%d and %d" % (genus, ends))
    if genus + ends > 2:
        raise ConfigurationError("enumeration covers genus + ends <= 2")
    return list(_search(cfg).get((genus, ends), ()))


@functools.lru_cache(maxsize=8)
def _search(cfg: ModelConfig) -> Dict[Tuple[int, int], Tuple[Building, ...]]:
    """Every index-one configuration with genus + ends <= 2, by case.

    Components are handled by their position in the sorted menu, so
    sorting positions sorts components; their end counts, index and
    positive action are computed once here.

    Euler characteristic bounds the search.  Write V for the number of
    components c of a configuration, g_c and n_c for their genus and
    end count, chi_c = 2 - 2 g_c - n_c, E for the matched strands and r
    for the top ends.  No component is a plane, so every -chi_c >= 0,
    and ``extend`` stacks a level only while sum (-chi_c) <= 1, since
    later components can only raise the sum.  So every component has
    chi_c in {0, -1} (the menu builds only those, ``SHAPES``), and at
    most one has -1.

    Every configuration ``extend`` builds is connected: the bottom is
    one component, and every upper component has a negative end, which
    is matched to a positive end of the level below.  So its genus
    g = sum g_c + E - V + 1, the genus of a connected curve, is >= 0,
    and as every end is matched except the top ones, sum n_c = 2E + r
    and

        sum (-chi_c) = 2g - 2 + r <= 1.

    Every component has a positive end, so r >= 1, hence g <= 1, and
    g = 1 forces r = 1.  ``emit`` keeps r <= 2, so every kept
    configuration has g + r <= 2, and the plane case (g, r) = (0, 1),
    which needs sum (-chi_c) = -1, is empty.  Conversely a connected
    configuration with g + r <= 2 has sum (-chi_c) <= 1, and by the
    next argument one bottom component, so the search misses none.

    Above the bottom every component has a negative end, so it is a
    cylinder with one end of each sign or the one chi = -1 pair of
    pants; the number of strands crossing between two levels changes
    only at the pants.  With no chi = -1 component r = 2; with one,
    r = 1 and the count changes by at most one.  Either way at most 2
    strands cross any level, so no level above the bottom has more than
    2 components.  A bottom component has no negative end and at least
    one positive end, and the only one-ended shape has chi = -1, so 2
    bottom components would need at least 3 strands: the bottom is one
    component.

    The index bounds the levels.  A level of trivial cylinders only is
    unstable, so ``extend`` never builds one.  Two menu facts are
    checked, raising ``ConsistencyError``: an upper component with
    chi = 0 (a cylinder) has index >= 0, and >= 1 unless it is trivial.
    Let s be minus the least index of a chi = -1 upper component, or 0
    if that is larger.
    Every later component has index >= 0 except the one chi = -1
    component, whose index is >= -s, so a partial configuration of index
    above 1 once it holds that component, or above 1 + s before, never
    reaches index 1 and is cut.  Each upper level holds a non-trivial
    component and adds at least 1, except the level of the chi = -1
    component, which adds at least -s; so on a bottom of index b the
    search stops after at most 2 + 2s - b upper levels, whatever
    ``max_levels`` is.  At the defaults s = 2, and a bottom has index
    >= 0 if chi = 0 (at most one pants level and three cylinder levels
    above it) and >= -1 if chi = -1 (at most two levels above it): at
    most 5 levels and 9 components.  ``max_levels`` is the depth of the
    search, a convention of the count.
    """
    menu = component_menu(cfg)
    pos_counts = [dict(_multiset(c.pos)) for c in menu]
    neg_counts = [dict(_multiset(c.neg)) for c in menu]
    index = [c.index_ambient for c in menu]
    chi = [2 - 2 * c.genus - len(c.pos) - len(c.neg) for c in menu]
    action = [sum((o.action(cfg) for o in c.pos), Fraction(0)) for c in menu]
    for i, c in enumerate(menu):
        if c.neg and chi[i] == 0 and index[i] < (0 if c.trivial else 1):
            raise ConsistencyError("upper cylinder %s has index %d"
                                   % (c.label(), index[i]))
    slack = max([0] + [-index[i] for i, c in enumerate(menu)
                       if c.neg and chi[i] == -1])
    # a trivial cylinder cannot sit at the bottom
    bottoms = [i for i, c in enumerate(menu) if not c.neg and not c.trivial]
    # end type -> upper components with a negative end of that type
    covering: Dict[OrbitType, List[int]] = {}
    for i, c in enumerate(menu):
        if c.neg and c.leaf.kind != "page":
            for t in neg_counts[i]:
                covering.setdefault(t, []).append(i)
    results: Dict[Tuple[int, int], Dict[Tuple, Building]] = {}

    def emit(levels, edges, total_index):
        if total_index != 1:
            return
        if sum(len(menu[i].pos) for i in levels[-1]) > 2:
            return
        if sum(action[i] for i in levels[-1]) > cfg.action_threshold:
            return
        # shapes are primitive in the covering multiplicities
        if math.gcd(*(o.cover for lv in levels for i in lv
                      for o in menu[i].pos + menu[i].neg)) > 1:
            return
        b = _canonical(Building(
            levels=tuple(tuple(menu[i] for i in lv) for lv in levels),
            edges=tuple(edges)))
        results.setdefault((b.arithmetic_genus, b.positive_end_count),
                           {}).setdefault(b.key(), b)

    def level_choices(need: Dict[OrbitType, int]):
        """Multisets of upper components consuming exactly ``need``.

        Each step must cover the least open end type, which keeps the
        search narrow; duplicate orderings collapse in the canonical
        form of the finished configuration.
        """
        if not any(need.values()):
            yield ()
            return
        target = min(t for t, v in need.items() if v > 0)
        for cand in covering.get(target, ()):
            counts = neg_counts[cand]
            if any(need.get(t, 0) < m for t, m in counts.items()):
                continue
            rest = dict(need)
            for t, m in counts.items():
                rest[t] -= m
            for tail in level_choices(rest):
                yield (cand,) + tail

    def extend(levels, edges, total_index, euler):
        """Emit, then stack every level that can still reach index 1;
        ``euler`` is sum (-chi_c) so far."""
        emit(levels, edges, total_index)
        if len(levels) >= cfg.max_levels:
            return
        lower = [pos_counts[i] for i in levels[-1]]
        need: Dict[OrbitType, int] = {}
        for counts in lower:
            for t, m in counts.items():
                need[t] = need.get(t, 0) + m
        for combo in level_choices(need):
            level = tuple(sorted(combo))
            up_index = total_index + sum(index[j] for j in level)
            up_euler = euler - sum(chi[j] for j in level)
            if all(menu[j].trivial for j in level) or up_euler > 1 \
                    or up_index > (1 if up_euler else 1 + slack):
                continue
            upper = [neg_counts[j] for j in level]
            for match in _level_matchings(lower, upper, len(levels) - 1):
                extend(levels + [level], edges + list(match), up_index,
                       up_euler)

    for i in bottoms:
        extend([(i,)], [], index[i], -chi[i])

    return {case: tuple(sorted(found.values(), key=_sort_key))
            for case, found in results.items()}


def _sort_key(b: Building):
    return (tuple(tuple(c.label() for c in lv) for lv in b.levels), b.edges)


# ---------------------------------------------------------------------------
# audits, classification, pairing


def _connected(levels, edges) -> bool:
    ids = {}
    for k, level in enumerate(levels):
        for i, _ in enumerate(level):
            ids[(k, i)] = (k, i)

    def find(x):
        while ids[x] != x:
            ids[x] = ids[ids[x]]
            x = ids[x]
        return x

    for (k, i, j, _t, _m) in edges:
        a, b = find((k, i)), find((k + 1, j))
        if a != b:
            ids[a] = b
    roots = {find(x) for x in ids}
    return len(roots) <= 1


def check_constraints(cfg: ModelConfig, b: Building) -> Tuple[bool, str]:
    """Re-audit the structural facts on a finished configuration."""
    for c in b.components:
        sides = {o.side for o in c.pos + c.neg}
        if len(sides) > 1:
            return False, "component crosses the dividing set"
        if c.genus == 0 and len(c.pos) + len(c.neg) == 1:
            return False, "plane at a non-contractible orbit"
        if c.side == "left" and c.leaf.kind != "page":
            if (c.genus, len(c.pos), len(c.neg)) == (0, 1, 1) \
                    and not (c.trivial or c.leaf.kind == "flow1"):
                return False, "nontrivial cylinder in a left leaf"
        if c.side == "right" and c.leaf.kind != "page" \
                and c.cover_base is None:
            return False, "right symplectization component is not a cover"
        if c.leaf.kind == "page" and c.neg:
            return False, "main-level component with a negative end"
    if b.total_index != 1:
        return False, "total index is not one"
    if not _connected(b.levels, b.edges):
        return False, "configuration is not connected"
    for level in b.levels:
        if all(c.trivial for c in level):
            return False, "level of trivial cylinders only"
    return True, ""


@dataclass(frozen=True)
class ObstructionAudit:
    component: str
    normal_index: int
    dim_ker: int
    rank: int
    regular: bool


def obstruction_data(b: Building) -> List[ObstructionAudit]:
    """Regularity and obstruction-rank audit per component.

    Trivial cylinders are regular and skipped.  Every other component
    is regular in its leaf, and its ambient obstruction rank is
    ``obstruction_rank(0, ind_N, dim ker N)`` for its normal operator N,
    a real Cauchy-Riemann operator on a line bundle.  Deformations
    through leaves lie in ker N, so the leaf constant
    ``Leaf.dim_ker_normal`` is a lower bound of dim ker N.

    When ``regularity_transfer`` holds, N is onto: its cokernel is 0,
    so the Fredholm identity dim ker N - dim coker N = ind_N gives
    dim ker N = ind_N and rank 0.  Two bounds audit this, raising
    ``ConsistencyError``: the leaf constant is at most ind_N, and ind_N
    is at most ``kernel_bound(c_N, #Gamma_even)``, the kernel bound of
    a line bundle operator with 2 c_N = ind_N - 2 + 2g + #Gamma_even
    (Wendl, "Automatic transversality and orbifolds of punctured
    holomorphic curves in dimension four", Comment. Math. Helv. 2010).
    Otherwise dim ker N is taken to be the leaf constant, and a
    component of positive rank is not-too-bad.
    """
    out = []
    for c in b.components:
        if c.trivial:
            continue
        profile = c.profile
        ind_n = normal_index(profile)
        dim_ker = c.leaf.dim_ker_normal
        if regularity_transfer(profile, True):
            gamma_even = profile.even_punctures
            bound = kernel_bound(
                (ind_n - 2 + 2 * profile.genus + gamma_even) // 2, gamma_even)
            if not dim_ker <= ind_n <= bound:
                raise ConsistencyError(
                    "component %s: normal index %d outside [%d, %d]"
                    % (c.label(), ind_n, dim_ker, bound))
            dim_ker = ind_n      # N is onto
        try:
            rank = obstruction_rank(0, ind_n, dim_ker)
        except ConfigurationError as exc:
            # the profile comes from the enumerator, not from the user
            raise ConsistencyError("component %s: %s"
                                   % (c.label(), exc)) from exc
        out.append(ObstructionAudit(c.label(), ind_n, dim_ker, rank,
                                    rank == 0))
    return out


def sporadic_signature() -> Building:
    """The canonical unpaired configuration: a one-ended genus-one curve
    in the cylindrical leaf over the minimum."""
    comp = Component(leaf=Leaf("cyl", SIGMA_MIN), genus=1,
                     pos=(OrbitType(SIGMA_MIN),), neg=())
    return Building(levels=((comp,),), edges=())


def is_sporadic(b: Building) -> bool:
    return b.key() == sporadic_signature().key()


@dataclass(frozen=True)
class Pairing:
    pairs: Tuple[Tuple[Building, Building], ...]
    unpaired: Tuple[Building, ...]


def pair_cancellation(buildings: Sequence[Building]) -> Pairing:
    """Partition configurations into cancelling twin pairs and leftovers.

    Each configuration stands for its twin family: a twistable one
    cancels against ``twin(b)``, its flavor flip, and every other one is
    unpaired.
    """
    pairs = []
    unpaired = []
    for b in buildings:
        if b.twistable:
            pairs.append((b, twin(b)))
        else:
            unpaired.append(b)
    return Pairing(tuple(pairs), tuple(unpaired))


def expand_flavors(buildings: Sequence[Building]) -> List[Building]:
    """Both twin flavors of every twistable configuration."""
    out = []
    for b in buildings:
        out.append(b)
        if b.twistable:
            out.append(twin(b))
    return out


# ---------------------------------------------------------------------------
# serialization


def orbit_to_dict(o: OrbitType) -> Dict:
    out = {"sigma": o.sigma, "cover": o.cover}
    if o.base is not None:
        out["base"] = o.base
    return out


def component_to_dict(c: Component) -> Dict:
    out = {
        "leaf": {"kind": c.leaf.kind, "name": c.leaf.name,
                 "flavor": c.leaf.flavor},
        "genus": c.genus,
        "positive": [orbit_to_dict(o) for o in c.pos],
        "negative": [orbit_to_dict(o) for o in c.neg],
        "trivial": c.trivial,
        "index": c.index_ambient,
    }
    if c.cover_base is not None:
        out["cover_of"] = list(c.cover_base)
        out["degree"] = c.degree
    return out


def building_to_dict(cfg: ModelConfig, b: Building,
                     ident: Optional[int] = None) -> Dict:
    ok, violation = check_constraints(cfg, b)
    entry = {
        "case": b.case_label(),
        "levels": [[component_to_dict(c) for c in level]
                   for level in b.levels],
        "matching": [{"level": k, "lower": i, "upper": j,
                      "orbit": orbit_to_dict(t), "strands": m}
                     for (k, i, j, t, m) in b.edges],
        "index_total": b.total_index,
        "arithmetic_genus": b.arithmetic_genus,
        "positive_ends": [orbit_to_dict(o) for o in b.top_ends],
        "action_total": sum((o.action(cfg) for o in b.top_ends),
                            Fraction(0)),
        "constraints_ok": ok,
        "twistable": b.twistable,
        "sporadic": is_sporadic(b),
        "obstruction": [
            {"component": a.component, "normal_index": a.normal_index,
             "dim_ker": a.dim_ker, "rank": a.rank, "regular": a.regular}
            for a in obstruction_data(b)],
    }
    if ident is not None:
        entry["id"] = ident
    return entry


def classification_document(cfg: ModelConfig, genus: int, ends: int,
                            convention: str = "twins-identified") -> Dict:
    """The classification of one case.  Pairing is of the enumerated twin
    families; "twins-distinct" lists both flavors of each family."""
    if convention not in ("twins-identified", "twins-distinct"):
        raise ConfigurationError("unknown pairing convention %r"
                                 % (convention,))
    families = enumerate_buildings(cfg, genus, ends)
    pairing = pair_cancellation(families)
    listed = families
    if convention == "twins-distinct":
        listed = sorted(expand_flavors(families), key=_sort_key)
    entries = [building_to_dict(cfg, b, ident=i)
               for i, b in enumerate(listed)]
    return {
        "schema": 1,
        "genus": genus,
        "positive_ends": ends,
        "convention": convention,
        "entries": entries,
        "summary": {
            "configurations": len(entries),
            "pairs": len(pairing.pairs),
            "unpaired": len(pairing.unpaired),
            "sporadic": sum(1 for b in pairing.unpaired
                            if is_sporadic(b)),
        },
    }


def model_count_table_entries(cfg: ModelConfig, sporadic_value: Fraction
                              ) -> List[Dict]:
    """Signed per-configuration count contributions of the model.

    Every twin pair carries opposite contributions on the same key and
    cancels exactly; the sporadic configuration contributes the given
    nonzero value on its one-generator key at genus one.  The returned
    list keeps the cancelling entries explicit so their exact collapse
    is visible to consumers.
    """
    buildings = enumerate_buildings(cfg, 1, 1) + enumerate_buildings(
        cfg, 0, 2)
    rows: List[Dict] = []
    for b in buildings:
        key = {
            "genus": b.arithmetic_genus,
            "positive": ["q_" + o.label() for o in b.top_ends],
            "negative": [],
        }
        if is_sporadic(b):
            rows.append(dict(key, value=sporadic_value,
                             origin="sporadic"))
        else:
            rows.append(dict(key, value=Fraction(1), origin="twin+"))
            rows.append(dict(key, value=Fraction(-1), origin="twin-"))
    return rows
