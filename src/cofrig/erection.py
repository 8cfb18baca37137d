"""Free erections and elevations of explicit matroids.

A family of cyclic sets that is down-closed (within the family of all cyclic
sets) and closed under unions of modular pairs determines an elementary lift

    r_N(X) = r_M(X) + [cyc_M(X) not in family],

and when the family contains every non-spanning cyclic flat, N is an erection
of M.  The smallest such family containing the non-spanning cyclic flats
yields the free erection; iterating until the erection is trivial yields the
free elevation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matroids import ExplicitMatroid, verify_rank_axioms


def _down_close(new_members, cyclic_list, down: set[int]) -> list[int]:
    """Cyclic sets below a new member that are not yet in `down` (which is
    updated in place)."""
    added = []
    for u in new_members:
        if u in down:
            continue
        for z in cyclic_list:
            if z not in down and z & u == z:
                down.add(z)
                added.append(z)
    return added


def modular_cyclic_closure(M: ExplicitMatroid, seed_family) -> frozenset[int]:
    """Smallest modular cyclic family containing the seeds.

    Round by round, unions of modular pairs drawn from the family's lower
    closure are added, then the lower closure is recomputed; the loop stops
    when a round adds nothing.  If the largest cyclic set cyc(E) ever enters,
    the closure is the family of all cyclic sets and we return it at once;
    any other result is checked to be modular cyclic before it is returned.
    """
    cyclic_list = M.cyclic_sets()
    cyclic_set = set(cyclic_list)
    for x in seed_family:
        if x not in cyclic_set:
            raise ValueError(f"seed member {x:#x} is not cyclic")
    everything = frozenset(cyclic_list)
    top = M.cyc(M.full_mask)

    down: set[int] = {0}
    down_list = [0]
    fresh = _down_close(sorted(seed_family, key=lambda z: -z.bit_count()),
                        cyclic_list, down)
    if top in down:
        return everything
    down_list.extend(sorted(fresh, key=lambda z: -z.bit_count()))
    new_from = 1 if fresh else len(down_list)

    while new_from < len(down_list):
        unions = set()
        total = len(down_list)
        for i in range(new_from, total):
            x = down_list[i]
            for j in range(i + 1):
                y = down_list[j]
                u = x | y
                if u == x or u == y or u in down or u in unions:
                    continue
                if M.is_modular_pair(x, y):
                    if u == top:
                        return everything
                    unions.add(u)
        if not unions:
            break
        fresh = _down_close(sorted(unions, key=lambda z: -z.bit_count()),
                            cyclic_list, down)
        if top in down:
            return everything
        new_from = len(down_list)
        down_list.extend(sorted(fresh, key=lambda z: -z.bit_count()))

    family = frozenset(down)
    problem = family_violation(M, family)
    if problem:
        raise AssertionError(f"closure is not modular cyclic: {problem}")
    return family


def family_violation(M: ExplicitMatroid, family) -> str | None:
    """None if the family is modular cyclic, else a short description."""
    fam = set(family)
    cyclic_list = M.cyclic_sets()
    if not fam <= set(cyclic_list):
        return "contains a non-cyclic set"
    if 0 not in fam:
        return "missing the empty set"
    for z in cyclic_list:
        if z in fam:
            continue
        for x in fam:
            if z & x == z:
                return f"not down-closed at {z:#x} <= {x:#x}"
    members = sorted(fam)
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if (x | y) not in fam and M.is_modular_pair(x, y):
                return f"modular pair {x:#x},{y:#x} union missing"
    return None


def is_modular_cyclic_family(M: ExplicitMatroid, family) -> bool:
    return family_violation(M, family) is None


def free_erection(M: ExplicitMatroid) -> tuple[ExplicitMatroid, bool, frozenset[int]]:
    """The free erection of M: (matroid, trivial flag, closure family).

    Returns M itself with trivial=True when no nontrivial erection exists,
    i.e. when the closure of the non-spanning cyclic flats already contains
    every cyclic set.  A nontrivial erection is checked against the rank
    axioms before it is returned.
    """
    family = modular_cyclic_closure(M, M.cyclic_flats())
    if M.cyc(M.full_mask) in family:
        return M, True, family
    N = ExplicitMatroid([r + (c not in family)
                         for r, c in zip(M.full_table(), M.cyc_table)])
    verify_rank_axioms(N)
    return N, False, family


def has_nontrivial_erection(M: ExplicitMatroid) -> bool:
    _, trivial, _ = free_erection(M)
    return not trivial


@dataclass
class ErectionChain:
    """A maximal chain of free erections: steps[0] is the input matroid."""

    steps: list[ExplicitMatroid]
    families: list[frozenset[int]] = field(default_factory=list)

    @property
    def final(self) -> ExplicitMatroid:
        return self.steps[-1]

    def __len__(self) -> int:
        return len(self.steps)


def free_elevation(M: ExplicitMatroid) -> ErectionChain:
    """Iterate free erections until they become trivial."""
    chain = ErectionChain(steps=[M])
    cur = M
    while True:
        nxt, trivial, family = free_erection(cur)
        if trivial:
            break
        chain.steps.append(nxt)
        chain.families.append(family)
        if nxt.rank_total != cur.rank_total + 1:
            raise AssertionError("erection did not raise the rank by one")
        cur = nxt
    return chain


def check_cyclic_flat_cover(chain: ErectionChain, members) -> bool:
    """Whether every cyclic flat of the final matroid is a union of members.

    Precondition (checked): every cyclic flat of the starting matroid is such
    a union; the point is that elevations preserve this.
    """
    members = list(members)

    def union_covered(x: int) -> bool:
        u = 0
        for c in members:
            if c & x == c:
                u |= c
        return u == x

    base = chain.steps[0]
    for x in base.cyclic_flats(include_spanning=True):
        if not union_covered(x):
            raise ValueError(
                f"cyclic flat {x:#x} of the base matroid is not a union of members")
    return all(union_covered(x)
               for x in chain.final.cyclic_flats(include_spanning=True))
