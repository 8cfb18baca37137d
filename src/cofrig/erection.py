"""Free erections and elevations of explicit matroids.

A family of cyclic sets that is down-closed (within the family of all cyclic
sets) and closed under unions of modular pairs determines an elementary lift

    r_N(X) = r_M(X) + [cyc_M(X) not in family],

and when the family contains every non-spanning cyclic flat, N is an erection
of M.  The smallest such family containing the non-spanning cyclic flats
yields the free erection; iterating until the erection is trivial yields the
free elevation.

Families are closed downwards as bitsets of subsets (see matroids.py).  The
lift needs no cyc_M table: a down-closed family holding the non-spanning
cyclic flats holds every non-spanning cyclic set (each lies in its closure),
and a set containing a spanning cyclic set is itself cyclic, so cyc_M(X) is
outside the family exactly when X is a cyclic set outside it.
"""

from __future__ import annotations

from .matroids import (
    ExplicitMatroid,
    down_closure,
    family_bits,
    members,
    subset_flags,
    verify_rank_axioms,
)


def modular_cyclic_closure(M: ExplicitMatroid, seed_family) -> frozenset[int]:
    """Smallest modular cyclic family containing the seeds.

    Round by round, unions of modular pairs drawn from the family's lower
    closure are added, then the lower closure is recomputed; the loop stops
    when a round adds nothing.  If the largest cyclic set cyc(E) ever enters,
    the closure is the family of all cyclic sets and we return it at once;
    any other result is checked to be modular cyclic before it is returned.
    """
    cyclic, seeds = M.cyclic_bits, set(seed_family)
    for x in seeds:
        if not cyclic >> x & 1:
            raise ValueError(f"seed member {x:#x} is not cyclic")
    top = M.cyclic_bits.bit_length() - 1  # cyc(E) holds every cyclic set
    table = M.full_table()

    down, down_list, unions = 0, [], seeds | {0}
    while unions:
        fresh = down_closure(family_bits(unions), M.m) & cyclic & ~down
        down |= fresh
        if down >> top & 1:
            return frozenset(members(cyclic))
        new_from = len(down_list)
        down_list.extend(sorted(members(fresh), key=lambda z: -z.bit_count()))
        known, unions = set(down_list), set()
        for i in range(new_from, len(down_list)):
            x = down_list[i]
            for j in range(i + 1):
                y = down_list[j]
                u = x | y
                if u == x or u == y or u in known or u in unions:
                    continue
                if table[x] + table[y] == table[u] + table[x & y]:  # modular
                    if u == top:
                        return frozenset(members(cyclic))
                    unions.add(u)

    family = frozenset(down_list)
    problem = family_violation(M, family)
    if problem:
        raise AssertionError(f"closure is not modular cyclic: {problem}")
    return family


def family_violation(M: ExplicitMatroid, family) -> str | None:
    """None if the family is modular cyclic, else a short description."""
    family = set(family)
    fam, cyclic = family_bits(family), M.cyclic_bits
    if fam & ~cyclic:
        return "contains a non-cyclic set"
    if not fam & 1:
        return "missing the empty set"
    below = down_closure(fam, M.m) & cyclic & ~fam
    if below:
        z = members(below)[0]
        x = min(x for x in family if x & z == z)
        return f"not down-closed at {z:#x} <= {x:#x}"
    listed, table = sorted(family), M.full_table()
    for i, x in enumerate(listed):
        for y in listed[i + 1:]:
            u = x | y
            if u not in family and table[x] + table[y] == table[u] + table[x & y]:
                return f"modular pair {x:#x},{y:#x} union missing"
    return None


def free_erection(M: ExplicitMatroid) -> tuple[ExplicitMatroid, bool, frozenset[int]]:
    """The free erection of M: (matroid, trivial flag, closure family).

    Returns M itself with trivial=True when no nontrivial erection exists,
    i.e. when the closure of the non-spanning cyclic flats already contains
    every cyclic set.  N's table adds 1 on the raised sets R, so its levels
    follow from M's with no parse of the table: a subset has N-rank >= k
    where it has M-rank >= k, or M-rank >= k - 1 and lies in R.  A
    nontrivial erection is checked against the rank axioms before it is
    returned.
    """
    family = modular_cyclic_closure(M, M.cyclic_flats())
    if M.cyclic_bits.bit_length() - 1 in family:  # cyc(E)
        return M, True, family
    raised = M.cyclic_bits & ~family_bits(family)
    table = (int.from_bytes(M.full_table(), "little")
             + int.from_bytes(subset_flags(raised, M.m), "little"))
    N = ExplicitMatroid(table.to_bytes(1 << M.m, "little"))
    levels = M.levels
    N.levels = [levels[0], *(level | below & raised
                             for below, level in zip(levels, levels[1:]))]
    if top := levels[-1] & raised:
        N.levels.append(top)
    verify_rank_axioms(N)
    return N, False, family


class ErectionChain:
    """A maximal chain of free erections: steps[0] is the input matroid."""

    def __init__(self, steps: list[ExplicitMatroid],
                 families: list[frozenset[int]] | None = None):
        self.steps = steps
        self.families = [] if families is None else families

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
